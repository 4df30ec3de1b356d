//! `serve_decks`: the golden StrongARM deck, posted as raw SPICE
//! (`Content-Type: text/x-spice`) to a `tranvar-serve` daemon over
//! loopback by two closed-loop clients.
//!
//! Each request carries the deck plus two sweeps: two seeded `VCM` points
//! (solve-affecting) × three σ levels (σ-only, shared), so six scenarios
//! and two unique solves. Each client round sends four requests: one
//! unseen text (a nonce comment changes its content-hash deck name, so
//! both solves miss the cache) at a seeded position, and three repeats of
//! the client's own recent texts (both solves hit). Misses pay
//! elaboration, two solves and the cache write; hits pay elaboration, the
//! cache read, reports and rendering.

use crate::trace::Recorder;
use crate::{p_ms, probe, Metrics, Outcome, RunArgs, Traffic, HARD_CAP_S, MIN_ROUNDS, SETUP_REPS};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tranvar::core::{scenario_reports, solve_groups, solve_unique, Campaign, PssConfig};
use tranvar::engine::{RetryPolicy, Session, SessionOptions, SessionStats};
use tranvar::netlist::{parse_and_elaborate, Elaboration};
use tranvar::num::rng::Rng64;
use tranvar_serve::deck::spice_name;
use tranvar_serve::{body_from_campaign, body_ok, Server, ServerConfig};

/// The golden deck the netlist conformance suite pins to `StrongArm::paper`.
const GOLDEN: &str = include_str!("../../crates/netlist/tests/decks/strongarm.sp");
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Requests per client round: one miss and three hits.
const ROUND: usize = 4;
/// Hits repeat one of the client's last few texts: 2 solves each, far
/// inside the daemon's cache, so a repeat is always a hit.
const RECENT: usize = 4;

/// Per-layer names `serve_decks` measures in a traced run.
pub fn layer_names() -> Vec<String> {
    [
        "miss.latency_ms.p50",
        "miss.latency_ms.p90",
        "miss.samples",
        "hit.latency_ms.p50",
        "hit.latency_ms.p90",
        "hit.samples",
        "netlist.elaborate_ms",
        "core.solve_unique_ms",
        "core.scenario_reports_ms",
        "serve.body_ms",
        "serve.miss.residual_ms",
        "serve.hit.residual_ms",
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.hit_ratio",
        "serve.accepted",
        "serve.completed",
        "serve.shed",
        "serve.panics",
        "serve.write_errors",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The request body: the golden deck with a nonce comment and the sweeps
/// inserted before `.end`.
fn deck_text(vcm: &[f64; 2], nonce: u64) -> String {
    let body = GOLDEN
        .trim_end()
        .strip_suffix(".end")
        .expect("the golden deck ends with .end");
    format!(
        "{body}* request {nonce:016x}\n.sweep source VCM {:.4} {:.4}\n.sweep sigma 0.5 1.0 2.0\n.end\n",
        vcm[0], vcm[1]
    )
}

/// The in-process answer every response must equal byte for byte.
struct Oracle {
    elab: Elaboration,
    config: PssConfig,
    result: tranvar::core::CampaignResult,
}

impl Oracle {
    fn new(text: &str) -> Result<Oracle, String> {
        let elab = parse_and_elaborate(text).map_err(|e| format!("golden deck: {e}"))?;
        let config = elab
            .analysis
            .as_ref()
            .and_then(|a| a.pss_config())
            .ok_or("golden deck has no driven .pss card")?;
        let result = Campaign::new(config.clone(), elab.metrics.clone())
            .run(&elab.circuit, &elab.scenarios)
            .map_err(|e| format!("oracle campaign: {e}"))?;
        Ok(Oracle {
            elab,
            config,
            result,
        })
    }

    /// The body the daemon must send for `text`: the same campaign under
    /// the text's content-hash deck name.
    fn body(&self, text: &str) -> String {
        body_from_campaign(&spice_name(text), &self.result).1
    }
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<u64> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
    }
}

/// One request on its own connection (the daemon closes after replying).
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    spice: Option<&str>,
) -> Result<Reply, String> {
    let body = spice.unwrap_or("");
    let ctype = if spice.is_some() {
        "content-type: text/x-spice\r\n"
    } else {
        ""
    };
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\n{ctype}content-length: {}\r\n\r\n{body}",
        body.len()
    );
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    s.write_all(raw.as_bytes()).map_err(io)?;
    let mut resp = String::new();
    s.read_to_string(&mut resp).map_err(io)?;
    let (head, body) = resp
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: unframed response"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Whether a reply is the oracle's body with the cache outcome the
/// schedule implies: a miss solves both keys, a hit reads both.
fn check(reply: &Result<Reply, String>, expected: &str, miss: bool) -> (bool, u64, u64) {
    let Ok(r) = reply else {
        return (false, 0, 0);
    };
    let (hits, misses) = (
        r.header("x-tranvar-cache-hits"),
        r.header("x-tranvar-cache-misses"),
    );
    let (h, m) = (hits.unwrap_or(0), misses.unwrap_or(0));
    let want = if miss { (0, 2) } else { (2, 0) };
    let ok = r.status == 200 && r.body == expected && (h, m) == want;
    (ok, h, m)
}

#[derive(Default)]
struct ClientLog {
    traffic: Traffic,
    /// Raw latencies (s) of the counted misses and hits.
    miss: Vec<f64>,
    hit: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
}

/// One closed-loop client: a round of four requests at a time until the
/// run's time is up and enough rounds are in.
fn client(
    addr: SocketAddr,
    index: usize,
    args: &RunArgs,
    vcm: &[f64; 2],
    oracle: &Oracle,
    counted_rounds: &AtomicUsize,
    rec: &mut Recorder,
) -> ClientLog {
    let mut rng = Rng64::seed_from(args.seed ^ (0x636c_6965_6e74_0000 + index as u64));
    let mut log = ClientLog::default();
    let mut recent: VecDeque<(String, String)> = VecDeque::new();
    let start = Instant::now();
    let mut round = 0usize;
    let mut op = (index as u64) << 32;
    let mut before = log.traffic.bracket();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = counted_rounds.load(Ordering::SeqCst) >= MIN_ROUNDS;
        if (elapsed >= args.seconds && enough) || elapsed >= HARD_CAP_S {
            break;
        }
        let traced = args.traced && round.is_multiple_of(2);
        let counted = traced || !args.traced;
        let miss_at = if recent.is_empty() {
            0
        } else {
            (rng.next_u64() % ROUND as u64) as usize
        };
        let mut ops = Vec::with_capacity(ROUND);
        for i in 0..ROUND {
            let miss = i == miss_at;
            let (text, expected) = if miss {
                let text = deck_text(vcm, rng.next_u64());
                let expected = oracle.body(&text);
                (text, expected)
            } else {
                recent[(rng.next_u64() % recent.len() as u64) as usize].clone()
            };
            let span = traced.then(|| rec.enter(if miss { "serve.miss" } else { "serve.hit" }, op));
            let t = Instant::now();
            let reply = exchange(addr, "POST", "/analyze", Some(&text));
            let latency = t.elapsed().as_secs_f64();
            if let Some(id) = span {
                rec.exit(id);
            }
            op += 1;
            let (ok, h, m) = check(&reply, &expected, miss);
            log.cache_hits += h;
            log.cache_misses += m;
            log.traffic.attempted += 1;
            log.traffic.failed += u64::from(!ok);
            ops.push(latency);
            if counted {
                if miss { &mut log.miss } else { &mut log.hit }.push(latency);
            }
            if miss {
                recent.push_back((text, expected));
                if recent.len() > RECENT {
                    recent.pop_front();
                }
            }
        }
        let after = log.traffic.bracket();
        log.traffic.push_round(ops, counted, before, after);
        before = after;
        if counted {
            counted_rounds.fetch_add(1, Ordering::SeqCst);
        }
        round += 1;
    }
    log
}

/// The daemon's `/readyz` counters.
fn readyz(addr: SocketAddr) -> Result<tranvar_serve::Json, String> {
    let r = exchange(addr, "GET", "/readyz", None)?;
    tranvar_serve::json::parse(&r.body).map_err(|e| format!("/readyz: {e}"))
}

fn counter(before: &tranvar_serve::Json, after: &tranvar_serve::Json, key: &str) -> f64 {
    let read = |j: &tranvar_serve::Json| j.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    read(after) - read(before)
}

fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon bind: {e}"))
}

fn stop_server(server: Server) -> Result<(), String> {
    exchange(server.addr(), "POST", "/shutdown", None)?;
    server.join();
    Ok(())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut seeds = Rng64::seed_from(args.seed);
    // Two distinct common-mode points, seeded, both near the deck's 0.8 V.
    let vcm = [0.79 + 0.01 * seeds.uniform(), 0.80 + 0.01 * seeds.uniform()];
    let oracle = Oracle::new(&deck_text(&vcm, 0))?;
    let mut correct = true;

    // Set-up: boot the daemon and warm it with one miss and one hit.
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            stop_server(s)?;
        }
        let text = deck_text(&vcm, u64::MAX - rep as u64);
        let expected = oracle.body(&text);
        let (elapsed, (s, first, second)) = crate::timed_setup(|| {
            let s = start_server()?;
            let first = exchange(s.addr(), "POST", "/analyze", Some(&text));
            let second = exchange(s.addr(), "POST", "/analyze", Some(&text));
            Ok((s, first, second))
        })?;
        setup.push(elapsed);
        correct &= check(&first, &expected, true).0 && check(&second, &expected, false).0;
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    let before = readyz(addr)?;
    let counted = AtomicUsize::new(0);
    let origin = Instant::now();
    let logs: Vec<(ClientLog, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (oracle, counted, vcm) = (&oracle, &counted, &vcm);
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin);
                    let log = client(addr, i, args, vcm, oracle, counted, &mut rec);
                    (log, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = readyz(addr)?;
    stop_server(server)?;

    let mut traffic = Traffic::default();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    let (mut hdr_hits, mut hdr_misses) = (0, 0);
    let mut rec = Recorder::new(origin);
    for (log, r) in logs {
        traffic.absorb(log.traffic);
        miss.extend(log.miss);
        hit.extend(log.hit);
        hdr_hits += log.cache_hits;
        hdr_misses += log.cache_misses;
        rec.absorb(r);
    }

    // The daemon's own counters must agree with what the clients saw.
    let delta = |k| counter(&before, &after, k);
    let requests = traffic.attempted as f64;
    let counters_ok = delta("shed") == 0.0
        && delta("panics") == 0.0
        && delta("write_errors") == 0.0
        && delta("accepted") == requests
        && delta("completed") == requests + 1.0 // the first /readyz itself
        && delta("cache_hits") == hdr_hits as f64
        && delta("cache_misses") == hdr_misses as f64;
    if !counters_ok {
        eprintln!("perfbench: daemon counters disagree with the clients: before {before}, after {after}, headers {hdr_hits}/{hdr_misses}");
    }
    correct &= counters_ok;

    let mut m = Metrics::new();
    if args.traced {
        crate::trace_overhead(&traffic, &mut m);
        let (miss_p50, hit_p50) = (p_ms(&miss, 50, "miss")?, p_ms(&hit, 50, "hit")?);
        m.insert("miss.latency_ms.p50".into(), miss_p50);
        m.insert("miss.latency_ms.p90".into(), p_ms(&miss, 90, "miss")?);
        m.insert("miss.samples".into(), miss.len() as f64);
        m.insert("hit.latency_ms.p50".into(), hit_p50);
        m.insert("hit.latency_ms.p90".into(), p_ms(&hit, 90, "hit")?);
        m.insert("hit.samples".into(), hit.len() as f64);
        for k in [
            "cache_hits",
            "cache_misses",
            "accepted",
            "completed",
            "shed",
            "panics",
            "write_errors",
        ] {
            m.insert(format!("serve.{k}"), delta(k));
        }
        m.insert(
            "serve.hit_ratio".into(),
            delta("cache_hits") / (delta("cache_hits") + delta("cache_misses")),
        );
        let replay = replays(&oracle, &vcm)?;
        let [elab, solve, reports, body] = replay;
        m.insert("netlist.elaborate_ms".into(), elab);
        m.insert("core.solve_unique_ms".into(), solve);
        m.insert("core.scenario_reports_ms".into(), reports);
        m.insert("serve.body_ms".into(), body);
        m.insert(
            "serve.miss.residual_ms".into(),
            miss_p50 - (elab + 2.0 * solve + reports + body),
        );
        m.insert(
            "serve.hit.residual_ms".into(),
            hit_p50 - (elab + reports + body),
        );
        crate::write_trace(args, &rec)?;
    } else {
        crate::end_to_end(&traffic, &setup, CLIENTS, &mut m)?;
    }
    Ok(traffic.outcome(correct, m))
}

/// In-process replays of the daemon's per-request work (ms): elaborate
/// the body, one unique solve, the six scenario reports, the body render.
fn replays(oracle: &Oracle, vcm: &[f64; 2]) -> Result<[f64; 4], String> {
    let text = deck_text(vcm, 1);
    let elab_ms = probe(|| parse_and_elaborate(&text).is_ok()) * 1e3;

    let e = &oracle.elab;
    let (keys, key_of) = solve_groups(&e.scenarios);
    // The daemon's pool sessions: one thread each, default backend.
    let mut session = Session::new(SessionOptions {
        threads: 1,
        ..SessionOptions::default()
    });
    let mut solves = Vec::new();
    let mut failure = None;
    let solve_ms =
        1e3 * probe(|| {
            solves.clear();
            for (i, key) in keys.iter().enumerate() {
                let mut stats = SessionStats::default();
                let u = solve_unique(
                    &mut session,
                    &e.circuit,
                    key,
                    &oracle.config,
                    &RetryPolicy::none(),
                    i,
                    &mut stats,
                );
                match u.outcome {
                    Ok(data) => solves.push(data),
                    Err(err) => failure = Some(err.to_string()),
                }
            }
        }) / keys.len() as f64;
    if let Some(err) = failure {
        return Err(format!("solve replay: {err}"));
    }

    let mut results = Vec::new();
    let reports_ms = 1e3
        * probe(|| {
            results = e
                .scenarios
                .iter()
                .zip(&key_of)
                .map(|(sc, &k)| {
                    let (pss, responses) = &solves[k];
                    (
                        sc.name.clone(),
                        scenario_reports(&e.circuit, sc, pss, responses, &e.metrics),
                    )
                })
                .collect();
        });
    let deck = spice_name(&text);
    let body_ms = probe(|| body_ok(&deck, keys.len(), &results)) * 1e3;
    Ok([elab_ms, solve_ms, reports_ms, body_ms])
}
