//! Serving-layer throughput bench: the `tranvar-serve` daemon over real
//! sockets against the in-process [`Campaign`] oracle.
//!
//! Measures two paths through a booted daemon:
//!
//! - **cold**: every request forces fresh unique solves (the override
//!   values change per iteration, defeating the solve cache), so the
//!   figure includes admission, solve, report assembly and serialization;
//! - **warm**: the same request repeated, so every unique solve is a
//!   cache hit and only admission + report assembly + serialization
//!   remain — the service-side extension of the paper's "no additional
//!   simulation cost" σ-sharing.
//!
//! The gated `speedup` is the cold/warm response-time ratio (cache
//! effectiveness, stable across machines because both sides ride the same
//! socket path). Correctness gates: the daemon's response bytes must equal
//! the in-process campaign rendering exactly (`max_abs_diff` is reported
//! as the literal byte-compare result, required 0), and nominal load must
//! shed nothing.
//!
//! Emits `BENCH_serve.json` at the workspace root, wired into the
//! `compare_bench` CI regression gate like the other bench JSONs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use tranvar::circuit::CircuitOverride;
use tranvar::core::{Campaign, Metric, MetricSpec, PssConfig, Scenario};
use tranvar::pss::PssOptions;
use tranvar_bench::{bench_times, fmt_time, median};
use tranvar_serve::{body_from_campaign, deck, Server, ServerConfig};

const WORKERS: usize = 2;
const PERIOD: f64 = 1e-6;
/// Enough PSS steps that the solve dominates socket + serialization
/// overhead, so the cache-hit ratio measures solve sharing rather than
/// transport noise.
const N_STEPS: usize = 256;

/// 4 solve-affecting R1 corners × 3 σ levels = 12 scenarios, 4 unique
/// solves per request.
const R1_CORNERS: [f64; 4] = [1000.0, 1050.0, 1100.0, 1150.0];
const SIGMA_LEVELS: [f64; 3] = [1.0, 1.5, 2.0];

/// The request body; `offset` shifts every corner to defeat the cache.
fn analyze_body(offset: f64) -> String {
    let mut scenarios = Vec::new();
    for (ci, r) in R1_CORNERS.iter().enumerate() {
        for (si, s) in SIGMA_LEVELS.iter().enumerate() {
            scenarios.push(format!(
                r#"{{"name":"c{ci}m{si}","overrides":[
                    {{"kind":"resistance","device":"R1","ohms":{:?}}},
                    {{"kind":"sigma-scale","factor":{s:?}}}]}}"#,
                r + offset
            ));
        }
    }
    format!(
        r#"{{"deck":"divider","period":1e-6,"n_steps":{N_STEPS},
            "metrics":[{{"name":"vout","kind":"dc-average","node":"b"}}],
            "scenarios":[{}]}}"#,
        scenarios.join(",")
    )
}

/// The same grid as in-process [`Scenario`]s, for the campaign oracle.
fn oracle_scenarios(ckt: &tranvar::circuit::Circuit, offset: f64) -> Vec<Scenario> {
    let r1 = ckt.find_device("R1").unwrap();
    let mut out = Vec::new();
    for (ci, r) in R1_CORNERS.iter().enumerate() {
        for (si, s) in SIGMA_LEVELS.iter().enumerate() {
            out.push(Scenario {
                name: format!("c{ci}m{si}"),
                overrides: vec![
                    CircuitOverride::Resistance {
                        device: r1,
                        ohms: r + offset,
                    },
                    CircuitOverride::SigmaScale { factor: *s },
                ],
            });
        }
    }
    out
}

/// One blocking request; returns (status, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("framed response");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    s.write_all(format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n")
        .expect("framed response")
        .1
        .into()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (min_iters, min_time) = if quick { (3, 0.5) } else { (5, 2.0) };
    let n_scenarios = R1_CORNERS.len() * SIGMA_LEVELS.len();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        queue_depth: 64,
        cache_entries: 64,
    })
    .expect("daemon must bind");
    let addr = server.addr();

    // ── Correctness gate: daemon bytes == in-process campaign bytes. ──
    let ckt = deck::build("divider").unwrap();
    let b = ckt.find_node("b").unwrap();
    let mut opts = PssOptions::default();
    opts.n_steps = N_STEPS;
    let campaign = Campaign::new(
        PssConfig::Driven {
            period: PERIOD,
            opts,
        },
        vec![MetricSpec::new("vout", Metric::DcAverage { node: b })],
    );
    let oracle = campaign
        .run(&ckt, &oracle_scenarios(&ckt, 0.0))
        .expect("oracle campaign");
    assert_eq!(oracle.n_unique_solves, R1_CORNERS.len());
    let (_, oracle_body) = body_from_campaign("divider", &oracle);

    let (status, cold_body) = post(addr, "/analyze", &analyze_body(0.0));
    assert_eq!(status, 200, "daemon response: {cold_body}");
    let (_, warm_body) = post(addr, "/analyze", &analyze_body(0.0));
    // The byte compare IS the correctness figure: any numeric divergence
    // between the served pipeline and the in-process campaign shows here.
    let max_abs_diff = if cold_body == oracle_body && warm_body == oracle_body {
        0.0
    } else {
        f64::INFINITY
    };
    assert!(
        max_abs_diff == 0.0,
        "daemon response diverged from the in-process campaign"
    );

    // ── Cold: a fresh override grid per iteration (all cache misses). ──
    let mut offset = 0.0f64;
    let cold_times = bench_times(min_iters, min_time, || {
        offset += 0.125; // exact in f64: distinct digests, same physics
        let (status, _) = post(addr, "/analyze", &analyze_body(offset));
        assert_eq!(status, 200);
    });

    // ── Warm: the same request, every unique solve a cache hit. ──
    let warm_times = bench_times(min_iters, min_time, || {
        let (status, _) = post(addr, "/analyze", &analyze_body(0.0));
        assert_eq!(status, 200);
    });

    // Nominal sequential load must never shed.
    let ready = get(addr, "/readyz");
    let sheds = ready
        .split("\"shed\":")
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("readyz shed counter") as u64;
    assert_eq!(sheds, 0, "nominal load shed requests: {ready}");

    assert_eq!(post(addr, "/shutdown", "").0, 200);
    server.join();

    let cold_median = median(&cold_times);
    let warm_median = median(&warm_times);
    let speedup = cold_median / warm_median;
    let scenarios_per_s = n_scenarios as f64 / warm_median;
    println!(
        "serve/cold-solve   {:>12}   ({} iters, {n_scenarios} scenarios/request)",
        fmt_time(cold_median),
        cold_times.len()
    );
    println!(
        "serve/cache-hit    {:>12}   ({} iters)",
        fmt_time(warm_median),
        warm_times.len()
    );
    println!("serve/speedup      {speedup:>11.2}x   ({scenarios_per_s:.1} scenarios/s warm)");
    assert!(
        speedup >= 1.5,
        "cache-hit speedup {speedup:.2}x below the 1.5x floor"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_throughput\",\n",
            "  \"serve\": {{\n",
            "    \"deck\": \"divider\",\n",
            "    \"workers\": {},\n",
            "    \"n_scenarios\": {},\n",
            "    \"n_unique_solves\": {},\n",
            "    \"cold_median_s\": {:.6e},\n",
            "    \"warm_median_s\": {:.6e},\n",
            "    \"scenarios_per_s\": {:.3},\n",
            "    \"sheds\": {},\n",
            "    \"speedup\": {:.3},\n",
            "    \"max_abs_diff\": {:.3e}\n",
            "  }}\n",
            "}}\n"
        ),
        WORKERS,
        n_scenarios,
        R1_CORNERS.len(),
        cold_median,
        warm_median,
        scenarios_per_s,
        sheds,
        speedup,
        max_abs_diff
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::File::create(out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
