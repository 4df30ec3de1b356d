//! tranvar's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! Runs one workload from a seed for a fixed time, checks every output,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer split traced. `--list` prints the workloads and metric
//! names, units and directions declared in `BENCHMARK.json`. See
//! `README.md` beside this crate.

mod host;
mod paper;
mod serve;
mod spec;
mod stats;
mod table2;
mod trace;

use spec::Spec;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Recorder;

/// Workload names, as declared in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["paper_analyze", "paper_mc", "serve_decks"];

/// End-to-end metrics; every workload measures each of them.
const END_TO_END: [&str; 7] = [
    "round_ms.p50",
    "round_ms.p90",
    "op_ms.p50",
    "op_ms.p90",
    "throughput_ops_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every workload measures in its traced run.
const TRACED_COMMON: [&str; 4] = ["rounds", "ops", "trace.overhead_ratio", "host.ref_ms"];

/// A run measures at least this many rounds, so the p90 of rounds has ten
/// samples beyond it even if the time runs out first.
pub const MIN_ROUNDS: usize = 100;

/// No measuring loop runs past this, whatever `MIN_ROUNDS` asks, so a run
/// ends well within its time limit.
pub const HARD_CAP_S: f64 = 120.0;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Repetitions of each in-process replay probe.
const PROBE_REPS: usize = 5;

/// Median wall time (s) of [`PROBE_REPS`] calls of `f`, after one
/// untimed call.
pub fn probe<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Measured metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The names a workload measures itself, untraced or traced.
pub fn produced(workload: &str, traced: bool) -> Vec<String> {
    if !traced {
        return END_TO_END.iter().map(|s| s.to_string()).collect();
    }
    let mut names: Vec<String> = TRACED_COMMON.iter().map(|s| s.to_string()).collect();
    names.extend(match workload {
        "paper_analyze" => paper::analyze_layer_names(),
        "paper_mc" => paper::mc_layer_names(),
        "serve_decks" => serve::layer_names(),
        _ => Vec::new(),
    });
    names
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where spans and Table II rows are written (inside the checkout).
    pub out_dir: PathBuf,
}

/// One measured round: the latencies (s) of its operations and the
/// host-speed scale while it ran (see [`host`]).
pub struct Round {
    pub ops: Vec<f64>,
    pub scale: f64,
}

impl Round {
    fn raw_s(&self) -> f64 {
        self.ops.iter().sum()
    }
}

/// What a workload's loop measured.
#[derive(Default)]
pub struct Traffic {
    /// The counted rounds: every round untraced, the traced rounds of a
    /// traced run.
    pub rounds: Vec<Round>,
    /// Raw times (s) of the untraced rounds of a traced run.
    pub plain_rounds: Vec<f64>,
    /// Reference-kernel times (s) measured around the rounds.
    pub refs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traffic {
    /// Brackets the next round with a reference-kernel run; call once
    /// before the first round and once after every round.
    pub fn bracket(&mut self) -> f64 {
        let r = host::reference_s();
        self.refs.push(r);
        r
    }

    /// Records a finished round, bracketed by kernel times `before` and
    /// `after`.
    pub fn push_round(&mut self, ops: Vec<f64>, counted: bool, before: f64, after: f64) {
        if counted {
            self.rounds.push(Round {
                ops,
                scale: host::scale(before, after),
            });
        } else {
            self.plain_rounds.push(ops.iter().sum());
        }
    }

    /// Run-level factor to nominal host speed, for times not bracketed
    /// round by round.
    pub fn nominal_factor(&self) -> f64 {
        host::REF_NOMINAL_S / median(&self.refs)
    }

    pub fn absorb(&mut self, other: Traffic) {
        self.rounds.extend(other.rounds);
        self.plain_rounds.extend(other.plain_rounds);
        self.refs.extend(other.refs);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn outcome(&self, checks_passed: bool, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: checks_passed && self.failed == 0,
            metrics,
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Metrics,
}

/// Times one set-up, scaled to nominal host speed like the rounds.
pub fn timed_setup<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let before = host::reference_s();
    let t = std::time::Instant::now();
    let out = f()?;
    let elapsed = t.elapsed().as_secs_f64();
    let after = host::reference_s();
    Ok((elapsed * host::scale(before, after), out))
}

/// The `pct`-th percentile of `samples` (s) in ms, or the error naming
/// the short sample.
pub fn p_ms(samples: &[f64], pct: usize, what: &str) -> Result<f64, String> {
    percentile(samples, pct)
        .map(|s| s * 1e3)
        .ok_or_else(|| format!("{what}: {} samples are too few for p{pct}", samples.len()))
}

/// The end-to-end metrics of an untraced run, with `clients` closed-loop
/// callers. Times are at nominal host speed; throughput is completed
/// operations per second of caller time, `clients` ÷ mean latency.
pub fn end_to_end(
    t: &Traffic,
    setup: &[f64],
    clients: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let rounds: Vec<f64> = t.rounds.iter().map(|r| r.raw_s() * r.scale).collect();
    let ops: Vec<f64> = t
        .rounds
        .iter()
        .flat_map(|r| r.ops.iter().map(move |o| o * r.scale))
        .collect();
    m.insert("round_ms.p50".into(), p_ms(&rounds, 50, "rounds")?);
    m.insert("round_ms.p90".into(), p_ms(&rounds, 90, "rounds")?);
    m.insert("op_ms.p50".into(), p_ms(&ops, 50, "ops")?);
    m.insert("op_ms.p90".into(), p_ms(&ops, 90, "ops")?);
    let ok_share = (t.attempted - t.failed) as f64 / t.attempted as f64;
    m.insert(
        "throughput_ops_s".into(),
        clients as f64 * ok_share * ops.len() as f64 / ops.iter().sum::<f64>(),
    );
    m.insert("setup_s".into(), median(setup));
    m.insert("peak_rss_mb".into(), peak_rss_mb()?);
    eprintln!(
        "perfbench: {} rounds, {} ops (p90 needs {}), {} set-ups, host at {:.3} of nominal speed",
        rounds.len(),
        ops.len(),
        stats::min_samples(90),
        setup.len(),
        1.0 / t.nominal_factor()
    );
    Ok(())
}

/// Counts of a traced run, the host speed, and the tracing overhead: the
/// median traced round over the median untraced round, minus one.
pub fn trace_overhead(t: &Traffic, m: &mut Metrics) {
    let traced: Vec<f64> = t.rounds.iter().map(Round::raw_s).collect();
    m.insert("rounds".into(), t.rounds.len() as f64);
    m.insert(
        "ops".into(),
        t.rounds.iter().map(|r| r.ops.len()).sum::<usize>() as f64,
    );
    m.insert(
        "trace.overhead_ratio".into(),
        median(&traced) / median(&t.plain_rounds) - 1.0,
    );
    m.insert("host.ref_ms".into(), median(&t.refs) * 1e3);
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Writes the run's spans to `<out_dir>/trace-<workload>-<seed>.tsv`.
pub fn write_trace(args: &RunArgs, rec: &Recorder) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
    rec.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(())
}

/// The result line: every metric the spec declares for this mode, each
/// with its unit. A metric of another workload's layer reads 0: this
/// workload does no such work.
fn result_line(spec: &Spec, args: &RunArgs, out: &Outcome) -> Result<String, String> {
    let own = produced(&args.workload, args.traced);
    let mut measured: Vec<&String> = out.metrics.keys().collect();
    measured.sort();
    let mut expected: Vec<&String> = own.iter().collect();
    expected.sort();
    if measured != expected {
        return Err(format!(
            "{} measured {measured:?}, expected {expected:?}",
            args.workload
        ));
    }
    let mut fields = Vec::new();
    for decl in spec.emitted(args.traced) {
        if !spec::valid_name(&decl.name) {
            return Err(format!(
                "metric name {:?} breaks the name grammar",
                decl.name
            ));
        }
        let value = match out.metrics.get(&decl.name) {
            Some(&v) => v,
            None if args.traced => 0.0,
            None => return Err(format!("end-to-end metric {} not measured", decl.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite ({value})", decl.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            decl.name, decl.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list";

fn parse_args() -> Result<Option<RunArgs>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Some(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or_else(|| missing("--seconds > 0"))?,
        traced: traced.ok_or_else(|| missing("--trace"))?,
        out_dir: PathBuf::from(".bench_trace"),
    }))
}

fn run() -> Result<(), String> {
    let spec = Spec::load()?;
    let Some(args) = parse_args().map_err(|e| format!("{e}\n{USAGE}"))? else {
        print!("{}", spec.listing());
        return Ok(());
    };
    if !spec.workloads.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {}", args.workload));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let outcome = match args.workload.as_str() {
        "paper_analyze" => paper::run_analyze(&args)?,
        "paper_mc" => paper::run_mc(&args)?,
        "serve_decks" => serve::run(&args)?,
        other => return Err(format!("workload {other} has no implementation")),
    };
    let line = result_line(&spec, &args, &outcome)?;
    println!("{line}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
