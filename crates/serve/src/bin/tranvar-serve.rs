//! The `tranvar-serve` daemon binary.
//!
//! ```text
//! tranvar-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!               [--cache-entries N]
//! ```
//!
//! With `--features fault-inject` the chaos flags arm the deterministic
//! server-side fault sites before the server starts:
//!
//! ```text
//!               [--fault SITE:INDEX:ACTION]...
//! ```
//!
//! where `SITE` is `request` | `solve` | `worker` and `ACTION` is
//! `panic` | `expire` | `stall` | `no-converge` | `singular` | `non-finite`.
//!
//! The process exits 0 after a graceful drain (`POST /shutdown`).

use tranvar_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: tranvar-serve [--addr HOST:PORT] [--workers N] [--queue-depth N] \
         [--cache-entries N]{}",
        if cfg!(feature = "fault-inject") {
            " [--fault SITE:INDEX:ACTION]..."
        } else {
            ""
        }
    );
    std::process::exit(2);
}

fn parse_num(flag: &str, value: Option<String>) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("tranvar-serve: {flag} needs a non-negative integer");
            usage();
        }
    }
}

#[cfg(feature = "fault-inject")]
fn parse_fault(spec: &str) -> Option<(&'static str, usize, tranvar::engine::fault::FaultAction)> {
    use tranvar::engine::fault::{sites, FaultAction};
    let mut parts = spec.splitn(3, ':');
    let site = match parts.next()? {
        "request" => sites::SERVE_REQUEST,
        "solve" => sites::SERVE_SOLVE,
        "worker" => sites::SERVE_WORKER,
        _ => return None,
    };
    let index: usize = parts.next()?.parse().ok()?;
    let action = match parts.next()? {
        "panic" => FaultAction::Panic,
        "expire" => FaultAction::Expire,
        "stall" => FaultAction::Stall,
        "no-converge" => FaultAction::NoConverge,
        "singular" => FaultAction::Singular,
        "non-finite" => FaultAction::NonFinite,
        _ => return None,
    };
    Some((site, index, action))
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8645".into(),
        ..ServerConfig::default()
    };
    #[cfg(feature = "fault-inject")]
    let mut faults = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => config.addr = a,
                None => usage(),
            },
            "--workers" => config.workers = parse_num("--workers", args.next()).max(1),
            "--queue-depth" => config.queue_depth = parse_num("--queue-depth", args.next()),
            "--cache-entries" => config.cache_entries = parse_num("--cache-entries", args.next()),
            #[cfg(feature = "fault-inject")]
            "--fault" => {
                let Some(spec) = args.next().as_deref().and_then(parse_fault) else {
                    eprintln!("tranvar-serve: bad --fault spec (SITE:INDEX:ACTION)");
                    usage();
                };
                faults.push(spec);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tranvar-serve: unknown flag '{other}'");
                usage();
            }
        }
    }

    // Arm the fault plan on this thread *before* Server::start so the
    // workers adopt it.
    #[cfg(feature = "fault-inject")]
    let _fault_guard = {
        let mut plan = tranvar::engine::fault::FaultPlan::new();
        for (site, index, action) in faults {
            plan = plan.fail(site, index, action);
        }
        plan.install()
    };

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tranvar-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("tranvar-serve listening on {}", server.addr());
    let completed = server.join();
    println!("tranvar-serve drained after {completed} responses");
}
