//! The chaos suite: the daemon under deterministic injected failure
//! (`--features fault-inject`).
//!
//! Each test installs a [`FaultPlan`] *before* starting its server so the
//! workers adopt it, then drives the failure surface over real sockets:
//! a concurrent request storm with an injected worker panic, a panic
//! inside a solve, deadline expiry via the pinned mock clock, and a
//! stalled worker that forces queueing and load shedding. Throughout:
//! every connection receives a typed status (zero dropped connections),
//! `/readyz` counters stay accurate, no worker is lost to a panic, and
//! shutdown drains cleanly.
#![cfg(feature = "fault-inject")]

mod common;

use common::{counter, get, post, Reply};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tranvar::engine::fault::{sites, FaultAction, FaultPlan};
use tranvar_serve::{Server, ServerConfig};

fn analyze_body(ohms: f64, deadline_ms: Option<u64>) -> String {
    let deadline = match deadline_ms {
        Some(ms) => format!("\"deadline_ms\": {ms},"),
        None => String::new(),
    };
    format!(
        r#"{{
            "deck": "divider",
            "period": 1e-6,
            "n_steps": 16,
            {deadline}
            "metrics": [{{"name": "vout", "kind": "dc-average", "node": "b"}}],
            "scenarios": [{{"name": "s", "overrides": [
                {{"kind": "resistance", "device": "R1", "ohms": {ohms}}}
            ]}}]
        }}"#
    )
}

/// Polls `/readyz` until `pred` holds (the counters are eventually
/// consistent with worker progress).
fn wait_ready(addr: SocketAddr, what: &str, pred: impl Fn(&Reply) -> bool) -> Reply {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = get(addr, "/readyz");
        if pred(&reply) {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last readyz: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Storm + injected request panic + injected deadline expiry, one server.
///
/// Fault indices are deterministic because the phases are sequenced: the
/// 8-request storm consumes admission ordinals 0..8 and (with unique
/// overrides) solve ordinals 0..8; the panic is armed at admission
/// ordinal 8, the clock expiry at solve ordinal 8.
#[test]
fn storm_panic_and_deadline_expiry_all_get_typed_statuses() {
    let guard = FaultPlan::new()
        .fail(sites::SERVE_REQUEST, 8, FaultAction::Panic)
        .fail(sites::SERVE_SOLVE, 8, FaultAction::Expire)
        .install();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_depth: 64,
        cache_entries: 16,
    })
    .unwrap();
    let addr = server.addr();

    // ── Phase A: ≥8 concurrent requests, all unique solves, all 200. ──
    let replies: Vec<Reply> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                sc.spawn(move || post(addr, "/analyze", &analyze_body(1000.0 + i as f64, None)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in replies.iter().enumerate() {
        assert_eq!(r.status, 200, "storm request {i}: {}", r.body);
    }
    let ready = wait_ready(addr, "storm drained", |r| {
        counter(r, "workers_busy") == 0 && counter(r, "queue_depth") == 0
    });
    assert_eq!(counter(&ready, "accepted"), 8);
    assert_eq!(counter(&ready, "shed"), 0);
    assert_eq!(counter(&ready, "panics"), 0);
    assert_eq!(counter(&ready, "write_errors"), 0, "dropped connections");
    assert_eq!(counter(&ready, "cache_misses"), 8);

    // ── Phase B: admission ordinal 8 panics inside the worker. ──
    let r = post(addr, "/analyze", &analyze_body(2000.0, None));
    assert_eq!(r.status, 500, "body: {}", r.body);
    assert!(r.body.contains("\"code\":\"core.panic\""), "{}", r.body);
    assert!(r.body.contains("injected panic"), "{}", r.body);
    let ready = get(addr, "/readyz");
    assert_eq!(counter(&ready, "panics"), 1);
    assert_eq!(counter(&ready, "workers_alive"), 3, "{}", ready.body);

    // ── Phase C: solve ordinal 8 pins the clock; the deadline budget
    // surfaces the genuine BudgetExceeded path as a typed 504. ──
    let r = post(addr, "/analyze", &analyze_body(3000.0, Some(60_000)));
    assert_eq!(r.status, 504, "body: {}", r.body);
    assert!(
        r.body.contains("\"code\":\"engine.budget-exceeded\""),
        "{}",
        r.body
    );

    // ── Drain: every thread exits, nothing is lost. ──
    assert_eq!(post(addr, "/shutdown", "").status, 200);
    server.join();
    drop(guard);
}

/// A stalled worker parks with its job; the other worker keeps serving;
/// releasing the stall completes the parked request. With capacity 1 and a
/// single worker variant, the stall forces deterministic queueing and a
/// shed.
#[test]
fn stalled_worker_forces_queueing_shedding_and_recovers_on_release() {
    let guard = FaultPlan::new()
        .fail(sites::SERVE_WORKER, 0, FaultAction::Stall)
        .install();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        cache_entries: 16,
    })
    .unwrap();
    let addr = server.addr();

    let done = Arc::new(AtomicUsize::new(0));
    let statuses = std::thread::scope(|sc| {
        // R1: picked up by the (only) worker, which immediately parks.
        let d = done.clone();
        let r1 = sc.spawn(move || {
            let r = post(addr, "/analyze", &analyze_body(1000.0, None));
            d.fetch_add(1, Ordering::SeqCst);
            r.status
        });
        wait_ready(addr, "worker parked on R1", |r| {
            counter(r, "workers_busy") == 1 && counter(r, "accepted") == 1
        });

        // R2: admitted into the (now otherwise empty) queue behind the
        // stalled worker.
        let d = done.clone();
        let r2 = sc.spawn(move || {
            let r = post(addr, "/analyze", &analyze_body(1001.0, None));
            d.fetch_add(1, Ordering::SeqCst);
            r.status
        });
        wait_ready(addr, "R2 queued", |r| counter(r, "queue_depth") == 1);

        // R3: the queue is full — typed shed with Retry-After.
        let r3 = post(addr, "/analyze", &analyze_body(1002.0, None));
        assert_eq!(r3.status, 429, "body: {}", r3.body);
        assert!(r3.header("retry-after").is_some());
        assert_eq!(done.load(Ordering::SeqCst), 0, "stall must hold R1 and R2");

        // Release: the parked worker finishes R1, then drains R2.
        guard.release_stalls();
        (r1.join().unwrap(), r2.join().unwrap())
    });
    assert_eq!(statuses, (200, 200));

    let ready = wait_ready(addr, "recovery", |r| {
        counter(r, "workers_busy") == 0 && counter(r, "queue_depth") == 0
    });
    assert_eq!(counter(&ready, "shed"), 1);
    assert_eq!(counter(&ready, "write_errors"), 0, "dropped connections");
    assert_eq!(counter(&ready, "workers_alive"), 1);

    assert_eq!(post(addr, "/shutdown", "").status, 200);
    server.join();
}

/// Synthetic solver-level failures injected at the solve site surface as
/// per-scenario typed errors, not 500s — and don't poison the cache.
#[test]
fn injected_solver_failures_stay_typed_and_uncached() {
    let guard = FaultPlan::new()
        .fail(sites::SERVE_SOLVE, 0, FaultAction::NoConverge)
        .install();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
        cache_entries: 16,
    })
    .unwrap();
    let addr = server.addr();

    // Solve ordinal 0 fails with the injected non-convergence: typed 422.
    let r = post(addr, "/analyze", &analyze_body(1000.0, None));
    assert_eq!(r.status, 422, "body: {}", r.body);
    assert!(
        r.body.contains("\"code\":\"engine.no-convergence\""),
        "{}",
        r.body
    );

    // Failures are not cached: the retry (solve ordinal 1, unarmed) works.
    let r = post(addr, "/analyze", &analyze_body(1000.0, None));
    assert_eq!(r.status, 200, "body: {}", r.body);
    let ready = get(addr, "/readyz");
    assert_eq!(counter(&ready, "cache_entries"), 1);

    assert_eq!(post(addr, "/shutdown", "").status, 200);
    server.join();
    drop(guard);
}

/// A panic inside a solve is caught by `solve_unique` itself: the request
/// gets a typed 500, the panic never reaches the job boundary, and the
/// same worker serves the next request on its replacement session.
#[test]
fn solve_panic_is_typed_and_the_worker_keeps_serving() {
    let guard = FaultPlan::new()
        .fail(sites::SCENARIO, 0, FaultAction::Panic)
        .install();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
        cache_entries: 16,
    })
    .unwrap();
    let addr = server.addr();

    let r = post(addr, "/analyze", &analyze_body(1000.0, None));
    assert_eq!(r.status, 500, "body: {}", r.body);
    assert!(r.body.contains("\"code\":\"core.panic\""), "{}", r.body);

    let r = post(addr, "/analyze", &analyze_body(1000.0, None));
    assert_eq!(r.status, 200, "body: {}", r.body);
    let ready = get(addr, "/readyz");
    assert_eq!(counter(&ready, "sessions_retired"), 1, "{}", ready.body);
    assert_eq!(counter(&ready, "panics"), 0, "{}", ready.body);
    assert_eq!(counter(&ready, "cache_entries"), 1, "{}", ready.body);
    assert_eq!(counter(&ready, "workers_alive"), 1, "{}", ready.body);

    assert_eq!(post(addr, "/shutdown", "").status, 200);
    server.join();
    drop(guard);
}
