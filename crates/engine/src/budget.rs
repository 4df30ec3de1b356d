//! Cooperative solve budgets.
//!
//! A [`SolveBudget`] bounds how much work a solve pipeline may spend before
//! failing fast with [`EngineError::BudgetExceeded`]: total Newton
//! iterations, numeric factorization calls, and/or a wall-clock deadline.
//! The budget is *cooperative* — each engine checks it once per Newton
//! iteration (never per axpy), so a tripped budget surfaces at the next
//! iteration boundary rather than preempting mid-step. One budget can be
//! shared across an entire pipeline (DC seed → transient warmup → PSS
//! shooting → LPTV passes): it is a cheap `Arc` handle, and cloning it
//! shares the underlying counters.
//!
//! The default budget is unlimited and costs nothing on the hot path (a
//! single `Option` test per Newton iteration).
//!
//! ```
//! use tranvar_engine::budget::{BudgetLimits, SolveBudget};
//!
//! let budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(500));
//! let mut opts = tranvar_engine::DcOptions::default();
//! opts.newton.budget = budget;
//! ```
//!
//! # Worked example: a budget tripping mid-transient
//!
//! A 1000-step transient of an RC needs at least one Newton iteration per
//! step, so a 20-iteration budget trips early — with a
//! [`BudgetProgress`] report saying how far the solve got and which limit
//! was exhausted:
//!
//! ```
//! use tranvar_circuit::{Circuit, NodeId, Waveform};
//! use tranvar_engine::budget::{BudgetKind, BudgetLimits, SolveBudget};
//! use tranvar_engine::tran::{transient, TranOptions};
//! use tranvar_engine::EngineError;
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
//! ckt.add_resistor("R1", a, b, 1e3);
//! ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
//!
//! let mut opts = TranOptions::new(1e-6, 1e-9); // 1000 steps
//! opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(20));
//! match transient(&ckt, &opts) {
//!     Err(EngineError::BudgetExceeded { progress, .. }) => {
//!         assert_eq!(progress.exhausted, BudgetKind::NewtonIters);
//!         assert!(progress.newton_iters > 20);
//!     }
//!     other => panic!("expected a tripped budget, got {other:?}"),
//! }
//! ```
//!
//! The same `SolveBudget` handle can be cloned into every stage of a
//! pipeline (DC seed, transient warm-up, PSS shooting, LPTV passes); the
//! counters are shared, so the *pipeline*, not each stage, is bounded.

use crate::error::EngineError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The limits a [`SolveBudget`] enforces. All default to unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetLimits {
    /// Maximum total Newton iterations across every solve sharing the budget.
    pub max_newton_iters: Option<u64>,
    /// Maximum numeric factorization calls.
    pub max_factorizations: Option<u64>,
    /// Wall-clock deadline, measured from [`SolveBudget::new`].
    pub deadline: Option<Duration>,
}

impl BudgetLimits {
    /// Caps total Newton iterations.
    pub fn max_newton_iters(mut self, n: u64) -> Self {
        self.max_newton_iters = Some(n);
        self
    }

    /// Caps numeric factorization calls.
    pub fn max_factorizations(mut self, n: u64) -> Self {
        self.max_factorizations = Some(n);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    fn is_unlimited(&self) -> bool {
        self.max_newton_iters.is_none()
            && self.max_factorizations.is_none()
            && self.deadline.is_none()
    }
}

/// Which [`BudgetLimits`] bound tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_newton_iters` was reached.
    NewtonIters,
    /// `max_factorizations` was reached.
    Factorizations,
    /// The wall-clock deadline passed.
    Deadline,
}

/// Work completed when a budget ran out, carried by
/// [`EngineError::BudgetExceeded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetProgress {
    /// Newton iterations spent across every solve sharing the budget.
    pub newton_iters: u64,
    /// Numeric factorization calls spent.
    pub factorizations: u64,
    /// Wall-clock time since the budget was created.
    pub elapsed: Duration,
    /// The limit that tripped.
    pub exhausted: BudgetKind,
}

impl fmt::Display for BudgetProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let which = match self.exhausted {
            BudgetKind::NewtonIters => "newton-iteration limit",
            BudgetKind::Factorizations => "factorization limit",
            BudgetKind::Deadline => "deadline",
        };
        write!(
            f,
            "{which} hit after {} newton iterations, {} factorizations, {:?}",
            self.newton_iters, self.factorizations, self.elapsed
        )
    }
}

#[derive(Debug)]
struct BudgetCore {
    limits: BudgetLimits,
    start: Instant,
    iters: AtomicU64,
    factors: AtomicU64,
}

/// A cooperative bound on solve work; see the [module docs](self).
///
/// Cloning shares the underlying counters; `SolveBudget::default()` is
/// unlimited. Equality compares the *configured limits* only (so options
/// structs holding a budget keep meaningful `PartialEq`), never the live
/// counters.
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    core: Option<Arc<BudgetCore>>,
}

impl PartialEq for SolveBudget {
    fn eq(&self, other: &Self) -> bool {
        self.limits() == other.limits()
    }
}

impl SolveBudget {
    /// A budget with no limits; checks compile to a single `Option` test.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Starts the clock on a budget with the given limits.
    ///
    /// Fully-default limits produce an unlimited budget (no counters kept).
    pub fn new(limits: BudgetLimits) -> Self {
        if limits.is_unlimited() {
            return SolveBudget::default();
        }
        SolveBudget {
            core: Some(Arc::new(BudgetCore {
                limits,
                start: Instant::now(),
                iters: AtomicU64::new(0),
                factors: AtomicU64::new(0),
            })),
        }
    }

    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.core.is_none()
    }

    /// The configured limits (all-`None` when unlimited).
    pub fn limits(&self) -> BudgetLimits {
        self.core.as_ref().map(|c| c.limits).unwrap_or_default()
    }

    /// Newton iterations spent so far (0 when unlimited).
    pub fn newton_iters(&self) -> u64 {
        self.core
            .as_ref()
            .map(|c| c.iters.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Numeric factorization calls spent so far (0 when unlimited).
    pub fn factorizations(&self) -> u64 {
        self.core
            .as_ref()
            .map(|c| c.factors.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Charges one Newton iteration and checks every limit.
    ///
    /// Engines call this at the top of each Newton (or shooting) iteration;
    /// `analysis` names the caller for the error message.
    #[inline]
    pub fn begin_iteration(&self, analysis: &str) -> Result<(), EngineError> {
        let Some(core) = self.core.as_deref() else {
            return Ok(());
        };
        core.iters.fetch_add(1, Ordering::Relaxed);
        Self::check(core, analysis)
    }

    /// Checks every limit without charging an iteration.
    ///
    /// Used at non-Newton checkpoints (e.g. per LPTV pass) so deadline and
    /// factorization limits still bound work that performs no Newton
    /// iterations of its own.
    #[inline]
    pub fn checkpoint(&self, analysis: &str) -> Result<(), EngineError> {
        let Some(core) = self.core.as_deref() else {
            return Ok(());
        };
        Self::check(core, analysis)
    }

    /// Charges one numeric factorization call.
    ///
    /// Counted next to the factor call; the limit is enforced at the next
    /// `begin_iteration`/`checkpoint` so the hot path stays branch-free.
    #[inline]
    pub fn count_factorization(&self) {
        if let Some(core) = self.core.as_deref() {
            core.factors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when a configured wall-clock deadline has already passed.
    ///
    /// Cheap enough to poll at coarse boundaries (retry-ladder rungs, queue
    /// admission): one `Option` test plus an `Instant::elapsed` when a
    /// deadline is configured. Always `false` without a deadline.
    pub fn deadline_expired(&self) -> bool {
        let Some(core) = self.core.as_deref() else {
            return false;
        };
        match core.limits.deadline {
            Some(d) => Self::elapsed(core) >= d,
            None => false,
        }
    }

    /// The [`EngineError::BudgetExceeded`] an expired deadline surfaces as,
    /// with live counter values attached. Used by callers that detect expiry
    /// at a coarse boundary (retry ladder, admission queue) rather than
    /// inside a Newton loop.
    pub fn deadline_exceeded(&self, analysis: &str) -> EngineError {
        match self.core.as_deref() {
            Some(core) => Self::exceeded(core, analysis, BudgetKind::Deadline),
            // An unlimited budget has no deadline to expire; synthesize an
            // empty progress report rather than panic if called anyway.
            None => EngineError::BudgetExceeded {
                analysis: analysis.to_string(),
                progress: BudgetProgress {
                    newton_iters: 0,
                    factorizations: 0,
                    elapsed: Duration::ZERO,
                    exhausted: BudgetKind::Deadline,
                },
            },
        }
    }

    fn elapsed(core: &BudgetCore) -> Duration {
        #[cfg(feature = "fault-inject")]
        if let Some(mocked) = crate::fault::mock_elapsed() {
            return mocked;
        }
        core.start.elapsed()
    }

    #[cold]
    fn exceeded(core: &BudgetCore, analysis: &str, exhausted: BudgetKind) -> EngineError {
        EngineError::BudgetExceeded {
            analysis: analysis.to_string(),
            progress: BudgetProgress {
                newton_iters: core.iters.load(Ordering::Relaxed),
                factorizations: core.factors.load(Ordering::Relaxed),
                elapsed: Self::elapsed(core),
                exhausted,
            },
        }
    }

    fn check(core: &BudgetCore, analysis: &str) -> Result<(), EngineError> {
        if let Some(max) = core.limits.max_newton_iters {
            if core.iters.load(Ordering::Relaxed) > max {
                return Err(Self::exceeded(core, analysis, BudgetKind::NewtonIters));
            }
        }
        if let Some(max) = core.limits.max_factorizations {
            if core.factors.load(Ordering::Relaxed) > max {
                return Err(Self::exceeded(core, analysis, BudgetKind::Factorizations));
            }
        }
        if let Some(deadline) = core.limits.deadline {
            if Self::elapsed(core) >= deadline {
                return Err(Self::exceeded(core, analysis, BudgetKind::Deadline));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = SolveBudget::unlimited();
        for _ in 0..10_000 {
            b.begin_iteration("test").unwrap();
            b.count_factorization();
        }
        assert!(b.is_unlimited());
        assert_eq!(b.newton_iters(), 0);
    }

    #[test]
    fn default_limits_are_unlimited() {
        assert!(SolveBudget::new(BudgetLimits::default()).is_unlimited());
    }

    #[test]
    fn newton_limit_trips_with_progress() {
        let b = SolveBudget::new(BudgetLimits::default().max_newton_iters(3));
        for _ in 0..3 {
            b.begin_iteration("dc").unwrap();
        }
        match b.begin_iteration("dc") {
            Err(EngineError::BudgetExceeded { analysis, progress }) => {
                assert_eq!(analysis, "dc");
                assert_eq!(progress.exhausted, BudgetKind::NewtonIters);
                assert_eq!(progress.newton_iters, 4);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn factorization_limit_trips_at_next_checkpoint() {
        let b = SolveBudget::new(BudgetLimits::default().max_factorizations(2));
        b.count_factorization();
        b.count_factorization();
        b.checkpoint("tran").unwrap();
        b.count_factorization();
        match b.checkpoint("tran") {
            Err(EngineError::BudgetExceeded { progress, .. }) => {
                assert_eq!(progress.exhausted, BudgetKind::Factorizations);
                assert_eq!(progress.factorizations, 3);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_counters_and_compare_by_limits() {
        let a = SolveBudget::new(BudgetLimits::default().max_newton_iters(10));
        let b = a.clone();
        a.begin_iteration("x").unwrap();
        b.begin_iteration("x").unwrap();
        assert_eq!(a.newton_iters(), 2);
        // Same limits but separate counters still compare equal.
        let c = SolveBudget::new(BudgetLimits::default().max_newton_iters(10));
        assert_eq!(a, c);
        assert_ne!(a, SolveBudget::unlimited());
    }

    #[test]
    fn progress_displays_which_limit() {
        let p = BudgetProgress {
            newton_iters: 7,
            factorizations: 3,
            elapsed: Duration::from_millis(5),
            exhausted: BudgetKind::Deadline,
        };
        assert!(p.to_string().contains("deadline"));
        assert!(p.to_string().contains("7 newton iterations"));
    }
}
