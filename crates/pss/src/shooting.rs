//! Shooting-Newton periodic steady-state (PSS) analysis.
//!
//! Instead of integrating through the whole settling transient, shooting
//! finds the fixed point of the one-period flow map `Φ_T`: solve
//! `Φ_T(x₀) − x₀ = 0` with Newton, whose Jacobian is the monodromy matrix
//! `M = ∂Φ_T/∂x₀` assembled from the per-step records of
//! [`tranvar_engine::integrate_cycle_with`] (paper Section IV, refs.
//! \[12\],\[16\]).
//!
//! Driven and autonomous (oscillator) PSS share one Newton loop. Each round
//! integrates one recorded cycle, forms `r = Φ(x₀) − x₀` and `M`, and solves
//! [`shooting_matrix`]`·[δx₀; δT] = [r; −phase residual]`. A driven circuit
//! has no phase border, so the system is `(I − M)·δx₀ = r` and `δT = 0`; an
//! oscillator borders it with `−∂Φ/∂T` and the phase condition (see
//! [`crate::autonomous`]). The LPTV layer factors the same operator once
//! per orbit and reuses it for every mismatch parameter.
//!
//! Because shooting is a root-finder rather than a forward simulation it
//! converges to *unstable or marginally stable* periodic orbits as well —
//! which is exactly what the clocked-comparator metastability testbench of
//! paper Fig. 6 requires.

use crate::error::PssError;
use tranvar_circuit::{Circuit, NodeId};
use tranvar_engine::dc::{DcOptions, NewtonOptions};
use tranvar_engine::tran::{
    integrate_cycle_with, CycleResult, CycleWorkspace, Integrator, StepRecord,
};
use tranvar_engine::{
    chunk_ranges, effective_threads_for_work, map_scoped, Session, SessionOptions,
    MIN_WORK_PER_THREAD,
};
use tranvar_num::dense::vecops;
use tranvar_num::{DMat, NumError};

/// Maximum shooting-Newton rounds.
const MAX_ITER: usize = 40;
/// Clamp on the ∞-norm of the state update per shooting round.
const UPDATE_LIMIT: f64 = 0.6;
/// Clamp on the period update per round, relative to the period.
const PERIOD_UPDATE_LIMIT: f64 = 0.1;
/// Relative period step of the forward-difference `∂Φ/∂T`.
const DT_REL: f64 = 1e-6;

/// Last state of an integrated cycle, as a typed error instead of a panic
/// when the cycle is empty (`n_steps == 0` should be rejected upstream, but
/// a kernel bug must not take down a whole campaign worker).
fn last_state(cyc: &CycleResult) -> Result<&Vec<f64>, PssError> {
    cyc.states.last().ok_or(PssError::Num(NumError::Internal {
        what: "cycle integration produced no states",
    }))
}

/// PSS analysis controls.
#[derive(Clone, Debug, PartialEq)]
pub struct PssOptions {
    /// Time steps per period.
    pub n_steps: usize,
    /// Convergence tolerance on `|Φ(x₀) − x₀|_∞` (and, for oscillators, on
    /// the phase residual).
    pub tol: f64,
    /// Integration scheme (trapezoidal recommended for oscillators).
    pub method: Integrator,
    /// Inner Newton controls per timestep.
    pub newton: NewtonOptions,
    /// Node-row gmin.
    pub gmin: f64,
    /// Forward warm-up cycles integrated before shooting starts.
    pub warmup_cycles: usize,
    /// Worker threads for the monodromy column propagation
    /// ([`monodromy_threaded`]): `0` uses all available cores, `1` runs
    /// single-threaded. Results are bit-identical for any thread count —
    /// each state-space column's arithmetic is independent of the
    /// partitioning (mirrors [`tranvar_engine::TranOptions::threads`]).
    pub threads: usize,
}

impl Default for PssOptions {
    fn default() -> Self {
        PssOptions {
            n_steps: 256,
            tol: 1e-9,
            method: Integrator::BackwardEuler,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            warmup_cycles: 2,
            threads: 0,
        }
    }
}

/// A converged periodic steady state with everything the LPTV layer needs.
#[derive(Clone, Debug)]
pub struct PssSolution {
    /// Period (s); for autonomous circuits this is the *solved* period.
    pub period: f64,
    /// The uniform sample times `period·k/n_steps`, `k = 0..=n_steps`.
    pub times: Vec<f64>,
    /// One state per sample time; `states[0] ≈ states.last()`.
    pub states: Vec<Vec<f64>>,
    /// Per-step factorization records, one per step of the orbit's cycle.
    pub records: Vec<StepRecord>,
    /// Monodromy matrix `∂Φ_T/∂x₀`.
    pub monodromy: DMat,
    /// Integration scheme used (θ needed by the LPTV source terms).
    pub method: Integrator,
    /// `∂Φ/∂T` — only present for autonomous solutions.
    pub dphi_dt: Option<Vec<f64>>,
    /// Unknown index pinned by the oscillator phase condition.
    pub phase_unknown: Option<usize>,
    /// Final shooting residual ∞-norm.
    pub residual: f64,
}

impl PssSolution {
    /// Fundamental frequency `1/T`.
    pub fn fundamental(&self) -> f64 {
        1.0 / self.period
    }

    /// Extracts one node's periodic waveform (`n_steps + 1` samples).
    pub fn node_waveform(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        self.states.iter().map(|x| ckt.voltage(x, node)).collect()
    }

    /// Time-derivative of a node waveform by centered differences on the
    /// periodic grid (used for delay-sensitivity extraction).
    pub fn node_slope(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        let w = self.node_waveform(ckt, node);
        let n = w.len() - 1; // w[0] == w[n]
        let h = self.period / n as f64;
        let mut out: Vec<f64> = (0..n)
            .map(|i| (w[(i + 1) % n] - w[(i + n - 1) % n]) / (2.0 * h))
            .collect();
        out.push(out[0]);
        out
    }
}

/// The shooting boundary operator: `I − M` for a driven orbit, or, with a
/// `(∂Φ/∂T, φ)` border, the oscillator's `(n+1)`-square system
///
/// ```text
/// [ I − M   −∂Φ/∂T ]
/// [ e_φᵀ       0   ]
/// ```
///
/// The shooting Newton rounds solve it for `[δx₀; δT]`, and the LPTV
/// periodic solver factors it once per orbit for every noise source.
pub fn shooting_matrix(m: &DMat, border: Option<(&[f64], usize)>) -> DMat {
    let n = m.rows();
    let nb = n + usize::from(border.is_some());
    let mut a = DMat::zeros(nb, nb);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = -m[(i, j)];
        }
        a[(i, i)] += 1.0;
    }
    if let Some((dphi_dt, phase_unknown)) = border {
        for (i, d) in dphi_dt.iter().enumerate() {
            a[(i, n)] = -d;
        }
        a[(n, phase_unknown)] = 1.0;
    }
    a
}

/// Propagates the monodromy matrix `M = ∏ J_k⁻¹ B_k` from cycle records:
/// the batched, threaded accumulation.
///
/// The `n` columns of `M` propagate independently through the record
/// product, so they are split into contiguous chunks — one std scoped
/// worker per chunk (`threads` in the [`tranvar_engine::TranOptions::threads`]
/// convention: `0` = all cores). Each worker stages its chunk as an
/// RHS-interleaved block and advances it with one
/// [`tranvar_engine::FactoredJacobian::solve_multi_lanes`] sweep per
/// record: every factor entry becomes a chunk-wide contiguous axpy through
/// the compile-time lane kernels, every
/// factor row is read once per record instead of once per column, and all
/// buffers are preallocated outside the record loop.
///
/// Per-column arithmetic is independent of the chunking, so the result is
/// bit-for-bit identical for any thread count and to the per-column
/// sequential reference [`monodromy_seq`].
pub fn monodromy_threaded(records: &[StepRecord], n: usize, threads: usize) -> DMat {
    let mut m = DMat::identity(n);
    if n == 0 {
        return m;
    }
    // Auto mode stays single-threaded when the whole accumulation is too
    // small to amortize a thread spawn (work proxy: one dense triangular
    // sweep per record per column ≈ records·n² flops; see
    // `effective_threads_for_work`).
    let threads =
        effective_threads_for_work(threads, n, records.len() * n * n, MIN_WORK_PER_THREAD);
    let chunk = n.div_ceil(threads).max(1);
    let propagate = |c0: usize, p: usize| -> Vec<f64> {
        // Interleaved identity columns: cur[i·p + j] = I[(i, c0 + j)].
        let mut cur = vec![0.0; n * p];
        for j in 0..p {
            cur[(c0 + j) * p + j] = 1.0;
        }
        let mut nxt = vec![0.0; n * p];
        let mut scratch = vec![0.0; tranvar_num::lanes_scratch_len(n, p)];
        for rec in records {
            rec.b.mat_vec_interleaved(&cur, &mut nxt, p);
            rec.lu.solve_multi_lanes(&mut nxt, p, &mut scratch);
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur
    };
    // One scoped worker per column chunk via the shared engine helper (a
    // single chunk runs inline on the calling thread).
    let blocks = map_scoped(chunk_ranges(n, chunk), |(c0, p)| (c0, propagate(c0, p)));
    for (c0, blk) in blocks {
        let p = blk.len() / n;
        for j in 0..p {
            for i in 0..n {
                m[(i, c0 + j)] = blk[i * p + j];
            }
        }
    }
    m
}

/// Sequential per-column monodromy reference: one coupling product and one
/// allocating solve per column per record — the pre-batching behavior,
/// retained for validation and as the benchmark baseline
/// (`BENCH_pss.json`).
pub fn monodromy_seq(records: &[StepRecord], n: usize) -> DMat {
    let mut m = DMat::identity(n);
    let mut col = vec![0.0; n];
    for rec in records {
        let mut next = DMat::zeros(n, n);
        for j in 0..n {
            for (i, c) in col.iter_mut().enumerate() {
                *c = m[(i, j)];
            }
            let bx = rec.b.mat_vec(&col);
            let sx = rec.lu.solve(&bx);
            for (i, v) in sx.iter().enumerate() {
                next[(i, j)] = *v;
            }
        }
        m = next;
    }
    m
}

/// Solves the driven PSS problem for a circuit whose stimuli are periodic in
/// `period` (paper Section IV-B: every source must be DC or divide the
/// period).
///
/// # Errors
///
/// - [`PssError::NotPeriodic`] if a source is incompatible with `period`,
/// - [`PssError::NoConvergence`] if shooting stalls,
/// - engine errors from the inner integrations.
pub fn shooting_pss(
    ckt: &Circuit,
    period: f64,
    opts: &PssOptions,
) -> Result<PssSolution, PssError> {
    shooting_pss_in(
        &mut Session::new(SessionOptions {
            solver: opts.newton.solver,
            threads: opts.threads,
        }),
        ckt,
        period,
        opts,
    )
}

/// [`shooting_pss`] borrowing an analysis [`Session`]: the DC seed, every
/// warm-up cycle and every shooting round run through the session's
/// workspaces, so repeated solves on one circuit (scenario campaigns,
/// corner sweeps) perform no per-call allocation or symbolic re-analysis.
/// The session's solver choice overrides [`NewtonOptions::solver`], and its
/// thread policy is applied when [`PssOptions::threads`] is automatic (`0`).
///
/// A fresh session reproduces [`shooting_pss`] bit-for-bit; a reused one
/// is bit-identical on the dense backend. On the sparse backend the
/// session's pivot-order replay (across DC homotopy stages and reused
/// workspaces) is identical to machine precision only — see
/// [`tranvar_engine::session`].
///
/// # Errors
///
/// See [`shooting_pss`].
pub fn shooting_pss_in(
    session: &mut Session,
    ckt: &Circuit,
    period: f64,
    opts: &PssOptions,
) -> Result<PssSolution, PssError> {
    check_periodicity(ckt, period)?;
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.newton.clone()
    };
    let threads = session.effective_threads(opts.threads);

    // Initial guess: DC operating point, then a few forward cycles.
    let mut x0 = session.dc_operating_point(
        ckt,
        &DcOptions {
            newton: newton.clone(),
            ..DcOptions::default()
        },
    )?;
    // The session's cycle workspace serves every cycle this solve
    // integrates: warm-up cycles and shooting rounds share the assembly
    // buffers, Newton vectors and factorization staging instead of
    // re-allocating them per round — and a warm session extends that reuse
    // across solves.
    let ws = session.cycle_workspace();
    for _ in 0..opts.warmup_cycles {
        let cyc = integrate_cycle_with(
            ckt,
            ws,
            &x0,
            0.0,
            period,
            opts.n_steps,
            opts.method,
            &newton,
            opts.gmin,
            false,
        )?;
        x0 = last_state(&cyc)?.clone();
    }
    shoot(ckt, ws, x0, period, None, opts, &newton, threads)
}

/// The oscillator phase condition: `x₀[unknown] = value`.
pub(crate) struct Phase {
    pub(crate) unknown: usize,
    pub(crate) value: f64,
}

/// The shooting-Newton loop shared by driven (`phase = None`) and
/// autonomous PSS.
///
/// Each round is charged to the shared budget, integrates one recorded
/// cycle from `x0` and accumulates its monodromy `M`. With a phase
/// condition it also integrates a cycle at `T·(1 + DT_REL)` for the
/// forward-difference `∂Φ/∂T`. Once `|Φ(x₀) − x₀|_∞` (and the phase
/// residual) is below `opts.tol`, the recorded cycle is the solution;
/// otherwise the round solves [`shooting_matrix`]`·[δx₀; δT] = [r; −phase
/// residual]`, clamps the update and steps. A driven round has no border,
/// so `δT = 0` and the period is untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shoot(
    ckt: &Circuit,
    ws: &mut CycleWorkspace,
    mut x0: Vec<f64>,
    mut period: f64,
    phase: Option<Phase>,
    opts: &PssOptions,
    newton: &NewtonOptions,
    threads: usize,
) -> Result<PssSolution, PssError> {
    let (budget_label, analysis) = match phase {
        Some(_) => ("autonomous shooting", "autonomous shooting"),
        None => ("pss shooting", "shooting"),
    };
    let n = x0.len();
    let mut cycle = |x0: &[f64], period: f64, record: bool| {
        integrate_cycle_with(
            ckt,
            ws,
            x0,
            0.0,
            period,
            opts.n_steps,
            opts.method,
            newton,
            opts.gmin,
            record,
        )
    };
    let mut last_residual = f64::INFINITY;
    for _ in 0..MAX_ITER {
        // The shooting loop is itself a Newton iteration on the cycle map;
        // charge it to the same budget its inner integrations draw from.
        newton.budget.begin_iteration(budget_label)?;
        let cyc = cycle(&x0, period, true)?;
        let x_end = last_state(&cyc)?;
        let mut rhs = vecops::sub(x_end, &x0);
        last_residual = vecops::norm_inf(&rhs);
        let m = monodromy_threaded(&cyc.records, n, threads);
        let border = match &phase {
            Some(p) => {
                let phase_res = x0[p.unknown] - p.value;
                last_residual = last_residual.max(phase_res.abs());
                let x_end2 = cycle(&x0, period * (1.0 + DT_REL), false)?;
                let dphi_dt: Vec<f64> = last_state(&x_end2)?
                    .iter()
                    .zip(x_end.iter())
                    .map(|(a, b)| (a - b) / (period * DT_REL))
                    .collect();
                rhs.push(-phase_res);
                Some((dphi_dt, p.unknown))
            }
            None => None,
        };
        if last_residual < opts.tol {
            let (dphi_dt, phase_unknown) = border.unzip();
            return Ok(PssSolution {
                period,
                times: cyc.times,
                states: cyc.states,
                records: cyc.records,
                monodromy: m,
                method: opts.method,
                dphi_dt,
                phase_unknown,
                residual: last_residual,
            });
        }
        let a = shooting_matrix(&m, border.as_ref().map(|(d, pi)| (d.as_slice(), *pi)));
        let mut dx = a.lu()?.solve(&rhs);
        // δT is the bordered row's unknown; a driven round has none.
        let mut dt = dx.drain(n..).next().unwrap_or(0.0);
        let dmax = vecops::norm_inf(&dx);
        if dmax > UPDATE_LIMIT {
            let k = UPDATE_LIMIT / dmax;
            vecops::scale(&mut dx, k);
            dt *= k;
        }
        // Driven rounds have δT = 0, so the period clamp never fires.
        let dt_cap = PERIOD_UPDATE_LIMIT * period;
        if dt.abs() > dt_cap {
            let k = dt_cap / dt.abs();
            dt *= k;
            vecops::scale(&mut dx, k);
        }
        for (xi, di) in x0.iter_mut().zip(dx.iter()) {
            *xi += di;
        }
        period += dt;
        if period <= 0.0 {
            return Err(PssError::NoConvergence {
                analysis: analysis.into(),
                detail: "period iterate became non-positive".into(),
            });
        }
    }
    Err(PssError::NoConvergence {
        analysis: analysis.into(),
        detail: format!(
            "residual {last_residual:.3e} after {MAX_ITER} iterations (tol {:.1e})",
            opts.tol
        ),
    })
}

pub(crate) fn check_periodicity(ckt: &Circuit, period: f64) -> Result<(), PssError> {
    if !(period.is_finite() && period > 0.0) {
        return Err(PssError::BadConfig("period must be finite and > 0".into()));
    }
    for (i, dev) in ckt.devices().iter().enumerate() {
        let wave = match dev {
            tranvar_circuit::Device::Vsource { wave, .. } => wave,
            tranvar_circuit::Device::Isource { wave, .. } => wave,
            _ => continue,
        };
        if !wave.is_periodic_in(period) {
            return Err(PssError::NotPeriodic {
                device: ckt.label(tranvar_circuit::DeviceId::from_index(i)).into(),
                period,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{Pulse, Waveform};

    /// Driven RC: the PSS of a sine-driven RC matches the AC phasor.
    #[test]
    fn sine_driven_rc_matches_ac() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let freq = 1.0e5;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1.59155e-9); // fc = 1e5 Hz
        let mut opts = PssOptions::default();
        opts.method = Integrator::Trapezoidal;
        opts.n_steps = 512;
        let sol = shooting_pss(&ckt, 1.0 / freq, &opts).unwrap();
        assert!(sol.residual < 1e-9);
        // |H| at the corner = 1/√2; amplitude of b's waveform should match.
        // Fundamental amplitude 2·|c₁| of the one-period samples.
        let w = sol.node_waveform(&ckt, b);
        let w = &w[..w.len() - 1];
        let dphi = 2.0 * std::f64::consts::PI / w.len() as f64;
        let (re, im) = w.iter().enumerate().fold((0.0, 0.0), |(re, im), (i, &v)| {
            (
                re + v * (dphi * i as f64).cos(),
                im - v * (dphi * i as f64).sin(),
            )
        });
        let amp = 2.0 * re.hypot(im) / w.len() as f64;
        assert!((amp - 1.0 / 2.0_f64.sqrt()).abs() < 2e-3, "amplitude {amp}");
    }

    /// A slow RC (tau = 10 µs) driven by a `v1`-volt pulse of period
    /// 10 µs; returns the circuit, its capacitor node and the period.
    fn pulse_rc(v1: f64) -> (Circuit, NodeId, f64) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 10e-6;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period,
            }),
        );
        ckt.add_resistor("R1", a, b, 10e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        (ckt, b, period)
    }

    /// Pulse-driven RC: check `x(T) = x(0)` and periodic repeatability.
    #[test]
    fn pulse_driven_rc_is_periodic() {
        let (ckt, b, period) = pulse_rc(1.0);
        let sol = shooting_pss(&ckt, period, &PssOptions::default()).unwrap();
        let first = &sol.states[0];
        let last = sol.states.last().unwrap();
        for (u, v) in first.iter().zip(last.iter()) {
            assert!((u - v).abs() < 1e-8);
        }
        // The slow RC reaches a ripple steady state straddling the duty-cycle
        // average (~0.4): forward simulation from DC would need many cycles.
        let w = sol.node_waveform(&ckt, b);
        let mean = w[..w.len() - 1].iter().sum::<f64>() / (w.len() - 1) as f64;
        assert!((mean - 0.4).abs() < 0.02, "ripple mean {mean}");
    }

    /// The boundary operator is `I − M` entrywise for a driven orbit; the
    /// oscillator border appends the `−∂Φ/∂T` column and the `e_φ` row,
    /// with a zero corner.
    #[test]
    fn shooting_matrix_is_i_minus_m_with_optional_border() {
        let mut m = DMat::zeros(2, 2);
        m[(0, 0)] = 0.25;
        m[(0, 1)] = -1.5;
        m[(1, 0)] = 3.0;
        m[(1, 1)] = 2.0;
        let driven = shooting_matrix(&m, None);
        assert_eq!((driven.rows(), driven.cols()), (2, 2));
        for i in 0..2 {
            for j in 0..2 {
                let eye = if i == j { 1.0 } else { 0.0 };
                assert_eq!(driven[(i, j)], eye - m[(i, j)], "({i}, {j})");
            }
        }
        let dphi = [7.0, -0.5];
        let bordered = shooting_matrix(&m, Some((&dphi, 1)));
        assert_eq!((bordered.rows(), bordered.cols()), (3, 3));
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(bordered[(i, j)], driven[(i, j)], "({i}, {j})");
            }
            assert_eq!(bordered[(i, 2)], -dphi[i]);
        }
        assert_eq!([bordered[(2, 0)], bordered[(2, 1)]], [0.0, 1.0]);
        assert_eq!(bordered[(2, 2)], 0.0);
    }

    /// Shooting from DC with no warm-up on a 5 V pulse-driven RC: the first
    /// Newton update is far longer than `UPDATE_LIMIT`, so the loop must
    /// clamp it and still converge to the warmed-up orbit.
    #[test]
    fn clamped_first_step_still_converges() {
        let (ckt, _, period) = pulse_rc(5.0);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        opts.warmup_cycles = 0;
        // The unclamped first update from the DC point.
        let x0 = tranvar_engine::dc::dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let (n, method, newton) = (opts.n_steps, opts.method, NewtonOptions::default());
        let mut ws = CycleWorkspace::new();
        let cyc = integrate_cycle_with(
            &ckt, &mut ws, &x0, 0.0, period, n, method, &newton, opts.gmin, true,
        )
        .unwrap();
        let r = vecops::sub(cyc.states.last().unwrap(), &x0);
        let m = monodromy_threaded(&cyc.records, x0.len(), 1);
        let first = shooting_matrix(&m, None).lu().unwrap().solve(&r);
        assert!(vecops::norm_inf(&first) > 2.0 * UPDATE_LIMIT);

        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        assert!(sol.residual < opts.tol);
        opts.warmup_cycles = 2;
        let warm = shooting_pss(&ckt, period, &opts).unwrap();
        for (u, v) in sol
            .states
            .iter()
            .flatten()
            .zip(warm.states.iter().flatten())
        {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn monodromy_of_rc_decays() {
        // For a linear RC with tau, the monodromy eigenvalue along the cap
        // state is exp(-T/tau).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 1e-3;
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6); // tau = 1 ms
        let mut opts = PssOptions::default();
        opts.method = Integrator::Trapezoidal;
        opts.n_steps = 1024;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        // The (b,b) monodromy entry is the decay of a cap-voltage kick.
        let ib = ckt.unknown_of_node(b).unwrap();
        let expect = (-1.0f64).exp();
        assert!(
            (sol.monodromy[(ib, ib)] - expect).abs() < 1e-3,
            "M_bb = {} vs {expect}",
            sol.monodromy[(ib, ib)]
        );
    }

    /// The interleaved/threaded accumulation must reproduce the per-column
    /// sequential reference exactly, for every thread count.
    #[test]
    fn threaded_monodromy_matches_sequential_reference() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.5,
                ampl: 0.5,
                freq: 1.0e5,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.add_resistor("R2", b, c, 2e3);
        ckt.add_capacitor("C2", c, NodeId::GROUND, 0.5e-9);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        opts.method = Integrator::Trapezoidal;
        let sol = shooting_pss(&ckt, 1.0e-5, &opts).unwrap();
        let n = ckt.n_unknowns();
        let reference = monodromy_seq(&sol.records, n);
        for threads in [1usize, 2, 3, 8] {
            let m = monodromy_threaded(&sol.records, n, threads);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        m[(i, j)].to_bits() == reference[(i, j)].to_bits(),
                        "threads {threads}: M[{i}][{j}] = {} vs seq {}",
                        m[(i, j)],
                        reference[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_incommensurate_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 3.0e5,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let err = shooting_pss(&ckt, 1.0 / 2.0e5, &PssOptions::default());
        assert!(matches!(err, Err(PssError::NotPeriodic { .. })));
    }

    /// A NaN period slips through a `period <= 0.0` test; unchecked, it
    /// fails deep inside Newton.
    #[test]
    fn nan_source_is_a_typed_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(f64::NAN));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let err = shooting_pss(&ckt, 1e-6, &opts).unwrap_err();
        assert!(
            err.to_string()
                .contains("dc newton produced a non-finite value"),
            "{err}"
        );
    }

    #[test]
    fn rejects_non_finite_period() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_capacitor("C1", a, NodeId::GROUND, 1e-9);
        for period in [f64::NAN, f64::INFINITY, 0.0] {
            let res = shooting_pss(&ckt, period, &PssOptions::default());
            assert!(
                matches!(res, Err(PssError::BadConfig(_))),
                "{period}: {res:?}"
            );
        }
    }
}
