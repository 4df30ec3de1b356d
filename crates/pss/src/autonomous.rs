//! Autonomous (oscillator) PSS: shooting with the period as an extra unknown.
//!
//! Oscillators have no external clock — the fundamental frequency is itself
//! an output and shifts under mismatch (paper Section IV-C). A warm-up
//! transient finds a state on the orbit and a period estimate; then the
//! shared shooting loop of [`crate::shooting`] runs with a phase condition
//! that pins one state component at `t = 0`, bordering the system to remove
//! the time-translation null space of `I − M`:
//!
//! ```text
//! [ I − M   −∂Φ/∂T ] [δx₀]   [ Φ(x₀,T) − x₀ ]
//! [ e_φᵀ       0   ] [δT ] = [ v_φ − x₀[φ]  ]
//! ```
//!
//! The same bordered operator ([`crate::shooting_matrix`]) later gives the
//! *frequency sensitivity* of the oscillator to each mismatch parameter at
//! negligible cost (the LPTV layer reuses the records and `∂Φ/∂T` stored
//! here).

use crate::error::PssError;
use crate::shooting::{check_periodicity, shoot, Phase, PssOptions, PssSolution};
use tranvar_circuit::{Circuit, NodeId};
use tranvar_engine::dc::DcOptions;
use tranvar_engine::measure::average_period;
use tranvar_engine::tran::TranOptions;
use tranvar_engine::{NewtonOptions, Session, SessionOptions};
use tranvar_num::interp::{crossings, Edge};

/// Warm-up length in units of the period hint.
const SETTLE_PERIODS: f64 = 12.0;
/// Initial-condition kick (V) applied to the phase node to break the
/// symmetric latch-up equilibrium.
const KICK: f64 = 0.1;

/// Oscillator PSS controls on top of [`PssOptions`].
#[derive(Clone, Debug, PartialEq)]
pub struct OscOptions {
    /// Shared shooting controls.
    pub pss: PssOptions,
}

impl Default for OscOptions {
    fn default() -> Self {
        let mut pss = PssOptions::default();
        // Trapezoidal preserves oscillation amplitude/period.
        pss.method = tranvar_engine::Integrator::Trapezoidal;
        pss.tol = 1e-8;
        OscOptions { pss }
    }
}

/// Solves the autonomous PSS problem of an oscillator.
///
/// `period_hint` seeds the warm-up transient (an order-of-magnitude guess is
/// enough); `phase_node`/`phase_value` define the phase condition — the node
/// is pinned to the value it has at the chosen crossing, which fixes the time
/// origin of the orbit.
///
/// # Errors
///
/// - [`PssError::NoOscillation`] if the warm-up never oscillates,
/// - [`PssError::NoConvergence`] if bordered shooting stalls,
/// - engine/numerical errors from the inner solves.
pub fn autonomous_pss(
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<PssSolution, PssError> {
    autonomous_pss_in(
        &mut Session::new(SessionOptions {
            solver: opts.pss.newton.solver,
            threads: opts.pss.threads,
        }),
        ckt,
        period_hint,
        phase_node,
        phase_value,
        opts,
    )
}

/// [`autonomous_pss`] borrowing an analysis [`Session`]: the DC seed, the
/// warm-up transient and every bordered-Newton cycle run through the
/// session's workspaces (see [`crate::shooting::shooting_pss_in`] for the
/// reuse and determinism contract).
///
/// # Errors
///
/// See [`autonomous_pss`].
pub fn autonomous_pss_in(
    session: &mut Session,
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<PssSolution, PssError> {
    check_periodicity(ckt, period_hint)?; // only DC sources are allowed anyway
    let pi = ckt
        .unknown_of_node(phase_node)
        .ok_or_else(|| PssError::BadConfig("phase node cannot be ground".into()))?;
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.pss.newton.clone()
    };
    let threads = session.effective_threads(opts.pss.threads);

    // Warm-up: a kicked transient from DC, SETTLE_PERIODS hint periods
    // long, for a period estimate and a state on the orbit.
    let mut x0 = session.dc_operating_point(
        ckt,
        &DcOptions {
            newton: newton.clone(),
            ..DcOptions::default()
        },
    )?;
    x0[pi] += KICK;
    let mut tran_opts = TranOptions::new(
        SETTLE_PERIODS * period_hint,
        period_hint / opts.pss.n_steps as f64,
    );
    tran_opts.method = opts.pss.method;
    tran_opts.newton = newton.clone();
    tran_opts.gmin = opts.pss.gmin;
    tran_opts.x0 = Some(x0);
    let res = session.transient(ckt, &tran_opts)?;
    let period_est = average_period(ckt, &res, phase_node, phase_value, 3).map_err(|e| {
        PssError::NoOscillation {
            detail: format!("warm-up transient shows no periodicity: {e}"),
        }
    })?;
    // Start at the sample nearest the last rising crossing of the phase
    // level, and pin the phase to the value actually sampled there — this
    // keeps the initial phase residual tiny.
    let w = res.node_waveform(ckt, phase_node);
    let rises = crossings(&res.times, &w, phase_value, Edge::Rising);
    let t_cross = *rises.last().expect("average_period guarantees crossings");
    let idx = tranvar_num::interp::nearest_index(&res.times, t_cross);
    let phase = Phase {
        unknown: pi,
        value: w[idx],
    };
    // The session's cycle workspace serves every cycle of the bordered
    // Newton loop (two integrations per round: nominal and
    // period-perturbed) and carries over to later solves.
    let x_start = res.states[idx].clone();
    shoot(
        ckt,
        session.cycle_workspace(),
        x_start,
        period_est,
        Some(phase),
        &opts.pss,
        &newton,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{MosModel, MosType, Waveform};
    use tranvar_engine::dc::dc_operating_point;
    use tranvar_engine::tran::transient;

    /// Builds an N-stage MOSFET inverter ring oscillator with explicit load
    /// capacitors (mirrors the paper's Section IV-C example at small scale).
    fn ring(n_stages: usize, cload: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        let nodes: Vec<NodeId> = (0..n_stages).map(|i| ckt.node(&format!("s{i}"))).collect();
        for i in 0..n_stages {
            let inp = nodes[i];
            let out = nodes[(i + 1) % n_stages];
            ckt.add_mosfet(
                &format!("MP{i}"),
                out,
                inp,
                vdd,
                MosType::Pmos,
                MosModel::pmos_013(),
                2e-6,
                0.13e-6,
            );
            ckt.add_mosfet(
                &format!("MN{i}"),
                out,
                inp,
                NodeId::GROUND,
                MosType::Nmos,
                MosModel::nmos_013(),
                1e-6,
                0.13e-6,
            );
            ckt.add_capacitor(&format!("CL{i}"), out, NodeId::GROUND, cload);
        }
        (ckt, nodes[0])
    }

    #[test]
    fn three_stage_ring_locks() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let sol = autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts).unwrap();
        assert!(sol.residual < opts.pss.tol);
        // Frequency in a plausible GHz range for these sizes.
        let f0 = sol.fundamental();
        assert!(f0 > 5e8 && f0 < 2e10, "f0 = {f0:.3e}");
        // Orbit is closed.
        let first = &sol.states[0];
        let last = sol.states.last().unwrap();
        for (u, v) in first.iter().zip(last.iter()) {
            assert!((u - v).abs() < 1e-7);
        }
        // Waveform swings across the supply.
        let w = sol.node_waveform(&ckt, s0);
        let (lo, hi) = w
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        assert!(lo < 0.2 && hi > 1.0, "swing {lo}..{hi}");
    }

    #[test]
    fn solved_period_matches_transient_measurement() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let sol = autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts).unwrap();
        // Long transient measurement of the same period.
        let mut x0 = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        x0[ckt.unknown_of_node(s0).unwrap()] += 0.1;
        let mut topts = TranOptions::new(30.0 * sol.period, sol.period / 128.0);
        topts.method = tranvar_engine::Integrator::Trapezoidal;
        topts.x0 = Some(x0);
        let res = transient(&ckt, &topts).unwrap();
        let t_meas = average_period(&ckt, &res, s0, 0.6, 5).unwrap();
        assert!(
            (t_meas - sol.period).abs() < 5e-3 * sol.period,
            "transient {t_meas:.4e} vs pss {:.4e}",
            sol.period
        );
    }

    #[test]
    fn phase_node_cannot_be_ground() {
        let (ckt, _) = ring(3, 10e-15);
        let err = autonomous_pss(&ckt, 1e-10, NodeId::GROUND, 0.0, &OscOptions::default());
        assert!(matches!(err, Err(PssError::BadConfig(_))));
    }
}
