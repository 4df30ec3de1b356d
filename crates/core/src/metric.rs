//! Performance metrics extracted from the PSS orbit and its per-parameter
//! periodic perturbations (paper Sections IV–V).
//!
//! Each metric maps the PSS solution to a nominal value, and each
//! [`PeriodicResponse`] to a linear sensitivity:
//!
//! - [`Metric::DcAverage`]: the cycle-mean of a node (the comparator's
//!   input-referred offset in the Fig. 6 testbench) — the baseband (N=0)
//!   readout of Section V-A,
//! - [`Metric::CrossingShift`]: a threshold-crossing time (logic-path delay,
//!   Section IV-B) — the time-domain equivalent of the first-sideband phase
//!   readout of Section V-B (`Δt_c = −δv(t_c)/v̇(t_c)`),
//! - [`Metric::Frequency`]: oscillator frequency from the period sensitivity
//!   `δf = −δT/T²` (Section V-C).

use crate::error::CoreError;
use tranvar_circuit::{Circuit, NodeId};
use tranvar_lptv::PeriodicResponse;
use tranvar_num::interp::{first_crossing_after, lerp_at, Edge};
use tranvar_pss::PssSolution;

/// Cycle-mean of a periodic waveform whose last sample duplicates sample 0.
fn cycle_mean(w: &[f64]) -> f64 {
    w[..w.len() - 1].iter().sum::<f64>() / (w.len() - 1) as f64
}

/// A transient performance metric.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Metric {
    /// Cycle-average (DC component) of a node voltage.
    DcAverage {
        /// Observed node.
        node: NodeId,
    },
    /// Time of the first `edge` crossing of `threshold` on `node` at or
    /// after `t_after`, reported relative to `t_ref` (e.g. the known input
    /// edge time), i.e. a delay.
    CrossingShift {
        /// Observed node.
        node: NodeId,
        /// Crossing threshold (V).
        threshold: f64,
        /// Crossing direction.
        edge: Edge,
        /// Earliest time considered within the period.
        t_after: f64,
        /// Reference time subtracted from the crossing (0 for absolute).
        t_ref: f64,
    },
    /// Oscillation frequency `1/T` of an autonomous orbit.
    Frequency,
}

impl Metric {
    /// Short human-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::DcAverage { .. } => "dc-average",
            Metric::CrossingShift { .. } => "delay",
            Metric::Frequency => "frequency",
        }
    }

    /// Nominal value of the metric on the PSS orbit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Metric`] if the metric cannot be measured
    /// (missing crossing, frequency of a driven circuit, ...).
    pub fn nominal(&self, ckt: &Circuit, sol: &PssSolution) -> Result<f64, CoreError> {
        match self {
            Metric::DcAverage { node } => {
                let w = sol.node_waveform(ckt, *node);
                Ok(cycle_mean(&w))
            }
            Metric::CrossingShift {
                node,
                threshold,
                edge,
                t_after,
                t_ref,
            } => {
                let w = sol.node_waveform(ckt, *node);
                let tc = first_crossing_after(&sol.times, &w, *threshold, *edge, *t_after)
                    .ok_or_else(|| {
                        CoreError::Metric(format!(
                            "no {edge:?} crossing of {threshold} on `{}` after {t_after:.3e}",
                            ckt.node_name(*node)
                        ))
                    })?;
                Ok(tc - t_ref)
            }
            Metric::Frequency => {
                if sol.dphi_dt.is_none() {
                    return Err(CoreError::Metric(
                        "frequency metric requires an autonomous pss solution".into(),
                    ));
                }
                Ok(sol.fundamental())
            }
        }
    }

    /// Linear sensitivity of the metric to a unit parameter change, given
    /// the parameter's periodic response.
    ///
    /// # Errors
    ///
    /// See [`Metric::nominal`].
    pub fn sensitivity(
        &self,
        ckt: &Circuit,
        sol: &PssSolution,
        resp: &PeriodicResponse,
    ) -> Result<f64, CoreError> {
        match self {
            Metric::DcAverage { node } => {
                let w = resp.node_waveform(ckt, *node);
                Ok(cycle_mean(&w))
            }
            Metric::CrossingShift {
                node,
                threshold,
                edge,
                t_after,
                ..
            } => {
                let w = sol.node_waveform(ckt, *node);
                let tc = first_crossing_after(&sol.times, &w, *threshold, *edge, *t_after)
                    .ok_or_else(|| {
                        CoreError::Metric(format!(
                            "no {edge:?} crossing of {threshold} on `{}` after {t_after:.3e}",
                            ckt.node_name(*node)
                        ))
                    })?;
                // Slope of the nominal waveform at the crossing.
                let idx = tranvar_num::interp::nearest_index(&sol.times, tc);
                let slope = sol.node_slope(ckt, *node)[idx];
                if slope == 0.0 {
                    return Err(CoreError::Metric(format!(
                        "zero slope at crossing on `{}`",
                        ckt.node_name(*node)
                    )));
                }
                // δ(t_c) = −δv(t_c)/v̇(t_c).
                let dv = lerp_at(&sol.times, &resp.node_waveform(ckt, *node), tc);
                Ok(-dv / slope)
            }
            Metric::Frequency => {
                // δf = −δT/T².
                Ok(-resp.dperiod / (sol.period * sol.period))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::Waveform;
    use tranvar_pss::{shooting_pss, PssOptions};

    #[test]
    fn dc_average_of_static_circuit() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        let mut opts = PssOptions::default();
        opts.n_steps = 16;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let m = Metric::DcAverage { node: b };
        assert!((m.nominal(&ckt, &sol).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(m.kind(), "dc-average");
    }

    #[test]
    fn frequency_requires_autonomous() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        assert!(matches!(
            Metric::Frequency.nominal(&ckt, &sol),
            Err(CoreError::Metric(_))
        ));
    }

    #[test]
    fn missing_crossing_is_metric_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let m = Metric::CrossingShift {
            node: a,
            threshold: 5.0,
            edge: Edge::Rising,
            t_after: 0.0,
            t_ref: 0.0,
        };
        assert!(matches!(m.nominal(&ckt, &sol), Err(CoreError::Metric(_))));
    }
}
