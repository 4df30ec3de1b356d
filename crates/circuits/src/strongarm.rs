//! StrongARM clocked comparator (paper Fig. 10a) with the metastability
//! feedback testbench of Fig. 6.
//!
//! The input-referred offset of a clocked comparator has no DC operating
//! point to measure from — it only exists transiently. The Fig. 6 testbench
//! closes an ideal integrator loop around the comparator: any difference
//! between the differential outputs accumulates on `vos`, which is fed back
//! (±half each side) into the inputs; the loop settles exactly when the
//! comparator is metastable, i.e. `v(vos)` *is* the input-referred offset.
//! The whole testbench is periodic in the clock, so shooting-Newton finds
//! the metastable orbit directly (a root-finder does not care that forward
//! simulation approaches it only slowly), and the baseband pseudo-noise
//! readout of the `vos` node gives the offset variance (Section V-A).
//!
//! Monte-Carlo has no such shortcut: it must either run the feedback
//! testbench to settling (hundreds of clock cycles — the configuration whose
//! cost Table II highlights) or bisect a forced offset, re-simulating the
//! decision per probe. The bisection is the MC measurement kernel here
//! ([`StrongArm::measure_offset_bisect`]).

use crate::tech::Tech;
use tranvar_circuit::{Circuit, DeviceId, NodeId, Pulse, Waveform};
use tranvar_core::{Metric, MetricSpec};
use tranvar_engine::dc::NewtonOptions;
use tranvar_engine::tran::{transient, TranOptions};
use tranvar_engine::{EngineError, Integrator};
use tranvar_pss::PssOptions;

/// The constructed comparator testbench and its measurement bindings.
#[derive(Clone, Debug)]
pub struct StrongArm {
    /// The netlist (comparator + integrator feedback).
    pub circuit: Circuit,
    /// Offset-accumulator node (the measured quantity).
    pub vos: NodeId,
    /// Differential outputs.
    pub outp: NodeId,
    /// Differential outputs.
    pub outn: NodeId,
    /// Clock period (s).
    pub period: f64,
    /// Decision readout time within the cycle (end of evaluation).
    pub t_read: f64,
    /// Comparator transistors in Fig. 10 order (M1 tail, M2/M3 input pair,
    /// M4/M5 cross-coupled NMOS, M6/M7 cross-coupled PMOS, M8/M9 precharge,
    /// M10/M11 internal-node precharge).
    pub devices: Vec<DeviceId>,
}

impl StrongArm {
    /// Builds the paper's comparator: input pair sized at the quoted
    /// 8.32 µm/0.13 µm device.
    pub fn paper(tech: &Tech) -> Self {
        StrongArm::new(tech, 8.32e-6)
    }

    /// Builds the comparator with a given input-pair width.
    pub fn new(tech: &Tech, w_input: f64) -> Self {
        let period = 1.5e-9;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let clk = ckt.node("clk");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let tail = ckt.node("tail");
        let xp = ckt.node("xp");
        let xn = ckt.node("xn");
        let outp = ckt.node("outp");
        let outn = ckt.node("outn");
        let vos = ckt.node("vos");
        let vcm = ckt.node("vcm");

        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(tech.vdd));
        // Clock low (precharge) for the first 1 ns, evaluation ~0.42 ns.
        ckt.add_vsource(
            "VCLK",
            clk,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: tech.vdd,
                delay: 1.0e-9,
                rise: 30e-12,
                fall: 30e-12,
                width: 0.42e-9,
                period,
            }),
        );
        // Input drive: inp = VCM + vos/2, inn = VCM − vos/2 (Fig. 6).
        ckt.add_vsource("VCM", vcm, NodeId::GROUND, Waveform::Dc(0.8));
        ckt.add_vcvs("EP", inp, vcm, vos, NodeId::GROUND, 0.5);
        ckt.add_vcvs("EN", inn, vcm, vos, NodeId::GROUND, -0.5);

        // Comparator core (Fig. 10a).
        let m1 = tech.nmos(&mut ckt, "M1", tail, clk, NodeId::GROUND, 10e-6);
        let m2 = tech.nmos(&mut ckt, "M2", xp, inp, tail, w_input);
        let m3 = tech.nmos(&mut ckt, "M3", xn, inn, tail, w_input);
        let m4 = tech.nmos(&mut ckt, "M4", outp, outn, xp, 1.5e-6);
        let m5 = tech.nmos(&mut ckt, "M5", outn, outp, xn, 1.5e-6);
        let m6 = tech.pmos(&mut ckt, "M6", outp, outn, vdd, 1.5e-6);
        let m7 = tech.pmos(&mut ckt, "M7", outn, outp, vdd, 1.5e-6);
        let m8 = tech.pmos(&mut ckt, "M8", outp, clk, vdd, 3e-6);
        let m9 = tech.pmos(&mut ckt, "M9", outn, clk, vdd, 3e-6);
        let m10 = tech.pmos(&mut ckt, "M10", xp, clk, vdd, 2e-6);
        let m11 = tech.pmos(&mut ckt, "M11", xn, clk, vdd, 2e-6);

        // Explicit output/internal loading slows regeneration to a numerically
        // benign exponent (the orbit's linearization is propagated exactly).
        ckt.add_capacitor("CXP", xp, NodeId::GROUND, 10e-15);
        ckt.add_capacitor("CXN", xn, NodeId::GROUND, 10e-15);
        ckt.add_capacitor("COP", outp, NodeId::GROUND, 40e-15);
        ckt.add_capacitor("CON", outn, NodeId::GROUND, 40e-15);

        // Ideal integrator: C·dvos/dt = −K·(v(outp) − v(outn)).
        ckt.add_capacitor("CINT", vos, NodeId::GROUND, 1e-12);
        ckt.add_vccs("GINT", vos, NodeId::GROUND, outn, outp, 1.0e-6);

        StrongArm {
            circuit: ckt,
            vos,
            outp,
            outn,
            period,
            t_read: 1.44e-9,
            devices: vec![m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11],
        }
    }

    /// The offset metric: cycle-average of the `vos` node (Section V-A
    /// baseband readout).
    pub fn offset_metric(&self) -> MetricSpec {
        MetricSpec::new("offset", Metric::DcAverage { node: self.vos })
    }

    /// PSS options tuned for this circuit class.
    pub fn pss_options(&self) -> PssOptions {
        let mut o = PssOptions::default();
        o.n_steps = 384;
        o.warmup_cycles = 4;
        o.tol = 1e-8;
        o.newton = NewtonOptions {
            step_limit: 0.3,
            ..NewtonOptions::default()
        };
        o
    }

    /// One comparator decision with a forced input offset: simulate from the
    /// precharged state to the readout time and return `sign(outp − outn)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn decide(&self, ckt: &Circuit, v_forced: f64) -> Result<f64, EngineError> {
        let mut forced = ckt.clone();
        let vos = forced.find_node("vos")?;
        forced.add_vsource("VFORCE", vos, NodeId::GROUND, Waveform::Dc(v_forced));
        let mut opts = TranOptions::new(self.t_read, self.period / 1024.0);
        opts.method = Integrator::BackwardEuler;
        let res = transient(&forced, &opts)?;
        let x = res.last();
        Ok(forced.voltage(x, forced.find_node("outp")?)
            - forced.voltage(x, forced.find_node("outn")?))
    }

    /// Monte-Carlo kernel (fast variant): bisect the forced offset until the
    /// decision flips — the "sweep" measurement the paper describes as the
    /// conventional alternative (Section IV-A).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn measure_offset_bisect(&self, ckt: &Circuit) -> Result<f64, EngineError> {
        let (mut lo, mut hi) = (-0.1, 0.1);
        let d_lo = self.decide(ckt, lo)?;
        let d_hi = self.decide(ckt, hi)?;
        if d_lo.signum() == d_hi.signum() {
            return Err(EngineError::Measurement(format!(
                "offset outside ±100 mV bracket (d_lo={d_lo:.3e}, d_hi={d_hi:.3e})"
            )));
        }
        for _ in 0..18 {
            let mid = 0.5 * (lo + hi);
            let d = self.decide(ckt, mid)?;
            if d.signum() == d_lo.signum() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The applied differential that balances the comparator; the
        // input-referred offset is its negative... both conventions appear in
        // the literature — we report the balancing voltage, matching the
        // sign the feedback testbench settles to.
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_core::prelude::*;

    #[test]
    fn nominal_comparator_is_balanced() {
        let tech = Tech::t013();
        let sa = StrongArm::paper(&tech);
        // A ±10 mV forced offset must flip the decision.
        // StrongARM polarity: the side with the higher input discharges its
        // output, so a positive applied offset drives outp LOW.
        let dp = sa.decide(&sa.circuit, 10e-3).unwrap();
        let dn = sa.decide(&sa.circuit, -10e-3).unwrap();
        assert!(dp < -0.05, "decision(+10mV) = {dp}");
        assert!(dn > 0.05, "decision(-10mV) = {dn}");
        // Nominal (symmetric) offset is ~0.
        let off = sa.measure_offset_bisect(&sa.circuit).unwrap();
        assert!(off.abs() < 1e-3, "nominal offset {off}");
    }

    #[test]
    fn offset_variation_analysis_runs() {
        let tech = Tech::t013();
        let sa = StrongArm::paper(&tech);
        let res = analyze(
            &sa.circuit,
            &PssConfig::Driven {
                period: sa.period,
                opts: sa.pss_options(),
            },
            &[sa.offset_metric()],
        )
        .unwrap();
        let rep = &res.reports[0];
        // 11 transistors × 2 parameters.
        assert_eq!(rep.contributions.len(), 22);
        // Input-pair VT σ is 6.25 mV each; the offset σ must be of that
        // order (a few to a few tens of mV).
        let sigma = rep.sigma();
        assert!(
            sigma > 2e-3 && sigma < 60e-3,
            "offset sigma = {:.3} mV",
            sigma * 1e3
        );
        // The input pair dominates (Fig. 10's conclusion).
        let share: f64 = rep
            .contributions
            .iter()
            .filter(|c| c.label.starts_with("M2.") || c.label.starts_with("M3."))
            .map(|c| c.variance())
            .sum::<f64>()
            / rep.variance();
        assert!(share > 0.3, "input-pair share = {share:.2}");
    }

    #[test]
    fn lptv_offset_matches_bisected_mc_sample() {
        // Golden cross-check: perturb one device, compare the LPTV-predicted
        // offset shift against the nonlinear bisection measurement.
        let tech = Tech::t013();
        let sa = StrongArm::paper(&tech);
        let res = analyze(
            &sa.circuit,
            &PssConfig::Driven {
                period: sa.period,
                opts: sa.pss_options(),
            },
            &[sa.offset_metric()],
        )
        .unwrap();
        let rep = &res.reports[0];
        // Apply +5 mV to M2's VT only.
        let n_params = sa.circuit.mismatch_params().len();
        let k_m2vt = sa
            .circuit
            .mismatch_params()
            .iter()
            .position(|p| p.label == "M2.dVT")
            .unwrap();
        let dvt = 5e-3;
        let mut deltas = vec![0.0; n_params];
        deltas[k_m2vt] = dvt;
        let mut perturbed = sa.circuit.clone();
        perturbed.apply_mismatch(&deltas);
        let measured = sa.measure_offset_bisect(&perturbed).unwrap();
        let predicted = rep.contributions[k_m2vt].sensitivity * dvt;
        assert!(
            (measured - predicted).abs() < 0.15 * predicted.abs().max(1e-3),
            "bisect {measured:.4e} vs lptv {predicted:.4e}"
        );
    }
}
