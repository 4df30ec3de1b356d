//! Independent-source waveforms.
//!
//! The LPTV flow requires every stimulus to be either constant or periodic
//! with the analysis period (paper Section IV-B: "apply periodic or constant
//! signals to all the inputs"); [`Waveform::period`] lets the PSS solver
//! verify that.

/// Time-dependent value of an independent voltage or current source.
#[derive(Clone, Debug, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style periodic trapezoidal pulse.
    Pulse(Pulse),
    /// Sinusoid `offset + ampl·sin(2πf(t−delay))`.
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Time shift in seconds.
        delay: f64,
    },
    /// Piecewise-linear `(time, value)` corners; clamps outside the range.
    Pwl(Vec<(f64, f64)>),
}

/// A periodic trapezoidal pulse (SPICE `PULSE` semantics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pulse {
    /// Initial (and between-pulses) value.
    pub v0: f64,
    /// Pulsed value.
    pub v1: f64,
    /// Delay of the first edge within each period.
    pub delay: f64,
    /// Rise time (0 is replaced by 1 fs to stay well-posed).
    pub rise: f64,
    /// Fall time.
    pub fall: f64,
    /// Width of the pulsed phase (measured from end of rise).
    pub width: f64,
    /// Repetition period.
    pub period: f64,
}

impl Pulse {
    /// Value at time `t` (periodic in `period`).
    pub fn value(&self, t: f64) -> f64 {
        let period = self.period;
        let tp = if period > 0.0 {
            t.rem_euclid(period)
        } else {
            t
        };
        let rise = self.rise.max(1e-15);
        let fall = self.fall.max(1e-15);
        let t1 = self.delay;
        let t2 = t1 + rise;
        let t3 = t2 + self.width;
        let t4 = t3 + fall;
        if tp < t1 {
            self.v0
        } else if tp < t2 {
            self.v0 + (self.v1 - self.v0) * (tp - t1) / rise
        } else if tp < t3 {
            self.v1
        } else if tp < t4 {
            self.v1 + (self.v0 - self.v1) * (tp - t3) / fall
        } else {
            self.v0
        }
    }
}

impl Waveform {
    /// Constant-zero waveform.
    pub fn zero() -> Self {
        Waveform::Dc(0.0)
    }

    /// Value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse(p) => p.value(t),
            Waveform::Sin {
                offset,
                ampl,
                freq,
                delay,
            } => offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin(),
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        return if t1 > t0 {
                            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                        } else {
                            v1
                        };
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// Appends every derivative discontinuity ("breakpoint") of the
    /// waveform inside the open interval `(t0, t1)` to `out`.
    ///
    /// Adaptive transient integration lands steps exactly on these corners:
    /// a step that *straddles* a corner has an `O(1)` local error no matter
    /// how small it is, so an LTE controller without breakpoints shrinks
    /// toward `h_min` before every pulse edge instead of stepping onto it.
    /// Smooth waveforms (DC, sinusoid) contribute none.
    pub fn breakpoints_in(&self, t0: f64, t1: f64, out: &mut Vec<f64>) {
        match self {
            Waveform::Dc(_) | Waveform::Sin { .. } => {}
            Waveform::Pulse(p) => {
                let rise = p.rise.max(1e-15);
                let fall = p.fall.max(1e-15);
                let corners = [
                    p.delay,
                    p.delay + rise,
                    p.delay + rise + p.width,
                    p.delay + rise + p.width + fall,
                ];
                if p.period > 0.0 {
                    let k0 = (t0 / p.period).floor() as i64;
                    let k1 = (t1 / p.period).ceil() as i64;
                    for k in k0..=k1 {
                        let base = k as f64 * p.period;
                        for c in corners {
                            let t = base + c;
                            if t > t0 && t < t1 {
                                out.push(t);
                            }
                        }
                    }
                } else {
                    for c in corners {
                        if c > t0 && c < t1 {
                            out.push(c);
                        }
                    }
                }
            }
            Waveform::Pwl(points) => {
                for &(t, _) in points {
                    if t > t0 && t < t1 {
                        out.push(t);
                    }
                }
            }
        }
    }

    /// Intrinsic period, if the waveform is periodic (`None` for DC/PWL;
    /// DC sources are compatible with *any* analysis period).
    pub fn period(&self) -> Option<f64> {
        match self {
            Waveform::Dc(_) => None,
            Waveform::Pulse(p) => Some(p.period),
            Waveform::Sin { freq, .. } => Some(1.0 / freq),
            Waveform::Pwl(_) => None,
        }
    }

    /// Returns `true` if this waveform repeats with period `t_period`
    /// (DC always qualifies; periodic sources must divide evenly).
    pub fn is_periodic_in(&self, t_period: f64) -> bool {
        match self.period() {
            None => matches!(self, Waveform::Dc(_)),
            Some(p) => {
                if p <= 0.0 {
                    return false;
                }
                let ratio = t_period / p;
                (ratio - ratio.round()).abs() < 1e-9 && ratio.round() >= 1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1.8);
        assert_eq!(w.value(0.0), 1.8);
        assert_eq!(w.value(1e-3), 1.8);
        assert!(w.is_periodic_in(1e-9));
    }

    #[test]
    fn pulse_shape() {
        let p = Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        let w = Waveform::Pulse(p);
        assert_eq!(w.value(0.5), 0.0);
        assert!((w.value(1.5) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value(3.0), 1.0); // high
        assert!((w.value(4.5) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value(9.0), 0.0);
        // periodicity
        assert_eq!(w.value(13.0), 1.0);
        assert!(w.is_periodic_in(10.0));
        assert!(w.is_periodic_in(20.0));
        assert!(!w.is_periodic_in(15.0));
    }

    #[test]
    fn sine_value_and_period() {
        let w = Waveform::Sin {
            offset: 1.0,
            ampl: 2.0,
            freq: 50.0,
            delay: 0.0,
        };
        assert!((w.value(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value(0.005) - 3.0).abs() < 1e-9); // quarter period
        assert_eq!(w.period(), Some(0.02));
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert_eq!(w.value(0.5), 1.0);
        assert_eq!(w.value(2.0), 2.0);
        assert_eq!(w.value(9.0), 2.0);
        assert!(!w.is_periodic_in(1.0));
    }

    #[test]
    fn zero_width_rise_does_not_divide_by_zero() {
        let p = Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: 1.0,
            period: 2.0,
        };
        assert!(p.value(0.5).is_finite());
        assert_eq!(p.value(0.5), 1.0);
    }
}
