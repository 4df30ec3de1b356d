//! Host-speed correction for end-to-end times.
//!
//! The benchmark runs on shared machines whose effective CPU speed drifts
//! by tens of percent over seconds to minutes, which moves every wall time
//! in a run together. Before each round (and once after the last) the
//! loop times a fixed reference kernel — benchmark code, not tranvar
//! code — and every end-to-end time of the round is scaled by
//! `REF_NOMINAL_S` over the mean of the kernel's times just before and
//! just after the round. End-to-end times therefore read as wall times on
//! a host where this kernel takes `REF_NOMINAL_S`; a change to the program
//! moves them fully, a change in host load largely cancels.

use std::hint::black_box;
use std::time::Instant;

/// Nominal host speed: the reference kernel's wall time, in seconds, on a
/// host this benchmark calls nominal — close to its typical time on the
/// shared 2-core x86-64 containers the bounds were measured on. A fixed
/// definition, never re-measured, so results stay comparable.
pub const REF_NOMINAL_S: f64 = 1.65e-3;

/// Dimension and repetitions of the kernel: dense Gaussian elimination on
/// a small well-conditioned matrix, cache-resident and scalar-heavy like
/// the per-step MNA work it stands in for.
const N: usize = 32;
const REPS: usize = 200;

fn kernel() -> f64 {
    let mut acc = 0.0;
    for rep in 0..REPS {
        let mut a: Vec<f64> = (0..N * N)
            .map(|i| ((i * 7 + rep) % 13) as f64 + if i % (N + 1) == 0 { 50.0 } else { 0.0 })
            .collect();
        for k in 0..N {
            let pivot = black_box(a[k * N + k]);
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        acc += a[N * N - 1];
    }
    acc
}

/// Runs the reference kernel once; returns its wall time in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The factor that scales a time measured between two kernel runs to
/// nominal host speed.
pub fn scale(ref_before: f64, ref_after: f64) -> f64 {
    REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_is_deterministic_and_scale_is_inverse_speed() {
        assert_eq!(super::kernel().to_bits(), super::kernel().to_bits());
        let slow = 2.0 * super::REF_NOMINAL_S;
        assert_eq!(super::scale(slow, slow), 0.5);
        assert_eq!(
            super::scale(super::REF_NOMINAL_S, super::REF_NOMINAL_S),
            1.0
        );
    }
}
