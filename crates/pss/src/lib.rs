//! # tranvar-pss
//!
//! Periodic steady-state (PSS) analysis via shooting Newton — the substrate
//! the paper borrows from RF simulators (SpectreRF/ADS, refs. \[12\],\[15\],\[16\]).
//!
//! One shooting-Newton loop serves both kinds of orbit:
//!
//! - [`shooting`]: driven PSS — finds the fixed point of the one-period flow
//!   map without integrating through settling transients; converges to
//!   unstable/metastable orbits (needed by the comparator testbench of paper
//!   Fig. 6),
//! - [`autonomous`]: oscillator PSS — a warm-up transient, then the same
//!   loop with the period as an extra unknown and the Newton system
//!   bordered by a phase condition (paper Section IV-C).
//!
//! Both store per-step factorizations and the monodromy matrix in
//! [`PssSolution`]. The LPTV noise/mismatch analysis in `tranvar-lptv`
//! factors the same boundary operator ([`shooting_matrix`]) and re-uses the
//! records, so every additional noise source costs only a pair of
//! triangular sweeps — the source of the paper's speedup.

#![warn(missing_docs)]

pub mod autonomous;
pub mod error;
pub mod shooting;

pub use autonomous::{autonomous_pss, autonomous_pss_in, OscOptions};
pub use error::PssError;
pub use shooting::{
    monodromy_seq, monodromy_threaded, shooting_matrix, shooting_pss, shooting_pss_in, PssOptions,
    PssSolution,
};
