//! # tranvar-circuits
//!
//! The benchmark circuits of the paper's evaluation (Section VI), built on a
//! calibrated 0.13 µm-class technology:
//!
//! - [`tech`]: model cards + Pelgrom coefficients (AVT = 6.5 mV·µm,
//!   Aβ = 3.25 %·µm), calibrated near the paper's quoted 3σ(I_DS) ≈ 14%
//!   operating point,
//! - [`gates`]: CMOS inverter/NAND builders with mismatch annotations,
//! - [`strongarm`]: the StrongARM clocked comparator (Fig. 10a) with the
//!   metastability feedback testbench (Fig. 6) and a bisecting Monte-Carlo
//!   offset measurement kernel,
//! - [`logic_path`]: the Fig. 7 shared/disjoint critical-path pair behind
//!   Table I,
//! - [`ring_osc`]: the 5-stage ring oscillator of Figs. 11–12,
//! - [`dac`]: the R-string DAC DNL example of eq. (13).

#![warn(missing_docs)]

pub mod dac;
pub mod gates;
pub mod logic_path;
pub mod ring_osc;
pub mod strongarm;
pub mod tech;

pub use dac::RStringDac;
pub use logic_path::{ArrivalOrder, LogicPath};
pub use ring_osc::RingOsc;
pub use strongarm::StrongArm;
pub use tech::Tech;
