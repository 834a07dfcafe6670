//! # dp-bench — experiment harness for the Deep Positron reproduction
//!
//! [`artifacts`] computes every table and figure of the paper (and the
//! extensions beside them) and the `reproduce` binary emits them; the
//! table / CSV / plot writers they share live in [`report`]. The
//! `benches/` targets run on the in-crate [`timing`] harness.

pub mod accuracy;
pub mod artifacts;
pub mod report;
pub mod timing;

pub use report::{render_table, write_csv, Ascii};
