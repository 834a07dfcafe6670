//! Compile-time seam for the `dp_check` interleaving checker (feature
//! `check-yield`), mirroring the [`crate::faults`] pattern: with the
//! feature on, the crate's mutexes and condvars are the instrumented
//! `dp_check::sync` pair and `check_yield!` names a scheduling decision
//! point; without it they alias `std::sync` and the macro calls an inert
//! inlined stub, so release builds carry no hook code.
//!
//! `dp_gateway` instruments its locks through this same module (its
//! `check-yield` feature turns this crate's on), so the serving stack has
//! one seam. `dp_trace` keeps its own macro: it is std-only by design and
//! cannot see this crate.
//!
//! Labels passed to [`mutex`] name a lock *role* (`"pool.state"`), not
//! an instance — the checker's lock-order graph and deadlock findings
//! are per-role.

#[cfg(feature = "check-yield")]
pub use dp_check::{
    sync::{Condvar, Mutex, MutexGuard},
    yield_point,
};
#[cfg(not(feature = "check-yield"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// A mutex labelled for the checker; the label is compiled out without
/// the `check-yield` feature.
#[cfg(feature = "check-yield")]
pub fn mutex<T>(label: &'static str, value: T) -> Mutex<T> {
    Mutex::new_labeled(label, value)
}

/// A mutex labelled for the checker; the label is compiled out without
/// the `check-yield` feature.
#[cfg(not(feature = "check-yield"))]
pub fn mutex<T>(_label: &'static str, value: T) -> Mutex<T> {
    Mutex::new(value)
}

/// A condition variable (instrumented only under `check-yield`).
pub fn condvar() -> Condvar {
    Condvar::new()
}

/// Inert stub: without the `check-yield` feature a yield point is a no-op
/// the optimizer removes entirely.
#[cfg(not(feature = "check-yield"))]
#[inline(always)]
pub fn yield_point(_point: &'static str) {}

/// Names a linearization point for the interleaving checker.
#[doc(hidden)]
#[macro_export]
macro_rules! check_yield {
    ($point:expr) => {
        $crate::check::yield_point($point)
    };
}

pub use crate::check_yield;
