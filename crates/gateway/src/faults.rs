//! Compile-time seam for `dp_fault` failure points on the gateway side.
//!
//! Mirrors `dp_serve::faults`: with the `fault-inject` feature the named
//! points call into the process-global `dp_fault` plan; without it the
//! hook is an inlined `false` the optimizer deletes, so release builds
//! carry zero overhead.

pub(crate) mod points {
    /// Fired by the dispatcher right after popping a ring entry, scoped by
    /// the request's logical model name. A planned `Sleep` here widens the
    /// expiry-vs-dispatch race window deterministically.
    pub(crate) const DELAY_DISPATCH: &str = "delay_dispatch";
}

#[cfg(feature = "fault-inject")]
pub(crate) fn fire(point: &'static str, scope: Option<&str>) -> bool {
    dp_fault::apply(point, scope)
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn fire(_point: &'static str, _scope: Option<&str>) -> bool {
    false
}
