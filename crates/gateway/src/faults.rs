//! The gateway's own `dp_fault` failure point. It fires through
//! [`dp_serve::faults::fire`] — the serving stack's one seam, which this
//! crate's `fault-inject` feature turns on.

/// Fired by the dispatcher right after popping a ring entry, scoped by
/// the request's logical model name. A planned `Sleep` here widens the
/// expiry-vs-dispatch race window deterministically.
pub(crate) const DELAY_DISPATCH: &str = "delay_dispatch";
