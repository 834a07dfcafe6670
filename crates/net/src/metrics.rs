//! Connection/frame counters for the TCP front end, exposed next to the
//! gateway's [`dp_gateway::MetricsSnapshot`] on the `/metrics` endpoint.
//!
//! These count what the gateway cannot see: connections, raw frames, and
//! traffic that dies at the transport layer (malformed frames, oversized
//! prefixes, slow-loris timeouts). Together with the gateway counters
//! they close the conservation law the e2e CI job asserts —
//! `dp_net_requests_total` equals `dp_gateway_submitted_total`, and
//! everything a client ever sent is accounted for as a gateway verdict
//! or a `dp_net` protocol error.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters for the network front end. All increments use
/// relaxed ordering: rows are monotone counters, not synchronization.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted off the listener.
    pub connections_accepted: AtomicU64,
    /// Connections turned away with [`WireStatus::Busy`]
    /// (connection cap reached).
    ///
    /// [`WireStatus::Busy`]: crate::wire::WireStatus::Busy
    pub connections_rejected: AtomicU64,
    /// Accepted connections that have fully closed.
    pub connections_closed: AtomicU64,
    /// Complete binary request frames read.
    pub frames_read: AtomicU64,
    /// Response frames the kernel accepted (including rejections);
    /// counted per flush, so nothing buffered for a dead peer shows up.
    pub frames_written: AtomicU64,
    /// Well-formed forward/classify requests handed to
    /// `Gateway::try_submit_*` — by construction equal to the gateway's
    /// own `submitted` counter when the gateway serves only this front
    /// end.
    pub requests: AtomicU64,
    /// Frames that failed to decode (truncated, unknown opcode, bad
    /// sizes…). Each one also closes its connection.
    pub protocol_errors: AtomicU64,
    /// Length prefixes over the frame cap, rejected before allocation.
    /// Counted under `protocol_errors` too; this row isolates the cause.
    pub oversized_frames: AtomicU64,
    /// Partial frames that outlived the read timeout (slow-loris guard).
    /// Counted under `protocol_errors` too.
    pub read_timeouts: AtomicU64,
    /// HTTP `GET /metrics` scrapes served.
    pub http_scrapes: AtomicU64,
    /// Remote shutdown requests honoured.
    pub shutdown_requests: AtomicU64,
}

impl NetMetrics {
    /// Bumps a counter by one.
    pub(crate) fn inc(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// Adds `n` to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        // relaxed-ok: independent monotone counter; a scrape tolerates
        // cross-counter skew and nothing publishes data through it.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Renders the counters in Prometheus text exposition format with
    /// the `dp_net_` prefix, shaped exactly like
    /// [`dp_gateway::MetricsSnapshot::to_prometheus`] so the two blocks
    /// concatenate into one valid exposition.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let counters: [(&str, &AtomicU64); 11] = [
            ("connections_accepted", &self.connections_accepted),
            ("connections_rejected", &self.connections_rejected),
            ("connections_closed", &self.connections_closed),
            ("frames_read", &self.frames_read),
            ("frames_written", &self.frames_written),
            ("requests", &self.requests),
            ("protocol_errors", &self.protocol_errors),
            ("oversized_frames", &self.oversized_frames),
            ("read_timeouts", &self.read_timeouts),
            ("http_scrapes", &self.http_scrapes),
            ("shutdown_requests", &self.shutdown_requests),
        ];
        for (name, v) in counters {
            let _ = writeln!(s, "# TYPE dp_net_{name}_total counter");
            // relaxed-ok: no memory order makes an 11-counter scrape
            // atomic; each row is individually coherent and that is all
            // the exposition format promises.
            let _ = writeln!(s, "dp_net_{name}_total {}", v.load(Ordering::Relaxed));
        }
        let open = self
            .connections_accepted
            .load(Ordering::Relaxed) // relaxed-ok: see the counter loop above
            .saturating_sub(self.connections_closed.load(Ordering::Relaxed)); // relaxed-ok: see above
        let _ = writeln!(s, "# TYPE dp_net_connections_open gauge");
        let _ = writeln!(s, "dp_net_connections_open {open}");
        s
    }
}
