//! # dp-gateway — async admission in front of the Deep Positron serving engine
//!
//! `dp_serve` gave the repo a persistent worker pool, but its admission
//! was the missing front half: `submit_*` pushes straight into the pool's
//! **unbounded** worker slots, so a traffic burst grew memory without
//! limit and gave callers no say in what gives under overload. This crate
//! is that front half — the piece both Deep Positron papers implicitly
//! assume when they pitch low-precision EMACs for *deployment*: a serving
//! layer that stays responsive when more traffic arrives than the
//! hardware can absorb.
//!
//! ```text
//! clients ──try_submit──▶ [bounded ring] ──dispatcher──▶ [engine] ──▶ workers
//! ```
//!
//! * [`gateway`] — the [`Gateway`] and [`GatewayBuilder`]: non-blocking
//!   `try_submit_*` with a typed [`Admission`] verdict
//!   (`Admitted | QueueFull | ModelUnknown | RateLimited | …`), a bounded
//!   multi-producer submission ring, and a dispatcher thread that
//!   forwards to [`dp_serve::ServeEngine::try_dispatch`] while keeping
//!   the engine's internal queue under `max_inflight_chunks`. Small
//!   requests already queued for the same model are coalesced into one
//!   engine chunk and demuxed back to their handles (see the
//!   [`gateway`] module docs).
//! * [`gateway::OverloadPolicy`] — who pays for a burst: `Block`
//!   (backpressure the producer), `ShedNewest` (reject the newcomer) or
//!   `ShedOldest` (evict the stalest queued request; its handle resolves
//!   to [`GatewayError::Shed`] instead of hanging).
//! * [`limiter`] — per-model token buckets: one token per **sample**,
//!   shared across every format variant of a logical model.
//! * [`metrics`] — lock-free counters and log₂ histograms
//!   ([`GatewayMetrics`]) with a plain-data [`MetricsSnapshot`] and a
//!   hand-rolled JSON renderer.
//! * [`handle`] — [`GatewayHandle`]: poll/wait/`wait_timeout` with cached
//!   first-wins resolution (double-`wait` is defined), plus cooperative
//!   [`cancel`](GatewayHandle::cancel), covering the request's whole
//!   lifecycle including the shed, expired and cancelled paths.
//!
//! Robustness (this crate + `dp_serve` supervision, see the repo README's
//! "Robustness & fault injection" section):
//!
//! * **Deadlines** — [`gateway::SubmitOptions`] carries a per-request
//!   deadline; the dispatcher lazily expires dead entries
//!   ([`GatewayError::DeadlineExceeded`], tokens refunded) instead of
//!   feeding them to a saturated engine.
//! * **Supervision** — [`GatewayBuilder::watchdog`] respawns wedged
//!   workers (only the stuck request fails);
//!   [`GatewayBuilder::panic_budget`] flips the gateway into a degraded
//!   read-only-metrics mode ([`Admission::Degraded`]) after too many
//!   worker panics.
//! * **Bounded shutdown** — [`GatewayBuilder::drain_deadline`] caps how
//!   long `Drop` drains the backlog; past it, remaining requests resolve
//!   [`GatewayError::Closed`] (`drain_aborted` metric) rather than
//!   hanging the process.
//! * **Fault injection** — building with `--features fault-inject`
//!   compiles the `dp_fault` failure points into the dispatcher and
//!   engine for deterministic chaos testing; without the feature the
//!   hooks are inlined `false`s with zero overhead.
//!
//! Admitted traffic stays **bit-identical** to per-sample
//! [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits)
//! — the gateway reuses the engine's chunked EMAC-reuse datapath.
//!
//! ```no_run
//! use deep_positron::{NumericFormat, QuantizedMlp};
//! use dp_gateway::{Admission, Gateway, OverloadPolicy, RateLimit};
//!
//! # fn trained() -> deep_positron::Mlp { unimplemented!() }
//! # fn format() -> NumericFormat { unimplemented!() }
//! let gw = Gateway::builder()
//!     .queue_capacity(256)
//!     .policy(OverloadPolicy::ShedOldest)
//!     .rate_limit("iris", RateLimit::per_sec(50_000.0))
//!     .build();
//! let key = gw
//!     .registry()
//!     .register("iris", QuantizedMlp::quantize(&trained(), format()))?;
//! match gw.try_submit_forward(&key, vec![vec![0.1, 0.2, 0.3, 0.4]]) {
//!     Admission::Admitted(handle) => {
//!         let bits = handle.wait()?;
//!         # let _ = bits;
//!     }
//!     Admission::QueueFull => { /* shed: back off or drop */ }
//!     other => eprintln!("rejected: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod faults;
pub mod gateway;
pub mod handle;
pub mod limiter;
pub mod metrics;
mod ring;

pub use gateway::{Admission, Gateway, GatewayBuilder, OverloadPolicy, SubmitOptions};
pub use handle::{GatewayError, GatewayHandle, RequestStage};
pub use limiter::RateLimit;
pub use metrics::{GatewayMetrics, HistogramSnapshot, MetricsSnapshot, ModelSnapshot};
// Flight-recorder surface, re-exported so front ends configure tracing
// through the gateway without a direct dp_trace dependency.
pub use dp_trace::{
    Clock, DepthSummary, Recorder, RecorderStats, TerminalKind, Timeline, TraceConfig,
};
