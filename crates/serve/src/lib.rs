//! # dp-serve — the persistent Deep Positron serving engine
//!
//! The paper pitches posit EMACs as a low-precision *deployment* story;
//! this crate is the deployment half: a long-lived serving engine in front
//! of the `deep-positron` quantized batch datapath, built for sustained
//! request streams rather than one-shot batch calls.
//!
//! * [`pool`] — a fixed pool of long-lived worker threads, one LIFO slot
//!   each, with work stealing, one way in ([`WorkerPool::spawn_batch`]),
//!   panic-isolated jobs and graceful draining shutdown.
//! * [`handle`] — the serving stack's one completion cell
//!   ([`Completion`]: first resolution wins and is cached) and the
//!   [`BatchHandle`] built on it: submission returns immediately; results
//!   are polled or awaited; a panicking chunk poisons only its own request.
//! * [`registry`] — a [`ModelRegistry`] of named
//!   [`QuantizedMlp`](deep_positron::QuantizedMlp)s keyed
//!   by name + format descriptor, so one engine serves posit, minifloat
//!   and fixed-point models side by side.
//! * [`engine`] — the [`ServeEngine`] admission layer: screens a batch
//!   against its model, splits it into chunk jobs with per-chunk EMAC
//!   reuse, reassembles their outcomes and stays **bit-identical** to
//!   [`QuantizedMlp::forward_bits`](deep_positron::QuantizedMlp::forward_bits).
//!   Optional supervision hardens it: a stall **watchdog** respawns
//!   wedged workers (failing only the stuck job, [`JobError::Stalled`]),
//!   a **panic budget** flips admission to a degraded read-only mode
//!   ([`ServeError::Degraded`]), and [`ChunkSink::cancelled`] lets a sink
//!   stop an abandoned batch at chunk granularity. Every chunk is evaluated
//!   by `QuantizedMlp::forward_batch` / `infer_batch` — the one batch
//!   evaluator, which runs on whatever thread calls it; this crate is the
//!   only thing that spreads work over threads, and `DEEP_POSITRON_THREADS`
//!   sizes its pool ([`EngineConfig::default`]). Each dispatch's result
//!   reaches its [`ChunkSink`] in one call.
//! * [`faults`] — the compile-time seam for the `dp_fault` failure points
//!   (feature `fault-inject`; inert inlined stubs otherwise); `check` is
//!   its `check-yield` twin. `dp_gateway` reaches both through this crate.
//!
//! ```no_run
//! use deep_positron::{NumericFormat, QuantizedMlp};
//! use dp_posit::PositFormat;
//! use dp_serve::ServeEngine;
//!
//! # fn trained() -> deep_positron::Mlp { unimplemented!() }
//! let engine = ServeEngine::with_defaults();
//! let format = NumericFormat::Posit(PositFormat::new(8, 0)?);
//! let key = engine
//!     .registry()
//!     .register("iris", QuantizedMlp::quantize(&trained(), format))?;
//! let pending = engine.submit_classify(&key, vec![vec![0.1, 0.2, 0.3, 0.4]])?;
//! let classes = pending.wait()?;
//! # let _ = classes;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#[doc(hidden)]
pub mod check;
pub mod engine;
pub mod faults;
pub mod handle;
pub mod pool;
pub mod registry;

pub use engine::{ChunkEval, ChunkSink, EngineConfig, ServeEngine, ServeError};
pub use handle::{BatchHandle, Completion, JobError};
pub use pool::{Job, PanicBudget, PoolStats, WatchdogConfig, WorkerPool};
pub use registry::{ModelKey, ModelRegistry, RegistryError};
