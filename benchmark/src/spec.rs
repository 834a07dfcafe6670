//! The benchmark's vocabulary: workload names, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repository root carries the
//! same tables for the driver; a unit test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// `failed_share` is the seventh figure a user sees; it is 0 at a healthy
/// commit, and a bound that is a share of 0 gates nothing, so it travels
/// in the result line's `attempted` / `failed` / `correct` keys (any
/// failure fails the run) and as the layer metric `run.failed_share`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.002,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics `(name, unit, direction)`, reported by every
/// workload with `--trace 1`; a layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: [(&str, &str, Better); 78] = [
    // dp_emac
    ("emac.macs_per_sample", "count", Better::Lower),
    ("emac.dot_tile_ns_per_sample", "ns", Better::Lower),
    ("emac.dot_tile_ns_per_sample.posit", "ns", Better::Lower),
    ("emac.dot_tile_ns_per_sample.float", "ns", Better::Lower),
    ("emac.dot_tile_ns_per_sample.fixed", "ns", Better::Lower),
    ("emac.macs_per_s", "1/s", Better::Higher),
    ("emac.macs_per_s.posit", "1/s", Better::Higher),
    ("emac.macs_per_s.float", "1/s", Better::Higher),
    ("emac.macs_per_s.fixed", "1/s", Better::Higher),
    ("emac.time_share", "share", Better::Lower),
    // deep-positron
    ("core.quantize_input_ns_per_sample", "ns", Better::Lower),
    ("core.epilogue_ns_per_sample", "ns", Better::Lower),
    ("core.forward_ns_per_sample", "ns", Better::Lower),
    ("core.forward_ns_per_sample.posit", "ns", Better::Lower),
    ("core.forward_ns_per_sample.float", "ns", Better::Lower),
    ("core.forward_ns_per_sample.fixed", "ns", Better::Lower),
    ("core.self_ns_per_sample", "ns", Better::Lower),
    ("core.self_ns_per_sample.posit", "ns", Better::Lower),
    ("core.self_ns_per_sample.float", "ns", Better::Lower),
    ("core.self_ns_per_sample.fixed", "ns", Better::Lower),
    ("core.self_share", "share", Better::Lower),
    ("core.replay_vs_forward", "ratio", Better::Lower),
    ("core.replay_children_share", "share", Better::Higher),
    ("core.quantize_model_ms", "ms", Better::Lower),
    ("core.make_emacs_ms", "ms", Better::Lower),
    ("core.train_ms", "ms", Better::Lower),
    ("core.batch_vs_single_mismatches", "count", Better::Lower),
    // dp_posit / dp_minifloat / dp_fixed / dp_datasets
    ("posit.table_build_ms", "ms", Better::Lower),
    ("minifloat.table_build_ms", "ms", Better::Lower),
    ("fixed.table_build_ms", "ms", Better::Lower),
    ("datasets.load_ms", "ms", Better::Lower),
    // dp_serve
    ("serve.request_ns", "ns", Better::Lower),
    ("serve.added_ns_per_request", "ns", Better::Lower),
    ("serve.jobs_run", "count", Better::Lower),
    ("serve.chunks_per_request", "count", Better::Lower),
    ("serve.worker_busy_share", "share", Better::Higher),
    // dp_gateway
    ("gateway.request_ns", "ns", Better::Lower),
    ("gateway.added_ns_per_request", "ns", Better::Lower),
    ("gateway.reject_ns", "ns", Better::Lower),
    ("gateway.queue_wait_p50_us", "us", Better::Lower),
    ("gateway.queue_wait_p99_us", "us", Better::Lower),
    ("gateway.service_p50_us", "us", Better::Lower),
    ("gateway.queue_depth_peak", "count", Better::Lower),
    ("gateway.admitted", "count", Better::Higher),
    ("gateway.shed", "count", Better::Lower),
    ("gateway.completed", "count", Better::Higher),
    // dp_trace
    ("trace.stage_admit_us", "us", Better::Lower),
    ("trace.stage_enqueue_us", "us", Better::Lower),
    ("trace.stage_ring_wait_us", "us", Better::Lower),
    ("trace.stage_engine_us", "us", Better::Lower),
    ("trace.stage_resolve_us", "us", Better::Lower),
    ("trace.published", "count", Better::Higher),
    ("trace.dropped_contended", "count", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
    // dp_net
    ("net.request_ns", "ns", Better::Lower),
    ("net.added_ns_per_request", "ns", Better::Lower),
    ("net.encode_request_ns", "ns", Better::Lower),
    ("net.decode_request_ns", "ns", Better::Lower),
    ("net.encode_response_ns", "ns", Better::Lower),
    ("net.decode_response_ns", "ns", Better::Lower),
    ("net.request_bytes", "bytes", Better::Lower),
    ("net.response_bytes", "bytes", Better::Lower),
    ("net.frames_read", "count", Better::Higher),
    ("net.frames_written", "count", Better::Higher),
    ("net.protocol_errors", "count", Better::Lower),
    ("net.wait_share", "share", Better::Lower),
    // dp_hw + core::streaming
    ("hw.stream_cycles_per_sample", "cycles", Better::Lower),
    // the benchmark itself
    ("loadgen.cpu_share", "share", Better::Lower),
    ("loadgen.oracle_ms", "ms", Better::Lower),
    ("loadgen.stream_requests", "count", Better::Higher),
    ("run.mean_samples_per_s", "1/s", Better::Higher),
    ("run.whole_p99_us", "us", Better::Lower),
    ("run.slice_spread", "share", Better::Lower),
    ("run.slices", "count", Better::Higher),
    ("run.failed_share", "share", Better::Lower),
    ("run.latency_buffer_full", "count", Better::Lower),
    ("env.pinned", "count", Better::Higher),
    ("env.steal_share", "share", Better::Lower),
];

/// One workload: name, why it exists, and its fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Mushroom 117-24-2 (`true`) or Iris 4-16-3 (`false`).
    pub wide_model: bool,
    /// The 16-bit trio instead of the 8-bit one.
    pub sixteen_bit: bool,
    /// Samples per operation: batch size offline, request size networked.
    pub samples_per_op: usize,
    /// Through loopback TCP instead of direct `forward_batch_bits_with`.
    pub networked: bool,
    /// Networked only: `classify` (`true`) or `forward` responses.
    pub classify: bool,
}

/// The workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "offline_wide8",
        why: "Mushroom 117-24-2, 8-bit trio, batches of 64: ~90% of time in dp_emac product-table kernels; serve/gateway/net idle",
        wide_model: true,
        sixteen_bit: false,
        samples_per_op: 64,
        networked: false,
        classify: false,
    },
    Workload {
        name: "offline_wide16",
        why: "same model and batching on the 16-bit trio: fused/gather kernels, tables beyond L1, wider accumulators",
        wide_model: true,
        sixteen_bit: true,
        samples_per_op: 64,
        networked: false,
        classify: false,
    },
    Workload {
        name: "offline_narrow8",
        why: "Iris 4-16-3, 8-bit trio, batches of 16: most of a forward pass is deep-positron per-call work, not MACs",
        wide_model: false,
        sixteen_bit: false,
        samples_per_op: 16,
        networked: false,
        classify: false,
    },
    Workload {
        name: "net_small",
        why: "loopback TCP, 2 connections x 16 pipelined 1-sample classify requests: per-request cost of net+gateway+serve",
        wide_model: false,
        sixteen_bit: false,
        samples_per_op: 1,
        networked: true,
        classify: true,
    },
    Workload {
        name: "net_large",
        why: "same server, 32-sample forward requests: per-sample cost through the stack, chunking and the response codec",
        wide_model: false,
        sixteen_bit: false,
        samples_per_op: 32,
        networked: true,
        classify: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
