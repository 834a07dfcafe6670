//! In-memory spans recorded by the benchmark around its calls into each
//! layer: `(name, start, end, parent, request id)` in a preallocated
//! buffer, written out once when the traced pass ends. Per-name totals
//! cover every span, including those the full buffer no longer stores.

use crate::json::Json;
use std::time::Instant;

/// Spans one span file stores; the buffers feeding it split this between
/// them and only count once they are full.
pub const SPAN_CAPACITY: usize = 20_000;

/// The span vocabulary: `(name, parent kind)`. A span's parent is always a
/// span of the named kind belonging to the same request.
pub const KINDS: [(&str, Option<usize>); 10] = [
    ("core.forward", None),
    ("replay.forward", None),
    ("core.quantize_input", Some(REPLAY)),
    ("emac.dot_tile", Some(REPLAY)),
    ("core.epilogue", Some(REPLAY)),
    ("loadgen.request", None),
    ("loadgen.encode", Some(REQUEST)),
    ("net.send", Some(REQUEST)),
    ("net.wait", Some(REQUEST)),
    ("net.decode", Some(REQUEST)),
];

/// The real `forward_batch_bits_with` call.
pub const FORWARD: usize = 0;
/// The benchmark's outside-in replay of the same forward pass.
pub const REPLAY: usize = 1;
/// Input quantisation inside the replay.
pub const QUANTIZE: usize = 2;
/// All `dot_tile` calls of one layer inside the replay.
pub const DOT_TILE: usize = 3;
/// Column gather, ReLU and transposition of one layer inside the replay.
pub const EPILOGUE: usize = 4;
/// One networked request, send start to verified response.
pub const REQUEST: usize = 5;
/// Encoding the request frame.
pub const ENCODE: usize = 6;
/// The socket write.
pub const SEND: usize = 7;
/// Blocked in the socket read for the oldest outstanding request.
pub const WAIT: usize = 8;
/// Decoding and verifying the response.
pub const DECODE: usize = 9;

/// One recorded span; times are nanoseconds since the buffer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Request (or batch) the span belongs to; a child's parent is the
    /// span of the parent kind with the same `req`.
    pub req: u64,
}

/// A preallocated span buffer with running per-kind totals.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    count: [u64; KINDS.len()],
    sum_ns: [u64; KINDS.len()],
}

impl SpanBuf {
    /// An empty buffer that stores `capacity` spans and whose clock
    /// starts at `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            capacity,
            count: [0; KINDS.len()],
            sum_ns: [0; KINDS.len()],
        }
    }

    /// Records one finished span.
    pub fn record(&mut self, kind: usize, start: Instant, end: Instant, req: u64) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.count[kind] += 1;
        self.sum_ns[kind] += end_ns - start_ns;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                req,
            });
        }
    }

    /// Total nanoseconds spent in spans of `kind`.
    pub fn total_ns(&self, kind: usize) -> u64 {
        self.sum_ns[kind]
    }

    /// Spans of `kind` recorded.
    pub fn count(&self, kind: usize) -> u64 {
        self.count[kind]
    }

    /// Self time of `kind`: its total minus what its child kinds cover.
    pub fn self_ns(&self, kind: usize) -> u64 {
        let children: u64 = KINDS
            .iter()
            .enumerate()
            .filter(|(_, (_, parent))| *parent == Some(kind))
            .map(|(k, _)| self.sum_ns[k])
            .sum();
        self.sum_ns[kind].saturating_sub(children)
    }

    /// Folds another thread's buffer into this one (stored spans up to the
    /// capacity, totals in full).
    pub fn merge(&mut self, other: &SpanBuf) {
        for k in 0..KINDS.len() {
            self.count[k] += other.count[k];
            self.sum_ns[k] += other.sum_ns[k];
        }
        let room = SPAN_CAPACITY - self.spans.len();
        self.spans.extend(other.spans.iter().take(room).copied());
    }

    /// The span file: stored spans plus the per-kind totals and self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let mut doc = Json::obj();
        doc.set("workload", Json::Str(workload.into()));
        doc.set("seed", Json::Num(seed as f64));
        doc.set("clock", Json::Str("ns since the traced pass began".into()));
        let recorded: u64 = self.count.iter().sum();
        doc.set("spans_recorded", Json::Num(recorded as f64));
        doc.set("spans_stored", Json::Num(self.spans.len() as f64));
        let totals = KINDS
            .iter()
            .enumerate()
            .filter(|(k, _)| self.count[*k] > 0)
            .map(|(k, (name, parent))| {
                let mut row = Json::obj();
                row.set("name", Json::Str((*name).into()));
                row.set(
                    "parent",
                    parent.map_or(Json::Null, |p| Json::Str(KINDS[p].0.into())),
                );
                row.set("count", Json::Num(self.count[k] as f64));
                row.set("total_ns", Json::Num(self.sum_ns[k] as f64));
                row.set("self_ns", Json::Num(self.self_ns(k) as f64));
                row
            })
            .collect();
        doc.set("totals", Json::Arr(totals));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut row = Json::obj();
                row.set("name", Json::Str(KINDS[s.kind].0.into()));
                row.set("start_ns", Json::Num(s.start_ns as f64));
                row.set("end_ns", Json::Num(s.end_ns as f64));
                row.set(
                    "parent",
                    KINDS[s.kind]
                        .1
                        .map_or(Json::Null, |p| Json::Str(KINDS[p].0.into())),
                );
                row.set("req", Json::Num(s.req as f64));
                row
            })
            .collect();
        doc.set("spans", Json::Arr(spans));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_parent_minus_its_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut buf = SpanBuf::new(epoch, 4);
        buf.record(QUANTIZE, at(0), at(10), 1);
        buf.record(DOT_TILE, at(10), at(70), 1);
        buf.record(EPILOGUE, at(70), at(95), 1);
        buf.record(REPLAY, at(0), at(100), 1);
        assert_eq!(buf.total_ns(REPLAY), 100_000);
        assert_eq!(buf.self_ns(REPLAY), 5_000);
        assert_eq!(buf.self_ns(DOT_TILE), 60_000);
        let mut other = SpanBuf::new(epoch, 4);
        other.record(DOT_TILE, at(0), at(1), 2);
        buf.merge(&other);
        assert_eq!(buf.count(DOT_TILE), 2);
        let doc = buf.to_json("w", 3);
        assert_eq!(doc.get("spans").unwrap().items().len(), 5);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn every_child_kind_names_a_root_kind() {
        for (_, parent) in KINDS {
            if let Some(p) = parent {
                assert!(KINDS[p].1.is_none());
            }
        }
    }
}
