//! Frame-lifecycle latency spans and the log-bucketed latency
//! histogram.
//!
//! [`LatencySink`] correlates the frame-lifecycle events
//! ([`SimEvent::FrameQueued`] → [`SimEvent::FrameTx`]\* →
//! [`SimEvent::FrameAcked`] / [`SimEvent::FrameDropped`]) by
//! `(node, dst, seq)` into per-frame spans and folds them into four
//! per-node [`LatencyHistogram`]s:
//!
//! * **queueing** — enqueue → first transmission attempt,
//! * **access** — first attempt → start of the final attempt,
//! * **service** — start of the final attempt → ACK or drop,
//! * **e2e** — enqueue → ACK or drop (includes frames that never made
//!   it on the air, e.g. an RTS storm exhausting the retry limit).
//!
//! The histogram is HDR-style: each power of two is split into
//! `2^SUB_BITS = 32` equal sub-buckets, bounding the relative
//! quantization error of any reported quantile by
//! [`LatencyHistogram::MAX_RELATIVE_ERROR`] (1/32 ≈ 3.1%) while
//! covering 0 ns through `u64::MAX` ns (~584 years) with 1920 possible
//! buckets. Storage is sparse: ascending `(bucket, count)` pairs for
//! the buckets some sample hit, so it grows with the distinct buckets
//! hit, not with the largest sample (a millisecond latency sits near
//! bucket 700, and `access` records many 0 ns samples in bucket 0).
//! Counts are exact, so [`LatencyHistogram::quantile`] walks true
//! sample ranks, and [`LatencyHistogram::merge`] is plain bucket-wise
//! addition — commutative and associative, which is what makes
//! per-node → aggregate (and later per-shard → global) merging
//! order-independent and deterministic.
//!
//! Like every observer, the sink is strictly read-only: the lifecycle
//! events it consumes are only constructed when a sink is attached, and
//! `tests/observability.rs` enforces that a run with the sink is
//! bit-identical to one without.

use std::collections::BTreeMap;
use std::mem;

use comap_mac::time::SimTime;

use crate::frame::NodeId;
use crate::json::Json;
use crate::metrics::{Metrics, MetricsSink};
use crate::observe::{Observer, SimEvent};
use crate::stats::SimReport;

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// equal buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Bucket index of a nanosecond value. Values below [`SUB_COUNT`] get
/// exact unit buckets; above, bucket `i` of octave `o` spans
/// `[(32 + i) << (o-1), (32 + i + 1) << (o-1))`.
fn bucket_index(v: u64) -> u32 {
    if v < SUB_COUNT {
        v as u32
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        ((shift + 1) << SUB_BITS) + ((v >> shift) - SUB_COUNT) as u32
    }
}

/// Inclusive lower edge of a bucket.
fn bucket_lower(idx: u32) -> u64 {
    let idx = u64::from(idx);
    if idx < SUB_COUNT {
        idx
    } else {
        let octave = idx >> SUB_BITS;
        let sub = idx & (SUB_COUNT - 1);
        (SUB_COUNT + sub) << (octave - 1)
    }
}

/// Width of a bucket (1 below [`SUB_COUNT`], doubling per octave).
fn bucket_width(idx: u32) -> u64 {
    if u64::from(idx) < SUB_COUNT {
        1
    } else {
        1u64 << ((idx >> SUB_BITS) - 1)
    }
}

/// A log-bucketed histogram over `u64` nanosecond samples.
///
/// Counts per bucket are exact; only the reported *value* of a
/// quantile is quantized, to the midpoint of its bucket (clamped into
/// the exactly-tracked `[min, max]` range), with relative error
/// bounded by [`Self::MAX_RELATIVE_ERROR`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// `(bucket, count)` for every bucket hit, ascending by bucket;
    /// no count is 0, so equal histograms have equal pairs.
    buckets: Vec<(u32, u64)>,
    count: u64,
    /// Saturating sum of all samples, for the mean.
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Bound on `|quantile(p) − exact| / exact`: one part in
    /// `2^SUB_BITS`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB_COUNT as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 = self.buckets[pos].1.saturating_add(1),
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Exact largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Mean of all samples (saturating sum), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// The `p`-quantile (`p` clamped into `[0, 1]`) by exact sample
    /// rank: the bucket holding the `⌈p·count⌉`-th smallest sample,
    /// reported as that bucket's midpoint clamped into `[min, max]`.
    /// `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count) - 1;
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum > rank {
                let mid = bucket_lower(idx) + bucket_width(idx) / 2;
                return Some(mid.clamp(self.min_ns, self.max_ns));
            }
        }
        // Unreachable while counts stay consistent with count; be
        // lenient rather than panicking in library code.
        Some(self.max_ns)
    }

    /// Adds every sample of `other` into `self` — exact bucket-wise
    /// addition, so `merge` is equivalent to having recorded the
    /// concatenated sample streams (and is order-independent).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        // One pass over both ascending pair lists.
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let mut theirs = other.buckets.iter().peekable();
        for &(idx, c) in &self.buckets {
            while let Some(&pair) = theirs.next_if(|&&(j, _)| j < idx) {
                merged.push(pair);
            }
            let same = theirs.next_if(|&&(j, _)| j == idx).map_or(0, |&(_, d)| d);
            merged.push((idx, c.saturating_add(same)));
        }
        merged.extend(theirs);
        self.buckets = merged;
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Serializes as an object with a sparse `buckets` array of
    /// `[index, count]` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .map(|&(i, c)| Json::Arr(vec![Json::Uint(u64::from(i)), Json::Uint(c)]))
            .collect();
        let mut fields = vec![
            ("buckets", Json::Arr(buckets)),
            ("count", Json::Uint(self.count)),
            ("sum_ns", Json::Uint(self.sum_ns)),
        ];
        if self.count > 0 {
            fields.push(("min_ns", Json::Uint(self.min_ns)));
            fields.push(("max_ns", Json::Uint(self.max_ns)));
        }
        Json::obj(fields)
    }
}

/// Per-node latency aggregates over finalized frame spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeLatency {
    /// Enqueue → ACK-or-drop, every finalized frame.
    pub e2e: LatencyHistogram,
    /// Enqueue → first transmission attempt.
    pub queueing: LatencyHistogram,
    /// First attempt → start of the final attempt (0 when one try
    /// sufficed).
    pub access: LatencyHistogram,
    /// Start of the final attempt → ACK or drop.
    pub service: LatencyHistogram,
    /// Frames that ended in an ACK.
    pub delivered: u64,
    /// Frames abandoned at the retry limit.
    pub dropped: u64,
    /// Total transmission attempts observed ([`SimEvent::FrameTx`]s).
    pub tx_attempts: u64,
    /// Spans still open when the run ended.
    pub incomplete: u64,
}

impl NodeLatency {
    /// Folds `other` into `self` (exact, order-independent).
    pub fn merge(&mut self, other: &NodeLatency) {
        self.e2e.merge(&other.e2e);
        self.queueing.merge(&other.queueing);
        self.access.merge(&other.access);
        self.service.merge(&other.service);
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.tx_attempts += other.tx_attempts;
        self.incomplete += other.incomplete;
    }

    /// Serializes `node`'s aggregates, its id first.
    fn to_json(&self, node: NodeId) -> Json {
        Json::obj(vec![
            ("node", Json::Uint(node.0 as u64)),
            ("e2e", self.e2e.to_json()),
            ("queueing", self.queueing.to_json()),
            ("access", self.access.to_json()),
            ("service", self.service.to_json()),
            ("delivered", Json::Uint(self.delivered)),
            ("dropped", Json::Uint(self.dropped)),
            ("tx_attempts", Json::Uint(self.tx_attempts)),
            ("incomplete", Json::Uint(self.incomplete)),
        ])
    }
}

/// The latency section of [`Metrics`], produced by [`LatencySink`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Latency {
    /// Aggregates per sender.
    pub nodes: BTreeMap<NodeId, NodeLatency>,
}

impl Latency {
    /// Merges every node's aggregates into one (ascending `NodeId`
    /// order; the result is order-independent because
    /// [`NodeLatency::merge`] is exact bucket-wise addition).
    pub fn aggregate(&self) -> NodeLatency {
        let mut all = NodeLatency::default();
        for m in self.nodes.values() {
            all.merge(m);
        }
        all
    }

    /// Serializes the section as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "nodes",
            Json::Arr(self.nodes.iter().map(|(&n, m)| m.to_json(n)).collect()),
        )])
    }
}

/// One in-flight frame span.
#[derive(Debug, Clone, Copy)]
struct Span {
    enqueued: SimTime,
    first_tx: Option<SimTime>,
    last_tx: Option<SimTime>,
}

/// Observer that correlates frame-lifecycle events into per-frame
/// spans and installs the [`Latency`] section into
/// [`SimReport::metrics`] when the run finishes (merging with, never
/// clobbering, a section another sink installed).
#[derive(Debug, Default)]
pub struct LatencySink {
    spans: BTreeMap<(NodeId, NodeId, u64), Span>,
    latency: Latency,
}

impl LatencySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn finalize(&mut self, now: SimTime, node: NodeId, dst: NodeId, seq: u64, delivered: bool) {
        let Some(span) = self.spans.remove(&(node, dst, seq)) else {
            return;
        };
        let m = self.latency.nodes.entry(node).or_default();
        m.e2e
            .record(now.saturating_duration_since(span.enqueued).as_nanos());
        if let (Some(first), Some(last)) = (span.first_tx, span.last_tx) {
            m.queueing
                .record(first.saturating_duration_since(span.enqueued).as_nanos());
            m.access
                .record(last.saturating_duration_since(first).as_nanos());
            m.service
                .record(now.saturating_duration_since(last).as_nanos());
        }
        if delivered {
            m.delivered += 1;
        } else {
            m.dropped += 1;
        }
    }
}

impl Observer for LatencySink {
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "deliberate projection: the latency sink tracks only the four frame-lifecycle events; everything else is out of scope by design"
    )]
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::FrameQueued { node, dst, seq } => {
                let displaced = self.spans.insert(
                    (node, dst, seq),
                    Span {
                        enqueued: now,
                        first_tx: None,
                        last_tx: None,
                    },
                );
                // A reused (node, dst, seq) key means the prior span
                // never finalized; account it rather than lose it.
                if displaced.is_some() {
                    self.latency.nodes.entry(node).or_default().incomplete += 1;
                }
            }
            SimEvent::FrameTx { node, dst, seq, .. } => {
                self.latency.nodes.entry(node).or_default().tx_attempts += 1;
                if let Some(span) = self.spans.get_mut(&(node, dst, seq)) {
                    span.first_tx.get_or_insert(now);
                    span.last_tx = Some(now);
                }
            }
            SimEvent::FrameAcked { node, dst, seq } => {
                self.finalize(now, node, dst, seq, true);
            }
            SimEvent::FrameDropped { node, dst, seq } => {
                self.finalize(now, node, dst, seq, false);
            }
            _ => {}
        }
    }

    fn finish(&mut self, report: &mut SimReport) {
        for ((node, _, _), _) in mem::take(&mut self.spans) {
            self.latency.nodes.entry(node).or_default().incomplete += 1;
        }
        let section = mem::take(&mut self.latency);
        match &mut report.metrics {
            Some(m) => m.latency = Some(section),
            None => {
                report.metrics = Some(Metrics {
                    bucket_ns: MetricsSink::DEFAULT_BUCKET_NS,
                    latency: Some(section),
                    ..Metrics::default()
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "contiguous at {v}");
            assert!(bucket_lower(idx) <= v, "lower bound at {v}");
            assert!(
                v < bucket_lower(idx) + bucket_width(idx),
                "upper bound at {v}"
            );
            prev = idx;
        }
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert_eq!(bucket_lower(idx), v, "powers of two start buckets");
        }
        let top = bucket_index(u64::MAX);
        assert!(bucket_lower(top) <= u64::MAX - bucket_width(top) + 1);
        assert!(top < 1920);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
    }

    #[test]
    fn quantiles_stay_within_the_relative_error_bound() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 12).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact = sorted[rank];
            let q = h.quantile(p).unwrap();
            let err = (q as f64 - exact as f64).abs();
            assert!(
                err <= exact as f64 * LatencyHistogram::MAX_RELATIVE_ERROR,
                "p={p}: q={q} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [3u64, 77, 1_000_000, 5] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 123_456_789_012, 77] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    /// Writes `v` as compact text and parses it back; the text must be
    /// a lossless image of the tree.
    fn reparse(v: &Json) -> Json {
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(&back, v);
        back
    }

    fn uint(v: &Json, key: &str) -> Option<u64> {
        v.get(key).and_then(Json::as_u64)
    }

    #[test]
    fn histogram_round_trips_through_json() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 42, 9_999, 60_000_000_000] {
            h.record(v);
        }
        let back = reparse(&h.to_json());
        assert_eq!(uint(&back, "count"), Some(4));
        assert_eq!(uint(&back, "sum_ns"), Some(60_000_010_041));
        assert_eq!(uint(&back, "min_ns"), Some(0));
        assert_eq!(uint(&back, "max_ns"), Some(60_000_000_000));
        // The `[index, count]` pairs are exactly the stored buckets.
        let pairs: Vec<(u32, u64)> = back
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|pair| {
                let [idx, c] = pair.as_arr().unwrap() else {
                    panic!("bucket is not a pair: {pair:?}")
                };
                (idx.as_u64().unwrap() as u32, c.as_u64().unwrap())
            })
            .collect();
        assert_eq!(pairs, h.buckets);

        let back = reparse(&LatencyHistogram::new().to_json());
        assert_eq!(uint(&back, "count"), Some(0));
        assert_eq!(back.get("buckets").and_then(Json::as_arr), Some(&[][..]));
        assert!(back.get("min_ns").is_none() && back.get("max_ns").is_none());
    }

    fn queued(node: usize, seq: u64) -> SimEvent {
        SimEvent::FrameQueued {
            node: NodeId(node),
            dst: NodeId(9),
            seq,
        }
    }

    fn tx(node: usize, seq: u64, attempt: u32) -> SimEvent {
        SimEvent::FrameTx {
            node: NodeId(node),
            dst: NodeId(9),
            seq,
            attempt,
        }
    }

    #[test]
    fn sink_builds_the_four_spans() {
        let mut sink = LatencySink::new();
        let t = SimTime::from_nanos;
        sink.on_event(t(100), &queued(0, 0));
        sink.on_event(t(150), &tx(0, 0, 0));
        sink.on_event(t(400), &tx(0, 0, 1));
        sink.on_event(
            t(500),
            &SimEvent::FrameAcked {
                node: NodeId(0),
                dst: NodeId(9),
                seq: 0,
            },
        );
        // A second frame that is dropped before ever transmitting.
        sink.on_event(t(600), &queued(0, 1));
        sink.on_event(
            t(900),
            &SimEvent::FrameDropped {
                node: NodeId(0),
                dst: NodeId(9),
                seq: 1,
            },
        );
        // And one left open at the end of the run.
        sink.on_event(t(950), &queued(0, 2));
        let mut report = SimReport::default();
        sink.finish(&mut report);
        let latency = report.metrics.unwrap().latency.unwrap();
        let m = &latency.nodes[&NodeId(0)];
        assert_eq!(m.delivered, 1);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.tx_attempts, 2);
        assert_eq!(m.incomplete, 1);
        assert_eq!(m.e2e.count(), 2);
        assert_eq!(m.e2e.min(), Some(300));
        assert_eq!(m.e2e.max(), Some(400));
        // queueing/access/service only exist for the transmitted frame.
        assert_eq!(m.queueing.count(), 1);
        assert_eq!(m.queueing.min(), Some(50));
        assert_eq!(m.access.min(), Some(250));
        assert_eq!(m.service.min(), Some(100));
    }

    #[test]
    fn aggregate_merges_across_nodes() {
        let mut sink = LatencySink::new();
        let t = SimTime::from_nanos;
        for node in 0..3usize {
            sink.on_event(t(0), &queued(node, 0));
            sink.on_event(t(10), &tx(node, 0, 0));
            sink.on_event(
                t(20 + node as u64),
                &SimEvent::FrameAcked {
                    node: NodeId(node),
                    dst: NodeId(9),
                    seq: 0,
                },
            );
        }
        let mut report = SimReport::default();
        sink.finish(&mut report);
        let latency = report.metrics.unwrap().latency.unwrap();
        let all = latency.aggregate();
        assert_eq!(all.delivered, 3);
        assert_eq!(all.e2e.count(), 3);
        assert_eq!(all.e2e.min(), Some(20));
        assert_eq!(all.e2e.max(), Some(22));
    }

    #[test]
    fn section_round_trips_through_json() {
        let mut sink = LatencySink::new();
        let t = SimTime::from_nanos;
        sink.on_event(t(5), &queued(1, 7));
        sink.on_event(t(50), &tx(1, 7, 0));
        sink.on_event(
            t(90),
            &SimEvent::FrameAcked {
                node: NodeId(1),
                dst: NodeId(9),
                seq: 7,
            },
        );
        let mut report = SimReport::default();
        sink.finish(&mut report);
        let latency = report.metrics.unwrap().latency.unwrap();
        let back = reparse(&latency.to_json());
        let nodes = back.get("nodes").and_then(Json::as_arr).unwrap();
        let [node] = nodes else {
            panic!("expected one node, got {nodes:?}")
        };
        assert_eq!(uint(node, "node"), Some(1));
        for (key, value) in [
            ("delivered", 1),
            ("dropped", 0),
            ("tx_attempts", 1),
            ("incomplete", 0),
        ] {
            assert_eq!(uint(node, key), Some(value), "{key}");
        }
        for (span, sum_ns) in [
            ("e2e", 85),
            ("queueing", 45),
            ("access", 0),
            ("service", 40),
        ] {
            let h = node.get(span).unwrap();
            assert_eq!(uint(h, "count"), Some(1), "{span}");
            assert_eq!(uint(h, "sum_ns"), Some(sum_ns), "{span}");
        }
    }
}
