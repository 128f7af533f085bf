//! In-memory metrics aggregation: per-node time series and histograms
//! built from the instrumentation event stream.
//!
//! [`MetricsSink`] folds [`SimEvent`](crate::observe::SimEvent)s into a
//! [`Metrics`] section that it installs into
//! [`SimReport::metrics`](crate::stats::SimReport) when the run
//! finishes. Everything is stored in exact integer grains (nanoseconds
//! of busy airtime per bucket, histogram counts), so sections compare
//! with `==`. The section is write-only: [`Metrics::to_json`] is its one
//! codec, and `stats.rs` pins the bytes it writes.

use std::collections::BTreeMap;
use std::mem;

use comap_mac::time::SimTime;

use crate::frame::NodeId;
use crate::json::{Json, SCHEMA_VERSION};
use crate::latency::Latency;
use crate::observe::{Observer, SimEvent};
use crate::stats::SimReport;

/// Highest backoff escalation stage tracked individually; draws beyond
/// it are folded into the last bin.
pub const MAX_BACKOFF_STAGE: usize = 15;

/// A fixed-bin histogram over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Width of each bin.
    pub bin_width: f64,
    /// Count per bin.
    pub counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the last bin's upper edge.
    pub overflow: u64,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
    /// Exact smallest sample, `None` when empty.
    pub min: Option<f64>,
    /// Exact largest sample, `None` when empty.
    pub max: Option<f64>,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins of `bin_width`
    /// starting at `lo`.
    pub fn new(lo: f64, bin_width: f64, bins: usize) -> Self {
        Histogram {
            lo,
            bin_width,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
        if sample < self.lo {
            self.underflow += 1;
            return;
        }
        let bin = ((sample - self.lo) / self.bin_width) as usize;
        match self.counts.get_mut(bin) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    /// Mean of all recorded samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("lo", Json::Num(self.lo)),
            ("bin_width", Json::Num(self.bin_width)),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::Uint(c)).collect()),
            ),
            ("underflow", Json::Uint(self.underflow)),
            ("overflow", Json::Uint(self.overflow)),
            ("count", Json::Uint(self.count)),
            ("sum", Json::Num(self.sum)),
        ];
        if let Some(min) = self.min {
            fields.push(("min", Json::Num(min)));
        }
        if let Some(max) = self.max {
            fields.push(("max", Json::Num(max)));
        }
        Json::obj(fields)
    }
}

/// Per-node aggregates built from the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// Nanoseconds this node spent transmitting, per time bucket
    /// (bucket width is [`Metrics::bucket_ns`]).
    pub airtime_busy_ns: Vec<u64>,
    /// Highest queue depth observed.
    pub queue_depth_peak: u32,
    /// Sum of sampled queue depths (for the mean).
    pub queue_depth_sum: u64,
    /// Number of queue-depth samples.
    pub queue_depth_samples: u64,
    /// Backoff draws per escalation stage (last bin collects
    /// ≥ [`MAX_BACKOFF_STAGE`]).
    pub backoff_stage: Vec<u64>,
    /// SINR of successful receptions at this node, in dB.
    pub sinr: Histogram,
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics {
            airtime_busy_ns: Vec::new(),
            queue_depth_peak: 0,
            queue_depth_sum: 0,
            queue_depth_samples: 0,
            backoff_stage: vec![0; MAX_BACKOFF_STAGE + 1],
            // 1 dB bins over −10..40 dB covers noise-limited through
            // interference-free receptions.
            sinr: Histogram::new(-10.0, 1.0, 50),
        }
    }
}

impl NodeMetrics {
    /// Mean sampled queue depth, or `None` when never sampled.
    pub fn mean_queue_depth(&self) -> Option<f64> {
        (self.queue_depth_samples > 0)
            .then(|| self.queue_depth_sum as f64 / self.queue_depth_samples as f64)
    }

    /// Serializes `node`'s aggregates, its id first.
    fn to_json(&self, node: NodeId) -> Json {
        Json::obj(vec![
            ("node", Json::Uint(node.0 as u64)),
            (
                "airtime_busy_ns",
                Json::Arr(
                    self.airtime_busy_ns
                        .iter()
                        .map(|&b| Json::Uint(b))
                        .collect(),
                ),
            ),
            (
                "queue_depth_peak",
                Json::Uint(u64::from(self.queue_depth_peak)),
            ),
            ("queue_depth_sum", Json::Uint(self.queue_depth_sum)),
            ("queue_depth_samples", Json::Uint(self.queue_depth_samples)),
            (
                "backoff_stage",
                Json::Arr(self.backoff_stage.iter().map(|&c| Json::Uint(c)).collect()),
            ),
            ("sinr", self.sinr.to_json()),
        ])
    }
}

/// The metrics section of a [`SimReport`], produced by [`MetricsSink`]
/// (and extended with a latency section by
/// [`LatencySink`](crate::latency::LatencySink)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Width of each airtime bucket, in nanoseconds.
    pub bucket_ns: u64,
    /// Aggregates per node.
    pub nodes: BTreeMap<NodeId, NodeMetrics>,
    /// Frame-lifecycle latency spans, when a
    /// [`LatencySink`](crate::latency::LatencySink) ran.
    pub latency: Option<Latency>,
}

impl Metrics {
    /// Serializes the section as a JSON object (stamped with
    /// [`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("bucket_ns", Json::Uint(self.bucket_ns)),
            (
                "nodes",
                Json::Arr(self.nodes.iter().map(|(&n, m)| m.to_json(n)).collect()),
            ),
        ];
        if let Some(latency) = &self.latency {
            fields.push(("latency", latency.to_json()));
        }
        Json::obj(fields)
    }
}

/// Observer that aggregates the event stream into [`Metrics`] and
/// installs the result into the report's `metrics` field.
#[derive(Debug)]
pub struct MetricsSink {
    metrics: Metrics,
    tx_since: BTreeMap<NodeId, SimTime>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// Default airtime bucket: 10 ms.
    pub const DEFAULT_BUCKET_NS: u64 = 10_000_000;

    /// Creates a sink with the default bucket width.
    pub fn new() -> Self {
        MetricsSink {
            metrics: Metrics {
                bucket_ns: Self::DEFAULT_BUCKET_NS,
                nodes: BTreeMap::new(),
                latency: None,
            },
            tx_since: BTreeMap::new(),
        }
    }

    fn node(&mut self, node: NodeId) -> &mut NodeMetrics {
        self.metrics.nodes.entry(node).or_default()
    }

    fn add_busy_span(&mut self, node: NodeId, start: SimTime, end: SimTime) {
        let bucket_ns = self.metrics.bucket_ns;
        let m = self.node(node);
        let mut at = start.as_nanos();
        let end = end.as_nanos();
        while at < end {
            let bucket = (at / bucket_ns) as usize;
            let bucket_end = (bucket as u64 + 1) * bucket_ns;
            let span = end.min(bucket_end) - at;
            if m.airtime_busy_ns.len() <= bucket {
                m.airtime_busy_ns.resize(bucket + 1, 0);
            }
            m.airtime_busy_ns[bucket] += span;
            at += span;
        }
    }

    fn sample_depth(&mut self, node: NodeId, depth: u32) {
        let m = self.node(node);
        m.queue_depth_peak = m.queue_depth_peak.max(depth);
        m.queue_depth_sum += u64::from(depth);
        m.queue_depth_samples += 1;
    }
}

impl Observer for MetricsSink {
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "deliberate projection: the metrics sink samples only the counters above; a new event is metrics-silent until a series is designed for it"
    )]
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::TxBegin { src, .. } => {
                self.tx_since.insert(src, now);
            }
            SimEvent::TxEnd { src, .. } => {
                if let Some(start) = self.tx_since.remove(&src) {
                    self.add_busy_span(src, start, now);
                }
            }
            SimEvent::Enqueue { node, depth, .. } | SimEvent::Dequeue { node, depth, .. } => {
                self.sample_depth(node, depth);
            }
            SimEvent::BackoffDraw { node, stage, .. } => {
                let bin = (stage as usize).min(MAX_BACKOFF_STAGE);
                self.node(node).backoff_stage[bin] += 1;
            }
            SimEvent::RxResolved { node, sinr_db, .. } => {
                self.node(node).sinr.record(sinr_db);
            }
            _ => {}
        }
    }

    fn finish(&mut self, report: &mut SimReport) {
        let mut section = mem::take(&mut self.metrics);
        // Preserve a latency section another sink installed first —
        // sinks merge into the report, attach order must not matter.
        if let Some(prev) = report.metrics.take() {
            if section.latency.is_none() {
                section.latency = prev.latency;
            }
        }
        report.metrics = Some(section);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_mac::frames::FrameKind;
    use comap_radio::rates::Rate;

    fn tx(src: usize) -> SimEvent {
        SimEvent::TxBegin {
            src: NodeId(src),
            dst: NodeId(1),
            kind: FrameKind::Data,
            rate: Rate::Mbps11,
        }
    }

    #[test]
    fn busy_spans_split_across_buckets() {
        let mut sink = MetricsSink::new();
        sink.on_event(SimTime::from_nanos(5_000_000), &tx(0));
        sink.on_event(
            SimTime::from_nanos(22_000_000),
            &SimEvent::TxEnd {
                src: NodeId(0),
                kind: FrameKind::Data,
            },
        );
        let m = &sink.metrics.nodes[&NodeId(0)];
        assert_eq!(m.airtime_busy_ns, vec![5_000_000, 10_000_000, 2_000_000]);
    }

    #[test]
    fn queue_depth_and_backoff_and_sinr_aggregate() {
        let mut sink = MetricsSink::new();
        let t = SimTime::ZERO;
        sink.on_event(
            t,
            &SimEvent::Enqueue {
                node: NodeId(0),
                dst: NodeId(1),
                depth: 3,
            },
        );
        sink.on_event(
            t,
            &SimEvent::Dequeue {
                node: NodeId(0),
                dst: NodeId(1),
                depth: 1,
            },
        );
        sink.on_event(
            t,
            &SimEvent::BackoffDraw {
                node: NodeId(0),
                stage: 99,
                slots: 4,
            },
        );
        sink.on_event(
            t,
            &SimEvent::RxResolved {
                node: NodeId(1),
                src: NodeId(0),
                rssi_dbm: -60.0,
                sinr_db: 12.4,
            },
        );
        let m = &sink.metrics.nodes[&NodeId(0)];
        assert_eq!(m.queue_depth_peak, 3);
        assert_eq!(m.mean_queue_depth(), Some(2.0));
        assert_eq!(m.backoff_stage[MAX_BACKOFF_STAGE], 1);
        let rx = &sink.metrics.nodes[&NodeId(1)];
        assert_eq!(rx.sinr.count, 1);
        assert_eq!(rx.sinr.counts[22], 1);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut sink = MetricsSink::new();
        sink.on_event(SimTime::from_nanos(4_000_000), &tx(0));
        sink.on_event(
            SimTime::from_nanos(13_000_000),
            &SimEvent::TxEnd {
                src: NodeId(0),
                kind: FrameKind::Data,
            },
        );
        sink.on_event(
            SimTime::ZERO,
            &SimEvent::RxResolved {
                node: NodeId(1),
                src: NodeId(0),
                rssi_dbm: -60.0,
                sinr_db: 25.5,
            },
        );
        let json = sink.metrics.to_json();
        // The compact text is a lossless image of the tree.
        let back = Json::parse(&json.to_string_compact()).unwrap();
        assert_eq!(back, json);
        let uint = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        let uints = |v: &Json, key: &str| -> Vec<u64> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|c| c.as_u64().unwrap())
                .collect()
        };
        assert_eq!(uint(&back, "schema_version"), Some(SCHEMA_VERSION));
        assert_eq!(uint(&back, "bucket_ns"), Some(10_000_000));
        assert!(back.get("latency").is_none());
        let nodes = back.get("nodes").and_then(Json::as_arr).unwrap();
        let [sender, receiver] = nodes else {
            panic!("expected two nodes, got {nodes:?}")
        };
        assert_eq!(uint(sender, "node"), Some(0));
        assert_eq!(uints(sender, "airtime_busy_ns"), vec![6_000_000, 3_000_000]);
        assert_eq!(uint(receiver, "node"), Some(1));
        let sinr = receiver.get("sinr").unwrap();
        assert_eq!(uint(sinr, "count"), Some(1));
        for key in ["sum", "min", "max"] {
            assert_eq!(sinr.get(key).and_then(Json::as_f64), Some(25.5), "{key}");
        }
        assert_eq!(sinr.get("lo").and_then(Json::as_f64), Some(-10.0));
        assert_eq!(sinr.get("bin_width").and_then(Json::as_f64), Some(1.0));
        let counts = uints(sinr, "counts");
        assert_eq!(counts.len(), 50);
        assert_eq!(counts[35], 1);
        assert_eq!(counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn finish_installs_the_section() {
        let mut sink = MetricsSink::new();
        sink.on_event(SimTime::ZERO, &tx(2));
        sink.on_event(
            SimTime::from_nanos(50),
            &SimEvent::TxEnd {
                src: NodeId(2),
                kind: FrameKind::Data,
            },
        );
        let mut report = SimReport::default();
        sink.finish(&mut report);
        let metrics = report.metrics.expect("metrics installed");
        assert_eq!(metrics.nodes[&NodeId(2)].airtime_busy_ns, vec![50]);
    }
}
