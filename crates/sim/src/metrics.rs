//! In-memory metrics aggregation: per-node time series and histograms
//! built from the instrumentation event stream.
//!
//! [`MetricsSink`] folds [`SimEvent`](crate::observe::SimEvent)s into a
//! [`Metrics`] section that it installs into
//! [`SimReport::metrics`](crate::stats::SimReport) when the run
//! finishes. Everything is stored in exact integer grains (nanoseconds
//! of busy airtime per bucket, histogram counts) so the section
//! round-trips through JSON losslessly and compares with `==`.

use std::collections::BTreeMap;
use std::fmt;
use std::mem;

use comap_mac::time::SimTime;

use crate::frame::NodeId;
use crate::json::{check_schema_version, Json, SchemaError, SCHEMA_VERSION};
use crate::latency::Latency;
use crate::observe::{Observer, SimEvent};
use crate::stats::SimReport;

/// Highest backoff escalation stage tracked individually; draws beyond
/// it are folded into the last bin.
pub const MAX_BACKOFF_STAGE: usize = 15;

/// Error returned by [`Histogram::merge`] when the two histograms do
/// not share the same binning (`lo`, `bin_width`, bin count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningMismatch;

impl fmt::Display for BinningMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "histograms have different binnings and cannot merge")
    }
}

impl std::error::Error for BinningMismatch {}

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

    /// The `p`-quantile (`p` clamped into `[0, 1]`) by exact sample
    /// rank. Ranks landing in the underflow mass report the exact
    /// `min`, ranks in the overflow mass the exact `max`, and in-range
    /// ranks their bin's midpoint clamped into `[min, max]`. `None`
    /// when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count) - 1;
        if rank < self.underflow {
            return Some(min);
        }
        let mut cum = self.underflow;
        for (bin, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let mid = self.lo + (bin as f64 + 0.5) * self.bin_width;
                return Some(mid.clamp(min, max));
            }
        }
        Some(max)
    }

    /// Adds every sample of `other` into `self` — exact bin-wise
    /// addition, equivalent to having recorded the concatenated
    /// streams.
    ///
    /// # Errors
    ///
    /// Returns [`BinningMismatch`] (leaving `self` untouched) unless
    /// both histograms share `lo`, `bin_width` and bin count exactly.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), BinningMismatch> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.bin_width.to_bits() != other.bin_width.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(BinningMismatch);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        Ok(())
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

    fn from_json(v: &Json) -> Option<Histogram> {
        Some(Histogram {
            lo: v.get("lo")?.as_f64()?,
            bin_width: v.get("bin_width")?.as_f64()?,
            counts: v
                .get("counts")?
                .as_arr()?
                .iter()
                .map(|c| c.as_u64())
                .collect::<Option<Vec<_>>>()?,
            underflow: v.get("underflow")?.as_u64()?,
            overflow: v.get("overflow")?.as_u64()?,
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_f64()?,
            min: v.get("min").and_then(Json::as_f64),
            max: v.get("max").and_then(Json::as_f64),
        })
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

    /// Fraction of each bucket this node spent transmitting.
    pub fn airtime_utilization(&self, bucket_ns: u64) -> Vec<f64> {
        self.airtime_busy_ns
            .iter()
            .map(|&busy| busy as f64 / bucket_ns as f64)
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
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

    fn from_json(v: &Json) -> Option<NodeMetrics> {
        let uints = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?.as_arr()?.iter().map(|c| c.as_u64()).collect()
        };
        Some(NodeMetrics {
            airtime_busy_ns: uints("airtime_busy_ns")?,
            queue_depth_peak: u32::try_from(v.get("queue_depth_peak")?.as_u64()?).ok()?,
            queue_depth_sum: v.get("queue_depth_sum")?.as_u64()?,
            queue_depth_samples: v.get("queue_depth_samples")?.as_u64()?,
            backoff_stage: uints("backoff_stage")?,
            sinr: Histogram::from_json(v.get("sinr")?)?,
        })
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
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|(n, m)| {
                            let Json::Obj(mut fields) = m.to_json() else {
                                unreachable!("NodeMetrics::to_json returns an object")
                            };
                            fields.insert(0, ("node".to_string(), Json::Uint(n.0 as u64)));
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(latency) = &self.latency {
            fields.push(("latency", latency.to_json()));
        }
        Json::obj(fields)
    }

    /// Parses the section from its [`Metrics::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when the `schema_version` stamp is
    /// missing or mismatched, or when a required field is absent or
    /// malformed.
    pub fn from_json(v: &Json) -> Result<Metrics, SchemaError> {
        check_schema_version(v, "metrics section")?;
        let malformed = || SchemaError::new("metrics section: missing or malformed field");
        let mut nodes = BTreeMap::new();
        for entry in v
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(malformed)?
        {
            let node = NodeId(
                entry
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or_else(malformed)? as usize,
            );
            nodes.insert(node, NodeMetrics::from_json(entry).ok_or_else(malformed)?);
        }
        let latency = match v.get("latency") {
            Some(section) => Some(Latency::from_json(section).ok_or_else(malformed)?),
            None => None,
        };
        Ok(Metrics {
            bucket_ns: v
                .get("bucket_ns")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?,
            nodes,
            latency,
        })
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
        MetricsSink::with_bucket_ns(Self::DEFAULT_BUCKET_NS)
    }

    /// Creates a sink with a custom airtime bucket width.
    pub fn with_bucket_ns(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        MetricsSink {
            metrics: Metrics {
                bucket_ns,
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
        let mut sink = MetricsSink::with_bucket_ns(1_000);
        sink.on_event(SimTime::from_nanos(500), &tx(0));
        sink.on_event(
            SimTime::from_nanos(2_200),
            &SimEvent::TxEnd {
                src: NodeId(0),
                kind: FrameKind::Data,
            },
        );
        let m = &sink.metrics.nodes[&NodeId(0)];
        assert_eq!(m.airtime_busy_ns, vec![500, 1_000, 200]);
        assert_eq!(m.airtime_utilization(1_000), vec![0.5, 1.0, 0.2]);
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
    fn histogram_quantiles_match_a_sorted_vec_oracle() {
        // Samples spanning underflow (< 0), the bins, and overflow
        // (>= 10): the quantile walk must cross all three regions.
        let samples = [-5.0, -1.2, 0.4, 1.1, 2.6, 3.3, 3.9, 7.2, 12.0, 55.0];
        let mut h = Histogram::new(0.0, 1.0, 10);
        for s in samples {
            h.record(s);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (i, p) in (1..=samples.len()).map(|i| (i, i as f64 / samples.len() as f64)) {
            let exact = sorted[i - 1];
            let q = h.quantile(p).unwrap();
            // Underflow/overflow ranks report the exact extremes; bin
            // ranks are off by at most half a bin width.
            let tol = if exact < h.lo || exact >= h.lo + h.bin_width * h.counts.len() as f64 {
                // The extreme underflow/overflow ranks are exact, but
                // interior out-of-range ranks collapse onto min/max.
                (exact - sorted[0]).abs().max((exact - sorted[9]).abs())
            } else {
                h.bin_width / 2.0
            };
            assert!((q - exact).abs() <= tol, "p={p}: q={q} exact={exact}");
        }
        assert_eq!(h.quantile(0.0), Some(-5.0));
        assert_eq!(h.quantile(0.1), Some(-5.0));
        assert_eq!(h.quantile(1.0), Some(55.0));
        assert_eq!(h.min, Some(-5.0));
        assert_eq!(h.max, Some(55.0));
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_equals_concatenated_recording() {
        let mut a = Histogram::new(-10.0, 1.0, 50);
        let mut b = Histogram::new(-10.0, 1.0, 50);
        let mut both = Histogram::new(-10.0, 1.0, 50);
        for s in [-20.0, 3.5, 17.25] {
            a.record(s);
            both.record(s);
        }
        for s in [99.0, -0.5] {
            b.record(s);
            both.record(s);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, both);
        // Different binnings refuse to merge and leave self untouched.
        let before = a.clone();
        assert_eq!(a.merge(&Histogram::new(0.0, 1.0, 50)), Err(BinningMismatch));
        assert_eq!(
            a.merge(&Histogram::new(-10.0, 2.0, 50)),
            Err(BinningMismatch)
        );
        assert_eq!(
            a.merge(&Histogram::new(-10.0, 1.0, 9)),
            Err(BinningMismatch)
        );
        assert_eq!(a, before);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut sink = MetricsSink::with_bucket_ns(1_000);
        sink.on_event(SimTime::from_nanos(100), &tx(0));
        sink.on_event(
            SimTime::from_nanos(900),
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
        let metrics = sink.metrics.clone();
        let text = metrics.to_json().to_string_compact();
        let back = Metrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, metrics);
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
