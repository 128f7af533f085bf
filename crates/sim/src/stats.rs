//! Per-link and per-node statistics, aggregated into a [`SimReport`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use comap_mac::time::SimDuration;

use crate::config::FlowSpec;
use crate::frame::NodeId;
use crate::json::{Json, SCHEMA_VERSION};
use crate::metrics::Metrics;

/// Counters of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Unique payload bytes delivered (duplicates excluded).
    pub delivered_bytes: u64,
    /// Unique data frames delivered.
    pub delivered_frames: u64,
    /// Data-frame transmissions attempted (including retransmissions).
    pub data_tx: u64,
    /// ACK timeouts observed by the sender.
    pub ack_timeouts: u64,
    /// Frames abandoned after the retry limit.
    pub drops: u64,
}

/// Counters of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Time spent transmitting anything.
    pub airtime: SimDuration,
    /// Concurrent (exposed-terminal) transmissions started by CO-MAP.
    pub concurrent_tx: u64,
    /// Exposed opportunities abandoned by the RSSI watchdog.
    pub et_abandons: u64,
    /// Discovery headers decoded.
    pub headers_heard: u64,
}

/// Counters kept by the radio medium itself — physical-layer outcomes
/// that per-link MAC counters cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediumStats {
    /// Receiver locks stolen by preamble capture (a stronger frame
    /// arrived mid-reception and was decodable over the locked one).
    pub captures: u64,
    /// Frames held to the end of their lock but killed by the accrued
    /// bit-error hazard (collision / interference losses).
    pub hazard_drops: u64,
    /// Times the incremental power ledger was verified against a
    /// from-scratch recomputation (debug builds only; 0 in release).
    pub ledger_checks: u64,
}

/// Results of one simulation run.
///
/// The per-link and per-node counters are exactly a projection of the
/// run's event stream: the simulator folds the seven report-counted
/// events, and each frame's airtime, into per-node arrays while the run
/// is under way, and writes every entry the run touched into `links`
/// and `nodes` once, when it ends.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-directed-link counters: every link the run counted anything
    /// on.
    pub links: BTreeMap<(NodeId, NodeId), LinkStats>,
    /// Per-node counters: every node the run counted anything on.
    pub nodes: BTreeMap<NodeId, NodeStats>,
    /// Total events processed (diagnostics).
    pub events: u64,
    /// Position reports broadcast by moving nodes (the protocol's
    /// location-sharing overhead).
    pub position_reports: u64,
    /// Physical-layer counters from the medium.
    pub medium: MediumStats,
    /// Per-node metrics, present when a
    /// [`MetricsSink`](crate::metrics::MetricsSink) was attached.
    pub metrics: Option<Metrics>,
}

impl SimReport {
    /// Goodput of the directed link `src → dst` in payload bits/s.
    pub fn link_goodput_bps(&self, src: NodeId, dst: NodeId) -> f64 {
        let secs = self.duration.as_secs_f64();
        // Durations are non-negative, so this is exactly the zero check.
        if secs <= 0.0 {
            return 0.0;
        }
        self.links
            .get(&(src, dst))
            .map(|l| l.delivered_bytes as f64 * 8.0 / secs)
            .unwrap_or(0.0)
    }

    /// Sum of goodput over every link, in bits/s.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        // Durations are non-negative, so this is exactly the zero check.
        if secs <= 0.0 {
            return 0.0;
        }
        self.links
            .values()
            .map(|l| l.delivered_bytes as f64)
            .sum::<f64>()
            * 8.0
            / secs
    }

    /// Serializes the report (including the metrics section, when
    /// present) as a JSON object.
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|(&(src, dst), l)| {
                Json::obj(vec![
                    ("src", Json::Uint(src.0 as u64)),
                    ("dst", Json::Uint(dst.0 as u64)),
                    ("delivered_bytes", Json::Uint(l.delivered_bytes)),
                    ("delivered_frames", Json::Uint(l.delivered_frames)),
                    ("data_tx", Json::Uint(l.data_tx)),
                    ("ack_timeouts", Json::Uint(l.ack_timeouts)),
                    ("drops", Json::Uint(l.drops)),
                ])
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|(&node, n)| {
                Json::obj(vec![
                    ("node", Json::Uint(node.0 as u64)),
                    ("airtime_ns", Json::Uint(n.airtime.as_nanos())),
                    ("concurrent_tx", Json::Uint(n.concurrent_tx)),
                    ("et_abandons", Json::Uint(n.et_abandons)),
                    ("headers_heard", Json::Uint(n.headers_heard)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("duration_ns", Json::Uint(self.duration.as_nanos())),
            ("events", Json::Uint(self.events)),
            ("position_reports", Json::Uint(self.position_reports)),
            ("links", Json::Arr(links)),
            ("nodes", Json::Arr(nodes)),
            (
                "medium",
                Json::obj(vec![
                    ("captures", Json::Uint(self.medium.captures)),
                    ("hazard_drops", Json::Uint(self.medium.hazard_drops)),
                    ("ledger_checks", Json::Uint(self.medium.ledger_checks)),
                ]),
            ),
            (
                "metrics",
                match &self.metrics {
                    Some(m) => m.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A run's per-link and per-node counters while it is under way, kept
/// in arrays indexed by node so that counting an event is an index and
/// a short scan, never a B-tree walk. An entry is `None` until the run
/// first counts on it.
#[derive(Debug)]
pub(crate) struct Tally {
    nodes: Vec<Option<NodeStats>>,
    /// Per source, one entry per destination: the flows from it in list
    /// order, then any other link first counted during the run.
    links: Vec<Vec<(NodeId, Option<LinkStats>)>>,
}

impl Tally {
    /// Counters for `n` nodes and the directed links of `flows`.
    pub(crate) fn new(n: usize, flows: &[FlowSpec]) -> Self {
        let mut links = vec![Vec::new(); n];
        for flow in flows {
            links[flow.src.0].push((flow.dst, None));
        }
        Tally {
            nodes: vec![None; n],
            links,
        }
    }

    /// A node's counters, created on first use.
    pub(crate) fn node_mut(&mut self, node: NodeId) -> &mut NodeStats {
        self.nodes[node.0].get_or_insert_default()
    }

    /// A directed link's counters, created on first use.
    pub(crate) fn link_mut(&mut self, src: NodeId, dst: NodeId) -> &mut LinkStats {
        let row = &mut self.links[src.0];
        let at = match row.iter().position(|&(d, _)| d == dst) {
            Some(at) => at,
            None => {
                row.push((dst, None));
                row.len() - 1
            }
        };
        row[at].1.get_or_insert_default()
    }

    /// Writes every touched entry into `report`'s maps.
    pub(crate) fn write_into(self, report: &mut SimReport) {
        for (i, stats) in self.nodes.into_iter().enumerate() {
            if let Some(stats) = stats {
                report.nodes.insert(NodeId(i), stats);
            }
        }
        for (src, row) in self.links.into_iter().enumerate() {
            for (dst, stats) in row {
                if let Some(stats) = stats {
                    report.links.insert((NodeId(src), dst), stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_accounts_bits_per_second() {
        let mut r = SimReport {
            duration: SimDuration::from_secs(2),
            ..Default::default()
        };
        r.links
            .entry((NodeId(0), NodeId(1)))
            .or_default()
            .delivered_bytes = 250_000;
        assert_eq!(r.link_goodput_bps(NodeId(0), NodeId(1)), 1_000_000.0);
        assert_eq!(r.link_goodput_bps(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(r.aggregate_goodput_bps(), 1_000_000.0);
    }

    #[test]
    fn zero_duration_is_zero_goodput() {
        let mut r = SimReport::default();
        r.links
            .entry((NodeId(0), NodeId(1)))
            .or_default()
            .delivered_bytes = 100;
        assert_eq!(r.link_goodput_bps(NodeId(0), NodeId(1)), 0.0);
    }

    /// Reports are write-only, so their bytes are the contract: every
    /// field of every section, the nested `schema_version` stamp, an
    /// integral float (`12.0`) and the `min_ns`/`max_ns` an empty
    /// latency histogram leaves out.
    #[test]
    fn report_json_is_pinned_byte_for_byte() {
        use crate::latency::{Latency, LatencyHistogram, NodeLatency};
        use crate::metrics::{Histogram, NodeMetrics};

        let mut r = SimReport {
            duration: SimDuration::from_millis(20),
            events: 9,
            position_reports: 2,
            medium: MediumStats {
                captures: 1,
                hazard_drops: 3,
                ledger_checks: 0,
            },
            ..Default::default()
        };
        r.links.insert(
            (NodeId(0), NodeId(1)),
            LinkStats {
                delivered_bytes: 1500,
                delivered_frames: 1,
                data_tx: 2,
                ack_timeouts: 1,
                drops: 0,
            },
        );
        r.nodes.insert(
            NodeId(0),
            NodeStats {
                airtime: SimDuration::from_nanos(250_000),
                concurrent_tx: 1,
                et_abandons: 0,
                headers_heard: 4,
            },
        );
        let bare = concat!(
            r#"{"schema_version":2,"duration_ns":20000000,"events":9,"position_reports":2,"#,
            r#""links":[{"src":0,"dst":1,"delivered_bytes":1500,"delivered_frames":1,"#,
            r#""data_tx":2,"ack_timeouts":1,"drops":0}],"#,
            r#""nodes":[{"node":0,"airtime_ns":250000,"concurrent_tx":1,"et_abandons":0,"#,
            r#""headers_heard":4}],"#,
            r#""medium":{"captures":1,"hazard_drops":3,"ledger_checks":0},"#,
        );
        assert_eq!(
            r.to_json().to_string_compact(),
            format!(r#"{bare}"metrics":null}}"#)
        );

        let mut sinr = Histogram::new(-10.0, 10.0, 3);
        sinr.record(12.0);
        sinr.record(-12.5);
        let mut e2e = LatencyHistogram::new();
        e2e.record(100);
        e2e.record(40_000);
        let node = NodeMetrics {
            airtime_busy_ns: vec![5_000_000, 250],
            queue_depth_peak: 3,
            queue_depth_sum: 4,
            queue_depth_samples: 2,
            backoff_stage: vec![1, 0, 2],
            sinr,
        };
        let spans = NodeLatency {
            e2e,
            delivered: 1,
            dropped: 1,
            tx_attempts: 3,
            ..NodeLatency::default()
        };
        r.metrics = Some(Metrics {
            bucket_ns: 10_000_000,
            nodes: BTreeMap::from([(NodeId(0), node)]),
            latency: Some(Latency {
                nodes: BTreeMap::from([(NodeId(0), spans)]),
            }),
        });
        let empty = r#"{"buckets":[],"count":0,"sum_ns":0}"#;
        let metrics = concat!(
            r#""metrics":{"schema_version":2,"bucket_ns":10000000,"#,
            r#""nodes":[{"node":0,"airtime_busy_ns":[5000000,250],"queue_depth_peak":3,"#,
            r#""queue_depth_sum":4,"queue_depth_samples":2,"backoff_stage":[1,0,2],"#,
            r#""sinr":{"lo":-10.0,"bin_width":10.0,"counts":[0,0,1],"underflow":1,"#,
            r#""overflow":0,"count":2,"sum":-0.5,"min":-12.5,"max":12.0}}],"#,
            r#""latency":{"nodes":[{"node":0,"#,
            r#""e2e":{"buckets":[[82,1],[359,1]],"count":2,"sum_ns":40100,"#,
            r#""min_ns":100,"max_ns":40000},"#,
        );
        assert_eq!(
            r.to_json().to_string_compact(),
            format!(
                r#"{bare}{metrics}"queueing":{empty},"access":{empty},"service":{empty},"delivered":1,"dropped":1,"tx_attempts":3,"incomplete":0}}]}}}}}}"#
            )
        );
    }
}
