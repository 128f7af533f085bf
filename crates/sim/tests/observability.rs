//! The observability layer's three contracts, end to end:
//!
//! 1. **Non-perturbation** — attaching any combination of sinks to a
//!    run must leave the `SimReport` bit-identical to a run without
//!    sinks (and to a profiled run): emission never touches an RNG
//!    stream and sinks have no channel back into the simulation.
//! 2. **Fidelity** — everything a sink records survives serialization:
//!    the JSONL event stream parses back to the exact events the
//!    in-memory timeline saw, and a `SimReport` with a metrics section
//!    round-trips through JSON losslessly.
//! 3. **Projection** — the report's per-link and per-node counters are
//!    exactly the counts of their events in the recorded stream.

mod event_coverage;

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::observe::parse_jsonl_line;
use comap_sim::stats::{LinkStats, NodeStats};
use comap_sim::{
    Json, JsonlSink, LatencySink, MetricsSink, NodeId, NoopSink, SimEvent, SimReport, Simulator,
    TimelineSink,
};
use event_coverage::unemitted;

/// A CO-MAP four-node topology that exercises every event source:
/// captures, hazard drops, discovery headers, ET opportunities,
/// retries and adaptation.
fn busy_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = MacFeatures::COMAP;
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(0.0, 0.0)));
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(26.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    cfg
}

/// The Fig. 2 hidden-terminal pair with a retry limit of one: the two
/// saturated senders cannot hear each other, so collisions exhaust the
/// retries and frames are dropped.
fn lossy_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = MacFeatures::COMAP;
    cfg.retry_limit = 1;
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(15.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(37.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(49.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    cfg
}

/// [`busy_cfg`] with a second exposed terminal next to C1: both enter
/// the same opportunities beside C2's link, and whichever transmits
/// first trips the other's RSSI watchdog into abandoning.
fn crowded_cfg(seed: u64) -> SimConfig {
    let mut cfg = busy_cfg(seed);
    let ap3 = cfg.add_node(NodeSpec::ap("AP3", Position::new(0.0, 5.0)));
    let c3 = cfg.add_node(NodeSpec::client("C3", Position::new(-8.0, 5.0)));
    cfg.add_flow(c3, ap3, Traffic::Saturated);
    cfg
}

const DURATION: SimDuration = SimDuration::from_millis(120);

/// An `io::Write` that appends into a shared buffer, so a test can read
/// back what a consumed [`JsonlSink`] wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn sinks_do_not_perturb_the_report() {
    let bare = Simulator::new(busy_cfg(7)).run(DURATION);

    let buf = SharedBuf::default();
    let (timeline, _handle) = TimelineSink::new();
    let mut sim = Simulator::new(busy_cfg(7));
    sim.attach_sink(Box::new(NoopSink));
    sim.attach_sink(Box::new(JsonlSink::new(buf.clone())));
    sim.attach_sink(Box::new(MetricsSink::new()));
    sim.attach_sink(Box::new(LatencySink::new()));
    sim.attach_sink(Box::new(timeline));
    let mut observed = sim.run(DURATION);

    // The metrics section is the one *intentional* addition a sink
    // makes; everything else must match exactly.
    assert!(observed.metrics.is_some(), "MetricsSink fills the section");
    observed.metrics = None;
    assert_eq!(observed, bare, "sinks changed the simulation");
    assert!(!buf.bytes().is_empty(), "the run produced events");
}

#[test]
fn profiling_does_not_perturb_the_report() {
    let bare = Simulator::new(busy_cfg(11)).run(DURATION);
    let (profiled, profile) = Simulator::new(busy_cfg(11)).run_profiled(DURATION);
    assert_eq!(profiled, bare);

    // Profile sanity: every processed event is accounted for, with a
    // real wall-clock rate and a queue that was non-trivial at peak.
    assert!(profile.events > 0);
    assert!(profile.events_per_sec() > 0.0);
    assert!(profile.queue_peak > 0);
    assert_eq!(profile.sim_nanos, DURATION.as_nanos());
    let by_type: u64 = profile.by_type.iter().map(|t| t.count).sum();
    assert_eq!(by_type, profile.events);

    // And the profile itself round-trips through its JSON form.
    let text = profile.to_json().to_string_compact();
    let back = comap_sim::RunProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, profile);
}

#[test]
fn jsonl_stream_matches_the_timeline() {
    let buf = SharedBuf::default();
    let (timeline, handle) = TimelineSink::new();
    let mut sim = Simulator::new(busy_cfg(3));
    sim.attach_sink(Box::new(JsonlSink::new(buf.clone())));
    sim.attach_sink(Box::new(timeline));
    sim.run(DURATION);

    let text = String::from_utf8(buf.bytes()).expect("UTF-8 JSONL");
    let parsed: Vec<_> = text
        .lines()
        .map(|line| parse_jsonl_line(line).expect("every line parses"))
        .collect();
    let recorded = handle.events();
    assert!(!recorded.is_empty());
    assert_eq!(parsed, recorded, "JSONL stream diverged from the timeline");

    // The human-readable rendering covers the same events.
    assert_eq!(handle.render().lines().count(), recorded.len());
}

#[test]
fn latency_sink_perturbs_neither_report_nor_event_stream() {
    // Reference: a traced run with no latency sink.
    let ref_buf = SharedBuf::default();
    let mut sim = Simulator::new(busy_cfg(7));
    sim.attach_sink(Box::new(JsonlSink::new(ref_buf.clone())));
    let bare = sim.run(DURATION);

    // Same run with the latency sink attached on top.
    let buf = SharedBuf::default();
    let mut sim = Simulator::new(busy_cfg(7));
    sim.attach_sink(Box::new(JsonlSink::new(buf.clone())));
    sim.attach_sink(Box::new(LatencySink::new()));
    let mut observed = sim.run(DURATION);

    // The latency section is the sink's one intentional addition;
    // everything else — including the byte-exact JSONL event stream —
    // must be identical.
    assert!(
        observed
            .metrics
            .as_ref()
            .is_some_and(|m| m.latency.is_some()),
        "LatencySink fills the latency section"
    );
    observed.metrics = None;
    assert_eq!(observed, bare, "the latency sink changed the simulation");
    assert_eq!(
        buf.bytes(),
        ref_buf.bytes(),
        "the latency sink changed the event stream"
    );
}

#[test]
fn latency_section_is_populated_and_coherent() {
    let mut sim = Simulator::new(busy_cfg(9));
    sim.attach_sink(Box::new(LatencySink::new()));
    let report = sim.run(DURATION);
    let latency = report
        .metrics
        .as_ref()
        .and_then(|m| m.latency.as_ref())
        .expect("latency section present");

    // A saturated four-node run delivers plenty of frames: the
    // aggregate must be non-degenerate, with ordered percentiles.
    assert!(!latency.nodes.is_empty());
    let agg = latency.aggregate();
    assert!(agg.delivered > 0, "frames were delivered");
    assert!(agg.tx_attempts >= agg.delivered);
    assert_eq!(agg.e2e.count(), agg.delivered + agg.dropped);
    let (p50, p95, p99) = (
        agg.e2e.quantile(0.50).expect("p50"),
        agg.e2e.quantile(0.95).expect("p95"),
        agg.e2e.quantile(0.99).expect("p99"),
    );
    assert!(p50 > 0, "e2e latency is positive");
    assert!(p50 <= p95 && p95 <= p99, "percentiles are ordered");

    // Queueing + access + service decompose e2e for delivered frames:
    // each span histogram carries the same population.
    for l in latency.nodes.values() {
        assert_eq!(l.queueing.count(), l.access.count());
        assert_eq!(l.access.count(), l.service.count());
    }
}

#[test]
fn latency_and_metrics_sections_merge_in_either_order() {
    let run = |first_latency: bool| {
        let mut sim = Simulator::new(busy_cfg(13));
        if first_latency {
            sim.attach_sink(Box::new(LatencySink::new()));
            sim.attach_sink(Box::new(MetricsSink::new()));
        } else {
            sim.attach_sink(Box::new(MetricsSink::new()));
            sim.attach_sink(Box::new(LatencySink::new()));
        }
        sim.run(DURATION)
    };
    let a = run(true);
    let b = run(false);
    let m_a = a.metrics.as_ref().expect("section present");
    let m_b = b.metrics.as_ref().expect("section present");
    assert!(m_a.latency.is_some(), "latency survives the merge");
    assert!(!m_a.nodes.is_empty(), "node metrics survive the merge");
    assert_eq!(m_a, m_b, "attach order changed the merged section");
}

#[test]
fn report_with_latency_round_trips_through_json() {
    let mut sim = Simulator::new(busy_cfg(5));
    sim.attach_sink(Box::new(MetricsSink::new()));
    sim.attach_sink(Box::new(LatencySink::new()));
    let report = sim.run(DURATION);
    assert!(report.metrics.as_ref().is_some_and(|m| m.latency.is_some()));

    let text = report.to_json().to_string_compact();
    let back = SimReport::from_json(&Json::parse(&text).unwrap()).expect("valid report JSON");
    assert_eq!(back, report);
}

#[test]
fn unstamped_report_json_is_rejected() {
    let report = Simulator::new(busy_cfg(5)).run(DURATION);
    let text = report.to_json().to_string_compact();
    let legacy = text.replacen("\"schema_version\":2,", "", 1);
    let err = SimReport::from_json(&Json::parse(&legacy).unwrap()).unwrap_err();
    assert!(err.to_string().contains("schema_version"), "{err}");
}

#[test]
fn report_with_metrics_round_trips_through_json() {
    let mut sim = Simulator::new(busy_cfg(5));
    sim.attach_sink(Box::new(MetricsSink::new()));
    let report = sim.run(DURATION);
    assert!(report.metrics.is_some());

    let text = report.to_json().to_string_compact();
    let back = SimReport::from_json(&Json::parse(&text).unwrap()).expect("valid report JSON");
    assert_eq!(back, report);

    // A report without the section round-trips too (the field is null).
    let bare = Simulator::new(busy_cfg(5)).run(DURATION);
    let text = bare.to_json().to_string_compact();
    let back = SimReport::from_json(&Json::parse(&text).unwrap()).expect("valid report JSON");
    assert_eq!(back, bare);
}

type LinkCounters = BTreeMap<(NodeId, NodeId), LinkStats>;
type NodeCounters = BTreeMap<NodeId, NodeStats>;

/// Counts the report-counted events of a recorded stream into
/// report-shaped counters. No event carries airtime, so node counters
/// leave it at zero.
fn project(events: &[(SimTime, SimEvent)]) -> (LinkCounters, NodeCounters) {
    let mut links = LinkCounters::new();
    let mut nodes = NodeCounters::new();
    for (_, event) in events {
        match *event {
            SimEvent::FrameTx { node, dst, .. } => {
                links.entry((node, dst)).or_default().data_tx += 1;
            }
            SimEvent::Delivered { node, from, bytes } => {
                let link = links.entry((from, node)).or_default();
                link.delivered_frames += 1;
                link.delivered_bytes += u64::from(bytes);
            }
            SimEvent::AckTimeout { node, dst } => {
                links.entry((node, dst)).or_default().ack_timeouts += 1;
            }
            SimEvent::FrameDropped { node, dst, .. } => {
                links.entry((node, dst)).or_default().drops += 1;
            }
            SimEvent::ConcurrentTx { node, .. } => {
                nodes.entry(node).or_default().concurrent_tx += 1;
            }
            SimEvent::EtAbandon { node } => {
                nodes.entry(node).or_default().et_abandons += 1;
            }
            SimEvent::HeaderHeard { node, .. } => {
                nodes.entry(node).or_default().headers_heard += 1;
            }
            _ => {}
        }
    }
    (links, nodes)
}

#[test]
fn report_counters_are_a_projection_of_the_event_stream() {
    let stop_and_wait = |mut cfg: SimConfig| {
        cfg.default_features.selective_repeat = false;
        cfg
    };
    let corpus = [
        ("busy, selective repeat", busy_cfg(7)),
        ("busy, stop-and-wait", stop_and_wait(busy_cfg(7))),
        ("lossy, selective repeat", lossy_cfg(7)),
        ("lossy, stop-and-wait", stop_and_wait(lossy_cfg(7))),
        ("crowded, selective repeat", crowded_cfg(7)),
        ("crowded, stop-and-wait", stop_and_wait(crowded_cfg(7))),
    ];
    let (mut link_sum, mut node_sum) = (LinkStats::default(), NodeStats::default());
    for (name, cfg) in corpus {
        let (timeline, handle) = TimelineSink::new();
        let mut sim = Simulator::new(cfg);
        sim.attach_sink(Box::new(timeline));
        let report = sim.run(DURATION);
        let (links, nodes) = project(&handle.events());

        assert_eq!(report.links, links, "{name}: link counters");
        let counted: NodeCounters = report
            .nodes
            .iter()
            .map(|(&n, s)| {
                let s = NodeStats {
                    airtime: SimDuration::ZERO,
                    ..*s
                };
                (n, s)
            })
            .filter(|(_, s)| *s != NodeStats::default())
            .collect();
        assert_eq!(counted, nodes, "{name}: node counters");

        for l in links.values() {
            link_sum.data_tx += l.data_tx;
            link_sum.delivered_frames += l.delivered_frames;
            link_sum.delivered_bytes += l.delivered_bytes;
            link_sum.ack_timeouts += l.ack_timeouts;
            link_sum.drops += l.drops;
        }
        for n in nodes.values() {
            node_sum.concurrent_tx += n.concurrent_tx;
            node_sum.et_abandons += n.et_abandons;
            node_sum.headers_heard += n.headers_heard;
        }
    }
    // Every counter moves somewhere in the corpus, so none of the
    // equalities above holds only as 0 == 0.
    for (counter, total) in [
        ("data_tx", link_sum.data_tx),
        ("delivered_frames", link_sum.delivered_frames),
        ("delivered_bytes", link_sum.delivered_bytes),
        ("ack_timeouts", link_sum.ack_timeouts),
        ("drops", link_sum.drops),
        ("concurrent_tx", node_sum.concurrent_tx),
        ("et_abandons", node_sum.et_abandons),
        ("headers_heard", node_sum.headers_heard),
    ] {
        assert!(total > 0, "{counter} is zero across the whole corpus");
    }
}

#[test]
fn every_event_variant_is_emitted() {
    let mut events = Vec::new();
    for seed in 1..=3 {
        for cfg in [busy_cfg(seed), lossy_cfg(seed), crowded_cfg(seed)] {
            let (sink, handle) = TimelineSink::new();
            let mut sim = Simulator::new(cfg);
            sim.attach_sink(Box::new(sink));
            sim.run(DURATION);
            events.extend(handle.events().into_iter().map(|(_, event)| event));
        }
    }
    let missing = unemitted(&events);
    assert!(missing.is_empty(), "no run emits {missing:?}");
}
