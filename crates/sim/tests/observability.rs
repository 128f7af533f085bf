//! The observability layer's three contracts, end to end:
//!
//! 1. **Non-perturbation** — attaching any combination of sinks to a
//!    run must leave the `SimReport` bit-identical to a run without
//!    sinks (and to a profiled run): emission never touches an RNG
//!    stream and sinks have no channel back into the simulation.
//! 2. **Fidelity** — the JSONL event stream is byte for byte the
//!    events the in-memory timeline saw, written through a second sink
//!    (the trace is write-only), and a report's compact JSON
//!    parses back to the same JSON tree, carrying the report's values.
//!    (Reports are write-only: no program decodes one into a
//!    `SimReport`, and `stats.rs` pins their exact bytes.)
//! 3. **Projection** — the report's per-link and per-node counters are
//!    exactly the counts of their events in the recorded stream.

mod event_coverage;

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::stats::{LinkStats, NodeStats};
use comap_sim::{
    Json, JsonlSink, LatencySink, MetricsSink, NodeId, NoopSink, Observer, SimEvent, Simulator,
    TimelineSink,
};
use event_coverage::{unemitted, VARIANTS};

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

/// Panics at its [`PanicsAt::AT`]th event.
struct PanicsAt(u64);

impl PanicsAt {
    const AT: u64 = 100;
    const MESSAGE: &'static str = "the sink gives up at its 100th event";
}

impl Observer for PanicsAt {
    fn on_event(&mut self, _now: SimTime, _event: &SimEvent) {
        self.0 += 1;
        if self.0 == Self::AT {
            panic!("{}", Self::MESSAGE);
        }
    }
}

/// Sinks run on the calling thread while the event loop runs on a
/// worker: a sink's panic must stop the worker and reach the caller
/// with its own message, not hang the run or come back as another.
#[test]
fn a_panicking_sink_ends_the_run_with_its_own_panic() {
    let mut sim = Simulator::new(busy_cfg(7));
    sim.attach_sink(Box::new(NoopSink));
    sim.attach_sink(Box::new(PanicsAt(0)));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(DURATION)));
    let payload = outcome.expect_err("the sink's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some(PanicsAt::MESSAGE)
    );
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

    // Writing the recorded events through a second sink must give the
    // live stream byte for byte: the trace is exactly the typed events.
    // (`assert!`, not `assert_eq!`: a failure would print both traces.)
    let recorded = handle.events();
    assert!(!recorded.is_empty());
    let replay_buf = SharedBuf::default();
    let mut replay = JsonlSink::new(replay_buf.clone());
    for (t, event) in &recorded {
        replay.on_event(*t, event);
    }
    assert_eq!(replay.written(), recorded.len() as u64);
    assert!(
        buf.bytes() == replay_buf.bytes(),
        "JSONL stream diverged from the timeline"
    );
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

/// Writes `v` as compact text and parses it back; the text must be a
/// lossless image of the tree.
fn reparse(v: &Json) -> Json {
    let back = Json::parse(&v.to_string_compact()).expect("report JSON parses");
    assert_eq!(&back, v, "compact text lost part of the tree");
    back
}

fn uint(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

#[test]
fn report_with_latency_round_trips_through_json() {
    let mut sim = Simulator::new(busy_cfg(5));
    sim.attach_sink(Box::new(MetricsSink::new()));
    sim.attach_sink(Box::new(LatencySink::new()));
    let report = sim.run(DURATION);
    let metrics = report.metrics.as_ref().expect("metrics section");
    let latency = metrics.latency.as_ref().expect("latency section");

    let back = reparse(&report.to_json());
    let section = back.get("metrics").expect("metrics key");
    assert_eq!(section, &metrics.to_json());
    let written = section.get("latency").expect("latency key");
    let nodes = written.get("nodes").and_then(Json::as_arr).expect("nodes");
    assert_eq!(nodes.len(), latency.nodes.len());
    for (entry, (node, l)) in nodes.iter().zip(&latency.nodes) {
        assert_eq!(uint(entry, "node"), Some(node.0 as u64));
        assert_eq!(uint(entry, "delivered"), Some(l.delivered));
        assert_eq!(uint(entry, "dropped"), Some(l.dropped));
        assert_eq!(uint(entry, "tx_attempts"), Some(l.tx_attempts));
        assert_eq!(uint(entry, "incomplete"), Some(l.incomplete));
        let e2e = entry.get("e2e").expect("e2e histogram");
        assert_eq!(uint(e2e, "count"), Some(l.e2e.count()));
        assert_eq!(uint(e2e, "min_ns"), l.e2e.min());
        assert_eq!(uint(e2e, "max_ns"), l.e2e.max());
    }
    assert!(
        latency.aggregate().delivered > 0,
        "busy run delivers frames"
    );
}

#[test]
fn report_with_metrics_round_trips_through_json() {
    let mut sim = Simulator::new(busy_cfg(5));
    sim.attach_sink(Box::new(MetricsSink::new()));
    let report = sim.run(DURATION);
    let metrics = report.metrics.as_ref().expect("metrics section");

    let back = reparse(&report.to_json());
    assert_eq!(uint(&back, "duration_ns"), Some(report.duration.as_nanos()));
    assert_eq!(uint(&back, "events"), Some(report.events));
    let links = back.get("links").and_then(Json::as_arr).expect("links");
    assert_eq!(links.len(), report.links.len());
    for (entry, (&(src, dst), l)) in links.iter().zip(&report.links) {
        assert_eq!(uint(entry, "src"), Some(src.0 as u64));
        assert_eq!(uint(entry, "dst"), Some(dst.0 as u64));
        assert_eq!(uint(entry, "delivered_bytes"), Some(l.delivered_bytes));
    }
    let section = back.get("metrics").expect("metrics key");
    assert_eq!(section, &metrics.to_json());
    let nodes = section.get("nodes").and_then(Json::as_arr).expect("nodes");
    assert_eq!(nodes.len(), metrics.nodes.len());
    for (entry, (node, m)) in nodes.iter().zip(&metrics.nodes) {
        assert_eq!(uint(entry, "node"), Some(node.0 as u64));
        let busy: Vec<u64> = entry
            .get("airtime_busy_ns")
            .and_then(Json::as_arr)
            .expect("airtime buckets")
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(busy, m.airtime_busy_ns);
    }

    // A report without the section writes `"metrics": null`.
    let bare = Simulator::new(busy_cfg(5)).run(DURATION);
    let back = reparse(&bare.to_json());
    assert_eq!(back.get("metrics"), Some(&Json::Null));
    assert_eq!(uint(&back, "events"), Some(bare.events));
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
    let missing = unemitted(events.iter().map(|event| {
        assert_eq!(
            VARIANTS[variant_slot(event)],
            event.type_name(),
            "VARIANTS is out of order"
        );
        event.type_name()
    }));
    assert!(missing.is_empty(), "no run emits {missing:?}");
}

/// The index of `event`'s variant in [`VARIANTS`]. The match is
/// exhaustive, so a new variant does not compile until it is listed
/// here, and then [`every_event_variant_is_emitted`] asks that some run
/// emits it.
fn variant_slot(event: &SimEvent) -> usize {
    match event {
        SimEvent::TxBegin { .. } => 0,
        SimEvent::TxEnd { .. } => 1,
        SimEvent::Capture { .. } => 2,
        SimEvent::HazardDrop { .. } => 3,
        SimEvent::RxResolved { .. } => 4,
        SimEvent::CsBusy { .. } => 5,
        SimEvent::CsIdle { .. } => 6,
        SimEvent::Enqueue { .. } => 7,
        SimEvent::Dequeue { .. } => 8,
        SimEvent::BackoffDraw { .. } => 9,
        SimEvent::Defer { .. } => 10,
        SimEvent::Resume { .. } => 11,
        SimEvent::AckTimeout { .. } => 12,
        SimEvent::Retry { .. } => 13,
        SimEvent::Delivered { .. } => 14,
        SimEvent::FrameQueued { .. } => 15,
        SimEvent::FrameTx { .. } => 16,
        SimEvent::FrameAcked { .. } => 17,
        SimEvent::FrameDropped { .. } => 18,
        SimEvent::HeaderHeard { .. } => 19,
        SimEvent::EtOpportunity { .. } => 20,
        SimEvent::EtAbandon { .. } => 21,
        SimEvent::ConcurrentTx { .. } => 22,
        SimEvent::Adapt { .. } => 23,
    }
}
