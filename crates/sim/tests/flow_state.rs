//! The MAC keeps its sender state per flow, as the paper installs it
//! per link: an AP serving two clients adapts, and escalates its
//! backoff, for each client's link on its own.

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::{NodeId, SimEvent, SimReport, Simulator, TimelineSink};

const DURATION: SimDuration = SimDuration::from_millis(200);

/// A CO-MAP AP at the origin with saturated downlink flows to two
/// clients. Returns the config and the ids `(ap, c1, c2)`.
fn downlink(c1: NodeSpec, c2: NodeSpec) -> (SimConfig, [NodeId; 3]) {
    let mut cfg = SimConfig::testbed(5);
    cfg.default_features = MacFeatures::COMAP;
    let ap = cfg.add_node(NodeSpec::ap("AP", Position::ORIGIN));
    let c1 = cfg.add_node(c1);
    let c2 = cfg.add_node(c2);
    cfg.add_flow(ap, c1, Traffic::Saturated);
    cfg.add_flow(ap, c2, Traffic::Saturated);
    (cfg, [ap, c1, c2])
}

fn observed_run(cfg: SimConfig) -> (SimReport, Vec<(SimTime, SimEvent)>) {
    let (timeline, handle) = TimelineSink::new();
    let mut sim = Simulator::new(cfg);
    sim.attach_sink(Box::new(timeline));
    let report = sim.run(DURATION);
    (report, handle.events())
}

#[test]
fn a_position_report_re_adapts_only_the_movers_flow() {
    let moved_at = SimDuration::from_millis(100);
    let (cfg, [ap, c1, c2]) = downlink(
        NodeSpec::client("C1", Position::new(8.0, 0.0))
            .with_move(moved_at, Position::new(14.0, 0.0)),
        NodeSpec::client("C2", Position::new(-8.0, 0.0)),
    );
    let (report, events) = observed_run(cfg);
    assert_eq!(report.position_reports, 1, "the move is reported");

    let moved = SimTime::ZERO + moved_at;
    let adapts = |after_move: bool| -> Vec<NodeId> {
        events
            .iter()
            .filter(|&&(t, _)| (t >= moved) == after_move)
            .filter_map(|(_, e)| match *e {
                SimEvent::Adapt { node, dst, .. } if node == ap => Some(dst),
                _ => None,
            })
            .collect()
    };
    let mut before = adapts(false);
    before.sort();
    assert_eq!(before, vec![c1, c2], "each flow adapts once at start-up");
    assert_eq!(
        adapts(true),
        vec![c1],
        "only C1's flow is re-censused; C2's keeps its setting"
    );
}

/// The times of the AP's `Adapt` events for its flow to `client`.
fn adapts_toward(events: &[(SimTime, SimEvent)], ap: NodeId, client: NodeId) -> Vec<SimTime> {
    events
        .iter()
        .filter(
            |(_, e)| matches!(*e, SimEvent::Adapt { node, dst, .. } if node == ap && dst == client),
        )
        .map(|&(t, _)| t)
        .collect()
}

#[test]
fn a_client_walking_past_the_threshold_re_adapts_its_downlink() {
    let moved_at = SimDuration::from_millis(100);
    let moved = SimTime::ZERO + moved_at;
    let run = |to: Position| {
        let mut cfg = SimConfig::testbed(5);
        cfg.default_features = MacFeatures::COMAP;
        let ap = cfg.add_node(NodeSpec::ap("AP", Position::ORIGIN));
        let client =
            cfg.add_node(NodeSpec::client("C", Position::new(8.0, 0.0)).with_move(moved_at, to));
        cfg.add_flow(ap, client, Traffic::Saturated);
        let (report, events) = observed_run(cfg);
        (report.position_reports, adapts_toward(&events, ap, client))
    };

    // 6 m is past the 5 m mobility threshold: the report is accepted
    // and the AP censuses the link afresh.
    let (reports, adapts) = run(Position::new(14.0, 0.0));
    assert_eq!(reports, 1, "the walk is reported");
    assert_eq!(
        adapts.len(),
        2,
        "adapted at start-up and after the move: {adapts:?}"
    );
    assert!(adapts[0] < moved && adapts[1] >= moved, "{adapts:?}");

    // A 2 m step stays under the threshold: nothing is reported, and the
    // installed setting stands.
    let (reports, adapts) = run(Position::new(10.0, 0.0));
    assert_eq!(reports, 0, "the step is absorbed");
    assert_eq!(adapts.len(), 1, "adapted once, at start-up: {adapts:?}");
}

#[test]
fn ack_timeouts_escalate_only_the_unanswered_flow() {
    let (cfg, [ap, near, far]) = downlink(
        NodeSpec::client("near", Position::new(8.0, 0.0)),
        NodeSpec::client("far", Position::new(2_000.0, 0.0)),
    );
    let (_, events) = observed_run(cfg);
    let timeouts_to = |to: NodeId| {
        events
            .iter()
            .filter(|(_, e)| matches!(*e, SimEvent::AckTimeout { node, dst } if node == ap && dst == to))
            .count()
    };
    assert_eq!(timeouts_to(near), 0, "the near client answers every frame");
    assert!(
        timeouts_to(far) > 0,
        "frames to the far client go unanswered"
    );

    // Each of the AP's backoff draws serves the frame it transmits next.
    let mut stages: Vec<(NodeId, u32)> = Vec::new();
    let mut drawn = None;
    for (_, e) in &events {
        match *e {
            SimEvent::BackoffDraw { node, stage, .. } if node == ap => drawn = Some(stage),
            SimEvent::FrameTx { node, dst, .. } if node == ap => {
                if let Some(stage) = drawn.take() {
                    stages.push((dst, stage));
                }
            }
            _ => {}
        }
    }
    let stages_to = |dst: NodeId| -> Vec<u32> {
        stages
            .iter()
            .filter(|&&(d, _)| d == dst)
            .map(|&(_, s)| s)
            .collect()
    };
    let near_stages = stages_to(near);
    let far_stages = stages_to(far);
    assert!(!near_stages.is_empty() && !far_stages.is_empty());
    assert!(
        near_stages.iter().all(|&s| s == 0),
        "the answered flow never escalates: {near_stages:?}"
    );
    assert!(
        far_stages.iter().skip(1).all(|&s| s > 0),
        "every frame after the first unanswered one escalates: {far_stages:?}"
    );
}
