//! Simulator-level invariants: determinism, conservation, and
//! feature-independent sanity over randomized topologies.

use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};

use comap_sim::rate::RateController;
use comap_sim::sim::Simulator;
use proptest::prelude::*;

/// A random small network: one AP per cluster, clients scattered nearby.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        1u64..1000,
        2usize..6,
        prop::collection::vec(((-60.0..60.0f64), (-60.0..60.0f64)), 1..5),
        any::<bool>(),
    )
        .prop_map(|(seed, _n, client_offsets, comap)| {
            let mut cfg = SimConfig::testbed(seed);
            cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
            cfg.default_features = if comap {
                MacFeatures::COMAP
            } else {
                MacFeatures::DCF
            };
            let ap = cfg.add_node(NodeSpec::ap("AP", Position::new(0.0, 0.0)));
            for (i, (x, y)) in client_offsets.into_iter().enumerate() {
                let c = cfg.add_node(NodeSpec::client(format!("C{i}"), Position::new(x, y)));
                cfg.add_flow(c, ap, Traffic::Saturated);
            }
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same configuration ⇒ bit-identical outcome.
    #[test]
    fn identical_runs_are_identical(cfg in arb_config()) {
        let d = SimDuration::from_millis(80);
        let a = Simulator::new(cfg.clone()).run(d);
        let b = Simulator::new(cfg).run(d);
        prop_assert_eq!(a.links, b.links);
        prop_assert_eq!(a.nodes, b.nodes);
        prop_assert_eq!(a.events, b.events);
    }

    /// Conservation: a link never delivers more frames than it attempted,
    /// and goodput never exceeds the PHY rate.
    #[test]
    fn deliveries_are_conserved(cfg in arb_config()) {
        let report = Simulator::new(cfg).run(SimDuration::from_millis(120));
        for (&(src, dst), stats) in &report.links {
            prop_assert!(
                stats.delivered_frames <= stats.data_tx,
                "{src}->{dst}: {stats:?}"
            );
            let g = report.link_goodput_bps(src, dst);
            prop_assert!(g <= Rate::Mbps11.bits_per_second());
        }
    }

    /// Airtime accounting never exceeds wall time (half-duplex radios).
    #[test]
    fn airtime_is_bounded(cfg in arb_config()) {
        let d = SimDuration::from_millis(120);
        let report = Simulator::new(cfg).run(d);
        for (node, stats) in &report.nodes {
            prop_assert!(
                stats.airtime <= d,
                "{node} transmitted {} of {d}",
                stats.airtime
            );
        }
    }
}

#[test]
fn mobility_redraws_geometry_and_reports() {
    // C2 starts right next to AP1 (a genuine contender) and walks far
    // away mid-run: the C1→AP1 link must speed up afterwards, and the
    // move must produce exactly one position report under CO-MAP.
    let build = |features: MacFeatures| {
        let mut cfg = SimConfig::testbed(9);
        cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
        cfg.default_features = features;
        let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
        let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(8.0, 0.0)));
        // A second client of the same AP: a full contender until it
        // walks out of the cell mid-run.
        let c2 = cfg.add_node(
            NodeSpec::client("C2", Position::new(10.0, 0.0))
                .with_move(SimDuration::from_millis(400), Position::new(300.0, 0.0)),
        );
        cfg.add_flow(c1, ap1, Traffic::Saturated);
        cfg.add_flow(c2, ap1, Traffic::Saturated);
        (cfg, c1, ap1)
    };

    // Split the run around the move to compare before/after.
    let (cfg, c1, ap1) = build(MacFeatures::DCF);
    let before = Simulator::new(cfg).run(SimDuration::from_millis(390));
    let (cfg, _, _) = build(MacFeatures::DCF);
    let whole = Simulator::new(cfg).run(SimDuration::from_millis(1200));
    let g_before = before.link_goodput_bps(c1, ap1);
    let g_whole = whole.link_goodput_bps(c1, ap1);
    assert!(
        g_whole > 1.3 * g_before,
        "the link must speed up once the contender leaves: {g_before} -> {g_whole}"
    );

    // CO-MAP: exactly one report for one long move.
    let (cfg, _, _) = build(MacFeatures::COMAP);
    let report = Simulator::new(cfg).run(SimDuration::from_millis(1200));
    assert_eq!(report.position_reports, 1);

    // A sub-threshold wiggle produces none.
    let mut cfg = SimConfig::testbed(9);
    cfg.default_features = MacFeatures::COMAP;
    let a = cfg.add_node(
        NodeSpec::client("A", Position::new(0.0, 0.0))
            .with_move(SimDuration::from_millis(100), Position::new(1.0, 0.0)),
    );
    let b = cfg.add_node(NodeSpec::ap("B", Position::new(8.0, 0.0)));
    cfg.add_flow(a, b, Traffic::Saturated);
    let report = Simulator::new(cfg).run(SimDuration::from_millis(300));
    assert_eq!(
        report.position_reports, 0,
        "1 m wiggle is below the 5 m threshold"
    );
}
