//! Property-based tests of the CO-MAP protocol invariants.

use std::f64::consts::TAU;
use std::num::NonZeroU32;
use std::sync::OnceLock;

use comap_core::adapt::{payload_candidates, AdaptationTable, CW_CANDIDATES};
use comap_core::config::{CENSUS_INTERFERENCE_PRR, HIDDEN_PROFILE, HT_MISS_PROBABILITY};
use comap_core::cooccurrence::CoOccurrenceMap;
use comap_core::hidden::HtCensusEngine;
use comap_core::model::{DcfModel, HiddenProfile, ModelInput};
use comap_core::validate::ConcurrencyValidator;
use comap_core::{HtCensus, NeighborClass, NeighborTable, Protocol, ProtocolConfig};
use comap_mac::timing::PhyTiming;
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Meters};
use comap_radio::Position;
use proptest::prelude::*;

/// The testbed preset's adaptation table (DSSS, 11 Mbps, 1500 B cap,
/// windows adapted), built once for every case.
fn testbed_table() -> &'static AdaptationTable {
    static TABLE: OnceLock<AdaptationTable> = OnceLock::new();
    TABLE.get_or_init(|| ProtocolConfig::testbed().adaptation_table())
}

/// Hidden terminals that are stock 802.11 DCF stations: `CW_min = 31`,
/// 1000-byte frames.
const DCF_STATION: HiddenProfile = HiddenProfile {
    cw: 31,
    payload_bytes: 1000,
};

fn arb_pos() -> impl Strategy<Value = Position> {
    ((-150.0..150.0f64), (-150.0..150.0f64)).prop_map(|(x, y)| Position::new(x, y))
}

/// The census channels: the testbed office, the NS-2 floor, and the
/// testbed with shadowing switched off (eqs. (3)/(4) become steps).
fn census_config(channel: u8) -> ProtocolConfig {
    match channel {
        0 => ProtocolConfig::testbed(),
        1 => ProtocolConfig::large_scale(),
        _ => {
            let mut cfg = ProtocolConfig::testbed();
            cfg.channel = LogNormalShadowing::from_friis(cfg.tx_power, 2.9, Db::ZERO);
            cfg
        }
    }
}

/// The census of `s → r` with every neighbor through `classify`: the
/// reference the pre-filtered census must reproduce.
fn brute_force_census(
    engine: &HtCensusEngine,
    table: &NeighborTable<u32>,
    (s_addr, s): (u32, Position),
    (r_addr, r): (u32, Position),
) -> HtCensus<u32> {
    let mut census = HtCensus {
        hidden: Vec::new(),
        contenders: Vec::new(),
        independent: Vec::new(),
    };
    for (addr, entry) in table.iter() {
        if addr == s_addr || addr == r_addr {
            continue;
        }
        match engine.classify(s, r, entry.position) {
            NeighborClass::Hidden => census.hidden.push(addr),
            NeighborClass::Contender => census.contenders.push(addr),
            NeighborClass::Independent => census.independent.push(addr),
        }
    }
    census
}

proptest! {
    /// The concurrency decision is a pure function of geometry: swapping
    /// the two links swaps the directional PRRs.
    #[test]
    fn validation_is_geometrically_symmetric(
        a in arb_pos(), b in arb_pos(), c in arb_pos(), d in arb_pos(),
    ) {
        let cfg = ProtocolConfig::testbed();
        let v = ConcurrencyValidator::new(cfg.reception());
        let p = v.validate(a, b, c, d);
        let q = v.validate(c, d, a, b);
        let (p1, p2, q1, q2) = (p.prr_ongoing, p.prr_mine, q.prr_ongoing, q.prr_mine);
        prop_assert!((p1 - q2).abs() < 1e-9 && (p2 - q1).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p1) && (0.0..=1.0).contains(&p2));
    }

    /// Model probabilities stay probabilities over the whole parameter
    /// grid, and goodput is finite and non-negative.
    #[test]
    fn model_is_well_behaved(
        cw in 1u32..2048,
        contenders in 0usize..20,
        hidden in 0usize..10,
        payload in 50u32..2400,
        hetero in any::<bool>(),
    ) {
        let input = ModelInput {
            phy: PhyTiming::dsss(),
            rate: Rate::Mbps11,
            cw: NonZeroU32::new(cw).unwrap(),
            contenders,
            hidden,
            payload_bytes: payload,
            hidden_profile: hetero.then_some(DCF_STATION),
        };
        let stats = DcfModel::slot_stats(&input);
        for v in [stats.tau, stats.p_tr, stats.p_s, stats.p_s_i] {
            prop_assert!((0.0..=1.0).contains(&v), "{stats:?}");
        }
        let s = DcfModel::per_node_goodput(&input);
        prop_assert!(s.is_finite() && s >= 0.0);
        prop_assert!(s <= Rate::Mbps11.bits_per_second());
    }

    /// Adding hidden terminals never increases modeled goodput.
    #[test]
    fn model_monotone_in_hidden_terminals(
        cw in prop::sample::select(CW_CANDIDATES.to_vec()),
        contenders in 0usize..10,
        payload in 100u32..2200,
        hidden in 0usize..8,
    ) {
        let mk = |h: usize| ModelInput {
            phy: PhyTiming::dsss(),
            rate: Rate::Mbps11,
            cw,
            contenders,
            hidden: h,
            payload_bytes: payload,
            hidden_profile: Some(DCF_STATION),
        };
        let a = DcfModel::per_node_goodput(&mk(hidden));
        let b = DcfModel::per_node_goodput(&mk(hidden + 1));
        prop_assert!(b <= a + 1e-9);
    }

    /// The adaptation table's stored entry beats (or ties) every
    /// candidate it was allowed to choose from.
    #[test]
    fn adaptation_entry_is_argmax(h in 0usize..4, c in 0usize..4) {
        let s = testbed_table().setting(h, c);
        for &cw in &CW_CANDIDATES {
            for payload in payload_candidates().filter(|&p| p <= 1500) {
                let g = DcfModel::per_node_goodput(&ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw,
                    contenders: c,
                    hidden: h,
                    payload_bytes: payload,
                    hidden_profile: Some(HIDDEN_PROFILE),
                });
                prop_assert!(g <= s.predicted_goodput + 1e-9);
            }
        }
    }

    /// The stamped co-occurrence map answers exactly like an eager
    /// reference map that purges every entry involving a node whenever
    /// the table accepts that node's report: same verdict on every
    /// lookup, same `(hits, misses)` after every step. Reports jump far
    /// (accepted) or wiggle below the mobility threshold (absorbed once
    /// the node is known), and hit link ends and receivers alike.
    #[test]
    fn cooccurrence_map_semantics(
        ops in prop::collection::vec((0u8..4, 0u32..6, 0u32..6, 0u32..6, any::<bool>()), 0..160),
    ) {
        let mut table = NeighborTable::new();
        let mut map: CoOccurrenceMap<u32> = CoOccurrenceMap::new();
        let mut eager: std::collections::BTreeMap<((u32, u32), u32), bool> =
            std::collections::BTreeMap::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut jumps = 0.0;
        for (op, a, b, r, flag) in ops {
            match op {
                0 => {
                    if a != b {
                        map.record(&table, (a, b), r, flag);
                        eager.insert(((a, b), r), flag);
                    }
                }
                1 => {
                    if a != b {
                        let expected = eager.get(&((a, b), r)).copied();
                        hits += u64::from(expected.is_some());
                        misses += u64::from(expected.is_none());
                        prop_assert_eq!(map.lookup(&table, (a, b), r), expected);
                    }
                }
                2 => {
                    let report = match table.position(a) {
                        Some(at) if !flag => at.offset(1.0, 0.0),
                        _ => {
                            jumps += 50.0;
                            Position::new(jumps, 0.0)
                        }
                    };
                    if table.update(a, report) {
                        eager.retain(|&((s, d), rx), _| s != a && d != a && rx != a);
                    }
                }
                _ => {
                    map.clear();
                    eager.clear();
                }
            }
            prop_assert_eq!(map.stats(), (hits, misses));
            prop_assert_eq!(map.is_empty(&table), eager.is_empty());
        }
    }

    /// Deciding by distance changes no verdict: the census equals the
    /// brute-force one list for list and in order, and `tx_setting` is
    /// the table entry for the brute-force counts. Links run from 0.5 m
    /// to 10 km, log-uniformly, like a roamer's link to an AP across the
    /// campus. Neighbors are placed uniformly, near the link and over a
    /// ±10 km field, and within 0.1 % of the six radii that matter: the
    /// exact interference and carrier-sense ranges, the pre-filter radii
    /// just outside them, and the sure-zone radii (`exact² / prefilter`)
    /// just inside them.
    #[test]
    fn prefiltered_census_equals_brute_force(
        channel in 0u8..3,
        link in (-0.3..4.0f64, 0.0..TAU),
        near in prop::collection::vec((-400.0..400.0f64, -400.0..400.0f64), 0..60),
        far in prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 0..30),
        boundary in prop::collection::vec((0usize..6, any::<bool>(), 0.0..TAU), 0..60),
    ) {
        let cfg = census_config(channel);
        let engine = HtCensusEngine::new(cfg.reception(), cfg.t_cs);
        let (log_len, angle) = link;
        let len = 10f64.powf(log_len);
        let s = Position::new(3.0, -2.0);
        let r = s.offset(len * angle.cos(), len * angle.sin());
        let d = Meters::new(len);
        let model = cfg.reception();
        let (prefilter_interference, prefilter_cs) = engine.prefilter_radii(d);
        let exact_interference = model.interference_range(d, CENSUS_INTERFERENCE_PRR);
        let exact_cs = model.cs_range_for_miss_probability(cfg.t_cs, HT_MISS_PROBABILITY);
        let sure = |exact: Meters, prefilter: Meters| {
            Meters::new(exact.value() * exact.value() / prefilter.value())
        };
        let radii = [
            (r, exact_interference),
            (s, exact_cs),
            (r, prefilter_interference),
            (s, prefilter_cs),
            (r, sure(exact_interference, prefilter_interference)),
            (s, sure(exact_cs, prefilter_cs)),
        ];

        let mut proto = Protocol::new(0u32, cfg);
        proto.set_own_position(s);
        proto.on_position_report(1, r);
        let mut next = 2u32;
        let mut place = |proto: &mut Protocol<u32>, pos: Position| {
            proto.on_position_report(next, pos);
            next += 1;
        };
        for (x, y) in near.into_iter().chain(far) {
            place(&mut proto, Position::new(x, y));
        }
        for (which, outside, theta) in boundary {
            let (centre, radius) = radii[which];
            let rho = radius.value() * if outside { 1.0 + 1e-3 } else { 1.0 - 1e-3 };
            place(&mut proto, centre.offset(rho * theta.cos(), rho * theta.sin()));
        }

        let brute = brute_force_census(&engine, proto.neighbors(), (0, s), (1, r));
        prop_assert_eq!(
            proto.tx_setting(1).unwrap(),
            proto.adaptation().setting(brute.n_ht(), brute.n_contenders())
        );
        prop_assert_eq!(proto.ht_census(1).unwrap(), brute);
    }

    /// A protocol queried through a shared position directory answers
    /// exactly like one fed the same reports into its private table,
    /// though nobody tells it about a neighbor's move: its verdicts are
    /// stamped with the directory's report counts, as the private
    /// protocol's are with its own table's. Reports land both above and
    /// below the mobility threshold, and queries name unknown nodes and
    /// the node itself too. The shared protocol holds no position, its
    /// own included: the node's own fixes go through the directory's
    /// acceptance, which alone decides whether the private protocol
    /// hears of them and the shared one drops its verdicts.
    #[test]
    fn shared_directory_answers_like_a_private_table(
        channel in 0u8..3,
        start in prop::collection::vec(arb_pos(), 5..6),
        ops in prop::collection::vec(
            (0u8..6, 0u32..7, 0u32..7, 0u32..7, any::<bool>(), arb_pos()),
            0..150,
        ),
    ) {
        let cfg = census_config(channel);
        let mut private = Protocol::new(0u32, cfg);
        let mut shared = Protocol::new(0u32, cfg);
        let mut directory = NeighborTable::new();
        // Nodes 0..5 report at start-up; 5 and 6 never do.
        for (addr, &pos) in (0u32..).zip(&start) {
            directory.insert(addr, pos);
            private.on_position_report(addr, pos);
        }
        for (op, a, b, r, flag, pos) in ops {
            match op {
                // A neighbor's report: a jump to `pos`, or a step of at
                // most ~7 m from its last accepted position.
                0 => {
                    let report = match directory.position(a) {
                        Some(at) if !flag => at.offset(pos.x / 20.0, pos.y / 20.0),
                        _ => pos,
                    };
                    if a == 0 {
                        if directory.update(0, report) {
                            private.on_position_report(0, report);
                            shared.own_report_accepted();
                        }
                    } else {
                        let accepted = directory.update(a, report);
                        prop_assert_eq!(private.on_position_report(a, report), accepted);
                    }
                }
                1 => prop_assert_eq!(private.tx_setting(r), shared.tx_setting_in(&directory, r)),
                2 => prop_assert_eq!(
                    private.concurrency_decision((a, b), r),
                    shared.concurrency_decision_in(&directory, (a, b), r)
                ),
                3 | 4 => prop_assert_eq!(
                    private.concurrency_allowed((a, b), r),
                    shared.concurrency_allowed_in(&directory, (a, b), r)
                ),
                _ => {
                    private.record_concurrency_outcome((a, b), r, flag);
                    shared.record_concurrency_outcome_in(&directory, (a, b), r, flag);
                }
            }
            prop_assert_eq!(private.cooccurrence().stats(), shared.cooccurrence().stats());
            prop_assert!(private
                .cooccurrence()
                .iter(private.neighbors())
                .eq(shared.cooccurrence().iter(&directory)));
        }
        prop_assert!(shared.neighbors().is_empty());
    }
}
