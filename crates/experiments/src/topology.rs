//! Topology builders for every evaluation scenario.
//!
//! Geometries follow the paper's figures:
//!
//! * **ET testbed** (Figs. 1 and 8): `AP1 — 36 m — AP2`, client C1 8 m
//!   left of AP1, client C2 swept along the AP1–AP2 axis.
//! * **HT testbed** (Fig. 2): C1 at 0, AP1 at 15 m, C2 at 37 m (hidden
//!   from C1), AP2 at 49 m.
//! * **Fig. 9 testbed**: the ET geometry plus three clients of AP2 placed
//!   as contender / hidden terminal / independent node.
//! * **Model-validation cell** (Fig. 7): a saturated cell of five
//!   contenders 20 m from their AP, with 0–5 mutually hidden interferers
//!   on a 32 m arc behind the AP. Runs over a σ = 0 channel — the
//!   analytical model's ideal-channel assumption.
//! * **Large-scale floor** (Fig. 10): three co-channel APs 60 m apart,
//!   nine random clients, two-way CBR.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use comap_core::config::ProtocolConfig;
use comap_mac::backoff::BackoffPolicy;
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::Db;
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::frame::NodeId;
use comap_sim::rate::RateController;

/// Node handles of the ET testbed.
#[derive(Debug, Clone, Copy)]
pub struct EtTestbed {
    /// Client of AP1 (the measured link's sender).
    pub c1: NodeId,
    /// AP1 (the measured link's receiver).
    pub ap1: NodeId,
    /// The movable client of AP2.
    pub c2: NodeId,
    /// AP2.
    pub ap2: NodeId,
}

/// Builds the Fig. 1 / Fig. 8 exposed-terminal testbed with C2 at
/// `c2_x` meters from AP1 along the AP1→AP2 axis.
pub fn et_testbed(c2_x: f64, features: MacFeatures, seed: u64) -> (SimConfig, EtTestbed) {
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = features;
    // The ET floor (line-of-sight corridor between the two APs) has a
    // more sensitive effective carrier sense than the partition-heavy HT
    // floor: −89 dBm puts the mean CS range at ≈ 49 m, leaving ≈ 4.5 dB
    // of margin over the σ ≈ 3.7 dB static shadow at the far end of the
    // 20–34 m exposed region, so C1 reliably defers to C2 as in Fig. 1.
    // (−86 dBm leaves only ≈ 1.5 dB there — serialization becomes a
    // per-seed coin flip and the exposed-terminal effect washes out.)
    cfg.protocol.t_cs = comap_radio::units::Dbm::new(-89.0);
    cfg.rate_controller = RateController::IdealSinr {
        margin: Db::new(4.0),
    };
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(0.0, 0.0)));
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(c2_x, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    (cfg, EtTestbed { c1, ap1, c2, ap2 })
}

/// Node handles of the HT testbed.
#[derive(Debug, Clone, Copy)]
pub struct HtTestbed {
    /// Sender of the measured link.
    pub c1: NodeId,
    /// Receiver of the measured link.
    pub ap1: NodeId,
    /// The hidden terminal (when present).
    pub c2: Option<NodeId>,
}

/// Builds the Fig. 2 hidden-terminal testbed with `n_ht` hidden clients
/// (0–3). `payload` sets the frame size of the *measured* link (the swept
/// variable of Fig. 2), while hidden terminals keep nominal 1000-byte
/// frames — the interferer's traffic is not under our control. Hidden
/// flows run a TCP-throttled CBR stand-in (the paper's interferers run
/// TCP, which backs off under the collision losses it suffers).
pub fn ht_testbed(
    payload: u32,
    n_ht: usize,
    features: MacFeatures,
    seed: u64,
) -> (SimConfig, HtTestbed) {
    assert!(
        n_ht <= 3,
        "the HT testbed supports at most 3 hidden clients"
    );
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = features;
    cfg.payload_bytes = 1000;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)).with_payload(payload));
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(15.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    let mut c2 = None;
    if n_ht > 0 {
        let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(49.0, 0.0)));
        let slots = [
            Position::new(37.0, 0.0),
            Position::new(38.0, 6.0),
            Position::new(39.0, -6.0),
        ];
        for (i, &pos) in slots.iter().take(n_ht).enumerate() {
            let h = cfg.add_node(NodeSpec::client(format!("C{}", i + 2), pos));
            cfg.add_flow(h, ap2, Traffic::Cbr { bps: 1.5e6 });
            if i == 0 {
                c2 = Some(h);
            }
        }
    }
    (cfg, HtTestbed { c1, ap1, c2 })
}

/// Node handles of the model-validation cell.
#[derive(Debug, Clone)]
pub struct ValidationCell {
    /// The cell's AP (receiver of every contending link).
    pub ap: NodeId,
    /// The five contending clients.
    pub clients: Vec<NodeId>,
    /// The hidden interferers.
    pub hidden: Vec<NodeId>,
}

/// Builds the Fig. 7 validation cell: `contenders` saturated clients
/// clustered 20 m from the AP (mutually within carrier sense), plus
/// `n_ht` hidden interferers on a 32 m arc behind the AP, each outside
/// everyone's deterministic CS range. The channel is σ = 0 and every node
/// runs a constant contention window `w` with `payload`-byte frames —
/// the analytical model's exact assumptions.
pub fn validation_cell(
    contenders: usize,
    n_ht: usize,
    w: u32,
    payload: u32,
    seed: u64,
) -> (SimConfig, ValidationCell) {
    let mut protocol = ProtocolConfig::testbed();
    protocol.channel = LogNormalShadowing::from_friis(protocol.tx_power, 2.9, Db::ZERO);
    let mut cfg = SimConfig::with_protocol(seed, protocol);
    cfg.default_features = MacFeatures::DCF;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    cfg.backoff = BackoffPolicy::Constant { w };
    cfg.payload_bytes = payload;
    // The analytical model's world is energy-detection carrier sense;
    // preamble CS would let hidden terminals freeze on overheard ACKs.
    cfg.preamble_cs = false;

    let ap = cfg.add_node(NodeSpec::ap("AP", Position::new(0.0, 0.0)));
    let mut clients = Vec::new();
    for i in 0..contenders {
        // Tight cluster near (20, 0): everyone senses everyone.
        let pos = Position::new(20.0 + (i as f64) * 0.8, (i as f64) * 0.8 - 1.6);
        let c = cfg.add_node(NodeSpec::client(format!("C{i}"), pos));
        cfg.add_flow(c, ap, Traffic::Saturated);
        clients.push(c);
    }
    // Hidden interferers: 32 m from the AP, fanned across the far side so
    // they are ≥ 24 m apart (deterministic CS range ≈ 23.8 m) and ≥ 30 m
    // from the client cluster.
    let angles = [112.5f64, 157.5, 202.5, 247.5, 292.5];
    let mut hidden = Vec::new();
    for (i, &deg) in angles.iter().take(n_ht).enumerate() {
        let rad = deg.to_radians();
        let pos = Position::new(32.0 * rad.cos(), 32.0 * rad.sin());
        let h = cfg.add_node(NodeSpec::client(format!("H{i}"), pos));
        // Each HT saturates toward its own remote sink, placed further
        // out on the same bearing so it never interacts with the cell.
        let sink = cfg.add_node(NodeSpec::ap(
            format!("S{i}"),
            Position::new(44.0 * rad.cos(), 44.0 * rad.sin()),
        ));
        cfg.add_flow(h, sink, Traffic::Saturated);
        hidden.push(h);
    }
    (
        cfg,
        ValidationCell {
            ap,
            clients,
            hidden,
        },
    )
}

/// Node handles of a Fig. 9 topology.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Topology {
    /// Sender of the measured link.
    pub c1: NodeId,
    /// Receiver of the measured link.
    pub ap1: NodeId,
    /// AP2's clients (roles vary with the configuration index).
    pub clients: [NodeId; 3],
    /// AP2.
    pub ap2: NodeId,
}

/// Builds one of the ten Fig. 9 hidden-terminal topologies: C1 → AP1
/// measured link, with the three clients of AP2 assigned one of three
/// roles each — contender, hidden terminal or independent. The ten
/// configurations are exactly the ten role multisets of three clients
/// ("we can totally configure 10 different network topologies by changing
/// the positions of these three clients"), so the hidden-terminal count
/// seen by C1 ranges from 0 to 3. `index` selects the configuration.
pub fn fig9_topology(index: usize, features: MacFeatures, seed: u64) -> (SimConfig, Fig9Topology) {
    let mut cfg = SimConfig::testbed(seed);
    // The HT experiments model the paper's method-1 discovery header (a
    // 4-byte FCS inserted into the MAC header, Section V): the link
    // announcement is decoded in-band from ordinary data frames instead
    // of costing a separate packet. (The testbed's reported 11 Mbps
    // goodput implies a high-rate PHY whose separate header would cost a
    // few percent; our long-preamble DSSS substrate would overstate that
    // cost several-fold.)
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..features
    };
    cfg.inband_header = features.any();
    cfg.rate_controller = RateController::IdealSinr {
        margin: Db::new(6.0),
    };

    // The measured link: C1 at the origin, AP1 18 m away; AP2 sits 36 m
    // beyond AP1 (the paper's inter-AP distance).
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(18.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(54.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);

    // Role placements relative to the C1→AP1 link, chosen from the
    // testbed channel's own geometry (α = 2.9, σ = 4, T_cs = −80 dBm):
    // contenders sit 12–17 m from C1 (reliable carrier sense), hidden
    // terminals 42–46 m from C1 (beyond preamble decoding of its 11 Mbps
    // frames) yet only 24–28 m from AP1 (their frames corrupt it),
    // independents beyond 75 m.
    let contender_slots = [
        Position::new(14.0, 4.0),
        Position::new(12.0, -6.0),
        Position::new(16.0, 0.0),
        Position::new(11.0, 7.0),
        Position::new(15.0, -4.0),
    ];
    let hidden_slots = [
        Position::new(42.0, 3.0),
        Position::new(44.0, -4.0),
        Position::new(43.0, 0.0),
        Position::new(46.0, 5.0),
        Position::new(45.0, -6.0),
    ];
    let independent_slots = [
        Position::new(78.0, 8.0),
        Position::new(80.0, -6.0),
        Position::new(76.0, 0.0),
        Position::new(79.0, 10.0),
        Position::new(82.0, -4.0),
    ];
    // The ten multisets of three roles (C = contender, H = hidden,
    // I = independent).
    const ROLES: [[u8; 3]; 10] = [
        [0, 0, 0],
        [0, 0, 1],
        [0, 0, 2],
        [0, 1, 1],
        [0, 1, 2],
        [0, 2, 2],
        [1, 1, 1],
        [1, 1, 2],
        [1, 2, 2],
        [2, 2, 2],
    ];
    let roles = ROLES[index % 10];
    let mut clients = [c1; 3];
    for (j, &role) in roles.iter().enumerate() {
        let pos = match role {
            0 => contender_slots[j],
            1 => hidden_slots[j],
            _ => independent_slots[j],
        };
        let c = cfg.add_node(NodeSpec::client(format!("C{}", j + 2), pos));
        // Contenders are fellow clients of AP1 (they share its cell and
        // carrier-sense C1); hidden and independent nodes belong to AP2.
        // Hidden nodes run the TCP-throttled CBR stand-in (see
        // `ht_testbed`) so their airtime matches a loss-limited flow.
        let (ap, traffic) = match role {
            0 => (ap1, Traffic::Saturated),
            1 => (ap2, Traffic::Cbr { bps: 1.5e6 }),
            _ => (ap2, Traffic::Saturated),
        };
        cfg.add_flow(c, ap, traffic);
        clients[j] = c;
    }
    (
        cfg,
        Fig9Topology {
            c1,
            ap1,
            clients,
            ap2,
        },
    )
}

/// Clients of one large-scale floor; each carries an uplink and a
/// downlink flow, so a floor has twice as many flows.
pub(crate) const LARGE_SCALE_CLIENTS: usize = 9;

/// Handles of the large-scale floor.
#[derive(Debug, Clone)]
pub struct LargeScale {
    /// The three APs.
    pub aps: Vec<NodeId>,
    /// `(client, its AP)` associations.
    pub associations: Vec<(NodeId, NodeId)>,
}

/// Builds one Fig. 10 large-scale topology: three co-channel APs 60 m
/// apart, nine clients placed uniformly at random within 30 m of some AP
/// (associating with the nearest), two-way CBR per client.
///
/// **Deviation from Table I:** the offered load is 1.2 Mbps per direction
/// instead of 3 Mbps. At 3 Mbps every one of the three mutually-coupled
/// cells is driven far past saturation under our capture-enabled DCF
/// baseline, and no scheduling policy can add capacity — see
/// EXPERIMENTS.md for the measured load sensitivity.
/// `topology_seed` fixes the placement; `seed` drives the run; `error_m`
/// is the position-error radius fed to CO-MAP.
pub fn large_scale(
    topology_seed: u64,
    seed: u64,
    features: MacFeatures,
    error_m: f64,
) -> (SimConfig, LargeScale) {
    let mut cfg = SimConfig::large_scale(seed);
    // The NS-2 implementation uses the paper's method 1 header (a 4-byte
    // FCS inserted into the MAC header) rather than a separate packet:
    // announcements are decoded in-band from ordinary data frames.
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..features
    };
    cfg.inband_header = features.any();
    cfg.rate_controller = RateController::Fixed(Rate::Mbps6);
    cfg.position_error = comap_radio::units::Meters::new(error_m);

    let ap_positions = [
        Position::new(0.0, 0.0),
        Position::new(60.0, 0.0),
        Position::new(120.0, 0.0),
    ];
    let aps: Vec<NodeId> = ap_positions
        .iter()
        .enumerate()
        .map(|(i, &p)| cfg.add_node(NodeSpec::ap(format!("AP{i}"), p)))
        .collect();

    let mut rng = StdRng::seed_from_u64(topology_seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let mut associations = Vec::new();
    for i in 0..LARGE_SCALE_CLIENTS {
        let pos = loop {
            let x = rng.gen_range(-30.0..150.0);
            let y = rng.gen_range(-30.0..30.0);
            let p = Position::new(x, y);
            let (dist, _) = nearest_ap(&ap_positions, p);
            // Keep clients in sensible coverage: 5–30 m from their AP.
            if (5.0..=30.0).contains(&dist) {
                break p;
            }
        };
        let (_, ap_idx) = nearest_ap(&ap_positions, pos);
        let c = cfg.add_node(NodeSpec::client(format!("C{i}"), pos));
        let ap = aps[ap_idx];
        cfg.add_flow(c, ap, Traffic::Cbr { bps: 1.2e6 });
        cfg.add_flow(ap, c, Traffic::Cbr { bps: 1.2e6 });
        associations.push((c, ap));
    }
    (cfg, LargeScale { aps, associations })
}

/// Node handles of the scalability campus.
#[derive(Debug, Clone)]
pub struct ScaleCampus {
    /// The access points, one per cell cluster.
    pub aps: Vec<NodeId>,
    /// `(client, ap)` association pairs.
    pub associations: Vec<(NodeId, NodeId)>,
    /// Side of the square campus, meters.
    pub side_m: f64,
}

/// Builds the paper-§VI scalability topology: `n` nodes total (one AP
/// per ten nodes, the rest clients) spread over a square campus whose
/// area grows linearly with `n`, so node density — and therefore local
/// contention — stays constant while the *global* node count scales.
/// Clients sit 5–30 m from their AP (the testbed channel's viable
/// communication range) and run two-way CBR with it; every client gets
/// random-waypoint-style movement, approximated as step moves every
/// ~80 ms: most wander within their cell, one in eight roams to a
/// random point on the campus (crossing grid cells and refreshing
/// overflow lists).
///
/// The geometry is what the spatial-culling layer is for: clusters
/// several relevance ranges apart contribute exactly nothing to each
/// other, so `Medium::begin`/`end` under the culled backend touch a
/// bounded neighbourhood instead of all `n` nodes.
pub fn scale_campus(
    n: usize,
    topology_seed: u64,
    features: MacFeatures,
    seed: u64,
) -> (SimConfig, ScaleCampus) {
    assert!(n >= 10, "the campus needs at least one AP cluster");
    let mut cfg = SimConfig::testbed(seed);
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..features
    };
    cfg.inband_header = features.any();
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);

    // Constant density: one node per (280 m)² patch keeps clusters a
    // few relevance ranges (≈ 570 m on the testbed channel) apart.
    let side = (n as f64).sqrt() * 280.0;
    let n_aps = n / 10;
    let mut rng = StdRng::seed_from_u64(topology_seed.wrapping_mul(0x9E37_79B9).wrapping_add(41));

    let mut ap_positions = Vec::with_capacity(n_aps);
    for _ in 0..n_aps {
        ap_positions.push(Position::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
    }
    let aps: Vec<NodeId> = ap_positions
        .iter()
        .enumerate()
        .map(|(i, &p)| cfg.add_node(NodeSpec::ap(format!("AP{i}"), p)))
        .collect();

    let mut associations = Vec::new();
    for i in 0..(n - n_aps) {
        // Attach each client to a round-robin AP, 5–30 m away.
        let ap_idx = i % n_aps;
        let home = ap_positions[ap_idx];
        let client_pos = |rng: &mut StdRng| loop {
            let r = rng.gen_range(5.0..30.0);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let p = home.offset(r * theta.cos(), r * theta.sin());
            if (0.0..=side).contains(&p.x) && (0.0..=side).contains(&p.y) {
                break p;
            }
        };
        let pos = client_pos(&mut rng);
        let mut spec = NodeSpec::client(format!("C{i}"), pos);
        // Random-waypoint step motion: a waypoint every ~80 ms.
        let roamer = i % 8 == 7;
        for step in 1..=4u64 {
            let to = if roamer {
                Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            } else {
                client_pos(&mut rng)
            };
            let jitter = rng.gen_range(0u64..20_000);
            spec = spec.with_move(
                comap_mac::time::SimDuration::from_micros(step * 80_000 + jitter),
                to,
            );
        }
        let c = cfg.add_node(spec);
        let ap = aps[ap_idx];
        cfg.add_flow(c, ap, Traffic::Cbr { bps: 2.0e5 });
        cfg.add_flow(ap, c, Traffic::Cbr { bps: 2.0e5 });
        associations.push((c, ap));
    }
    (
        cfg,
        ScaleCampus {
            aps,
            associations,
            side_m: side,
        },
    )
}

#[expect(
    clippy::expect_used,
    reason = "callers pass the fixed AP grid, never an empty slice"
)]
fn nearest_ap(aps: &[Position], p: Position) -> (f64, usize) {
    aps.iter()
        .enumerate()
        .map(|(i, &a)| (a.distance_to(p).value(), i))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one AP")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn et_testbed_geometry() {
        let (cfg, ids) = et_testbed(26.0, MacFeatures::DCF, 1);
        assert_eq!(cfg.nodes.len(), 4);
        assert_eq!(cfg.nodes[ids.c2.0].position, Position::new(26.0, 0.0));
        assert_eq!(cfg.flows.len(), 2);
    }

    #[test]
    fn ht_testbed_with_and_without_ht() {
        let (cfg, ids) = ht_testbed(900, 1, MacFeatures::DCF, 1);
        assert!(ids.c2.is_some());
        assert_eq!(cfg.nodes.len(), 4);
        assert_eq!(cfg.nodes[ids.c1.0].payload, Some(900));
        let (cfg, ids) = ht_testbed(900, 0, MacFeatures::DCF, 1);
        assert!(ids.c2.is_none());
        assert_eq!(cfg.nodes.len(), 2);
        let (cfg, _) = ht_testbed(900, 3, MacFeatures::DCF, 1);
        assert_eq!(cfg.nodes.len(), 6);
    }

    #[test]
    fn validation_cell_is_mutually_consistent() {
        // Deterministic channel: contenders within CS of each other,
        // hidden nodes outside CS of every contender, pairwise hidden.
        let (cfg, cell) = validation_cell(5, 5, 63, 1000, 1);
        let cs_range = cfg
            .protocol
            .channel
            .range_for_threshold(cfg.protocol.t_cs)
            .value();
        let pos = |n: NodeId| cfg.nodes[n.0].position;
        for &a in &cell.clients {
            for &b in &cell.clients {
                if a != b {
                    assert!(
                        pos(a).distance_to(pos(b)).value() < cs_range,
                        "contenders must sense each other"
                    );
                }
            }
            for &h in &cell.hidden {
                assert!(
                    pos(a).distance_to(pos(h)).value() > cs_range,
                    "HT {h} must be hidden from client {a}"
                );
            }
        }
        for (i, &h1) in cell.hidden.iter().enumerate() {
            for &h2 in &cell.hidden[i + 1..] {
                assert!(
                    pos(h1).distance_to(pos(h2)).value() > cs_range,
                    "HTs must not sense each other"
                );
            }
        }
    }

    #[test]
    fn fig9_topologies_cover_all_role_mixes() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10 {
            let (cfg, t) = fig9_topology(i, MacFeatures::DCF, 1);
            let key = format!(
                "{:?}{:?}{:?}",
                cfg.nodes[t.clients[0].0].position,
                cfg.nodes[t.clients[1].0].position,
                cfg.nodes[t.clients[2].0].position
            );
            seen.insert(key);
        }
        assert_eq!(seen.len(), 10, "all ten configurations must differ");
    }

    #[test]
    fn large_scale_has_18_flows_and_valid_associations() {
        let (cfg, ls) = large_scale(3, 1, MacFeatures::COMAP, 10.0);
        assert_eq!(cfg.nodes.len(), 12);
        assert_eq!(cfg.flows.len(), 18);
        for &(c, ap) in &ls.associations {
            let d = cfg.nodes[c.0]
                .position
                .distance_to(cfg.nodes[ap.0].position)
                .value();
            assert!((5.0..=30.0).contains(&d), "client at {d} m from its AP");
        }
    }

    /// `IdealSinr` reads the MAC's unsnapped positions while the medium
    /// snaps them onto the position quantum, so the two agree only when
    /// every position the genie sees already lies on that grid.
    #[test]
    fn ideal_sinr_topologies_sit_on_the_position_quantum() {
        let mut configs: Vec<SimConfig> = crate::fig01::positions()
            .into_iter()
            .map(|x| et_testbed(x, MacFeatures::COMAP, 1).0)
            .collect();
        configs.extend((0..10).map(|i| fig9_topology(i, MacFeatures::COMAP, 1).0));
        configs.extend((0..=3).map(|n| ht_testbed(900, n, MacFeatures::COMAP, 1).0));
        configs.push(validation_cell(5, 5, 63, 1000, 1).0);
        configs.push(large_scale(3, 1, MacFeatures::COMAP, 10.0).0);
        configs.push(scale_campus(20, 1, MacFeatures::COMAP, 1).0);
        let mut checked = 0;
        for cfg in configs
            .iter()
            .filter(|c| matches!(c.rate_controller, RateController::IdealSinr { .. }))
        {
            assert_eq!(
                cfg.position_quantum.value(),
                1.0,
                "the grid check assumes the 1 m quantum"
            );
            for node in &cfg.nodes {
                let targets = node.moves.iter().map(|m| m.to);
                for p in std::iter::once(node.position).chain(targets) {
                    assert_eq!(
                        (p.x.round(), p.y.round()),
                        (p.x, p.y),
                        "{} at {p:?} is off the 1 m grid",
                        node.name
                    );
                }
            }
            checked += 1;
        }
        assert_eq!(checked, crate::fig01::positions().len() + 10);
    }

    #[test]
    fn large_scale_topologies_vary_with_seed() {
        let (a, _) = large_scale(1, 1, MacFeatures::DCF, 0.0);
        let (b, _) = large_scale(2, 1, MacFeatures::DCF, 0.0);
        assert_ne!(
            a.nodes.iter().map(|n| n.position).collect::<Vec<_>>(),
            b.nodes.iter().map(|n| n.position).collect::<Vec<_>>()
        );
    }
}
