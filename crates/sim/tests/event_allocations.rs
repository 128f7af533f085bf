//! Heap allocations per simulated event, held exactly on three small
//! fixed workloads:
//!
//! * a saturated co-channel cell: two CO-MAP APs with in-band headers,
//!   eight saturated uplinks each (the benchmark's hall, shrunk);
//! * the exposed-terminal testbed of Figs. 1 and 8 under CO-MAP;
//! * a 60-node mobile campus: six AP clusters, two-way CBR, every client
//!   moving, one in eight roaming across the campus.
//!
//! The count covers the run alone (`Simulator::run`), not the set-up.
//! It is the same in debug and release builds: the debug ledger audit
//! reuses one buffer sized at construction, the debug audit of left-out
//! `Sense` notes allocates nothing, and the work queue that holds those
//! notes is sized at construction. A change that moves a count
//! updates its constant here, like `EXPECT_BUDGET`; the static workloads
//! must also stay at no more than one allocation per ten events.

#![expect(
    clippy::disallowed_macros,
    reason = "the allocation counter must be per thread: the harness runs tests in parallel"
)]

mod counting_alloc;

use std::f64::consts::TAU;

use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::rate::RateController;
use comap_sim::Simulator;
use counting_alloc::allocations;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `cfg` for `duration` and returns `(events, allocations)`, the
/// allocations counted from the start of the run to the report.
fn run_counted(cfg: SimConfig, duration: SimDuration) -> (u64, u64) {
    let sim = Simulator::new(cfg);
    let before = allocations();
    let report = sim.run(duration);
    let allocated = allocations() - before;
    (report.events, allocated)
}

/// Two co-channel APs 25 m apart, each with eight saturated uplink
/// clients on a 10 m ring, CO-MAP with in-band headers at 11 Mbps.
fn saturated_cell() -> SimConfig {
    let mut cfg = SimConfig::testbed(1);
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..MacFeatures::COMAP
    };
    cfg.inband_header = true;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    for a in 0..2 {
        let home = Position::new(25.0 * f64::from(a), 0.0);
        let ap = cfg.add_node(NodeSpec::ap(format!("AP{a}"), home));
        for k in 0..8 {
            let theta = TAU * f64::from(k) / 8.0;
            let at = home.offset(10.0 * theta.cos(), 10.0 * theta.sin());
            let c = cfg.add_node(NodeSpec::client(format!("C{a}.{k}"), at));
            cfg.add_flow(c, ap, Traffic::Saturated);
        }
    }
    cfg
}

/// The exposed-terminal testbed with C2 28 m from AP1, inside the
/// exposed region, under CO-MAP.
fn et_testbed() -> SimConfig {
    let mut cfg = SimConfig::testbed(3);
    cfg.default_features = MacFeatures::COMAP;
    cfg.protocol.t_cs = Dbm::new(-89.0);
    cfg.rate_controller = RateController::IdealSinr {
        margin: Db::new(4.0),
    };
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(0.0, 0.0)));
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(28.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    cfg
}

/// Six AP clusters on a 700 m square, nine clients each 5–30 m from
/// their AP with two-way 200 kbps CBR; each client moves every ~40 ms,
/// within its cell or, one in eight, anywhere on the campus.
fn mobile_campus() -> SimConfig {
    let mut cfg = SimConfig::testbed(5);
    cfg.default_features = MacFeatures {
        discovery_header: false,
        ..MacFeatures::COMAP
    };
    cfg.inband_header = true;
    cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
    let side = 700.0;
    let mut rng = StdRng::seed_from_u64(60);
    let homes: Vec<Position> = (0..6)
        .map(|_| Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let aps: Vec<_> = homes
        .iter()
        .enumerate()
        .map(|(i, &p)| cfg.add_node(NodeSpec::ap(format!("AP{i}"), p)))
        .collect();
    for i in 0..54 {
        let home = homes[i % 6];
        let near = |rng: &mut StdRng| {
            let (r, theta) = (rng.gen_range(5.0..30.0), rng.gen_range(0.0..TAU));
            home.offset(r * f64::cos(theta), r * f64::sin(theta))
        };
        let mut spec = NodeSpec::client(format!("C{i}"), near(&mut rng));
        for step in 1..=4u64 {
            let to = if i % 8 == 7 {
                Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            } else {
                near(&mut rng)
            };
            let at = SimDuration::from_micros(step * 40_000 + rng.gen_range(0u64..10_000));
            spec = spec.with_move(at, to);
        }
        let c = cfg.add_node(spec);
        cfg.add_flow(c, aps[i % 6], Traffic::Cbr { bps: 2.0e5 });
        cfg.add_flow(aps[i % 6], c, Traffic::Cbr { bps: 2.0e5 });
    }
    cfg
}

/// One workload's pinned run: its events and the run's allocations.
struct Budget {
    name: &'static str,
    events: u64,
    allocations: u64,
}

/// Runs `cfg` and holds its events and allocations to `budget`, and,
/// when `static_ceiling`, its allocations to at most one per ten events.
fn check(cfg: SimConfig, duration: SimDuration, budget: &Budget, static_ceiling: bool) {
    let (events, allocated) = run_counted(cfg, duration);
    let per_event = allocated as f64 / events as f64;
    assert_eq!(events, budget.events, "{}: events", budget.name);
    if static_ceiling {
        assert!(
            10 * allocated <= events,
            "{}: {allocated} allocations over {events} events ({per_event:.3} per event), \
             at most 0.1 per event allowed",
            budget.name
        );
    }
    assert_eq!(
        allocated, budget.allocations,
        "{}: the run made {allocated} allocations over {events} events ({per_event:.3} per event)",
        budget.name
    );
}

const CELL: Budget = Budget {
    name: "saturated cell",
    events: 4441,
    allocations: 168,
};

const ET: Budget = Budget {
    name: "ET testbed",
    events: 1690,
    allocations: 20,
};

const CAMPUS: Budget = Budget {
    name: "mobile campus",
    events: 5217,
    allocations: 722,
};

#[test]
fn saturated_cell_allocates_at_most_once_per_ten_events() {
    check(saturated_cell(), SimDuration::from_millis(200), &CELL, true);
}

#[test]
fn et_testbed_allocates_at_most_once_per_ten_events() {
    check(et_testbed(), SimDuration::from_millis(300), &ET, true);
}

#[test]
fn mobile_campus_allocations_are_pinned() {
    check(
        mobile_campus(),
        SimDuration::from_millis(200),
        &CAMPUS,
        false,
    );
}
