//! Protocol-layer benchmarks: the co-occurrence map's raison d'être is
//! replacing repeated eq. (3) computation with a table lookup, so the
//! cached and uncached paths are measured side by side, along with the
//! hidden-terminal census (on a small neighborhood and on a 1000-node
//! campus) and the offline adaptation-table build.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use comap_core::adapt::AdaptationTable;
use comap_core::{Protocol, ProtocolConfig};
use comap_experiments::topology::scale_campus;
use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;
use comap_radio::Position;
use comap_sim::config::MacFeatures;

/// A 12-node neighborhood shaped like the large-scale floor.
fn protocol_with_neighbors() -> Protocol<u32> {
    let mut p = Protocol::new(0, ProtocolConfig::testbed());
    p.set_own_position(Position::new(0.0, 0.0));
    for i in 1..12u32 {
        let angle = i as f64 * 0.55;
        let r = 10.0 + (i as f64) * 6.0;
        p.on_position_report(i, Position::new(r * angle.cos(), r * angle.sin()));
    }
    p
}

/// Client C0 of the 1000-node §VI campus with all 999 other nodes in
/// its private table: the same neighbourhood the shared position
/// directory gives every node of a `campus_mobile` run. Its AP, AP0, is
/// node 0.
fn campus_protocol() -> Protocol<usize> {
    let (cfg, _) = scale_campus(1000, 1, MacFeatures::COMAP, 1);
    let me = cfg.nodes.len() / 10;
    let mut p = Protocol::new(me, cfg.protocol);
    p.set_own_position(cfg.nodes[me].position);
    for (j, node) in cfg.nodes.iter().enumerate() {
        if j != me {
            p.on_position_report(j, node.position);
        }
    }
    p
}

fn bench_concurrency(c: &mut Criterion) {
    c.bench_function("concurrency_validate_uncached", |b| {
        let p = protocol_with_neighbors();
        b.iter(|| black_box(p.concurrency_decision((black_box(3), 4), 1).unwrap()))
    });
    c.bench_function("concurrency_cached_lookup", |b| {
        let mut p = protocol_with_neighbors();
        // Warm the cache.
        let _ = p.concurrency_allowed((3, 4), 1).unwrap();
        b.iter(|| black_box(p.concurrency_allowed((black_box(3), 4), 1).unwrap()))
    });
}

fn bench_census(c: &mut Criterion) {
    let p = protocol_with_neighbors();
    c.bench_function("ht_census_11_neighbors", |b| {
        b.iter(|| black_box(p.ht_census(black_box(1)).unwrap()))
    });
    c.bench_function("tx_setting", |b| {
        b.iter(|| black_box(p.tx_setting(black_box(1)).unwrap()))
    });
    let campus = campus_protocol();
    c.bench_function("ht_census_1000_neighbors", |b| {
        b.iter(|| black_box(campus.ht_census(black_box(0)).unwrap()))
    });
    c.bench_function("tx_setting_1000_neighbors", |b| {
        b.iter(|| black_box(campus.tx_setting(black_box(0)).unwrap()))
    });
}

fn bench_adaptation_precompute(c: &mut Criterion) {
    c.bench_function("adaptation_precompute_6x6", |b| {
        b.iter(|| {
            black_box(AdaptationTable::precompute(
                PhyTiming::dsss(),
                Rate::Mbps11,
                black_box(5),
                5,
            ))
        })
    });
}

fn bench_position_report(c: &mut Criterion) {
    c.bench_function("position_report_with_invalidation", |b| {
        let mut p = protocol_with_neighbors();
        let mut toggle = false;
        b.iter(|| {
            toggle = !toggle;
            let x = if toggle { 60.0 } else { 10.0 };
            black_box(p.on_position_report(5, Position::new(x, 0.0)))
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_concurrency, bench_census, bench_adaptation_precompute, bench_position_report
}
criterion_main!(benches);
