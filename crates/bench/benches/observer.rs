//! Observability overhead benchmarks, guarding the layer's zero-cost
//! promise: with no sink attached the medium's `begin()`/`end()` hot
//! path and the full simulator loop must run at their pre-observer
//! speed (every emission site but the report-counted ones is gated on
//! one bool), and even a no-op sink should cost only the event
//! construction and virtual dispatch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use comap_experiments::topology::et_testbed;
use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm};
use comap_radio::Position;
use comap_sim::config::MacFeatures;
use comap_sim::frame::{Frame, FrameBody, NodeId};
use comap_sim::medium::Medium;
use comap_sim::{NoopSink, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grid(n: usize) -> Vec<Position> {
    (0..n)
        .map(|i| Position::new(9.0 * (i % 4) as f64, 9.0 * (i / 4) as f64))
        .collect()
}

fn data(src: usize, dst: usize) -> Frame {
    Frame {
        src: NodeId(src),
        dst: NodeId(dst),
        body: FrameBody::Data {
            seq: 0,
            payload_bytes: 1000,
            retry: false,
        },
        rate: Rate::Mbps11,
    }
}

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// One begin/end cycle per iteration, as in `benches/medium.rs`, with
/// observation either left disabled (the default) or enabled and
/// drained each cycle the way the simulator does.
fn cycle_bench(c: &mut Criterion, name: &str, observed: bool) {
    let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::new(4.0));
    let mut m = Medium::new(chan, grid(10), true, StdRng::seed_from_u64(7));
    if observed {
        m.enable_observation(Dbm::new(-80.0));
    }
    let mut t = 0u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            let src = (t / 100 % 10) as usize;
            let (tx, _) = m.begin(data(src, (src + 1) % 10), at(t), at(t + 100));
            let mac_events = m.end(tx, at(t + 100));
            if observed {
                m.drain_events().for_each(|e| {
                    black_box(e);
                });
            }
            t += 100;
            black_box(mac_events)
        })
    });
}

fn sim_bench(c: &mut Criterion, name: &str, with_sink: bool) {
    c.bench_function(name, |b| {
        b.iter(|| {
            let (cfg, _) = et_testbed(26.0, MacFeatures::COMAP, 3);
            let mut sim = Simulator::new(cfg);
            if with_sink {
                sim.attach_sink(Box::new(NoopSink));
            }
            black_box(sim.run(SimDuration::from_millis(20)))
        })
    });
}

fn bench_observer(c: &mut Criterion) {
    cycle_bench(c, "medium_cycle_observer_disabled", false);
    cycle_bench(c, "medium_cycle_noop_drain", true);
    sim_bench(c, "sim_20ms_no_sink", false);
    sim_bench(c, "sim_20ms_noop_sink", true);
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
    targets = bench_observer
}
criterion_main!(benches);
