//! The medium's memory is linear in `n·k`, not `n²`: its link cache
//! holds one row per node of the links that node's transmissions read,
//! so a large sparse field costs a few kilobytes per node however many
//! nodes it has. A dense `n·n` table of 16-byte records would need
//! 61 MiB at the 2,000 nodes below.

#![expect(
    clippy::disallowed_macros,
    reason = "the allocation counter must be per thread: the harness runs tests in parallel"
)]

mod counting_alloc;

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::{Dbm, Meters};
use comap_radio::Position;
use comap_sim::frame::{Frame, FrameBody, NodeId};
use comap_sim::medium::{Medium, MediumBackend, DEFAULT_POSITION_QUANTUM_M};
use counting_alloc::{live_bytes, peak_bytes, reset_peak};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nodes of the field.
const NODES: usize = 2_000;

/// Side of the square field in meters: about 40 candidate receivers per
/// node under the testbed channel, whose relevance range is ~573 m.
const SIDE_M: f64 = 12_000.0;

/// The medium's peak heap over construction, one frame from every node,
/// a few moves and a second round of frames. A dense link table alone
/// is 16 · 2000² B = 61 MiB.
const PEAK_BUDGET_BYTES: i64 = 4 << 20;

fn data(src: usize, dst: usize) -> Frame {
    Frame {
        src: NodeId(src),
        dst: NodeId(dst),
        body: FrameBody::Data {
            seq: 0,
            payload_bytes: 500,
            retry: false,
        },
        rate: Rate::Mbps11,
    }
}

/// One frame from every node, back to back from `*t` on.
fn transmit_from_every_node(m: &mut Medium, t: &mut u64) {
    for src in 0..NODES {
        let (start, end) = (*t, *t + 100);
        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let (tx, _) = m.begin(data(src, (src + 1) % NODES), at(start), at(end));
        m.end(tx, at(end));
        *t = end;
    }
}

#[test]
fn medium_peak_heap_is_linear_in_nodes_times_candidates() {
    let mut rng = StdRng::seed_from_u64(2_000);
    let positions: Vec<Position> = (0..NODES)
        .map(|_| Position::new(rng.gen_range(0.0..SIDE_M), rng.gen_range(0.0..SIDE_M)))
        .collect();

    let before = live_bytes();
    reset_peak();
    let mut m = Medium::with_quantization(
        LogNormalShadowing::testbed(Dbm::new(0.0)),
        positions,
        true,
        StdRng::seed_from_u64(7),
        MediumBackend::Culled,
        Meters::new(DEFAULT_POSITION_QUANTUM_M),
    );
    let mut t = 0;
    transmit_from_every_node(&mut m, &mut t);
    for node in (0..NODES).step_by(97) {
        m.set_position(NodeId(node), Position::new(SIDE_M / 2.0, node as f64));
    }
    transmit_from_every_node(&mut m, &mut t);
    let peak = peak_bytes() - before;

    let c = m.counters();
    assert!(
        c.cache_recomputes > 10 * NODES as u64,
        "the field is too sparse to fill the rows: {c:?}"
    );
    assert!(c.moves_applied > 0, "{c:?}");
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "the medium peaked at {peak} B over {NODES} nodes; at most {PEAK_BUDGET_BYTES} B \
         are allowed ({:.0} B per node)",
        peak as f64 / NODES as f64
    );
}
