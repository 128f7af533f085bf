//! Long-run drift test for the medium's power ledger.
//!
//! The ledger invariant (see `medium.rs`): the ambient power a node
//! senses is a pure function of the set of transmissions currently on
//! the air. A floating-point running sum violates this after enough
//! add/remove churn — residue accumulates and `sensed()` starts to
//! depend on history. The quantized ledger must stay bit-identical to a
//! from-scratch recomputation over *millions* of begin/end cycles.

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::Rate;
use comap_radio::units::{Dbm, Meters};
use comap_radio::Position;
use comap_sim::frame::{Frame, FrameBody, NodeId};
use comap_sim::medium::{Medium, MediumBackend, DEFAULT_POSITION_QUANTUM_M};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
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

/// ≥ 10⁶ begin/end cycles on a 10-node shadowed medium, with up to five
/// transmissions overlapping at any instant so powers of very different
/// magnitudes are continually added and removed. The ledger must match a
/// from-scratch recomputation exactly — zero grains of divergence, not
/// merely a small tolerance — the whole way through and at the end.
#[test]
fn a_million_begin_end_cycles_leave_zero_ledger_drift() {
    const CYCLES: u64 = 1_000_000;
    const DEPTH: u64 = 5; // concurrent transmissions
    const STEP: u64 = 10; // µs between rounds

    // Shadowed channel (testbed σ = 4 dB): every frame draws fresh fast
    // fading, so the ledger sees varied magnitudes, the worst case for a
    // float accumulator.
    let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
    let positions: Vec<Position> = (0..10)
        .map(|i| Position::new(7.5 * i as f64, 11.0 * ((i * i) % 7) as f64))
        .collect();
    let mut m = Medium::with_quantization(
        chan,
        positions,
        true,
        StdRng::seed_from_u64(42),
        MediumBackend::Culled,
        Meters::new(DEFAULT_POSITION_QUANTUM_M),
    );

    let mut pending = std::collections::VecDeque::new();
    for round in 0..CYCLES {
        let now = round * STEP;
        if round >= DEPTH {
            let (tx, end) = pending.pop_front().expect("depth reached");
            assert_eq!(end, now, "test bookkeeping");
            m.end(tx, at(end));
        }
        // Sources cycle mod 10 with only DEPTH = 5 in flight, so a node
        // never begins while still transmitting.
        let src = (round % 10) as usize;
        let dst = ((round + 3) % 10) as usize;
        let end = now + DEPTH * STEP;
        let (tx, _) = m.begin(data(src, dst), at(now), at(end));
        pending.push_back((tx, end));

        // Spot-check the invariant along the way (every op is already
        // checked in debug builds; this keeps the test meaningful under
        // --release too).
        if round % 100_000 == 0 {
            assert_eq!(
                m.ledger_divergence_grains(),
                0,
                "ledger drifted from the active set at round {round}"
            );
        }
    }
    // Drain the in-flight tail and verify the final state exactly.
    while let Some((tx, end)) = pending.pop_front() {
        m.end(tx, at(end));
    }
    assert_eq!(m.active_count(), 0);
    assert_eq!(
        m.ledger_divergence_grains(),
        0,
        "ledger drifted after {CYCLES} cycles"
    );
    // With nothing on the air, every node senses exactly the noise floor
    // — bit-identical, which is precisely what a drifted float ledger
    // fails to restore.
    for n in 0..10 {
        assert_eq!(
            m.sensed(NodeId(n)),
            comap_radio::NOISE_FLOOR.to_milliwatts()
        );
    }
}
