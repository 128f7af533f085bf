//! Property tests of the spatial-culling layer (vendored proptest):
//!
//! 1. **Coverage** — the grid-neighbour gather (∪ overflow list) is a
//!    superset of the brute-force set of receivers above the relevance
//!    floor, for random topologies and after arbitrary movement.
//! 2. **Exactness** — the culled and exhaustive backends stay
//!    bit-identical (`sensed()` and every notification) under arbitrary
//!    interleavings of `begin` / `end` / `set_position`.
//! 3. **Overflow hygiene** — after arbitrary movement, every node's
//!    overflow list equals a from-scratch recomputation of its
//!    membership predicate: moving a node out of overflow range leaves
//!    no stale up-fade entry behind in anyone's list.
//! 4. **One receiver list** — under either backend, the receivers a
//!    transmission visits are exactly the brute-force relevant set, in
//!    ascending order; the backends differ only in the candidates they
//!    count.

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::units::{Dbm, Meters};
use comap_radio::Position;
use comap_sim::frame::{Frame, FrameBody, NodeId};
use comap_sim::medium::{Medium, MediumBackend, DEFAULT_POSITION_QUANTUM_M};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn at(micros: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(micros)
}

fn data(src: usize, dst: usize) -> Frame {
    Frame {
        src: NodeId(src),
        dst: NodeId(dst),
        body: FrameBody::Data {
            seq: 0,
            payload_bytes: 500,
            retry: false,
        },
        rate: comap_radio::rates::Rate::Mbps11,
    }
}

/// Random positions in a field large enough that the testbed channel
/// (relevance range ≈ 570 m) genuinely culls some links.
fn positions(seed: u64, n: usize, side: f64) -> Vec<Position> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE11);
    (0..n)
        .map(|_| Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn pair(seed: u64, n: usize, side: f64) -> (Medium, Medium) {
    let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
    let pos = positions(seed, n, side);
    let ex = Medium::with_quantization(
        chan,
        pos.clone(),
        true,
        StdRng::seed_from_u64(seed),
        MediumBackend::Exhaustive,
        Meters::new(DEFAULT_POSITION_QUANTUM_M),
    );
    let cu = Medium::with_quantization(
        chan,
        pos,
        true,
        StdRng::seed_from_u64(seed),
        MediumBackend::Culled,
        Meters::new(DEFAULT_POSITION_QUANTUM_M),
    );
    (ex, cu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Candidate set ⊇ relevant set, initially and after every move.
    #[test]
    fn grid_candidates_cover_the_relevant_set(
        seed in 0u64..10_000,
        moves in prop::collection::vec(
            (0usize..10, 0.0f64..2400.0, 0.0f64..2400.0), 0..16),
    ) {
        let n = 6 + (seed % 5) as usize;
        let (_, mut m) = pair(seed, n, 2000.0);
        for (step, (node, x, y)) in moves.into_iter().enumerate() {
            for src in 0..n {
                let cand = m.candidate_receivers(NodeId(src));
                for r in m.relevant_receivers(NodeId(src)) {
                    prop_assert!(
                        cand.contains(&r),
                        "step {}: node {} relevant receiver {} missing from candidates {:?}",
                        step, src, r, cand
                    );
                }
            }
            m.set_position(NodeId(node % n), Position::new(x, y));
        }
    }

    /// A backend only chooses candidates: under either backend, the
    /// receivers `begin` visits (one `Sense` each, ascending) are exactly
    /// `relevant_receivers`, the candidates counted are exactly
    /// `candidate_receivers`, and every visited receiver is one counted
    /// lookup.
    #[test]
    fn receiver_list_is_the_relevant_set_under_both_backends(
        seed in 0u64..10_000,
        moves in prop::collection::vec(
            (0usize..10, 0.0f64..2400.0, 0.0f64..2400.0), 0..10),
    ) {
        let n = 6 + (seed % 5) as usize;
        let (ex, cu) = pair(seed, n, 2000.0);
        for mut m in [ex, cu] {
            let backend = m.backend();
            let mut t = 0u64;
            for (step, (node, x, y)) in moves.iter().copied().enumerate() {
                m.set_position(NodeId(node % n), Position::new(x, y));
                let src = step % n;
                let relevant = m.relevant_receivers(NodeId(src));
                let candidates = m.candidate_receivers(NodeId(src));
                let before = m.counters();
                let (tx, notes) = m.begin(data(src, (src + 1) % n), at(t), at(t + 50));
                let after = m.counters();
                let sensed: Vec<NodeId> = notes
                    .iter()
                    .filter(|(_, ev)| matches!(ev, comap_sim::mac::MacEvent::Sense))
                    .map(|&(node, _)| node)
                    .collect();
                prop_assert_eq!(&sensed, &relevant, "{:?} step {}: receiver list", backend, step);
                prop_assert_eq!(
                    after.cull_candidates - before.cull_candidates,
                    candidates.len() as u64,
                    "{:?} step {}: candidates counted", backend, step
                );
                prop_assert_eq!(after.cull_relevant - before.cull_relevant, relevant.len() as u64);
                prop_assert_eq!(after.cache_lookups - before.cache_lookups, relevant.len() as u64);
                m.end(tx, at(t + 50));
                t += 50;
            }
        }
    }

    /// Overflow lists stay exact under movement: each list equals the
    /// brute-force set of beyond-range-but-relevant peers, so a mover
    /// that leaves overflow range is purged from every other node's
    /// list (the satellite bug: only the mover's own list was cleared).
    #[test]
    fn overflow_lists_have_no_stale_entries_after_moves(
        seed in 0u64..10_000,
        moves in prop::collection::vec(
            // Spread targets over several relevance ranges so nodes
            // genuinely enter and leave overflow reach of each other.
            (0usize..10, 0.0f64..4200.0, 0.0f64..4200.0), 1..14),
    ) {
        let n = 6 + (seed % 5) as usize;
        let (_, mut m) = pair(seed, n, 3600.0);
        let range = m.relevance_range().value();
        for (step, (node, x, y)) in moves.into_iter().enumerate() {
            m.set_position(NodeId(node % n), Position::new(x, y));
            for a in 0..n {
                let expected: Vec<NodeId> = (0..n)
                    .filter(|&b| {
                        b != a
                            && m.position(NodeId(a))
                                .distance_to(m.position(NodeId(b)))
                                .value()
                                > range
                            && m.relevant_receivers(NodeId(a)).contains(&NodeId(b))
                    })
                    .map(NodeId)
                    .collect();
                prop_assert_eq!(
                    m.overflow_peers(NodeId(a)),
                    expected,
                    "step {}: node {} overflow list diverged from brute force",
                    step, a
                );
            }
        }
    }

    /// Backends agree bit for bit on sensed power and every notification
    /// under arbitrary begin/end/set_position interleavings.
    #[test]
    fn backends_are_bit_identical_under_interleavings(
        seed in 0u64..10_000,
        ops in prop::collection::vec(
            (0u8..3, 0usize..16, 0.0f64..1500.0, 0.0f64..1500.0), 1..40),
    ) {
        let n = 5 + (seed % 6) as usize;
        let (mut ex, mut cu) = pair(seed, n, 1200.0);
        let mut t: u64 = 0;
        // (exhaustive id, culled id, scheduled end in µs)
        let mut active: Vec<(comap_sim::frame::TxId, comap_sim::frame::TxId, u64)> = Vec::new();
        for (op, idx, x, y) in ops {
            match op {
                0 => {
                    let src = idx % n;
                    if !ex.is_transmitting(NodeId(src)) {
                        let dst = (src + 1) % n;
                        let dur = 40 + (idx as u64 % 5) * 37;
                        let (txe, ne) = ex.begin(data(src, dst), at(t), at(t + dur));
                        let (txc, nc) = cu.begin(data(src, dst), at(t), at(t + dur));
                        prop_assert_eq!(ne, nc, "begin notes diverged");
                        active.push((txe, txc, t + dur));
                    }
                }
                1 => {
                    // End the earliest-scheduled active transmission.
                    if let Some(i) = active
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, a)| a.2)
                        .map(|(i, _)| i)
                    {
                        let (txe, txc, end_t) = active.swap_remove(i);
                        t = t.max(end_t);
                        let ne = ex.end(txe, at(end_t));
                        let nc = cu.end(txc, at(end_t));
                        prop_assert_eq!(ne, nc, "end notes diverged");
                    }
                }
                _ => {
                    let node = NodeId(idx % n);
                    ex.set_position(node, Position::new(x, y));
                    cu.set_position(node, Position::new(x, y));
                }
            }
            t += 13;
            for k in 0..n {
                prop_assert_eq!(
                    ex.sensed(NodeId(k)).value().to_bits(),
                    cu.sensed(NodeId(k)).value().to_bits(),
                    "sensed({}) diverged", k
                );
            }
        }
        // Drain the air so every lock resolves through both backends.
        active.sort_by_key(|a| a.2);
        for (txe, txc, end_t) in active {
            let ne = ex.end(txe, at(end_t));
            let nc = cu.end(txc, at(end_t));
            prop_assert_eq!(ne, nc, "drain notes diverged");
        }
        prop_assert_eq!(ex.stats(), cu.stats());
    }
}
