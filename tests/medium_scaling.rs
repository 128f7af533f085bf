//! The culled medium's work per frame does not grow with the node count.
//!
//! `scale_campus` keeps node density constant as `n` grows, so a sender
//! has the same number of nodes within the relevance range at any size.
//! The culled backend enumerates the 3 × 3 grid neighbourhood plus the
//! overflow list as candidate receivers, and its cost per `begin` is
//! proportional to that count. This test drives `Medium` directly on the
//! positions of two campuses eight times apart in size and holds the
//! candidates per `begin` within [`MAX_GROWTH`] between them, before and
//! after a batch of moves. A candidate gather that degrades to all nodes
//! (or to a growing share of them) fails it without any wall clock.

use comap::experiments::topology::scale_campus;
use comap::mac::time::{SimDuration, SimTime};
use comap::radio::rates::Rate;
use comap::sim::config::MacFeatures;
use comap::sim::frame::{Frame, FrameBody, NodeId};
use comap::sim::medium::{Medium, MediumBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two campus sizes compared.
const SMALL: usize = 200;
const LARGE: usize = 1_600;

/// Largest allowed ratio of candidates per `begin`, large over small.
const MAX_GROWTH: f64 = 1.5;

fn at(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Sends one frame from every node, one at a time (so only one frame is
/// ever on the air and the debug ledger check stays O(n)), starting at
/// `*t`.
fn round(m: &mut Medium, n: usize, t: &mut u64) {
    for src in 0..n {
        let frame = Frame {
            src: NodeId(src),
            dst: NodeId((src + 1) % n),
            body: FrameBody::Data {
                seq: 0,
                payload_bytes: 1000,
                retry: false,
            },
            rate: Rate::Mbps11,
        };
        let (tx, _) = m.begin(frame, at(*t), at(*t + 100));
        m.end(tx, at(*t + 100));
        *t += 100;
    }
}

/// Candidate receivers per `begin` on the `n`-node campus: one round,
/// then every client's first move (in-cell wanderers and campus-wide
/// roamers alike), then a second round.
fn candidates_per_begin(n: usize) -> f64 {
    let (cfg, _) = scale_campus(n, 1, MacFeatures::COMAP, 1);
    let mut m = Medium::with_quantization(
        cfg.protocol.channel,
        cfg.nodes.iter().map(|s| s.position).collect(),
        cfg.capture,
        StdRng::seed_from_u64(1),
        MediumBackend::Culled,
        cfg.position_quantum,
    );
    let mut t = 0;
    round(&mut m, n, &mut t);
    for (i, node) in cfg.nodes.iter().enumerate() {
        if let Some(mv) = node.moves.first() {
            m.set_position(NodeId(i), mv.to);
        }
    }
    assert!(
        m.counters().moves_applied > 0,
        "{n} nodes: the batch moved no node"
    );
    round(&mut m, n, &mut t);
    m.counters().cull_candidates as f64 / (2 * n) as f64
}

#[test]
fn culled_candidates_per_frame_do_not_grow_with_n() {
    let small = candidates_per_begin(SMALL);
    let large = candidates_per_begin(LARGE);
    assert!(
        large <= MAX_GROWTH * small,
        "candidates per begin grew from {small:.1} at {SMALL} nodes to {large:.1} at {LARGE} \
         nodes, more than {MAX_GROWTH}x"
    );
}
