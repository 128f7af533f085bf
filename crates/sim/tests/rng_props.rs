//! Property tests of the counter-keyed draw discipline (vendored
//! proptest) — the statistical half of the PR that retired the
//! sequential RNG (DESIGN.md §11):
//!
//! 1. **Collision freedom** — `keyed_state` is injective over random
//!    `(seed, tx, rx, counter)` grids: no two distinct keys share a
//!    stream state, so no two draws can silently alias.
//! 2. **Order independence** — permuting the receiver sweep, or
//!    pre-warming the link cache before `begin()`, changes no per-link
//!    value: every draw is a pure function of its key.
//! 3. **Statistical sanity** — `normal_from_state` has standard-normal
//!    mean/σ within tolerance at 10⁵ draws with clamped ±6σ tails
//!    counted, `uniform_from_state` is uniform on `[0, 1)`, and
//!    `CounterRng` backoff slots are uniform over the window.

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::stream::{
    keyed_state, link_key, normal_from_state, uniform_from_state, CounterRng, NORMAL_CLAMP_SIGMA,
};
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

/// Fisher–Yates permutation of `0..n` derived from `seed` — proptest
/// picks the seed, the permutation itself is deterministic.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_5EED);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No two distinct `(tx, rx, counter)` keys under the same seed —
    /// nor the same key under two different seeds — share a stream
    /// state. A collision would make two supposedly independent draws
    /// byte-identical forever.
    #[test]
    fn keyed_states_are_collision_free_over_grids(
        seed in 0u64..1_000_000,
        txs in 1u32..9,
        rxs in 1u32..9,
        ctrs in 1u64..40,
    ) {
        let mut states = Vec::new();
        for s in [seed, seed ^ 1] {
            for tx in 0..txs {
                for rx in 0..rxs {
                    for c in 0..ctrs {
                        states.push(keyed_state(s, link_key(tx, rx), c));
                    }
                }
            }
        }
        let total = states.len();
        states.sort_unstable();
        states.dedup();
        prop_assert_eq!(states.len(), total, "keyed_state collided on a grid");
    }

    /// Visiting the receiver set in any permutation reads the same
    /// per-link fade and hazard values: the draws depend only on the
    /// key, never on visitation order.
    #[test]
    fn draws_are_independent_of_sweep_order(
        seed in 0u64..1_000_000,
        perm_seed in 0u64..1_000_000,
        n in 4usize..24,
        frame_ctr in 0u64..10_000,
    ) {
        let tx = 0u32;
        let ascending: Vec<(f64, f64)> = (0..n)
            .map(|rx| {
                let ident = link_key(tx, rx as u32);
                (
                    normal_from_state(keyed_state(seed, ident, frame_ctr)),
                    uniform_from_state(keyed_state(seed ^ 0xDEAD, ident, frame_ctr)),
                )
            })
            .collect();
        let mut permuted = vec![(0.0, 0.0); n];
        for rx in permutation(perm_seed, n) {
            let ident = link_key(tx, rx as u32);
            permuted[rx] = (
                normal_from_state(keyed_state(seed, ident, frame_ctr)),
                uniform_from_state(keyed_state(seed ^ 0xDEAD, ident, frame_ctr)),
            );
        }
        prop_assert_eq!(ascending, permuted);
    }

    /// Backend-level order independence: pre-warming the link cache
    /// (eager fills, in permuted node order) before `begin()` leaves
    /// every receiver's sensed power bit-identical to the lazy run.
    #[test]
    fn warmed_and_lazy_fills_sense_identically(
        seed in 0u64..10_000,
        perm_seed in 0u64..10_000,
        src in 0usize..8,
    ) {
        let n = 8;
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let mut pos_rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE22);
        let positions: Vec<Position> = (0..n)
            .map(|_| Position::new(pos_rng.gen_range(0.0..400.0), pos_rng.gen_range(0.0..400.0)))
            .collect();
        let mut lazy = Medium::with_quantization(
            chan,
            positions.clone(),
            true,
            StdRng::seed_from_u64(seed),
            MediumBackend::Culled, Meters::new(DEFAULT_POSITION_QUANTUM_M));
        let mut warm = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(seed),
            MediumBackend::Culled, Meters::new(DEFAULT_POSITION_QUANTUM_M));
        for node in permutation(perm_seed, n) {
            warm.warm_links(NodeId(node));
        }
        let dst = (src + 1) % n;
        let (_, _) = lazy.begin(data(src, dst), at(0), at(100));
        let (_, _) = warm.begin(data(src, dst), at(0), at(100));
        for node in 0..n {
            prop_assert_eq!(
                lazy.sensed(NodeId(node)),
                warm.sensed(NodeId(node)),
                "node {} sensed different powers under warmed fills",
                node
            );
        }
    }
}

/// Box–Muller moments at 10⁵ draws: mean within 0.01, σ within 0.01,
/// and the ±6σ clamp practically never fires (one-sided mass ≈ 1e-9;
/// even one clamped tail in 10⁵ draws would be a 10⁴× excess, so the
/// count is pinned to zero here and the clamp itself is pinned by a
/// direct probe below).
#[test]
fn normal_stream_is_statistically_sane_at_1e5_draws() {
    let n = 100_000u32;
    let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
    let mut clamped = 0u32;
    for i in 0..n {
        let ident = link_key(i % 97, i % 31);
        let z = normal_from_state(keyed_state(0xA11C_E5ED, ident, u64::from(i)));
        assert!(z.abs() <= NORMAL_CLAMP_SIGMA);
        if z.abs() >= NORMAL_CLAMP_SIGMA {
            clamped += 1;
        }
        sum += z;
        sumsq += z * z;
    }
    let mean = sum / f64::from(n);
    let sigma = (sumsq / f64::from(n) - mean * mean).sqrt();
    assert!(mean.abs() < 0.01, "mean = {mean}");
    assert!((sigma - 1.0).abs() < 0.01, "sigma = {sigma}");
    assert_eq!(clamped, 0, "±6σ tails should not fire in 1e5 draws");
}

/// The clamp is real: a state engineered to produce an extreme
/// Box–Muller radius still lands inside ±6σ.
#[test]
fn normal_draws_never_escape_the_clamp() {
    let mut extreme: f64 = 0.0;
    for c in 0..2_000_000u64 {
        let z = normal_from_state(keyed_state(7, 7, c));
        extreme = extreme.max(z.abs());
        assert!(z.abs() <= NORMAL_CLAMP_SIGMA);
    }
    // 2e6 draws reach past 4σ somewhere; the bound itself held above.
    assert!(extreme > 4.0, "draw spread implausibly narrow: {extreme}");
}

/// `CounterRng` backoff slots are uniform over the contention window:
/// per-slot frequencies of `gen_range(0..=cw)` stay within 10% of the
/// expectation at 10⁵ draws (fresh key per draw, as the MAC uses it).
#[test]
fn counter_rng_backoff_slots_are_uniform() {
    let cw = 31u32;
    let n = 100_000u32;
    let mut histogram = vec![0u32; cw as usize + 1];
    for i in 0..n {
        let mut rng = CounterRng::from_key(0xBAC0FF, 3, u64::from(i));
        histogram[rng.gen_range(0..=cw) as usize] += 1;
    }
    let expected = f64::from(n) / f64::from(cw + 1);
    for (slot, &count) in histogram.iter().enumerate() {
        let deviation = (f64::from(count) - expected).abs() / expected;
        assert!(
            deviation < 0.10,
            "slot {slot}: {count} draws vs expected {expected:.0}"
        );
    }
}
