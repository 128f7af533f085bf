//! Counter-based (splittable) random streams.
//!
//! Every per-event draw in the simulator is a **pure function of a
//! stable key** — `(seed, identity, counter)` — instead of the next
//! value of a shared sequential generator. Keyed draws are
//! order-independent by construction: any sweep order, any backend,
//! any shard visits the same key and reads the same value, so there is
//! no mutable RNG state to serialize the hot path or to split across
//! region shards.
//!
//! The derivation is SplitMix64 throughout: [`mix64`] is the
//! full-avalanche finalizer, [`keyed_state`] folds the key into a
//! 64-bit stream state, and the `*_from_state` samplers expand that
//! state into the distributions the simulator needs. [`CounterRng`]
//! wraps a keyed state as an [`RngCore`](rand::RngCore) for callees
//! that take a generic `impl Rng` (backoff draws, localization noise):
//! within one key it steps like an ordinary SplitMix64 generator, but
//! the whole stream is still a pure function of the key.
//!
//! The slow-fade streams introduced with the mobility rework (DESIGN.md
//! §8) pioneered this pattern; the fast-fade, hazard-survival, backoff
//! and localization draws follow it (DESIGN.md §11), which is what the
//! StdRng scan in `tests/source_rules/` enforces.

use rand::RngCore;

/// Normal draws from [`normal_from_state`] are clamped to this many
/// standard deviations. The clip is a modeling choice (one-sided mass
/// beyond 6σ is ≈ 1e-9, far below anything the simulator can resolve)
/// that buys hard geometric bounds: a fade can never lift a link's
/// power by more than `6σ` dB, so relevance scans may reject far nodes
/// on distance alone.
pub const NORMAL_CLAMP_SIGMA: f64 = 6.0;

/// `2⁻⁵³` — converts the top 53 bits of a `u64` into a `[0, 1)` float.
const F64_SCALE: f64 = 1.0 / 9_007_199_254_740_992.0;

/// SplitMix64's golden-gamma increment, also used to decorrelate the
/// second Box–Muller input from the first.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: full-avalanche 64-bit mixing.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Packs an ordered pair of node ids into the 64-bit identity half of a
/// stream key. Injective for ids below 2³², which bounds the node count
/// far above anything the simulator will see.
#[inline]
pub fn link_key(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Folds `(seed, ident, counter)` into a 64-bit stream state — the root
/// of every counter-based draw. Each component passes through its own
/// [`mix64`] round, so neighbouring keys (same link, consecutive
/// counters; same counter, neighbouring links) land in statistically
/// unrelated states. The seed is mixed *before* the identity joins:
/// without that round, `(seed ⊕ d, ident ⊕ d)` would alias
/// `(seed, ident)` exactly — structured nearby seeds (a base plus a
/// node index, say) would hand adjacent identities the same stream.
/// The collision-freedom proptest in `rng_props.rs` pins this.
#[inline]
pub fn keyed_state(seed: u64, ident: u64, counter: u64) -> u64 {
    let h = mix64(seed ^ 0x5851_F42D_4C95_7F2D);
    let h = mix64(h ^ ident);
    mix64(h ^ counter)
}

/// One standard-normal draw from a keyed state: two decorrelated
/// uniforms through Box–Muller, clamped to ±[`NORMAL_CLAMP_SIGMA`].
///
/// The first uniform takes the top 53 bits offset by half an ulp, so it
/// is strictly inside `(0, 1)`: the Box–Muller radius is always finite
/// and no rejection loop is needed — the draw is exactly two
/// [`mix64`] rounds per key, unconditionally.
#[inline]
pub fn normal_from_state(h: u64) -> f64 {
    let a = mix64(h);
    let b = mix64(h.wrapping_add(GOLDEN_GAMMA));
    let u1 = ((a >> 11) as f64 + 0.5) * F64_SCALE;
    let u2 = (b >> 11) as f64 * F64_SCALE;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    z.clamp(-NORMAL_CLAMP_SIGMA, NORMAL_CLAMP_SIGMA)
}

/// One uniform draw in `[0, 1)` from a keyed state (53 random mantissa
/// bits, matching the `Standard` `f64` distribution of the vendored
/// `rand`).
#[inline]
pub fn uniform_from_state(h: u64) -> f64 {
    (mix64(h) >> 11) as f64 * F64_SCALE
}

/// A counter-keyed generator: SplitMix64 seeded by [`keyed_state`].
///
/// Use this where a callee takes a generic `impl Rng` (uniform backoff
/// slots, the area-uniform localization-error disc) but the draw must
/// still be a pure function of a stable key. Every `next_u64` advances
/// the state by the golden gamma and finalizes with [`mix64`] — the
/// standard SplitMix64 stream — so a key owns an entire independent
/// sequence, not just one value.
///
/// ```rust
/// use comap_radio::stream::CounterRng;
/// use rand::Rng;
///
/// let mut a = CounterRng::from_key(7, 3, 41);
/// let mut b = CounterRng::from_key(7, 3, 41);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // pure function of the key
/// ```
#[derive(Debug, Clone)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// A generator whose stream is a pure function of
    /// `(seed, ident, counter)`.
    #[inline]
    pub fn from_key(seed: u64, ident: u64, counter: u64) -> Self {
        CounterRng {
            state: keyed_state(seed, ident, counter),
        }
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn keyed_state_separates_every_component() {
        let base = keyed_state(1, 2, 3);
        assert_eq!(base, keyed_state(1, 2, 3));
        assert_ne!(base, keyed_state(2, 2, 3));
        assert_ne!(base, keyed_state(1, 3, 3));
        assert_ne!(base, keyed_state(1, 2, 4));
    }

    #[test]
    fn link_key_is_injective_and_ordered() {
        assert_ne!(link_key(1, 2), link_key(2, 1));
        assert_ne!(link_key(0, 1), link_key(1, 0));
        assert_eq!(link_key(7, 9), (7u64 << 32) | 9);
    }

    #[test]
    fn normal_from_state_has_standard_moments() {
        let n = 50_000u32;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for i in 0..n {
            let z = normal_from_state(keyed_state(0xFEED, u64::from(i % 211), u64::from(i)));
            assert!(z.abs() <= NORMAL_CLAMP_SIGMA);
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / f64::from(n);
        let var = sumsq / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn uniform_from_state_is_uniform_in_unit_interval() {
        let n = 50_000u32;
        let mut sum = 0.0;
        for i in 0..n {
            let u = uniform_from_state(keyed_state(3, 5, u64::from(i)));
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn counter_rng_streams_are_keyed_and_uniform() {
        let mut a = CounterRng::from_key(11, 4, 9);
        let mut b = CounterRng::from_key(11, 4, 9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = CounterRng::from_key(11, 4, 10);
        assert_ne!(a.next_u64(), c.next_u64());

        // gen_range through the blanket Rng impl stays in range and
        // roughly uniform.
        let mut sum = 0u64;
        let n = 40_000u32;
        for i in 0..n {
            let mut rng = CounterRng::from_key(1, 2, u64::from(i));
            let v = rng.gen_range(0u32..=31);
            assert!(v <= 31);
            sum += u64::from(v);
        }
        let mean = sum as f64 / f64::from(n);
        assert!((mean - 15.5).abs() < 0.3, "mean = {mean}");
    }
}
