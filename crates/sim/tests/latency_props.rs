//! Property tests of the log-bucketed latency histogram (vendored
//! proptest):
//!
//! 1. **Quantile accuracy** — for arbitrary sample sets, every
//!    `quantile(p)` stays within the advertised relative-error bound
//!    of the exact order statistic a sorted vector yields.
//! 2. **Merge linearity** — merging histograms recorded separately is
//!    indistinguishable from recording every sample into one
//!    histogram, for any split of the samples.
//! 3. **Sparse invariants** — after any interleaving of `record` and
//!    `merge`, the serialized bucket indices are strictly ascending, no
//!    bucket count is 0 and the counts sum to `count()`; and merging
//!    is symmetric (`a.merge(b) == b.merge(a)`).

use comap_sim::latency::LatencyHistogram;
use comap_sim::Json;
use proptest::prelude::*;

/// Exact order statistic with the same rank convention as
/// [`LatencyHistogram::quantile`]: the smallest value with at least
/// `ceil(p * n)` samples at or below it.
fn oracle(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n) - 1;
    sorted[rank as usize]
}

/// Arbitrary nanosecond samples spanning the interesting octaves:
/// sub-bucket-exact small values through multi-minute outliers. Each
/// draw picks a magnitude class first so every octave band stays
/// represented regardless of how uniform draws would skew.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    samples_of(1..200)
}

/// [`samples`] with a vector length drawn from `len`.
fn samples_of(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        (0u64..4, 0.0f64..1.0).prop_map(|(class, frac)| {
            let (lo, hi): (u64, u64) = match class {
                0 => (0, 64),                             // exact buckets
                1 => (1_000, 1_000_000),                  // µs range
                2 => (1_000_000, 10_000_000_000),         // ms..10 s
                _ => (10_000_000_000, 3_600_000_000_000), // up to an hour
            };
            lo + (frac * (hi - lo) as f64) as u64
        }),
        len,
    )
}

/// Build steps: `(true, s)` records `s` straight into the histogram,
/// `(false, s)` records `s` into a fresh histogram and merges that in
/// (an empty `s` merges an empty histogram).
fn steps() -> impl Strategy<Value = Vec<(bool, Vec<u64>)>> {
    prop::collection::vec((any::<bool>(), samples_of(0..40)), 0..6)
}

fn build(steps: &[(bool, Vec<u64>)]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for (direct, values) in steps {
        if *direct {
            for &v in values {
                h.record(v);
            }
        } else {
            let mut part = LatencyHistogram::new();
            for &v in values {
                part.record(v);
            }
            h.merge(&part);
        }
    }
    h
}

/// The serialized `[index, count]` bucket pairs of `h`.
fn bucket_pairs(h: &LatencyHistogram) -> Vec<(u64, u64)> {
    let json = h.to_json();
    let buckets = json
        .get("buckets")
        .and_then(Json::as_arr)
        .expect("a `buckets` array");
    buckets
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([idx, count]) => (
                idx.as_u64().expect("an integer index"),
                count.as_u64().expect("an integer count"),
            ),
            _ => panic!("bucket is not a pair: {pair:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `quantile(p)` is within `MAX_RELATIVE_ERROR` of the exact
    /// order statistic, for every p.
    #[test]
    fn quantiles_track_the_sorted_oracle(
        values in samples(),
        p in 0.0f64..=1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut values = values;
        values.sort_unstable();

        let exact = oracle(&values, p);
        let approx = h.quantile(p).expect("non-empty histogram");
        let bound = (exact as f64 * LatencyHistogram::MAX_RELATIVE_ERROR).ceil() + 1.0;
        let err = (approx as f64 - exact as f64).abs();
        prop_assert!(
            err <= bound,
            "quantile({p}) = {approx}, exact {exact}, err {err} > bound {bound}"
        );
        // And the histogram never invents values outside the observed
        // range.
        prop_assert!(approx >= values[0] && approx <= values[values.len() - 1]);
    }

    /// Recording a+b into one histogram equals recording a and b into
    /// two histograms and merging, wherever the split falls.
    #[test]
    fn merge_equals_concatenated_recording(
        values in samples(),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let (left, right) = values.split_at(split);

        let mut together = LatencyHistogram::new();
        for &v in &values {
            together.record(v);
        }
        let mut a = LatencyHistogram::new();
        for &v in left {
            a.record(v);
        }
        let mut b = LatencyHistogram::new();
        for &v in right {
            b.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &together);

        // Merge is symmetric, too.
        let mut c = LatencyHistogram::new();
        for &v in right {
            c.record(v);
        }
        let mut d = LatencyHistogram::new();
        for &v in left {
            d.record(v);
        }
        c.merge(&d);
        prop_assert_eq!(&c, &together);
    }

    /// The stored buckets stay canonical under any mix of `record` and
    /// `merge`, and `merge` commutes.
    #[test]
    fn sparse_buckets_stay_canonical(a_steps in steps(), b_steps in steps()) {
        let a = build(&a_steps);
        let b = build(&b_steps);
        for h in [&a, &b] {
            let pairs = bucket_pairs(h);
            prop_assert!(
                pairs.windows(2).all(|w| w[0].0 < w[1].0),
                "bucket indices not strictly ascending: {pairs:?}"
            );
            prop_assert!(
                pairs.iter().all(|&(_, c)| c > 0),
                "a zero count is stored: {pairs:?}"
            );
            prop_assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        }

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), a.count() + b.count());
    }
}
