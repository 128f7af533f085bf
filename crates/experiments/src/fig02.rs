//! **Fig. 2** — hidden-terminal motivation: goodput of the C1→AP1 link
//! under basic DCF as the payload size varies, with no, one and three
//! hidden terminals. Without HTs, bigger frames amortize overhead
//! monotonically; with them, the collision probability grows with
//! airtime, so big frames lose relatively more (the paper finds a
//! moderate size wins; here only three HTs move the optimum below the
//! largest size, see EXPERIMENTS.md).

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;

use crate::report::{mbps, Table};
use crate::runner::{seed_mean, sweep};
use crate::topology::ht_testbed;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Payload size in bytes.
    pub payload: u32,
    /// Mean goodput of C1→AP1 without a hidden terminal, bits/s.
    pub no_ht: f64,
    /// Mean goodput of C1→AP1 with one hidden terminal, bits/s.
    pub one_ht: f64,
    /// Mean goodput of C1→AP1 with three hidden terminals, bits/s.
    pub three_ht: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig02 {
    /// Payload sweep.
    pub points: Vec<Point>,
}

/// Hidden-terminal counts of the three curves: none, one and three.
const HT_COUNTS: [usize; 3] = [0, 1, 3];

/// Payload sizes swept.
pub fn payloads() -> Vec<u32> {
    (1..=11).map(|i| i * 200).collect()
}

/// Runs the experiment.
pub fn run(quick: bool) -> Fig02 {
    // Quick mode needs a few seeds: whether the HT's frames corrupt AP1
    // rides on the per-seed shadow draw of the HT→AP1 link (mean SINR
    // sits ~5 dB under the 11 Mbps threshold, within one σ), so a single
    // seed can land on a harmless draw and hide the figure's effect.
    let (seeds, duration): (&[u64], _) = if quick {
        (&[1, 2, 3], SimDuration::from_millis(400))
    } else {
        (&[1, 2, 3, 4, 5], SimDuration::from_secs(3))
    };
    let grid: Vec<_> = payloads()
        .into_iter()
        .flat_map(|payload| {
            HT_COUNTS.map(|n_ht| {
                (
                    payload,
                    n_ht,
                    ht_testbed(payload, n_ht, MacFeatures::DCF, 0).1,
                )
            })
        })
        .collect();
    let kept = sweep(
        &grid,
        seeds,
        duration,
        |&(payload, n_ht, _), seed| ht_testbed(payload, n_ht, MacFeatures::DCF, seed).0,
        |(_, _, ids), r| r.link_goodput_bps(ids.c1, ids.ap1),
    );
    let means: Vec<f64> = kept
        .chunks(seeds.len())
        .map(|per_seed| seed_mean(per_seed, |&g| g))
        .collect();
    let points = payloads()
        .into_iter()
        .zip(means.chunks(HT_COUNTS.len()))
        .map(|(payload, m)| Point {
            payload,
            no_ht: m[0],
            one_ht: m[1],
            three_ht: m[2],
        })
        .collect();
    Fig02 { points }
}

impl Fig02 {
    /// The payload size maximizing the goodput curve `curve` reads.
    fn best_payload(&self, curve: fn(&Point) -> f64) -> u32 {
        self.points
            .iter()
            .max_by(|a, b| curve(a).total_cmp(&curve(b)))
            .map_or(0, |p| p.payload)
    }
}

/// The payload sweep table and the best payload of each curve.
impl fmt::Display for Fig02 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 2 — goodput of C1→AP1 vs payload size",
            &[
                "Payload (B)",
                "N_ht = 0 (Mbps)",
                "N_ht = 1 (Mbps)",
                "N_ht = 3 (Mbps)",
            ],
        );
        for p in &self.points {
            t.row(&[
                p.payload.to_string(),
                mbps(p.no_ht),
                mbps(p.one_ht),
                mbps(p.three_ht),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "best payload: {} B without HT, {} B with one HT, {} B with three HTs",
            self.best_payload(|p| p.no_ht),
            self.best_payload(|p| p.one_ht),
            self.best_payload(|p| p.three_ht)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn clean_channel_prefers_big_frames_and_ht_hurts() {
        let fig = run(true);
        // Pins every f64 of the quick figure, so the sweep's fold order
        // cannot drift unnoticed, and the text `--bin fig02 --quick` prints.
        assert_eq!(debug_digest(&fig), "589ce2eea7ba2150");
        assert_eq!(digest(&fig.to_string()), "7e9720fc58f26ad2");
        // Without a hidden terminal the biggest payload should be at or
        // near the optimum.
        assert!(fig.best_payload(|p| p.no_ht) >= 1800, "{fig:?}");
        // The hidden terminal costs real goodput at large payloads.
        let last = fig.points.last().unwrap();
        assert!(last.one_ht < 0.8 * last.no_ht, "{last:?}");
    }
}
