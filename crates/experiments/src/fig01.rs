//! **Fig. 1** — exposed-terminal motivation: goodput of the C1→AP1 link
//! under basic DCF as C2 (the client of the other cell) moves along the
//! AP1→AP2 axis. The region where C2's transmissions make C1 defer even
//! though both links could run concurrently is the exposed-terminal
//! region the paper motivates CO-MAP with.

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;

use crate::report::{mbps, Table};
use crate::runner::{seed_mean, sweep};
use crate::topology::et_testbed;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// C2's position, meters from AP1.
    pub c2_x: f64,
    /// Mean goodput of C1→AP1, bits/s.
    pub c1_goodput: f64,
    /// Mean goodput of C2→AP2, bits/s.
    pub c2_goodput: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// Sweep of C2 positions.
    pub points: Vec<Point>,
}

/// C2 positions swept by the paper (12–34 m from AP1).
pub fn positions() -> Vec<f64> {
    (6..=17).map(|i| i as f64 * 2.0).collect()
}

/// Runs the experiment.
pub fn run(quick: bool) -> Fig01 {
    let (seeds, duration): (&[u64], _) = if quick {
        (&[1], SimDuration::from_millis(300))
    } else {
        (&[1, 2, 3, 4, 5], SimDuration::from_secs(3))
    };
    // Node ids do not depend on the seed, so each position's link pair
    // is resolved once here rather than in every job.
    let grid: Vec<_> = positions()
        .into_iter()
        .map(|x| (x, et_testbed(x, MacFeatures::DCF, 0).1))
        .collect();
    let kept = sweep(
        &grid,
        seeds,
        duration,
        |&(x, _), seed| et_testbed(x, MacFeatures::DCF, seed).0,
        |(_, ids), r| {
            (
                r.link_goodput_bps(ids.c1, ids.ap1),
                r.link_goodput_bps(ids.c2, ids.ap2),
            )
        },
    );
    let points = grid
        .iter()
        .zip(kept.chunks(seeds.len()))
        .map(|((x, _), per_seed)| Point {
            c2_x: *x,
            c1_goodput: seed_mean(per_seed, |g| g.0),
            c2_goodput: seed_mean(per_seed, |g| g.1),
        })
        .collect();
    Fig01 { points }
}

/// The sweep table and the near-end, exposed-region and far-end goodputs.
impl fmt::Display for Fig01 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 1 — goodput of C1→AP1 under basic DCF vs C2 position",
            &["C2 position (m from AP1)", "C1→AP1 (Mbps)", "C2→AP2 (Mbps)"],
        );
        for p in &self.points {
            t.row(&[
                format!("{:.0}", p.c2_x),
                mbps(p.c1_goodput),
                mbps(p.c2_goodput),
            ]);
        }
        write!(f, "{t}")?;
        // C1's goodput at either end of the sweep, and its mean over the
        // exposed region (C2 at 20–34 m).
        let c1 = |p: Option<&Point>| mbps(p.map_or(f64::NAN, |p| p.c1_goodput));
        let exposed: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.c2_x >= 20.0)
            .map(|p| p.c1_goodput)
            .collect();
        writeln!(
            f,
            "near end: {} Mbps, exposed-region mean: {} Mbps, far end: {} Mbps",
            c1(self.points.first()),
            mbps(exposed.iter().sum::<f64>() / exposed.len() as f64),
            c1(self.points.last())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn deferral_recovers_with_distance() {
        let fig = run(true);
        // Pins every f64 of the quick figure, so the sweep's fold order
        // cannot drift unnoticed, and the text `--bin fig01 --quick` prints.
        assert_eq!(debug_digest(&fig), "f45d21dce66d4f87");
        assert_eq!(digest(&fig.to_string()), "1af55a1ba69b0754");
        assert_eq!(fig.points.len(), 12);
        // Single-link goodput at one seed is dominated by the shadowing
        // realization (multi-seed averages put C1's far/near ratio near
        // 1), so pin the realization-robust signatures of the paper's
        // shape instead: as C2 leaves the contention region the two
        // links run concurrently, so the *aggregate* goodput at the far
        // end beats the near end, and C2's own link recovers strongly.
        let near = fig.points.first().expect("non-empty sweep");
        let far = fig.points.last().expect("non-empty sweep");
        assert!(
            far.c1_goodput + far.c2_goodput > near.c1_goodput + near.c2_goodput,
            "aggregate must recover: far {}+{} vs near {}+{}",
            far.c1_goodput,
            far.c2_goodput,
            near.c1_goodput,
            near.c2_goodput
        );
        assert!(
            far.c2_goodput > 1.25 * near.c2_goodput,
            "C2 must recover as it leaves the exposed region: far {} vs near {}",
            far.c2_goodput,
            near.c2_goodput
        );
    }
}
