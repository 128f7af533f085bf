//! **Fig. 9** — CO-MAP versus DCF across ten hidden-terminal topologies:
//! the empirical CDF of the C1→AP1 goodput over the configurations.
//! The paper reports a 38.5 % mean goodput gain from packet-size
//! adaptation.

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;

use crate::report::{mbps, Table};
use crate::runner::{empirical_cdf, seed_mean, sweep};
use crate::topology::fig9_topology;

/// Per-topology outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Configuration index (0–9).
    pub index: usize,
    /// Mean C1→AP1 goodput under DCF, bits/s.
    pub dcf: f64,
    /// Mean C1→AP1 goodput under CO-MAP, bits/s.
    pub comap: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig09 {
    /// All topologies.
    pub points: Vec<Point>,
}

/// Runs both MACs over the ten topologies.
pub fn run(quick: bool) -> Fig09 {
    let (seeds, duration, indices): (&[u64], _, usize) = if quick {
        (&[1], SimDuration::from_millis(400), 4)
    } else {
        (&[1, 2, 3], SimDuration::from_secs(3), 10)
    };
    let macs = [MacFeatures::DCF, MacFeatures::COMAP];
    let grid: Vec<_> = (0..indices)
        .flat_map(|index| {
            macs.map(|features| (index, features, fig9_topology(index, features, 0).1))
        })
        .collect();
    // Mix the topology index into the seed so different configurations
    // draw independent static shadowing.
    let kept = sweep(
        &grid,
        seeds,
        duration,
        |&(index, features, _), seed| {
            fig9_topology(index, features, seed * 97 + index as u64 + 1).0
        },
        |(_, _, t), r| r.link_goodput_bps(t.c1, t.ap1),
    );
    let means: Vec<f64> = kept
        .chunks(seeds.len())
        .map(|per_seed| seed_mean(per_seed, |&g| g))
        .collect();
    let points = means
        .chunks(macs.len())
        .enumerate()
        .map(|(index, m)| Point {
            index,
            dcf: m[0],
            comap: m[1],
        })
        .collect();
    Fig09 { points }
}

impl Fig09 {
    /// Mean goodput gain across topologies.
    fn mean_gain(&self) -> f64 {
        let dcf: f64 = self.points.iter().map(|p| p.dcf).sum();
        let comap: f64 = self.points.iter().map(|p| p.comap).sum();
        comap / dcf - 1.0
    }
}

/// The per-topology table, then both CDF medians and the mean gain.
impl fmt::Display for Fig09 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 9 — C1→AP1 goodput per topology",
            &["Topology", "DCF (Mbps)", "CO-MAP (Mbps)"],
        );
        for p in &self.points {
            t.row(&[p.index.to_string(), mbps(p.dcf), mbps(p.comap)]);
        }
        write!(f, "{t}")?;
        let median = |goodput: fn(&Point) -> f64| {
            mbps(empirical_cdf(self.points.iter().map(goodput).collect()).quantile(0.5))
        };
        writeln!(
            f,
            "CDF medians: DCF {} Mbps, CO-MAP {} Mbps; mean gain {:+.1}% (paper: +38.5%)",
            median(|p| p.dcf),
            median(|p| p.comap),
            self.mean_gain() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn comap_improves_ht_topologies() {
        let fig = run(true);
        // Pins every f64 of the quick figure, so the sweep's fold order
        // cannot drift unnoticed, and the text `--bin fig09 --quick` prints.
        assert_eq!(debug_digest(&fig), "70d0e698045bc91c");
        assert_eq!(digest(&fig.to_string()), "ff29ad7c7d0c8553");
        assert!(
            fig.mean_gain() > 0.1,
            "mean gain = {:.3}, points: {:?}",
            fig.mean_gain(),
            fig.points
        );
    }
}
