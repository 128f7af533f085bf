//! **Fig. 7** — validation of the analytical model (Section IV-D2):
//! per-link goodput versus payload length for contention windows
//! `W ∈ {63, 255, 1023}` and `{0, 3, 5}` hidden terminals, as predicted
//! by the extended-Bianchi model and as measured in the simulator.
//!
//! The simulation cell mirrors the model's assumptions exactly: five
//! saturated contenders with a constant window, hidden interferers that
//! sense nobody, a σ = 0 channel.

use std::fmt;
use std::num::NonZeroU32;

use comap_core::model::{DcfModel, ModelInput};
use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;

use crate::report::{mbps, Table};
use crate::runner::{seed_mean, sweep};
use crate::topology::validation_cell;

/// Number of stations in the contending cell.
const CELL_SIZE: usize = 5;

/// The contention windows of the paper's panels.
const WINDOWS: [NonZeroU32; 3] = [
    NonZeroU32::new(63).unwrap(),
    NonZeroU32::new(255).unwrap(),
    NonZeroU32::new(1023).unwrap(),
];

/// The hidden-terminal counts of the paper's panels.
const HT_COUNTS: [usize; 3] = [0, 3, 5];

/// One (W, h, payload) evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Constant contention window.
    pub w: u32,
    /// Hidden terminals.
    pub n_ht: usize,
    /// Payload bytes.
    pub payload: u32,
    /// Analytical per-node goodput (eq. 5), bits/s.
    pub model: f64,
    /// Simulated per-node goodput (mean over the cell and seeds), bits/s.
    pub sim: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// All evaluated points.
    pub points: Vec<Point>,
}

/// Payload sizes swept.
pub fn payloads(quick: bool) -> Vec<u32> {
    if quick {
        vec![200, 1000, 2200]
    } else {
        (1..=11).map(|i| i * 200).collect()
    }
}

/// Runs model and simulation over the full grid.
pub fn run(quick: bool) -> Fig07 {
    let (seeds, duration): (&[u64], _) = if quick {
        (&[1], SimDuration::from_millis(400))
    } else {
        (&[1, 2, 3], SimDuration::from_secs(4))
    };
    let phy = comap_mac::timing::PhyTiming::dsss();
    let mut grid = Vec::new();
    for &w in &WINDOWS {
        for &n_ht in &HT_COUNTS {
            for payload in payloads(quick) {
                grid.push((w, n_ht, payload));
            }
        }
    }
    let kept = sweep(
        &grid,
        seeds,
        duration,
        |&(w, n_ht, payload), seed| validation_cell(CELL_SIZE, n_ht, w.get(), payload, seed),
        |_, cell, r| {
            cell.clients
                .iter()
                .map(|&c| r.link_goodput_bps(c, cell.ap))
                .sum::<f64>()
                / cell.clients.len() as f64
        },
    );
    let points = grid
        .iter()
        .zip(kept.chunks(seeds.len()))
        .map(|(&(w, n_ht, payload), per_seed)| Point {
            w: w.get(),
            n_ht,
            payload,
            model: DcfModel::per_node_goodput(&ModelInput {
                phy,
                rate: Rate::Mbps11,
                cw: w,
                contenders: CELL_SIZE - 1,
                hidden: n_ht,
                payload_bytes: payload,
                hidden_profile: None,
            }),
            sim: seed_mean(per_seed, |&g| g),
        })
        .collect();
    Fig07 { points }
}

impl Fig07 {
    /// Points of one panel, ordered by payload.
    fn panel(&self, w: u32, n_ht: usize) -> Vec<Point> {
        self.points
            .iter()
            .filter(|p| p.w == w && p.n_ht == n_ht)
            .copied()
            .collect()
    }

    /// Mean relative model-vs-sim error over points where either side is
    /// non-negligible.
    fn mean_relative_error(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for p in &self.points {
            let scale = p.model.max(p.sim);
            if scale > 1e4 {
                total += (p.model - p.sim).abs() / scale;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// One table per hidden-terminal count, model and simulation side by
/// side for each window, then the mean relative error.
impl fmt::Display for Fig07 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &n_ht in &HT_COUNTS {
            let mut t = Table::new(
                format!("Fig. 7 — {n_ht} hidden terminal(s): per-node goodput (Mbps)"),
                &[
                    "Payload (B)",
                    "W=63 model",
                    "W=63 sim",
                    "W=255 model",
                    "W=255 sim",
                    "W=1023 model",
                    "W=1023 sim",
                ],
            );
            let panels: Vec<_> = WINDOWS.iter().map(|&w| self.panel(w.get(), n_ht)).collect();
            for ((p63, p255), p1023) in panels[0].iter().zip(&panels[1]).zip(&panels[2]) {
                t.row(&[
                    p63.payload.to_string(),
                    mbps(p63.model),
                    mbps(p63.sim),
                    mbps(p255.model),
                    mbps(p255.sim),
                    mbps(p1023.model),
                    mbps(p1023.sim),
                ]);
            }
            write!(f, "{t}")?;
        }
        writeln!(
            f,
            "mean relative model-vs-sim error: {:.1}%",
            self.mean_relative_error() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn model_tracks_simulation_shape() {
        let fig = run(true);
        // Pins every f64 of the quick figure, so the sweep's fold order
        // cannot drift unnoticed, and the text `--bin fig07 --quick` prints.
        assert_eq!(debug_digest(&fig), "9f919a9094f24a76");
        assert_eq!(digest(&fig.to_string()), "9469570fa2d7afed");
        // Without HTs, model and sim must agree well at every window.
        for &w in &WINDOWS {
            for p in fig.panel(w.get(), 0) {
                let err = (p.model - p.sim).abs() / p.model.max(p.sim);
                assert!(
                    err < 0.35,
                    "W={w} payload={} model={} sim={}",
                    p.payload,
                    p.model,
                    p.sim
                );
            }
        }
    }

    #[test]
    fn hidden_terminals_collapse_small_windows() {
        let fig = run(true);
        let calm: f64 = fig.panel(63, 0).iter().map(|p| p.sim).sum();
        let noisy: f64 = fig.panel(63, 5).iter().map(|p| p.sim).sum();
        assert!(
            noisy < 0.5 * calm,
            "5 HTs must crush W=63: {noisy} vs {calm}"
        );
    }
}
