//! **Fig. 10** — large-scale simulation: the empirical CDF of per-link
//! average goodput over random topologies under basic DCF, CO-MAP with
//! perfect positions, and CO-MAP with synthetic position errors. The
//! paper reports a 1.385× mean aggregated-goodput gain with perfect
//! positions and a reduced-but-substantial gain under position error.
//!
//! The OCR of the paper reads "1 m" for the error radius where the
//! surrounding text (13.7 m GPS error, room-level indoor localization)
//! suggests 10 m; the experiment therefore sweeps {1, 2, 5, 10} m.

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;
use comap_sim::frame::NodeId;

use crate::report::{mbps, Table};
use crate::runner::{empirical_cdf, seed_mean, sweep, Cdf};
use crate::topology::{large_scale, LARGE_SCALE_CLIENTS};

/// Directed flows of one floor: an uplink and a downlink per client.
const FLOWS: usize = 2 * LARGE_SCALE_CLIENTS;

/// The protocol variants compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Basic DCF.
    Dcf,
    /// CO-MAP with the given position-error radius in meters.
    CoMap(f64),
}

impl Variant {
    /// Display label ("DCF", "CO-MAP(0)", "CO-MAP(10)").
    fn label(&self) -> String {
        match self {
            Variant::Dcf => "DCF".to_string(),
            Variant::CoMap(e) => format!("CO-MAP({e:.0})"),
        }
    }
}

/// Results of one variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The variant.
    pub variant: Variant,
    /// Per-link average goodputs pooled across topologies (bits/s).
    pub link_goodputs: Vec<f64>,
    /// Mean aggregated goodput per topology (bits/s).
    pub mean_aggregate: f64,
}

impl VariantResult {
    /// CDF over per-link goodputs (the paper's y-axis).
    pub fn cdf(&self) -> Cdf {
        empirical_cdf(self.link_goodputs.clone())
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// One result per variant, in sweep order.
    pub variants: Vec<VariantResult>,
}

/// The error radii swept for the tolerance study.
pub const ERROR_SWEEP: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// Runs all variants over random topologies.
pub fn run(quick: bool) -> Fig10 {
    let (topologies, seeds, duration): (usize, &[u64], _) = if quick {
        (3, &[1], SimDuration::from_millis(400))
    } else {
        (30, &[1, 2, 3], SimDuration::from_secs(3))
    };
    let mut variant_list = vec![Variant::Dcf, Variant::CoMap(0.0)];
    variant_list.extend(ERROR_SWEEP.iter().map(|&e| Variant::CoMap(e)));
    Fig10 {
        variants: run_variants(&variant_list, topologies, seeds, duration),
    }
}

/// Runs each variant over random topologies `0..topologies`, every
/// topology once per seed, all on one [`sweep`].
///
/// # Panics
///
/// Panics when `topologies` is zero or `seeds` is empty.
pub fn run_variants(
    variants: &[Variant],
    topologies: usize,
    seeds: &[u64],
    duration: SimDuration,
) -> Vec<VariantResult> {
    let grid: Vec<_> = variants
        .iter()
        .flat_map(|&variant| {
            let (features, error) = match variant {
                Variant::Dcf => (MacFeatures::DCF, 0.0),
                Variant::CoMap(e) => (MacFeatures::COMAP, e),
            };
            (0..topologies).map(move |topo| (topo, features, error))
        })
        .collect();
    let kept = sweep(
        &grid,
        seeds,
        duration,
        |&(topo, features, error), seed| {
            let (cfg, _) = large_scale(topo as u64, seed, features, error);
            let flows: [(NodeId, NodeId); FLOWS] =
                std::array::from_fn(|i| (cfg.flows[i].src, cfg.flows[i].dst));
            (cfg, flows)
        },
        |_, flows, r| {
            let per_flow = flows.map(|(src, dst)| r.link_goodput_bps(src, dst));
            (per_flow, r.aggregate_goodput_bps())
        },
    );
    variants
        .iter()
        .zip(kept.chunks(topologies * seeds.len()))
        .map(|(variant, runs)| {
            let mut link_goodputs = Vec::new();
            let mut aggregates = Vec::new();
            for per_seed in runs.chunks(seeds.len()) {
                // Average each directed flow's goodput across seeds.
                link_goodputs.extend((0..FLOWS).map(|i| seed_mean(per_seed, |k| k.0[i])));
                aggregates.push(seed_mean(per_seed, |k| k.1));
            }
            let mean_aggregate = aggregates.iter().sum::<f64>() / aggregates.len() as f64;
            VariantResult {
                variant: *variant,
                link_goodputs,
                mean_aggregate,
            }
        })
        .collect()
}

impl Fig10 {
    /// Mean aggregated-goodput gain of a variant over DCF (NaN unless
    /// both were run).
    fn gain_over_dcf(&self, v: Variant) -> f64 {
        let aggregate = |v| {
            self.variants
                .iter()
                .find(|r| r.variant == v)
                .map_or(f64::NAN, |r| r.mean_aggregate)
        };
        aggregate(v) / aggregate(Variant::Dcf) - 1.0
    }
}

/// The per-link goodput quantiles and aggregate gain of each variant.
impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 10 — per-link goodput distribution (Mbps) and aggregate gain",
            &[
                "Variant",
                "p10",
                "median",
                "p90",
                "mean",
                "aggregate gain vs DCF",
            ],
        );
        for v in &self.variants {
            let cdf = v.cdf();
            let gain = match v.variant {
                Variant::Dcf => "—".to_string(),
                other @ Variant::CoMap(_) => {
                    format!("{:+.1}%", self.gain_over_dcf(other) * 100.0)
                }
            };
            t.row(&[
                v.variant.label(),
                mbps(cdf.quantile(0.1)),
                mbps(cdf.quantile(0.5)),
                mbps(cdf.quantile(0.9)),
                mbps(cdf.mean()),
                gain,
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "paper: CO-MAP(perfect) = 1.385x aggregated goodput (+38.5%); with position error the gain shrinks but stays positive"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn comap_holds_up_at_floor_scale() {
        // The quick pass (3 topologies, 1 seed, 0.4 s) is statistically
        // coarse; the full `--bin fig10` run is the measured result in
        // EXPERIMENTS.md. Here we assert the stable facts: CO-MAP with
        // perfect positions does not lose materially to DCF, and a 10 m
        // position error does not break the protocol.
        let fig = run(true);
        // Pins every f64 of the quick figure, so the sweep's fold order
        // cannot drift unnoticed, and the text `--bin fig10 --quick` prints.
        assert_eq!(debug_digest(&fig), "248a00866c925383");
        assert_eq!(digest(&fig.to_string()), "3e933230ad3d8207");
        let perfect = fig.gain_over_dcf(Variant::CoMap(0.0));
        assert!(perfect > -0.07, "perfect-position gain = {perfect:.3}");
        let with_error = fig.gain_over_dcf(Variant::CoMap(10.0));
        assert!(
            with_error > -0.12,
            "10 m error must not break CO-MAP: {with_error:.3}"
        );
        // Every variant still moves real traffic.
        for v in &fig.variants {
            assert!(v.mean_aggregate > 1e6, "{:?}", v.variant);
        }
    }
}
