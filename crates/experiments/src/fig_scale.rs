//! **Scalability sweep** (paper §VI setting: 30–150 mobile nodes) —
//! not a figure of the paper, but the scenario its NS-2 evaluation runs
//! at: a campus of random-waypoint nodes at constant density. The sweep
//! runs every size through both [`MediumBackend`]s, checks the reports
//! are bit-identical, and reports the wall-clock ratio of the two.
//!
//! At these sizes that ratio is about 1× (0.7–1.1× on a 2-core host):
//! the sweep shows the backends agree, not that culling is faster.
//! Culling pays from about 1000 nodes. On the same campus over 1 s it
//! measured 3.4× at 1000 nodes (culled 2.0 s, exhaustive 6.9 s) and
//! 6.5× at 2000 (5.9 s against 38.3 s).

use std::fmt;
use std::time::Instant;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;
use comap_sim::{MediumBackend, SimReport, Simulator};

use crate::report::{mbps, Table};
use crate::topology::scale_campus;

/// One sweep size.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Total node count (APs + clients).
    pub n: usize,
    /// Wall-clock milliseconds of the run under the exhaustive backend.
    pub exhaustive_ms: f64,
    /// Wall-clock milliseconds under the culled backend.
    pub culled_ms: f64,
    /// Whether both backends produced byte-identical report JSON
    /// (always true — asserted by the differential harness; reported
    /// here so the binary output shows the check ran).
    pub identical: bool,
    /// Aggregate delivered goodput across all links, bits/s.
    pub aggregate_bps: f64,
}

impl Point {
    /// Exhaustive-over-culled wall-clock ratio.
    fn speedup(&self) -> f64 {
        if self.culled_ms <= 0.0 {
            return 0.0;
        }
        self.exhaustive_ms / self.culled_ms
    }
}

/// The sweep's data.
#[derive(Debug, Clone)]
pub struct FigScale {
    /// One entry per node count.
    pub points: Vec<Point>,
}

/// Node counts of the sweep.
pub fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[30, 150]
    } else {
        &[30, 60, 90, 120, 150]
    }
}

/// The representative run of this experiment: the full 150-node campus.
pub fn representative_config(seed: u64) -> comap_sim::SimConfig {
    scale_campus(150, 1, MacFeatures::COMAP, seed).0
}

fn timed_run(
    n: usize,
    seed: u64,
    duration: SimDuration,
    backend: MediumBackend,
) -> (SimReport, f64) {
    let (mut cfg, _) = scale_campus(n, 1, MacFeatures::COMAP, seed);
    cfg.backend = backend;
    let sim = Simulator::new(cfg);
    #[expect(
        clippy::disallowed_methods,
        reason = "fig_scale reports wall time per run; the clock never feeds sim state"
    )]
    let started = Instant::now();
    let report = sim.run(duration);
    (report, started.elapsed().as_secs_f64() * 1e3)
}

/// Runs the sweep.
pub fn run(quick: bool) -> FigScale {
    let duration = if quick {
        SimDuration::from_millis(400)
    } else {
        SimDuration::from_secs(1)
    };
    let points = sizes(quick)
        .iter()
        .map(|&n| {
            let (report_ex, exhaustive_ms) = timed_run(n, 1, duration, MediumBackend::Exhaustive);
            let (report_cu, culled_ms) = timed_run(n, 1, duration, MediumBackend::Culled);
            let identical =
                report_ex.to_json().to_string_compact() == report_cu.to_json().to_string_compact();
            assert!(
                identical,
                "fig_scale n={n}: backends diverged — the differential contract is broken"
            );
            let aggregate_bps = report_cu
                .links
                .keys()
                .map(|&(src, dst)| report_cu.link_goodput_bps(src, dst))
                .sum();
            Point {
                n,
                exhaustive_ms,
                culled_ms,
                identical,
                aggregate_bps,
            }
        })
        .collect();
    FigScale { points }
}

/// The per-size table of both backends' wall-clock times, their ratio,
/// the identity check and the aggregate goodput.
impl fmt::Display for FigScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Scalability — spatial culling vs exhaustive medium (paper §VI campus)",
            &[
                "nodes",
                "exhaustive (ms)",
                "culled (ms)",
                "speedup",
                "identical",
                "aggregate goodput",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{}", p.n),
                format!("{:.1}", p.exhaustive_ms),
                format!("{:.1}", p.culled_ms),
                format!("{:.2}x", p.speedup()),
                format!("{}", p.identical),
                mbps(p.aggregate_bps),
            ]);
        }
        write!(f, "{t}")
    }
}
