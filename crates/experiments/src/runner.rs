//! Running simulations: figure sweeps and CDFs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use comap_mac::time::SimDuration;
use comap_sim::config::SimConfig;
use comap_sim::sim::Simulator;
use comap_sim::stats::SimReport;

/// Runs every `point × seed` job of a figure on one worker pool and
/// returns the `keep` projection of each job's report, point-major: the
/// values of `points[i]` are `[i * seeds.len()..][..seeds.len()]`, in
/// `seeds` order, so `chunks(seeds.len())` yields one slice per point.
/// This is the one way an experiment runs a grid.
///
/// `build(point, seed)` is the topology builder itself: it returns the
/// job's config and the handles (node ids, flows) that `keep(point,
/// &handles, &report)` reads the report through. A grid therefore holds
/// only its parameters, and no topology is built outside its job.
///
/// All jobs share one pool of at most
/// [`std::thread::available_parallelism`] workers, so a figure whose
/// points each have only a few seeds still keeps every core busy until
/// the last job. Workers pull job indices from a shared counter and
/// store `keep`'s value in that job's slot; the handles, the report and
/// the config are dropped inside the worker, so only the projections
/// outlive a job. Every simulation is deterministic in its config, so
/// the output does not depend on scheduling. A panic in `build`, the
/// simulation or `keep` is re-raised on the calling thread.
#[expect(
    clippy::expect_used,
    reason = "every index below `jobs` was claimed and any worker panic was re-raised above"
)]
pub fn sweep<P, H, T, B, K>(
    points: &[P],
    seeds: &[u64],
    duration: SimDuration,
    build: B,
    keep: K,
) -> Vec<T>
where
    P: Sync,
    T: Send + Sync,
    B: Fn(&P, u64) -> (SimConfig, H) + Sync,
    K: Fn(&P, &H, &SimReport) -> T + Sync,
{
    let jobs = points.len() * seeds.len();
    let slots: Vec<OnceLock<T>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs);
    // The counter publishes nothing but the index: each result reaches
    // the caller through its `OnceLock` and the join.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(job) else { break };
                    let point = &points[job / seeds.len()];
                    let (cfg, handles) = build(point, seeds[job % seeds.len()]);
                    let report = Simulator::new(cfg).run(duration);
                    // The counter hands out each index once, so the slot is empty.
                    let _ = slot.set(keep(point, &handles, &report));
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job stored its value"))
        .collect()
}

/// Mean of `value` over one point's seeds, summed in seed order.
pub(crate) fn seed_mean<T>(per_seed: &[T], value: impl Fn(&T) -> f64) -> f64 {
    per_seed.iter().map(value).sum::<f64>() / per_seed.len() as f64
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// The mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics when the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile order must be in [0, 1]");
        // Nearest rank, with `quantile(0.0)` pinned to the smallest
        // sample (rank never drops below 1). `q ≤ 1` keeps the ceiling
        // within bounds.
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// `(value, cumulative probability)` points for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Builds an empirical CDF from samples.
pub fn empirical_cdf(mut samples: Vec<f64>) -> Cdf {
    samples.retain(|v| v.is_finite());
    samples.sort_by(f64::total_cmp);
    Cdf { sorted: samples }
}

/// FNV-1a (64 bit) of `text`, as 16 hex digits: the figure tests pin
/// their quick-mode printed form with it.
#[cfg(test)]
pub(crate) fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// [`digest`] of a value's `Debug` text: the figure tests pin their
/// quick-mode output with it, so any change to a single `f64` of a
/// figure fails them.
#[cfg(test)]
pub(crate) fn debug_digest(value: &impl std::fmt::Debug) -> String {
    digest(&format!("{value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::Position;
    use comap_sim::config::{NodeSpec, Traffic};
    use comap_sim::frame::NodeId;

    /// A saturated client `x` meters from its AP; the handles are the
    /// link's ids and the seed, so a result shows whose handles it read.
    fn link_at(x: &f64, seed: u64) -> (SimConfig, (NodeId, NodeId, u64)) {
        let mut cfg = SimConfig::testbed(seed);
        let a = cfg.add_node(NodeSpec::client("a", Position::new(0.0, 0.0)));
        let b = cfg.add_node(NodeSpec::ap("b", Position::new(*x, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        (cfg, (a, b, seed))
    }

    fn goodput_bits(_: &f64, &(a, b, seed): &(NodeId, NodeId, u64), r: &SimReport) -> [u64; 3] {
        [
            seed,
            r.link_goodput_bps(a, b).to_bits(),
            r.aggregate_goodput_bps().to_bits(),
        ]
    }

    #[test]
    fn sweep_matches_a_sequential_loop() {
        // 21 jobs queue past any plausible core count, and the seeds are
        // deliberately out of order: results must follow `seeds`, not
        // their values or the order the workers finish in, and each
        // `keep` must read the handles its own job's `build` returned.
        let points = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0];
        let seeds = [5, 1, 3];
        let d = SimDuration::from_millis(20);
        let swept = sweep(&points, &seeds, d, link_at, goodput_bits);
        let sequential: Vec<_> = points
            .iter()
            .flat_map(|p| {
                seeds.iter().map(move |&s| {
                    let (cfg, ids) = link_at(p, s);
                    goodput_bits(p, &ids, &Simulator::new(cfg).run(d))
                })
            })
            .collect();
        assert_eq!(swept, sequential);
    }

    #[test]
    fn empty_points_or_seeds_sweep_nothing() {
        let d = SimDuration::from_millis(5);
        assert!(sweep(&[], &[1, 2], d, link_at, goodput_bits).is_empty());
        assert!(sweep(&[8.0], &[], d, link_at, goodput_bits).is_empty());
    }

    #[test]
    #[should_panic(expected = "no config for point 12")]
    fn a_panicking_build_propagates() {
        let _ = sweep(
            &[4.0, 8.0, 12.0],
            &[1, 2],
            SimDuration::from_millis(5),
            |&x, seed| {
                assert!(x < 10.0, "no config for point {x}");
                link_at(&x, seed)
            },
            goodput_bits,
        );
    }

    #[test]
    fn cdf_basics() {
        let cdf = empirical_cdf(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.mean(), 2.5);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.points().last().unwrap().1, 1.0);
    }

    #[test]
    fn quantile_zero_is_the_smallest_sample() {
        let cdf = empirical_cdf(vec![5.0, 1.5, 9.0]);
        assert_eq!(cdf.quantile(0.0), 1.5);
        assert_eq!(cdf.quantile(1.0), 9.0);
        // A single-sample CDF answers every quantile with that sample.
        let one = empirical_cdf(vec![7.0]);
        assert_eq!(one.quantile(0.0), 7.0);
        assert_eq!(one.quantile(1.0), 7.0);
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = empirical_cdf(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty CDF")]
    fn empty_quantile_panics() {
        let _ = empirical_cdf(vec![]).quantile(0.5);
    }
}
