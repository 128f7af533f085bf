//! Perf-regression gate over `BENCH_*.json` profiling artifacts.
//!
//! CI profiles a representative run of the heaviest experiments and
//! checks the resulting [`RunProfile`] in as a `BENCH_*` artifact. This
//! module compares a freshly measured candidate profile against a
//! pinned baseline and decides whether the difference is a regression.
//!
//! Two families of metrics get two very different bounds, both fixed
//! here as constants:
//!
//! * **Deterministic counters** — `events`, `sim_nanos`, `queue_peak`
//!   and per-type event counts are bit-reproducible for a fixed binary
//!   and seed, so they must equal the baseline's exactly: any drift
//!   means the simulation itself changed, which must be an explicit,
//!   reviewed decision (regenerate the envelope and say why in its
//!   `rationale`). The link-cache recompute/lookup ratio may rise by at
//!   most 0.05.
//! * **Wall-clock metrics** — `events_per_sec` and per-type dispatch
//!   cost vary with machine load, so they get loose multiplicative
//!   bounds, wide enough for CI-runner jitter yet tight enough that a
//!   genuine 2× slowdown fails.
//!
//! Before any diff, both profiles must pass [`health_violation`]: a
//! profile with no events, no simulated time, an empty queue, per-type
//! counts that do not sum to the total, or more link-cache recomputes
//! than lookups is rejected outright.
//!
//! The pinned baseline lives in `results/BENCH_envelope.json` next to
//! the raw artifacts: an [`Envelope`], which is a [`RunProfile`] plus a
//! human-readable rationale for the last regeneration. The
//! `bench_diff` binary applies it; see `scripts/check.sh` and the CI
//! workflow for the wiring.

use comap_sim::json::{check_schema_version, Json, SchemaError, SCHEMA_VERSION};
use comap_sim::RunProfile;

/// Largest allowed `events_per_sec` slowdown (baseline / candidate):
/// loose, but below 2 so a doubled runtime always fails.
const MAX_SLOWDOWN: f64 = 1.75;
/// Largest allowed per-event-type dispatch-cost growth (candidate
/// ns/event over baseline ns/event).
const MAX_PER_TYPE_SLOWDOWN: f64 = 2.5;
/// Event types with fewer baseline events than this are exempt from
/// the per-type cost check — their timings are noise.
const MIN_TYPE_COUNT: u64 = 200;
/// Largest allowed absolute increase of the link-cache recompute/lookup
/// ratio over the baseline's.
const MAX_RECOMPUTE_RATIO_INCREASE: f64 = 0.05;

/// A pinned baseline and the reason it was last regenerated. Stored as
/// `results/BENCH_envelope.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Which experiment/profile this envelope pins (e.g. `fig_scale`).
    pub name: String,
    /// Why the baseline was (re)generated — updated on every regen.
    pub rationale: String,
    /// The pinned baseline profile.
    pub baseline: RunProfile,
}

impl Envelope {
    /// Serializes the envelope as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("name", Json::str(self.name.clone())),
            ("rationale", Json::str(self.rationale.clone())),
            ("baseline", self.baseline.to_json()),
        ])
    }

    /// Parses an envelope from its [`Envelope::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when the `schema_version` stamp is
    /// missing or mismatched, when a field is absent or malformed, or
    /// when the envelope still carries a `tolerances` object: the
    /// bounds are constants of the gate, so a custom bound there would
    /// otherwise be ignored silently.
    pub fn from_json(v: &Json) -> Result<Envelope, SchemaError> {
        check_schema_version(v, "bench envelope")?;
        if v.get("tolerances").is_some() {
            return Err(SchemaError::new(
                "bench envelope: `tolerances` is not read (the bounds are fixed in \
                 bench_diff); delete the object",
            ));
        }
        let malformed = || SchemaError::new("bench envelope: missing or malformed field");
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(malformed)
        };
        Ok(Envelope {
            name: text("name")?,
            rationale: text("rationale")?,
            baseline: RunProfile::from_json(v.get("baseline").ok_or_else(malformed)?)?,
        })
    }
}

/// One compared metric: values on both sides and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (e.g. `events_per_sec`, `count[tx_end]`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Human-readable bound the comparison applied.
    pub bound: String,
    /// `false` when the candidate broke the bound.
    pub ok: bool,
}

/// Outcome of one envelope comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every metric compared, in a stable order.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// `true` when no compared metric broke its bound.
    pub fn passed(&self) -> bool {
        self.deltas.iter().all(|d| d.ok)
    }

    /// The subset of deltas that broke their bound.
    pub fn violations(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| !d.ok).collect()
    }

    /// Multi-line human-readable report: one line per metric, verdict
    /// last.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {} {:<24} baseline {:>14.2}  candidate {:>14.2}  ({})",
                if d.ok { "ok  " } else { "FAIL" },
                d.metric,
                d.baseline,
                d.candidate,
                d.bound
            );
        }
        let _ = writeln!(
            out,
            "bench_diff: {} ({} metrics, {} violations)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            self.violations().len()
        );
        out
    }
}

/// Checks the invariants every healthy run profile satisfies, returning
/// the first one that fails. A profile that breaks one is not a
/// measurement to diff: it comes from a broken run or a corrupt file.
pub fn health_violation(p: &RunProfile) -> Option<&'static str> {
    let by_type: u64 = p.by_type.iter().map(|t| t.count).sum();
    let mc = p.medium_counters;
    [
        (p.events > 0, "events > 0"),
        (by_type == p.events, "per-type counts sum to the total"),
        (p.sim_nanos > 0, "sim_nanos > 0"),
        (p.queue_peak > 0, "queue_peak > 0"),
        // More recomputes than lookups means link-cache rows are thrown
        // away before they are read (the mobility cache-thrash bug).
        (
            mc.cache_recomputes <= mc.cache_lookups,
            "cache_recomputes <= cache_lookups",
        ),
    ]
    .into_iter()
    .find_map(|(holds, invariant)| (!holds).then_some(invariant))
}

/// Compares a candidate profile against an envelope's baseline: the
/// deterministic counters first, then the wall-clock metrics.
pub fn diff(envelope: &Envelope, candidate: &RunProfile) -> DiffReport {
    let base = &envelope.baseline;
    let mut deltas = counter_deltas(base, candidate);
    deltas.extend(wall_clock_deltas(base, candidate));
    DiffReport { deltas }
}

fn count_delta(metric: String, baseline: u64, candidate: u64) -> Delta {
    Delta {
        metric,
        baseline: baseline as f64,
        candidate: candidate as f64,
        bound: "deterministic, exact".to_string(),
        ok: candidate == baseline,
    }
}

/// The deterministic half of [`diff`]: counters that hold for a fixed
/// binary and seed on any host and in any build profile.
fn counter_deltas(base: &RunProfile, candidate: &RunProfile) -> Vec<Delta> {
    let mut deltas = vec![
        count_delta("events".to_string(), base.events, candidate.events),
        count_delta("sim_nanos".to_string(), base.sim_nanos, candidate.sim_nanos),
        count_delta(
            "queue_peak".to_string(),
            base.queue_peak,
            candidate.queue_peak,
        ),
    ];
    for bt in &base.by_type {
        let cand = candidate
            .by_type
            .iter()
            .find(|ct| ct.name == bt.name)
            .map_or(0, |ct| ct.count);
        deltas.push(count_delta(format!("count[{}]", bt.name), bt.count, cand));
    }
    for ct in &candidate.by_type {
        if ct.count > 0 && !base.by_type.iter().any(|bt| bt.name == ct.name) {
            // A type the baseline has never seen: the simulation
            // changed shape — regenerate the envelope deliberately.
            deltas.push(count_delta(format!("count[{}]", ct.name), 0, ct.count));
        }
    }

    // Link-cache health: the recompute/lookup ratio is deterministic
    // and regressing it re-opens the mobility cache-thrash bug.
    let ratio = |p: &RunProfile| {
        let mc = p.medium_counters;
        if mc.cache_lookups == 0 {
            0.0
        } else {
            mc.cache_recomputes as f64 / mc.cache_lookups as f64
        }
    };
    let (base_ratio, cand_ratio) = (ratio(base), ratio(candidate));
    deltas.push(Delta {
        metric: "recompute_per_lookup".to_string(),
        baseline: base_ratio,
        candidate: cand_ratio,
        bound: format!("<= baseline + {MAX_RECOMPUTE_RATIO_INCREASE:.3}"),
        ok: cand_ratio <= base_ratio + MAX_RECOMPUTE_RATIO_INCREASE,
    });
    deltas
}

/// The wall-clock half of [`diff`]: slowdown-only bounds, so a faster
/// candidate always passes.
fn wall_clock_deltas(base: &RunProfile, candidate: &RunProfile) -> Vec<Delta> {
    let base_eps = base.events_per_sec();
    let cand_eps = candidate.events_per_sec();
    let mut deltas = vec![Delta {
        metric: "events_per_sec".to_string(),
        baseline: base_eps,
        candidate: cand_eps,
        bound: format!("slowdown < {MAX_SLOWDOWN:.2}x"),
        ok: cand_eps * MAX_SLOWDOWN > base_eps,
    }];

    // Per-type dispatch cost, for types busy enough to time reliably.
    for bt in &base.by_type {
        if bt.count < MIN_TYPE_COUNT || bt.nanos == 0 {
            continue;
        }
        let Some(ct) = candidate
            .by_type
            .iter()
            .find(|ct| ct.name == bt.name && ct.count > 0)
        else {
            continue; // the counter half already flagged it
        };
        let base_cost = bt.nanos as f64 / bt.count as f64;
        let cand_cost = ct.nanos as f64 / ct.count as f64;
        deltas.push(Delta {
            metric: format!("ns_per_event[{}]", bt.name),
            baseline: base_cost,
            candidate: cand_cost,
            bound: format!("growth < {MAX_PER_TYPE_SLOWDOWN:.2}x"),
            ok: cand_cost < base_cost * MAX_PER_TYPE_SLOWDOWN,
        });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_sim::MediumCounters;

    fn baseline_profile() -> RunProfile {
        RunProfile {
            events: 22_100,
            wall_nanos: 180_000_000,
            sim_nanos: 400_000_000,
            queue_peak: 700,
            by_type: vec![
                comap_sim::profile::EventTypeProfile {
                    name: "tx_end".to_string(),
                    count: 4_000,
                    nanos: 80_000_000,
                },
                comap_sim::profile::EventTypeProfile {
                    name: "flow_timer".to_string(),
                    count: 18_000,
                    nanos: 60_000_000,
                },
                comap_sim::profile::EventTypeProfile {
                    name: "mobility".to_string(),
                    count: 100,
                    nanos: 1_000_000,
                },
            ],
            ledger_checks: 0,
            ledger_check_nanos: 0,
            medium_counters: MediumCounters {
                cache_recomputes: 17_000,
                cache_lookups: 70_000,
                cull_candidates: 150_000,
                cull_relevant: 70_000,
                moves_applied: 500,
                moves_coalesced: 0,
            },
        }
    }

    fn envelope() -> Envelope {
        Envelope {
            name: "fig_scale".to_string(),
            rationale: "test fixture".to_string(),
            baseline: baseline_profile(),
        }
    }

    #[test]
    fn identical_profiles_pass() {
        let report = diff(&envelope(), &baseline_profile());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn wall_clock_jitter_passes() {
        // 40% slower: within the loose wall-clock envelope.
        let mut cand = baseline_profile();
        cand.wall_nanos = (cand.wall_nanos as f64 * 1.4) as u64;
        for t in &mut cand.by_type {
            t.nanos = (t.nanos as f64 * 1.4) as u64;
        }
        let report = diff(&envelope(), &cand);
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn doubled_runtime_fails() {
        // The synthetic regression the gate exists for: same events,
        // twice the wall time — events/sec halves.
        let mut cand = baseline_profile();
        cand.wall_nanos *= 2;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed(), "{}", report.summary());
        let bad: Vec<_> = report
            .violations()
            .iter()
            .map(|d| d.metric.clone())
            .collect();
        assert!(bad.contains(&"events_per_sec".to_string()), "{bad:?}");
    }

    #[test]
    fn per_type_cost_blowup_fails_only_busy_types() {
        let mut cand = baseline_profile();
        for t in &mut cand.by_type {
            t.nanos *= 3;
        }
        let report = diff(&envelope(), &cand);
        let bad: Vec<_> = report
            .violations()
            .iter()
            .map(|d| d.metric.clone())
            .collect();
        assert!(bad.contains(&"ns_per_event[tx_end]".to_string()), "{bad:?}");
        // 100 mobility events are below min_type_count: noise, exempt.
        assert!(!bad.iter().any(|m| m.contains("mobility")), "{bad:?}");
    }

    #[test]
    fn deterministic_count_drift_fails_exactly() {
        let mut cand = baseline_profile();
        cand.events += 1;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed());
        let mut cand = baseline_profile();
        cand.by_type[0].count += 1;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed());
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "count[tx_end]"));
    }

    #[test]
    fn new_event_type_is_flagged() {
        let mut cand = baseline_profile();
        cand.by_type.push(comap_sim::profile::EventTypeProfile {
            name: "novel".to_string(),
            count: 5,
            nanos: 10,
        });
        let report = diff(&envelope(), &cand);
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "count[novel]"));
    }

    #[test]
    fn cache_thrash_regression_fails() {
        let mut cand = baseline_profile();
        cand.medium_counters.cache_recomputes = cand.medium_counters.cache_lookups;
        let report = diff(&envelope(), &cand);
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "recompute_per_lookup"));
    }

    #[test]
    fn unhealthy_profiles_name_the_broken_invariant() {
        assert_eq!(health_violation(&baseline_profile()), None);
        let broken = |breakage: fn(&mut RunProfile)| {
            let mut p = baseline_profile();
            breakage(&mut p);
            health_violation(&p)
        };
        assert_eq!(broken(|p| p.events = 0), Some("events > 0"));
        assert_eq!(
            broken(|p| p.by_type[0].count -= 1),
            Some("per-type counts sum to the total")
        );
        assert_eq!(broken(|p| p.sim_nanos = 0), Some("sim_nanos > 0"));
        assert_eq!(broken(|p| p.queue_peak = 0), Some("queue_peak > 0"));
        assert_eq!(
            broken(|p| p.medium_counters.cache_recomputes = p.medium_counters.cache_lookups + 1),
            Some("cache_recomputes <= cache_lookups")
        );
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let e = envelope();
        let text = e.to_json().to_string_compact();
        let back = Envelope::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn unstamped_envelope_is_rejected() {
        let err = Envelope::from_json(&Json::parse("{\"name\":\"x\"}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn envelope_with_tolerances_is_rejected() {
        // An envelope from before the bounds became constants: its
        // custom bounds would be ignored, so the whole file is refused.
        let text = envelope().to_json().to_string_compact();
        let stale = text.replacen("\"baseline\"", "\"tolerances\":{},\"baseline\"", 1);
        let err = Envelope::from_json(&Json::parse(&stale).unwrap()).unwrap_err();
        assert!(err.to_string().contains("bench envelope"), "{err}");
        assert!(err.to_string().contains("tolerances"), "{err}");
    }

    #[test]
    fn pinned_envelope_matches_a_fresh_fig_scale_profile() {
        // The envelope's baseline is the one pinned fig_scale profile: it
        // must parse and pass against itself, and a fresh profile of the
        // same run must reproduce its deterministic counters exactly.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let envelope_text =
            std::fs::read_to_string(format!("{root}/results/BENCH_envelope.json")).unwrap();
        let envelope = Envelope::from_json(&Json::parse(&envelope_text).unwrap()).unwrap();
        assert_eq!(envelope.name, "fig_scale");
        assert_eq!(health_violation(&envelope.baseline), None);
        let report = diff(&envelope, &envelope.baseline);
        assert!(report.passed(), "{}", report.summary());

        let (cfg, duration) = crate::instrument::representative("fig_scale");
        let (_, fresh) = comap_sim::Simulator::new(cfg).run_profiled(duration);
        assert_eq!(health_violation(&fresh), None);
        // Wall clock depends on the build and the host; the CI
        // bench_diff step gates it on a release build.
        let report = DiffReport {
            deltas: counter_deltas(&envelope.baseline, &fresh),
        };
        assert!(report.passed(), "{}", report.summary());
    }
}
