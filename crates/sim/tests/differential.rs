//! The differential harness: the culled backend is only allowed to be
//! *faster* than the exhaustive one, never *different*.
//!
//! Every scenario from the shared corpus (static, mobile and dense
//! topologies — see `common/mod.rs`) runs through both
//! [`MediumBackend`]s with a timeline and a metrics sink attached, and
//! the results must match **bit for bit**:
//!
//! * the full `SimReport` JSON (per-link stats, per-node stats, medium
//!   counters, metrics section) compared as raw bytes,
//! * the complete timestamped event stream,
//! * and, on a sparse scenario, the profiler must show the culled
//!   backend actually skipping receivers — so the corpus cannot
//!   silently degenerate into one where the equivalence is vacuous.
//!
//! Per-scenario wall-clock timings are written as JSON to the path in
//! `DIFFERENTIAL_TIMING_JSON` (set by CI, uploaded as a BENCH
//! artifact).

mod common;

use std::time::Instant;

use comap_mac::time::{SimDuration, SimTime};
use comap_sim::config::SimConfig;
use comap_sim::{MediumBackend, MetricsSink, SimEvent, Simulator, TimelineSink};

use common::{all_scenarios, scenario, ScenarioClass};

/// Runs one scenario under `backend`; returns the report JSON, the
/// event stream and the wall-clock nanoseconds of the run.
fn run(
    mut cfg: SimConfig,
    duration: SimDuration,
    backend: MediumBackend,
) -> (String, Vec<(SimTime, SimEvent)>, u64) {
    cfg.backend = backend;
    let mut sim = Simulator::new(cfg);
    let (sink, handle) = TimelineSink::new();
    sim.attach_sink(Box::new(sink));
    sim.attach_sink(Box::new(MetricsSink::new()));
    #[expect(
        clippy::disallowed_methods,
        reason = "wall clock only times the run for the BENCH artifact"
    )]
    let started = Instant::now();
    let report = sim.run(duration);
    let nanos = started.elapsed().as_nanos() as u64;
    (report.to_json().to_string_compact(), handle.events(), nanos)
}

/// Compares two event streams, pointing at the first divergence instead
/// of dumping both streams.
fn assert_streams_equal(name: &str, ex: &[(SimTime, SimEvent)], cu: &[(SimTime, SimEvent)]) {
    for (i, (e, c)) in ex.iter().zip(cu.iter()).enumerate() {
        assert_eq!(
            e,
            c,
            "{name}: event streams diverge at index {i} (of {} / {})",
            ex.len(),
            cu.len()
        );
    }
    assert_eq!(
        ex.len(),
        cu.len(),
        "{name}: one stream is a strict prefix of the other"
    );
}

#[test]
fn culled_and_exhaustive_are_bit_identical_on_the_corpus() {
    let scenarios = all_scenarios();
    assert!(
        scenarios.len() >= 20,
        "the corpus must cover at least 20 scenarios"
    );
    let mut timings = Vec::new();
    for s in scenarios {
        let (report_ex, events_ex, nanos_ex) =
            run(s.cfg.clone(), s.duration, MediumBackend::Exhaustive);
        let (report_cu, events_cu, nanos_cu) = run(s.cfg, s.duration, MediumBackend::Culled);
        assert!(
            report_ex == report_cu,
            "{}: SimReport JSON diverged\nexhaustive: {report_ex}\nculled:     {report_cu}",
            s.name
        );
        assert_streams_equal(&s.name, &events_ex, &events_cu);
        timings.push((s.name, nanos_ex, nanos_cu));
    }

    // CI uploads the timing table as a BENCH artifact; locally the env
    // var is unset and nothing is written.
    if let Ok(path) = std::env::var("DIFFERENTIAL_TIMING_JSON") {
        let rows: Vec<String> = timings
            .iter()
            .map(|(name, ex, cu)| {
                format!(
                    "{{\"scenario\":\"{name}\",\"exhaustive_nanos\":{ex},\"culled_nanos\":{cu}}}"
                )
            })
            .collect();
        let body = format!("{{\"differential_timing\":[{}]}}\n", rows.join(","));
        std::fs::write(&path, body).expect("write differential timing artifact");
    }
}

/// The equivalence must not be vacuous: on a sparse static scenario the
/// culled backend has to *actually* enumerate fewer candidates than the
/// exhaustive backend while producing the identical report.
#[test]
fn sparse_scenarios_really_cull() {
    let s = scenario(ScenarioClass::Static, 2);
    let mut cfg = s.cfg.clone();
    cfg.backend = MediumBackend::Culled;
    let (report_cu, profile_cu) = Simulator::new(cfg).run_profiled(s.duration);
    let mut cfg = s.cfg;
    cfg.backend = MediumBackend::Exhaustive;
    let (report_ex, profile_ex) = Simulator::new(cfg).run_profiled(s.duration);

    let cu = profile_cu.medium_counters;
    let ex = profile_ex.medium_counters;
    // Same relevant set (that is the exactness contract) ...
    assert_eq!(cu.cull_relevant, ex.cull_relevant);
    assert_eq!(cu.cache_lookups, ex.cache_lookups);
    // ... but the culled backend pre-filters spatially.
    assert!(
        cu.cull_candidates < ex.cull_candidates,
        "culled candidates {} must be below exhaustive {}",
        cu.cull_candidates,
        ex.cull_candidates
    );
    // And some links of this sparse field are genuinely sub-floor.
    assert!(
        ex.cull_relevant < ex.cull_candidates,
        "corpus regression: no sub-floor links in the sparse scenario"
    );
    assert_eq!(
        report_ex.to_json().to_string_compact(),
        report_cu.to_json().to_string_compact()
    );
}

/// Like [`run`], but optionally pre-warms the whole link cache before
/// the run — the opposite fill order to the lazy default, exercising
/// the counter-keyed draw discipline end to end.
fn run_filled(
    mut cfg: SimConfig,
    duration: SimDuration,
    backend: MediumBackend,
    warm: bool,
) -> (String, Vec<(SimTime, SimEvent)>) {
    cfg.backend = backend;
    let mut sim = Simulator::new(cfg);
    if warm {
        sim.warm_link_cache();
    }
    let (sink, handle) = TimelineSink::new();
    sim.attach_sink(Box::new(sink));
    sim.attach_sink(Box::new(MetricsSink::new()));
    let report = sim.run(duration);
    (report.to_json().to_string_compact(), handle.events())
}

/// The stream-discipline corpus: after the counter-keyed RNG migration
/// no draw may depend on evaluation order, so every scenario class must
/// produce byte-identical SimReport JSON and event streams across
/// backend × fill-order (lazy vs pre-warmed cache) × quick/full
/// durations. The guard clauses at the bottom keep the corpus
/// non-vacuous: it must actually contend (non-zero backoff slots),
/// resolve receptions under interference (hazard survival draws) and
/// move nodes (localization-noise draws) somewhere along the way.
#[test]
fn stream_discipline_holds_across_backend_fill_order_and_duration() {
    let mut saw_contended_backoff = false;
    let mut saw_survival_resolution = false;
    for class in [
        ScenarioClass::Static,
        ScenarioClass::Mobile,
        ScenarioClass::Dense,
    ] {
        for seed in [31, 32] {
            let s = scenario(class, seed);
            let quick = SimDuration::from_micros(s.duration.as_micros_round() / 2);
            for duration in [quick, s.duration] {
                let mut baseline: Option<(String, Vec<(SimTime, SimEvent)>)> = None;
                for backend in [MediumBackend::Exhaustive, MediumBackend::Culled] {
                    for warm in [false, true] {
                        let (report, events) = run_filled(s.cfg.clone(), duration, backend, warm);
                        for (_, e) in &events {
                            if let SimEvent::BackoffDraw { slots, .. } = e {
                                if *slots > 0 {
                                    saw_contended_backoff = true;
                                }
                            }
                            if let SimEvent::RxResolved { .. } = e {
                                saw_survival_resolution = true;
                            }
                            if let SimEvent::HazardDrop { .. } = e {
                                saw_survival_resolution = true;
                            }
                        }
                        match &baseline {
                            None => baseline = Some((report, events)),
                            Some((base_report, base_events)) => {
                                assert!(
                                    &report == base_report,
                                    "{} @ {duration}: report diverged under \
                                     backend {backend:?}, warm {warm}",
                                    s.name
                                );
                                assert_streams_equal(&s.name, base_events, &events);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        saw_contended_backoff,
        "corpus regression: no contended backoff draw anywhere"
    );
    assert!(
        saw_survival_resolution,
        "corpus regression: no lock ever resolved through a survival draw"
    );

    // The mobile class must actually move (localization-noise draws);
    // seed 32 runs with CO-MAP features, so accepted fixes surface as
    // position reports too.
    let s = scenario(ScenarioClass::Mobile, 32);
    let (report, profile) = Simulator::new(s.cfg).run_profiled(s.duration);
    assert!(
        profile.medium_counters.moves_applied > 0,
        "corpus regression: the mobile scenario never moved a node"
    );
    assert!(
        report.position_reports > 0,
        "corpus regression: no localization fix was ever reported"
    );
}

/// Moving nodes re-file in the grid: a mobile scenario keeps the
/// backends in lockstep through every `set_position`.
#[test]
fn mobile_scenarios_stay_identical_through_movement() {
    for seed in [11, 12] {
        let s = scenario(ScenarioClass::Mobile, seed);
        let (report_ex, events_ex, _) = run(s.cfg.clone(), s.duration, MediumBackend::Exhaustive);
        let (report_cu, events_cu, _) = run(s.cfg, s.duration, MediumBackend::Culled);
        assert!(report_ex == report_cu, "{}: report diverged", s.name);
        assert_streams_equal(&s.name, &events_ex, &events_cu);
    }
}
