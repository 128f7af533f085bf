//! Event-loop profiling: wall-clock throughput, per-event-type cost,
//! queue pressure, and ledger-check overhead for a single run.
//!
//! Profiling is orthogonal to the observer layer — it times the event
//! loop itself rather than listening to simulation events, and it never
//! touches simulation state, so a profiled run produces the same
//! [`SimReport`](crate::stats::SimReport) as an unprofiled one. Use
//! [`Simulator::run_profiled`](crate::Simulator::run_profiled) to get a
//! [`RunProfile`] next to the report.

use std::time::Instant;

use comap_mac::time::SimDuration;

use crate::event::{Event, EventQueue};
use crate::json::{check_schema_version, Json, SchemaError, SCHEMA_VERSION};
use crate::medium::MediumCounters;

/// Count and cumulative wall-clock cost of one event type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTypeProfile {
    /// Event type name (see [`Event::KIND_NAMES`]).
    pub name: String,
    /// Events of this type processed.
    pub count: u64,
    /// Total wall-clock nanoseconds spent dispatching them.
    pub nanos: u64,
}

/// Wall-clock profile of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Total events processed.
    pub events: u64,
    /// Wall-clock duration of the run, in nanoseconds.
    pub wall_nanos: u64,
    /// Simulated duration, in nanoseconds.
    pub sim_nanos: u64,
    /// Peak event-queue depth observed.
    pub queue_peak: u64,
    /// Per-event-type counts and dispatch cost.
    pub by_type: Vec<EventTypeProfile>,
    /// Number of ledger verifications performed (debug builds only).
    pub ledger_checks: u64,
    /// Wall-clock nanoseconds spent in ledger verification.
    pub ledger_check_nanos: u64,
    /// Link-cache and spatial-culling counters of the medium. Exposed
    /// here (and only here): they depend on the backend, so they must
    /// never reach a [`SimReport`](crate::stats::SimReport).
    pub medium_counters: MediumCounters,
}

impl RunProfile {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// Serializes the profile as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("events", Json::Uint(self.events)),
            ("wall_nanos", Json::Uint(self.wall_nanos)),
            ("sim_nanos", Json::Uint(self.sim_nanos)),
            ("events_per_sec", Json::Num(self.events_per_sec())),
            ("queue_peak", Json::Uint(self.queue_peak)),
            (
                "by_type",
                Json::Arr(
                    self.by_type
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("name", Json::str(t.name.clone())),
                                ("count", Json::Uint(t.count)),
                                ("nanos", Json::Uint(t.nanos)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ledger_checks", Json::Uint(self.ledger_checks)),
            ("ledger_check_nanos", Json::Uint(self.ledger_check_nanos)),
            (
                "medium_counters",
                Json::obj(vec![
                    (
                        "cache_recomputes",
                        Json::Uint(self.medium_counters.cache_recomputes),
                    ),
                    (
                        "cache_lookups",
                        Json::Uint(self.medium_counters.cache_lookups),
                    ),
                    (
                        "cull_candidates",
                        Json::Uint(self.medium_counters.cull_candidates),
                    ),
                    (
                        "cull_relevant",
                        Json::Uint(self.medium_counters.cull_relevant),
                    ),
                    (
                        "moves_applied",
                        Json::Uint(self.medium_counters.moves_applied),
                    ),
                    (
                        "moves_coalesced",
                        Json::Uint(self.medium_counters.moves_coalesced),
                    ),
                ]),
            ),
        ])
    }

    /// Parses a profile from its [`RunProfile::to_json`] form.
    ///
    /// The derived `events_per_sec` field is ignored on input — it is
    /// recomputed from `events` and `wall_nanos`.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when the `schema_version` stamp is
    /// missing or mismatched, or when a field is absent or malformed —
    /// `medium_counters` and all six of its fields included, so a
    /// profile that predates a counter is rejected rather than read as
    /// zeros.
    pub fn from_json(v: &Json) -> Result<RunProfile, SchemaError> {
        check_schema_version(v, "bench profile")?;
        let malformed = || SchemaError::new("bench profile: missing or malformed field");
        let field = |obj: &Json, key: &str| -> Result<u64, SchemaError> {
            obj.get(key).and_then(Json::as_u64).ok_or_else(malformed)
        };
        let counters = v.get("medium_counters").ok_or_else(malformed)?;
        let mut by_type = Vec::new();
        for entry in v
            .get("by_type")
            .and_then(Json::as_arr)
            .ok_or_else(malformed)?
        {
            by_type.push(EventTypeProfile {
                name: entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(malformed)?
                    .to_string(),
                count: field(entry, "count")?,
                nanos: field(entry, "nanos")?,
            });
        }
        Ok(RunProfile {
            events: field(v, "events")?,
            wall_nanos: field(v, "wall_nanos")?,
            sim_nanos: field(v, "sim_nanos")?,
            queue_peak: field(v, "queue_peak")?,
            by_type,
            ledger_checks: field(v, "ledger_checks")?,
            ledger_check_nanos: field(v, "ledger_check_nanos")?,
            medium_counters: MediumCounters {
                cache_recomputes: field(counters, "cache_recomputes")?,
                cache_lookups: field(counters, "cache_lookups")?,
                cull_candidates: field(counters, "cull_candidates")?,
                cull_relevant: field(counters, "cull_relevant")?,
                moves_applied: field(counters, "moves_applied")?,
                moves_coalesced: field(counters, "moves_coalesced")?,
            },
        })
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} events in {:.1} ms wall ({:.0} events/s), queue peak {}",
            self.events,
            self.wall_nanos as f64 / 1e6,
            self.events_per_sec(),
            self.queue_peak
        );
        for t in &self.by_type {
            if t.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>9} events  {:>8.2} ms  ({:.0} ns/event)",
                t.name,
                t.count,
                t.nanos as f64 / 1e6,
                t.nanos as f64 / t.count as f64
            );
        }
        if self.ledger_checks > 0 {
            let _ = writeln!(
                out,
                "  ledger checks  {:>9}         {:>8.2} ms",
                self.ledger_checks,
                self.ledger_check_nanos as f64 / 1e6
            );
        }
        let mc = self.medium_counters;
        if mc.cull_candidates > 0 {
            let culled = mc.cull_candidates - mc.cull_relevant;
            let _ = writeln!(
                out,
                "  medium: {} receiver visits ({} culled, {:.1}%), \
                 link cache {} lookups / {} recomputes",
                mc.cull_relevant,
                culled,
                100.0 * culled as f64 / mc.cull_candidates as f64,
                mc.cache_lookups,
                mc.cache_recomputes
            );
        }
        if mc.moves_applied + mc.moves_coalesced > 0 {
            let _ = writeln!(
                out,
                "  mobility: {} moves applied, {} coalesced by quantization",
                mc.moves_applied, mc.moves_coalesced
            );
        }
        out
    }
}

/// Live profiling state threaded through the event loop.
pub(crate) struct Profiler {
    start: Instant,
    counts: [u64; Event::KIND_COUNT],
    nanos: [u64; Event::KIND_COUNT],
    queue_peak: usize,
}

impl Profiler {
    #[expect(
        clippy::disallowed_methods,
        reason = "profiling measures wall time; results never feed sim state"
    )]
    pub(crate) fn new() -> Self {
        Profiler {
            start: Instant::now(),
            counts: [0; Event::KIND_COUNT],
            nanos: [0; Event::KIND_COUNT],
            queue_peak: 0,
        }
    }

    /// Called before each pop to track peak queue pressure.
    pub(crate) fn observe_queue(&mut self, queue: &EventQueue) {
        self.queue_peak = self.queue_peak.max(queue.len());
    }

    /// Starts timing one event dispatch.
    #[expect(
        clippy::disallowed_methods,
        reason = "profiling measures wall time; results never feed sim state"
    )]
    pub(crate) fn dispatch_start(&self) -> Instant {
        Instant::now()
    }

    /// Finishes timing one event dispatch.
    pub(crate) fn dispatch_end(&mut self, kind: usize, started: Instant) {
        self.counts[kind] += 1;
        self.nanos[kind] += started.elapsed().as_nanos() as u64;
    }

    pub(crate) fn finish(
        self,
        sim_duration: SimDuration,
        ledger_checks: u64,
        ledger_check_nanos: u64,
        medium_counters: MediumCounters,
    ) -> RunProfile {
        let wall_nanos = self.start.elapsed().as_nanos() as u64;
        let by_type = Event::KIND_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| EventTypeProfile {
                name: (*name).to_string(),
                count: self.counts[i],
                nanos: self.nanos[i],
            })
            .collect();
        RunProfile {
            events: self.counts.iter().sum(),
            wall_nanos,
            sim_nanos: sim_duration.as_nanos(),
            queue_peak: self.queue_peak as u64,
            by_type,
            ledger_checks,
            ledger_check_nanos,
            medium_counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunProfile {
        RunProfile {
            events: 1_000,
            wall_nanos: 2_000_000,
            sim_nanos: 400_000_000,
            queue_peak: 7,
            by_type: vec![
                EventTypeProfile {
                    name: "tx_end".to_string(),
                    count: 600,
                    nanos: 1_500_000,
                },
                EventTypeProfile {
                    name: "flow_timer".to_string(),
                    count: 400,
                    nanos: 500_000,
                },
            ],
            ledger_checks: 1_200,
            ledger_check_nanos: 90_000,
            medium_counters: MediumCounters {
                cache_recomputes: 30,
                cache_lookups: 4_400,
                cull_candidates: 5_000,
                cull_relevant: 4_400,
                moves_applied: 12,
                moves_coalesced: 3,
            },
        }
    }

    #[test]
    fn events_per_sec_is_events_over_wall_time() {
        let p = sample();
        assert!((p.events_per_sec() - 500_000.0).abs() < 1e-6);
        let idle = RunProfile {
            wall_nanos: 0,
            ..sample()
        };
        assert_eq!(idle.events_per_sec(), 0.0);
    }

    #[test]
    fn profile_round_trips_through_json() {
        let p = sample();
        let text = p.to_json().to_string_compact();
        let back = RunProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn profiles_without_medium_counters_are_rejected() {
        // A profile written before the culling layer existed has no
        // medium_counters object: zero-filling it would pass the
        // cache-thrash check vacuously, so it must not parse.
        let text = sample().to_json().to_string_compact();
        let idx = text.find(",\"medium_counters\"").expect("field present");
        let legacy = format!("{}}}", &text[..idx]);
        let err = RunProfile::from_json(&Json::parse(&legacy).unwrap()).unwrap_err();
        assert!(err.to_string().contains("bench profile"), "{err}");
    }

    #[test]
    fn zero_wall_time_round_trips_without_dividing() {
        // A degenerate (instantaneous) run: events_per_sec must guard
        // the division, and the serialized 0 must survive the trip.
        let p = RunProfile {
            wall_nanos: 0,
            ..sample()
        };
        let text = p.to_json().to_string_compact();
        let back = RunProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.events_per_sec(), 0.0);
    }

    #[test]
    fn empty_by_type_round_trips() {
        let p = RunProfile {
            events: 0,
            by_type: Vec::new(),
            ..sample()
        };
        let text = p.to_json().to_string_compact();
        let back = RunProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert!(back.by_type.is_empty());
    }

    #[test]
    fn profiles_without_move_counters_are_rejected() {
        // A medium_counters object from before the mobility rework has
        // no move counters: a missing counter is an error, not a zero.
        let legacy = r#"{"schema_version":2,"events":10,"wall_nanos":5,"sim_nanos":9,
            "queue_peak":1,"by_type":[],
            "ledger_checks":0,"ledger_check_nanos":0,
            "medium_counters":{"cache_recomputes":2,"cache_lookups":8,
            "cull_candidates":9,"cull_relevant":8}}"#;
        let err = RunProfile::from_json(&Json::parse(legacy).unwrap()).unwrap_err();
        assert!(err.to_string().contains("bench profile"), "{err}");
    }

    #[test]
    fn unstamped_or_mismatched_profiles_are_rejected_with_a_reason() {
        // An artifact from before the schema stamp existed: rejected,
        // and the error says what to do about it.
        let unstamped = r#"{"events":10,"wall_nanos":5,"sim_nanos":9,
            "queue_peak":1,"by_type":[],
            "ledger_checks":0,"ledger_check_nanos":0}"#;
        let err = RunProfile::from_json(&Json::parse(unstamped).unwrap()).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
        assert!(err.to_string().contains("bench profile"), "{err}");

        let future = r#"{"schema_version":99,"events":10,"wall_nanos":5,"sim_nanos":9,
            "queue_peak":1,"by_type":[],
            "ledger_checks":0,"ledger_check_nanos":0}"#;
        let err = RunProfile::from_json(&Json::parse(future).unwrap()).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
        assert!(err.to_string().contains("regenerate"), "{err}");
    }

    #[test]
    fn summary_mentions_throughput_and_types() {
        let s = sample().summary();
        assert!(s.contains("events/s"));
        assert!(s.contains("tx_end"));
        assert!(s.contains("ledger checks"));
    }
}
