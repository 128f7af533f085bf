//! The command line and instrumentation plumbing every experiment binary
//! shares.
//!
//! One strict parser, [`Args`], serves every binary: each declares the
//! experiment [`Flag`]s it accepts (`--quick`, `--report-json`), and an
//! unknown flag, a stray argument or a path flag without its path prints
//! usage and exits with code 2 — a typo never silently runs a different
//! experiment. Every binary accepts the instrumentation flags:
//!
//! * `--trace=<path>` — run one representative simulation of the
//!   experiment's topology with a [`JsonlSink`] attached and write the
//!   full event stream to `<path>` as JSON Lines. A trace that cannot be
//!   written in full exits 1, naming the path.
//! * `--metrics` — attach a [`MetricsSink`] to the same run and print a
//!   per-node summary (airtime utilization, queue depths, backoff
//!   stages, SINR) after the experiment's own output.
//! * `--profile-json=<path>` — profile the event loop of the same run
//!   and write the [`RunProfile`] JSON to `<path>`.
//! * `--latency-json=<path>` — attach a [`LatencySink`] to the same
//!   run, print per-node and aggregate end-to-end latency percentiles
//!   (p50/p95/p99) and write the latency section to `<path>` as JSON.
//!
//! The instrumented run is *additional* to the experiment itself: the
//! figures average over many seeds and attach no sinks, so their numbers
//! stay untouched, while the flags give a deep view into one
//! representative seed of the same topology.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::exit;
use std::sync::{Arc, Mutex, PoisonError};

use comap_mac::time::SimDuration;
use comap_sim::config::{MacFeatures, SimConfig};
use comap_sim::json::SCHEMA_VERSION;
use comap_sim::{
    Json, JsonlSink, LatencyHistogram, LatencySink, MetricsSink, SimReport, Simulator,
};

use crate::topology;

/// Instrumentation requests parsed from the command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// Write the event stream of the representative run here as JSONL.
    pub trace: Option<PathBuf>,
    /// Print the metrics summary of the representative run.
    pub metrics: bool,
    /// Write the event-loop profile of the representative run here.
    pub profile_json: Option<PathBuf>,
    /// Write the latency section of the representative run here and
    /// print its end-to-end percentiles.
    pub latency_json: Option<PathBuf>,
}

/// An experiment flag a binary may declare on top of the instrumentation
/// flags every binary accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick` / `-q`: fewer seeds and shorter simulations.
    Quick,
    /// `--report-json=<path>`: write one representative `SimReport`.
    ReportJson,
}

/// A parsed experiment command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick` was given.
    pub quick: bool,
    /// Where `--report-json` asked for the representative report.
    pub report_json: Option<PathBuf>,
    /// The instrumentation flags.
    pub instrumentation: Instrumentation,
}

impl Args {
    /// Parses the process arguments of binary `name`, which accepts the
    /// instrumentation flags plus `accepts`. On any error prints the
    /// message and the usage line and exits with code 2.
    pub fn from_env(name: &str, accepts: &[Flag]) -> Args {
        Self::parse(accepts, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprintln!("{}", usage(name, accepts));
            exit(2)
        })
    }

    /// Parses `args` (without the program name). Path flags take their
    /// path as `--flag=<path>` or as the next argument. The error names
    /// the offending argument when it is not a flag of this binary, when
    /// a path flag lacks its path, or when a switch is given a value.
    fn parse(accepts: &[Flag], args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
                _ => (arg.as_str(), None),
            };
            let mut path = || {
                inline
                    .map(str::to_string)
                    .or_else(|| args.next())
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("{flag} requires a path"))
            };
            let switch = |set: &mut bool| match inline {
                Some(_) => Err(format!("{flag} takes no value")),
                None => {
                    *set = true;
                    Ok(())
                }
            };
            let inst = &mut out.instrumentation;
            match flag {
                "--quick" | "-q" if accepts.contains(&Flag::Quick) => switch(&mut out.quick)?,
                "--report-json" if accepts.contains(&Flag::ReportJson) => {
                    out.report_json = Some(path()?);
                }
                "--trace" => inst.trace = Some(path()?),
                "--profile-json" => inst.profile_json = Some(path()?),
                "--latency-json" => inst.latency_json = Some(path()?),
                "--metrics" => switch(&mut inst.metrics)?,
                _ => return Err(format!("unknown argument {arg}")),
            }
        }
        Ok(out)
    }
}

/// The usage line of binary `name` accepting `accepts`.
fn usage(name: &str, accepts: &[Flag]) -> String {
    let mut line = format!("usage: {name}");
    for flag in accepts {
        line.push_str(match flag {
            Flag::Quick => " [--quick]",
            Flag::ReportJson => " [--report-json=<path>]",
        });
    }
    line + " [--trace=<path>] [--metrics] [--profile-json=<path>] [--latency-json=<path>]"
}

impl Instrumentation {
    /// `true` when any instrumentation flag was given.
    pub fn any(&self) -> bool {
        self.trace.is_some()
            || self.metrics
            || self.profile_json.is_some()
            || self.latency_json.is_some()
    }

    /// Runs one simulation of `cfg` for `duration` with every requested
    /// sink attached, honouring every flag, and returns its report with
    /// the sink-installed `metrics` section cleared: observation never
    /// perturbs a report, so that is byte for byte the report of a plain
    /// run, and one run serves a `--report-json` next to any
    /// instrumentation flag. Exits 1 with a message naming the path when
    /// an output file cannot be created or written.
    pub fn run(&self, name: &str, cfg: SimConfig, duration: SimDuration) -> SimReport {
        let mut sim = Simulator::new(cfg);
        let trace_error = TraceError::default();
        if let Some(path) = &self.trace {
            match File::create(path) {
                Ok(file) => sim.attach_sink(Box::new(JsonlSink::new(TraceFile {
                    file: BufWriter::new(file),
                    error: Arc::clone(&trace_error),
                }))),
                Err(e) => {
                    eprintln!("error: cannot create trace file {}: {e}", path.display());
                    exit(1);
                }
            }
        }
        if self.metrics {
            sim.attach_sink(Box::new(MetricsSink::new()));
        }
        if self.latency_json.is_some() {
            sim.attach_sink(Box::new(LatencySink::new()));
        }

        if self.any() {
            println!(
                "\n== instrumentation: one representative {name} run ({} ms) ==",
                duration.as_nanos() / 1_000_000
            );
        }
        let mut report = if let Some(path) = &self.profile_json {
            let (report, profile) = sim.run_profiled(duration);
            let text = profile.to_json().to_string_compact();
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write profile {}: {e}", path.display());
                exit(1);
            }
            print!("{}", profile.summary());
            println!("profile written to {}", path.display());
            report
        } else {
            sim.run(duration)
        };

        if let Some(path) = &self.trace {
            let failed = trace_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(e) = failed {
                eprintln!("error: cannot write trace file {}: {e}", path.display());
                exit(1);
            }
            println!("event trace written to {}", path.display());
        }
        if let Some(path) = &self.latency_json {
            #[expect(
                clippy::expect_used,
                reason = "the run above attached a LatencySink whenever latency_json is set"
            )]
            let latency = report
                .metrics
                .as_ref()
                .and_then(|m| m.latency.as_ref())
                .expect("LatencySink was attached");
            for (node, l) in &latency.nodes {
                print_latency_line(&format!("node {node}"), &l.e2e, l.delivered, l.dropped);
            }
            let agg = latency.aggregate();
            print_latency_line("aggregate", &agg.e2e, agg.delivered, agg.dropped);
            let artifact = Json::obj(vec![
                ("schema_version", Json::Uint(SCHEMA_VERSION)),
                ("experiment", Json::str(name)),
                ("latency", latency.to_json()),
            ]);
            if let Err(e) = std::fs::write(path, artifact.to_string_compact() + "\n") {
                eprintln!("error: cannot write latency JSON {}: {e}", path.display());
                exit(1);
            }
            println!("latency section written to {}", path.display());
        }
        if self.metrics {
            #[expect(
                clippy::expect_used,
                reason = "the run above attached a MetricsSink whenever self.metrics is set"
            )]
            let metrics = report.metrics.as_ref().expect("MetricsSink was attached");
            let total_ns = duration.as_nanos() as f64;
            for (node, m) in &metrics.nodes {
                let busy: u64 = m.airtime_busy_ns.iter().sum();
                let draws: u64 = m.backoff_stage.iter().sum();
                let sinr = m
                    .sinr
                    .mean()
                    .map(|s| format!("{s:.1} dB over {} rx", m.sinr.count))
                    .unwrap_or_else(|| "n/a".to_string());
                println!(
                    "node {:>2}: airtime {:5.1}%  queue peak {} (mean {:.2})  \
                     {draws} backoff draws  SINR mean {sinr}",
                    node.0,
                    100.0 * busy as f64 / total_ns,
                    m.queue_depth_peak,
                    m.mean_queue_depth().unwrap_or(0.0),
                );
            }
        }
        report.metrics = None;
        report
    }
}

/// The first I/O error of the trace file, shared with its writer.
type TraceError = Arc<Mutex<Option<io::Error>>>;

/// The trace file's writer: a buffered file that keeps its first write
/// or flush error, because the [`JsonlSink`] that records the error is
/// consumed by the run.
struct TraceFile {
    file: BufWriter<File>,
    error: TraceError,
}

impl TraceFile {
    /// Passes `result` through, keeping a copy of its error if it is the
    /// first.
    fn record<T>(&self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert_with(|| io::Error::new(e.kind(), e.to_string()));
        }
        result
    }
}

impl Write for TraceFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.file.write(buf);
        self.record(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.file.flush();
        self.record(result)
    }
}

/// Prints one end-to-end latency summary line (p50/p95/p99).
fn print_latency_line(label: &str, e2e: &LatencyHistogram, delivered: u64, dropped: u64) {
    let q = |p: f64| {
        e2e.quantile(p)
            .map(|ns| format!("{:.3} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "n/a".to_string())
    };
    println!(
        "  {label:<10} e2e p50 {} p95 {} p99 {}  ({delivered} delivered, {dropped} dropped)",
        q(0.50),
        q(0.95),
        q(0.99)
    );
}

/// A representative configuration of the named experiment: the
/// topology one seed of that figure would run, paired with a duration
/// long enough to exercise every code path yet short enough for CI.
pub fn representative(name: &str) -> (SimConfig, SimDuration) {
    let duration = SimDuration::from_millis(400);
    let cfg = match name {
        "fig02" => topology::ht_testbed(1000, 1, MacFeatures::COMAP, 1).0,
        "fig07" => topology::validation_cell(5, 3, 255, 1000, 1).0,
        "fig09" => topology::fig9_topology(0, MacFeatures::COMAP, 1).0,
        "fig10" | "table1" => topology::large_scale(1, 1, MacFeatures::COMAP, 0.0).0,
        // The full 150-node campus: the profiler run CI checks in as a
        // BENCH artifact exercises the culled medium at top scale.
        "fig_scale" => crate::fig_scale::representative_config(1),
        // ablation, all, fig01, fig08, rtscts: the ET testbed is their
        // common ground (C2 in the exposed region).
        _ => topology::et_testbed(26.0, MacFeatures::COMAP, 1).0,
    };
    (cfg, duration)
}

/// One-liner for experiment binaries: when any instrumentation flag was
/// given, runs one instrumented representative simulation of the named
/// experiment after the figure's own output.
pub fn run_if_requested(name: &str, inst: &Instrumentation) {
    if !inst.any() {
        return;
    }
    let (cfg, duration) = representative(name);
    inst.run(name, cfg, duration);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(accepts: &[Flag], args: &[&str]) -> Result<Args, String> {
        Args::parse(accepts, args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Instrumentation {
        try_parse(&[], args).expect("valid args").instrumentation
    }

    #[test]
    fn parses_all_flag_forms() {
        let inst = parse(&[
            "--trace=/tmp/a.jsonl",
            "--metrics",
            "--profile-json",
            "/tmp/p.json",
            "--latency-json=/tmp/l.json",
        ]);
        assert_eq!(inst.trace, Some(PathBuf::from("/tmp/a.jsonl")));
        assert!(inst.metrics);
        assert_eq!(inst.profile_json, Some(PathBuf::from("/tmp/p.json")));
        assert_eq!(inst.latency_json, Some(PathBuf::from("/tmp/l.json")));
        assert!(inst.any());
    }

    #[test]
    fn experiment_flags_parse_only_where_declared() {
        let both = [Flag::Quick, Flag::ReportJson];
        let args = try_parse(&both, &["-q", "--report-json", "r.json"]).expect("declared");
        assert!(args.quick);
        assert_eq!(args.report_json, Some(PathBuf::from("r.json")));
        assert_eq!(args.instrumentation, Instrumentation::default());
        assert!(!args.instrumentation.any());
        assert!(try_parse(&both, &["--quick"]).expect("declared").quick);

        let err = try_parse(&[], &["--quick"]).unwrap_err();
        assert!(err.contains("--quick"), "{err}");
        assert!(try_parse(&[Flag::Quick], &["--report-json=r.json"]).is_err());
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for bad in ["--quik", "somefile", "-x", "--metric"] {
            let err = try_parse(&[Flag::Quick], &[bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn switches_take_no_value() {
        assert!(try_parse(&[Flag::Quick], &["--quick=yes"]).is_err());
        assert!(try_parse(&[], &["--metrics=1"]).is_err());
    }

    #[test]
    fn usage_lists_the_declared_flags() {
        let line = usage("fig_scale", &[Flag::Quick, Flag::ReportJson]);
        assert!(line.starts_with("usage: fig_scale [--quick] [--report-json=<path>]"));
        assert!(line.contains("--latency-json"));
        assert!(!usage("table1", &[]).contains("--quick"));
    }

    #[test]
    fn separated_value_form() {
        let inst = parse(&["--trace", "t.jsonl"]);
        assert_eq!(inst.trace, Some(PathBuf::from("t.jsonl")));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = try_parse(&[], &["--profile-json"]).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
    }

    #[test]
    fn every_experiment_has_a_representative() {
        for name in [
            "ablation",
            "all",
            "fig01",
            "fig02",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig_scale",
            "rtscts",
            "table1",
        ] {
            let (cfg, d) = representative(name);
            assert!(!cfg.nodes.is_empty(), "{name} has nodes");
            assert!(!cfg.flows.is_empty(), "{name} has flows");
            assert!(d.as_nanos() > 0);
        }
    }
}
