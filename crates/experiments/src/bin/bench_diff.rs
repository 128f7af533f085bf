//! CI perf-regression gate: diffs a `BENCH_*.json` profiling artifact
//! against a pinned envelope.
//!
//! Usage:
//!
//! ```text
//! bench_diff <candidate.json> <envelope.json>
//! ```
//!
//! The candidate is a [`RunProfile`] artifact as written by
//! `--profile-json`. The second argument is an [`Envelope`] such as
//! `results/BENCH_envelope.json`; any other file is a schema error.
//! Both the candidate and the envelope's baseline must pass the health
//! invariants of [`health_violation`] before they are diffed under the
//! gate's fixed bounds.
//!
//! Exit codes: `0` pass, `1` unhealthy profile or regression detected,
//! `2` usage / IO / schema error.

use comap_experiments::bench_diff::{diff, health_violation, Envelope};
use comap_sim::{Json, RunProfile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        usage(&format!("unknown flag {flag}"));
    }
    let [candidate_path, envelope_path] = args.as_slice() else {
        usage("expected <candidate.json> <envelope.json>");
    };

    let candidate = RunProfile::from_json(&load(candidate_path))
        .unwrap_or_else(|e| fail(&format!("{candidate_path}: {e}")));
    let envelope = Envelope::from_json(&load(envelope_path))
        .unwrap_or_else(|e| fail(&format!("{envelope_path}: {e}")));

    for (path, profile) in [
        (candidate_path, &candidate),
        (envelope_path, &envelope.baseline),
    ] {
        if let Some(invariant) = health_violation(profile) {
            eprintln!("bench_diff: {path}: unhealthy profile, invariant violated: {invariant}");
            std::process::exit(1);
        }
    }

    let report = diff(&envelope, &candidate);
    println!(
        "bench_diff: {candidate_path} vs {envelope_path} ({})",
        envelope.name
    );
    print!("{}", report.summary());
    if !report.passed() {
        std::process::exit(1);
    }
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")))
}

fn usage(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}");
    eprintln!("usage: bench_diff <candidate.json> <envelope.json>");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}");
    std::process::exit(2);
}
