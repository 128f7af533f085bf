//! CI perf-regression gate: diffs a `BENCH_*.json` profiling artifact
//! against a pinned envelope.
//!
//! Usage:
//!
//! ```text
//! bench_diff [--json] <candidate.json> [<envelope-or-baseline.json>]
//! ```
//!
//! The candidate is a [`RunProfile`] artifact as written by
//! `--profile-json`. The second argument is either an envelope
//! (`results/BENCH_envelope.json`, the default when omitted) or a bare
//! `RunProfile` baseline, which is compared under default tolerances.
//! `--json` emits the machine-readable delta report on stdout instead
//! of the human table. Both profiles must pass the health invariants of
//! [`health_violation`] before they are diffed.
//!
//! Exit codes: `0` pass, `1` unhealthy profile or regression detected,
//! `2` usage / IO / schema error.

use comap_experiments::bench_diff::{diff, health_violation, Envelope, Tolerances};
use comap_sim::{Json, RunProfile};

const DEFAULT_ENVELOPE: &str = "results/BENCH_envelope.json";

fn main() {
    let mut json_out = false;
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json_out = true;
        } else if arg.starts_with("--") {
            usage(&format!("unknown flag {arg}"));
        } else {
            paths.push(arg);
        }
    }
    let (candidate_path, baseline_path) = match paths.as_slice() {
        [c] => (c.clone(), DEFAULT_ENVELOPE.to_string()),
        [c, b] => (c.clone(), b.clone()),
        _ => usage("expected <candidate.json> [<envelope-or-baseline.json>]"),
    };

    let candidate = match RunProfile::from_json(&load(&candidate_path)) {
        Ok(p) => p,
        Err(e) => fail(&format!("{candidate_path}: {e}")),
    };
    let baseline_json = load(&baseline_path);
    // An envelope carries its own tolerances; a bare profile baseline
    // gets the defaults.
    let envelope = match Envelope::from_json(&baseline_json) {
        Ok(envelope) => envelope,
        Err(_) => match RunProfile::from_json(&baseline_json) {
            Ok(profile) => Envelope {
                name: baseline_path.clone(),
                rationale: "ad-hoc baseline (default tolerances)".to_string(),
                baseline: profile,
                tolerances: Tolerances::default(),
            },
            Err(e) => fail(&format!(
                "{baseline_path}: neither an envelope nor a run profile: {e}"
            )),
        },
    };

    for (path, profile) in [
        (&candidate_path, &candidate),
        (&baseline_path, &envelope.baseline),
    ] {
        if let Some(invariant) = health_violation(profile) {
            eprintln!("bench_diff: {path}: unhealthy profile, invariant violated: {invariant}");
            std::process::exit(1);
        }
    }

    let report = diff(&envelope, &candidate);
    if json_out {
        println!("{}", report.to_json().to_string_compact());
    } else {
        println!(
            "bench_diff: {candidate_path} vs {} ({})",
            baseline_path, envelope.name
        );
        print!("{}", report.summary());
    }
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
    eprintln!("usage: bench_diff [--json] <candidate.json> [<envelope-or-baseline.json>]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}");
    std::process::exit(2);
}
