//! The experiment binaries' command-line contracts, run as processes: a
//! typo'd flag exits with code 2 before any simulation starts, a trace
//! that cannot be written exits with code 1 naming its path, and
//! `bench_diff` refuses an unhealthy profile with exit code 1, naming
//! the invariant it breaks — whichever side of the diff it is on. The
//! gate reads one shape per side: a complete profile, then an envelope.
//! Anything else exits 2 with the schema error of the side it broke, and
//! input that is not JSON at all exits 2 with the parse error.

use std::process::{Command, Output};

use comap_sim::Json;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn bench_diff(args: &[&str]) -> (Option<i32>, String) {
    let out = run(env!("CARGO_BIN_EXE_bench_diff"), args);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Writes `text` to a file named `name` in the test's scratch
/// directory and returns its path. Each test writes its own names, so
/// parallel tests never read a half-written file.
fn scratch_file(name: &str, text: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    path
}

/// Wraps a profile fixture into an envelope with that profile as its
/// baseline.
fn envelope_of(profile_fixture: &str) -> String {
    let profile = std::fs::read_to_string(fixture(profile_fixture)).unwrap();
    let stem = profile_fixture.trim_end_matches(".json");
    scratch_file(
        &format!("{stem}_envelope.json"),
        &format!(
            "{{\"schema_version\":2,\"name\":\"{stem}\",\
             \"rationale\":\"test fixture\",\"baseline\":{profile}}}"
        ),
    )
}

fn pinned_envelope() -> String {
    format!(
        "{}/../../results/BENCH_envelope.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn a_typoed_flag_prints_usage_and_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_fig02"), &["--quik"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no experiment ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument --quik"), "{stderr}");
    assert!(stderr.contains("usage: fig02 [--quick]"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_trace_that_cannot_be_written_exits_1_naming_the_path() {
    // Every write to /dev/full fails with "no space left on device".
    let out = run(
        env!("CARGO_BIN_EXE_fig02"),
        &["--quick", "--trace=/dev/full"],
    );
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("/dev/full"), "{stderr}");
    assert!(!stdout.contains("written"), "{stdout}");
}

#[test]
fn bench_diff_rejects_a_profile_whose_type_counts_do_not_sum() {
    let (healthy, broken) = (
        fixture("healthy_profile.json"),
        fixture("type_counts_off_by_one.json"),
    );
    let (healthy_envelope, broken_envelope) = (
        envelope_of("healthy_profile.json"),
        envelope_of("type_counts_off_by_one.json"),
    );
    let (code, stderr) = bench_diff(&[&healthy, &healthy_envelope]);
    assert_eq!(code, Some(0), "a healthy profile passes itself: {stderr}");

    for (candidate, envelope, culprit) in [
        (&broken, &healthy_envelope, &broken),
        (&healthy, &broken_envelope, &broken_envelope),
    ] {
        let (code, stderr) = bench_diff(&[candidate, envelope]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains(culprit.as_str())
                && stderr.contains("per-type counts sum to the total"),
            "{stderr}"
        );
    }
}

#[test]
fn bench_diff_refuses_a_bare_profile_as_the_envelope() {
    let healthy = fixture("healthy_profile.json");
    let (code, stderr) = bench_diff(&[&healthy, &healthy]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bench envelope"), "{stderr}");
}

#[test]
fn bench_diff_has_no_json_flag() {
    let healthy = fixture("healthy_profile.json");
    let (code, stderr) = bench_diff(&["--json", &healthy, &pinned_envelope()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --json"), "{stderr}");
}

#[test]
fn bench_diff_refuses_a_profile_missing_its_medium_counters() {
    // The pinned baseline minus its medium counters: zero-filled, it
    // would pass the cache-thrash check against itself vacuously.
    let envelope = pinned_envelope();
    let pinned = Json::parse(&std::fs::read_to_string(&envelope).unwrap()).unwrap();
    let Some(Json::Obj(mut fields)) = pinned.get("baseline").cloned() else {
        panic!("the pinned envelope has a baseline object");
    };
    fields.retain(|(key, _)| key != "medium_counters");
    let stale = scratch_file("stale_profile.json", &Json::Obj(fields).to_string_compact());
    let (code, stderr) = bench_diff(&[&stale, &envelope]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bench profile"), "{stderr}");
}

#[test]
fn bench_diff_reports_a_malformed_envelope_as_an_envelope_error() {
    // An envelope that still carries a tolerance, here as a string.
    let text = std::fs::read_to_string(pinned_envelope()).unwrap();
    let malformed = scratch_file(
        "malformed_envelope.json",
        &text.replacen(
            "\"baseline\"",
            "\"tolerances\": {\"max_slowdown\": \"1.75\"}, \"baseline\"",
            1,
        ),
    );
    let healthy = fixture("healthy_profile.json");
    let (code, stderr) = bench_diff(&[&healthy, &malformed]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bench envelope"), "{stderr}");
}

#[test]
fn bench_diff_reports_deeply_nested_input_as_invalid_json() {
    // Past the parser's depth bound: a JSON error, not a stack overflow.
    let deep = scratch_file("deep_profile.json", &"[".repeat(1_000_000));
    let (code, stderr) = bench_diff(&[&deep, &pinned_envelope()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
