//! The experiment binaries' command-line contracts, run as processes: a
//! typo'd flag exits with code 2 before any simulation starts, and
//! `bench_diff` refuses an unhealthy profile with exit code 1, naming
//! the invariant it breaks — whichever side of the diff it is on.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
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

#[test]
fn bench_diff_rejects_a_profile_whose_type_counts_do_not_sum() {
    let (healthy, broken) = (
        fixture("healthy_profile.json"),
        fixture("type_counts_off_by_one.json"),
    );
    let out = run(env!("CARGO_BIN_EXE_bench_diff"), &[&healthy, &healthy]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a healthy profile passes itself"
    );

    for args in [[&broken, &healthy], [&healthy, &broken]] {
        let out = run(env!("CARGO_BIN_EXE_bench_diff"), &[args[0], args[1]]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("type_counts_off_by_one.json")
                && stderr.contains("per-type counts sum to the total"),
            "{stderr}"
        );
    }
}
