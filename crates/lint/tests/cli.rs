//! The `simlint` binary at its command line: the plain run is the gate,
//! `--json` writes the schema-3 report, and every retired option (and
//! any positional path) is a usage error, exit 2.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn simlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("simlint runs")
}

#[test]
fn plain_run_passes_and_prints_the_allows_line() {
    let out = simlint(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("simlint: 0 finding(s)"), "{stdout}");
    assert!(stdout.contains("simlint allows: "), "{stdout}");
}

#[test]
fn json_report_lists_one_budget_per_rule() {
    let path = std::env::temp_dir().join(format!("simlint-cli-{}.json", std::process::id()));
    let out = simlint(&["--json", path.to_str().expect("utf-8 temp path"), "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    let json = fs::read_to_string(&path).expect("report written");
    let _ = fs::remove_file(&path);
    assert!(json.starts_with("{\"schema_version\":3,"), "{json}");
    assert!(!json.contains("baseline"), "{json}");
    for rule in comap_lint::Rule::ALL {
        let entry = format!(
            "{{\"rule\":\"{}\",\"budget\":{},",
            rule.name(),
            rule.budget()
        );
        assert_eq!(json.matches(&entry).count(), 1, "{entry} in {json}");
    }
}

#[test]
fn retired_options_and_paths_are_usage_errors() {
    for args in [
        &["--workspace"][..],
        &["--max-allows", "panic-policy=17"],
        &["--baseline", "x"],
        &["--write-baseline"],
        &["crates/sim/src/lib.rs"],
    ] {
        let out = simlint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: simlint [--json <path>] [--quiet]"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = simlint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("usage: simlint [--json <path>] [--quiet]")
    );
}

#[test]
fn json_without_a_path_is_a_usage_error() {
    let out = simlint(&["--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--json requires a path"), "{stderr}");
}
