//! The source rules over this tree: every scan in `source_rules` comes
//! out clean, and the suppressions it tolerates are exactly the ones its
//! constants name. `cargo test` alone therefore catches what clippy
//! cannot (see `source_rules` for the rules).

mod source_rules;

use source_rules::{
    assert_mismatches, budget_mismatches, compares_to_zero, expect_counts, library_sources,
    std_rng_lines, unit_violations, RNG_CRATES, STD_RNG_LINES, UNIT_CRATES,
};

/// The unit and zero scans find nothing on this tree. Neither has an
/// exemption list: a site is fixed, or it fails here.
#[test]
fn workspace_is_clean_with_empty_baseline() {
    let mut found = Vec::new();
    for src in library_sources() {
        if UNIT_CRATES.contains(&src.krate) {
            for (line, name, suggestion) in unit_violations(&src.lines) {
                found.push(format!(
                    "{}:{line}: [units] `{name}: f64` — take `{suggestion}`",
                    src.path
                ));
            }
        }
        for (n, code) in &src.lines {
            if compares_to_zero(code) {
                found.push(format!(
                    "{}:{n}: [zero compare] {} — use an ordering test, or an integer field",
                    src.path,
                    code.trim()
                ));
            }
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// Each lint's `#[expect]` count equals its constant in `EXPECT_BUDGET`,
/// and each file's `StdRng` lines equal their count in `STD_RNG_LINES`:
/// a new suppression or sequential draw fails here, and so does a fixed
/// one whose constant was not lowered.
#[test]
fn suppression_budgets_hold_and_allowlist_is_exact() {
    let sources = library_sources();
    let mismatches: Vec<String> = budget_mismatches(&expect_counts(&sources))
        .into_iter()
        .map(|(lint, count, budget)| {
            format!("`{lint}`: {count} #[expect](s), EXPECT_BUDGET says {budget}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "fix the new site, or lower the constant when a site was fixed:\n{}",
        mismatches.join("\n")
    );

    let mut found = Vec::new();
    for src in sources.iter().filter(|s| RNG_CRATES.contains(&s.krate)) {
        let lines = std_rng_lines(&src.lines);
        let allowed = STD_RNG_LINES
            .iter()
            .find(|(path, _)| *path == src.path)
            .map_or(0, |&(_, n)| n);
        if lines.len() != allowed {
            found.push(format!(
                "{}: {} StdRng lines {lines:?}, expected {allowed} — draw from a keyed stream \
                 (comap_radio::stream), or lower STD_RNG_LINES if a seeding line went",
                src.path,
                lines.len()
            ));
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
    for (path, _) in STD_RNG_LINES {
        assert!(
            sources.iter().any(|s| s.path == path),
            "STD_RNG_LINES names {path}, which the walk did not find"
        );
    }
}

/// Each library crate's `assert!`/`assert_eq!`/`assert_ne!` line count
/// equals its constant in `ASSERT_BUDGET`: a new assert fails here, and
/// so does a removed one whose constant was not lowered.
#[test]
fn assert_budget_holds_exactly() {
    let found: Vec<String> = assert_mismatches(&library_sources())
        .into_iter()
        .map(|(krate, count, budget)| {
            let fix = if count > budget {
                "use a typed error or `debug_assert!`"
            } else {
                "lower the constant"
            };
            format!("{krate}: {count} assert lines, ASSERT_BUDGET says {budget} — {fix}")
        })
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn workspace_walk_covers_every_library_crate() {
    let sources = library_sources();
    let paths: Vec<&str> = sources.iter().map(|s| s.path.as_str()).collect();
    for root in [
        "src/lib.rs",
        "crates/radio/src/lib.rs",
        "crates/mac/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/experiments/src/lib.rs",
    ] {
        assert!(paths.contains(&root), "the walk missed {root}");
    }
    // Binaries, vendored code and test code are out of scope.
    for path in paths {
        assert!(
            !path.ends_with("main.rs") && !path.contains("/bin/"),
            "the walk must skip binaries: {path}"
        );
        assert!(
            !path.starts_with("vendor/") && !path.contains("tests/"),
            "the walk must skip vendored and test code: {path}"
        );
    }
    // The trailing test module of a file is not library code.
    let json = sources
        .iter()
        .find(|s| s.path == "crates/sim/src/json.rs")
        .unwrap();
    assert!(json.text.contains("#[cfg(test)]"));
    assert!(json.lines.iter().all(|(_, code)| !code.contains("#[test]")));
}
