//! The acceptance gate: `simlint` must exit 0 on this tree. These tests
//! run the same lint-plus-budget call the binary runs, so `cargo test`
//! alone catches a regression even if CI's dedicated simlint step is
//! skipped.

use std::path::PathBuf;

use comap_lint::rules::check_budgets;
use comap_lint::{collect_sources, lint_files, lint_workspace, Rule};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The rules find nothing on this tree that an in-source
/// `simlint: allow` does not cover: no out-of-source exemption list
/// exists, so every exemption is visible at its site.
#[test]
fn workspace_is_clean_with_empty_baseline() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    assert!(
        files.len() > 20,
        "workspace walk found only {} sources under {} — walker broken?",
        files.len(),
        root.display()
    );
    let outcome = lint_files(&files);
    let rendered: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        outcome.findings.is_empty(),
        "workspace must lint clean with no exemption beyond in-source allows; findings:\n{}",
        rendered.join("\n")
    );
}

/// Every rule's allow count equals its fixed `Rule::budget`, and the
/// full `simlint` call (lint plus budget gate) is clean: a new
/// suppression trips the gate, and removing one without lowering its
/// constant does too. A new sequential draw — or a new wildcard
/// `SimEvent` arm — must be *fixed*, not suppressed.
#[test]
fn suppression_budgets_hold_and_allowlist_is_exact() {
    let root = workspace_root();
    let outcome = lint_workspace(&root).expect("workspace sources readable");

    assert_eq!(
        outcome.allows(Rule::RngDiscipline),
        0,
        "rng-discipline budget is 0: the 5 migration-debt sites (medium \
         fast-fade, medium hazard-survival, mac retry backoff, mac fresh \
         backoff, sim localization noise) are all on counter-keyed \
         streams now — fix new sequential draws, never suppress them"
    );
    assert_eq!(
        outcome.allows(Rule::MatchExhaustive),
        2,
        "match-exhaustive projections are the two observer sinks only"
    );
    assert_eq!(
        outcome.allows(Rule::ShardSafety),
        0,
        "shard-safety has a zero budget: fix non-Send state, never suppress it"
    );
    for rule in Rule::ALL {
        assert_eq!(
            outcome.allows(rule),
            rule.budget(),
            "`{}` has {} allow(s) but `Rule::budget` is {} — a budget must equal its tally",
            rule.name(),
            outcome.allows(rule),
            rule.budget()
        );
    }
    assert!(
        check_budgets(&outcome).is_empty(),
        "the budget gate must pass on this tree"
    );

    let rendered: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        outcome.findings.is_empty(),
        "workspace must lint clean within its fixed budgets; findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_walk_covers_every_library_crate() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    let joined = files
        .iter()
        .map(|f| f.rel_path.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for needle in [
        "crates/radio/src/lib.rs",
        "crates/mac/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/sim/src/lib.rs",
        "crates/experiments/src/lib.rs",
        "crates/lint/src/lib.rs",
    ] {
        assert!(joined.contains(needle), "walker missed {needle}");
    }
    // Vendored code, binaries and lint fixtures are out of scope —
    // fixtures are intentionally-violating code and must never be
    // scanned by the workspace walk.
    assert!(!joined.contains("vendor/"), "walker must skip vendor/");
    assert!(!joined.contains("main.rs"), "walker must skip binaries");
    assert!(
        !joined.contains("fixtures/"),
        "walker must skip lint fixtures"
    );
}
