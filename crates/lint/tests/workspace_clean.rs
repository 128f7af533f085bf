//! The acceptance gate from the issue: `simlint --workspace` must exit
//! 0 on this tree with an empty baseline. This test runs the same scan
//! the binary runs, so `cargo test` alone catches a regression even if
//! CI's dedicated simlint step is skipped.

use std::fs;
use std::path::{Path, PathBuf};

use comap_lint::report::{parse_budget, tally_allows, Budget};
use comap_lint::{collect_sources, lint_files};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

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
        "workspace must lint clean with an empty baseline; findings:\n{}",
        rendered.join("\n")
    );
}

/// Every `--max-allows <rule>=<n>` budget passed on a non-comment line
/// of `text` (a shell script or workflow file), sorted by rule.
fn max_allows(text: &str) -> Vec<Budget> {
    let mut budgets = Vec::new();
    for line in text.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let mut words = line.split_whitespace();
        while let Some(word) = words.next() {
            if word == "--max-allows" {
                let spec = words.next().expect("--max-allows takes a value");
                budgets.push(parse_budget(spec).unwrap_or_else(|| panic!("bad budget {spec}")));
            }
        }
    }
    budgets.sort_by(|a, b| a.rule.cmp(&b.rule));
    budgets
}

/// The budgets of the simlint gate in scripts/check.sh, the one list.
fn check_sh_budgets(root: &Path) -> Vec<Budget> {
    let script = fs::read_to_string(root.join("scripts/check.sh")).expect("scripts/check.sh");
    let budgets = max_allows(&script);
    assert!(
        !budgets.is_empty(),
        "scripts/check.sh passes no --max-allows"
    );
    budgets
}

#[test]
fn ci_passes_the_check_sh_budgets() {
    let root = workspace_root();
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    assert_eq!(
        max_allows(&ci),
        check_sh_budgets(&root),
        "ci.yml and scripts/check.sh must pass the identical --max-allows set"
    );
}

/// The rng-discipline migration is complete: the allowlist is empty.
/// Every budget in scripts/check.sh (and so in CI) equals the live
/// tally, and every rule with a live allow has a budget: a new
/// suppression trips the gate, and removing one without lowering its
/// budget fails here. A new sequential draw — or a new wildcard
/// `SimEvent` arm — must be *fixed*, not suppressed.
#[test]
fn suppression_budgets_hold_and_allowlist_is_exact() {
    let root = workspace_root();
    let files = collect_sources(&root).expect("workspace sources readable");
    let outcome = lint_files(&files);
    let tally = tally_allows(&outcome, &[]);
    let count = |rule: &str| tally.get(rule).copied().unwrap_or_default().total();

    assert_eq!(
        count("rng-discipline"),
        0,
        "rng-discipline budget is 0: the 5 migration-debt sites (medium \
         fast-fade, medium hazard-survival, mac retry backoff, mac fresh \
         backoff, sim localization noise) are all on counter-keyed \
         streams now — fix new sequential draws, never suppress them"
    );
    assert_eq!(
        count("match-exhaustive"),
        2,
        "match-exhaustive projections are the two observer sinks only"
    );
    assert_eq!(
        count("shard-safety"),
        0,
        "shard-safety has a zero budget: fix non-Send state, never suppress it"
    );

    let budgets = check_sh_budgets(&root);
    for b in &budgets {
        assert_eq!(
            count(&b.rule),
            b.max,
            "scripts/check.sh budgets `{}` at {} but {} allow(s) remain — \
             a budget must equal its tally",
            b.rule,
            b.max,
            count(&b.rule)
        );
    }
    for (rule, used) in &tally {
        assert!(
            used.total() == 0 || budgets.iter().any(|b| &b.rule == rule),
            "`{rule}` has {} live allow(s) but no --max-allows budget in scripts/check.sh",
            used.total()
        );
    }
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
    // scanned in workspace mode.
    assert!(!joined.contains("vendor/"), "walker must skip vendor/");
    assert!(!joined.contains("main.rs"), "walker must skip binaries");
    assert!(
        !joined.contains("fixtures/"),
        "walker must skip lint fixtures"
    );
}
