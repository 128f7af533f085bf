//! Each rule of the old hand-rolled linter, checked on its seeded
//! violations. A rule that `tests/source_rules` scans is run on the
//! violating and clean lines of its fixture, inline; a rule that clippy
//! carries is checked by pinning the configuration that makes clippy
//! carry it (`clippy.toml`, and the lint list at each library crate
//! root), so dropping an entry there fails here rather than silently.

mod source_rules;

use source_rules::{
    budget_mismatches, clippy_toml_paths, compares_to_zero, expect_counts, expected_lints,
    library_lines, library_sources, root_lints, std_rng_lines, unit_violations, Source,
    EXPECT_BUDGET, LIBRARY_ROOTS,
};

/// Every library crate whose root does not warn all of `lints`, with
/// the lints it lacks.
fn roots_missing(crates: &[&str], lints: &[&str]) -> Vec<String> {
    crates
        .iter()
        .filter_map(|krate| {
            let warned = root_lints(krate);
            let lacking: Vec<&str> = lints
                .iter()
                .copied()
                .filter(|lint| !warned.iter().any(|w| w == lint))
                .collect();
            (!lacking.is_empty()).then(|| format!("{krate}: {lacking:?}"))
        })
        .collect()
}

/// The library crates whose non-test code names `word`.
fn crates_naming(word: &str) -> Vec<&'static str> {
    let mut crates: Vec<&'static str> = library_sources()
        .into_iter()
        .filter(|src| src.lines.iter().any(|(_, code)| code.contains(word)))
        .map(|src| src.krate)
        .collect();
    crates.dedup();
    crates
}

fn all_crates() -> Vec<&'static str> {
    LIBRARY_ROOTS.iter().map(|&(krate, _)| krate).collect()
}

#[test]
fn unit_hygiene_fixture_is_fully_detected() {
    let src = "\
pub struct Dbm(f64);
pub fn set_tx_power(power: f64) -> f64 {
    power
}
pub fn record_rssi(rssi_dbm: f64) {}
pub fn pathloss_at(distance: f64) -> f64 {
    distance * 2.0
}
pub fn capture_margin(sinr: f64, threshold_db: f64) -> bool {
    sinr > threshold_db
}
pub(crate) fn spread(
    &self,
    loss: f64,
    count: usize,
) -> f64 {
    loss
}
pub fn typed_power(power: Dbm) -> Dbm {
    power
}
fn internal_power(power: f64) -> f64 {
    power
}
pub fn with_alpha(alpha: f64, frequency_hz: f64) -> f64 {
    alpha + frequency_hz
}
pub fn map_power<F: Fn(f64) -> f64>(f: F, scale: f64) -> f64 {
    let power: f64 = 1.0;
    f(power) * scale
}
#[cfg(test)]
mod tests {
    pub fn helper(power: f64) {}
}
";
    let found: Vec<(usize, String)> = unit_violations(&library_lines(src))
        .into_iter()
        .map(|(n, name, _)| (n, name))
        .collect();
    let want: Vec<(usize, String)> = [
        (2, "power"),
        (5, "rssi_dbm"),
        (6, "distance"),
        (9, "sinr"),
        (9, "threshold_db"),
        (14, "loss"),
    ]
    .iter()
    .map(|&(n, name)| (n, name.to_string()))
    .collect();
    assert_eq!(found, want);
}

#[test]
fn rng_discipline_fixture_is_fully_detected() {
    let violating = "\
use rand::rngs::StdRng;
pub struct Engine {
    rng: StdRng,
    seed: u64,
}
impl Engine {
    pub fn rekeyed_wrong(&self) -> f64 {
        let mut local = StdRng::seed_from_u64(self.seed);
        local.gen::<f64>()
    }
    // A comment naming StdRng is not code.
    pub fn fade_keyed(&self, link: u32, counter: u64) -> f64 {
        keyed_normal(self.seed, link, counter)
    }
}
#[cfg(test)]
mod tests {
    #[test]
    fn seeded_draws() {
        let mut rng = StdRng::seed_from_u64(7);
    }
}
";
    assert_eq!(std_rng_lines(&library_lines(violating)), vec![1, 3, 8]);

    let clean = "\
pub struct Engine {
    seed: u64,
}
impl Engine {
    pub fn fade(&self, link: u32, counter: u64) -> f64 {
        keyed_normal(self.seed, link, counter)
    }
    pub fn backoff(&self, node: u32, attempt: u64) -> u64 {
        mix(self.seed ^ (node as u64), attempt) & 0xff
    }
    pub fn name(&self) -> &str {
        \"StdRngLike\"
    }
}
";
    assert!(std_rng_lines(&library_lines(clean)).is_empty());
}

/// `== 0.0` is the zero scan's; every other float compare is
/// `clippy::float_cmp`'s, warned in every library crate.
#[test]
fn float_eq_fixture_is_fully_detected() {
    for violating in [
        "let a = x == 0.0;",
        "let b = 0.0 != x;",
        "if y != -0.0 {",
        "x == 0.0_f64",
    ] {
        assert!(compares_to_zero(violating), "{violating}");
    }
    for clean in [
        "let d = n == 0;",
        "let e = x <= 0.0 && x >= -1.0;",
        "let f = label == \"0.0\";",
        "self.0 == 0",
        "let g = x == 0.05;",
        "let h = x == 10.0;",
        "let c = x == 1e-9;",
    ] {
        assert!(!compares_to_zero(clean), "{clean}");
    }
    let src = "\
pub fn checks(x: f64) -> bool {
    x == 0.0 // an exact sentinel
}
// x == 0.0 in a comment is not code.
#[cfg(test)]
mod tests {
    fn t() { assert!(1.0 == 0.0); }
}
";
    let flagged: Vec<usize> = library_lines(src)
        .into_iter()
        .filter(|(_, code)| compares_to_zero(code))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(flagged, vec![2]);
    assert!(
        roots_missing(&all_crates(), &["clippy::float_cmp"]).is_empty(),
        "{:?}",
        roots_missing(&all_crates(), &["clippy::float_cmp"])
    );
}

/// The budget scan counts each expected lint, the workspace holds its
/// budget exactly, and one more `#[expect]` — or one for a lint with no
/// budget — trips it.
#[test]
fn suppression_budget_fixture_trips_and_respects_budgets() {
    let src = "\
#[expect(
    clippy::expect_used,
    reason = \"a reason, with a comma (and parens)\"
)]
fn a() {}
#[expect(clippy::panic, clippy::float_cmp, reason = \"two at once\")]
fn b() {}
// #[expect(clippy::todo, reason = \"commented out\")]
#[cfg(test)]
mod tests {
    #[expect(clippy::expect_used, reason = \"tests are not counted\")]
    fn c() {}
}
";
    assert_eq!(
        expected_lints(&library_lines(src)),
        vec!["clippy::expect_used", "clippy::panic", "clippy::float_cmp"]
    );

    let mut sources = library_sources();
    assert!(budget_mismatches(&expect_counts(&sources)).is_empty());
    let expect_budget = EXPECT_BUDGET
        .iter()
        .find(|(lint, _)| *lint == "clippy::expect_used")
        .map(|&(_, n)| n)
        .unwrap();
    let extra = "\
#[expect(clippy::expect_used, reason = \"one more than the budget\")]
pub fn justified(xs: &[u32]) -> u32 {
    *xs.first().expect(\"callers pass a non-empty slice\")
}
#[expect(clippy::todo, reason = \"a lint with no budget\")]
pub fn later() {
    todo!()
}
";
    sources.push(Source {
        krate: "core",
        path: "crates/core/src/suppression_budget.rs".to_string(),
        text: extra.to_string(),
        lines: library_lines(extra),
    });
    assert_eq!(
        budget_mismatches(&expect_counts(&sources)),
        vec![
            (
                "clippy::expect_used".to_string(),
                expect_budget + 1,
                expect_budget
            ),
            ("clippy::todo".to_string(), 1, 0),
        ]
    );
}

/// A suppression must say why, and must be an `#[expect]` (which rustc
/// rejects once it silences nothing), never an `#[allow]`.
#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let lints = [
        "clippy::allow_attributes",
        "clippy::allow_attributes_without_reason",
    ];
    let missing = roots_missing(&all_crates(), &lints);
    assert!(missing.is_empty(), "{missing:?}");
}

#[test]
fn panic_policy_fixture_is_fully_detected() {
    let lints = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::todo",
    ];
    let missing = roots_missing(&all_crates(), &lints);
    assert!(missing.is_empty(), "{missing:?}");
}

/// Hash-ordered collections, the wall clock and unseeded randomness are
/// banned workspace-wide.
#[test]
fn determinism_fixture_is_fully_detected() {
    let types = clippy_toml_paths("disallowed-types");
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(types.iter().any(|t| t == path), "{path} not in {types:?}");
    }
    let methods = clippy_toml_paths("disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "rand::thread_rng",
    ] {
        assert!(
            methods.iter().any(|m| m == path),
            "{path} not in {methods:?}"
        );
    }
}

/// Shared interior mutability and per-thread state are banned
/// workspace-wide; the `Send` assertion in `comap-sim` covers the rest.
#[test]
fn shard_safety_fixture_is_fully_detected() {
    let types = clippy_toml_paths("disallowed-types");
    for path in [
        "std::rc::Rc",
        "std::cell::RefCell",
        "std::cell::Cell",
        "std::cell::UnsafeCell",
    ] {
        assert!(types.iter().any(|t| t == path), "{path} not in {types:?}");
    }
    let macros = clippy_toml_paths("disallowed-macros");
    assert_eq!(macros, vec!["std::thread_local"]);
}

/// Every crate that matches on `SimEvent` rejects a wildcard arm over it.
#[test]
fn match_exhaustive_fixture_is_fully_detected() {
    let crates = crates_naming("SimEvent::");
    assert!(crates.contains(&"sim"), "{crates:?}");
    let missing = roots_missing(&crates, &["clippy::wildcard_enum_match_arm"]);
    assert!(missing.is_empty(), "{missing:?}");
}

/// Every crate that names `MediumBackend` rejects a wildcard arm over
/// it. The enum has two variants, and clippy reports a `_` that covers
/// exactly one variant under `match_wildcard_for_single_variants`.
#[test]
fn backend_exhaustive_fixture_is_fully_detected() {
    let crates = crates_naming("MediumBackend");
    assert!(crates.contains(&"sim") && crates.contains(&"experiments"));
    let missing = roots_missing(
        &crates,
        &[
            "clippy::wildcard_enum_match_arm",
            "clippy::match_wildcard_for_single_variants",
        ],
    );
    assert!(missing.is_empty(), "{missing:?}");
}
