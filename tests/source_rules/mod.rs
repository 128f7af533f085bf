//! Source rules that clippy cannot state, and the configuration that
//! lets clippy state the rest.
//!
//! `cargo clippy --workspace --all-targets -- -D warnings` is the static
//! gate: `clippy.toml` bans types, methods and macros workspace-wide, and
//! each library crate root warns a list of lints outside `cfg(test)`.
//! [`clippy_toml_paths`] and [`root_lints`] read that configuration, so
//! the tests can pin it. Five rules need the source text instead:
//!
//! 1. **Units** — a `pub fn` in `comap-radio` or `comap-sim` takes a unit
//!    newtype, never a raw `f64`, for a parameter whose name implies a
//!    physical unit (paper eqs. 1–4 mix dBm, dB, mW and metres).
//! 2. **Sequential RNG** — `StdRng` appears only on the lines that seed
//!    the simulator today; every per-event draw goes through a keyed
//!    stream, so no hot path shares a mutable RNG.
//! 3. **Zero compares** — no `== 0.0` / `!= 0.0`, which `clippy::float_cmp`
//!    exempts.
//! 4. **Suppression budget** — each lint's `#[expect]` count equals its
//!    constant in [`EXPECT_BUDGET`]. Fixing a site means lowering the
//!    constant; rustc already rejects an `#[expect]` that silences
//!    nothing.
//! 5. **Assert budget** — each library crate's `assert!`/`assert_eq!`/
//!    `assert_ne!` line count equals its constant in [`ASSERT_BUDGET`].
//!    `clippy::panic` does not flag these macros; a caller-supplied
//!    input deserves a typed error, and an internal invariant a
//!    `debug_assert!`.
//!
//! The scans read rustfmt-formatted sources (the formatting gate runs
//! first), skip `src/bin`, `main.rs` and every `#[cfg(test)]` item, and
//! ignore line comments.
//!
//! `tests/workspace_clean.rs` runs the scans over the workspace;
//! `tests/fixtures.rs` runs them on seeded violations and pins the gate's
//! configuration; `tests/truncated.rs` feeds them malformed input.

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The library source trees, relative to the workspace root, with the
/// short crate name the rules are scoped by.
pub const LIBRARY_ROOTS: [(&str, &str); 6] = [
    ("comap", "src"),
    ("radio", "crates/radio/src"),
    ("mac", "crates/mac/src"),
    ("core", "crates/core/src"),
    ("sim", "crates/sim/src"),
    ("experiments", "crates/experiments/src"),
];

/// Crates whose public functions the unit rule covers.
pub const UNIT_CRATES: [&str; 2] = ["radio", "sim"];

/// Crates that must not draw from a sequential RNG.
pub const RNG_CRATES: [&str; 3] = ["sim", "mac", "core"];

/// The lines per file that may name `StdRng`: the seeding of the
/// simulator and the medium. Every other file in [`RNG_CRATES`] holds 0.
pub const STD_RNG_LINES: [(&str, usize); 2] = [
    ("crates/sim/src/medium.rs", 2),
    ("crates/sim/src/sim.rs", 3),
];

/// How many `#[expect]` attributes each lint may carry in library code,
/// held exactly. A lint that is not listed holds 0.
pub const EXPECT_BUDGET: [(&str, usize); 5] = [
    ("clippy::disallowed_methods", 4),
    ("clippy::expect_used", 7),
    ("clippy::float_cmp", 2),
    ("clippy::panic", 1),
    ("clippy::wildcard_enum_match_arm", 2),
];

/// How many `assert!`, `assert_eq!` and `assert_ne!` lines each library
/// crate may hold, held exactly. A crate that is not listed holds 0.
pub const ASSERT_BUDGET: [(&str, usize); 5] = [
    ("core", 0),
    ("experiments", 5),
    ("mac", 5),
    ("radio", 11),
    ("sim", 4),
];

/// One library file: its crate, its workspace-relative path, its text
/// and its non-test code lines.
pub struct Source {
    pub krate: &'static str,
    pub path: String,
    pub text: String,
    pub lines: Vec<(usize, String)>,
}

/// The workspace root, where the root package's manifest sits.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every library file under [`LIBRARY_ROOTS`], in crate then path order.
pub fn library_sources() -> Vec<Source> {
    let root = workspace_root();
    let mut sources = Vec::new();
    for (krate, dir) in LIBRARY_ROOTS {
        let mut files = Vec::new();
        collect_rs(&root.join(dir), &mut files);
        for file in files {
            let text = fs::read_to_string(&file).unwrap();
            let rel = file.strip_prefix(root).unwrap();
            sources.push(Source {
                krate,
                path: rel.to_string_lossy().replace('\\', "/"),
                lines: library_lines(&text),
                text,
            });
        }
    }
    assert!(
        sources.len() > 40,
        "found only {} library files",
        sources.len()
    );
    sources
}

/// Every `.rs` file under `dir`, sorted, except binaries.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "bin" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(path);
        }
    }
}

/// The non-test code of a rustfmt-formatted file as `(line number,
/// code)` pairs: each `#[cfg(test)]` item is dropped through its last
/// line (a one-line item, or the closing brace at the attribute's
/// indent), and line comments are stripped.
pub fn library_lines(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        if line.trim() == "#[cfg(test)]" {
            let indent = &line[..line.len() - line.trim_start().len()];
            let close = format!("{indent}}}");
            for (_, item) in lines.by_ref() {
                let one_line = item.strip_prefix(indent).is_some_and(|rest| {
                    !rest.starts_with([' ', '#']) && rest.ends_with([';', ',', '}'])
                });
                if one_line || item == close {
                    break;
                }
            }
            continue;
        }
        let code = strip_comment(line);
        if !code.trim().is_empty() {
            out.push((i + 1, code.to_string()));
        }
    }
    out
}

/// `line` up to its first `//` outside a string or char literal.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            // Skip a char literal's body, so `'"'` opens no string.
            b'\'' if !in_str && bytes.get(i + 1) == Some(&b'\\') => i += 3,
            b'\'' if !in_str && bytes.get(i + 2) == Some(&b'\'') => i += 2,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// The unit a parameter name implies, as the newtype to take instead.
fn unit_suggestion(name: &str) -> Option<&'static str> {
    if name == "dbm" || name.ends_with("_dbm") {
        Some("comap_radio::units::Dbm")
    } else if name == "db" || name.ends_with("_db") {
        Some("comap_radio::units::Db")
    } else if name == "mw" || name.ends_with("_mw") || name.contains("power") {
        Some("comap_radio::units::MilliWatts (or Dbm)")
    } else if name == "loss" || name.ends_with("_loss") {
        Some("comap_radio::units::Db")
    } else if name.starts_with("dist") || name.ends_with("_dist") {
        Some("comap_radio::units::Meters")
    } else if name == "sir" || name == "sinr" || name.ends_with("_sir") || name.ends_with("_sinr") {
        Some("comap_radio::units::Db")
    } else {
        None
    }
}

/// Unit-named raw-`f64` parameters of the `pub fn`s in `lines`, as
/// `(line number, parameter, suggested type)`.
pub fn unit_violations(lines: &[(usize, String)]) -> Vec<(usize, String, &'static str)> {
    let mut found = Vec::new();
    let mut in_signature = false;
    for (n, code) in lines {
        let trimmed = code.trim_start();
        if trimmed.starts_with("pub") && trimmed.contains(" fn ") {
            in_signature = true;
        }
        if !in_signature {
            continue;
        }
        // The parameter list ends where the body or the declaration
        // starts; only the text before that point is signature.
        let end = code.find(['{', ';']).unwrap_or(code.len());
        let signature = &code[..end];
        for (at, _) in signature.match_indices(": f64") {
            let rest = &signature[at + ": f64".len()..];
            if !(rest.is_empty() || rest.starts_with(',') || rest.starts_with(')')) {
                continue;
            }
            let head = &signature[..at];
            let name_start = head
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            let name = &head[name_start..];
            if let Some(suggestion) = unit_suggestion(name) {
                found.push((*n, name.to_string(), suggestion));
            }
        }
        if end < code.len() {
            in_signature = false;
        }
    }
    found
}

/// The line numbers in `lines` that name `StdRng`.
pub fn std_rng_lines(lines: &[(usize, String)]) -> Vec<usize> {
    lines
        .iter()
        .filter(|(_, code)| has_word(code, "StdRng"))
        .map(|(n, _)| *n)
        .collect()
}

fn has_word(code: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// The line numbers in `lines` that invoke `assert!`, `assert_eq!` or
/// `assert_ne!`. `debug_assert!` and its siblings are not counted.
pub fn assert_lines(lines: &[(usize, String)]) -> Vec<usize> {
    lines
        .iter()
        .filter(|(_, code)| {
            ["assert!", "assert_eq!", "assert_ne!"]
                .iter()
                .any(|mac| has_word(code, mac))
        })
        .map(|(n, _)| *n)
        .collect()
}

/// Each library crate whose assert line count in `sources` differs from
/// [`ASSERT_BUDGET`], as `(crate, count, budget)`.
pub fn assert_mismatches<'a>(
    sources: impl IntoIterator<Item = &'a Source>,
) -> Vec<(&'static str, usize, usize)> {
    let mut counts: BTreeMap<&'static str, usize> =
        LIBRARY_ROOTS.iter().map(|&(krate, _)| (krate, 0)).collect();
    for src in sources {
        *counts.entry(src.krate).or_default() += assert_lines(&src.lines).len();
    }
    counts
        .into_iter()
        .filter_map(|(krate, count)| {
            let budget = ASSERT_BUDGET
                .iter()
                .find(|(name, _)| *name == krate)
                .map_or(0, |&(_, n)| n);
            (count != budget).then_some((krate, count, budget))
        })
        .collect()
}

/// Whether `code` compares something with `==`/`!=` against a zero
/// float literal, on either side.
pub fn compares_to_zero(code: &str) -> bool {
    let is_zero = |operand: &str| {
        let operand = operand.strip_prefix('-').unwrap_or(operand);
        operand
            .strip_prefix("0.0")
            .is_some_and(|tail| !tail.starts_with(|c: char| c.is_ascii_digit() || c == '.'))
    };
    ["==", "!="].iter().any(|op| {
        code.match_indices(op).any(|(at, _)| {
            let right = code[at + 2..].trim_start();
            let left = code[..at].trim_end();
            let left_token_start = left
                .rfind(|c: char| !(c.is_alphanumeric() || c == '.' || c == '_' || c == '-'))
                .map_or(0, |i| i + 1);
            is_zero(right) || is_zero(&left[left_token_start..])
        })
    })
}

/// The lint names of every `#[expect(..)]` attribute in `lines`, in
/// order. The lints are the arguments before `reason = "..."`.
pub fn expected_lints(lines: &[(usize, String)]) -> Vec<String> {
    let text = lines
        .iter()
        .map(|(_, code)| code.trim())
        .collect::<Vec<_>>()
        .join(" ");
    let mut lints = Vec::new();
    for marker in ["#[expect(", "#![expect("] {
        for (at, _) in text.match_indices(marker) {
            let args = &text[at + marker.len()..];
            let end = args.find(['"', ')']).unwrap_or(args.len());
            let names = args[..end].split("reason").next().unwrap_or("");
            lints.extend(
                names
                    .split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(str::to_string),
            );
        }
    }
    lints
}

/// How many `#[expect]`s each lint carries across `sources`.
pub fn expect_counts<'a>(sources: impl IntoIterator<Item = &'a Source>) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for src in sources {
        for lint in expected_lints(&src.lines) {
            *counts.entry(lint).or_default() += 1;
        }
    }
    counts
}

/// Each lint whose count in `counts` differs from [`EXPECT_BUDGET`], as
/// `(lint, count, budget)`.
pub fn budget_mismatches(counts: &BTreeMap<String, usize>) -> Vec<(String, usize, usize)> {
    let budget: BTreeMap<&str, usize> = EXPECT_BUDGET.into_iter().collect();
    let mut lints: Vec<&str> = counts.keys().map(String::as_str).collect();
    lints.extend(budget.keys());
    lints.sort_unstable();
    lints.dedup();
    lints
        .into_iter()
        .filter_map(|lint| {
            let count = counts.get(lint).copied().unwrap_or(0);
            let allowed = budget.get(lint).copied().unwrap_or(0);
            (count != allowed).then(|| (lint.to_string(), count, allowed))
        })
        .collect()
}

/// The lints a library crate root warns outside `cfg(test)`: the
/// arguments of `warn(..)` inside its `#![cfg_attr(not(test), ..)]`.
pub fn root_lints(krate: &str) -> Vec<String> {
    let (_, dir) = LIBRARY_ROOTS
        .iter()
        .find(|(name, _)| *name == krate)
        .unwrap();
    let text = fs::read_to_string(workspace_root().join(dir).join("lib.rs")).unwrap();
    let Some(at) = text.find("#![cfg_attr(") else {
        return Vec::new();
    };
    let attr = &text[at..];
    let attr = &attr[..attr.find(")]").unwrap_or(attr.len())];
    if !attr.contains("not(test)") {
        return Vec::new();
    }
    let Some(warn) = attr.find("warn(") else {
        return Vec::new();
    };
    let args = &attr[warn + "warn(".len()..];
    args[..args.find(')').unwrap_or(args.len())]
        .split(',')
        .map(str::trim)
        .filter(|lint| !lint.is_empty())
        .map(str::to_string)
        .collect()
}

/// The `path`s listed under `key` (`disallowed-types`,
/// `disallowed-methods` or `disallowed-macros`) in the root
/// `clippy.toml`.
pub fn clippy_toml_paths(key: &str) -> Vec<String> {
    let text = fs::read_to_string(workspace_root().join("clippy.toml")).unwrap();
    let mut paths = Vec::new();
    let mut in_key = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_suffix("= [") {
            in_key = name.trim() == key;
        } else if line == "]" {
            in_key = false;
        } else if in_key {
            if let Some(rest) = line.split("path = \"").nth(1) {
                paths.extend(rest.split('"').next().map(str::to_string));
            }
        }
    }
    paths
}
