//! Workspace discovery and source collection.
//!
//! simlint audits *library* code: `src/` of the root crate and of every
//! crate under `crates/`. Binaries (`src/main.rs`, `src/bin/`), tests,
//! benches, examples and the vendored dependency stand-ins under
//! `vendor/` are out of scope — the panic policy explicitly permits
//! panics in executables and test code, and the vendor tree mirrors
//! third-party APIs we do not control.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{check_budgets, lint_files, LintOutcome, SourceFile};

/// Walks upward from `start` to the nearest directory whose
/// `Cargo.toml` declares `[workspace]`.
pub fn discover_workspace(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints every library source under `root` and gates each rule's allow
/// count against its fixed budget: the one check `simlint` runs, and
/// the one its workspace test runs.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let mut outcome = lint_files(&collect_sources(root)?);
    let budget_findings = check_budgets(&outcome);
    outcome.findings.extend(budget_findings);
    Ok(outcome)
}

/// Collects every in-scope library source file under `root`, sorted by
/// workspace-relative path for deterministic output.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_src(root, &root_src, "comap", &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if !src.is_dir() {
                continue;
            }
            let crate_name = entry
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown")
                .to_string();
            walk_src(root, &src, &crate_name, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, excluding binaries.
fn walk_src(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `bin/` holds executables; `fixtures/` holds
            // intentionally-violating lint-fixture code that must never
            // reach the lint (defense in depth — the walker only
            // descends `src/` directories, but a fixture tree nested
            // under one would otherwise be scanned).
            if name == "bin" || name == "fixtures" {
                continue;
            }
            walk_src(root, &path, crate_name, out)?;
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(load_source(root, &path, crate_name)?);
        }
    }
    Ok(())
}

/// Loads one file as a [`SourceFile`] with a `/`-separated relative path.
pub fn load_source(root: &Path, path: &Path, crate_name: &str) -> io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel_path = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    Ok(SourceFile {
        rel_path,
        crate_name: crate_name.to_string(),
        text,
    })
}
