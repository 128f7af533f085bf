//! simlint degrades, never panics (DESIGN.md §10). Every prefix of a
//! real source is malformed in some way: an open string, a half-written
//! attribute, an unclosed `match` or `impl`. Linting it must still
//! return an outcome. This test cuts evenly spaced prefixes of every
//! workspace source and every lint fixture and lints each one on its
//! own, as the `sim` crate, which every rule covers.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use comap_lint::{collect_sources, lint_files, load_source, SourceFile};

/// Prefixes cut from each file.
const CUTS: usize = 60;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn fixture_sources(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("fixture directory readable")
        .map(|e| e.expect("fixture entry readable").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            fixture_sources(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(load_source(root, &path, "sim").expect("fixture readable"));
        }
    }
}

/// `CUTS` prefix lengths of `text`, evenly spaced and moved down to
/// the nearest char boundary.
fn cut_points(text: &str) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..CUTS)
        .map(|k| {
            let mut at = text.len() * k / CUTS;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            at
        })
        .collect();
    cuts.dedup();
    cuts
}

#[test]
fn truncated_sources_never_panic() {
    let root = workspace_root();
    let mut files = collect_sources(&root).expect("workspace sources readable");
    let workspace_files = files.len();
    fixture_sources(&root, &root.join("crates/lint/fixtures"), &mut files);
    assert!(
        files.len() > workspace_files,
        "no lint fixtures found next to the workspace sources"
    );

    let mut linted = 0usize;
    let mut panicked = Vec::new();
    for file in &files {
        for cut in cut_points(&file.text) {
            let prefix = SourceFile {
                rel_path: file.rel_path.clone(),
                crate_name: "sim".to_string(),
                text: file.text[..cut].to_string(),
            };
            linted += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                lint_files(std::slice::from_ref(&prefix))
            }));
            if run.is_err() {
                panicked.push(format!("{}[..{cut}]", file.rel_path));
            }
        }
    }
    assert!(
        linted >= files.len() * CUTS / 2,
        "only {linted} prefixes linted"
    );
    assert!(
        panicked.is_empty(),
        "simlint panicked on {} truncated source(s):\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}
