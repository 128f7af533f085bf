//! The source scans degrade, never panic. Every prefix of a real source
//! is malformed in some way: an open string, a half-written attribute,
//! an unclosed `#[cfg(test)]` module. Scanning it must still return.
//! This test cuts evenly spaced prefixes of every library file and runs
//! each scan on each one.

mod source_rules;

use std::panic::{catch_unwind, AssertUnwindSafe};

use source_rules::{
    compares_to_zero, expected_lints, library_lines, library_sources, std_rng_lines,
    unit_violations,
};

/// Prefixes cut from each file.
const CUTS: usize = 60;

/// `CUTS` prefix lengths of `text`, evenly spaced and moved down to the
/// nearest char boundary.
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
    let sources = library_sources();
    let mut scanned = 0usize;
    let mut panicked = Vec::new();
    for src in &sources {
        for cut in cut_points(&src.text) {
            let prefix = &src.text[..cut];
            scanned += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                let lines = library_lines(prefix);
                unit_violations(&lines);
                std_rng_lines(&lines);
                expected_lints(&lines);
                lines
                    .iter()
                    .filter(|(_, code)| compares_to_zero(code))
                    .count()
            }));
            if run.is_err() {
                panicked.push(format!("{}[..{cut}]", src.path));
            }
        }
    }
    assert!(
        scanned >= sources.len() * CUTS / 2,
        "only {scanned} prefixes scanned"
    );
    assert!(
        panicked.is_empty(),
        "the scans panicked on {} truncated source(s):\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}
