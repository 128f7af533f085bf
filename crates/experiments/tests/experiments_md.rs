//! EXPERIMENTS.md quotes `results/figures.txt`, the stdout of the
//! full-mode `all` binary (`scripts/check.sh` regenerates it and `cmp`s
//! the two). Every number in a table of EXPERIMENTS.md must be a number
//! of figures.txt: in the Summary table the "Measured here" column, in
//! every other table each column not headed as the paper's. A figure
//! whose output moves therefore fails here until its documentation is
//! rewritten from the new text.
//!
//! A number is a run of digits with an optional fraction, keeping an
//! ASCII `+`/`-` or a `−` written right before it as its sign and a `%`
//! after it (`x %` reads as `x%`). A signed number of figures.txt also
//! stands for its magnitude, so `−80.14` in prose matches `-80.14`.

use std::collections::BTreeSet;

fn read(path: &str) -> String {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The numbers of `text`, in order.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let mut token = String::new();
        match i.checked_sub(1).map(|j| chars[j]) {
            Some('+') => token.push('+'),
            Some('-' | '−') => token.push('-'),
            _ => {}
        }
        let digits = |i: &mut usize, token: &mut String| {
            while *i < chars.len() && chars[*i].is_ascii_digit() {
                token.push(chars[*i]);
                *i += 1;
            }
        };
        digits(&mut i, &mut token);
        if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
            token.push('.');
            i += 1;
            digits(&mut i, &mut token);
        }
        if chars.get(i) == Some(&'%') {
            token.push('%');
            i += 1;
        } else if chars.get(i) == Some(&' ') && chars.get(i + 1) == Some(&'%') {
            token.push('%');
            i += 2;
        }
        out.push(token);
    }
    out
}

/// The cells of a markdown table row.
fn cells(row: &str) -> Vec<&str> {
    let inner = row.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// `(line number, number)` for every number EXPERIMENTS.md's tables
/// claim as measured, and how many of them the Summary table holds.
fn measured_numbers(doc: &str) -> (Vec<(usize, String)>, usize) {
    let lines: Vec<&str> = doc.lines().collect();
    let mut claimed = Vec::new();
    let mut summary = 0;
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with('|') {
            i += 1;
            continue;
        }
        let header = cells(lines[i]);
        let is_summary = header.contains(&"Measured here");
        let checked: Vec<bool> = header
            .iter()
            .map(|h| match is_summary {
                true => *h == "Measured here",
                false => !h.to_lowercase().contains("paper"),
            })
            .collect();
        // Skip the header and its `|---|` separator.
        i += 2;
        while i < lines.len() && lines[i].trim_start().starts_with('|') {
            for (cell, _) in cells(lines[i]).iter().zip(&checked).filter(|(_, c)| **c) {
                for n in numbers(cell) {
                    claimed.push((i + 1, n));
                    summary += usize::from(is_summary);
                }
            }
            i += 1;
        }
    }
    (claimed, summary)
}

#[test]
fn every_measured_number_of_experiments_md_is_printed_by_all() {
    let printed: BTreeSet<String> = numbers(&read("results/figures.txt"))
        .into_iter()
        .flat_map(|n| {
            let magnitude = n.trim_start_matches(['+', '-']).to_string();
            [n, magnitude]
        })
        .collect();
    let (claimed, summary) = measured_numbers(&read("EXPERIMENTS.md"));
    assert!(
        summary >= 20,
        "the Summary table's \"Measured here\" column holds only {summary} numbers"
    );
    let missing: Vec<String> = claimed
        .iter()
        .filter(|(_, n)| !printed.contains(n))
        .map(|(line, n)| format!("EXPERIMENTS.md:{line}: {n}"))
        .collect();
    assert!(
        missing.is_empty(),
        "numbers EXPERIMENTS.md claims as measured that results/figures.txt does not print:\n{}",
        missing.join("\n")
    );
}

#[test]
fn numbers_keep_sign_fraction_and_percent() {
    assert_eq!(
        numbers("a +16.5 % gain, −80.14 dBm, W=63, 3.66 → 2.90, +1.1%."),
        ["+16.5%", "-80.14", "63", "3.66", "2.90", "+1.1%"]
    );
}

#[test]
fn only_measured_columns_are_claimed() {
    let doc = "\
| Experiment | Paper's claim | Measured here |
|---|---|---|
| Fig. 9 | +38.5 % | +16.5 % |

| MAC | paper (Mbps) | here (Mbps) |
|---|---|---|
| DCF | 9.99 | 5.86 |
";
    let (claimed, summary) = measured_numbers(doc);
    let numbers: Vec<&str> = claimed.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(numbers, ["+16.5%", "5.86"]);
    assert_eq!(summary, 1);
}
