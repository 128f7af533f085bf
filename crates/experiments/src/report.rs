//! Plain-text rendering of experiment results: aligned tables for the
//! terminal.

use std::fmt;

/// A simple column-aligned table with a title, used by every figure's
/// `Display` to print its data series.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of one cell per header.
    pub(crate) fn row(&mut self, cells: &[String]) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }
}

/// The aligned table: a `== title ==` line, the right-aligned headers, a
/// rule, then the rows.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "== {} ==", self.title)?;
        writeln!(f, "{}", line(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

/// Formats bits/s as Mbps with two decimals.
pub(crate) fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "goodput"]);
        t.row(&["1".into(), "5.00".into()]);
        t.row(&["20".into(), "10.25".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("goodput"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(5.5e6), "5.50");
        assert_eq!(mbps(0.0), "0.00");
    }
}
