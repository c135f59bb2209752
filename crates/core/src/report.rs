//! Plain-text table and CSV helpers for the experiment binaries.
//!
//! The `rlckit-bench` binaries regenerate every table and figure of the
//! paper as aligned text (for eyeballing against the paper) and CSV (for
//! plotting); this module is their shared formatter.

use std::fmt::Write as _;

/// One-line audit summary of a campaign's solver telemetry: points
/// solved, surfaced `NoConvergence` failures, fallbacks, retries and
/// injected faults, read from the process-wide trace registry.
///
/// The fig/table binaries print this to stderr after regenerating their
/// CSVs so a silent per-point failure (a point dropped from a sweep, a
/// fallback quietly taken) is visible in the regeneration log.
#[must_use]
pub fn campaign_trace_summary() -> String {
    let snap = rlckit_trace::snapshot();
    let points = snap.counter("sweeps.points") + snap.counter("planner.points");
    let optimizer_solves = snap.counter("optimizer.solves");
    let delay_solves = snap.counter("twopole.delay.solves");
    let no_convergence = snap.counters_ending_with(".no_convergence");
    let fallbacks = snap.counter("optimizer.fallbacks");
    let retries = snap.counter("optimizer.retries") + snap.counter("campaign.point_retries");
    let degraded = snap.counter("optimizer.degraded");
    let injected = snap.counters_ending_with(".injected_faults");
    let failed = snap.counter("campaign.points_failed");
    format!(
        "trace: {points} campaign points, {optimizer_solves} optimizer solves, \
         {delay_solves} delay solves, {no_convergence} no-convergence, \
         {fallbacks} fallbacks, \
         {retries} retries, {degraded} degraded, {injected} injected faults, \
         {failed} failed points"
    )
}

/// A simple column-aligned table builder.
///
/// # Examples
///
/// ```
/// use rlckit::report::Table;
///
/// let mut t = Table::new(&["l (nH/mm)", "ratio"]);
/// t.row(&["0.0", "1.000"]);
/// t.row(&["5.0", "2.031"]);
/// let text = t.to_text();
/// assert!(text.contains("l (nH/mm)"));
/// assert!(text.lines().count() == 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.iter().map(ToString::to_string).collect());
    }

    /// Appends a row of formatted floating-point values.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the header count.
    pub fn row_values(&mut self, values: &[f64], precision: usize) {
        assert_eq!(values.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(values.iter().map(|v| format!("{v:.precision$}")).collect());
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_alignment() {
        let mut t = Table::new(&["a", "long header"]);
        t.row(&["123456", "x"]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines share the same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn row_values_formats_floats() {
        let mut t = Table::new(&["x", "y"]);
        t.row_values(&[1.23456, 2.0], 3);
        assert!(t.to_text().contains("1.235"));
        assert!(t.to_csv().contains("2.000"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["only one"]);
        t.row(&["a", "b"]);
    }
}
