//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the paper.
//!
//! Each binary prints the paper's rows/series as an aligned text table
//! and writes the same data as CSV under `results/` (next to the
//! workspace root) for plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timer;
pub mod traceview;
pub mod variation;

use std::fs;
use std::path::PathBuf;

use rlckit::report::Table;

/// Returns the output directory for experiment CSVs, creating it if
/// needed (`$RLCKIT_RESULTS_DIR` or `results/` under the current
/// directory).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("RLCKIT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints a table to stdout under a heading and writes it as
/// `results/<name>.csv`. IO errors are reported but non-fatal — the
/// printed table is the primary deliverable.
pub fn emit(name: &str, heading: &str, table: &Table) {
    println!("## {heading}\n");
    println!("{}", table.to_text());
    let path = results_dir().join(format!("{name}.csv"));
    match fs::write(&path, table.to_csv()) {
        Ok(()) => println!("(csv written to {})\n", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints the one-line campaign trace summary for a fig/table binary to
/// stderr and flushes the `RLCKIT_TRACE` sink (a no-op when tracing is
/// disabled). Call at the end of every experiment binary's `main` so
/// CSV regeneration logs record points solved, `NoConvergence` tallies
/// and fallbacks.
pub fn trace_footer(bin: &str) {
    eprintln!("{bin}: {}", rlckit::report::campaign_trace_summary());
    rlckit_trace::flush();
}

/// The paper's standard inductance grid: `0 ≤ l < 5 nH/mm`.
#[must_use]
pub fn paper_inductance_grid(points: usize) -> Vec<f64> {
    rlckit_numeric::grid::linspace(0.0, 4.95, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_paper_range() {
        let g = paper_inductance_grid(12);
        assert_eq!(g.len(), 12);
        assert_eq!(g[0], 0.0);
        assert!(*g.last().unwrap() < 5.0);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists());
    }
}
