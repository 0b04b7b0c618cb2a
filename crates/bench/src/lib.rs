//! # mod-bench — figure/table regeneration and the sim gate
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig2` | Fraction of PMDK execution time in flush/log (Fig 2) |
//! | `fig4` | Flush latency vs concurrency + Karp–Flatt fit (Fig 4) |
//! | `fig9` | Execution time normalized to PMDK v1.4 (Fig 9) |
//! | `fig10` | Flushes/op vs fences/op scatter (Fig 10) |
//! | `fig11` | L1D miss ratios (Fig 11) |
//! | `table3` | Memory growth 1M → 2M elements (Table 3; paper column from [`claims`]) |
//! | `all` | Everything above in sequence |
//!
//! plus `ablation` (the design-choice ablations, with the §8 row) and
//! `bench_smoke`, which prints the simulated metrics [`gate`] holds equal
//! to `bench/baseline.json`. Under its table each figure binary prints
//! its rows of [`claims`], the paper-claims ledger, judged at the
//! binary's scale; `tests/paper_claims.rs` asserts every row's verdict
//! at CI scale.
//!
//! Scale defaults are CI-friendly; set `MOD_OPS=1000000` (and optionally
//! `MOD_PRELOAD`) to run at paper scale.

#![warn(missing_docs)]

use mod_workloads::{RunReport, ScaleConfig, System, Workload};

pub mod claims;
pub mod gate;

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
    println!();
}

/// Runs every Table 2 workload on every system at `scale`.
pub fn run_everything(scale: &ScaleConfig) -> Vec<RunReport> {
    let mut out = Vec::new();
    for w in Workload::all() {
        for sys in System::all() {
            eprintln!("  running {w} on {sys} ...");
            out.push(mod_workloads::run_workload(w, sys, scale));
        }
    }
    out
}

/// Finds the report for `(w, sys)` in a result set.
///
/// # Panics
///
/// Panics if the pair is missing.
pub fn find(reports: &[RunReport], w: Workload, sys: System) -> &RunReport {
    reports
        .iter()
        .find(|r| r.workload == w && r.system == sys)
        .unwrap_or_else(|| panic!("missing report for {w}/{sys}"))
}

/// Formats a ratio like `0.57x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage like `64.1%`.
pub fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on empty input.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["x", "1.00"]);
        t.row(vec!["longer-name", "2"]);
        let s = t.render();
        assert!(s.contains("longer-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
