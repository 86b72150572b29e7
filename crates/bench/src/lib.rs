//! Shared utilities for the reproduction binaries: CSV writing, result
//! directory resolution, and a plain-text table printer.
//!
//! `fig4` and `fig5_table1` regenerate the paper's Fig. 4, Fig. 5c and
//! Table I and write their data under `results/` at the workspace root;
//! the `bench_*` binaries write the checked-in `BENCH_*.json` files.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Locate (and create) the workspace-level `results/` directory.
///
/// # Panics
/// Panics when the directory cannot be created.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf();
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Write a CSV file: a header row plus one row per record.
///
/// # Panics
/// Panics on IO failure (repro binaries should fail loudly).
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<f64>]) {
    let mut f = fs::File::create(path).expect("cannot create CSV file");
    writeln!(f, "{}", header.join(",")).expect("CSV write failed");
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.10}")).collect();
        writeln!(f, "{}", cells.join(",")).expect("CSV write failed");
    }
}

/// A minimal fixed-width table printer for stdout summaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "table arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.is_dir());
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("qn_bench_csv");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.csv");
        write_csv(&p, &["a", "b"], &[vec![1.0, 2.0], vec![3.5, -0.25]]);
        let s = fs::read_to_string(&p).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next().unwrap(), "a,b");
        assert!(lines
            .next()
            .unwrap()
            .starts_with("1.0000000000,2.0000000000"));
        fs::remove_file(&p).ok();
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Method", "Accuracy"]);
        t.row(&["QN-based".to_string(), "97.75%".to_string()]);
        t.row(&["CSC-based".to_string(), "93.63%".to_string()]);
        let s = t.render();
        assert!(s.contains("Method"));
        assert!(s.contains("QN-based"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn table_checks_arity() {
        Table::new(&["a"]).row(&["x".to_string(), "y".to_string()]);
    }
}
