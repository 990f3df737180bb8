//! Plain-text tables and CSV output for the figure/table generators.
//!
//! The benchmark harness regenerates each of the paper's tables and
//! figures as (a) an aligned text table on stdout and (b) a CSV file
//! under `results/`, so the series can be re-plotted.

use crate::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned table builder.
///
/// All cells are strings; numeric formatting is the caller's job so
/// each figure controls its own precision.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                // Right-align everything but the first column.
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV rendering under `dir/name.csv`, creating `dir`.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> Result<PathBuf, Error> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Default output directory for experiment artifacts.
pub fn results_dir() -> PathBuf {
    std::env::var_os("PDNN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["config", "time (s)"]);
        t.row(&["1024-1-64".into(), "9656".into()]);
        t.row(&["2048-2-32".into(), "5479".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("config"));
        let lines: Vec<&str> = r.lines().collect();
        // header + rule + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Numeric column is right-aligned: both data rows end with digits.
        assert!(lines[3].ends_with("9656"));
        assert!(lines[4].ends_with("5479"));
    }

    #[test]
    fn csv_roundtrip_basics() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("config,time (s)"));
        assert_eq!(lines.next(), Some("1024-1-64,9656"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", &["one"]);
        t.row(&["a".into(), "b".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join(format!("pdnn-report-test-{}", std::process::id()));
        let path = sample().write_csv(&dir, "fig1a").unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("config,"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
