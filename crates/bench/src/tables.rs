//! Plain-text table and CSV emission for the figure harnesses.

use std::io::Write as _;
use std::path::Path;

/// A column-aligned results table that can also be written as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                let pad = widths[c] - cells[c].len();
                // Right-align numbers (cells that parse as f64), left-align text.
                if cells[c].parse::<f64>().is_ok() {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[c]);
                } else {
                    line.push_str(&cells[c]);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV (RFC-4180 quoting for cells containing
    /// commas or quotes).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let join = |cells: &[String]| {
            cells
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(f, "{}", join(&self.header))?;
        for row in &self.rows {
            writeln!(f, "{}", join(row))?;
        }
        f.flush()
    }
}

/// Formats a `Duration` in milliseconds with 2 decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["threads", "time_ms"]);
        t.row(vec!["1", "100.00"]);
        t.row(vec!["16", "7.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("threads"));
        assert!(lines[3].ends_with("7.25"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        let dir = std::env::temp_dir().join("op2_bench_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_quotes_cells_with_commas() {
        let mut t = Table::new(vec!["impl", "n"]);
        t.row(vec!["Parallelism TS, HPX", "say \"hi\""]);
        let dir = std::env::temp_dir().join("op2_bench_test_quote");
        let path = dir.join("q.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "impl,n\n\"Parallelism TS, HPX\",\"say \"\"hi\"\"\"\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
