//! Plain-text table rendering for the benchmark harness, and the
//! provenance record budgeted Assess-Risk runs attach to their
//! answers.
//!
//! The `andi-bench` binaries print each paper table/figure as an
//! aligned text table with a paper-vs-measured layout; this tiny
//! renderer keeps them free of formatting noise.

use crate::error::Error;

/// The estimator rung that produced a risk figure, from most to
/// least precise (the degradation ladder of the budgeted recipe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Exact crack probabilities via Ryser permanents.
    Exact,
    /// The swap-walk matching sampler's empirical frequencies.
    Sampler,
    /// The closed-form O-estimate (always answers; coarsest).
    OEstimate,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Exact => write!(f, "exact-permanent"),
            Rung::Sampler => write!(f, "matching-sampler"),
            Rung::OEstimate => write!(f, "o-estimate"),
        }
    }
}

/// Where a budgeted assessment's numbers came from: the rung that
/// answered, every rung that tripped on the way down (with the error
/// that tripped it), and how much of the budget was spent.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// The rung whose numbers the assessment reports.
    pub rung: Rung,
    /// Whether the answer is degraded (a rung below [`Rung::Exact`]
    /// answered).
    pub degraded: bool,
    /// The rungs that failed before the answering one, in descent
    /// order, each with its structured trip reason.
    pub trips: Vec<(Rung, Error)>,
    /// The configured wall-clock budget, when one was set.
    pub budget_ms: Option<u64>,
    /// Wall-clock time spent by the whole assessment, in ms.
    pub spent_ms: u128,
}

/// The `provenance:`-prefixed report lines the CLI prints under a
/// budgeted assessment, each ending in a newline.
impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "provenance: answered by {} ({})",
            self.rung,
            if self.degraded { "degraded" } else { "exact" }
        )?;
        for (rung, err) in &self.trips {
            writeln!(f, "provenance: {rung} tripped: {err}")?;
        }
        match self.budget_ms {
            Some(ms) => writeln!(f, "provenance: budget {ms} ms, spent {} ms", self.spent_ms),
            None => writeln!(f, "provenance: no deadline, spent {} ms", self.spent_ms),
        }
    }
}

/// A simple right-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header.
    pub fn add_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) -> &mut Self {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells for {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Renders the table as GitHub-flavored Markdown (first column
    /// left-aligned, the rest right-aligned).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let row = |cells: &[String], out: &mut String| {
            out.push('|');
            for cell in cells {
                out.push(' ');
                out.push_str(&cell.replace('|', "\\|"));
                out.push_str(" |");
            }
            out.push('\n');
        };
        row(&self.headers, &mut out);
        out.push('|');
        for c in 0..self.headers.len() {
            out.push_str(if c == 0 { ":---|" } else { "---:|" });
        }
        out.push('\n');
        for r in &self.rows {
            row(r, &mut out);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas, quotes or newlines).
    pub fn render_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let row = |cells: &[String], out: &mut String| {
            out.push_str(&cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        };
        row(&self.headers, &mut out);
        for r in &self.rows {
            row(r, &mut out);
        }
        out
    }

    /// Renders the table with a separator under the header. The
    /// first column is left-aligned (labels), the rest right-aligned
    /// (numbers).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                if c == 0 {
                    out.push_str(&format!("{:<w$}", cell, w = widths[c]));
                } else {
                    out.push_str(&format!("{:>w$}", cell, w = widths[c]));
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Dataset", "n", "OE"]);
        t.add_row(["CONNECT", "130", "25.95"]);
        t.add_row(["RETAIL", "16470", "210.01"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Dataset"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numbers right-aligned: widths equal across rows.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].contains("16470"));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.add_row(["only one"]);
    }

    #[test]
    fn markdown_rendering() {
        let mut t = TextTable::new(["name", "value"]);
        t.add_row(["a|b", "1"]);
        let md = t.render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| name | value |");
        assert_eq!(lines[1], "|:---|---:|");
        assert!(
            lines[2].contains("a\\|b"),
            "pipes are escaped: {}",
            lines[2]
        );
    }

    #[test]
    fn provenance_renders_rung_trips_and_budget() {
        let p = Provenance {
            rung: Rung::OEstimate,
            degraded: true,
            trips: vec![
                (Rung::Exact, Error::BudgetExceeded { budget_ms: 50 }),
                (Rung::Sampler, Error::BudgetExceeded { budget_ms: 50 }),
            ],
            budget_ms: Some(50),
            spent_ms: 51,
        };
        let s = p.to_string();
        assert!(s.contains("answered by o-estimate (degraded)"), "{s}");
        assert!(s.contains("exact-permanent tripped"), "{s}");
        assert!(s.contains("matching-sampler tripped"), "{s}");
        assert!(s.contains("budget 50 ms"), "{s}");

        let exact = Provenance {
            rung: Rung::Exact,
            degraded: false,
            trips: Vec::new(),
            budget_ms: None,
            spent_ms: 2,
        };
        let s = exact.to_string();
        assert!(s.contains("answered by exact-permanent (exact)"), "{s}");
        assert!(s.contains("no deadline"), "{s}");
    }

    #[test]
    fn csv_rendering_quotes_when_needed() {
        let mut t = TextTable::new(["name", "note"]);
        t.add_row(["plain", "a,b"]);
        t.add_row(["q\"x", "fine"]);
        let csv = t.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,\"a,b\"");
        assert_eq!(lines[2], "\"q\"\"x\",fine");
    }
}
