//! Minimal aligned-text table renderer for experiment output.
//!
//! No dependency needed: the CLI prints fixed-width tables and CSV.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    ///
    /// # Panics
    /// Panics on arity mismatch — a malformed experiment table is a bug.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with space-padded columns and a separator rule.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:<w$}", w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        // saturate: a zero-column table (`Table::default()`) must render as
        // two empty lines, not underflow `ncol - 1` and panic
        let rule_len = widths.iter().sum::<usize>() + 2 * ncol.saturating_sub(1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (no quoting — experiment cells never contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with fixed precision (helper for experiment rows).
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Render one or more `(x, y)` series as a fixed-size ASCII scatter/step
/// plot — enough to eyeball a CDF or a sweep without leaving the terminal.
/// Each series is drawn with its own glyph (`*`, `o`, `+`, `x`, …);
/// y-axis labels show the data range.
pub fn ascii_plot(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 3, "plot area too small");
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for &(x, y) in pts.iter() {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y1:>7.2} |")
        } else if i == height - 1 {
            format!("{y0:>7.2} |")
        } else {
            "        |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "        +{}\n         {:<10.2}{:>width$.2}\n",
        "-".repeat(width),
        x0,
        x1,
        width = width - 10
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", glyphs[i % glyphs.len()], name))
        .collect();
    out.push_str(&format!("         {}\n", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("long-name"));
        // column alignment: "value" column starts at same offset
        let off0 = lines[0].find("value").unwrap();
        let off3 = lines[3].find("22").unwrap();
        assert_eq!(off0, off3);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn zero_column_table_renders_without_panic() {
        // regression: rule_len used `2 * (ncol - 1)` on a usize, so a
        // zero-column table underflowed and panicked
        let t = Table::default();
        let s = t.render();
        assert_eq!(s, "\n\n");
        assert_eq!(t.to_csv(), "\n");
        let empty_header = Table::new(Vec::<String>::new());
        let _ = empty_header.render();
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(52.8), "52.80%");
    }

    #[test]
    fn ascii_plot_places_extremes() {
        let pts = [(0.0, 0.0), (1.0, 1.0)];
        let s = ascii_plot(&[("line", &pts)], 20, 5);
        let lines: Vec<&str> = s.lines().collect();
        // top row holds the max point, bottom data row the min
        assert!(lines[0].contains('*'), "{s}");
        assert!(lines[4].contains('*'), "{s}");
        assert!(lines[0].contains("1.00"));
        assert!(lines[4].contains("0.00"));
        assert!(s.contains("* line"));
    }

    #[test]
    fn ascii_plot_multi_series_glyphs() {
        let a = [(0.0, 0.0), (1.0, 0.5)];
        let b = [(0.0, 1.0), (1.0, 0.2)];
        let s = ascii_plot(&[("a", &a), ("b", &b)], 16, 4);
        assert!(s.contains('*') && s.contains('o'), "{s}");
        assert!(s.contains("* a") && s.contains("o b"));
    }

    #[test]
    fn ascii_plot_degenerate_inputs() {
        assert_eq!(ascii_plot(&[("e", &[])], 16, 4), "(no data)\n");
        // constant series must not divide by zero
        let c = [(1.0, 2.0), (1.0, 2.0)];
        let s = ascii_plot(&[("c", &c)], 16, 4);
        assert!(s.contains('*'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn ascii_plot_minimum_size() {
        let _ = ascii_plot(&[("x", &[(0.0, 0.0)])], 4, 2);
    }
}
