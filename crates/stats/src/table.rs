//! Minimal text-table formatting for experiment reports.

/// A left-aligned text table with a header row, rendered with aligned
/// columns — the experiment harness prints every paper table through this.
///
/// ```
/// use gstm_stats::TextTable;
/// let mut t = TextTable::new(vec!["app".into(), "8 thr".into()]);
/// t.row(vec!["kmeans".into(), "26".into()]);
/// let s = t.render();
/// assert!(s.contains("kmeans"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new(header: Vec<String>) -> Self {
        TextTable { header, rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Streams the rendered table (separator line under the header) into
    /// `out`, writing each cell once — no per-cell or per-row `String`
    /// rebuilding.
    ///
    /// # Errors
    ///
    /// Propagates errors from `out` (infallible when writing to a `String`).
    pub fn render_to(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        let cols = self.rows.iter().map(|r| r.len()).chain([self.header.len()]).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |out: &mut dyn std::fmt::Write, row: &[String]| -> std::fmt::Result {
            // Stop at the last non-empty cell: everything after it would be
            // padding and separators that a trailing trim would remove.
            let last = (0..cols).rev().find(|&i| row.get(i).is_some_and(|c| !c.is_empty()));
            if let Some(last) = last {
                for (i, &width) in widths.iter().enumerate().take(last + 1) {
                    let cell = row.get(i).map(String::as_str).unwrap_or("");
                    if i < last {
                        write!(out, "{cell:<width$}  ")?;
                    } else {
                        out.write_str(cell)?;
                    }
                }
            }
            out.write_char('\n')
        };
        write_row(out, &self.header)?;
        for _ in 0..widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1)) {
            out.write_char('-')?;
        }
        out.write_char('\n')?;
        for row in &self.rows {
            write_row(out, row)?;
        }
        Ok(())
    }

    /// Renders the table to a fresh `String` (see [`TextTable::render_to`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_to(&mut out).expect("writing to a String cannot fail");
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.render_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "bb".into()]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxx"));
        // Column 2 starts at the same offset in header and data rows.
        assert_eq!(lines[0].find("bb"), lines[2].find('y'));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.contains('1'));
    }
}
