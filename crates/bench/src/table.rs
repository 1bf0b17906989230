//! Plain-text result tables (what the paper would have printed).

use wavesim_json::Value;

/// One experiment's output: a titled table of string cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"E3"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the headers.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
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

    /// The table as a JSON value (keys in declaration order, so the
    /// serialized form is deterministic).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("headers", self.headers.clone().into()),
            (
                "rows",
                Value::Arr(self.rows.iter().map(|r| r.clone().into()).collect()),
            ),
        ])
    }
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0", "demo", &["a", "bbbb"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["100".into(), "2000000".into()]);
        let r = t.render();
        assert!(r.contains("E0: demo"));
        assert!(r.contains("bbbb"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
        // Data rows share the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("E0", "demo", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_form_is_deterministic() {
        let mut t = Table::new("E4", "demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let v = t.to_json();
        assert_eq!(v["id"], "E4");
        assert_eq!(v["rows"].as_array().unwrap().len(), 1);
        assert_eq!(t.to_json().pretty(), v.pretty());
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(pct(0.256), "25.6%");
    }
}
