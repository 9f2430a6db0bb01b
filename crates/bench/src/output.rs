//! Experiment output: CSV files under `results/` plus aligned markdown
//! tables on stdout, mirroring the rows/series the paper's tables and
//! figures report.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A rectangular result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Render as an aligned markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = *w)).collect();
            format!("| {} |", parts.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Write CSV to `results/<name>.csv` (creating the directory) and print
    /// the markdown rendering. Returns the CSV path.
    pub fn emit(&self, name: &str) -> PathBuf {
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        println!("{}", self.to_markdown());
        println!("(csv: {})\n", path.display());
        path
    }
}

/// `results/` next to the workspace root when available, else CWD.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR points at crates/bench; hop to the workspace root.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => Path::new(&dir).join("../..").join("results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Minimal JSON construction for machine-readable bench output (no JSON
/// crate in the approved offline dependency set). Values are rendered
/// strictly: non-finite floats become `null`, strings are escaped.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value ready to be rendered.
    #[derive(Debug, Clone)]
    pub enum Json {
        Null,
        Bool(bool),
        /// Integers render without a decimal point.
        Int(i64),
        /// `u64` counters (message/byte tallies exceed `i64` range in
        /// principle).
        UInt(u64),
        /// Non-finite values render as `null` — a JSON document with a bare
        /// `NaN` token is not JSON.
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        /// Insertion-ordered object (deterministic output for diffs).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Convenience object builder.
        pub fn obj() -> Json {
            Json::Obj(Vec::new())
        }

        /// Append a field (panics on non-object — builder misuse).
        pub fn field(mut self, key: &str, value: Json) -> Json {
            match &mut self {
                Json::Obj(fields) => fields.push((key.to_owned(), value)),
                other => panic!("field() on non-object {other:?}"),
            }
            self
        }

        /// Render to a compact JSON string.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out);
            out
        }

        fn write(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                Json::UInt(v) => {
                    let _ = write!(out, "{v}");
                }
                Json::Num(v) => {
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(out, "\\u{:04x}", c as u32);
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        Json::Str(k.clone()).write(out);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    /// Write a JSON document to `results/<name>.json`, returning the path.
    pub fn emit(value: &Json, name: &str) -> std::path::PathBuf {
        let dir = super::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, value.render() + "\n") {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        path
    }
}

/// Human formatting helpers shared by experiment binaries.
pub mod fmt {
    /// `1.23e6`-style compact count formatting (Table III style).
    pub fn sci(v: f64) -> String {
        if v == 0.0 {
            return "0".into();
        }
        if v.abs() >= 1e5 {
            format!("{v:.2e}")
        } else if v.abs() >= 10.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    }

    /// Fixed-precision error formatting.
    pub fn err(v: f64) -> String {
        if v == 0.0 {
            "0".into()
        } else if v.abs() < 1e-4 {
            format!("{v:.2e}")
        } else {
            format!("{v:.4}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_and_markdown_shapes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into(), "x".into()]);
        t.row(&["22".into(), "yy".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,b\n"));
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a  | b  |"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_rendering() {
        use super::json::Json;
        let doc = Json::obj()
            .field("name", Json::Str("thro\"ughput\n".into()))
            .field("events", Json::UInt(u64::MAX))
            .field("rate", Json::Num(1.5))
            .field("nan_is_null", Json::Num(f64::NAN))
            .field("inf_is_null", Json::Num(f64::INFINITY))
            .field("list", Json::Arr(vec![Json::Int(-1), Json::Bool(true), Json::Null]));
        assert_eq!(
            doc.render(),
            "{\"name\":\"thro\\\"ughput\\n\",\"events\":18446744073709551615,\
             \"rate\":1.5,\"nan_is_null\":null,\"inf_is_null\":null,\
             \"list\":[-1,true,null]}"
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt::sci(3_700_000.0), "3.70e6");
        assert_eq!(fmt::sci(0.0), "0");
        assert_eq!(fmt::sci(42.0), "42");
        assert_eq!(fmt::err(0.012345), "0.0123");
        assert_eq!(fmt::err(0.0000123), "1.23e-5");
    }
}
