//! Plain-text table/series printing and JSON result capture.
//!
//! The JSON emitter is hand-rolled: the result shape is a flat
//! label/number table, which does not justify a serialization dependency.
//! It shares the string escaper and the reader of `cable_telemetry::json`.

use cable_telemetry::json::{self, escape, Value};
use std::fs;
use std::path::Path;

/// Geometric mean of positive values (how per-benchmark ratios are usually
/// averaged); returns 1.0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; returns 0.0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints an aligned table: one row label plus one value per column.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(10))
        .max()
        .unwrap_or(10);
    print!("{:label_w$}", "");
    for c in columns {
        print!(" {c:>10}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:label_w$}");
        for v in values {
            print!(" {v:>10.2}");
        }
        println!();
    }
}

/// Prints an x/y series (one line per point).
pub fn print_series(title: &str, x_label: &str, series: &[(String, Vec<(f64, f64)>)]) {
    println!("\n== {title} ==");
    for (name, points) in series {
        println!("-- {name} --");
        for (x, y) in points {
            println!("  {x_label} {x:>12.4} -> {y:>10.3}");
        }
    }
}

/// A figure result destined for `results/*.json`.
pub struct FigureResult<'a> {
    /// Figure/table identifier (e.g. `"fig12"`).
    pub id: &'a str,
    /// Human-readable description.
    pub title: &'a str,
    /// Column labels.
    pub columns: Vec<String>,
    /// Row label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureResult<'_> {
    /// Serializes the result as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cols = self
            .columns
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect::<Vec<_>>()
            .join(", ");
        let rows = self
            .rows
            .iter()
            .map(|(label, values)| {
                let vals = values
                    .iter()
                    .map(|v| {
                        if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "    {{\"label\": \"{}\", \"values\": [{vals}]}}",
                    escape(label)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"columns\": [{cols}],\n  \"rows\": [\n{rows}\n  ]\n}}\n",
            escape(self.id),
            escape(self.title)
        )
    }
}

/// A parsed figure result loaded back from `results/*.json`.
pub struct LoadedFigure {
    /// Figure identifier.
    pub id: String,
    /// Title.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl LoadedFigure {
    /// Returns the value at (`row_label`, `column_label`), if present.
    #[must_use]
    pub fn value(&self, row_label: &str, column_label: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column_label)?;
        let row = self.rows.iter().find(|(l, _)| l == row_label)?;
        row.1.get(col).copied()
    }
}

/// Parses a figure result emitted by [`save_json`] with the workspace's
/// one JSON reader. A `null` value (how non-finite numbers are written)
/// loads as NaN.
///
/// # Errors
///
/// Returns the reader's syntax error, or names the first field that is
/// missing or of the wrong type (any non-number value other than `null`).
pub fn load_json(text: &str) -> Result<LoadedFigure, String> {
    fn string(v: Option<&Value<'_>>, what: &str) -> Result<String, String> {
        v.and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{what} must be a string"))
    }
    fn array<'v, 'a>(v: Option<&'v Value<'a>>, what: &str) -> Result<&'v [Value<'a>], String> {
        match v {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }
    let doc = json::parse(text)?;
    let columns = array(doc.get("columns"), "columns")?
        .iter()
        .map(|c| string(Some(c), "column label"))
        .collect::<Result<_, _>>()?;
    let rows = array(doc.get("rows"), "rows")?
        .iter()
        .map(|row| {
            let label = string(row.get("label"), "row label")?;
            let values = array(row.get("values"), "row values")?
                .iter()
                .map(|v| match v {
                    Value::Int(n) => Ok(*n as f64),
                    Value::Float(x) => Ok(*x),
                    Value::Null => Ok(f64::NAN),
                    other => Err(format!("row {label:?}: {other:?} is not a number")),
                })
                .collect::<Result<_, _>>()?;
            Ok((label, values))
        })
        .collect::<Result<_, String>>()?;
    Ok(LoadedFigure {
        id: string(doc.get("id"), "id")?,
        title: string(doc.get("title"), "title")?,
        columns,
        rows,
    })
}

/// Writes a figure result as JSON under `results/` (best effort: printing
/// is the primary output; IO errors are reported, not fatal).
pub fn save_json(result: &FigureResult<'_>) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{}.json", result.id));
    if let Err(e) = fs::write(&path, result.to_json()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn printing_does_not_panic() {
        print_table(
            "smoke",
            &["A".into(), "B".into()],
            &[("row".into(), vec![1.0, 2.0])],
        );
        print_series("smoke", "x", &[("s".into(), vec![(1.0, 2.0)])]);
    }

    #[test]
    fn json_round_trips_through_loader() {
        let r = FigureResult {
            id: "figXX",
            title: "a title",
            columns: vec!["A".into(), "B".into()],
            rows: vec![
                ("mcf".into(), vec![1.5, 2.5]),
                ("MEAN".into(), vec![3.0, 4.0]),
            ],
        };
        let loaded = load_json(&r.to_json()).unwrap();
        assert_eq!(loaded.id, "figXX");
        assert_eq!(loaded.columns, vec!["A", "B"]);
        assert_eq!(loaded.value("mcf", "B"), Some(2.5));
        assert_eq!(loaded.value("MEAN", "A"), Some(3.0));
        assert_eq!(loaded.value("nope", "A"), None);
    }

    #[test]
    fn json_round_trips_quotes_backslashes_and_brackets() {
        // A quote, a backslash, a literal backslash-n (two characters), a
        // real newline and a `]` in every string the figure carries.
        let nasty = |s: &str| format!("{s} \"q\" a\\b lit\\n nl\n [x]");
        let id = nasty("id");
        let title = nasty("title");
        let r = FigureResult {
            id: &id,
            title: &title,
            columns: vec![nasty("A"), nasty("B")],
            rows: vec![
                (nasty("row"), vec![1.5, f64::NAN]),
                ("plain".into(), vec![-0.25, 3.0]),
            ],
        };
        let loaded = load_json(&r.to_json()).unwrap();
        assert_eq!(loaded.id, id);
        assert_eq!(loaded.title, title);
        assert_eq!(loaded.columns, r.columns);
        let labels: Vec<&str> = loaded.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, [nasty("row").as_str(), "plain"]);
        assert_eq!(loaded.value(&nasty("row"), &nasty("A")), Some(1.5));
        assert!(loaded.value(&nasty("row"), &nasty("B")).unwrap().is_nan());
        assert_eq!(loaded.value("plain", &nasty("A")), Some(-0.25));
        assert_eq!(loaded.value("plain", &nasty("B")), Some(3.0));
    }

    #[test]
    fn load_json_refuses_non_numbers_and_malformed_text() {
        let with = |v: &str| {
            format!(
                "{{\"id\": \"f\", \"title\": \"t\", \"columns\": [\"A\"], \
                 \"rows\": [{{\"label\": \"r\", \"values\": [{v}]}}]}}"
            )
        };
        assert!(load_json(&with("null")).unwrap().rows[0].1[0].is_nan());
        assert_eq!(load_json(&with("2")).unwrap().rows[0].1, [2.0]);
        for bad in ["\"2\"", "true", "[1]", "{}"] {
            assert!(load_json(&with(bad)).is_err(), "{bad} is not a number");
        }
        assert!(load_json("{\"id\": \"f\"").is_err(), "truncated text");
        assert!(load_json("{\"id\": 1}").is_err(), "id must be a string");
    }

    #[test]
    fn json_output_is_wellformed() {
        let r = FigureResult {
            id: "fig00",
            title: "title with \"quotes\"",
            columns: vec!["A".into()],
            rows: vec![
                ("mcf".into(), vec![1.5]),
                ("bad\nrow".into(), vec![f64::NAN]),
            ],
        };
        let json = r.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("null"));
        assert!(json.contains("\"values\": [1.5]"));
    }
}
