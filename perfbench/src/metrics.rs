//! Named metrics with units, the result line and the stored run record.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and tail, for timings.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Metrics {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed beside the end-to-end metrics but not in the result line.
    pub unlisted: Vec<Metric>,
    /// The run record: host, sizes, seed, sample counts.
    pub record: Vec<(String, String)>,
    /// The traced layers' wall and charged shares, one row per line.
    pub layer_table: Vec<String>,
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite, got {v}");
    format!("{v:?}")
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn also(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.unlisted.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        });
    }

    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }

    fn metric_map(list: &[Metric]) -> String {
        let body: Vec<String> = list
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(&m.name),
                    number(m.value),
                    string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64, traced: bool) -> String {
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {}}}",
            Self::metric_map(list)
        )
    }

    /// The run record with every metric beside it, as one JSON document.
    pub fn record_json(&self) -> String {
        let rec: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v)))
            .collect();
        let notes: Vec<String> = self
            .end_to_end
            .iter()
            .filter(|m| !m.note.is_empty())
            .map(|m| format!("{}: {}", string(&m.name), string(&m.note)))
            .collect();
        let table: Vec<String> = self.layer_table.iter().map(|l| string(l)).collect();
        format!(
            "{{\"record\": {{{}}}, \"end_to_end\": {}, \"also\": {}, \"samples\": {{{}}}, \
             \"per_layer\": {}, \"layer_table\": [{}]}}\n",
            rec.join(", "),
            Self::metric_map(&self.end_to_end),
            Self::metric_map(&self.unlisted),
            notes.join(", "),
            Self::metric_map(&self.per_layer),
            table.join(", ")
        )
    }

    pub fn print_table(&self, title: &str, list: &[Metric]) {
        println!("{title}");
        for m in list {
            println!(
                "  {:<40} {:>16.6} {:<14} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.e2e("qps", 1234.5, "1/s", "n=3");
        m.layer("serve.cache.hit_ratio", 0.25, "ratio");
        assert_eq!(
            m.result_line(true, 10, 0, false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert!(m
            .result_line(true, 10, 0, true)
            .contains("serve.cache.hit_ratio"));
        assert_eq!(number(3.0), "3.0");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }
}
