//! Named metrics and the result line.

use std::fmt::Write as _;

/// One metric as emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// True when `name` is a legal metric name: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered metric set.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds (or replaces) a metric.
    ///
    /// # Panics
    ///
    /// Panics on an illegal name — a bug in the benchmark itself.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name `{name}`");
        match self.items.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.items.push(Metric { name, value, unit }),
        }
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The metrics as a JSON object of `{"value", "unit"}` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with all its digits (`null` for a non-finite value).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in [
            "setup_s",
            "quant.M10.dw_us",
            "serve.tick_p99_us",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "quant M10", "M1/0", "x:y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 123.25, "us");
        m.put("setup_s", 0.5, "s");
        m.put("setup_s", 0.75, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 123.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(1e-7), "1e-7");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
