//! The result line: the last line a run prints, one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

use crate::json::{self, Json};

/// What one run found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every answer, proof and exit check passed.
    pub correct: bool,
    /// Requests issued over all passes, warm-up included, plus exit checks.
    pub attempted: u64,
    /// Requests that erred, were refused or answered wrongly, plus failed
    /// exit checks.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Render the result line. Values print with every digit `f64` holds.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite");
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    value,
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result line back. Metrics come back sorted by name (the
    /// document is an unordered object).
    pub fn from_line(line: &str) -> Result<Outcome, String> {
        let doc = json::parse(line)?;
        let obj = doc.as_obj().ok_or("result line is not an object")?;
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result line has keys {keys:?}"));
        }
        let whole = |key: &str| -> Result<u64, String> {
            let n = obj[key]
                .as_f64()
                .ok_or(format!("`{key}` is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("`{key}` is not a whole number"));
            }
            Ok(n as u64)
        };
        let mut metrics = Vec::new();
        for (name, m) in obj["metrics"]
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name}: no unit"))?;
            if m.as_obj().map_or(0, |o| o.len()) != 2 {
                return Err(format!("{name}: unexpected keys"));
            }
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(Outcome {
            correct: obj["correct"]
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_with_all_digits() {
        let out = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("lat_p50_ms".into(), 1.2034567890123, "ms".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        };
        let line = out.to_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"lat_p50_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}"));
        let back = Outcome::from_line(&line).unwrap();
        assert_eq!(
            back, out,
            "metrics sort by name, which this list already is"
        );
        assert_eq!(back.value("setup_s"), Some(0.8127));
    }

    #[test]
    fn foreign_lines_are_rejected() {
        assert!(Outcome::from_line("{}").is_err());
        assert!(Outcome::from_line(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Outcome::from_line(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}"
        )
        .is_err());
    }
}
