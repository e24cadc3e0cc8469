//! Sample statistics and the result record the benchmark prints.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for an even count). NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartiles by the exclusive method (the default of
/// Python's `statistics.quantiles(v, n=4)`), falling back to min/max for
/// fewer than two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |p: f64| {
        // Position (n + 1)·p, 1-based, clamped to the sample range.
        let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = s[lo - 1];
        let b = s[lo.min(n - 1)];
        a + (b - a) * frac
    };
    (at(0.25), at(0.75))
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was obtained (sample count, formula), printed next
    /// to it.
    pub note: String,
}

/// A metric reported as the median of `samples`, with its sample count and
/// quartiles in the note.
pub fn median_metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let (q1, q3) = quartiles(samples);
    Metric {
        name,
        unit,
        value: median(samples),
        note: format!(
            "median of n={} (q1 {} q3 {})",
            samples.len(),
            fmt(q1),
            fmt(q3)
        ),
    }
}

/// A metric with a single value and an explanatory note.
pub fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// Compact human formatting (full precision goes to the JSON line).
pub fn fmt(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        format!("{v}")
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: Rust's shortest round-trip float formatting, with
/// non-finite values (which JSON cannot hold) written as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(x.name),
            json_num(x.value),
            json_str(x.unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[metric("a_s", "s", 0.5, "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
