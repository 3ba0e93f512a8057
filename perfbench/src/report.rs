//! Sample statistics, process memory, and the output formats: the
//! human-readable report lines and the final one-line JSON result.

use std::fmt::Write as _;

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile that still leaves at least ten samples
/// above it at `n` samples, capped at 99 (so every run with at least
/// 1000 samples reports p99).
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    (100.0 - 1000.0 / n as f64).floor().clamp(50.0, 99.0)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// The base a ratio or timing rests on (printed, not emitted).
    pub base: String,
}

impl Metric {
    /// A metric with no base to print.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::with_base(name, value, unit, String::new())
    }

    /// A metric printed together with its base (a ratio's numerator and
    /// denominator, or a timing's call count).
    pub fn with_base(name: &str, value: f64, unit: &'static str, base: String) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        }
    }
}

/// Prints one report line per metric (`name = value unit  [base]`).
pub fn print_metrics(header: &str, metrics: &[Metric]) {
    println!("{header}");
    for m in metrics {
        if m.base.is_empty() {
            println!("  {:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        } else {
            println!(
                "  {:<40} {:>16} {:<6} ({})",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.base
            );
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that round-trips, so every
        // measured digit survives.
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        for n in [20usize, 57, 200, 999, 1000, 4000] {
            let p = tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(true, 3, 1, &[Metric::new("a_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
