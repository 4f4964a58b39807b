//! What a run hands back, the contract's one-line JSON result, and the
//! provenance block that makes a number attributable.

use std::process::Command;

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metric name → value, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (requests, probes, battery queries).
    pub attempted: u64,
    /// Operations failed: `ERR`, unexpected `NOTBUILT`/`NORESOURCE`,
    /// oracle mismatch, unanswered, connection error.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Human-readable report lines (sample counts, lateness, counters).
    pub report: Vec<String>,
}

impl Outcome {
    /// Count one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Whether every operation succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`,
/// `metrics` — every value with all its digits, beside its unit.
/// `unit_of` names the unit of each metric that belongs on the line and
/// returns `None` for one that is only reported to the reader.
pub fn result_json(outcome: &Outcome, unit_of: impl Fn(&str) -> Option<&'static str>) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter_map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            let unit = unit_of(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Host and build facts printed with every run.
pub fn provenance() -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        format!(
            "commit: {}",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
        ),
        format!(
            "nproc: {}",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
        ),
        format!("cpu: {cpu}"),
        format!(
            "rustc: {}",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())
        ),
        format!("simd (this process): {}", lexequal::simd_level().name()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25);
        o.metric("closed_p50_us", 1203.4567);
        o.metric("add_p99_us", 7.0);
        let line = result_json(&o, |n| match n {
            "setup_s" => Some("s"),
            "closed_p50_us" => Some("us"),
            _ => None, // reported to the reader only
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"closed_p50_us\": {\"value\": 1203.4567, \"unit\": \"us\"}}}"
        );
        o.fail("x".into());
        assert!(result_json(&o, |_| Some("s"))
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        o.failed = 0;
        o.metric("bad", f64::NAN);
        assert!(!o.correct());
        assert!(result_json(&o, |_| Some("s")).contains("\"bad\": {\"value\": 0,"));
    }
}
