//! The result line: every metric by name with its unit.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Analyses, requests and timed units tried.
    pub attempted: u64,
    /// Of those, how many errored, panicked, broke `observed ∈ [BCET,
    /// WCET]` or report identity, or ran beside foreign CPU load.
    pub failed: u64,
    /// Human-readable failure descriptions, printed to stderr.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.push(name, value, "count");
    }

    /// Records one attempted operation and, when `failure` is `Some`,
    /// its failure.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(message) = failure {
            self.failed += 1;
            self.failures.push(message);
        }
    }

    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final JSON line. Non-finite values cannot be printed as JSON
    /// and make the run incorrect.
    #[must_use]
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = finite && self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
