//! Sample statistics, the operation tally and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile of `values` (linear interpolation between closest ranks).
/// Sorts in place; `NaN` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of each group's samples (a group per round), and the median
/// of those over the groups that have samples. A slow phase of the host that
/// covers fewer than half of the rounds does not move it.
pub fn median_quantile(groups: &[Vec<f64>], q: f64) -> f64 {
    let mut per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| quantile(&mut g.clone(), q))
        .collect();
    median(&mut per_group)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// How many operations were attempted and how many failed. A failure is either a
/// *known fault* (a named defect of the engine that fails on every attempt; the
/// result stays `correct`) or a *wrong* outcome: an error or a result that differs
/// from the benchmark's own computation, which makes the whole run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Failures by kind, for the report on standard error.
    pub by_kind: BTreeMap<String, u64>,
}

/// Wrong outcomes printed in full; later ones are only counted.
const WRONG_DETAILS_SHOWN: u64 = 5;

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation: `Ok` passes, `Err(detail)` is a wrong outcome.
    pub fn check(&mut self, kind: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(detail) => self.wrong(kind, &detail),
        }
    }

    pub fn wrong(&mut self, kind: &str, detail: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        if self.wrong <= WRONG_DETAILS_SHOWN {
            eprintln!("perfbench: WRONG {kind}: {detail}");
        }
        *self.by_kind.entry(kind.to_string()).or_default() += 1;
    }

    /// An operation that fails because of a known engine fault.
    pub fn known_fault(&mut self, kind: &str) {
        self.attempted += 1;
        self.failed += 1;
        *self.by_kind.entry(kind.to_string()).or_default() += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for (kind, n) in other.by_kind {
            *self.by_kind.entry(kind).or_default() += n;
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// One run's outcome: the tally and the metrics it reports.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result line: one JSON object. A metric that could not be measured (no
    /// samples) is printed as `null` rather than as an invented number.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn median_quantile_ignores_a_slow_minority_of_rounds() {
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v * 10.0).collect();
        let rounds = vec![fast.clone(), slow, fast, vec![]];
        assert_eq!(median_quantile(&rounds, 0.5), 5.5);
    }

    #[test]
    fn known_faults_keep_the_run_correct_and_wrong_results_do_not() {
        let mut t = Tally::default();
        t.ok();
        t.known_fault("schema_agreement");
        assert!(t.correct());
        assert_eq!((t.attempted, t.failed), (2, 1));
        t.check("figures.rows", Err("differs".into()));
        assert!(!t.correct());
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn json_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.tally.ok();
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
