//! What one workload run hands back: named metric values, the operation
//! tally the output check produced, and per-input rows for the JSON file.

use crate::spec::{self, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// Named values in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Adds to `name` (a sum over inputs), starting from zero.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part (compiles, plans or
    /// requests, over all passes).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Human-readable reasons, one per failed check (operation-level or
    /// run-level, such as a determinism break between passes).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Metrics,
    /// `(what, count)`: passes, and samples behind each pooled timing.
    pub samples: Vec<(&'static str, usize)>,
    /// One JSON object per input, for the out file.
    pub rows: Vec<String>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Sets `qom_geomean` and `ii_sum` from one `(II, MII)` pair per input.
    pub fn set_quality(&mut self, pairs: &[(f64, f64)]) {
        if pairs.is_empty() {
            return;
        }
        let ratios: Vec<f64> = pairs.iter().map(|(ii, mii)| mii / ii).collect();
        self.metrics
            .set("qom_geomean", crate::stats::geomean(&ratios));
        self.metrics
            .set("ii_sum", pairs.iter().map(|(ii, _)| ii).sum());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The `(name, value, unit)` list a run reports: every end-to-end metric
/// untraced, every per-layer metric traced. A per-layer metric the
/// workload never touched reads 0 (that layer did no work here).
///
/// # Errors
///
/// Names an end-to-end metric the workload failed to produce, or any
/// value that is not a finite number (or is zero, for end-to-end).
pub fn reported(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    if traced {
        for m in &PER_LAYER {
            let v = outcome.metrics.get(m.name).unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("per-layer metric {} is {v}", m.name));
            }
            out.push((m.name, v, m.unit));
        }
    } else {
        for m in &END_TO_END {
            let v = outcome
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
            if !v.is_finite() || v == 0.0 {
                return Err(format!("end-to-end metric {} is {v}", m.name));
            }
            out.push((m.name, v, m.unit));
        }
    }
    Ok(out)
}

/// The one-line result object the acceptance driver reads.
pub fn result_line(outcome: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

/// The JSON document written to `--out`.
pub fn out_file(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    outcome: &Outcome,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    use panorama::trace::json::string;
    // `rustc -V` of the build is handed down by `run.sh`.
    let rustc = std::env::var("PANORAMA_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    let mut s = String::with_capacity(4096);
    let _ = write!(
        s,
        "{{\n  \"schema\": \"panorama-benchmark-v1\",\n  \"workload\": \"{workload}\",\n  \
         \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {traced},\n  \
         \"available_parallelism\": {},\n  \"rustc\": {},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [",
        std::thread::available_parallelism().map_or(1, usize::from),
        string(&rustc),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
    );
    for (i, p) in outcome.problems.iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, string(p));
    }
    s.push_str("],\n  \"samples\": {");
    for (i, (what, n)) in outcome.samples.iter().enumerate() {
        let _ = write!(s, "{}\"{what}\": {n}", if i > 0 { ", " } else { "" });
    }
    s.push_str("},\n  \"metrics\": {\n");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let bound =
            spec::end_to_end(name).map_or(String::new(), |m| format!(", \"bound\": {}", m.bound));
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"{bound}}}{}",
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    s.push_str("  },\n  \"rows\": [\n");
    for (i, row) in outcome.rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {row}{}",
            if i + 1 < outcome.rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Passes every run completes whatever `--seconds` says: two, so that
/// determinism between passes is always checked.
const MIN_PASSES: usize = 2;

/// Whether a run that has done `passes` whole passes in `elapsed_s` should
/// stop: the minimum is done and another pass of average length would
/// overrun `seconds`.
pub fn budget_spent(passes: usize, elapsed_s: f64, seconds: u64) -> bool {
    passes >= MIN_PASSES && elapsed_s + elapsed_s / passes as f64 > seconds as f64
}

/// Peak resident set of this process, MiB (`VmHWM`). Every workload reads
/// it when its first pass ends, so it covers the same work on a fast and
/// on a slow host and, on the daemon, one generation of worker threads:
/// each restart lands on other glibc arenas, and after two passes the
/// figure ranged 25–36 MiB over ten seeds against 19.8–21.8 MiB after one.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama::trace::json::{parse, Json};

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome {
            attempted: 24,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.metrics.set(m.name, 1.5);
        }
        let metrics = reported(&o, false).expect("all present");
        let doc = parse(&result_line(&o, &metrics)).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn missing_or_zero_end_to_end_metrics_are_refused_and_idle_layers_read_zero() {
        let mut o = Outcome::default();
        assert!(reported(&o, false).is_err());
        for m in &END_TO_END {
            o.metrics.set(m.name, 0.0);
        }
        assert!(reported(&o, false).is_err());
        let traced = reported(&o, true).expect("idle layers are fine");
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|&(_, v, _)| v == 0.0));
    }

    #[test]
    fn a_problem_without_a_failed_operation_still_marks_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(o.correct());
        o.problems
            .push("content hash changed between passes".into());
        assert!(!o.correct());
    }

    #[test]
    fn a_run_never_stops_before_its_second_pass() {
        assert!(!budget_spent(1, 100.0, 24));
        assert!(budget_spent(2, 100.0, 24));
        assert!(!budget_spent(2, 10.0, 24));
        assert!(budget_spent(7, 21.5, 24));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
