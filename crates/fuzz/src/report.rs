//! The `panorama-fuzz-v3` report: aggregated oracle tallies plus one
//! record per (minimized) failure.
//!
//! The report is deliberately free of wall-clock data — two runs of the
//! same `(seed, cases, max_nodes)` budget must serialize byte-identically,
//! and `panorama lint --report` (FUZZ002) checks exactly that.

use crate::oracle::{CaseResult, OracleOutcome};
use panorama::BackendId;
use panorama_trace::json::Writer;
use panorama_trace::schema;
use std::fmt::Write as _;

/// Pass/fail/skip tallies for one oracle across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounts {
    /// Times the oracle was consulted (pass + fail + skip).
    pub checks: usize,
    /// Clean verdicts.
    pub pass: usize,
    /// Disagreements (each has a matching failure record).
    pub fail: usize,
    /// Not-applicable verdicts.
    pub skip: usize,
}

impl OracleCounts {
    fn add(&mut self, outcome: &OracleOutcome) {
        self.checks += 1;
        match outcome {
            OracleOutcome::Pass => self.pass += 1,
            OracleOutcome::Fail(_) => self.fail += 1,
            OracleOutcome::Skip(_) => self.skip += 1,
        }
    }
}

/// Mapped/unmapped tallies for one backend across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts {
    /// Cases the backend mapped.
    pub mapped: usize,
    /// Cases it gave up on (legitimate for heuristics).
    pub unmapped: usize,
}

/// One minimized failing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Case index within the run.
    pub case: usize,
    /// Backend that failed (`spr`, `ultrafast`, `sat`, `analyze`, `harness`).
    pub backend: String,
    /// Oracle that flagged it (`verify`, `simulate`, `exec`, `ii_bound`,
    /// `rewrite`, `crash`).
    pub oracle: String,
    /// The disagreement text.
    pub message: String,
    /// Architecture name from the sample space.
    pub arch: String,
    /// Single-line ADL of the exact architecture.
    pub arch_text: String,
    /// Op count before minimization.
    pub original_ops: usize,
    /// Op count after minimization.
    pub minimized_ops: usize,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
    /// Complete corpus-file text of the minimized reproducer (DFG text
    /// plus `#!` directives), ready to drop into `fuzz/corpus/`.
    pub repro: String,
}

/// Corpus replay tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Corpus files discovered.
    pub total: usize,
    /// Files that parsed and ran through the oracles.
    pub replayed: usize,
    /// Files with a parse error or an oracle failure.
    pub failed: usize,
    /// One `file: message` line per failure.
    pub failures: Vec<String>,
}

/// Aggregated result of one fuzzing run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Harness seed.
    pub seed: u64,
    /// Requested case budget.
    pub cases: usize,
    /// DFG size cap.
    pub max_nodes: usize,
    /// Cases actually run (less than `cases` only when cancelled).
    pub completed: usize,
    /// Whether a wall-clock cancel cut the run short.
    pub cancelled: bool,
    /// Backend panics caught.
    pub crashes: usize,
    /// Static-checker tallies (per backend per case).
    pub verify: OracleCounts,
    /// Simulator tallies (per backend per case).
    pub simulate: OracleCounts,
    /// Data-level execution tallies (per backend per case).
    pub exec: OracleCounts,
    /// II-bound tallies (per case).
    pub ii_bound: OracleCounts,
    /// Rewriter-equivalence tallies (per case).
    pub rewrite: OracleCounts,
    /// SPR\* mapping tallies.
    pub spr: BackendCounts,
    /// Ultra-Fast mapping tallies.
    pub ultrafast: BackendCounts,
    /// Pan-SAT mapping tallies.
    pub sat: BackendCounts,
    /// Minimized failures, in case order.
    pub failures: Vec<FailureRecord>,
    /// Corpus replay results when a corpus directory was given.
    pub corpus: Option<CorpusStats>,
}

impl FuzzReport {
    /// An empty report for a run with the given budget.
    pub fn new(seed: u64, cases: usize, max_nodes: usize) -> Self {
        FuzzReport {
            seed,
            cases,
            max_nodes,
            completed: 0,
            cancelled: false,
            crashes: 0,
            verify: OracleCounts::default(),
            simulate: OracleCounts::default(),
            exec: OracleCounts::default(),
            ii_bound: OracleCounts::default(),
            rewrite: OracleCounts::default(),
            spr: BackendCounts::default(),
            ultrafast: BackendCounts::default(),
            sat: BackendCounts::default(),
            failures: Vec::new(),
            corpus: None,
        }
    }

    /// Folds one case result into the tallies (failure records are
    /// appended separately, after minimization).
    pub fn tally(&mut self, result: &CaseResult) {
        self.completed += 1;
        if result.crash.is_some() {
            self.crashes += 1;
        }
        for b in &result.backends {
            let counts = match b.backend {
                BackendId::Spr => &mut self.spr,
                BackendId::UltraFast => &mut self.ultrafast,
                BackendId::Sat => &mut self.sat,
            };
            if b.mapped {
                counts.mapped += 1;
            } else {
                counts.unmapped += 1;
            }
            self.verify.add(&b.verify);
            self.simulate.add(&b.simulate);
            self.exec.add(&b.exec);
        }
        self.ii_bound.add(&result.ii_bound);
        self.rewrite.add(&result.rewrite);
    }

    /// Total oracle failures (must equal `failures.len()`; FUZZ002 checks
    /// the conservation).
    pub fn total_failures(&self) -> usize {
        self.verify.fail
            + self.simulate.fail
            + self.exec.fail
            + self.ii_bound.fail
            + self.rewrite.fail
            + self.crashes
    }

    /// Serializes the report as `panorama-fuzz-v3` JSON. Deterministic:
    /// no timestamps, no durations, no environment data.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(&schema::FUZZ);
        w.key("seed").uint(self.seed);
        w.key("cases").uint(self.cases);
        w.key("max_nodes").uint(self.max_nodes);
        w.key("completed").uint(self.completed);
        w.key("cancelled").bool(self.cancelled);
        w.key("crashes").uint(self.crashes);
        w.key("oracles").open();
        for (name, c) in [
            ("verify", &self.verify),
            ("simulate", &self.simulate),
            ("exec", &self.exec),
            ("ii_bound", &self.ii_bound),
            ("rewrite", &self.rewrite),
        ] {
            w.open();
            w.key("oracle").str(name);
            w.key("checks").uint(c.checks);
            w.key("pass").uint(c.pass);
            w.key("fail").uint(c.fail);
            w.key("skip").uint(c.skip);
            w.close();
        }
        w.close();
        w.key("backends").open();
        for (name, c) in [
            ("spr", &self.spr),
            ("ultrafast", &self.ultrafast),
            ("sat", &self.sat),
        ] {
            w.open();
            w.key("backend").str(name);
            w.key("mapped").uint(c.mapped);
            w.key("unmapped").uint(c.unmapped);
            w.close();
        }
        w.close();
        w.key("failures").open();
        for f in &self.failures {
            w.open();
            w.key("case").uint(f.case);
            w.key("backend").str(&f.backend);
            w.key("oracle").str(&f.oracle);
            w.key("message").str(&f.message);
            w.key("arch").str(&f.arch);
            w.key("arch_text").str(&f.arch_text);
            w.key("original_ops").uint(f.original_ops);
            w.key("minimized_ops").uint(f.minimized_ops);
            w.key("shrink_steps").uint(f.shrink_steps);
            w.key("repro").str(&f.repro);
            w.close();
        }
        w.close();
        if let Some(c) = &self.corpus {
            w.key("corpus").open();
            w.key("total").uint(c.total);
            w.key("replayed").uint(c.replayed);
            w.key("failed").uint(c.failed);
            w.key("failures").open();
            for line in &c.failures {
                w.str(line);
            }
            w.close();
            w.close();
        }
        w.finish()
    }

    /// Human-readable run summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: seed {} | {}/{} cases{}",
            self.seed,
            self.completed,
            self.cases,
            if self.cancelled { " (cancelled)" } else { "" }
        );
        for (name, c) in [
            ("verify  ", &self.verify),
            ("simulate", &self.simulate),
            ("exec    ", &self.exec),
            ("ii_bound", &self.ii_bound),
            ("rewrite ", &self.rewrite),
        ] {
            let _ = writeln!(
                out,
                "  {name}  pass {:>5}  fail {:>3}  skip {:>5}",
                c.pass, c.fail, c.skip
            );
        }
        let _ = writeln!(
            out,
            "  backends  spr {}/{} mapped, ultrafast {}/{} mapped, sat {}/{} mapped, {} crash(es)",
            self.spr.mapped,
            self.spr.mapped + self.spr.unmapped,
            self.ultrafast.mapped,
            self.ultrafast.mapped + self.ultrafast.unmapped,
            self.sat.mapped,
            self.sat.mapped + self.sat.unmapped,
            self.crashes
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "  FAIL case {} [{}/{}] on {}: {} ({} -> {} ops in {} steps)",
                f.case,
                f.backend,
                f.oracle,
                f.arch,
                f.message,
                f.original_ops,
                f.minimized_ops,
                f.shrink_steps
            );
        }
        if let Some(c) = &self.corpus {
            let _ = writeln!(
                out,
                "  corpus  {}/{} replayed clean, {} failed",
                c.replayed - c.failed.min(c.replayed),
                c.total,
                c.failed
            );
            for line in &c.failures {
                let _ = writeln!(out, "  CORPUS FAIL {line}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_parseable_and_carries_the_schema() {
        let mut report = FuzzReport::new(42, 10, 48);
        report.completed = 10;
        report.verify = OracleCounts {
            checks: 20,
            pass: 12,
            fail: 0,
            skip: 8,
        };
        report.corpus = Some(CorpusStats {
            total: 3,
            replayed: 3,
            failed: 0,
            failures: vec![],
        });
        let text = report.to_json();
        let doc = panorama_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(schema::FUZZ.id)
        );
        assert_eq!(
            doc.get("seed").and_then(panorama_trace::json::Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            doc.get("oracles")
                .and_then(|o| o.as_arr())
                .map(<[panorama_trace::json::Json]>::len),
            Some(5)
        );
    }

    #[test]
    fn failure_records_escape_embedded_text() {
        let mut report = FuzzReport::new(1, 1, 8);
        report.failures.push(FailureRecord {
            case: 0,
            backend: "spr".into(),
            oracle: "verify".into(),
            message: "line\nbreak \"quoted\"".into(),
            arch: "4x4".into(),
            arch_text: "cgra 4 4".into(),
            original_ops: 9,
            minimized_ops: 3,
            shrink_steps: 6,
            repro: "dfg x\nop 0 cst c\n".into(),
        });
        let doc = panorama_trace::json::parse(&report.to_json()).expect("valid JSON");
        let failures = doc.get("failures").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].get("message").and_then(|m| m.as_str()),
            Some("line\nbreak \"quoted\"")
        );
    }
}
