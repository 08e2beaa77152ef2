//! Deterministic differential fuzzing for the PANORAMA toolchain.
//!
//! The harness sweeps the random-DFG and architecture configuration
//! spaces, runs every sampled case through the full pipeline under the
//! three lower-level backends, and cross-checks the results with five
//! oracles and a crash pseudo-oracle: static verify, cycle-level
//! structural simulation of the routes, data-level execution of the
//! generated configware against the reference interpreter, II bounds
//! (no II below the MII, none where the SAT backend refuted it), and
//! rewriter equivalence of the `panorama-analyze` optimizer under that
//! same interpreter. Any disagreement is
//! minimized to a small reproducer and serialized in the corpus file
//! format.
//!
//! Everything is a pure function of `(seed, cases, max_nodes)`: per-case
//! RNG streams are decorrelated with a SplitMix64 mix, the pipeline runs
//! single-threaded, and the report carries no wall-clock data — running
//! the same budget twice must produce byte-identical JSON, and
//! `panorama lint --report` (FUZZ002) checks exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod minimize;
pub mod oracle;
pub mod report;
pub mod sample;

pub use corpus::{corpus_case_text, parse_corpus_case, replay_case, replay_corpus, CorpusCase};
pub use minimize::{shrink_dfg, ShrinkOutcome};
pub use oracle::{
    run_case, run_sampled_case, BackendResult, CaseResult, OracleConfig, OracleOutcome,
};
pub use report::{BackendCounts, CorpusStats, FailureRecord, FuzzReport, OracleCounts};
pub use sample::{sample_case, CaseSpec};

use panorama_arch::Cgra;
use std::path::PathBuf;

/// Budget and behaviour of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Harness seed; the whole run is a function of it.
    pub seed: u64,
    /// Number of cases to sample.
    pub cases: usize,
    /// Per-case op-count cap.
    pub max_nodes: usize,
    /// Predicate-evaluation budget for minimizing each failure.
    pub shrink_evals: usize,
    /// Oracle budgets and the optional wall-clock cancel token.
    pub oracle: OracleConfig,
    /// When set, every `*.dfg` file in this directory is replayed after
    /// the sweep and the results land in the report's `corpus` section.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 42,
            cases: 100,
            max_nodes: 48,
            shrink_evals: 200,
            oracle: OracleConfig::default(),
            corpus_dir: None,
        }
    }
}

/// Runs a full fuzzing sweep and returns the report.
///
/// The run is deterministic for a fixed budget: the only sources of
/// variation are the cancel token firing (recorded as `cancelled`) and
/// the corpus directory contents.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport::new(opts.seed, opts.cases, opts.max_nodes);
    for index in 0..opts.cases {
        if opts
            .oracle
            .cancel
            .as_ref()
            .is_some_and(panorama::CancelToken::is_cancelled)
        {
            report.cancelled = true;
            break;
        }
        let spec = sample::sample_case(opts.seed, index, opts.max_nodes);
        let (dfg, cgra, result) = oracle::run_sampled_case(&spec, &opts.oracle);
        report.tally(&result);
        for (backend, oracle_name, message) in result.failures() {
            let record = minimize_failure(
                &dfg,
                &cgra,
                &spec,
                index,
                &backend,
                &oracle_name,
                &message,
                opts,
            );
            report.failures.push(record);
        }
    }
    if let Some(dir) = &opts.corpus_dir {
        report.corpus = Some(corpus::replay_corpus(dir, &opts.oracle));
    }
    report
}

/// Shrinks one failing case while the *same* `(backend, oracle)` pair
/// keeps failing, then packages it as a failure record whose `repro`
/// field is a ready-to-commit corpus file.
#[allow(clippy::too_many_arguments)]
fn minimize_failure(
    dfg: &panorama_dfg::Dfg,
    cgra: &Cgra,
    spec: &sample::CaseSpec,
    index: usize,
    backend: &str,
    oracle_name: &str,
    message: &str,
    opts: &FuzzOptions,
) -> FailureRecord {
    let key = (backend.to_string(), oracle_name.to_string());
    let outcome = minimize::shrink_dfg(dfg, opts.shrink_evals, |candidate| {
        let r = oracle::run_case(candidate, cgra, &opts.oracle);
        r.failures()
            .iter()
            .any(|(b, o, _)| *b == key.0 && *o == key.1)
    });
    let oracle_tag = format!("{backend}/{oracle_name}");
    let note = format!("seed {} case {index}: {message}", opts.seed);
    let repro = corpus::corpus_case_text(&outcome.dfg, &spec.arch, &oracle_tag, &note);
    FailureRecord {
        case: index,
        backend: backend.to_string(),
        oracle: oracle_name.to_string(),
        message: message.to_string(),
        arch: spec.arch_name.to_string(),
        arch_text: spec.arch.to_text().lines().collect::<Vec<_>>().join("; "),
        original_ops: dfg.num_ops(),
        minimized_ops: outcome.dfg.num_ops(),
        shrink_steps: outcome.steps,
        repro,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> FuzzOptions {
        FuzzOptions {
            seed: 42,
            cases: 4,
            max_nodes: 10,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn identical_budgets_produce_identical_reports() {
        let a = run(&smoke_opts());
        let b = run(&smoke_opts());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.completed, 4);
    }

    #[test]
    fn conservation_holds() {
        let r = run(&smoke_opts());
        assert_eq!(r.failures.len(), r.total_failures());
        for c in [&r.verify, &r.simulate, &r.exec, &r.ii_bound, &r.rewrite] {
            assert_eq!(c.checks, c.pass + c.fail + c.skip);
        }
        assert_eq!(r.verify.checks, r.completed * 3);
        assert_eq!(r.simulate.checks, r.completed * 3);
        assert_eq!(r.exec.checks, r.completed * 3);
        assert_eq!(r.ii_bound.checks, r.completed);
        assert_eq!(r.rewrite.checks, r.completed);
    }

    #[test]
    fn fired_cancel_token_short_circuits() {
        let token = panorama_mapper::CancelToken::new();
        token.cancel();
        let opts = FuzzOptions {
            oracle: OracleConfig {
                cancel: Some(token),
                ..OracleConfig::default()
            },
            ..smoke_opts()
        };
        let r = run(&opts);
        assert!(r.cancelled);
        assert_eq!(r.completed, 0);
    }
}
