//! The differential oracles: one fuzz case runs the full pipeline under
//! both lower-level backends and cross-checks the results.
//!
//! | oracle     | kind    | catches |
//! |------------|---------|---------|
//! | `verify`   | static  | structural violations: FU conflicts, missing/disconnected routes, dependence or capacity violations |
//! | `simulate` | dynamic | cycle-accurate structural disagreements: a route that does not leave its producer, follow MRRG edges or feed its consumer, an operand arriving in the wrong cycle, more `(producer, iteration)` tokens on a resource in one cycle than it has capacity for. Carries no values |
//! | `exec`     | dynamic | value-level divergences: the generated configware, replayed data-carrying on the fabric model under concrete input vectors, disagreeing with direct DFG interpretation — a semantically wrong encoder. Abstract backends (no routes) are excluded |
//! | `exact_ii` | cross   | a route-producing backend reporting an II below the exhaustive mapper's optimum — an unsound II claim. Abstract backends (no routes) are excluded: their relaxed interconnect model makes lower IIs legitimate |
//! | `rewrite`  | cross   | the `panorama-analyze` optimizer producing a graph `panorama_sim::interpret` — the interpreter and ALU `exec` holds the configware to — distinguishes from the input under any of the five input-vector families: every surviving op compared through the rewrite map, every store and sink kept (per case, before any mapping) |
//! | `crash`    | harness | panics anywhere in the pipeline, caught per backend |
//!
//! A failed *mapping* is not a failed oracle: heuristics may legitimately
//! give up. Oracles only judge what a backend positively claims.

use crate::sample::CaseSpec;
use panorama::{BackendId, CompileContext, CompileMode, Panorama, PanoramaConfig};
use panorama_analyze::{optimize, AnalyzeConfig};
use panorama_arch::Cgra;
use panorama_dfg::Dfg;
use panorama_exec::{execute, ExecError, ExecOptions};
use panorama_mapper::{
    CancelToken, ExactMapper, LowerLevelMapper, SatMapper, SatMapperConfig, SearchControl,
};
use panorama_sim::{simulate, SimError};
use panorama_trace::SpanCollector;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one oracle on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The oracle ran and found no disagreement.
    Pass,
    /// The oracle ran and found a genuine disagreement (a bug).
    Fail(String),
    /// The oracle did not apply, with the reason (unmapped, no routes,
    /// instance too large for the exact mapper, ...).
    Skip(String),
}

impl OracleOutcome {
    /// `true` for [`OracleOutcome::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, OracleOutcome::Fail(_))
    }
}

/// Per-backend slice of a case result.
#[derive(Debug, Clone)]
pub struct BackendResult {
    /// Which backend.
    pub backend: BackendId,
    /// Whether the pipeline produced a mapping.
    pub mapped: bool,
    /// Whether the mapping carries concrete MRRG routes (false for
    /// abstract mappers, whose II claims the exact oracle must not judge).
    pub has_routes: bool,
    /// Achieved II when mapped.
    pub ii: Option<usize>,
    /// Mapping-failure text when unmapped (not an oracle failure).
    pub note: String,
    /// Static checker outcome.
    pub verify: OracleOutcome,
    /// Cycle-level simulation outcome.
    pub simulate: OracleOutcome,
    /// Data-level configware execution outcome (value-level differential
    /// check against the DFG reference interpreter).
    pub exec: OracleOutcome,
}

/// Everything the oracles concluded about one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// One entry per backend under test, in [`BackendId::PORTFOLIO`] order
    /// (the exhaustive mapper is an oracle, not a subject).
    pub backends: Vec<BackendResult>,
    /// The II-optimality cross-check (one per case, not per backend).
    pub exact_ii: OracleOutcome,
    /// The rewriter-equivalence cross-check (one per case): the analyze
    /// optimizer's output must be indistinguishable from its input under
    /// the reference interpreter, for every input-vector family.
    pub rewrite: OracleOutcome,
    /// Panic message when any backend crashed.
    pub crash: Option<String>,
}

impl CaseResult {
    /// All failures as `(backend, oracle, message)` triples; crashes use
    /// backend `"harness"` and oracle `"crash"`, the exact cross-check
    /// uses backend `"exact"` and oracle `"exact_ii"`, the rewriter
    /// cross-check uses backend `"analyze"` and oracle `"rewrite"`.
    pub fn failures(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for b in &self.backends {
            if let OracleOutcome::Fail(msg) = &b.verify {
                out.push((b.backend.name().to_string(), "verify".into(), msg.clone()));
            }
            if let OracleOutcome::Fail(msg) = &b.simulate {
                out.push((b.backend.name().to_string(), "simulate".into(), msg.clone()));
            }
            if let OracleOutcome::Fail(msg) = &b.exec {
                out.push((b.backend.name().to_string(), "exec".into(), msg.clone()));
            }
        }
        if let OracleOutcome::Fail(msg) = &self.exact_ii {
            out.push(("exact".into(), "exact_ii".into(), msg.clone()));
        }
        if let OracleOutcome::Fail(msg) = &self.rewrite {
            out.push(("analyze".into(), "rewrite".into(), msg.clone()));
        }
        if let Some(msg) = &self.crash {
            out.push(("harness".into(), "crash".into(), msg.clone()));
        }
        out
    }

    /// `true` when any oracle failed or a backend crashed.
    pub fn has_failure(&self) -> bool {
        !self.failures().is_empty()
    }
}

/// Oracle budgets and the optional cooperative cancel token.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Pipelined iterations the simulator replays per mapping.
    pub sim_iterations: usize,
    /// Op-count cap for the exact II-optimality cross-check.
    pub exact_max_ops: usize,
    /// PE-count cap for the exact cross-check (exhaustive placement
    /// over large arrays is the wall the paper documents).
    pub exact_max_pes: usize,
    /// Fires to abandon the remaining work (wall-clock cap).
    pub cancel: Option<CancelToken>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            sim_iterations: 6,
            exact_max_ops: 12,
            exact_max_pes: 16,
            cancel: None,
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_backend(dfg: &Dfg, cgra: &Cgra, backend: BackendId, cfg: &OracleConfig) -> BackendResult {
    // threads: 1 keeps the whole harness single-threaded; the pipeline's
    // result is thread-invariant anyway, but the fuzzer must not even
    // depend on that claim it is in the business of checking.
    let compiler = Panorama::new(PanoramaConfig {
        threads: 1,
        ..PanoramaConfig::default()
    });
    let mapper: Box<dyn LowerLevelMapper> = match backend {
        // Tight per-case budgets: a fuzz run visits hundreds of random
        // graphs, and an unmapped case is a skip, not a failure — the
        // oracles only judge what the backend positively claims.
        BackendId::Sat => Box::new(SatMapper::new(SatMapperConfig {
            max_ops: 48,
            schedule_conflicts: 5_000,
            route_conflicts: 5_000,
            refine_rounds: 16,
            ..SatMapperConfig::default()
        })),
        other => other.mapper(),
    };
    let ctx = CompileContext {
        cancel: cfg.cancel.as_ref(),
        ..CompileContext::default()
    };
    let result = compiler.compile_with(dfg, cgra, &[&*mapper], CompileMode::Guided, &ctx);
    match result {
        Ok(report) => {
            let mapping = report.mapping();
            let verify = match mapping.verify(dfg, cgra) {
                Ok(()) => OracleOutcome::Pass,
                Err(e) => OracleOutcome::Fail(format!("verify rejected the mapping: {e}")),
            };
            let sim = match simulate(dfg, cgra, mapping, cfg.sim_iterations) {
                Ok(_) => OracleOutcome::Pass,
                Err(SimError::NoRoutes) => {
                    OracleOutcome::Skip("no concrete routes (abstract mapper)".into())
                }
                Err(e) => OracleOutcome::Fail(format!("simulation diverged: {e}")),
            };
            // the data-level oracle only executes structurally valid
            // mappings: configware generation presumes verified routes
            let exec = if verify.is_fail() {
                OracleOutcome::Skip("mapping failed verify".into())
            } else {
                let opts = ExecOptions {
                    iterations: cfg.sim_iterations,
                    ..ExecOptions::default()
                };
                match execute(dfg, cgra, mapping, &opts) {
                    Ok(outcome) if outcome.passed() => OracleOutcome::Pass,
                    Ok(outcome) => {
                        let (vector, msg) = outcome
                            .first_divergence()
                            .expect("a non-passing outcome records a divergence");
                        OracleOutcome::Fail(format!(
                            "execution diverged on the {vector} vector: {msg}"
                        ))
                    }
                    Err(ExecError::NoRoutes) => {
                        OracleOutcome::Skip("no concrete routes (abstract mapper)".into())
                    }
                    Err(e) => OracleOutcome::Fail(format!("execution failed: {e}")),
                }
            };
            BackendResult {
                backend,
                mapped: true,
                has_routes: mapping.routes().is_some(),
                ii: Some(mapping.ii()),
                note: String::new(),
                verify,
                simulate: sim,
                exec,
            }
        }
        Err(e) => {
            let note = e.to_string();
            BackendResult {
                backend,
                mapped: false,
                has_routes: false,
                ii: None,
                verify: OracleOutcome::Skip(format!("unmapped: {note}")),
                simulate: OracleOutcome::Skip(format!("unmapped: {note}")),
                exec: OracleOutcome::Skip(format!("unmapped: {note}")),
                note,
            }
        }
    }
}

fn exact_oracle(
    dfg: &Dfg,
    cgra: &Cgra,
    cfg: &OracleConfig,
    backends: &[BackendResult],
) -> OracleOutcome {
    if dfg.num_ops() > cfg.exact_max_ops {
        return OracleOutcome::Skip(format!(
            "{} ops exceeds the exact-oracle cap of {}",
            dfg.num_ops(),
            cfg.exact_max_ops
        ));
    }
    if cgra.num_pes() > cfg.exact_max_pes {
        return OracleOutcome::Skip(format!(
            "{} PEs exceeds the exact-oracle cap of {}",
            cgra.num_pes(),
            cfg.exact_max_pes
        ));
    }
    if !backends.iter().any(|b| b.mapped && b.has_routes) {
        return OracleOutcome::Skip("no route-producing backend mapped this case".into());
    }
    let exact = ExactMapper::default();
    let control = cfg
        .cancel
        .as_ref()
        .map(|token| SearchControl::unbounded().with_cancel(token.clone()));
    let result = exact.map_traced(
        dfg,
        cgra,
        None,
        control.as_ref(),
        &mut SpanCollector::disabled(),
    );
    match result {
        Ok(mapping) => {
            if let Err(e) = mapping.verify(dfg, cgra) {
                return OracleOutcome::Fail(format!("exact mapping fails verify: {e}"));
            }
            for b in backends {
                // abstract mappers (no routes) model a relaxed interconnect
                // whose optimum can genuinely be lower; judging them against
                // the route-aware exact mapper would be a category error
                if !b.has_routes {
                    continue;
                }
                if let Some(ii) = b.ii {
                    if ii < mapping.ii() {
                        return OracleOutcome::Fail(format!(
                            "{} claims II {} below the exhaustive optimum {}",
                            b.backend.name(),
                            ii,
                            mapping.ii()
                        ));
                    }
                }
            }
            OracleOutcome::Pass
        }
        Err(e) if e.cancelled => OracleOutcome::Skip("cancelled".into()),
        Err(_) => OracleOutcome::Skip("exact mapper found no mapping within budget".into()),
    }
}

/// The rewriter-equivalence oracle: run the full `panorama-analyze`
/// optimizer (which golden-compares its output against the reference
/// interpreter through the rewrite map, under every input-vector
/// family) and fail on any equivalence violation it reports. The
/// interpreter is the one `exec` judges configware by, so a rewrite that
/// passes here cannot change a stored word. Runs per case, independent
/// of any backend.
fn rewrite_oracle(dfg: &Dfg) -> OracleOutcome {
    match optimize(dfg, &AnalyzeConfig::default()) {
        Ok(_) => OracleOutcome::Pass,
        Err(e) => OracleOutcome::Fail(format!("rewriter broke interpreter equivalence: {e}")),
    }
}

/// Runs every oracle over one `(dfg, cgra)` case. Panics in the pipeline
/// are caught per backend and surface as the `crash` pseudo-oracle
/// instead of tearing the harness down.
pub fn run_case(dfg: &Dfg, cgra: &Cgra, cfg: &OracleConfig) -> CaseResult {
    let mut backends = Vec::with_capacity(BackendId::PORTFOLIO.len());
    let mut crash = None;
    for backend in BackendId::PORTFOLIO {
        match catch_unwind(AssertUnwindSafe(|| run_backend(dfg, cgra, backend, cfg))) {
            Ok(result) => backends.push(result),
            Err(payload) => {
                let msg = format!(
                    "{} backend panicked: {}",
                    backend.name(),
                    panic_text(&*payload)
                );
                crash.get_or_insert(msg);
                backends.push(BackendResult {
                    backend,
                    mapped: false,
                    has_routes: false,
                    ii: None,
                    note: "crashed".into(),
                    verify: OracleOutcome::Skip("crashed".into()),
                    simulate: OracleOutcome::Skip("crashed".into()),
                    exec: OracleOutcome::Skip("crashed".into()),
                });
            }
        }
    }
    let exact_ii = if crash.is_some() {
        OracleOutcome::Skip("crashed".into())
    } else {
        match catch_unwind(AssertUnwindSafe(|| exact_oracle(dfg, cgra, cfg, &backends))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = format!("exact oracle panicked: {}", panic_text(&*payload));
                crash.get_or_insert(msg);
                OracleOutcome::Skip("crashed".into())
            }
        }
    };
    let rewrite = match catch_unwind(AssertUnwindSafe(|| rewrite_oracle(dfg))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = format!("rewrite oracle panicked: {}", panic_text(&*payload));
            crash.get_or_insert(msg);
            OracleOutcome::Skip("crashed".into())
        }
    };
    CaseResult {
        backends,
        exact_ii,
        rewrite,
        crash,
    }
}

/// Convenience: sample, generate and run case `index` of a seeded run.
pub fn run_sampled_case(spec: &CaseSpec, cfg: &OracleConfig) -> (Dfg, Cgra, CaseResult) {
    let dfg = panorama_dfg::random_dfg(&spec.dfg_config);
    let cgra = Cgra::new(spec.arch.clone()).expect("sample space entries validate");
    let result = run_case(&dfg, &cgra, cfg);
    (dfg, cgra, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};

    #[test]
    fn known_good_kernel_passes_all_oracles() {
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let result = run_case(&dfg, &cgra, &OracleConfig::default());
        assert!(
            !result.has_failure(),
            "fir/tiny must be clean: {:?}",
            result.failures()
        );
        let spr = &result.backends[0];
        assert!(spr.mapped);
        assert_eq!(spr.verify, OracleOutcome::Pass);
        assert_eq!(spr.simulate, OracleOutcome::Pass);
        assert_eq!(spr.exec, OracleOutcome::Pass);
        assert_eq!(result.rewrite, OracleOutcome::Pass);
        // ultrafast has no routes -> simulate and exec skip
        let uf = &result.backends[1];
        assert!(matches!(uf.simulate, OracleOutcome::Skip(_)));
        assert!(matches!(uf.exec, OracleOutcome::Skip(_)));
    }

    #[test]
    fn fired_cancel_token_degrades_to_skips_not_failures() {
        let token = CancelToken::new();
        token.cancel();
        let cfg = OracleConfig {
            cancel: Some(token),
            ..OracleConfig::default()
        };
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let result = run_case(&dfg, &cgra, &cfg);
        assert!(!result.has_failure(), "{:?}", result.failures());
        assert!(result.backends.iter().all(|b| !b.mapped));
    }
}
