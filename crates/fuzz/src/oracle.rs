//! The differential oracles: one fuzz case runs the full pipeline under
//! both lower-level backends and cross-checks the results.
//!
//! | oracle     | kind    | catches |
//! |------------|---------|---------|
//! | `verify`   | static  | structural violations: FU conflicts, missing/disconnected routes, dependence or capacity violations |
//! | `simulate` | dynamic | cycle-accurate structural disagreements: a route that does not leave its producer, follow MRRG edges or feed its consumer, an operand arriving in the wrong cycle, more `(producer, iteration)` tokens on a resource in one cycle than it has capacity for. Carries no values |
//! | `exec`     | dynamic | value-level divergences: the generated configware, replayed data-carrying on the fabric model under concrete input vectors, disagreeing with direct DFG interpretation — a semantically wrong encoder. Abstract backends (no routes) are excluded |
//! | `ii_bound` | cross   | an unsound II claim: a backend mapping below the proven MII, or a route-producing backend mapping at an II the SAT backend refuted in the same case. Abstract backends (no routes) are excluded from the second check: their relaxed interconnect model makes lower IIs legitimate |
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
use panorama_exec::{execute, ExecOptions};
use panorama_mapper::{min_ii, CancelToken, LowerLevelMapper, SatMapper, SatMapperConfig};
use panorama_sim::{simulate, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one oracle on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The oracle ran and found no disagreement.
    Pass,
    /// The oracle ran and found a genuine disagreement (a bug).
    Fail(String),
    /// The oracle did not apply, with the reason (unmapped, no routes,
    /// cancelled, ...).
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
    /// abstract mappers, whose II claims SAT's refutations must not judge).
    pub has_routes: bool,
    /// Achieved II when mapped.
    pub ii: Option<usize>,
    /// Mapping-failure text when unmapped (not an oracle failure).
    pub note: String,
    /// The SAT backend's per-II verdicts `(ii, result)`, as drained from
    /// its attempt log; empty for the other backends.
    pub ii_log: Vec<(usize, &'static str)>,
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
    /// One entry per backend under test, in [`BackendId::PORTFOLIO`] order.
    pub backends: Vec<BackendResult>,
    /// The II-bound cross-check (one per case, not per backend).
    pub ii_bound: OracleOutcome,
    /// The backend whose II broke the bound, when `ii_bound` failed.
    pub ii_bound_backend: Option<BackendId>,
    /// The rewriter-equivalence cross-check (one per case): the analyze
    /// optimizer's output must be indistinguishable from its input under
    /// the reference interpreter, for every input-vector family.
    pub rewrite: OracleOutcome,
    /// Panic message when any backend crashed.
    pub crash: Option<String>,
}

impl CaseResult {
    /// All failures as `(backend, oracle, message)` triples; crashes use
    /// backend `"harness"` and oracle `"crash"`, the II-bound cross-check
    /// names the offending backend and oracle `"ii_bound"`, the rewriter
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
        if let (OracleOutcome::Fail(msg), Some(b)) = (&self.ii_bound, self.ii_bound_backend) {
            out.push((b.name().to_string(), "ii_bound".into(), msg.clone()));
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
    /// Fires to abandon the remaining work (wall-clock cap).
    pub cancel: Option<CancelToken>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            sim_iterations: 6,
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
    // Tight per-case SAT budgets: a fuzz run visits hundreds of random
    // graphs, and an unmapped case is a skip, not a failure — the oracles
    // only judge what the backend positively claims.
    let sat = SatMapper::new(SatMapperConfig {
        max_ops: 48,
        schedule_conflicts: 5_000,
        route_conflicts: 5_000,
        refine_rounds: 16,
        ..SatMapperConfig::default()
    });
    let default = backend.mapper();
    let mapper: &dyn LowerLevelMapper = if backend == BackendId::Sat {
        &sat
    } else {
        &*default
    };
    let ctx = CompileContext {
        cancel: cfg.cancel.as_ref(),
        ..CompileContext::default()
    };
    let result = compiler.compile_with(dfg, cgra, &[mapper], CompileMode::Guided, &ctx);
    // empty unless this run was SAT's
    let ii_log = sat
        .take_attempts()
        .into_iter()
        .map(|a| (a.ii, a.result))
        .collect();
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
                    Err(SimError::NoRoutes) => {
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
                ii_log,
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
                ii_log,
                verify: OracleOutcome::Skip(format!("unmapped: {note}")),
                simulate: OracleOutcome::Skip(format!("unmapped: {note}")),
                exec: OracleOutcome::Skip(format!("unmapped: {note}")),
                note,
            }
        }
    }
}

/// Whether SAT's log refutes `ii` for every candidate partition it ran.
///
/// A guided compile runs one SAT search per candidate, each under its own
/// placement restriction, and the drained log merges them: one
/// candidate's `"unsat"` says nothing about another's restriction. Below
/// SAT's own result every candidate searched every II from its floor up
/// (the shared portfolio bound prunes only IIs at or above the best so
/// far, and all candidates share one cap), so there a log whose every
/// entry at `ii` is `"unsat"` covers them all: each candidate either
/// refuted `ii` or has a proven floor above it.
fn sat_refutes(sat: &BackendResult, ii: usize) -> bool {
    let mut at = sat.ii_log.iter().filter(|&&(k, _)| k == ii).peekable();
    sat.ii.is_none_or(|mapped| mapped > ii) && at.peek().is_some() && at.all(|&(_, r)| r == "unsat")
}

/// The II-bound oracle over results the backends already produced: no
/// backend maps below the proven MII, and no route-producing backend
/// maps at an II SAT refuted. Fails with the offending backend.
fn ii_bound_oracle(mii: usize, backends: &[BackendResult]) -> (OracleOutcome, Option<BackendId>) {
    if !backends.iter().any(|b| b.mapped) {
        return (
            OracleOutcome::Skip("no backend mapped this case".into()),
            None,
        );
    }
    let sat = backends.iter().find(|b| b.backend == BackendId::Sat);
    for b in backends {
        let Some(ii) = b.ii else { continue };
        let name = b.backend.name();
        if ii < mii {
            let msg = format!("{name} claims II {ii} below the MII {mii}");
            return (OracleOutcome::Fail(msg), Some(b.backend));
        }
        // abstract mappers (no routes) model a relaxed interconnect whose
        // optimum can genuinely be lower than the routed one
        if b.has_routes && sat.is_some_and(|sat| sat_refutes(sat, ii)) {
            let msg = format!("{name} claims II {ii}, which the SAT backend refuted");
            return (OracleOutcome::Fail(msg), Some(b.backend));
        }
    }
    (OracleOutcome::Pass, None)
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
                    ii_log: Vec::new(),
                    verify: OracleOutcome::Skip("crashed".into()),
                    simulate: OracleOutcome::Skip("crashed".into()),
                    exec: OracleOutcome::Skip("crashed".into()),
                });
            }
        }
    }
    // a partial SAT log refutes nothing: a cancelled search stopped
    // some candidates short of the IIs others refuted
    let (ii_bound, ii_bound_backend) = if crash.is_some() {
        (OracleOutcome::Skip("crashed".into()), None)
    } else if cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        (OracleOutcome::Skip("cancelled".into()), None)
    } else {
        ii_bound_oracle(min_ii(dfg, cgra).mii(), &backends)
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
        ii_bound,
        ii_bound_backend,
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

    /// A mapped (or, with `ii` `None`, unmapped) backend result carrying
    /// `ii_log` as its SAT verdicts.
    fn backend(
        id: BackendId,
        ii: Option<usize>,
        ii_log: &[(usize, &'static str)],
    ) -> BackendResult {
        BackendResult {
            backend: id,
            mapped: ii.is_some(),
            has_routes: ii.is_some() && id != BackendId::UltraFast,
            ii,
            note: String::new(),
            ii_log: ii_log.to_vec(),
            verify: OracleOutcome::Pass,
            simulate: OracleOutcome::Pass,
            exec: OracleOutcome::Pass,
        }
    }

    /// SPR\* at II 2 and Ultra-Fast at II 1, against SAT's `ii_log` and
    /// SAT result `sat_ii`, with MII `mii`.
    fn judge(mii: usize, ii_log: &[(usize, &'static str)], sat_ii: Option<usize>) -> CaseResult {
        let backends = vec![
            backend(BackendId::Spr, Some(2), &[]),
            backend(BackendId::UltraFast, Some(1), &[]),
            backend(BackendId::Sat, sat_ii, ii_log),
        ];
        let (ii_bound, ii_bound_backend) = ii_bound_oracle(mii, &backends);
        CaseResult {
            backends,
            ii_bound,
            ii_bound_backend,
            rewrite: OracleOutcome::Pass,
            crash: None,
        }
    }

    #[test]
    fn a_route_producing_ii_that_sat_refuted_fails() {
        let r = judge(1, &[(1, "unsat"), (2, "unsat"), (3, "mapped")], Some(3));
        assert!(r.ii_bound.is_fail());
        assert_eq!(r.failures()[0].0, "spr");
        assert_eq!(r.failures()[0].1, "ii_bound");
        // Ultra-Fast's II 1 is below SAT's refutation too, but it has no
        // routes: only SPR* is judged
        assert!(r.failures()[0].2.starts_with("spr claims II 2"));
    }

    #[test]
    fn running_out_of_rounds_refutes_nothing() {
        let r = judge(1, &[(1, "rounds"), (2, "rounds"), (3, "mapped")], Some(3));
        assert_eq!(r.ii_bound, OracleOutcome::Pass);
        // another candidate's refutation at an II some candidate mapped
        // at, or one that did not finish, is no refutation either
        for log in [
            &[(2, "mapped"), (2, "unsat")][..],
            &[(2, "rounds"), (2, "unsat"), (3, "mapped")],
        ] {
            let sat_ii = log.iter().find(|a| a.1 == "mapped").map(|a| a.0);
            assert_eq!(judge(1, log, sat_ii).ii_bound, OracleOutcome::Pass);
        }
    }

    #[test]
    fn an_ii_below_the_mii_fails_and_no_mapping_skips() {
        let r = judge(2, &[(2, "mapped")], Some(2));
        assert!(r.ii_bound.is_fail());
        assert_eq!(r.failures()[0].0, "ultrafast");
        let none = [
            backend(BackendId::Spr, None, &[]),
            backend(BackendId::Sat, None, &[(1, "unsat")]),
        ];
        assert!(matches!(
            ii_bound_oracle(1, &none).0,
            OracleOutcome::Skip(_)
        ));
    }
}
