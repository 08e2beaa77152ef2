//! The SAT modulo-scheduling mapper: an exact-style backend that encodes
//! schedule, placement and routing as CNF and decides each candidate II
//! with the `panorama-sat` CDCL solver.
//!
//! Per candidate II (ascending from [`ii_floor`](crate::ii_floor)), the mapper
//! runs the two-phase loop of [`sat_encode`](crate::sat_encode): solve
//! the schedule + placement CNF, cut distance-infeasible placements
//! (CEGAR), then route the decoded assignment over the time-expanded
//! MRRG with a second CNF; a routing refutation blocks that exact
//! assignment and re-solves phase 1. Every accepted mapping is re-checked
//! with [`Mapping::verify`] before it is returned — the solver is trusted
//! for search, never for correctness.
//!
//! Determinism: the CNF construction iterates sorted structures only and
//! the solver is deterministic, so the mapper returns byte-identical
//! mappings for identical inputs regardless of thread count. Cooperative
//! cancellation is polled inside unit propagation (every few thousand
//! propagations) and at restart boundaries via the solver's interrupt
//! hook.

use crate::sat_encode::{BuildError, CnfBudget, ExpansionMemo, RoutingCnf, ScheduleCnf};
use crate::search::{Attempt, Backend, IiSearch, OpDomains};
use crate::{LowerLevelMapper, MapError, Mapping, Restriction, SearchControl};
use panorama_arch::Cgra;
use panorama_dfg::Dfg;
use panorama_sat::{Limits, SolveResult, SolverStats};
use panorama_trace::json::Writer;
use panorama_trace::{schema, SpanCollector};
use std::sync::Mutex;

static BACKEND: Backend = Backend {
    name: "SAT",
    abort: "sat.abort",
    cancelled: "sat.cancelled",
    exhausted: "sat.exhausted",
    max_ii: (3, 6),
};

/// Schedule-window widths tried per II, in units of II (ascending; a wider
/// window re-encodes only after the narrow one is refuted).
const WINDOW_FACTORS: [usize; 2] = [2, 4];

/// Tunables for the SAT mapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatMapperConfig {
    /// Refuse DFGs larger than this (CNF size grows superlinearly).
    pub max_ops: usize,
    /// Variable budget per CNF (phase 1 and phase 2 each).
    pub max_vars: usize,
    /// Clause budget per CNF.
    pub max_clauses: usize,
    /// Conflict budget per phase-1 solve.
    pub schedule_conflicts: u64,
    /// Conflict budget per phase-2 solve.
    pub route_conflicts: u64,
    /// CEGAR refinement rounds per window width before giving up on
    /// the II.
    pub refine_rounds: usize,
}

impl SatMapperConfig {
    /// The last II the search tries for a graph whose MII is `mii`.
    pub fn max_ii(&self, mii: usize) -> usize {
        BACKEND.last_ii(mii)
    }
}

impl Default for SatMapperConfig {
    fn default() -> Self {
        SatMapperConfig {
            max_ops: 72,
            max_vars: 200_000,
            max_clauses: 2_000_000,
            schedule_conflicts: 30_000,
            route_conflicts: 30_000,
            refine_rounds: 48,
        }
    }
}

/// Outcome record for one candidate II, kept for `--sat-report`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IiAttempt {
    /// The candidate II.
    pub ii: usize,
    /// `"mapped"`, `"unsat"` (phase 1 refuted the widest window: no
    /// mapping exists at this II), `"rounds"` (the CEGAR rounds ran out
    /// first), `"budget"`, `"timeout"` or `"cancelled"`.
    pub result: &'static str,
    /// CEGAR rounds spent (distance cuts + routing refutations).
    pub refinements: usize,
    /// Models whose decode or [`Mapping::verify`] re-check failed; always
    /// 0 unless the encoder and verifier disagree (lint `SAT003`).
    pub decode_mismatches: usize,
    /// Peak variable count over both phases.
    pub vars: usize,
    /// Peak clause count over both phases.
    pub clauses: usize,
    /// Solver conflicts summed over every solve at this II.
    pub conflicts: u64,
    /// Solver propagations summed over every solve at this II.
    pub propagations: u64,
    /// Solver decisions summed over every solve at this II.
    pub decisions: u64,
    /// Solver restarts summed over every solve at this II.
    pub restarts: u64,
}

impl IiAttempt {
    fn new(ii: usize) -> Self {
        IiAttempt {
            ii,
            result: "unsat",
            refinements: 0,
            decode_mismatches: 0,
            vars: 0,
            clauses: 0,
            conflicts: 0,
            propagations: 0,
            decisions: 0,
            restarts: 0,
        }
    }

    fn absorb(&mut self, before: SolverStats, after: SolverStats) {
        self.conflicts += after.conflicts - before.conflicts;
        self.propagations += after.propagations - before.propagations;
        self.decisions += after.decisions - before.decisions;
        self.restarts += after.restarts - before.restarts;
    }
}

/// Renders the `panorama-sat-v1` attempt log that `compile --mapper sat
/// --sat-report` writes and `lint --report` validates (SAT001–SAT003):
/// `attempts` as drained from the mapper that ran, `config` that same
/// mapper's — its II cap (lowered to the request's `max_ii`, when that is
/// tighter) and CNF budgets are what the linter holds the attempts
/// against — and `mapped_ii` 0 when nothing mapped.
pub fn sat_attempt_log(
    kernel: &str,
    arch: &str,
    mii: usize,
    mapped_ii: usize,
    config: &SatMapperConfig,
    max_ii: Option<usize>,
    attempts: &[IiAttempt],
) -> String {
    let cap = config.max_ii(mii);
    let mut w = Writer::new(&schema::SAT);
    w.key("kernel").str(kernel);
    w.key("arch").str(arch);
    w.key("mii").uint(mii);
    w.key("max_ii").uint(max_ii.map_or(cap, |m| m.min(cap)));
    w.key("mapped_ii").uint(mapped_ii);
    w.key("max_vars").uint(config.max_vars);
    w.key("max_clauses").uint(config.max_clauses);
    w.key("attempts").open();
    for a in attempts {
        w.open();
        w.key("ii").uint(a.ii);
        w.key("result").str(a.result);
        w.key("refinements").uint(a.refinements);
        w.key("decode_mismatches").uint(a.decode_mismatches);
        w.key("vars").uint(a.vars);
        w.key("clauses").uint(a.clauses);
        w.key("conflicts").uint(a.conflicts);
        w.key("propagations").uint(a.propagations);
        w.key("decisions").uint(a.decisions);
        w.key("restarts").uint(a.restarts);
        w.close();
    }
    w.close();
    w.finish()
}

enum Outcome {
    Mapped(Mapping),
    Unsat,
    Rounds,
    Budget,
    Timeout,
    Cancelled,
}

/// The SAT modulo-scheduling mapper.
#[derive(Debug, Default)]
pub struct SatMapper {
    /// Mapper configuration.
    pub config: SatMapperConfig,
    attempts: Mutex<Vec<IiAttempt>>,
}

impl Clone for SatMapper {
    fn clone(&self) -> Self {
        SatMapper {
            config: self.config.clone(),
            attempts: Mutex::new(Vec::new()),
        }
    }
}

impl SatMapper {
    /// Creates a mapper with custom settings.
    pub fn new(config: SatMapperConfig) -> Self {
        SatMapper {
            config,
            attempts: Mutex::new(Vec::new()),
        }
    }

    /// Drains the per-II attempt log accumulated since the last call.
    /// Under the portfolio several candidates may interleave their
    /// attempts; entries are returned sorted by `(ii, result)` so the
    /// log's content is a deterministic function of the work performed.
    pub fn take_attempts(&self) -> Vec<IiAttempt> {
        let mut a = std::mem::take(&mut *self.attempts.lock().expect("attempt log poisoned"));
        a.sort_by(|x, y| (x.ii, x.result).cmp(&(y.ii, y.result)));
        a
    }

    /// One candidate II: the phase-1/phase-2 CEGAR loop. Counts its
    /// phase-2 builds in `route_builds`.
    #[allow(clippy::too_many_arguments)]
    fn try_ii(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        domains: &OpDomains,
        hops: &[Vec<u32>],
        ii: usize,
        search: &IiSearch,
        trace: &mut SpanCollector,
        attempt: &mut IiAttempt,
        route_builds: &mut usize,
    ) -> Outcome {
        let cfg = &self.config;
        let budget = CnfBudget {
            max_vars: cfg.max_vars,
            max_clauses: cfg.max_clauses,
        };
        let mrrg = cgra.mrrg_shared(ii);
        // routing expansions of this attempt's MRRG, for every window
        // width and CEGAR round
        let mut memo = ExpansionMemo::new(&mrrg);
        let mut interrupted = || search.control.is_some_and(SearchControl::is_cancelled);
        let sched_limits = Limits {
            max_conflicts: Some(cfg.schedule_conflicts),
            max_propagations: None,
        };
        let route_limits = Limits {
            max_conflicts: Some(cfg.route_conflicts),
            max_propagations: None,
        };

        // whether phase 1 refuted the current window; only a refuted
        // widest window proves the II infeasible
        let mut refuted = false;
        for wf in WINDOW_FACTORS {
            refuted = false;
            let mut sched = match ScheduleCnf::build(dfg, domains, hops, ii, wf, budget) {
                Ok(s) => s,
                Err(BuildError::Infeasible) => return Outcome::Unsat,
                Err(BuildError::OverBudget) => return Outcome::Budget,
            };
            for _round in 0..cfg.refine_rounds {
                let span = trace.start();
                let before = *sched.cnf.solver.stats();
                let result = sched
                    .cnf
                    .solver
                    .solve_limited(&sched_limits, &mut interrupted);
                let after = *sched.cnf.solver.stats();
                attempt.absorb(before, after);
                attempt.vars = attempt.vars.max(sched.cnf.solver.num_vars());
                attempt.clauses = attempt.clauses.max(sched.cnf.clauses);
                trace.record(
                    "sat.solve",
                    span,
                    &[
                        ("ii", ii as i64),
                        ("phase", 1),
                        ("conflicts", (after.conflicts - before.conflicts) as i64),
                        ("sat", i64::from(result == SolveResult::Sat)),
                        ("limited", i64::from(result == SolveResult::Unknown)),
                    ],
                );
                match result {
                    SolveResult::Unknown => {
                        return if interrupted() {
                            Outcome::Cancelled
                        } else {
                            Outcome::Timeout
                        };
                    }
                    SolveResult::Unsat => {
                        refuted = true;
                        break; // widen the window
                    }
                    SolveResult::Sat => {}
                }
                let Some((times, pes)) = sched.decode() else {
                    attempt.decode_mismatches += 1;
                    return Outcome::Timeout;
                };
                let span = trace.start();
                let (expanded, reused) = (memo.expanded, memo.reused);
                let built = RoutingCnf::build(&mut memo, &sched.edges, &times, &pes, budget);
                *route_builds += 1;
                let (vars, clauses) = built
                    .as_ref()
                    .map_or((0, 0), |r| (r.cnf.solver.num_vars(), r.cnf.clauses));
                trace.record(
                    "sat.route_cnf",
                    span,
                    &[
                        ("edges", sched.edges.len() as i64),
                        ("expanded", (memo.expanded - expanded) as i64),
                        ("reused", (memo.reused - reused) as i64),
                        ("vars", vars as i64),
                        ("clauses", clauses as i64),
                    ],
                );
                let mut routing = match built {
                    Ok(r) => r,
                    Err(BuildError::Infeasible) => {
                        sched.block_assignment(&times, &pes);
                        attempt.refinements += 1;
                        continue;
                    }
                    Err(BuildError::OverBudget) => return Outcome::Budget,
                };
                let span = trace.start();
                let before = *routing.cnf.solver.stats();
                let result = routing
                    .cnf
                    .solver
                    .solve_limited(&route_limits, &mut interrupted);
                let after = *routing.cnf.solver.stats();
                attempt.absorb(before, after);
                attempt.vars = attempt.vars.max(routing.cnf.solver.num_vars());
                attempt.clauses = attempt.clauses.max(routing.cnf.clauses);
                trace.record(
                    "sat.solve",
                    span,
                    &[
                        ("ii", ii as i64),
                        ("phase", 2),
                        ("conflicts", (after.conflicts - before.conflicts) as i64),
                        ("sat", i64::from(result == SolveResult::Sat)),
                        ("limited", i64::from(result == SolveResult::Unknown)),
                    ],
                );
                match result {
                    SolveResult::Unknown => {
                        return if interrupted() {
                            Outcome::Cancelled
                        } else {
                            Outcome::Timeout
                        };
                    }
                    SolveResult::Unsat => {
                        sched.block_assignment(&times, &pes);
                        attempt.refinements += 1;
                        continue;
                    }
                    SolveResult::Sat => {}
                }
                let Some(routes) = routing.decode(&memo) else {
                    attempt.decode_mismatches += 1;
                    sched.block_assignment(&times, &pes);
                    attempt.refinements += 1;
                    continue;
                };
                let mapping = search.mapping(ii, times, pes, Some(routes));
                // never trust the encoder: re-check the decoded mapping
                // against the independent verifier before accepting it
                if mapping.verify(dfg, cgra).is_err() {
                    attempt.decode_mismatches += 1;
                    sched.block_assignment(&mapping.time_of, &mapping.pe_of);
                    attempt.refinements += 1;
                    continue;
                }
                return Outcome::Mapped(mapping);
            }
        }
        if refuted {
            Outcome::Unsat
        } else {
            Outcome::Rounds
        }
    }
}

impl LowerLevelMapper for SatMapper {
    fn map_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&SearchControl>,
        trace: &mut SpanCollector,
    ) -> Result<Mapping, MapError> {
        if dfg.num_ops() > self.config.max_ops {
            return Err(MapError::exhausted(0, self.name()));
        }
        let search = IiSearch::new(&BACKEND, dfg, cgra, restriction, control);
        let domains = OpDomains::new(dfg, cgra, restriction);
        let hops = crate::sat_encode::hop_distances(cgra);
        search.run(trace, |ii, _, trace| {
            let mut attempt = IiAttempt::new(ii);
            let ii_span = trace.start();
            let mut route_builds = 0;
            let outcome = self.try_ii(
                dfg,
                cgra,
                &domains,
                &hops,
                ii,
                &search,
                trace,
                &mut attempt,
                &mut route_builds,
            );
            let success = matches!(outcome, Outcome::Mapped(_));
            trace.record(
                "sat.ii",
                ii_span,
                &[
                    ("ii", ii as i64),
                    ("success", i64::from(success)),
                    ("conflicts", attempt.conflicts as i64),
                    ("propagations", attempt.propagations as i64),
                    ("restarts", attempt.restarts as i64),
                    ("refinements", attempt.refinements as i64),
                    ("route_builds", route_builds as i64),
                ],
            );
            attempt.result = match &outcome {
                Outcome::Mapped(_) => "mapped",
                Outcome::Unsat => "unsat",
                Outcome::Rounds => "rounds",
                Outcome::Budget => "budget",
                Outcome::Timeout => "timeout",
                Outcome::Cancelled => "cancelled",
            };
            self.attempts
                .lock()
                .expect("attempt log poisoned")
                .push(attempt);
            match outcome {
                Outcome::Mapped(mapping) => Attempt::Mapped(mapping),
                Outcome::Cancelled => Attempt::Cancelled,
                // rounds, budget and timeout all leave this II undecided;
                // the search moves on (an exhausted cap reports SAT002)
                Outcome::Unsat | Outcome::Rounds | Outcome::Budget | Outcome::Timeout => {
                    Attempt::Failed
                }
            }
        })
    }

    fn name(&self) -> &'static str {
        BACKEND.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelToken, PortfolioBound};
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, KernelId, KernelScale};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).expect("valid config")
    }

    /// The comparable parts of a mapping (everything except wall-clock
    /// stats).
    fn fingerprint(m: &Mapping) -> String {
        format!("{};{:?};{:?};{:?}", m.ii(), m.time_of, m.pe_of, m.routes)
    }

    #[test]
    fn maps_and_verifies_every_tiny_kernel() {
        let cgra = cgra();
        let mapper = SatMapper::default();
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let mapping = mapper
                .map(&dfg, &cgra, None)
                .unwrap_or_else(|e| panic!("SAT failed on {id:?}: {e}"));
            mapping
                .verify(&dfg, &cgra)
                .unwrap_or_else(|e| panic!("verify failed on {id:?}: {e:?}"));
            assert!(mapping.ii() >= mapping.mii());
            let attempts = mapper.take_attempts();
            assert!(attempts.iter().any(|a| a.result == "mapped"));
            assert_eq!(
                attempts.iter().map(|a| a.decode_mismatches).sum::<usize>(),
                0
            );
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let cgra = cgra();
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::Edn] {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let run = || {
                let mapper = SatMapper::default();
                let m = mapper.map(&dfg, &cgra, None).expect("maps");
                (fingerprint(&m), mapper.take_attempts())
            };
            let (f1, a1) = run();
            let (f2, a2) = run();
            assert_eq!(f1, f2, "mapping differs across runs on {id:?}");
            assert_eq!(a1, a2, "attempt log differs across runs on {id:?}");
        }
    }

    #[test]
    fn cancellation_degrades_to_a_cancelled_error() {
        let cgra = cgra();
        let dfg = kernels::generate(KernelId::Edn, KernelScale::Tiny);
        let token = CancelToken::new();
        token.cancel();
        let control = SearchControl::new(PortfolioBound::new(), 0, 0).with_cancel(token);
        let err = SatMapper::default()
            .map_traced(
                &dfg,
                &cgra,
                None,
                Some(&control),
                &mut SpanCollector::disabled(),
            )
            .expect_err("fired token must cancel the search");
        assert!(err.cancelled);
    }

    #[test]
    fn bound_admission_prunes_the_search() {
        let cgra = cgra();
        let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
        let bound = PortfolioBound::new();
        // a rival already proved II 1 at a lower tie-break: nothing admits
        SearchControl::new(bound.clone(), 0, 0).record_success(1);
        let control = SearchControl::new(bound, 9, 9);
        let err = SatMapper::default()
            .map_traced(
                &dfg,
                &cgra,
                None,
                Some(&control),
                &mut SpanCollector::disabled(),
            )
            .expect_err("bound must exhaust the search");
        assert!(!err.cancelled);
    }
}
