//! An exact exhaustive placement mapper, in the spirit of the constraint-
//! based CGRA mappers of Table 1b (CGRA-ME and friends).
//!
//! Placement is solved *exactly* by backtracking search with constraint
//! propagation: operations are placed most-constrained-first, and every
//! partial assignment is pruned against FU exclusivity, memory capability
//! and the hop-per-cycle routability bound. The result is handed to the
//! same PathFinder router SPR\* uses. Exhaustive search scales
//! exponentially with DFG size — the very wall the paper's Table 1b
//! documents and PANORAMA exists to avoid — so this mapper guards its op
//! count and search budget and fails fast instead of burning hours.

use crate::placement::FuOccupancy;
use crate::router::{route_all, RouterConfig};
use crate::schedule::{enumerate_slack_schedules, modulo_schedule_variant};
use crate::search::{Attempt, Backend, IiSearch, OpDomains};
use crate::{LowerLevelMapper, MapError, Mapping, Restriction, SearchControl};
use panorama_arch::{Cgra, PeId};
use panorama_dfg::Dfg;

static BACKEND: Backend = Backend {
    name: "exhaustive",
    abort: "exact.abort",
    cancelled: "exact.cancelled",
    exhausted: "exact.exhausted",
    max_ii: (3, 6),
};

/// Backtracking-node budget per schedule tried.
const SEARCH_BUDGET: usize = 2_000_000;
/// Complete placements handed to the router per schedule before giving up.
/// The hop-per-cycle bound the search prunes against is necessary but
/// not sufficient for routability, so a placement can satisfy it and
/// still fail PathFinder; enumerating a few alternatives keeps one
/// congested corner from sinking an otherwise feasible II.
const ROUTE_ATTEMPTS: usize = 32;
/// Distinct modulo schedules tried per II: priority-permutation
/// variants of [`modulo_schedule_variant`] fill up to half this cap,
/// then the slack-ordered enumeration (`enumerate_slack_schedules`)
/// fills the rest. The placement search is exhaustive only *for a
/// given schedule*; a feasible II can hide behind an op-to-slot
/// assignment with more routing slack, so declaring an II infeasible
/// from too few schedules under-estimates the mapper. Both sources
/// are needed (each gap found by differential fuzzing): the variants
/// cover list schedules the lateness enumeration ranks too deep to
/// reach, and the enumeration covers II 1, where every tie-break
/// variant collapses to the same single-slot ASAP schedule.
const SCHEDULE_ATTEMPTS: usize = 256;

/// The exact exhaustive placement mapper.
#[derive(Debug, Clone, Default)]
pub struct ExactMapper {}

impl ExactMapper {
    /// DFGs larger than this are refused (exhaustive placement explodes).
    pub const MAX_OPS: usize = 32;

    /// Exhaustive placement at a fixed II and schedule. Every complete
    /// assignment satisfying the constraints is offered to `accept`
    /// (most-constrained-first order, so successive placements differ in
    /// the hardest ops first); the search stops when `accept` returns
    /// `true` and yields that placement, or `None` when the space or the
    /// budget is exhausted without an accepted placement.
    #[allow(clippy::too_many_arguments)]
    fn place_exhaustive(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        domains: &OpDomains,
        times: &[usize],
        ii: usize,
        budget: &mut usize,
        accept: &mut dyn FnMut(&[PeId]) -> bool,
    ) -> Option<Vec<PeId>> {
        let n = dfg.num_ops();
        // most-constrained-first: smaller domain, then more neighbours
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let op = panorama_dfg::OpId::from_index(i);
            (
                domains.of(op).len(),
                std::cmp::Reverse(dfg.graph().degree(op)),
            )
        });

        let mut assignment: Vec<Option<PeId>> = vec![None; n];
        let mut fu_used = FuOccupancy::new(cgra.num_pes(), ii);
        if self.backtrack(
            dfg,
            cgra,
            times,
            ii,
            domains,
            &order,
            0,
            &mut assignment,
            &mut fu_used,
            budget,
            accept,
        ) {
            Some(
                assignment
                    .into_iter()
                    .map(|a| a.expect("complete"))
                    .collect(),
            )
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        times: &[usize],
        ii: usize,
        domains: &OpDomains,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<PeId>>,
        fu_used: &mut FuOccupancy,
        budget: &mut usize,
        accept: &mut dyn FnMut(&[PeId]) -> bool,
    ) -> bool {
        if depth == order.len() {
            let complete: Vec<PeId> = assignment
                .iter()
                .map(|a| a.expect("complete at full depth"))
                .collect();
            return accept(&complete);
        }
        if *budget == 0 {
            return false;
        }
        let idx = order[depth];
        let op = panorama_dfg::OpId::from_index(idx);
        let slot = times[idx] % ii;
        for &pe in domains.of(op) {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if !fu_used.is_free(pe, slot) {
                continue;
            }
            // routability: every already-placed neighbour within slack hops
            let ok = dfg
                .graph()
                .incoming(op)
                .map(|e| {
                    (
                        e.src,
                        times[idx] as i64 - times[e.src.index()] as i64
                            + e.weight.distance() as i64 * ii as i64,
                    )
                })
                .chain(dfg.graph().outgoing(op).map(|e| {
                    (
                        e.dst,
                        times[e.dst.index()] as i64 - times[idx] as i64
                            + e.weight.distance() as i64 * ii as i64,
                    )
                }))
                .all(|(other, slack)| match assignment[other.index()] {
                    Some(opd) => (cgra.manhattan(pe, opd) as i64) <= slack,
                    None => true,
                });
            if !ok {
                continue;
            }
            assignment[idx] = Some(pe);
            fu_used.occupy(pe, slot);
            if self.backtrack(
                dfg,
                cgra,
                times,
                ii,
                domains,
                order,
                depth + 1,
                assignment,
                fu_used,
                budget,
                accept,
            ) {
                return true;
            }
            assignment[idx] = None;
            fu_used.release(pe, slot);
        }
        false
    }
}

impl LowerLevelMapper for ExactMapper {
    fn map_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&crate::SearchControl>,
        trace: &mut panorama_trace::SpanCollector,
    ) -> Result<Mapping, MapError> {
        if dfg.num_ops() > Self::MAX_OPS {
            return Err(MapError::exhausted(0, self.name()));
        }
        let search = IiSearch::new(&BACKEND, dfg, cgra, restriction, control);
        let domains = OpDomains::new(dfg, cgra, restriction);
        let mut scratch = crate::router::RouterScratch::default();
        search.run_from(search.floor, trace, |ii, stats, _| {
            if domains.any_empty() {
                return Attempt::Failed;
            }
            let mrrg = cgra.mrrg_shared(ii);
            // Placement is exhaustive only per schedule, so an II is
            // abandoned only after every candidate schedule failed: the
            // IMS priority-permutation variants first (diverse list
            // schedules), then the slack-ordered enumeration — an edge
            // routes over t(dst)−t(src) hops, so placements the ASAP
            // schedule cannot route may be reachable with lateness.
            let fu_budget = cgra.num_pes();
            let mem_budget = cgra.num_mem_pes().max(1);
            let slack = cgra.config().rows + cgra.config().cols;
            let cap = SCHEDULE_ATTEMPTS;
            let variant_cap = cap.div_ceil(2);
            let mut schedules: Vec<Vec<usize>> = Vec::new();
            for variant in 0..cap as u64 {
                if schedules.len() >= variant_cap {
                    break;
                }
                if let Ok(times) = modulo_schedule_variant(dfg, ii, fu_budget, mem_budget, variant)
                {
                    if !schedules.contains(&times) {
                        schedules.push(times);
                    }
                }
            }
            for times in enumerate_slack_schedules(dfg, ii, fu_budget, mem_budget, slack, cap) {
                if schedules.len() >= cap {
                    break;
                }
                if !schedules.contains(&times) {
                    schedules.push(times);
                }
            }
            for times in schedules {
                if control.is_some_and(SearchControl::is_cancelled) {
                    return Attempt::Cancelled;
                }
                // Each complete placement the search yields goes straight
                // to the shared PathFinder; the first routable one wins.
                let mut attempts = ROUTE_ATTEMPTS;
                let mut routed: Option<Vec<crate::Route>> = None;
                let mut router_iterations = 0usize;
                let mut search_budget = SEARCH_BUDGET;
                let accepted = self.place_exhaustive(
                    dfg,
                    cgra,
                    &domains,
                    &times,
                    ii,
                    &mut search_budget,
                    &mut |pe_of: &[PeId]| {
                        if attempts == 0 {
                            // Budget spent: accept unrouted to end the
                            // search; `routed` stays None and this
                            // schedule is abandoned.
                            return true;
                        }
                        attempts -= 1;
                        scratch.reset_for_ii();
                        let outcome = route_all(
                            &mrrg,
                            cgra,
                            dfg,
                            pe_of,
                            &times,
                            &RouterConfig::default(),
                            &mut scratch,
                            None,
                        );
                        router_iterations += outcome.iterations;
                        if outcome.is_clean() {
                            routed = Some(
                                outcome
                                    .routes
                                    .into_iter()
                                    .map(|r| r.expect("clean outcome has every route"))
                                    .collect(),
                            );
                            true
                        } else {
                            false
                        }
                    },
                );
                stats.router_iterations += router_iterations;
                if let (Some(pe_of), Some(routes)) = (accepted, routed) {
                    return Attempt::Mapped(search.mapping(ii, times, pe_of, Some(routes)));
                }
            }
            Attempt::Failed
        })
    }

    fn name(&self) -> &'static str {
        BACKEND.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    fn chain(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ids: Vec<_> = (0..n).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            b.data(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn maps_small_chain_optimally() {
        let dfg = chain(8);
        let cgra = cgra();
        let mapping = ExactMapper::default().map(&dfg, &cgra, None).unwrap();
        mapping.verify(&dfg, &cgra).unwrap();
        assert_eq!(mapping.ii(), 1, "8 serial ops need only II 1");
    }

    #[test]
    fn maps_small_mac_and_verifies() {
        let mut b = DfgBuilder::new("mac");
        let a = b.op(OpKind::Load, "a");
        let x = b.op(OpKind::Load, "b");
        let m = b.op(OpKind::Mul, "m");
        let acc = b.op(OpKind::Add, "acc");
        let s = b.op(OpKind::Store, "s");
        b.data(a, m);
        b.data(x, m);
        b.data(m, acc);
        b.data(acc, s);
        b.back(acc, acc, 1);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let mapping = ExactMapper::default().map(&dfg, &cgra, None).unwrap();
        mapping.verify(&dfg, &cgra).unwrap();
    }

    #[test]
    fn refuses_large_dfgs() {
        let dfg = chain(40);
        let err = ExactMapper::default().map(&dfg, &cgra(), None).unwrap_err();
        assert_eq!(err.mapper, "exhaustive");
        assert_eq!(err.max_ii_tried, 0);
    }

    #[test]
    fn agrees_with_verifier_on_mem_constraints() {
        let mut b = DfgBuilder::new("mem");
        let l = b.op(OpKind::Load, "l");
        let v = b.op(OpKind::Add, "v");
        let s = b.op(OpKind::Store, "s");
        b.data(l, v);
        b.data(v, s);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let mapping = ExactMapper::default().map(&dfg, &cgra, None).unwrap();
        // the 4x4 preset's memory PEs are its left column
        assert_eq!(cgra.pe_position(mapping.pe_of(l)).1, 0);
        assert_eq!(cgra.pe_position(mapping.pe_of(s)).1, 0);
        mapping.verify(&dfg, &cgra).unwrap();
    }

    #[test]
    fn cancellation_stops_the_ii_search() {
        let token = crate::CancelToken::new();
        token.cancel();
        let control = crate::SearchControl::unbounded().with_cancel(token);
        let err = ExactMapper::default()
            .map_traced(
                &chain(6),
                &cgra(),
                None,
                Some(&control),
                &mut panorama_trace::SpanCollector::disabled(),
            )
            .unwrap_err();
        assert!(err.cancelled, "fired token must abort the search: {err}");
    }

    #[test]
    fn random_small_dfgs_map_and_verify() {
        for seed in 0..6 {
            let dfg = panorama_dfg::random_dfg(&panorama_dfg::RandomDfgConfig {
                seed,
                layers: 3,
                width: 4,
                extra_fanin: 1,
                back_edges: 1,
            });
            let cgra = cgra();
            let mapping = ExactMapper::default()
                .map(&dfg, &cgra, None)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            mapping.verify(&dfg, &cgra).unwrap();
        }
    }
}
