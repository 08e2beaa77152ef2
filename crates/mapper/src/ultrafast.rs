//! Ultra-Fast — the greedy architecture-specific baseline (Lee & Carlson,
//! DAC'21), reproduced over an abstract HyCUBE model.
//!
//! Ultra-Fast assumes single-cycle multi-hop interconnect (any PE reaches
//! any PE within one cycle) and unlimited registers, collapsing the 3-D
//! mapping problem to 2-D. What remains scarce is FU slots and the
//! *inter-cluster wiring*: a value crossing cluster boundaries in a cycle
//! consumes one unit of the boundary's link budget along an L-shaped
//! cluster-grid path. The greedy no-backtracking placement scans PEs in a
//! fixed order — exactly the "narrow perspective" the paper blames for the
//! baseline's inflated II — and bumps the II whenever an op finds no
//! feasible slot.

use crate::placement::FuOccupancy;
use crate::search::{Attempt, Backend, IiSearch, OpDomains};
use crate::{LowerLevelMapper, MapError, Mapping, Restriction};
use panorama_arch::{Cgra, PeId};
use panorama_dfg::{Dfg, OpId};
use std::collections::HashMap;

static BACKEND: Backend = Backend {
    name: "Ultra-Fast",
    abort: "ultrafast.abort",
    cancelled: "ultrafast.cancelled",
    exhausted: "ultrafast.exhausted",
    max_ii: (16, 16),
};

/// The Ultra-Fast lower-level mapper. With a [`Restriction`] it becomes
/// Pan-Ultra-Fast.
#[derive(Debug, Clone, Default)]
pub struct UltraFastMapper {}

impl UltraFastMapper {
    /// One greedy pass at a fixed II. Returns placements + times, or the
    /// op that failed.
    fn try_ii(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        domains: &OpDomains,
        ii: usize,
    ) -> Result<(Vec<usize>, Vec<PeId>), OpId> {
        let n = dfg.num_ops();
        let mut time_of = vec![0usize; n];
        let mut pe_of = vec![PeId::from_index(0); n];
        let mut fu_used = FuOccupancy::new(cgra.num_pes(), ii);
        // distinct producers per directed link per slot; a link carries one
        // value per cycle, but fan-out of the same producer shares it for
        // free (one physical broadcast). Intra-cluster steps use dedicated
        // PE-pair links (capacity 1); cross-cluster steps draw from the
        // boundary's pool of parallel links (capacity = the budget).
        let mut link_used: HashMap<(usize, u32, u32), std::collections::HashSet<u32>> =
            HashMap::new();
        let budget = cgra.config().inter_cluster_links.max(1);

        // Ultra-Fast schedules level by level (all ops of one ASAP level
        // before the next), scanning PEs first-fit — the greedy batch
        // order that scatters consumers away from their producers.
        let levels = dfg
            .graph()
            .longest_path_levels(|e| !e.weight.is_back())
            .expect("validated DFG");
        let mut order = dfg.topo_order();
        order.sort_by_key(|&v| (levels[v.index()], v.index()));
        let mut scheduled = vec![false; n];
        for &op in &order {
            let mut t = 0usize;
            for e in dfg.graph().incoming(op) {
                if e.weight.is_back() {
                    // a back edge whose producer is already scheduled still
                    // lower-bounds this op: t >= t(src) + lat - d*II
                    if scheduled[e.src.index()] {
                        let lat = dfg.op(e.src).kind.latency() as i64;
                        let lb = time_of[e.src.index()] as i64 + lat
                            - e.weight.distance() as i64 * ii as i64;
                        t = t.max(lb.max(0) as usize);
                    }
                    continue;
                }
                t = t.max(time_of[e.src.index()] + 1);
            }
            // back edges *out of* this op whose consumer is already
            // scheduled impose a deadline: t <= t(dst) - lat + d*II.
            // (Ignoring these was unsound — found by differential fuzzing:
            // an op with no data inputs but an incoming back edge lands at
            // time 0 while its producer lands arbitrarily late.)
            let mut deadline = i64::MAX;
            for e in dfg.graph().outgoing(op) {
                if e.weight.is_back() && scheduled[e.dst.index()] {
                    let lat = dfg.op(op).kind.latency() as i64;
                    deadline = deadline.min(
                        time_of[e.dst.index()] as i64 - lat
                            + e.weight.distance() as i64 * ii as i64,
                    );
                }
            }
            if (t as i64) > deadline {
                return Err(op); // infeasible at this II; a larger II loosens it
            }
            // distance-greedy PE preference: nearest the already-placed
            // producers first (Ultra-Fast's marginal-cost placement; the
            // "narrow perspective" that forms hotspots)
            let mut preferred = domains.of(op).to_vec();
            let producers: Vec<PeId> = dfg
                .graph()
                .incoming(op)
                .filter(|e| !e.weight.is_back())
                .map(|e| pe_of[e.src.index()])
                .collect();
            preferred.sort_by_key(|&pe| {
                let d: usize = producers.iter().map(|&p| cgra.manhattan(pe, p)).sum();
                (d, pe.index())
            });
            let latest = (deadline.min((t + ii - 1) as i64)) as usize;
            let mut placed = false;
            'time: for tt in t..=latest {
                let slot = tt % ii;
                for &pe in &preferred {
                    if !fu_used.is_free(pe, slot) {
                        continue;
                    }
                    // every operand arriving this cycle reserves an L-path
                    // of physical links; check all of them first
                    let mut steps = Vec::new();
                    let mut ok = true;
                    for e in dfg.graph().incoming(op) {
                        if e.weight.is_back() {
                            continue;
                        }
                        let producer = e.src.index() as u32;
                        let src_pe = pe_of[e.src.index()];
                        for (a, b) in l_path(cgra, src_pe, pe) {
                            let (pa, pb) =
                                (PeId::from_index(a as usize), PeId::from_index(b as usize));
                            let (ca, cb) = (cgra.cluster_of(pa), cgra.cluster_of(pb));
                            let (key, cap) = if ca == cb {
                                ((slot, a, b), 1)
                            } else {
                                // boundary pool, tagged to avoid key clashes
                                (
                                    (slot, 0x8000_0000 | ca.index() as u32, cb.index() as u32),
                                    budget,
                                )
                            };
                            let free = match link_used.get(&key) {
                                None => true,
                                Some(set) => set.contains(&producer) || set.len() < cap,
                            };
                            if !free {
                                ok = false;
                                break;
                            }
                            steps.push((key, producer));
                        }
                        if !ok {
                            break;
                        }
                    }
                    if !ok {
                        continue;
                    }
                    for (key, producer) in steps {
                        link_used.entry(key).or_default().insert(producer);
                    }
                    fu_used.occupy(pe, slot);
                    time_of[op.index()] = tt;
                    pe_of[op.index()] = pe;
                    scheduled[op.index()] = true;
                    placed = true;
                    break 'time;
                }
            }
            if !placed {
                return Err(op);
            }
        }
        Ok((time_of, pe_of))
    }
}

/// Unit steps of a row-first L-shaped path between two PEs.
fn l_path(cgra: &Cgra, from: PeId, to: PeId) -> Vec<(u32, u32)> {
    let (mut r0, mut c0) = cgra.pe_position(from);
    let (r1, c1) = cgra.pe_position(to);
    let mut steps = Vec::with_capacity(r0.abs_diff(r1) + c0.abs_diff(c1));
    while r0 != r1 {
        let nr = if r1 > r0 { r0 + 1 } else { r0 - 1 };
        steps.push((
            cgra.pe_at(r0, c0).index() as u32,
            cgra.pe_at(nr, c0).index() as u32,
        ));
        r0 = nr;
    }
    while c0 != c1 {
        let nc = if c1 > c0 { c0 + 1 } else { c0 - 1 };
        steps.push((
            cgra.pe_at(r0, c0).index() as u32,
            cgra.pe_at(r0, nc).index() as u32,
        ));
        c0 = nc;
    }
    steps
}

impl LowerLevelMapper for UltraFastMapper {
    fn map_traced(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        restriction: Option<&Restriction>,
        control: Option<&crate::SearchControl>,
        trace: &mut panorama_trace::SpanCollector,
    ) -> Result<Mapping, MapError> {
        let search = IiSearch::new(&BACKEND, dfg, cgra, restriction, control);
        let domains = OpDomains::new(dfg, cgra, restriction);
        search.run(trace, |ii, _, trace| {
            let ii_span = trace.start();
            let outcome = self.try_ii(dfg, cgra, &domains, ii);
            trace.record(
                "ultrafast.ii",
                ii_span,
                &[("ii", ii as i64), ("success", i64::from(outcome.is_ok()))],
            );
            match outcome {
                // abstract interconnect, no MRRG routes
                Ok((time_of, pe_of)) => Attempt::Mapped(search.mapping(ii, time_of, pe_of, None)),
                Err(_) => Attempt::Failed,
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
    use panorama_arch::CgraConfig;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale, OpKind};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::scaled_8x8()).unwrap()
    }

    #[test]
    fn maps_kernels_quickly_and_verifies() {
        for id in [KernelId::Fir, KernelId::Edn, KernelId::Conv2d] {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let cgra = cgra();
            let mapping = UltraFastMapper::default()
                .map(&dfg, &cgra, None)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            // abstract mapping: verify checks placement + schedule only
            mapping.verify(&dfg, &cgra).unwrap();
        }
    }

    #[test]
    fn back_edges_do_not_deadlock_topo_order() {
        let mut b = DfgBuilder::new("acc");
        let l = b.op(OpKind::Load, "l");
        let a = b.op(OpKind::Add, "a");
        b.data(l, a);
        b.back(a, a, 1);
        let dfg = b.build().unwrap();
        let mapping = UltraFastMapper::default().map(&dfg, &cgra(), None).unwrap();
        mapping.verify(&dfg, &cgra()).unwrap();
    }

    #[test]
    fn back_edge_deadline_bounds_the_producer() {
        // Found by differential fuzzing: op `c` has no data inputs, only an
        // incoming back edge from `m` (scheduled a level later). The naive
        // schedule puts `c` at time 0 and `m` at time 1, violating
        // t(c) >= t(m) + lat - d*II at small II.
        let mut b = DfgBuilder::new("fuzz-repro");
        let a = b.op(OpKind::Add, "a");
        let c = b.op(OpKind::Add, "c");
        let m = b.op(OpKind::Add, "m");
        b.data(a, m);
        b.back(m, c, 1);
        let dfg = b.build().unwrap();
        for config in [CgraConfig::small_4x4(), CgraConfig::scaled_8x8()] {
            let cgra = Cgra::new(config).unwrap();
            let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
            mapping.verify(&dfg, &cgra).unwrap();
        }
    }

    #[test]
    fn wiring_pressure_raises_ii() {
        // a high-fanout broadcast from one cluster to ops forced into
        // another cluster must ration the 6 boundary links per cycle
        let cgra = cgra();
        let mut b = DfgBuilder::new("broadcast");
        let src = b.op(OpKind::Const, "c");
        for i in 0..32 {
            let v = b.op(OpKind::Add, format!("n{i}"));
            b.data(src, v);
        }
        let dfg = b.build().unwrap();
        let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
        mapping.verify(&dfg, &cgra).unwrap();
        assert!(mapping.ii() >= 1);
    }

    #[test]
    fn reports_compile_stats() {
        let dfg = kernels::generate(KernelId::Cordic, KernelScale::Tiny);
        let mapping = UltraFastMapper::default().map(&dfg, &cgra(), None).unwrap();
        assert!(mapping.stats().ii_attempts >= 1);
    }
}
