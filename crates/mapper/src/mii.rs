//! Minimum initiation interval: resource and recurrence bounds
//! (Rau, "Iterative Modulo Scheduling", MICRO'94).

use crate::Restriction;
use panorama_arch::Cgra;
use panorama_dfg::Dfg;
use std::collections::HashMap;

/// The components of the minimum initiation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiReport {
    /// Resource-constrained bound: enough FU slots (and memory-capable FU
    /// slots) per II cycles for every operation.
    pub res_mii: usize,
    /// Recurrence-constrained bound from loop-carried dependency cycles.
    pub rec_mii: usize,
}

impl MiiReport {
    /// The binding minimum II.
    pub fn mii(&self) -> usize {
        self.res_mii.max(self.rec_mii).max(1)
    }
}

/// Computes [`MiiReport`] for `dfg` on `cgra`.
///
/// ResMII = max(⌈ops / PEs⌉, ⌈mem-ops / mem-PEs⌉). RecMII is the smallest
/// II for which the dependence-constraint graph (edge `u→v` imposing
/// `t_v ≥ t_u + latency − II·distance`) has no positive cycle, found by
/// running a longest-path fixpoint per candidate II.
pub fn min_ii(dfg: &Dfg, cgra: &Cgra) -> MiiReport {
    let ops = dfg.num_ops();
    let mem_ops = dfg.num_mem_ops();
    let mul_ops = dfg
        .op_ids()
        .filter(|&v| dfg.op(v).kind == panorama_dfg::OpKind::Mul)
        .count();
    let pes = cgra.num_pes();
    let mem_pes = cgra.num_mem_pes().max(1);
    let mul_pes = cgra.num_mul_pes().max(1);
    let res_mii = (ops.div_ceil(pes))
        .max(mem_ops.div_ceil(mem_pes))
        .max(mul_ops.div_ceil(mul_pes))
        .max(1);

    let rec_mii = exact_recurrence_mii(dfg).rec_mii;
    MiiReport { res_mii, rec_mii }
}

/// Result of the exact recurrence analysis: the provably minimal
/// recurrence-constrained II together with a witness cycle achieving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceAnalysis {
    /// The exact RecMII: `max` over all dependence cycles of
    /// `⌈latency / distance⌉` (1 when the graph has no cycles).
    pub rec_mii: usize,
    /// Ops of a cycle that attains the bound, in cycle order starting
    /// from the lowest-id member. Empty when `rec_mii == 1` and no cycle
    /// binds (acyclic graphs).
    pub witness: Vec<panorama_dfg::OpId>,
    /// Total operation latency around the witness cycle.
    pub witness_latency: u64,
    /// Total iteration distance around the witness cycle.
    pub witness_distance: u64,
}

/// Parent pointers of a diverging longest-path relaxation, and a node
/// that still relaxed in round n.
type PositiveCycle = (Vec<Option<panorama_dfg::OpId>>, panorama_dfg::OpId);

/// Bellman-Ford longest-path fixpoint of the constraint graph at candidate
/// `ii` (edge `u→v` weighs `latency(u) − ii·distance`), every op starting
/// at 0. `Ok` holds the per-op path lengths — the ASAP times of a modulo
/// schedule at `ii`; `Err` means the graph has a positive cycle, i.e.
/// `ii` is below RecMII.
pub(crate) fn longest_paths(dfg: &Dfg, ii: usize) -> Result<Vec<i64>, PositiveCycle> {
    let n = dfg.num_ops();
    let mut dist = vec![0i64; n];
    let mut parent: Vec<Option<panorama_dfg::OpId>> = vec![None; n];
    let mut round = 0;
    loop {
        let mut changed = None;
        for e in dfg.deps() {
            let lat = dfg.op(e.src).kind.latency() as i64;
            let slack = lat - (e.weight.distance() as i64) * ii as i64;
            let cand = dist[e.src.index()] + slack;
            if cand > dist[e.dst.index()] {
                dist[e.dst.index()] = cand;
                parent[e.dst.index()] = Some(e.src);
                changed = Some(e.dst);
            }
        }
        match changed {
            None => return Ok(dist),
            Some(v) if round == n => return Err((parent, v)),
            Some(_) => round += 1,
        }
    }
}

/// The positive-weight cycle that makes `ii` infeasible, as
/// `(ops, latency, distance)`; `None` when `ii` admits a schedule.
fn positive_cycle(dfg: &Dfg, ii: usize) -> Option<(Vec<panorama_dfg::OpId>, u64, u64)> {
    let (parent, mut v) = longest_paths(dfg, ii).err()?;
    let n = dfg.num_ops();
    // A node relaxed in round n sits on or downstream of a positive
    // cycle; n parent hops land strictly inside it.
    for _ in 0..n {
        v = parent[v.index()].expect("relaxed nodes have parents");
    }
    let mut cycle = vec![v];
    let mut cur = parent[v.index()].expect("cycle nodes have parents");
    while cur != v {
        cycle.push(cur);
        cur = parent[cur.index()].expect("cycle nodes have parents");
    }
    cycle.reverse(); // parent pointers run backwards; restore cycle order
                     // Rotate so the lowest id leads: a canonical, deterministic witness.
    let lead = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, op)| op.index())
        .map_or(0, |(i, _)| i);
    cycle.rotate_left(lead);
    let latency: u64 = cycle
        .iter()
        .map(|&op| u64::from(dfg.op(op).kind.latency()))
        .sum();
    // Distance around the cycle: for each consecutive pair pick the
    // smallest-distance edge connecting them (parallel edges possible).
    let mut distance = 0u64;
    for i in 0..cycle.len() {
        let (src, dst) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        let d = dfg
            .deps()
            .filter(|e| e.src == src && e.dst == dst)
            .map(|e| u64::from(e.weight.distance()))
            .min()
            .expect("consecutive witness ops are connected");
        distance += d;
    }
    Some((cycle, latency, distance))
}

/// Computes the exact recurrence-constrained minimum II by binary search
/// over candidate IIs with a Bellman-Ford positive-cycle test, plus a
/// witness cycle proving the bound tight.
///
/// Feasibility is monotone in the II (larger II only shrinks every edge
/// weight `latency − II·distance`), so binary search over `[1, n]` is
/// exact; `II = n` is always feasible because any simple cycle has
/// latency ≤ n and distance ≥ 1. The witness is the positive cycle found
/// at `rec_mii − 1`: its latency `L` and distance `D` satisfy
/// `L > (rec_mii − 1)·D`, hence `⌈L/D⌉ ≥ rec_mii`, matching the upper
/// bound from feasibility at `rec_mii`.
pub fn exact_recurrence_mii(dfg: &Dfg) -> RecurrenceAnalysis {
    let none = RecurrenceAnalysis {
        rec_mii: 1,
        witness: Vec::new(),
        witness_latency: 0,
        witness_distance: 0,
    };
    if dfg.num_back_edges() == 0 {
        return none;
    }
    let (mut lo, mut hi) = (1usize, dfg.num_ops().max(1)); // hi is always feasible
    if positive_cycle(dfg, lo).is_none() {
        return none; // II = 1 feasible: nothing binds above the trivial floor
    }
    // Invariant: lo infeasible, hi feasible.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if positive_cycle(dfg, mid).is_none() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (witness, witness_latency, witness_distance) =
        positive_cycle(dfg, lo).expect("lo is infeasible by invariant");
    RecurrenceAnalysis {
        rec_mii: hi,
        witness,
        witness_latency,
        witness_distance,
    }
}

/// The proven lower bounds an II search starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiFloor {
    /// Rau's resource and recurrence bounds on the whole array.
    pub mii: MiiReport,
    /// [`restricted_min_ii`] under the restriction, when one was given.
    pub restricted: Option<usize>,
}

impl IiFloor {
    /// The first II worth attempting: no mapping exists below it.
    pub fn ii(&self) -> usize {
        self.restricted.unwrap_or(self.mii.mii())
    }
}

/// Every static lower bound on the II of `dfg` on `cgra` (under
/// `restriction`, when given). The mappers' II search starts at
/// [`IiFloor::ii`] and the lint prechecker reports the same numbers, so a
/// new provable floor added here reaches both.
pub fn ii_floor(dfg: &Dfg, cgra: &Cgra, restriction: Option<&Restriction>) -> IiFloor {
    let mii = min_ii(dfg, cgra);
    let restricted = restriction.map(|r| group_capacity_bound(dfg, cgra, r).max(mii.mii()));
    IiFloor { mii, restricted }
}

/// Tightens [`min_ii`] with per-cluster-group capacity bounds under a
/// placement [`Restriction`].
///
/// Ops sharing the same allowed-cluster set compete for the PEs of exactly
/// those clusters, so each group independently lower-bounds the II by
/// `⌈group ops / group PEs⌉` (and likewise for its memory and multiply
/// ops against the group's memory/multiplier PEs). The unrestricted
/// ResMII only divides by whole-array capacity, so this bound is never
/// smaller — II values below it are provably infeasible and a guided
/// mapper can skip them outright.
///
/// Returns [`usize::MAX`] when some group needs a capability its clusters
/// do not offer at all (no II can ever work).
pub fn restricted_min_ii(dfg: &Dfg, cgra: &Cgra, restriction: &Restriction) -> usize {
    ii_floor(dfg, cgra, Some(restriction)).ii()
}

/// The largest `⌈need / capacity⌉` over the restriction's cluster groups.
fn group_capacity_bound(dfg: &Dfg, cgra: &Cgra, restriction: &Restriction) -> usize {
    // Group ops by their exact allowed-cluster set.
    let mut groups: HashMap<Vec<u32>, Vec<panorama_dfg::OpId>> = HashMap::new();
    for op in dfg.op_ids() {
        let mut key: Vec<u32> = restriction
            .clusters_of(op)
            .iter()
            .map(|c| c.index() as u32)
            .collect();
        key.sort_unstable();
        key.dedup();
        groups.entry(key).or_default().push(op);
    }

    let mut bound = 1;
    for (clusters, ops) in &groups {
        let group_pes: Vec<_> = cgra
            .pes()
            .filter(|&p| clusters.contains(&(cgra.cluster_of(p).index() as u32)))
            .collect();
        let pes = group_pes.len();
        let mem_pes = group_pes.iter().filter(|&&p| cgra.is_mem_pe(p)).count();
        let mul_pes = group_pes
            .iter()
            .filter(|&&p| cgra.has_multiplier(p))
            .count();
        let mem_ops = ops
            .iter()
            .filter(|&&v| dfg.op(v).kind.needs_memory())
            .count();
        let mul_ops = ops
            .iter()
            .filter(|&&v| dfg.op(v).kind == panorama_dfg::OpKind::Mul)
            .count();
        for (need, cap) in [(ops.len(), pes), (mem_ops, mem_pes), (mul_ops, mul_pes)] {
            if need == 0 {
                continue;
            }
            if cap == 0 {
                return usize::MAX;
            }
            bound = bound.max(need.div_ceil(cap));
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    #[test]
    fn res_mii_scales_with_ops() {
        // 33 ops on 16 PEs → ceil(33/16) = 3
        let mut b = DfgBuilder::new("wide");
        let first = b.op(OpKind::Add, "n0");
        for i in 1..33 {
            let v = b.op(OpKind::Add, format!("n{i}"));
            b.data(first, v);
        }
        let dfg = b.build().unwrap();
        let report = min_ii(&dfg, &cgra());
        assert_eq!(report.res_mii, 3);
        assert_eq!(report.rec_mii, 1);
        assert_eq!(report.mii(), 3);
    }

    #[test]
    fn mem_ops_bound_res_mii() {
        // 4x4 with left-column memory: 4 mem PEs. 9 loads → ceil(9/4)=3
        let mut b = DfgBuilder::new("memheavy");
        let sink = b.op(OpKind::Add, "sink");
        for i in 0..9 {
            let l = b.op(OpKind::Load, format!("l{i}"));
            b.data(l, sink);
        }
        let dfg = b.build().unwrap();
        assert_eq!(min_ii(&dfg, &cgra()).res_mii, 3);
    }

    #[test]
    fn self_recurrence_distance_one() {
        // acc → acc with distance 1 and latency 1 → RecMII = 1
        let mut b = DfgBuilder::new("acc");
        let a = b.op(OpKind::Add, "acc");
        b.back(a, a, 1);
        let dfg = b.build().unwrap();
        assert_eq!(min_ii(&dfg, &cgra()).rec_mii, 1);
    }

    #[test]
    fn long_cycle_forces_higher_rec_mii() {
        // chain of 4 ops + back edge distance 1: cycle latency 4 over
        // distance 1 → RecMII = 4
        let mut b = DfgBuilder::new("loop4");
        let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        b.back(n[3], n[0], 1);
        let dfg = b.build().unwrap();
        let report = min_ii(&dfg, &cgra());
        assert_eq!(report.rec_mii, 4);
        assert_eq!(report.mii(), 4);
    }

    #[test]
    fn distance_two_halves_rec_mii() {
        // same 4-op cycle but distance 2 → RecMII = ceil(4/2) = 2
        let mut b = DfgBuilder::new("loop4d2");
        let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        b.back(n[3], n[0], 2);
        let dfg = b.build().unwrap();
        assert_eq!(min_ii(&dfg, &cgra()).rec_mii, 2);
    }

    #[test]
    fn unrestricted_restriction_matches_min_ii() {
        let mut b = DfgBuilder::new("wide");
        let first = b.op(OpKind::Add, "n0");
        for i in 1..33 {
            let v = b.op(OpKind::Add, format!("n{i}"));
            b.data(first, v);
        }
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let r = Restriction::unrestricted(&dfg, &cgra);
        assert_eq!(
            restricted_min_ii(&dfg, &cgra, &r),
            min_ii(&dfg, &cgra).mii()
        );
    }

    #[test]
    fn missing_capability_is_unmappable_at_any_ii() {
        let mut b = DfgBuilder::new("mul");
        let x = b.op(OpKind::Mul, "m");
        let y = b.op(OpKind::Add, "a");
        b.data(x, y);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig {
            mul_support: false,
            ..CgraConfig::small_4x4()
        })
        .unwrap();
        let r = Restriction::unrestricted(&dfg, &cgra);
        assert_eq!(restricted_min_ii(&dfg, &cgra, &r), usize::MAX);
    }

    #[test]
    fn single_cluster_group_tightens_the_bound() {
        use panorama_cluster::{Cdg, Partition};
        use panorama_place::{map_clusters, ScatterConfig};
        // 8x8 in 2x2 clusters: 16 PEs per cluster, 64 total. 33 ops stuck
        // in one cluster bound the II by ceil(33/16) = 3 even though the
        // whole-array ResMII is 1.
        let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        let mut b = DfgBuilder::new("skew");
        let mut labels = Vec::new();
        let hub = b.op(OpKind::Add, "hub");
        labels.push(0);
        for i in 1..33 {
            let v = b.op(OpKind::Add, format!("big{i}"));
            b.data(hub, v);
            labels.push(0);
        }
        for g in 1..4 {
            let v = b.op(OpKind::Add, format!("small{g}"));
            b.data(hub, v);
            labels.push(g);
        }
        let dfg = b.build().unwrap();
        let cdg = Cdg::new(&dfg, &Partition::new(labels, 4));
        let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default()).unwrap();
        let r = Restriction::from_cluster_map(&dfg, &cdg, &map, &cgra);
        assert_eq!(min_ii(&dfg, &cgra).mii(), 1);
        let bound = restricted_min_ii(&dfg, &cgra, &r);
        // the big group owns at most 2 of the 4 cells (split & push may
        // give it several), so its 33 ops need II >= ceil(33/32) = 2
        assert!(bound >= 2, "bound {bound} should exceed the array ResMII");
    }

    #[test]
    fn acyclic_dfg_mii_is_resource_bound() {
        let mut b = DfgBuilder::new("tiny");
        let x = b.op(OpKind::Load, "x");
        let y = b.op(OpKind::Add, "y");
        b.data(x, y);
        let dfg = b.build().unwrap();
        let report = min_ii(&dfg, &cgra());
        assert_eq!(report.mii(), 1);
    }
}

#[cfg(test)]
mod recurrence_tests {
    use super::*;
    use panorama_dfg::{kernels, DfgBuilder, KernelId, KernelScale, OpKind};

    /// The pre-exact-analysis heuristic: linear scan over candidate IIs
    /// with a change-detection Bellman-Ford, falling back to `n`. Kept
    /// here as the comparison baseline for the exactness tests.
    fn heuristic_recurrence_mii(dfg: &Dfg) -> usize {
        if dfg.num_back_edges() == 0 {
            return 1;
        }
        let n = dfg.num_ops();
        'candidate: for ii in 1..=(n.max(2)) {
            let mut dist = vec![0i64; n];
            for round in 0..=n {
                let mut changed = false;
                for e in dfg.deps() {
                    let lat = dfg.op(e.src).kind.latency() as i64;
                    let slack = lat - (e.weight.distance() as i64) * ii as i64;
                    let cand = dist[e.src.index()] + slack;
                    if cand > dist[e.dst.index()] {
                        dist[e.dst.index()] = cand;
                        changed = true;
                    }
                }
                if !changed {
                    return ii;
                }
                if round == n {
                    continue 'candidate;
                }
            }
        }
        n.max(1)
    }

    #[test]
    fn exact_matches_or_sharpens_heuristic_on_every_kernel() {
        for id in KernelId::ALL {
            for scale in [KernelScale::Tiny, KernelScale::Scaled] {
                let dfg = kernels::generate(id, scale);
                let exact = exact_recurrence_mii(&dfg);
                let heuristic = heuristic_recurrence_mii(&dfg);
                assert!(
                    exact.rec_mii >= heuristic,
                    "{id}: exact {} < heuristic {heuristic}",
                    exact.rec_mii
                );
                // both are exact for unit-latency graphs in range
                assert_eq!(exact.rec_mii, heuristic, "{id}");
            }
        }
    }

    #[test]
    fn witness_cycle_proves_the_bound() {
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let a = exact_recurrence_mii(&dfg);
            if a.rec_mii > 1 {
                assert!(!a.witness.is_empty(), "{id}: binding bound needs a witness");
                assert!(a.witness_distance > 0, "{id}");
                // ⌈L/D⌉ both certifies rec_mii from below and matches it
                let ratio = a.witness_latency.div_ceil(a.witness_distance) as usize;
                assert_eq!(ratio, a.rec_mii, "{id}: witness ratio must be tight");
                // witness edges really exist, consecutively
                for i in 0..a.witness.len() {
                    let (src, dst) = (a.witness[i], a.witness[(i + 1) % a.witness.len()]);
                    assert!(
                        dfg.deps().any(|e| e.src == src && e.dst == dst),
                        "{id}: witness pair {src}→{dst} not an edge"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_recmii_on_known_shapes() {
        // 4-op cycle, distance 1 → 4; distance 2 → 2 (witnessed)
        for (distance, expect) in [(1u32, 4usize), (2, 2)] {
            let mut b = DfgBuilder::new("loop4");
            let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
            for w in n.windows(2) {
                b.data(w[0], w[1]);
            }
            b.back(n[3], n[0], distance);
            let dfg = b.build().unwrap();
            let a = exact_recurrence_mii(&dfg);
            assert_eq!(a.rec_mii, expect);
            assert_eq!(a.witness.len(), 4);
            assert_eq!(a.witness_latency, 4);
            assert_eq!(a.witness_distance, u64::from(distance));
            assert_eq!(a.witness[0], n[0], "witness leads with the lowest id");
        }
        // acyclic → 1, no witness
        let mut b = DfgBuilder::new("line");
        let x = b.op(OpKind::Load, "x");
        let y = b.op(OpKind::Add, "y");
        b.data(x, y);
        let a = exact_recurrence_mii(&b.build().unwrap());
        assert_eq!(a.rec_mii, 1);
        assert!(a.witness.is_empty());
        // two competing cycles: the tighter one wins and is the witness
        let mut b = DfgBuilder::new("two");
        let p: Vec<_> = (0..3).map(|i| b.op(OpKind::Add, format!("p{i}"))).collect();
        b.data(p[0], p[1]);
        b.data(p[1], p[2]);
        b.back(p[2], p[0], 1); // ratio 3
        let q = b.op(OpKind::Add, "q");
        b.back(q, q, 2); // ratio 1
        let dfg = b.build().unwrap();
        let a = exact_recurrence_mii(&dfg);
        assert_eq!(a.rec_mii, 3);
        assert_eq!(a.witness.len(), 3);
        assert!(!a.witness.contains(&q));
    }

    #[test]
    fn every_kernel_has_a_recurrence() {
        // the generators thread a state chain through every kernel
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let a = exact_recurrence_mii(&dfg);
            assert!(!a.witness.is_empty(), "{id} should carry a recurrence");
        }
    }
}
