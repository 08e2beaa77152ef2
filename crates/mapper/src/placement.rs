//! Joint schedule-and-place: SPR's `EstimateLeastCostPlacement` /
//! `ScheduleAndPlaceNode` steps (Algorithm 2, lines 4–8).
//!
//! Each operation picks a `(time, PE)` pair jointly: the time window is the
//! modulo-scheduling window `[estart, estart + II)` clipped by already
//! placed successors' recurrence deadlines, and the PE must have a free FU
//! slot and lie in the op's domain ([`OpDomains`]: capability plus cluster
//! permission under a PANORAMA restriction). The cost favours placements
//! whose neighbours are reachable within the schedule slack — the exact
//! failure of the paper's Figure 3c is a neighbour placed further away than
//! its slack allows.

use crate::search::OpDomains;
use panorama_arch::{Cgra, PeId};
use panorama_dfg::{Dfg, OpId};

/// Which FU modulo slots are taken: one flag per `(PE, slot)` in a flat
/// `pe · II + slot` table, plus how many slots each PE has busy. Every
/// mapper's placement search probes this once per candidate PE, so a probe
/// is an index, not a hash.
#[derive(Debug, Clone)]
pub(crate) struct FuOccupancy {
    ii: usize,
    taken: Vec<bool>,
    busy: Vec<u32>,
}

impl FuOccupancy {
    /// All `num_pes · ii` slots free.
    pub fn new(num_pes: usize, ii: usize) -> Self {
        FuOccupancy {
            ii,
            taken: vec![false; num_pes * ii],
            busy: vec![0; num_pes],
        }
    }

    fn index(&self, pe: PeId, slot: usize) -> usize {
        pe.index() * self.ii + slot
    }

    pub fn is_free(&self, pe: PeId, slot: usize) -> bool {
        !self.taken[self.index(pe, slot)]
    }

    /// Slots of `pe` currently taken.
    pub fn busy(&self, pe: PeId) -> usize {
        self.busy[pe.index()] as usize
    }

    pub fn occupy(&mut self, pe: PeId, slot: usize) {
        let at = self.index(pe, slot);
        let taken = &mut self.taken[at];
        debug_assert!(!*taken, "placing onto an occupied FU slot");
        *taken = true;
        self.busy[pe.index()] += 1;
    }

    pub fn release(&mut self, pe: PeId, slot: usize) {
        let at = self.index(pe, slot);
        let taken = &mut self.taken[at];
        debug_assert!(*taken, "releasing a free FU slot");
        *taken = false;
        self.busy[pe.index()] -= 1;
    }
}

/// Placement + schedule state shared by the initial pass and annealing.
#[derive(Debug, Clone)]
pub(crate) struct PlacementState {
    pub pe_of: Vec<PeId>,
    pub time_of: Vec<usize>,
    /// FU slots held by the ops placed so far.
    pub fu: FuOccupancy,
    pub ii: usize,
}

impl PlacementState {
    pub fn slot_of(&self, op: OpId) -> usize {
        self.time_of[op.index()] % self.ii
    }

    pub fn place(&mut self, op: OpId, pe: PeId, time: usize) {
        self.fu.occupy(pe, time % self.ii);
        self.pe_of[op.index()] = pe;
        self.time_of[op.index()] = time;
    }

    pub fn remove(&mut self, op: OpId) {
        self.fu.release(self.pe_of[op.index()], self.slot_of(op));
    }
}

/// PEs legal for `op` at schedule slot `slot`.
pub(crate) fn candidates_for<'a>(
    state: &'a PlacementState,
    domains: &'a OpDomains,
    op: OpId,
    slot: usize,
) -> impl Iterator<Item = PeId> + 'a {
    let free = move |pe: &PeId| state.fu.is_free(*pe, slot);
    domains.of(op).iter().copied().filter(free)
}

/// Routing-aware cost of executing `op` on `pe` at absolute time `t`:
/// distance beyond the per-neighbour slack dominates, plus wirelength,
/// PE crowding and a mild lateness term.
pub(crate) fn placement_cost(
    dfg: &Dfg,
    cgra: &Cgra,
    state: &PlacementState,
    placed: &[bool],
    op: OpId,
    pe: PeId,
    t: usize,
) -> f64 {
    let mut cost = 0.0;
    let t = t as i64;
    let ii = state.ii as i64;
    let mut consider = |other: OpId, slack: i64| {
        if !placed[other.index()] {
            return;
        }
        let d = cgra.manhattan(pe, state.pe_of[other.index()]) as i64;
        let deficit = (d - slack).max(0) as f64;
        cost += 60.0 * deficit + d as f64;
    };
    for e in dfg.graph().incoming(op) {
        let slack = t - state.time_of[e.src.index()] as i64 + (e.weight.distance() as i64) * ii;
        consider(e.src, slack);
    }
    for e in dfg.graph().outgoing(op) {
        let slack = state.time_of[e.dst.index()] as i64 - t + (e.weight.distance() as i64) * ii;
        consider(e.dst, slack);
    }
    // spread ops: penalise PEs already busy in other slots
    cost + state.fu.busy(pe) as f64 * 0.5
}

/// Penalty for leaving the op's strictly assigned ("home") cells: memory
/// ops may spill to neighbouring cells when their own memory column is
/// full, but should prefer home (otherwise loads — placed before their
/// consumers exist — would scatter arbitrarily).
pub(crate) fn home_bias(cgra: &Cgra, domains: &OpDomains, op: OpId, pe: PeId) -> f64 {
    let cl = cgra.cluster_of(pe);
    let dist = domains
        .home_of(op)
        .iter()
        .map(|&h| cgra.cluster_manhattan(cl, h))
        .min()
        .unwrap_or(0);
    dist as f64 * 8.0
}

/// Why [`placement_pass`] gave up; the discriminant is the `reason` field of
/// the `spr.place_fail` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlaceFailReason {
    /// More ops (or memory ops) than FU (or memory-PE) slots at this II.
    Capacity = 0,
    /// The placed neighbours leave `op` no start time: `lstart < estart`.
    EmptyWindow = 1,
    /// No time of the op's window has a PE of its domain free (for a memory
    /// op: and a memory slot left).
    NoFreePe = 2,
}

/// The first op [`placement_pass`] found no legal `(t, PE)` for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaceFail {
    pub op: OpId,
    pub reason: PlaceFailReason,
}

/// Greedy least-cost joint schedule + placement of every op in topological
/// order. Stops at the first op with no legal `(t, PE)` at all.
pub(crate) fn placement_pass(
    dfg: &Dfg,
    cgra: &Cgra,
    ii: usize,
    domains: &OpDomains,
) -> Result<PlacementState, PlaceFail> {
    let fail = |op, reason| Err(PlaceFail { op, reason });
    // quick global feasibility
    if dfg.num_ops() > cgra.num_pes() * ii || dfg.num_mem_ops() > cgra.num_mem_pes().max(1) * ii {
        let first = dfg.op_ids().next().expect("nonempty DFG");
        return fail(first, PlaceFailReason::Capacity);
    }
    let mut state = PlacementState {
        pe_of: vec![PeId::from_index(0); dfg.num_ops()],
        time_of: vec![0; dfg.num_ops()],
        fu: FuOccupancy::new(cgra.num_pes(), ii),
        ii,
    };
    let mut placed = vec![false; dfg.num_ops()];
    // memory slot budget, tracked separately from FU exclusivity
    let mut mem_per_slot = vec![0usize; ii];
    let mem_budget = cgra.num_mem_pes().max(1);

    for op in dfg.topo_order() {
        let is_mem = dfg.op(op).kind.needs_memory();
        let op_is_const = dfg.op(op).kind == panorama_dfg::OpKind::Const;
        // schedule window from placed neighbours. Iteration-varying values
        // must not live longer than II cycles, or consecutive iterations
        // would collide in the holding registers (modulo wrap); constants
        // are iteration-invariant and exempt.
        let mut estart = 0i64;
        let mut lstart = i64::MAX;
        for e in dfg.graph().incoming(op) {
            if placed[e.src.index()] {
                let tu = state.time_of[e.src.index()] as i64;
                let d = e.weight.distance() as i64;
                estart = estart.max(tu + 1 - d * ii as i64);
                if dfg.op(e.src).kind != panorama_dfg::OpKind::Const {
                    // lifetime bound: t_v − t_u + d·II ≤ II
                    lstart = lstart.min(tu + (1 - d) * ii as i64);
                }
            }
        }
        for e in dfg.graph().outgoing(op) {
            if placed[e.dst.index()] {
                let tv = state.time_of[e.dst.index()] as i64;
                let d = e.weight.distance() as i64;
                lstart = lstart.min(tv - 1 + d * ii as i64);
                if !op_is_const {
                    // same lifetime bound, now a lower bound on the producer
                    estart = estart.max(tv + (d - 1) * ii as i64);
                }
            }
        }
        let estart = estart.max(0);
        if lstart < estart {
            return fail(op, PlaceFailReason::EmptyWindow);
        }

        let mut best: Option<(f64, usize, PeId)> = None;
        for t in estart..(estart + ii as i64).min(lstart.saturating_add(1)) {
            let t = t as usize;
            let slot = t % ii;
            if is_mem && mem_per_slot[slot] >= mem_budget {
                continue;
            }
            for pe in candidates_for(&state, domains, op, slot) {
                // one cycle of slack beyond the earliest start is free: it
                // is what gives the router room to detour around contested
                // links (tight slack-1 edges have a unique shortest path)
                let lateness = (t as i64 - estart - 1).max(0) as f64 * 0.25;
                let cost = placement_cost(dfg, cgra, &state, &placed, op, pe, t)
                    + home_bias(cgra, domains, op, pe)
                    + lateness;
                let better = match best {
                    None => true,
                    Some((bc, bt, bpe)) => {
                        cost < bc - 1e-12 || ((cost - bc).abs() <= 1e-12 && (t, pe) < (bt, bpe))
                    }
                };
                if better {
                    best = Some((cost, t, pe));
                }
            }
        }
        match best {
            Some((_, t, pe)) => {
                state.place(op, pe, t);
                if is_mem {
                    mem_per_slot[t % ii] += 1;
                }
                placed[op.index()] = true;
            }
            None => return fail(op, PlaceFailReason::NoFreePe),
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};
    use proptest::prelude::*;
    use std::collections::hash_map::{Entry, HashMap};

    proptest! {
        /// Random place / remove sequences: after every step the flat
        /// table answers `is_free` and the busy count exactly as a map
        /// from `(PE, slot)` to the op holding it.
        #[test]
        fn occupancy_table_matches_a_hash_map_model(
            ii in 1usize..7,
            steps in proptest::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            const PES: usize = 16;
            const OPS: usize = 24;
            let mut state = PlacementState {
                pe_of: vec![PeId::from_index(0); OPS],
                time_of: vec![0; OPS],
                fu: FuOccupancy::new(PES, ii),
                ii,
            };
            let mut model: HashMap<(usize, usize), OpId> = HashMap::new();
            let mut placed = [false; OPS];
            for step in steps {
                let op = OpId::from_index(step as usize % OPS);
                let pe = PeId::from_index((step >> 8) as usize % PES);
                let time = (step >> 16) as usize % 40;
                if placed[op.index()] {
                    let key = (state.pe_of[op.index()].index(), state.slot_of(op));
                    prop_assert_eq!(model.remove(&key), Some(op));
                    state.remove(op);
                    placed[op.index()] = false;
                } else if let Entry::Vacant(slot) = model.entry((pe.index(), time % ii)) {
                    state.place(op, pe, time);
                    slot.insert(op);
                    placed[op.index()] = true;
                }
                for p in 0..PES {
                    let pe = PeId::from_index(p);
                    let mut busy = 0;
                    for slot in 0..ii {
                        let free = !model.contains_key(&(p, slot));
                        prop_assert_eq!(state.fu.is_free(pe, slot), free);
                        busy += usize::from(!free);
                    }
                    prop_assert_eq!(state.fu.busy(pe), busy);
                }
            }
        }
    }

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    fn place(dfg: &Dfg, cgra: &Cgra, ii: usize) -> Result<PlacementState, PlaceFail> {
        placement_pass(dfg, cgra, ii, &OpDomains::new(dfg, cgra, None))
    }

    #[test]
    fn chain_places_neighbours_within_slack() {
        let mut b = DfgBuilder::new("chain");
        let n: Vec<_> = (0..4).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let state = place(&dfg, &cgra, 4).unwrap();
        for w in n.windows(2) {
            let d = cgra.manhattan(state.pe_of[w[0].index()], state.pe_of[w[1].index()]);
            let slack = state.time_of[w[1].index()] - state.time_of[w[0].index()];
            assert!(d <= slack, "distance {d} exceeds slack {slack}");
        }
    }

    #[test]
    fn mem_ops_go_to_mem_pes() {
        let mut b = DfgBuilder::new("mem");
        let l = b.op(OpKind::Load, "l");
        let a = b.op(OpKind::Add, "a");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a);
        b.data(a, s);
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let state = place(&dfg, &cgra, 3).unwrap();
        // the 4x4 preset's memory PEs are its left column
        assert_eq!(cgra.pe_position(state.pe_of[l.index()]).1, 0);
        assert_eq!(cgra.pe_position(state.pe_of[s.index()]).1, 0);
    }

    #[test]
    fn dependences_hold_in_joint_schedule() {
        let mut b = DfgBuilder::new("diamond");
        let a = b.op(OpKind::Load, "a");
        let x = b.op(OpKind::Mul, "x");
        let y = b.op(OpKind::Mul, "y");
        let z = b.op(OpKind::Add, "z");
        b.data(a, x);
        b.data(a, y);
        b.data(x, z);
        b.data(y, z);
        let dfg = b.build().unwrap();
        let state = place(&dfg, &cgra(), 4).unwrap();
        for e in dfg.deps() {
            assert!(
                state.time_of[e.dst.index()] > state.time_of[e.src.index()],
                "dependence violated"
            );
        }
    }

    #[test]
    fn back_edge_deadline_respected() {
        // u → v (data), v → u (back, distance 1): t_u ≤ t_v − 1 + II
        let mut b = DfgBuilder::new("rec");
        let u = b.op(OpKind::Add, "u");
        let v = b.op(OpKind::Add, "v");
        b.data(u, v);
        b.back(v, u, 1);
        let dfg = b.build().unwrap();
        let ii = 2;
        let state = place(&dfg, &cgra(), ii).unwrap();
        let (tu, tv) = (
            state.time_of[u.index()] as i64,
            state.time_of[v.index()] as i64,
        );
        assert!(tv > tu);
        assert!(tu >= tv + 1 - ii as i64);
    }

    #[test]
    fn fu_exclusivity_enforced() {
        // 17 independent ops on 16 PEs at II 1 → impossible
        let mut b = DfgBuilder::new("conflict");
        for i in 0..17 {
            b.op(OpKind::Add, format!("n{i}"));
        }
        let dfg = b.build().unwrap();
        assert!(place(&dfg, &cgra(), 1).is_err());
        assert!(place(&dfg, &cgra(), 2).is_ok());
    }

    #[test]
    fn no_two_ops_share_a_slot() {
        let mut b = DfgBuilder::new("wide");
        for i in 0..20 {
            b.op(OpKind::Add, format!("n{i}"));
        }
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let state = place(&dfg, &cgra, 2).unwrap();
        let mut seen = std::collections::HashSet::new();
        for op in dfg.op_ids() {
            let key = (state.pe_of[op.index()], state.time_of[op.index()] % 2);
            assert!(seen.insert(key), "slot reused: {key:?}");
        }
    }

    #[test]
    fn mem_budget_respected_per_slot() {
        let mut b = DfgBuilder::new("mem8");
        for i in 0..8 {
            b.op(OpKind::Load, format!("l{i}"));
        }
        let dfg = b.build().unwrap();
        let cgra = cgra();
        let state = place(&dfg, &cgra, 2).unwrap();
        let mut per_slot = [0usize; 2];
        for op in dfg.op_ids() {
            per_slot[state.time_of[op.index()] % 2] += 1;
        }
        assert!(per_slot.iter().all(|&c| c <= 4));
    }
}
