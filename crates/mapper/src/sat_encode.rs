//! CNF encodings for the SAT modulo-scheduling mapper.
//!
//! The mapper splits each II attempt into two cooperating CNF problems
//! (DESIGN.md §15):
//!
//! * **Phase 1 — schedule + placement** ([`ScheduleCnf`]): one-hot
//!   op→time-slot variables over a bounded window above each op's ASAP
//!   time, one-hot op→PE variables over capability/restriction-filtered
//!   domains, dependence clauses across II windows, and FU-exclusivity
//!   via auxiliary (op, PE, modulo-slot) activation variables.
//! * **Phase 2 — routing** ([`RoutingCnf`]): for a decoded schedule and
//!   placement, per-dependence reachability over the time-expanded MRRG
//!   (states are `(node, advances-so-far)` pairs, pruned to the
//!   forward-reachable ∩ backward-coreachable set), with capacity
//!   exclusion over `(producer, arrival-cycle)` keys so fan-out of one
//!   value shares a node exactly as [`Mapping::verify`] counts it. Each
//!   dependence's pruned state set is an [`Expansion`], computed once per
//!   II attempt and key in an [`ExpansionMemo`].
//!
//! Placements whose PE distance provably exceeds an edge's schedule slack
//! are excluded in phase 1 itself. Phase 2 guards each dependence with a
//! selector literal and is solved under all of them as assumptions, so a
//! routing refutation names the dependences it used (the solver's core);
//! the mapper then blocks only the times and PEs of those dependences'
//! endpoints ([`ScheduleCnf::block`]) before re-solving phase 1.
//!
//! Everything iterates over sorted, index-ordered structures — no hash
//! iteration feeds clause order — so the produced CNF, and therefore the
//! whole search, is deterministic.
//!
//! [`Mapping::verify`]: crate::Mapping::verify

use crate::search::OpDomains;
use crate::Route;
use panorama_arch::{Cgra, Mrrg, MrrgNodeId, NodeKind, PeId};
use panorama_dfg::Dfg;
use panorama_sat::{Limits, Lit, SolveResult, Solver, Var};
use std::collections::{BTreeMap, VecDeque};

/// Why an encoding could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BuildError {
    /// The instance cannot be scheduled/placed at this II regardless of
    /// the CNF (empty placement domain, or the recurrence constraints
    /// diverge because the II is below the true recurrence MII).
    Infeasible,
    /// The variable or clause budget was exceeded.
    OverBudget,
}

/// Why a [`RoutingCnf`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RouteError {
    /// Dependence `edges[i]` has no route of the length the decoded
    /// schedule fixes, whatever the other dependences do.
    Unroutable(usize),
    /// The variable or clause budget was exceeded.
    OverBudget,
}

/// Variable/clause budget shared by both phases of one II attempt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CnfBudget {
    pub max_vars: usize,
    pub max_clauses: usize,
}

/// A solver wrapper that counts clauses and enforces [`CnfBudget`].
pub(crate) struct Cnf {
    pub solver: Solver,
    pub clauses: usize,
    budget: CnfBudget,
}

impl Cnf {
    pub fn new(budget: CnfBudget) -> Self {
        Cnf {
            solver: Solver::new(),
            clauses: 0,
            budget,
        }
    }

    fn var(&mut self) -> Var {
        self.solver.new_var()
    }

    pub fn clause(&mut self, lits: &[Lit]) {
        self.clauses += 1;
        self.solver.add_clause(lits);
    }

    pub fn over_budget(&self) -> bool {
        self.solver.num_vars() > self.budget.max_vars || self.clauses > self.budget.max_clauses
    }

    /// At most one of `lits` true: pairwise for short lists, Sinz
    /// sequential otherwise.
    fn at_most_one(&mut self, lits: &[Lit]) {
        if lits.len() <= 6 {
            for i in 0..lits.len() {
                for j in (i + 1)..lits.len() {
                    self.clause(&[lits[i].negate(), lits[j].negate()]);
                }
            }
        } else {
            self.at_most_k(lits, 1);
        }
    }

    /// Sinz sequential-counter encoding of "at most `k` of `lits`".
    fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        let m = lits.len();
        if m <= k {
            return;
        }
        if k == 0 {
            for &l in lits {
                self.clause(&[l.negate()]);
            }
            return;
        }
        // s[i][j]: among lits[0..=i], at least j+1 are true (i < m-1)
        let s: Vec<Vec<Var>> = (0..m - 1)
            .map(|_| (0..k).map(|_| self.var()).collect())
            .collect();
        self.clause(&[lits[0].negate(), Lit::pos(s[0][0])]);
        for &v in &s[0][1..] {
            self.clause(&[Lit::neg(v)]);
        }
        for i in 1..m - 1 {
            self.clause(&[lits[i].negate(), Lit::pos(s[i][0])]);
            self.clause(&[Lit::neg(s[i - 1][0]), Lit::pos(s[i][0])]);
            for j in 1..k {
                self.clause(&[
                    lits[i].negate(),
                    Lit::neg(s[i - 1][j - 1]),
                    Lit::pos(s[i][j]),
                ]);
                self.clause(&[Lit::neg(s[i - 1][j]), Lit::pos(s[i][j])]);
            }
            self.clause(&[lits[i].negate(), Lit::neg(s[i - 1][k - 1])]);
        }
        self.clause(&[lits[m - 1].negate(), Lit::neg(s[m - 2][k - 1])]);
    }
}

/// One DFG dependence, flattened for the encoders.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeInfo {
    pub src: usize,
    pub dst: usize,
    pub dist: i64,
    pub lat: i64,
}

pub(crate) fn edge_infos(dfg: &Dfg) -> Vec<EdgeInfo> {
    dfg.deps()
        .map(|e| EdgeInfo {
            src: e.src.index(),
            dst: e.dst.index(),
            dist: i64::from(e.weight.distance()),
            lat: i64::from(dfg.op(e.src).kind.latency()),
        })
        .collect()
}

/// All-pairs minimum hop counts over the physical link graph.
pub(crate) fn hop_distances(cgra: &Cgra) -> Vec<Vec<u32>> {
    let n = cgra.num_pes();
    let mut all = vec![vec![u32::MAX; n]; n];
    for src in cgra.pes() {
        let dist = &mut all[src.index()];
        dist[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(pe) = queue.pop_front() {
            let d = dist[pe.index()];
            for link in cgra.links_from(pe) {
                let to = link.dst.index();
                if dist[to] == u32::MAX {
                    dist[to] = d + 1;
                    queue.push_back(link.dst);
                }
            }
        }
    }
    all
}

/// Minimum time advances a route from `a` to `b` needs: the hop count,
/// but at least one (even a same-PE forward goes out → input across one
/// cycle boundary).
fn min_advances(hops: &[Vec<u32>], a: PeId, b: PeId) -> i64 {
    let h = hops[a.index()][b.index()];
    if h == u32::MAX {
        i64::MAX / 2
    } else {
        i64::from(h).max(1)
    }
}

/// Phase-1 CNF: modulo schedule and placement at one II.
pub(crate) struct ScheduleCnf<'a> {
    pub cnf: Cnf,
    /// Per-op earliest schedule time anchoring its window.
    pub asap: Vec<i64>,
    /// `x[v][i]`: op `v` scheduled at `asap[v] + i`.
    pub x: Vec<Vec<Var>>,
    /// `p[v][j]`: op `v` placed on `domains[v][j]`.
    pub p: Vec<Vec<Var>>,
    /// Per-op candidate PEs, in op order.
    domains: Vec<&'a [PeId]>,
    pub edges: Vec<EdgeInfo>,
}

impl<'a> ScheduleCnf<'a> {
    /// Builds the schedule/placement CNF over the ops' placement `domains`.
    /// `hops` is the all-pairs link distance table from [`hop_distances`].
    pub fn build(
        dfg: &Dfg,
        domains: &'a OpDomains,
        hops: &[Vec<u32>],
        ii: usize,
        window_factor: usize,
        budget: CnfBudget,
    ) -> Result<Self, BuildError> {
        let n = dfg.num_ops();
        let edges = edge_infos(dfg);
        // the recurrence constraints diverge when `ii` is below RecMII
        let asap = crate::mii::longest_paths(dfg, ii).map_err(|_| BuildError::Infeasible)?;
        let window = (window_factor * ii).max(2);

        if domains.any_empty() {
            return Err(BuildError::Infeasible);
        }
        let domains: Vec<&[PeId]> = dfg.op_ids().map(|op| domains.of(op)).collect();

        let mut cnf = Cnf::new(budget);
        let x: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..window).map(|_| cnf.var()).collect())
            .collect();
        let p: Vec<Vec<Var>> = domains
            .iter()
            .map(|d| d.iter().map(|_| cnf.var()).collect())
            .collect();

        // one-hot: every op has exactly one time and one PE
        for v in 0..n {
            let time_lits: Vec<Lit> = x[v].iter().map(|&var| Lit::pos(var)).collect();
            cnf.clause(&time_lits);
            cnf.at_most_one(&time_lits);
            let pe_lits: Vec<Lit> = p[v].iter().map(|&var| Lit::pos(var)).collect();
            cnf.clause(&pe_lits);
            cnf.at_most_one(&pe_lits);
        }

        // dependence windows: x[u][i] → some x[v][j] with
        // asap[v]+j ≥ asap[u]+i+lat−dist·ii, plus the converse support
        // clause (redundant but sharpens propagation)
        let w = window as i64;
        for e in &edges {
            let shift = asap[e.src] - asap[e.dst] + e.lat - e.dist * ii as i64;
            for i in 0..window {
                let min_j = i as i64 + shift;
                let mut later: Vec<Lit> = vec![Lit::neg(x[e.src][i])];
                later.extend((min_j.max(0)..w).map(|j| Lit::pos(x[e.dst][j as usize])));
                cnf.clause(&later);
            }
            for j in 0..window {
                let max_i = j as i64 - shift;
                let mut earlier: Vec<Lit> = vec![Lit::neg(x[e.dst][j])];
                earlier.extend(
                    (0..=max_i.min(w - 1))
                        .filter(|&i| i >= 0)
                        .map(|i| Lit::pos(x[e.src][i as usize])),
                );
                cnf.clause(&earlier);
            }
            if cnf.over_budget() {
                return Err(BuildError::OverBudget);
            }
        }

        // distance feasibility: a route from PE `a` to PE `b` needs at
        // least `min_advances(a, b)` cycles of schedule slack. Per edge,
        // slack-threshold variables slk[m] ("slack ≥ m") form a monotone
        // chain; placements trigger the threshold they need and schedule
        // pairs refute every threshold above their actual slack. This is
        // the *complete* distance constraint — no lazy refinement needed.
        for e in &edges {
            let max_slack = asap[e.dst] + w - 1 + e.dist * ii as i64 - asap[e.src];
            let needs: Vec<Vec<i64>> = domains[e.src]
                .iter()
                .map(|&a| {
                    domains[e.dst]
                        .iter()
                        .map(|&b| min_advances(hops, a, b))
                        .collect()
                })
                .collect();
            let cap_m = needs
                .iter()
                .flatten()
                .copied()
                .filter(|&m| m <= max_slack)
                .max()
                .unwrap_or(1);
            let slk: Vec<Var> = (2..=cap_m).map(|_| cnf.var()).collect();
            let slk_of = |m: i64| slk[(m - 2) as usize];
            for m in 3..=cap_m {
                cnf.clause(&[Lit::neg(slk_of(m)), Lit::pos(slk_of(m - 1))]);
            }
            for (ja, row) in needs.iter().enumerate() {
                for (jb, &need) in row.iter().enumerate() {
                    if need > max_slack {
                        // not satisfiable in this window: cut the PE pair
                        cnf.clause(&[Lit::neg(p[e.src][ja]), Lit::neg(p[e.dst][jb])]);
                    } else if need >= 2 {
                        cnf.clause(&[
                            Lit::neg(p[e.src][ja]),
                            Lit::neg(p[e.dst][jb]),
                            Lit::pos(slk_of(need)),
                        ]);
                    }
                }
            }
            for i in 0..window {
                for j in 0..window {
                    let s = asap[e.dst] + j as i64 + e.dist * ii as i64 - (asap[e.src] + i as i64);
                    if (1..cap_m).contains(&s) {
                        cnf.clause(&[
                            Lit::neg(x[e.src][i]),
                            Lit::neg(x[e.dst][j]),
                            Lit::neg(slk_of(s + 1)),
                        ]);
                    }
                }
            }
            if cnf.over_budget() {
                return Err(BuildError::OverBudget);
            }
        }

        // FU exclusivity: z[v][pe][s] activated when op v occupies
        // (pe, slot s); at most one activation per (pe, slot)
        let mut slot_users: BTreeMap<(u32, usize), Vec<Lit>> = BTreeMap::new();
        for v in 0..n {
            for (j, &pe) in domains[v].iter().enumerate() {
                // which slots can op v occupy on this PE?
                for s in 0..ii {
                    let on_slot: Vec<usize> = (0..window)
                        .filter(|&i| ((asap[v] + i as i64) % ii as i64) as usize == s)
                        .collect();
                    if on_slot.is_empty() {
                        continue;
                    }
                    let z = cnf.var();
                    for &i in &on_slot {
                        cnf.clause(&[Lit::neg(p[v][j]), Lit::neg(x[v][i]), Lit::pos(z)]);
                    }
                    slot_users
                        .entry((pe.index() as u32, s))
                        .or_default()
                        .push(Lit::pos(z));
                }
            }
            if cnf.over_budget() {
                return Err(BuildError::OverBudget);
            }
        }
        for users in slot_users.values() {
            if users.len() > 1 {
                cnf.at_most_one(users);
            }
        }
        if cnf.over_budget() {
            return Err(BuildError::OverBudget);
        }

        Ok(ScheduleCnf {
            cnf,
            asap,
            x,
            p,
            domains,
            edges,
        })
    }

    /// Reads the schedule and placement out of a satisfying assignment.
    pub fn decode(&self) -> Option<(Vec<usize>, Vec<PeId>)> {
        let n = self.x.len();
        let mut times = Vec::with_capacity(n);
        let mut pes = Vec::with_capacity(n);
        for v in 0..n {
            let i = self.x[v]
                .iter()
                .position(|&var| self.cnf.solver.value(var) == Some(true))?;
            times.push((self.asap[v] + i as i64) as usize);
            let j = self.p[v]
                .iter()
                .position(|&var| self.cnf.solver.value(var) == Some(true))?;
            pes.push(self.domains[v][j]);
        }
        Some((times, pes))
    }

    /// Forbids `ops` from taking their decoded times and PEs all together
    /// again. Over every op this blocks one exact assignment; over the
    /// endpoints of a routing core it blocks every assignment that repeats
    /// them, which is sound because a dependence's routing states and
    /// capacity keys are a function of its endpoints' times and PEs.
    pub fn block(&mut self, ops: impl IntoIterator<Item = usize>, times: &[usize], pes: &[PeId]) {
        let mut lits = Vec::with_capacity(2 * times.len());
        for v in ops {
            let i = (times[v] as i64 - self.asap[v]) as usize;
            lits.push(Lit::neg(self.x[v][i]));
            let j = self.domains[v]
                .iter()
                .position(|&d| d == pes[v])
                .expect("placed in domain");
            lits.push(Lit::neg(self.p[v][j]));
        }
        self.cnf.clause(&lits);
    }
}

/// One time-expanded routing state: `(MRRG node, advances so far)`.
type State = (u32, i64);

/// What an [`Expansion`] is a function of, under one MRRG: `(start out
/// node, total advances, target FU node)`.
type ExpansionKey = (u32, i64, u32);

/// The part of the time-expanded MRRG one dependence may route through:
/// every state reachable from `(start, 0)` — following MRRG edges, never
/// through an FU, never past `d_total` advances — that can still reach a
/// terminal (a state after exactly `d_total` advances whose node feeds
/// the target FU).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Expansion {
    /// Kept (reachable ∩ co-reachable) states, sorted.
    states: Vec<State>,
    /// Per state: whether it is a terminal.
    terminal: Vec<bool>,
    /// The kept successors of state `i` are `succ[succ_start[i]..succ_start[i + 1]]`,
    /// as indices into `states`, in the MRRG's `out_edges` order.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// Index of the `(start, 0)` state the route departs from.
    start: u32,
}

impl Expansion {
    /// Kept successor indices of state `i`, in `out_edges` order.
    fn onward(&self, i: usize) -> &[u32] {
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Computes the expansion of `key` over flat tables; `None` when no
    /// route of exactly `d_total` advances exists. `pos` is a sparse-set
    /// index over `node · (d_total + 1) + d`, grown as needed and never
    /// cleared: an entry counts only when `reach` points back at it.
    fn compute(
        mrrg: &Mrrg,
        (start, d_total, target_fu): ExpansionKey,
        pos: &mut Vec<u32>,
    ) -> Option<Self> {
        if d_total < 0 {
            return None;
        }
        let width = d_total as usize + 1;
        let need = mrrg.num_nodes() * width;
        if pos.len() < need {
            pos.resize(need, 0);
        }
        let node_of = |f: usize| MrrgNodeId::from_index(f / width);
        let feeds_target = |f: usize| {
            f % width == width - 1
                && mrrg
                    .out_edges(node_of(f))
                    .any(|me| me.dst.index() as u32 == target_fu)
        };

        // forward reachability; `reach` doubles as the BFS queue and
        // `fwd` records every state's successors in `out_edges` order
        let mut reach: Vec<usize> = vec![start as usize * width];
        pos[reach[0]] = 0;
        let mut fwd_start: Vec<u32> = vec![0];
        let mut fwd: Vec<u32> = Vec::new();
        let mut terminal: Vec<bool> = Vec::new();
        let mut i = 0;
        while i < reach.len() {
            let f = reach[i];
            terminal.push(feeds_target(f));
            for me in mrrg.out_edges(node_of(f)) {
                if matches!(mrrg.kind(me.dst), NodeKind::Fu) {
                    continue;
                }
                let nd = f % width + usize::from(me.advance);
                if nd >= width {
                    continue;
                }
                let g = me.dst.index() * width + nd;
                let p = pos[g] as usize;
                let j = if p < reach.len() && reach[p] == g {
                    p
                } else {
                    pos[g] = reach.len() as u32;
                    reach.push(g);
                    reach.len() - 1
                };
                fwd.push(j as u32);
            }
            fwd_start.push(fwd.len() as u32);
            i += 1;
        }
        if !terminal.contains(&true) {
            return None;
        }

        // backward co-reachability from the terminals over the reversed
        // successor lists
        let n = reach.len();
        let mut rev_start = vec![0u32; n + 1];
        for &j in &fwd {
            rev_start[j as usize + 1] += 1;
        }
        for k in 0..n {
            rev_start[k + 1] += rev_start[k];
        }
        let mut fill = rev_start.clone();
        let mut rev = vec![0u32; fwd.len()];
        for from in 0..n {
            for &j in &fwd[fwd_start[from] as usize..fwd_start[from + 1] as usize] {
                rev[fill[j as usize] as usize] = from as u32;
                fill[j as usize] += 1;
            }
        }
        let mut kept = terminal.clone();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&k| terminal[k as usize]).collect();
        while let Some(j) = queue.pop() {
            let j = j as usize;
            for &from in &rev[rev_start[j] as usize..rev_start[j + 1] as usize] {
                if !kept[from as usize] {
                    kept[from as usize] = true;
                    queue.push(from);
                }
            }
        }
        if !kept[0] {
            return None;
        }

        // renumber the kept states in sorted order: `node · width + d`
        // sorts exactly as `(node, d)` does
        let mut order: Vec<usize> = (0..n).filter(|&k| kept[k]).collect();
        order.sort_unstable_by_key(|&k| reach[k]);
        let mut rank = vec![u32::MAX; n];
        for (r, &k) in order.iter().enumerate() {
            rank[k] = r as u32;
        }
        let mut succ_start = Vec::with_capacity(order.len() + 1);
        let mut succ = Vec::new();
        succ_start.push(0);
        for &k in &order {
            let out = &fwd[fwd_start[k] as usize..fwd_start[k + 1] as usize];
            succ.extend(
                out.iter()
                    .filter(|&&j| kept[j as usize])
                    .map(|&j| rank[j as usize]),
            );
            succ_start.push(succ.len() as u32);
        }
        Some(Expansion {
            states: order
                .iter()
                .map(|&k| ((reach[k] / width) as u32, (reach[k] % width) as i64))
                .collect(),
            terminal: order.iter().map(|&k| terminal[k]).collect(),
            succ_start,
            succ,
            start: rank[0],
        })
    }
}

/// Every [`Expansion`] one II attempt has needed, over the attempt's one
/// MRRG. An expansion is a pure function of its [`ExpansionKey`] under a
/// fixed MRRG, so a lookup hit is exactly what recomputing would give;
/// the memo spans both window widths and every CEGAR round of the attempt
/// and is dropped with it.
pub(crate) struct ExpansionMemo<'m> {
    mrrg: &'m Mrrg,
    entries: Vec<Expansion>,
    /// Lookup only (never iterated): `None` records an infeasible key.
    index: BTreeMap<ExpansionKey, Option<u32>>,
    /// Sparse-set scratch for [`Expansion::compute`].
    pos: Vec<u32>,
    /// Lookups answered by a new BFS.
    pub expanded: usize,
    /// Lookups answered from the memo.
    pub reused: usize,
}

impl<'m> ExpansionMemo<'m> {
    pub fn new(mrrg: &'m Mrrg) -> Self {
        ExpansionMemo {
            mrrg,
            entries: Vec::new(),
            index: BTreeMap::new(),
            pos: Vec::new(),
            expanded: 0,
            reused: 0,
        }
    }

    /// The entry id of `key`'s expansion, computing it on first use;
    /// `None` when the dependence has no route of the required length.
    fn get(&mut self, key: ExpansionKey) -> Option<u32> {
        if let Some(&hit) = self.index.get(&key) {
            self.reused += 1;
            return hit;
        }
        self.expanded += 1;
        let id = Expansion::compute(self.mrrg, key, &mut self.pos).map(|x| {
            self.entries.push(x);
            (self.entries.len() - 1) as u32
        });
        self.index.insert(key, id);
        id
    }
}

/// One dependence's share of a [`RoutingCnf`]: its expansion in the memo
/// and the first of the consecutive variables given to its states.
struct EdgeStates {
    expansion: u32,
    first_var: usize,
}

impl EdgeStates {
    fn var(&self, state: u32) -> Var {
        Var::from_index(self.first_var + state as usize)
    }
}

/// The ops that `edges[i]` joins, for every `i` in `core`: ascending and
/// without repeats, ready for [`ScheduleCnf::block`].
pub(crate) fn endpoints(edges: &[EdgeInfo], core: &[usize]) -> Vec<usize> {
    let mut ops: Vec<usize> = core
        .iter()
        .flat_map(|&i| [edges[i].src, edges[i].dst])
        .collect();
    ops.sort_unstable();
    ops.dedup();
    ops
}

/// Phase-2 CNF: joint routing of every dependence for one decoded
/// schedule + placement.
pub(crate) struct RoutingCnf {
    pub cnf: Cnf,
    per_edge: Vec<EdgeStates>,
    /// Per dependence, the literal that switches its route on: variable
    /// `i` guards `edges[i]`'s start clause and nothing else.
    selectors: Vec<Lit>,
}

impl RoutingCnf {
    /// Builds the joint routing CNF from `memo`'s expansions (computing
    /// the ones it lacks). `Err(Unroutable(i))` means `edges[i]` has no
    /// route of the required length at all (independent of capacity), so
    /// its endpoints' times and PEs are refuted outright.
    pub fn build(
        memo: &mut ExpansionMemo<'_>,
        edges: &[EdgeInfo],
        times: &[usize],
        pes: &[PeId],
        budget: CnfBudget,
    ) -> Result<RoutingCnf, RouteError> {
        let mrrg = memo.mrrg;
        let ii = mrrg.ii() as i64;
        let mut cnf = Cnf::new(budget);
        let mut per_edge = Vec::with_capacity(edges.len());
        // capacity keys per node: ((producer, arrival cycle), activation
        // var) in first-use order, sorted by key before emission
        let mut cap_keys: Vec<Vec<((u32, i64), Var)>> = vec![Vec::new(); mrrg.num_nodes()];
        let mut lits = Vec::new();
        let selectors: Vec<Lit> = edges.iter().map(|_| Lit::pos(cnf.var())).collect();

        for (index, e) in edges.iter().enumerate() {
            let (tu, tv) = (times[e.src] as i64, times[e.dst] as i64);
            let d_total = tv + e.dist * ii - tu;
            let start = mrrg.out(pes[e.src], (tu % ii) as usize).index() as u32;
            let target_fu = mrrg.fu(pes[e.dst], (tv % ii) as usize).index() as u32;
            let expansion = memo
                .get((start, d_total, target_fu))
                .ok_or(RouteError::Unroutable(index))?;
            let x = &memo.entries[expansion as usize];
            let es = EdgeStates {
                expansion,
                first_var: cnf.solver.num_vars(),
            };
            for _ in &x.states {
                cnf.var();
            }

            // the route starts at the producer's broadcast point, while
            // the edge's selector holds; with it off the edge's states can
            // all be false, which drops the edge from the problem
            cnf.clause(&[selectors[index].negate(), Lit::pos(es.var(x.start))]);
            // every active non-terminal state hands the signal onward
            for i in 0..x.states.len() {
                if x.terminal[i] {
                    continue;
                }
                lits.clear();
                lits.push(Lit::neg(es.var(i as u32)));
                lits.extend(x.onward(i).iter().map(|&k| Lit::pos(es.var(k))));
                cnf.clause(&lits);
            }
            // capacity activation: using node n after d advances places
            // the producer's value there in absolute cycle tu + d
            let producer = e.src as u32;
            for (i, &(node, d)) in x.states.iter().enumerate() {
                if mrrg.capacity(MrrgNodeId::from_index(node as usize)) == u16::MAX {
                    continue;
                }
                let key = (producer, tu + d);
                let users = &mut cap_keys[node as usize];
                let act = match users.iter().find(|u| u.0 == key) {
                    Some(&(_, v)) => v,
                    None => {
                        let v = cnf.var();
                        users.push((key, v));
                        v
                    }
                };
                cnf.clause(&[Lit::neg(es.var(i as u32)), Lit::pos(act)]);
            }
            per_edge.push(es);
            if cnf.over_budget() {
                return Err(RouteError::OverBudget);
            }
        }

        // per-node capacity over distinct (producer, cycle) keys
        for (node, users) in cap_keys.iter_mut().enumerate() {
            let cap = mrrg.capacity(MrrgNodeId::from_index(node)) as usize;
            if users.len() <= cap {
                continue;
            }
            users.sort_unstable_by_key(|u| u.0);
            lits.clear();
            lits.extend(users.iter().map(|&(_, v)| Lit::pos(v)));
            if cap == 1 {
                cnf.at_most_one(&lits);
            } else {
                cnf.at_most_k(&lits, cap);
            }
        }
        if cnf.over_budget() {
            return Err(RouteError::OverBudget);
        }

        Ok(RoutingCnf {
            cnf,
            per_edge,
            selectors,
        })
    }

    /// Routes every dependence: solves under all selectors as assumptions.
    pub fn solve(&mut self, limits: &Limits, interrupt: &mut dyn FnMut() -> bool) -> SolveResult {
        self.cnf
            .solver
            .solve_assuming(&self.selectors, limits, interrupt)
    }

    /// After [`SolveResult::Unsat`] from [`RoutingCnf::solve`]: the indices
    /// of the dependences the refutation used, ascending. Those edges
    /// cannot be routed together however the other edges are routed, and
    /// dropping edges only frees capacity, so they stay unroutable on their
    /// own.
    pub fn core_edges(&self) -> Vec<usize> {
        let mut core: Vec<usize> = self
            .cnf
            .solver
            .core()
            .iter()
            .map(|l| l.var().index())
            .collect();
        // without its selectors the CNF is satisfied by all-false states
        debug_assert!(!core.is_empty(), "routing refuted without a selector");
        core.sort_unstable();
        core
    }

    /// Walks the model into concrete routes, one per DFG dependence, over
    /// the expansions in `memo` (the one the CNF was built from). The
    /// successor clauses guarantee every active non-terminal state has an
    /// active successor, and `(advances, same-cycle DAG position)` rises
    /// strictly along any walk, so the first-active-successor walk always
    /// reaches a terminal.
    pub fn decode(&self, memo: &ExpansionMemo<'_>) -> Option<Vec<Route>> {
        let mut routes = Vec::with_capacity(self.per_edge.len());
        for (edge_index, es) in self.per_edge.iter().enumerate() {
            let x = &memo.entries[es.expansion as usize];
            let node = |k: u32| MrrgNodeId::from_index(x.states[k as usize].0 as usize);
            let mut cur = x.start;
            let mut nodes = vec![node(cur)];
            let mut steps = 0usize;
            while !x.terminal[cur as usize] {
                steps += 1;
                if steps > x.states.len() + 1 {
                    return None;
                }
                cur = *x
                    .onward(cur as usize)
                    .iter()
                    .find(|&&k| self.cnf.solver.value(es.var(k)) == Some(true))?;
                nodes.push(node(cur));
            }
            routes.push(Route { edge_index, nodes });
        }
        Some(routes)
    }
}

#[cfg(test)]
#[path = "sat_encode_tests.rs"]
mod tests;
