//! CNF encodings for the SAT modulo-scheduling mapper.
//!
//! The mapper splits each II attempt into two cooperating CNF problems
//! (DESIGN.md §16):
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
//!   value shares a node exactly as [`Mapping::verify`] counts it.
//!
//! Placements whose PE distance provably exceeds an edge's schedule slack
//! are cut between the phases (a CEGAR refinement), and a routing-UNSAT
//! outcome blocks the exact phase-1 assignment before re-solving.
//!
//! Everything iterates over sorted, index-ordered structures — no hash
//! iteration feeds clause order — so the produced CNF, and therefore the
//! whole search, is deterministic.
//!
//! [`Mapping::verify`]: crate::Mapping::verify

use crate::search::OpDomains;
use crate::Route;
use panorama_arch::{Cgra, Mrrg, NodeKind, PeId};
use panorama_dfg::Dfg;
use panorama_sat::{Lit, Solver, Var};
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

    /// Blocks the exact decoded schedule + placement (used when routing
    /// refutes it), forcing the next solve to a different assignment.
    pub fn block_assignment(&mut self, times: &[usize], pes: &[PeId]) {
        let mut lits = Vec::with_capacity(2 * times.len());
        for v in 0..times.len() {
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

struct EdgeStates {
    /// Kept (reachable ∩ co-reachable) states, sorted.
    states: Vec<State>,
    vars: Vec<Var>,
    /// The `(out node, 0)` state the route departs from.
    start: State,
    /// Total advances the route must make.
    d_total: i64,
    /// Target FU node the last route node must feed.
    target_fu: u32,
}

/// Phase-2 CNF: joint routing of every dependence for one decoded
/// schedule + placement.
pub(crate) struct RoutingCnf {
    pub cnf: Cnf,
    per_edge: Vec<EdgeStates>,
}

/// Successor states of `(node, d)` in the per-edge expansion: follow MRRG
/// edges, never through an FU, never past `d_total` advances.
fn successors(mrrg: &Mrrg, node: u32, d: i64, d_total: i64) -> Vec<State> {
    let mut out = Vec::new();
    for me in mrrg.out_edges(panorama_arch::MrrgNodeId::from_index(node as usize)) {
        if matches!(mrrg.kind(me.dst), NodeKind::Fu) {
            continue;
        }
        let nd = d + i64::from(me.advance);
        if nd <= d_total {
            out.push((me.dst.index() as u32, nd));
        }
    }
    out
}

fn is_terminal(mrrg: &Mrrg, state: State, d_total: i64, target_fu: u32) -> bool {
    state.1 == d_total
        && mrrg
            .out_edges(panorama_arch::MrrgNodeId::from_index(state.0 as usize))
            .iter()
            .any(|me| me.dst.index() as u32 == target_fu)
}

impl RoutingCnf {
    /// Builds the joint routing CNF. `Err(Infeasible)` means some edge
    /// has no route of the required length at all (independent of
    /// capacity), so the phase-1 assignment is refuted outright.
    pub fn build(
        mrrg: &Mrrg,
        edges: &[EdgeInfo],
        times: &[usize],
        pes: &[PeId],
        budget: CnfBudget,
    ) -> Result<RoutingCnf, BuildError> {
        let ii = mrrg.ii() as i64;
        let mut cnf = Cnf::new(budget);
        let mut per_edge = Vec::with_capacity(edges.len());
        // capacity keys: node → (producer, arrival cycle) → activation var
        let mut cap_keys: BTreeMap<u32, BTreeMap<(u32, i64), Var>> = BTreeMap::new();

        for e in edges {
            let (tu, tv) = (times[e.src] as i64, times[e.dst] as i64);
            let d_total = tv + e.dist * ii - tu;
            let start = mrrg.out(pes[e.src], (tu % ii) as usize).index() as u32;
            let target_fu = mrrg.fu(pes[e.dst], (tv % ii) as usize).index() as u32;

            // forward reachability
            let mut reach: BTreeMap<State, bool> = BTreeMap::new(); // state -> is_terminal
            let mut queue = VecDeque::from([(start, 0i64)]);
            reach.insert(
                (start, 0),
                is_terminal(mrrg, (start, 0), d_total, target_fu),
            );
            while let Some(s) = queue.pop_front() {
                for ns in successors(mrrg, s.0, s.1, d_total) {
                    if let std::collections::btree_map::Entry::Vacant(e) = reach.entry(ns) {
                        e.insert(is_terminal(mrrg, ns, d_total, target_fu));
                        queue.push_back(ns);
                    }
                }
            }
            if !reach.values().any(|&t| t) {
                return Err(BuildError::Infeasible);
            }
            // backward co-reachability over the restricted state graph
            let mut rev: BTreeMap<State, Vec<State>> = BTreeMap::new();
            for &s in reach.keys() {
                for ns in successors(mrrg, s.0, s.1, d_total) {
                    if reach.contains_key(&ns) {
                        rev.entry(ns).or_default().push(s);
                    }
                }
            }
            let mut kept: BTreeMap<State, bool> = BTreeMap::new();
            let mut queue: VecDeque<State> =
                reach.iter().filter(|&(_, &t)| t).map(|(&s, _)| s).collect();
            for s in &queue {
                kept.insert(*s, true);
            }
            while let Some(s) = queue.pop_front() {
                for &ps in rev.get(&s).map_or(&[] as &[State], Vec::as_slice) {
                    kept.entry(ps).or_insert_with(|| {
                        queue.push_back(ps);
                        false
                    });
                }
            }
            if !kept.contains_key(&(start, 0)) {
                return Err(BuildError::Infeasible);
            }

            let states: Vec<State> = kept.keys().copied().collect();
            let vars: Vec<Var> = states.iter().map(|_| cnf.var()).collect();
            let index: BTreeMap<State, usize> =
                states.iter().enumerate().map(|(i, &s)| (s, i)).collect();

            // the route starts at the producer's broadcast point
            cnf.clause(&[Lit::pos(vars[index[&(start, 0)]])]);
            // every active non-terminal state hands the signal onward
            for (i, &s) in states.iter().enumerate() {
                if is_terminal(mrrg, s, d_total, target_fu) {
                    continue;
                }
                let mut lits = vec![Lit::neg(vars[i])];
                for ns in successors(mrrg, s.0, s.1, d_total) {
                    if let Some(&k) = index.get(&ns) {
                        lits.push(Lit::pos(vars[k]));
                    }
                }
                cnf.clause(&lits);
            }
            // capacity activation: using node n after d advances places
            // the producer's value there in absolute cycle tu + d
            let producer = e.src as u32;
            for (i, &(node, d)) in states.iter().enumerate() {
                let node_id = panorama_arch::MrrgNodeId::from_index(node as usize);
                if mrrg.capacity(node_id) == u16::MAX {
                    continue;
                }
                let key = (producer, tu + d);
                let entry = cap_keys.entry(node).or_default();
                let var = *entry.entry(key).or_insert_with(|| cnf.var());
                cnf.clause(&[Lit::neg(vars[i]), Lit::pos(var)]);
            }
            per_edge.push(EdgeStates {
                states,
                vars,
                start: (start, 0),
                d_total,
                target_fu,
            });
            if cnf.over_budget() {
                return Err(BuildError::OverBudget);
            }
        }

        // per-node capacity over distinct (producer, cycle) keys
        for (node, keys) in &cap_keys {
            let node_id = panorama_arch::MrrgNodeId::from_index(*node as usize);
            let cap = mrrg.capacity(node_id) as usize;
            let lits: Vec<Lit> = keys.values().map(|&v| Lit::pos(v)).collect();
            if lits.len() > cap {
                if cap == 1 {
                    cnf.at_most_one(&lits);
                } else {
                    cnf.at_most_k(&lits, cap);
                }
            }
        }
        if cnf.over_budget() {
            return Err(BuildError::OverBudget);
        }

        Ok(RoutingCnf { cnf, per_edge })
    }

    /// Walks the model into concrete routes, one per DFG dependence. The
    /// successor clauses guarantee every active non-terminal state has an
    /// active successor, and `(advances, same-cycle DAG position)` rises
    /// strictly along any walk, so the first-active-successor walk always
    /// reaches a terminal.
    pub fn decode(&self, mrrg: &Mrrg) -> Option<Vec<Route>> {
        let mut routes = Vec::with_capacity(self.per_edge.len());
        for (edge_index, es) in self.per_edge.iter().enumerate() {
            let index: BTreeMap<State, usize> =
                es.states.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let truthy = |s: &State| -> bool {
                index
                    .get(s)
                    .is_some_and(|&i| self.cnf.solver.value(es.vars[i]) == Some(true))
            };
            let mut cur = es.start;
            let mut nodes = vec![panorama_arch::MrrgNodeId::from_index(cur.0 as usize)];
            let mut steps = 0usize;
            while !is_terminal(mrrg, cur, es.d_total, es.target_fu) {
                steps += 1;
                if steps > es.states.len() + 1 {
                    return None;
                }
                let next = successors(mrrg, cur.0, cur.1, es.d_total)
                    .into_iter()
                    .find(|s| truthy(s))?;
                nodes.push(panorama_arch::MrrgNodeId::from_index(next.0 as usize));
                cur = next;
            }
            routes.push(Route { edge_index, nodes });
        }
        Some(routes)
    }
}
