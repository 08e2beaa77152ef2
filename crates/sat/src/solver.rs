//! The CDCL search engine.
//!
//! Layout follows the MiniSat lineage: a flat literal encoding
//! (`var << 1 | sign`), every clause's literals in one arena indexed by
//! per-clause headers, watch lists per literal, a trail of assignments
//! with per-variable decision levels and reasons, and an indexed binary
//! max-heap over VSIDS activities for decisions. Everything that orders
//! work — watch lists, the trail, the activity heap, clause reduction —
//! is a pure function of the clause stream, so the search is bit-for-bit
//! reproducible.

/// A propositional variable, created by [`Solver::new_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Dense index of this variable (`0..Solver::num_vars`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a variable from its dense index.
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of a (possibly budgeted) solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The conflict budget ran out or the interrupt fired first.
    Unknown,
}

/// Search budgets for [`Solver::solve_limited`] and [`Solver::solve_assuming`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Abandon the search after this many conflicts (`None` = unbounded).
    pub max_conflicts: Option<u64>,
    /// Abandon the search after this many propagations (`None` = unbounded).
    pub max_propagations: Option<u64>,
}

/// Monotone search counters, exposed for tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned (before reduction).
    pub learned: u64,
    /// Learned clauses removed by database reduction.
    pub removed: u64,
}

const UNDEF: u8 = 2;
const VAL_TRUE: u8 = 1;
const VAL_FALSE: u8 = 0;
const NO_REASON: u32 = u32::MAX;

/// How often (in propagations) the interrupt callback is polled.
const INTERRUPT_STRIDE: u64 = 2048;
/// Luby restart unit, in conflicts.
const RESTART_BASE: u64 = 100;
/// Activity bump applied to conflict variables; decays geometrically.
const ACTIVITY_DECAY: f64 = 1.0 / 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

/// One clause: its literals are `arena[start..start + len]`. Ids are
/// never reused: a deleted learned clause keeps its header with `len` 0,
/// and [`Solver::reduce_db`] compacts the arena under the live ones.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    start: u32,
    len: u32,
    lbd: u32,
    learnt: bool,
    deleted: bool,
}

impl ClauseHeader {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    /// A literal of the clause other than the watched one; when it is
    /// already true the clause needs no inspection.
    blocker: Lit,
}

/// Indexed binary max-heap over VSIDS activities. Ties break toward the
/// lower variable index so the decision order is a pure function of the
/// bump history.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`; `usize::MAX` when absent.
    pos: Vec<usize>,
    activity: Vec<f64>,
}

impl VarOrder {
    fn better(&self, a: u32, b: u32) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn push_var(&mut self) {
        self.activity.push(0.0);
        self.pos.push(usize::MAX);
        let v = (self.activity.len() - 1) as u32;
        self.insert(v);
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != usize::MAX
    }

    fn insert(&mut self, v: u32) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.better(self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.better(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.better(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }

    fn bumped(&mut self, v: u32) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize]);
        }
    }

    fn rescale(&mut self) {
        for a in &mut self.activity {
            *a *= 1.0 / ACTIVITY_RESCALE;
        }
    }
}

/// A deterministic CDCL SAT solver over incrementally added clauses.
///
/// Clauses may be added before any solve call and between solve calls
/// (the solver backtracks to the root level first). After
/// [`SolveResult::Sat`] the model is frozen in [`Solver::value`] until the
/// next solve.
#[derive(Debug, Default)]
pub struct Solver {
    /// Per clause id, where its literals sit in `arena`.
    clauses: Vec<ClauseHeader>,
    /// Every live clause's literals, back to back, in clause-id order.
    arena: Vec<Lit>,
    /// Reused by [`Solver::add_clause`] to normalise its input.
    add_buf: Vec<Lit>,
    /// Reused by conflict analysis for the learned clause.
    learnt_buf: Vec<Lit>,
    watches: Vec<Vec<Watcher>>,
    /// Assignment per variable: [`VAL_TRUE`], [`VAL_FALSE`] or [`UNDEF`].
    assign: Vec<u8>,
    /// Saved phase per variable (last assigned polarity; starts `false`).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarOrder,
    var_inc: f64,
    /// Learned-clause ids, in learn order.
    learnts: Vec<u32>,
    /// Learned-clause count that triggers the next reduction.
    reduce_at: u64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    model: Vec<u8>,
    stats: SolverStats,
    /// Root-level contradiction discovered; everything is Unsat.
    ok: bool,
    /// The assumptions of the running solve, decided first, one per
    /// decision level.
    assumptions: Vec<Lit>,
    /// After an Unsat under assumptions: the negations of the assumptions
    /// the refutation used (see [`Solver::core`]).
    core: Vec<Lit>,
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            reduce_at: 2000,
            ok: true,
            ..Solver::default()
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.seen.push(false);
        self.model.push(UNDEF);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var();
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of live clauses (problem + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// `(arena length, summed length of the live clauses)`.
    #[cfg(test)]
    pub(crate) fn arena_fill(&self) -> (usize, usize) {
        let live = self.clauses.iter().filter(|c| !c.deleted);
        (self.arena.len(), live.map(|c| c.len as usize).sum())
    }

    /// Search counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Model value of `v` after a [`SolveResult::Sat`] outcome; `None`
    /// before the first solve, after a non-Sat outcome, or for variables
    /// created since.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()).copied() {
            Some(VAL_TRUE) => Some(true),
            Some(VAL_FALSE) => Some(false),
            _ => None,
        }
    }

    fn lit_value(&self, l: Lit) -> u8 {
        let a = self.assign[l.var().index()];
        if a == UNDEF {
            UNDEF
        } else {
            a ^ u8::from(l.is_neg())
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause; returns `false` when the clause set became
    /// unsatisfiable at the root level. Duplicate literals are merged and
    /// tautologies dropped. Callable between solves: the solver first
    /// backtracks to the root.
    ///
    /// # Panics
    ///
    /// Panics when a literal references a variable not created by
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut ls = std::mem::take(&mut self.add_buf);
        ls.clear();
        ls.extend_from_slice(lits);
        let ok = self.add_normalised(&mut ls);
        self.add_buf = ls;
        ok
    }

    fn add_normalised(&mut self, ls: &mut Vec<Lit>) -> bool {
        for l in ls.iter() {
            assert!(l.var().index() < self.num_vars(), "unknown variable");
        }
        ls.sort_unstable();
        ls.dedup();
        // tautology: p and ¬p adjacent after the sort
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        // strip literals already false at the root; a root-true literal
        // satisfies the clause forever
        ls.retain(|&l| !(self.lit_value(l) == VAL_FALSE && self.level[l.var().index()] == 0));
        if ls
            .iter()
            .any(|&l| self.lit_value(l) == VAL_TRUE && self.level[l.var().index()] == 0)
        {
            return true;
        }
        match ls.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(ls[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(ls, false, 0);
                true
            }
        }
    }

    /// Appends `lits` to the arena as a new clause and watches its first
    /// two literals.
    fn attach(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        let cid = self.clauses.len() as u32;
        self.watches[lits[0].negate().code()].push(Watcher {
            clause: cid,
            blocker: lits[1],
        });
        self.watches[lits[1].negate().code()].push(Watcher {
            clause: cid,
            blocker: lits[0],
        });
        if learnt {
            self.learnts.push(cid);
        }
        self.clauses.push(ClauseHeader {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            lbd,
            learnt,
            deleted: false,
        });
        self.arena.extend_from_slice(lits);
        cid
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert_eq!(self.assign[v], UNDEF);
        self.assign[v] = u8::from(!l.is_neg());
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause id, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            // `p` became true: inspect clauses watching ¬p
            while i < self.watches[p.code()].len() {
                let w = self.watches[p.code()][i];
                if self.clauses[w.clause as usize].deleted {
                    self.watches[p.code()].swap_remove(i);
                    continue;
                }
                if self.lit_value(w.blocker) == VAL_TRUE {
                    i += 1;
                    continue;
                }
                let lits = self.clauses[w.clause as usize].range();
                let (c0, c1) = (lits.start, lits.start + 1);
                let false_lit = p.negate();
                // normalize: the false watched literal sits at index 1
                if self.arena[c0] == false_lit {
                    self.arena.swap(c0, c1);
                }
                let first = self.arena[c0];
                if first != w.blocker && self.lit_value(first) == VAL_TRUE {
                    self.watches[p.code()][i].blocker = first;
                    i += 1;
                    continue;
                }
                // look for a new literal to watch
                let mut moved = false;
                for k in lits.start + 2..lits.end {
                    let l = self.arena[k];
                    if self.lit_value(l) != VAL_FALSE {
                        self.arena.swap(c1, k);
                        self.watches[p.code()].swap_remove(i);
                        self.watches[l.negate().code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // clause is unit or conflicting under the first literal
                if self.lit_value(first) == VAL_FALSE {
                    self.qhead = self.trail.len();
                    return Some(w.clause);
                }
                self.unchecked_enqueue(first, w.clause);
                i += 1;
            }
        }
        None
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = UNDEF;
            self.reason[v.index()] = NO_REASON;
            self.order.insert(v.0);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.order.activity[v.index()] += self.var_inc;
        if self.order.activity[v.index()] > ACTIVITY_RESCALE {
            self.order.rescale();
            self.var_inc *= 1.0 / ACTIVITY_RESCALE;
        }
        self.order.bumped(v.0);
    }

    /// First-UIP conflict analysis. Fills `learnt` with the learned clause
    /// (asserting literal first) and returns the backjump level.
    fn analyze(&mut self, mut confl: u32, learnt: &mut Vec<Lit>) -> u32 {
        learnt.clear();
        learnt.push(Lit(0)); // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            for k in self.clauses[confl as usize].range() {
                let q = self.arena[k];
                // reason clauses carry the propagated literal itself at
                // position 0; it is the resolvent, not an antecedent
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // walk the trail back to the next marked literal
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            confl = self.reason[lit.var().index()];
            debug_assert_ne!(confl, NO_REASON);
        }
        learnt[0] = p.expect("first UIP exists").negate();
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // backjump to the second-highest decision level in the clause;
        // put that literal in watch position 1
        let mut back = 0u32;
        let mut pos = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > back {
                back = lv;
                pos = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, pos);
        }
        back
    }

    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Deterministic learned-clause reduction: keep the better half under
    /// (LBD ascending, length ascending, id ascending); binaries, glue
    /// clauses (LBD ≤ 2) and reason clauses of the current trail survive.
    fn reduce_db(&mut self) {
        let locked: std::collections::BTreeSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != NO_REASON)
            .collect();
        let mut order: Vec<u32> = self
            .learnts
            .iter()
            .copied()
            .filter(|&cid| {
                let c = &self.clauses[cid as usize];
                c.learnt && !c.deleted && !locked.contains(&cid) && c.len > 2 && c.lbd > 2
            })
            .collect();
        order.sort_by_key(|&cid| {
            let c = &self.clauses[cid as usize];
            (c.lbd, c.len, cid)
        });
        // drop the worse half
        let dropped = &order[order.len() / 2..];
        for &cid in dropped {
            self.clauses[cid as usize].deleted = true;
            self.stats.removed += 1;
        }
        self.learnts
            .retain(|&cid| !self.clauses[cid as usize].deleted);
        if let Some(&first) = dropped.iter().min() {
            self.compact_from(first as usize);
        }
        self.reduce_at += 300;
    }

    /// Moves the literals of every live clause from id `first` on down
    /// over the deleted ones, in id order, and gives deleted headers `len`
    /// 0. Ids, watch lists and reasons stay as they are.
    fn compact_from(&mut self, first: usize) {
        let mut end = self.clauses[first].start as usize;
        for c in &mut self.clauses[first..] {
            if c.deleted {
                c.len = 0;
            } else {
                self.arena.copy_within(c.range(), end);
            }
            c.start = end as u32;
            end += c.len as usize;
        }
        self.arena.truncate(end);
    }

    /// Decides the next assumption, opening one decision level for it
    /// (an empty one when it already holds). `Ok(true)` when a level was
    /// opened, `Ok(false)` once every assumption is decided, and
    /// `Err(lit)` with `lit` the true negation of an assumption the
    /// current trail falsifies.
    fn decide_assumption(&mut self) -> Result<bool, Lit> {
        let Some(&a) = self.assumptions.get(self.decision_level() as usize) else {
            return Ok(false);
        };
        match self.lit_value(a) {
            VAL_FALSE => Err(a.negate()),
            value => {
                self.trail_lim.push(self.trail.len());
                if value == UNDEF {
                    self.unchecked_enqueue(a, NO_REASON);
                }
                Ok(true)
            }
        }
    }

    /// MiniSat's `analyzeFinal`: `p` is true and contradicts an
    /// assumption. Walks the implication graph back from `p` to the
    /// assumption decisions it rests on and stores the core: `p` plus the
    /// negation of every assumption it used.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index()] {
                continue;
            }
            let reason = self.reason[x.index()];
            if reason == NO_REASON {
                // above the root only assumptions are decided before `p`
                self.core.push(self.trail[i].negate());
            } else {
                for k in self.clauses[reason as usize].range() {
                    let v = self.arena[k].var();
                    if v != x && self.level[v.index()] > 0 {
                        self.seen[v.index()] = true;
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop() {
            if self.assign[v as usize] == UNDEF {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[v as usize] {
                    Lit::pos(Var(v))
                } else {
                    Lit::neg(Var(v))
                };
                self.unchecked_enqueue(lit, NO_REASON);
                return true;
            }
        }
        false
    }

    /// The Luby sequence value for restart `i` (0-based): 1, 1, 2, 1, 1,
    /// 2, 4, ...
    fn luby(i: u64) -> u64 {
        let mut x = i;
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// After [`SolveResult::Unsat`] from [`Solver::solve_assuming`]: the
    /// negations of the assumptions the refutation used, a subset of the
    /// negated assumptions whose disjunction the clauses imply. Empty when
    /// the clauses are unsatisfiable on their own, and after any other
    /// outcome.
    pub fn core(&self) -> &[Lit] {
        &self.core
    }

    /// Solves with no budget and no interrupt.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&Limits::default(), &mut || false)
    }

    /// Solves under `limits`, polling `interrupt` roughly every two
    /// thousand propagations and at restart boundaries; returns
    /// [`SolveResult::Unknown`] when either fires. The solver stays
    /// usable: clauses can be added and the search re-run.
    pub fn solve_limited(
        &mut self,
        limits: &Limits,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> SolveResult {
        self.solve_assuming(&[], limits, interrupt)
    }

    /// [`Solver::solve_limited`] with every literal of `assumptions` held
    /// true for this call only. Assumptions are decided first, in order,
    /// one per decision level; learned clauses never depend on them, so
    /// they stay valid for later calls. [`SolveResult::Unsat`] here means
    /// "unsatisfiable under the assumptions" and leaves the solver usable:
    /// [`Solver::core`] then names the assumptions the refutation used.
    ///
    /// # Panics
    ///
    /// Panics when an assumption references a variable not created by
    /// [`Solver::new_var`].
    pub fn solve_assuming(
        &mut self,
        assumptions: &[Lit],
        limits: &Limits,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> SolveResult {
        self.model.iter_mut().for_each(|m| *m = UNDEF);
        self.core.clear();
        for a in assumptions {
            assert!(a.var().index() < self.num_vars(), "unknown variable");
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let start_conflicts = self.stats.conflicts;
        let start_props = self.stats.propagations;
        let mut restart_round = 0u64;
        let mut next_poll = self.stats.propagations + INTERRUPT_STRIDE;
        loop {
            if interrupt() {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }
            let restart_budget = Self::luby(restart_round) * RESTART_BASE;
            let mut conflicts_this_round = 0u64;
            loop {
                if let Some(confl) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_this_round += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    let mut learnt = std::mem::take(&mut self.learnt_buf);
                    let back = self.analyze(confl, &mut learnt);
                    self.cancel_until(back);
                    self.var_inc *= ACTIVITY_DECAY;
                    self.stats.learned += 1;
                    if learnt.len() == 1 {
                        self.unchecked_enqueue(learnt[0], NO_REASON);
                    } else {
                        let lbd = self.lbd(&learnt);
                        let cid = self.attach(&learnt, true, lbd);
                        self.unchecked_enqueue(learnt[0], cid);
                    }
                    self.learnt_buf = learnt;
                    if self.learnts.len() as u64 >= self.reduce_at {
                        self.reduce_db();
                    }
                } else {
                    if limits
                        .max_conflicts
                        .is_some_and(|m| self.stats.conflicts - start_conflicts >= m)
                        || limits
                            .max_propagations
                            .is_some_and(|m| self.stats.propagations - start_props >= m)
                    {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                    if self.stats.propagations >= next_poll {
                        next_poll = self.stats.propagations + INTERRUPT_STRIDE;
                        if interrupt() {
                            self.cancel_until(0);
                            return SolveResult::Unknown;
                        }
                    }
                    if conflicts_this_round >= restart_budget {
                        // Luby restart
                        self.stats.restarts += 1;
                        restart_round += 1;
                        self.cancel_until(0);
                        break;
                    }
                    match self.decide_assumption() {
                        Ok(true) => continue,
                        Ok(false) => {}
                        Err(p) => {
                            self.analyze_final(p);
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                    }
                    if !self.decide() {
                        // complete assignment: freeze the model
                        self.model.copy_from_slice(&self.assign);
                        self.cancel_until(0);
                        return SolveResult::Sat;
                    }
                }
            }
        }
    }
}
