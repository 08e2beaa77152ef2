//! The equivalence-checked optimizer: constant folding, common
//! subexpression elimination and dead-node elimination, composed into
//! rewrite rounds and iterated to a fixed point.
//!
//! Each round analyses the *current* graph, plans one combined action
//! vector, and applies it in a single [`panorama_dfg::rewrite::apply`]
//! pass. Composing fold + CSE + liveness per round (instead of running
//! them as separate rewrites) keeps the observable set stable: when a
//! fold orphans its producers or a merge orphans a victim's inputs, the
//! liveness pass of the *same* round already sees those edges as gone
//! and removes the orphans before they could surface as new sinks.
//!
//! Soundness rules, each a property of the one value model
//! ([`panorama_sim::semantics`]):
//!
//! * **fold** — only ops the constant analysis proves `Known`; the fold
//!   keeps the op's name, so `initial_value` reads through outgoing
//!   back edges are unchanged;
//! * **merge (CSE)** — two ops share a value number when they have the
//!   same kind and the same operand value numbers *in incoming-edge
//!   order*; the operands are compared as a multiset only for
//!   [`OpKind::is_commutative`] kinds, so `a − b` and `b − a` stay two
//!   ops. Victims are never stores, never sinks (both are
//!   observable), and never sources of back edges (a back-edge consumer
//!   reads the *name-keyed* initial value in warm-up iterations, which a
//!   redirect would change). Back-edge *inputs* are keyed by concrete
//!   source op and distance, so merged ops share their history exactly;
//! * **remove (DCE)** — liveness over "effective" edges (edges as they
//!   will exist after this round's folds and merges), seeded from
//!   stores and sinks, with victim edges credited to their
//!   representative so representatives stay live.
//!
//! Every optimization terminates with a full equivalence check of the
//! final graph against the original ([`crate::equiv::check_mapped`]).

use crate::engine::fixpoint;
use crate::equiv::{check_mapped, EquivError};
use crate::lattice::Live;
use crate::passes::constant_values;
use panorama_dfg::rewrite::{apply_with_map, OpRewrite, RewriteError};
use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_sim::semantics;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Safety bound on rewrite rounds (each round strictly shrinks the graph
/// or folds at least one op, so this is rarely reached).
const MAX_ROUNDS: usize = 8;

/// Configuration for [`optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Fold ops the constant analysis proves loop-invariant into `Const`.
    pub fold_constants: bool,
    /// Merge structurally equivalent ops (CSE by value numbering).
    pub merge_common: bool,
    /// Remove ops no observable depends on.
    pub eliminate_dead: bool,
    /// Iterations the equivalence check interprets both graphs for.
    pub equiv_iterations: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            fold_constants: true,
            merge_common: true,
            eliminate_dead: true,
            equiv_iterations: 6,
        }
    }
}

/// Error from [`optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// A planned rewrite was structurally unsound — a bug in the planner,
    /// surfaced rather than papered over.
    Rewrite(RewriteError),
    /// The optimized graph failed the interpreter equivalence check.
    Equivalence(EquivError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            AnalyzeError::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
        }
    }
}

impl Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalyzeError::Rewrite(e) => Some(e),
            AnalyzeError::Equivalence(e) => Some(e),
        }
    }
}

impl From<RewriteError> for AnalyzeError {
    fn from(e: RewriteError) -> Self {
        AnalyzeError::Rewrite(e)
    }
}

impl From<EquivError> for AnalyzeError {
    fn from(e: EquivError) -> Self {
        AnalyzeError::Equivalence(e)
    }
}

/// Result of [`optimize`]: the rewritten graph, the old→new op mapping,
/// and per-category action counts accumulated over all rounds.
#[derive(Debug, Clone)]
pub struct Optimization {
    /// The optimized (equivalence-checked) graph.
    pub dfg: Dfg,
    /// Original op → optimized op; `None` for eliminated ops.
    pub map: Vec<Option<OpId>>,
    /// Rewrite rounds applied before quiescence.
    pub rounds: usize,
    /// Ops folded to constants.
    pub folded: usize,
    /// Ops merged into an equivalent representative.
    pub merged: usize,
    /// Dead ops removed.
    pub removed: usize,
}

impl Optimization {
    /// Whether any rewrite was applied at all.
    pub fn changed(&self) -> bool {
        self.rounds > 0
    }
}

/// CSE value-number key for one operand edge.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum InKey {
    /// Intra-iteration input, identified by the producer's value number.
    Data(usize),
    /// Loop-carried input, identified by the *concrete* source op and
    /// distance — merging across back edges would change warm-up reads.
    Back(usize, u32),
}

/// CSE value-number key for one op.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum VnKey {
    Const(u64),
    Load(String),
    Compute(&'static str, Vec<InKey>),
}

struct RoundPlan {
    actions: Vec<OpRewrite>,
    folded: usize,
    merged: usize,
    removed: usize,
}

impl RoundPlan {
    fn changed(&self) -> bool {
        self.folded + self.merged + self.removed > 0
    }
}

/// Plans one combined fold + merge + DCE round on `dfg`.
fn plan_round(dfg: &Dfg, config: &AnalyzeConfig) -> RoundPlan {
    let n = dfg.num_ops();
    let konst = constant_values(dfg);
    let mut out_deg = vec![0usize; n];
    let mut out_back = vec![false; n];
    for e in dfg.deps() {
        out_deg[e.src.index()] += 1;
        if e.weight.is_back() {
            out_back[e.src.index()] = true;
        }
    }
    let observable: Vec<bool> = dfg
        .op_ids()
        .map(|v| dfg.op(v).kind == OpKind::Store || out_deg[v.index()] == 0)
        .collect();
    // A graph whose only consumers are back edges (e.g. a self-feeding
    // accumulator nobody reads) has no observables at all; removing
    // "dead" ops there would empty the graph, which is not a valid DFG.
    // Leave such degenerate kernels untouched by DCE.
    let eliminate_dead = config.eliminate_dead && observable.contains(&true);

    // Fold candidates: proven-constant compute ops. Const ops are already
    // folded by definition; loads are never Known; stores are kept as the
    // kernel's memory interface.
    let mut fold: Vec<Option<u64>> = vec![None; n];
    if config.fold_constants {
        for v in dfg.op_ids() {
            let kind = dfg.op(v).kind;
            if matches!(kind, OpKind::Const | OpKind::Load | OpKind::Store) {
                continue;
            }
            fold[v.index()] = konst[v.index()].known();
        }
    }

    // CSE value numbering in topological order: vn[v] identifies v's
    // value class; the first op of a class is its representative.
    let mut victim: Vec<Option<OpId>> = vec![None; n];
    let mut merged = 0usize;
    if config.merge_common {
        let mut vn: Vec<usize> = (0..n).collect();
        let mut seen: BTreeMap<VnKey, usize> = BTreeMap::new();
        for v in dfg.topo_order() {
            let op = dfg.op(v);
            let key = if let Some(c) = fold[v.index()] {
                VnKey::Const(c)
            } else {
                match op.kind {
                    OpKind::Const => VnKey::Const(semantics::const_value(op)),
                    OpKind::Load => VnKey::Load(op.name.clone()),
                    OpKind::Store => continue,
                    kind => {
                        let mut ins: Vec<InKey> = dfg
                            .graph()
                            .incoming(v)
                            .map(|e| match e.weight {
                                panorama_dfg::Dep::Data => InKey::Data(vn[e.src.index()]),
                                panorama_dfg::Dep::Back { distance } => {
                                    InKey::Back(e.src.index(), *distance)
                                }
                            })
                            .collect();
                        if kind.is_commutative() {
                            ins.sort_unstable();
                        }
                        VnKey::Compute(kind.mnemonic(), ins)
                    }
                }
            };
            if let Some(&rep) = seen.get(&key) {
                vn[v.index()] = rep;
                if !observable[v.index()] && !out_back[v.index()] {
                    victim[v.index()] = Some(OpId::from_index(rep));
                    merged += 1;
                }
            } else {
                seen.insert(key, v.index());
            }
        }
    }

    // Liveness over effective edges: an edge survives this round iff its
    // destination is materialised as a consumer (kept, not folded, not a
    // victim); its source is resolved through the victim map so the
    // representative inherits the victim's consumers.
    let resolve = |v: usize| victim[v].map_or(v, OpId::index);
    let mut eff_out = vec![Vec::new(); n];
    for e in dfg.deps() {
        let w = e.dst.index();
        if victim[w].is_some() || fold[w].is_some() {
            continue;
        }
        eff_out[resolve(e.src.index())].push(w);
    }
    let mut dependents = vec![Vec::new(); n];
    for (x, outs) in eff_out.iter().enumerate() {
        for &w in outs {
            dependents[w].push(x);
        }
    }
    let live = fixpoint(n, &Live(false), &dependents, |i, vals: &[Live]| {
        Live(observable[i] || eff_out[i].iter().any(|&w| vals[w].0))
    })
    .values;

    let mut actions = vec![OpRewrite::Keep; n];
    let (mut folded, mut removed) = (0usize, 0usize);
    for v in 0..n {
        if let Some(rep) = victim[v] {
            // Victims always redirect (never Remove): their outgoing
            // edges are credited to the representative, so a Remove here
            // could dangle.
            actions[v] = OpRewrite::ReplaceBy(rep);
        } else if eliminate_dead && !live[v].0 {
            actions[v] = OpRewrite::Remove;
            removed += 1;
        } else if let Some(c) = fold[v] {
            actions[v] = OpRewrite::FoldConst(c);
            folded += 1;
        }
    }
    RoundPlan {
        actions,
        folded,
        merged,
        removed,
    }
}

/// Optimizes `original` to a fixed point and equivalence-checks the
/// result against it.
///
/// # Errors
///
/// See [`AnalyzeError`]. Either variant means the optimizer has a bug —
/// callers should surface it, not fall back silently.
pub fn optimize(original: &Dfg, config: &AnalyzeConfig) -> Result<Optimization, AnalyzeError> {
    let mut cur = original.clone();
    let mut map: Vec<Option<OpId>> = original.op_ids().map(Some).collect();
    let (mut rounds, mut folded, mut merged, mut removed) = (0usize, 0usize, 0usize, 0usize);
    for _ in 0..MAX_ROUNDS {
        let plan = plan_round(&cur, config);
        if !plan.changed() {
            break;
        }
        let (next, round_map) = apply_with_map(&cur, &plan.actions)?;
        for slot in &mut map {
            *slot = slot.and_then(|t| round_map[t.index()]);
        }
        cur = next;
        rounds += 1;
        folded += plan.folded;
        merged += plan.merged;
        removed += plan.removed;
    }
    check_mapped(original, &cur, &map, config.equiv_iterations)?;
    Ok(Optimization {
        dfg: cur,
        map,
        rounds,
        folded,
        merged,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::{DfgBuilder, Op};
    use panorama_sim::interpret;
    use panorama_sim::semantics::{InputVectors, VectorKind};

    #[test]
    fn operand_order_keeps_subtractions_apart_and_folds_real_arithmetic() {
        // d0 = a - b -> s0, d1 = b - a -> s1, five = 2 + 3 -> s2. An
        // optimizer that value-numbers operands as a multiset merges d1
        // into d0 and stores a - b twice.
        let text = include_str!("../../../fuzz/corpus/analyze-noncommutative-cse.dfg");
        let dfg = Dfg::from_text(text).unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!((opt.merged, opt.folded), (0, 1));
        let five = OpId::from_index(6);
        assert_eq!(opt.dfg.op(opt.map[five.index()].unwrap()).imm, Some(5));
        // checked here independently of `check_mapped`: every store
        // streams the same words before and after
        for kind in VectorKind::ALL {
            let inputs = InputVectors::new(kind, 42);
            let before = interpret(&dfg, &inputs, 4);
            let after = interpret(&opt.dfg, &inputs, 4);
            for s in dfg.op_ids().filter(|&v| dfg.op(v).kind == OpKind::Store) {
                let image = opt.map[s.index()].expect("stores survive");
                for iter in 0..4 {
                    assert_eq!(
                        before.value(s, iter),
                        after.value(image, iter),
                        "store {} under {} in iteration {iter}",
                        dfg.op(s).name,
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn swapped_operands_merge_exactly_for_commutative_kinds() {
        for kind in OpKind::ALL {
            if matches!(kind, OpKind::Load | OpKind::Store | OpKind::Const) {
                continue;
            }
            let mut b = DfgBuilder::new("t");
            let la = b.op(OpKind::Load, "a");
            let lb = b.op(OpKind::Load, "b");
            let f = b.op(kind, "f");
            let g = b.op(kind, "g");
            let s0 = b.op(OpKind::Store, "s0");
            let s1 = b.op(OpKind::Store, "s1");
            b.data(la, f);
            b.data(lb, f);
            b.data(lb, g);
            b.data(la, g);
            b.data(f, s0);
            b.data(g, s1);
            let dfg = b.build().unwrap();
            let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
            assert_eq!(opt.merged, usize::from(kind.is_commutative()), "{kind}");
        }
    }

    #[test]
    fn folds_constant_subgraphs_and_sweeps_the_orphans() {
        // (7 + 8) * x stored; the add folds, its const feeders die
        let mut b = DfgBuilder::new("t");
        let c0 = b.push_op(Op::constant("c0", 7));
        let c1 = b.push_op(Op::constant("c1", 8));
        let a = b.op(OpKind::Add, "a");
        let l = b.op(OpKind::Load, "x");
        let m = b.op(OpKind::Mul, "m");
        let s = b.op(OpKind::Store, "out");
        b.data(c0, a);
        b.data(c1, a);
        b.data(a, m);
        b.data(l, m);
        b.data(m, s);
        let dfg = b.build().unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert!(opt.folded >= 1, "the add must fold");
        assert!(opt.removed >= 2, "both const feeders become dead");
        // folded + swept in one pass: ld, folded-a (const), mul, store
        assert_eq!(opt.dfg.num_ops(), 4);
        assert!(opt.changed());
    }

    #[test]
    fn merges_duplicate_subexpressions() {
        // two identical a+b adds feeding one store
        let mut b = DfgBuilder::new("t");
        let la = b.op(OpKind::Load, "a");
        let lb = b.op(OpKind::Load, "b");
        let a1 = b.op(OpKind::Add, "s1");
        let a2 = b.op(OpKind::Add, "s2");
        let s = b.op(OpKind::Store, "out");
        b.data(la, a1);
        b.data(lb, a1);
        b.data(la, a2);
        b.data(lb, a2);
        b.data(a1, s);
        b.data(a2, s);
        let dfg = b.build().unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!(opt.merged, 1);
        assert_eq!(opt.dfg.num_ops(), 4);
        // the store still receives TWO inputs (multiplicity preserved)
        let store = opt.map[4].unwrap();
        assert_eq!(opt.dfg.graph().incoming(store).count(), 2);
    }

    #[test]
    fn accumulators_and_back_edge_sources_are_never_merged() {
        // two accumulators with identical shape must stay distinct: their
        // initial values are keyed by (different) names
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "x");
        let acc1 = b.op(OpKind::Add, "acc1");
        let acc2 = b.op(OpKind::Add, "acc2");
        let s = b.op(OpKind::Store, "out");
        b.data(l, acc1);
        b.data(l, acc2);
        b.back(acc1, acc1, 1);
        b.back(acc2, acc2, 1);
        b.data(acc1, s);
        b.data(acc2, s);
        let dfg = b.build().unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!(opt.merged, 0);
        assert_eq!(opt.dfg.num_ops(), 4);
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut b = DfgBuilder::new("t");
        let c0 = b.push_op(Op::constant("c0", 7));
        let c1 = b.push_op(Op::constant("c1", 8));
        let a = b.op(OpKind::Add, "a");
        b.data(c0, a);
        b.data(c1, a);
        let dfg = b.build().unwrap();
        let off = AnalyzeConfig {
            fold_constants: false,
            merge_common: false,
            eliminate_dead: false,
            ..AnalyzeConfig::default()
        };
        let opt = optimize(&dfg, &off).unwrap();
        assert!(!opt.changed());
        assert_eq!(opt.dfg.num_ops(), dfg.num_ops());
    }

    #[test]
    fn graphs_with_no_observables_survive_unshrunk() {
        // the accumulator's only consumer is its own back edge: nothing
        // is observable, so DCE must not empty the graph
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "l");
        let a = b.op(OpKind::Add, "a");
        b.data(l, a);
        b.back(a, a, 1);
        let dfg = b.build().unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!(opt.removed, 0);
        assert_eq!(opt.dfg.num_ops(), dfg.num_ops());
    }

    #[test]
    fn optimization_reaches_a_fixed_point() {
        // chained constants: c -> i1 = c + c -> i2 = i1 + i1 -> st. The
        // constant analysis reaches through the whole chain in one
        // fixpoint, so i2 folds and c, i1 die in the same round. (The
        // doubling keeps the three values apart: a one-operand add is
        // the identity and would merge into c instead.)
        let mut b = DfgBuilder::new("t");
        let c = b.push_op(Op::constant("c", 3));
        let i1 = b.op(OpKind::Add, "i1");
        let i2 = b.op(OpKind::Add, "i2");
        let s = b.op(OpKind::Store, "out");
        b.data(c, i1);
        b.data(c, i1);
        b.data(i1, i2);
        b.data(i1, i2);
        b.data(i2, s);
        let dfg = b.build().unwrap();
        let opt = optimize(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!(opt.folded, 1, "only the live end of the chain folds");
        assert_eq!(opt.removed, 2, "the rest of the chain is dead");
        // final: one const (folded i2) + the store
        assert_eq!(opt.dfg.num_ops(), 2);
        let folded = opt.dfg.op(opt.map[2].unwrap());
        assert_eq!((folded.name.as_str(), folded.imm), ("i2", Some(12)));
        // re-optimizing the result is a no-op
        let again = optimize(&opt.dfg, &AnalyzeConfig::default()).unwrap();
        assert!(!again.changed());
    }
}
