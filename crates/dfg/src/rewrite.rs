//! Semantics-preserving DFG rewriting: the mechanism underneath the
//! `panorama-analyze` optimization passes.
//!
//! A rewrite assigns every operation of the source graph exactly one
//! [`OpRewrite`] action and rebuilds the graph in a single deterministic
//! pass. The *policy* (which ops to fold, merge or drop) lives in the
//! analysis crate; this module only guarantees the mechanics are sound:
//!
//! * surviving ops keep their payload (kind, name, immediate) and their
//!   relative order, so renumbering is dense and reproducible;
//! * edges are remapped through replacement chains with **multiplicity
//!   and order preserved** — an op's operands are its incoming edges in
//!   insertion order, so deduplicating `a → c, a → c` or permuting
//!   `a → c, b → c` would change what `c` computes. Surviving edges are
//!   re-added in source-graph order and a redirected edge keeps its
//!   position;
//! * an edge from a removed op into a surviving one is refused rather
//!   than silently dropped (it means the liveness analysis was wrong).

use crate::{Dep, Dfg, DfgBuilder, DfgError, Op, OpId};
use std::error::Error;
use std::fmt;

/// Per-operation rewrite action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRewrite {
    /// Keep the op and its incoming edges unchanged.
    Keep,
    /// Drop the op and every edge touching it (dead-code elimination).
    /// Only sound when no surviving op consumes it.
    Remove,
    /// Drop the op and redirect its consumers to another (equivalent) op,
    /// identified by its id in the *source* graph. Chains are followed.
    ReplaceBy(OpId),
    /// Replace the op by a `Const` with this immediate value, dropping
    /// its incoming edges (constant folding). Keeps the op's name.
    FoldConst(u64),
}

/// Error from [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// `actions` is not exactly one action per op of the source graph.
    WrongArity {
        /// Number of ops in the source graph.
        ops: usize,
        /// Number of actions supplied.
        actions: usize,
    },
    /// A `ReplaceBy` chain loops or ends at a removed op.
    BadReplacement {
        /// The op whose replacement cannot be resolved.
        op: OpId,
    },
    /// A surviving op consumes a removed op: the liveness set was wrong.
    DanglingUse {
        /// The removed producer.
        removed: OpId,
        /// The surviving consumer.
        user: OpId,
    },
    /// Every op was rewritten away; an empty DFG is not representable.
    Empty,
    /// The rebuilt graph failed [`Dfg::validate`].
    Invalid(DfgError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::WrongArity { ops, actions } => {
                write!(f, "{actions} rewrite action(s) for {ops} op(s)")
            }
            RewriteError::BadReplacement { op } => {
                write!(
                    f,
                    "replacement chain for {op} loops or ends at a removed op"
                )
            }
            RewriteError::DanglingUse { removed, user } => {
                write!(f, "removed op {removed} still feeds surviving op {user}")
            }
            RewriteError::Empty => write!(f, "rewrite removed every op"),
            RewriteError::Invalid(e) => write!(f, "rewritten DFG is invalid: {e}"),
        }
    }
}

impl Error for RewriteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RewriteError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Resolves `ReplaceBy` chains to a materialised op, detecting loops.
fn resolve(actions: &[OpRewrite], start: OpId) -> Result<OpId, RewriteError> {
    let mut cur = start;
    for _ in 0..=actions.len() {
        match actions[cur.index()] {
            OpRewrite::Keep | OpRewrite::FoldConst(_) => return Ok(cur),
            OpRewrite::ReplaceBy(next) => cur = next,
            OpRewrite::Remove => return Err(RewriteError::BadReplacement { op: start }),
        }
    }
    Err(RewriteError::BadReplacement { op: start })
}

/// Applies one rewrite action per op and rebuilds the graph.
///
/// # Errors
///
/// See [`RewriteError`]. On success the result passes [`Dfg::validate`].
pub fn apply(dfg: &Dfg, actions: &[OpRewrite]) -> Result<Dfg, RewriteError> {
    apply_with_map(dfg, actions).map(|(out, _)| out)
}

/// Like [`apply`], additionally returning the old-op → new-op mapping:
/// kept and folded ops map to their new id, replaced ops to their
/// (transitive) replacement's new id, removed ops to `None`. The mapping
/// is what lets an equivalence checker compare per-op values across the
/// rewrite without guessing at correspondences.
///
/// # Errors
///
/// See [`RewriteError`].
pub fn apply_with_map(
    dfg: &Dfg,
    actions: &[OpRewrite],
) -> Result<(Dfg, Vec<Option<OpId>>), RewriteError> {
    if actions.len() != dfg.num_ops() {
        return Err(RewriteError::WrongArity {
            ops: dfg.num_ops(),
            actions: actions.len(),
        });
    }
    let mut b = DfgBuilder::new(dfg.name());
    // Old id -> new id for materialised ops (Keep / FoldConst).
    let mut remap: Vec<Option<OpId>> = Vec::with_capacity(dfg.num_ops());
    for v in dfg.op_ids() {
        match actions[v.index()] {
            OpRewrite::Keep => remap.push(Some(b.push_op(dfg.op(v).clone()))),
            OpRewrite::FoldConst(value) => {
                remap.push(Some(b.push_op(Op::constant(dfg.op(v).name.clone(), value))));
            }
            OpRewrite::Remove | OpRewrite::ReplaceBy(_) => remap.push(None),
        }
    }
    for e in dfg.deps() {
        // A folded op needs no operands; edges into removed/replaced ops
        // vanish with them.
        let dst = match actions[e.dst.index()] {
            OpRewrite::Keep => remap[e.dst.index()].expect("kept op is materialised"),
            _ => continue,
        };
        if actions[e.src.index()] == OpRewrite::Remove {
            return Err(RewriteError::DanglingUse {
                removed: e.src,
                user: e.dst,
            });
        }
        let src_old = resolve(actions, e.src)?;
        let src = remap[src_old.index()].expect("resolve targets are materialised");
        match e.weight {
            Dep::Data => b.data(src, dst),
            Dep::Back { distance } => b.back(src, dst, *distance),
        }
    }
    if b.num_ops() == 0 {
        return Err(RewriteError::Empty);
    }
    // Final old → new map: replaced ops land on their chain target's new
    // id; a chain that cannot resolve (only possible when no surviving
    // edge forced resolution above) maps to None like a plain removal.
    let mut map = Vec::with_capacity(dfg.num_ops());
    for v in dfg.op_ids() {
        map.push(match actions[v.index()] {
            OpRewrite::Keep | OpRewrite::FoldConst(_) => remap[v.index()],
            OpRewrite::ReplaceBy(_) => resolve(actions, v).ok().and_then(|t| remap[t.index()]),
            OpRewrite::Remove => None,
        });
    }
    let out = b.build().map_err(RewriteError::Invalid)?;
    Ok((out, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn diamond() -> Dfg {
        // c0, c1 -> add -> st ; ld -> add2 -> st (add2 ≡ add shape-wise)
        let mut b = DfgBuilder::new("d");
        let c0 = b.op(OpKind::Const, "c0");
        let c1 = b.op(OpKind::Const, "c1");
        let a = b.op(OpKind::Add, "a");
        let s = b.op(OpKind::Store, "s");
        b.data(c0, a);
        b.data(c1, a);
        b.data(a, s);
        b.build().unwrap()
    }

    #[test]
    fn keep_everything_is_identity() {
        let dfg = diamond();
        let out = apply(&dfg, &[OpRewrite::Keep; 4]).unwrap();
        assert_eq!(out.num_ops(), 4);
        assert_eq!(out.num_deps(), 3);
        assert_eq!(out.to_text(), dfg.to_text());
    }

    #[test]
    fn fold_drops_incoming_and_orphans_are_removable() {
        let dfg = diamond();
        let actions = vec![
            OpRewrite::Remove,
            OpRewrite::Remove,
            OpRewrite::FoldConst(99),
            OpRewrite::Keep,
        ];
        let out = apply(&dfg, &actions).unwrap();
        assert_eq!(out.num_ops(), 2);
        let folded = out.op_ids().next().unwrap();
        assert_eq!(out.op(folded).kind, OpKind::Const);
        assert_eq!(out.op(folded).imm, Some(99));
        assert_eq!(out.op(folded).name, "a");
        assert_eq!(out.num_deps(), 1);
    }

    #[test]
    fn replace_preserves_edge_multiplicity() {
        // a, b (≡ a) both feed c; merging b into a must leave TWO a→c edges
        let mut bld = DfgBuilder::new("m");
        let a = bld.op(OpKind::Load, "x");
        let b = bld.op(OpKind::Load, "x");
        let c = bld.op(OpKind::Add, "c");
        bld.data(a, c);
        bld.data(b, c);
        let dfg = bld.build().unwrap();
        let actions = vec![OpRewrite::Keep, OpRewrite::ReplaceBy(a), OpRewrite::Keep];
        let out = apply(&dfg, &actions).unwrap();
        assert_eq!(out.num_ops(), 2);
        assert_eq!(out.num_deps(), 2, "duplicate operand edges must survive");
    }

    #[test]
    fn replace_keeps_the_redirected_operand_in_its_position() {
        // d = p - q - r; merging q into q2 must leave (p, q2, r), not
        // push the redirected edge to the end
        let mut bld = DfgBuilder::new("o");
        let p = bld.op(OpKind::Load, "p");
        let q = bld.op(OpKind::Load, "q");
        let q2 = bld.op(OpKind::Load, "q");
        let r = bld.op(OpKind::Load, "r");
        let d = bld.op(OpKind::Sub, "d");
        bld.data(p, d);
        bld.data(q, d);
        bld.data(r, d);
        bld.data(q2, d);
        let dfg = bld.build().unwrap();
        let mut actions = vec![OpRewrite::Keep; 5];
        actions[q.index()] = OpRewrite::ReplaceBy(q2);
        let (out, map) = apply_with_map(&dfg, &actions).unwrap();
        let image = |v: OpId| map[v.index()].unwrap();
        let operands: Vec<OpId> = out.graph().incoming(image(d)).map(|e| e.src).collect();
        assert_eq!(operands, [image(p), image(q2), image(r), image(q2)]);
    }

    #[test]
    fn dangling_use_and_bad_chains_are_refused() {
        let dfg = diamond();
        // removing c0 while keeping its consumer is a liveness bug
        let bad = vec![
            OpRewrite::Remove,
            OpRewrite::Keep,
            OpRewrite::Keep,
            OpRewrite::Keep,
        ];
        assert!(matches!(
            apply(&dfg, &bad),
            Err(RewriteError::DanglingUse { .. })
        ));
        // replacement loop
        let c0 = dfg.op_ids().next().unwrap();
        let c1 = dfg.op_ids().nth(1).unwrap();
        let looped = vec![
            OpRewrite::ReplaceBy(c1),
            OpRewrite::ReplaceBy(c0),
            OpRewrite::Keep,
            OpRewrite::Keep,
        ];
        assert!(matches!(
            apply(&dfg, &looped),
            Err(RewriteError::BadReplacement { .. })
        ));
        assert!(matches!(
            apply(&dfg, &[OpRewrite::Keep]),
            Err(RewriteError::WrongArity { .. })
        ));
        assert!(matches!(
            apply(&dfg, &[OpRewrite::Remove; 4]),
            Err(RewriteError::Empty)
        ));
    }

    #[test]
    fn back_edges_remap_with_distance() {
        let mut bld = DfgBuilder::new("b");
        let acc = bld.op(OpKind::Add, "acc");
        let dead = bld.op(OpKind::Const, "dead");
        bld.back(acc, acc, 2);
        let dfg = bld.build().unwrap();
        let out = apply(&dfg, &[OpRewrite::Keep, OpRewrite::Remove]).unwrap();
        assert_eq!(out.num_ops(), 1);
        let e = out.deps().next().unwrap();
        assert_eq!(e.weight.distance(), 2);
        let _ = dead;
    }
}
