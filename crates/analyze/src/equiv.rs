//! Equivalence checking between an original DFG and its optimized
//! rewrite, using the reference interpreter as the oracle.
//!
//! The rewriter returns an explicit old-op → new-op mapping, so the
//! protocol is exact rather than heuristic:
//!
//! 1. every *observable* op (a `Store`, or any sink — an op with no
//!    consumers) must survive the rewrite (map to some optimized op);
//! 2. every surviving op must compute byte-identical values to its image
//!    in every interpreted iteration, under every input-vector family
//!    ([`VectorKind::ALL`]: one seeded stream plus the four boundary
//!    vectors the data-carrying machine is executed under).
//!
//! This is strictly stronger than comparing observable outputs alone: a
//! CSE victim must agree with its representative, a folded op with its
//! constant. Non-observable ops may be dropped (dead-code elimination)
//! but never altered. Both graphs run through `panorama_sim::interpret`,
//! the same interpreter and ALU `panorama_exec::execute` holds the
//! emitted configware to, so "equivalent" here and "value-correct" there
//! are one notion.

use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_sim::interpret;
use panorama_sim::semantics::{InputVectors, VectorKind};
use std::error::Error;
use std::fmt;

/// Seed of the pseudo-random vector the check interprets under (the
/// boundary vectors ignore it). Fixed, so a verdict is reproducible.
const EQUIV_SEED: u64 = 42;

/// Equivalence violation found by [`check_mapped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The map does not have one entry per original op.
    MapArity {
        /// Ops in the original graph.
        ops: usize,
        /// Entries in the supplied map.
        entries: usize,
    },
    /// An observable op (store or sink) was rewritten away.
    ObservableDropped {
        /// The dropped op's id in the original graph.
        op: OpId,
        /// The dropped op's name.
        name: String,
    },
    /// A surviving op disagrees with its image in some iteration.
    ValueMismatch {
        /// The op's id in the original graph.
        original: OpId,
        /// Its image in the optimized graph.
        optimized: OpId,
        /// Input-vector family ([`VectorKind::name`]) they diverge under.
        vector: &'static str,
        /// First iteration where the values diverge.
        iteration: usize,
        /// Value the original computes.
        expected: u64,
        /// Value the optimized image computes.
        got: u64,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::MapArity { ops, entries } => {
                write!(f, "{entries} map entr(ies) for {ops} op(s)")
            }
            EquivError::ObservableDropped { op, name } => {
                write!(f, "observable op {op} ({name}) was rewritten away")
            }
            EquivError::ValueMismatch {
                original,
                optimized,
                vector,
                iteration,
                expected,
                got,
            } => write!(
                f,
                "op {original} -> {optimized} diverges under the {vector} vector \
                 in iteration {iteration}: expected {expected:#x}, got {got:#x}"
            ),
        }
    }
}

impl Error for EquivError {}

/// Whether `op` is observable: a `Store`, or a sink (no outgoing edges).
/// Observable ops are the DFG's outputs; a semantics-preserving rewrite
/// must keep each one and its per-iteration values.
pub fn is_observable(dfg: &Dfg, op: OpId) -> bool {
    dfg.op(op).kind == OpKind::Store || dfg.graph().outgoing(op).next().is_none()
}

/// Checks that `optimized` is equivalent to `original` under `map`
/// (old-op → new-op, `None` for removed ops) by interpreting both for
/// `iterations` iterations under every input-vector family.
///
/// # Errors
///
/// Returns the first violation — dropped observables first, then value
/// mismatches by vector family and ascending original-op order; see
/// [`EquivError`].
///
/// # Panics
///
/// Panics when a map entry points outside `optimized` (the rewriter
/// never produces such a map).
pub fn check_mapped(
    original: &Dfg,
    optimized: &Dfg,
    map: &[Option<OpId>],
    iterations: usize,
) -> Result<(), EquivError> {
    if map.len() != original.num_ops() {
        return Err(EquivError::MapArity {
            ops: original.num_ops(),
            entries: map.len(),
        });
    }
    for op in original.op_ids() {
        if map[op.index()].is_none() && is_observable(original, op) {
            return Err(EquivError::ObservableDropped {
                op,
                name: original.op(op).name.clone(),
            });
        }
    }
    for kind in VectorKind::ALL {
        let inputs = InputVectors::new(kind, EQUIV_SEED);
        let before = interpret(original, &inputs, iterations);
        let after = interpret(optimized, &inputs, iterations);
        for op in original.op_ids() {
            let Some(image) = map[op.index()] else {
                continue;
            };
            for iter in 0..iterations {
                let expected = before.value(op, iter);
                let got = after.value(image, iter);
                if expected != got {
                    return Err(EquivError::ValueMismatch {
                        original: op,
                        optimized: image,
                        vector: kind.name(),
                        iteration: iter,
                        expected,
                        got,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::rewrite::{apply_with_map, OpRewrite};
    use panorama_dfg::DfgBuilder;

    fn dupes() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "x");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Add, "a2");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a1);
        b.data(l, a2);
        b.data(a1, s);
        b.data(a2, s);
        b.build().unwrap()
    }

    #[test]
    fn merging_equivalent_ops_passes() {
        let dfg = dupes();
        let a1 = OpId::from_index(1);
        let actions = vec![
            OpRewrite::Keep,
            OpRewrite::Keep,
            OpRewrite::ReplaceBy(a1),
            OpRewrite::Keep,
        ];
        let (out, map) = apply_with_map(&dfg, &actions).unwrap();
        check_mapped(&dfg, &out, &map, 4).unwrap();
    }

    #[test]
    fn merging_inequivalent_ops_is_caught() {
        // a2 is x * x, not x + x: replacing it by a1 changes values
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "x");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Mul, "a2");
        let s = b.op(OpKind::Store, "s");
        b.data(l, a1);
        b.data(l, a1);
        b.data(l, a2);
        b.data(l, a2);
        b.data(a1, s);
        b.data(a2, s);
        let dfg = b.build().unwrap();
        let actions = vec![
            OpRewrite::Keep,
            OpRewrite::Keep,
            OpRewrite::ReplaceBy(a1),
            OpRewrite::Keep,
        ];
        let (out, map) = apply_with_map(&dfg, &actions).unwrap();
        // the store's second operand now holds a1's value, so the store
        // itself diverges
        assert!(matches!(
            check_mapped(&dfg, &out, &map, 3),
            Err(EquivError::ValueMismatch { .. })
        ));
    }

    #[test]
    fn dropping_an_observable_is_caught() {
        let dfg = dupes();
        let map = vec![
            Some(OpId::from_index(0)),
            Some(OpId::from_index(1)),
            Some(OpId::from_index(2)),
            None,
        ];
        assert!(matches!(
            check_mapped(&dfg, &dfg, &map, 2),
            Err(EquivError::ObservableDropped { .. })
        ));
        assert!(matches!(
            check_mapped(&dfg, &dfg, &[], 2),
            Err(EquivError::MapArity { .. })
        ));
    }

    #[test]
    fn observability_is_store_or_sink() {
        let dfg = dupes();
        assert!(!is_observable(&dfg, OpId::from_index(0)));
        assert!(is_observable(&dfg, OpId::from_index(3)));
        let mut b = DfgBuilder::new("s");
        let l = b.op(OpKind::Load, "x");
        let sink = b.op(OpKind::Add, "a");
        b.data(l, sink);
        let g = b.build().unwrap();
        assert!(is_observable(&g, sink), "non-store sinks are observable");
    }
}
