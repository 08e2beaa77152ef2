//! Reference interpreter: executes a DFG's dataflow semantics directly,
//! iteration by iteration.
//!
//! The value model lives in [`crate::semantics`]; this module just runs
//! the dataflow fixpoint: each iteration evaluates ops in topological
//! order, back edges read `distance` iterations into the past (or the
//! pre-loop initial value).

use crate::semantics::{initial_value, op_value};
use panorama_dfg::{Dfg, OpId};

/// Per-iteration values of every operation, as computed by direct
/// dataflow interpretation.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// `values[iter][op]`.
    values: Vec<Vec<u64>>,
}

impl Interpretation {
    /// Value of `op` in iteration `iter`.
    ///
    /// # Panics
    ///
    /// Panics when `iter` exceeds the interpreted range.
    pub fn value(&self, op: OpId, iter: usize) -> u64 {
        self.values[iter][op.index()]
    }

    /// Number of iterations interpreted.
    pub fn iterations(&self) -> usize {
        self.values.len()
    }
}

/// Interprets `iterations` loop iterations of `dfg` under the abstract
/// value semantics of [`crate::semantics`].
///
/// # Panics
///
/// Panics when the DFG is invalid (call [`Dfg::validate`] first for
/// untrusted graphs).
pub fn interpret(dfg: &Dfg, iterations: usize) -> Interpretation {
    interpret_with(dfg, iterations, |op, iter, operands| {
        op_value(dfg, op, iter, operands.iter().copied())
    })
}

/// The dataflow fixpoint itself, for any value model: `value(op,
/// iteration, operands)` computes one op from its operand values in
/// incoming-edge order. Back edges reaching before the loop read
/// [`initial_value`] of their producer's name.
///
/// # Panics
///
/// As for [`interpret`].
pub fn interpret_with(
    dfg: &Dfg,
    iterations: usize,
    mut value: impl FnMut(OpId, u64, &[u64]) -> u64,
) -> Interpretation {
    let order = dfg.topo_order();
    let mut values: Vec<Vec<u64>> = Vec::with_capacity(iterations);
    for iter in 0..iterations {
        let mut row = vec![0u64; dfg.num_ops()];
        for &op in &order {
            let operands: Vec<u64> = dfg
                .graph()
                .incoming(op)
                .map(|e| {
                    let d = e.weight.distance() as i64;
                    if d == 0 {
                        row[e.src.index()]
                    } else if iter as i64 - d >= 0 {
                        values[(iter as i64 - d) as usize][e.src.index()]
                    } else {
                        initial_value(&dfg.op(e.src).name)
                    }
                })
                .collect();
            row[op.index()] = value(op, iter as u64, &operands);
        }
        values.push(row);
    }
    Interpretation { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::{DfgBuilder, OpKind};

    fn mac() -> Dfg {
        let mut b = DfgBuilder::new("mac");
        let a = b.op(OpKind::Load, "a");
        let x = b.op(OpKind::Load, "b");
        let m = b.op(OpKind::Mul, "m");
        let acc = b.op(OpKind::Add, "acc");
        b.data(a, m);
        b.data(x, m);
        b.data(m, acc);
        b.back(acc, acc, 1);
        b.build().unwrap()
    }

    #[test]
    fn deterministic() {
        let dfg = mac();
        let a = interpret(&dfg, 5);
        let b = interpret(&dfg, 5);
        for iter in 0..5 {
            for op in dfg.op_ids() {
                assert_eq!(a.value(op, iter), b.value(op, iter));
            }
        }
        assert_eq!(a.iterations(), 5);
    }

    #[test]
    fn loads_vary_per_iteration_constants_do_not() {
        let mut b = DfgBuilder::new("t");
        let l = b.op(OpKind::Load, "l");
        let c = b.op(OpKind::Const, "c");
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, 3);
        assert_ne!(i.value(l, 0), i.value(l, 1));
        assert_eq!(i.value(c, 0), i.value(c, 2));
    }

    #[test]
    fn values_are_input_sensitive() {
        let dfg = mac();
        let i = interpret(&dfg, 3);
        let m = OpId::from_index(2);
        // mul output differs across iterations because loads differ
        assert_ne!(i.value(m, 0), i.value(m, 1));
    }

    #[test]
    fn back_edge_uses_previous_iteration() {
        let dfg = mac();
        let i = interpret(&dfg, 4);
        let acc = OpId::from_index(3);
        let m = OpId::from_index(2);
        // recompute acc@2 from (m@2, acc@1) and compare
        let expect = op_value(
            &dfg,
            acc,
            2,
            vec![i.value(m, 2), i.value(acc, 1)].into_iter(),
        );
        assert_eq!(i.value(acc, 2), expect);
    }

    #[test]
    fn first_iteration_back_edge_uses_initial_value() {
        let dfg = mac();
        let i = interpret(&dfg, 1);
        let acc = OpId::from_index(3);
        let m = OpId::from_index(2);
        let expect = op_value(
            &dfg,
            acc,
            0,
            vec![i.value(m, 0), initial_value("acc")].into_iter(),
        );
        assert_eq!(i.value(acc, 0), expect);
    }

    #[test]
    fn distinct_loads_with_same_kind_differ() {
        let mut b = DfgBuilder::new("t");
        let l1 = b.op(OpKind::Load, "l1");
        let l2 = b.op(OpKind::Load, "l2");
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, 1);
        assert_ne!(i.value(l1, 0), i.value(l2, 0));
    }

    #[test]
    fn identical_subgraphs_compute_identical_values() {
        // Two adds fed by the same loads agree — the CSE precondition.
        let mut b = DfgBuilder::new("t");
        let l1 = b.op(OpKind::Load, "x");
        let l2 = b.op(OpKind::Load, "y");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Add, "a2");
        b.data(l1, a1);
        b.data(l2, a1);
        b.data(l1, a2);
        b.data(l2, a2);
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, 2);
        assert_eq!(i.value(a1, 0), i.value(a2, 0));
        assert_eq!(i.value(a1, 1), i.value(a2, 1));
    }
}
