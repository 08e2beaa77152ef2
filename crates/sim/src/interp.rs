//! Reference interpreter: executes a DFG's dataflow semantics directly,
//! iteration by iteration.
//!
//! The value model lives in [`crate::semantics`]; this module just runs
//! the dataflow fixpoint: each iteration evaluates ops in topological
//! order, each op sees its operands in incoming-edge order, back edges
//! read `distance` iterations into the past (or the pre-loop initial
//! value). Every consumer of "what does this DFG compute" — the
//! optimizer's equivalence check, the data-carrying machine's golden
//! reference, the fuzz oracles — calls [`interpret`].

use crate::semantics::{initial_value, op_value, InputVectors};
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

/// Interprets `iterations` loop iterations of `dfg` with every `Load`
/// observing `inputs`. Back edges reaching before the loop read
/// [`initial_value`] of their producer's name.
///
/// # Panics
///
/// Panics when the DFG is invalid (call [`Dfg::validate`] first for
/// untrusted graphs).
pub fn interpret(dfg: &Dfg, inputs: &InputVectors, iterations: usize) -> Interpretation {
    let order = dfg.topo_order();
    let mut values: Vec<Vec<u64>> = Vec::with_capacity(iterations);
    let mut operands = Vec::new();
    for iter in 0..iterations {
        let mut row = vec![0u64; dfg.num_ops()];
        for &op in &order {
            operands.clear();
            operands.extend(dfg.graph().incoming(op).map(|e| {
                let d = e.weight.distance() as i64;
                if d == 0 {
                    row[e.src.index()]
                } else if iter as i64 - d >= 0 {
                    values[(iter as i64 - d) as usize][e.src.index()]
                } else {
                    initial_value(&dfg.op(e.src).name)
                }
            }));
            row[op.index()] = op_value(dfg.op(op), iter as u64, &operands, inputs);
        }
        values.push(row);
    }
    Interpretation { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{compute, VectorKind};
    use panorama_dfg::{DfgBuilder, OpKind};

    /// `acc += a * b`, with the ids of the product and the accumulator.
    fn mac() -> (Dfg, OpId, OpId) {
        let mut b = DfgBuilder::new("mac");
        let a = b.op(OpKind::Load, "a");
        let x = b.op(OpKind::Load, "b");
        let m = b.op(OpKind::Mul, "m");
        let acc = b.op(OpKind::Add, "acc");
        b.data(a, m);
        b.data(x, m);
        b.data(m, acc);
        b.back(acc, acc, 1);
        (b.build().unwrap(), m, acc)
    }

    fn seeded() -> InputVectors {
        InputVectors::new(VectorKind::Seeded, 7)
    }

    #[test]
    fn mac_is_a_real_multiply_accumulate_under_ones() {
        let (dfg, m, acc) = mac();
        let r = interpret(&dfg, &InputVectors::new(VectorKind::Ones, 0), 3);
        assert_eq!(r.value(m, 0), 1, "1 * 1");
        // acc@0 = m@0 + initial_value("acc"); then +1 each iteration
        let init = initial_value("acc");
        assert_eq!(r.value(acc, 0), init.wrapping_add(1));
        assert_eq!(r.value(acc, 2), init.wrapping_add(3));
    }

    #[test]
    fn zeros_vector_annihilates_products() {
        let (dfg, m, _) = mac();
        let r = interpret(&dfg, &InputVectors::new(VectorKind::Zeros, 0), 2);
        assert_eq!(r.value(m, 1), 0);
    }

    #[test]
    fn seeded_runs_are_reproducible_and_input_sensitive() {
        let (dfg, m, _) = mac();
        let a = interpret(&dfg, &seeded(), 5);
        let b = interpret(&dfg, &seeded(), 5);
        for iter in 0..5 {
            for op in dfg.op_ids() {
                assert_eq!(a.value(op, iter), b.value(op, iter));
            }
        }
        assert_eq!(a.iterations(), 5);
        // the product differs across iterations because the loads do
        assert_ne!(a.value(m, 0), a.value(m, 1));
    }

    #[test]
    fn loads_vary_per_iteration_and_name_constants_do_not() {
        let mut b = DfgBuilder::new("t");
        let l1 = b.op(OpKind::Load, "l1");
        let l2 = b.op(OpKind::Load, "l2");
        let c = b.op(OpKind::Const, "c");
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, &seeded(), 3);
        assert_ne!(i.value(l1, 0), i.value(l1, 1));
        assert_ne!(i.value(l1, 0), i.value(l2, 0));
        assert_eq!(i.value(c, 0), i.value(c, 2));
    }

    #[test]
    fn back_edge_reads_the_previous_iteration_or_the_initial_value() {
        let (dfg, m, acc) = mac();
        let i = interpret(&dfg, &seeded(), 4);
        // acc's operands in incoming-edge order: (m, acc[-1])
        assert_eq!(
            i.value(acc, 2),
            compute(OpKind::Add, &[i.value(m, 2), i.value(acc, 1)])
        );
        assert_eq!(
            i.value(acc, 0),
            compute(OpKind::Add, &[i.value(m, 0), initial_value("acc")])
        );
    }

    #[test]
    fn operands_arrive_in_incoming_edge_order() {
        // d0 = x - y and d1 = y - x differ only in edge order
        let mut b = DfgBuilder::new("t");
        let x = b.op(OpKind::Load, "x");
        let y = b.op(OpKind::Load, "y");
        let d0 = b.op(OpKind::Sub, "d0");
        let d1 = b.op(OpKind::Sub, "d1");
        b.data(x, d0);
        b.data(y, d0);
        b.data(y, d1);
        b.data(x, d1);
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, &seeded(), 2);
        for iter in 0..2 {
            assert_eq!(
                i.value(d0, iter),
                i.value(x, iter).wrapping_sub(i.value(y, iter))
            );
            assert_eq!(i.value(d1, iter), i.value(d0, iter).wrapping_neg());
        }
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
        b.data(l2, a2);
        b.data(l1, a2);
        let dfg = b.build().unwrap();
        let i = interpret(&dfg, &seeded(), 2);
        assert_eq!(i.value(a1, 0), i.value(a2, 0));
        assert_eq!(i.value(a1, 1), i.value(a2, 1));
    }
}
