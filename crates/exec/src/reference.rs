//! Golden reference: direct dataflow interpretation of the DFG under the
//! concrete value semantics.
//!
//! This is the fixpoint of `panorama_sim::interpret` — each iteration
//! evaluates ops in topological order, back edges read `distance`
//! iterations into the past (or the pre-loop initial value) — run with
//! real arithmetic on a chosen input vector as its value function. The
//! cycle-accurate machine must reproduce these values token for token.

use crate::values::{op_value, InputVectors};
use panorama_dfg::Dfg;
use panorama_sim::interpret_with;

/// Per-iteration concrete values of every operation.
pub use panorama_sim::Interpretation as Reference;

/// Interprets `iterations` loop iterations of `dfg` under `inputs`.
///
/// # Panics
///
/// Panics when the DFG is invalid (call [`Dfg::validate`] first for
/// untrusted graphs).
pub fn interpret(dfg: &Dfg, inputs: &InputVectors, iterations: usize) -> Reference {
    interpret_with(dfg, iterations, |op, iter, operands| {
        op_value(dfg.op(op), iter, operands, inputs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::VectorKind;
    use panorama_dfg::{DfgBuilder, OpId, OpKind};
    use panorama_sim::semantics::initial_value;

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
    fn mac_is_a_real_multiply_accumulate_under_ones() {
        let dfg = mac();
        let inputs = InputVectors::new(VectorKind::Ones, 0);
        let r = interpret(&dfg, &inputs, 3);
        let m = OpId::from_index(2);
        let acc = OpId::from_index(3);
        assert_eq!(r.value(m, 0), 1, "1 * 1");
        // acc@0 = m@0 + initial_value("acc"); then +1 each iteration
        let init = initial_value("acc");
        assert_eq!(r.value(acc, 0), init.wrapping_add(1));
        assert_eq!(r.value(acc, 2), init.wrapping_add(3));
    }

    #[test]
    fn zeros_vector_annihilates_products() {
        let dfg = mac();
        let inputs = InputVectors::new(VectorKind::Zeros, 0);
        let r = interpret(&dfg, &inputs, 2);
        assert_eq!(r.value(OpId::from_index(2), 1), 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let dfg = mac();
        let inputs = InputVectors::new(VectorKind::Seeded, 7);
        let a = interpret(&dfg, &inputs, 4);
        let b = interpret(&dfg, &inputs, 4);
        for iter in 0..4 {
            for op in dfg.op_ids() {
                assert_eq!(a.value(op, iter), b.value(op, iter));
            }
        }
        assert_eq!(a.iterations(), 4);
    }
}
