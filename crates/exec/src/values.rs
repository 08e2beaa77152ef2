//! Concrete two's-complement value semantics for data-level execution.
//!
//! The structural oracles in `panorama-sim` use structure-free hash
//! mixing, which certifies *routing* but deliberately erases arithmetic.
//! Execution instead computes real wrapping 64-bit arithmetic, so a
//! configware encoder that selects the wrong operand, drops a token, or
//! latches a register one cycle late produces a concretely wrong number.
//!
//! Operand order matters here (unlike the commutative hash semantics):
//! both the reference interpreter and the machine agree on the op's
//! incoming-edge order, the same order `Configware` records its
//! [`panorama_mapper::OperandSel`]s in.
//!
//! ## Edge-case policy
//!
//! - All arithmetic wraps (two's complement); overflow is never a fault.
//! - Shift amounts are masked to the word width (`amount & 63`), the
//!   hardware wrap rule, so "shift by ≥ width" is well defined.
//! - The DFG op set has **no division op** (single-cycle ALU, per the
//!   paper), so the canonical division edge cases (`x / 0`,
//!   `INT_MIN / -1`) have no carrier; their overflow analogs (wrapping
//!   negation of `i64::MIN`, full-width shifts) are covered instead.

use panorama_dfg::{Op, OpKind};
use panorama_sim::semantics::{const_value, hash_str, mix};

/// The deterministic input-vector families every kernel is executed
/// under: one seeded pseudo-random stream plus the boundary vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKind {
    /// Per-(load, iteration) pseudo-random words derived from the seed.
    Seeded,
    /// Every load observes 0 in every iteration.
    Zeros,
    /// Every load observes 1 in every iteration.
    Ones,
    /// Every load observes `i32::MIN` (sign-extended) — the negative
    /// overflow boundary.
    I32Min,
    /// Every load observes `i32::MAX` — the positive overflow boundary.
    I32Max,
}

impl VectorKind {
    /// All vector families, in the order execution runs them.
    pub const ALL: [VectorKind; 5] = [
        VectorKind::Seeded,
        VectorKind::Zeros,
        VectorKind::Ones,
        VectorKind::I32Min,
        VectorKind::I32Max,
    ];

    /// Stable name used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            VectorKind::Seeded => "seeded",
            VectorKind::Zeros => "zeros",
            VectorKind::Ones => "ones",
            VectorKind::I32Min => "i32-min",
            VectorKind::I32Max => "i32-max",
        }
    }
}

/// A concrete input assignment: what every `Load` observes in every
/// iteration.
#[derive(Debug, Clone, Copy)]
pub struct InputVectors {
    kind: VectorKind,
    seed: u64,
}

impl InputVectors {
    /// Input vectors of `kind`; `seed` only matters for
    /// [`VectorKind::Seeded`].
    pub fn new(kind: VectorKind, seed: u64) -> InputVectors {
        InputVectors { kind, seed }
    }

    /// Which family this is.
    pub fn kind(&self) -> VectorKind {
        self.kind
    }

    /// The word the load named `name` observes in `iteration`.
    pub fn load(&self, name: &str, iteration: u64) -> u64 {
        match self.kind {
            VectorKind::Seeded => mix(self.seed ^ hash_str(name) ^ mix(iteration.wrapping_add(1))),
            VectorKind::Zeros => 0,
            VectorKind::Ones => 1,
            VectorKind::I32Min => i64::from(i32::MIN) as u64,
            VectorKind::I32Max => i64::from(i32::MAX) as u64,
        }
    }
}

/// Concrete ALU semantics of a computational op over its operands, in
/// dependence order. `Load` and `Const` never reach here (dispatched in
/// [`op_value`]).
pub fn compute(kind: OpKind, operands: &[u64]) -> u64 {
    let mut it = operands.iter().copied();
    match kind {
        OpKind::Add => operands.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
        OpKind::Sub => {
            let first = it.next().unwrap_or(0);
            it.fold(first, u64::wrapping_sub)
        }
        OpKind::Mul => operands.iter().fold(1u64, |a, &v| a.wrapping_mul(v)),
        OpKind::Shift => {
            let first = it.next().unwrap_or(0);
            // the amount is masked to the word width — hardware wrap rule
            it.fold(first, |a, v| a << (v & 63))
        }
        OpKind::Logic => operands.iter().fold(!0u64, |a, &v| a & v),
        OpKind::Cmp => {
            let first = it.next().unwrap_or(0);
            it.fold(first, |a, v| u64::from((a as i64) < (v as i64)))
        }
        OpKind::Select => {
            let c = operands.first().copied().unwrap_or(0);
            let t = operands.get(1).copied().unwrap_or(0);
            let e = operands.get(2).copied().unwrap_or(0);
            if c != 0 {
                t
            } else {
                e
            }
        }
        // a store streams its operands out; its token folds all of them
        // so the output digest is sensitive to every stored input
        OpKind::Store => operands.iter().fold(0u64, |a, &v| a ^ v),
        OpKind::Load | OpKind::Const => unreachable!("dispatched in op_value"),
    }
}

/// The value `op` produces in `iteration` given its operand values in
/// dependence order.
pub fn op_value(op: &Op, iteration: u64, operands: &[u64], inputs: &InputVectors) -> u64 {
    match op.kind {
        OpKind::Const => const_value(op),
        OpKind::Load => inputs.load(&op.name, iteration),
        kind => compute(kind, operands),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps_instead_of_trapping() {
        assert_eq!(compute(OpKind::Add, &[u64::MAX, 1]), 0);
        assert_eq!(compute(OpKind::Sub, &[0, 1]), u64::MAX);
        assert_eq!(compute(OpKind::Mul, &[1u64 << 63, 2]), 0);
        // negating i64::MIN wraps back to itself — the division-free
        // analog of the INT_MIN / -1 overflow case
        assert_eq!(compute(OpKind::Sub, &[0, i64::MIN as u64]), i64::MIN as u64);
    }

    #[test]
    fn shift_amounts_mask_to_word_width() {
        assert_eq!(compute(OpKind::Shift, &[1, 64]), 1, "shl 64 wraps to shl 0");
        assert_eq!(compute(OpKind::Shift, &[1, 65]), 2, "shl 65 wraps to shl 1");
        assert_eq!(compute(OpKind::Shift, &[3, 63]), 1u64 << 63);
    }

    #[test]
    fn operand_order_matters_for_noncommutative_kinds() {
        assert_ne!(compute(OpKind::Sub, &[5, 3]), compute(OpKind::Sub, &[3, 5]));
        assert_ne!(compute(OpKind::Cmp, &[5, 3]), compute(OpKind::Cmp, &[3, 5]));
        assert_ne!(
            compute(OpKind::Select, &[1, 10, 20]),
            compute(OpKind::Select, &[1, 20, 10])
        );
    }

    #[test]
    fn vectors_are_deterministic_and_distinct() {
        let a = InputVectors::new(VectorKind::Seeded, 42);
        let b = InputVectors::new(VectorKind::Seeded, 42);
        assert_eq!(a.load("x", 3), b.load("x", 3));
        let c = InputVectors::new(VectorKind::Seeded, 43);
        assert_ne!(a.load("x", 3), c.load("x", 3));
        assert_ne!(a.load("x", 0), a.load("x", 1));
        assert_ne!(a.load("x", 0), a.load("y", 0));
        let min = InputVectors::new(VectorKind::I32Min, 0);
        assert_eq!(min.load("x", 9), 0xFFFF_FFFF_8000_0000);
    }
}
