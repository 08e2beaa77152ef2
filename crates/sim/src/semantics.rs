//! The value semantics of a DFG — the one ALU every oracle, the
//! optimizer and the data-carrying machine agree on.
//!
//! Values are 64-bit words under real two's-complement wrapping
//! arithmetic, so a configware encoder that selects the wrong operand,
//! drops a token or latches a register one cycle late produces a
//! concretely wrong number, and a rewrite that swaps the operands of a
//! subtraction produces a concretely different store.
//!
//! **Operand order is incoming-edge order.** [`compute`] receives an op's
//! operands in the order its incoming edges were added to the graph, the
//! same order `Configware` records its operand selectors in and the order
//! `dfg::text` and `dfg::rewrite` preserve. Only the kinds for which
//! [`OpKind::is_commutative`] holds may be treated as taking a multiset.
//!
//! The functions are **structure-free**: a computed value depends only on
//! the operation kind and the operand values, a load only on its name,
//! the iteration and the chosen [`InputVectors`], a constant only on its
//! name (or explicit immediate). Node ids never enter. That is what lets
//! the `panorama-analyze` rewriter renumber, merge and fold operations
//! while [`crate::interpret`] still certifies the result equivalent.
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

/// SplitMix64 finaliser: a cheap, high-quality 64-bit mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the bytes of `s`: how op names enter the value model.
pub fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The loop-invariant value a `Const` operation materialises: its
/// explicit immediate when present, otherwise a hash of its name.
pub fn const_value(op: &Op) -> u64 {
    op.imm.unwrap_or_else(|| mix(hash_str(&op.name)))
}

/// The value an operation named `name` carried from before the loop
/// started (back edges reaching "negative" iterations).
pub fn initial_value(name: &str) -> u64 {
    mix(hash_str(name) ^ 0xDEAD_BEEF)
}

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

/// ALU semantics of a computational op over its operands, in
/// incoming-edge order. `Load` and `Const` never reach here (dispatched
/// in [`op_value`]).
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
/// incoming-edge order.
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
    fn is_commutative_names_exactly_the_order_free_arms() {
        // distinct, non-trivial operands: any order-sensitive arm tells
        // at least one permutation apart
        let perms: [[u64; 3]; 6] = [
            [1, 5, 3],
            [1, 3, 5],
            [5, 1, 3],
            [5, 3, 1],
            [3, 1, 5],
            [3, 5, 1],
        ];
        for kind in OpKind::ALL {
            if matches!(kind, OpKind::Load | OpKind::Const | OpKind::Store) {
                assert!(!kind.is_commutative());
                continue;
            }
            let order_free = perms
                .iter()
                .all(|p| compute(kind, p) == compute(kind, &perms[0]));
            assert_eq!(kind.is_commutative(), order_free, "{kind}");
        }
        // multiplicity still matters: add(x, x) != add(x)
        assert_ne!(compute(OpKind::Add, &[7]), compute(OpKind::Add, &[7, 7]));
    }

    #[test]
    fn const_immediate_is_exact() {
        let op = Op::constant("c", 1234);
        assert_eq!(const_value(&op), 1234);
        let named = Op::new(OpKind::Const, "c");
        assert_ne!(const_value(&named), 1234); // name-derived, stable
        assert_eq!(const_value(&named), const_value(&named));
        assert_ne!(initial_value("a"), initial_value("b"));
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
