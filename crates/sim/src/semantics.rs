//! The abstract value semantics every PANORAMA oracle agrees on.
//!
//! Actual arithmetic is irrelevant to mapping correctness — what matters
//! is that every operation's value is a *deterministic, input-sensitive*
//! function of its operands, so any mis-delivered operand changes the
//! observed result. Operations therefore compute a collision-resistant
//! mix of their inputs (commutative, because CGRA operand ports are not
//! ordered in this model).
//!
//! The functions here are deliberately **structure-free**: a computed
//! value depends only on the operation kind and the operand values, a
//! load only on its name and the iteration, and a constant only on its
//! name (or explicit immediate). Node ids never enter the mix. That
//! property is what lets the `panorama-analyze` rewriter renumber, merge
//! and fold operations while the reference interpreter still certifies
//! the result equivalent.

use panorama_dfg::{Dfg, Op, OpId, OpKind};

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

/// The value a `Load` named `name` observes in `iteration` (fresh data
/// arrives every loop iteration).
pub fn load_value(name: &str, iteration: u64) -> u64 {
    mix(hash_str(name) ^ mix(iteration.wrapping_add(1)))
}

/// The value a computational operation of `kind` produces from its
/// (unordered, multiplicity-sensitive) operand values.
pub fn compute_value(kind: OpKind, inputs: impl Iterator<Item = u64>) -> u64 {
    let tag = mix((kind.mnemonic().len() as u64) ^ hash_str(kind.mnemonic()));
    let folded = inputs.fold(0u64, |acc, v| acc.wrapping_add(mix(v)));
    mix(tag ^ folded)
}

/// The value an operation named `name` carried from before the loop
/// started (back edges reaching "negative" iterations).
pub fn initial_value(name: &str) -> u64 {
    mix(hash_str(name) ^ 0xDEAD_BEEF)
}

/// The value `op` produces in `iteration` given its operand values —
/// dispatch over the three semantic classes above.
pub fn op_value(dfg: &Dfg, op: OpId, iteration: u64, inputs: impl Iterator<Item = u64>) -> u64 {
    let node = dfg.op(op);
    match node.kind {
        OpKind::Const => const_value(node),
        OpKind::Load => load_value(&node.name, iteration),
        kind => compute_value(kind, inputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_do_not_depend_on_structure() {
        // Two adds over the same operand values agree, whatever their
        // names — the property CSE relies on.
        let a = compute_value(OpKind::Add, [1u64, 2].into_iter());
        let b = compute_value(OpKind::Add, [2u64, 1].into_iter());
        assert_eq!(a, b, "operand order must not matter");
        let c = compute_value(OpKind::Sub, [1u64, 2].into_iter());
        assert_ne!(a, c, "kind must matter");
        // ... but multiplicity does: add(x, x) != add(x).
        let once = compute_value(OpKind::Add, [7u64].into_iter());
        let twice = compute_value(OpKind::Add, [7u64, 7].into_iter());
        assert_ne!(once, twice);
    }

    #[test]
    fn const_immediate_is_exact() {
        let op = panorama_dfg::Op::constant("c", 1234);
        assert_eq!(const_value(&op), 1234);
        let named = panorama_dfg::Op::new(OpKind::Const, "c");
        assert_ne!(const_value(&named), 1234 + 1); // name-derived, stable
        assert_eq!(const_value(&named), const_value(&named));
    }

    #[test]
    fn loads_are_name_and_iteration_sensitive() {
        assert_ne!(load_value("a", 0), load_value("a", 1));
        assert_ne!(load_value("a", 0), load_value("b", 0));
        assert_ne!(initial_value("a"), initial_value("b"));
    }
}
