//! Operation kinds carried by DFG nodes.

use std::fmt;

/// The kind of a DFG operation.
///
/// The set mirrors what a CGRA ALU executes in one cycle (the paper's PEs
/// are single-cycle ALUs); memory operations additionally require a PE with
/// memory-bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Memory load (needs a memory-capable PE).
    Load,
    /// Memory store (needs a memory-capable PE).
    Store,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Shift (left/right).
    Shift,
    /// Bitwise logic (and/or/xor).
    Logic,
    /// Comparison.
    Cmp,
    /// Two-way select (predicated move).
    Select,
    /// Loop-invariant constant materialisation.
    Const,
}

impl OpKind {
    /// Whether this operation must be placed on a memory-capable PE.
    pub fn needs_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Execution latency in cycles. All ALU and memory operations complete
    /// in a single cycle on the modelled CGRA, matching the paper's
    /// single-cycle PE assumption.
    pub fn latency(self) -> u32 {
        1
    }

    /// Short mnemonic, used in DOT dumps and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Shift => "shl",
            OpKind::Logic => "and",
            OpKind::Cmp => "cmp",
            OpKind::Select => "sel",
            OpKind::Const => "cst",
        }
    }

    /// Whether the op's result is independent of the order of its
    /// operands. Operand order is incoming-edge order (a DFG contract the
    /// text format and the rewriter preserve); only for these kinds may a
    /// rewrite treat the operands as a multiset.
    pub fn is_commutative(self) -> bool {
        matches!(self, OpKind::Add | OpKind::Mul | OpKind::Logic)
    }

    /// All operation kinds, for exhaustive iteration in tests.
    pub const ALL: [OpKind; 10] = [
        OpKind::Load,
        OpKind::Store,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Shift,
        OpKind::Logic,
        OpKind::Cmp,
        OpKind::Select,
        OpKind::Const,
    ];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One DFG operation: a kind plus a human-readable name for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    /// Operation kind.
    pub kind: OpKind,
    /// Diagnostic name (e.g. `"mul_3_7"`); not semantically meaningful.
    pub name: String,
    /// Explicit immediate value. Only meaningful on [`OpKind::Const`]:
    /// a `Const` with an immediate produces exactly this value, while a
    /// `Const` without one produces a value derived from its name. The
    /// optimizer uses immediates to materialise folded constant subgraphs.
    pub imm: Option<u64>,
}

impl Op {
    /// Creates an operation with the given kind and name.
    pub fn new(kind: OpKind, name: impl Into<String>) -> Self {
        Op {
            kind,
            name: name.into(),
            imm: None,
        }
    }

    /// Creates a `Const` operation carrying an explicit immediate value.
    pub fn constant(name: impl Into<String>, value: u64) -> Self {
        Op {
            kind: OpKind::Const,
            name: name.into(),
            imm: Some(value),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_classification() {
        assert!(OpKind::Load.needs_memory());
        assert!(OpKind::Store.needs_memory());
        assert!(!OpKind::Add.needs_memory());
        assert!(!OpKind::Const.needs_memory());
    }

    #[test]
    fn all_kinds_have_unit_latency_and_mnemonics() {
        for k in OpKind::ALL {
            assert_eq!(k.latency(), 1);
            assert!(!k.mnemonic().is_empty());
        }
    }

    #[test]
    fn display_round_trip() {
        let op = Op::new(OpKind::Mul, "m0");
        assert_eq!(op.to_string(), "mul:m0");
    }

    #[test]
    fn constant_carries_immediate() {
        let op = Op::constant("c0", 42);
        assert_eq!(op.kind, OpKind::Const);
        assert_eq!(op.imm, Some(42));
        assert_eq!(Op::new(OpKind::Const, "c1").imm, None);
    }
}
