//! A line-oriented text format for DFGs — the hand-off point where the
//! original toolchain's LLVM frontend would deliver extracted kernels.
//!
//! ```text
//! dfg fir
//! op 0 ld x0
//! op 1 cst c0
//! op 2 mul m0_0
//! edge 0 2
//! edge 1 2
//! back 2 0 1
//! ```
//!
//! `op <id> <kind> <name> [imm]` declares operation `<id>` (ids must be
//! dense and ascending; the optional trailing integer is an explicit
//! constant immediate), `edge <src> <dst>` an intra-iteration dependency,
//! and `back <src> <dst> <distance>` a loop-carried one. Blank lines and
//! `#` comments are ignored. The order of an op's `edge`/`back` lines is
//! its operand order (`sub`'s first incoming edge is the minuend); the
//! writer emits edges in insertion order, so a round trip preserves it.

use crate::{Dfg, DfgBuilder, OpId, OpKind};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error produced by [`Dfg::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDfgError {
    /// A line did not match any directive.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown operation mnemonic.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The offending mnemonic.
        kind: String,
    },
    /// Op ids must be declared densely in ascending order.
    NonDenseId {
        /// 1-based line number.
        line: usize,
    },
    /// An edge referenced an undeclared op.
    DanglingId {
        /// 1-based line number.
        line: usize,
    },
    /// The assembled graph failed [`Dfg::validate`].
    Invalid(crate::DfgError),
}

impl fmt::Display for ParseDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDfgError::BadLine { line } => write!(f, "unparseable directive at line {line}"),
            ParseDfgError::UnknownKind { line, kind } => {
                write!(f, "unknown op kind `{kind}` at line {line}")
            }
            ParseDfgError::NonDenseId { line } => {
                write!(f, "op ids must be dense and ascending (line {line})")
            }
            ParseDfgError::DanglingId { line } => {
                write!(f, "edge references an undeclared op at line {line}")
            }
            ParseDfgError::Invalid(e) => write!(f, "parsed DFG is invalid: {e}"),
        }
    }
}

impl Error for ParseDfgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseDfgError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

fn kind_from_mnemonic(s: &str) -> Option<OpKind> {
    OpKind::ALL.iter().copied().find(|k| k.mnemonic() == s)
}

impl Dfg {
    /// Serialises the DFG in the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "dfg {}", self.name());
        for v in self.op_ids() {
            let op = self.op(v);
            match op.imm {
                Some(imm) => {
                    let _ = writeln!(
                        out,
                        "op {} {} {} {}",
                        v.index(),
                        op.kind.mnemonic(),
                        op.name,
                        imm
                    );
                }
                None => {
                    let _ = writeln!(out, "op {} {} {}", v.index(), op.kind.mnemonic(), op.name);
                }
            }
        }
        for e in self.deps() {
            match e.weight {
                crate::Dep::Data => {
                    let _ = writeln!(out, "edge {} {}", e.src.index(), e.dst.index());
                }
                crate::Dep::Back { distance } => {
                    let _ = writeln!(out, "back {} {} {}", e.src.index(), e.dst.index(), distance);
                }
            }
        }
        out
    }

    /// Parses the text format back into a DFG.
    ///
    /// # Errors
    ///
    /// See [`ParseDfgError`]; the first offending line is reported.
    pub fn from_text(text: &str) -> Result<Dfg, ParseDfgError> {
        let mut name = String::from("unnamed");
        let mut builder: Option<DfgBuilder> = None;
        let mut declared = 0usize;
        let mut pending_edges: Vec<(usize, usize, usize, u32)> = Vec::new(); // line, src, dst, dist

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("dfg") => {
                    name = parts.next().unwrap_or("unnamed").to_string();
                }
                Some("op") => {
                    let id: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    let kind_str = parts
                        .next()
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    let op_name = parts.next().unwrap_or("_");
                    if id != declared {
                        return Err(ParseDfgError::NonDenseId { line: line_no });
                    }
                    let kind =
                        kind_from_mnemonic(kind_str).ok_or_else(|| ParseDfgError::UnknownKind {
                            line: line_no,
                            kind: kind_str.to_string(),
                        })?;
                    let imm = match parts.next() {
                        Some(tok) => Some(
                            tok.parse::<u64>()
                                .map_err(|_| ParseDfgError::BadLine { line: line_no })?,
                        ),
                        None => None,
                    };
                    builder
                        .get_or_insert_with(|| DfgBuilder::new(name.clone()))
                        .push_op(crate::Op {
                            kind,
                            name: op_name.to_string(),
                            imm,
                        });
                    declared += 1;
                }
                Some("edge") => {
                    let src: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    let dst: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    pending_edges.push((line_no, src, dst, 0));
                }
                Some("back") => {
                    let src: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    let dst: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    let dist: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or(ParseDfgError::BadLine { line: line_no })?;
                    if dist == 0 {
                        return Err(ParseDfgError::BadLine { line: line_no });
                    }
                    pending_edges.push((line_no, src, dst, dist));
                }
                _ => return Err(ParseDfgError::BadLine { line: line_no }),
            }
        }

        let mut b = builder.unwrap_or_else(|| DfgBuilder::new(name));
        for (line, src, dst, dist) in pending_edges {
            if src >= declared || dst >= declared {
                return Err(ParseDfgError::DanglingId { line });
            }
            let (s, d) = (OpId::from_index(src), OpId::from_index(dst));
            if dist == 0 {
                b.data(s, d);
            } else {
                b.back(s, d, dist);
            }
        }
        b.build().map_err(ParseDfgError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, KernelId, KernelScale, Op};

    #[test]
    fn round_trip_all_kernels() {
        for id in KernelId::ALL {
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let text = dfg.to_text();
            let back = Dfg::from_text(&text).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(back.num_ops(), dfg.num_ops(), "{id}");
            assert_eq!(back.num_deps(), dfg.num_deps(), "{id}");
            assert_eq!(back.num_back_edges(), dfg.num_back_edges(), "{id}");
            assert_eq!(back.stats(), dfg.stats(), "{id}");
            // operand order survives: same producers, same positions
            for v in dfg.op_ids() {
                let operands = |g: &Dfg| -> Vec<_> {
                    g.graph().incoming(v).map(|e| (e.src, *e.weight)).collect()
                };
                assert_eq!(operands(&back), operands(&dfg), "{id}: {v}");
            }
        }
    }

    #[test]
    fn parses_hand_written_format() {
        let text = "
            # a tiny MAC
            dfg mac
            op 0 ld a
            op 1 ld b
            op 2 mul m
            op 3 add acc
            edge 0 2
            edge 1 2
            edge 2 3
            back 3 3 1
        ";
        let dfg = Dfg::from_text(text).unwrap();
        assert_eq!(dfg.name(), "mac");
        assert_eq!(dfg.num_ops(), 4);
        assert_eq!(dfg.num_back_edges(), 1);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            Dfg::from_text("bogus directive"),
            Err(ParseDfgError::BadLine { line: 1 })
        ));
        assert!(matches!(
            Dfg::from_text("op 0 frobnicate x"),
            Err(ParseDfgError::UnknownKind { .. })
        ));
        assert!(matches!(
            Dfg::from_text("op 1 add x"),
            Err(ParseDfgError::NonDenseId { line: 1 })
        ));
        assert!(matches!(
            Dfg::from_text("op 0 add x\nedge 0 5"),
            Err(ParseDfgError::DanglingId { line: 2 })
        ));
        assert!(matches!(
            Dfg::from_text("op 0 add x\nback 0 0 0"),
            Err(ParseDfgError::BadLine { line: 2 })
        ));
        // data cycle
        assert!(matches!(
            Dfg::from_text("op 0 add x\nop 1 add y\nedge 0 1\nedge 1 0"),
            Err(ParseDfgError::Invalid(_))
        ));
    }

    #[test]
    fn immediates_round_trip() {
        let mut b = crate::DfgBuilder::new("imm");
        let c = b.push_op(Op::constant("c0", 77));
        let plain = b.op(OpKind::Const, "c1");
        let s = b.op(OpKind::Store, "out");
        b.data(c, s);
        b.data(plain, s);
        let dfg = b.build().unwrap();
        let text = dfg.to_text();
        assert!(text.contains("op 0 cst c0 77"), "{text}");
        let back = Dfg::from_text(&text).unwrap();
        assert_eq!(back.op(c).imm, Some(77));
        assert_eq!(back.op(plain).imm, None);
        // a non-integer trailing token is rejected, not silently dropped
        assert!(matches!(
            Dfg::from_text("op 0 cst c zzz"),
            Err(ParseDfgError::BadLine { line: 1 })
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let dfg = Dfg::from_text("\n# comment only\ndfg t\nop 0 cst c # trailing\n\n").unwrap();
        assert_eq!(dfg.num_ops(), 1);
    }

    #[test]
    fn error_messages() {
        assert!(ParseDfgError::BadLine { line: 7 }
            .to_string()
            .contains("line 7"));
        assert!(ParseDfgError::UnknownKind {
            line: 2,
            kind: "q".into()
        }
        .to_string()
        .contains('q'));
    }
}
