//! Live `ANLZ` diagnostics derived from an [`Analysis`], routed through
//! the `panorama-lint` diagnostic engine so `panorama analyze` and
//! `panorama lint` render findings identically.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `ANLZ001` | warn | dead op: no store or sink depends on it |
//! | `ANLZ002` | info | constant subgraph: op provably computes one value |
//! | `ANLZ003` | info | witness recurrence cycle attaining the exact RecMII |
//! | `ANLZ004` | info | optimization sharpened the static II floor |
//!
//! `ANLZ005` (malformed `panorama-analyze-v1` report) lives in
//! `panorama-lint`'s `analyze_lints` module: it re-validates report
//! *files* and must not depend on this crate.

use crate::report::Analysis;
use panorama_arch::Cgra;
use panorama_dfg::{Dfg, OpKind};
use panorama_lint::{Diagnostic, Diagnostics, Entity, Severity};
use panorama_mapper::min_ii;

/// Appends `ANLZ001`–`ANLZ004` findings for `analysis` (of `original`,
/// optionally targeting `cgra`) to `out`.
pub fn analyze_diagnostics(
    original: &Dfg,
    analysis: &Analysis,
    cgra: Option<&Cgra>,
    out: &mut Diagnostics,
) {
    let opt = &analysis.optimization;
    for op in original.op_ids() {
        let name = &original.op(op).name;
        if opt.map[op.index()].is_none() {
            out.push(
                Diagnostic::new(
                    "ANLZ001",
                    Severity::Warn,
                    Entity::Op {
                        index: op.index(),
                        name: name.clone(),
                    },
                    "dead op: no store or sink depends on it",
                )
                .with_help("removed by the analyze rewrite; drop it from the kernel"),
            );
        }
    }
    // Folded ops: report on the *original* op ids. A fold keeps its op
    // (the map points at the new Const), so recover the fold set from the
    // optimized graph: an op whose image is a Const while it was not.
    for op in original.op_ids() {
        if let Some(image) = opt.map[op.index()] {
            let was = original.op(op).kind;
            let now = opt.dfg.op(image).kind;
            if was != OpKind::Const && now == OpKind::Const {
                out.push(Diagnostic::new(
                    "ANLZ002",
                    Severity::Info,
                    Entity::Op {
                        index: op.index(),
                        name: original.op(op).name.clone(),
                    },
                    format!(
                        "constant subgraph: always computes {:#x}",
                        opt.dfg.op(image).imm.unwrap_or(0)
                    ),
                ));
            }
        }
    }
    let rec = &analysis.recurrence_after;
    if !rec.witness.is_empty() {
        let ops: Vec<String> = rec
            .witness
            .iter()
            .map(|&o| format!("{} `{}`", o.index(), opt.dfg.op(o).name))
            .collect();
        out.push(Diagnostic::new(
            "ANLZ003",
            Severity::Info,
            Entity::Global,
            format!(
                "critical recurrence cycle [{}]: latency {} over distance {} proves RecMII >= {}",
                ops.join(" -> "),
                rec.witness_latency,
                rec.witness_distance,
                rec.rec_mii
            ),
        ));
    }
    if let Some(cgra) = cgra {
        let before = min_ii(original, cgra).mii();
        let after = min_ii(&opt.dfg, cgra).mii();
        if after < before {
            out.push(
                Diagnostic::new(
                    "ANLZ004",
                    Severity::Info,
                    Entity::Global,
                    format!("optimization sharpened the static II floor from {before} to {after}"),
                )
                .with_help("compile with --analyze to map the optimized graph"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeConfig};
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, Op};

    fn kernel() -> Dfg {
        // constant prefix + duplicate adds + accumulator + dead op
        let mut b = DfgBuilder::new("k");
        let c0 = b.push_op(Op::constant("c0", 2));
        let c1 = b.push_op(Op::constant("c1", 5));
        let a = b.op(OpKind::Add, "a");
        let l = b.op(OpKind::Load, "x");
        let m = b.op(OpKind::Mul, "m");
        let s = b.op(OpKind::Store, "out");
        b.data(c0, a);
        b.data(c1, a);
        b.data(a, m);
        b.data(l, m);
        b.data(m, s);
        b.build().unwrap()
    }

    #[test]
    fn diagnostics_cover_dead_and_constant_ops() {
        let dfg = kernel();
        let analysis = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        let mut out = Diagnostics::new();
        analyze_diagnostics(&dfg, &analysis, None, &mut out);
        let codes: Vec<_> = out.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"ANLZ001"), "{codes:?}");
        assert!(codes.contains(&"ANLZ002"), "{codes:?}");
        assert!(!out.has_errors());
    }

    #[test]
    fn witness_cycle_is_reported() {
        let mut b = DfgBuilder::new("acc");
        let l = b.op(OpKind::Load, "x");
        let a1 = b.op(OpKind::Add, "a1");
        let a2 = b.op(OpKind::Add, "a2");
        let s = b.op(OpKind::Store, "out");
        b.data(l, a1);
        b.data(a1, a2);
        b.data(a2, s);
        b.back(a2, a1, 1); // 2-op cycle, latency 2, distance 1: RecMII 2
        let dfg = b.build().unwrap();
        let analysis = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        let mut out = Diagnostics::new();
        analyze_diagnostics(&dfg, &analysis, None, &mut out);
        let witness = out.iter().find(|d| d.code == "ANLZ003").unwrap();
        assert!(
            witness.message.contains("RecMII >= 2"),
            "{}",
            witness.message
        );
    }

    #[test]
    fn sharpened_floor_needs_an_architecture() {
        // 17 ops on a 4x4: ResMII 2; optimization folds the kernel far
        // below 16 ops, so the floor drops to 1
        let mut b = DfgBuilder::new("wide");
        let mut prev = b.push_op(Op::constant("c", 1));
        for i in 0..15 {
            let n = b.op(OpKind::Add, format!("n{i}"));
            b.data(prev, n);
            prev = n;
        }
        let s = b.op(OpKind::Store, "out");
        b.data(prev, s);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let analysis = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        assert!(analysis.report.ops_after < dfg.num_ops());
        let mut with_arch = Diagnostics::new();
        analyze_diagnostics(&dfg, &analysis, Some(&cgra), &mut with_arch);
        assert!(with_arch.iter().any(|d| d.code == "ANLZ004"));
        let mut without = Diagnostics::new();
        analyze_diagnostics(&dfg, &analysis, None, &mut without);
        assert!(!without.iter().any(|d| d.code == "ANLZ004"));
    }

    #[test]
    fn every_emitted_code_has_a_registry_docs_entry() {
        // The lint crate's `codes` table is the single docs index; this
        // crate emits ANLZ001–ANLZ004, so they must all be registered.
        for code in ["ANLZ001", "ANLZ002", "ANLZ003", "ANLZ004"] {
            let entry = panorama_lint::codes::lookup(code)
                .unwrap_or_else(|| panic!("{code} missing from panorama_lint::codes::ALL"));
            assert!(!entry.summary.is_empty());
        }
    }
}
