//! The `panorama-analyze-v1` report: one deterministic JSON document per
//! analyzed kernel, plus the [`analyze`] entry point that produces it.
//!
//! The report is byte-identical across runs on the same input (field
//! order is fixed, all numbers are integers, no timestamps), so CI can
//! gate on double-run identity, and `panorama lint` can re-validate a
//! report file written earlier (`ANLZ005` in `panorama-lint`).

use crate::opt::{optimize, AnalyzeConfig, AnalyzeError, Optimization};
use crate::passes::{constant_values, schedule_ranges};
use panorama_dfg::Dfg;
use panorama_mapper::{exact_recurrence_mii, RecurrenceAnalysis};
use panorama_trace::json::Writer;
use panorama_trace::schema;

/// Everything [`analyze`] computes for one kernel.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The optimization result (graph, mapping, action counts).
    pub optimization: Optimization,
    /// Exact recurrence analysis of the original graph.
    pub recurrence_before: RecurrenceAnalysis,
    /// Exact recurrence analysis of the optimized graph.
    pub recurrence_after: RecurrenceAnalysis,
    /// The summary report.
    pub report: AnalyzeReport,
}

/// Flat summary of one analysis run; serializes as
/// `panorama-analyze-v1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// Kernel name.
    pub kernel: String,
    /// Op count before optimization.
    pub ops_before: usize,
    /// Op count after optimization.
    pub ops_after: usize,
    /// Dependency count before optimization.
    pub deps_before: usize,
    /// Dependency count after optimization.
    pub deps_after: usize,
    /// Rewrite rounds applied.
    pub rounds: usize,
    /// Ops folded to constants.
    pub folded: usize,
    /// Ops merged into an equivalent representative.
    pub merged: usize,
    /// Dead ops removed.
    pub removed: usize,
    /// Ops of the *original* graph the constant analysis proves
    /// loop-invariant.
    pub known_constants: usize,
    /// Critical-path length (levels) before optimization.
    pub critical_path_before: u32,
    /// Critical-path length (levels) after optimization.
    pub critical_path_after: u32,
    /// Exact RecMII of the original graph.
    pub rec_mii_before: usize,
    /// Exact RecMII of the optimized graph.
    pub rec_mii_after: usize,
    /// Witness cycle in the optimized graph (op indices, cycle order);
    /// empty when no recurrence binds above II = 1.
    pub witness: Vec<usize>,
    /// Total latency around the witness cycle.
    pub witness_latency: u64,
    /// Total iteration distance around the witness cycle.
    pub witness_distance: u64,
    /// Iterations the equivalence check interpreted both graphs for.
    pub equiv_iterations: usize,
}

impl AnalyzeReport {
    /// Serializes the report as deterministic `panorama-analyze-v1` JSON.
    pub fn to_json(&self) -> String {
        fn pair(w: &mut Writer, name: &str, before: impl TryInto<u64>, after: impl TryInto<u64>) {
            w.key(name).open();
            w.key("before").uint(before);
            w.key("after").uint(after);
            w.close();
        }
        let mut w = Writer::new(&schema::ANALYZE);
        w.key("kernel").str(&self.kernel);
        pair(&mut w, "ops", self.ops_before, self.ops_after);
        pair(&mut w, "deps", self.deps_before, self.deps_after);
        w.key("rounds").uint(self.rounds);
        w.key("folded").uint(self.folded);
        w.key("merged").uint(self.merged);
        w.key("removed").uint(self.removed);
        w.key("known_constants").uint(self.known_constants);
        let (before, after) = (self.critical_path_before, self.critical_path_after);
        pair(&mut w, "critical_path", before, after);
        pair(&mut w, "rec_mii", self.rec_mii_before, self.rec_mii_after);
        if self.witness.is_empty() {
            w.key("witness").null();
        } else {
            w.key("witness").open();
            w.key("ops").open();
            for &op in &self.witness {
                w.uint(op);
            }
            w.close();
            w.key("latency").uint(self.witness_latency);
            w.key("distance").uint(self.witness_distance);
            w.close();
        }
        w.key("equiv_iterations").uint(self.equiv_iterations);
        w.finish()
    }
}

/// Runs the full analysis on `dfg`: optimize to a fixed point with the
/// interpreter equivalence check, then compute schedule ranges and exact
/// recurrence bounds on both graphs.
///
/// # Errors
///
/// Propagates [`AnalyzeError`] — either variant is an optimizer bug and
/// must be surfaced, not swallowed.
pub fn analyze(dfg: &Dfg, config: &AnalyzeConfig) -> Result<Analysis, AnalyzeError> {
    let optimization = optimize(dfg, config)?;
    let recurrence_before = exact_recurrence_mii(dfg);
    let recurrence_after = exact_recurrence_mii(&optimization.dfg);
    let known_constants = constant_values(dfg)
        .iter()
        .filter(|v| v.known().is_some())
        .count();
    let ranges_before = schedule_ranges(dfg);
    let ranges_after = schedule_ranges(&optimization.dfg);
    let report = AnalyzeReport {
        kernel: dfg.name().to_string(),
        ops_before: dfg.num_ops(),
        ops_after: optimization.dfg.num_ops(),
        deps_before: dfg.num_deps(),
        deps_after: optimization.dfg.num_deps(),
        rounds: optimization.rounds,
        folded: optimization.folded,
        merged: optimization.merged,
        removed: optimization.removed,
        known_constants,
        critical_path_before: ranges_before.critical_path,
        critical_path_after: ranges_after.critical_path,
        rec_mii_before: recurrence_before.rec_mii,
        rec_mii_after: recurrence_after.rec_mii,
        witness: recurrence_after.witness.iter().map(|o| o.index()).collect(),
        witness_latency: recurrence_after.witness_latency,
        witness_distance: recurrence_after.witness_distance,
        equiv_iterations: config.equiv_iterations,
    };
    Ok(Analysis {
        optimization,
        recurrence_before,
        recurrence_after,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::{DfgBuilder, Op, OpKind};
    use panorama_trace::json::{self, Json};

    fn kernel() -> Dfg {
        let mut b = DfgBuilder::new("k");
        let c0 = b.push_op(Op::constant("c0", 2));
        let c1 = b.push_op(Op::constant("c1", 5));
        let a = b.op(OpKind::Add, "a");
        let l = b.op(OpKind::Load, "x");
        let m = b.op(OpKind::Mul, "m");
        let acc = b.op(OpKind::Add, "acc");
        let s = b.op(OpKind::Store, "out");
        b.data(c0, a);
        b.data(c1, a);
        b.data(a, m);
        b.data(l, m);
        b.data(m, acc);
        b.back(acc, acc, 1);
        b.data(acc, s);
        b.build().unwrap()
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let dfg = kernel();
        let a = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        let j1 = a.report.to_json();
        let j2 = analyze(&dfg, &AnalyzeConfig::default())
            .unwrap()
            .report
            .to_json();
        assert_eq!(j1, j2, "double runs must be byte-identical");
        let doc = json::parse(&j1).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("panorama-analyze-v1")
        );
        assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("k"));
        let ops = doc.get("ops").unwrap();
        assert_eq!(ops.get("before").and_then(Json::as_f64), Some(7.0));
        assert!(ops.get("after").and_then(Json::as_f64).unwrap() < 7.0);
    }

    #[test]
    fn recurrence_witness_lands_in_the_report() {
        let dfg = kernel();
        let a = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        assert_eq!(a.report.rec_mii_before, 1, "unit-latency 1-cycle: II 1");
        // acc -> acc self-cycle survives optimization
        assert!(a.optimization.dfg.num_back_edges() >= 1);
        let doc = json::parse(&a.report.to_json()).unwrap();
        assert!(doc.get("rec_mii").is_some());
    }

    #[test]
    fn analysis_shrinks_the_constant_prefix() {
        let dfg = kernel();
        let a = analyze(&dfg, &AnalyzeConfig::default()).unwrap();
        // c0 + c1 folds into `a`, the two feeders die
        assert_eq!(a.report.folded, 1);
        assert_eq!(a.report.removed, 2);
        assert_eq!(a.report.ops_after, 5);
        assert!(a.report.known_constants >= 3);
        assert!(a.report.critical_path_after < a.report.critical_path_before);
    }
}
