//! The concrete dataflow analyses: constant propagation over the flat
//! value lattice and ASAP/ALAP schedule ranges over the level lattice.
//!
//! Both are thin clients of [`crate::engine::fixpoint`]. Constant
//! propagation does not mirror the reference interpreter's value model,
//! it *calls* it: a `Known` op's value is [`semantics::compute`] over its
//! `Known` operands in incoming-edge order, the same ALU
//! `panorama_sim::interpret` and the data-carrying machine run. That is
//! what makes a `Known` verdict strong enough to justify constant
//! folding: a `Known(v)` op computes `v` in *every* iteration under
//! *every* input vector, so `2 + 3` folds to `5`.

use crate::engine::fixpoint;
use crate::lattice::{Level, Value};
use panorama_dfg::{Dfg, OpId, OpKind};
use panorama_sim::semantics;

/// Computes the flat constant lattice value of every op.
///
/// * `Const` ops are `Known` (immediate or name-derived value);
/// * `Load` ops are `Top` — they vary per iteration by construction;
/// * any op with an incoming loop-carried edge is `Top` — its value
///   depends on the iteration through the back input;
/// * a pure compute op whose data inputs are all `Known` is `Known` with
///   the interpreter's own [`semantics::compute`] over them, in
///   incoming-edge order.
pub fn constant_values(dfg: &Dfg) -> Vec<Value> {
    let n = dfg.num_ops();
    let mut dependents = vec![Vec::new(); n];
    for e in dfg.deps() {
        if !e.weight.is_back() {
            dependents[e.src.index()].push(e.dst.index());
        }
    }
    fixpoint(n, &Value::Bottom, &dependents, |i, vals: &[Value]| {
        let id = OpId::from_index(i);
        let op = dfg.op(id);
        match op.kind {
            OpKind::Const => Value::Known(semantics::const_value(op)),
            OpKind::Load => Value::Top,
            kind => {
                let mut inputs = Vec::new();
                for e in dfg.graph().incoming(id) {
                    if e.weight.is_back() {
                        return Value::Top;
                    }
                    match vals[e.src.index()] {
                        Value::Bottom => return Value::Bottom,
                        Value::Top => return Value::Top,
                        Value::Known(v) => inputs.push(v),
                    }
                }
                Value::Known(semantics::compute(kind, &inputs))
            }
        }
    })
    .values
}

/// ASAP/ALAP schedule levels over intra-iteration edges.
#[derive(Debug, Clone)]
pub struct ScheduleRanges {
    /// Earliest level each op can be scheduled at (longest path from any
    /// source).
    pub asap: Vec<u32>,
    /// Latest level each op can be scheduled at without stretching the
    /// critical path.
    pub alap: Vec<u32>,
    /// Critical-path length in levels (0 for a single-op graph).
    pub critical_path: u32,
}

impl ScheduleRanges {
    /// Scheduling freedom of `op`: `alap - asap`.
    pub fn mobility(&self, op: OpId) -> u32 {
        self.alap[op.index()] - self.asap[op.index()]
    }
}

/// Computes ASAP/ALAP levels and the critical path, as two longest-path
/// fixpoints (forward and reverse) over the non-back edges.
pub fn schedule_ranges(dfg: &Dfg) -> ScheduleRanges {
    let n = dfg.num_ops();
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    for e in dfg.deps() {
        if !e.weight.is_back() {
            preds[e.dst.index()].push(e.src.index());
            succs[e.src.index()].push(e.dst.index());
        }
    }
    let asap = fixpoint(n, &Level(0), &succs, |i, vals: &[Level]| {
        Level(preds[i].iter().map(|&p| vals[p].0 + 1).max().unwrap_or(0))
    })
    .values;
    let rdepth = fixpoint(n, &Level(0), &preds, |i, vals: &[Level]| {
        Level(succs[i].iter().map(|&s| vals[s].0 + 1).max().unwrap_or(0))
    })
    .values;
    let critical_path = (0..n).map(|i| asap[i].0 + rdepth[i].0).max().unwrap_or(0);
    let alap = (0..n).map(|i| critical_path - rdepth[i].0).collect();
    ScheduleRanges {
        asap: asap.into_iter().map(|l| l.0).collect(),
        alap,
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_dfg::DfgBuilder;
    use panorama_sim::interpret;
    use panorama_sim::semantics::{InputVectors, VectorKind};

    fn const_chain() -> Dfg {
        // c0, c1 -> add -> st ; ld -> add2 (add is foldable, add2 is not)
        let mut b = DfgBuilder::new("t");
        let c0 = b.push_op(panorama_dfg::Op::constant("c0", 7));
        let c1 = b.push_op(panorama_dfg::Op::constant("c1", 8));
        let a = b.op(OpKind::Add, "a");
        let s = b.op(OpKind::Store, "s");
        let l = b.op(OpKind::Load, "x");
        let a2 = b.op(OpKind::Add, "a2");
        b.data(c0, a);
        b.data(c1, a);
        b.data(a, s);
        b.data(l, a2);
        b.data(a, a2);
        b.build().unwrap()
    }

    #[test]
    fn constant_values_match_the_interpreter() {
        let dfg = const_chain();
        let vals = constant_values(&dfg);
        for kind in VectorKind::ALL {
            let interp = interpret(&dfg, &InputVectors::new(kind, 9), 3);
            for op in dfg.op_ids() {
                if let Value::Known(v) = vals[op.index()] {
                    for iter in 0..3 {
                        assert_eq!(
                            interp.value(op, iter),
                            v,
                            "Known({v}) must hold in every iteration under {}",
                            kind.name()
                        );
                    }
                }
            }
        }
        // the add of two consts is Known (7 + 8), the load-fed add is Top
        assert_eq!(vals[2], Value::Known(15));
        assert_eq!(vals[4], Value::Top);
        assert_eq!(vals[5], Value::Top);
    }

    #[test]
    fn back_edges_force_top() {
        let mut b = DfgBuilder::new("acc");
        let c = b.push_op(panorama_dfg::Op::constant("c", 1));
        let acc = b.op(OpKind::Add, "acc");
        b.data(c, acc);
        b.back(acc, acc, 1);
        let dfg = b.build().unwrap();
        let vals = constant_values(&dfg);
        assert_eq!(vals[0], Value::Known(1));
        assert_eq!(vals[1], Value::Top, "loop-carried ops are not invariant");
    }

    #[test]
    fn schedule_ranges_and_mobility() {
        let dfg = const_chain();
        let r = schedule_ranges(&dfg);
        assert_eq!(r.critical_path, 2); // c -> a -> s
                                        // store sits at the end of the critical path: no mobility
        assert_eq!(r.mobility(OpId::from_index(3)), 0);
        // the load only feeds a depth-1 consumer: one level of slack
        assert_eq!(r.asap[4], 0);
        assert!(r.alap[4] >= r.asap[4]);
        for op in dfg.op_ids() {
            assert!(r.alap[op.index()] >= r.asap[op.index()]);
        }
    }
}
