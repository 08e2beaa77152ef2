//! `panorama-analyze`: fixed-point dataflow analysis and
//! equivalence-checked DFG optimization for the PANORAMA CGRA toolchain.
//!
//! The crate turns the mapper's input graph into a *better* input graph
//! — and proves it did so safely:
//!
//! * a deterministic **worklist fixed-point engine** ([`engine`]) runs
//!   every analysis over an explicit [`Lattice`];
//! * **constant propagation** over the flat value lattice, evaluated
//!   with the reference interpreter's own ALU
//!   (`panorama_sim::semantics::compute`, operands in incoming-edge
//!   order), so `Known(v)` means "computes `v` in every iteration"
//!   ([`constant_values`]);
//! * **optimization passes** — constant folding, common subexpression
//!   elimination, dead-node elimination — composed into rewrite rounds
//!   and iterated to a fixed point ([`optimize`]);
//! * every optimized graph is **golden-compared against the reference
//!   interpreter** through the rewriter's explicit op mapping
//!   ([`check_mapped`]), under every input-vector family: observables
//!   must survive, surviving ops must compute byte-identical values;
//! * **exact RecMII** comes from `panorama-mapper`'s minimum-cycle-ratio
//!   analysis; the [`AnalyzeReport`] records the bound before/after and
//!   the witness cycle that proves it;
//! * findings surface as stable `ANLZ` diagnostics through the
//!   `panorama-lint` engine ([`analyze_diagnostics`]).
//!
//! # Examples
//!
//! ```
//! use panorama_analyze::{analyze, AnalyzeConfig};
//! use panorama_dfg::{DfgBuilder, Op, OpKind};
//!
//! // (2 + 5) * x[i] with a duplicated add
//! let mut b = DfgBuilder::new("k");
//! let c0 = b.push_op(Op::constant("c0", 2));
//! let c1 = b.push_op(Op::constant("c1", 5));
//! let a1 = b.op(OpKind::Add, "a1");
//! let a2 = b.op(OpKind::Add, "a2");
//! let x = b.op(OpKind::Load, "x");
//! let m = b.op(OpKind::Mul, "m");
//! let s = b.op(OpKind::Store, "out");
//! b.data(c0, a1);
//! b.data(c1, a1);
//! b.data(c0, a2);
//! b.data(c1, a2);
//! b.data(a1, m);
//! b.data(x, m);
//! b.data(m, s);
//! b.data(a2, s);
//! let dfg = b.build()?;
//!
//! let analysis = analyze(&dfg, &AnalyzeConfig::default())?;
//! assert!(analysis.report.ops_after < analysis.report.ops_before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod equiv;
pub mod lattice;
pub mod lints;
pub mod opt;
pub mod passes;
pub mod report;

pub use engine::{fixpoint, Fixpoint, Lattice};
pub use equiv::{check_mapped, is_observable, EquivError};
pub use lattice::{Level, Live, Value};
pub use lints::analyze_diagnostics;
pub use opt::{optimize, AnalyzeConfig, AnalyzeError, Optimization};
pub use passes::{constant_values, schedule_ranges, ScheduleRanges};
pub use report::{analyze, Analysis, AnalyzeReport};
