//! `panorama-lint`: static diagnostics and mappability prechecking for the
//! PANORAMA CGRA toolchain.
//!
//! The crate has two halves:
//!
//! * a small **diagnostics engine** — [`Diagnostic`] (stable code, severity,
//!   entity, message, optional help) collected into [`Diagnostics`] with
//!   human ([`Diagnostics::render_human`]) and JSON
//!   ([`Diagnostics::render_json`]) renderers; and
//! * **static passes** over the toolchain's artifacts, each a plain
//!   function that appends to a [`Diagnostics`]: dataflow graphs
//!   ([`lint_dfg`]), architectures ([`lint_arch`]),
//!   partitions/CDGs/restrictions ([`lint_partition`]) and the
//!   mappability [`precheck()`] that proves "cannot map at II < N" from
//!   ResMII/RecMII and per-cluster capacity bounds before any mapper runs.
//!   A caller runs the passes it has artifacts for, in that order.
//!
//! Every check is static: no mapping, no solving. A full run over a kernel
//! plus architecture costs microseconds, which is why the pipeline can
//! afford to pre-flight every compile with it.
//!
//! Recorded JSON reports are linted too: [`lint_report`] picks the schema
//! by its id, [`check_shape`] checks the document against that schema's
//! row of [`panorama_trace::schema`], and the `*_lints` modules add each
//! schema's invariants.
//!
//! # Diagnostic codes
//!
//! Codes are stable strings grouped by prefix: `DFG...` (kernel structure),
//! `ARCH...` (architecture), `PART...` (partition/CDG/restriction),
//! `MAP...` (mappability bounds), `SAT...` (`panorama-sat-v1` solver
//! attempt logs), `TRACE...` (`panorama-trace-v1` JSON exports),
//! `SERVE...` (`panorama-serve` metrics), `FUZZ...` (`panorama-fuzz-v3`
//! reports), `EXEC...` (`panorama-exec-v1` data-level execution reports)
//! and `ANLZ...`
//! (`panorama-analyze` findings and `panorama-analyze-v1` reports). The
//! per-pass module docs list every code with its severity; [`codes`] is
//! the machine-readable index of all of them.
//!
//! # Examples
//!
//! ```
//! use panorama_lint::{lint_arch, lint_dfg, precheck, Diagnostics};
//! use panorama_arch::{Cgra, CgraConfig};
//! use panorama_dfg::{DfgBuilder, OpKind};
//!
//! let mut b = DfgBuilder::new("mac");
//! let a = b.op(OpKind::Load, "a");
//! let m = b.op(OpKind::Mul, "m");
//! let s = b.op(OpKind::Store, "out");
//! b.data(a, m);
//! b.data(m, s);
//! let dfg = b.build()?;
//! let cgra = Cgra::new(CgraConfig::small_4x4())?;
//!
//! let mut diags = Diagnostics::new();
//! lint_dfg(&dfg, &mut diags);
//! lint_arch(&cgra, Some(&dfg), &mut diags);
//! precheck(&dfg, &cgra, None, None, &mut diags);
//! assert_eq!(diags.num_errors(), 0);
//! // the prechecker always reports the static II bound
//! assert!(diags.iter().any(|d| d.code == "MAP002"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze_lints;
pub mod arch_lints;
pub mod codes;
pub mod dfg_lints;
mod diag;
pub mod exec_lints;
pub mod fuzz_lints;
pub mod partition_lints;
pub mod precheck;
mod report;
pub mod sat_lints;
pub mod serve_lints;
pub mod trace_lints;

pub use analyze_lints::lint_analyze_json;
pub use arch_lints::lint_arch;
pub use dfg_lints::lint_dfg;
pub use diag::{Diagnostic, Diagnostics, Entity, Severity};
pub use exec_lints::lint_exec_json;
pub use fuzz_lints::lint_fuzz_json;
pub use partition_lints::lint_partition;
pub use precheck::{precheck, PrecheckReport};
pub use report::{check_shape, lint_report};
pub use sat_lints::lint_sat_json;
pub use serve_lints::lint_serve_json;
pub use trace_lints::lint_trace_json;
