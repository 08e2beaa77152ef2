//! Functional validation of CGRA mappings: a DFG interpreter plus a
//! cycle-level structural simulator that *executes* a mapping's routes.
//!
//! [`Mapping::verify`](panorama_mapper::Mapping::verify) checks a mapping
//! *statically* — placement legality, route connectivity/timing, per-slot
//! capacities. This crate adds the *dynamic* check the static view cannot
//! express: it runs several loop iterations through the pipelined
//! schedule, tracks which concrete value occupies every physical resource
//! at every absolute cycle, and fails on any collision of **different**
//! values (the classic modulo-wrap hazard: a value living longer than II
//! cycles colliding with the next iteration's instance in the same
//! register). Loop-invariant constants share resources legally.
//!
//! What it certifies is structural: every route leaves its producer and
//! feeds its consumer, arrives in the consumer's execution cycle, and no
//! resource holds more distinct values than it has capacity for. Whether
//! the *computed* values are right is not its question — the values here
//! come from the reference interpreter, not from the fabric; value
//! fidelity is `panorama_exec::execute`'s job, which replays the
//! configware data-carrying.
//!
//! # Examples
//!
//! ```
//! use panorama_arch::{Cgra, CgraConfig};
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//! use panorama_mapper::{LowerLevelMapper, SprMapper};
//! use panorama_sim::simulate;
//!
//! let cgra = Cgra::new(CgraConfig::small_4x4())?;
//! let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
//! let mapping = SprMapper::default().map(&dfg, &cgra, None)?;
//! let report = simulate(&dfg, &cgra, &mapping, 4)?;
//! assert_eq!(report.iterations, 4);
//! assert!(report.fu_utilization > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;
mod machine;
pub mod semantics;

pub use interp::{interpret, interpret_with, Interpretation};
pub use machine::{simulate, trace, SimError, SimReport, TraceEvent};
