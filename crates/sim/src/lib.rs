//! What a DFG computes, and whether a mapping can physically carry it:
//! the one value model ([`semantics`]), the one reference interpreter
//! ([`interpret`]) and a cycle-level structural simulator that *walks* a
//! mapping's routes ([`simulate`]).
//!
//! [`Mapping::verify`](panorama_mapper::Mapping::verify) checks a mapping
//! *statically* — placement legality, route connectivity/timing, per-slot
//! capacities. [`simulate`] is its dynamic twin: it pushes several loop
//! iterations through the pipelined schedule, tracks which *token* —
//! `(producer op, iteration)` — occupies every physical resource at
//! every absolute cycle, and fails when a resource holds more distinct
//! tokens than it has capacity for (the classic modulo-wrap hazard: a
//! value living longer than II cycles colliding with the next
//! iteration's instance in the same register). A loop-invariant `Const`
//! is no exception: each iteration materialises its own token.
//!
//! What it certifies is structural: every route leaves its producer and
//! feeds its consumer, arrives in the consumer's execution cycle, and no
//! resource is over-subscribed in any cycle. It carries no values and
//! runs no interpreter; whether the *computed* values are right is
//! `panorama_exec::execute`'s question, which replays the configware
//! data-carrying and compares every token against [`interpret`].
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

pub use interp::{interpret, Interpretation};
pub use machine::{simulate, SimError, SimReport};
