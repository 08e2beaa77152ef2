//! What a DFG computes, and whether a mapping's configware computes it:
//! the one value model ([`semantics`]), the one reference interpreter
//! ([`interpret`]) and the one cycle machine ([`run_machine`]), which
//! replays the per-PE control words of
//! [`Configware`](panorama_mapper::Configware) cycle by cycle.
//!
//! [`Mapping::verify`](panorama_mapper::Mapping::verify) checks a mapping
//! *statically* — placement legality, route connectivity/timing, per-slot
//! capacities. [`simulate`] is its dynamic twin: after a route-shape
//! guard ([`check_routes`]) it lowers the mapping through
//! `Configware::generate` and runs several pipelined loop iterations on
//! the machine. Every latch and register carries a token — `(producer
//! op, iteration, value)` — so an operand that reads a bubble or another
//! token fails, a port holding more distinct tokens in a cycle than its
//! MRRG capacity fails, and a register read that finds a later iteration
//! than it wants fails (the classic modulo-wrap hazard: a value living
//! longer than II cycles overwritten by the next iteration's instance).
//! A loop-invariant `Const` is no exception: each iteration materialises
//! its own token.
//!
//! `simulate` certifies structure and reports delivery counts; it does
//! not compare values. `panorama_exec::execute` runs the same machine once
//! per input vector and compares every value against [`interpret`].
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
pub use machine::{check_routes, run_machine, simulate, MachineRun, SimError, SimReport};
