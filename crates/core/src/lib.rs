//! PANORAMA: divide-and-conquer mapping of complex loop kernels on CGRA.
//!
//! This crate is the top of the workspace — the paper's Algorithm 1:
//!
//! 1. **Divide**: spectral-cluster the DFG for every `k ∈ [R, m]`, keep
//!    the top-3 most balanced partitions ([`panorama_cluster`]);
//! 2. **Map clusters**: split & push each candidate CDG onto the `R × C`
//!    CGRA cluster grid via the scattering ILPs, escalating ζ until
//!    feasible ([`panorama_place`]); [`Panorama::plan`] keeps the mapping
//!    with the least routing complexity;
//! 3. **Conquer**: hand the surviving cluster assignments to the
//!    lower-level mappers ([`panorama_mapper`]) as placement restrictions,
//!    racing them under a shared best-II bound. The unguided baseline is
//!    the same race over one unrestricted candidate.
//!
//! [`Panorama::compile`] runs the whole pipeline with one mapper;
//! [`Panorama::compile_with`] is the general entry behind it (several
//! mappers raced as a portfolio, the unguided baseline, tracing,
//! cancellation, a shared worker pool); [`Panorama::plan`] stops after the
//! higher-level mapping (useful for inspecting the divide step, and for
//! the Table 1a harness). [`CompileRequest`] is the typed request the CLI
//! and the serve daemon both parse into.
//!
//! # Quick start
//!
//! ```
//! use panorama::{Panorama, PanoramaConfig};
//! use panorama_arch::{Cgra, CgraConfig};
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//! use panorama_mapper::SprMapper;
//!
//! let cgra = Cgra::new(CgraConfig::scaled_8x8())?;
//! let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
//! let compiler = Panorama::new(PanoramaConfig::default());
//! let report = compiler.compile(&dfg, &cgra, &SprMapper::default())?;
//! assert!(report.mapping().qom() > 0.0);
//! report.mapping().verify(&dfg, &cgra)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod pipeline;
mod portfolio;
mod report;
pub mod request;

pub use backend::{BackendId, MapperChoice};
pub use panorama_analyze::AnalyzeConfig;
pub use panorama_mapper::CancelToken;
pub use pipeline::{CompileContext, CompileMode, Panorama, PanoramaConfig, PanoramaError};
pub use portfolio::{effective_threads, BatchExecutor};
pub use report::{CompileReport, HigherLevelPlan};
pub use request::CompileRequest;

// Re-export the subsystem crates so downstream users need one dependency.
pub use panorama_analyze as analyze;
pub use panorama_arch as arch;
pub use panorama_cluster as cluster;
pub use panorama_dfg as dfg;
pub use panorama_exec as exec;
pub use panorama_graph as graph;
pub use panorama_ilp as ilp;
pub use panorama_linalg as linalg;
pub use panorama_lint as lint;
pub use panorama_mapper as mapper;
pub use panorama_place as place;
pub use panorama_sim as sim;
pub use panorama_trace as trace;
