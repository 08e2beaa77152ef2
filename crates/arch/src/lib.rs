//! CGRA architecture model and modulo routing resource graph (MRRG).
//!
//! The modelled machine follows the paper's evaluation setup: a grid of
//! single-cycle ALU processing elements (PEs) with
//!
//! * nearest-neighbour, single-cycle single-hop interconnect;
//! * a register file per PE (8 registers, 4 read / 4 write ports by
//!   default) for buffering values across cycles;
//! * a cluster grid (e.g. 4×4 clusters of 4×4 PEs on the 16×16 CGRA) with a
//!   fixed budget of inter-cluster links between neighbouring clusters;
//! * memory-capable PEs in the left-most column of each cluster.
//!
//! [`Mrrg`] time-extends the architecture to a target initiation interval
//! (II): each physical resource becomes II nodes, edges that move data
//! between cycles wrap modulo II, and PathFinder-style routing negotiates
//! node capacities ([`panorama-mapper`] implements the router).
//!
//! # Examples
//!
//! ```
//! use panorama_arch::{Cgra, CgraConfig};
//!
//! let cgra = Cgra::new(CgraConfig::paper_16x16())?;
//! assert_eq!(cgra.num_pes(), 256);
//! assert_eq!(cgra.cluster_grid(), (4, 4));
//! let mrrg = cgra.mrrg(4); // II = 4
//! assert!(mrrg.num_nodes() > 0);
//! # Ok::<(), panorama_arch::ArchError>(())
//! ```
//!
//! [`panorama-mapper`]: https://docs.rs/panorama-mapper

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adl;
mod cache;
mod cgra;
mod config;
mod mrrg;
mod occupancy;

pub use adl::ParseArchError;
pub use cache::{Lru, MrrgCache, DEFAULT_MRRG_CACHE_CAPACITY};
pub use cgra::{Cgra, ClusterId, Link, PeId};
pub use config::{ArchError, CgraConfig};
pub use mrrg::{Mrrg, MrrgEdge, MrrgNodeId, NodeKind};
pub use occupancy::Ledger;
