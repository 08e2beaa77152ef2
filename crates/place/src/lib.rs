//! Cluster mapping: the split & push assignment of CDG nodes onto the
//! CGRA's `R × C` cluster grid (paper §3.2, Figures 4 & 6).
//!
//! Two ILP stages, both solved with [`panorama-ilp`]:
//!
//! 1. **Column-wise scattering** ([`column_scatter`]) repeatedly splits the
//!    CDG node set, pushing one side to the next cluster row. The split is
//!    constrained to be (approximately) a *matching cut* — the ζ1/ζ2
//!    constraints bound how many adjacent edges of any multi-degree node
//!    may be cut, which is what keeps diagonal edges out of the final
//!    mapping. ζ values escalate until the ILP turns feasible.
//! 2. **Row-wise scattering** ([`row_scatter`]) spreads each row's nodes
//!    over the cluster columns: big DFG clusters span several CGRA
//!    clusters (one-to-many), small ones share a cluster (many-to-one),
//!    and the weighted column distance between dependent clusters is
//!    minimised.
//!
//! [`assign_rows`] runs stage 1 with ζ escalation and returns a
//! [`RowAssignment`], whose ζ already fixes the routing complexity;
//! [`assign_columns`] runs stage 2 on it and packages the result as a
//! [`ClusterMap`], which the lower-level mappers consume as a placement
//! restriction. [`map_clusters`] is the two in sequence.
//!
//! # Examples
//!
//! ```
//! use panorama_cluster::{explore_partitions, top_balanced, Cdg, SpectralConfig};
//! use panorama_dfg::{kernels, KernelId, KernelScale};
//! use panorama_place::{map_clusters, ScatterConfig};
//!
//! let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
//! let parts = explore_partitions(&dfg, 2, 6, &SpectralConfig::default())?;
//! let best = top_balanced(&parts, 1)[0].1;
//! let cdg = Cdg::new(&dfg, best);
//! let map = map_clusters(&cdg, 2, 2, &ScatterConfig::default())?;
//! assert_eq!(map.grid(), (2, 2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`panorama-ilp`]: https://docs.rs/panorama-ilp

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod scatter;

pub use map::{
    assign_columns, assign_rows, map_clusters, ClusterMap, IlpEffort, PlaceError, RowAssignment,
    ScatterConfig,
};
pub use scatter::{column_scatter, row_scatter};
