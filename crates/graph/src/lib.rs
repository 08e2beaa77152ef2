//! Arena-based directed graph substrate for the PANORAMA CGRA mapping
//! framework.
//!
//! Every graph-shaped structure in the workspace — dataflow graphs
//! ([`panorama-dfg`]), cluster dependency graphs ([`panorama-cluster`]) and
//! modulo routing resource graphs ([`panorama-arch`]) — is built on
//! [`Digraph`], a compact adjacency-list digraph with typed node/edge
//! indices and cheap O(1) endpoint lookups. [`laplacian`] and
//! [`normalized_laplacian`] turn a graph into the dense Laplacian that
//! spectral clustering decomposes.
//!
//! # Examples
//!
//! ```
//! use panorama_graph::Digraph;
//!
//! let mut g: Digraph<&str, u32> = Digraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! g.add_edge(a, b, 7);
//! assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b]);
//! assert!(g.topo_order().is_ok());
//! ```
//!
//! [`panorama-dfg`]: https://docs.rs/panorama-dfg
//! [`panorama-cluster`]: https://docs.rs/panorama-cluster
//! [`panorama-arch`]: https://docs.rs/panorama-arch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod digraph;
mod dot;
mod laplacian;

pub use algo::{Components, CycleError};
pub use digraph::{Digraph, EdgeId, EdgeRef, NodeId};
pub use dot::DotOptions;
pub use laplacian::{laplacian, normalized_laplacian};
