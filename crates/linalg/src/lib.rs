//! Dense linear algebra and clustering primitives for PANORAMA.
//!
//! This crate is the numeric substrate that replaces the Python stack
//! (NumPy / Scikit-Learn) used by the original PANORAMA implementation:
//!
//! * [`DMatrix`] — a small dense row-major `f64` matrix;
//! * [`SymmetricEigen`] — a Householder tridiagonalisation + implicit-shift
//!   QL eigendecomposition of symmetric matrices (graph Laplacians are
//!   symmetric), returning eigenpairs sorted by ascending eigenvalue as
//!   spectral embedding requires. It is the only eigensolver: kernel
//!   Laplacians are degenerate, partitions depend on the basis it produces
//!   inside each eigenspace, and that basis is pinned bit for bit.
//!   [`SymmetricEigen::decompose`] turns the buffer of the matrix it is
//!   given into the basis, rows being eigenvectors, so a decomposition
//!   peaks at one `n × n` buffer;
//! * [`KMeans`] — Lloyd's algorithm with deterministic k-means++ seeding,
//!   each pass pruned by Elkan's exact triangle-inequality bounds.
//!
//! # Examples
//!
//! ```
//! use panorama_linalg::{DMatrix, SymmetricEigen};
//!
//! // Laplacian of a path graph on 3 nodes.
//! let l = DMatrix::from_rows(&[
//!     &[1.0, -1.0, 0.0],
//!     &[-1.0, 2.0, -1.0],
//!     &[0.0, -1.0, 1.0],
//! ]);
//! let eig = SymmetricEigen::new(&l)?;
//! assert!(eig.eigenvalue(0).abs() < 1e-9); // connected graph: λ0 = 0
//! # Ok::<(), panorama_linalg::EigenError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eigen;
mod kmeans;
mod matrix;

pub use eigen::{EigenError, SymmetricEigen};
pub use kmeans::{KMeans, KMeansConfig, KMeansError};
pub use matrix::DMatrix;
