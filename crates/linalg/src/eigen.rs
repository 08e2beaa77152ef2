//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! Spectral clustering needs the `k` eigenvectors of the graph Laplacian
//! with the smallest eigenvalues. Laplacians are real symmetric, so the
//! classic Jacobi rotation method applies: repeatedly zero the largest
//! off-diagonal entries with Givens rotations until the matrix is
//! numerically diagonal, accumulating the rotations as the eigenvector
//! basis. For the few-hundred-node DFGs in this workspace this is fast and
//! extremely robust.
//!
//! # The basis is part of the contract
//!
//! Kernel Laplacians have exactly degenerate spectra (among the eigenvalues
//! the embedding uses, multiplicities of 6–48 at paper scale), so the first
//! `k` eigenvectors slice through eigenspaces and k-means downstream sees
//! whichever basis of each eigenspace the rotations happen to produce.
//! Partitions — and II after them — therefore depend on every
//! floating-point operation here and on their order: no `mul_add`, no
//! re-association, no other rotation order.
//! A solver with a different basis (tridiagonal QL, Lanczos) changes
//! partitions; see EXPERIMENTS.md, "The rejected eigensolver swap". The
//! `eigenpairs_of_kernel_laplacians_are_pinned_bit_for_bit` test holds
//! this down.
//!
//! # Two `n × n` buffers
//!
//! [`SymmetricEigen::decompose`] takes the matrix by value and rotates its
//! buffer in place; the only other `n × n` buffer is the accumulated basis
//! `vt`. The decomposition keeps `vt` itself, rows sorted by eigenvalue, so
//! row `j` is eigenvector `j`: [`SymmetricEigen::eigenvector`] reads a row
//! and [`SymmetricEigen::embedding`] gathers the first `k` rows into
//! columns. [`SymmetricEigen::new`] is the same decomposition of a copy.

use crate::DMatrix;
use std::error::Error;
use std::fmt;

/// Error produced by [`SymmetricEigen::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigenError {
    /// The input matrix is not square.
    NotSquare,
    /// The input matrix is not symmetric within tolerance.
    NotSymmetric,
    /// The input matrix has a NaN or infinite entry.
    NonFinite,
    /// The sweep limit was reached before convergence, or the rotations
    /// overflowed.
    NoConvergence,
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigenError::NotSquare => write!(f, "matrix is not square"),
            EigenError::NotSymmetric => write!(f, "matrix is not symmetric"),
            EigenError::NonFinite => write!(f, "matrix has a NaN or infinite entry"),
            EigenError::NoConvergence => write!(f, "jacobi sweeps did not converge"),
        }
    }
}

impl Error for EigenError {}

/// Eigendecomposition of a real symmetric matrix, eigenpairs sorted by
/// ascending eigenvalue.
///
/// # Examples
///
/// ```
/// use panorama_linalg::{DMatrix, SymmetricEigen};
///
/// let m = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = SymmetricEigen::new(&m)?;
/// assert!((eig.eigenvalue(0) - 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalue(1) - 3.0).abs() < 1e-10);
/// # Ok::<(), panorama_linalg::EigenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// The rotated basis, row-major `n × n`: row `j` is the eigenvector for
    /// `eigenvalues[j]`.
    vt: Vec<f64>,
    /// Jacobi sweeps executed before convergence.
    sweeps: usize,
}

const MAX_SWEEPS: usize = 64;
const SYMMETRY_TOL: f64 = 1e-9;

impl SymmetricEigen {
    /// Decomposes a copy of the symmetric matrix `m` through
    /// [`SymmetricEigen::decompose`], for callers that keep `m`.
    ///
    /// # Errors
    ///
    /// As for [`SymmetricEigen::decompose`].
    pub fn new(m: &DMatrix) -> Result<Self, EigenError> {
        Self::decompose(m.clone())
    }

    /// Decomposes the symmetric matrix `m`, rotating its buffer in place:
    /// the sweep holds `m` and the basis it accumulates, two `n × n`
    /// buffers, and the result keeps only the basis.
    ///
    /// # Errors
    ///
    /// * [`EigenError::NotSquare`] / [`EigenError::NonFinite`] /
    ///   [`EigenError::NotSymmetric`] on invalid input;
    /// * [`EigenError::NoConvergence`] if the (generous) sweep limit is hit
    ///   or entries near `f64::MAX` overflow under rotation.
    pub fn decompose(m: DMatrix) -> Result<Self, EigenError> {
        if m.rows() != m.cols() {
            return Err(EigenError::NotSquare);
        }
        // NaN compares false with everything, so it would pass the symmetry
        // test below and never converge.
        if m.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(EigenError::NonFinite);
        }
        let scale = m.as_slice().iter().fold(1.0f64, |a, &x| a.max(x.abs()));
        if !m.is_symmetric(SYMMETRY_TOL * scale) {
            return Err(EigenError::NotSymmetric);
        }
        let n = m.rows();
        if n == 0 {
            return Ok(SymmetricEigen {
                eigenvalues: Vec::new(),
                vt: Vec::new(),
                sweeps: 0,
            });
        }
        // Everything below works on flat row-major buffers: `a` is `m`'s own
        // buffer, rotated in place. `vt` holds the eigenvector basis
        // *transposed* (row j is eigenvector j), so a rotation touches two
        // contiguous rows of `a` and two of `vt`; only the column update of
        // `a` stays strided. The operations and their order are part of the
        // contract (see the module docs).
        let mut a = m.into_vec();
        let mut vt = vec![0.0f64; n * n];
        vt.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);
        let mut col_p = vec![0.0f64; n];
        let threshold = 1e-12 * scale * (n as f64);

        let mut converged = false;
        let mut sweeps = 0usize;
        for _ in 0..MAX_SWEEPS {
            if off_diagonal_norm(&a, n) <= threshold {
                converged = true;
                break;
            }
            sweeps += 1;
            // Cyclic sweep over the upper triangle. Column p of `a` lives
            // in `col_p` for the whole p-phase (every rotation of the phase
            // touches it), which halves the strided traffic.
            for p in 0..n {
                for (x, row) in col_p.iter_mut().zip(a.chunks_exact(n)) {
                    *x = row[p];
                }
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() <= threshold / (n as f64) {
                        continue;
                    }
                    let app = col_p[p];
                    let aqq = a[q * n + q];
                    // Rotation angle: tan(2θ) = 2 a_pq / (a_qq − a_pp)
                    let theta = 0.5 * (aqq - app) / apq;
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // A ← Jᵀ A J applied in place: columns p, q, then rows.
                    rotate_column(&mut col_p, &mut a, n, q, c, s);
                    // The row update also rotates a_pp and a_qp, which live
                    // in `col_p` (their slots in `a` are stale until the
                    // write-back below).
                    rotate_rows(&mut a, n, p, q, c, s);
                    let (xp, xq) = (col_p[p], col_p[q]);
                    col_p[p] = c * xp - s * xq;
                    col_p[q] = s * xp + c * xq;
                    // V ← V J accumulates eigenvectors (rows of Vᵀ).
                    rotate_rows(&mut vt, n, p, q, c, s);
                }
                for (&x, row) in col_p.iter().zip(a.chunks_exact_mut(n)) {
                    row[p] = x;
                }
            }
        }
        // Finite input can still overflow mid-sweep, leaving a NaN norm or a
        // non-finite diagonal.
        let values: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
        let off_limit = !converged && {
            let norm = off_diagonal_norm(&a, n);
            norm.is_nan() || norm > threshold
        };
        if off_limit || values.iter().any(|v| !v.is_finite()) {
            return Err(EigenError::NoConvergence);
        }

        // Sort the eigenpairs by ascending eigenvalue (stable, so equal
        // eigenvalues keep their rotation order) and permute the rows of
        // `vt` in place to match, one cycle of the permutation at a time:
        // row j becomes old row order[j]. A sorted copy would touch a third
        // n × n buffer, even with `a` freed first: freed heap pages stay
        // resident.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| {
            values[x]
                .partial_cmp(&values[y])
                .expect("eigenvalues are finite")
        });
        let mut placed = vec![false; n];
        for start in 0..n {
            let mut j = start;
            while !placed[j] {
                placed[j] = true;
                let src = order[j];
                if src == start {
                    break;
                }
                let (lo, hi) = (j.min(src), j.max(src));
                let (head, tail) = vt.split_at_mut(hi * n);
                head[lo * n..(lo + 1) * n].swap_with_slice(&mut tail[..n]);
                j = src;
            }
        }
        Ok(SymmetricEigen {
            eigenvalues: order.iter().map(|&j| values[j]).collect(),
            vt,
            sweeps,
        })
    }

    /// Number of Jacobi sweeps the decomposition took — the eigensolve
    /// effort counter surfaced by the partitioning trace.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Number of eigenpairs (the matrix dimension).
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Returns `true` for the decomposition of the 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }

    /// The `i`-th smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn eigenvalue(&self, i: usize) -> f64 {
        self.eigenvalues[i]
    }

    /// All eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The eigenvector paired with the `i`-th smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn eigenvector(&self, i: usize) -> Vec<f64> {
        let n = self.len();
        assert!(i < n, "eigenvector index out of bounds");
        self.vt[i * n..(i + 1) * n].to_vec()
    }

    /// The spectral embedding: an `n × k` matrix whose columns are the `k`
    /// eigenvectors with the smallest eigenvalues. Row `i` is the feature
    /// vector of graph node `i`, exactly as spectral clustering consumes it.
    ///
    /// # Panics
    ///
    /// Panics when `k > len()`.
    pub fn embedding(&self, k: usize) -> DMatrix {
        assert!(k <= self.len(), "cannot take more eigenvectors than exist");
        let n = self.len();
        let mut m = DMatrix::zeros(n, k);
        for j in 0..k {
            for i in 0..n {
                m[(i, j)] = self.vt[j * n + i];
            }
        }
        m
    }
}

/// Frobenius norm of the off-diagonal entries of the row-major `n × n`
/// buffer `a`, summed row by row — the Jacobi convergence test.
fn off_diagonal_norm(a: &[f64], n: usize) -> f64 {
    let mut s = 0.0;
    for (i, row) in a.chunks_exact(n).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            if i != j {
                s += x * x;
            }
        }
    }
    s.sqrt()
}

/// Applies the rotation `(c, s)` to column `p`, held in `col_p`, and
/// column `q` of the row-major buffer `a` with rows of length `n`:
/// `x_p ← c·x_p − s·x_q`, `x_q ← s·x_p + c·x_q` in every row. Two rows
/// per step, each with the one-row expressions: a one-row loop ran about
/// 30 % slower whenever it happened to start on a 64-byte boundary
/// (EXPERIMENTS.md, "Measurement hazard"), and this one ran at one speed
/// in every placement tried.
fn rotate_column(col_p: &mut [f64], a: &mut [f64], n: usize, q: usize, c: f64, s: f64) {
    let mut xs = col_p.chunks_exact_mut(2);
    let mut rows = a.chunks_exact_mut(2 * n);
    for (x, two) in (&mut xs).zip(&mut rows) {
        let (aip, aiq) = (x[0], two[q]);
        let (ajp, ajq) = (x[1], two[n + q]);
        x[0] = c * aip - s * aiq;
        two[q] = s * aip + c * aiq;
        x[1] = c * ajp - s * ajq;
        two[n + q] = s * ajp + c * ajq;
    }
    if let ([x], row) = (xs.into_remainder(), rows.into_remainder()) {
        let (aip, aiq) = (*x, row[q]);
        *x = c * aip - s * aiq;
        row[q] = s * aip + c * aiq;
    }
}

/// Applies the rotation `(c, s)` to rows `p < q` of the row-major buffer
/// `m` with rows of length `n`: `row_p ← c·row_p − s·row_q`,
/// `row_q ← s·row_p + c·row_q`.
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (x, y) in row_p.iter_mut().zip(row_q) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(eig: &SymmetricEigen) -> DMatrix {
        // Q Λ Qᵀ
        let n = eig.len();
        let mut lambda = DMatrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = eig.eigenvalue(i);
        }
        let q = eig.embedding(n);
        q.matmul(&lambda).matmul(&q.transpose())
    }

    #[test]
    fn two_by_two_known() {
        let m = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        assert!((e.eigenvalue(0) - 1.0).abs() < 1e-10);
        assert!((e.eigenvalue(1) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let m = DMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        assert_eq!(e.eigenvalues(), &[-1.0, 3.0]);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = DMatrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        let r = reconstruct(&e);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m[(i, j)] - r[(i, j)]).abs() < 1e-8, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = DMatrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 2.0], &[1.0, 2.0, 7.0]]);
        let e = SymmetricEigen::new(&m).unwrap();
        let q = e.embedding(3);
        let qtq = q.transpose().matmul(&q);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn path_graph_laplacian_has_zero_fiedler_gap_structure() {
        // L of path on 4 nodes; eigenvalues: 0, 2-√2, 2, 2+√2
        let l = DMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 2.0, -1.0, 0.0],
            &[0.0, -1.0, 2.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ]);
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-10);
        assert!((e.eigenvalue(1) - (2.0 - 2.0_f64.sqrt())).abs() < 1e-9);
        assert!((e.eigenvalue(3) - (2.0 + 2.0_f64.sqrt())).abs() < 1e-9);
        // constant eigenvector for λ=0
        let v0 = e.eigenvector(0);
        let first = v0[0];
        assert!(v0.iter().all(|&x| (x - first).abs() < 1e-9));
    }

    #[test]
    fn disconnected_graph_has_multiplicity_two_zero() {
        // two disjoint edges
        let l = DMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ]);
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-10);
        assert!(e.eigenvalue(1).abs() < 1e-10);
        assert!(e.eigenvalue(2) > 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let rect = DMatrix::zeros(2, 3);
        assert!(matches!(
            SymmetricEigen::new(&rect),
            Err(EigenError::NotSquare)
        ));
        let asym = DMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(
            SymmetricEigen::new(&asym),
            Err(EigenError::NotSymmetric)
        ));
    }

    /// NaN passes any `|x − y| > tol` symmetry test, so without the up-front
    /// check it burned all 64 sweeps and then panicked sorting eigenvalues.
    #[test]
    fn non_finite_input_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let off_diagonal = DMatrix::from_rows(&[&[1.0, bad], &[bad, 1.0]]);
            let diagonal = DMatrix::from_rows(&[&[bad, 0.5], &[0.5, 1.0]]);
            for m in [off_diagonal, diagonal] {
                assert_eq!(SymmetricEigen::new(&m).unwrap_err(), EigenError::NonFinite);
            }
        }
    }

    /// Finite entries near `f64::MAX` overflow to an infinite eigenvalue.
    #[test]
    fn overflow_under_rotation_is_a_typed_error() {
        let m = DMatrix::from_rows(&[&[1e308, 1e308], &[1e308, 1e308]]);
        assert_eq!(
            SymmetricEigen::new(&m).unwrap_err(),
            EigenError::NoConvergence
        );
    }

    #[test]
    fn off_diagonal_norm_skips_the_diagonal() {
        assert_eq!(off_diagonal_norm(DMatrix::identity(5).as_slice(), 5), 0.0);
        let norm = off_diagonal_norm(&[1.0, 3.0, 4.0, 1.0], 2);
        assert!((norm - 5.0).abs() < 1e-12);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Row `j` of the rotated basis is eigenvector `j`: `eigenvector` reads
    /// a row, `embedding` gathers columns, and both see the same bits.
    #[test]
    fn eigenvector_rows_are_embedding_columns_bit_for_bit() {
        let m = DMatrix::from_rows(&[
            &[4.0, -1.0, 0.0, -1.0, 0.0],
            &[-1.0, 3.0, -1.0, 0.0, -1.0],
            &[0.0, -1.0, 2.0, -1.0, 0.0],
            &[-1.0, 0.0, -1.0, 3.0, -1.0],
            &[0.0, -1.0, 0.0, -1.0, 2.0],
        ]);
        let e = SymmetricEigen::new(&m).unwrap();
        let n = e.len();
        let full = e.embedding(n);
        for j in 0..n {
            assert_eq!(
                bits(&e.eigenvector(j)),
                bits(&full.column(j)),
                "eigenvector {j}"
            );
        }
        for k in 0..=n {
            let part = e.embedding(k);
            assert_eq!((part.rows(), part.cols()), (n, k));
            for i in 0..n {
                assert_eq!(
                    bits(part.row(i)),
                    bits(&full.row(i)[..k]),
                    "k = {k}, row {i}"
                );
            }
        }
    }

    /// `new(&m)` decomposes a copy through `decompose(m)`: same sweeps,
    /// same eigenvalues, same basis, bit for bit — on a degenerate kernel
    /// Laplacian, where the basis is the part that could drift.
    #[test]
    fn by_reference_and_by_value_decompositions_are_bit_identical() {
        use panorama_dfg::{kernels, KernelId, KernelScale};

        let dfg = kernels::generate(KernelId::MatrixMultiply, KernelScale::Tiny);
        let n = dfg.num_ops();
        let lap = DMatrix::from_row_major(n, n, panorama_graph::laplacian(dfg.graph()));
        let by_ref = SymmetricEigen::new(&lap).unwrap();
        let by_value = SymmetricEigen::decompose(lap).unwrap();
        assert_eq!(by_ref.sweeps(), by_value.sweeps());
        assert_eq!(bits(by_ref.eigenvalues()), bits(by_value.eigenvalues()));
        assert_eq!(
            bits(by_ref.embedding(n).as_slice()),
            bits(by_value.embedding(n).as_slice())
        );
    }

    #[test]
    fn empty_matrix_ok() {
        let e = SymmetricEigen::new(&DMatrix::zeros(0, 0)).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn moderately_large_laplacian_converges() {
        // ring of 60 nodes: eigenvalues 2-2cos(2πk/n), all in [0,4]
        let n = 60;
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            l[(i, i)] = 2.0;
            let j = (i + 1) % n;
            l[(i, j)] = -1.0;
            l[(j, i)] = -1.0;
        }
        let e = SymmetricEigen::new(&l).unwrap();
        assert!(e.eigenvalue(0).abs() < 1e-8);
        assert!(e.eigenvalue(n - 1) <= 4.0 + 1e-8);
        // trace preserved: sum of eigenvalues == 2n
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((sum - 2.0 * n as f64).abs() < 1e-6);
    }

    /// Kernel Laplacians are exactly degenerate (mmul has eigenvalue
    /// multiplicities up to 16), so k-means downstream sees whatever basis
    /// of each eigenspace this solver happens to produce: the basis is part
    /// of the contract, not just the spectrum. Any change in rounding,
    /// operation order or rotation order moves these hashes.
    #[test]
    fn eigenpairs_of_kernel_laplacians_are_pinned_bit_for_bit() {
        use panorama_dfg::{kernels, KernelId, KernelScale};
        use panorama_graph::laplacian;

        for (id, sweeps, want) in [
            (KernelId::MatrixMultiply, 13, 0x1b70_8eb7_5c8e_435e_u64),
            (KernelId::IdctRows, 11, 0xb6ed_cd3c_5a8a_0cc1),
            (KernelId::Fir, 9, 0xbf73_beeb_4b8c_a46b),
        ] {
            let dfg = kernels::generate(id, KernelScale::Scaled);
            let n = dfg.num_ops();
            let lap = DMatrix::from_row_major(n, n, laplacian(dfg.graph()));
            let e = SymmetricEigen::new(&lap).unwrap();
            // FNV-1a over the bit patterns of every eigenvalue and every
            // entry of the full n × n embedding
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for x in e.eigenvalues().iter().chain(e.embedding(n).as_slice()) {
                for b in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                (e.sweeps(), h),
                (sweeps, want),
                "{id}: got {} sweeps, hash {h:#018x}",
                e.sweeps()
            );
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    fn random_symmetric(seed: &[i8], n: usize) -> DMatrix {
        let mut m = DMatrix::zeros(n, n);
        let mut k = 0;
        for i in 0..n {
            for j in i..n {
                let v = *seed.get(k).unwrap_or(&1) as f64 / 2.0;
                m[(i, j)] = v;
                m[(j, i)] = v;
                k += 1;
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Q Λ Qᵀ reconstructs the input for arbitrary symmetric matrices.
        #[test]
        fn decomposition_reconstructs(n in 1usize..8, seed in proptest::collection::vec(-9i8..10, 0..36)) {
            let m = random_symmetric(&seed, n);
            let e = SymmetricEigen::new(&m).unwrap();
            let q = e.embedding(n);
            let mut lambda = DMatrix::zeros(n, n);
            for i in 0..n {
                lambda[(i, i)] = e.eigenvalue(i);
            }
            let r = q.matmul(&lambda).matmul(&q.transpose());
            for i in 0..n {
                for j in 0..n {
                    prop_assert!((m[(i, j)] - r[(i, j)]).abs() < 1e-7,
                        "entry ({},{}) {} vs {}", i, j, m[(i,j)], r[(i,j)]);
                }
            }
        }

        /// Eigenvalues come out sorted and their sum equals the trace.
        #[test]
        fn sorted_and_trace_preserved(n in 1usize..8, seed in proptest::collection::vec(-9i8..10, 0..36)) {
            let m = random_symmetric(&seed, n);
            let e = SymmetricEigen::new(&m).unwrap();
            for w in e.eigenvalues().windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
            let sum: f64 = e.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }
    }
}
