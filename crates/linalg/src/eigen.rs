//! Householder tridiagonalisation + implicit-shift QL eigendecomposition
//! of symmetric matrices: EISPACK's `tred2`/`tql2`, the method of the
//! LAPACK solver under Scikit-Learn.
//!
//! # The basis is part of the contract
//!
//! Kernel Laplacians are exactly degenerate (multiplicities of 6–48 among
//! the eigenvalues the embedding uses at paper scale), so the first `k`
//! eigenvectors slice through eigenspaces and k-means sees whichever basis
//! the solver produces. Partitions, and II after them, depend on every
//! floating-point operation here and its order: only `+ − × ÷` and `sqrt`
//! (no `mul_add`, no libm `hypot`), EISPACK's loop order, so the basis is
//! bit-identical on every host. The shift is the eigenvalue of the leading
//! 2 × 2 block nearer `d[l]`; the deflation test and the iteration cap are
//! LAPACK `dsteqr`'s; equal eigenvalues keep QL's order. The
//! `eigenpairs_of_kernel_laplacians_are_pinned_bit_for_bit` test holds it.
//!
//! # One `n × n` buffer
//!
//! [`SymmetricEigen::decompose`] works in the buffer of the matrix it takes
//! by value: the reduction parks each Householder vector in the row it
//! annihilated, accumulating them turns the buffer into `Qᵀ`, and each QL
//! rotation updates two of its rows. Rows are then sorted by eigenvalue:
//! row `j` is eigenvector `j`. [`SymmetricEigen::new`] decomposes a copy.

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
    /// QL exceeded its iteration limit, or arithmetic overflowed.
    NoConvergence,
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigenError::NotSquare => write!(f, "matrix is not square"),
            EigenError::NotSymmetric => write!(f, "matrix is not symmetric"),
            EigenError::NonFinite => write!(f, "matrix has a NaN or infinite entry"),
            EigenError::NoConvergence => write!(f, "QL iteration did not converge"),
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
    /// The basis, row-major `n × n`: row `j` is eigenvector `eigenvalues[j]`'s.
    vt: Vec<f64>,
    /// QL iterations, summed over all eigenvalues.
    sweeps: usize,
}

/// QL iterations allowed per row of the matrix, summed over all
/// eigenvalues: LAPACK `dsteqr`'s limit of 30 n in all.
const MAX_ITERATIONS: usize = 30;
const SYMMETRY_TOL: f64 = 1e-9;
/// LAPACK's `dlamch('E')`, the unit roundoff: half of `f64::EPSILON`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

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

    /// Decomposes the symmetric matrix `m` in its own buffer, which the
    /// result keeps as the basis: one `n × n` buffer in all.
    ///
    /// # Errors
    ///
    /// * [`EigenError::NotSquare`] / [`EigenError::NonFinite`] /
    ///   [`EigenError::NotSymmetric`] on invalid input;
    /// * [`EigenError::NoConvergence`] if QL takes more than 30 n
    ///   iterations in all or entries near `f64::MAX` overflow.
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
        let mut vt = m.into_vec();
        let (mut values, mut e) = tridiagonalize(&mut vt, n);
        let sweeps = diagonalize(&mut values, &mut e, &mut vt)?;
        // Finite input can still overflow on the way.
        if values.iter().chain(&vt).any(|x| !x.is_finite()) {
            return Err(EigenError::NoConvergence);
        }
        // Sort the eigenpairs by ascending eigenvalue (stable, so equal
        // eigenvalues keep QL's order) and permute the rows of `vt` in
        // place to match, one cycle of the permutation at a time: row j
        // becomes old row order[j]. A sorted copy would touch a second
        // n × n buffer.
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

    /// QL iterations the decomposition took, over all eigenvalues — the
    /// eigensolve effort counter surfaced by the partitioning trace.
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

/// Householder reduction (`tred2`) of the symmetric row-major `n × n`
/// buffer `a`: returns `T`'s diagonal and subdiagonal (`e[i]` couples `i`,
/// `i + 1`) and leaves `Qᵀ` in `a`, `A = Q T Qᵀ`. Row `i` is reduced by
/// `I − u uᵀ/h`, then holds `u` (and `d[i]` holds `h`). The block above is
/// updated in full rows, whose upper half repeats the lower bit for bit
/// (`x·y + z·w` rounds as `z·w + x·y`), so sums run along rows.
fn tridiagonalize(a: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    for i in (1..n).rev() {
        let (block, tail) = a.split_at_mut(i * n);
        let u = &mut tail[..i];
        let (mut h, mut sub) = (0.0, u[i - 1]);
        let scale = u.iter().fold(0.0, |s, x| s + x.abs());
        if i > 1 && scale != 0.0 {
            for x in u.iter_mut() {
                *x /= scale;
                h += *x * *x;
            }
            let f = u[i - 1];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            sub = scale * g;
            h -= f * g;
            u[i - 1] = f - g;
            // p = A u / h in e[..i], then q = p − (uᵀp / 2h) u.
            let mut f = 0.0;
            for (j, row) in block.chunks_exact(n).enumerate() {
                e[j] = dot(&row[..i], u) / h;
                f += e[j] * u[j];
            }
            let hh = f / (h + h);
            for (q, &x) in e[..i].iter_mut().zip(u.iter()) {
                *q -= hh * x;
            }
            // A ← A − u qᵀ − q uᵀ
            for (j, row) in block.chunks_exact_mut(n).enumerate() {
                let (f, g) = (u[j], e[j]);
                for ((x, &q), &y) in row[..i].iter_mut().zip(&e[..i]).zip(u.iter()) {
                    *x -= f * q + g * y;
                }
            }
        }
        (d[i], e[i - 1]) = (h, sub);
    }
    // Accumulate Qᵀ = P₁ ⋯ P_{n−1} from the inside out: at step i the
    // leading i × i block already holds it for the first i coordinates.
    // `w` is `u/h`, divided once per step.
    let mut w = vec![0.0; n];
    for i in 0..n {
        let (block, tail) = a.split_at_mut(i * n);
        let row_i = &mut tail[..n];
        if d[i] != 0.0 {
            let (u, w) = (&row_i[..i], &mut w[..i]);
            for (w, &y) in w.iter_mut().zip(u) {
                *w = y / d[i];
            }
            for row in block.chunks_exact_mut(n) {
                let g = dot(&row[..i], u);
                for (x, &w) in row[..i].iter_mut().zip(&*w) {
                    *x -= g * w;
                }
            }
        }
        d[i] = std::mem::replace(&mut row_i[i], 1.0);
        row_i[..i].fill(0.0);
        block.iter_mut().skip(i).step_by(n).for_each(|x| *x = 0.0);
    }
    (d, e)
}

/// Implicit-shift QL (`tql2`) on `T = (d, e)`, rotating pairs of rows of
/// `vt`: leaves the eigenvalues, unsorted, in `d`; returns the iterations.
fn diagonalize(d: &mut [f64], e: &mut [f64], vt: &mut [f64]) -> Result<usize, EigenError> {
    let (n, mut total) = (d.len(), 0);
    let (eps2, safmin) = (UNIT_ROUNDOFF * UNIT_ROUNDOFF, f64::MIN_POSITIVE);
    // As in `dsteqr`, T is first scaled so that max |T_ij| lies in
    // [√safmin / u², √(1/safmin) / 3], where the test below neither
    // overflows nor drowns in `safmin`; the eigenvalues are scaled back.
    let norm = d.iter().chain(&*e).fold(0.0f64, |a, x| a.max(x.abs()));
    let target = norm.clamp(safmin.sqrt() / eps2, (1.0 / safmin).sqrt() / 3.0);
    let scaled = norm > 0.0 && target != norm;
    if scaled {
        for x in d.iter_mut().chain(e.iter_mut()) {
            *x *= target / norm;
        }
    }
    for l in 0..n {
        loop {
            // The first negligible e[m], m ≥ l, splits off the block l..=m:
            // LAPACK `dsteqr`'s test, e² ≤ u²|d_m||d_{m+1}| + safmin.
            let m = (l..n - 1)
                .find(|&m| e[m] * e[m] <= eps2 * d[m].abs() * d[m + 1].abs() + safmin)
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            if total == MAX_ITERATIONS * n {
                return Err(EigenError::NoConvergence);
            }
            total += 1;
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = pythag(g, 1.0);
            let r = if g >= 0.0 { r } else { -r };
            let mut g = d[m] - d[l] + e[l] / (g + r);
            let (mut s, mut c, mut p, mut split) = (1.0, 1.0, 0.0, false);
            for i in (l..m).rev() {
                let (f, b) = (s * e[i], c * e[i]);
                let r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // The rotation underflowed: the block splits at i + 1.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    split = true;
                    break;
                }
                (s, c) = (f / r, g / r);
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate_rows(vt, n, i, i + 1, c, s);
            }
            if !split {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    if scaled {
        for x in d.iter_mut() {
            *x *= norm / target;
        }
    }
    Ok(total)
}

/// `√(a² + b²)` without destructive overflow, from `+ − × ÷` and `sqrt`
/// alone, so it rounds alike on every host.
fn pythag(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (big, small) = if a > b { (a, b) } else { (b, a) };
    if big == 0.0 {
        return 0.0;
    }
    big * (1.0 + (small / big) * (small / big)).sqrt()
}

/// `Σ xᵢ yᵢ`, summed left to right.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(0.0, |s, (a, b)| s + a * b)
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

    /// `dsteqr`'s test holds only on T scaled into its safe range:
    /// unscaled, `+ safmin` passes every subdiagonal of a matrix near
    /// 1e-160, and `u²|d_m||d_{m+1}|` overflows near 1e200 and passes it too.
    #[test]
    fn extreme_magnitudes_are_scaled_into_range() {
        for s in [1e-160, 1e200] {
            let m = DMatrix::from_rows(&[&[2.0 * s, s], &[s, 2.0 * s]]);
            let e = SymmetricEigen::new(&m).unwrap();
            assert!((e.eigenvalue(0) / s - 1.0).abs() < 1e-12, "{s:e}");
            assert!((e.eigenvalue(1) / s - 3.0).abs() < 1e-12, "{s:e}");
        }
    }

    /// `pythag` is `√(a² + b²)` where squaring would overflow or
    /// underflow, and exact where the textbook triangle is.
    #[test]
    fn pythag_survives_extreme_magnitudes() {
        assert_eq!(pythag(3.0, -4.0), 5.0);
        assert_eq!(pythag(0.0, -0.0), 0.0);
        assert!((pythag(1e200, 1e200) / 1e200 - 2.0_f64.sqrt()).abs() < 1e-15);
        assert!((pythag(1e-200, 1e-200) / 1e-200 - 2.0_f64.sqrt()).abs() < 1e-15);
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
    /// operation order, shift or deflation test moves these hashes.
    #[test]
    fn eigenpairs_of_kernel_laplacians_are_pinned_bit_for_bit() {
        use panorama_dfg::{kernels, KernelId, KernelScale};
        use panorama_graph::laplacian;

        for (id, sweeps, want) in [
            (KernelId::MatrixMultiply, 249, 0xd4b2_c875_de38_681f_u64),
            (KernelId::IdctRows, 285, 0x31d4_beb9_7c5b_68bd),
            (KernelId::Fir, 178, 0x454f_e0a6_870e_50eb),
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
                "{id}: got {} QL iterations, hash {h:#018x}",
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
