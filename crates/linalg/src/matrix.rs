//! A small dense row-major matrix of `f64`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64` values.
///
/// Sized for the workloads in this workspace — graph Laplacians of loop
/// kernels (a few hundred rows) and spectral embeddings (n × k). Not a
/// general-purpose BLAS; operations are the ones the eigensolver, the
/// k-means step and the simplex solver need.
///
/// # Examples
///
/// ```
/// use panorama_linalg::DMatrix;
///
/// let m = DMatrix::identity(3);
/// assert_eq!(m[(1, 1)], 1.0);
/// assert_eq!(m[(0, 2)], 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics when rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        DMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        DMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Takes the underlying row-major buffer without copying it.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns `true` when the matrix is symmetric to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn identity_and_zeros() {
        let i = DMatrix::identity(4);
        let z = DMatrix::zeros(4, 4);
        assert_eq!(i.matmul(&i), i);
        assert_eq!(i.matmul(&z), z);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let p = a.matmul(&b);
        assert_eq!(p, DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn symmetry_checks() {
        let s = DMatrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        assert!(s.is_symmetric(1e-12));
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert!(!a.is_symmetric(1e-12));
        let rect = DMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let _ = DMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_index_panics() {
        let m = DMatrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn debug_is_nonempty() {
        let m = DMatrix::identity(2);
        assert!(format!("{m:?}").contains("DMatrix 2x2"));
    }
}
