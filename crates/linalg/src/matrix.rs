//! Row-major dense matrix.
//!
//! `Matrix` is the workhorse container of the workspace. Storage is a flat
//! `Vec<f64>` in row-major order, so a row is a contiguous slice — the
//! layout the matvec/matmul kernels and rayon's row-parallel splits want.

use crate::error::LinalgError;
use crate::vector;
use crate::Result;
use rayon::prelude::*;

/// Minimum number of f64 multiply-adds before a product is parallelised.
/// Below this, rayon's scheduling overhead exceeds the work.
const PAR_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from an explicit row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "from_vec: {}x{} needs {} elements, got {}",
                rows,
                cols,
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested row slices.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] for ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::ShapeMismatch(
                "from_rows: ragged rows".to_string(),
            ));
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a fresh vector (columns are strided).
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Overwrite column `j` from a slice.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self.set(i, j, x);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec: {}x{} * len-{}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != rows`.
    #[allow(clippy::needless_range_loop)] // row-index drives two arrays
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec_t: ({}x{})^T * len-{}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            vector::axpy(x[i], self.row(i), &mut y);
        }
        Ok(y)
    }

    /// Matrix product `A B`. Parallelises over rows of `A` once the flop
    /// count crosses `PAR_FLOP_THRESHOLD`; each output row is computed by
    /// a single worker, so results are identical to the sequential path.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let flops = self.rows * self.cols * other.cols;
        if flops >= PAR_FLOP_THRESHOLD {
            let cols = self.cols;
            out.data
                .par_chunks_mut(other.cols)
                .enumerate()
                .for_each(|(i, out_row)| {
                    let a_row = &self.data[i * cols..(i + 1) * cols];
                    mat_row_kernel(a_row, other, out_row);
                });
        } else {
            for i in 0..self.rows {
                let (a_row, out_row) = (
                    &self.data[i * self.cols..(i + 1) * self.cols],
                    &mut out.data[i * other.cols..(i + 1) * other.cols],
                );
                mat_row_kernel(a_row, other, out_row);
            }
        }
        Ok(out)
    }

    /// `Aᵀ A` (Gram matrix), exploiting symmetry.
    #[allow(clippy::needless_range_loop)] // symmetric fill uses b ≥ a
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let r = self.row(i);
            for a in 0..n {
                let ra = r[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..n {
                    g.data[a * n + b] += ra * r[b];
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                g.data[a * n + b] = g.data[b * n + a];
            }
        }
        g
    }

    /// Element-wise sum `A + B`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Element-wise difference `A − B`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64, op: &str) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// Largest absolute element difference `‖A − B‖_max`, or `None` when
    /// shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs())),
        )
    }

    /// True when `‖AᵀA − I‖_max ≤ tol` (columns orthonormal; for square
    /// matrices this is the orthogonality test).
    pub fn is_orthogonal(&self, tol: f64) -> bool {
        let g = self.gram();
        let id = Matrix::identity(self.cols);
        g.max_abs_diff(&id).is_some_and(|d| d <= tol)
    }
}

/// One row of a matmul: `out_row = a_row · B`, traversing `B` row-by-row so
/// the access pattern stays cache-friendly for row-major storage.
#[inline]
fn mat_row_kernel(a_row: &[f64], b: &Matrix, out_row: &mut [f64]) {
    out_row.fill(0.0);
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        vector::axpy(a, b.row(k), out_row);
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6}", self.get(i, j))?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors_and_accessors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&v| v == 0.0));

        let id = Matrix::identity(3);
        assert_eq!(id.get(0, 0), 1.0);
        assert_eq!(id.get(0, 1), 0.0);

        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f.get(1, 0), 10.0);

        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let empty = Matrix::from_rows(&[]).unwrap();
        assert_eq!(empty.shape(), (0, 0));
    }

    #[test]
    fn rows_cols_and_setters() {
        let mut m = small();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        m.set_col(1, &[9.0, 8.0]);
        assert_eq!(m.col(1), vec![9.0, 8.0]);
        m.row_mut(0).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        m.set(0, 0, -1.0);
        assert_eq!(m.get(0, 0), -1.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_matvec_t() {
        let m = small();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_t(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn matmul_small() {
        let a = small();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = small();
        let id = Matrix::identity(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // Big enough to cross the parallel threshold.
        let n = 96;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let c = a.matmul(&b).unwrap();
        // Sequential reference.
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                let aik = a.get(i, k);
                for j in 0..n {
                    r.data[i * n + j] += aik * b.get(k, j);
                }
            }
        }
        assert_eq!(c.max_abs_diff(&r), Some(0.0));
    }

    #[test]
    fn gram_matches_explicit_ata() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = a.gram();
        let ata = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&ata).unwrap() < 1e-12);
    }

    #[test]
    fn add_and_sub() {
        let a = small();
        let s = a.add(&a).unwrap();
        assert_eq!(s.get(1, 1), 8.0);
        let d = s.sub(&a).unwrap();
        assert_eq!(d, a);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn norms_and_diffs() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert_eq!(a.frobenius_norm(), 5.0);
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), Some(4.0));
        assert_eq!(a.max_abs_diff(&Matrix::zeros(1, 1)), None);
    }

    #[test]
    fn orthogonality_check() {
        assert!(Matrix::identity(4).is_orthogonal(1e-14));
        let rot = Matrix::from_rows(&[vec![0.6, -0.8], vec![0.8, 0.6]]).unwrap();
        assert!(rot.is_orthogonal(1e-14));
        assert!(!small().is_orthogonal(1e-6));
    }

    #[test]
    fn display_renders_all_elements() {
        let s = format!("{}", small());
        assert!(s.contains("1.0"));
        assert!(s.contains("4.0"));
        assert_eq!(s.lines().count(), 2);
    }
}
