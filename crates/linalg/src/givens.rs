//! Givens (plane) rotations.
//!
//! A Givens rotation acts on two coordinates `(i, j)` of a vector:
//!
//! ```text
//! | c  -s | | x_i |
//! | s   c | | x_j |
//! ```
//!
//! This is exactly the paper's beam-splitter gate `U(k,k+1)` with phase
//! `α ≡ 0` (reflectivity `cos θ`): a real rotation between two adjacent
//! modes of the interferometer. The Clements decomposition in
//! `qn-photonic` factors an orthogonal matrix into these rotations.

use crate::matrix::Matrix;

/// A 2×2 plane rotation, stored as the cosine/sine pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Givens {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
}

impl Givens {
    /// Rotation by angle `theta` (counter-clockwise).
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Givens { c, s }
    }

    /// Apply to a coordinate pair, returning the rotated pair.
    #[inline]
    pub fn apply_pair(&self, x: f64, y: f64) -> (f64, f64) {
        (self.c * x - self.s * y, self.s * x + self.c * y)
    }

    /// Left-multiply matrix `m` by the rotation acting on rows `i`, `j`
    /// (i.e. `m ← G(i,j) · m`).
    pub fn apply_rows(&self, m: &mut Matrix, i: usize, j: usize) {
        assert_ne!(i, j, "givens: identical rows");
        for k in 0..m.cols() {
            let (a, b) = self.apply_pair(m.get(i, k), m.get(j, k));
            m.set(i, k, a);
            m.set(j, k, b);
        }
    }

    /// Right-multiply matrix `m` by the rotation acting on columns `i`, `j`
    /// (i.e. `m ← m · G(i,j)ᵀ` in the row-rotation convention, which rotates
    /// the column pair the same way `apply_pair` rotates coordinates).
    pub fn apply_cols(&self, m: &mut Matrix, i: usize, j: usize) {
        assert_ne!(i, j, "givens: identical columns");
        for k in 0..m.rows() {
            let (a, b) = self.apply_pair(m.get(k, i), m.get(k, j));
            m.set(k, i, a);
            m.set(k, j, b);
        }
    }

    /// Dense `n × n` matrix embedding of the rotation on coordinates `(i, j)`.
    pub fn to_matrix(&self, n: usize, i: usize, j: usize) -> Matrix {
        let mut m = Matrix::identity(n);
        m.set(i, i, self.c);
        m.set(i, j, -self.s);
        m.set(j, i, self.s);
        m.set(j, j, self.c);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-14;

    #[test]
    fn from_angle_roundtrip() {
        for &t in &[0.0, 0.3, -1.2, std::f64::consts::FRAC_PI_2] {
            let g = Givens::from_angle(t);
            let (c, s) = g.apply_pair(1.0, 0.0);
            assert!((s.atan2(c) - t).abs() < TOL);
            assert!((g.c * g.c + g.s * g.s - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn row_and_col_application_match_dense_embedding() {
        let g = Givens::from_angle(0.4);
        let m0 = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);

        let mut mr = m0.clone();
        g.apply_rows(&mut mr, 1, 2);
        let dense = g.to_matrix(4, 1, 2);
        let expect = dense.matmul(&m0).unwrap();
        assert!(mr.max_abs_diff(&expect).unwrap() < TOL);

        let mut mc = m0.clone();
        g.apply_cols(&mut mc, 0, 3);
        let dense = g.to_matrix(4, 0, 3);
        let expect = m0.matmul(&dense.transpose()).unwrap();
        assert!(mc.max_abs_diff(&expect).unwrap() < TOL);
    }

    #[test]
    fn dense_embedding_is_orthogonal() {
        let g = Givens::from_angle(-0.9);
        let m = g.to_matrix(5, 2, 4);
        assert!(m.is_orthogonal(TOL));
    }
}
