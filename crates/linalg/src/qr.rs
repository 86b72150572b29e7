//! Householder QR decomposition.
//!
//! Used for generating Haar-random orthogonal matrices and as a building
//! block in tests that need orthonormal bases.

// Indexed loops with offset ranges mirror the textbook algorithms here;
// iterator adaptors would obscure the pivoting/reflection structure.
#![allow(clippy::needless_range_loop)]

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::Result;

/// Result of a full QR decomposition `A = Q R`, with `Q` an `m × m`
/// orthogonal matrix and `R` an `m × n` upper-triangular matrix.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Orthogonal factor (`m × m`).
    pub q: Matrix,
    /// Upper-triangular factor (`m × n`).
    pub r: Matrix,
}

/// Compute the full QR decomposition of `a` by Householder reflections.
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] for an empty matrix.
pub fn qr(a: &Matrix) -> Result<QrDecomposition> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument("qr: empty matrix".to_string()));
    }
    let mut r = a.clone();
    let mut q = Matrix::identity(m);
    let steps = n.min(m.saturating_sub(1));
    let mut v = vec![0.0; m];

    for k in 0..steps {
        // Build the Householder vector for column k, rows k..m.
        let mut norm_x = 0.0;
        for i in k..m {
            norm_x += r.get(i, k) * r.get(i, k);
        }
        let norm_x = norm_x.sqrt();
        if norm_x == 0.0 {
            continue;
        }
        let x0 = r.get(k, k);
        let alpha = if x0 >= 0.0 { -norm_x } else { norm_x };
        for i in k..m {
            v[i] = r.get(i, k);
        }
        v[k] -= alpha;
        let vnorm_sq = vector::norm2_sq(&v[k..m]);
        if vnorm_sq == 0.0 {
            continue;
        }
        let beta = 2.0 / vnorm_sq;

        // R ← (I − β v vᵀ) R
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * r.get(i, j);
            }
            let f = beta * dot;
            for i in k..m {
                let val = r.get(i, j) - f * v[i];
                r.set(i, j, val);
            }
        }
        // Q ← Q (I − β v vᵀ)
        for i in 0..m {
            let mut dot = 0.0;
            for j in k..m {
                dot += q.get(i, j) * v[j];
            }
            let f = beta * dot;
            for j in k..m {
                let val = q.get(i, j) - f * v[j];
                q.set(i, j, val);
            }
        }
        // Clean the explicitly-zeroed part of the column.
        r.set(k, k, alpha);
        for i in (k + 1)..m {
            r.set(i, k, 0.0);
        }
    }
    Ok(QrDecomposition { q, r })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert!(
            a.max_abs_diff(b).unwrap() < tol,
            "matrices differ by {:?}",
            a.max_abs_diff(b)
        );
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[
            vec![2.0, -1.0, 3.0],
            vec![1.0, 0.0, 1.0],
            vec![4.0, 2.0, -2.0],
        ])
        .unwrap();
        let QrDecomposition { q, r } = qr(&a).unwrap();
        assert!(q.is_orthogonal(1e-12));
        assert_close(&q.matmul(&r).unwrap(), &a, 1e-12);
        // R upper-triangular.
        for i in 0..3 {
            for j in 0..i {
                assert!(r.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_tall_matrix() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 + (i as f64) * 0.3);
        let QrDecomposition { q, r } = qr(&a).unwrap();
        assert!(q.is_orthogonal(1e-12));
        assert_close(&q.matmul(&r).unwrap(), &a, 1e-12);
    }

    #[test]
    fn qr_wide_matrix() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64 - j as f64) * 1.5 + 1.0);
        let QrDecomposition { q, r } = qr(&a).unwrap();
        assert!(q.is_orthogonal(1e-12));
        assert_close(&q.matmul(&r).unwrap(), &a, 1e-12);
    }

    #[test]
    fn qr_handles_rank_deficiency() {
        // Column 2 = 2 * column 0.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![2.0, 1.0, 4.0],
            vec![3.0, 0.0, 6.0],
        ])
        .unwrap();
        let QrDecomposition { q, r } = qr(&a).unwrap();
        assert_close(&q.matmul(&r).unwrap(), &a, 1e-12);
        // The trailing diagonal entry must be ~0 (rank 2).
        assert!(r.get(2, 2).abs() < 1e-12);
    }

    #[test]
    fn qr_rejects_empty() {
        assert!(qr(&Matrix::zeros(0, 0)).is_err());
    }
}
