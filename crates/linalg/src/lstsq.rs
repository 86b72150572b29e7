//! Least-squares solvers.
//!
//! `min_x ‖A x − b‖₂` via SVD with a rank cutoff, so possibly-degenerate
//! systems get the minimum-norm solution (the OMP refit step).

use crate::matrix::Matrix;
use crate::svd::svd;
use crate::Result;

/// Minimum-norm least squares via the SVD pseudo-inverse, discarding
/// singular values below `rcond * σ_max`.
///
/// # Errors
/// Propagates SVD errors.
pub fn lstsq_svd(a: &Matrix, b: &[f64], rcond: f64) -> Result<Vec<f64>> {
    let d = svd(a)?;
    let smax = d.singular_values.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    let utb = d.u.matvec_t(b)?;
    let mut coeffs = vec![0.0; d.singular_values.len()];
    for (i, (&s, &c)) in d.singular_values.iter().zip(&utb).enumerate() {
        if s > cutoff && s > 0.0 {
            coeffs[i] = c / s;
        }
    }
    d.v.matvec(&coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svd_least_squares_overdetermined() {
        // Fit y = 2x + 1 through noisy-free points: exact solution expected.
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![3.0, 1.0],
        ])
        .unwrap();
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = lstsq_svd(&a, &b, 1e-12).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_least_squares_residual_is_orthogonal() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let b = [0.0, 1.0, 5.0];
        let x = lstsq_svd(&a, &b, 1e-12).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        // Residual ⟂ column space.
        let atr = a.matvec_t(&r).unwrap();
        assert!(atr.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn svd_least_squares_handles_rank_deficiency() {
        // Columns are parallel: no full-rank solver applies.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lstsq_svd(&a, &b, 1e-10).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-10);
        }
        // Minimum-norm solution: x ∝ (1, 2).
        assert!((x[1] - 2.0 * x[0]).abs() < 1e-10);
    }
}
