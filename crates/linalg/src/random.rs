//! Seeded random matrices and vectors.
//!
//! All randomness in the workspace flows through explicit `u64` seeds so
//! every experiment is exactly reproducible. Gaussian variates come from a
//! hand-rolled Box–Muller transform (the `rand_distr` crate is outside the
//! allowed dependency set).

use crate::matrix::Matrix;
use crate::sym_eig::sym_eig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a standard-normal variate via Box–Muller.
#[inline]
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    // Map the half-open [0,1) sample away from 0 so ln() stays finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Vector of iid standard normals.
pub fn gaussian_vec(len: usize, rng: &mut impl Rng) -> Vec<f64> {
    (0..len).map(|_| gaussian(rng)).collect()
}

/// Matrix of iid standard normals.
pub fn gaussian_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_vec(rows, cols, gaussian_vec(rows * cols, rng))
        .expect("length matches by construction")
}

/// Seeded random orthogonal matrix: the eigenvectors of the symmetric
/// part of an `n × n` Gaussian matrix. The distribution is not Haar;
/// tests use it where any unstructured orthogonal matrix will do.
pub fn random_orthogonal(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    sym_eig(&gaussian_matrix(n, n, &mut rng))
        .expect("n > 0 Gaussian matrix")
        .eigenvectors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let xs = gaussian_vec(n, &mut rng);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_orthogonal(8, 7);
        let b = random_orthogonal(8, 7);
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
        let c = random_orthogonal(8, 8);
        assert!(a.max_abs_diff(&c).unwrap() > 1e-3);
    }

    #[test]
    fn random_orthogonal_matrices_are_orthogonal() {
        for seed in 0..5 {
            let q = random_orthogonal(6, seed);
            assert!(q.is_orthogonal(1e-12), "seed {seed}");
        }
    }

    #[test]
    fn gaussian_matrix_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = gaussian_matrix(3, 4, &mut rng);
        assert_eq!(m.shape(), (3, 4));
    }
}
