//! Matching pursuit (MP).
//!
//! The greedy baseline coder: repeatedly pick the atom most correlated
//! with the residual and subtract its projection. Cheaper but weaker than
//! [`crate::omp`]; included because the paper's reference list leans on
//! pursuit methods (refs \[1\], \[16\]).

use crate::dictionary::Dictionary;
use qn_linalg::vector;

/// Result of a pursuit: the sparse code and the final residual norm.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCode {
    /// Dense coefficient vector (length `K`, mostly zeros).
    pub coefficients: Vec<f64>,
    /// `‖y − D s‖₂` at termination.
    pub residual_norm: f64,
}

impl SparseCode {
    /// Number of non-zero coefficients.
    pub fn sparsity(&self) -> usize {
        self.coefficients.iter().filter(|&&c| c != 0.0).count()
    }

    /// Indices of non-zero coefficients.
    pub fn support(&self) -> Vec<usize> {
        self.coefficients
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c != 0.0).then_some(i))
            .collect()
    }
}

/// Matching pursuit: greedily select up to `max_atoms` atoms, stopping
/// early when the residual norm falls below `tol`.
///
/// # Panics
/// Panics when `y.len()` differs from the dictionary's signal dimension.
pub fn matching_pursuit(dict: &Dictionary, y: &[f64], max_atoms: usize, tol: f64) -> SparseCode {
    assert_eq!(y.len(), dict.signal_dim(), "mp: signal dimension mismatch");
    let mut residual = y.to_vec();
    let mut coefficients = vec![0.0; dict.atom_count()];
    for _ in 0..max_atoms {
        let norm = vector::norm2(&residual);
        if norm <= tol {
            break;
        }
        let corr = dict.correlations(&residual);
        let Some((best, c)) = vector::argmax_abs(&corr) else {
            break;
        };
        if c == 0.0 {
            break;
        }
        // Atoms are unit norm, so the projection coefficient is c itself.
        coefficients[best] += c;
        vector::axpy(-c, &dict.atom(best), &mut residual);
    }
    SparseCode {
        residual_norm: vector::norm2(&residual),
        coefficients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity_dict(n: usize) -> Dictionary {
        Dictionary::from_matrix(Matrix::identity(n))
    }

    #[test]
    fn recovers_sparse_signal_over_identity_dictionary() {
        let d = identity_dict(5);
        let y = vec![0.0, 3.0, 0.0, -2.0, 0.0];
        let code = matching_pursuit(&d, &y, 5, 1e-12);
        assert!((code.coefficients[1] - 3.0).abs() < 1e-12);
        assert!((code.coefficients[3] + 2.0).abs() < 1e-12);
        assert_eq!(code.sparsity(), 2);
        assert!(code.residual_norm < 1e-12);
        assert_eq!(code.support(), vec![1, 3]);
    }

    #[test]
    fn respects_atom_budget() {
        let d = identity_dict(4);
        let y = vec![1.0, 1.0, 1.0, 1.0];
        let code = matching_pursuit(&d, &y, 2, 0.0);
        assert_eq!(code.sparsity(), 2);
        assert!((code.residual_norm - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stops_when_tolerance_reached() {
        let d = identity_dict(3);
        let y = vec![1.0, 0.1, 0.0];
        let code = matching_pursuit(&d, &y, 3, 0.5);
        // After extracting the big coefficient the residual is 0.1 < 0.5.
        assert_eq!(code.sparsity(), 1);
    }

    #[test]
    fn zero_signal_gives_empty_code() {
        let d = identity_dict(3);
        let code = matching_pursuit(&d, &[0.0; 3], 3, 1e-12);
        assert_eq!(code.sparsity(), 0);
        assert_eq!(code.residual_norm, 0.0);
    }

    #[test]
    fn reduces_residual_monotonically_on_random_dictionary() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = Dictionary::random(6, 10, &mut rng);
        let y: Vec<f64> = (0..6).map(|i| ((i * i) as f64 * 0.3).sin()).collect();
        let mut prev = vector::norm2(&y);
        for budget in 1..=6 {
            let code = matching_pursuit(&d, &y, budget, 0.0);
            assert!(code.residual_norm <= prev + 1e-12);
            prev = code.residual_norm;
        }
    }
}
