//! K-SVD dictionary update (Aharon, Elad & Bruckstein) — the "SVD
//! algorithm" behind the paper's CSC baseline (ref \[23\]).
//!
//! For each atom in turn: collect the samples that use it, form the
//! residual matrix with that atom's contribution removed, and replace the
//! atom (and its coefficients) with the top singular pair of that
//! residual — the rank-1 update that minimises the Frobenius error.

use crate::dictionary::Dictionary;
use crate::mp::SparseCode;
use qn_linalg::svd::svd;
use qn_linalg::Matrix;

/// One K-SVD sweep: update every atom (and the corresponding non-zero
/// coefficients in `codes`) in place. Atoms used by no sample are left
/// unchanged.
///
/// # Panics
/// Panics on shape mismatches between `dict`, `codes` and `samples`.
pub fn ksvd_update(dict: &mut Dictionary, codes: &mut [SparseCode], samples: &[Vec<f64>]) {
    assert_eq!(codes.len(), samples.len(), "ksvd: batch sizes differ");
    let n = dict.signal_dim();
    let k = dict.atom_count();
    for code in codes.iter() {
        assert_eq!(code.coefficients.len(), k, "ksvd: code length mismatch");
    }

    for atom_idx in 0..k {
        // Samples whose code uses this atom.
        let users: Vec<usize> = codes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| (c.coefficients[atom_idx] != 0.0).then_some(i))
            .collect();
        if users.is_empty() {
            continue;
        }
        // Residual matrix E = Y − Σ_{j≠atom} d_j s_j, restricted to users.
        let mut e = Matrix::zeros(n, users.len());
        for (col, &i) in users.iter().enumerate() {
            let mut r = samples[i].clone();
            let approx = dict.synthesize(&codes[i].coefficients);
            for (rj, aj) in r.iter_mut().zip(&approx) {
                *rj -= aj;
            }
            // Add back this atom's own contribution.
            let c = codes[i].coefficients[atom_idx];
            let atom = dict.atom(atom_idx);
            for (rj, dj) in r.iter_mut().zip(&atom) {
                *rj += c * dj;
            }
            e.set_col(col, &r);
        }
        // Rank-1 approximation of E: new atom = u₁, new coeffs = σ₁ v₁.
        let d = svd(&e).expect("non-empty residual matrix");
        if d.singular_values[0] <= 0.0 {
            continue;
        }
        let new_atom = d.u.col(0);
        dict.set_atom(atom_idx, &new_atom);
        for (col, &i) in users.iter().enumerate() {
            codes[i].coefficients[atom_idx] = d.singular_values[0] * d.v.get(col, 0);
        }
    }
}

/// Total squared reconstruction error `Σ_i ‖y_i − D s_i‖²`.
pub fn reconstruction_error(dict: &Dictionary, codes: &[SparseCode], samples: &[Vec<f64>]) -> f64 {
    codes
        .iter()
        .zip(samples)
        .map(|(c, y)| {
            let approx = dict.synthesize(&c.coefficients);
            y.iter()
                .zip(&approx)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_samples(
        dict: &Dictionary,
        m: usize,
        sparsity: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        use rand::Rng;
        (0..m)
            .map(|_| {
                let mut y = vec![0.0; dict.signal_dim()];
                for _ in 0..sparsity {
                    let j = rng.random_range(0..dict.atom_count());
                    let c = rng.random::<f64>() * 2.0 - 1.0;
                    qn_linalg::vector::axpy(c, &dict.atom(j), &mut y);
                }
                y
            })
            .collect()
    }

    #[test]
    fn ksvd_sweep_reduces_reconstruction_error() {
        let mut rng = StdRng::seed_from_u64(11);
        let truth = Dictionary::random(8, 12, &mut rng);
        let samples = sparse_samples(&truth, 30, 2, &mut rng);
        // Start from a different random dictionary.
        let mut dict = Dictionary::random(8, 12, &mut rng);
        let mut codes = omp::batch(&dict, &samples, 2, 1e-12);
        let before = reconstruction_error(&dict, &codes, &samples);
        ksvd_update(&mut dict, &mut codes, &samples);
        let after = reconstruction_error(&dict, &codes, &samples);
        assert!(after < before, "K-SVD increased error: {before} → {after}");
    }

    #[test]
    fn several_sweeps_converge_towards_data() {
        // Note: the OMP re-coding step is greedy, so the *cross-sweep*
        // error is not strictly monotone; assert overall convergence.
        let mut rng = StdRng::seed_from_u64(12);
        let truth = Dictionary::random(6, 8, &mut rng);
        let samples = sparse_samples(&truth, 40, 2, &mut rng);
        let mut dict = Dictionary::random(6, 8, &mut rng);
        let initial = {
            let codes = omp::batch(&dict, &samples, 2, 1e-12);
            reconstruction_error(&dict, &codes, &samples)
        };
        let mut err = initial;
        for _ in 0..10 {
            let mut codes = omp::batch(&dict, &samples, 2, 1e-12);
            ksvd_update(&mut dict, &mut codes, &samples);
            err = reconstruction_error(&dict, &codes, &samples);
        }
        assert!(err < initial * 0.2, "error {initial} → {err}");
        // Mean per-sample error should be small by now.
        assert!(err / 40.0 < 0.05, "residual error {err}");
    }

    #[test]
    fn unused_atoms_are_left_alone() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut dict = Dictionary::random(4, 6, &mut rng);
        let before = dict.atom(5);
        // Codes that never touch atom 5.
        let samples = vec![dict.atom(0), dict.atom(1)];
        let mut codes = omp::batch(&dict, &samples, 1, 1e-12);
        for c in &codes {
            assert_eq!(c.coefficients[5], 0.0);
        }
        ksvd_update(&mut dict, &mut codes, &samples);
        assert_eq!(dict.atom(5), before);
    }

    #[test]
    fn atoms_stay_unit_norm_after_update() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut dict = Dictionary::random(5, 7, &mut rng);
        let samples = sparse_samples(&dict.clone(), 20, 2, &mut rng);
        let mut codes = omp::batch(&dict, &samples, 2, 1e-12);
        ksvd_update(&mut dict, &mut codes, &samples);
        for j in 0..7 {
            let n = qn_linalg::vector::norm2(&dict.atom(j));
            assert!((n - 1.0).abs() < 1e-10, "atom {j} norm {n}");
        }
    }
}
