//! MOD — Method of Optimal Directions dictionary update.
//!
//! Given fixed sparse codes `S`, the dictionary minimising `‖Y − D S‖_F`
//! is the least-squares solution `D = Y S⁺`, computed here via the SVD
//! pseudo-inverse. Simpler than K-SVD (one global solve instead of
//! per-atom rank-1 updates).

use crate::dictionary::Dictionary;
use crate::mp::SparseCode;
use qn_linalg::lstsq::lstsq_svd_matrix;
use qn_linalg::Matrix;

/// One MOD update: replace the whole dictionary with `Y S⁺`
/// (columns re-normalised).
///
/// # Panics
/// Panics on shape mismatches.
pub fn mod_update(dict: &mut Dictionary, codes: &[SparseCode], samples: &[Vec<f64>]) {
    assert_eq!(codes.len(), samples.len(), "mod: batch sizes differ");
    let n = dict.signal_dim();
    let k = dict.atom_count();
    let m = samples.len();
    if m == 0 {
        return;
    }
    // Y: n × m, S: k × m. Want D (n × k) minimising ‖Y − D S‖_F, i.e.
    // Dᵀ solves min ‖Sᵀ Dᵀ − Yᵀ‖_F.
    let mut st = Matrix::zeros(m, k); // Sᵀ
    let mut yt = Matrix::zeros(m, n); // Yᵀ
    for (i, (c, y)) in codes.iter().zip(samples).enumerate() {
        st.set_row(i, &c.coefficients);
        yt.set_row(i, y);
    }
    let dt = lstsq_svd_matrix(&st, &yt, 1e-10).expect("shapes verified");
    dict.set_matrix(dt.transpose());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksvd::reconstruction_error;
    use crate::omp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_recovers_dictionary_from_exact_codes() {
        // Y = D_true S with known S: MOD must recover D_true (up to
        // column scaling, which normalisation fixes).
        let mut rng = StdRng::seed_from_u64(20);
        let truth = Dictionary::random(6, 4, &mut rng);
        use rand::Rng;
        let m = 30;
        let codes: Vec<SparseCode> = (0..m)
            .map(|_| {
                let mut c = vec![0.0; 4];
                for ci in c.iter_mut() {
                    *ci = rng.random::<f64>() * 2.0 - 1.0;
                }
                SparseCode {
                    coefficients: c,
                    residual_norm: 0.0,
                }
            })
            .collect();
        let samples: Vec<Vec<f64>> = codes
            .iter()
            .map(|c| truth.synthesize(&c.coefficients))
            .collect();
        let mut dict = Dictionary::random(6, 4, &mut rng);
        mod_update(&mut dict, &codes, &samples);
        // After the update the reconstruction error with the *same* codes
        // should be ~0 ... but the normalisation rescales columns, so
        // measure the subspace agreement per atom instead.
        for j in 0..4 {
            let a = dict.atom(j);
            let b = truth.atom(j);
            let ip: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(ip.abs() > 0.999, "atom {j} alignment {ip}");
        }
    }

    #[test]
    fn mod_reduces_error_in_alternating_loop() {
        let mut rng = StdRng::seed_from_u64(21);
        let truth = Dictionary::random(8, 10, &mut rng);
        use rand::Rng;
        let samples: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let mut y = vec![0.0; 8];
                for _ in 0..2 {
                    let j = rng.random_range(0..10);
                    qn_linalg::vector::axpy(rng.random::<f64>() - 0.5, &truth.atom(j), &mut y);
                }
                y
            })
            .collect();
        let mut dict = Dictionary::random(8, 10, &mut rng);
        let mut prev = f64::INFINITY;
        for _ in 0..8 {
            let codes = omp::batch(&dict, &samples, 2, 1e-12);
            mod_update(&mut dict, &codes, &samples);
            let codes2 = omp::batch(&dict, &samples, 2, 1e-12);
            let err = reconstruction_error(&dict, &codes2, &samples);
            assert!(err <= prev * 1.5 + 1e-9, "error grew a lot: {prev} → {err}");
            prev = err;
        }
        assert!(prev / 40.0 < 0.05, "final mean error {}", prev / 40.0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut dict = Dictionary::random(4, 4, &mut rng);
        let before = dict.clone();
        mod_update(&mut dict, &[], &[]);
        assert_eq!(dict, before);
    }
}
