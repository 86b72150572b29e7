//! ISTA / FISTA — proximal-gradient ℓ₁ sparse coding.
//!
//! Solves `min_s ½‖y − D s‖² + λ‖s‖₁` by iterative soft thresholding;
//! FISTA adds Nesterov momentum. These are the convex alternatives to the
//! greedy pursuits.

use crate::dictionary::Dictionary;
use qn_linalg::svd::spectral_norm;
use qn_linalg::vector;

/// Soft-thresholding operator `sign(x)·max(|x|−t, 0)`.
#[inline]
pub fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// Result of an ISTA/FISTA solve.
#[derive(Debug, Clone)]
pub struct IstaResult {
    /// Final coefficient vector.
    pub coefficients: Vec<f64>,
    /// Objective value `½‖y − Ds‖² + λ‖s‖₁` per iteration.
    pub objective: Vec<f64>,
}

fn objective(dict: &Dictionary, y: &[f64], s: &[f64], lambda: f64) -> f64 {
    let approx = dict.synthesize(s);
    let r2: f64 = y.iter().zip(&approx).map(|(a, b)| (a - b) * (a - b)).sum();
    0.5 * r2 + lambda * vector::norm1(s)
}

/// Plain ISTA with step `1/L`, `L = σ_max(D)²`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn ista(dict: &Dictionary, y: &[f64], lambda: f64, iterations: usize) -> IstaResult {
    assert_eq!(y.len(), dict.signal_dim(), "ista: dimension mismatch");
    let l = spectral_norm(dict.matrix())
        .expect("non-empty dictionary")
        .powi(2)
        .max(1e-12);
    let step = 1.0 / l;
    let k = dict.atom_count();
    let mut s = vec![0.0; k];
    let mut history = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        history.push(objective(dict, y, &s, lambda));
        // Gradient of the smooth part: Dᵀ(Ds − y).
        let approx = dict.synthesize(&s);
        let r: Vec<f64> = approx.iter().zip(y).map(|(a, b)| a - b).collect();
        let grad = dict.correlations(&r);
        for (si, g) in s.iter_mut().zip(&grad) {
            *si = soft_threshold(*si - step * g, step * lambda);
        }
    }
    IstaResult {
        coefficients: s,
        objective: history,
    }
}

/// FISTA (accelerated ISTA).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn fista(dict: &Dictionary, y: &[f64], lambda: f64, iterations: usize) -> IstaResult {
    assert_eq!(y.len(), dict.signal_dim(), "fista: dimension mismatch");
    let l = spectral_norm(dict.matrix())
        .expect("non-empty dictionary")
        .powi(2)
        .max(1e-12);
    let step = 1.0 / l;
    let k = dict.atom_count();
    let mut s = vec![0.0; k];
    let mut z = s.clone();
    let mut t = 1.0_f64;
    let mut history = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        history.push(objective(dict, y, &s, lambda));
        let approx = dict.synthesize(&z);
        let r: Vec<f64> = approx.iter().zip(y).map(|(a, b)| a - b).collect();
        let grad = dict.correlations(&r);
        let s_next: Vec<f64> = z
            .iter()
            .zip(&grad)
            .map(|(zi, g)| soft_threshold(zi - step * g, step * lambda))
            .collect();
        let t_next = (1.0 + (1.0 + 4.0 * t * t).sqrt()) / 2.0;
        let momentum = (t - 1.0) / t_next;
        z = s_next
            .iter()
            .zip(&s)
            .map(|(sn, so)| sn + momentum * (sn - so))
            .collect();
        s = s_next;
        t = t_next;
    }
    IstaResult {
        coefficients: s,
        objective: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(1.0, 1.0), 0.0);
    }

    #[test]
    fn ista_on_identity_dictionary_soft_thresholds() {
        // With D = I the exact solution is soft_threshold(y, λ).
        let d = Dictionary::from_matrix(Matrix::identity(4));
        let y = [2.0, -0.3, 0.8, -1.5];
        let r = ista(&d, &y, 0.5, 400);
        for (si, yi) in r.coefficients.iter().zip(&y) {
            assert!((si - soft_threshold(*yi, 0.5)).abs() < 1e-6, "{si} vs {yi}");
        }
    }

    #[test]
    fn objective_decreases_monotonically_for_ista() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Dictionary::random(6, 10, &mut rng);
        let y: Vec<f64> = (0..6).map(|i| ((i as f64) * 0.8).sin()).collect();
        let r = ista(&d, &y, 0.05, 100);
        for w in r.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn fista_converges_at_least_as_fast_as_ista() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dictionary::random(8, 16, &mut rng);
        let y: Vec<f64> = (0..8).map(|i| ((i * i) as f64 * 0.17).cos()).collect();
        let iters = 150;
        let oi = ista(&d, &y, 0.02, iters).objective;
        let of = fista(&d, &y, 0.02, iters).objective;
        assert!(
            *of.last().unwrap() <= oi.last().unwrap() + 1e-9,
            "fista {} vs ista {}",
            of.last().unwrap(),
            oi.last().unwrap()
        );
    }

    #[test]
    fn larger_lambda_gives_sparser_codes() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Dictionary::random(8, 12, &mut rng);
        let y: Vec<f64> = (0..8).map(|i| ((i as f64) * 1.1).sin()).collect();
        let sparse = fista(&d, &y, 0.5, 300).coefficients;
        let dense = fista(&d, &y, 0.001, 300).coefficients;
        let nnz = |s: &[f64]| s.iter().filter(|&&c| c.abs() > 1e-9).count();
        assert!(nnz(&sparse) <= nnz(&dense));
    }
}
