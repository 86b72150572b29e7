//! Finite-shot estimation of measurement statistics.
//!
//! The paper trains on exact simulated amplitudes, but a hardware run would
//! estimate `|aⱼ|²` from a finite number of measurement shots. This module
//! provides a shot-noise model: probabilities are estimated from
//! multinomial counts, and amplitudes are recovered as `sign · √p̂` where
//! the sign is taken from the exact state (sign recovery needs
//! interference measurements that the paper's setup does not model;
//! keeping the true sign isolates *magnitude* noise, which
//! is the dominant effect for near-binary data).

use crate::state::StateVector;
use rand::Rng;

/// Estimate basis-state probabilities from `shots` measurements.
/// With `shots == 0` the exact probabilities are returned (infinite-shot
/// limit), so callers can sweep `shots` without special-casing.
pub fn estimate_probabilities(state: &StateVector, shots: usize, rng: &mut impl Rng) -> Vec<f64> {
    if shots == 0 {
        return state.probabilities();
    }
    let counts = state.sample_counts(shots, rng);
    counts.iter().map(|&c| c as f64 / shots as f64).collect()
}

/// Estimate real amplitudes under shot noise: `sign(a_j) · √p̂_j`.
/// With `shots == 0`, returns the exact real parts.
pub fn estimate_real_amplitudes(state: &StateVector, shots: usize, rng: &mut impl Rng) -> Vec<f64> {
    let probs = estimate_probabilities(state, shots, rng);
    state
        .amplitudes()
        .iter()
        .zip(&probs)
        .map(|(a, &p)| p.sqrt().copysign(if a.re == 0.0 { 1.0 } else { a.re }))
        .collect()
}

/// Standard error of a probability estimate `p` from `shots` samples
/// (binomial): `√(p(1−p)/shots)`.
pub fn probability_std_error(p: f64, shots: usize) -> f64 {
    if shots == 0 {
        return 0.0;
    }
    (p * (1.0 - p) / shots as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_shots_is_exact() {
        let s = StateVector::from_real(&[0.6, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let p = estimate_probabilities(&s, 0, &mut rng);
        assert!((p[0] - 0.36).abs() < 1e-15);
        let a = estimate_real_amplitudes(&s, 0, &mut rng);
        assert!((a[0] - 0.6).abs() < 1e-15);
        assert!((a[1] - 0.8).abs() < 1e-15);
    }

    #[test]
    fn estimates_converge_with_shots() {
        let s = StateVector::from_real(&[0.6, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let p_small = estimate_probabilities(&s, 100, &mut rng);
        let p_large = estimate_probabilities(&s, 100_000, &mut rng);
        let err_small = (p_small[1] - 0.64).abs();
        let err_large = (p_large[1] - 0.64).abs();
        assert!(err_large < 0.01);
        assert!(err_large <= err_small + 0.01);
        // Estimates are proper distributions.
        assert!((p_large.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_signs_are_preserved() {
        let s = StateVector::from_real(&[-0.6, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = estimate_real_amplitudes(&s, 10_000, &mut rng);
        assert!(a[0] < 0.0);
        assert!(a[1] > 0.0);
    }

    #[test]
    fn std_error_shrinks_as_inverse_sqrt() {
        let e1 = probability_std_error(0.5, 100);
        let e2 = probability_std_error(0.5, 10_000);
        assert!((e1 / e2 - 10.0).abs() < 1e-12);
        assert_eq!(probability_std_error(0.5, 0), 0.0);
        assert_eq!(probability_std_error(0.0, 100), 0.0);
    }
}
