//! Finite-shot estimation of measurement statistics.
//!
//! The paper trains on exact simulated amplitudes, but a hardware run would
//! estimate `|aⱼ|²` from a finite number of measurement shots. This module
//! provides that shot-noise model: probabilities are estimated from
//! multinomial counts.

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
        assert!((p[1] - 0.64).abs() < 1e-15);
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
}
