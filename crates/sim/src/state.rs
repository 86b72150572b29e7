//! N-qubit state vectors.

use crate::complex::{Complex64, ZERO};
use crate::error::SimError;
use crate::Result;
use rand::Rng;

/// A pure quantum state over `n` qubits, stored as 2ⁿ complex amplitudes
/// in computational-basis order (`|j⟩` at index `j`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        let mut amps = vec![ZERO; 1 << n_qubits];
        amps[0] = Complex64::from_real(1.0);
        StateVector { n_qubits, amps }
    }

    /// Computational-basis state `|j⟩`.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidArgument`] when `j ≥ 2ⁿ`.
    pub fn basis_state(n_qubits: usize, j: usize) -> Result<Self> {
        let dim = 1usize << n_qubits;
        if j >= dim {
            return Err(SimError::InvalidArgument(format!(
                "basis state {j} out of range for dimension {dim}"
            )));
        }
        let mut amps = vec![ZERO; dim];
        amps[j] = Complex64::from_real(1.0);
        Ok(StateVector { n_qubits, amps })
    }

    /// Uniform superposition `H^{⊗n}|0⟩`.
    pub fn uniform(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let a = Complex64::from_real(1.0 / (dim as f64).sqrt());
        StateVector {
            n_qubits,
            amps: vec![a; dim],
        }
    }

    /// Build from explicit complex amplitudes. The length must be a power
    /// of two; the state is *not* normalised automatically.
    ///
    /// # Errors
    /// Returns [`SimError::NotPowerOfTwo`] for invalid lengths.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Result<Self> {
        let dim = amps.len();
        if dim == 0 || !dim.is_power_of_two() {
            return Err(SimError::NotPowerOfTwo(dim));
        }
        Ok(StateVector {
            n_qubits: dim.trailing_zeros() as usize,
            amps,
        })
    }

    /// Build from real amplitudes (the paper's networks are real-valued).
    ///
    /// # Errors
    /// Returns [`SimError::NotPowerOfTwo`] for invalid lengths.
    pub fn from_real(amps: &[f64]) -> Result<Self> {
        Self::from_amplitudes(amps.iter().map(|&r| Complex64::from_real(r)).collect())
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension 2ⁿ.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Borrow the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutably borrow the amplitudes (gates use this).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Real parts of all amplitudes.
    pub fn real_parts(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.re).collect()
    }

    /// Euclidean norm of the amplitude vector.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sq()).sum::<f64>().sqrt()
    }

    /// Normalise in place.
    ///
    /// # Errors
    /// Returns [`SimError::ZeroNorm`] for the zero vector.
    pub fn normalize(&mut self) -> Result<()> {
        let n = self.norm();
        if n <= 0.0 {
            return Err(SimError::ZeroNorm);
        }
        let inv = 1.0 / n;
        for a in &mut self.amps {
            *a = a.scale(inv);
        }
        Ok(())
    }

    /// Inner product `⟨self|other⟩` (conjugate-linear in `self`).
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] when dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> Result<Complex64> {
        if self.dim() != other.dim() {
            return Err(SimError::DimensionMismatch {
                expected: self.dim(),
                got: other.dim(),
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// State fidelity `|⟨self|other⟩|²` (for normalised states).
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] when dimensions differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64> {
        Ok(self.inner_product(other)?.norm_sq())
    }

    /// Measurement probabilities `|aⱼ|²` for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sq()).collect()
    }

    /// Probability of basis state `j`.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidArgument`] when `j` is out of range.
    pub fn probability(&self, j: usize) -> Result<f64> {
        self.amps
            .get(j)
            .map(|a| a.norm_sq())
            .ok_or_else(|| SimError::InvalidArgument(format!("basis index {j} out of range")))
    }

    /// Sample one projective measurement in the computational basis,
    /// returning the observed basis index. The state is not collapsed; the
    /// caller owns post-measurement semantics.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let r: f64 = rng.random::<f64>() * self.norm().powi(2);
        let mut acc = 0.0;
        for (j, a) in self.amps.iter().enumerate() {
            acc += a.norm_sq();
            if r < acc {
                return j;
            }
        }
        self.amps.len() - 1
    }

    /// Histogram of `shots` independent measurements.
    pub fn sample_counts(&self, shots: usize, rng: &mut impl Rng) -> Vec<u64> {
        let mut counts = vec![0u64; self.dim()];
        for _ in 0..shots {
            counts[self.sample(rng)] += 1;
        }
        counts
    }

    /// Tensor product `self ⊗ other` (self's qubits become the high bits).
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let mut amps = Vec::with_capacity(self.dim() * other.dim());
        for a in &self.amps {
            for b in &other.amps {
                amps.push(*a * *b);
            }
        }
        StateVector {
            n_qubits: self.n_qubits + other.n_qubits,
            amps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    #[test]
    fn zero_state_is_normalised_basis_zero() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.n_qubits(), 3);
        assert!((s.norm() - 1.0).abs() < TOL);
        assert!((s.probability(0).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn basis_state_bounds() {
        assert!(StateVector::basis_state(2, 3).is_ok());
        assert!(StateVector::basis_state(2, 4).is_err());
    }

    #[test]
    fn uniform_state_probabilities() {
        let s = StateVector::uniform(2);
        for p in s.probabilities() {
            assert!((p - 0.25).abs() < TOL);
        }
        assert!((s.norm() - 1.0).abs() < TOL);
    }

    #[test]
    fn from_amplitudes_validates_power_of_two() {
        assert!(StateVector::from_real(&[1.0, 0.0, 0.0]).is_err());
        assert!(StateVector::from_real(&[]).is_err());
        let s = StateVector::from_real(&[0.6, 0.8]).unwrap();
        assert_eq!(s.n_qubits(), 1);
        assert!((s.norm() - 1.0).abs() < TOL);
    }

    #[test]
    fn normalize_and_zero_norm_error() {
        let mut s = StateVector::from_real(&[3.0, 4.0]).unwrap();
        s.normalize().unwrap();
        assert!((s.amplitudes()[0].re - 0.6).abs() < TOL);
        let mut z = StateVector::from_real(&[0.0, 0.0]).unwrap();
        assert_eq!(z.normalize(), Err(SimError::ZeroNorm));
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::from_real(&[1.0, 0.0]).unwrap();
        let b = StateVector::from_real(&[0.0, 1.0]).unwrap();
        assert_eq!(a.inner_product(&b).unwrap(), ZERO);
        assert_eq!(a.fidelity(&a).unwrap(), 1.0);
        assert_eq!(a.fidelity(&b).unwrap(), 0.0);
        let c = StateVector::from_real(&[0.6, 0.8]).unwrap();
        assert!((a.fidelity(&c).unwrap() - 0.36).abs() < TOL);
        // Mismatched dims error.
        let d = StateVector::zero_state(2);
        assert!(a.fidelity(&d).is_err());
    }

    #[test]
    fn inner_product_conjugates_left_argument() {
        let a = StateVector::from_amplitudes(vec![crate::complex::I, ZERO]).unwrap();
        let b = StateVector::from_real(&[1.0, 0.0]).unwrap();
        // ⟨i·0| 0⟩ = conj(i) = −i
        assert_eq!(a.inner_product(&b).unwrap(), Complex64::new(0.0, -1.0));
    }

    #[test]
    fn sampling_is_deterministic_and_distributed() {
        let s = StateVector::from_real(&[0.6, 0.8]).unwrap(); // p = 0.36 / 0.64
        let mut rng = StdRng::seed_from_u64(5);
        let counts = s.sample_counts(10_000, &mut rng);
        let p1 = counts[1] as f64 / 10_000.0;
        assert!((p1 - 0.64).abs() < 0.02, "p1 = {p1}");
        // Determinism.
        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(counts, s.sample_counts(10_000, &mut rng2));
    }

    #[test]
    fn tensor_product_structure() {
        let a = StateVector::from_real(&[0.0, 1.0]).unwrap(); // |1⟩
        let b = StateVector::from_real(&[1.0, 0.0]).unwrap(); // |0⟩
        let t = a.tensor(&b); // |10⟩ = index 2
        assert_eq!(t.n_qubits(), 2);
        assert!((t.probability(2).unwrap() - 1.0).abs() < TOL);
        // Norm multiplies.
        let u = StateVector::uniform(1).tensor(&StateVector::uniform(2));
        assert!((u.norm() - 1.0).abs() < TOL);
        assert_eq!(u.dim(), 8);
    }

    #[test]
    fn real_parts_roundtrip() {
        let xs = [0.1, -0.2, 0.3, 0.4];
        let s = StateVector::from_real(&xs).unwrap();
        assert_eq!(s.real_parts(), xs.to_vec());
    }
}
