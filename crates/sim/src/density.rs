//! Density matrices, partial trace and purity.
//!
//! Used by tests to verify the compression network's
//! behaviour in proper quantum-information terms: the compressed state of a
//! well-trained network keeps purity ≈ 1 after discarding the trash
//! subspace, which is the quantum-autoencoder success criterion underlying
//! the paper's loss.

use crate::complex::{Complex64, ZERO};
use crate::error::SimError;
use crate::state::StateVector;
use crate::Result;

/// A dim × dim density operator stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// Rank-1 density matrix `|ψ⟩⟨ψ|` of a pure state.
    pub fn from_pure(state: &StateVector) -> Self {
        let dim = state.dim();
        let a = state.amplitudes();
        let mut data = vec![ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = a[i] * a[j].conj();
            }
        }
        DensityMatrix { dim, data }
    }

    /// Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Element `ρ_{ij}`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.dim + j]
    }

    /// Trace `Tr ρ` (should be 1 for a valid state).
    pub fn trace(&self) -> Complex64 {
        (0..self.dim).map(|i| self.get(i, i)).sum()
    }

    /// Purity `Tr ρ²` — 1 for pure states, `1/dim` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{ij} ρ_{ij} ρ_{ji} = Σ_{ij} |ρ_{ij}|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sq()).sum()
    }

    /// True when `‖ρ − ρ†‖_max ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        for i in 0..self.dim {
            for j in 0..self.dim {
                if !self.get(i, j).approx_eq(self.get(j, i).conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Partial trace over a subset of qubits, keeping the rest.
    ///
    /// `traced` lists qubit indices (0 = least significant) to trace out.
    /// The dimension must be a power of two.
    ///
    /// # Errors
    /// - [`SimError::NotPowerOfTwo`] for non-qubit dimensions.
    /// - [`SimError::QubitOutOfRange`] for bad qubit indices.
    pub fn partial_trace(&self, traced: &[usize]) -> Result<DensityMatrix> {
        if !self.dim.is_power_of_two() {
            return Err(SimError::NotPowerOfTwo(self.dim));
        }
        let n = self.dim.trailing_zeros() as usize;
        for &q in traced {
            if q >= n {
                return Err(SimError::QubitOutOfRange {
                    qubit: q,
                    n_qubits: n,
                });
            }
        }
        let kept: Vec<usize> = (0..n).filter(|q| !traced.contains(q)).collect();
        let kdim = 1usize << kept.len();
        let tdim = 1usize << traced.len();

        // Map (kept-index bits, traced-index bits) -> full index.
        let expand = |kbits: usize, tbits: usize| -> usize {
            let mut idx = 0usize;
            for (pos, &q) in kept.iter().enumerate() {
                if kbits & (1 << pos) != 0 {
                    idx |= 1 << q;
                }
            }
            for (pos, &q) in traced.iter().enumerate() {
                if tbits & (1 << pos) != 0 {
                    idx |= 1 << q;
                }
            }
            idx
        };

        let mut out = vec![ZERO; kdim * kdim];
        for ki in 0..kdim {
            for kj in 0..kdim {
                let mut acc = ZERO;
                for t in 0..tdim {
                    acc += self.get(expand(ki, t), expand(kj, t));
                }
                out[ki * kdim + kj] = acc;
            }
        }
        Ok(DensityMatrix {
            dim: kdim,
            data: out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Op};

    const TOL: f64 = 1e-12;

    #[test]
    fn pure_state_density_properties() {
        let s = StateVector::from_real(&[0.6, 0.8]).unwrap();
        let rho = DensityMatrix::from_pure(&s);
        assert!((rho.trace().re - 1.0).abs() < TOL);
        assert!(rho.trace().im.abs() < TOL);
        assert!((rho.purity() - 1.0).abs() < TOL);
        assert!(rho.is_hermitian(TOL));
        assert!((rho.get(0, 1).re - 0.48).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_product_state_is_pure() {
        // |+⟩ ⊗ |0⟩: tracing out either qubit leaves a pure state.
        let plus = StateVector::uniform(1);
        let zero = StateVector::zero_state(1);
        let prod = plus.tensor(&zero);
        let rho = DensityMatrix::from_pure(&prod);
        let reduced = rho.partial_trace(&[0]).unwrap(); // trace out low qubit (|0⟩)
        assert_eq!(reduced.dim(), 2);
        assert!((reduced.purity() - 1.0).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        let mut s = StateVector::zero_state(2);
        let mut c = Circuit::new();
        c.push(Op::H(0)).push(Op::Cnot(0, 1));
        c.apply(&mut s).unwrap();
        let rho = DensityMatrix::from_pure(&s);
        let reduced = rho.partial_trace(&[0]).unwrap();
        assert!((reduced.purity() - 0.5).abs() < TOL);
        assert!((reduced.get(0, 0).re - 0.5).abs() < TOL);
        assert!((reduced.get(1, 1).re - 0.5).abs() < TOL);
        assert!(reduced.get(0, 1).abs() < TOL);
    }

    #[test]
    fn partial_trace_validates_inputs() {
        let rho = DensityMatrix::from_pure(&StateVector::uniform(2));
        assert!(rho.partial_trace(&[2]).is_err());
        let bad = DensityMatrix {
            dim: 3,
            data: vec![ZERO; 9],
        };
        assert!(bad.partial_trace(&[0]).is_err());
    }

    #[test]
    fn trace_preserved_under_partial_trace() {
        let s = StateVector::uniform(3);
        let rho = DensityMatrix::from_pure(&s);
        let reduced = rho.partial_trace(&[1]).unwrap();
        assert!((reduced.trace().re - 1.0).abs() < TOL);
        assert_eq!(reduced.dim(), 4);
    }
}
