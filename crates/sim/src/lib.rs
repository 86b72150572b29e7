//! Hand-rolled state-vector quantum simulator.
//!
//! The paper evaluates its quantum network purely in (MATLAB)
//! simulation. This crate is the reproduction's test oracle for that
//! network: Tier-1 tests use it, through the umbrella crate's `qn::sim`,
//! to check that the mesh acts on a state vector as the paper's quantum
//! network does. No production crate links it. The crate provides:
//!
//! - [`complex::Complex64`] — a self-contained complex type (the
//!   `num-complex` crate is outside the allowed dependency set);
//! - [`state::StateVector`] — an n-qubit (2ⁿ-amplitude) state with norms,
//!   fidelity, probabilities and seeded measurement sampling;
//! - [`gates`] — the standard gate set applied by bit-twiddling, with a
//!   rayon-parallel path for large registers;
//! - [`circuit::Circuit`] — gate sequences with parameterised rotations;
//! - [`rotation`] — *mode rotations* `U(k,k+1)`: Givens rotations between
//!   adjacent computational-basis amplitudes. These are the paper's beam-
//!   splitter gates, which act on the N-dimensional amplitude vector rather
//!   than on a single qubit;
//! - [`projector::Projector`] — the `P1`/`P0` subspace projections that
//!   the compression network's kept range is checked against;
//! - [`density::DensityMatrix`] — density matrices with partial trace and
//!   purity (used in analysis and tests);
//! - [`shots`] — finite-shot probability estimation, for studying how
//!   measurement noise would affect training on real hardware.

pub mod circuit;
pub mod complex;
pub mod density;
pub mod error;
pub mod gates;
pub mod projector;
pub mod rotation;
pub mod shots;
pub mod state;

pub use complex::Complex64;
pub use error::SimError;
pub use projector::Projector;
pub use state::StateVector;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;

/// Number of qubits needed to hold `dim`-dimensional data: `⌈log₂ dim⌉`.
///
/// The paper (Sec. II-A): "for N-dimensional data, at least ⌈log₂(N)⌉
/// qubits are required".
pub fn qubits_for_dim(dim: usize) -> usize {
    if dim <= 1 {
        return 0;
    }
    (usize::BITS - (dim - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_counting_matches_paper_examples() {
        // Paper: 16-dimensional data needs four qubits.
        assert_eq!(qubits_for_dim(16), 4);
        // Paper: 8-dimensional data uses 3 qubits.
        assert_eq!(qubits_for_dim(8), 3);
        assert_eq!(qubits_for_dim(1), 0);
        assert_eq!(qubits_for_dim(2), 1);
        assert_eq!(qubits_for_dim(3), 2);
        assert_eq!(qubits_for_dim(9), 4);
        assert_eq!(qubits_for_dim(0), 0);
    }
}
