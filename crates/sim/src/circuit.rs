//! Gate-sequence circuits.
//!
//! A thin, explicit circuit representation: an ordered list of operations
//! that can be applied to a [`StateVector`]. It covers both the standard
//! qubit gate set and the paper's mode rotations, so a whole compression
//! network can be expressed — and unit-tested — as a single `Circuit`.

use crate::gates;
use crate::rotation;
use crate::state::StateVector;
use crate::Result;

/// One circuit operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Hadamard on a qubit.
    H(usize),
    /// Pauli-X on a qubit.
    X(usize),
    /// Pauli-Y on a qubit.
    Y(usize),
    /// Pauli-Z on a qubit.
    Z(usize),
    /// Rotation about X by θ.
    Rx(usize, f64),
    /// Rotation about Y by θ.
    Ry(usize, f64),
    /// Rotation about Z by θ.
    Rz(usize, f64),
    /// Phase shift `diag(1, e^{iφ})`.
    Phase(usize, f64),
    /// CNOT with (control, target).
    Cnot(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// SWAP two qubits.
    Swap(usize, usize),
    /// The paper's mode rotation `U(k,k+1)` with angle θ and phase α,
    /// acting on adjacent amplitudes of the state vector.
    ModeRotation {
        /// First of the two coupled modes.
        k: usize,
        /// Reflectivity angle θ.
        theta: f64,
        /// Phase α (the paper fixes α ≡ 0).
        alpha: f64,
    },
}

/// An ordered sequence of operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    ops: Vec<Op>,
}

impl Circuit {
    /// Empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Append an operation (builder style).
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Borrow the operation list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Apply every operation in order to `state`.
    ///
    /// # Errors
    /// Propagates gate errors (bad qubit/mode indices).
    pub fn apply(&self, state: &mut StateVector) -> Result<()> {
        for op in &self.ops {
            match *op {
                Op::H(q) => gates::apply_single(state, q, &gates::hadamard())?,
                Op::X(q) => gates::apply_single(state, q, &gates::pauli_x())?,
                Op::Y(q) => gates::apply_single(state, q, &gates::pauli_y())?,
                Op::Z(q) => gates::apply_single(state, q, &gates::pauli_z())?,
                Op::Rx(q, t) => gates::apply_single(state, q, &gates::rx(t))?,
                Op::Ry(q, t) => gates::apply_single(state, q, &gates::ry(t))?,
                Op::Rz(q, t) => gates::apply_single(state, q, &gates::rz(t))?,
                Op::Phase(q, p) => gates::apply_single(state, q, &gates::phase(p))?,
                Op::Cnot(c, t) => gates::apply_cnot(state, c, t)?,
                Op::Cz(a, b) => gates::apply_cz(state, a, b)?,
                Op::Swap(a, b) => gates::apply_swap(state, a, b)?,
                Op::ModeRotation { k, theta, alpha } => {
                    rotation::apply_complex(state.amplitudes_mut(), k, theta, alpha)?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn builder_accumulates_ops() {
        let mut c = Circuit::new();
        assert!(c.is_empty());
        c.push(Op::H(0)).push(Op::Cnot(0, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.ops()[0], Op::H(0));
    }

    #[test]
    fn bell_circuit() {
        let mut c = Circuit::new();
        c.push(Op::H(0)).push(Op::Cnot(0, 1));
        let mut s = StateVector::zero_state(2);
        c.apply(&mut s).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
    }

    #[test]
    fn ghz_circuit_on_three_qubits() {
        let mut c = Circuit::new();
        c.push(Op::H(0)).push(Op::Cnot(0, 1)).push(Op::Cnot(1, 2));
        let mut s = StateVector::zero_state(3);
        c.apply(&mut s).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[7] - 0.5).abs() < TOL);
    }

    #[test]
    fn mode_rotation_in_circuit_matches_direct_call() {
        let mut c = Circuit::new();
        c.push(Op::ModeRotation {
            k: 2,
            theta: 0.6,
            alpha: 0.0,
        });
        let mut s1 = StateVector::uniform(2);
        c.apply(&mut s1).unwrap();
        let mut s2 = StateVector::uniform(2);
        crate::rotation::apply_complex(s2.amplitudes_mut(), 2, 0.6, 0.0).unwrap();
        for (a, b) in s1.amplitudes().iter().zip(s2.amplitudes()) {
            assert!(a.approx_eq(*b, TOL));
        }
    }

    #[test]
    fn errors_propagate_from_ops() {
        let mut c = Circuit::new();
        c.push(Op::H(5));
        let mut s = StateVector::zero_state(2);
        assert!(c.apply(&mut s).is_err());
    }

    #[test]
    fn pauli_ops_apply() {
        let mut c = Circuit::new();
        c.push(Op::X(0)).push(Op::Y(0)).push(Op::Z(0));
        let mut s = StateVector::zero_state(1);
        c.apply(&mut s).unwrap();
        // ZYX|0⟩ = ZY|1⟩ = Z(−i|0⟩)= −i|0⟩ — global phase only.
        assert!((s.probability(0).unwrap() - 1.0).abs() < TOL);
    }
}
