//! Qubit gates applied by bit-twiddling over the amplitude array.
//!
//! A single-qubit gate on qubit `q` mixes amplitude pairs whose indices
//! differ only in bit `q`. The loop enumerates each pair once, on the
//! caller: the simulator is a test oracle, so it never forks.

use crate::complex::{Complex64, ONE, ZERO};
use crate::error::SimError;
use crate::state::StateVector;
use crate::Result;

/// A 2×2 complex gate matrix, row-major: `[[m00, m01], [m10, m11]]`.
pub type Gate2 = [[Complex64; 2]; 2];

/// Hadamard gate.
pub fn hadamard() -> Gate2 {
    let h = Complex64::from_real(std::f64::consts::FRAC_1_SQRT_2);
    [[h, h], [h, -h]]
}

/// Pauli-X (NOT).
pub fn pauli_x() -> Gate2 {
    [[ZERO, ONE], [ONE, ZERO]]
}

/// Pauli-Y.
pub fn pauli_y() -> Gate2 {
    let i = crate::complex::I;
    [[ZERO, -i], [i, ZERO]]
}

/// Pauli-Z.
pub fn pauli_z() -> Gate2 {
    [[ONE, ZERO], [ZERO, -ONE]]
}

/// Phase gate `S = diag(1, i)`.
pub fn s_gate() -> Gate2 {
    [[ONE, ZERO], [ZERO, crate::complex::I]]
}

/// `T = diag(1, e^{iπ/4})`.
pub fn t_gate() -> Gate2 {
    [
        [ONE, ZERO],
        [
            ZERO,
            Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_4),
        ],
    ]
}

/// Rotation about X: `RX(θ) = e^{-iθX/2}`.
pub fn rx(theta: f64) -> Gate2 {
    let (s, c) = (theta / 2.0).sin_cos();
    let mis = Complex64::new(0.0, -s);
    [
        [Complex64::from_real(c), mis],
        [mis, Complex64::from_real(c)],
    ]
}

/// Rotation about Y: `RY(θ) = e^{-iθY/2}` (real-valued).
pub fn ry(theta: f64) -> Gate2 {
    let (s, c) = (theta / 2.0).sin_cos();
    [
        [Complex64::from_real(c), Complex64::from_real(-s)],
        [Complex64::from_real(s), Complex64::from_real(c)],
    ]
}

/// Rotation about Z: `RZ(θ) = e^{-iθZ/2}`.
pub fn rz(theta: f64) -> Gate2 {
    [
        [Complex64::from_polar(1.0, -theta / 2.0), ZERO],
        [ZERO, Complex64::from_polar(1.0, theta / 2.0)],
    ]
}

/// Phase shift `diag(1, e^{iφ})`.
pub fn phase(phi: f64) -> Gate2 {
    [[ONE, ZERO], [ZERO, Complex64::from_polar(1.0, phi)]]
}

#[inline]
fn check_qubit(state: &StateVector, qubit: usize) -> Result<()> {
    if qubit >= state.n_qubits() {
        return Err(SimError::QubitOutOfRange {
            qubit,
            n_qubits: state.n_qubits(),
        });
    }
    Ok(())
}

/// Apply a single-qubit gate to `qubit` (qubit 0 is the least-significant
/// bit of the basis index).
///
/// # Errors
/// Returns [`SimError::QubitOutOfRange`] for a bad qubit index.
pub fn apply_single(state: &mut StateVector, qubit: usize, g: &Gate2) -> Result<()> {
    check_qubit(state, qubit)?;
    let stride = 1usize << qubit;
    let g = *g;
    // Blocks of 2·stride amplitudes: each holds `stride` pairs (the index
    // with bit `qubit` clear, then its partner with the bit set), and no
    // pair crosses a block boundary.
    for block in state.amplitudes_mut().chunks_mut(2 * stride) {
        let (low, high) = block.split_at_mut(stride);
        for (a0, a1) in low.iter_mut().zip(high) {
            let (x0, x1) = (*a0, *a1);
            *a0 = g[0][0] * x0 + g[0][1] * x1;
            *a1 = g[1][0] * x0 + g[1][1] * x1;
        }
    }
    Ok(())
}

/// Apply a controlled single-qubit gate: `g` acts on `target` when
/// `control` is `|1⟩`.
///
/// # Errors
/// Returns [`SimError::QubitOutOfRange`] or [`SimError::InvalidArgument`]
/// when control and target coincide.
pub fn apply_controlled(
    state: &mut StateVector,
    control: usize,
    target: usize,
    g: &Gate2,
) -> Result<()> {
    check_qubit(state, control)?;
    check_qubit(state, target)?;
    if control == target {
        return Err(SimError::InvalidArgument(
            "control and target must differ".to_string(),
        ));
    }
    let cbit = 1usize << control;
    let tbit = 1usize << target;
    let dim = state.dim();
    let g = *g;
    let amps = state.amplitudes_mut();
    for i in 0..dim {
        // Visit each affected pair once: control set, target clear.
        if i & cbit != 0 && i & tbit == 0 {
            let j = i | tbit;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = g[0][0] * a0 + g[0][1] * a1;
            amps[j] = g[1][0] * a0 + g[1][1] * a1;
        }
    }
    Ok(())
}

/// CNOT gate.
///
/// # Errors
/// Same conditions as [`apply_controlled`].
pub fn apply_cnot(state: &mut StateVector, control: usize, target: usize) -> Result<()> {
    apply_controlled(state, control, target, &pauli_x())
}

/// Controlled-Z gate (symmetric in its arguments).
///
/// # Errors
/// Same conditions as [`apply_controlled`].
pub fn apply_cz(state: &mut StateVector, a: usize, b: usize) -> Result<()> {
    apply_controlled(state, a, b, &pauli_z())
}

/// SWAP two qubits.
///
/// # Errors
/// Returns [`SimError::QubitOutOfRange`] or [`SimError::InvalidArgument`]
/// when the qubits coincide.
pub fn apply_swap(state: &mut StateVector, a: usize, b: usize) -> Result<()> {
    check_qubit(state, a)?;
    check_qubit(state, b)?;
    if a == b {
        return Err(SimError::InvalidArgument(
            "swap qubits must differ".to_string(),
        ));
    }
    let abit = 1usize << a;
    let bbit = 1usize << b;
    let dim = state.dim();
    let amps = state.amplitudes_mut();
    for i in 0..dim {
        // Swap |…1…0…⟩ with |…0…1…⟩; visit each pair once.
        if i & abit != 0 && i & bbit == 0 {
            let j = (i & !abit) | bbit;
            amps.swap(i, j);
        }
    }
    Ok(())
}

/// True when `g` is unitary within `tol` (`g†g = I`).
pub fn is_unitary(g: &Gate2, tol: f64) -> bool {
    let mut gtg = [[ZERO; 2]; 2];
    for (i, row) in gtg.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = g[0][i].conj() * g[0][j] + g[1][i].conj() * g[1][j];
        }
    }
    let id = [[ONE, ZERO], [ZERO, ONE]];
    for i in 0..2 {
        for j in 0..2 {
            if !(gtg[i][j] - id[i][j]).approx_eq(ZERO, tol) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn norm_preserved(state: &StateVector) {
        assert!((state.norm() - 1.0).abs() < TOL, "norm {}", state.norm());
    }

    #[test]
    fn standard_gates_are_unitary() {
        for g in [
            hadamard(),
            pauli_x(),
            pauli_y(),
            pauli_z(),
            s_gate(),
            t_gate(),
            rx(0.7),
            ry(-1.3),
            rz(2.1),
            phase(0.4),
        ] {
            assert!(is_unitary(&g, TOL));
        }
    }

    #[test]
    fn x_flips_basis_state() {
        let mut s = StateVector::zero_state(1);
        apply_single(&mut s, 0, &pauli_x()).unwrap();
        assert!((s.probability(1).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(3);
        for q in 0..3 {
            apply_single(&mut s, q, &hadamard()).unwrap();
        }
        for p in s.probabilities() {
            assert!((p - 0.125).abs() < TOL);
        }
        norm_preserved(&s);
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let mut s = StateVector::from_real(&[0.6, 0.8]).unwrap();
        let orig = s.clone();
        apply_single(&mut s, 0, &hadamard()).unwrap();
        apply_single(&mut s, 0, &hadamard()).unwrap();
        for (a, b) in s.amplitudes().iter().zip(orig.amplitudes()) {
            assert!(a.approx_eq(*b, TOL));
        }
    }

    #[test]
    fn gate_on_correct_qubit_of_multiqubit_register() {
        // X on qubit 1 of |00⟩ → |10⟩ = index 2.
        let mut s = StateVector::zero_state(2);
        apply_single(&mut s, 1, &pauli_x()).unwrap();
        assert!((s.probability(2).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn qubit_bounds_checked() {
        let mut s = StateVector::zero_state(2);
        assert!(apply_single(&mut s, 2, &pauli_x()).is_err());
        assert!(apply_cnot(&mut s, 0, 2).is_err());
        assert!(apply_controlled(&mut s, 1, 1, &pauli_x()).is_err());
        assert!(apply_swap(&mut s, 0, 0).is_err());
    }

    #[test]
    fn cnot_entangles_into_bell_state() {
        let mut s = StateVector::zero_state(2);
        apply_single(&mut s, 0, &hadamard()).unwrap();
        apply_cnot(&mut s, 0, 1).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL); // |00⟩
        assert!((p[3] - 0.5).abs() < TOL); // |11⟩
        assert!(p[1].abs() < TOL && p[2].abs() < TOL);
    }

    #[test]
    fn cnot_control_zero_is_identity() {
        let mut s = StateVector::zero_state(2); // control (qubit 0) = 0
        apply_cnot(&mut s, 0, 1).unwrap();
        assert!((s.probability(0).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = StateVector::uniform(2);
        let mut b = StateVector::uniform(2);
        apply_cz(&mut a, 0, 1).unwrap();
        apply_cz(&mut b, 1, 0).unwrap();
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, TOL));
        }
        // Phase flip applied exactly on |11⟩.
        assert!(a.amplitudes()[3].re < 0.0);
    }

    #[test]
    fn swap_exchanges_qubits() {
        // |01⟩ (index 1: qubit0=1) → |10⟩ (index 2).
        let mut s = StateVector::basis_state(2, 1).unwrap();
        apply_swap(&mut s, 0, 1).unwrap();
        assert!((s.probability(2).unwrap() - 1.0).abs() < TOL);
        // Swap twice = identity.
        apply_swap(&mut s, 0, 1).unwrap();
        assert!((s.probability(1).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn ry_rotates_real_amplitudes() {
        let mut s = StateVector::zero_state(1);
        apply_single(&mut s, 0, &ry(std::f64::consts::FRAC_PI_2)).unwrap();
        // RY(π/2)|0⟩ = (|0⟩ + |1⟩)/√2
        assert!((s.amplitudes()[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((s.amplitudes()[1].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
    }

    #[test]
    fn rz_adds_relative_phase_only() {
        let mut s = StateVector::uniform(1);
        apply_single(&mut s, 0, &rz(1.0)).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[1] - 0.5).abs() < TOL);
        // Relative phase is e^{iθ}.
        let rel = s.amplitudes()[1] / s.amplitudes()[0];
        assert!((rel.arg() - 1.0).abs() < TOL);
    }

    #[test]
    fn gates_on_the_lowest_and_highest_qubit_of_a_large_register() {
        // A gate on a high and a low qubit of a 15-qubit register: check
        // the norm and a few amplitudes against the dense definition.
        let n = 15;
        let mut s = StateVector::zero_state(n);
        apply_single(&mut s, 0, &hadamard()).unwrap();
        apply_single(&mut s, n - 1, &hadamard()).unwrap();
        norm_preserved(&s);
        let amp = 0.5;
        for idx in [0usize, 1, 1 << (n - 1), (1 << (n - 1)) | 1] {
            assert!((s.amplitudes()[idx].re - amp).abs() < TOL);
        }
    }
}
