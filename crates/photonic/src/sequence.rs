//! Ordered gate sequences.
//!
//! The Clements decomposition ([`crate::clements`]) produces gates in a
//! pattern that does not fit the paper's rigid layer-of-`N−1`-gates
//! structure, so this free-form representation sits between the two: an
//! ordered list of beam splitters applied left-to-right to an amplitude
//! vector, optionally followed by a diagonal of signs (the part of a real
//! orthogonal matrix the rotations cannot absorb).

use crate::beamsplitter::BeamSplitter;
use qn_linalg::Matrix;

/// An ordered sequence of beam splitters on `dim` modes, applied in list
/// order, followed by a diagonal of ±1 signs.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSequence {
    dim: usize,
    gates: Vec<BeamSplitter>,
    /// Diagonal applied *after* all gates (`None` = identity).
    signs: Option<Vec<f64>>,
}

impl GateSequence {
    /// Empty sequence on `dim` modes.
    pub fn new(dim: usize) -> Self {
        GateSequence {
            dim,
            gates: Vec::new(),
            signs: None,
        }
    }

    /// Number of modes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the gates.
    pub fn gates(&self) -> &[BeamSplitter] {
        &self.gates
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the sequence has no gates and no sign diagonal.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty() && self.signs.is_none()
    }

    /// Append a gate.
    ///
    /// # Panics
    /// Panics when the gate's mode pair exceeds `dim`.
    pub fn push(&mut self, gate: BeamSplitter) {
        assert!(
            gate.mode + 1 < self.dim,
            "gate on modes ({}, {}) exceeds dimension {}",
            gate.mode,
            gate.mode + 1,
            self.dim
        );
        self.gates.push(gate);
    }

    /// Set the trailing diagonal of signs (each entry must be ±1).
    ///
    /// # Panics
    /// Panics on length mismatch or non-±1 entries.
    pub fn set_signs(&mut self, signs: Vec<f64>) {
        assert_eq!(signs.len(), self.dim, "sign diagonal length mismatch");
        assert!(
            signs.iter().all(|&s| s == 1.0 || s == -1.0),
            "signs must be ±1"
        );
        self.signs = Some(signs);
    }

    /// Borrow the trailing sign diagonal, if any.
    pub fn signs(&self) -> Option<&[f64]> {
        self.signs.as_deref()
    }

    /// Apply the whole sequence to a real amplitude vector in place.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_real(&self, amps: &mut [f64]) {
        assert_eq!(amps.len(), self.dim, "amplitude dimension mismatch");
        for g in &self.gates {
            g.apply_real(amps);
        }
        if let Some(signs) = &self.signs {
            for (a, &s) in amps.iter_mut().zip(signs) {
                *a *= s;
            }
        }
    }

    /// Dense matrix of the full sequence, built by applying it to each
    /// basis vector (columns of the result).
    #[allow(clippy::needless_range_loop)] // basis index addresses two arrays
    pub fn as_matrix(&self) -> Matrix {
        let n = self.dim;
        let mut m = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.iter_mut().for_each(|x| *x = 0.0);
            e[j] = 1.0;
            self.apply_real(&mut e);
            for i in 0..n {
                m.set(i, j, e[i]);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_mode_range() {
        let mut s = GateSequence::new(4);
        s.push(BeamSplitter::real(2, 0.1)); // modes (2,3) ok
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds dimension")]
    fn push_rejects_out_of_range() {
        let mut s = GateSequence::new(4);
        s.push(BeamSplitter::real(3, 0.1)); // modes (3,4) bad
    }

    #[test]
    fn apply_respects_order() {
        // Two non-commuting gates: order must matter.
        let mut ab = GateSequence::new(3);
        ab.push(BeamSplitter::real(0, 0.7));
        ab.push(BeamSplitter::real(1, 0.9));
        let mut ba = GateSequence::new(3);
        ba.push(BeamSplitter::real(1, 0.9));
        ba.push(BeamSplitter::real(0, 0.7));
        let mut v1 = vec![1.0, 0.0, 0.0];
        let mut v2 = vec![1.0, 0.0, 0.0];
        ab.apply_real(&mut v1);
        ba.apply_real(&mut v2);
        assert!((v1[2] - v2[2]).abs() > 1e-6);
    }

    #[test]
    #[should_panic(expected = "signs must be ±1")]
    fn signs_validated() {
        let mut s = GateSequence::new(2);
        s.set_signs(vec![1.0, 0.5]);
    }

    #[test]
    fn as_matrix_is_orthogonal() {
        let mut s = GateSequence::new(5);
        for (k, t) in [(0usize, 0.3), (2, 1.1), (3, -0.4), (1, 2.2)] {
            s.push(BeamSplitter::real(k, t));
        }
        s.set_signs(vec![1.0, 1.0, -1.0, 1.0, -1.0]);
        let m = s.as_matrix();
        assert!(m.is_orthogonal(1e-12));
    }

    #[test]
    fn as_matrix_matches_apply() {
        let mut s = GateSequence::new(3);
        s.push(BeamSplitter::real(0, 0.5));
        s.push(BeamSplitter::real(1, 0.25));
        let m = s.as_matrix();
        let x = vec![0.2, 0.3, -0.1];
        let mut applied = x.clone();
        s.apply_real(&mut applied);
        let mv = m.matvec(&x).unwrap();
        for (a, b) in applied.iter().zip(&mv) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn empty_sequence_is_identity() {
        let s = GateSequence::new(3);
        assert!(s.is_empty());
        let mut v = vec![1.0, 2.0, 3.0];
        s.apply_real(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert!(s.as_matrix().is_orthogonal(1e-15));
    }
}
