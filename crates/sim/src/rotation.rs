//! Mode rotations `U(k,k+1)` — the paper's quantum gate.
//!
//! The paper's network is built from lossless beam splitters acting between
//! *adjacent vector-space dimensions* `k` and `k+1` (Sec. III-A, Fig. 2):
//!
//! ```text
//! U(k,k+1) = | e^{iα} cos θ   −sin θ |
//!            | e^{iα} sin θ    cos θ |
//! ```
//!
//! with reflectivity `cos θ`, `θ ∈ [0, π/2]` nominal (training leaves θ
//! unconstrained in ℝ; the paper observes trained values stabilise in
//! `[0, 2π]`), and phase `α ∈ [0, 2π]`. The paper fixes `α ≡ 0`, making
//! every gate a real Givens rotation; the codec's real mesh passes live
//! in `qn-photonic`. This module applies the general complex form to a
//! simulator state, for [`crate::circuit::Op::ModeRotation`].
//!
//! Unlike qubit gates, a mode rotation touches exactly two amplitudes of
//! the N-dimensional vector, so it works on vectors of *any* length, not
//! just powers of two — matching the optical-circuit picture where each
//! dimension is a waveguide mode.

use crate::complex::Complex64;
use crate::error::SimError;
use crate::Result;

/// Apply the complex beam-splitter `U(k,k+1)` with reflectivity angle
/// `theta` and phase `alpha`, in place (Fig. 2 of the paper; the Clements
/// convention with the phase on the first input mode).
///
/// # Errors
/// Returns [`SimError::InvalidArgument`] when `k + 1 ≥ amps.len()`.
#[inline]
pub fn apply_complex(amps: &mut [Complex64], k: usize, theta: f64, alpha: f64) -> Result<()> {
    if k + 1 >= amps.len() {
        return Err(SimError::InvalidArgument(format!(
            "mode rotation at k={k} out of range for dimension {}",
            amps.len()
        )));
    }
    let (s, c) = theta.sin_cos();
    let phase = Complex64::from_polar(1.0, alpha);
    let a = amps[k];
    let b = amps[k + 1];
    amps[k] = phase * a.scale(c) - b.scale(s);
    amps[k + 1] = phase * a.scale(s) + b.scale(c);
    Ok(())
}

/// Apply the inverse (conjugate transpose) of the complex beam splitter.
///
/// # Errors
/// Returns [`SimError::InvalidArgument`] when `k + 1 ≥ amps.len()`.
#[inline]
pub fn apply_complex_inverse(
    amps: &mut [Complex64],
    k: usize,
    theta: f64,
    alpha: f64,
) -> Result<()> {
    if k + 1 >= amps.len() {
        return Err(SimError::InvalidArgument(format!(
            "mode rotation at k={k} out of range for dimension {}",
            amps.len()
        )));
    }
    // U† = [[e^{-iα} cosθ, e^{-iα} sinθ], [−sinθ, cosθ]]
    let (s, c) = theta.sin_cos();
    let phase = Complex64::from_polar(1.0, -alpha);
    let a = amps[k];
    let b = amps[k + 1];
    amps[k] = phase * (a.scale(c) + b.scale(s));
    amps[k + 1] = b.scale(c) - a.scale(s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::ZERO;

    const TOL: f64 = 1e-14;

    #[test]
    fn bounds_are_checked() {
        let mut c = vec![ZERO; 2];
        assert!(apply_complex(&mut c, 1, 0.1, 0.0).is_err());
        assert!(apply_complex_inverse(&mut c, 5, 0.1, 0.0).is_err());
    }

    #[test]
    fn complex_rotation_with_zero_phase_matches_real() {
        let mut cv: Vec<Complex64> = [0.6, -0.2, 0.5]
            .iter()
            .map(|&r| Complex64::from_real(r))
            .collect();
        apply_complex(&mut cv, 1, 0.9, 0.0).unwrap();
        let (s, c) = 0.9_f64.sin_cos();
        let rv = [0.6, c * -0.2 - s * 0.5, s * -0.2 + c * 0.5];
        for (c, r) in cv.iter().zip(&rv) {
            assert!((c.re - r).abs() < TOL);
            assert!(c.im.abs() < TOL);
        }
    }

    #[test]
    fn complex_rotation_preserves_norm_with_any_phase() {
        let mut cv: Vec<Complex64> = vec![
            Complex64::new(0.3, 0.4),
            Complex64::new(-0.5, 0.1),
            Complex64::new(0.2, -0.6),
        ];
        let n0: f64 = cv.iter().map(|a| a.norm_sq()).sum();
        apply_complex(&mut cv, 0, 1.1, 2.3).unwrap();
        let n1: f64 = cv.iter().map(|a| a.norm_sq()).sum();
        assert!((n0 - n1).abs() < TOL);
    }

    #[test]
    fn complex_inverse_undoes_rotation() {
        let mut cv: Vec<Complex64> = vec![Complex64::new(0.3, 0.4), Complex64::new(-0.5, 0.1)];
        let orig = cv.clone();
        apply_complex(&mut cv, 0, 0.7, 1.9).unwrap();
        apply_complex_inverse(&mut cv, 0, 0.7, 1.9).unwrap();
        for (a, b) in cv.iter().zip(&orig) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn rotation_works_on_non_power_of_two_dimensions() {
        // Optical modes need not come in powers of two.
        let mut v = vec![ZERO; 5]; // 5 modes
        v[0] = Complex64::from_real(1.0);
        for k in 0..4 {
            apply_complex(&mut v, k, 0.5, 0.0).unwrap();
        }
        let norm_sq: f64 = v.iter().map(|a| a.norm_sq()).sum();
        assert!((norm_sq - 1.0).abs() < TOL);
        assert!(v[4].re.abs() > 0.0); // amplitude has cascaded to the last mode
    }
}
