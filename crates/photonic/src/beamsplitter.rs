//! A single placed beam splitter.

/// A beam splitter coupling modes `mode` and `mode + 1`, with reflectivity
/// angle `theta` (paper Fig. 2).
///
/// The paper fixes the phase at `α ≡ 0`, so every gate is the real Givens
/// rotation `[[cos θ, −sin θ], [sin θ, cos θ]]` on its mode pair, and the
/// type carries no phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSplitter {
    /// First of the two coupled modes (`0`-based).
    pub mode: usize,
    /// Reflectivity angle θ; reflectivity is `cos θ`.
    pub theta: f64,
}

impl BeamSplitter {
    /// Beam splitter on modes `(mode, mode + 1)` with angle `theta`.
    pub fn real(mode: usize, theta: f64) -> Self {
        BeamSplitter { mode, theta }
    }

    /// Apply to a real amplitude vector in place, with the same
    /// `c·a − s·b` / `s·a + c·b` expressions as every mesh pass.
    ///
    /// # Panics
    /// Panics when the mode pair is out of range.
    #[inline]
    pub fn apply_real(&self, amps: &mut [f64]) {
        let k = self.mode;
        let (s, c) = self.theta.sin_cos();
        let (a, b) = (amps[k], amps[k + 1]);
        amps[k] = c * a - s * b;
        amps[k + 1] = s * a + c * b;
    }

    /// Reflectivity `cos θ` of the splitter.
    pub fn reflectivity(&self) -> f64 {
        self.theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-14;

    #[test]
    fn real_constructor_and_reflectivity() {
        let bs = BeamSplitter::real(3, 0.5);
        assert_eq!(bs.mode, 3);
        assert!((bs.reflectivity() - 0.5_f64.cos()).abs() < TOL);
    }

    #[test]
    fn apply_rotates_its_mode_pair_only() {
        let theta = 0.87_f64;
        let bs = BeamSplitter::real(1, theta);
        let mut v = vec![0.2, -0.5, 0.7, 0.1];
        bs.apply_real(&mut v);
        let (s, c) = theta.sin_cos();
        assert_eq!(v, [0.2, c * -0.5 - s * 0.7, s * -0.5 + c * 0.7, 0.1]);
    }
}
