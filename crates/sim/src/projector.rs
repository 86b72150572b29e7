//! Subspace projectors `P1` / `P0`.
//!
//! Compression in the paper is the projection `P1` onto a d-dimensional
//! subspace of the N-dimensional state space, with `P0 = I − P1` its
//! complement (Sec. II-B, Fig. 2). The paper's 8-dimensional example keeps
//! the *last* d basis states, so [`Projector::keep_last`] is the default
//! used by `qn-core`; arbitrary masks are supported too.

use crate::complex::Complex64;
use crate::error::SimError;
use crate::Result;

/// A diagonal 0/1 projector onto a subset of computational basis states.
#[derive(Debug, Clone, PartialEq)]
pub struct Projector {
    mask: Vec<bool>,
}

impl Projector {
    /// Keep the first `d` of `n` dimensions.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidArgument`] when `d > n`.
    pub fn keep_first(n: usize, d: usize) -> Result<Self> {
        if d > n {
            return Err(SimError::InvalidArgument(format!(
                "cannot keep {d} of {n} dimensions"
            )));
        }
        Ok(Projector {
            mask: (0..n).map(|i| i < d).collect(),
        })
    }

    /// Keep the last `d` of `n` dimensions (the paper's convention:
    /// compression targets like `[0,0,0,0,.25,.25,.25,.25]` place the kept
    /// subspace at the top of the index range).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidArgument`] when `d > n`.
    pub fn keep_last(n: usize, d: usize) -> Result<Self> {
        if d > n {
            return Err(SimError::InvalidArgument(format!(
                "cannot keep {d} of {n} dimensions"
            )));
        }
        Ok(Projector {
            mask: (0..n).map(|i| i >= n - d).collect(),
        })
    }

    /// Arbitrary keep-mask (`true` = kept).
    pub fn from_mask(mask: Vec<bool>) -> Self {
        Projector { mask }
    }

    /// Total dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mask.len()
    }

    /// Number of kept dimensions `d`.
    pub fn keep_count(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Whether basis state `j` is kept.
    #[inline]
    pub fn keeps(&self, j: usize) -> bool {
        self.mask[j]
    }

    /// Indices of kept basis states, ascending.
    pub fn kept_indices(&self) -> Vec<usize> {
        self.mask
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// The complementary projector `P0 = I − P1`.
    pub fn complement(&self) -> Projector {
        Projector {
            mask: self.mask.iter().map(|&b| !b).collect(),
        }
    }

    /// Zero out discarded components of a real amplitude vector, in place.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on length mismatch.
    pub fn project_real(&self, amps: &mut [f64]) -> Result<()> {
        if amps.len() != self.mask.len() {
            return Err(SimError::DimensionMismatch {
                expected: self.mask.len(),
                got: amps.len(),
            });
        }
        for (a, &keep) in amps.iter_mut().zip(&self.mask) {
            if !keep {
                *a = 0.0;
            }
        }
        Ok(())
    }

    /// Zero out discarded components of a complex amplitude vector.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on length mismatch.
    pub fn project_complex(&self, amps: &mut [Complex64]) -> Result<()> {
        if amps.len() != self.mask.len() {
            return Err(SimError::DimensionMismatch {
                expected: self.mask.len(),
                got: amps.len(),
            });
        }
        for (a, &keep) in amps.iter_mut().zip(&self.mask) {
            if !keep {
                *a = Complex64::default();
            }
        }
        Ok(())
    }

    /// Probability mass *outside* the kept subspace — the quantity the
    /// trash-penalty compression loss drives to zero.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on length mismatch.
    pub fn leaked_probability(&self, amps: &[f64]) -> Result<f64> {
        if amps.len() != self.mask.len() {
            return Err(SimError::DimensionMismatch {
                expected: self.mask.len(),
                got: amps.len(),
            });
        }
        Ok(amps
            .iter()
            .zip(&self.mask)
            .filter(|(_, &keep)| !keep)
            .map(|(a, _)| a * a)
            .sum())
    }

    /// Probability mass inside the kept subspace.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on length mismatch.
    pub fn kept_probability(&self, amps: &[f64]) -> Result<f64> {
        Ok(amps.iter().map(|a| a * a).sum::<f64>() - self.leaked_probability(amps)?)
    }

    /// Project and renormalise (post-selection on the kept subspace).
    /// Returns the pre-projection kept probability.
    ///
    /// # Errors
    /// [`SimError::DimensionMismatch`] on length mismatch, or
    /// [`SimError::ZeroNorm`] when no amplitude survives.
    pub fn project_normalize_real(&self, amps: &mut [f64]) -> Result<f64> {
        let kept = self.kept_probability(amps)?;
        if kept <= 0.0 {
            return Err(SimError::ZeroNorm);
        }
        self.project_real(amps)?;
        let inv = 1.0 / kept.sqrt();
        for a in amps.iter_mut() {
            *a *= inv;
        }
        Ok(kept)
    }

    /// Dense matrix form (diagonal of 0/1) as flat row-major data, for
    /// interop with `qn-linalg`.
    pub fn to_diagonal(&self) -> Vec<f64> {
        self.mask
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_first_and_last_conventions() {
        let pf = Projector::keep_first(4, 2).unwrap();
        assert_eq!(pf.kept_indices(), vec![0, 1]);
        let pl = Projector::keep_last(4, 2).unwrap();
        assert_eq!(pl.kept_indices(), vec![2, 3]);
        assert_eq!(pf.keep_count(), 2);
        assert_eq!(pf.dim(), 4);
        assert!(Projector::keep_first(2, 3).is_err());
        assert!(Projector::keep_last(2, 3).is_err());
    }

    #[test]
    fn paper_example_kept_subspace() {
        // (bᵢ)² = [0,0,0,0,.25,.25,.25,.25]: 8 dims, last 4 kept.
        let p = Projector::keep_last(8, 4).unwrap();
        assert_eq!(p.kept_indices(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn complement_partitions_identity() {
        let p1 = Projector::keep_last(6, 2).unwrap();
        let p0 = p1.complement();
        assert_eq!(p0.keep_count(), 4);
        let d1 = p1.to_diagonal();
        let d0 = p0.to_diagonal();
        // P1 + P0 = I element-wise on the diagonal.
        for (a, b) in d1.iter().zip(&d0) {
            assert_eq!(a + b, 1.0);
        }
    }

    #[test]
    fn projection_zeroes_discarded_components() {
        let p = Projector::keep_last(4, 2).unwrap();
        let mut v = vec![0.5, 0.5, 0.5, 0.5];
        p.project_real(&mut v).unwrap();
        assert_eq!(v, vec![0.0, 0.0, 0.5, 0.5]);
        assert!(p.project_real(&mut [0.0; 3]).is_err());
    }

    #[test]
    fn projection_is_idempotent() {
        let p = Projector::from_mask(vec![true, false, true, false]);
        let mut v = vec![0.1, 0.2, 0.3, 0.4];
        p.project_real(&mut v).unwrap();
        let once = v.clone();
        p.project_real(&mut v).unwrap();
        assert_eq!(v, once);
    }

    #[test]
    fn leak_and_kept_probability() {
        let p = Projector::keep_last(4, 2).unwrap();
        let v = [0.5, 0.5, 0.5, 0.5];
        assert!((p.leaked_probability(&v).unwrap() - 0.5).abs() < 1e-15);
        assert!((p.kept_probability(&v).unwrap() - 0.5).abs() < 1e-15);
        assert!(p.leaked_probability(&[1.0]).is_err());
    }

    #[test]
    fn project_normalize_post_selects() {
        let p = Projector::keep_last(4, 2).unwrap();
        let mut v = vec![0.5, 0.5, 0.5, 0.5];
        let kept = p.project_normalize_real(&mut v).unwrap();
        assert!((kept - 0.5).abs() < 1e-15);
        let n: f64 = v.iter().map(|x| x * x).sum();
        assert!((n - 1.0).abs() < 1e-15);
        // All mass in the kept dims now.
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn project_normalize_rejects_fully_leaked_state() {
        let p = Projector::keep_last(4, 2).unwrap();
        let mut v = vec![1.0, 0.0, 0.0, 0.0];
        assert_eq!(p.project_normalize_real(&mut v), Err(SimError::ZeroNorm));
    }

    #[test]
    fn complex_projection() {
        use crate::complex::Complex64;
        let p = Projector::keep_first(2, 1).unwrap();
        let mut v = vec![Complex64::new(0.3, 0.4), Complex64::new(0.5, -0.1)];
        p.project_complex(&mut v).unwrap();
        assert_eq!(v[1], Complex64::default());
        assert_eq!(v[0], Complex64::new(0.3, 0.4));
        assert!(p.project_complex(&mut [Complex64::default(); 3]).is_err());
    }
}
