//! Subspace projectors `P1` / `P0`.
//!
//! Compression in the paper is the projection `P1` onto a d-dimensional
//! subspace of the N-dimensional state space, with `P0 = I − P1` its
//! complement (Sec. II-B, Fig. 2). The paper's 8-dimensional example keeps
//! the *last* d basis states, [`Projector::keep_last`]: the convention
//! `qn-core`'s compression network fixes by type.

use crate::error::SimError;
use crate::Result;

/// A diagonal 0/1 projector onto a subset of computational basis states.
#[derive(Debug, Clone, PartialEq)]
pub struct Projector {
    mask: Vec<bool>,
}

impl Projector {
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
    fn keep_last_convention() {
        let pl = Projector::keep_last(4, 2).unwrap();
        assert_eq!(pl.kept_indices(), vec![2, 3]);
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
        assert_eq!(p0.kept_indices(), vec![0, 1, 2, 3]);
        let d1 = p1.to_diagonal();
        let d0 = p0.to_diagonal();
        // P1 + P0 = I element-wise on the diagonal.
        for (a, b) in d1.iter().zip(&d0) {
            assert_eq!(a + b, 1.0);
        }
    }

    #[test]
    fn leak_and_kept_probability() {
        let p = Projector::keep_last(4, 2).unwrap();
        let v = [0.5, 0.5, 0.5, 0.5];
        assert!((p.leaked_probability(&v).unwrap() - 0.5).abs() < 1e-15);
        assert!((p.kept_probability(&v).unwrap() - 0.5).abs() < 1e-15);
        assert!(p.leaked_probability(&[1.0]).is_err());
    }
}
