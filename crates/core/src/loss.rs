//! Loss functions (paper Eq. 5).
//!
//! Both networks train on the complete-square variance
//! `L = Σ_j Σ_i (out_i^j − target_i^j)²`. The paper reports `min L_C =
//! 0.017`, which is only plausible for the *per-element mean* (Algorithm 1
//! divides by `M × N`), so both normalisations are carried explicitly.

/// A loss value carrying both the Eq. 5 sum and the per-element mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Loss {
    /// `Σ_{i,j} r_{ij}²` — Eq. 5 literally.
    pub sum: f64,
    /// `sum / (M · N)` — Algorithm 1's normalisation.
    pub mean: f64,
}

impl Loss {
    /// Assemble from a residual sum over `m` samples of dimension `n`.
    pub fn from_sum(sum: f64, m: usize, n: usize) -> Self {
        let count = (m * n).max(1) as f64;
        Loss {
            sum,
            mean: sum / count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_normalisation() {
        let l = Loss::from_sum(8.0, 4, 2);
        assert_eq!(l.sum, 8.0);
        assert_eq!(l.mean, 1.0);
        // Degenerate sizes don't divide by zero.
        let d = Loss::from_sum(1.0, 0, 0);
        assert_eq!(d.mean, 1.0);
    }
}
