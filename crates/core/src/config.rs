//! Network and training configuration.

use crate::error::CoreError;
use crate::Result;

/// Compression-target strategy for `L_C` (the paper's Eq. 5 requires
/// per-sample targets `b_i` but only gives one example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionTargetKind {
    /// Penalise only the amplitude that leaks *outside* the kept subspace
    /// (`b = 0` on discarded dims, unconstrained inside) — the standard
    /// quantum-autoencoder loss and the strategy that makes faithful
    /// reconstruction possible. The trainer builds `U_C` with it.
    TrashPenalty,
    /// The paper-literal example: a shared target with uniform probability
    /// `1/d` on every kept dimension (amplitude `1/√d`) and zero outside.
    Uniform,
}

/// θ initialisation strategy ("θ can be initialized randomly or uniformly;
/// different initialization methods will bring different training
/// effects").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitStrategy {
    /// iid uniform on `[-scale, scale]` (near-identity start).
    SmallRandom(f64),
    /// Spectral: load the PCA-optimal rotation via Clements decomposition
    /// (extension; see `spectral`). Falls back to the packed layer count.
    Spectral,
}

/// Optimiser selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain gradient descent (paper Eq. 9).
    Gd,
    /// Adam.
    Adam {
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
    },
}

/// Complete configuration of the quantum compression/reconstruction
/// pipeline.
///
/// The trainer fixes everything else: `U_C` keeps the last `d` modes
/// under the trash-penalty target, `U_R` starts as the reversed `U_C`
/// (paper Sec. II-C), both update once per iteration on the exact
/// reverse-mode gradient over the full training set, and accuracy uses
/// Eq. 10's tolerance ([`qn_image::metrics::ACCURACY_TOL`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// State dimension `N` (paper: 16).
    pub dim: usize,
    /// Compressed dimension `d` (paper: 4).
    pub compressed_dim: usize,
    /// Compression-network layers `l_C` (paper: 12).
    pub layers_c: usize,
    /// Reconstruction-network layers `l_R` (paper: 14).
    pub layers_r: usize,
    /// Learning rate η (paper: 0.01).
    pub learning_rate: f64,
    /// Training iterations (paper: 150).
    pub iterations: usize,
    /// RNG seed for initialisation.
    pub seed: u64,
    /// θ initialisation of `U_C`.
    pub init: InitStrategy,
    /// Optimiser.
    pub optimizer: OptimizerKind,
    /// Divide gradients by `M × N` as in Algorithm 1 (`gC = 2·sum(…)/(M×N)`).
    pub normalize_gradient: bool,
}

impl NetworkConfig {
    /// The paper's Sec. IV-A structure: `N = 16`, `d = 4`, `l_C = 12`,
    /// `l_R = 14`, 150 iterations, from a small random start.
    ///
    /// One engineering deviation: the optimiser is Adam at η = 0.05 (the
    /// paper's plain GD at η = 0.01, Eq. 9, plateaus far from the PCA
    /// bound on this landscape). The trainer's gradient is exact reverse
    /// mode rather than the paper's forward difference (see
    /// [`crate::trainer`]).
    pub fn paper_default() -> Self {
        NetworkConfig {
            dim: 16,
            compressed_dim: 4,
            layers_c: 12,
            layers_r: 14,
            learning_rate: 0.05,
            iterations: 150,
            seed: 7,
            init: InitStrategy::SmallRandom(0.3),
            optimizer: OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
            },
            normalize_gradient: false,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.dim < 2 {
            return Err(CoreError::InvalidConfig(format!(
                "dim must be ≥ 2, got {}",
                self.dim
            )));
        }
        if self.compressed_dim == 0 || self.compressed_dim > self.dim {
            return Err(CoreError::InvalidConfig(format!(
                "compressed_dim must be in 1..={}, got {}",
                self.dim, self.compressed_dim
            )));
        }
        if self.layers_c == 0 || self.layers_r == 0 {
            return Err(CoreError::InvalidConfig(
                "both networks need at least one layer".to_string(),
            ));
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "learning rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        Ok(())
    }

    /// Builder: set iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Builder: set seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set learning rate.
    #[must_use]
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Builder: set dimensions `(N, d)`.
    #[must_use]
    pub fn with_dims(mut self, dim: usize, compressed_dim: usize) -> Self {
        self.dim = dim;
        self.compressed_dim = compressed_dim;
        self
    }

    /// Builder: set initialisation strategy.
    #[must_use]
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv_a_structure() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.dim, 16);
        assert_eq!(c.compressed_dim, 4);
        assert_eq!(c.layers_c, 12);
        assert_eq!(c.layers_r, 14);
        assert_eq!(c.iterations, 150);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = NetworkConfig::paper_default();
        assert!(base.clone().with_dims(1, 1).validate().is_err());
        assert!(base.clone().with_dims(16, 0).validate().is_err());
        assert!(base.clone().with_dims(16, 17).validate().is_err());
        let no_layers = NetworkConfig {
            layers_c: 0,
            ..base.clone()
        };
        assert!(no_layers.validate().is_err());
        assert!(base.clone().with_learning_rate(0.0).validate().is_err());
        assert!(base.with_learning_rate(f64::NAN).validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = NetworkConfig::paper_default()
            .with_iterations(10)
            .with_seed(42)
            .with_learning_rate(0.1)
            .with_dims(8, 2);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.seed, 42);
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!((c.dim, c.compressed_dim), (8, 2));
        assert!(c.validate().is_ok());
    }
}
