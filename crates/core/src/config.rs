//! Network and training configuration.

use crate::error::CoreError;
use crate::gradient::GradientMethod;
use crate::Result;

/// Which subspace `P1` keeps (paper Fig. 2; the 8-dim example keeps the
/// *last* d dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubspaceKind {
    /// Keep the last `d` basis states (paper convention, default).
    KeepLast,
    /// Keep the first `d` basis states.
    KeepFirst,
}

/// Compression-target strategy for `L_C` (the paper's Eq. 5 requires
/// per-sample targets `b_i` but only gives one example).
#[derive(Debug, Clone, PartialEq)]
pub enum CompressionTargetKind {
    /// Penalise only the amplitude that leaks *outside* the kept subspace
    /// (`b = 0` on discarded dims, unconstrained inside) — the standard
    /// quantum-autoencoder loss and the strategy that makes faithful
    /// reconstruction possible. Default.
    TrashPenalty,
    /// The paper-literal example: a shared target with uniform probability
    /// `1/d` on every kept dimension (amplitude `1/√d`) and zero outside.
    Uniform,
    /// Explicit per-sample target amplitudes (length-N vectors).
    Custom(Vec<Vec<f64>>),
}

/// θ initialisation strategy ("θ can be initialized randomly or uniformly;
/// different initialization methods will bring different training
/// effects").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitStrategy {
    /// iid uniform on `[0, 2π)`.
    RandomUniform,
    /// iid uniform on `[-scale, scale]` (near-identity start).
    SmallRandom(f64),
    /// All zeros (exact identity start).
    Identity,
    /// Spectral: load the PCA-optimal rotation via Clements decomposition
    /// (extension; see `spectral`). Falls back to the packed layer count.
    Spectral,
}

/// How the two networks' updates are interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingSchedule {
    /// Each iteration updates `U_C` then `U_R` (both curves advance along
    /// the same iteration axis, as in the paper's Fig. 4c). Default.
    Joint,
    /// Train `U_C` for all iterations first, then `U_R` (a literal reading
    /// of Algorithm 1's sequential loops).
    Sequential,
}

/// Optimiser selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain gradient descent (paper Eq. 9).
    Gd,
    /// Gradient descent with classical momentum.
    Momentum {
        /// Momentum coefficient β.
        beta: f64,
    },
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
    /// Gradient computation method.
    pub gradient: GradientMethod,
    /// Compression-target strategy.
    pub target: CompressionTargetKind,
    /// Kept-subspace convention.
    pub subspace: SubspaceKind,
    /// θ initialisation.
    pub init: InitStrategy,
    /// Update interleaving.
    pub schedule: TrainingSchedule,
    /// Optimiser.
    pub optimizer: OptimizerKind,
    /// Divide gradients by `M × N` as in Algorithm 1 (`gC = 2·sum(…)/(M×N)`).
    pub normalize_gradient: bool,
    /// Initialise `U_R` as the reversed `U_C` (paper Sec. II-C) instead of
    /// randomly.
    pub init_r_from_c: bool,
    /// Accuracy tolerance of Eq. 10 (paper: 0.01).
    pub accuracy_tol: f64,
    /// Sample index whose amplitude trajectories are recorded (paper
    /// Fig. 4e/f tracks sample 25, i.e. index 24).
    pub tracked_sample: usize,
    /// Measurement shots for amplitude estimation; 0 = exact simulation
    /// (paper). Non-zero injects shot noise into training (extension).
    pub shots: usize,
    /// Mini-batch size for gradient estimation; `None` = full batch.
    /// The paper's Sec. III-C: "we can use the GD algorithm or batch
    /// gradient descent algorithm for larger data". Batches are drawn
    /// with a seeded shuffle, so runs stay deterministic.
    pub batch_size: Option<usize>,
}

impl NetworkConfig {
    /// The paper's Sec. IV-A structure: `N = 16`, `d = 4`, `l_C = 12`,
    /// `l_R = 14`, 150 iterations, tracked sample 25.
    ///
    /// Two engineering deviations: the gradient defaults to the exact
    /// reverse-mode method (the paper's forward difference with Δ = 10⁻⁸,
    /// Eq. 8, loses ~half the significant digits in f64), and the
    /// optimiser defaults to Adam at η = 0.05 (the paper's plain GD at
    /// η = 0.01, Eq. 9, plateaus far from the PCA bound on this
    /// landscape).
    pub fn paper_default() -> Self {
        NetworkConfig {
            dim: 16,
            compressed_dim: 4,
            layers_c: 12,
            layers_r: 14,
            learning_rate: 0.05,
            iterations: 150,
            seed: 7,
            gradient: GradientMethod::Analytic,
            target: CompressionTargetKind::TrashPenalty,
            subspace: SubspaceKind::KeepLast,
            init: InitStrategy::SmallRandom(0.3),
            schedule: TrainingSchedule::Joint,
            optimizer: OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
            },
            normalize_gradient: false,
            init_r_from_c: true,
            accuracy_tol: 0.01,
            tracked_sample: 24,
            shots: 0,
            batch_size: None,
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
        if self.accuracy_tol < 0.0 {
            return Err(CoreError::InvalidConfig(
                "accuracy tolerance must be non-negative".to_string(),
            ));
        }
        if self.batch_size == Some(0) {
            return Err(CoreError::InvalidConfig(
                "batch size must be at least 1".to_string(),
            ));
        }
        if let CompressionTargetKind::Custom(targets) = &self.target {
            if targets.iter().any(|t| t.len() != self.dim) {
                return Err(CoreError::InvalidConfig(
                    "custom compression targets must have length N".to_string(),
                ));
            }
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

    /// Builder: set layer counts `(l_C, l_R)`.
    #[must_use]
    pub fn with_layers(mut self, layers_c: usize, layers_r: usize) -> Self {
        self.layers_c = layers_c;
        self.layers_r = layers_r;
        self
    }

    /// Builder: set compression-target strategy.
    #[must_use]
    pub fn with_target(mut self, target: CompressionTargetKind) -> Self {
        self.target = target;
        self
    }

    /// Builder: set initialisation strategy.
    #[must_use]
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Builder: set training schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: TrainingSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Builder: set measurement shots (0 = exact).
    #[must_use]
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Builder: set the mini-batch size (`None` = full batch).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: Option<usize>) -> Self {
        self.batch_size = batch_size;
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
        assert_eq!(c.tracked_sample, 24); // "Figure 25" is index 24
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = NetworkConfig::paper_default();
        assert!(base.clone().with_dims(1, 1).validate().is_err());
        assert!(base.clone().with_dims(16, 0).validate().is_err());
        assert!(base.clone().with_dims(16, 17).validate().is_err());
        assert!(base.clone().with_layers(0, 14).validate().is_err());
        assert!(base.clone().with_learning_rate(0.0).validate().is_err());
        assert!(base
            .clone()
            .with_learning_rate(f64::NAN)
            .validate()
            .is_err());
        let mut bad_tol = base.clone();
        bad_tol.accuracy_tol = -1.0;
        assert!(bad_tol.validate().is_err());
        assert!(base.clone().with_batch_size(Some(0)).validate().is_err());
        assert!(base.clone().with_batch_size(Some(8)).validate().is_ok());
        let bad_custom = base.with_target(CompressionTargetKind::Custom(vec![vec![0.0; 8]]));
        assert!(bad_custom.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = NetworkConfig::paper_default()
            .with_iterations(10)
            .with_seed(42)
            .with_learning_rate(0.1)
            .with_dims(8, 2)
            .with_layers(3, 4)
            .with_shots(100);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.seed, 42);
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!((c.dim, c.compressed_dim), (8, 2));
        assert_eq!((c.layers_c, c.layers_r), (3, 4));
        assert_eq!(c.shots, 100);
        assert!(c.validate().is_ok());
    }
}
