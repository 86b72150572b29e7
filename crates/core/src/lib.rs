//! The paper's primary contribution: image compression and reconstruction
//! with a trainable quantum network.
//!
//! Pipeline (paper Fig. 1):
//!
//! 1. **Encode** (①, [`encoding`]): classical pixel vectors `x_i` become
//!    probability amplitudes `A_i` of quantum states `|ψ_i⟩` (Eq. 1).
//! 2. **Compress** (②, [`compression`]): `|ψ_i⟩` passes through the
//!    trainable mesh `U_C` and the projector `P1` keeps a d-dimensional
//!    subspace (Eq. 3). The compression loss drives amplitude out of the
//!    discarded subspace (Eq. 5, `L_C`).
//! 3. **Reconstruct** (③, [`reconstruction`]): the compressed state passes
//!    through a second trainable mesh `U_R` back to the full space
//!    (Eq. 4); `L_R` compares output amplitudes `B_i` to the encoding
//!    targets `A_i`.
//! 4. **Decode** (④, [`encoding::decode`]): measured amplitudes are
//!    converted back to classical pixels `x̂_i` (Eq. 2).
//!
//! Training ([`trainer`], Algorithm 1) is gradient descent on the gate
//! angles θ, with the paper's finite-difference gradient (Eq. 8,
//! Δ = 10⁻⁸) plus a central-difference variant and an exact reverse-mode
//! (backprop) gradient as engineering upgrades — see
//! [`gradient::GradientMethod`].
//!
//! Extensions beyond the paper's evaluation, each flagged in its module
//! docs: [`spectral`] (PCA-optimal initialisation via Clements
//! decomposition) and shot-noise training through the trainer's own
//! seeded multinomial sampler ([`config::NetworkConfig::shots`]).

pub mod autoencoder;
pub mod compression;
pub mod config;
pub mod encoding;
pub mod error;
pub mod gradient;
pub mod loss;
pub mod optimizer;
pub mod reconstruction;
pub mod spectral;
pub mod trainer;

pub use autoencoder::QuantumAutoencoder;
pub use config::NetworkConfig;
pub use error::CoreError;
pub use trainer::{TrainReport, Trainer, TrainingHistory};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
