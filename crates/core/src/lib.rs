//! The paper's primary contribution: image compression and reconstruction
//! with a trainable quantum network.
//!
//! Pipeline (paper Fig. 1):
//!
//! 1. **Encode** (①, [`encoding`]): classical pixel vectors `x_i` become
//!    probability amplitudes `A_i` of quantum states `|ψ_i⟩` (Eq. 1).
//! 2. **Compress** (②, [`compression`]): `|ψ_i⟩` passes through the
//!    trainable mesh `U_C` and the projector `P1` keeps its last d modes
//!    (Eq. 3; the paper's Fig. 2 convention). The compression loss drives amplitude out of the
//!    discarded subspace (Eq. 5, `L_C`).
//! 3. **Reconstruct** (③, [`reconstruction`]): the compressed state passes
//!    through a second trainable mesh `U_R` back to the full space
//!    (Eq. 4); `L_R` compares output amplitudes `B_i` to the encoding
//!    targets `A_i`.
//! 4. **Decode** (④, [`encoding::decode`]): measured amplitudes are
//!    converted back to classical pixels `x̂_i` (Eq. 2).
//!
//! Training ([`trainer`], Algorithm 1) is gradient descent on the gate
//! angles θ with the exact reverse-mode (backprop) gradient
//! ([`gradient::loss_and_gradient`]), an engineering upgrade over the
//! paper's forward difference (Eq. 8, Δ = 10⁻⁸). The gradient module's
//! tests keep that forward difference, with a central one, as the
//! oracle the exact gradient is checked against.
//!
//! Extension beyond the paper's evaluation, flagged in its module docs:
//! [`spectral`] (PCA-optimal initialisation via Clements decomposition).

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
