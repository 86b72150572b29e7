//! Dense linear-algebra substrate for the quantum-network reproduction.
//!
//! The paper's baselines (classical sparse coding with an SVD-based
//! dictionary, PCA compression) and several extensions (spectral
//! initialisation via Clements decomposition) need a small but complete
//! dense linear-algebra stack. Everything here is hand-rolled: the target
//! regime is small-to-medium matrices (N ≤ a few thousand), where robust
//! textbook algorithms (one-sided Jacobi SVD, symmetric Jacobi
//! eigensolver) are accurate and fast enough.
//!
//! [`parallel`] is the one module in the workspace that forks: its
//! helpers split work at fixed chunk boundaries, so results are
//! deterministic regardless of thread count. Everything else here runs
//! on its caller.

pub mod error;
pub mod givens;
pub mod lstsq;
pub mod matrix;
pub mod panel;
pub mod parallel;
pub mod random;
pub mod svd;
pub mod sym_eig;
pub mod vector;

pub use error::LinalgError;
pub use givens::Givens;
pub use matrix::Matrix;
pub use panel::Panel;
pub use svd::Svd;
pub use sym_eig::SymEig;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
