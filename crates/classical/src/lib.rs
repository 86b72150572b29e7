//! Classical baselines the paper compares against.
//!
//! Sec. IV-C compares the quantum network against a classical sparse
//! coding (CSC) pipeline "based on the SVD algorithms" (ref \[23\]) with a
//! 16×16 dictionary: inputs are expressed as `y = D s` with a learned
//! dictionary `D` and sparse codes `s`. This crate implements that whole
//! stack from scratch on top of `qn-linalg`:
//!
//! - [`dictionary`] — dictionary containers and initialisation;
//! - [`mp`] / [`omp`] — matching pursuit and orthogonal matching pursuit
//!   sparse coders;
//! - [`ista`] — ISTA/FISTA ℓ₁ sparse coders;
//! - [`ksvd`] — K-SVD dictionary updates (the SVD-based learning of the
//!   paper's reference);
//! - [`csc`] — the full training pipeline with loss/time tracking, i.e.
//!   the baseline column of Table I and the CSC curve of Fig. 5c;
//! - [`pca`] — PCA compression (the classically-simulable content of the
//!   quantum-PCA comparison the paper cites as ref \[11\]);
//! - [`svd_compress`] — plain low-rank SVD image compression.

pub mod csc;
pub mod dictionary;
pub mod ista;
pub mod ksvd;
pub mod mp;
pub mod omp;
pub mod pca;
pub mod svd_compress;

pub use csc::{CscConfig, CscPipeline, CscReport};
pub use dictionary::Dictionary;
