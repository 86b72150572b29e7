//! Image substrate: containers, datasets, metrics, and IO.
//!
//! The paper evaluates on 25 binary 4×4 images (never published). This
//! crate supplies a deterministic substitute with the same dimensions and
//! cardinality — see [`datasets`] — plus seeded generators for scaling
//! studies, the paper's accuracy metric (Eq. 10), standard image metrics
//! (MSE/PSNR/SSIM), PGM/PBM file IO and ASCII terminal rendering.

pub mod ascii;
pub mod datasets;
pub mod image;
pub mod metrics;
pub mod pgm;
pub mod tiles;

pub use image::GrayImage;
