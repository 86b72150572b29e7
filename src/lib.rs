//! # qn — quantum-network image compression & reconstruction
//!
//! Umbrella crate re-exporting the whole workspace. This is a full
//! reproduction of *"Image Compression and Reconstruction Based on Quantum
//! Network"* (Ji et al., IPPS 2024, arXiv:2404.11994): classical images are
//! amplitude-encoded into quantum states, compressed by a trainable mesh of
//! beam-splitter (Givens) rotations plus a subspace projection, and
//! reconstructed by a second trainable mesh.
//!
//! ## Crates
//!
//! - [`core`] — the paper's contribution: encoding, compression /
//!   reconstruction networks, losses, gradients, the training loop.
//! - [`backend`] — `BackendKind`, which runs either mesh pass: the
//!   mesh's own simd panel pass (the default) or the per-lane scalar
//!   reference.
//! - [`sim`] — hand-rolled state-vector simulator.
//! - [`photonic`] — interferometer meshes, the Clements decomposition and
//!   the gate tables each mesh keeps for the simd path.
//! - [`linalg`] — dense linear algebra (Jacobi SVD and symmetric
//!   eigensolver, SVD least squares, mode-major tile panels).
//! - [`classical`] — the CSC sparse-coding baseline and PCA.
//! - [`image`] — images, datasets, metrics, PGM/ASCII IO.
//! - [`codec`] — the end-to-end file codec: model persistence (`.qnm`),
//!   quantized latent bitstreams, the `.qnc` container, tiled
//!   encode/decode.
//! - [`serve`] — the codec server: binary wire protocol, a reactor
//!   feeding workers that run each request's codec schedule inline, the
//!   content-addressed model zoo, and the `qnc` CLI (offline commands
//!   plus `serve`/`remote`).
//! - [`eval`] — the rate–distortion evaluation subsystem: dataset
//!   registry, operating-point sweeps, classical baselines at matched
//!   rates, stable quality reports and CI quality gates.
//! - [`metrics`] — zero-dependency telemetry core: atomic
//!   counters/gauges, log₂ latency histograms with percentile
//!   estimation, one byte-stable JSON exposition (the `STATS` reply).
//! - [`trace`] — zero-dependency span tracing: per-request trees of
//!   named, timed spans with attributes, recent/slow capture buffers,
//!   byte-stable JSON and ASCII tree rendering.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```
//! use qn::core::config::NetworkConfig;
//! use qn::core::trainer::Trainer;
//! use qn::image::datasets;
//!
//! // 25 binary 4×4 images, exactly the paper's data regime.
//! let data = datasets::paper_binary_16(25);
//! let cfg = NetworkConfig::paper_default().with_iterations(30);
//! let mut trainer = Trainer::new(cfg, &data).unwrap();
//! let report = trainer.train().unwrap();
//! assert!(report.final_reconstruction_loss < 1.0);
//! ```

pub use qn_backend as backend;
pub use qn_classical as classical;
pub use qn_codec as codec;
pub use qn_core as core;
pub use qn_eval as eval;
pub use qn_image as image;
pub use qn_linalg as linalg;
pub use qn_metrics as metrics;
pub use qn_photonic as photonic;
pub use qn_serve as serve;
pub use qn_sim as sim;
pub use qn_trace as trace;
