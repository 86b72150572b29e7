//! End-to-end image codec for the quantum-network autoencoder.
//!
//! The paper's pipeline (encode → trainable compression mesh `U_C` →
//! projector `P1` → reconstruction mesh `U_R` → decode) exists in
//! `qn-core` as an in-memory training loop. This crate turns a trained
//! model into a **file-format codec**, the way related work treats
//! quantum compression as a real bitstream (QPIXL's compression-ratio
//! gate budget; the hybrid JPEG-style scheme of arXiv:2602.06201 that
//! quantizes transformed coefficients into a classical container):
//!
//! - [`model`] — versioned binary save/load of the trained meshes
//!   (`.qnm`), bit-exact, checksummed, no external serde;
//! - [`quantize`] — uniform scalar quantization of the d kept latent
//!   amplitudes, global or per-tile scaled, 1–16 bits;
//! - [`bitstream`] — bit-level IO plus Rice entropy coding of
//!   zigzag-mapped symbols, CRC-32 and FNV-1a identities;
//! - [`entropy`] — the bitstream-v2 coder layer: the [`EntropyCoder`]
//!   selector (`rice` / `rice-pos` / `range`) and the adaptive binary
//!   range coder with Exp-Golomb binarization;
//! - [`container`] — the `.qnc` layout: header, model id, tile grid,
//!   per-tile payloads, optional inline model, trailing checksum; in
//!   memory the tiles are flat grid arrays ([`TileGrid`]);
//! - [`pipeline`] — the full-image path: occupied tiles gathered and
//!   amplitude-encoded straight into mode-major panels → `U_C`/`P1` in
//!   place → quantize + entropy-code, and the reverse through `U_R`,
//!   every per-tile stage on the thread pool one panel at a time, with
//!   the mesh passes run by the selected [`BackendKind`] (the mesh's
//!   own `simd` panel pass by default, the `scalar` reference on
//!   request — same bytes either way);
//! - the `qnc` binary — `compress` / `decompress` / `train` / `info`
//!   over PGM files.
//!
//! Every decoder path returns typed [`CodecError`]s on malformed input;
//! corrupt or truncated bytes never panic. See the workspace README for
//! the byte-level format specifications and versioning rules.

pub mod bitstream;
pub mod container;
pub mod entropy;
pub mod error;
pub mod info;
pub mod model;
pub mod pipeline;
pub mod quantize;

pub use container::{Container, ContainerHeader, TileGrid};
pub use entropy::EntropyCoder;
pub use error::{CodecError, Result};
pub use model::{load_model, save_model};
pub use pipeline::{
    codec_from_inline, decode_standalone, stage, Codec, CodecOptions, DecodePlan, EncodePlan,
    EncodeStats, MAX_TILE_SIZE,
};
pub use qn_backend::BackendKind;
pub use quantize::Quantizer;
