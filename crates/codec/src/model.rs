//! Versioned binary persistence for trained models (`.qnm` files).
//!
//! # Byte layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "QNMD"
//! 4       2     format version (current: 1)
//! 6       2     flags: bit 0 = real model (required; see below)
//!                      bit 1 = U_R derived (U_R is the exact inverse of
//!                              U_C; only its layer count is stored)
//! 8       4     state dimension N
//! 12      4     compressed dimension d
//! 16      1     kept-subspace tag (must be 0: P1 keeps the last d modes)
//! 17      3     reserved (must be 0)
//! 20      …     mesh U_C   (layout below)
//! …       …     [flags bit 1 clear] mesh U_R
//!               [flags bit 1 set]   U_R layer count u32
//! end−4   4     CRC-32 (IEEE) of every preceding byte
//!
//! mesh := n_layers  u32
//!         repeat n_layers times:
//!           order   u8   (0 = ascending cascade, 1 = descending)
//!           theta   f64 × (N−1)   (raw IEEE-754 bits — bit-exact)
//! ```
//!
//! Bit 0 is required. The paper fixes every beam-splitter phase at
//! `α ≡ 0`, so a gate is a real rotation and the file stores only θ;
//! the writer always sets the bit. A file with bit 0 clear declares a
//! non-zero phase (an `α` array follows each layer's θ), and the reader
//! rejects it with [`CodecError::Invalid`] before it builds any mesh.
//!
//! The kept-subspace tag must be 0. `P1` keeps the last `d` modes (the
//! paper's Fig. 2 convention), and the reader rejects any other tag with
//! [`CodecError::Invalid`] before it reads a mesh.
//!
//! Bit 1 is a size optimisation the writer applies whenever it is
//! exact: spectral/untrained-`U_R` models reconstruct with the
//! reversed-negated compression mesh, so only its layer count is
//! stored (the derivation is deterministic, so the loaded mesh is still
//! bit-exact).
//!
//! # Versioning rules
//!
//! - Readers accept any file whose version ≤ their
//!   [`MODEL_VERSION`] and must reject newer versions with
//!   [`CodecError::UnsupportedVersion`] (no silent best-effort parses).
//! - Any change to field meaning or order bumps the version; reserved
//!   fields exist so small additions don't have to.
//! - Angles are stored as raw IEEE-754 bits, so
//!   save → load → save is byte-identical and a loaded model produces
//!   **bit-exact** amplitudes relative to the model that was saved.
//!
//! The model's identity — stored in `.qnc` containers to pair them with
//! the right decoder — is [`model_id`]: the FNV-1a 64 hash of the
//! serialised body (checksum excluded).

use crate::bitstream::{crc32, fnv1a64, ByteReader, ByteWriter};
use crate::error::{CodecError, Result};
use qn_core::compression::CompressionNetwork;
use qn_core::config::CompressionTargetKind;
use qn_core::reconstruction::ReconstructionNetwork;
use qn_core::QuantumAutoencoder;
use qn_photonic::{GateOrder, Mesh, MeshLayer};
use std::path::Path;

/// Leading magic of a model file.
pub const MODEL_MAGIC: [u8; 4] = *b"QNMD";
/// Highest format version this build reads and the version it writes.
pub const MODEL_VERSION: u16 = 1;

/// Hard cap on `n_layers`/dimension fields so corrupt headers cannot
/// drive huge allocations.
const MAX_REASONABLE: u32 = 1 << 20;

/// Flag bit 0: the model is real (every phase `α ≡ 0`, none stored).
/// Required: the writer always sets it, and the reader rejects a file
/// without it.
pub const MODEL_FLAG_REAL: u16 = 1 << 0;
/// Flag bit 1: `U_R` is the exact inverse of `U_C` (reversed structure,
/// negated angles, identity-padded to its layer count); only that layer
/// count is stored.
pub const MODEL_FLAG_DERIVED_R: u16 = 1 << 1;

/// The one kept-subspace tag: `P1` keeps the last `d` modes.
const SUBSPACE_KEEP_LAST: u8 = 0;

fn write_mesh(w: &mut ByteWriter, mesh: &Mesh) {
    w.put_u32(mesh.n_layers() as u32);
    for layer in mesh.layers() {
        w.put_u8(match layer.order() {
            GateOrder::Ascending => 0,
            GateOrder::Descending => 1,
        });
        for &t in layer.thetas() {
            w.put_f64(t);
        }
    }
}

fn read_mesh(r: &mut ByteReader<'_>, dim: usize) -> Result<Mesh> {
    let n_layers = r.get_u32("mesh layer count")?;
    if n_layers == 0 || n_layers > MAX_REASONABLE {
        return Err(CodecError::Invalid(format!(
            "mesh layer count {n_layers} out of range"
        )));
    }
    let mut layers = Vec::with_capacity(n_layers as usize);
    for _ in 0..n_layers {
        let order = match r.get_u8("layer order")? {
            0 => GateOrder::Ascending,
            1 => GateOrder::Descending,
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown gate order tag {other}"
                )))
            }
        };
        let mut thetas = Vec::with_capacity(dim - 1);
        for _ in 0..dim - 1 {
            thetas.push(r.get_f64("layer theta")?);
        }
        layers.push(MeshLayer::from_parts(dim, thetas, order));
    }
    Ok(Mesh::from_layers(layers))
}

/// True when `U_R` equals the deterministic inverse derivation from
/// `U_C` — exact f64 equality, so omission is lossless.
fn reconstruction_is_derived(model: &QuantumAutoencoder) -> bool {
    let derived = ReconstructionNetwork::from_reversed_compression(
        &model.compression,
        model.reconstruction.mesh().n_layers(),
    );
    derived.mesh() == model.reconstruction.mesh()
}

/// Serialise the model body (everything except the trailing CRC).
fn encode_body(model: &QuantumAutoencoder) -> Vec<u8> {
    let derived_r = reconstruction_is_derived(model);
    let mut flags = MODEL_FLAG_REAL;
    if derived_r {
        flags |= MODEL_FLAG_DERIVED_R;
    }
    let mut w = ByteWriter::new();
    w.put_bytes(&MODEL_MAGIC);
    w.put_u16(MODEL_VERSION);
    w.put_u16(flags);
    w.put_u32(model.dim() as u32);
    w.put_u32(model.compression.compressed_dim() as u32);
    w.put_u8(SUBSPACE_KEEP_LAST);
    w.put_bytes(&[0, 0, 0]); // reserved
    write_mesh(&mut w, model.compression.mesh());
    if derived_r {
        w.put_u32(model.reconstruction.mesh().n_layers() as u32);
    } else {
        write_mesh(&mut w, model.reconstruction.mesh());
    }
    w.finish()
}

/// Serialise a model to its complete file bytes (body + CRC-32).
pub fn encode_model(model: &QuantumAutoencoder) -> Vec<u8> {
    let mut bytes = encode_body(model);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// The model's stable 64-bit identity: FNV-1a of the serialised body.
/// Containers record this so decoders can detect model mismatches.
pub fn model_id(model: &QuantumAutoencoder) -> u64 {
    fnv1a64(&encode_body(model))
}

/// Parse model bytes (the inverse of [`encode_model`]).
///
/// # Errors
/// Typed [`CodecError`] for bad magic, unsupported versions, truncation,
/// checksum mismatches, complex models (flag bit 0 clear), a subspace
/// tag other than 0, or inconsistent fields — never panics on arbitrary
/// input.
pub fn decode_model(bytes: &[u8]) -> Result<QuantumAutoencoder> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated {
            context: "model magic",
        });
    }
    let found: [u8; 4] = bytes[..4].try_into().expect("length checked");
    if found != MODEL_MAGIC {
        return Err(CodecError::BadMagic {
            expected: MODEL_MAGIC,
            found,
        });
    }
    // Verify the trailing CRC before trusting any field past the magic.
    if bytes.len() < 24 {
        return Err(CodecError::Truncated {
            context: "model header",
        });
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }

    let mut r = ByteReader::new(body);
    r.get_bytes(4, "model magic")?; // already validated
    let version = r.get_u16("model version")?;
    if version == 0 || version > MODEL_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: MODEL_VERSION,
        });
    }
    let flags = r.get_u16("model flags")?;
    let known = MODEL_FLAG_REAL | MODEL_FLAG_DERIVED_R;
    if flags & !known != 0 {
        return Err(CodecError::Invalid(format!(
            "unknown model flags: {:#06x}",
            flags & !known
        )));
    }
    if flags & MODEL_FLAG_REAL == 0 {
        return Err(CodecError::Invalid(
            "model has complex gates (flag bit 0 clear); the codec runs real meshes only".into(),
        ));
    }
    let derived_r = flags & MODEL_FLAG_DERIVED_R != 0;
    let dim = r.get_u32("state dimension")?;
    let compressed_dim = r.get_u32("compressed dimension")?;
    if !(2..=MAX_REASONABLE).contains(&dim) {
        return Err(CodecError::Invalid(format!(
            "state dimension {dim} out of range"
        )));
    }
    if compressed_dim == 0 || compressed_dim > dim {
        return Err(CodecError::Invalid(format!(
            "compressed dimension {compressed_dim} out of range for N={dim}"
        )));
    }
    let subspace = r.get_u8("subspace tag")?;
    if subspace != SUBSPACE_KEEP_LAST {
        return Err(CodecError::Invalid(format!(
            "subspace tag {subspace}: the codec keeps the last d modes only (tag {SUBSPACE_KEEP_LAST})"
        )));
    }
    r.get_bytes(3, "reserved header bytes")?;

    let mesh_c = read_mesh(&mut r, dim as usize)?;
    let compression = CompressionNetwork::new(
        mesh_c,
        compressed_dim as usize,
        // Targets only matter during training; persisted models carry
        // inference state, so the standard target is restored.
        CompressionTargetKind::TrashPenalty,
    )?;
    let reconstruction = if derived_r {
        let layers_r = r.get_u32("derived U_R layer count")?;
        // Unlike a stored mesh (whose size is bounded by the bytes
        // actually present), a derived U_R is materialised from two
        // header integers — bound their *product* so a small crafted
        // file cannot demand a terabyte-scale allocation.
        if layers_r == 0 || u64::from(layers_r) * u64::from(dim) > u64::from(MAX_REASONABLE) {
            return Err(CodecError::Invalid(format!(
                "derived U_R layer count {layers_r} out of range for N={dim}"
            )));
        }
        ReconstructionNetwork::from_reversed_compression(&compression, layers_r as usize)
    } else {
        ReconstructionNetwork::new(read_mesh(&mut r, dim as usize)?)
    };
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after model payload",
            r.remaining()
        )));
    }
    Ok(QuantumAutoencoder::new(compression, reconstruction))
}

/// Write a model file.
///
/// # Errors
/// Propagates IO failures.
pub fn save_model(path: &Path, model: &QuantumAutoencoder) -> Result<()> {
    std::fs::write(path, encode_model(model))?;
    Ok(())
}

/// Read a model file.
///
/// # Errors
/// IO failures plus everything [`decode_model`] reports.
pub fn load_model(path: &Path) -> Result<QuantumAutoencoder> {
    let bytes = std::fs::read(path)?;
    decode_model(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Real model with a derived `U_R` (exercises both size flags plus
    /// descending-order layer persistence).
    fn sample_model(seed: u64) -> QuantumAutoencoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh_c = Mesh::random(8, 3, &mut rng);
        let compression =
            CompressionNetwork::new(mesh_c, 3, CompressionTargetKind::TrashPenalty).unwrap();
        let reconstruction = ReconstructionNetwork::from_reversed_compression(&compression, 5);
        QuantumAutoencoder::new(compression, reconstruction)
    }

    /// Independently-random `U_R` (not derivable): flag bit 1 clear,
    /// both meshes stored in full.
    fn sample_model_full(seed: u64) -> QuantumAutoencoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh_c = Mesh::random(8, 3, &mut rng);
        let compression =
            CompressionNetwork::new(mesh_c, 3, CompressionTargetKind::TrashPenalty).unwrap();
        let reconstruction = ReconstructionNetwork::new(Mesh::random(8, 4, &mut rng));
        QuantumAutoencoder::new(compression, reconstruction)
    }

    fn assert_bit_exact_roundtrip(model: &QuantumAutoencoder) {
        let bytes = encode_model(model);
        let loaded = decode_model(&bytes).unwrap();
        assert_eq!(loaded.dim(), model.dim());
        assert_eq!(
            loaded.compression.compressed_dim(),
            model.compression.compressed_dim()
        );
        assert_eq!(loaded.compression.mesh(), model.compression.mesh());
        assert_eq!(loaded.reconstruction.mesh(), model.reconstruction.mesh());
        // Bit-exact forward amplitudes on an arbitrary input.
        let x: Vec<f64> = (0..8).map(|i| ((i + 1) as f64 * 0.17).sin()).collect();
        assert_eq!(
            loaded.compression.forward(&x),
            model.compression.forward(&x)
        );
        // Re-encoding reproduces the identical file.
        assert_eq!(encode_model(&loaded), bytes);
    }

    #[test]
    fn save_load_is_bit_exact_with_size_flags() {
        assert_bit_exact_roundtrip(&sample_model(3));
    }

    #[test]
    fn save_load_is_bit_exact_on_the_full_layout() {
        assert_bit_exact_roundtrip(&sample_model_full(3));
    }

    #[test]
    fn size_flags_shrink_the_file() {
        let compact = encode_model(&sample_model(3)).len();
        let full = encode_model(&sample_model_full(3)).len();
        // Same dim; compact drops the whole U_R mesh.
        assert!(
            compact * 2 < full,
            "compact {compact} bytes vs full {full} bytes"
        );
    }

    #[test]
    fn model_id_is_stable_and_discriminates() {
        let a = sample_model(1);
        let b = sample_model(2);
        assert_eq!(model_id(&a), model_id(&a));
        assert_ne!(model_id(&a), model_id(&b));
        let loaded = decode_model(&encode_model(&a)).unwrap();
        assert_eq!(model_id(&loaded), model_id(&a));
    }

    #[test]
    fn built_gate_tables_never_change_model_bytes_or_id() {
        // The derived-U_R flag compares meshes; tables built on either
        // mesh must not flip it, and with it the bytes and the id.
        let model = sample_model(3);
        let (bytes, id) = (encode_model(&model), model_id(&model));
        assert!(reconstruction_is_derived(&model));
        model.compression.mesh().tables();
        model.reconstruction.mesh().tables();
        assert!(reconstruction_is_derived(&model));
        assert_eq!(encode_model(&model), bytes);
        assert_eq!(model_id(&model), id);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = encode_model(&sample_model(4));
        for cut in 0..bytes.len() {
            let err = decode_model(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let bytes = encode_model(&sample_model(5));
        for pos in [4usize, 9, 20, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = decode_model(&bad).expect_err("corruption must fail");
            assert!(
                matches!(err, CodecError::ChecksumMismatch { .. }),
                "flip at {pos}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_future_versions_are_rejected() {
        let mut bytes = encode_model(&sample_model(6));
        let mut wrong = bytes.clone();
        wrong[..4].copy_from_slice(b"JPEG");
        assert!(matches!(
            decode_model(&wrong),
            Err(CodecError::BadMagic { .. })
        ));
        // Bump the version and fix the CRC so only the version check fires.
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            decode_model(&bytes),
            Err(CodecError::UnsupportedVersion {
                found: 0xFFFF,
                supported: MODEL_VERSION
            })
        ));
    }

    #[test]
    fn derived_layer_count_bomb_is_rejected() {
        // In a derived-U_R file the layer count is the u32 right before
        // the CRC. Inflate it so layers × dim far exceeds the allocation
        // bound; the loader must error instead of materialising it.
        let mut bytes = encode_model(&sample_model(8));
        let len = bytes.len();
        bytes[len - 8..len - 4].copy_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        let crc = crc32(&bytes[..len - 4]).to_le_bytes();
        bytes[len - 4..].copy_from_slice(&crc);
        let err = decode_model(&bytes).expect_err("layer bomb must fail");
        assert!(
            matches!(err, CodecError::Invalid(ref m) if m.contains("layer count")),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("qn_codec_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.qnm");
        let model = sample_model(7);
        save_model(&path, &model).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.compression.mesh(), model.compression.mesh());
        assert_eq!(loaded.reconstruction.mesh(), model.reconstruction.mesh());
        std::fs::remove_file(&path).ok();
    }
}
