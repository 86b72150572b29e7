//! The quantum sweep runner: one rate–distortion point per (dataset,
//! operating point), measured through the real `.qnc` bitstream.
//!
//! Rate accounting: each dataset gets **one** shared spectral model
//! (fitted on the pooled tiles of every image — see
//! `Codec::spectral_for_images`), containers are encoded *without* the
//! inline model, and the model's serialized size is reported separately
//! as `side_bytes`. `bpp` is therefore the honest per-image bitstream
//! rate (headers, tile occupancy bits, norms and Rice-coded latents
//! included) with the model amortized across the dataset — the same
//! accounting the classical baselines use for their basis/dictionary.
//!
//! Distortion: PSNR is computed from the *aggregate* MSE over every
//! pixel of the dataset (so one lossless image cannot produce an
//! infinite mean), SSIM as the mean of per-image global SSIM.
//! Reconstructions are clamped to `[0, 1]` first, exactly like the
//! `qnc compress --verify` path.

use crate::grid::{Grid, OperatingPoint};
use crate::registry::Dataset;
use qn_codec::{model, Codec, CodecOptions, EntropyCoder};
use qn_image::metrics;
use std::time::Instant;

/// Wall-clock throughput of the mesh-bearing halves of a sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Encoded tiles per second across the whole dataset.
    pub encode_tiles_per_s: f64,
    /// Decoded tiles per second across the whole dataset.
    pub decode_tiles_per_s: f64,
}

/// One rate–distortion measurement: a codec at an operating point on a
/// dataset.
#[derive(Debug, Clone)]
pub struct RdPoint {
    /// Which codec produced the point: `quantum`, `svd`, `pca`, `csc`.
    pub codec: String,
    /// Tile edge length (0 for whole-image codecs: SVD, CSC).
    pub tile_size: usize,
    /// Latent dimension / rank / sparsity — the compression knob.
    pub latent_dim: usize,
    /// Quantizer bit depth.
    pub bits: u8,
    /// Entropy coder of the bitstream (quantum points only; classical
    /// baselines carry `None`).
    pub entropy: Option<EntropyCoder>,
    /// Bits per pixel of the per-image payload (side info excluded).
    pub bpp: f64,
    /// Aggregate-MSE PSNR in dB (`+∞` for a lossless sweep point).
    pub psnr_db: f64,
    /// Mean per-image global SSIM.
    pub ssim: f64,
    /// Amortized side information: serialized model / basis /
    /// dictionary bytes shared by the whole dataset.
    pub side_bytes: usize,
    /// Mesh-pass throughput (quantum points only, and only when timing
    /// was requested — excluded from stable reports).
    pub throughput: Option<Throughput>,
}

/// Accumulates aggregate distortion over a dataset.
#[derive(Debug, Default)]
pub(crate) struct DistortionAccum {
    sq_err: f64,
    pixels: usize,
    ssim_sum: f64,
    images: usize,
}

impl DistortionAccum {
    /// Fold in one (original, clamped reconstruction) pair.
    pub(crate) fn add(&mut self, original: &qn_image::GrayImage, recon: &qn_image::GrayImage) {
        self.sq_err += metrics::mse(original, recon) * original.len() as f64;
        self.pixels += original.len();
        self.ssim_sum += metrics::ssim(original, recon);
        self.images += 1;
    }

    /// `(psnr_db, mean ssim)`; PSNR is `+∞` when every pixel matched.
    pub(crate) fn finish(&self) -> (f64, f64) {
        let mse = self.sq_err / self.pixels.max(1) as f64;
        let psnr = if mse == 0.0 {
            f64::INFINITY
        } else {
            -10.0 * mse.log10()
        };
        (psnr, self.ssim_sum / self.images.max(1) as f64)
    }
}

/// Measure the quantum codec at one operating point on one dataset,
/// through the default (`simd`) backend — every backend yields the same
/// bytes and pixels, so the point does not depend on it.
///
/// # Errors
/// Codec failures (invalid operating point for the dataset geometry,
/// spectral fit failures) as strings ready for CLI reporting.
pub fn quantum_point(
    dataset: &Dataset,
    point: OperatingPoint,
    entropy: EntropyCoder,
    timings: bool,
) -> Result<RdPoint, String> {
    let codec = Codec::spectral_for_images(&dataset.images, point.tile_size, point.latent_dim)
        .map_err(|e| format!("{}: spectral fit: {e}", dataset.name))?;
    quantum_point_with(&codec, dataset, point, entropy, timings)
}

/// [`quantum_point`] against an already-fitted codec — the sweep fits
/// one spectral model per geometry point and reuses it across the
/// entropy axis (the model depends only on tile size and latent
/// dimension, never on the coder).
fn quantum_point_with(
    codec: &Codec,
    dataset: &Dataset,
    point: OperatingPoint,
    entropy: EntropyCoder,
    timings: bool,
) -> Result<RdPoint, String> {
    let opts = CodecOptions {
        tile_size: point.tile_size,
        bits: point.bits,
        per_tile_scale: false,
        inline_model: false,
        entropy,
        ..CodecOptions::default()
    };
    let mut container_bytes = 0usize;
    let mut tiles = 0usize;
    let mut accum = DistortionAccum::default();
    let mut encode_seconds = 0.0f64;
    let mut decode_seconds = 0.0f64;
    for img in &dataset.images {
        let t0 = Instant::now();
        let (bytes, stats) = codec
            .encode_image_with_stats(img, &opts)
            .map_err(|e| format!("{}: encode: {e}", dataset.name))?;
        encode_seconds += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let back = codec
            .decode_bytes(&bytes)
            .map_err(|e| format!("{}: decode: {e}", dataset.name))?;
        decode_seconds += t1.elapsed().as_secs_f64();
        container_bytes += bytes.len();
        tiles += stats.tiles;
        accum.add(img, &back.clamped());
    }
    let (psnr_db, ssim) = accum.finish();
    Ok(RdPoint {
        codec: "quantum".into(),
        tile_size: point.tile_size,
        latent_dim: point.latent_dim,
        bits: point.bits,
        entropy: Some(entropy),
        bpp: container_bytes as f64 * 8.0 / dataset.pixels() as f64,
        psnr_db,
        ssim,
        side_bytes: model::encode_model(codec.model()).len(),
        throughput: timings.then(|| Throughput {
            encode_tiles_per_s: tiles as f64 / encode_seconds.max(1e-12),
            decode_tiles_per_s: tiles as f64 / decode_seconds.max(1e-12),
        }),
    })
}

/// Sweep the quantum codec across a whole grid on one dataset: every
/// operating point × every entropy coder on the grid's axis, geometry
/// outer so per-coder rate deltas sit adjacent in the report. The
/// spectral fit — the expensive eigensolve — runs once per geometry
/// point and is shared across the coder axis.
pub fn quantum_sweep(
    dataset: &Dataset,
    grid: &Grid,
    timings: bool,
) -> Result<Vec<RdPoint>, String> {
    let mut out = Vec::with_capacity(grid.points.len() * grid.coders.len());
    for &p in &grid.points {
        let codec = Codec::spectral_for_images(&dataset.images, p.tile_size, p.latent_dim)
            .map_err(|e| format!("{}: spectral fit: {e}", dataset.name))?;
        for &coder in &grid.coders {
            out.push(quantum_point_with(&codec, dataset, p, coder, timings)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn blobs() -> Dataset {
        registry::builtin("blobs", 0).unwrap()
    }

    #[test]
    fn quantum_points_are_deterministic_and_sane() {
        let ds = blobs();
        let p = OperatingPoint {
            tile_size: 4,
            latent_dim: 8,
            bits: 8,
        };
        let a = quantum_point(&ds, p, EntropyCoder::Rice, false).unwrap();
        let b = quantum_point(&ds, p, EntropyCoder::Rice, false).unwrap();
        assert_eq!(a.bpp.to_bits(), b.bpp.to_bits());
        assert_eq!(a.psnr_db.to_bits(), b.psnr_db.to_bits());
        assert_eq!(a.ssim.to_bits(), b.ssim.to_bits());
        assert!(a.bpp > 0.0 && a.bpp < 8.0, "bpp {}", a.bpp);
        assert!(a.psnr_db > 20.0, "psnr {}", a.psnr_db);
        assert!(a.ssim > 0.5 && a.ssim <= 1.0, "ssim {}", a.ssim);
        assert!(a.side_bytes > 0);
        assert!(a.throughput.is_none(), "no timings unless requested");
    }

    #[test]
    fn more_latents_and_bits_do_not_hurt_quality() {
        let ds = blobs();
        let lo = quantum_point(
            &ds,
            OperatingPoint {
                tile_size: 4,
                latent_dim: 2,
                bits: 4,
            },
            EntropyCoder::Rice,
            false,
        )
        .unwrap();
        let hi = quantum_point(
            &ds,
            OperatingPoint {
                tile_size: 4,
                latent_dim: 8,
                bits: 8,
            },
            EntropyCoder::Rice,
            false,
        )
        .unwrap();
        assert!(hi.psnr_db > lo.psnr_db, "{} vs {}", hi.psnr_db, lo.psnr_db);
        assert!(hi.bpp > lo.bpp, "rate must rise with d and bits");
    }

    #[test]
    fn timings_are_present_only_on_request() {
        let ds = registry::builtin("glyphs", 0).unwrap();
        let p = OperatingPoint {
            tile_size: 4,
            latent_dim: 4,
            bits: 8,
        };
        let timed = quantum_point(&ds, p, EntropyCoder::Rice, true).unwrap();
        let t = timed.throughput.expect("requested timings");
        assert!(t.encode_tiles_per_s > 0.0 && t.decode_tiles_per_s > 0.0);
    }

    #[test]
    fn v2_coders_lower_the_rate_at_identical_quality() {
        // Entropy coding is lossless re the quantized levels: PSNR and
        // SSIM are bit-identical across coders. At the golden operating
        // point rice-pos must strictly cut the rate on blobs (the
        // gated dataset; seed measurement ≈ −18 %), and the adaptive
        // range coder must win on lowrank, whose larger tile panels
        // amortize its stream setup (≈ −13 %). The range coder is not
        // asserted on blobs-sized containers — its 5-byte flush can
        // outweigh the context gains on very small tile panels, which
        // is exactly what the per-coder BENCH_quality axis documents.
        let p = crate::GOLDEN.point;
        for (ds_name, coder) in [
            ("blobs", EntropyCoder::RicePos),
            ("lowrank", EntropyCoder::RicePos),
            ("lowrank", EntropyCoder::Range),
        ] {
            let ds = registry::builtin(ds_name, 0).unwrap();
            let rice = quantum_point(&ds, p, EntropyCoder::Rice, false).unwrap();
            let v2 = quantum_point(&ds, p, coder, false).unwrap();
            assert_eq!(
                v2.psnr_db.to_bits(),
                rice.psnr_db.to_bits(),
                "{ds_name}/{coder}"
            );
            assert_eq!(v2.ssim.to_bits(), rice.ssim.to_bits(), "{ds_name}/{coder}");
            assert!(
                v2.bpp < rice.bpp,
                "{ds_name}/{coder}: {} bpp did not beat rice's {} bpp",
                v2.bpp,
                rice.bpp
            );
        }
        // The headline gate: ≥ 5 % payload reduction on the golden
        // point (blobs, tile 4, d 8, 8 bits) from per-position coding.
        let ds = blobs();
        let rice = quantum_point(&ds, p, EntropyCoder::Rice, false).unwrap();
        let pos = quantum_point(&ds, p, EntropyCoder::RicePos, false).unwrap();
        assert!(
            pos.bpp <= rice.bpp * 0.95,
            "rice-pos saved only {:.2} % at the golden point",
            (1.0 - pos.bpp / rice.bpp) * 100.0
        );
    }
}
