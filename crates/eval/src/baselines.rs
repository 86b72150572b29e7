//! Classical baselines evaluated with the quantum sweep's metrics and
//! rate accounting, so every `BENCH_quality.json` point is directly
//! comparable:
//!
//! - **SVD** — rank-`k` truncation of the stacked dataset matrix
//!   (Eckart–Young optimal), `k` coefficients per image quantized at
//!   the operating bits, the `k × N` basis amortized as side info.
//!   This is the information-theoretic floor any rank-`k` method —
//!   including the quantum network with `d = k` — is bounded by.
//! - **PCA** — the tile-level twin of the quantum codec (the
//!   classically-simulable content of the paper's qPCA reference):
//!   `d` principal coefficients per `tile²` tile at the operating
//!   bits, components + mean amortized. Matches the quantum operating
//!   point one-for-one.
//! - **CSC** — the paper's sparse-coding comparison: a learned
//!   dictionary (K-SVD updates, OMP coding), `s` quantized
//!   coefficients *plus their atom indices* per image. Run where the
//!   dataset shape admits it (uniform, small signal dimension).
//!
//! All coefficient quantization uses the codec's own uniform
//! [`Quantizer`] over a dataset-level scale (the scale is side info),
//! so "bits" means the same thing on every curve.

use crate::grid::OperatingPoint;
use crate::registry::Dataset;
use crate::sweep::{DistortionAccum, RdPoint};
use qn_classical::csc::{CscConfig, CscPipeline, SparseCoder};
use qn_classical::pca::Pca;
use qn_classical::svd_compress;
use qn_classical::Dictionary;
use qn_codec::Quantizer;
use qn_image::{tiles, GrayImage};

/// Largest signal dimension (pixels per image) the CSC baseline will
/// learn a square dictionary for — K-SVD is cubic-ish in it.
pub const CSC_MAX_SIGNAL_DIM: usize = 64;

/// Dictionary-learning sweeps for the CSC baseline (kept small: the
/// baseline converges in a few sweeps on these datasets and eval must
/// stay CI-sized).
const CSC_ITERATIONS: usize = 12;

/// Quantize a value against a dataset-level scale with the codec's
/// uniform quantizer (identity when the scale is zero).
fn quantize_scaled(q: &Quantizer, scale: f64, v: f64) -> f64 {
    if scale == 0.0 {
        return 0.0;
    }
    q.dequantize(q.quantize(v / scale)) * scale
}

/// Rank-`k` SVD of the stacked dataset matrix, coefficients quantized
/// at `bits`.
///
/// # Errors
/// Mixed-size datasets and out-of-range ranks (`k > min(M, N)`) are
/// named; the report builder skips such points.
pub fn svd_point(dataset: &Dataset, rank: usize, bits: u8) -> Result<RdPoint, String> {
    let (w, h) = dataset
        .uniform_shape()
        .ok_or_else(|| format!("{}: SVD baseline needs uniform image sizes", dataset.name))?;
    let n = w * h;
    let (coeffs, basis) = svd_compress::factor_dataset(&dataset.images, rank)
        .map_err(|e| format!("{}: SVD factor: {e}", dataset.name))?;
    let q = Quantizer::new(bits).map_err(|e| e.to_string())?;
    let scale = coeffs.data().iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let mut accum = DistortionAccum::default();
    for (i, img) in dataset.images.iter().enumerate() {
        let zq: Vec<f64> = coeffs
            .row(i)
            .iter()
            .map(|&c| quantize_scaled(&q, scale, c))
            .collect();
        let pixels = basis
            .matvec_t(&zq)
            .map_err(|e| format!("{}: SVD reconstruct: {e}", dataset.name))?;
        let recon = GrayImage::from_pixels(w, h, pixels).expect("dataset geometry");
        accum.add(img, &recon.clamped());
    }
    let (psnr_db, ssim) = accum.finish();
    Ok(RdPoint {
        codec: "svd".into(),
        tile_size: 0,
        latent_dim: rank,
        bits,
        entropy: None,
        bpp: (rank as f64 * f64::from(bits)) / n as f64,
        psnr_db,
        ssim,
        // f64 basis plus the dataset-level coefficient scale.
        side_bytes: 8 * rank * n + 8,
        throughput: None,
    })
}

/// Tile-level PCA at the quantum codec's exact operating point.
///
/// # Errors
/// PCA fit failures (degenerate tile sets) as strings.
pub fn pca_point(dataset: &Dataset, point: OperatingPoint) -> Result<RdPoint, String> {
    let dim = point.tile_size * point.tile_size;
    let mut tilings = Vec::with_capacity(dataset.images.len());
    let mut samples: Vec<Vec<f64>> = Vec::new();
    for img in &dataset.images {
        let tiling = tiles::tile(img, point.tile_size);
        samples.extend(tiling.tiles.iter().map(GrayImage::to_vector));
        tilings.push(tiling);
    }
    let pca = Pca::fit(&samples, point.latent_dim)
        .map_err(|e| format!("{}: PCA fit: {e}", dataset.name))?;
    // Code every tile once; the quantizer scale is the dataset-level
    // coefficient peak over those same codes.
    let codes: Vec<Vec<f64>> = samples.iter().map(|s| pca.compress(s)).collect();
    let total_tiles = codes.len();
    let q = Quantizer::new(point.bits).map_err(|e| e.to_string())?;
    let scale = codes.iter().flatten().fold(0.0f64, |m, &z| m.max(z.abs()));
    let mut accum = DistortionAccum::default();
    let mut cursor = 0usize;
    for (img, tiling) in dataset.images.iter().zip(&tilings) {
        let patches: Vec<GrayImage> = codes[cursor..cursor + tiling.tiles.len()]
            .iter()
            .map(|z| {
                let zq: Vec<f64> = z.iter().map(|&c| quantize_scaled(&q, scale, c)).collect();
                GrayImage::from_vector(point.tile_size, point.tile_size, &pca.reconstruct(&zq))
                    .expect("tile geometry fixed by construction")
            })
            .collect();
        cursor += tiling.tiles.len();
        accum.add(img, &tiles::untile(tiling, &patches).clamped());
    }
    let (psnr_db, ssim) = accum.finish();
    Ok(RdPoint {
        codec: "pca".into(),
        tile_size: point.tile_size,
        latent_dim: point.latent_dim,
        bits: point.bits,
        entropy: None,
        // Every coded tile pays d × bits — including zero-padded edge
        // tiles on images whose dimensions are not tile multiples, so
        // the rate stays honest for --dir datasets.
        bpp: (total_tiles * point.latent_dim) as f64 * f64::from(point.bits)
            / dataset.pixels() as f64,
        psnr_db,
        ssim,
        // f64 components + mean vector + the coefficient scale.
        side_bytes: 8 * (point.latent_dim * dim + dim) + 8,
        throughput: None,
    })
}

/// The CSC sparse-coding baseline: learn a square dictionary with
/// K-SVD/OMP, then code every image with `sparsity` atoms whose
/// coefficients are quantized at `bits`.
///
/// # Errors
/// Rejects mixed-size datasets and signal dimensions above
/// [`CSC_MAX_SIGNAL_DIM`].
pub fn csc_point(dataset: &Dataset, sparsity: usize, bits: u8) -> Result<RdPoint, String> {
    let (w, h) = dataset
        .uniform_shape()
        .ok_or_else(|| format!("{}: CSC baseline needs uniform image sizes", dataset.name))?;
    let n = w * h;
    if n > CSC_MAX_SIGNAL_DIM {
        return Err(format!(
            "{}: CSC baseline capped at {CSC_MAX_SIGNAL_DIM}-pixel signals, got {n}",
            dataset.name
        ));
    }
    let sparsity = sparsity.min(n);
    let config = CscConfig {
        atoms: n,
        sparsity,
        coder: SparseCoder::Omp,
        iterations: CSC_ITERATIONS,
        seed: 7,
    };
    let mut pipeline = CscPipeline::new(config, &dataset.images);
    pipeline.train();
    let dict: &Dictionary = pipeline.dictionary();
    let samples: Vec<Vec<f64>> = dataset.images.iter().map(GrayImage::to_vector).collect();
    let codes = qn_classical::omp::batch(dict, &samples, sparsity, 1e-12);
    let q = Quantizer::new(bits).map_err(|e| e.to_string())?;
    let scale = codes
        .iter()
        .flat_map(|c| c.coefficients.iter())
        .fold(0.0f64, |m, &c| m.max(c.abs()));
    let mut accum = DistortionAccum::default();
    for (img, code) in dataset.images.iter().zip(&codes) {
        let zq: Vec<f64> = code
            .coefficients
            .iter()
            .map(|&c| quantize_scaled(&q, scale, c))
            .collect();
        let recon = GrayImage::from_pixels(w, h, dict.synthesize(&zq)).expect("dataset geometry");
        accum.add(img, &recon.clamped());
    }
    let (psnr_db, ssim) = accum.finish();
    // Each kept atom costs its quantized coefficient plus its index.
    let index_bits = (usize::BITS - (n - 1).leading_zeros()) as f64;
    Ok(RdPoint {
        codec: "csc".into(),
        tile_size: 0,
        latent_dim: sparsity,
        bits,
        entropy: None,
        bpp: (sparsity as f64 * (f64::from(bits) + index_bits)) / n as f64,
        psnr_db,
        ssim,
        // f64 dictionary plus the coefficient scale.
        side_bytes: 8 * n * n + 8,
        throughput: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn svd_baseline_tracks_rank_and_is_deterministic() {
        let ds = registry::builtin("paper-hard", 0).unwrap();
        let lo = svd_point(&ds, 2, 8).unwrap();
        let hi = svd_point(&ds, 8, 8).unwrap();
        assert!(hi.psnr_db > lo.psnr_db);
        assert!(hi.bpp > lo.bpp);
        let again = svd_point(&ds, 8, 8).unwrap();
        assert_eq!(hi.psnr_db.to_bits(), again.psnr_db.to_bits());
        // Rank beyond min(M, N) is a named error, not a panic.
        assert!(svd_point(&ds, 17, 8).is_err());
    }

    #[test]
    fn svd_at_dataset_rank_is_near_lossless_on_rank4_data() {
        // paper is exactly rank 4: rank-4 SVD at high bits must be far
        // better than any lossy competitor there.
        let ds = registry::builtin("paper", 0).unwrap();
        let p = svd_point(&ds, 4, 12).unwrap();
        assert!(p.psnr_db > 50.0, "psnr {}", p.psnr_db);
        assert!(p.ssim > 0.99);
    }

    #[test]
    fn pca_matches_the_quantum_operating_point_shape() {
        let ds = registry::builtin("blobs", 0).unwrap();
        let point = OperatingPoint {
            tile_size: 4,
            latent_dim: 8,
            bits: 8,
        };
        let p = pca_point(&ds, point).unwrap();
        assert_eq!(p.codec, "pca");
        assert_eq!((p.tile_size, p.latent_dim, p.bits), (4, 8, 8));
        assert!((p.bpp - 4.0).abs() < 1e-12, "8 latents × 8 bits / 16 px");
        assert!(p.psnr_db > 20.0, "psnr {}", p.psnr_db);
        let again = pca_point(&ds, point).unwrap();
        assert_eq!(p.psnr_db.to_bits(), again.psnr_db.to_bits());
    }

    #[test]
    fn pca_rate_counts_padded_edge_tiles() {
        // 10×10 images at tile 4 pad to a 3×3 grid: 9 coded tiles of
        // d·bits over 100 real pixels — not the tile-divisible
        // d·bits/16. Understating this made --dir datasets look
        // cheaper than the quantum codec's honest container bytes.
        use qn_image::datasets;
        let ds = Dataset::new("ragged", datasets::grayscale_blobs(3, 10, 10, 5));
        let p = pca_point(
            &ds,
            OperatingPoint {
                tile_size: 4,
                latent_dim: 4,
                bits: 8,
            },
        )
        .unwrap();
        let expected = (9.0 * 4.0 * 8.0) / 100.0;
        assert!(
            (p.bpp - expected).abs() < 1e-12,
            "bpp {} vs {expected}",
            p.bpp
        );
    }

    #[test]
    fn csc_baseline_runs_on_paper_regime_sets_only() {
        let ds = registry::builtin("paper", 0).unwrap();
        let p = csc_point(&ds, 4, 8).unwrap();
        assert_eq!(p.codec, "csc");
        assert!(p.psnr_db > 10.0, "psnr {}", p.psnr_db);
        assert!(p.bpp > 0.0);
        let again = csc_point(&ds, 4, 8).unwrap();
        assert_eq!(p.psnr_db.to_bits(), again.psnr_db.to_bits());
        // 256-pixel blobs exceed the dictionary cap.
        let blobs = registry::builtin("blobs", 0).unwrap();
        assert!(csc_point(&blobs, 4, 8).is_err());
    }
}
