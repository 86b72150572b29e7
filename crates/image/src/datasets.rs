//! Deterministic image datasets.
//!
//! The paper trains on "25 binary images … 4×4-dimensional" but never
//! publishes them. Compressing 16-dimensional amplitude vectors into a
//! 4-dimensional subspace *losslessly* is only possible when the sample
//! set spans (close to) 4 dimensions, so the canonical replacement set is
//! built around a rank-4 core:
//!
//! - the 15 non-empty unions of the four disjoint 2×2 quadrant blocks
//!   (disjoint supports make unions *linear* sums, so these span exactly
//!   a 4-dimensional pixel subspace), plus
//! - 10 structured glyphs (stripes, checker, X, …) that add controlled
//!   off-subspace energy — which is why the trained loss is small but not
//!   zero, matching the paper's observed `min L_C = 0.017`.
//!
//! Seeded generators for other sizes/ranks feed the evaluation datasets
//! (`qn-eval`'s registry).

use crate::image::GrayImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four disjoint 2×2 quadrant blocks of a 4×4 image.
fn quadrants() -> [GrayImage; 4] {
    [
        GrayImage::from_glyph(&["##..", "##..", "....", "...."]).expect("static glyph"),
        GrayImage::from_glyph(&["..##", "..##", "....", "...."]).expect("static glyph"),
        GrayImage::from_glyph(&["....", "....", "##..", "##.."]).expect("static glyph"),
        GrayImage::from_glyph(&["....", "....", "..##", "..##"]).expect("static glyph"),
    ]
}

/// Union (pixel-wise max) of binary images.
fn union(imgs: &[&GrayImage]) -> GrayImage {
    let mut out = imgs[0].clone();
    for img in &imgs[1..] {
        for (o, &p) in out.pixels_mut().iter_mut().zip(img.pixels()) {
            *o = o.max(p);
        }
    }
    out
}

/// The 15 non-empty quadrant unions — an exactly rank-4 binary family.
pub fn quadrant_unions() -> Vec<GrayImage> {
    let q = quadrants();
    let mut out = Vec::with_capacity(15);
    for mask in 1u32..16 {
        let parts: Vec<&GrayImage> = (0..4)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &q[i])
            .collect();
        out.push(union(&parts));
    }
    out
}

/// Ten structured 4×4 glyphs with energy outside the quadrant subspace.
pub fn structured_glyphs() -> Vec<GrayImage> {
    [
        ["#...", "#...", "#...", "#..."], // left bar
        ["...#", "...#", "...#", "...#"], // right bar
        ["####", "....", "....", "...."], // top row
        ["....", "....", "....", "####"], // bottom row
        ["#..#", ".##.", ".##.", "#..#"], // X
        ["####", "#..#", "#..#", "####"], // border
        ["#.#.", ".#.#", "#.#.", ".#.#"], // checker
        [".#.#", "#.#.", ".#.#", "#.#."], // inverse checker
        ["####", "####", "....", "####"], // missing third row
        [".##.", ".##.", ".##.", ".##."], // central column pair
    ]
    .iter()
    .map(|rows| GrayImage::from_glyph(rows).expect("static glyph"))
    .collect()
}

/// The canonical paper-regime dataset: `m` binary 4×4 images from the
/// quadrant-union family (so `m = 25` reproduces the paper's sample count
/// exactly). The first 15 samples are the distinct unions; further
/// samples re-draw from the family with a fixed seed (only 15 distinct
/// members exist). The whole set spans **exactly** a 4-dimensional pixel
/// subspace, which is the precondition for the paper's observed near-zero
/// losses and ≥97 % accuracy with `d = 4`.
pub fn paper_binary_16(m: usize) -> Vec<GrayImage> {
    let pool = quadrant_unions();
    if m <= pool.len() {
        return pool[..m].to_vec();
    }
    let mut out = pool.clone();
    let mut rng = StdRng::seed_from_u64(0x5153_4e31); // fixed: "QSN1"
    while out.len() < m {
        let idx = rng.random_range(0..pool.len());
        out.push(pool[idx].clone());
    }
    out
}

/// The *hard* variant: the 15 quadrant unions plus the 10 structured
/// glyphs, whose off-subspace energy (~14 %) makes lossless `d = 4`
/// compression impossible. `fig5_table1` and the `paper-hard` eval
/// dataset use it to show how accuracy degrades with dataset
/// incompressibility; for `m > 25` the list cycles.
pub fn paper_binary_16_hard(m: usize) -> Vec<GrayImage> {
    let mut pool = quadrant_unions();
    pool.extend(structured_glyphs());
    (0..m).map(|i| pool[i % pool.len()].clone()).collect()
}

/// Binary images of exactly rank ≤ `rank`: random unions of `rank`
/// disjoint base patterns that tile the image. Used by experiments that
/// need *perfectly* compressible data.
pub fn low_rank_binary(
    m: usize,
    width: usize,
    height: usize,
    rank: usize,
    seed: u64,
) -> Vec<GrayImage> {
    assert!(rank >= 1, "rank must be ≥ 1");
    let n = width * height;
    assert!(rank <= n, "rank cannot exceed pixel count");
    let mut rng = StdRng::seed_from_u64(seed);
    // Partition pixel indices into `rank` contiguous chunks (disjoint
    // supports ⇒ unions are linear sums ⇒ rank ≤ `rank`). The on/off mask
    // is a Vec<bool> so any rank — including ≥ 64 — is supported.
    let chunk = n.div_ceil(rank);
    (0..m)
        .map(|_| {
            // Avoid the empty image: redraw until at least one block is on.
            let mut mask = vec![false; rank];
            while !mask.iter().any(|&b| b) {
                for b in &mut mask {
                    *b = rng.random::<bool>();
                }
            }
            let pixels = (0..n)
                .map(|p| {
                    let block = (p / chunk).min(rank - 1);
                    if mask[block] {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            GrayImage::from_pixels(width, height, pixels).expect("length by construction")
        })
        .collect()
}

/// Grayscale gradient/blob images (non-binary), for the grayscale
/// generalisation experiments.
pub fn grayscale_blobs(m: usize, width: usize, height: usize, seed: u64) -> Vec<GrayImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let cx = rng.random::<f64>() * width as f64;
            let cy = rng.random::<f64>() * height as f64;
            let sigma = 0.5 + rng.random::<f64>() * (width.max(height) as f64 / 2.0);
            let pixels = (0..width * height)
                .map(|p| {
                    let x = (p % width) as f64;
                    let y = (p / width) as f64;
                    let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                    (-d2 / (2.0 * sigma * sigma)).exp()
                })
                .collect();
            GrayImage::from_pixels(width, height, pixels).expect("length by construction")
        })
        .collect()
}

/// Stack a dataset into a data matrix: one image per row, `M × N`.
pub fn to_matrix(images: &[GrayImage]) -> qn_linalg::Matrix {
    let rows: Vec<Vec<f64>> = images.iter().map(|i| i.to_vector()).collect();
    qn_linalg::Matrix::from_rows(&rows).expect("uniform image sizes")
}

/// Effective rank of the dataset (singular values above `tol · σ_max` of
/// the `M × N` data matrix). Reported by the experiment harness to make
/// the compressibility of the substitute dataset explicit.
pub fn effective_rank(images: &[GrayImage], tol: f64) -> usize {
    let m = to_matrix(images);
    qn_linalg::svd::svd(&m).expect("non-empty data").rank(tol)
}

/// Energy fraction captured by the top `k` singular directions of the
/// dataset matrix — the upper bound on lossless compressibility into a
/// `k`-dimensional subspace.
pub fn rank_energy(images: &[GrayImage], k: usize) -> f64 {
    let m = to_matrix(images);
    let svd = qn_linalg::svd::svd(&m).expect("non-empty data");
    let total: f64 = svd.singular_values.iter().map(|s| s * s).sum();
    if total == 0.0 {
        return 1.0;
    }
    let top: f64 = svd.singular_values.iter().take(k).map(|s| s * s).sum();
    top / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_unions_are_15_distinct_binary_rank4() {
        let q = quadrant_unions();
        assert_eq!(q.len(), 15);
        for img in &q {
            assert_eq!((img.width(), img.height()), (4, 4));
            assert!(img.is_binary(0.0));
        }
        // Distinctness.
        for i in 0..q.len() {
            for j in (i + 1)..q.len() {
                assert_ne!(q[i], q[j], "duplicates at {i},{j}");
            }
        }
        assert_eq!(effective_rank(&q, 1e-10), 4);
    }

    #[test]
    fn paper_set_matches_paper_regime() {
        let data = paper_binary_16(25);
        assert_eq!(data.len(), 25);
        for img in &data {
            assert_eq!(img.len(), 16); // N = 16 → 4 qubits
            assert!(img.is_binary(0.0));
            assert!(img.density() > 0.0, "no empty images");
        }
        // Exactly rank 4: lossless d = 4 compression is possible.
        assert_eq!(effective_rank(&data, 1e-10), 4);
        assert!((rank_energy(&data, 4) - 1.0).abs() < 1e-12);
        // The first 15 are the distinct unions.
        assert_eq!(&data[..15], &quadrant_unions()[..]);
    }

    #[test]
    fn hard_set_has_off_subspace_energy() {
        let data = paper_binary_16_hard(25);
        assert_eq!(data.len(), 25);
        let energy4 = rank_energy(&data, 4);
        assert!(energy4 > 0.8 && energy4 < 0.99, "rank-4 energy {energy4}");
        // Cycles beyond 25.
        let d30 = paper_binary_16_hard(30);
        assert_eq!(d30[25], d30[0]);
    }

    #[test]
    fn paper_set_is_deterministic() {
        assert_eq!(paper_binary_16(25), paper_binary_16(25));
        assert_eq!(paper_binary_16_hard(25), paper_binary_16_hard(25));
        // Re-draws come from the 15-member family.
        let d25 = paper_binary_16(25);
        let pool = quadrant_unions();
        for img in &d25[15..] {
            assert!(pool.contains(img));
        }
    }

    #[test]
    fn structured_glyphs_shape() {
        let g = structured_glyphs();
        assert_eq!(g.len(), 10);
        assert!(g.iter().all(|i| i.len() == 16 && i.is_binary(0.0)));
    }

    #[test]
    fn low_rank_binary_has_promised_rank() {
        let data = low_rank_binary(20, 4, 4, 4, 11);
        assert!(effective_rank(&data, 1e-10) <= 4);
        assert!(data.iter().all(|i| i.is_binary(0.0)));
        assert!(data.iter().all(|i| i.density() > 0.0));
        // Larger images too.
        let data8 = low_rank_binary(30, 8, 8, 6, 12);
        assert!(effective_rank(&data8, 1e-10) <= 6);
    }

    #[test]
    fn grayscale_blobs_are_smooth_and_bounded() {
        let data = grayscale_blobs(4, 8, 8, 7);
        for img in &data {
            assert!(img.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
            assert!(!img.is_binary(1e-3));
        }
    }

    #[test]
    fn dataset_matrix_shape() {
        let m = to_matrix(&paper_binary_16(25));
        assert_eq!(m.shape(), (25, 16));
    }
}
