//! Tiling large images into fixed-size patches.
//!
//! The paper's network operates on N = 16 amplitudes (4×4 images), yet
//! its introduction motivates "large-scale image data". The standard
//! bridge — identical to how JPEG applies an 8×8 transform — is tiling:
//! split a big image into 4×4 patches, push every patch through the
//! trained autoencoder, and stitch the reconstructions back together.
//! [`tile`]/[`untile`] implement that bridge losslessly (edge tiles are
//! zero-padded and cropped back).

use crate::image::GrayImage;

/// A tiling of an image into `tile_size × tile_size` patches, remembering
/// the original dimensions for reassembly.
#[derive(Debug, Clone)]
pub struct Tiling {
    /// Patches in row-major tile order, each `tile_size × tile_size`.
    pub tiles: Vec<GrayImage>,
    /// Patch edge length.
    pub tile_size: usize,
    /// Original image width.
    pub width: usize,
    /// Original image height.
    pub height: usize,
    /// Tiles per row.
    pub tiles_x: usize,
    /// Tiles per column.
    pub tiles_y: usize,
}

/// Split an image into `tile_size × tile_size` patches (zero-padding the
/// right/bottom edges when dimensions are not multiples of the tile size).
///
/// # Panics
/// Panics when `tile_size == 0`.
pub fn tile(img: &GrayImage, tile_size: usize) -> Tiling {
    assert!(tile_size > 0, "tile size must be positive");
    let tiles_x = img.width().div_ceil(tile_size).max(1);
    let tiles_y = img.height().div_ceil(tile_size).max(1);
    let src = img.pixels();
    let mut tiles = Vec::with_capacity(tiles_x * tiles_y);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let mut patch = GrayImage::zeros(tile_size, tile_size);
            let x0 = tx * tile_size;
            let y0 = ty * tile_size;
            // Rows are contiguous in both the image and the patch, so
            // interior tiles copy whole spans; edge tiles copy the
            // clipped prefix and leave the zero padding untouched.
            let span_w = tile_size.min(img.width().saturating_sub(x0));
            let span_h = tile_size.min(img.height().saturating_sub(y0));
            let dst = patch.pixels_mut();
            for py in 0..span_h {
                let s = (y0 + py) * img.width() + x0;
                let d = py * tile_size;
                dst[d..d + span_w].copy_from_slice(&src[s..s + span_w]);
            }
            tiles.push(patch);
        }
    }
    Tiling {
        tiles,
        tile_size,
        width: img.width(),
        height: img.height(),
        tiles_x,
        tiles_y,
    }
}

/// Reassemble an image from (possibly transformed) patches. The patch
/// list must have the layout produced by [`tile`]; padding is cropped.
///
/// # Panics
/// Panics when the patch count or patch dimensions disagree with the
/// tiling metadata.
pub fn untile(tiling: &Tiling, patches: &[GrayImage]) -> GrayImage {
    assert_eq!(
        patches.len(),
        tiling.tiles_x * tiling.tiles_y,
        "patch count mismatch"
    );
    let ts = tiling.tile_size;
    let mut out = GrayImage::zeros(tiling.width, tiling.height);
    let dst = out.pixels_mut();
    for (idx, patch) in patches.iter().enumerate() {
        assert_eq!(
            (patch.width(), patch.height()),
            (ts, ts),
            "patch {idx} has wrong dimensions"
        );
        let x0 = (idx % tiling.tiles_x) * ts;
        let y0 = (idx / tiling.tiles_x) * ts;
        // Mirror of `tile`: whole-row spans for interior tiles, clipped
        // spans at the right/bottom edges (padding is cropped away).
        let span_w = ts.min(tiling.width.saturating_sub(x0));
        let span_h = ts.min(tiling.height.saturating_sub(y0));
        let src = patch.pixels();
        for py in 0..span_h {
            let d = (y0 + py) * tiling.width + x0;
            let s = py * ts;
            dst[d..d + span_w].copy_from_slice(&src[s..s + span_w]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(w: usize, h: usize) -> GrayImage {
        let mut img = GrayImage::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, ((x + y) as f64) / ((w + h) as f64));
            }
        }
        img
    }

    #[test]
    fn tile_untile_is_identity_on_aligned_sizes() {
        let img = gradient_image(8, 8);
        let t = tile(&img, 4);
        assert_eq!(t.tiles.len(), 4);
        assert_eq!((t.tiles_x, t.tiles_y), (2, 2));
        let back = untile(&t, &t.tiles);
        assert_eq!(back, img);
    }

    #[test]
    fn tile_untile_handles_unaligned_sizes() {
        let img = gradient_image(10, 7);
        let t = tile(&img, 4);
        assert_eq!((t.tiles_x, t.tiles_y), (3, 2));
        let back = untile(&t, &t.tiles);
        assert_eq!(back, img); // padding cropped away
    }

    #[test]
    fn tiles_cover_disjoint_regions() {
        let mut img = GrayImage::zeros(8, 4);
        img.set(5, 1, 1.0); // lives in tile (1, 0)
        let t = tile(&img, 4);
        assert_eq!(t.tiles[0].pixels().iter().sum::<f64>(), 0.0);
        assert_eq!(t.tiles[1].get(1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "patch count mismatch")]
    fn untile_validates_count() {
        let img = gradient_image(8, 8);
        let t = tile(&img, 4);
        untile(&t, &t.tiles[..2]);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_size_rejected() {
        tile(&gradient_image(4, 4), 0);
    }
}
