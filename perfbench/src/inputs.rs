//! Seeded 8-bit test images. One `--seed` drives every image, model and
//! request order; the program under test only ever sees what is built
//! here.

use qn_image::{datasets, GrayImage};

/// Blobs summed per image.
const BLOBS: usize = 4;
/// Pixel floor: keeps every 4×4 tile non-empty, so every tile costs mesh
/// work (a lone blob quantized to 8 bits leaves most tiles all zero).
const FLOOR: f64 = 0.1;
/// Range the normalised blob sum spans above the floor.
const SPAN: f64 = 0.75;
/// Half-width of the uniform noise (±5 levels of 255): the texture that
/// keeps the rate near that of a photograph.
const NOISE: f64 = 0.02;

/// SplitMix64: the benchmark's own generator, so inputs do not depend on
/// the workspace's `rand` stand-in.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of item `index` in stream `stream` under run seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut s = seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// One image: a sum of `grayscale_blobs` plus mild uniform noise on a
/// floor, quantized to k/255 exactly as a PGM read yields.
pub fn image(seed: u64, width: usize, height: usize) -> GrayImage {
    let mut sum = vec![0.0f64; width * height];
    for blob in datasets::grayscale_blobs(BLOBS, width, height, seed) {
        for (s, &p) in sum.iter_mut().zip(blob.pixels()) {
            *s += p;
        }
    }
    let peak = sum.iter().fold(f64::MIN_POSITIVE, |m, &s| m.max(s));
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let pixels = sum
        .iter()
        .map(|&s| {
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let v = FLOOR + SPAN * s / peak + (2.0 * u - 1.0) * NOISE;
            let k = (v.clamp(0.0, 1.0) * 255.0).round() as u8;
            f64::from(k) / 255.0
        })
        .collect();
    GrayImage::from_pixels(width, height, pixels).expect("length by construction")
}

/// `n` distinct images of one size from stream `stream`.
pub fn images(seed: u64, stream: u64, n: usize, width: usize, height: usize) -> Vec<GrayImage> {
    (0..n)
        .map(|i| image(derive(seed, stream, i as u64), width, height))
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = derive(seed, stream, u64::MAX);
    for i in (1..n).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Digest of a whole input set, printed with every run.
pub fn digest(images: &[GrayImage]) -> u64 {
    let per_image: Vec<u8> = images
        .iter()
        .flat_map(|img| crate::oracle::pixel_digest(img).to_le_bytes())
        .collect();
    crate::oracle::digest(&per_image)
}

/// Tiles of `tile`×`tile` in an image.
pub fn tile_count(img: &GrayImage, tile: usize) -> u64 {
    (img.width().div_ceil(tile) * img.height().div_ceil(tile)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_seed_reproduces_the_input_digest() {
        let a = images(7, 1, 3, 64, 48);
        let b = images(7, 1, 3, 64, 48);
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&images(8, 1, 3, 64, 48)));
        assert_ne!(digest(&a), digest(&images(7, 2, 3, 64, 48)));
        assert_eq!(permutation(7, 1, 50), permutation(7, 1, 50));
        let mut p = permutation(7, 1, 50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn images_are_8_bit_with_no_empty_tiles() {
        for img in images(3, 9, 4, 32, 32) {
            for &p in img.pixels() {
                assert_eq!((p * 255.0).round() / 255.0, p, "pixel {p} is not k/255");
                assert!(p > 0.0, "a zero pixel would allow an empty tile");
            }
        }
    }
}
