//! Amplitude encoding and decoding (paper Eq. 1 and Eq. 2).
//!
//! Eq. 1 normalises a classical vector into probability amplitudes:
//! `A_i^j = x_i^j / √(Σ_j (x_i^j)²)`. The norm `√(Σ (x_i^j)²)` must be
//! retained ("we need to retain the sum of squares in the input data to
//! decompile states to data") so Eq. 2 can rescale measured amplitudes
//! back: `x̂_i^j = √((B_i^j)² · Σ_j (x_i^j)²) = |B_i^j| · ‖x_i‖`.

use crate::error::CoreError;
use crate::Result;
use qn_image::GrayImage;
use qn_linalg::vector;

/// A classical sample encoded as quantum-state amplitudes plus the norm
/// needed for decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedSample {
    /// Unit-norm amplitude vector `A_i` (length padded to the state
    /// dimension).
    pub amplitudes: Vec<f64>,
    /// The retained input norm `√(Σ_j (x_i^j)²)`.
    pub norm: f64,
    /// Original (unpadded) data length.
    pub data_len: usize,
}

/// Encode a classical vector into `dim`-dimensional state amplitudes
/// (Eq. 1). Vectors shorter than `dim` are zero-padded (the paper's data
/// is exactly `N`-dimensional; padding supports non-power-of-two images
/// on a qubit register).
///
/// # Errors
/// - [`CoreError::InvalidData`] for an all-zero vector (no quantum state
///   can encode it) or data longer than `dim`.
pub fn encode(x: &[f64], dim: usize) -> Result<EncodedSample> {
    if x.len() > dim {
        return Err(CoreError::InvalidData(format!(
            "data length {} exceeds state dimension {}",
            x.len(),
            dim
        )));
    }
    let norm = vector::norm2(x);
    if norm <= 0.0 {
        return Err(CoreError::InvalidData(
            "cannot amplitude-encode the zero vector".to_string(),
        ));
    }
    let mut amplitudes = vec![0.0; dim];
    for (a, &v) in amplitudes.iter_mut().zip(x) {
        *a = v / norm;
    }
    Ok(EncodedSample {
        amplitudes,
        norm,
        data_len: x.len(),
    })
}

/// Decode measured amplitudes back to classical data (Eq. 2, paper-exact):
/// `x̂_j = |B_j| · norm`. The paper's square-then-root form discards sign
/// information, which is harmless for (non-negative) image data.
pub fn decode(amplitudes: &[f64], norm: f64, data_len: usize) -> Vec<f64> {
    amplitudes
        .iter()
        .take(data_len)
        .map(|&b| (b * b).sqrt() * norm)
        .collect()
}

/// Encode a batch of images (row-major flattening).
///
/// # Errors
/// Propagates the first per-sample encoding error.
pub fn encode_images(images: &[GrayImage], dim: usize) -> Result<Vec<EncodedSample>> {
    images.iter().map(|img| encode(img.pixels(), dim)).collect()
}

/// Decode amplitudes into an image of the given dimensions.
///
/// # Errors
/// Returns [`CoreError::InvalidData`] when `width·height` exceeds the
/// decoded length.
pub fn decode_image(
    amplitudes: &[f64],
    norm: f64,
    width: usize,
    height: usize,
) -> Result<GrayImage> {
    let pixels = decode(amplitudes, norm, width * height);
    GrayImage::from_pixels(width, height, pixels).map_err(|e| CoreError::InvalidData(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-14;

    #[test]
    fn encode_produces_unit_amplitudes() {
        let e = encode(&[3.0, 4.0], 2).unwrap();
        assert!((e.norm - 5.0).abs() < TOL);
        assert!((e.amplitudes[0] - 0.6).abs() < TOL);
        assert!((e.amplitudes[1] - 0.8).abs() < TOL);
        assert!((vector::norm2(&e.amplitudes) - 1.0).abs() < TOL);
    }

    #[test]
    fn paper_example_sixteen_dims_four_qubits() {
        // Paper: 16-dimensional data, four qubits.
        let x = vec![1.0; 16];
        let e = encode(&x, 16).unwrap();
        assert_eq!(e.amplitudes.len(), 16);
        assert_eq!(qn_sim::qubits_for_dim(e.amplitudes.len()), 4);
        for &a in &e.amplitudes {
            assert!((a - 0.25).abs() < TOL);
        }
    }

    #[test]
    fn encode_pads_short_data() {
        let e = encode(&[1.0, 1.0, 1.0], 4).unwrap();
        assert_eq!(e.amplitudes.len(), 4);
        assert_eq!(e.amplitudes[3], 0.0);
        assert_eq!(e.data_len, 3);
        // Unit norm even with padding.
        assert!((vector::norm2(&e.amplitudes) - 1.0).abs() < TOL);
    }

    #[test]
    fn encode_rejects_zero_and_oversize() {
        assert!(matches!(
            encode(&[0.0, 0.0], 2),
            Err(CoreError::InvalidData(_))
        ));
        assert!(encode(&[1.0; 5], 4).is_err());
    }

    #[test]
    fn decode_is_inverse_of_encode_for_nonnegative_data() {
        let x = vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let e = encode(&x, 8).unwrap();
        let back = decode(&e.amplitudes, e.norm, e.data_len);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < TOL);
        }
    }

    #[test]
    fn decode_takes_absolute_value_per_eq2() {
        // Eq. 2 squares then roots, so signs vanish.
        let back = decode(&[-0.6, 0.8], 5.0, 2);
        assert!((back[0] - 3.0).abs() < TOL);
        assert!((back[1] - 4.0).abs() < TOL);
    }

    #[test]
    fn decode_truncates_padding() {
        let e = encode(&[2.0, 0.0, 0.0], 4).unwrap();
        let back = decode(&e.amplitudes, e.norm, e.data_len);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn batch_and_image_encoding() {
        let imgs = qn_image::datasets::paper_binary_16(25);
        let encoded = encode_images(&imgs, 16).unwrap();
        assert_eq!(encoded.len(), 25);
        for e in &encoded {
            assert!((vector::norm2(&e.amplitudes) - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn image_decode_roundtrip() {
        let img = GrayImage::from_glyph(&["#..#", "####", "....", "#..#"]).unwrap();
        let e = encode(img.pixels(), 16).unwrap();
        let back = decode_image(&e.amplitudes, e.norm, 4, 4).unwrap();
        for (a, b) in back.pixels().iter().zip(img.pixels()) {
            assert!((a - b).abs() < TOL);
        }
    }
}
