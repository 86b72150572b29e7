//! End-to-end pipeline: encode → compress → reconstruct → decode.

use crate::compression::CompressionNetwork;
use crate::encoding;
use crate::reconstruction::ReconstructionNetwork;
use crate::Result;
use qn_image::GrayImage;

/// The full quantum autoencoder of the paper's Fig. 1: both trained
/// networks plus the encode/decode conversions.
#[derive(Debug, Clone)]
pub struct QuantumAutoencoder {
    /// Compression half (`U_C`, `P1`).
    pub compression: CompressionNetwork,
    /// Reconstruction half (`U_R`).
    pub reconstruction: ReconstructionNetwork,
}

impl QuantumAutoencoder {
    /// Assemble from the two trained networks.
    pub fn new(compression: CompressionNetwork, reconstruction: ReconstructionNetwork) -> Self {
        QuantumAutoencoder {
            compression,
            reconstruction,
        }
    }

    /// State dimension `N`.
    pub fn dim(&self) -> usize {
        self.compression.dim()
    }

    /// Run a raw data vector through the full pipeline, returning the
    /// decoded reconstruction `x̂` (paper Eq. 1 → Eq. 3 → Eq. 4 → Eq. 2).
    ///
    /// # Errors
    /// Propagates encoding errors (zero vector, oversize data).
    pub fn roundtrip(&self, x: &[f64]) -> Result<Vec<f64>> {
        let enc = encoding::encode(x, self.dim())?;
        let compressed = self.compression.compress(&enc.amplitudes);
        let out = self.reconstruction.reconstruct(&compressed);
        Ok(encoding::decode(&out, enc.norm, enc.data_len))
    }

    /// Reconstruct an image through the pipeline (same dimensions out).
    ///
    /// # Errors
    /// Propagates encoding errors.
    pub fn roundtrip_image(&self, img: &GrayImage) -> Result<GrayImage> {
        let enc = encoding::encode(img.pixels(), self.dim())?;
        let compressed = self.compression.compress(&enc.amplitudes);
        let out = self.reconstruction.reconstruct(&compressed);
        encoding::decode_image(&out, enc.norm, img.width(), img.height())
    }

    /// The compressed representation of a data vector: the `d` kept
    /// amplitudes plus the stored norm — everything a receiver needs.
    ///
    /// # Errors
    /// Propagates encoding errors.
    pub fn compressed_representation(&self, x: &[f64]) -> Result<(Vec<f64>, f64)> {
        let enc = encoding::encode(x, self.dim())?;
        let compressed = self.compression.compress(&enc.amplitudes);
        Ok((compressed[self.compression.kept()].to_vec(), enc.norm))
    }

    /// Classical storage ratio: kept amplitudes + 1 norm vs original
    /// pixels (e.g. (4+1)/16 for the paper's setup).
    pub fn compression_ratio(&self) -> f64 {
        (self.compression.compressed_dim() as f64 + 1.0) / self.dim() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionTargetKind;
    use qn_photonic::Mesh;

    /// Identity autoencoder: zero-angle meshes, full-dimension "compression".
    fn identity_autoencoder(dim: usize) -> QuantumAutoencoder {
        let comp = CompressionNetwork::new(
            Mesh::zeros(dim, 2),
            dim,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let recon = ReconstructionNetwork::new(Mesh::zeros(dim, 2));
        QuantumAutoencoder::new(comp, recon)
    }

    #[test]
    fn identity_pipeline_is_lossless() {
        let ae = identity_autoencoder(8);
        let x = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 1.0];
        let back = ae.roundtrip(&x).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn image_roundtrip_preserves_dimensions() {
        let ae = identity_autoencoder(16);
        let img = GrayImage::from_glyph(&["#..#", ".##.", ".##.", "#..#"]).unwrap();
        let back = ae.roundtrip_image(&img).unwrap();
        assert_eq!((back.width(), back.height()), (4, 4));
        for (a, b) in back.pixels().iter().zip(img.pixels()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn compressed_representation_has_d_amplitudes() {
        let comp =
            CompressionNetwork::new(Mesh::zeros(8, 1), 3, CompressionTargetKind::TrashPenalty)
                .unwrap();
        let recon = ReconstructionNetwork::new(Mesh::zeros(8, 1));
        let ae = QuantumAutoencoder::new(comp, recon);
        let (kept, norm) = ae
            .compressed_representation(&[0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 4.0])
            .unwrap();
        assert_eq!(kept.len(), 3);
        assert!((norm - 5.0).abs() < 1e-12);
        assert!((ae.compression_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_is_rejected() {
        let ae = identity_autoencoder(4);
        assert!(ae.roundtrip(&[0.0; 4]).is_err());
    }

    #[test]
    fn paper_ratio_is_5_over_16() {
        let comp =
            CompressionNetwork::new(Mesh::zeros(16, 1), 4, CompressionTargetKind::TrashPenalty)
                .unwrap();
        let ae = QuantumAutoencoder::new(comp, ReconstructionNetwork::new(Mesh::zeros(16, 1)));
        assert!((ae.compression_ratio() - 5.0 / 16.0).abs() < 1e-15);
    }
}
