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
        let kept: Vec<f64> = self
            .compression
            .projector()
            .kept_indices()
            .iter()
            .map(|&j| compressed[j])
            .collect();
        Ok((kept, enc.norm))
    }

    /// Classical storage ratio: kept amplitudes + 1 norm vs original
    /// pixels (e.g. (4+1)/16 for the paper's setup).
    pub fn compression_ratio(&self) -> f64 {
        (self.compression.compressed_dim() as f64 + 1.0) / self.dim() as f64
    }

    /// Total trainable parameter count across both meshes (θ and α).
    pub fn param_count(&self) -> usize {
        2 * (self.compression.mesh().param_count() + self.reconstruction.mesh().param_count())
    }

    /// Export every trainable parameter as one flat vector, in the stable
    /// order `θ_C ‖ α_C ‖ θ_R ‖ α_R` (each block layer-major). Model
    /// persistence and external optimisers round-trip through this; the
    /// order is part of the `qn-codec` model-file format and must not
    /// change without a format-version bump.
    pub fn export_parameters(&self) -> Vec<f64> {
        let mut params = Vec::with_capacity(self.param_count());
        params.extend(self.compression.mesh().thetas());
        params.extend(self.compression.mesh().alphas());
        params.extend(self.reconstruction.mesh().thetas());
        params.extend(self.reconstruction.mesh().alphas());
        params
    }

    /// Overwrite every trainable parameter from a flat vector produced by
    /// [`QuantumAutoencoder::export_parameters`] on a structurally
    /// identical autoencoder (same dims and layer counts).
    ///
    /// # Errors
    /// Returns [`crate::CoreError::InvalidData`] on length mismatch.
    pub fn import_parameters(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.param_count() {
            return Err(crate::CoreError::InvalidData(format!(
                "parameter vector has length {}, autoencoder needs {}",
                params.len(),
                self.param_count()
            )));
        }
        let nc = self.compression.mesh().param_count();
        let nr = self.reconstruction.mesh().param_count();
        let (tc, rest) = params.split_at(nc);
        let (ac, rest) = rest.split_at(nc);
        let (tr, ar) = rest.split_at(nr);
        self.compression.mesh_mut().set_thetas(tc);
        self.compression.mesh_mut().set_alphas(ac);
        self.reconstruction.mesh_mut().set_thetas(tr);
        self.reconstruction.mesh_mut().set_alphas(ar);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionTargetKind, SubspaceKind};
    use qn_photonic::Mesh;

    /// Identity autoencoder: zero-angle meshes, full-dimension "compression".
    fn identity_autoencoder(dim: usize) -> QuantumAutoencoder {
        let comp = CompressionNetwork::new(
            Mesh::zeros(dim, 2),
            dim,
            SubspaceKind::KeepLast,
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
        let comp = CompressionNetwork::new(
            Mesh::zeros(8, 1),
            3,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
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
    fn parameter_export_import_roundtrips() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let comp = CompressionNetwork::new(
            Mesh::random(8, 3, &mut rng),
            3,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let recon = ReconstructionNetwork::new(Mesh::random(8, 4, &mut rng));
        let ae = QuantumAutoencoder::new(comp, recon);
        let params = ae.export_parameters();
        assert_eq!(params.len(), ae.param_count());
        assert_eq!(params.len(), 2 * (3 * 7 + 4 * 7));

        // Import into a structurally identical zero autoencoder.
        let comp0 = CompressionNetwork::new(
            Mesh::zeros(8, 3),
            3,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let mut other =
            QuantumAutoencoder::new(comp0, ReconstructionNetwork::new(Mesh::zeros(8, 4)));
        other.import_parameters(&params).unwrap();
        assert_eq!(other.export_parameters(), params);
        let x = [0.3, -0.1, 0.5, 0.0, 0.2, 0.7, -0.4, 0.1];
        assert_eq!(other.compression.forward(&x), ae.compression.forward(&x));

        // Wrong lengths are rejected.
        assert!(other.import_parameters(&params[1..]).is_err());
    }

    #[test]
    fn subspace_kind_is_recorded() {
        use crate::compression::CompressionNetwork;
        for kind in [SubspaceKind::KeepLast, SubspaceKind::KeepFirst] {
            let net = CompressionNetwork::new(
                Mesh::zeros(4, 1),
                2,
                kind,
                CompressionTargetKind::TrashPenalty,
            )
            .unwrap();
            assert_eq!(net.subspace_kind(), kind);
        }
    }

    #[test]
    fn zero_vector_is_rejected() {
        let ae = identity_autoencoder(4);
        assert!(ae.roundtrip(&[0.0; 4]).is_err());
    }

    #[test]
    fn paper_ratio_is_5_over_16() {
        let comp = CompressionNetwork::new(
            Mesh::zeros(16, 1),
            4,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let ae = QuantumAutoencoder::new(comp, ReconstructionNetwork::new(Mesh::zeros(16, 1)));
        assert!((ae.compression_ratio() - 5.0 / 16.0).abs() < 1e-15);
    }
}
