//! The quantum compression network `U_C` with projector `P1` (paper
//! Sec. II-B, Eq. 3).

use crate::config::CompressionTargetKind;
use crate::error::CoreError;
use crate::gradient;
use crate::loss::Loss;
use crate::Result;
use qn_backend::BackendKind;
use qn_linalg::Panel;
use qn_photonic::Mesh;
use std::ops::Range;

/// The compression half of the pipeline: `|Φ_i⟩ = P1 · U_C |ψ_i⟩`.
///
/// `P1` keeps the last `d` of the `N` modes, [`CompressionNetwork::kept`]
/// — the paper's convention: its 8-dimensional example targets
/// `b² = [0,0,0,0,.25,.25,.25,.25]` (Fig. 2).
#[derive(Debug, Clone)]
pub struct CompressionNetwork {
    mesh: Mesh,
    compressed_dim: usize,
    target: CompressionTargetKind,
}

impl CompressionNetwork {
    /// Assemble from a mesh, the compressed dimension `d` and a target
    /// strategy.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidConfig`] when `d > N`.
    pub fn new(mesh: Mesh, compressed_dim: usize, target: CompressionTargetKind) -> Result<Self> {
        if compressed_dim > mesh.dim() {
            return Err(CoreError::InvalidConfig(format!(
                "cannot keep {compressed_dim} of {} modes",
                mesh.dim()
            )));
        }
        Ok(CompressionNetwork {
            mesh,
            compressed_dim,
            target,
        })
    }

    /// State dimension `N`.
    pub fn dim(&self) -> usize {
        self.mesh.dim()
    }

    /// Compressed dimension `d`.
    pub fn compressed_dim(&self) -> usize {
        self.compressed_dim
    }

    /// The modes `P1` keeps: the last `d`, `N − d..N`. Every mode before
    /// `kept().start` is trash.
    pub fn kept(&self) -> Range<usize> {
        self.dim() - self.compressed_dim..self.dim()
    }

    /// Borrow the mesh (`U_C`).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutably borrow the mesh (training updates θ through this).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// Raw network output `U_C |ψ⟩` — the amplitudes `a_i` that are
    /// measured for the loss (Eq. 3 before projection).
    pub fn forward(&self, encoded: &[f64]) -> Vec<f64> {
        self.mesh.forward_real_copy(encoded)
    }

    /// Compressed state `P1 U_C |ψ⟩` (unnormalised, as in Eq. 4 where the
    /// projected state feeds `U_R` directly).
    pub fn compress(&self, encoded: &[f64]) -> Vec<f64> {
        let mut out = self.mesh.forward_real_copy(encoded);
        out[..self.kept().start].fill(0.0);
        out
    }

    /// Batch forward pass through either mesh pass (the scalar oracle
    /// in tests and benchmarks): a copy of `encoded` with `U_C` applied
    /// to every lane. Both match [`CompressionNetwork::forward`] per
    /// lane up to the sign of IEEE zeros (the `ZeroSignOnly` contract
    /// on [`Mesh::forward_panels`]). Callers that own their panels run
    /// [`Mesh::forward_panels`] in place.
    pub fn forward_batch_with(&self, encoded: &[Panel], backend: BackendKind) -> Vec<Panel> {
        let mut out = encoded.to_vec();
        backend.forward_panels(&self.mesh, &mut out);
        out
    }

    /// Batch compression over panel-packed samples (see
    /// [`qn_linalg::panel::pack`]) — equal to
    /// [`CompressionNetwork::compress`] per lane up to the sign of IEEE
    /// zeros: [`Mesh::forward_panels`], then every discarded mode's row
    /// zeroed.
    pub fn compress_batch(&self, encoded: &[Panel]) -> Vec<Panel> {
        let mut out = encoded.to_vec();
        self.mesh.forward_panels(&mut out);
        for panel in &mut out {
            for mode in 0..self.kept().start {
                panel.row_mut(mode).fill(0.0);
            }
        }
        out
    }

    /// Write the residual `r = a_i − b_i` for the configured target
    /// strategy into `buf`.
    ///
    /// # Panics
    /// Panics when lengths mismatch.
    pub fn residual(&self, out: &[f64], buf: &mut [f64]) {
        assert_eq!(out.len(), buf.len(), "residual: length mismatch");
        let kept = self.kept();
        match self.target {
            CompressionTargetKind::TrashPenalty => {
                for (j, (b, &o)) in buf.iter_mut().zip(out).enumerate() {
                    *b = if kept.contains(&j) { 0.0 } else { o };
                }
            }
            CompressionTargetKind::Uniform => {
                let amp = 1.0 / (self.compressed_dim as f64).sqrt();
                for (j, (b, &o)) in buf.iter_mut().zip(out).enumerate() {
                    *b = if kept.contains(&j) { o - amp } else { o };
                }
            }
        }
    }

    /// Compression loss `L_C` over a batch (Eq. 5, both normalisations).
    pub fn loss(&self, encoded: &[Vec<f64>]) -> Loss {
        let sum = gradient::loss_only(&self.mesh, encoded, &|_, out, buf| self.residual(out, buf));
        Loss::from_sum(sum, encoded.len(), self.dim())
    }

    /// Loss and exact gradient w.r.t. θ over a batch.
    pub fn loss_and_gradient(&self, encoded: &[Vec<f64>]) -> (Loss, Vec<f64>) {
        let (sum, grad) = gradient::loss_and_gradient(&self.mesh, encoded, &|_, out, buf| {
            self.residual(out, buf)
        });
        (Loss::from_sum(sum, encoded.len(), self.dim()), grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(target: CompressionTargetKind) -> CompressionNetwork {
        let mut rng = StdRng::seed_from_u64(5);
        let mesh = Mesh::random(8, 3, &mut rng);
        CompressionNetwork::new(mesh, 3, target).unwrap()
    }

    fn inputs() -> Vec<Vec<f64>> {
        (0..4)
            .map(|i| {
                let mut v: Vec<f64> = (0..8).map(|j| ((i + 2 * j) as f64).cos()).collect();
                qn_linalg::vector::normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn construction_and_accessors() {
        let net = network(CompressionTargetKind::TrashPenalty);
        assert_eq!(net.dim(), 8);
        assert_eq!(net.compressed_dim(), 3);
        assert_eq!(net.kept(), 5..8);
    }

    #[test]
    fn rejects_invalid_dims() {
        assert!(matches!(
            CompressionNetwork::new(Mesh::zeros(4, 1), 5, CompressionTargetKind::TrashPenalty),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn compress_zeroes_trash_dims() {
        let net = network(CompressionTargetKind::TrashPenalty);
        let x = &inputs()[0];
        let c = net.compress(x);
        for cj in &c[..5] {
            assert_eq!(*cj, 0.0);
        }
        // Forward (unprojected) output keeps the full norm.
        let f = net.forward(x);
        assert!((qn_linalg::vector::norm2(&f) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trash_penalty_loss_equals_total_leakage() {
        let net = network(CompressionTargetKind::TrashPenalty);
        let xs = inputs();
        let loss = net.loss(&xs);
        let leak_total: f64 = xs
            .iter()
            .map(|x| {
                let out = net.forward(x);
                out[..net.kept().start].iter().map(|a| a * a).sum::<f64>()
            })
            .sum();
        assert!((loss.sum - leak_total).abs() < 1e-12);
    }

    #[test]
    fn uniform_target_measures_distance_to_uniform_amplitudes() {
        let net = network(CompressionTargetKind::Uniform);
        let out = vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let mut r = vec![0.0; 8];
        net.residual(&out, &mut r);
        let amp = 1.0 / 3.0_f64.sqrt();
        assert!((r[5] - (1.0 - amp)).abs() < 1e-12);
        assert!((r[6] + amp).abs() < 1e-12);
        assert_eq!(r[0], 0.0);
    }

    #[test]
    fn training_reduces_leakage() {
        // A few GD steps on the trash penalty must shrink the leak.
        let mut net = network(CompressionTargetKind::TrashPenalty);
        let xs = inputs();
        let before = net.loss(&xs).sum;
        for _ in 0..50 {
            let (_, grad) = net.loss_and_gradient(&xs);
            let thetas: Vec<f64> = net
                .mesh()
                .thetas()
                .iter()
                .zip(&grad)
                .map(|(t, g)| t - 0.05 * g)
                .collect();
            net.mesh_mut().set_thetas(&thetas);
        }
        let after = net.loss(&xs).sum;
        assert!(
            after < before * 0.5,
            "leakage did not halve: {before} → {after}"
        );
    }

    #[test]
    fn batch_paths_match_single_sample_paths() {
        use qn_linalg::panel::{pack, unpack};
        let net = network(CompressionTargetKind::TrashPenalty);
        let xs = inputs();
        for kind in BackendKind::ALL {
            let batch = unpack(&net.forward_batch_with(&pack(&xs, 3), kind));
            for (i, x) in xs.iter().enumerate() {
                assert_eq!(batch[i], net.forward(x), "{kind}");
            }
        }
        let compressed = unpack(&net.compress_batch(&pack(&xs, 3)));
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(compressed[i], net.compress(x));
        }
    }
}
