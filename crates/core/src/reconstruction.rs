//! The quantum reconstruction network `U_R` (paper Sec. II-C, Eq. 4).

use crate::compression::CompressionNetwork;
use crate::gradient::{self, GradientMethod};
use crate::loss::Loss;
use qn_backend::{BackendKind, MeshBackend};
use qn_linalg::Panel;
use qn_photonic::{Mesh, MeshLayer};

/// The reconstruction half: `|Ψ_i⟩ = U_R · (P1 U_C |ψ_i⟩)`.
#[derive(Debug, Clone)]
pub struct ReconstructionNetwork {
    mesh: Mesh,
}

impl ReconstructionNetwork {
    /// Wrap a mesh as the reconstruction network.
    pub fn new(mesh: Mesh) -> Self {
        ReconstructionNetwork { mesh }
    }

    /// Initialise from the trained compression network, per the paper's
    /// Sec. II-C: "the reconstruction network U_R can be the combination
    /// of the quantum gates in the compression network, which are
    /// connected in reverse order" — i.e. the reversed mesh with negated
    /// angles, which equals `U_C⁻¹` exactly. When `n_layers` exceeds the
    /// compression depth, identity layers pad the front so the parameter
    /// budget matches `l_R` (the paper uses l_R = 14 > l_C = 12); the
    /// padding layers start at θ = 0 and are trained like the rest.
    pub fn from_reversed_compression(compression: &CompressionNetwork, n_layers: usize) -> Self {
        let inv = {
            let mut rev = compression.mesh().reversed();
            let negated: Vec<f64> = rev.thetas().iter().map(|t| -t).collect();
            rev.set_thetas(&negated);
            rev
        };
        let dim = inv.dim();
        let mut layers: Vec<MeshLayer> = Vec::with_capacity(n_layers.max(inv.n_layers()));
        for _ in inv.n_layers()..n_layers {
            layers.push(MeshLayer::zeros(dim));
        }
        layers.extend(inv.layers().iter().cloned());
        ReconstructionNetwork {
            mesh: Mesh::from_layers(layers),
        }
    }

    /// State dimension `N`.
    pub fn dim(&self) -> usize {
        self.mesh.dim()
    }

    /// Borrow the mesh (`U_R`).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutably borrow the mesh.
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// Reconstruct one compressed state: `B = U_R |Φ⟩`.
    pub fn reconstruct(&self, compressed: &[f64]) -> Vec<f64> {
        self.mesh.forward_real_copy(compressed)
    }

    /// Batch reconstruction through the default backend
    /// ([`BackendKind::default`]) over panel-packed states.
    pub fn reconstruct_batch(&self, compressed: &[Panel]) -> Vec<Panel> {
        self.reconstruct_batch_with(compressed, BackendKind::default().backend())
    }

    /// Batch reconstruction through an explicit execution backend (the
    /// scalar oracle in tests and benchmarks): a copy of `compressed`
    /// with `U_R` applied to every lane — equal to
    /// [`ReconstructionNetwork::reconstruct`] per lane up to the sign
    /// of IEEE zeros (the `MeshBackend` contract).
    pub fn reconstruct_batch_with(
        &self,
        compressed: &[Panel],
        backend: &dyn MeshBackend,
    ) -> Vec<Panel> {
        let mut out = compressed.to_vec();
        backend.forward_panels(&self.mesh, &mut out);
        out
    }

    /// Reconstruction loss `L_R = Σ_{i,j} (B_i^j − A_i^j)²` (Eq. 5), where
    /// the targets `A_i` are the original encoded amplitudes.
    ///
    /// # Panics
    /// Panics when batch lengths differ.
    pub fn loss(&self, compressed: &[Vec<f64>], targets: &[Vec<f64>]) -> Loss {
        assert_eq!(compressed.len(), targets.len(), "loss: batch sizes differ");
        let sum = gradient::loss_only(&self.mesh, compressed, &|i, out, buf| {
            for (j, b) in buf.iter_mut().enumerate() {
                *b = out[j] - targets[i][j];
            }
        });
        Loss::from_sum(sum, compressed.len(), self.dim())
    }

    /// Loss and gradient w.r.t. θ.
    ///
    /// # Panics
    /// Panics when batch lengths differ.
    pub fn loss_and_gradient(
        &self,
        compressed: &[Vec<f64>],
        targets: &[Vec<f64>],
        method: GradientMethod,
    ) -> (Loss, Vec<f64>) {
        assert_eq!(
            compressed.len(),
            targets.len(),
            "loss_and_gradient: batch sizes differ"
        );
        let (sum, grad) = gradient::loss_and_gradient(
            &self.mesh,
            compressed,
            &|i, out, buf| {
                for (j, b) in buf.iter_mut().enumerate() {
                    *b = out[j] - targets[i][j];
                }
            },
            method,
        );
        (Loss::from_sum(sum, compressed.len(), self.dim()), grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionTargetKind;
    use qn_linalg::panel::{pack, unpack};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compression() -> CompressionNetwork {
        let mut rng = StdRng::seed_from_u64(17);
        let mesh = Mesh::random(8, 3, &mut rng);
        CompressionNetwork::new(mesh, 4, CompressionTargetKind::TrashPenalty).unwrap()
    }

    fn unit_inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let mut v: Vec<f64> = (0..8).map(|j| ((3 * i + j) as f64 * 0.61).sin()).collect();
                qn_linalg::vector::normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn reversed_init_inverts_compression_without_projection() {
        let comp = compression();
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 3);
        // Without P1, U_R = U_C⁻¹ exactly: round trip is the identity.
        let x = &unit_inputs(1)[0];
        let y = comp.forward(x); // no projection
        let back = recon.reconstruct(&y);
        for (a, b) in back.iter().zip(x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn padding_layers_are_identity_at_init() {
        let comp = compression(); // 3 layers
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 5);
        assert_eq!(recon.mesh().n_layers(), 5);
        // Still inverts exactly: padding layers start as identity.
        let x = &unit_inputs(1)[0];
        let back = recon.reconstruct(&comp.forward(x));
        for (a, b) in back.iter().zip(x) {
            assert!((a - b).abs() < 1e-12);
        }
        // Paper budget: l_R = 14 ⇒ 14 × (N−1) parameters.
        assert_eq!(
            ReconstructionNetwork::from_reversed_compression(&comp, 14)
                .mesh()
                .param_count(),
            14 * 7
        );
    }

    #[test]
    fn perfect_reconstruction_has_zero_loss_and_unit_fidelity() {
        let comp = compression();
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 3);
        let xs = unit_inputs(3);
        // Bypass projection: feed unprojected outputs.
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| comp.forward(x)).collect();
        let loss = recon.loss(&ys, &xs);
        assert!(loss.sum < 1e-20);
        // Unit fidelity ⟨B_i|A_i⟩² = 1 on every sample.
        for (y, x) in ys.iter().zip(&xs) {
            let ip: f64 = recon.reconstruct(y).iter().zip(x).map(|(b, a)| b * a).sum();
            assert!((ip * ip - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_leakage_appears_in_loss() {
        let comp = compression();
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 3);
        let xs = unit_inputs(3);
        let compressed = unpack(&comp.compress_batch(&pack(&xs, 2))); // with P1
        let loss = recon.loss(&compressed, &xs);
        // Some amplitude was projected away, so the loss is positive…
        assert!(loss.sum > 1e-6);
        // …and bounded by the total leaked probability times 4 (worst
        // case for unit vectors: ‖B − A‖² ≤ (‖B‖+‖A‖)² ≤ 4).
        assert!(loss.sum < 4.0 * xs.len() as f64);
    }

    #[test]
    fn training_recovers_inverse_from_random_init() {
        // Random U_R trained on unprojected outputs must learn U_C⁻¹'s
        // action on the sample set.
        let comp = compression();
        let mut rng = StdRng::seed_from_u64(23);
        let mut recon = ReconstructionNetwork::new(Mesh::random_small(8, 4, 0.3, &mut rng));
        let xs = unit_inputs(4);
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| comp.forward(x)).collect();
        let before = recon.loss(&ys, &xs).sum;
        for _ in 0..200 {
            let (_, grad) = recon.loss_and_gradient(&ys, &xs, GradientMethod::Analytic);
            let thetas: Vec<f64> = recon
                .mesh()
                .thetas()
                .iter()
                .zip(&grad)
                .map(|(t, g)| t - 0.05 * g)
                .collect();
            recon.mesh_mut().set_thetas(&thetas);
        }
        let after = recon.loss(&ys, &xs).sum;
        assert!(
            after < before * 0.05,
            "loss did not drop 20×: {before} → {after}"
        );
    }

    #[test]
    fn batch_matches_single() {
        let comp = compression();
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 3);
        let xs = unit_inputs(3);
        let cs = unpack(&comp.compress_batch(&pack(&xs, 2)));
        let batch = unpack(&recon.reconstruct_batch(&pack(&cs, 2)));
        for (i, c) in cs.iter().enumerate() {
            assert_eq!(batch[i], recon.reconstruct(c));
        }
    }

    #[test]
    #[should_panic(expected = "batch sizes differ")]
    fn loss_checks_batch_sizes() {
        let comp = compression();
        let recon = ReconstructionNetwork::from_reversed_compression(&comp, 3);
        recon.loss(&unit_inputs(2), &unit_inputs(3));
    }
}
