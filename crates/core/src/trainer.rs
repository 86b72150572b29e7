//! The training loop (paper Algorithm 1 + Sec. IV-A).
//!
//! Each iteration measures the output states, computes the losses of
//! Eq. 5 over the whole training set, obtains their exact reverse-mode
//! gradients ([`crate::gradient::loss_and_gradient`]) and applies one update
//! (Eq. 9 or the configured optimiser) to `U_C`, then to `U_R`.
//! The trainer records everything the paper's Fig. 4 plots: per-iteration
//! losses (4c), reconstruction accuracy (4d), the tracked sample's
//! compression/reconstruction amplitudes (4f/4e) and the θ trajectories
//! with gradient norms (4g).

use crate::autoencoder::QuantumAutoencoder;
use crate::compression::CompressionNetwork;
use crate::config::{CompressionTargetKind, InitStrategy, NetworkConfig};
use crate::encoding::{self, EncodedSample};
use crate::error::CoreError;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::reconstruction::ReconstructionNetwork;
use crate::spectral;
use crate::Result;
use qn_image::{metrics, GrayImage};
use qn_linalg::panel;
use qn_photonic::Mesh;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Sample whose amplitude trajectories are recorded (paper Fig. 4e/f
/// tracks sample 25, i.e. index 24), clamped into smaller datasets.
const TRACKED_SAMPLE: usize = 24;

/// Everything recorded during training, one entry per iteration.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// `L_C` per iteration (Fig. 4c).
    pub compression_loss: Vec<Loss>,
    /// `L_R` per iteration (Fig. 4c).
    pub reconstruction_loss: Vec<Loss>,
    /// Reconstruction accuracy (Eq. 10 with the paper's snap rule, %)
    /// per iteration (Fig. 4d).
    pub accuracy: Vec<f64>,
    /// Accuracy after full binary thresholding at 0.5 (§IV-B's "control
    /// the output to be binary" rule, %), per iteration.
    pub accuracy_binary: Vec<f64>,
    /// ‖∇L_C‖₂ per iteration (Fig. 4g shows gradients dropping to 0).
    pub grad_norm_c: Vec<f64>,
    /// Index of the sample whose amplitudes are traced.
    pub tracked_sample: usize,
    /// Compression-network output amplitudes of the tracked sample per
    /// iteration (Fig. 4f).
    pub compressed_trace: Vec<Vec<f64>>,
    /// Reconstruction-network output amplitudes of the tracked sample per
    /// iteration (Fig. 4e).
    pub reconstructed_trace: Vec<Vec<f64>>,
    /// Full θ snapshot of `U_C` per iteration (Fig. 4g).
    pub theta_c_trace: Vec<Vec<f64>>,
}

/// Final outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Full per-iteration record.
    pub history: TrainingHistory,
    /// Final `L_C` (per-element mean, the paper's reported scale).
    pub final_compression_loss: f64,
    /// Final `L_R` (per-element mean).
    pub final_reconstruction_loss: f64,
    /// Best accuracy over all iterations (the paper reports the maximum:
    /// 97.75 %).
    pub max_accuracy: f64,
    /// Accuracy at the last iteration.
    pub final_accuracy: f64,
    /// Best binary-threshold accuracy over all iterations.
    pub max_accuracy_binary: f64,
    /// Binary-threshold accuracy at the last iteration.
    pub final_accuracy_binary: f64,
    /// Wall-clock training time in seconds (Table I's "CPU runs").
    pub train_seconds: f64,
}

/// Trains the compression and reconstruction networks on an image set.
pub struct Trainer {
    config: NetworkConfig,
    images: Vec<GrayImage>,
    encoded: Vec<EncodedSample>,
    inputs: Vec<Vec<f64>>,
    compression: CompressionNetwork,
    reconstruction: ReconstructionNetwork,
    tracked: usize,
}

impl Trainer {
    /// Validate the configuration, encode the dataset and initialise both
    /// networks.
    ///
    /// # Errors
    /// - [`CoreError::InvalidConfig`] from config validation.
    /// - [`CoreError::InvalidData`] for an empty dataset, oversize images
    ///   or all-zero samples.
    pub fn new(config: NetworkConfig, images: &[GrayImage]) -> Result<Self> {
        config.validate()?;
        if images.is_empty() {
            return Err(CoreError::InvalidData("empty dataset".to_string()));
        }
        let encoded = encoding::encode_images(images, config.dim)?;
        let inputs: Vec<Vec<f64>> = encoded.iter().map(|e| e.amplitudes.clone()).collect();

        let mesh_c = match config.init {
            InitStrategy::SmallRandom(scale) => Mesh::random_small(
                config.dim,
                config.layers_c,
                scale,
                &mut StdRng::seed_from_u64(config.seed),
            ),
            InitStrategy::Spectral => spectral::spectral_mesh(
                &inputs,
                config.dim,
                config.compressed_dim,
                config.layers_c,
            )?,
        };
        let compression = CompressionNetwork::new(
            mesh_c,
            config.compressed_dim,
            CompressionTargetKind::TrashPenalty,
        )?;
        // Paper Sec. II-C: U_R starts as the reversed U_C.
        let reconstruction =
            ReconstructionNetwork::from_reversed_compression(&compression, config.layers_r);
        Ok(Trainer {
            config,
            images: images.to_vec(),
            encoded,
            inputs,
            compression,
            reconstruction,
            tracked: TRACKED_SAMPLE.min(images.len() - 1),
        })
    }

    /// Borrow the current compression network.
    pub fn compression(&self) -> &CompressionNetwork {
        &self.compression
    }

    /// Borrow the current reconstruction network.
    pub fn reconstruction(&self) -> &ReconstructionNetwork {
        &self.reconstruction
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Consume the trainer into the trained autoencoder.
    pub fn into_autoencoder(self) -> QuantumAutoencoder {
        QuantumAutoencoder::new(self.compression, self.reconstruction)
    }

    /// Train for the configured number of iterations.
    ///
    /// # Errors
    /// Currently infallible: [`Trainer::new`] has already validated the
    /// configuration and the data.
    pub fn train(&mut self) -> Result<TrainReport> {
        let start = Instant::now();
        let mut history = TrainingHistory {
            tracked_sample: self.tracked,
            ..TrainingHistory::default()
        };
        let mut opt_c = Optimizer::new(
            self.config.optimizer,
            self.config.learning_rate,
            self.compression.mesh().param_count(),
        );
        let mut opt_r = Optimizer::new(
            self.config.optimizer,
            self.config.learning_rate,
            self.reconstruction.mesh().param_count(),
        );

        for _ in 0..self.config.iterations {
            let (loss_c, gn_c) = self.step_compression(&mut opt_c);
            let loss_r = self.step_reconstruction(&mut opt_r);
            let (accuracy, accuracy_binary) = self.evaluate_accuracy();
            history.compression_loss.push(loss_c);
            history.reconstruction_loss.push(loss_r);
            history.grad_norm_c.push(gn_c);
            history.accuracy.push(accuracy);
            history.accuracy_binary.push(accuracy_binary);
            let tracked = &self.inputs[self.tracked];
            history
                .compressed_trace
                .push(self.compression.forward(tracked));
            history.reconstructed_trace.push(
                self.reconstruction
                    .reconstruct(&self.compression.compress(tracked)),
            );
            history.theta_c_trace.push(self.compression.mesh().thetas());
        }

        let final_accuracy = history.accuracy.last().copied().unwrap_or(0.0);
        let max_accuracy = history.accuracy.iter().copied().fold(0.0, f64::max);
        let final_accuracy_binary = history.accuracy_binary.last().copied().unwrap_or(0.0);
        let max_accuracy_binary = history.accuracy_binary.iter().copied().fold(0.0, f64::max);
        Ok(TrainReport {
            final_compression_loss: history.compression_loss.last().map_or(0.0, |l| l.mean),
            final_reconstruction_loss: history.reconstruction_loss.last().map_or(0.0, |l| l.mean),
            max_accuracy,
            final_accuracy,
            max_accuracy_binary,
            final_accuracy_binary,
            train_seconds: start.elapsed().as_secs_f64(),
            history,
        })
    }

    /// One gradient step on `U_C`. Returns (loss, gradient norm).
    fn step_compression(&mut self, opt: &mut Optimizer) -> (Loss, f64) {
        let (loss, mut grad) = self.compression.loss_and_gradient(&self.inputs);
        self.normalise(&mut grad);
        (loss, descend(self.compression.mesh_mut(), &grad, opt))
    }

    /// One gradient step on `U_R`. Returns the loss.
    fn step_reconstruction(&mut self, opt: &mut Optimizer) -> Loss {
        let compressed = compress_samples(&self.compression, &self.inputs);
        let (loss, mut grad) = self
            .reconstruction
            .loss_and_gradient(&compressed, &self.inputs);
        self.normalise(&mut grad);
        descend(self.reconstruction.mesh_mut(), &grad, opt);
        loss
    }

    /// Divide `grad` by `M × N` when the config asks for Algorithm 1's
    /// normalisation.
    fn normalise(&self, grad: &mut [f64]) {
        if self.config.normalize_gradient {
            let f = 1.0 / (self.inputs.len() * self.config.dim) as f64;
            for g in grad {
                *g *= f;
            }
        }
    }

    /// Reconstruction accuracy over the training set: Eq. 10 with the
    /// paper's snap adjustment, and the §IV-B binary-threshold variant.
    /// Returns `(snap accuracy, binary accuracy)`.
    fn evaluate_accuracy(&self) -> (f64, f64) {
        let compressed = self
            .compression
            .compress_batch(&panel::pack(&self.inputs, panel::DEFAULT_PANEL_WIDTH));
        let outs = panel::unpack(&self.reconstruction.reconstruct_batch(&compressed));
        let decoded: Vec<GrayImage> = outs
            .iter()
            .zip(&self.encoded)
            .zip(&self.images)
            .map(|((out, enc), img)| {
                encoding::decode_image(out, enc.norm, img.width(), img.height())
                    .expect("dimensions preserved")
            })
            .collect();
        let snapped: Vec<GrayImage> = decoded.iter().map(GrayImage::snapped).collect();
        let binarised: Vec<GrayImage> = decoded.iter().map(|d| d.thresholded(0.5)).collect();
        (
            metrics::mean_pixel_accuracy(&snapped, &self.images, metrics::ACCURACY_TOL),
            metrics::mean_pixel_accuracy(&binarised, &self.images, metrics::ACCURACY_TOL),
        )
    }
}

/// `P1 U_C` over the trainer's samples. They are a few dozen `Vec`s;
/// the batch helpers take panels, so the trainer packs and unpacks at
/// this boundary.
fn compress_samples(compression: &CompressionNetwork, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let panels = panel::pack(samples, panel::DEFAULT_PANEL_WIDTH);
    panel::unpack(&compression.compress_batch(&panels))
}

/// One optimiser step on `mesh`'s angles down `grad`. Returns ‖grad‖₂.
fn descend(mesh: &mut Mesh, grad: &[f64], opt: &mut Optimizer) -> f64 {
    let mut thetas = mesh.thetas();
    opt.step(&mut thetas, grad);
    mesh.set_thetas(&thetas);
    qn_linalg::vector::norm2(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_image::datasets;

    fn quick_config() -> NetworkConfig {
        NetworkConfig::paper_default()
            .with_iterations(40)
            .with_learning_rate(0.05)
    }

    #[test]
    fn trainer_construction_validates() {
        let data = datasets::paper_binary_16(25);
        assert!(Trainer::new(quick_config(), &data).is_ok());
        assert!(Trainer::new(quick_config(), &[]).is_err());
        let bad = quick_config().with_dims(4, 2); // images have 16 pixels
        assert!(Trainer::new(bad, &data).is_err());
    }

    #[test]
    fn losses_decrease_on_low_rank_data() {
        // Exactly rank-4 data: both losses must fall substantially.
        let data = datasets::low_rank_binary(25, 4, 4, 4, 3);
        let mut t = Trainer::new(quick_config(), &data).unwrap();
        let report = t.train().unwrap();
        let h = &report.history;
        assert_eq!(h.compression_loss.len(), 40);
        let first_c = h.compression_loss[0].sum;
        let last_c = h.compression_loss.last().unwrap().sum;
        assert!(
            last_c < first_c * 0.5 || last_c < 1e-3,
            "L_C barely moved: {first_c} → {last_c}"
        );
        let first_r = h.reconstruction_loss[0].sum;
        let last_r = h.reconstruction_loss.last().unwrap().sum;
        assert!(
            last_r < first_r || last_r < 1e-3,
            "L_R did not improve: {first_r} → {last_r}"
        );
    }

    #[test]
    fn histories_have_consistent_shapes() {
        let data = datasets::paper_binary_16(10);
        let cfg = quick_config().with_iterations(5);
        let mut t = Trainer::new(cfg, &data).unwrap();
        let report = t.train().unwrap();
        let h = &report.history;
        assert_eq!(h.compression_loss.len(), 5);
        assert_eq!(h.reconstruction_loss.len(), 5);
        assert_eq!(h.accuracy.len(), 5);
        assert_eq!(h.compressed_trace.len(), 5);
        assert_eq!(h.reconstructed_trace.len(), 5);
        assert_eq!(h.theta_c_trace.len(), 5);
        assert_eq!(h.theta_c_trace[0].len(), 12 * 15);
        assert_eq!(h.compressed_trace[0].len(), 16);
        // Tracked sample clamped into range.
        assert_eq!(h.tracked_sample, 9);
    }

    #[test]
    fn training_is_deterministic() {
        let data = datasets::paper_binary_16(8);
        let cfg = quick_config().with_iterations(6);
        let r1 = Trainer::new(cfg.clone(), &data).unwrap().train().unwrap();
        let r2 = Trainer::new(cfg, &data).unwrap().train().unwrap();
        assert_eq!(
            r1.history.compression_loss.last().unwrap().sum,
            r2.history.compression_loss.last().unwrap().sum
        );
        assert_eq!(r1.final_accuracy, r2.final_accuracy);
    }

    #[test]
    fn into_autoencoder_roundtrips() {
        let data = datasets::low_rank_binary(15, 4, 4, 4, 13);
        let mut t = Trainer::new(quick_config().with_iterations(60), &data).unwrap();
        t.train().unwrap();
        let ae = t.into_autoencoder();
        let recon = ae.roundtrip_image(&data[0]).unwrap();
        // Thresholded reconstruction matches the binary input well.
        let acc = qn_image::metrics::pixel_accuracy(&recon.thresholded(0.5), &data[0], 0.01);
        assert!(acc >= 75.0, "accuracy {acc}");
    }
}
