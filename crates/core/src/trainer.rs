//! The training loop (paper Algorithm 1 + Sec. IV-A).
//!
//! Each iteration measures the output states, computes the losses of
//! Eq. 5, obtains gradients by the configured method, and applies Eq. 9.
//! The trainer records everything the paper's Fig. 4 plots: per-iteration
//! losses (4c), reconstruction accuracy (4d), the tracked sample's
//! compression/reconstruction amplitudes (4f/4e) and the θ trajectories
//! with gradient norms (4g).

use crate::autoencoder::QuantumAutoencoder;
use crate::compression::CompressionNetwork;
use crate::config::{InitStrategy, NetworkConfig, TrainingSchedule};
use crate::encoding::{self, EncodedSample};
use crate::error::CoreError;
use crate::gradient;
use crate::loss::Loss;
use crate::optimizer::{self, Optimizer};
use crate::reconstruction::ReconstructionNetwork;
use crate::spectral;
use crate::Result;
use qn_image::{metrics, GrayImage};
use qn_linalg::panel;
use qn_photonic::Mesh;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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
    /// ‖∇L_R‖₂ per iteration.
    pub grad_norm_r: Vec<f64>,
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
    /// Full θ snapshot of `U_R` per iteration.
    pub theta_r_trace: Vec<Vec<f64>>,
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

/// Per-iteration event passed to training observers.
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Compression loss at this iteration.
    pub loss_c: Loss,
    /// Reconstruction loss at this iteration.
    pub loss_r: Loss,
    /// Accuracy (%) at this iteration.
    pub accuracy: f64,
}

/// Trains the compression and reconstruction networks on an image set.
pub struct Trainer {
    config: NetworkConfig,
    images: Vec<GrayImage>,
    encoded: Vec<EncodedSample>,
    inputs: Vec<Vec<f64>>,
    compression: CompressionNetwork,
    reconstruction: ReconstructionNetwork,
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

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mesh_c = match config.init {
            InitStrategy::RandomUniform => Mesh::random(config.dim, config.layers_c, &mut rng),
            InitStrategy::SmallRandom(scale) => {
                Mesh::random_small(config.dim, config.layers_c, scale, &mut rng)
            }
            InitStrategy::Identity => Mesh::zeros(config.dim, config.layers_c),
            InitStrategy::Spectral => spectral::spectral_mesh(
                &inputs,
                config.dim,
                config.compressed_dim,
                config.subspace,
                config.layers_c,
            )?,
        };
        let compression = CompressionNetwork::new(
            mesh_c,
            config.compressed_dim,
            config.subspace,
            config.target.clone(),
        )?;
        let reconstruction = if config.init_r_from_c {
            ReconstructionNetwork::from_reversed_compression(&compression, config.layers_r)
        } else {
            ReconstructionNetwork::new(Mesh::random_small(
                config.dim,
                config.layers_r,
                0.3,
                &mut rng,
            ))
        };
        let tracked = config.tracked_sample.min(images.len() - 1);
        let mut config = config;
        config.tracked_sample = tracked;
        Ok(Trainer {
            config,
            images: images.to_vec(),
            encoded,
            inputs,
            compression,
            reconstruction,
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

    /// Train with the configured schedule.
    ///
    /// # Errors
    /// Currently infallible after construction, but kept fallible for
    /// forward compatibility with fallible observers.
    pub fn train(&mut self) -> Result<TrainReport> {
        self.train_with_observer(|_| {})
    }

    /// Train, invoking `observer` after every iteration.
    ///
    /// # Errors
    /// See [`Trainer::train`].
    pub fn train_with_observer(
        &mut self,
        mut observer: impl FnMut(IterationEvent),
    ) -> Result<TrainReport> {
        let start = Instant::now();
        let mut history = TrainingHistory {
            tracked_sample: self.config.tracked_sample,
            ..TrainingHistory::default()
        };
        let iters = self.config.iterations;
        let mut opt_c = optimizer::build(
            self.config.optimizer,
            self.config.learning_rate,
            self.compression.mesh().param_count(),
        );
        let mut opt_r = optimizer::build(
            self.config.optimizer,
            self.config.learning_rate,
            self.reconstruction.mesh().param_count(),
        );

        match self.config.schedule {
            TrainingSchedule::Joint => {
                for it in 0..iters {
                    let (loss_c, gn_c) = self.step_compression(it, opt_c.as_mut());
                    let (loss_r, gn_r) = self.step_reconstruction(it, opt_r.as_mut());
                    let (accuracy, accuracy_binary) = self.evaluate_accuracy();
                    self.record(
                        &mut history,
                        loss_c,
                        loss_r,
                        gn_c,
                        gn_r,
                        accuracy,
                        accuracy_binary,
                    );
                    observer(IterationEvent {
                        iteration: it,
                        loss_c,
                        loss_r,
                        accuracy,
                    });
                }
            }
            TrainingSchedule::Sequential => {
                // Phase 1: compression only (Algorithm 1's first loop).
                let mut phase1: Vec<(Loss, f64)> = Vec::with_capacity(iters);
                for it in 0..iters {
                    phase1.push(self.step_compression(it, opt_c.as_mut()));
                    history.compressed_trace.push(
                        self.compression
                            .forward(&self.inputs[self.config.tracked_sample]),
                    );
                    history.theta_c_trace.push(self.compression.mesh().thetas());
                }
                // Phase 2: reconstruction on the trained compressor.
                #[allow(clippy::needless_range_loop)] // `it` also feeds step_reconstruction
                for it in 0..iters {
                    let (loss_c, gn_c) = phase1[it];
                    let (loss_r, gn_r) = self.step_reconstruction(it, opt_r.as_mut());
                    let (accuracy, accuracy_binary) = self.evaluate_accuracy();
                    history.compression_loss.push(loss_c);
                    history.reconstruction_loss.push(loss_r);
                    history.grad_norm_c.push(gn_c);
                    history.grad_norm_r.push(gn_r);
                    history.accuracy.push(accuracy);
                    history.accuracy_binary.push(accuracy_binary);
                    history.reconstructed_trace.push(
                        self.reconstruction.reconstruct(
                            &self
                                .compression
                                .compress(&self.inputs[self.config.tracked_sample]),
                        ),
                    );
                    history
                        .theta_r_trace
                        .push(self.reconstruction.mesh().thetas());
                    observer(IterationEvent {
                        iteration: it,
                        loss_c,
                        loss_r,
                        accuracy,
                    });
                }
            }
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

    /// Mini-batch sample indices for this iteration (`None` = full batch).
    /// A seeded partial Fisher–Yates shuffle keyed on `(seed, iter)` keeps
    /// batched runs deterministic and thread-count invariant.
    fn batch_indices(&self, iter: usize) -> Option<Vec<usize>> {
        let bs = self.config.batch_size?;
        if bs >= self.inputs.len() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ 0xBA7C_4000 ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut idx: Vec<usize> = (0..self.inputs.len()).collect();
        for i in 0..bs {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(bs);
        Some(idx)
    }

    /// One gradient step on `U_C`. Returns (loss, gradient norm).
    fn step_compression(&mut self, iter: usize, opt: &mut dyn Optimizer) -> (Loss, f64) {
        let shots = self.config.shots;
        let seed = self.config.seed;
        let comp = &self.compression;
        let batch = self.batch_indices(iter);
        // Map batch-local indices back to dataset indices so per-sample
        // targets (Custom) and noise streams stay aligned.
        let global = |local: usize| batch.as_ref().map_or(local, |b| b[local]);
        let inputs: Vec<Vec<f64>> = match &batch {
            Some(b) => b.iter().map(|&i| self.inputs[i].clone()).collect(),
            None => self.inputs.clone(),
        };
        let residual = move |i: usize, out: &[f64], buf: &mut [f64]| {
            let gi = global(i);
            if shots == 0 {
                comp.residual(gi, out, buf);
            } else {
                let noisy = shot_noise(out, shots, seed, iter as u64, gi as u64);
                comp.residual(gi, &noisy, buf);
            }
        };
        let (sum, mut grad) =
            gradient::loss_and_gradient(comp.mesh(), &inputs, &residual, self.config.gradient);
        let loss = Loss::from_sum(sum, inputs.len(), self.config.dim);
        if self.config.normalize_gradient {
            let f = 1.0 / (inputs.len() * self.config.dim) as f64;
            for g in &mut grad {
                *g *= f;
            }
        }
        let gnorm = qn_linalg::vector::norm2(&grad);
        let mut thetas = self.compression.mesh().thetas();
        opt.step(&mut thetas, &grad);
        self.compression.mesh_mut().set_thetas(&thetas);
        (loss, gnorm)
    }

    /// One gradient step on `U_R`. Returns (loss, gradient norm).
    fn step_reconstruction(&mut self, iter: usize, opt: &mut dyn Optimizer) -> (Loss, f64) {
        let batch = self.batch_indices(iter);
        let batch_inputs: Vec<Vec<f64>> = match &batch {
            Some(b) => b.iter().map(|&i| self.inputs[i].clone()).collect(),
            None => self.inputs.clone(),
        };
        let compressed = compress_samples(&self.compression, &batch_inputs);
        let shots = self.config.shots;
        let seed = self.config.seed ^ 0x5A5A_5A5A;
        let global = |local: usize| batch.as_ref().map_or(local, |b| b[local]);
        let targets = &self.inputs;
        let residual = move |i: usize, out: &[f64], buf: &mut [f64]| {
            let gi = global(i);
            if shots == 0 {
                for (j, b) in buf.iter_mut().enumerate() {
                    *b = out[j] - targets[gi][j];
                }
            } else {
                let noisy = shot_noise(out, shots, seed, iter as u64, gi as u64);
                for (j, b) in buf.iter_mut().enumerate() {
                    *b = noisy[j] - targets[gi][j];
                }
            }
        };
        let (sum, mut grad) = gradient::loss_and_gradient(
            self.reconstruction.mesh(),
            &compressed,
            &residual,
            self.config.gradient,
        );
        let loss = Loss::from_sum(sum, batch_inputs.len(), self.config.dim);
        if self.config.normalize_gradient {
            let f = 1.0 / (batch_inputs.len() * self.config.dim) as f64;
            for g in &mut grad {
                *g *= f;
            }
        }
        let gnorm = qn_linalg::vector::norm2(&grad);
        let mut thetas = self.reconstruction.mesh().thetas();
        opt.step(&mut thetas, &grad);
        self.reconstruction.mesh_mut().set_thetas(&thetas);
        (loss, gnorm)
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
            metrics::mean_pixel_accuracy(&snapped, &self.images, self.config.accuracy_tol),
            metrics::mean_pixel_accuracy(&binarised, &self.images, self.config.accuracy_tol),
        )
    }

    /// Record one iteration into the history (joint schedule).
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        history: &mut TrainingHistory,
        loss_c: Loss,
        loss_r: Loss,
        gn_c: f64,
        gn_r: f64,
        accuracy: f64,
        accuracy_binary: f64,
    ) {
        history.compression_loss.push(loss_c);
        history.reconstruction_loss.push(loss_r);
        history.grad_norm_c.push(gn_c);
        history.grad_norm_r.push(gn_r);
        history.accuracy.push(accuracy);
        history.accuracy_binary.push(accuracy_binary);
        let tracked = &self.inputs[self.config.tracked_sample];
        history
            .compressed_trace
            .push(self.compression.forward(tracked));
        history.reconstructed_trace.push(
            self.reconstruction
                .reconstruct(&self.compression.compress(tracked)),
        );
        history.theta_c_trace.push(self.compression.mesh().thetas());
        history
            .theta_r_trace
            .push(self.reconstruction.mesh().thetas());
    }
}

/// `P1 U_C` over the trainer's samples. They are a few dozen `Vec`s;
/// the batch helpers take panels, so the trainer packs and unpacks at
/// this boundary.
fn compress_samples(compression: &CompressionNetwork, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let panels = panel::pack(samples, panel::DEFAULT_PANEL_WIDTH);
    panel::unpack(&compression.compress_batch(&panels))
}

/// Deterministic shot-noise model: estimate amplitudes from a multinomial
/// sample of `shots` measurements, with signs taken from the exact state.
/// The RNG stream depends only on `(seed, iter, sample)`, never on thread
/// scheduling, so noisy training is exactly reproducible.
fn shot_noise(out: &[f64], shots: usize, seed: u64, iter: u64, sample: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(
        seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ sample.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let total: f64 = out.iter().map(|a| a * a).sum();
    if total <= 0.0 {
        return out.to_vec();
    }
    let mut counts = vec![0u64; out.len()];
    for _ in 0..shots {
        let r: f64 = rng.random::<f64>() * total;
        let mut acc = 0.0;
        let mut chosen = out.len() - 1;
        for (j, a) in out.iter().enumerate() {
            acc += a * a;
            if r < acc {
                chosen = j;
                break;
            }
        }
        counts[chosen] += 1;
    }
    out.iter()
        .zip(&counts)
        .map(|(&a, &c)| {
            let p = c as f64 / shots as f64 * total;
            p.sqrt().copysign(if a == 0.0 { 1.0 } else { a })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionTargetKind;
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
        assert_eq!(h.theta_r_trace.len(), 5);
        assert_eq!(h.theta_c_trace[0].len(), 12 * 15);
        assert_eq!(h.theta_r_trace[0].len(), 14 * 15);
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
    fn observer_sees_every_iteration() {
        let data = datasets::paper_binary_16(6);
        let cfg = quick_config().with_iterations(7);
        let mut t = Trainer::new(cfg, &data).unwrap();
        let mut seen = Vec::new();
        t.train_with_observer(|ev| seen.push(ev.iteration)).unwrap();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_schedule_runs_both_phases() {
        let data = datasets::low_rank_binary(12, 4, 4, 4, 5);
        let cfg = quick_config()
            .with_iterations(20)
            .with_schedule(crate::config::TrainingSchedule::Sequential);
        let mut t = Trainer::new(cfg, &data).unwrap();
        let report = t.train().unwrap();
        assert_eq!(report.history.compression_loss.len(), 20);
        assert_eq!(report.history.reconstruction_loss.len(), 20);
        // Compression improved during phase 1.
        let h = &report.history;
        assert!(h.compression_loss.last().unwrap().sum <= h.compression_loss[0].sum);
    }

    #[test]
    fn uniform_target_trains_without_panicking() {
        let data = datasets::paper_binary_16(8);
        let cfg = quick_config()
            .with_iterations(5)
            .with_target(CompressionTargetKind::Uniform);
        let mut t = Trainer::new(cfg, &data).unwrap();
        let report = t.train().unwrap();
        assert!(report.final_compression_loss.is_finite());
    }

    #[test]
    fn shot_noise_is_deterministic_and_converges_to_exact() {
        let out = vec![0.6, -0.8, 0.0, 0.0];
        let a = shot_noise(&out, 1000, 1, 2, 3);
        let b = shot_noise(&out, 1000, 1, 2, 3);
        assert_eq!(a, b);
        let c = shot_noise(&out, 200_000, 1, 2, 3);
        assert!((c[0] - 0.6).abs() < 0.01);
        assert!((c[1] + 0.8).abs() < 0.01);
        // Zero state passes through.
        assert_eq!(shot_noise(&[0.0, 0.0], 100, 1, 1, 1), vec![0.0, 0.0]);
    }

    #[test]
    fn noisy_training_still_reduces_loss() {
        let data = datasets::low_rank_binary(10, 4, 4, 4, 9);
        let cfg = quick_config().with_iterations(30).with_shots(4096);
        let mut t = Trainer::new(cfg, &data).unwrap();
        let report = t.train().unwrap();
        let h = &report.history;
        assert!(
            h.compression_loss.last().unwrap().sum < h.compression_loss[0].sum,
            "noisy L_C did not improve"
        );
    }

    #[test]
    fn mini_batch_training_converges_and_is_deterministic() {
        let data = datasets::paper_binary_16(25);
        let cfg = quick_config().with_iterations(120).with_batch_size(Some(8));
        let r1 = Trainer::new(cfg.clone(), &data).unwrap().train().unwrap();
        let r2 = Trainer::new(cfg, &data).unwrap().train().unwrap();
        // Deterministic despite random batches.
        assert_eq!(r1.final_compression_loss, r2.final_compression_loss);
        // Still converges (stochastic, so a looser bar than full batch).
        assert!(
            r1.final_compression_loss < 0.05,
            "mini-batch L_C {}",
            r1.final_compression_loss
        );
        assert!(r1.max_accuracy_binary > 90.0);
    }

    #[test]
    fn oversized_batch_behaves_like_full_batch() {
        let data = datasets::paper_binary_16(10);
        let cfg = quick_config().with_iterations(10);
        let full = Trainer::new(cfg.clone(), &data).unwrap().train().unwrap();
        let over = Trainer::new(cfg.with_batch_size(Some(100)), &data)
            .unwrap()
            .train()
            .unwrap();
        assert_eq!(full.final_compression_loss, over.final_compression_loss);
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
