//! The CSC baseline pipeline of the paper's Sec. IV-C / Table I / Fig. 5.
//!
//! "In the CSC, we can use a sparse coding vector s and a dictionary D to
//! express the input y, denoted as y = Ds"; the dictionary is 16×16 and
//! learning is SVD-based (ref \[23\]). The pipeline alternates sparse
//! coding (FISTA ℓ₁ coding, or OMP with `sparsity` atoms — matched to the
//! quantum network's `d` compression channels) and a K-SVD dictionary
//! update, recording the per-iteration training loss and total wall-clock
//! time so the comparison rows of Table I can be regenerated.

use crate::dictionary::Dictionary;
use crate::ista;
use crate::ksvd::{ksvd_update, reconstruction_error};
use crate::mp::SparseCode;
use crate::omp;
use qn_image::{metrics, GrayImage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Sparse-coder selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparseCoder {
    /// FISTA ℓ₁ coding with the given λ and inner-iteration budget — the
    /// faithful model of the paper's reference \[23\] (an LCA/memristive
    /// sparse-coding network solves exactly this LASSO objective, soft
    /// thresholding included). The shrinkage bias keeps the training loss
    /// strictly positive, which is what Fig. 5c shows for CSC. Default.
    Fista {
        /// ℓ₁ weight λ.
        lambda: f64,
        /// Inner proximal-gradient iterations per sample per epoch.
        inner_iterations: usize,
    },
    /// Orthogonal matching pursuit with the configured sparsity — a
    /// *stronger* coder than the paper's.
    Omp,
}

/// Configuration of the CSC baseline. Dictionaries are always learned
/// by K-SVD (the paper's SVD-based reference) and accuracy uses Eq. 10's
/// tolerance ([`metrics::ACCURACY_TOL`]).
#[derive(Debug, Clone)]
pub struct CscConfig {
    /// Number of dictionary atoms `K` (paper: 16, square dictionary).
    pub atoms: usize,
    /// Atoms per code — the sparsity budget (matched to the QN's d = 4).
    pub sparsity: usize,
    /// Sparse-coding algorithm.
    pub coder: SparseCoder,
    /// Training iterations (matched to the QN's 150).
    pub iterations: usize,
    /// RNG seed for dictionary initialisation.
    pub seed: u64,
}

impl CscConfig {
    /// The paper's comparison setting: 16×16 dictionary, sparsity 4,
    /// FISTA coding, 150 iterations.
    pub fn paper_default() -> Self {
        CscConfig {
            atoms: 16,
            sparsity: 4,
            coder: SparseCoder::Fista {
                lambda: 0.05,
                inner_iterations: 150,
            },
            iterations: 150,
            seed: 7,
        }
    }
}

/// Outcome of a CSC training run.
#[derive(Debug, Clone)]
pub struct CscReport {
    /// Total squared training loss `Σ_i ‖y_i − D s_i‖²` per iteration
    /// (the CSC curve of Fig. 5c).
    pub loss: Vec<f64>,
    /// Per-element mean loss per iteration (comparable to the QN's
    /// mean-normalised `L_C`).
    pub loss_mean: Vec<f64>,
    /// Eq. 10 accuracy (%) of snapped reconstructions, per iteration.
    pub accuracy: Vec<f64>,
    /// Accuracy (%) after binary thresholding at 0.5 (§IV-B rule), per
    /// iteration.
    pub accuracy_binary: Vec<f64>,
    /// Best accuracy over training (Table I's accuracy row).
    pub max_accuracy: f64,
    /// Best binary-threshold accuracy over training.
    pub max_accuracy_binary: f64,
    /// Wall-clock seconds (Table I's "CPU runs" row).
    pub train_seconds: f64,
    /// Dictionary size as "K×N" (Table I's "matrix size" row).
    pub matrix_size: String,
}

/// The trainable CSC pipeline.
pub struct CscPipeline {
    config: CscConfig,
    dict: Dictionary,
    images: Vec<GrayImage>,
    samples: Vec<Vec<f64>>,
}

impl CscPipeline {
    /// Initialise from an image set (vectors are the raw pixel vectors;
    /// unlike the quantum pipeline no normalisation is needed).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new(config: CscConfig, images: &[GrayImage]) -> Self {
        assert!(!images.is_empty(), "csc: empty dataset");
        let samples: Vec<Vec<f64>> = images.iter().map(|i| i.to_vector()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dict = Dictionary::from_samples(&samples, config.atoms, &mut rng);
        CscPipeline {
            config,
            dict,
            images: images.to_vec(),
            samples,
        }
    }

    /// Borrow the current dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Sparse-code the whole dataset with the configured coder.
    fn code_batch(&self) -> Vec<SparseCode> {
        match self.config.coder {
            SparseCoder::Omp => omp::batch(&self.dict, &self.samples, self.config.sparsity, 1e-12),
            SparseCoder::Fista {
                lambda,
                inner_iterations,
            } => qn_linalg::parallel::par_map_indexed(self.samples.len(), |i| {
                let r = ista::fista(&self.dict, &self.samples[i], lambda, inner_iterations);
                let approx = self.dict.synthesize(&r.coefficients);
                let residual: Vec<f64> = self.samples[i]
                    .iter()
                    .zip(&approx)
                    .map(|(a, b)| a - b)
                    .collect();
                SparseCode {
                    coefficients: r.coefficients,
                    residual_norm: qn_linalg::vector::norm2(&residual),
                }
            }),
        }
    }

    /// Train: alternate sparse coding and dictionary updates, recording
    /// loss/accuracy per iteration and the total wall time.
    pub fn train(&mut self) -> CscReport {
        let start = Instant::now();
        let m = self.samples.len();
        let n = self.dict.signal_dim();
        let mut loss = Vec::with_capacity(self.config.iterations);
        let mut accuracy = Vec::with_capacity(self.config.iterations);
        let mut accuracy_binary = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            let mut codes = self.code_batch();
            loss.push(reconstruction_error(&self.dict, &codes, &self.samples));
            let (snap, binary) = self.evaluate_accuracy(&codes);
            accuracy.push(snap);
            accuracy_binary.push(binary);
            ksvd_update(&mut self.dict, &mut codes, &self.samples);
        }
        let max_accuracy = accuracy.iter().copied().fold(0.0, f64::max);
        let max_accuracy_binary = accuracy_binary.iter().copied().fold(0.0, f64::max);
        CscReport {
            loss_mean: loss.iter().map(|l| l / (m * n) as f64).collect(),
            loss,
            accuracy,
            accuracy_binary,
            max_accuracy,
            max_accuracy_binary,
            train_seconds: start.elapsed().as_secs_f64(),
            matrix_size: format!("{}x{}", self.dict.signal_dim(), self.dict.atom_count()),
        }
    }

    /// Reconstruct every image with the current dictionary and codes.
    pub fn reconstruct_images(&self) -> Vec<GrayImage> {
        let codes = self.code_batch();
        codes
            .iter()
            .zip(&self.images)
            .map(|(c, img)| {
                let y = self.dict.synthesize(&c.coefficients);
                GrayImage::from_pixels(img.width(), img.height(), y).expect("dimensions preserved")
            })
            .collect()
    }

    /// Returns `(snap accuracy, binary-threshold accuracy)`.
    fn evaluate_accuracy(&self, codes: &[crate::mp::SparseCode]) -> (f64, f64) {
        let decoded: Vec<GrayImage> = codes
            .iter()
            .zip(&self.images)
            .map(|(c, img)| {
                let y = self.dict.synthesize(&c.coefficients);
                GrayImage::from_pixels(img.width(), img.height(), y).expect("dimensions preserved")
            })
            .collect();
        let snapped: Vec<GrayImage> = decoded.iter().map(GrayImage::snapped).collect();
        let binarised: Vec<GrayImage> = decoded.iter().map(|d| d.thresholded(0.5)).collect();
        (
            metrics::mean_pixel_accuracy(&snapped, &self.images, metrics::ACCURACY_TOL),
            metrics::mean_pixel_accuracy(&binarised, &self.images, metrics::ACCURACY_TOL),
        )
    }

    /// Binary-threshold accuracy of the current model (§IV-B rule).
    pub fn binary_accuracy(&self) -> f64 {
        let recons: Vec<GrayImage> = self
            .reconstruct_images()
            .iter()
            .map(|r| r.thresholded(0.5))
            .collect();
        metrics::mean_pixel_accuracy(&recons, &self.images, metrics::ACCURACY_TOL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_image::datasets;

    fn quick_config() -> CscConfig {
        CscConfig {
            iterations: 20,
            // OMP keeps the quick tests crisp; the FISTA default is
            // exercised by `fista_coder_plateaus_above_zero`.
            coder: SparseCoder::Omp,
            ..CscConfig::paper_default()
        }
    }

    #[test]
    fn paper_default_matches_table_i_setting() {
        let c = CscConfig::paper_default();
        assert_eq!(c.atoms, 16);
        assert_eq!(c.iterations, 150);
        assert_eq!(c.sparsity, 4);
    }

    #[test]
    fn training_reduces_loss_on_paper_data() {
        let data = datasets::paper_binary_16(25);
        let mut p = CscPipeline::new(quick_config(), &data);
        let report = p.train();
        assert_eq!(report.loss.len(), 20);
        let first = report.loss[0];
        let last = *report.loss.last().unwrap();
        assert!(last <= first, "loss grew: {first} → {last}");
        assert_eq!(report.matrix_size, "16x16");
        assert!(report.train_seconds > 0.0);
        // Mean normalisation is consistent.
        assert!((report.loss_mean[0] - first / 400.0).abs() < 1e-12);
    }

    #[test]
    fn rank4_data_is_reconstructed_well() {
        // 25 samples of exactly rank 4 with sparsity 4 and a 16-atom
        // dictionary: K-SVD should drive the loss near zero.
        let data = datasets::low_rank_binary(25, 4, 4, 4, 31);
        let mut p = CscPipeline::new(quick_config(), &data);
        let report = p.train();
        let last = *report.loss.last().unwrap();
        assert!(last < 0.5, "final loss {last}");
        assert!(p.binary_accuracy() > 90.0);
    }

    #[test]
    fn reconstructions_have_image_dimensions() {
        let data = datasets::paper_binary_16(10);
        let p = CscPipeline::new(quick_config(), &data);
        let recons = p.reconstruct_images();
        assert_eq!(recons.len(), 10);
        assert!(recons.iter().all(|r| r.width() == 4 && r.height() == 4));
    }

    #[test]
    fn fista_coder_plateaus_above_zero() {
        // The ℓ₁ shrinkage bias keeps the training loss strictly positive
        // even on exactly rank-4 data — the CSC behaviour of Fig. 5c.
        let data = datasets::paper_binary_16(25);
        let cfg = CscConfig {
            iterations: 15,
            ..CscConfig::paper_default()
        };
        let mut p = CscPipeline::new(cfg, &data);
        let report = p.train();
        let last = *report.loss.last().unwrap();
        assert!(
            last > 1e-3,
            "shrinkage bias should keep loss positive: {last}"
        );
        assert!(last < report.loss[0] * 2.0 + 1.0, "loss exploded: {last}");
        assert_eq!(report.accuracy_binary.len(), 15);
    }

    #[test]
    fn training_is_deterministic() {
        let data = datasets::paper_binary_16(12);
        let r1 = CscPipeline::new(quick_config(), &data).train();
        let r2 = CscPipeline::new(quick_config(), &data).train();
        assert_eq!(r1.loss, r2.loss);
        assert_eq!(r1.accuracy, r2.accuracy);
    }
}
