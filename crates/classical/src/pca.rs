//! PCA compression — the classically-simulable content of the
//! quantum-PCA algorithm the paper cites for comparison (ref \[11\], Yu et
//! al., "Quantum data compression by principal component analysis").
//!
//! qPCA's output on classical data *is* the principal subspace of the
//! data's covariance/second-moment matrix; this module computes it with
//! the Jacobi eigensolver and offers compress/reconstruct in the same
//! `d`-dimensional regime as the quantum network.

use qn_linalg::sym_eig::sym_eig;
use qn_linalg::{LinalgError, Matrix};

/// A fitted PCA compressor.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Component matrix, `d × N` (rows are principal directions).
    components: Matrix,
    /// Mean vector subtracted before projection.
    mean: Vec<f64>,
    /// Eigenvalues (variances) of the kept components, descending.
    pub explained: Vec<f64>,
    /// Sum of all eigenvalues (total variance).
    pub total_variance: f64,
}

impl Pca {
    /// Fit a `d`-component PCA to the samples.
    ///
    /// # Errors
    /// - [`LinalgError::InvalidArgument`] for an empty batch or `d` larger
    ///   than the dimension.
    /// - Propagates eigensolver failures.
    pub fn fit(samples: &[Vec<f64>], d: usize) -> Result<Self, LinalgError> {
        let m = samples.len();
        if m == 0 {
            return Err(LinalgError::InvalidArgument("pca: empty batch".into()));
        }
        let n = samples[0].len();
        if d == 0 || d > n {
            return Err(LinalgError::InvalidArgument(format!(
                "pca: d={d} out of range for dimension {n}"
            )));
        }
        let mut mean = vec![0.0; n];
        for s in samples {
            for (mi, &si) in mean.iter_mut().zip(s) {
                *mi += si;
            }
        }
        for mi in &mut mean {
            *mi /= m as f64;
        }
        // Covariance (biased; scale does not affect the eigenvectors).
        let mut cov = Matrix::zeros(n, n);
        for s in samples {
            let centred: Vec<f64> = s.iter().zip(&mean).map(|(a, b)| a - b).collect();
            for i in 0..n {
                if centred[i] == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = cov.get(i, j) + centred[i] * centred[j] / m as f64;
                    cov.set(i, j, v);
                }
            }
        }
        let eig = sym_eig(&cov)?;
        let mut components = Matrix::zeros(d, n);
        for r in 0..d {
            for c in 0..n {
                components.set(r, c, eig.eigenvectors.get(c, r));
            }
        }
        let total_variance: f64 = eig.eigenvalues.iter().map(|&l| l.max(0.0)).sum();
        Ok(Pca {
            components,
            mean,
            explained: eig.eigenvalues[..d].to_vec(),
            total_variance,
        })
    }

    /// Number of kept components `d`.
    pub fn components(&self) -> usize {
        self.components.rows()
    }

    /// Project a sample to its `d` principal coordinates.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn compress(&self, x: &[f64]) -> Vec<f64> {
        let centred: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
        self.components
            .matvec(&centred)
            .expect("dimension checked at fit")
    }

    /// Reconstruct from principal coordinates.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn reconstruct(&self, z: &[f64]) -> Vec<f64> {
        let mut x = self
            .components
            .matvec_t(z)
            .expect("dimension checked at fit");
        for (xi, mi) in x.iter_mut().zip(&self.mean) {
            *xi += mi;
        }
        x
    }

    /// Round-trip a sample through compression.
    pub fn roundtrip(&self, x: &[f64]) -> Vec<f64> {
        self.reconstruct(&self.compress(x))
    }

    /// Fraction of variance captured by the kept components.
    pub fn explained_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 1.0;
        }
        self.explained.iter().map(|&l| l.max(0.0)).sum::<f64>() / self.total_variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Vec<Vec<f64>> {
        // Points on the line (t, 2t, 0) + noise-free: exactly rank 1
        // after centring.
        (0..10)
            .map(|i| {
                let t = i as f64 - 4.5;
                vec![t, 2.0 * t, 0.0]
            })
            .collect()
    }

    #[test]
    fn fit_validates_arguments() {
        assert!(Pca::fit(&[], 1).is_err());
        assert!(Pca::fit(&line_data(), 0).is_err());
        assert!(Pca::fit(&line_data(), 4).is_err());
    }

    #[test]
    fn rank1_data_is_perfectly_reconstructed_with_one_component() {
        let data = line_data();
        let pca = Pca::fit(&data, 1).unwrap();
        assert!((pca.explained_ratio() - 1.0).abs() < 1e-10);
        for x in &data {
            let back = pca.roundtrip(x);
            for (a, b) in back.iter().zip(x) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn first_component_is_dominant_direction() {
        let pca = Pca::fit(&line_data(), 1).unwrap();
        let c = pca.components.row(0);
        // Direction ∝ (1, 2, 0)/√5.
        let expect = [1.0 / 5.0_f64.sqrt(), 2.0 / 5.0_f64.sqrt(), 0.0];
        let align: f64 = c.iter().zip(&expect).map(|(a, b)| a * b).sum();
        assert!(align.abs() > 0.999, "alignment {align}");
    }

    #[test]
    fn more_components_reconstruct_better() {
        let data: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.7).sin()).collect())
            .collect();
        let mut prev = f64::INFINITY;
        for d in 1..=4 {
            let pca = Pca::fit(&data, d).unwrap();
            let err: f64 = data
                .iter()
                .map(|x| {
                    let back = pca.roundtrip(x);
                    x.iter()
                        .zip(&back)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .sum();
            assert!(err <= prev + 1e-10, "d={d}: {err} > {prev}");
            prev = err;
        }
    }

    #[test]
    fn compress_has_d_coordinates() {
        let data = line_data();
        let pca = Pca::fit(&data, 2).unwrap();
        assert_eq!(pca.components(), 2);
        assert_eq!(pca.compress(&data[0]).len(), 2);
        assert_eq!(pca.reconstruct(&[0.0, 0.0]).len(), 3);
    }
}
