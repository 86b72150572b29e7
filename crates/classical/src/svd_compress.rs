//! Plain low-rank SVD image compression.
//!
//! The simplest classical point of comparison: treat the whole dataset as
//! an `M × N` matrix and keep its top-`r` singular triplets (Eckart–Young
//! optimal). Gives the information-theoretic floor any rank-`r` method —
//! including the quantum network with `d = r` — is bounded by.

use qn_image::GrayImage;
use qn_linalg::svd::svd;
use qn_linalg::{LinalgError, Matrix};

/// Compress a dataset to rank `r` and return the reconstructed images
/// together with the total squared error.
///
/// # Errors
/// Propagates SVD errors (empty input).
pub fn compress_dataset(
    images: &[GrayImage],
    r: usize,
) -> Result<(Vec<GrayImage>, f64), LinalgError> {
    if images.is_empty() {
        return Err(LinalgError::InvalidArgument(
            "svd_compress: empty dataset".into(),
        ));
    }
    let rows: Vec<Vec<f64>> = images.iter().map(|i| i.to_vector()).collect();
    let y = Matrix::from_rows(&rows)?;
    let d = svd(&y)?;
    let approx = d.truncate(r);
    let err = approx.sub(&y)?.data().iter().map(|v| v * v).sum::<f64>();
    let recons = images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            GrayImage::from_pixels(img.width(), img.height(), approx.row(i).to_vec())
                .expect("dimensions preserved")
        })
        .collect();
    Ok((recons, err))
}

/// Factor a dataset into its rank-`r` code/basis pair: per-image
/// coefficients `C = U_r Σ_r` (`M × r`) and the shared basis `B = V_rᵀ`
/// (`r × N`), so `C · B` is the Eckart–Young optimal rank-`r`
/// approximation. This is the storage view of SVD compression — an
/// evaluation harness can quantize the `r` coefficients per image and
/// amortize the basis across the dataset, the same accounting the
/// quantum codec's latents-per-tile format uses.
///
/// # Errors
/// Propagates SVD errors; [`LinalgError::InvalidArgument`] for an empty
/// dataset or `r` outside `1..=min(M, N)`.
pub fn factor_dataset(images: &[GrayImage], r: usize) -> Result<(Matrix, Matrix), LinalgError> {
    if images.is_empty() {
        return Err(LinalgError::InvalidArgument(
            "svd_compress: empty dataset".into(),
        ));
    }
    let rows: Vec<Vec<f64>> = images.iter().map(|i| i.to_vector()).collect();
    let y = Matrix::from_rows(&rows)?;
    let (m, n) = y.shape();
    if r == 0 || r > m.min(n) {
        return Err(LinalgError::InvalidArgument(format!(
            "svd_compress: rank {r} out of range for a {m}x{n} dataset"
        )));
    }
    let d = svd(&y)?;
    let mut coeffs = Matrix::zeros(m, r);
    for i in 0..m {
        for j in 0..r {
            coeffs.set(i, j, d.u.get(i, j) * d.singular_values[j]);
        }
    }
    let mut basis = Matrix::zeros(r, n);
    for j in 0..r {
        for k in 0..n {
            basis.set(j, k, d.v.get(k, j));
        }
    }
    Ok((coeffs, basis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_image::datasets;

    #[test]
    fn rank4_dataset_compresses_losslessly_at_rank_4() {
        let data = datasets::paper_binary_16(25);
        let (recons, err) = compress_dataset(&data, 4).unwrap();
        assert!(err < 1e-18, "error {err}");
        assert_eq!(recons.len(), 25);
        for (r, o) in recons.iter().zip(&data) {
            for (a, b) in r.pixels().iter().zip(o.pixels()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn compress_error_matches_floor() {
        let data = datasets::paper_binary_16_hard(25);
        let (_, err) = compress_dataset(&data, 4).unwrap();
        // Eckart–Young: the rank-4 floor is the tail of the squared
        // singular values.
        let rows: Vec<Vec<f64>> = data.iter().map(|i| i.to_vector()).collect();
        let sv = svd(&Matrix::from_rows(&rows).unwrap())
            .unwrap()
            .singular_values;
        let floor: f64 = sv.iter().skip(4).map(|s| s * s).sum();
        assert!(floor > 0.1, "the hard dataset is not rank 4");
        assert!((err - floor).abs() < 1e-8, "{err} vs {floor}");
    }

    #[test]
    fn factored_code_basis_product_matches_truncation() {
        let data = datasets::paper_binary_16_hard(25);
        let (coeffs, basis) = factor_dataset(&data, 4).unwrap();
        assert_eq!(coeffs.shape(), (25, 4));
        assert_eq!(basis.shape(), (4, 16));
        // C · B equals the direct rank-4 reconstruction.
        let (recons, _) = compress_dataset(&data, 4).unwrap();
        let product = coeffs.matmul(&basis).unwrap();
        for (i, img) in recons.iter().enumerate() {
            for (j, &p) in img.pixels().iter().enumerate() {
                assert!((product.get(i, j) - p).abs() < 1e-9, "pixel ({i},{j})");
            }
        }
        // Out-of-range ranks are rejected.
        assert!(factor_dataset(&data, 0).is_err());
        assert!(factor_dataset(&data, 17).is_err());
    }

    #[test]
    fn empty_input_errors() {
        assert!(compress_dataset(&[], 2).is_err());
        assert!(factor_dataset(&[], 2).is_err());
    }
}
