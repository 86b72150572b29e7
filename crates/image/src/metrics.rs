//! Image-quality metrics, including the paper's accuracy definition.

use crate::image::GrayImage;

/// Mean squared error between two images.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn mse(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "mse: image dimensions differ"
    );
    if a.is_empty() {
        return 0.0;
    }
    a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        / a.len() as f64
}

/// Peak signal-to-noise ratio in dB (peak = 1.0). Returns `f64::INFINITY`
/// for identical images.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn psnr(a: &GrayImage, b: &GrayImage) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        return f64::INFINITY;
    }
    -10.0 * m.log10()
}

/// Global SSIM (single window covering the whole image — appropriate for
/// the tiny 4×4…16×16 images in this workspace).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn ssim(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "ssim: image dimensions differ"
    );
    let n = a.len() as f64;
    if n == 0.0 {
        return 1.0;
    }
    let mean = |img: &GrayImage| img.pixels().iter().sum::<f64>() / n;
    let mu_a = mean(a);
    let mu_b = mean(b);
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    let mut cov = 0.0;
    for (&x, &y) in a.pixels().iter().zip(b.pixels()) {
        var_a += (x - mu_a) * (x - mu_a);
        var_b += (y - mu_b) * (y - mu_b);
        cov += (x - mu_a) * (y - mu_b);
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    // Standard stabilisation constants for dynamic range 1.0.
    let c1 = 0.01_f64.powi(2);
    let c2 = 0.03_f64.powi(2);
    ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
        / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
}

/// Eq. 10's tolerance: a reconstructed pixel within 0.01 of its target
/// counts as similar.
pub const ACCURACY_TOL: f64 = 0.01;

/// The paper's accuracy (Eq. 10): the fraction of pixel positions where
/// `|x̂ − x| ≤ tol` (paper: [`ACCURACY_TOL`]), as a percentage. The paper
/// applies its snap adjustment (≤0.01→0, ≥0.99→1) to the reconstruction
/// before counting; pass the output of [`GrayImage::snapped`] to follow
/// §IV-B exactly.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn pixel_accuracy(reconstruction: &GrayImage, target: &GrayImage, tol: f64) -> f64 {
    assert_eq!(
        (reconstruction.width(), reconstruction.height()),
        (target.width(), target.height()),
        "accuracy: image dimensions differ"
    );
    if reconstruction.is_empty() {
        return 100.0;
    }
    let similar = reconstruction
        .pixels()
        .iter()
        .zip(target.pixels())
        .filter(|(x, y)| (*x - *y).abs() <= tol)
        .count();
    similar as f64 / reconstruction.len() as f64 * 100.0
}

/// Mean accuracy over a dataset (Eq. 10 averaged over the M samples).
///
/// # Panics
/// Panics on length or dimension mismatch.
pub fn mean_pixel_accuracy(reconstructions: &[GrayImage], targets: &[GrayImage], tol: f64) -> f64 {
    assert_eq!(
        reconstructions.len(),
        targets.len(),
        "accuracy: sample counts differ"
    );
    if reconstructions.is_empty() {
        return 100.0;
    }
    reconstructions
        .iter()
        .zip(targets)
        .map(|(r, t)| pixel_accuracy(r, t, tol))
        .sum::<f64>()
        / reconstructions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(pixels: &[f64]) -> GrayImage {
        GrayImage::from_pixels(pixels.len(), 1, pixels.to_vec()).unwrap()
    }

    #[test]
    fn mse_and_psnr_basics() {
        let a = img(&[0.0, 1.0]);
        let b = img(&[0.0, 1.0]);
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(psnr(&a, &b), f64::INFINITY);
        let c = img(&[0.5, 1.0]);
        assert!((mse(&a, &c) - 0.125).abs() < 1e-15);
        assert!((psnr(&a, &c) - (-10.0 * 0.125_f64.log10())).abs() < 1e-12);
    }

    #[test]
    fn ssim_bounds_and_identity() {
        let a = img(&[0.1, 0.9, 0.4, 0.6]);
        assert!((ssim(&a, &a) - 1.0).abs() < 1e-12);
        let b = img(&[0.9, 0.1, 0.6, 0.4]); // anti-correlated
        assert!(ssim(&a, &b) < 0.5);
    }

    #[test]
    fn psnr_of_identical_images_is_the_infinity_sentinel() {
        // The documented sentinel for a lossless reconstruction is
        // +∞ (not NaN, not a large finite cap): the eval harness maps
        // it to its JSON sentinel and relies on `is_infinite()`.
        let a = img(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        let p = psnr(&a, &a.clone());
        assert!(p.is_infinite() && p > 0.0);
        // One ulp of difference must already be finite.
        let mut b = a.clone();
        b.pixels_mut()[2] = 0.5 + 1e-9;
        assert!(psnr(&a, &b).is_finite());
        assert!(psnr(&a, &b) > 150.0);
    }

    #[test]
    fn ssim_is_stable_on_constant_images() {
        // Zero variance and zero covariance: only the stabilisation
        // constants keep the ratio defined. Identical constants → 1.
        let a = img(&[0.5; 6]);
        assert!((ssim(&a, &a.clone()) - 1.0).abs() < 1e-15);
        let zero = img(&[0.0; 6]);
        assert!((ssim(&zero, &zero.clone()) - 1.0).abs() < 1e-15);
        // Different constants: finite, in (0, 1), and exactly the
        // luminance term 0.4201/0.5801 (contrast term cancels to 1).
        let b = img(&[0.3; 6]);
        let c = img(&[0.7; 6]);
        let s = ssim(&b, &c);
        assert!(s.is_finite());
        assert!((s - 0.4201 / 0.5801).abs() < 1e-12, "ssim {s}");
    }

    #[test]
    fn ssim_known_value_fixtures() {
        // Hand-computed through the global-SSIM definition with
        // c1 = 1e-4, c2 = 9e-4 — these pin the eval subsystem's SSIM
        // numbers at the metric level.
        //
        // a = [0, 1], b = [0, 0.5]: μa = 0.5, μb = 0.25, σa² = 0.25,
        // σb² = 0.0625, cov = 0.125 →
        //   (0.2501·0.2509)/(0.3126·0.3134) = 0.06275009/0.09796884.
        let a = img(&[0.0, 1.0]);
        let b = img(&[0.0, 0.5]);
        assert!((ssim(&a, &b) - 0.06275009 / 0.09796884).abs() < 1e-12);
        assert!((ssim(&a, &b) - 0.640_510_7).abs() < 1e-6);
        // Orthogonal patterns (cov = 0), equal means and variances:
        //   (0.5001·0.0009)/(0.5001·0.1259) = 0.0009/0.1259.
        let c = img(&[0.25, 0.75, 0.25, 0.75]);
        let d = img(&[0.25, 0.25, 0.75, 0.75]);
        assert!((ssim(&c, &d) - 0.0009 / 0.1259).abs() < 1e-12);
        assert!((ssim(&c, &d) - 0.007_148_5).abs() < 1e-6);
        // Symmetry holds on both fixtures.
        assert_eq!(ssim(&a, &b), ssim(&b, &a));
        assert_eq!(ssim(&c, &d), ssim(&d, &c));
    }

    #[test]
    fn paper_accuracy_counts_close_pixels() {
        let target = img(&[0.0, 1.0, 1.0, 0.0]);
        let recon = img(&[0.005, 0.995, 0.5, 0.0]);
        // With the paper's snap rule the first two become exact.
        let snapped = recon.snapped();
        let acc = pixel_accuracy(&snapped, &target, 0.01);
        assert!((acc - 75.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_reconstruction_is_100_percent() {
        let t = img(&[0.0, 1.0, 1.0]);
        assert_eq!(pixel_accuracy(&t, &t, 0.01), 100.0);
    }

    #[test]
    fn mean_accuracy_averages() {
        let t = img(&[0.0, 1.0]);
        let perfect = t.clone();
        let half = img(&[0.0, 0.5]);
        let acc = mean_pixel_accuracy(&[perfect, half], &[t.clone(), t], 0.01);
        assert!((acc - 75.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn dimension_mismatch_panics() {
        mse(&img(&[0.0]), &img(&[0.0, 1.0]));
    }
}
