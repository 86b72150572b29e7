//! Free functions on `&[f64]` slices.
//!
//! These are the innermost kernels of the whole workspace: every forward
//! pass through a quantum network and every sparse-coding iteration bottoms
//! out in dot products, axpys and norms. They are written allocation-free
//! and simple enough for the compiler to auto-vectorise.

/// Dot product `x · y`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`, computed with a scaling pass to avoid overflow
/// for very large entries (the classic hypot-style rescaling).
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max.is_finite() { 0.0 } else { f64::INFINITY };
    }
    let sum: f64 = x.iter().map(|&v| (v / max) * (v / max)).sum();
    max * sum.sqrt()
}

/// 1-norm `‖x‖₁`.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// `y ← y + alpha * x` (the BLAS axpy).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalise `x` to unit Euclidean norm in place and return the original
/// norm. A zero vector is left unchanged and `0.0` is returned.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        let inv = 1.0 / n;
        scale(inv, x);
    }
    n
}

/// Element-wise difference `x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Mean squared error between two vectors.
#[inline]
pub fn mse(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "mse: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / x.len() as f64
}

/// Index and value of the element with the largest absolute value.
/// Returns `None` for an empty slice.
pub fn argmax_abs(x: &[f64]) -> Option<(usize, f64)> {
    x.iter()
        .enumerate()
        .map(|(i, &v)| (i, v))
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
}

/// True when `‖x − y‖∞ ≤ tol`.
pub fn approx_eq(x: &[f64], y: &[f64], tol: f64) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_does_not_overflow_for_huge_entries() {
        let big = f64::MAX / 4.0;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        let expected = big * 2.0_f64.sqrt();
        assert!((n - expected).abs() / expected < 1e-14);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn normalize_returns_norm_and_unit_result() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_squared_error() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    fn argmax_abs_finds_largest_magnitude() {
        assert_eq!(argmax_abs(&[1.0, -5.0, 3.0]), Some((1, -5.0)));
        assert_eq!(argmax_abs(&[]), None);
    }

    #[test]
    fn approx_eq_tolerances() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-9, 2.0], 1e-8));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-8));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1.0));
    }
}
