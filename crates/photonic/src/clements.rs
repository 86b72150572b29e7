//! Clements rectangular decomposition (ref \[19\] of the paper: Clements,
//! Humphreys, Metcalf, Kolthammer & Walmsley, *Optimal design for
//! universal multiport interferometers*, Optica 2016), specialised to real
//! orthogonal matrices.
//!
//! The rectangular scheme interleaves left- and right-multiplications so
//! the resulting circuit has optical depth `N` instead of the Reck
//! triangle's `2N−3`. The sweep zeroes sub-diagonals from the bottom-left
//! corner: even anti-diagonals by column rotations applied from the right,
//! odd anti-diagonals by row rotations applied from the left.

use crate::beamsplitter::BeamSplitter;
use crate::sequence::GateSequence;
use qn_linalg::givens::Givens;
use qn_linalg::{LinalgError, Matrix};

/// Decompose an orthogonal matrix `u` into a [`GateSequence`] in the
/// rectangular (Clements) pattern, such that `S.as_matrix() == u`.
///
/// # Errors
/// - [`LinalgError::ShapeMismatch`] for non-square input.
/// - [`LinalgError::InvalidArgument`] when `u` is not orthogonal to `tol`.
pub fn clements_decompose(u: &Matrix, tol: f64) -> Result<GateSequence, LinalgError> {
    if !u.is_square() {
        return Err(LinalgError::ShapeMismatch(format!(
            "clements: {}x{} not square",
            u.rows(),
            u.cols()
        )));
    }
    if !u.is_orthogonal(tol) {
        return Err(LinalgError::InvalidArgument(
            "clements: input is not orthogonal".to_string(),
        ));
    }
    let n = u.rows();
    let mut m = u.clone();
    // Left rotations (mode, θ) in application order: M ← G(θ) · M on rows.
    let mut left: Vec<(usize, f64)> = Vec::new();
    // Right rotations (mode, t) in application order: M ← M · G(t)ᵀ on
    // columns (this is what `Givens::apply_cols` computes).
    let mut right: Vec<(usize, f64)> = Vec::new();

    for l in 0..n.saturating_sub(1) {
        if l % 2 == 0 {
            // Zero (n−1−k, l−k) for k = 0..=l by mixing columns
            // (l−k, l−k+1) from the right.
            for k in 0..=l {
                let row = n - 1 - k;
                let col = l - k;
                let a = m.get(row, col);
                let b = m.get(row, col + 1);
                if a.abs() <= 1e-300 {
                    continue;
                }
                // New entry: c·a − s·b = 0 → t = atan2(a, b).
                let t = a.atan2(b);
                let g = Givens::from_angle(t);
                g.apply_cols(&mut m, col, col + 1);
                m.set(row, col, 0.0);
                right.push((col, t));
            }
        } else {
            // Zero (n−1−l+j, j) for j = 0..=l by mixing rows
            // (row−1, row) from the left.
            for j in 0..=l {
                let row = n - 1 - l + j;
                let col = j;
                let a = m.get(row - 1, col);
                let b = m.get(row, col);
                if b.abs() <= 1e-300 {
                    continue;
                }
                // New entry: s·a + c·b = 0 → θ = atan2(−b, a).
                let theta = (-b).atan2(a);
                let g = Givens::from_angle(theta);
                g.apply_rows(&mut m, row - 1, row);
                m.set(row, col, 0.0);
                left.push((row - 1, theta));
            }
        }
    }

    // m is now diagonal (orthogonal + triangular in both sweeps) of ±1.
    let signs: Vec<f64> = (0..n)
        .map(|i| if m.get(i, i) >= 0.0 { 1.0 } else { -1.0 })
        .collect();

    // L_p ⋯ L_1 · U · R̂_1 ⋯ R̂_q = D  with R̂_i = G(t_i)ᵀ, so
    // U = L_1ᵀ ⋯ L_pᵀ · D · G(t_q) ⋯ G(t_1).
    // Acting on a vector the application order is:
    //   G(t_1), …, G(t_q), D, L_pᵀ, …, L_1ᵀ.
    // Push D to the tail through the left-rotation transposes using
    // D·G(θ)·D = G(σθ) with σ = d_k·d_{k+1}.
    let mut seq = GateSequence::new(n);
    for &(k, t) in &right {
        seq.push(BeamSplitter::real(k, t));
    }
    for &(k, theta) in left.iter().rev() {
        let sigma = signs[k] * signs[k + 1];
        seq.push(BeamSplitter::real(k, -(theta * sigma)));
    }
    if signs.iter().any(|&s| s < 0.0) {
        seq.set_signs(signs);
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::random::haar_orthogonal;

    fn roundtrip_error(u: &Matrix) -> f64 {
        let seq = clements_decompose(u, 1e-10).unwrap();
        seq.as_matrix().max_abs_diff(u).unwrap()
    }

    #[test]
    fn identity_is_empty() {
        let id = Matrix::identity(5);
        let seq = clements_decompose(&id, 1e-12).unwrap();
        assert_eq!(seq.len(), 0);
        assert!(roundtrip_error(&id) < 1e-14);
    }

    #[test]
    fn haar_random_matrices_roundtrip_exactly() {
        for (i, n) in [2usize, 3, 4, 5, 8, 16].iter().enumerate() {
            let u = haar_orthogonal(*n, 4242 + i as u64);
            let err = roundtrip_error(&u);
            assert!(err < 1e-10, "n={n}: error {err}");
        }
    }

    #[test]
    fn gate_count_matches_triangular_bound() {
        let u = haar_orthogonal(8, 77);
        let seq = clements_decompose(&u, 1e-10).unwrap();
        assert_eq!(seq.len(), 8 * 7 / 2);
    }

    #[test]
    fn rectangular_depth_is_at_most_n_plus_one() {
        // Optical depth: longest chain of gates touching a common mode.
        // The rectangular pattern keeps it ≈ N (a triangle needs ≈ 2N−3).
        let n = 10;
        let u = haar_orthogonal(n, 31);
        let mut mode_depth = vec![0usize; n];
        for g in clements_decompose(&u, 1e-10).unwrap().gates() {
            let d = mode_depth[g.mode].max(mode_depth[g.mode + 1]) + 1;
            mode_depth[g.mode] = d;
            mode_depth[g.mode + 1] = d;
        }
        let depth = mode_depth.into_iter().max().unwrap();
        assert!(depth <= n + 1, "rect depth {depth}");
    }

    #[test]
    fn reflections_and_permutations() {
        let mut refl = Matrix::identity(4);
        refl.set(0, 0, -1.0);
        assert!(roundtrip_error(&refl) < 1e-12);

        let mut p = Matrix::zeros(5, 5);
        for i in 0..5 {
            p.set((i + 2) % 5, i, 1.0);
        }
        assert!(roundtrip_error(&p) < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 0.5]]).unwrap();
        assert!(clements_decompose(&m, 1e-10).is_err());
        assert!(clements_decompose(&Matrix::zeros(3, 4), 1e-10).is_err());
    }
}
