//! Gradients of mesh losses with respect to the gate angles θ.
//!
//! [`loss_and_gradient`] is exact reverse-mode differentiation
//! (backprop through the gate cascade): the derivative of an embedded
//! Givens rotation is its π/2-advanced block and zero elsewhere, so one
//! forward trace plus one adjoint sweep yields every ∂L/∂θ at cost
//! `O(P·N)` per sample instead of the `O(P²·N)` of a difference
//! quotient. Samples run in parallel with a deterministic
//! (thread-count-invariant) reduction.
//!
//! The paper's Eq. 8 probes the gradient with a forward difference,
//! `∂out/∂θ ≈ (T(θ+Δ)ψ − T(θ)ψ)/Δ` with Δ = 10⁻⁸, which in f64 loses
//! about half the significant digits (the classic forward-difference
//! trade-off). This module's tests keep that forward difference, and a
//! central one, as the oracle the exact gradient is checked against.
//!
//! The loss is `L = Σ_i Σ_j r_{ij}²` with `r = out − target` produced by a
//! caller-supplied residual function, so the same machinery serves both
//! `L_C` (with the trash-penalty or uniform target) and `L_R`.

use qn_linalg::parallel::par_sum_vectors;
use qn_photonic::Mesh;

/// Residual callback: given `(sample index, mesh output)`, write
/// `r = out − target` into the buffer (same length as `out`).
pub type ResidualFn<'a> = &'a (dyn Fn(usize, &[f64], &mut [f64]) + Sync);

/// Loss only (no gradient): `Σ_i ‖r_i‖²`.
pub fn loss_only(mesh: &Mesh, inputs: &[Vec<f64>], residual: ResidualFn<'_>) -> f64 {
    let n = mesh.dim();
    let partials = par_sum_vectors(inputs.len(), 1, |i, acc| {
        let out = mesh.forward_real_copy(&inputs[i]);
        let mut r = vec![0.0; n];
        residual(i, &out, &mut r);
        acc[0] += r.iter().map(|v| v * v).sum::<f64>();
    });
    partials[0]
}

/// Compute `L = Σ_i ‖r_i‖²` and its exact gradient `∇_θ L` for a mesh
/// over a batch of input amplitude vectors: one forward trace and one
/// adjoint sweep per sample, samples in parallel with a deterministic
/// reduction.
///
/// Returns `(loss_sum, gradient)` with the gradient laid out layer-major
/// like [`Mesh::thetas`].
///
/// # Panics
/// Panics when inputs have the wrong dimension.
pub fn loss_and_gradient(
    mesh: &Mesh,
    inputs: &[Vec<f64>],
    residual: ResidualFn<'_>,
) -> (f64, Vec<f64>) {
    let n = mesh.dim();
    assert!(
        inputs.iter().all(|x| x.len() == n),
        "input dimension mismatch"
    );
    let p = mesh.param_count();
    let gates = mesh.flat_gates();
    let gates_per_layer = n - 1;

    // acc layout: [grad_0 .. grad_{p-1}, loss]
    //
    // Memory note: instead of storing the state after every gate (which
    // is O(P·N) per sample and allocation-bound at large N), the backward
    // sweep *recomputes* each pre-gate state by applying the inverse
    // rotation — orthogonal gates invert exactly, so this costs one extra
    // rotation per gate and keeps the working set at O(N).
    let acc = par_sum_vectors(inputs.len(), p + 1, |i, acc| {
        // Forward pass.
        let mut x = inputs[i].clone();
        for &(layer, k) in &gates {
            let theta = mesh.theta_at(layer, k);
            let (s, c) = theta.sin_cos();
            let a = x[k];
            let b = x[k + 1];
            x[k] = c * a - s * b;
            x[k + 1] = s * a + c * b;
        }
        // Residual and loss at the output.
        let mut r = vec![0.0; n];
        residual(i, &x, &mut r);
        acc[p] += r.iter().map(|v| v * v).sum::<f64>();

        // Adjoint sweep: adj = ∂L/∂x_t, starting from 2r; x is rolled
        // back to the pre-gate state as we go.
        let mut adj: Vec<f64> = r.iter().map(|v| 2.0 * v).collect();
        for &(layer, k) in gates.iter().rev() {
            let theta = mesh.theta_at(layer, k);
            let (s, c) = theta.sin_cos();
            // Roll back: x ← Gᵀ x (the pre-gate state).
            let xa = x[k];
            let xb = x[k + 1];
            x[k] = c * xa + s * xb;
            x[k + 1] = -s * xa + c * xb;
            // ∂L/∂θ_t = adj · (dG/dθ · x_pre), nonzero only on the pair.
            let da = -s * x[k] - c * x[k + 1];
            let db = c * x[k] - s * x[k + 1];
            acc[layer * gates_per_layer + k] += adj[k] * da + adj[k + 1] * db;
            // adj ← Gᵀ adj.
            let ak = adj[k];
            let ak1 = adj[k + 1];
            adj[k] = c * ak + s * ak1;
            adj[k + 1] = -s * ak + c * ak1;
        }
    });
    let loss = acc[p];
    let mut grad = acc;
    grad.truncate(p);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_sim::Projector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_mesh() -> Mesh {
        let mut rng = StdRng::seed_from_u64(3);
        Mesh::random(8, 3, &mut rng)
    }

    fn test_inputs() -> Vec<Vec<f64>> {
        // Normalised, varied inputs.
        (0..5)
            .map(|i| {
                let mut v: Vec<f64> = (0..8).map(|j| ((i * 8 + j) as f64 * 0.7).sin()).collect();
                qn_linalg::vector::normalize(&mut v);
                v
            })
            .collect()
    }

    /// Trash-penalty residual against the last-2 kept subspace.
    fn trash_residual() -> impl Fn(usize, &[f64], &mut [f64]) + Sync {
        let proj = Projector::keep_last(8, 2).unwrap();
        move |_i, out, r| {
            for (j, (rj, &oj)) in r.iter_mut().zip(out).enumerate() {
                *rj = if proj.keeps(j) { 0.0 } else { oj };
            }
        }
    }

    /// The difference-quotient oracle for [`loss_and_gradient`], by the
    /// paper's chain rule (Eq. 7): `∂L/∂θ = Σ_i 2 rᵢ · ∂outᵢ/∂θ`, with
    /// the output derivative probed on a cloned mesh by a forward
    /// difference (the paper's Eq. 8) or a central one.
    fn finite_difference(
        mesh: &Mesh,
        inputs: &[Vec<f64>],
        residual: ResidualFn<'_>,
        delta: f64,
        central: bool,
    ) -> (f64, Vec<f64>) {
        let n = mesh.dim();
        let outputs =
            |m: &Mesh| -> Vec<Vec<f64>> { inputs.iter().map(|x| m.forward_real_copy(x)).collect() };
        let probe = |layer: usize, k: usize, step: f64| {
            let mut m = mesh.clone();
            m.set_theta_at(layer, k, mesh.theta_at(layer, k) + step);
            outputs(&m)
        };
        let outs = outputs(mesh);
        let residuals: Vec<Vec<f64>> = outs
            .iter()
            .enumerate()
            .map(|(i, out)| {
                let mut r = vec![0.0; n];
                residual(i, out, &mut r);
                r
            })
            .collect();
        let loss = residuals
            .iter()
            .map(|r| r.iter().map(|v| v * v).sum::<f64>())
            .sum();
        let grad = (0..mesh.param_count())
            .map(|flat| {
                let (layer, k) = (flat / (n - 1), flat % (n - 1));
                let plus = probe(layer, k, delta);
                let (base, width) = if central {
                    (probe(layer, k, -delta), 2.0 * delta)
                } else {
                    (outs.clone(), delta)
                };
                residuals
                    .iter()
                    .flatten()
                    .zip(plus.iter().flatten().zip(base.iter().flatten()))
                    .map(|(r, (pl, b))| 2.0 * r * ((pl - b) / width))
                    .sum()
            })
            .collect();
        (loss, grad)
    }

    #[test]
    fn analytic_matches_central_difference() {
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = trash_residual();
        let (l1, g1) = loss_and_gradient(&mesh, &inputs, &res);
        let (l2, g2) = finite_difference(&mesh, &inputs, &res, 1e-6, true);
        assert!((l1 - l2).abs() < 1e-12);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-7, "analytic {a} vs central {b}");
        }
    }

    #[test]
    fn forward_difference_is_close_but_noisier() {
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = trash_residual();
        let (_, exact) = loss_and_gradient(&mesh, &inputs, &res);
        let (_, fd) = finite_difference(&mesh, &inputs, &res, 1e-8, false);
        // Δ = 1e-8 forward difference: ~1e-7 absolute error expected.
        for (a, b) in exact.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "exact {a} vs paper-fd {b}");
        }
    }

    #[test]
    fn gradient_matches_loss_finite_difference() {
        // Independent check: dL/dθ vs FD of the *loss itself*.
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = trash_residual();
        let (_, grad) = loss_and_gradient(&mesh, &inputs, &res);
        let h = 1e-6;
        for flat in [0usize, 7, 10, 20] {
            let (layer, k) = (flat / 7, flat % 7);
            let mut mp = mesh.clone();
            mp.set_theta_at(layer, k, mesh.theta_at(layer, k) + h);
            let lp = loss_only(&mp, &inputs, &res);
            let mut mm = mesh.clone();
            mm.set_theta_at(layer, k, mesh.theta_at(layer, k) - h);
            let lm = loss_only(&mm, &inputs, &res);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grad[flat]).abs() < 1e-6,
                "param {flat}: loss-fd {fd} vs grad {}",
                grad[flat]
            );
        }
    }

    #[test]
    fn zero_residual_gives_zero_gradient() {
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = |_i: usize, _out: &[f64], r: &mut [f64]| r.iter_mut().for_each(|v| *v = 0.0);
        let (l, g) = loss_and_gradient(&mesh, &inputs, &res);
        assert_eq!(l, 0.0);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_descends_the_loss() {
        // One GD step along −∇ must reduce the loss (small enough step).
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = trash_residual();
        let (l0, g) = loss_and_gradient(&mesh, &inputs, &res);
        let mut stepped = mesh.clone();
        let thetas: Vec<f64> = mesh
            .thetas()
            .iter()
            .zip(&g)
            .map(|(t, gi)| t - 0.01 * gi)
            .collect();
        stepped.set_thetas(&thetas);
        let l1 = loss_only(&stepped, &inputs, &res);
        assert!(l1 < l0, "loss did not decrease: {l0} → {l1}");
    }

    #[test]
    fn reconstruction_style_residual_gradients_agree() {
        // Residual against per-sample targets (L_R shape).
        let mesh = test_mesh();
        let inputs = test_inputs();
        let targets = test_inputs(); // same set, any fixed targets work
        let res = move |i: usize, out: &[f64], r: &mut [f64]| {
            for (j, rj) in r.iter_mut().enumerate() {
                *rj = out[j] - targets[i][j];
            }
        };
        let (_, g1) = loss_and_gradient(&mesh, &inputs, &res);
        let (_, g2) = finite_difference(&mesh, &inputs, &res, 1e-6, true);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn results_are_deterministic_across_calls() {
        let mesh = test_mesh();
        let inputs = test_inputs();
        let res = trash_residual();
        let (l1, g1) = loss_and_gradient(&mesh, &inputs, &res);
        let (l2, g2) = loss_and_gradient(&mesh, &inputs, &res);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn descending_layer_order_gradients_are_exact() {
        // Reversed meshes (descending gate order) must backprop correctly.
        let mesh = test_mesh().reversed();
        let inputs = test_inputs();
        let res = trash_residual();
        let (_, g1) = loss_and_gradient(&mesh, &inputs, &res);
        let (_, g2) = finite_difference(&mesh, &inputs, &res, 1e-6, true);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-7);
        }
    }
}
