//! Property-based tests (proptest) over the core invariants of the
//! workspace: unitarity, losslessness, decomposition exactness, and
//! encode/decode consistency — on *arbitrary* inputs, not hand-picked
//! ones.

use proptest::prelude::*;
use qn::core::compression::CompressionNetwork;
use qn::core::config::CompressionTargetKind;
use qn::core::encoding;
use qn::core::reconstruction::ReconstructionNetwork;
use qn::linalg::vector;
use qn::photonic::{GateSequence, Mesh};
use qn::sim::{Projector, StateVector};

/// Angles that exercise the full parameter range of the networks.
fn angle() -> impl Strategy<Value = f64> {
    -10.0..10.0f64
}

/// A non-zero, non-negative pixel vector (image data regime).
fn pixel_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..1.0f64, len)
        .prop_filter("needs some energy", |v| vector::norm2(v) > 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mesh_forward_preserves_norm(thetas in proptest::collection::vec(angle(), 21)) {
        // 8 modes × 3 layers = 21 angles.
        let mut mesh = Mesh::zeros(8, 3);
        mesh.set_thetas(&thetas);
        let mut v: Vec<f64> = (0..8).map(|i| ((i * i) as f64 * 0.37).sin()).collect();
        let n0 = vector::norm2(&v);
        mesh.forward_real(&mut v);
        prop_assert!((vector::norm2(&v) - n0).abs() < 1e-10);
    }

    #[test]
    fn mesh_inverse_is_exact(thetas in proptest::collection::vec(angle(), 14)) {
        // The inverse the codec ships: U_R as the reversed U_C at
        // negated angles (`ReconstructionNetwork::from_reversed_compression`).
        let mut mesh = Mesh::zeros(8, 2);
        mesh.set_thetas(&thetas);
        let compression =
            CompressionNetwork::new(mesh, 8, CompressionTargetKind::TrashPenalty).unwrap();
        let inverse = ReconstructionNetwork::from_reversed_compression(&compression, 2);
        let orig: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 0.1).collect();
        let mut v = orig.clone();
        compression.mesh().forward_real(&mut v);
        inverse.mesh().forward_real(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn reversed_mesh_with_negated_angles_inverts(
        thetas in proptest::collection::vec(angle(), 10)
    ) {
        let mut mesh = Mesh::zeros(6, 2);
        mesh.set_thetas(&thetas);
        let mut inv = mesh.reversed();
        let negated: Vec<f64> = inv.thetas().iter().map(|t| -t).collect();
        inv.set_thetas(&negated);
        let orig: Vec<f64> = (0..6).map(|i| ((i + 1) as f64).recip()).collect();
        let mut v = orig.clone();
        mesh.forward_real(&mut v);
        inv.forward_real(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn encode_decode_roundtrips_nonnegative_data(x in pixel_vector(16)) {
        let e = encoding::encode(&x, 16).unwrap();
        prop_assert!((vector::norm2(&e.amplitudes) - 1.0).abs() < 1e-10);
        let back = encoding::decode(&e.amplitudes, e.norm, e.data_len);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn projection_never_increases_probability(
        x in pixel_vector(16),
        d in 1usize..16
    ) {
        let e = encoding::encode(&x, 16).unwrap();
        let p = Projector::keep_last(16, d).unwrap();
        let kept = p.kept_probability(&e.amplitudes).unwrap();
        let leaked = p.leaked_probability(&e.amplitudes).unwrap();
        prop_assert!(kept >= 0.0 && leaked >= 0.0);
        prop_assert!((kept + leaked - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gate_sequence_matrix_is_orthogonal(
        gates in proptest::collection::vec((0usize..5, angle()), 1..12)
    ) {
        let mut seq = GateSequence::new(6);
        for (k, t) in gates {
            seq.push(qn::photonic::BeamSplitter::real(k, t));
        }
        prop_assert!(seq.as_matrix().is_orthogonal(1e-9));
    }

    #[test]
    fn clements_roundtrips_mesh_matrices(
        thetas in proptest::collection::vec(angle(), 10)
    ) {
        // Any mesh is orthogonal, so Clements must reproduce it exactly.
        let mut mesh = Mesh::zeros(6, 2);
        mesh.set_thetas(&thetas);
        let u = mesh.as_matrix();
        let seq = qn::photonic::clements::clements_decompose(&u, 1e-8).unwrap();
        prop_assert!(seq.as_matrix().max_abs_diff(&u).unwrap() < 1e-8);
    }

    #[test]
    fn statevector_fidelity_is_bounded_and_symmetric(
        a in pixel_vector(8),
        b in pixel_vector(8)
    ) {
        let mut sa = StateVector::from_real(&a).unwrap();
        sa.normalize().unwrap();
        let mut sb = StateVector::from_real(&b).unwrap();
        sb.normalize().unwrap();
        let f_ab = sa.fidelity(&sb).unwrap();
        let f_ba = sb.fidelity(&sa).unwrap();
        prop_assert!((f_ab - f_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f_ab));
    }

    #[test]
    fn analytic_gradient_matches_central_difference_everywhere(
        thetas in proptest::collection::vec(angle(), 14),
        x in pixel_vector(8)
    ) {
        use qn::core::gradient::{loss_and_gradient, loss_only};
        let mut mesh = Mesh::zeros(8, 2);
        mesh.set_thetas(&thetas);
        let e = encoding::encode(&x, 8).unwrap();
        let inputs = vec![e.amplitudes];
        let proj = Projector::keep_last(8, 3).unwrap();
        let residual = move |_i: usize, out: &[f64], buf: &mut [f64]| {
            for (j, (b, &o)) in buf.iter_mut().zip(out).enumerate() {
                *b = if proj.keeps(j) { 0.0 } else { o };
            }
        };
        let (l1, g1) = loss_and_gradient(&mesh, &inputs, &residual);
        prop_assert!((l1 - loss_only(&mesh, &inputs, &residual)).abs() < 1e-10);
        // Central difference of the loss, Δ = 1e-6, on a cloned mesh.
        let delta = 1e-6;
        let loss_at = |flat: usize, step: f64| {
            let mut shifted = thetas.clone();
            shifted[flat] += step;
            let mut probe = mesh.clone();
            probe.set_thetas(&shifted);
            loss_only(&probe, &inputs, &residual)
        };
        for (flat, a) in g1.iter().enumerate() {
            let b = (loss_at(flat, delta) - loss_at(flat, -delta)) / (2.0 * delta);
            prop_assert!((a - b).abs() < 1e-6, "analytic {} vs central {}", a, b);
        }
    }

    #[test]
    fn svd_reconstructs_arbitrary_matrices(
        data in proptest::collection::vec(-5.0..5.0f64, 20)
    ) {
        let m = qn::linalg::Matrix::from_vec(5, 4, data).unwrap();
        let d = qn::linalg::svd::svd(&m).unwrap();
        let err = d.reconstruct().max_abs_diff(&m).unwrap();
        prop_assert!(err < 1e-9, "reconstruction error {}", err);
        // Singular values sorted descending and non-negative.
        for w in d.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(d.singular_values.iter().all(|&s| s >= 0.0));
    }
}
