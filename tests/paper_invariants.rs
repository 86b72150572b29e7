//! Checks that the implementation matches the paper's stated structure,
//! equation by equation.

use qn::core::compression::CompressionNetwork;
use qn::core::config::{CompressionTargetKind, NetworkConfig};
use qn::core::encoding;
use qn::core::trainer::Trainer;
use qn::image::datasets;
use qn::photonic::{GateSequence, Mesh};
use qn::sim::{qubits_for_dim, Projector};

#[test]
fn eq1_encoding_normalises_by_root_sum_of_squares() {
    // A_i^j = x_i^j / √(Σ_j (x_i^j)²)
    let x = [2.0, 0.0, 1.0, 2.0];
    let e = encoding::encode(&x, 4).expect("encodes");
    let norm = (4.0 + 0.0 + 1.0 + 4.0_f64).sqrt();
    for (a, xi) in e.amplitudes.iter().zip(&x) {
        assert!((a - xi / norm).abs() < 1e-15);
    }
    assert!((e.norm - norm).abs() < 1e-15);
}

#[test]
fn eq2_decoding_multiplies_amplitude_magnitude_by_retained_norm() {
    // x̂_i^j = √((B_i^j)² Σ_j (x_i^j)²)
    let decoded = encoding::decode(&[0.5, -0.5, 0.0], 2.0, 3);
    assert_eq!(decoded, vec![1.0, 1.0, 0.0]);
}

#[test]
fn qubit_counts_match_section_ii_a() {
    // "if the data is in 16 dimensions (N = 16), four qubits are needed"
    assert_eq!(qubits_for_dim(16), 4);
    // "for 8-dimensional data using 3 qubits"
    assert_eq!(qubits_for_dim(8), 3);
}

#[test]
fn paper_network_sizes_match_section_iv_a() {
    // "only 12×15 parameters are required to train in the compression
    // network, and 14×15 parameters are involved in the reconstruction
    // network"
    let data = datasets::paper_binary_16(25);
    let trainer = Trainer::new(NetworkConfig::paper_default(), &data).expect("valid configuration");
    assert_eq!(trainer.compression().mesh().param_count(), 12 * 15);
    assert_eq!(trainer.reconstruction().mesh().param_count(), 14 * 15);
    // "the number of single-layer quantum gates U is N − 1"
    assert_eq!(trainer.compression().mesh().layers()[0].gate_count(), 15);
}

#[test]
fn projection_follows_the_papers_8dim_example() {
    // (b_i)² = [0,0,0,0,0.25,0.25,0.25,0.25]: last-4 subspace of 8 dims.
    let p = Projector::keep_last(8, 4).expect("valid projector");
    assert_eq!(p.kept_indices(), vec![4, 5, 6, 7]);
    // P1 + P0 = I (Fig. 2).
    let p0 = p.complement();
    let sum: Vec<f64> = p
        .to_diagonal()
        .iter()
        .zip(&p0.to_diagonal())
        .map(|(a, b)| a + b)
        .collect();
    assert!(sum.iter().all(|&v| v == 1.0));
}

#[test]
fn uniform_target_amplitudes_match_the_papers_numbers() {
    // The paper's example target has probability 0.25 on each of the 4
    // kept dimensions, i.e. amplitude 1/√4 = 0.5.
    let mesh = Mesh::zeros(8, 1);
    let net =
        CompressionNetwork::new(mesh, 4, CompressionTargetKind::Uniform).expect("valid network");
    let out = vec![0.0; 8];
    let mut r = vec![0.0; 8];
    net.residual(&out, &mut r);
    for rj in &r[4..8] {
        assert!((rj + 0.5).abs() < 1e-15, "amplitude target must be 0.5");
    }
}

#[test]
fn gate_is_a_real_rotation_with_cos_theta_reflectivity() {
    // Fig. 2: U(k,k+1) with α = 0 is [[cosθ, −sinθ], [sinθ, cosθ]].
    // Read the 2×2 block off the operator a one-gate sequence applies.
    let theta = 0.7_f64;
    let bs = qn::photonic::BeamSplitter::real(0, theta);
    let mut seq = GateSequence::new(2);
    seq.push(bs);
    let b = seq.as_matrix();
    assert!((b.get(0, 0) - theta.cos()).abs() < 1e-15);
    assert!((b.get(0, 1) + theta.sin()).abs() < 1e-15);
    assert!((b.get(1, 0) - theta.sin()).abs() < 1e-15);
    assert!((b.get(1, 1) - theta.cos()).abs() < 1e-15);
    assert!((bs.reflectivity() - theta.cos()).abs() < 1e-15);
}

#[test]
fn reconstruction_initialised_as_reversed_compression_inverts_it() {
    // Sec. II-C: U_R = U_C⁻¹ "only when the error of the compressed
    // network is tiny" — at init (before projection) the reversed network
    // must invert exactly.
    let data = datasets::paper_binary_16(25);
    let trainer = Trainer::new(NetworkConfig::paper_default(), &data).expect("valid configuration");
    let enc = encoding::encode_images(&data, 16).expect("encodes");
    for e in enc.iter().take(5) {
        let forward = trainer.compression().forward(&e.amplitudes);
        let back = trainer.reconstruction().reconstruct(&forward);
        for (a, b) in back.iter().zip(&e.amplitudes) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn accuracy_definition_matches_eq_10() {
    // S = S_p / D² × 100 with |x̂ − x| ≤ 0.01 counting as similar.
    use qn::image::{metrics, GrayImage};
    let target = GrayImage::from_pixels(4, 1, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
    let recon = GrayImage::from_pixels(4, 1, vec![0.009, 0.991, 0.5, 0.02]).unwrap();
    // positions 0, 1 similar (within 0.01); 2, 3 not.
    assert!((metrics::pixel_accuracy(&recon, &target, 0.01) - 50.0).abs() < 1e-12);
}

#[test]
fn theta_stays_finite_and_gradients_vanish_at_convergence() {
    // Fig. 4g: "the update gradient of θ decrease to 0 and the θ
    // stabilize" — final gradient norm must be far below the initial.
    let data = datasets::paper_binary_16(25);
    let cfg = NetworkConfig::paper_default().with_iterations(200);
    let mut trainer = Trainer::new(cfg, &data).expect("valid configuration");
    let report = trainer.train().expect("training runs");
    let h = &report.history;
    let g0 = h.grad_norm_c[0];
    let g_end = *h.grad_norm_c.last().unwrap();
    assert!(g_end < g0 * 0.1, "gradient norm {g0} → {g_end}");
    // The gradient shrinks because the loss itself is near zero.
    assert!(h.compression_loss.last().unwrap().sum < 1e-3);
    assert!(h
        .theta_c_trace
        .last()
        .unwrap()
        .iter()
        .all(|t| t.is_finite()));
}
