//! Property-based tests over the codec subsystem: model persistence is
//! bit-exact on arbitrary parameters, encode→decode of random tiles
//! meets the quantizer's error bound and the PSNR floor, corrupted or
//! truncated inputs always surface as typed errors (never panics), and
//! — the cross-backend conformance suite — every execution backend
//! meets the mesh-pass contract against the scalar reference (equal
//! values, bits differing only on IEEE zeros) and produces
//! byte-identical containers.

use proptest::prelude::*;
use qn::backend::BackendKind;
use qn::codec::{container, model, Codec, CodecError, CodecOptions, EntropyCoder, Quantizer};
use qn::core::compression::CompressionNetwork;
use qn::core::config::CompressionTargetKind;
use qn::core::reconstruction::ReconstructionNetwork;
use qn::core::QuantumAutoencoder;
use qn::image::{metrics, GrayImage};
use qn::linalg::panel::DEFAULT_PANEL_WIDTH;
use qn::photonic::Mesh;

/// Mesh angles covering the full parameter range.
fn angle() -> impl Strategy<Value = f64> {
    -10.0..10.0f64
}

/// Assert the mesh pass's `ZeroSignOnly` contract on one batch: every
/// output equals the reference under `f64 ==` (a zero epsilon budget),
/// and its bits differ only where both values are IEEE zeros.
fn assert_zero_sign_only(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: batch length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: vector {i} length");
        for (j, (a, b)) in g.iter().zip(w).enumerate() {
            assert!(a == b, "{what}: vector {i} mode {j}: {a:e} != {b:e}");
            if a.to_bits() != b.to_bits() {
                assert!(
                    *a == 0.0 && *b == 0.0,
                    "{what}: vector {i} mode {j}: bits differ on non-zero values"
                );
            }
        }
    }
}

/// `batch` packed into `width`-lane panels, passed forward through
/// `backend` in place, and unpacked again.
fn pass(backend: BackendKind, m: &Mesh, batch: &[Vec<f64>], width: usize) -> Vec<Vec<f64>> {
    let mut panels = qn::linalg::panel::pack(batch, width);
    backend.forward_panels(m, &mut panels);
    qn::linalg::panel::unpack(&panels)
}

/// A pixel vector with at least some energy (the image-data regime).
fn pixel_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..1.0f64, len)
        .prop_filter("needs some energy", |v| v.iter().any(|&p| p > 1e-3))
}

/// Autoencoder on 16 modes with the given flattened θ for `U_C` and an
/// exact-inverse `U_R`.
fn autoencoder_16(thetas: &[f64], d: usize) -> QuantumAutoencoder {
    let mut mesh = Mesh::zeros(16, 2);
    mesh.set_thetas(thetas);
    let compression =
        CompressionNetwork::new(mesh, d, CompressionTargetKind::TrashPenalty).expect("valid dims");
    let reconstruction = ReconstructionNetwork::from_reversed_compression(&compression, 2);
    QuantumAutoencoder::new(compression, reconstruction)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn model_save_load_is_bit_exact_for_arbitrary_angles(
        thetas in proptest::collection::vec(angle(), 30),
        d in 1usize..16
    ) {
        let ae = autoencoder_16(&thetas, d);
        let bytes = model::encode_model(&ae);
        let loaded = model::decode_model(&bytes).unwrap();
        prop_assert_eq!(loaded.compression.mesh(), ae.compression.mesh());
        prop_assert_eq!(loaded.reconstruction.mesh(), ae.reconstruction.mesh());
        prop_assert_eq!(model::encode_model(&loaded), bytes);
        prop_assert_eq!(model::model_id(&loaded), model::model_id(&ae));
        // Identical amplitudes, bitwise, on an arbitrary probe.
        let x: Vec<f64> = (0..16).map(|i| ((i * 7) as f64 * 0.13).sin()).collect();
        prop_assert_eq!(loaded.compression.forward(&x), ae.compression.forward(&x));
        prop_assert_eq!(
            loaded.reconstruction.reconstruct(&x),
            ae.reconstruction.reconstruct(&x)
        );
    }

    #[test]
    fn random_tiles_roundtrip_within_quantizer_bounds(
        pixels in pixel_vector(16),
        thetas in proptest::collection::vec(angle(), 30)
    ) {
        // d = 16 keeps everything: the only loss is quantization, so the
        // decoded tile must sit near the original by the quantizer's
        // per-amplitude error bound (times the mesh's conditioning = 1,
        // orthogonal) scaled by the stored norm.
        let ae = autoencoder_16(&thetas, 16);
        let codec = Codec::new(ae);
        let img = GrayImage::from_pixels(4, 4, pixels.clone()).unwrap();
        let opts = CodecOptions { inline_model: false, ..CodecOptions::default() };
        let bytes = codec.encode_image(&img, &opts).unwrap();
        let back = codec.decode_bytes(&bytes).unwrap();
        let norm: f64 = pixels.iter().map(|p| p * p).sum::<f64>().sqrt();
        let q = Quantizer::new(8).unwrap();
        // Quantizing 16 amplitudes perturbs the state by at most
        // √16·ε in L2; decoding multiplies by the norm. Use a generous
        // 6σ-style slack over the per-pixel bound.
        let bound = norm * q.max_error() * 16.0f64.sqrt() + 2e-4 * norm + 1e-9;
        for (a, b) in back.pixels().iter().zip(&pixels) {
            prop_assert!((a - b).abs() <= bound, "pixel {a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn lossy_roundtrip_meets_psnr_floor_on_random_tiles(
        pixels in pixel_vector(16).prop_filter(
            "tile norm well above the quantizer floor",
            |v| v.iter().map(|p| p * p).sum::<f64>().sqrt() > 0.25
        )
    ) {
        // d = 8 at 8-bit latents on a PCA-matched mesh: the acceptance
        // regime. The spectral model is fit to this single tile, so the
        // only loss is quantization noise — PSNR must clear 20 dB.
        let img = GrayImage::from_pixels(4, 4, pixels).unwrap();
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let opts = CodecOptions { inline_model: false, ..CodecOptions::default() };
        let bytes = codec.encode_image(&img, &opts).unwrap();
        let back = codec.decode_bytes(&bytes).unwrap();
        let psnr = metrics::psnr(&img, &back.clamped());
        prop_assert!(psnr >= 20.0, "PSNR {psnr:.2} dB");
    }

    #[test]
    fn truncated_containers_error_and_never_panic(
        pixels in pixel_vector(64),
        cut_fraction in 0.0..1.0f64
    ) {
        let img = GrayImage::from_pixels(8, 8, pixels).unwrap();
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let err = container::Container::from_bytes(&bytes[..cut.min(bytes.len() - 1)])
            .expect_err("truncated container must fail");
        prop_assert!(matches!(
            err,
            CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn corrupted_containers_error_and_never_panic(
        pixels in pixel_vector(64),
        flip_at in 0.0..1.0f64,
        flip_mask in 1u32..256
    ) {
        let img = GrayImage::from_pixels(8, 8, pixels).unwrap();
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let mut bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        let pos = ((bytes.len() as f64) * flip_at) as usize % bytes.len();
        bytes[pos] ^= flip_mask as u8; // mask ∈ 1..256 → at least one bit flips
        // Decoding must produce a typed error (any variant) — never panic.
        prop_assert!(qn::codec::decode_standalone(&bytes).is_err());
    }

    #[test]
    fn backends_produce_bit_identical_mesh_passes(
        dim in 2usize..13,
        n_layers in 1usize..4,
        width in 1usize..9,
        batch_n in 0usize..14,
        thetas in proptest::collection::vec(angle(), 36),
        theta_zeros in proptest::collection::vec(0u8..4, 36),
        data in proptest::collection::vec(-1.0..1.0f64, 170),
        data_zeros in proptest::collection::vec(0u8..6, 170)
    ) {
        // Random mesh of `n_layers` layers on `dim` modes, including the
        // reversed (descending-cascade) structure U_R uses. About half
        // the gates are identities (θ = +0.0 or -0.0), the gates simd
        // prunes; ASAP-packed spectral models look like this.
        let thetas: Vec<f64> = thetas
            .iter()
            .zip(&theta_zeros)
            .map(|(&t, &z)| match z {
                0 => 0.0,
                1 => -0.0,
                _ => t,
            })
            .collect();
        // About a third of the amplitudes are +0.0 or -0.0, where the
        // pruned and unpruned arithmetic can disagree on the zero sign.
        let data: Vec<f64> = data
            .iter()
            .zip(&data_zeros)
            .map(|(&x, &z)| match z {
                0 => 0.0,
                1 => -0.0,
                _ => x,
            })
            .collect();
        let mut mesh = Mesh::zeros(dim, n_layers);
        mesh.set_thetas(&thetas[..(dim - 1) * n_layers]);
        let batch: Vec<Vec<f64>> = (0..batch_n)
            .map(|i| data[i * dim..(i + 1) * dim].to_vec())
            .collect();
        for m in [mesh.clone(), mesh.reversed()] {
            let reference: Vec<Vec<f64>> = batch.iter().map(|v| m.forward_real_copy(v)).collect();
            let w = DEFAULT_PANEL_WIDTH;
            for kind in BackendKind::ALL {
                assert_zero_sign_only(&pass(kind, &m, &batch, w), &reference, kind.name());
            }
            // The scalar reference reproduces the mesh bit for bit.
            let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
                vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };
            let scalar = BackendKind::Scalar;
            prop_assert_eq!(bits(&pass(scalar, &m, &batch, w)), bits(&reference));
            // Explicit panel widths exercise ragged last panels (the
            // batch length is rarely a multiple of `width`) and the
            // width-1 degenerate panel.
            let simd = BackendKind::Simd;
            assert_zero_sign_only(&pass(simd, &m, &batch, width), &reference, "simd width");
        }
    }

    #[test]
    fn simd_pass_after_set_thetas_matches_forward_real(
        first in proptest::collection::vec(angle(), 33),
        second in proptest::collection::vec(angle(), 33),
        theta_zeros in proptest::collection::vec(0u8..3, 33),
        gate in 0usize..33,
        data in proptest::collection::vec(-1.0..1.0f64, 120)
    ) {
        // The mesh keeps the gate tables its first simd pass builds;
        // every θ setter must drop them, so the next pass runs the new
        // angles. About a third of the new angles are identities, the
        // gates simd prunes.
        let mut mesh = Mesh::zeros(12, 3);
        mesh.set_thetas(&first);
        let batch: Vec<Vec<f64>> = data.chunks(12).map(<[f64]>::to_vec).collect();
        let check = |mesh: &Mesh, what: &str| {
            let reference: Vec<Vec<f64>> =
                batch.iter().map(|v| mesh.forward_real_copy(v)).collect();
            let simd = pass(BackendKind::Simd, mesh, &batch, DEFAULT_PANEL_WIDTH);
            assert_zero_sign_only(&simd, &reference, what);
        };
        check(&mesh, "first angles");
        let second: Vec<f64> = second
            .iter()
            .zip(&theta_zeros)
            .map(|(&t, &z)| if z == 0 { 0.0 } else { t })
            .collect();
        mesh.set_thetas(&second);
        check(&mesh, "after set_thetas");
        mesh.set_theta_at(gate / 11, gate % 11, first[gate] + 1.0);
        check(&mesh, "after set_theta_at");
    }

    #[test]
    fn containers_are_backend_independent(
        pixels in pixel_vector(96),
        d in 1usize..17,
        per_tile_scale in 0u32..2
    ) {
        // 12×8 image, 6 tiles; d spans the full range including the
        // d = 1 edge case. Every backend must produce byte-identical
        // containers and pixel-identical decodes — the format
        // compatibility guarantee multi-backend execution rests on.
        let img = GrayImage::from_pixels(12, 8, pixels).unwrap();
        let thetas: Vec<f64> = (0..30).map(|i| (i as f64 * 0.711).sin() * 3.0).collect();
        let ae = autoencoder_16(&thetas, d);
        let codec = Codec::new(ae);
        let encode = |backend: BackendKind| {
            let opts = CodecOptions {
                inline_model: false,
                per_tile_scale: per_tile_scale == 1,
                backend,
                ..CodecOptions::default()
            };
            codec.encode_image(&img, &opts).unwrap()
        };
        let reference_bytes = encode(BackendKind::Scalar);
        let reference_img = codec
            .decode_bytes_with(&reference_bytes, BackendKind::Scalar)
            .unwrap();
        for kind in BackendKind::ALL {
            prop_assert_eq!(&encode(kind), &reference_bytes, "{} encode", kind);
            prop_assert_eq!(
                &codec.decode_bytes_with(&reference_bytes, kind).unwrap(),
                &reference_img,
                "{} decode",
                kind
            );
        }
    }

    #[test]
    fn truncated_models_error_and_never_panic(
        thetas in proptest::collection::vec(angle(), 30),
        cut_fraction in 0.0..1.0f64
    ) {
        let ae = autoencoder_16(&thetas, 4);
        let bytes = model::encode_model(&ae);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let err = model::decode_model(&bytes[..cut.min(bytes.len() - 1)])
            .expect_err("truncated model must fail");
        prop_assert!(matches!(
            err,
            CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
        ));
    }
}

/// The full codec path is thread-count invariant: encoding and decoding
/// inside forced 1/2/3/8-thread pools, on either backend, produces the
/// `.qnc` bytes of the 1-thread scalar reference byte-for-byte and its
/// pixels bit-for-bit. Every per-tile stage (gather, mesh, quantize +
/// zigzag, dequantize, stitch) partitions tiles by panel boundaries
/// that depend only on the image, so parallelism moves only wall-clock,
/// never bytes. Covered: a 64×64 golden image (64 full panels), ragged
/// geometries whose last panel is partly filled and whose edge tiles
/// are clipped (13×9: one panel of 12 tiles; 257×131: 66×33 tiles in
/// 35 panels), an image with empty tiles scattered across panel
/// boundaries, and an all-black image (no panels at all), each under
/// all three entropy coders with and without per-tile scales.
#[test]
fn codec_output_is_thread_count_invariant() {
    use qn::image::datasets::grayscale_blobs;
    let mut sparse = grayscale_blobs(1, 64, 48, 7).remove(0);
    for y in 0..48 {
        for x in 0..64 {
            if (x / 4 + 2 * (y / 4)) % 3 == 0 {
                sparse.set(x, y, 0.0);
            }
        }
    }
    let images = [
        ("64x64", grayscale_blobs(1, 64, 64, 42).remove(0)),
        ("13x9", grayscale_blobs(1, 13, 9, 21).remove(0)),
        ("257x131", grayscale_blobs(1, 257, 131, 5).remove(0)),
        ("sparse 64x48", sparse),
        ("black 5x3", GrayImage::zeros(5, 3)),
    ];
    let pixel_bits =
        |img: &GrayImage| -> Vec<u64> { img.pixels().iter().map(|p| p.to_bits()).collect() };
    let pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("bench pool")
    };
    for (name, img) in &images {
        let codec = Codec::spectral_for_image(img, 4, 8).expect("spectral model");
        for entropy in EntropyCoder::ALL {
            for per_tile_scale in [false, true] {
                let run = |backend: BackendKind| {
                    let opts = CodecOptions {
                        backend,
                        entropy,
                        per_tile_scale,
                        inline_model: false,
                        ..CodecOptions::default()
                    };
                    let bytes = codec.encode_image(img, &opts).expect("encode");
                    let decoded = codec.decode_bytes_with(&bytes, backend).expect("decode");
                    (bytes, pixel_bits(&decoded))
                };
                let (ref_bytes, ref_pixels) = pool(1).install(|| run(BackendKind::Scalar));
                for threads in [1usize, 2, 3, 8] {
                    for backend in BackendKind::ALL {
                        let (bytes, pixels) = pool(threads).install(|| run(backend));
                        let what = format!(
                            "{name} {entropy} scale={per_tile_scale} {backend} {threads} threads"
                        );
                        assert_eq!(bytes, ref_bytes, "{what}: container diverged");
                        assert_eq!(pixels, ref_pixels, "{what}: pixels diverged");
                    }
                }
            }
        }
    }
}

/// The one-gather spectral encode fits its model from the panels its
/// prepare stage gathered and rotates those same panels: it must write
/// the bytes, and fit the model, that a separate
/// `Codec::spectral_for_image` followed by `encode_image` does. Covered:
/// smooth blobs, a sparse image with empty tiles across panel seams, an
/// all-black image (the identity fallback) and unaligned geometries
/// whose edge tiles are clipped, at tiles 2, 3, 4 and 8, under every
/// entropy coder with and without per-tile scales, the model inline.
#[test]
fn spectral_encode_matches_fit_then_encode() {
    use qn::image::datasets::grayscale_blobs;
    let mut sparse = grayscale_blobs(1, 48, 40, 7).remove(0);
    for y in 0..40 {
        for x in 0..48 {
            if (x / 4 + 2 * (y / 4)) % 3 == 0 {
                sparse.set(x, y, 0.0);
            }
        }
    }
    let images = [
        ("blobs 40x32", grayscale_blobs(1, 40, 32, 42).remove(0)),
        ("sparse 48x40", sparse),
        ("black 9x7", GrayImage::zeros(9, 7)),
        ("unaligned 13x9", grayscale_blobs(1, 13, 9, 21).remove(0)),
        ("unaligned 67x35", grayscale_blobs(1, 67, 35, 5).remove(0)),
    ];
    for (name, img) in &images {
        for (tile, latent) in [(2usize, 2usize), (3, 4), (4, 8), (8, 8)] {
            let reference = Codec::spectral_for_image(img, tile, latent).expect("spectral model");
            for entropy in EntropyCoder::ALL {
                for per_tile_scale in [false, true] {
                    let opts = CodecOptions {
                        tile_size: tile,
                        entropy,
                        per_tile_scale,
                        ..CodecOptions::default()
                    };
                    let what = format!("{name} tile {tile} {entropy} scale={per_tile_scale}");
                    let want = reference.encode_image(img, &opts).expect("encode");
                    let (codec, bytes, stats) =
                        Codec::spectral_encode(img, latent, &opts).expect("spectral encode");
                    assert_eq!(codec.model_id(), reference.model_id(), "{what}: model");
                    assert_eq!(bytes, want, "{what}: container");
                    assert_eq!(stats.container_bytes, bytes.len(), "{what}");
                }
            }
        }
    }
}

/// A pixel that is NaN or infinite has no amplitude encoding, so every
/// spectral fit and encode refuses it with a typed `Invalid` that names
/// the non-finite input, before any model work. That includes a NaN in
/// an otherwise black tile, which the occupancy scan must not mistake
/// for an empty tile.
#[test]
fn non_finite_pixels_are_refused_by_the_fit_and_both_encodes() {
    use qn::image::datasets::grayscale_blobs;
    let clean = grayscale_blobs(1, 32, 32, 3).remove(0);
    let fixed = Codec::spectral_for_image(&clean, 4, 8).expect("spectral model");
    let poisoned = |x: usize, y: usize, v: f64, black_tile: bool| {
        let mut img = clean.clone();
        if black_tile {
            for py in y / 4 * 4..y / 4 * 4 + 4 {
                for px in x / 4 * 4..x / 4 * 4 + 4 {
                    img.set(px, py, 0.0);
                }
            }
        }
        img.set(x, y, v);
        img
    };
    let cases = [
        ("NaN", poisoned(5, 9, f64::NAN, false)),
        ("+inf", poisoned(30, 2, f64::INFINITY, false)),
        ("-inf", poisoned(0, 31, f64::NEG_INFINITY, false)),
        ("NaN in a black tile", poisoned(17, 13, f64::NAN, true)),
    ];
    let opts = CodecOptions::default();
    let refused = |what: &str, result: Result<(), CodecError>| match result {
        Err(CodecError::Invalid(message)) => {
            assert!(message.contains("non-finite"), "{what}: {message}")
        }
        other => panic!("{what}: expected a typed non-finite error, got {other:?}"),
    };
    for (name, img) in &cases {
        refused(
            &format!("{name}: spectral fit"),
            Codec::spectral_for_image(img, 4, 8).map(drop),
        );
        refused(
            &format!("{name}: dataset fit"),
            Codec::spectral_for_images(&[clean.clone(), img.clone()], 4, 8).map(drop),
        );
        refused(
            &format!("{name}: spectral encode"),
            Codec::spectral_encode(img, 8, &opts).map(drop),
        );
        refused(
            &format!("{name}: fixed-model encode"),
            fixed.encode_image(img, &opts).map(drop),
        );
    }
}
