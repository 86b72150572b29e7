//! Decoder-robustness corpus: a table of truncations and targeted
//! corruptions of a valid `.qnc`, each driven through every decode
//! entry point (`Container::from_bytes`, `Codec::decode_bytes_with` on
//! every backend, `decode_standalone`). Structural damage must surface
//! as a **typed** [`CodecError`] — never a panic, never an unbounded
//! allocation. Mutations re-fix the trailing CRC-32 where noted so the
//! corruption reaches field validation instead of stopping at the
//! checksum.

use qn::backend::BackendKind;
use qn::codec::{
    bitstream, codec_from_inline, container, decode_standalone, info, model, Codec, CodecError,
    CodecOptions, EntropyCoder,
};
use qn::image::datasets;

mod common;
use common::complex_model_file;

/// A valid container (inline model, per-tile scales) plus its codec.
fn valid_fixture() -> (Codec, Vec<u8>) {
    valid_fixture_with(EntropyCoder::Rice)
}

/// Like [`valid_fixture`], through the chosen entropy coder.
fn valid_fixture_with(entropy: EntropyCoder) -> (Codec, Vec<u8>) {
    let img = datasets::grayscale_blobs(1, 16, 16, 99).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).expect("spectral model");
    let opts = CodecOptions {
        per_tile_scale: true,
        entropy,
        ..CodecOptions::default()
    };
    let bytes = codec.encode_image(&img, &opts).expect("encode");
    (codec, bytes)
}

/// Recompute the trailing CRC-32 so a header/body mutation parses past
/// the checksum gate.
fn refix_crc(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = bitstream::crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

/// What a corrupted input is allowed to do.
enum Expect {
    /// Must fail with a typed error satisfying the predicate.
    Err(fn(&CodecError) -> bool),
    /// Must not panic; either a typed error or a structurally valid
    /// decode of garbage is acceptable (the CRC was deliberately
    /// re-fixed, so the bytes are "authentic" as far as the format can
    /// tell).
    NoPanic,
    /// The container parses (the damage is inside the opaque inline
    /// model blob), but the standalone decode must fail typed.
    StandaloneErr,
}

fn is_truncated(e: &CodecError) -> bool {
    matches!(e, CodecError::Truncated { .. })
}

fn is_invalid(e: &CodecError) -> bool {
    matches!(e, CodecError::Invalid(_))
}

fn any_typed(_: &CodecError) -> bool {
    true
}

#[test]
fn corrupted_containers_fail_typed_on_every_entry_point() {
    let (codec, valid) = valid_fixture();
    let n = valid.len();
    type Mutation = Box<dyn Fn(&mut Vec<u8>)>;
    let corpus: Vec<(&str, Mutation, Expect)> = vec![
        (
            "empty input",
            Box::new(|b: &mut Vec<u8>| b.clear()),
            Expect::Err(is_truncated),
        ),
        (
            "three bytes",
            Box::new(|b: &mut Vec<u8>| b.truncate(3)),
            Expect::Err(is_truncated),
        ),
        (
            "header cut mid-field",
            Box::new(|b: &mut Vec<u8>| b.truncate(21)),
            Expect::Err(is_truncated),
        ),
        (
            "last byte missing",
            Box::new(move |b: &mut Vec<u8>| b.truncate(n - 1)),
            Expect::Err(any_typed),
        ),
        (
            "wrong magic",
            Box::new(|b: &mut Vec<u8>| {
                b[..4].copy_from_slice(b"JUNK");
                refix_crc(b);
            }),
            Expect::Err(|e| matches!(e, CodecError::BadMagic { .. })),
        ),
        (
            "future format version",
            Box::new(|b: &mut Vec<u8>| {
                b[4..6].copy_from_slice(&99u16.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(|e| matches!(e, CodecError::UnsupportedVersion { .. })),
        ),
        (
            "unknown flag bits",
            Box::new(|b: &mut Vec<u8>| {
                b[6..8].copy_from_slice(&0x8003u16.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "zero width",
            Box::new(|b: &mut Vec<u8>| {
                b[16..20].copy_from_slice(&0u32.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "gigapixel tile-grid bomb",
            Box::new(|b: &mut Vec<u8>| {
                // ~2^60 implied tiles: must be rejected before the tile
                // vector is allocated.
                b[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
                b[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes());
                b[24..26].copy_from_slice(&1u16.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "zero tile size",
            Box::new(|b: &mut Vec<u8>| {
                b[24..26].copy_from_slice(&0u16.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "zero latent dimension",
            Box::new(|b: &mut Vec<u8>| {
                b[26..28].copy_from_slice(&0u16.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "bit depth above the 16-bit maximum",
            Box::new(|b: &mut Vec<u8>| {
                b[28] = 200;
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "non-zero reserved bytes survive (format tolerance)",
            Box::new(|b: &mut Vec<u8>| {
                // Reserved bytes are read, not validated — this is the
                // documented expansion space, so decode must still work.
                b[29] = 0xFF;
                refix_crc(b);
            }),
            Expect::NoPanic,
        ),
        (
            "NaN max norm",
            Box::new(|b: &mut Vec<u8>| {
                b[32..36].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "negative max norm",
            Box::new(|b: &mut Vec<u8>| {
                b[32..36].copy_from_slice(&(-1.0f32).to_bits().to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "4 GiB inline-model length bomb",
            Box::new(|b: &mut Vec<u8>| {
                // Inline-model length field sits right after the fixed
                // header: claiming ~4 GiB must error before allocating.
                b[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
                refix_crc(b);
            }),
            Expect::Err(is_truncated),
        ),
        (
            "inline model zeroed",
            Box::new(|b: &mut Vec<u8>| {
                for v in &mut b[44..200] {
                    *v = 0;
                }
                refix_crc(b);
            }),
            Expect::StandaloneErr,
        ),
        (
            "payload bit flips",
            Box::new(move |b: &mut Vec<u8>| {
                // Flip bits inside the entropy-coded payload; with the
                // CRC re-fixed the stream may decode to garbage or hit
                // a typed error — it must never panic.
                for off in [n - 12, n - 24, n - 40] {
                    b[off] ^= 0x41;
                }
                refix_crc(b);
            }),
            Expect::NoPanic,
        ),
        (
            "payload truncated with length field patched",
            Box::new(move |b: &mut Vec<u8>| {
                // Shorten the payload but leave its length field: the
                // mismatch must be caught structurally.
                b.truncate(n - 16);
                refix_crc(b);
            }),
            Expect::Err(is_invalid),
        ),
        (
            "CRC itself flipped",
            Box::new(move |b: &mut Vec<u8>| {
                let last = b.len() - 1;
                b[last] ^= 0xFF;
            }),
            Expect::Err(|e| matches!(e, CodecError::ChecksumMismatch { .. })),
        ),
    ];

    for (name, mutate, expect) in &corpus {
        let mut bytes = valid.clone();
        mutate(&mut bytes);
        // Entry point 1: the container parser.
        let parsed = container::Container::from_bytes(&bytes);
        // Entry points 2 & 3: full decodes (model-bound on every
        // backend, and standalone via the inline model).
        let standalone = decode_standalone(&bytes);
        let backend_decodes: Vec<qn::codec::Result<_>> = BackendKind::ALL
            .iter()
            .map(|&k| codec.decode_bytes_with(&bytes, k))
            .collect();
        match expect {
            Expect::Err(pred) => {
                let err = parsed
                    .err()
                    .unwrap_or_else(|| panic!("{name}: container parse must fail"));
                assert!(pred(&err), "{name}: wrong error type: {err:?}");
                assert!(standalone.is_err(), "{name}: standalone decode must fail");
                for d in &backend_decodes {
                    assert!(d.is_err(), "{name}: decode must fail");
                }
            }
            Expect::NoPanic => {
                // Reaching this point at all proves no panic; a
                // successful decode must at least be geometrically
                // sane.
                for d in backend_decodes.iter().chain([&standalone]).flatten() {
                    assert_eq!((d.width(), d.height()), (16, 16), "{name}");
                }
            }
            Expect::StandaloneErr => {
                assert!(parsed.is_ok(), "{name}: container itself must parse");
                let err = standalone
                    .err()
                    .unwrap_or_else(|| panic!("{name}: standalone decode must fail"));
                assert!(any_typed(&err), "{name}");
                // The external (correct) model still decodes fine.
                for d in &backend_decodes {
                    assert!(d.is_ok(), "{name}: model-bound decode must survive");
                }
            }
        }
    }
}

#[test]
fn every_single_byte_truncation_fails_typed() {
    let (codec, valid) = valid_fixture();
    for cut in 0..valid.len() {
        let bytes = &valid[..cut];
        let err = container::Container::from_bytes(bytes).expect_err("truncation must fail");
        assert!(
            matches!(
                err,
                CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
            ),
            "cut {cut}: unexpected {err:?}"
        );
        assert!(codec.decode_bytes_with(bytes, BackendKind::Simd).is_err());
        assert!(decode_standalone(bytes).is_err());
    }
}

#[test]
fn every_single_byte_corruption_is_caught_or_harmless() {
    // Without CRC repair, any single flipped byte must be caught by the
    // checksum (or an earlier structural check) on every entry point.
    let (codec, valid) = valid_fixture();
    for pos in 0..valid.len() {
        let mut bytes = valid.clone();
        bytes[pos] ^= 0x24;
        assert!(
            container::Container::from_bytes(&bytes).is_err(),
            "flip at {pos} went unnoticed"
        );
        assert!(codec.decode_bytes_with(&bytes, BackendKind::Simd).is_err());
    }
}

#[test]
fn v2_every_single_byte_truncation_fails_typed() {
    for coder in [EntropyCoder::RicePos, EntropyCoder::Range] {
        let (codec, valid) = valid_fixture_with(coder);
        for cut in 0..valid.len() {
            assert!(
                container::Container::from_bytes(&valid[..cut]).is_err(),
                "{coder}: truncation at {cut} must fail"
            );
        }
        // Spot the error taxonomy on a few cuts (every one is either a
        // truncation or a checksum failure, like v1).
        for cut in [0, 10, valid.len() / 2, valid.len() - 1] {
            let err = container::Container::from_bytes(&valid[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
                ),
                "{coder} cut {cut}: unexpected {err:?}"
            );
            assert!(codec
                .decode_bytes_with(&valid[..cut], BackendKind::Simd)
                .is_err());
            assert!(decode_standalone(&valid[..cut]).is_err());
        }
    }
}

#[test]
fn v2_every_single_byte_flip_is_caught_without_crc_repair() {
    for coder in [EntropyCoder::RicePos, EntropyCoder::Range] {
        let (codec, valid) = valid_fixture_with(coder);
        for pos in 0..valid.len() {
            let mut bytes = valid.clone();
            bytes[pos] ^= 0x24;
            assert!(
                container::Container::from_bytes(&bytes).is_err(),
                "{coder}: flip at {pos} went unnoticed"
            );
            assert!(codec.decode_bytes_with(&bytes, BackendKind::Simd).is_err());
        }
    }
}

#[test]
fn v2_payload_flips_with_crc_refixed_never_panic() {
    // Re-fix the CRC after every single-byte payload flip: the bytes
    // are then "authentic" as far as the format can tell, so the
    // entropy decoders themselves must absorb the damage — a typed
    // error or a structurally valid garbage decode, never a panic or
    // an unbounded allocation. The v1 `rice` reader runs the same
    // sweep.
    for coder in EntropyCoder::ALL {
        let (codec, valid) = valid_fixture_with(coder);
        for pos in 0..valid.len() - 4 {
            let mut bytes = valid.clone();
            bytes[pos] ^= 0x41;
            refix_crc(&mut bytes);
            match codec.decode_bytes_with(&bytes, BackendKind::Simd) {
                Ok(img) => assert_eq!(
                    (img.width(), img.height()),
                    (16, 16),
                    "{coder}: flip at {pos} decoded to bad geometry"
                ),
                Err(CodecError::Core(_)) | Err(CodecError::Io(_)) => {
                    panic!("{coder}: flip at {pos} surfaced an out-of-layer error")
                }
                Err(_) => {}
            }
            let _ = decode_standalone(&bytes);
        }
    }
}

#[test]
fn v2_targeted_header_forgeries_fail_typed() {
    let (_, valid) = valid_fixture_with(EntropyCoder::RicePos);
    // Downgrading the version under a v2 entropy flag is an unknown
    // coder, not garbage.
    let mut bytes = valid.clone();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    refix_crc(&mut bytes);
    assert!(matches!(
        container::Container::from_bytes(&bytes),
        Err(CodecError::UnsupportedCoder { .. })
    ));
    // Setting both coder flags at once likewise.
    let mut bytes = valid.clone();
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]) | (1 << 2) | (1 << 3);
    bytes[6..8].copy_from_slice(&flags.to_le_bytes());
    refix_crc(&mut bytes);
    assert!(matches!(
        container::Container::from_bytes(&bytes),
        Err(CodecError::UnsupportedCoder { .. })
    ));
    // A v2 container whose payload is too small for its tile grid is
    // rejected before the tile vector is allocated (rice-pos keeps the
    // one-bit-per-tile budget guard).
    let mut bytes = valid;
    bytes[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
    bytes[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes());
    bytes[24..26].copy_from_slice(&1u16.to_le_bytes());
    refix_crc(&mut bytes);
    assert!(matches!(
        container::Container::from_bytes(&bytes),
        Err(CodecError::Invalid(_))
    ));

    // The range coder's tile grid is bounded by its own hard cap — a
    // small CRC-fixed payload cannot imply a gigatile allocation.
    let (_, valid) = valid_fixture_with(EntropyCoder::Range);
    let mut bytes = valid.clone();
    bytes[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
    bytes[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes());
    bytes[24..26].copy_from_slice(&1u16.to_le_bytes());
    refix_crc(&mut bytes);
    let err = container::Container::from_bytes(&bytes).expect_err("tile bomb must fail");
    assert!(
        matches!(err, CodecError::Invalid(ref m) if m.contains("tile")),
        "unexpected {err:?}"
    );

    // Forged dimensions *inside* the tile cap still cannot make a tiny
    // payload balloon: the decoded-item budget ties work and memory to
    // the input size, so this returns a typed error promptly instead of
    // materialising millions of tiles from a few hundred bytes.
    let mut bytes = valid.clone();
    bytes[16..20].copy_from_slice(&2048u32.to_le_bytes());
    bytes[20..24].copy_from_slice(&2048u32.to_le_bytes());
    bytes[24..26].copy_from_slice(&1u16.to_le_bytes()); // 4 Mi tiles exactly
    refix_crc(&mut bytes);
    let t0 = std::time::Instant::now();
    assert!(container::Container::from_bytes(&bytes).is_err());
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(500),
        "budget must reject the forged grid promptly, took {:?}",
        t0.elapsed()
    );

    // Likewise a forged 65535-latent header: the first occupied tile
    // would charge 65536 items against a few-hundred-item budget.
    let mut bytes = valid;
    bytes[26..28].copy_from_slice(&u16::MAX.to_le_bytes());
    refix_crc(&mut bytes);
    assert!(container::Container::from_bytes(&bytes).is_err());
}

#[test]
fn wrong_model_is_a_model_mismatch_not_garbage() {
    let (_, bytes) = valid_fixture();
    let other_img = datasets::grayscale_blobs(1, 16, 16, 7).remove(0);
    let other = Codec::spectral_for_image(&other_img, 4, 8).expect("model");
    assert!(matches!(
        other.decode_bytes(&bytes),
        Err(CodecError::ModelMismatch { .. })
    ));
}

#[test]
fn complex_gate_models_fail_typed_on_every_entry_point() {
    // The codec runs real meshes only, so the model parser refuses a
    // `.qnm` whose real-model flag is clear, typed, on every path that
    // loads a model.
    let (real, bytes) = valid_fixture();
    let complex = complex_model_file(&model::encode_model(real.model()));
    fn is_complex_error<T>(r: Result<T, CodecError>) -> bool {
        matches!(r, Err(CodecError::Invalid(m)) if m.contains("complex"))
    }
    assert!(is_complex_error(model::decode_model(&complex)));
    assert!(is_complex_error(info::file_info_json(&complex)));
    let path = std::env::temp_dir().join(format!("qn_complex_{}.qnm", std::process::id()));
    std::fs::write(&path, &complex).unwrap();
    let from_file = Codec::from_model_file(&path);
    std::fs::remove_file(&path).ok();
    assert!(is_complex_error(from_file));
    // The valid container carrying the complex model inline.
    let mut forged = container::Container::from_bytes(&bytes).unwrap();
    forged.inline_model = Some(complex);
    assert!(is_complex_error(codec_from_inline(&forged)));
    assert!(is_complex_error(decode_standalone(
        &forged.to_bytes().unwrap()
    )));
}

#[test]
fn tiles_must_match_the_model_dimension() {
    // Each tile fills exactly the model's `dim` modes: a smaller tile
    // would be padded to `dim`, multiplying an encode's memory by up to
    // `dim` for a large zoo model.
    let (codec, bytes) = valid_fixture();
    assert_eq!(codec.model().dim(), 16);
    let img = datasets::grayscale_blobs(1, 16, 16, 99).remove(0);
    let opts = CodecOptions {
        tile_size: 2,
        ..CodecOptions::default()
    };
    let encoded = codec.encode_image(&img, &opts);
    assert!(
        matches!(encoded, Err(CodecError::Invalid(ref m)) if m.contains("tile")),
        "{encoded:?}"
    );
    // The container relabelled to 2×2 tiles of an 8×8 image keeps its
    // 4×4 tile grid, so it parses as before and only the geometry check
    // can refuse it.
    let mut relabelled = bytes;
    relabelled[16..20].copy_from_slice(&8u32.to_le_bytes());
    relabelled[20..24].copy_from_slice(&8u32.to_le_bytes());
    relabelled[24..26].copy_from_slice(&2u16.to_le_bytes());
    refix_crc(&mut relabelled);
    container::Container::from_bytes(&relabelled).expect("relabelled container parses");
    for decoded in [
        codec.decode_bytes(&relabelled),
        decode_standalone(&relabelled),
    ] {
        assert!(
            matches!(decoded, Err(CodecError::Invalid(ref m)) if m.contains("tile")),
            "{decoded:?}"
        );
    }
}
