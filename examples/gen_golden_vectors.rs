//! Regenerates the golden bitstream fixtures under `tests/vectors/` and
//! prints the constants pinned by `tests/golden_vectors.rs`.
//!
//! Run only when the container or model **format version is bumped**
//! deliberately: the whole point of the fixtures is that accidental
//! format drift — a backend that rounds differently, an entropy-coder
//! tweak — fails the golden tests instead of silently shipping.
//!
//! ```text
//! cargo run --release --example gen_golden_vectors
//! ```

use qn::codec::{model, Codec, CodecOptions, EntropyCoder};
use qn::image::{datasets, metrics, pgm};
use std::path::Path;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/vectors");
    std::fs::create_dir_all(&dir).expect("create tests/vectors");

    // Deterministic source image: smooth blobs, 24×16 → a 6×4 tile grid
    // with content in every tile. The fixture of record is the written
    // PGM (8-bit), so round-trip through it: everything below must see
    // exactly the pixels a reader of `golden_24x16.pgm` sees.
    let blobs = datasets::grayscale_blobs(1, 24, 16, 4242).remove(0);
    let pgm_path = dir.join("golden_24x16.pgm");
    pgm::write_pgm(&blobs, &pgm_path).expect("write pgm");
    let img = pgm::read_pgm(&pgm_path).expect("re-read pgm");

    // Spectral model distilled from the image itself (deterministic).
    let codec = Codec::spectral_for_image(&img, 4, 8).expect("spectral model");
    model::save_model(&dir.join("golden_24x16_d8.qnm"), codec.model()).expect("write qnm");

    let base = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let bytes = codec.encode_image(&img, &base).expect("encode");
    std::fs::write(dir.join("golden_24x16_d8.qnc"), &bytes).expect("write qnc");

    let scaled = codec
        .encode_image(
            &img,
            &CodecOptions {
                per_tile_scale: true,
                ..base.clone()
            },
        )
        .expect("encode scaled");
    std::fs::write(dir.join("golden_24x16_d8_scaled.qnc"), &scaled).expect("write scaled qnc");

    let inline = codec
        .encode_image(
            &img,
            &CodecOptions {
                inline_model: true,
                ..base.clone()
            },
        )
        .expect("encode inline");
    std::fs::write(dir.join("golden_24x16_d8_inline.qnc"), &inline).expect("write inline qnc");

    // Bitstream v2 fixtures: the same image and model through the
    // per-position Rice coder and the adaptive range coder.
    let ricepos = codec
        .encode_image(
            &img,
            &CodecOptions {
                entropy: EntropyCoder::RicePos,
                ..base.clone()
            },
        )
        .expect("encode rice-pos");
    std::fs::write(dir.join("golden_24x16_d8_ricepos.qnc"), &ricepos).expect("write ricepos qnc");
    let range = codec
        .encode_image(
            &img,
            &CodecOptions {
                entropy: EntropyCoder::Range,
                ..base
            },
        )
        .expect("encode range");
    std::fs::write(dir.join("golden_24x16_d8_range.qnc"), &range).expect("write range qnc");

    // Constants for tests/golden_vectors.rs.
    let back = codec.decode_bytes(&bytes).expect("decode").clamped();
    let quantized: Vec<u8> = back
        .pixels()
        .iter()
        .map(|p| (p * 255.0).round() as u8)
        .collect();
    println!("MODEL_ID     = {:#018x};", codec.model_id());
    println!("QNC_LEN      = {};", bytes.len());
    println!("SCALED_LEN   = {};", scaled.len());
    println!("INLINE_LEN   = {};", inline.len());
    println!("RICEPOS_LEN  = {};", ricepos.len());
    println!("RANGE_LEN    = {};", range.len());
    println!("PSNR_DB      = {:.6};", metrics::psnr(&img, &back));
    println!(
        "PIXEL_HASH   = {:#018x};",
        qn::codec::bitstream::fnv1a64(&quantized)
    );
}
