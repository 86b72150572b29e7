//! The codec end to end: distill a model from an image, save it, write
//! a `.qnc` container, decode it back, and report quality and size —
//! the programmatic equivalent of
//! `qnc train && qnc compress && qnc decompress`.
//!
//! Run with: `cargo run --release --example codec_roundtrip`

use qn::codec::{model, Codec, CodecOptions};
use qn::image::{datasets, metrics, pgm};

fn main() {
    // A 128×96 grayscale test image (smooth blob structure).
    let img = datasets::grayscale_blobs(1, 128, 96, 42).remove(0);
    println!(
        "input: {}x{} px ({} bytes raw)",
        img.width(),
        img.height(),
        img.len()
    );

    // A PCA-spectral model fit to the image's own 4×4 tiles, keeping
    // d = 8 of 16 amplitudes per tile.
    let codec = Codec::spectral_for_image(&img, 4, 8).expect("spectral model");
    println!(
        "model: N={}, d={}, id {:#018x}",
        codec.model().dim(),
        codec.model().compression.compressed_dim(),
        codec.model_id()
    );

    // Model persistence is bit-exact: save → load → identical bytes.
    let dir = std::env::temp_dir().join("qn_codec_roundtrip_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("model.qnm");
    model::save_model(&model_path, codec.model()).expect("save model");
    let reloaded = model::load_model(&model_path).expect("load model");
    assert_eq!(
        model::encode_model(&reloaded),
        model::encode_model(codec.model()),
        "persistence must be bit-exact"
    );
    println!(
        "model file: {} bytes at {}",
        std::fs::metadata(&model_path).unwrap().len(),
        model_path.display()
    );

    // Encode at three bit depths; decode and score each.
    for bits in [4u8, 6, 8] {
        let opts = CodecOptions {
            bits,
            inline_model: false,
            ..CodecOptions::default()
        };
        let (bytes, stats) = codec.encode_image_with_stats(&img, &opts).expect("encode");
        let back = codec.decode_bytes(&bytes).expect("decode").clamped();
        println!(
            "{bits}-bit latents: {:>6} bytes  {:.3} bpp  ratio {:.2}x  PSNR {:.2} dB  SSIM {:.4}",
            stats.container_bytes,
            stats.bits_per_pixel,
            stats.ratio(),
            metrics::psnr(&img, &back),
            metrics::ssim(&img, &back),
        );
    }

    // The standalone container: model embedded, decodes with no state.
    let (bytes, stats) = codec
        .encode_image_with_stats(&img, &CodecOptions::default())
        .expect("encode standalone");
    let back = qn::codec::decode_standalone(&bytes).expect("standalone decode");
    let qnc_path = dir.join("image.qnc");
    std::fs::write(&qnc_path, &bytes).expect("write container");
    let rt_path = dir.join("roundtrip.pgm");
    pgm::write_pgm(&back.clamped(), &rt_path).expect("write pgm");
    println!(
        "standalone .qnc (inline model): {} bytes, ratio {:.2}x -> {}",
        stats.container_bytes,
        stats.ratio(),
        qnc_path.display()
    );
    println!("reconstruction -> {}", rt_path.display());
}
