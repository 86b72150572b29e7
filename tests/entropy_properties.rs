//! Property tests for the entropy-coder layer of the `.qnc` bitstream:
//! every coder (rice / rice-pos / range) must round-trip arbitrary
//! symbol content exactly, the coders must agree tile-for-tile (they
//! are lossless re-encodings of the same levels), and on PCA-ordered
//! synthetic latents — the data the codec actually produces — the
//! per-position coder must never spend more than the per-tile one.

use proptest::prelude::*;
use qn::codec::container::{
    Container, ContainerHeader, TileGrid, FLAG_ENTROPY_RANGE, FLAG_ENTROPY_RICE_POS,
    FLAG_PER_TILE_SCALE,
};
use qn::codec::EntropyCoder;

/// Small deterministic generator for the per-case payload content
/// (levels, norms, occupancy) — keeps the strategy tuple flat.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A structurally valid container with arbitrary payload content.
fn arbitrary_container(
    seed: u64,
    tiles_x: usize,
    tiles_y: usize,
    latent_dim: usize,
    bits: u8,
    per_tile_scale: bool,
) -> Container {
    let mut mix = Mix(seed);
    let levels = 1u64 << bits;
    let header = ContainerHeader {
        version: 1,
        flags: if per_tile_scale {
            FLAG_PER_TILE_SCALE
        } else {
            0
        },
        model_id: mix.next(),
        width: (tiles_x * 4) as u32,
        height: (tiles_y * 4) as u32,
        tile_size: 4,
        latent_dim: latent_dim as u16,
        bits,
        max_norm: 4.0,
    };
    let mut tiles = TileGrid::default();
    for _ in 0..tiles_x * tiles_y {
        if mix.below(4) == 0 {
            tiles.push_empty();
            continue;
        }
        let norm_q = mix.below(65536) as u16;
        let scale = per_tile_scale.then(|| 0.001 + (mix.below(1000) as f32) / 100.0);
        let tile_levels: Vec<u32> = (0..latent_dim).map(|_| mix.below(levels) as u32).collect();
        tiles.push(norm_q, scale, &tile_levels);
    }
    Container {
        header,
        inline_model: None,
        tiles,
    }
}

/// Rewrite a container's header for the given coder.
fn as_coder(mut c: Container, coder: EntropyCoder) -> Container {
    c.header.version = coder.container_version();
    c.header.flags &= !(FLAG_ENTROPY_RICE_POS | FLAG_ENTROPY_RANGE);
    c.header.flags |= coder.container_flags();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Arbitrary symbol streams encode→decode identically through
    // every coder, and re-serialisation is byte-stable.
    #[test]
    fn every_coder_roundtrips_arbitrary_containers(
        (seed, tiles_x, tiles_y) in (0u64..1_000_000, 1usize..5, 1usize..4),
        latent_dim in 1usize..70,
        bits in 1u8..17,
    ) {
        let per_tile_scale = seed % 2 == 0;
        let base = arbitrary_container(seed, tiles_x, tiles_y, latent_dim, bits, per_tile_scale);
        let mut tile_views = Vec::new();
        for coder in EntropyCoder::ALL {
            let c = as_coder(base.clone(), coder);
            let bytes = c.to_bytes().unwrap();
            let back = Container::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &c, "{} roundtrip", coder);
            prop_assert_eq!(back.to_bytes().unwrap(), bytes, "{} reserialize", coder);
            tile_views.push(back.tiles);
        }
        // Lossless re-encodings: every coder carries identical tiles.
        prop_assert_eq!(&tile_views[0], &tile_views[1]);
        prop_assert_eq!(&tile_views[0], &tile_views[2]);
    }

    // On PCA-ordered synthetic latents — per-position magnitudes
    // decaying, smooth norms, the statistics the spectral codec
    // emits — rice-pos never spends more than v1 rice.
    #[test]
    fn rice_pos_never_loses_on_pca_ordered_latents(
        (seed, tiles_x, tiles_y) in (0u64..1_000_000, 3usize..7, 3usize..7),
        latent_dim in 2usize..16,
    ) {
        let bits = 8u8;
        let mut mix = Mix(seed);
        let zero = 128i64; // 8-bit quantizer zero level
        let header = ContainerHeader {
            version: 1,
            flags: 0,
            model_id: 1,
            width: (tiles_x * 4) as u32,
            height: (tiles_y * 4) as u32,
            tile_size: 4,
            latent_dim: latent_dim as u16,
            bits,
            max_norm: 4.0,
        };
        // Position-decaying amplitudes with ±25 % per-tile variation,
        // norms drifting slowly below the max-norm tile.
        let mut norm = 65535i64;
        let mut tiles = TileGrid::default();
        for _ in 0..tiles_x * tiles_y {
            norm = (norm - mix.below(4000) as i64 + mix.below(3000) as i64).clamp(0, 65535);
            let levels: Vec<u32> = (0..latent_dim)
                .map(|j| {
                    let peak = 110.0 * 0.55f64.powi(j as i32);
                    let amp = peak * (0.75 + mix.below(50) as f64 / 100.0);
                    let signed = if mix.below(2) == 0 { amp } else { -amp };
                    (zero + signed.round() as i64).clamp(0, 255) as u32
                })
                .collect();
            tiles.push(norm as u16, None, &levels);
        }
        let base = Container { header, inline_model: None, tiles };
        let rice = as_coder(base.clone(), EntropyCoder::Rice).to_bytes().unwrap();
        let rice_pos = as_coder(base, EntropyCoder::RicePos).to_bytes().unwrap();
        prop_assert!(
            rice_pos.len() <= rice.len(),
            "rice-pos {} bytes > rice {} bytes on PCA-ordered latents",
            rice_pos.len(),
            rice.len()
        );
    }
}

/// The deterministic shim has no shrinking, so pin one readable
/// example of the headline claim outside the property macro: on the
/// codec's own output (not synthetic symbols), both v2 coders beat v1
/// on a real multi-tile image.
#[test]
fn v2_beats_v1_on_a_real_encode() {
    use qn::codec::{Codec, CodecOptions};
    use qn::image::datasets;
    let img = datasets::grayscale_blobs(1, 48, 48, 7).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let size = |entropy| {
        let opts = CodecOptions {
            inline_model: false,
            entropy,
            ..CodecOptions::default()
        };
        codec.encode_image(&img, &opts).unwrap().len()
    };
    let rice = size(EntropyCoder::Rice);
    let rice_pos = size(EntropyCoder::RicePos);
    let range = size(EntropyCoder::Range);
    assert!(rice_pos < rice, "rice-pos {rice_pos} vs rice {rice}");
    assert!(range < rice, "range {range} vs rice {rice}");
}
