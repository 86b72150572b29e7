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

// ---------------------------------------------------------------------
// Differential test: the container's chunked word-level Rice writers
// and its word-level reader against bit-at-a-time references written
// here from the layouts in the `container` module docs.
// ---------------------------------------------------------------------

use qn::codec::{bitstream, CodecError};

/// Grid tiles per chunk of the container's Rice writers (sixteen
/// 64-tile panels). The tile counts below put chunk seams just before,
/// at and after it, at whatever bit offsets the seeded data lands them.
const CHUNK: usize = 1024;

/// LSB-first bit sink, one bit at a time.
#[derive(Default)]
struct RefWriter {
    bytes: Vec<u8>,
    len: usize,
    longest_run: u32,
}

impl RefWriter {
    fn bit(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().expect("pushed above") |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    fn bits(&mut self, value: u64, n: u32) {
        for i in 0..n {
            self.bit((value >> i) & 1 == 1);
        }
    }

    fn rice(&mut self, value: u32, k: u32) {
        self.longest_run = self.longest_run.max(value >> k);
        for _ in 0..value >> k {
            self.bit(true);
        }
        self.bit(false);
        self.bits(u64::from(value), k);
    }
}

fn ref_zigzag(v: i64) -> u32 {
    (if v >= 0 { 2 * v } else { -2 * v - 1 }) as u32
}

fn ref_unzigzag(z: u32) -> i64 {
    if z.is_multiple_of(2) {
        i64::from(z / 2)
    } else {
        -i64::from(z / 2) - 1
    }
}

/// The first `k` in `0..=max_k` with the shortest Rice coding of
/// `values`, by trying every one.
fn exhaustive_k(values: impl Iterator<Item = u32> + Clone, max_k: u32) -> u32 {
    (0..=max_k)
        .min_by_key(|&k| {
            values
                .clone()
                .map(|v| u64::from(v >> k) + 1 + u64::from(k))
                .sum::<u64>()
        })
        .expect("max_k ≥ 0")
}

fn is_rice_pos(h: &ContainerHeader) -> bool {
    h.flags & FLAG_ENTROPY_RICE_POS != 0
}

/// The quantizer's zero level, `2^(bits−1)`.
fn zero_level(h: &ContainerHeader) -> i64 {
    1 << (h.bits - 1)
}

/// The payload of a `rice` or `rice-pos` container, bit by bit, and the
/// longest unary run it wrote.
fn reference_payload(c: &Container) -> (Vec<u8>, u32) {
    let (h, t) = (&c.header, &c.tiles);
    let d = h.latent_dim as usize;
    let max_k = u32::from(h.bits) + 1;
    let sym = |level: u32| ref_zigzag(i64::from(level) - zero_level(h));
    let rows: Vec<&[u32]> = t.levels.chunks(d).collect();
    let mut pred = 65535i64;
    let deltas: Vec<u32> = t
        .norms_q
        .iter()
        .map(|&n| {
            let delta = ref_zigzag(i64::from(n) - pred);
            pred = i64::from(n);
            delta
        })
        .collect();
    let mut w = RefWriter::default();
    let (ks, norm_k) = if is_rice_pos(h) {
        let ks: Vec<u32> = (0..d)
            .map(|j| exhaustive_k(rows.iter().map(|row| sym(row[j])), max_k))
            .collect();
        let norm_k = exhaustive_k(deltas.iter().copied(), 17);
        w.bits(u64::from(ks[0]), 5);
        for j in 1..d {
            w.rice(ref_zigzag(i64::from(ks[j]) - i64::from(ks[j - 1])), 1);
        }
        w.bits(u64::from(norm_k), 5);
        (ks, norm_k)
    } else {
        (Vec::new(), 0)
    };
    let mut o = 0;
    for &occupied in &t.occupied {
        w.bit(occupied);
        if !occupied {
            continue;
        }
        if is_rice_pos(h) {
            w.rice(deltas[o], norm_k);
        } else {
            w.bits(u64::from(t.norms_q[o]), 16);
        }
        if let Some(scale) = t.scales.get(o) {
            w.bits(u64::from(scale.to_bits()), 32);
        }
        if is_rice_pos(h) {
            for (&level, &k) in rows[o].iter().zip(&ks) {
                w.rice(sym(level), k);
            }
        } else {
            let k = exhaustive_k(rows[o].iter().map(|&l| sym(l)), max_k);
            w.bits(u64::from(k), 5);
            for &level in rows[o] {
                w.rice(sym(level), k);
            }
        }
        o += 1;
    }
    (w.bytes, w.longest_run)
}

/// Complete file bytes around the reference payload (no inline model).
fn reference_file(c: &Container) -> (Vec<u8>, u32) {
    let h = &c.header;
    let (payload, longest_run) = reference_payload(c);
    let mut b = b"QNC1".to_vec();
    b.extend(h.version.to_le_bytes());
    b.extend(h.flags.to_le_bytes());
    b.extend(h.model_id.to_le_bytes());
    b.extend(h.width.to_le_bytes());
    b.extend(h.height.to_le_bytes());
    b.extend(h.tile_size.to_le_bytes());
    b.extend(h.latent_dim.to_le_bytes());
    b.extend([h.bits, 0, 0, 0]);
    b.extend(h.max_norm.to_le_bytes());
    b.extend((payload.len() as u32).to_le_bytes());
    b.extend(payload);
    let crc = bitstream::crc32(&b);
    b.extend(crc.to_le_bytes());
    (b, longest_run)
}

fn truncated() -> CodecError {
    CodecError::Truncated {
        context: "bitstream payload",
    }
}

fn invalid() -> CodecError {
    CodecError::Invalid("reference reader".into())
}

/// Bit-at-a-time reader with the documented error rules: input ending
/// inside a field is `Truncated`; a unary run past 2^18 ones, a value
/// past 32 bits, or any field out of range for the header is `Invalid`.
struct RefReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl RefReader<'_> {
    fn bit(&mut self) -> Result<bool, CodecError> {
        let byte = self.bytes.get(self.pos / 8).ok_or_else(truncated)?;
        let bit = (byte >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    fn bits(&mut self, n: u32) -> Result<u64, CodecError> {
        (0..n).try_fold(0u64, |acc, i| Ok(acc | (u64::from(self.bit()?) << i)))
    }

    fn rice(&mut self, k: u32) -> Result<u32, CodecError> {
        let mut q = 0u64;
        while self.bit()? {
            q += 1;
            if q > 1 << 18 {
                return Err(invalid());
            }
        }
        let value = (q << k) | self.bits(k)?;
        u32::try_from(value).map_err(|_| invalid())
    }
}

/// The tiles of a `rice` or `rice-pos` payload, bit by bit.
fn reference_read(h: &ContainerHeader, payload: &[u8]) -> Result<TileGrid, CodecError> {
    if h.tile_count() > payload.len() * 8 {
        return Err(invalid());
    }
    let d = h.latent_dim as usize;
    let max_k = i64::from(h.bits) + 1;
    let levels = 1u32 << h.bits;
    let mut r = RefReader {
        bytes: payload,
        pos: 0,
    };
    let mut ks = Vec::new();
    let mut norm_k = 0;
    if is_rice_pos(h) {
        let mut k = r.bits(5)? as i64;
        for j in 0..d {
            if j > 0 {
                k += ref_unzigzag(r.rice(1)?);
            }
            if !(0..=max_k).contains(&k) {
                return Err(invalid());
            }
            ks.push(k as u32);
        }
        norm_k = r.bits(5)? as u32;
        if norm_k > 17 {
            return Err(invalid());
        }
    }
    let mut pred = 65535i64;
    let mut tiles = TileGrid::default();
    for _ in 0..h.tile_count() {
        if !r.bit()? {
            tiles.push_empty();
            continue;
        }
        let norm = if is_rice_pos(h) {
            pred += ref_unzigzag(r.rice(norm_k)?);
            if !(0..=65535).contains(&pred) {
                return Err(invalid());
            }
            pred as u16
        } else {
            r.bits(16)? as u16
        };
        let scale = if h.flags & FLAG_PER_TILE_SCALE != 0 {
            let s = f32::from_bits(r.bits(32)? as u32);
            if !s.is_finite() || s <= 0.0 {
                return Err(invalid());
            }
            Some(s)
        } else {
            None
        };
        let row_ks = if is_rice_pos(h) {
            ks.clone()
        } else {
            let k = r.bits(5)? as i64;
            if k > max_k {
                return Err(invalid());
            }
            vec![k as u32; d]
        };
        let mut row = Vec::with_capacity(d);
        for k in row_ks {
            let s = r.rice(k)?;
            if s >= levels {
                return Err(invalid());
            }
            row.push((zero_level(h) + ref_unzigzag(s)) as u32);
        }
        tiles.push(norm, scale, &row);
    }
    Ok(tiles)
}

/// A `tiles`-tile single-row container under `coder`: levels peaked at
/// the zero level with about a quarter of the tiles empty, or with
/// `long_runs`, zero symbols broken by rare outliers of 32 to 130 that
/// keep `k` at 0 and so force unary runs of 32 and more bits.
fn differential_case(seed: u64, tiles: usize, coder: EntropyCoder, long_runs: bool) -> Container {
    let mut mix = Mix(seed);
    let bits = if long_runs {
        8 + mix.below(9) as u8
    } else {
        1 + mix.below(16) as u8
    };
    let latent_dim = if long_runs {
        64 + mix.below(7) as usize
    } else {
        1 + mix.below(70) as usize
    };
    let per_tile_scale = mix.below(2) == 0;
    let mut c = arbitrary_container(mix.next(), tiles, 1, latent_dim, bits, per_tile_scale);
    let zero = 1u64 << (bits - 1);
    let top = (1u64 << bits) - 1;
    for level in &mut c.tiles.levels {
        let magnitude = if long_runs {
            if mix.below(80) == 0 {
                16 + mix.below(50)
            } else {
                0
            }
        } else {
            let width = mix.below(u64::from(bits));
            mix.below(1 << width)
        };
        *level = if mix.below(2) == 0 {
            (zero + magnitude).min(top)
        } else {
            zero.saturating_sub(magnitude)
        } as u32;
    }
    as_coder(c, coder)
}

/// Does the library agree with the reference on `bytes`: the same tiles,
/// or an error of the same variant?
fn assert_same_outcome(bytes: &[u8], header: &ContainerHeader, what: &str) {
    let payload = &bytes[40..bytes.len() - 4];
    match (
        Container::from_bytes(bytes),
        reference_read(header, payload),
    ) {
        (Ok(c), Ok(tiles)) => assert_eq!(c.tiles, tiles, "{what}"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(&a),
            std::mem::discriminant(&b),
            "{what}: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("{what}: {:?} vs {:?}", a.map(|c| c.tiles), b),
    }
}

#[test]
fn rice_coders_match_bit_at_a_time_references() {
    let mut longest_run = 0;
    let mut seed = 0xD1FF_0000u64;
    for tiles in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5] {
        for coder in [EntropyCoder::Rice, EntropyCoder::RicePos] {
            for long_runs in [false, false, true] {
                seed += 1;
                let c = differential_case(seed, tiles, coder, long_runs);
                let (want, run) = reference_file(&c);
                longest_run = longest_run.max(run);
                let what = format!(
                    "{coder} seed {seed}: {tiles} tiles, d {}, {} bits",
                    c.header.latent_dim, c.header.bits
                );
                assert_eq!(c.to_bytes().unwrap(), want, "{what}");
                assert_same_outcome(&want, &c.header, &what);
            }
        }
    }
    // The writer's and the reader's long-symbol paths both ran.
    assert!(longest_run >= 57, "longest unary run {longest_run}");

    // Seeded mutants of small containers: payload bit flips and payload
    // truncations, with the length field and the CRC re-fixed so the
    // damage reaches the entropy decoder.
    let mut mix = Mix(0x0BAD_B175);
    let mut mutants = 0;
    for case in 0..120u64 {
        let coder = [EntropyCoder::Rice, EntropyCoder::RicePos][case as usize % 2];
        let tiles = 1 + mix.below(40) as usize;
        let c = differential_case(0xD1FF_1000 + case, tiles, coder, case % 5 == 4);
        let (valid, _) = reference_file(&c);
        let payload_len = valid.len() - 44;
        for _ in 0..20 {
            let mut bytes = valid.clone();
            if mix.below(3) == 0 {
                let cut = 1 + mix.below(payload_len as u64) as usize;
                bytes.truncate(valid.len() - 4 - cut);
                bytes[36..40].copy_from_slice(&((payload_len - cut) as u32).to_le_bytes());
                bytes.extend([0; 4]);
            } else {
                for _ in 0..1 + mix.below(3) {
                    let bit = mix.below(payload_len as u64 * 8) as usize;
                    bytes[40 + bit / 8] ^= 1 << (bit % 8);
                }
            }
            let body = bytes.len() - 4;
            let crc = bitstream::crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            assert_same_outcome(&bytes, &c.header, &format!("{coder} case {case} mutant"));
            mutants += 1;
        }
    }
    assert!(mutants >= 2000);
}
