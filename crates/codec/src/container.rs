//! The `.qnc` compressed-image container.
//!
//! # Byte layout (format versions 1 and 2, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QNC1"
//! 4       2     format version (1 = rice, 2 = rice-pos / range)
//! 6       2     flags: bit 0 = per-tile scaled quantization
//!                      bit 1 = inline model present
//!                      bit 2 = per-position Rice coding (v2 only)
//!                      bit 3 = adaptive range coding   (v2 only)
//! 8       8     model id (FNV-1a 64 of the encoder's model body)
//! 16      4     image width   (pixels)
//! 20      4     image height  (pixels)
//! 24      2     tile size     (pixels per tile edge)
//! 26      2     latent dimension d (kept amplitudes per tile)
//! 28      1     quantizer bit depth
//! 29      3     reserved (must be 0)
//! 32      4     max tile norm (f32) — scale for 16-bit norm quantization
//! 36      …     [flags bit 1] inline model: length u32 + model bytes
//! …       4     payload length (bytes)
//! …       …     payload bitstream (layout below)
//! end−4   4     CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! **Version 1 payload** (`rice`), tiles in row-major order, bits
//! LSB-first:
//!
//! ```text
//! per tile:
//!   1 bit   occupancy (0 = all-zero tile, nothing follows)
//!   16 bits tile norm, quantized against the header's max norm
//!   [flags bit 0] 32 bits per-tile scale (f32 bit pattern)
//!   5 bits  Rice parameter k for this tile
//!   d ×     Rice(k)-coded zigzag symbols of the quantized latents
//! ```
//!
//! **Version 2 payload, flag bit 2** (`rice-pos`): one Rice parameter
//! per latent position, estimated over the whole tile panel, plus
//! predicted-norm deltas between raster-neighbouring occupied tiles:
//!
//! ```text
//! k-table:  5 bits k₀, then per position j = 1..d the signed delta
//!           kⱼ − kⱼ₋₁, zigzag-mapped and Rice(1)-coded
//! norm-k:   5 bits — Rice parameter of the norm-delta stream
//! per tile:
//!   1 bit   occupancy
//!   Rice(norm-k) zigzag of (norm_q − pred); pred = previous occupied
//!           tile's norm_q, initially 65535 (the max-norm tile's value)
//!   [flags bit 0] 32 bits per-tile scale (f32 bit pattern)
//!   d ×     Rice(kⱼ)-coded zigzag symbols
//! ```
//!
//! **Version 2 payload, flag bit 3** (`range`): a single adaptive
//! binary range-coded stream (see [`crate::entropy`]) carrying, per
//! tile: the occupancy bit (one adaptive context), the zigzagged norm
//! delta (Exp-Golomb, shared context set), the optional scale as 32
//! bypass bits, and each latent symbol Exp-Golomb-coded under its
//! position's context set. No side tables: the contexts adapt as the
//! stream decodes.
//!
//! # In memory
//!
//! A parsed [`Container`] holds its tiles as flat arrays over the grid
//! ([`TileGrid`]): one occupancy flag per tile, then per occupied tile a
//! quantized norm, an optional scale and `d` quantizer levels, each
//! array in row-major tile order. Writers and readers walk those
//! arrays; the bytes are the layouts above, unchanged.
//!
//! # Versioning rules
//!
//! Readers reject versions above [`CONTAINER_VERSION`]; any layout
//! change bumps the version; the reserved header bytes absorb small
//! additions without a bump. A v1 container must not carry the v2
//! entropy flags (and vice versa: v2 requires exactly one of them) —
//! inconsistent pairings surface as
//! [`CodecError::UnsupportedCoder`].

use crate::bitstream::{
    best_rice_k, crc32, read_rice, unzigzag_signed, write_rice, zigzag_signed, BitReader,
    BitWriter, ByteReader, ByteWriter, RICE_K_BITS,
};
use crate::entropy::{decode_eg, encode_eg, EntropyCoder, RangeDecoder, RangeEncoder, PROB_INIT};
use crate::error::{CodecError, Result};
use crate::quantize::{zigzag, Quantizer, MAX_BITS};
use qn_linalg::panel::DEFAULT_PANEL_WIDTH;
use qn_linalg::parallel::par_map_chunked_into;
use std::sync::atomic::{AtomicBool, Ordering};

/// Leading magic of a container file.
pub const CONTAINER_MAGIC: [u8; 4] = *b"QNC1";
/// Highest container version this build reads. Version 1 is written
/// for `rice` containers (bit-exact with pre-v2 builds), version 2 for
/// `rice-pos` / `range`.
pub const CONTAINER_VERSION: u16 = 2;
/// The version `rice` containers carry.
pub const CONTAINER_VERSION_V1: u16 = 1;

/// Flag bit 0: per-tile scaled quantization.
pub const FLAG_PER_TILE_SCALE: u16 = 1 << 0;
/// Flag bit 1: the container embeds its own model file.
pub const FLAG_INLINE_MODEL: u16 = 1 << 1;
/// Flag bit 2 (v2): per-latent-position Rice coding.
pub const FLAG_ENTROPY_RICE_POS: u16 = 1 << 2;
/// Flag bit 3 (v2): adaptive binary range coding.
pub const FLAG_ENTROPY_RANGE: u16 = 1 << 3;

/// Levels of the 16-bit norm quantizer.
const NORM_LEVELS: u32 = u16::MAX as u32;
/// Predictor seed for the first occupied tile's norm delta: the
/// max-norm tile quantizes to exactly [`NORM_LEVELS`], so single-tile
/// images (and images whose first tile carries the peak) get a
/// zero-cost first delta.
const NORM_PRED_INIT: u32 = NORM_LEVELS;
/// Largest meaningful Rice parameter for the norm-delta stream
/// (zigzagged deltas are below 2^18).
const MAX_NORM_K: u32 = 17;
/// Rice parameter for the k-table's delta stream.
const K_TABLE_DELTA_K: u32 = 1;
/// Exp-Golomb bucket cap for range-coded values (both zigzag symbols
/// and norm deltas are below 2^18).
const MAX_EG_BUCKET: u32 = 17;
/// Adaptive context bins for range-coded symbol prefixes.
const SYM_CTX_BINS: usize = 10;
/// Adaptive context bins for range-coded norm-delta prefixes.
const NORM_CTX_BINS: usize = 12;
/// Latent positions with their own context set; higher positions share
/// the last set (bounds context memory for hostile headers).
const MAX_CTX_POSITIONS: usize = 64;
/// Hard cap on the tile count of a `range` container. Range-coded
/// occupancy bits compress below one bit per tile, so the v1 "one bit
/// per tile" payload-budget guard cannot bound the tile vector; this
/// cap does (4 Mi tiles ≈ an 8192×8192 image at tile 4), symmetric in
/// encoder and decoder.
const MAX_RANGE_TILES: usize = 1 << 22;
/// Decoded items (occupancy bits, norms, symbols) a `range` payload
/// byte may yield. A fully adapted context floors at probability
/// 2017/2048, so one decoded bin costs ≥ −log₂(2017/2048) ≈ 0.022
/// bits — at most ~364 items per byte from any stream our coder can
/// produce. 512 leaves margin while keeping decode memory and work
/// proportional to the *input* size: a small corrupt-but-CRC-valid
/// container cannot balloon into millions of decoded tiles.
const RANGE_ITEMS_PER_BYTE: usize = 512;

/// Upper bound on header dimensions (defends allocations against
/// corrupt headers; 2³⁰ pixels ≈ 1 gigapixel per side is far beyond any
/// workload this serves).
const MAX_DIM: u32 = 1 << 30;

/// Parsed fixed-size header of a container.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerHeader {
    /// Format version the file was written with.
    pub version: u16,
    /// Feature flags (`FLAG_*`).
    pub flags: u16,
    /// Identity of the encoding model.
    pub model_id: u64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Tile edge length in pixels.
    pub tile_size: u16,
    /// Kept amplitudes per tile.
    pub latent_dim: u16,
    /// Quantizer bit depth.
    pub bits: u8,
    /// Largest tile norm (norm-quantization scale).
    pub max_norm: f32,
}

impl ContainerHeader {
    /// Tiles per row.
    pub fn tiles_x(&self) -> usize {
        (self.width as usize)
            .div_ceil(self.tile_size as usize)
            .max(1)
    }

    /// Tiles per column.
    pub fn tiles_y(&self) -> usize {
        (self.height as usize)
            .div_ceil(self.tile_size as usize)
            .max(1)
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles_x() * self.tiles_y()
    }

    /// Whether per-tile scales are stored.
    pub fn per_tile_scale(&self) -> bool {
        self.flags & FLAG_PER_TILE_SCALE != 0
    }

    /// Whether a model file is embedded.
    pub fn inline_model(&self) -> bool {
        self.flags & FLAG_INLINE_MODEL != 0
    }

    /// The entropy coder the version/flag pair names.
    ///
    /// # Errors
    /// [`CodecError::UnsupportedCoder`] for inconsistent pairings: a v1
    /// container carrying v2 entropy flags, a v2 container carrying
    /// none (or both) — the typed "this build does not read that
    /// coder" signal.
    pub fn entropy(&self) -> Result<EntropyCoder> {
        let coder_bits = self.flags & (FLAG_ENTROPY_RICE_POS | FLAG_ENTROPY_RANGE);
        match (self.version, coder_bits) {
            (CONTAINER_VERSION_V1, 0) => Ok(EntropyCoder::Rice),
            (CONTAINER_VERSION, FLAG_ENTROPY_RICE_POS) => Ok(EntropyCoder::RicePos),
            (CONTAINER_VERSION, FLAG_ENTROPY_RANGE) => Ok(EntropyCoder::Range),
            _ => Err(CodecError::UnsupportedCoder { flags: coder_bits }),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.version == 0 || self.version > CONTAINER_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: self.version,
                supported: CONTAINER_VERSION,
            });
        }
        let known =
            FLAG_PER_TILE_SCALE | FLAG_INLINE_MODEL | FLAG_ENTROPY_RICE_POS | FLAG_ENTROPY_RANGE;
        if self.flags & !known != 0 {
            return Err(CodecError::Invalid(format!(
                "unknown container flags: {:#06x}",
                self.flags & !known
            )));
        }
        self.entropy()?;
        if self.width == 0 || self.height == 0 || self.width > MAX_DIM || self.height > MAX_DIM {
            return Err(CodecError::Invalid(format!(
                "image dimensions {}x{} out of range",
                self.width, self.height
            )));
        }
        if self.tile_size == 0 {
            return Err(CodecError::Invalid("tile size must be positive".into()));
        }
        if self.latent_dim == 0 {
            return Err(CodecError::Invalid(
                "latent dimension must be positive".into(),
            ));
        }
        if self.bits == 0 || self.bits > MAX_BITS {
            return Err(CodecError::Invalid(format!(
                "bit depth must be in 1..={MAX_BITS}, got {}",
                self.bits
            )));
        }
        if !self.max_norm.is_finite() || self.max_norm < 0.0 {
            return Err(CodecError::Invalid(format!(
                "max norm {} is not a finite non-negative value",
                self.max_norm
            )));
        }
        Ok(())
    }
}

/// A container's tiles as flat arrays over the tile grid — no
/// allocation per tile. Occupied tiles appear in row-major order in
/// every per-tile array, so occupied tile `o` owns `norms_q[o]`,
/// `scales[o]` (when present) and `levels[o·d..(o+1)·d]` for the
/// header's latent dimension `d`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TileGrid {
    /// One flag per grid tile, row-major; `false` marks an all-zero
    /// tile, which carries nothing else.
    pub occupied: Vec<bool>,
    /// Each occupied tile's norm, quantized against the header's
    /// `max_norm` (`norm ≈ norm_q / 65535 · max_norm`).
    pub norms_q: Vec<u16>,
    /// Each occupied tile's amplitude scale when [`FLAG_PER_TILE_SCALE`]
    /// is set; empty otherwise.
    pub scales: Vec<f32>,
    /// `latent_dim` quantizer levels per occupied tile, tile after tile.
    pub levels: Vec<u32>,
}

impl TileGrid {
    /// Grid tiles, occupied or not.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Whether the grid has no tiles at all.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Occupied (non-zero) tiles.
    pub fn occupied_count(&self) -> usize {
        self.norms_q.len()
    }

    /// Append an all-zero tile.
    pub fn push_empty(&mut self) {
        self.occupied.push(false);
    }

    /// Append an occupied tile.
    pub fn push(&mut self, norm_q: u16, scale: Option<f32>, levels: &[u32]) {
        self.occupied.push(true);
        self.norms_q.push(norm_q);
        self.scales.extend(scale);
        self.levels.extend_from_slice(levels);
    }

    /// Check the arrays against each other and the header: one flag
    /// per grid tile, one norm per occupied tile, a scale per occupied
    /// tile exactly when the header says so, `latent_dim` levels per
    /// occupied tile.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] naming the first disagreement.
    pub(crate) fn check(&self, header: &ContainerHeader) -> Result<()> {
        if self.occupied.len() != header.tile_count() {
            return Err(CodecError::Invalid(format!(
                "container has {} tiles, header implies {}",
                self.occupied.len(),
                header.tile_count()
            )));
        }
        let occupied = self.occupied.iter().filter(|&&o| o).count();
        if self.norms_q.len() != occupied {
            return Err(CodecError::Invalid(format!(
                "{} tile norms for {occupied} occupied tiles",
                self.norms_q.len()
            )));
        }
        let scales = if header.per_tile_scale() { occupied } else { 0 };
        if self.scales.len() != scales {
            return Err(CodecError::Invalid(
                "tile scale presence disagrees with container flags".into(),
            ));
        }
        let d = header.latent_dim as usize;
        if self.levels.len() != occupied * d {
            return Err(CodecError::Invalid(format!(
                "{} latent levels for {occupied} occupied tiles of {d} latents",
                self.levels.len()
            )));
        }
        Ok(())
    }
}

/// A fully parsed (or to-be-written) container.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    /// Fixed-size header.
    pub header: ContainerHeader,
    /// Embedded model file bytes, when present.
    pub inline_model: Option<Vec<u8>>,
    /// The tile payloads as flat grid arrays.
    pub tiles: TileGrid,
}

/// Quantize a tile norm against the container's max norm.
pub fn quantize_norm(norm: f64, max_norm: f32) -> u16 {
    if max_norm <= 0.0 {
        return 0;
    }
    let unit = (norm / f64::from(max_norm)).clamp(0.0, 1.0);
    (unit * f64::from(NORM_LEVELS)).round() as u16
}

/// Reconstruct a tile norm.
pub fn dequantize_norm(norm_q: u16, max_norm: f32) -> f64 {
    f64::from(norm_q) / f64::from(NORM_LEVELS) * f64::from(max_norm)
}

impl Container {
    /// Serialise to complete file bytes (header + payload + CRC).
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when the container is internally
    /// inconsistent (array lengths disagreeing with the grid, levels
    /// out of range for the bit depth, scale presence disagreeing with
    /// the flags).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        self.header.validate()?;
        self.tiles.check(&self.header)?;
        if self.header.inline_model() != self.inline_model.is_some() {
            return Err(CodecError::Invalid(
                "inline-model flag disagrees with inline model presence".into(),
            ));
        }
        let quantizer = Quantizer::new(self.header.bits)?;
        let entropy = self.header.entropy()?;
        let (symbols, tile_ks) = self.tile_symbols(&quantizer, entropy == EntropyCoder::Rice)?;
        let payload = match entropy {
            EntropyCoder::Rice => self.payload_rice(&symbols, &tile_ks),
            EntropyCoder::RicePos => self.payload_rice_pos(&symbols),
            EntropyCoder::Range => {
                if self.tiles.len() > MAX_RANGE_TILES {
                    return Err(CodecError::Invalid(format!(
                        "{} tiles exceed the {MAX_RANGE_TILES}-tile limit of the range \
                         coder; use rice or rice-pos for images this large",
                        self.tiles.len()
                    )));
                }
                self.payload_range(&symbols)
            }
        };

        let mut w = ByteWriter::new();
        w.put_bytes(&CONTAINER_MAGIC);
        w.put_u16(self.header.version);
        w.put_u16(self.header.flags);
        w.put_u64(self.header.model_id);
        w.put_u32(self.header.width);
        w.put_u32(self.header.height);
        w.put_u16(self.header.tile_size);
        w.put_u16(self.header.latent_dim);
        w.put_u8(self.header.bits);
        w.put_bytes(&[0, 0, 0]); // reserved
        w.put_f32(self.header.max_norm);
        if let Some(model) = &self.inline_model {
            w.put_u32(model.len() as u32);
            w.put_bytes(model);
        }
        w.put_u32(payload.len() as u32);
        w.put_bytes(&payload);
        let mut bytes = w.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        Ok(bytes)
    }

    /// Parse container bytes (the inverse of [`Container::to_bytes`]).
    ///
    /// # Errors
    /// Typed [`CodecError`] for every malformation — truncation, bad
    /// magic, unknown versions/flags, checksum or field-range failures.
    /// Never panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 4 {
            return Err(CodecError::Truncated {
                context: "container magic",
            });
        }
        let found: [u8; 4] = bytes[..4].try_into().expect("length checked");
        if found != CONTAINER_MAGIC {
            return Err(CodecError::BadMagic {
                expected: CONTAINER_MAGIC,
                found,
            });
        }
        if bytes.len() < 40 {
            return Err(CodecError::Truncated {
                context: "container header",
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }

        let mut r = ByteReader::new(body);
        r.get_bytes(4, "container magic")?;
        let header = ContainerHeader {
            version: r.get_u16("container version")?,
            flags: r.get_u16("container flags")?,
            model_id: r.get_u64("model id")?,
            width: r.get_u32("image width")?,
            height: r.get_u32("image height")?,
            tile_size: r.get_u16("tile size")?,
            latent_dim: r.get_u16("latent dimension")?,
            bits: {
                let b = r.get_u8("bit depth")?;
                r.get_bytes(3, "reserved header bytes")?;
                b
            },
            max_norm: r.get_f32("max norm")?,
        };
        header.validate()?;

        let inline_model = if header.inline_model() {
            let len = r.get_u32("inline model length")? as usize;
            if len > r.remaining() {
                return Err(CodecError::Truncated {
                    context: "inline model bytes",
                });
            }
            Some(r.get_bytes(len, "inline model bytes")?.to_vec())
        } else {
            None
        };

        let payload_len = r.get_u32("payload length")? as usize;
        if payload_len != r.remaining() {
            return Err(CodecError::Invalid(format!(
                "payload length field says {payload_len} bytes, {} remain",
                r.remaining()
            )));
        }
        let payload = r.get_bytes(payload_len, "payload bytes")?;

        let entropy = header.entropy()?;
        // Bound the tile-vector allocation before it happens (a crafted
        // width/height pair can imply ~2^60 tiles). Under Rice coding
        // every tile costs at least its occupancy bit, so the payload's
        // bit count bounds the grid; range-coded occupancy compresses
        // below a bit per tile, so that mode carries its own hard cap.
        match entropy {
            EntropyCoder::Rice | EntropyCoder::RicePos => {
                if header.tile_count() > payload.len() * 8 {
                    return Err(CodecError::Invalid(format!(
                        "header implies {} tiles but the payload holds only {} bits",
                        header.tile_count(),
                        payload.len() * 8
                    )));
                }
            }
            EntropyCoder::Range => {
                if header.tile_count() > MAX_RANGE_TILES {
                    return Err(CodecError::Invalid(format!(
                        "header implies {} tiles, above the {MAX_RANGE_TILES}-tile limit \
                         of the range coder",
                        header.tile_count()
                    )));
                }
            }
        }
        let quantizer = Quantizer::new(header.bits)?;
        let tiles = match entropy {
            EntropyCoder::Rice => read_tiles_rice(&header, &quantizer, payload)?,
            EntropyCoder::RicePos => read_tiles_rice_pos(&header, &quantizer, payload)?,
            EntropyCoder::Range => read_tiles_range(&header, &quantizer, payload)?,
        };

        Ok(Container {
            header,
            inline_model,
            tiles,
        })
    }

    /// Range-check and zigzag-map every level — the symbol view all
    /// three payload writers share: the occupied tiles' symbols
    /// concatenated in tile order, `latent_dim` per tile — plus, when
    /// `per_tile_k` is set (v1 `rice`), each tile's best Rice
    /// parameter. Runs one panel of tiles per chunk on the pool; the
    /// chunking depends only on the tile count, so the output does not
    /// depend on the thread count.
    fn tile_symbols(
        &self,
        quantizer: &Quantizer,
        per_tile_k: bool,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        let levels = quantizer.levels();
        let zero_level = quantizer.zero_level();
        let d = self.header.latent_dim as usize;
        let max_k = u32::from(self.header.bits) + 1;
        let tiles = self.tiles.occupied_count();
        let mut symbols = vec![0u32; self.tiles.levels.len()];
        let mut tile_ks = vec![0u32; if per_tile_k { tiles } else { 0 }];
        let out_of_range = AtomicBool::new(false);
        let mut jobs: Vec<(&mut [u32], &mut [u32])> = symbols
            .chunks_mut(DEFAULT_PANEL_WIDTH * d)
            .zip(
                tile_ks
                    .chunks_mut(DEFAULT_PANEL_WIDTH)
                    .chain(std::iter::repeat_with(Default::default)),
            )
            .collect();
        par_map_chunked_into(&mut jobs, 1, |first, jobs| {
            for (i, (syms, ks)) in jobs.iter_mut().enumerate() {
                let start = (first + i) * DEFAULT_PANEL_WIDTH * d;
                let src = &self.tiles.levels[start..start + syms.len()];
                for (sym, &level) in syms.iter_mut().zip(src) {
                    if level >= levels {
                        out_of_range.store(true, Ordering::Relaxed);
                        return;
                    }
                    *sym = zigzag(level, zero_level);
                }
                for (k, tile) in ks.iter_mut().zip(syms.chunks_exact(d)) {
                    *k = best_rice_k(tile, max_k);
                }
            }
        });
        drop(jobs);
        if out_of_range.into_inner() {
            let level = self.tiles.levels.iter().find(|&&l| l >= levels);
            return Err(CodecError::Invalid(format!(
                "level {} out of range for {}-bit quantizer",
                level.expect("an out-of-range level was seen"),
                self.header.bits
            )));
        }
        Ok((symbols, tile_ks))
    }

    /// The v1 payload: per-tile Rice parameter, raw 16-bit norms.
    /// Bit-exact with every pre-v2 build.
    fn payload_rice(&self, symbols: &[u32], tile_ks: &[u32]) -> Vec<u8> {
        let d = self.header.latent_dim as usize;
        let tiles = &self.tiles;
        let mut bits = BitWriter::new();
        let mut o = 0;
        for &occupied in &tiles.occupied {
            if !occupied {
                bits.write_bit(false);
                continue;
            }
            bits.write_bit(true);
            bits.write_bits(u64::from(tiles.norms_q[o]), 16);
            if let Some(scale) = tiles.scales.get(o) {
                bits.write_bits(u64::from(scale.to_bits()), 32);
            }
            let k = tile_ks[o];
            bits.write_bits(u64::from(k), RICE_K_BITS);
            for &s in &symbols[o * d..(o + 1) * d] {
                write_rice(&mut bits, s, k);
            }
            o += 1;
        }
        bits.finish()
    }

    /// The v2 `rice-pos` payload: delta-coded per-position k-table and
    /// norm-delta stream up front, then the tiles.
    fn payload_rice_pos(&self, symbols: &[u32]) -> Vec<u8> {
        let d = self.header.latent_dim as usize;
        let max_k = u32::from(self.header.bits) + 1;

        // Per-position Rice parameters over the whole tile panel.
        let mut k_table = vec![0u32; d];
        let mut column = Vec::new();
        for (j, k) in k_table.iter_mut().enumerate() {
            column.clear();
            column.extend(symbols.chunks_exact(d).map(|syms| syms[j]));
            *k = best_rice_k(&column, max_k);
        }

        // Predicted-norm deltas between raster-neighbouring occupied
        // tiles, and the Rice parameter that fits them best.
        let mut pred = NORM_PRED_INIT;
        let deltas: Vec<u32> = self
            .tiles
            .norms_q
            .iter()
            .map(|&norm_q| {
                let norm_q = u32::from(norm_q);
                let delta = zigzag_signed(i64::from(norm_q) - i64::from(pred)) as u32;
                pred = norm_q;
                delta
            })
            .collect();
        let norm_k = best_rice_k(&deltas, MAX_NORM_K);

        let mut bits = BitWriter::new();
        bits.write_bits(u64::from(k_table[0]), RICE_K_BITS);
        for j in 1..d {
            let delta = i64::from(k_table[j]) - i64::from(k_table[j - 1]);
            write_rice(&mut bits, zigzag_signed(delta) as u32, K_TABLE_DELTA_K);
        }
        bits.write_bits(u64::from(norm_k), RICE_K_BITS);

        let tiles = &self.tiles;
        let mut o = 0;
        for &occupied in &tiles.occupied {
            if !occupied {
                bits.write_bit(false);
                continue;
            }
            bits.write_bit(true);
            write_rice(&mut bits, deltas[o], norm_k);
            if let Some(scale) = tiles.scales.get(o) {
                bits.write_bits(u64::from(scale.to_bits()), 32);
            }
            for (&s, &k) in symbols[o * d..(o + 1) * d].iter().zip(&k_table) {
                write_rice(&mut bits, s, k);
            }
            o += 1;
        }
        bits.finish()
    }

    /// The v2 `range` payload: one adaptive binary range-coded stream,
    /// per-position contexts, no side tables.
    fn payload_range(&self, symbols: &[u32]) -> Vec<u8> {
        let d = self.header.latent_dim as usize;
        let ctx_sets = d.clamp(1, MAX_CTX_POSITIONS);
        let mut enc = RangeEncoder::new();
        let mut occ_ctx = PROB_INIT;
        let mut norm_ctx = [PROB_INIT; NORM_CTX_BINS];
        let mut sym_ctx = vec![[PROB_INIT; SYM_CTX_BINS]; ctx_sets];
        let mut pred = NORM_PRED_INIT;
        let tiles = &self.tiles;
        let mut o = 0;
        for &occupied in &tiles.occupied {
            if !occupied {
                enc.encode_bit(&mut occ_ctx, false);
                continue;
            }
            enc.encode_bit(&mut occ_ctx, true);
            let norm_q = u32::from(tiles.norms_q[o]);
            let delta = zigzag_signed(i64::from(norm_q) - i64::from(pred)) as u32;
            encode_eg(&mut enc, &mut norm_ctx, delta);
            pred = norm_q;
            if let Some(scale) = tiles.scales.get(o) {
                enc.encode_direct(u64::from(scale.to_bits()), 32);
            }
            for (j, &s) in symbols[o * d..(o + 1) * d].iter().enumerate() {
                encode_eg(&mut enc, &mut sym_ctx[j.min(ctx_sets - 1)], s);
            }
            o += 1;
        }
        enc.finish()
    }
}

/// Shared per-tile field validation: the scale read by both v2 readers.
fn validate_scale(raw: u32) -> Result<f32> {
    let s = f32::from_bits(raw);
    if !s.is_finite() || s <= 0.0 {
        return Err(CodecError::Invalid(format!(
            "tile scale {s} is not a positive finite value"
        )));
    }
    Ok(s)
}

/// Apply a decoded zigzag norm delta to the running predictor,
/// rejecting out-of-range results (corrupt stream).
fn apply_norm_delta(pred: &mut u32, delta_zz: u32) -> Result<u16> {
    let norm = i64::from(*pred) + unzigzag_signed(u64::from(delta_zz));
    if !(0..=i64::from(NORM_LEVELS)).contains(&norm) {
        return Err(CodecError::Invalid(format!(
            "norm delta walks the predictor to {norm}, outside the 16-bit norm range"
        )));
    }
    *pred = norm as u32;
    Ok(norm as u16)
}

/// Decode the v1 payload (per-tile Rice parameter, raw norms).
fn read_tiles_rice(
    header: &ContainerHeader,
    quantizer: &Quantizer,
    payload: &[u8],
) -> Result<TileGrid> {
    let levels = quantizer.levels();
    let zero_level = quantizer.zero_level();
    let mut bits = BitReader::new(payload);
    let mut tiles = TileGrid {
        occupied: Vec::with_capacity(header.tile_count()),
        ..TileGrid::default()
    };
    for _ in 0..header.tile_count() {
        let occupied = bits.read_bit()?;
        tiles.occupied.push(occupied);
        if !occupied {
            continue;
        }
        tiles.norms_q.push(bits.read_bits(16)? as u16);
        if header.per_tile_scale() {
            tiles
                .scales
                .push(validate_scale(bits.read_bits(32)? as u32)?);
        }
        let k = bits.read_bits(RICE_K_BITS)? as u32;
        if k > u32::from(header.bits) + 1 {
            return Err(CodecError::Invalid(format!(
                "rice parameter {k} exceeds the maximum for {}-bit symbols",
                header.bits
            )));
        }
        for _ in 0..header.latent_dim {
            let symbol = read_rice(&mut bits, k)?;
            if symbol >= levels {
                return Err(CodecError::Invalid(format!(
                    "zigzag symbol {symbol} out of range for {}-bit quantizer",
                    header.bits
                )));
            }
            tiles
                .levels
                .push(crate::quantize::unzigzag(symbol, zero_level));
        }
    }
    Ok(tiles)
}

/// Decode the v2 `rice-pos` payload.
fn read_tiles_rice_pos(
    header: &ContainerHeader,
    quantizer: &Quantizer,
    payload: &[u8],
) -> Result<TileGrid> {
    let levels = quantizer.levels();
    let zero_level = quantizer.zero_level();
    let d = header.latent_dim as usize;
    let max_k = u32::from(header.bits) + 1;
    let mut bits = BitReader::new(payload);

    let mut k_table = Vec::with_capacity(d);
    let mut k = bits.read_bits(RICE_K_BITS)? as i64;
    for j in 0..d {
        if j > 0 {
            let delta_zz = read_rice(&mut bits, K_TABLE_DELTA_K)?;
            k += unzigzag_signed(u64::from(delta_zz));
        }
        if !(0..=i64::from(max_k)).contains(&k) {
            return Err(CodecError::Invalid(format!(
                "per-position rice parameter {k} at position {j} exceeds the maximum \
                 for {}-bit symbols",
                header.bits
            )));
        }
        k_table.push(k as u32);
    }
    let norm_k = bits.read_bits(RICE_K_BITS)? as u32;
    if norm_k > MAX_NORM_K {
        return Err(CodecError::Invalid(format!(
            "norm-delta rice parameter {norm_k} exceeds the maximum {MAX_NORM_K}"
        )));
    }

    let mut pred = NORM_PRED_INIT;
    let mut tiles = TileGrid {
        occupied: Vec::with_capacity(header.tile_count()),
        ..TileGrid::default()
    };
    for _ in 0..header.tile_count() {
        let occupied = bits.read_bit()?;
        tiles.occupied.push(occupied);
        if !occupied {
            continue;
        }
        tiles
            .norms_q
            .push(apply_norm_delta(&mut pred, read_rice(&mut bits, norm_k)?)?);
        if header.per_tile_scale() {
            tiles
                .scales
                .push(validate_scale(bits.read_bits(32)? as u32)?);
        }
        for &kj in &k_table {
            let symbol = read_rice(&mut bits, kj)?;
            if symbol >= levels {
                return Err(CodecError::Invalid(format!(
                    "zigzag symbol {symbol} out of range for {}-bit quantizer",
                    header.bits
                )));
            }
            tiles
                .levels
                .push(crate::quantize::unzigzag(symbol, zero_level));
        }
    }
    Ok(tiles)
}

/// Decode the v2 `range` payload.
fn read_tiles_range(
    header: &ContainerHeader,
    quantizer: &Quantizer,
    payload: &[u8],
) -> Result<TileGrid> {
    let levels = quantizer.levels();
    let zero_level = quantizer.zero_level();
    let d = header.latent_dim as usize;
    let ctx_sets = d.clamp(1, MAX_CTX_POSITIONS);
    let mut dec = RangeDecoder::new(payload)?;
    let mut occ_ctx = PROB_INIT;
    let mut norm_ctx = [PROB_INIT; NORM_CTX_BINS];
    let mut sym_ctx = vec![[PROB_INIT; SYM_CTX_BINS]; ctx_sets];
    let mut pred = NORM_PRED_INIT;
    // Decode memory must stay proportional to the *input*: no
    // preallocation from header fields (a tiny CRC-valid file must not
    // reserve a MAX_RANGE_TILES-sized vector up front), and a budget of
    // decoded items tied to the payload size — any stream our encoder
    // can produce stays far under it, while a corrupt stream that
    // "decodes" endless near-free items hits a typed error instead of
    // ballooning.
    let mut item_budget = payload
        .len()
        .saturating_mul(RANGE_ITEMS_PER_BYTE)
        .saturating_add(64);
    let mut spend = |items: usize| -> Result<()> {
        item_budget = item_budget.checked_sub(items).ok_or_else(|| {
            CodecError::Invalid(format!(
                "range payload of {} bytes implies more decoded symbols than it can carry",
                payload.len()
            ))
        })?;
        Ok(())
    };
    let mut tiles = TileGrid::default();
    for _ in 0..header.tile_count() {
        spend(1)?;
        let occupied = dec.decode_bit(&mut occ_ctx)?;
        tiles.occupied.push(occupied);
        if !occupied {
            continue;
        }
        spend(1 + d)?;
        let delta_zz = decode_eg(&mut dec, &mut norm_ctx, MAX_EG_BUCKET)?;
        tiles.norms_q.push(apply_norm_delta(&mut pred, delta_zz)?);
        if header.per_tile_scale() {
            tiles
                .scales
                .push(validate_scale(dec.decode_direct(32)? as u32)?);
        }
        for j in 0..d {
            let symbol = decode_eg(&mut dec, &mut sym_ctx[j.min(ctx_sets - 1)], MAX_EG_BUCKET)?;
            if symbol >= levels {
                return Err(CodecError::Invalid(format!(
                    "zigzag symbol {symbol} out of range for {}-bit quantizer",
                    header.bits
                )));
            }
            tiles
                .levels
                .push(crate::quantize::unzigzag(symbol, zero_level));
        }
    }
    Ok(tiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_container(per_tile_scale: bool, inline_model: Option<Vec<u8>>) -> Container {
        let mut flags = 0u16;
        if per_tile_scale {
            flags |= FLAG_PER_TILE_SCALE;
        }
        if inline_model.is_some() {
            flags |= FLAG_INLINE_MODEL;
        }
        let header = ContainerHeader {
            version: CONTAINER_VERSION_V1,
            flags,
            model_id: 0xDEAD_BEEF_CAFE_F00D,
            width: 10,
            height: 7,
            tile_size: 4,
            latent_dim: 5,
            bits: 8,
            max_norm: 3.5,
        };
        let mut tiles = TileGrid::default();
        for i in 0..header.tile_count() {
            if i % 3 == 2 {
                tiles.push_empty();
            } else {
                let levels: Vec<u32> = (0..5).map(|j| ((i * 37 + j * 11) % 256) as u32).collect();
                tiles.push(
                    (i * 9991 % 65536) as u16,
                    per_tile_scale.then_some(0.25 + i as f32 * 0.1),
                    &levels,
                );
            }
        }
        Container {
            header,
            inline_model,
            tiles,
        }
    }

    /// Rewrite a v1 sample as a v2 container carrying `coder`.
    fn with_entropy(mut c: Container, coder: EntropyCoder) -> Container {
        c.header.version = coder.container_version();
        c.header.flags &= !(FLAG_ENTROPY_RICE_POS | FLAG_ENTROPY_RANGE);
        c.header.flags |= coder.container_flags();
        c
    }

    #[test]
    fn roundtrip_is_exact() {
        for per_tile in [false, true] {
            for model in [None, Some(vec![1u8, 2, 3, 4, 5])] {
                let c = sample_container(per_tile, model);
                let bytes = c.to_bytes().unwrap();
                let back = Container::from_bytes(&bytes).unwrap();
                assert_eq!(back, c);
                // Deterministic re-serialisation.
                assert_eq!(back.to_bytes().unwrap(), bytes);
            }
        }
    }

    #[test]
    fn v2_coders_roundtrip_exactly_and_agree_on_tiles() {
        for coder in [EntropyCoder::RicePos, EntropyCoder::Range] {
            for per_tile in [false, true] {
                for model in [None, Some(vec![1u8, 2, 3])] {
                    let c = with_entropy(sample_container(per_tile, model), coder);
                    let bytes = c.to_bytes().unwrap();
                    let back = Container::from_bytes(&bytes).unwrap();
                    assert_eq!(back, c, "{coder} per_tile={per_tile}");
                    assert_eq!(back.to_bytes().unwrap(), bytes, "{coder}");
                    assert_eq!(back.header.entropy().unwrap(), coder);
                    // Same tiles as the v1 encoding of the same data:
                    // entropy coding is lossless re the levels.
                    let v1 = sample_container(per_tile, None);
                    assert_eq!(back.tiles, v1.tiles, "{coder}");
                }
            }
        }
    }

    #[test]
    fn inconsistent_coder_version_pairings_are_typed_errors() {
        // v1 carrying a v2 entropy flag.
        let mut c = sample_container(false, None);
        c.header.flags |= FLAG_ENTROPY_RICE_POS;
        assert!(matches!(
            c.to_bytes(),
            Err(CodecError::UnsupportedCoder { .. })
        ));
        // v2 with no coder flag at all.
        let mut c = sample_container(false, None);
        c.header.version = CONTAINER_VERSION;
        assert!(matches!(
            c.to_bytes(),
            Err(CodecError::UnsupportedCoder { .. })
        ));
        // v2 with both coder flags.
        let mut c = with_entropy(sample_container(false, None), EntropyCoder::RicePos);
        c.header.flags |= FLAG_ENTROPY_RANGE;
        assert!(matches!(
            c.to_bytes(),
            Err(CodecError::UnsupportedCoder { .. })
        ));
        // The same pairings forged into serialized bytes fail on read.
        let good = with_entropy(sample_container(false, None), EntropyCoder::Range)
            .to_bytes()
            .unwrap();
        let mut forged = good.clone();
        forged[4..6].copy_from_slice(&CONTAINER_VERSION_V1.to_le_bytes());
        let body = forged.len() - 4;
        let crc = crc32(&forged[..body]).to_le_bytes();
        forged[body..].copy_from_slice(&crc);
        assert!(matches!(
            Container::from_bytes(&forged),
            Err(CodecError::UnsupportedCoder { .. })
        ));
    }

    #[test]
    fn v2_truncation_and_flips_never_panic() {
        for coder in [EntropyCoder::RicePos, EntropyCoder::Range] {
            let bytes = with_entropy(sample_container(true, None), coder)
                .to_bytes()
                .unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    Container::from_bytes(&bytes[..cut]).is_err(),
                    "{coder}: cut {cut}"
                );
            }
            for pos in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x10;
                assert!(
                    Container::from_bytes(&bad).is_err(),
                    "{coder}: flip at {pos} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn single_occupied_tile_norm_delta_is_cheap() {
        // A 4×4 single-tile container: the sole tile carries the max
        // norm, so its quantized norm is exactly 65535 and the seeded
        // predictor makes the delta zero — rice-pos must beat v1's raw
        // 16-bit norm even after paying for the k-table.
        let header = ContainerHeader {
            version: CONTAINER_VERSION_V1,
            flags: 0,
            model_id: 1,
            width: 4,
            height: 4,
            tile_size: 4,
            latent_dim: 8,
            bits: 8,
            max_norm: 2.0,
        };
        let mut tiles = TileGrid::default();
        tiles.push(u16::MAX, None, &[200, 140, 131, 126, 129, 128, 127, 128]);
        let v1 = Container {
            header,
            inline_model: None,
            tiles,
        };
        let v1_bytes = v1.to_bytes().unwrap();
        let v2 = with_entropy(v1.clone(), EntropyCoder::RicePos);
        let v2_bytes = v2.to_bytes().unwrap();
        assert!(
            v2_bytes.len() <= v1_bytes.len(),
            "rice-pos {} bytes vs rice {} bytes on a single PCA-ordered tile",
            v2_bytes.len(),
            v1_bytes.len()
        );
        assert_eq!(Container::from_bytes(&v2_bytes).unwrap().tiles, v2.tiles);
    }

    #[test]
    fn header_geometry_matches_tiling_rules() {
        let c = sample_container(false, None);
        // 10×7 at tile 4 → 3×2 tiles, like qn_image::tiles::tile.
        assert_eq!(c.header.tiles_x(), 3);
        assert_eq!(c.header.tiles_y(), 2);
        assert_eq!(c.header.tile_count(), 6);
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_container(true, Some(vec![9u8; 64]))
            .to_bytes()
            .unwrap();
        for cut in 0..bytes.len() {
            let err = Container::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let bytes = sample_container(false, None).to_bytes().unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                Container::from_bytes(&bad).is_err(),
                "flip at {pos} went unnoticed"
            );
        }
    }

    #[test]
    fn unknown_flags_and_versions_are_rejected() {
        let mut c = sample_container(false, None);
        c.header.flags = 0x8000;
        assert!(matches!(c.to_bytes(), Err(CodecError::Invalid(_))));
        c.header.flags = 0;
        c.header.version = CONTAINER_VERSION + 1;
        assert!(matches!(
            c.to_bytes(),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn inconsistent_containers_cannot_serialise() {
        // Wrong tile count.
        let mut c = sample_container(false, None);
        c.tiles.occupied.pop();
        assert!(c.to_bytes().is_err());
        // Level out of range for the bit depth.
        let mut c = sample_container(false, None);
        c.tiles.levels[0] = 256;
        assert!(c.to_bytes().is_err());
        // Scale present without the flag.
        let mut c = sample_container(false, None);
        c.tiles.scales.push(1.0);
        assert!(c.to_bytes().is_err());
        // A norm or a level too many for the occupied tiles.
        let mut c = sample_container(false, None);
        c.tiles.norms_q.push(7);
        assert!(c.to_bytes().is_err());
        let mut c = sample_container(false, None);
        c.tiles.levels.push(1);
        assert!(c.to_bytes().is_err());
    }

    #[test]
    fn gigapixel_header_bomb_is_rejected_not_allocated() {
        // A crafted header claiming a ~2^60-tile grid must produce a
        // typed error before the tile vector is allocated.
        let mut bytes = sample_container(false, None).to_bytes().unwrap();
        bytes[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes()); // width
        bytes[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes()); // height
        bytes[24..26].copy_from_slice(&1u16.to_le_bytes()); // tile_size
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        let err = Container::from_bytes(&bytes).expect_err("bomb must fail");
        assert!(
            matches!(err, CodecError::Invalid(ref m) if m.contains("tiles")),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn norm_quantization_is_tight() {
        let max_norm = 4.0f32;
        for i in 0..=1000 {
            let norm = f64::from(max_norm) * f64::from(i) / 1000.0;
            let back = dequantize_norm(quantize_norm(norm, max_norm), max_norm);
            assert!(
                (back - norm).abs() <= f64::from(max_norm) / f64::from(u16::MAX) + 1e-12,
                "norm {norm} → {back}"
            );
        }
        assert_eq!(quantize_norm(99.0, 4.0), u16::MAX, "clamped above");
        assert_eq!(quantize_norm(1.0, 0.0), 0, "degenerate scale");
    }
}
