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
//! array in row-major tile order. The bytes are the layouts above,
//! unchanged.
//!
//! # Coding
//!
//! The two Rice writers code the grid in fixed chunks of
//! `CHUNK_TILES` (1024) tiles on the thread pool. A chunk zigzags its
//! levels without a branch, picks its Rice parameters, sums its exact
//! bit length and fills a bit writer ([`crate::bitstream`]) of exactly
//! that size; `rice-pos` first merges every chunk's shifted sums
//! `Σ (v >> k)` into its k-table and norm parameter. [`Container::to_bytes`]
//! then splices the chunks at their bit offsets straight into the file
//! buffer behind the header and appends the CRC. The chunk size depends
//! on nothing but the tile count, so the bytes never depend on the
//! thread count. Decoding both Rice layouts is one serial pass of the
//! word-level bit reader into arrays preallocated from the payload's
//! bit count. The `range` coder is serial both ways: every symbol's
//! contexts depend on all before it.
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
    append_bits, crc32, first_min_k, rice_k_walk, rice_len, unzigzag_signed, zigzag_signed,
    BitReader, BitWriter, ByteReader, ByteWriter, MAX_RICE_K, RICE_K_BITS,
};
use crate::entropy::{decode_eg, encode_eg, EntropyCoder, RangeDecoder, RangeEncoder, PROB_INIT};
use crate::error::{CodecError, Result};
use crate::quantize::{unzigzag, zigzag, Quantizer, MAX_BITS};
use qn_linalg::panel::DEFAULT_PANEL_WIDTH;
use qn_linalg::parallel::par_map_chunked_into;
use std::ops::Range;
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

/// Grid tiles per chunk of a Rice payload. The writers code the chunks
/// on the thread pool and splice them in order; the size is fixed, so
/// chunk boundaries depend only on the tile count and the bytes never
/// on the thread count. Sixteen panels amortise a chunk's allocations
/// and splice, and a request of up to that many tiles codes on the
/// calling thread.
const CHUNK_TILES: usize = 16 * DEFAULT_PANEL_WIDTH;
/// Entries of a shifted-sum table: `Σ (v >> k)` for every Rice
/// parameter `k ≤ MAX_RICE_K`.
const SUM_KS: usize = MAX_RICE_K as usize + 1;
/// Bytes of the fixed header, before the optional inline model.
const HEADER_LEN: usize = 36;

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

/// One chunk of coded payload bits, LSB-first, padding bits zero.
#[derive(Debug, Default)]
struct CodedChunk {
    bytes: Vec<u8>,
    bits: usize,
}

/// A chunk of grid tiles: its index, its grid-tile range, and the
/// range of its occupied tiles' indices into the per-tile arrays.
#[derive(Debug)]
struct ChunkSpan {
    index: usize,
    grid: Range<usize>,
    occupied: Range<usize>,
}

/// The chunks of a grid of `occupied.len()` tiles — the one serial scan
/// the writers make: each chunk's first occupied tile is the count of
/// occupied tiles before it.
fn chunk_spans(occupied: &[bool]) -> Vec<ChunkSpan> {
    let mut first = 0;
    occupied
        .chunks(CHUNK_TILES)
        .enumerate()
        .map(|(index, flags)| {
            let start = first;
            first += flags.iter().filter(|&&o| o).count();
            ChunkSpan {
                index,
                grid: index * CHUNK_TILES..index * CHUNK_TILES + flags.len(),
                occupied: start..first,
            }
        })
        .collect()
}

/// Add `Σ (v >> k)` for every `k < SUM_KS` into `sums`.
#[inline]
fn add_shifted(sums: &mut [u64], v: u32) {
    for (k, s) in sums[..SUM_KS].iter_mut().enumerate() {
        *s += u64::from(v >> k);
    }
}

/// Occupied tile `o`'s zigzagged norm delta against its raster
/// predecessor (the `rice-pos` and `range` norm stream).
#[inline]
fn norm_delta(norms_q: &[u16], o: usize) -> u32 {
    let pred = o
        .checked_sub(1)
        .map_or(NORM_PRED_INIT, |p| u32::from(norms_q[p]));
    zigzag_signed(i64::from(norms_q[o]) - i64::from(pred)) as u32
}

fn level_out_of_range(level: u32, bits: u8) -> CodecError {
    CodecError::Invalid(format!(
        "level {level} out of range for {bits}-bit quantizer"
    ))
}

impl Container {
    /// Serialise to complete file bytes (header + payload + CRC).
    ///
    /// Rice payloads are coded one chunk of grid tiles at a time on the
    /// thread pool and spliced at their bit offsets straight into the
    /// file buffer behind the header; the splice and the CRC run
    /// serially, and so does the adaptive range coder.
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
        let chunks = match self.header.entropy()? {
            EntropyCoder::Rice => self.rice_chunks(&quantizer)?,
            EntropyCoder::RicePos => self.rice_pos_chunks(&quantizer)?,
            EntropyCoder::Range => {
                if self.tiles.len() > MAX_RANGE_TILES {
                    return Err(CodecError::Invalid(format!(
                        "{} tiles exceed the {MAX_RANGE_TILES}-tile limit of the range \
                         coder; use rice or rice-pos for images this large",
                        self.tiles.len()
                    )));
                }
                let bytes = self.payload_range(&quantizer)?;
                vec![CodedChunk {
                    bits: bytes.len() * 8,
                    bytes,
                }]
            }
        };
        let payload_len = chunks.iter().map(|c| c.bits).sum::<usize>().div_ceil(8);
        let model_len = self.inline_model.as_ref().map_or(0, |m| 4 + m.len());

        let mut w = ByteWriter::with_capacity(HEADER_LEN + model_len + 4 + payload_len + 4);
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
        w.put_u32(payload_len as u32);
        let mut bytes = w.finish();
        let mut tail = 0;
        for chunk in &chunks {
            append_bits(&mut bytes, &mut tail, &chunk.bytes, chunk.bits);
        }
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
            EntropyCoder::Rice => read_tiles_rice(&header, &quantizer, payload, false)?,
            EntropyCoder::RicePos => read_tiles_rice(&header, &quantizer, payload, true)?,
            EntropyCoder::Range => read_tiles_range(&header, &quantizer, payload)?,
        };

        Ok(Container {
            header,
            inline_model,
            tiles,
        })
    }

    /// Run `code` over every chunk of the grid on the thread pool and
    /// collect the results in chunk order. `code` returns `None` when
    /// the chunk holds a level out of range for the bit depth, which
    /// becomes the error naming the first such level.
    fn map_chunks<T: Default + Send>(
        &self,
        spans: &[ChunkSpan],
        code: impl Fn(&ChunkSpan) -> Option<T> + Sync,
    ) -> Result<Vec<T>> {
        let mut out: Vec<T> = spans.iter().map(|_| T::default()).collect();
        let out_of_range = AtomicBool::new(false);
        par_map_chunked_into(&mut out, 1, |first, slots| {
            for (slot, span) in slots.iter_mut().zip(&spans[first..]) {
                match code(span) {
                    Some(value) => *slot = value,
                    None => {
                        out_of_range.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
        });
        if out_of_range.into_inner() {
            let levels = 1u32 << self.header.bits;
            let level = self.tiles.levels.iter().find(|&&l| l >= levels);
            return Err(level_out_of_range(
                *level.expect("an out-of-range level was seen"),
                self.header.bits,
            ));
        }
        Ok(out)
    }

    /// A chunk's latent levels, `latent_dim` per occupied tile, or
    /// `None` when one is out of range for `quantizer`.
    fn chunk_levels(&self, span: &ChunkSpan, quantizer: &Quantizer) -> Option<&[u32]> {
        let d = self.header.latent_dim as usize;
        let levels = &self.tiles.levels[span.occupied.start * d..span.occupied.end * d];
        let top = levels.iter().copied().max().unwrap_or(0);
        (top < quantizer.levels()).then_some(levels)
    }

    /// The v1 payload, bit-exact with every pre-v2 build: per tile the
    /// occupancy bit, the raw 16-bit norm, the optional scale, the
    /// tile's own Rice parameter and its `d` symbols. Each chunk picks
    /// its tiles' parameters and sums its exact length, then writes.
    fn rice_chunks(&self, quantizer: &Quantizer) -> Result<Vec<CodedChunk>> {
        let tiles = &self.tiles;
        let d = self.header.latent_dim as usize;
        let zero = quantizer.zero_level();
        let max_k = u32::from(self.header.bits) + 1;
        let fixed = 16 + RICE_K_BITS as usize + if tiles.scales.is_empty() { 0 } else { 32 };
        self.map_chunks(&chunk_spans(&tiles.occupied), |span| {
            let levels = self.chunk_levels(span, quantizer)?;
            let mut bits = span.grid.len() + span.occupied.len() * fixed;
            let ks: Vec<u32> = levels
                .chunks_exact(d)
                .map(|tile| {
                    let (k, len) = rice_k_walk(d as u64, max_k, |k| {
                        tile.iter().map(|&l| u64::from(zigzag(l, zero) >> k)).sum()
                    });
                    bits += len;
                    k
                })
                .collect();
            let mut w = BitWriter::with_bit_len(bits);
            let mut coded = span.occupied.clone().zip(levels.chunks_exact(d).zip(ks));
            for &occupied in &tiles.occupied[span.grid.clone()] {
                if !occupied {
                    w.put(0, 1);
                    continue;
                }
                let (o, (tile, k)) = coded.next().expect("one level row per occupied tile");
                let mut head = 1 | u64::from(tiles.norms_q[o]) << 1;
                let mut n = 17;
                if let Some(scale) = tiles.scales.get(o) {
                    head |= u64::from(scale.to_bits()) << n;
                    n += 32;
                }
                w.put(head | u64::from(k) << n, n + RICE_K_BITS);
                for &level in tile {
                    w.put_rice(zigzag(level, zero), k);
                }
            }
            Some(CodedChunk {
                bytes: w.finish(),
                bits,
            })
        })
    }

    /// The v2 `rice-pos` payload: delta-coded per-position k-table and
    /// norm-delta parameter up front, then the tiles. A first pass sums
    /// `Σ (v >> k)` per chunk for every latent column and the norm
    /// deltas; merged, those give each column's first-minimum Rice
    /// parameter over the whole tile panel, and per chunk its exact
    /// length for the second, writing pass.
    fn rice_pos_chunks(&self, quantizer: &Quantizer) -> Result<Vec<CodedChunk>> {
        let tiles = &self.tiles;
        let d = self.header.latent_dim as usize;
        let zero = quantizer.zero_level();
        let max_k = u32::from(self.header.bits) + 1;
        let spans = chunk_spans(&tiles.occupied);

        // Rows 0..d of a table are the latent columns, row d the norm
        // deltas.
        let sums: Vec<Vec<u64>> = self.map_chunks(&spans, |span| {
            let levels = self.chunk_levels(span, quantizer)?;
            let mut sums = vec![0u64; (d + 1) * SUM_KS];
            let (columns, norm) = sums.split_at_mut(d * SUM_KS);
            for (o, tile) in span.occupied.clone().zip(levels.chunks_exact(d)) {
                for (column, &level) in columns.chunks_exact_mut(SUM_KS).zip(tile) {
                    add_shifted(column, zigzag(level, zero));
                }
                add_shifted(norm, norm_delta(&tiles.norms_q, o));
            }
            Some(sums)
        })?;
        let mut total = vec![0u64; (d + 1) * SUM_KS];
        for chunk in &sums {
            for (t, s) in total.iter_mut().zip(chunk) {
                *t += s;
            }
        }
        let n = tiles.occupied_count() as u64;
        let k_table: Vec<u32> = total
            .chunks_exact(SUM_KS)
            .take(d)
            .map(|column| first_min_k(n, max_k, column))
            .collect();
        let norm_k = first_min_k(n, MAX_NORM_K, &total[d * SUM_KS..]);

        let k_deltas: Vec<u32> = k_table
            .windows(2)
            .map(|k| zigzag_signed(i64::from(k[1]) - i64::from(k[0])) as u32)
            .collect();
        let side_bits = 2 * RICE_K_BITS as usize
            + k_deltas
                .iter()
                .map(|&delta| rice_len(delta, K_TABLE_DELTA_K))
                .sum::<usize>();
        let mut w = BitWriter::with_bit_len(side_bits);
        w.put(u64::from(k_table[0]), RICE_K_BITS);
        for &delta in &k_deltas {
            w.put_rice(delta, K_TABLE_DELTA_K);
        }
        w.put(u64::from(norm_k), RICE_K_BITS);
        let side = CodedChunk {
            bytes: w.finish(),
            bits: side_bits,
        };

        // Per occupied tile: occupancy, the norm's Rice(norm_k) unary
        // terminator and remainder, the scale, and each symbol's
        // terminator and remainder; the unary bits are the sums at the
        // chosen parameters.
        let fixed = 2
            + norm_k as usize
            + if tiles.scales.is_empty() { 0 } else { 32 }
            + k_table.iter().map(|&k| k as usize + 1).sum::<usize>();
        let chunks = self.map_chunks(&spans, |span| {
            let sums = &sums[span.index];
            let unary: u64 = k_table
                .iter()
                .chain([&norm_k])
                .zip(sums.chunks_exact(SUM_KS))
                .map(|(&k, row)| row[k as usize])
                .sum();
            let bits = span.grid.len() - span.occupied.len()
                + span.occupied.len() * fixed
                + unary as usize;
            let mut w = BitWriter::with_bit_len(bits);
            let mut o = span.occupied.start;
            for &occupied in &tiles.occupied[span.grid.clone()] {
                if !occupied {
                    w.put(0, 1);
                    continue;
                }
                w.put(1, 1);
                w.put_rice(norm_delta(&tiles.norms_q, o), norm_k);
                if let Some(scale) = tiles.scales.get(o) {
                    w.put(u64::from(scale.to_bits()), 32);
                }
                for (&level, &k) in tiles.levels[o * d..(o + 1) * d].iter().zip(&k_table) {
                    w.put_rice(zigzag(level, zero), k);
                }
                o += 1;
            }
            Some(CodedChunk {
                bytes: w.finish(),
                bits,
            })
        })?;
        Ok(std::iter::once(side).chain(chunks).collect())
    }

    /// The v2 `range` payload: one adaptive binary range-coded stream,
    /// per-position contexts, no side tables. Serial: every symbol's
    /// contexts depend on all before it.
    fn payload_range(&self, quantizer: &Quantizer) -> Result<Vec<u8>> {
        let d = self.header.latent_dim as usize;
        let zero = quantizer.zero_level();
        let ctx_sets = d.clamp(1, MAX_CTX_POSITIONS);
        let mut enc = RangeEncoder::new();
        let mut occ_ctx = PROB_INIT;
        let mut norm_ctx = [PROB_INIT; NORM_CTX_BINS];
        let mut sym_ctx = vec![[PROB_INIT; SYM_CTX_BINS]; ctx_sets];
        let tiles = &self.tiles;
        let mut o = 0;
        for &occupied in &tiles.occupied {
            if !occupied {
                enc.encode_bit(&mut occ_ctx, false);
                continue;
            }
            enc.encode_bit(&mut occ_ctx, true);
            encode_eg(&mut enc, &mut norm_ctx, norm_delta(&tiles.norms_q, o));
            if let Some(scale) = tiles.scales.get(o) {
                enc.encode_direct(u64::from(scale.to_bits()), 32);
            }
            for (j, &level) in tiles.levels[o * d..(o + 1) * d].iter().enumerate() {
                if level >= quantizer.levels() {
                    return Err(level_out_of_range(level, self.header.bits));
                }
                encode_eg(
                    &mut enc,
                    &mut sym_ctx[j.min(ctx_sets - 1)],
                    zigzag(level, zero),
                );
            }
            o += 1;
        }
        Ok(enc.finish())
    }
}

/// Shared per-tile field validation: the scale read by every reader.
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

/// The `rice-pos` side tables: the per-position Rice parameters and
/// the norm-delta parameter.
fn read_k_tables(bits: &mut BitReader<'_>, header: &ContainerHeader) -> Result<(Vec<u32>, u32)> {
    let d = header.latent_dim as usize;
    let max_k = u32::from(header.bits) + 1;
    let mut k_table = Vec::with_capacity(d);
    let mut k = bits.bits(RICE_K_BITS)? as i64;
    for j in 0..d {
        if j > 0 {
            k += unzigzag_signed(u64::from(bits.rice(K_TABLE_DELTA_K)?));
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
    let norm_k = bits.bits(RICE_K_BITS)? as u32;
    if norm_k > MAX_NORM_K {
        return Err(CodecError::Invalid(format!(
            "norm-delta rice parameter {norm_k} exceeds the maximum {MAX_NORM_K}"
        )));
    }
    Ok((k_table, norm_k))
}

/// Read one occupied tile's symbols, Rice(k) for each `k` of `ks` in
/// turn, into `row` as quantizer levels.
#[inline]
fn read_levels(
    bits: &mut BitReader<'_>,
    ks: impl Iterator<Item = u32>,
    quantizer: &Quantizer,
    row: &mut [u32],
) -> Result<()> {
    for (level, k) in row.iter_mut().zip(ks) {
        let symbol = bits.rice(k)?;
        if symbol >= quantizer.levels() {
            return Err(CodecError::Invalid(format!(
                "zigzag symbol {symbol} out of range for {}-bit quantizer",
                quantizer.bits()
            )));
        }
        *level = unzigzag(symbol, quantizer.zero_level());
    }
    Ok(())
}

/// Decode a Rice payload: v1 `rice` (per-tile Rice parameter, raw
/// norms) or, with `per_position`, v2 `rice-pos` (side tables, norm
/// deltas) — one serial pass of the word-level reader.
fn read_tiles_rice(
    header: &ContainerHeader,
    quantizer: &Quantizer,
    payload: &[u8],
    per_position: bool,
) -> Result<TileGrid> {
    let d = header.latent_dim as usize;
    let max_k = u32::from(header.bits) + 1;
    let mut bits = BitReader::new(payload);
    let (k_table, norm_k) = if per_position {
        read_k_tables(&mut bits, header)?
    } else {
        (Vec::new(), 0)
    };
    // An occupied tile costs its occupancy bit, a norm (16 bits raw or
    // ≥ 1 bit Rice-coded), its scale, v1's 5-bit k and ≥ 1 bit per
    // symbol, so at most `most` occupied tiles decode in full. The
    // arrays hold one more, for a tile that runs out of input halfway:
    // every index below stays in bounds, and memory stays bounded by
    // the payload size.
    let scale_bits = if header.per_tile_scale() { 32 } else { 0 };
    let norm_bits = if per_position {
        1
    } else {
        16 + RICE_K_BITS as usize
    };
    let tile_count = header.tile_count();
    let most = payload.len() * 8 / (1 + norm_bits + scale_bits + d);
    let rows = tile_count.min(most + 1);
    let mut tiles = TileGrid {
        occupied: vec![false; tile_count],
        norms_q: vec![0; rows],
        scales: vec![0.0; if header.per_tile_scale() { rows } else { 0 }],
        levels: vec![0; rows * d],
    };
    let mut pred = NORM_PRED_INIT;
    let mut o = 0;
    for t in 0..tile_count {
        if !bits.bit()? {
            continue;
        }
        tiles.occupied[t] = true;
        tiles.norms_q[o] = if per_position {
            apply_norm_delta(&mut pred, bits.rice(norm_k)?)?
        } else {
            bits.bits(16)? as u16
        };
        if header.per_tile_scale() {
            tiles.scales[o] = validate_scale(bits.bits(32)? as u32)?;
        }
        let row = &mut tiles.levels[o * d..(o + 1) * d];
        if per_position {
            read_levels(&mut bits, k_table.iter().copied(), quantizer, row)?;
        } else {
            let k = bits.bits(RICE_K_BITS)? as u32;
            if k > max_k {
                return Err(CodecError::Invalid(format!(
                    "rice parameter {k} exceeds the maximum for {}-bit symbols",
                    header.bits
                )));
            }
            read_levels(&mut bits, std::iter::repeat_n(k, d), quantizer, row)?;
        }
        o += 1;
    }
    tiles.norms_q.truncate(o);
    tiles.scales.truncate(o);
    tiles.levels.truncate(o * d);
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
            tiles.levels.push(unzigzag(symbol, zero_level));
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
