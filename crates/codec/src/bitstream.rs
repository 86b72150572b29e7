//! Bit-level IO, Rice entropy coding, and the checksums/hashes the file
//! formats use.
//!
//! The latent payload of a `.qnc` container is a single bitstream:
//! per-tile occupancy flags, quantized norms, and Rice-coded latent
//! symbols, all packed LSB-first. Rice coding fits here because the
//! zigzag-mapped quantizer output is sharply peaked at zero (latent
//! amplitudes of unit-norm states cluster near 0), and the per-tile
//! parameter `k` adapts to each tile's energy at a cost of
//! [`RICE_K_BITS`] bits — the same adaptivity trick QPIXL uses with its
//! compression-ratio gate threshold, applied to a classical bitstream.
//!
//! The container codes a payload in fixed chunks of tiles on the thread
//! pool: each chunk knows its exact bit length before it writes, fills
//! a `BitWriter` sized for exactly that, and `append_bits` then splices
//! the chunks end to end at arbitrary bit offsets. Decoding is one
//! serial pass of the word-level `BitReader`. Neither side branches per
//! bit or per word boundary: the writer stores its whole 64-bit
//! accumulator after every append and advances by the bytes it filled,
//! and the reader holds 64 bits in a register and reads a unary run
//! with one `trailing_ones`.
//!
//! Every `.qnc` container, `.qnm` model and served frame ends in a
//! CRC-32 (IEEE) from [`crc32`] or [`crc32_of_parts`]. On x86-64 CPUs
//! with `pclmulqdq` and `sse4.1` a carry-less-multiply kernel folds
//! 64 bytes per step, about 24 GB/s on a 2-core Xeon host; parts under
//! 128 bytes, the last bytes under 16 and every other CPU run a
//! slicing-by-8 table loop, about 1.5 GB/s. Both compute the same
//! polynomial over the same bytes, so no checksum depends on the CPU.

use crate::error::{CodecError, Result};

/// Bits used to store a tile's Rice parameter.
pub const RICE_K_BITS: u32 = 5;

/// Largest Rice parameter any payload uses: `bits + 1` for a 16-bit
/// quantizer, and the norm-delta cap.
pub(crate) const MAX_RICE_K: u32 = 17;

/// Hard cap on a single Rice unary run. The largest legal zigzag symbol
/// is `2^17` (16-bit quantizer), so any run beyond this signals corrupt
/// input rather than data.
const MAX_UNARY_RUN: u64 = 1 << 18;

/// Most bits one [`BitWriter::put`] appends: fewer than 8 bits wait in
/// the accumulator between calls, so 56 more always fit in its 64.
const MAX_PUT_BITS: u32 = 56;

/// `n` low bits set (`n < 64`).
#[inline]
fn low_mask(n: u32) -> u64 {
    (1u64 << n) - 1
}

fn truncated() -> CodecError {
    CodecError::Truncated {
        context: "bitstream payload",
    }
}

// ---------------------------------------------------------------------
// Bit-level writer / reader
// ---------------------------------------------------------------------

/// Append-only bit sink for a stream whose exact length is known up
/// front, LSB-first within each byte.
///
/// Bits collect in a 64-bit accumulator. Every [`BitWriter::put`] ORs
/// its bits in, stores all eight accumulator bytes at the write cursor
/// and advances the cursor by the whole bytes they hold: the same
/// instructions whatever the bit count, no branch on a full word. The
/// buffer is sized for the promised bit count plus eight bytes of slack
/// for those stores; [`BitWriter::finish`] checks the promise and drops
/// the slack. The append methods are forced inline: as calls, they kept
/// the writer's state in memory across every symbol.
#[derive(Debug)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Bytes complete; the accumulator is stored from here on.
    byte: usize,
    /// Bits not yet complete in a byte, LSB-first; only the low
    /// `pending` are set.
    acc: u64,
    /// Bits held in `acc` (always < 8 between calls).
    pending: u32,
    /// The stream length promised at construction.
    bits: usize,
}

impl BitWriter {
    /// A writer for a stream of exactly `bits` bits.
    pub(crate) fn with_bit_len(bits: usize) -> Self {
        BitWriter {
            bytes: vec![0; bits.div_ceil(8) + 8],
            byte: 0,
            acc: 0,
            pending: 0,
            bits,
        }
    }

    /// Append the `n ≤ 56` low bits of `value`, LSB first. The bits of
    /// `value` above `n` must be zero.
    #[inline(always)]
    pub(crate) fn put(&mut self, value: u64, n: u32) {
        debug_assert!(n <= MAX_PUT_BITS && value >> n == 0);
        self.acc |= value << self.pending;
        self.pending += n;
        self.bytes[self.byte..self.byte + 8].copy_from_slice(&self.acc.to_le_bytes());
        let whole = self.pending / 8;
        self.byte += whole as usize;
        self.acc >>= 8 * whole;
        self.pending %= 8;
    }

    /// Append `value` Rice(k)-coded: `value >> k` ones, a zero, then
    /// the `k` low bits of `value`.
    #[inline(always)]
    pub(crate) fn put_rice(&mut self, value: u32, k: u32) {
        debug_assert!(k <= MAX_RICE_K);
        let mut q = value >> k;
        let rem = u64::from(value) & low_mask(k);
        if q + 1 + k <= MAX_PUT_BITS {
            self.put((rem << (q + 1)) | low_mask(q), q + 1 + k);
            return;
        }
        // Longer than one append: whole runs of ones first. Inline, not
        // a call, so the writer's state stays in registers.
        while q >= MAX_PUT_BITS {
            self.put(low_mask(MAX_PUT_BITS), MAX_PUT_BITS);
            q -= MAX_PUT_BITS;
        }
        self.put(low_mask(q), q + 1);
        self.put(rem, k);
    }

    /// The finished stream: exactly `⌈bits / 8⌉` bytes, padding bits
    /// zero.
    ///
    /// # Panics
    /// When the bits written differ from the count promised at
    /// construction — a bug in the caller's length accounting.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        assert_eq!(
            self.byte * 8 + self.pending as usize,
            self.bits,
            "bit writer filled with a different length than it was sized for"
        );
        self.bytes.truncate(self.bits.div_ceil(8));
        self.bytes
    }
}

/// Append the first `bits` bits of `src` (LSB-first, padding bits zero)
/// to the bitstream in `out`, whose last byte holds `*tail` bits (0:
/// byte-aligned), and update `*tail`. The bytes equal those one writer
/// produces for the concatenated bits, so independently coded chunks
/// splice into one stream. Shifts a 64-bit word at a time.
pub(crate) fn append_bits(out: &mut Vec<u8>, tail: &mut u32, src: &[u8], bits: usize) {
    debug_assert_eq!(src.len(), bits.div_ceil(8));
    let shift = *tail;
    *tail = ((shift as usize + bits) % 8) as u32;
    if shift == 0 {
        out.extend_from_slice(src);
        return;
    }
    // The partial last byte becomes the carry the shifted source bits
    // are ORed onto.
    let mut carry = u64::from(out.pop().expect("a partial byte ends the stream"));
    let mut words = src.chunks_exact(8);
    for w in words.by_ref() {
        let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        out.extend_from_slice(&(carry | w << shift).to_le_bytes());
        carry = w >> (64 - shift);
    }
    for &b in words.remainder() {
        let b = u64::from(b);
        out.push((carry | b << shift) as u8);
        carry = b >> (8 - shift);
    }
    if (shift as usize + bits).div_ceil(8) > src.len() {
        out.push(carry as u8);
    }
}

/// Word-level bit source over a byte slice, LSB-first within each byte.
///
/// Holds up to 64 bits of the stream in a register, refilled with one
/// unaligned 8-byte load (zeros past the end of input) when a read needs
/// more than it holds: a field is a mask and a shift, a Rice symbol's
/// unary run one `trailing_ones`. A cold path scans runs longer than a
/// refill. Errors are exact: a read past the end is
/// [`CodecError::Truncated`], an impossible Rice symbol
/// [`CodecError::Invalid`], decided as a bit-at-a-time reader decides
/// them. The read methods are forced inline, like the writer's appends.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute position of the next unread bit.
    pos: usize,
    /// Bits of input.
    end: usize,
    /// The stream from `pos` on, LSB-first: `held` bits of input, then
    /// zeros.
    buf: u64,
    /// Bits of input in `buf`.
    held: u32,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            end: bytes.len().saturating_mul(8),
            buf: 0,
            held: 0,
        }
    }

    /// Reload `buf` at the cursor: `64 − pos % 8 ≥ 57` bits, or what is
    /// left of the input.
    #[inline]
    fn refill(&mut self) {
        self.buf = window(self.bytes, self.pos);
        self.held = (64 - self.pos % 8).min(self.end - self.pos) as u32;
    }

    /// Drop `n ≤ held` bits, `n < 64`.
    #[inline]
    fn consume(&mut self, n: u32) {
        self.buf >>= n;
        self.held -= n;
        self.pos += n as usize;
    }

    /// Read `n ≤ 56` bits, LSB first.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bits remain.
    #[inline(always)]
    pub(crate) fn bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= MAX_PUT_BITS);
        if n > self.held {
            self.refill();
            if n > self.held {
                return Err(truncated());
            }
        }
        let value = self.buf & low_mask(n);
        self.consume(n);
        Ok(value)
    }

    /// Read one bit.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub(crate) fn bit(&mut self) -> Result<bool> {
        Ok(self.bits(1)? == 1)
    }

    /// Read one Rice(k) value (`k ≤ 17`).
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when the stream ends inside the symbol,
    /// [`CodecError::Invalid`] when the unary run exceeds any symbol a
    /// supported quantizer emits or the value exceeds 32 bits (corrupt
    /// stream).
    #[inline(always)]
    pub(crate) fn rice(&mut self, k: u32) -> Result<u32> {
        debug_assert!(k <= MAX_RICE_K);
        // Bits above `held` are zero, so the run stops inside `buf`.
        let mut q = self.buf.trailing_ones();
        if q + 1 + k > self.held {
            self.refill();
            q = self.buf.trailing_ones();
            if q + 1 + k > self.held {
                let (value, pos) = long_rice(self.bytes, self.pos, self.end, k)?;
                self.pos = pos;
                self.held = 0;
                return Ok(value);
            }
        }
        // Two shifts: the run and its zero can fill all 64 bits.
        let rest = self.buf >> q >> 1;
        let rem = rest & low_mask(k);
        self.buf = rest;
        self.held -= q + 1;
        self.pos += q as usize + 1;
        self.consume(k);
        rice_value(u64::from(q), k, rem)
    }
}

/// The 64 bits of `bytes` from bit `pos` on, LSB-first; bits past the
/// end of input read as zero. The top `pos % 8` bits are zero too.
#[inline(always)]
fn window(bytes: &[u8], pos: usize) -> u64 {
    let byte = pos / 8;
    let word = match bytes.get(byte..byte + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        None => tail_word(bytes, byte),
    };
    word >> (pos % 8)
}

/// The last (< 8) bytes of input from `byte` on, zero-filled.
#[cold]
fn tail_word(bytes: &[u8], byte: usize) -> u64 {
    let mut buf = [0u8; 8];
    let tail = bytes.get(byte..).unwrap_or_default();
    buf[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(buf)
}

/// A Rice(k) symbol at bit `pos` whose run and remainder do not fit one
/// refill (or meet the end of input), scanned a window at a time;
/// returns it and the position after it. The run is
/// [`CodecError::Invalid`] once it exceeds [`MAX_UNARY_RUN`] ones,
/// whether or not a zero follows; otherwise input ending before the
/// zero or inside the remainder is [`CodecError::Truncated`].
#[cold]
fn long_rice(bytes: &[u8], mut pos: usize, end: usize, k: u32) -> Result<(u32, usize)> {
    let mut q = 0u64;
    loop {
        let avail = (64 - pos % 8).min(end - pos) as u32;
        if avail == 0 {
            return Err(truncated());
        }
        let ones = window(bytes, pos).trailing_ones().min(avail);
        q += u64::from(ones);
        if q > MAX_UNARY_RUN {
            return Err(CodecError::Invalid(
                "rice unary run exceeds maximum symbol".to_string(),
            ));
        }
        if ones < avail {
            pos += ones as usize + 1;
            break;
        }
        pos += avail as usize;
    }
    if k as usize > end - pos {
        return Err(truncated());
    }
    let rem = window(bytes, pos) & low_mask(k);
    Ok((rice_value(q, k, rem)?, pos + k as usize))
}

/// Assemble a Rice value in 64 bits. With `k` near its maximum a
/// corrupt unary run can push `q << k` past 32 bits, and a wrapping
/// result would alias a huge symbol onto a small "valid" one instead
/// of erroring.
#[inline]
fn rice_value(q: u64, k: u32, rem: u64) -> Result<u32> {
    u32::try_from((q << k) | rem)
        .map_err(|_| CodecError::Invalid("rice symbol exceeds the 32-bit symbol range".to_string()))
}

// ---------------------------------------------------------------------
// Rice parameter choice
// ---------------------------------------------------------------------

/// Bits Rice(k) spends on `value`.
#[inline]
pub(crate) fn rice_len(value: u32, k: u32) -> usize {
    (value >> k) as usize + 1 + k as usize
}

// The Rice length of `n` values at parameter k is S(k) + n·(k + 1),
// with S(k) = Σ (v >> k). Raising k by one costs n bits and saves
// S(k) − S(k + 1) = Σ ⌈(v >> k) / 2⌉ unary bits, a saving that never
// grows with k: the length is convex in k. So the first minimum over
// 0..=max_k is the first k whose step saves at most n, or max_k.

/// The first `k` in `0..=max_k` minimising the Rice length of `n`
/// values, from their shifted sums `sums[k] = Σ (v >> k)` for every
/// `k ≤ max_k` (the k-table and norm parameter of `rice-pos`). By
/// convexity it equals the number of steps below `max_k` that save more
/// than they cost, counted without a branch.
pub(crate) fn first_min_k(n: u64, max_k: u32, sums: &[u64]) -> u32 {
    sums[..=max_k as usize]
        .windows(2)
        .map(|s| u32::from(s[0] - s[1] > n))
        .sum()
}

/// The first `k` in `0..=max_k` minimising the Rice length of the `n`
/// values whose shifted sums `sum_at(k) = Σ (v >> k)` returns, and
/// that length. Walks from the estimate ⌊log₂ mean⌋ instead of
/// scanning up from `k = 0`; convexity makes the walk exact from any
/// start.
#[inline]
pub(crate) fn rice_k_walk(n: u64, max_k: u32, sum_at: impl Fn(u32) -> u64) -> (u32, usize) {
    let mean = sum_at(0) / n.max(1);
    let mut k = mean.checked_ilog2().unwrap_or(0).min(max_k);
    let mut s = sum_at(k);
    let mut up = false;
    while k < max_k {
        let above = sum_at(k + 1);
        if s - above <= n {
            break;
        }
        (k, s, up) = (k + 1, above, true);
    }
    while !up && k > 0 {
        let below = sum_at(k - 1);
        if below - s > n {
            break;
        }
        (k, s) = (k - 1, below);
    }
    (k, (s + n * u64::from(k + 1)) as usize)
}

/// Map a signed value onto the non-negative integers for Rice/EG
/// coding: 0, −1, 1, −2, 2, … → 0, 1, 2, 3, 4, … (latent levels around
/// the quantizer's zero level, and the delta streams of bitstream v2).
#[inline]
pub fn zigzag_signed(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_signed`].
#[inline]
pub fn unzigzag_signed(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// Checksums / ids
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at
/// compile time. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the CRC contribution of byte `b` followed by
/// `k` zero bytes, so eight table lookups advance the checksum by one
/// 8-byte word.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Shortest part the fold kernel takes. It loads four 16-byte blocks
/// before its first step, and below 128 bytes its fixed cost (four
/// loads, the final folds and the Barrett reduction) outweighs what it
/// saves over the table loop.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FOLD_MIN_LEN: usize = 128;

/// CRC-32 (IEEE) of `bytes` — the integrity check both file formats
/// append and every served frame carries. See [`crc32_of_parts`] for
/// how it is computed.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of_parts(&[bytes])
}

/// CRC-32 (IEEE) over the concatenation of `parts`, without
/// materialising it — equal to `crc32` of the joined bytes. Lets
/// framing layers checksum header + payload with no copy.
///
/// Each part of at least 128 bytes runs through the carry-less-multiply
/// fold kernel when the CPU has `pclmulqdq` and `sse4.1` (checked at run
/// time): four 128-bit accumulators fold 64 bytes per step, and one
/// Barrett reduction narrows the result to 32 bits. Shorter parts, the
/// last bytes under 16, and every CPU or target without those features
/// run the slicing-by-8 table loop. On a 2-core x86-64 Xeon host the
/// kernel reads about 24 GB/s from 4 KiB up and 19 GB/s at 700 bytes,
/// against about 1.5 GB/s for the table loop at any length. Both
/// advance the same CRC register, so any split of the same bytes into
/// parts gives the same checksum.
pub fn crc32_of_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |state, part| {
        crc32_fold(state, part).unwrap_or_else(|| crc32_sliced(state, part))
    })
}

/// Slicing-by-8: advance the CRC register `state` (before the final
/// inversion) over `bytes`, eight bytes per step through
/// `CRC32_TABLES`, then the tail bytewise.
fn crc32_sliced(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in words.by_ref() {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The fold kernel's register after `bytes`, or `None` when `bytes` is
/// shorter than `FOLD_MIN_LEN` or this CPU lacks `pclmulqdq` or
/// `sse4.1`. The crate's one `unsafe` block.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_fold(state: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < FOLD_MIN_LEN
        || !std::arch::is_x86_feature_detected!("pclmulqdq")
        || !std::arch::is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `clmul::update` is compiled with `pclmulqdq` and `sse4.1`
    // enabled, and `is_x86_feature_detected!` has just confirmed at run
    // time that this CPU executes both. The kernel reads its input
    // through bounds-checked slices only.
    Some(unsafe { clmul::update(state, bytes) })
}

/// Without x86-64 there is no fold kernel: every byte runs the table
/// loop.
#[cfg(not(target_arch = "x86_64"))]
fn crc32_fold(_state: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// The carry-less-multiply CRC-32 kernel: Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction*
/// (Intel, 2009), for the bit-reflected IEEE polynomial
/// `P = 0x1_04C1_1DB7`.
///
/// In the reflected domain a 16-byte block `[lo, hi]` holds its
/// highest powers of x in `lo`. Moving the block `T` bits further
/// along the stream multiplies it by `xᵀ`, and modulo P that is one
/// carry-less product per half: `lo · k_{T+32}` and `hi · k_{T−32}`,
/// XORed onto the block `T` bits on. Four accumulators fold by
/// `T = 512` (64 bytes per step); they, and any 16-byte blocks left,
/// then fold into one by `T = 128`. Two more products narrow the
/// 128 bits to 64, and a Barrett reduction (`μ`, then `P'`) leaves the
/// 32-bit register in bits 32..64.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::crc32_sliced;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `reflect₃₂(x⁵⁴⁴ mod P) << 1`: folds an accumulator's low half
    /// 64 bytes on.
    pub(super) const K_544: u64 = 0x1_5444_2BD4;
    /// `reflect₃₂(x⁴⁸⁰ mod P) << 1`: its high half, 64 bytes on.
    pub(super) const K_480: u64 = 0x1_C6E4_1596;
    /// `reflect₃₂(x¹⁶⁰ mod P) << 1`: a low half, 16 bytes on.
    pub(super) const K_160: u64 = 0x1_7519_97D0;
    /// `reflect₃₂(x⁹⁶ mod P) << 1`: a high half, 16 bytes on, and the
    /// first narrowing, 128 bits to 96.
    pub(super) const K_96: u64 = 0x0_CCAA_009E;
    /// `reflect₃₂(x⁶⁴ mod P) << 1`: the second narrowing, 96 bits to 64.
    pub(super) const K_64: u64 = 0x1_63CD_6124;
    /// `reflect₃₃(⌊x⁶⁴ / P⌋)`: the Barrett quotient μ.
    pub(super) const MU: u64 = 0x1_F701_1641;
    /// `reflect₃₃(P)`: the polynomial, as the Barrett step multiplies
    /// by it.
    pub(super) const POLY: u64 = 0x1_DB71_0641;

    /// Advance the CRC register `state` over `bytes`, at least 64 of
    /// them. Whole 16-byte blocks fold; the rest runs the table loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (head, rest) = bytes.split_at(64);
        let mut acc = [
            load(&head[..16]),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        // The register enters as an XOR on the stream's first 32 bits.
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let by_64 = pair(K_480, K_544);
        let mut steps = rest.chunks_exact(64);
        for step in steps.by_ref() {
            for (a, block) in acc.iter_mut().zip(step.chunks_exact(16)) {
                *a = fold(*a, load(block), by_64);
            }
        }
        let by_16 = pair(K_96, K_160);
        let mut x = acc[0];
        for &a in &acc[1..] {
            x = fold(x, a, by_16);
        }
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in blocks.by_ref() {
            x = fold(x, load(block), by_16);
        }
        let low_32 = pair(0, 0xFFFF_FFFF);
        // 128 → 96 bits: the low half times x⁹⁶, onto the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_16, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 times x⁶⁴, onto the rest.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low_32), pair(0, K_64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x³²)·μ, T2 = (T1 mod x³²)·P, and the
        // register is R ⊕ T2 divided by x³² (reflected: dword 1).
        let barrett = pair(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), barrett, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), barrett, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        crc32_sliced(state, blocks.remainder())
    }

    /// `a` moved on by the distance `k` encodes, XORed onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// One 16-byte block, as two safe little-endian `u64` reads.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        pair(hi, lo)
    }

    /// The 128-bit value `hi · 2⁶⁴ + lo`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn pair(hi: u64, lo: u64) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }
}

/// FNV-1a 64-bit hash — the stable model identifier stored in `.qnc`
/// containers to detect model/container mismatches.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Byte-level little-endian helpers (shared by model and container)
// ---------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    bytes: Vec<u8>,
}

impl ByteWriter {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian f32 (bit pattern).
    pub fn put_f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian f64 (bit pattern; bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Take the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Cursor over a byte slice with typed, truncation-checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Raw bytes.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        self.take(n, context)
    }

    /// One byte.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Little-endian u16.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Little-endian u32.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Little-endian f32.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_f32(&mut self, context: &'static str) -> Result<f32> {
        let b = self.take(4, context)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian f64 (bit-exact).
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64> {
        let b = self.take(8, context)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop slicing-by-8 replaced — kept as its
    /// oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        // One buffer with slack in front, so every length is also
        // checked at every start alignment of an 8-byte word. The table
        // loop is called directly, as a host without the fold kernel
        // runs every checksum.
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in 0..=4096usize {
            for off in 0..8 {
                let bytes = &buf[off..off + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(!crc32_sliced(!0, bytes), want, "len {len} offset {off}");
                // A random split into up to four parts.
                let mut cuts: Vec<usize> = (0..3).map(|_| next() as usize % (len + 1)).collect();
                cuts.sort_unstable();
                let parts = [
                    &bytes[..cuts[0]],
                    &bytes[cuts[0]..cuts[1]],
                    &bytes[cuts[1]..cuts[2]],
                    &bytes[cuts[2]..],
                ];
                let state = parts.iter().fold(!0, |s, part| crc32_sliced(s, part));
                assert_eq!(!state, want, "len {len} cuts {cuts:?}");
            }
        }
    }

    /// Whether this host runs the fold kernel.
    fn host_folds() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The fold kernel, the table loop and the bytewise oracle give one
    /// checksum for `bytes`, and so does the dispatching `crc32`. The
    /// fold kernel must run wherever the host has it and `bytes` is
    /// long enough.
    fn assert_paths_agree(bytes: &[u8], what: &str) {
        let want = crc32_bytewise(bytes);
        assert_eq!(!crc32_sliced(!0, bytes), want, "table path, {what}");
        match crc32_fold(!0, bytes) {
            Some(state) => assert_eq!(!state, want, "fold path, {what}"),
            None => assert!(
                bytes.len() < FOLD_MIN_LEN || !host_folds(),
                "fold path skipped on a host that has it, {what}"
            ),
        }
        assert_eq!(crc32(bytes), want, "crc32, {what}");
    }

    #[test]
    fn fold_table_and_bytewise_crc32_agree() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let buf: Vec<u8> = (0..(1 << 20) + 7 + 16).map(|_| next() as u8).collect();
        for off in 0..16 {
            for len in (0..=1024).chain([64 << 10, (1 << 20) + 7]) {
                assert_paths_agree(&buf[off..off + len], &format!("len {len} offset {off}"));
            }
        }
        // A run of zeros and a run of ones: no carry-less product may
        // lean on the data being random.
        assert_paths_agree(&[0; 4096], "zeros");
        assert_paths_agree(&[0xFF; 4096], "ones");
    }

    #[test]
    fn crc32_of_parts_equals_crc32_of_concatenation() {
        // Every split of 300 bytes: parts on both sides of the fold
        // kernel's 128-byte threshold, joined at every 16-byte phase.
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7 % 251) as u8).collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_of_parts(&[a, b]), crc32(&data), "split {split}");
        }
        assert_eq!(crc32_of_parts(&[]), crc32(&[]));
        assert_eq!(crc32_of_parts(&[&data, &[], &data]), {
            let mut doubled = data.clone();
            doubled.extend_from_slice(&data);
            crc32(&doubled)
        });
        // Seeded 3-way splits of 1 MiB; every other middle part is short.
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        let big: Vec<u8> = (0..1 << 20).map(|_| next() as u8).collect();
        let want = crc32(&big);
        for round in 0..32 {
            let first = next() as usize % (big.len() + 1);
            let second = if round % 2 == 0 {
                (first + next() as usize % 300).min(big.len())
            } else {
                next() as usize % (big.len() + 1)
            };
            let (lo, hi) = (first.min(second), first.max(second));
            let parts = [&big[..lo], &big[lo..hi], &big[hi..]];
            assert_eq!(crc32_of_parts(&parts), want, "cuts {lo} {hi}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_recomputed_in_gf2() {
        use clmul::{K_160, K_480, K_544, K_64, K_96, MU, POLY};
        // The IEEE polynomial, bit i the coefficient of xⁱ.
        const P: u64 = 0x1_04C1_1DB7;
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        // xⁿ mod P, one multiplication by x at a time.
        let x_pow_mod_p = |n: u32| {
            (0..n).fold(
                1u64,
                |r, _| {
                    if r >> 31 == 1 {
                        (r << 1) ^ P
                    } else {
                        r << 1
                    }
                },
            )
        };
        // ⌊x⁶⁴ / P⌋, by long division.
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        for shift in (0..=32).rev() {
            if rem >> (32 + shift) & 1 == 1 {
                rem ^= u128::from(P) << shift;
                quotient |= 1 << shift;
            }
        }
        assert!(rem >> 32 == 0, "the remainder has degree below 32");
        let k = |n| reflect(x_pow_mod_p(n), 32) << 1;
        for (n, literal) in [
            (544, K_544),
            (480, K_480),
            (160, K_160),
            (96, K_96),
            (64, K_64),
        ] {
            assert_eq!(literal, k(n), "k_{n}: {literal:#x} against {:#x}", k(n));
        }
        assert_eq!(MU, reflect(quotient, 33), "μ");
        assert_eq!(POLY, reflect(P, 33), "P'");
    }

    #[test]
    fn bits_roundtrip_lsb_first() {
        let mut w = BitWriter::with_bit_len(15);
        w.put(0b1011, 4);
        w.put(1, 1);
        w.put(0x3FF, 10);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(4).unwrap(), 0b1011);
        assert!(r.bit().unwrap());
        assert_eq!(r.bits(10).unwrap(), 0x3FF);
    }

    #[test]
    #[should_panic(expected = "different length")]
    fn writer_rejects_a_broken_length_promise() {
        let mut w = BitWriter::with_bit_len(9);
        w.put(0xFF, 8);
        w.finish();
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
        assert!(matches!(r.bit(), Err(CodecError::Truncated { .. })));
        // Word-level reads spanning the end truncate too.
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.bits(3).unwrap(), 0b111);
        assert!(matches!(r.bits(6), Err(CodecError::Truncated { .. })));
        let mut r = BitReader::new(&[]);
        assert!(matches!(r.rice(0), Err(CodecError::Truncated { .. })));
    }

    /// The layout every payload depends on, one bit at a time: bit `i`
    /// of the stream is bit `i % 8` of byte `i / 8`.
    #[derive(Default)]
    struct ReferenceBits {
        bytes: Vec<u8>,
        len: usize,
    }

    impl ReferenceBits {
        fn write_bit(&mut self, bit: bool) {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            if bit {
                *self.bytes.last_mut().expect("pushed above") |= 1 << (self.len % 8);
            }
            self.len += 1;
        }

        fn write_bits(&mut self, value: u64, n: u32) {
            for i in 0..n {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn write_rice(&mut self, value: u32, k: u32) {
            for _ in 0..value >> k {
                self.write_bit(true);
            }
            self.write_bit(false);
            self.write_bits(u64::from(value), k);
        }
    }

    /// Bit-at-a-time reader with the error rules the word-level reader
    /// must reproduce: reading past the end is `Truncated`; a unary run
    /// of more than `MAX_UNARY_RUN` ones is `Invalid` the moment it gets
    /// there; a value past 32 bits is `Invalid`.
    struct ReferenceReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl ReferenceReader<'_> {
        fn bit(&mut self) -> Result<bool> {
            let byte = self.bytes.get(self.pos / 8).ok_or_else(truncated)?;
            let bit = (byte >> (self.pos % 8)) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        fn bits(&mut self, n: u32) -> Result<u64> {
            (0..n).try_fold(0u64, |acc, i| Ok(acc | (u64::from(self.bit()?) << i)))
        }

        fn rice(&mut self, k: u32) -> Result<u32> {
            let mut q = 0u64;
            while self.bit()? {
                q += 1;
                if q > MAX_UNARY_RUN {
                    return Err(CodecError::Invalid("run".into()));
                }
            }
            let value = (q << k) | self.bits(k)?;
            u32::try_from(value).map_err(|_| CodecError::Invalid("wide".into()))
        }
    }

    /// One write of the random streams below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Bits(u64, u32),
        Rice(u32, u32),
    }

    fn random_ops(seed: u64, count: usize) -> Vec<Op> {
        let mut next = xorshift(seed);
        (0..count)
            .map(|_| match next() % 8 {
                0 | 1 => {
                    let n = (next() % u64::from(MAX_PUT_BITS + 1)) as u32;
                    Op::Bits(next() & low_mask(n), n)
                }
                // Runs of up to ~200 ones: past the writer's one-append
                // limit and the reader's window.
                2 => {
                    let k = (next() % 4) as u32;
                    Op::Rice(((next() % 200) << k) as u32 | (next() % (1 << k)) as u32, k)
                }
                _ => {
                    let k = (next() % u64::from(MAX_RICE_K + 1)) as u32;
                    Op::Rice((next() % (24 << k)) as u32, k)
                }
            })
            .collect()
    }

    fn op_len(op: Op) -> usize {
        match op {
            Op::Bits(_, n) => n as usize,
            Op::Rice(v, k) => rice_len(v, k),
        }
    }

    #[test]
    fn word_level_writer_matches_a_bit_by_bit_reference() {
        // The accumulator writer must emit the exact byte layout of
        // pushing every bit individually — the invariant all existing
        // .qnc payloads (and the golden vectors) depend on.
        for seed in 1..=40u64 {
            let ops = random_ops(seed, 300);
            let mut fast = BitWriter::with_bit_len(ops.iter().map(|&op| op_len(op)).sum());
            let mut slow = ReferenceBits::default();
            for &op in &ops {
                match op {
                    Op::Bits(v, n) => {
                        fast.put(v, n);
                        slow.write_bits(v, n);
                    }
                    Op::Rice(v, k) => {
                        fast.put_rice(v, k);
                        slow.write_rice(v, k);
                    }
                }
            }
            assert_eq!(fast.finish(), slow.bytes, "seed {seed}: byte layout");
        }
    }

    #[test]
    fn word_level_reader_matches_a_bit_at_a_time_reference_at_every_cut() {
        // Every prefix of a stream of mixed fields and Rice symbols
        // (long runs included) reads the same values and fails with the
        // same error variant, at the same symbol, in both readers.
        for seed in 1..=6u64 {
            let ops = random_ops(seed, 60);
            let mut stream = ReferenceBits::default();
            for &op in &ops {
                match op {
                    Op::Bits(v, n) => stream.write_bits(v, n),
                    Op::Rice(v, k) => stream.write_rice(v, k),
                }
            }
            for cut in 0..=stream.bytes.len() {
                let bytes = &stream.bytes[..cut];
                let mut fast = BitReader::new(bytes);
                let mut slow = ReferenceReader { bytes, pos: 0 };
                for (i, &op) in ops.iter().enumerate() {
                    let (a, b) = match op {
                        Op::Bits(_, n) => (fast.bits(n), slow.bits(n)),
                        Op::Rice(_, k) => {
                            (fast.rice(k).map(u64::from), slow.rice(k).map(u64::from))
                        }
                    };
                    match (a, b) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed} cut {cut} op {i}"),
                        (Err(a), Err(b)) => {
                            assert_eq!(
                                std::mem::discriminant(&a),
                                std::mem::discriminant(&b),
                                "seed {seed} cut {cut} op {i}: {a:?} vs {b:?}"
                            );
                            break;
                        }
                        (a, b) => panic!("seed {seed} cut {cut} op {i}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn spliced_chunks_equal_one_stream() {
        // Chunks written independently and spliced at every bit offset
        // give the bytes of one writer over all their bits.
        let mut next = xorshift(0x5151_7A7A_0101_FEED);
        for case in 0..300 {
            let mut whole = ReferenceBits::default();
            let mut out = vec![0xA5u8]; // a byte-aligned prefix stays put
            let mut tail = 0u32;
            for _ in 0..(next() % 6) {
                let ops = random_ops(next(), (next() % 40) as usize);
                let bits = ops.iter().map(|&op| op_len(op)).sum();
                let mut w = BitWriter::with_bit_len(bits);
                for &op in &ops {
                    match op {
                        Op::Bits(v, n) => {
                            w.put(v, n);
                            whole.write_bits(v, n);
                        }
                        Op::Rice(v, k) => {
                            w.put_rice(v, k);
                            whole.write_rice(v, k);
                        }
                    }
                }
                append_bits(&mut out, &mut tail, &w.finish(), bits);
                assert_eq!(tail as usize, whole.len % 8, "case {case}");
            }
            assert_eq!(out[0], 0xA5);
            assert_eq!(out[1..], whole.bytes[..], "case {case}");
        }
    }

    #[test]
    fn rice_roundtrips_every_small_value() {
        for k in 0..=MAX_RICE_K {
            let values: Vec<u32> = (0..200u32).chain([1 << 17, (1 << 17) + 5]).collect();
            let mut w =
                BitWriter::with_bit_len(values.iter().map(|&v| rice_len(v, k)).sum::<usize>());
            for &v in &values {
                w.put_rice(v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(r.rice(k).unwrap(), v, "k={k}");
            }
        }
    }

    /// The k search the container used before the walk: stop at the
    /// first k whose successor is no shorter.
    fn best_rice_k(values: &[u32], max_k: u32) -> u32 {
        let total = |k: u32| -> usize { values.iter().map(|&v| rice_len(v, k)).sum() };
        let mut best = total(0);
        for k in 0..max_k {
            let next = total(k + 1);
            if next >= best {
                return k;
            }
            best = next;
        }
        max_k
    }

    /// Shifted sums `Σ (v >> k)` for every `k ≤ max_k`.
    fn shifted_sums(values: &[u32], max_k: u32) -> Vec<u64> {
        (0..=max_k)
            .map(|k| values.iter().map(|&v| u64::from(v >> k)).sum())
            .collect()
    }

    #[test]
    fn k_walk_minimises_length() {
        // Small symbols → small k; large symbols → larger k.
        let small = [0u32, 1, 0, 2, 1];
        let walk = |v: &[u32]| {
            rice_k_walk(v.len() as u64, 15, |k| {
                v.iter().map(|&x| u64::from(x >> k)).sum()
            })
        };
        assert_eq!(walk(&small).0, 0);
        let big: Vec<u32> = (0..32).map(|i| 1000 + i).collect();
        let (k, len) = walk(&big);
        assert!(k >= 8, "large symbols want a large k, got {k}");
        // The chosen k really is no worse than its neighbours, and the
        // walk reports its length.
        let len_at = |kk: u32| -> usize { big.iter().map(|&v| rice_len(v, kk)).sum() };
        assert_eq!(len, len_at(k));
        assert!(len_at(k) <= len_at(k - 1));
        assert!(len_at(k) <= len_at(k + 1));
    }

    #[test]
    fn early_exit_k_search_matches_the_exhaustive_search() {
        // The exhaustive scan the convexity argument replaced: the
        // early exit, the walk and the branch-free count all pick its k.
        let exhaustive = |values: &[u32], max_k: u32| -> u32 {
            let mut best = (usize::MAX, 0u32);
            for k in 0..=max_k {
                let total: usize = values.iter().map(|&v| rice_len(v, k)).sum();
                if total < best.0 {
                    best = (total, k);
                }
            }
            best.1
        };
        let mut next = xorshift(0xDEAD_BEEF_0123_4567);
        for case in 0..20_000 {
            let n = (next() % 20) as usize;
            // Magnitudes from tiny to 2^18, so every k wins somewhere.
            let bits = (next() % 19) as u32;
            let values: Vec<u32> = (0..n)
                .map(|_| (next() % (1u64 << bits).max(1)) as u32)
                .collect();
            for max_k in [0u32, 3, 9, 17] {
                let want = exhaustive(&values, max_k);
                assert_eq!(best_rice_k(&values, max_k), want, "case {case}");
                let sums = shifted_sums(&values, max_k);
                assert_eq!(
                    first_min_k(n as u64, max_k, &sums),
                    want,
                    "case {case}: {values:?}, max_k {max_k}"
                );
                if n > 0 {
                    let (k, len) = rice_k_walk(n as u64, max_k, |k| sums[k as usize]);
                    assert_eq!(k, want, "case {case}: {values:?}, max_k {max_k}");
                    assert_eq!(len, values.iter().map(|&v| rice_len(v, k)).sum::<usize>());
                }
            }
        }
    }

    #[test]
    fn rice_symbols_past_u32_error_instead_of_wrapping() {
        // k = 17 with a long unary run pushes q << k past 32 bits; the
        // decoder must error, not alias the symbol onto a small value.
        let mut stream = ReferenceBits::default();
        for _ in 0..1u32 << 15 {
            stream.write_bit(true);
        }
        stream.write_bits(0, 18);
        let mut r = BitReader::new(&stream.bytes);
        assert!(matches!(r.rice(17), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn corrupt_unary_run_is_a_typed_error() {
        // All-ones payload: the run passes the cap before the input ends.
        let bytes = vec![0xFFu8; 1 << 16];
        assert!(matches!(
            BitReader::new(&bytes).rice(0),
            Err(CodecError::Invalid(_))
        ));
        // A run of exactly the cap that meets the end of input is a
        // truncation; one more one is invalid, terminated or not.
        let cap = MAX_UNARY_RUN as usize;
        let ones = vec![0xFFu8; cap / 8];
        assert!(matches!(
            BitReader::new(&ones).rice(0),
            Err(CodecError::Truncated { .. })
        ));
        let mut over = ones.clone();
        over.push(0b01);
        assert!(matches!(
            BitReader::new(&over).rice(0),
            Err(CodecError::Invalid(_))
        ));
        // The cap itself, its terminator and a remainder bit of 1.
        let mut at_cap = ones;
        at_cap.push(0b10);
        let mut r = BitReader::new(&at_cap);
        assert_eq!(r.rice(1).unwrap(), (cap as u32) << 1 | 1);
    }

    #[test]
    fn signed_zigzag_is_a_bijection() {
        for v in [-3i64, -2, -1, 0, 1, 2, 3, -65535, 65535, i32::MAX as i64] {
            assert_eq!(unzigzag_signed(zigzag_signed(v)), v);
        }
        assert_eq!(zigzag_signed(0), 0);
        assert_eq!(zigzag_signed(-1), 1);
        assert_eq!(zigzag_signed(1), 2);
        assert_eq!(zigzag_signed(-2), 3);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a 64 official vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn byte_reader_roundtrips_and_truncates() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f32(1.5);
        w.put_f64(-0.1);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 513);
        assert_eq!(r.get_u32("c").unwrap(), 70_000);
        assert_eq!(r.get_u64("d").unwrap(), 1 << 40);
        assert_eq!(r.get_f32("e").unwrap(), 1.5);
        assert_eq!(r.get_f64("f").unwrap(), -0.1);
        assert!(matches!(
            r.get_u8("g"),
            Err(CodecError::Truncated { context: "g" })
        ));
    }
}
