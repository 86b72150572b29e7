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

use crate::error::{CodecError, Result};

/// Bits used to store a tile's Rice parameter.
pub const RICE_K_BITS: u32 = 5;

/// Hard cap on a single Rice unary run. The largest legal zigzag symbol
/// is `2^17` (16-bit quantizer), so any run beyond this signals corrupt
/// input rather than data.
const MAX_UNARY_RUN: u32 = 1 << 18;

// ---------------------------------------------------------------------
// Bit-level writer / reader
// ---------------------------------------------------------------------

/// Append-only bit sink, LSB-first within each byte.
///
/// Bits collect in a 64-bit word that is stored eight bytes at a time;
/// the byte layout is identical to pushing the same bits one at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet stored, LSB-first; only the low `pending` are set.
    word: u64,
    /// Bits held in `word` (always < 64 between calls).
    pending: u32,
}

impl BitWriter {
    /// Empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Append the `n` low bits of `value`, LSB first (`n ≤ 64`).
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64, "write_bits supports at most 64 bits");
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        self.word |= value << self.pending;
        let total = self.pending + n;
        if total < 64 {
            self.pending = total;
            return;
        }
        // The word is full: store it and keep the bits of `value` that
        // did not fit.
        self.bytes.extend_from_slice(&self.word.to_le_bytes());
        self.word = if self.pending == 0 {
            0
        } else {
            value >> (64 - self.pending)
        };
        self.pending = total - 64;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finish, returning the padded byte buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.word.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Bit source over a byte slice, LSB-first within each byte.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Read one bit.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(CodecError::Truncated {
                context: "bitstream payload",
            });
        }
        let bit = (self.bytes[byte] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `n ≤ 64` bits, LSB first.
    ///
    /// Byte-at-a-time: drains the current partial byte, then whole
    /// bytes — same cursor semantics as reading bit by bit.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64, "read_bits supports at most 64 bits");
        if n == 0 {
            return Ok(0);
        }
        let end = self.pos + n as usize;
        if end > self.bytes.len() * 8 {
            // Consistent with bit-by-bit reading: the cursor advances to
            // the end of input before the truncation surfaces; nothing
            // downstream reads on after an error.
            self.pos = self.bytes.len() * 8;
            return Err(CodecError::Truncated {
                context: "bitstream payload",
            });
        }
        if let Some((w, valid)) = self.peek64() {
            if n <= valid {
                self.pos = end;
                return Ok(if n == 64 { w } else { w & ((1u64 << n) - 1) });
            }
        }
        let mut v = 0u64;
        let mut got = 0u32;
        let mut byte = self.pos / 8;
        let off = (self.pos % 8) as u32;
        if off != 0 {
            let take = (8 - off).min(n);
            v |= (u64::from(self.bytes[byte]) >> off) & ((1u64 << take) - 1);
            got = take;
            byte += 1;
        }
        while n - got >= 8 {
            v |= u64::from(self.bytes[byte]) << got;
            byte += 1;
            got += 8;
        }
        if got < n {
            let take = n - got;
            v |= (u64::from(self.bytes[byte]) & ((1u64 << take) - 1)) << got;
        }
        self.pos = end;
        Ok(v)
    }

    /// Count consecutive one bits up to and including the terminating
    /// zero (which is consumed), scanning a byte at a time.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input;
    /// [`CodecError::Invalid`] when the run exceeds `max_run` ones.
    fn read_unary(&mut self, max_run: u32) -> Result<u32> {
        let mut q = 0u32;
        loop {
            let byte = self.pos / 8;
            if byte >= self.bytes.len() {
                return Err(CodecError::Truncated {
                    context: "bitstream payload",
                });
            }
            let off = (self.pos % 8) as u32;
            let avail = 8 - off;
            let remaining = u32::from(self.bytes[byte]) >> off;
            let inverted = !remaining & ((1u32 << avail) - 1);
            if inverted != 0 {
                let ones = inverted.trailing_zeros();
                q += ones;
                if q > max_run {
                    return Err(CodecError::Invalid(
                        "rice unary run exceeds maximum symbol".to_string(),
                    ));
                }
                self.pos += (ones + 1) as usize;
                return Ok(q);
            }
            q += avail;
            self.pos += avail as usize;
            if q > max_run {
                return Err(CodecError::Invalid(
                    "rice unary run exceeds maximum symbol".to_string(),
                ));
            }
        }
    }

    /// Peek a 64-bit little-endian window at the cursor: the next
    /// `64 − bit_offset ≥ 56` bits of the stream, LSB-first, without
    /// advancing. `None` when fewer than eight whole bytes remain at
    /// the cursor's byte — callers fall back to the exact
    /// byte-at-a-time readers near the end of input.
    #[inline]
    fn peek64(&self) -> Option<(u64, u32)> {
        let byte = self.pos / 8;
        let off = (self.pos % 8) as u32;
        let window = self.bytes.get(byte..byte + 8)?;
        let w = u64::from_le_bytes(window.try_into().expect("8 bytes")) >> off;
        Some((w, 64 - off))
    }
}

// ---------------------------------------------------------------------
// Rice coding
// ---------------------------------------------------------------------

/// Bits Rice(k) spends on `value`.
#[inline]
pub fn rice_len(value: u32, k: u32) -> usize {
    (value >> k) as usize + 1 + k as usize
}

/// The `k` minimising the total Rice length of `values`, searched over
/// `0..=max_k`; the smallest such `k` on ties.
///
/// The total is convex in `k`: raising `k` by one adds one bit per value
/// and saves `⌈(v >> k) / 2⌉` unary bits on each, a saving that never
/// grows with `k`. So the first `k` whose successor is no shorter is
/// the first minimum, and the search stops there.
pub fn best_rice_k(values: &[u32], max_k: u32) -> u32 {
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

/// Write `value` with Rice parameter `k`: unary quotient (q ones, one
/// zero), then the k low remainder bits.
pub fn write_rice(w: &mut BitWriter, value: u32, k: u32) {
    let mut q = value >> k;
    while q >= 32 {
        w.write_bits(u64::from(u32::MAX), 32);
        q -= 32;
    }
    let rem = u64::from(value) & ((1u64 << k) - 1);
    if q + 1 + k <= 64 {
        // Whole symbol in one word: q ones, the terminating zero, then
        // the k remainder bits — the same stream two separate writes
        // produce.
        w.write_bits((rem << (q + 1)) | ((1u64 << q) - 1), q + 1 + k);
    } else {
        w.write_bits((1u64 << q) - 1, q + 1);
        w.write_bits(rem, k);
    }
}

/// Read one Rice(k) value.
///
/// # Errors
/// [`CodecError::Truncated`] at end of input, [`CodecError::Invalid`]
/// when the unary run exceeds any symbol a supported quantizer emits
/// (corrupt stream).
pub fn read_rice(r: &mut BitReader<'_>, k: u32) -> Result<u32> {
    // Fast path: when the whole symbol — unary run, terminator and k
    // remainder bits — fits inside one peeked 64-bit window, decode it
    // with two shifts instead of per-byte cursor arithmetic. Bits
    // beyond the window's valid count are zeros shifted in, so a run
    // reaching them fails the bounds check and falls through to the
    // exact byte-at-a-time path (identical bits, identical cursor).
    if let Some((w, valid)) = r.peek64() {
        let q = (!w).trailing_zeros();
        if q + 1 + k <= valid {
            r.pos += (q + 1 + k) as usize;
            let rem = if k == 0 {
                0
            } else {
                (w >> (q + 1)) & ((1u64 << k) - 1)
            };
            let value = (u64::from(q) << k) | rem;
            return u32::try_from(value).map_err(|_| {
                CodecError::Invalid("rice symbol exceeds the 32-bit symbol range".to_string())
            });
        }
    }
    let q = r.read_unary(MAX_UNARY_RUN)?;
    let rem = r.read_bits(k)? as u32;
    // Assemble in u64: with k near its maximum a corrupt unary run can
    // push q << k past 32 bits, and a wrapping result would alias a huge
    // symbol onto a small "valid" one instead of erroring.
    let value = (u64::from(q) << k) | u64::from(rem);
    u32::try_from(value)
        .map_err(|_| CodecError::Invalid("rice symbol exceeds the 32-bit symbol range".to_string()))
}

/// Map a signed value onto the non-negative integers for Rice/EG
/// coding: 0, −1, 1, −2, 2, … → 0, 1, 2, 3, 4, … (the delta streams of
/// bitstream v2 use this for norm and Rice-parameter predictions).
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

/// CRC-32 (IEEE) of `bytes` — the integrity check both file formats
/// append.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of_parts(&[bytes])
}

/// CRC-32 (IEEE) over the concatenation of `parts`, without
/// materialising it — equal to `crc32` of the joined bytes. Lets
/// framing layers checksum header + payload with no copy.
///
/// Slicing-by-8: each part runs eight bytes per step through
/// [`CRC32_TABLES`], then its tail bytewise, so any split of the same
/// bytes into parts gives the same checksum.
pub fn crc32_of_parts(parts: &[&[u8]]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in words.by_ref() {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
    }
    !crc
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

    /// Borrow the buffer (for checksumming before finishing).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
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

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
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

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One buffer with slack in front, so every length is also
        // checked at every start alignment of an 8-byte word.
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in 0..=4096usize {
            for off in 0..8 {
                let bytes = &buf[off..off + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(crc32(bytes), want, "len {len} offset {off}");
                // A random split into up to four parts.
                let mut cuts: Vec<usize> = (0..3).map(|_| next() as usize % (len + 1)).collect();
                cuts.sort_unstable();
                let parts = [
                    &bytes[..cuts[0]],
                    &bytes[cuts[0]..cuts[1]],
                    &bytes[cuts[1]..cuts[2]],
                    &bytes[cuts[2]..],
                ];
                assert_eq!(crc32_of_parts(&parts), want, "len {len} cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn crc32_of_parts_equals_crc32_of_concatenation() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 % 251) as u8).collect();
        for split in [0, 1, 16, 100, 199, 200] {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_of_parts(&[a, b]), crc32(&data), "split {split}");
        }
        assert_eq!(crc32_of_parts(&[]), crc32(&[]));
        assert_eq!(crc32_of_parts(&[&data, &[], &data]), {
            let mut doubled = data.clone();
            doubled.extend_from_slice(&data);
            crc32(&doubled)
        });
    }

    #[test]
    fn bits_roundtrip_lsb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bit(true);
        w.write_bits(0x3FF, 10);
        assert_eq!(w.bit_len(), 15);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(matches!(r.read_bit(), Err(CodecError::Truncated { .. })));
        // Word-level reads spanning the end truncate too.
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert!(matches!(r.read_bits(6), Err(CodecError::Truncated { .. })));
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

        fn bit_len(&self) -> usize {
            self.len
        }

        fn finish(self) -> Vec<u8> {
            self.bytes
        }
    }

    #[test]
    fn word_level_writer_matches_a_bit_by_bit_reference() {
        // The word-level write_bits/write_rice fast paths must emit the
        // exact byte layout of pushing every bit individually — the
        // invariant all existing .qnc payloads (and the golden vectors)
        // depend on.
        let mut fast = BitWriter::new();
        let mut slow = ReferenceBits::default();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let value = next();
            let n = (next() % 65) as u32;
            fast.write_bits(value, n);
            for i in 0..n {
                slow.write_bit((value >> i) & 1 == 1);
            }
            let rice_value = (next() % 3000) as u32;
            let k = (next() % 12) as u32;
            write_rice(&mut fast, rice_value, k);
            let q = rice_value >> k;
            for _ in 0..q {
                slow.write_bit(true);
            }
            slow.write_bit(false);
            for i in 0..k {
                slow.write_bit((rice_value >> i) & 1 == 1);
            }
            let bit = next() & 1 == 1;
            fast.write_bit(bit);
            slow.write_bit(bit);
            assert_eq!(fast.bit_len(), slow.bit_len());
        }
        let fast = fast.finish();
        let slow = slow.finish();
        assert_eq!(fast, slow, "byte layout must be identical");
        // And the word-level reader round-trips the same stream
        // bit-for-bit against single-bit reads.
        let mut word = BitReader::new(&fast);
        let mut bit = BitReader::new(&slow);
        let mut state2 = 0x0FED_CBA9_8765_4321u64;
        let mut next2 = move || {
            state2 ^= state2 << 13;
            state2 ^= state2 >> 7;
            state2 ^= state2 << 17;
            state2
        };
        loop {
            let n = (next2() % 23) as u32;
            let via_word = word.read_bits(n);
            let via_bits: Result<u64> =
                (0..n).try_fold(0u64, |acc, i| Ok(acc | (u64::from(bit.read_bit()?) << i)));
            match (via_word, via_bits) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(_), Err(_)) => break,
                (a, b) => panic!("reader divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn rice_roundtrips_every_small_value() {
        for k in 0..8u32 {
            let mut w = BitWriter::new();
            for v in 0..200u32 {
                write_rice(&mut w, v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for v in 0..200u32 {
                assert_eq!(read_rice(&mut r, k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn best_k_minimises_length() {
        // Small symbols → small k; large symbols → larger k.
        assert_eq!(best_rice_k(&[0, 1, 0, 2, 1], 15), 0);
        let big: Vec<u32> = (0..32).map(|i| 1000 + i).collect();
        let k = best_rice_k(&big, 15);
        assert!(k >= 8, "large symbols want a large k, got {k}");
        // The chosen k really is no worse than its neighbours.
        let len = |kk: u32| -> usize { big.iter().map(|&v| rice_len(v, kk)).sum() };
        assert!(len(k) <= len(k.saturating_sub(1)));
        assert!(len(k) <= len(k + 1));
    }

    #[test]
    fn early_exit_k_search_matches_the_exhaustive_search() {
        // The exhaustive scan the convexity argument replaced.
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
        let mut state = 0xDEAD_BEEF_0123_4567u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..20_000 {
            let n = (next() % 20) as usize;
            // Magnitudes from tiny to 2^18, so every k wins somewhere.
            let bits = (next() % 19) as u32;
            let values: Vec<u32> = (0..n)
                .map(|_| (next() % (1u64 << bits).max(1)) as u32)
                .collect();
            for max_k in [0u32, 3, 9, 17] {
                assert_eq!(
                    best_rice_k(&values, max_k),
                    exhaustive(&values, max_k),
                    "case {case}: {values:?}, max_k {max_k}"
                );
            }
        }
    }

    #[test]
    fn rice_symbols_past_u32_error_instead_of_wrapping() {
        // k = 17 with a long unary run pushes q << k past 32 bits; the
        // decoder must error, not alias the symbol onto a small value.
        let mut w = BitWriter::new();
        let q = 1u32 << 15;
        for _ in 0..q {
            w.write_bit(true);
        }
        w.write_bit(false);
        w.write_bits(0, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(matches!(read_rice(&mut r, 17), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn corrupt_unary_run_is_a_typed_error() {
        // All-ones payload: unary run never terminates.
        let bytes = vec![0xFFu8; 1 << 16];
        let mut r = BitReader::new(&bytes);
        match read_rice(&mut r, 0) {
            Err(CodecError::Invalid(_)) | Err(CodecError::Truncated { .. }) => {}
            other => panic!("expected typed error, got {other:?}"),
        }
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
