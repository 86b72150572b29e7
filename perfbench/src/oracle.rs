//! The output oracle. Every op's output is compared with a reference the
//! same build computed in the same run: container bytes byte for byte,
//! decoded pixels through a digest of their exact f64 bits. Nothing is
//! compared with bytes from another host (libm may differ in the last
//! ulp across hosts).

use qn_image::GrayImage;

const DIGEST_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One absorb step. For a fixed word it is a bijection of the running
/// state (rotate, xor, multiply by an odd constant), so inputs that
/// differ in exactly one 8-byte word always digest differently.
fn absorb(h: u64, word: u64) -> u64 {
    (h.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn finish(h: u64) -> u64 {
    h ^ (h >> 31)
}

/// 64-bit digest of a byte string, little-endian 8-byte words.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DIGEST_SEED ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = absorb(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = absorb(h, u64::from_le_bytes(w));
    }
    finish(h)
}

/// Digest of an image's pixel bits; equal to [`digest`] of the pixels as
/// a DECODE reply carries them (raw little-endian f64 bits).
pub fn pixel_digest(img: &GrayImage) -> u64 {
    let mut h = DIGEST_SEED ^ (img.len() * 8) as u64;
    for &px in img.pixels() {
        h = absorb(h, px.to_bits());
    }
    finish(h)
}

/// Collects mismatches; the run is correct only if there are none.
#[derive(Debug)]
pub struct Oracle {
    workload: &'static str,
    seed: u64,
    checked: u64,
    mismatches: Vec<String>,
}

impl Oracle {
    pub fn new(workload: &'static str, seed: u64) -> Oracle {
        Oracle {
            workload,
            seed,
            checked: 0,
            mismatches: Vec::new(),
        }
    }

    fn record(&mut self, op: u64, what: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.checked += 1;
        if !ok {
            let msg = format!(
                "output mismatch: workload {} op {op} seed {}: {what}: {}",
                self.workload,
                self.seed,
                detail()
            );
            eprintln!("perfbench: {msg}");
            self.mismatches.push(msg);
        }
        ok
    }

    /// Check bytes (a container) against the reference.
    pub fn bytes(&mut self, op: u64, what: &str, expected: &[u8], got: &[u8]) -> bool {
        self.record(op, what, expected == got, || {
            match expected.iter().zip(got).position(|(a, b)| a != b) {
                Some(i) => format!("first differing byte at offset {i}"),
                None => format!("{} bytes expected, {} received", expected.len(), got.len()),
            }
        })
    }

    /// Check a pixel digest against the reference digest.
    pub fn pixels(&mut self, op: u64, what: &str, expected: u64, got: u64) -> bool {
        self.record(op, what, expected == got, || {
            format!("pixel digest {got:016x}, reference {expected:016x}")
        })
    }

    /// Record a check that has no reference value (a structural one).
    pub fn require(&mut self, op: u64, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.record(op, what, ok, detail);
    }

    pub fn checked(&self) -> u64 {
        self.checked
    }

    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_one_flipped_container_byte() {
        let img = qn_image::datasets::grayscale_blobs(1, 32, 24, 5).remove(0);
        let codec = qn_codec::Codec::spectral_for_image(&img, 4, 8).unwrap();
        let bytes = codec
            .encode_image(&img, &qn_codec::CodecOptions::default())
            .unwrap();
        let mut oracle = Oracle::new("test", 1);
        assert!(oracle.bytes(0, "encode", &bytes, &bytes.clone()));
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(!oracle.bytes(1, "encode", &bytes, &bad));
        }
        assert!(!oracle.bytes(2, "encode", &bytes, &bytes[..bytes.len() - 1]));
        assert!(!oracle.passed());
    }

    #[test]
    fn rejects_a_one_ulp_pixel_change() {
        let img = qn_image::datasets::grayscale_blobs(1, 16, 16, 9).remove(0);
        let reference = pixel_digest(&img);
        let wire: Vec<u8> = img
            .pixels()
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        assert_eq!(digest(&wire), reference);
        let mut oracle = Oracle::new("test", 1);
        assert!(oracle.pixels(0, "decode", reference, digest(&wire)));
        for i in [0, 100, img.len() - 1] {
            let mut px = img.pixels().to_vec();
            px[i] = f64::from_bits(px[i].to_bits() + 1);
            let nudged = GrayImage::from_pixels(16, 16, px).unwrap();
            assert!(!oracle.pixels(1, "decode", reference, pixel_digest(&nudged)));
        }
        assert_eq!(oracle.checked(), 4);
        assert!(!oracle.passed());
    }
}
