//! Scalar quantization of latent amplitudes.
//!
//! The compressed representation of a tile is its `d` kept amplitudes —
//! real values in `[-1, 1]` because the input states are unit-norm and
//! the mesh is orthogonal. A [`Quantizer`] maps them onto `2^bits`
//! uniform levels; [`zigzag`] then folds the level index around the
//! quantizer's zero level so that near-zero amplitudes (the common case
//! for energy-compacted latents) become small symbols, which is what
//! makes the Rice stage of the bitstream effective — the same
//! transform-quantize-entropy-code chain as the hybrid JPEG-style
//! quantum codec of arXiv:2602.06201, with the trained mesh playing the
//! role of the DCT.
//!
//! Two modes:
//!
//! - **Global** (default): the fixed range `[-1, 1]`. No side
//!   information.
//! - **Per-tile scaled**: amplitudes are divided by the tile's peak
//!   `max |a|` first, spending 32 bits/tile on the scale to win back
//!   precision when a tile's energy concentrates in few latents.

use crate::bitstream::{unzigzag_signed, zigzag_signed};
use crate::error::{CodecError, Result};

/// Highest supported bit depth (symbols fit comfortably in `u32`).
pub const MAX_BITS: u8 = 16;

/// 2^52: the unit in the last place of an f64 in `[2^52, 2^53)` is 1.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Uniform scalar quantizer over `[-1, 1]` with `2^bits` levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u8,
    levels: u32,
}

impl Quantizer {
    /// Quantizer with `2^bits` levels.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] unless `1 ≤ bits ≤ 16`.
    pub fn new(bits: u8) -> Result<Self> {
        if bits == 0 || bits > MAX_BITS {
            return Err(CodecError::Invalid(format!(
                "bit depth must be in 1..={MAX_BITS}, got {bits}"
            )));
        }
        Ok(Quantizer {
            bits,
            levels: 1u32 << bits,
        })
    }

    /// Configured bit depth.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The level an amplitude of exactly zero maps to — the center the
    /// zigzag transform folds around.
    pub fn zero_level(&self) -> u32 {
        // round((0 + 1)/2 * (levels-1)) — computed once, exactly.
        (self.levels - 1).div_ceil(2)
    }

    /// Quantize one amplitude (clamped to `[-1, 1]`; a NaN maps to the
    /// top level).
    pub fn quantize(&self, a: f64) -> u32 {
        let unit = (a.clamp(-1.0, 1.0) + 1.0) / 2.0;
        let level = (unit * f64::from(self.levels - 1)).round();
        // Clamp defensively against rounding at the top edge; `min`
        // also sends a NaN to the top level.
        let level = level.min(f64::from(self.levels - 1)).max(0.0);
        // `level` is an integer in [0, 2^16 − 1], so adding 2^52 lands
        // it exactly in the low mantissa bits: the value a saturating
        // `as u32` gives, without the per-lane NaN test and branch that
        // cast compiles to, so loops over lanes vectorize.
        (level + TWO_POW_52).to_bits() as u32
    }

    /// Reconstruct the amplitude at a level's bin center.
    pub fn dequantize(&self, level: u32) -> f64 {
        let level = level.min(self.levels - 1);
        f64::from(level) / f64::from(self.levels - 1) * 2.0 - 1.0
    }

    /// Worst-case absolute reconstruction error per amplitude (half a
    /// step).
    pub fn max_error(&self) -> f64 {
        1.0 / f64::from(self.levels - 1)
    }
}

/// Per-tile normalisation scale from the tile's peak |amplitude|,
/// floored so a (theoretically impossible, but defensively handled)
/// all-zero latent block never divides by zero.
pub fn tile_scale(peak: f64) -> f32 {
    (peak.max(1e-9)) as f32
}

/// Fold a level index around `zero_level` so near-zero amplitudes get
/// small symbols: 0, +1, −1, +2, −2, … → 0, 1, 2, 3, 4, …
///
/// Branch-free: the signed zigzag of `level − zero_level`, so the
/// entropy coders pay no misprediction on a latent's sign.
#[inline]
pub fn zigzag(level: u32, zero_level: u32) -> u32 {
    zigzag_signed(i64::from(level) - i64::from(zero_level)) as u32
}

/// Inverse of [`zigzag`]; saturates at level 0 rather than wrapping on
/// corrupt symbols (the container layer separately validates symbol
/// range). Branch-free, like [`zigzag`].
#[inline]
pub fn unzigzag(symbol: u32, zero_level: u32) -> u32 {
    (i64::from(zero_level) + unzigzag_signed(u64::from(symbol))).max(0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_bit_depths() {
        assert!(Quantizer::new(0).is_err());
        assert!(Quantizer::new(17).is_err());
        assert!(Quantizer::new(1).is_ok());
        assert!(Quantizer::new(16).is_ok());
    }

    #[test]
    fn quantize_covers_endpoints_exactly() {
        let q = Quantizer::new(8).unwrap();
        assert_eq!(q.quantize(-1.0), 0);
        assert_eq!(q.quantize(1.0), 255);
        assert_eq!(q.dequantize(0), -1.0);
        assert_eq!(q.dequantize(255), 1.0);
        // Out-of-range inputs clamp instead of wrapping.
        assert_eq!(q.quantize(-7.0), 0);
        assert_eq!(q.quantize(7.0), 255);
    }

    /// The saturating conversion [`Quantizer::quantize`] used before
    /// its exact bit-level one — kept as its oracle.
    fn quantize_saturating(q: &Quantizer, a: f64) -> u32 {
        let unit = (a.clamp(-1.0, 1.0) + 1.0) / 2.0;
        let level = (unit * f64::from(q.levels() - 1)).round();
        level.min(f64::from(q.levels() - 1)).max(0.0) as u32
    }

    #[test]
    fn quantize_matches_the_saturating_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Amplitudes in and just past [-1, 1], and arbitrary bit
        // patterns (NaNs, infinities, subnormals, huge values).
        let seeded: Vec<f64> = (0..20_000)
            .map(|i| {
                let r = next();
                if i % 2 == 0 {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 2.5 - 1.25
                } else {
                    f64::from_bits(r)
                }
            })
            .collect();
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for bits in 1..=MAX_BITS {
            let q = Quantizer::new(bits).unwrap();
            let check = |a: f64| {
                assert_eq!(
                    q.quantize(a),
                    quantize_saturating(&q, a),
                    "{bits} bits, amplitude {a:e} ({:#x})",
                    a.to_bits()
                );
            };
            for level in 0..q.levels() {
                // Each level's centre and the decision boundary above
                // it, each ±1 ulp.
                let centre = q.dequantize(level);
                let boundary = centre + q.max_error();
                for a in [centre, boundary] {
                    check(a);
                    check(a.next_up());
                    check(a.next_down());
                }
            }
            specials.iter().chain(&seeded).for_each(|&a| check(a));
        }
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_step() {
        for bits in [2u8, 4, 8, 12] {
            let q = Quantizer::new(bits).unwrap();
            let n = 1000;
            for i in 0..=n {
                let a = -1.0 + 2.0 * (i as f64) / (n as f64);
                let back = q.dequantize(q.quantize(a));
                assert!(
                    (back - a).abs() <= q.max_error() + 1e-12,
                    "bits={bits} a={a} back={back}"
                );
            }
        }
    }

    #[test]
    fn dequantize_saturates_corrupt_levels() {
        let q = Quantizer::new(4).unwrap();
        assert_eq!(q.dequantize(u32::MAX), 1.0);
    }

    /// The branchy fold the branch-free [`zigzag`] replaced — kept as
    /// its oracle.
    fn zigzag_branchy(level: u32, zero_level: u32) -> u32 {
        if level >= zero_level {
            2 * (level - zero_level)
        } else {
            2 * (zero_level - level) - 1
        }
    }

    /// The branchy inverse the branch-free [`unzigzag`] replaced — kept
    /// as its oracle.
    fn unzigzag_branchy(symbol: u32, zero_level: u32) -> u32 {
        if symbol.is_multiple_of(2) {
            zero_level + symbol / 2
        } else {
            zero_level.saturating_sub(symbol / 2 + 1)
        }
    }

    #[test]
    fn zigzag_is_a_bijection_on_levels() {
        for bits in 1..=MAX_BITS {
            let q = Quantizer::new(bits).unwrap();
            let zero = q.zero_level();
            let mut seen = vec![false; q.levels() as usize];
            for level in 0..q.levels() {
                let z = zigzag(level, zero);
                assert_eq!(z, zigzag_branchy(level, zero), "{bits} bits, level {level}");
                assert!(z < q.levels(), "zigzag output in range");
                assert!(!seen[z as usize], "zigzag collision at {z}");
                seen[z as usize] = true;
                assert_eq!(unzigzag(z, zero), level);
            }
        }
    }

    #[test]
    fn unzigzag_matches_the_branchy_oracle_on_any_symbol() {
        // Corrupt streams can carry any u32 before the range check, so
        // the saturating contract must hold far outside the levels.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let seeded = std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        });
        let symbols: Vec<u32> = seeded.take(1_000_000).collect();
        for bits in 1..=MAX_BITS {
            let q = Quantizer::new(bits).unwrap();
            let zero = q.zero_level();
            let edges = [u32::MAX, u32::MAX - 1, q.levels(), q.levels() - 1, 0];
            for &s in symbols.iter().chain(&edges) {
                assert_eq!(
                    unzigzag(s, zero),
                    unzigzag_branchy(s, zero),
                    "{bits} bits, symbol {s}"
                );
            }
        }
    }

    #[test]
    fn zero_amplitude_gets_symbol_zero() {
        let q = Quantizer::new(8).unwrap();
        let level = q.quantize(0.0);
        assert_eq!(zigzag(level, q.zero_level()), 0);
    }

    #[test]
    fn tile_scale_tracks_peak() {
        assert!((tile_scale(0.6) - 0.6).abs() < 1e-7);
        assert!(tile_scale(0.0) > 0.0, "floored, never zero");
    }
}
