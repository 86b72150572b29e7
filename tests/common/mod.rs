//! Fixtures shared by the root test suites.

use qn_codec::bitstream::crc32;
use qn_codec::model::{MODEL_FLAG_DERIVED_R, MODEL_FLAG_REAL};

/// `real` (a derived-`U_R` model file) rewritten to declare a non-zero
/// phase: flag bit 0 clear and an α array after each layer's θ, with
/// α = 0.5 on the first gate and 0 elsewhere.
pub fn complex_model_file(real: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(real[at..at + 4].try_into().unwrap()) as usize;
    let flags = u16::from_le_bytes([real[6], real[7]]);
    assert_eq!(flags, MODEL_FLAG_REAL | MODEL_FLAG_DERIVED_R);
    let (dim, n_layers) = (u32_at(8), u32_at(20));
    let layer_bytes = 1 + 8 * (dim - 1);
    let mut out = real[..24].to_vec();
    out[6..8].copy_from_slice(&MODEL_FLAG_DERIVED_R.to_le_bytes());
    for (l, layer) in real[24..24 + n_layers * layer_bytes]
        .chunks(layer_bytes)
        .enumerate()
    {
        out.extend_from_slice(layer);
        for g in 0..dim - 1 {
            let alpha: f64 = if l == 0 && g == 0 { 0.5 } else { 0.0 };
            out.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
    }
    // The derived U_R layer count, then the CRC over the new body.
    out.extend_from_slice(&real[24 + n_layers * layer_bytes..real.len() - 4]);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// `real` rewritten to declare kept-subspace tag 1 (keep the first `d`
/// modes) instead of 0, with its CRC refixed.
pub fn subspace_tag_one_model_file(real: &[u8]) -> Vec<u8> {
    let mut out = real.to_vec();
    assert_eq!(out[16], 0, "a model file keeps the last d modes");
    out[16] = 1;
    let body = out.len() - 4;
    let crc = crc32(&out[..body]);
    out[body..].copy_from_slice(&crc.to_le_bytes());
    out
}
