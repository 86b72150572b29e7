//! Machine-readable descriptions of `.qnc` containers and `.qnm`
//! models — the single JSON producer behind `qnc info --json` and the
//! serving protocol's `INFO` reply, so tooling sees one schema no
//! matter which door it knocks on.
//!
//! The JSON is hand-assembled (the dependency set is frozen): flat
//! objects, stable key order, no floating-point fields — every value is
//! an integer, boolean, string or null, so the output is byte-stable
//! across platforms.

use crate::container::{Container, CONTAINER_MAGIC};
use crate::error::{CodecError, Result};
use crate::model::{self, MODEL_MAGIC, MODEL_VERSION};
use qn_core::QuantumAutoencoder;
use std::fmt::Write as _;

/// Fixed container-header length (bytes before any inline model).
const CONTAINER_HEADER_LEN: usize = 36;

/// Describe a `.qnc` container as a single-line JSON object.
/// `file_len` is the full file size in bytes (the container serialises
/// deterministically, so callers that only hold the parsed form can
/// pass `container.to_bytes()?.len()`).
pub fn container_info_json(container: &Container, file_len: usize) -> String {
    let h = &container.header;
    let inline_len = container.inline_model.as_ref().map(Vec::len);
    // Everything except header, inline-model segment (u32 length +
    // bytes), the payload length field and the trailing CRC is payload.
    let payload_len = file_len
        .saturating_sub(CONTAINER_HEADER_LEN)
        .saturating_sub(inline_len.map_or(0, |n| 4 + n))
        .saturating_sub(4 + 4);
    let mut s = String::with_capacity(256);
    s.push_str("{\"format\":\"qnc\"");
    let _ = write!(s, ",\"version\":{}", h.version);
    let _ = write!(s, ",\"model_id\":\"{:#018x}\"", h.model_id);
    let _ = write!(s, ",\"width\":{},\"height\":{}", h.width, h.height);
    let _ = write!(s, ",\"tile_size\":{}", h.tile_size);
    let _ = write!(
        s,
        ",\"tiles_x\":{},\"tiles_y\":{},\"tile_count\":{}",
        h.tiles_x(),
        h.tiles_y(),
        h.tile_count()
    );
    let _ = write!(s, ",\"latent_dim\":{},\"bits\":{}", h.latent_dim, h.bits);
    // Parsed containers always carry a consistent coder/version pair.
    let entropy = h.entropy().map_or("unknown".into(), |e| e.to_string());
    let _ = write!(s, ",\"entropy\":\"{entropy}\"");
    let _ = write!(s, ",\"per_tile_scale\":{}", h.per_tile_scale());
    match inline_len {
        Some(n) => {
            let _ = write!(s, ",\"inline_model_bytes\":{n}");
        }
        None => s.push_str(",\"inline_model_bytes\":null"),
    }
    let occupied = container.tiles.occupied_count();
    let _ = write!(s, ",\"occupied_tiles\":{occupied}");
    let _ = write!(s, ",\"payload_bytes\":{payload_len}");
    let _ = write!(s, ",\"file_bytes\":{file_len}");
    s.push('}');
    s
}

/// Describe a `.qnm` model as a single-line JSON object.
pub fn model_info_json(model: &QuantumAutoencoder, file_len: usize) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("{\"format\":\"qnm\"");
    let _ = write!(s, ",\"version\":{MODEL_VERSION}");
    let _ = write!(s, ",\"model_id\":\"{:#018x}\"", model::model_id(model));
    let _ = write!(
        s,
        ",\"dim\":{},\"latent_dim\":{}",
        model.dim(),
        model.compression.compressed_dim()
    );
    let _ = write!(
        s,
        ",\"layers_c\":{},\"params_c\":{}",
        model.compression.mesh().n_layers(),
        model.compression.mesh().param_count()
    );
    let _ = write!(
        s,
        ",\"layers_r\":{},\"params_r\":{}",
        model.reconstruction.mesh().n_layers(),
        model.reconstruction.mesh().param_count()
    );
    let _ = write!(s, ",\"file_bytes\":{file_len}");
    s.push('}');
    s
}

/// Sniff `bytes` as a container or model file and describe it.
///
/// # Errors
/// [`CodecError::BadMagic`] for unrecognised leading bytes; otherwise
/// the respective parser's typed errors.
pub fn file_info_json(bytes: &[u8]) -> Result<String> {
    match bytes.get(..4) {
        Some(m) if m == CONTAINER_MAGIC => {
            let container = Container::from_bytes(bytes)?;
            Ok(container_info_json(&container, bytes.len()))
        }
        Some(m) if m == MODEL_MAGIC => {
            let model = model::decode_model(bytes)?;
            Ok(model_info_json(&model, bytes.len()))
        }
        _ => {
            let mut found = [0u8; 4];
            for (dst, src) in found.iter_mut().zip(bytes) {
                *dst = *src;
            }
            Err(CodecError::BadMagic {
                expected: CONTAINER_MAGIC,
                found,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Codec, CodecOptions};
    use qn_image::datasets;

    fn fixture() -> (Codec, Vec<u8>) {
        let img = datasets::grayscale_blobs(1, 16, 12, 31).remove(0);
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        (codec, bytes)
    }

    #[test]
    fn container_info_reports_geometry_and_sizes() {
        let (codec, bytes) = fixture();
        let json = file_info_json(&bytes).unwrap();
        assert!(json.contains("\"format\":\"qnc\""), "{json}");
        assert!(json.contains("\"width\":16,\"height\":12"), "{json}");
        assert!(json.contains("\"tiles_x\":4,\"tiles_y\":3,\"tile_count\":12"));
        assert!(json.contains("\"latent_dim\":8,\"bits\":8"));
        assert!(json.contains("\"per_tile_scale\":false"));
        assert!(
            json.contains(&format!("\"model_id\":\"{:#018x}\"", codec.model_id())),
            "{json}"
        );
        assert!(json.contains(&format!("\"file_bytes\":{}", bytes.len())));
        // Payload accounting: header + inline segment + length fields +
        // payload + CRC must exactly cover the file.
        let container = Container::from_bytes(&bytes).unwrap();
        let inline = container.inline_model.as_ref().unwrap().len();
        let payload: usize = {
            let key = "\"payload_bytes\":";
            let at = json.find(key).unwrap() + key.len();
            json[at..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(36 + 4 + inline + 4 + payload + 4, bytes.len());
    }

    #[test]
    fn model_info_reports_dimensions() {
        let (codec, _) = fixture();
        let model_bytes = crate::model::encode_model(codec.model());
        let json = file_info_json(&model_bytes).unwrap();
        assert!(json.contains("\"format\":\"qnm\""), "{json}");
        assert!(json.contains("\"dim\":16,\"latent_dim\":8"));
        assert!(json.contains(&format!("\"file_bytes\":{}", model_bytes.len())));
    }

    #[test]
    fn unknown_bytes_are_rejected_typed() {
        assert!(matches!(
            file_info_json(b"P2\n1 1\n255\n0\n"),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            file_info_json(b""),
            Err(CodecError::BadMagic { .. })
        ));
    }
}
