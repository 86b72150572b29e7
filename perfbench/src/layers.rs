//! The layer split of traced runs: `Codec::encode_image` and
//! `Codec::decode_bytes` replayed as the public calls they are made of,
//! each wrapped in a benchmark-side span. Callers assert that the split
//! produces the same outputs as the untraced path.

use crate::report::Outcome;
use crate::stats;
use qn_codec::{codec_from_inline, BackendKind, Codec, CodecOptions, Container, Result};
use qn_image::GrayImage;
use std::time::Instant;

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Span durations of one split encode, ms.
#[derive(Debug, Clone, Copy)]
pub struct EncodeSpans {
    pub prepare: f64,
    pub mesh: f64,
    pub complete: f64,
    pub total: f64,
}

/// Span durations of one split decode, ms.
#[derive(Debug, Clone, Copy)]
pub struct DecodeSpans {
    pub from_bytes: f64,
    pub prepare: f64,
    pub mesh: f64,
    pub complete: f64,
    pub total: f64,
}

impl EncodeSpans {
    /// Share of the op's wall time the spans cover.
    pub fn coverage(&self) -> f64 {
        (self.prepare + self.mesh + self.complete) / self.total
    }
}

impl DecodeSpans {
    pub fn coverage(&self) -> f64 {
        (self.from_bytes + self.prepare + self.mesh + self.complete) / self.total
    }
}

/// `encode_image` as prepare → compression mesh → complete.
pub fn encode(
    codec: &Codec,
    img: &GrayImage,
    opts: &CodecOptions,
) -> Result<(Vec<u8>, EncodeSpans)> {
    let t0 = Instant::now();
    let (plan, states) = codec.prepare_encode(img, opts)?;
    let t1 = Instant::now();
    let outs = codec
        .model()
        .compression
        .forward_batch_with(&states, opts.backend.backend());
    let t2 = Instant::now();
    let (bytes, _) = codec.complete_encode(plan, outs)?;
    let t3 = Instant::now();
    let spans = EncodeSpans {
        prepare: ms(t0, t1),
        mesh: ms(t1, t2),
        complete: ms(t2, t3),
        total: ms(t0, t3),
    };
    Ok((bytes, spans))
}

/// `decode_bytes` as parse → prepare → reconstruction mesh → complete.
pub fn decode(codec: &Codec, bytes: &[u8]) -> Result<(GrayImage, DecodeSpans)> {
    let t0 = Instant::now();
    let container = Container::from_bytes(bytes)?;
    let t1 = Instant::now();
    codec.check_container(&container)?;
    let (plan, states) = codec.prepare_decode(&container)?;
    let t2 = Instant::now();
    let outs = codec
        .model()
        .reconstruction
        .reconstruct_batch_with(&states, BackendKind::default().backend());
    let t3 = Instant::now();
    let img = codec.complete_decode(plan, outs)?;
    let t4 = Instant::now();
    let spans = DecodeSpans {
        from_bytes: ms(t0, t1),
        prepare: ms(t1, t2),
        mesh: ms(t2, t3),
        complete: ms(t3, t4),
        total: ms(t0, t4),
    };
    Ok((img, spans))
}

/// `Container::to_bytes` on the parsed container; returns the span and
/// the re-serialised bytes, which must equal `bytes`.
pub fn to_bytes(bytes: &[u8]) -> Result<(f64, Vec<u8>)> {
    let container = Container::from_bytes(bytes)?;
    let t = Instant::now();
    let out = container.to_bytes()?;
    Ok((ms(t, Instant::now()), out))
}

/// `codec_from_inline` on the container, with `codec`'s model attached
/// when the container travels without one; returns the span and the id
/// of the parsed model, which must equal `codec`'s.
pub fn inline_parse(codec: &Codec, bytes: &[u8]) -> Result<(f64, u64)> {
    let mut container = Container::from_bytes(bytes)?;
    if container.inline_model.is_none() {
        container.inline_model = Some(qn_codec::model::encode_model(codec.model()));
    }
    let t = Instant::now();
    let parsed = codec_from_inline(&container)?;
    Ok((ms(t, Instant::now()), parsed.model_id()))
}

/// The codec-layer samples of a traced run.
#[derive(Debug, Default)]
pub struct CodecLayers {
    pub enc: Vec<EncodeSpans>,
    pub dec: Vec<DecodeSpans>,
    pub to_bytes_ms: Vec<f64>,
    pub inline_parse_ms: Vec<f64>,
    /// Throughput at `nproc` threads over throughput in a 1-thread pool.
    pub thread_speedup: f64,
    /// Gates left after identity pruning and all gates, summed over the
    /// meshes counted.
    active_gates: usize,
    all_gates: usize,
    meshes: usize,
}

impl CodecLayers {
    /// Count the gate tables of `codec`'s two meshes.
    pub fn add_gates(&mut self, codec: &Codec) {
        let model = codec.model();
        for mesh in [model.compression.mesh(), model.reconstruction.mesh()] {
            let tables = mesh.tables();
            self.active_gates += tables.active_gate_count();
            self.all_gates += tables.gate_count();
            self.meshes += 1;
        }
    }

    /// Push the pipeline, container, backend-mesh and model metrics.
    pub fn push(&self, out: &mut Outcome) {
        let med = |v: Vec<f64>| stats::median(&v);
        let enc = |f: fn(&EncodeSpans) -> f64| med(self.enc.iter().map(f).collect());
        let dec = |f: fn(&DecodeSpans) -> f64| med(self.dec.iter().map(f).collect());
        out.metric("pipeline.prepare_encode_ms", enc(|s| s.prepare), "ms");
        out.metric("pipeline.complete_encode_ms", enc(|s| s.complete), "ms");
        out.metric("pipeline.prepare_decode_ms", dec(|s| s.prepare), "ms");
        out.metric("pipeline.complete_decode_ms", dec(|s| s.complete), "ms");
        out.metric("pipeline.thread_speedup", self.thread_speedup, "x");
        out.metric(
            "container.to_bytes_ms",
            stats::median(&self.to_bytes_ms),
            "ms",
        );
        out.metric("container.from_bytes_ms", dec(|s| s.from_bytes), "ms");
        out.metric("backend.mesh_forward_ms", enc(|s| s.mesh), "ms");
        out.metric("backend.mesh_inverse_ms", dec(|s| s.mesh), "ms");
        // One op sends a tile through one mesh: the rotations it pays.
        let per_mesh = |n: usize| n as f64 / self.meshes.max(1) as f64;
        out.metric(
            "backend.active_gates_per_tile",
            per_mesh(self.active_gates),
            "count",
        );
        out.metric(
            "model.inline_parse_ms",
            stats::median(&self.inline_parse_ms),
            "ms",
        );
        let coverage: Vec<f64> = self
            .enc
            .iter()
            .map(EncodeSpans::coverage)
            .chain(self.dec.iter().map(DecodeSpans::coverage))
            .collect();
        out.note(format!(
            "codec spans: {} encodes, {} decodes; they cover {:.4} of each split call's wall \
             time at the median, {:.4} at least; {:.1} active of {:.1} gates per mesh",
            self.enc.len(),
            self.dec.len(),
            stats::median(&coverage),
            coverage.iter().copied().fold(1.0, f64::min),
            per_mesh(self.active_gates),
            per_mesh(self.all_gates)
        ));
    }
}
