//! The stage vocabulary: the serving stage names (the codec names its
//! own in [`qn_codec::stage`]) and the [`StageRecorder`] that times each
//! stage of a request once, for histograms, span trees and offline
//! `qnc --timings`/`--trace` alike.

use crate::metrics::ServeMetrics;
use crate::protocol::Opcode;
use qn_codec::stage::{ENTROPY, MESH_PASS, PREPARE, QUANTIZE, SPECTRAL, STITCH};
use qn_codec::{BackendKind, Codec, CodecOptions, Container, EncodeStats};
use qn_image::GrayImage;
use qn_trace::{fmt_ns, SpanId, Trace, TraceBuilder};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// The reactor reading the request frame, first header byte to last
/// payload byte.
pub const FRAME_READ: &str = "frame_read";
/// The admitted request waiting for a worker: frame complete → job
/// picked up.
pub const QUEUE_WAIT: &str = "queue_wait";
/// The ENCODE request payload or DECODE container parse.
pub const PARSE: &str = "parse";
/// Serialising the reply frame and handing it to the reactor.
pub const REPLY_WRITE: &str = "reply_write";

/// Every stage a served ENCODE records, in schedule order (`spectral`,
/// the fit from the panels `prepare` gathered, only when the request
/// fits its own model).
pub(crate) const ENCODE: [&str; 9] = [
    FRAME_READ,
    QUEUE_WAIT,
    PARSE,
    PREPARE,
    SPECTRAL,
    MESH_PASS,
    QUANTIZE,
    ENTROPY,
    REPLY_WRITE,
];

/// Every stage a served DECODE records, in schedule order.
pub(crate) const DECODE: [&str; 7] = [
    FRAME_READ,
    QUEUE_WAIT,
    PARSE,
    PREPARE,
    MESH_PASS,
    STITCH,
    REPLY_WRITE,
];

/// The root's child stages of `trace` on one line, `name=duration`
/// each: the flat rendering of `qnc --timings` and of the server's
/// slow-request log.
pub fn flat(trace: &Trace) -> String {
    let stages = trace.children(0).into_iter().map(|i| &trace.spans[i]);
    let pairs: Vec<_> = stages
        .map(|s| format!("{}={}", s.name, fmt_ns(s.duration_ns())))
        .collect();
    pairs.join(" ")
}

/// Saturating nanoseconds between two instants.
pub(crate) fn span_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// One request's stages. Each stage is timed once and ends when its
/// work returns, with `Ok` or `Err`. With metrics it lands in the op's
/// `serve_stage_ns{op,stage}` histogram; when the request is traced it
/// also becomes a child of the root span. An untraced recorder holds no
/// trace and allocates nothing.
#[derive(Debug)]
pub struct StageRecorder<'a> {
    metrics: Option<(&'a ServeMetrics, Opcode)>,
    trace: Option<TraceBuilder>,
}

impl<'a> StageRecorder<'a> {
    /// A recorder feeding `metrics` (the histograms of an op) and, when
    /// the request is traced, `trace`.
    pub fn new(metrics: Option<(&'a ServeMetrics, Opcode)>, trace: Option<TraceBuilder>) -> Self {
        StageRecorder { metrics, trace }
    }

    /// Record stage `name`, which ran from `from` to `to`. Returns its
    /// span when the request is traced.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        from: Instant,
        to: Instant,
    ) -> Option<SpanId> {
        let ns = span_ns(from, to);
        if let Some((m, op)) = self.metrics {
            m.record_stage(op, name, ns);
        }
        let tb = self.trace.as_mut()?;
        let start = tb.offset_ns(from);
        Some(tb.record(SpanId::ROOT, name, start, start.saturating_add(ns)))
    }

    /// Run `f` as stage `name`; the stage ends when `f` returns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let from = Instant::now();
        let out = f();
        self.record(name, from, Instant::now());
        out
    }

    /// Attach `key=value` to `span` (nothing when untraced).
    pub(crate) fn attr(&mut self, span: Option<SpanId>, key: &str, value: impl Display) {
        if let (Some(tb), Some(span)) = (self.trace.as_mut(), span) {
            tb.attr(span, key, value);
        }
    }

    /// Record the codec's stage list, laid end to end from `from`.
    /// Returns the last stage's span when the request is traced.
    fn record_all(&mut self, from: Instant, stages: &[(&'static str, u64)]) -> Option<SpanId> {
        let mut at = from;
        let mut last = None;
        for &(name, ns) in stages {
            let to = at + Duration::from_nanos(ns);
            last = self.record(name, at, to);
            at = to;
        }
        last
    }

    /// Record an encode's stages: `entropy`, the last, carries `coder`,
    /// and the root gains `tiles`.
    fn record_encode(&mut self, from: Instant, stats: &EncodeStats, opts: &CodecOptions) {
        let entropy = self.record_all(from, &stats.stages);
        self.attr(entropy, "coder", opts.entropy);
        self.attr(Some(SpanId::ROOT), "tiles", stats.tiles);
    }

    /// Run the encode schedule and record its stages.
    ///
    /// # Errors
    /// See [`Codec::encode_image`].
    pub fn encode(
        &mut self,
        codec: &Codec,
        img: &GrayImage,
        opts: &CodecOptions,
    ) -> qn_codec::Result<(Vec<u8>, EncodeStats)> {
        let from = Instant::now();
        let (bytes, stats) = codec.encode_image_with_stats(img, opts)?;
        self.record_encode(from, &stats, opts);
        Ok((bytes, stats))
    }

    /// Run the spectral encode schedule, which fits its model from the
    /// prepared panels, and record its stages, `spectral` among them.
    ///
    /// # Errors
    /// See [`Codec::spectral_encode`].
    pub fn encode_spectral(
        &mut self,
        img: &GrayImage,
        latent_dim: usize,
        opts: &CodecOptions,
    ) -> qn_codec::Result<(Codec, Vec<u8>, EncodeStats)> {
        let from = Instant::now();
        let (codec, bytes, stats) = Codec::spectral_encode(img, latent_dim, opts)?;
        self.record_encode(from, &stats, opts);
        Ok((codec, bytes, stats))
    }

    /// Run the decode schedule on a parsed container through the
    /// default backend and record its stages; the root gains `tiles`.
    ///
    /// # Errors
    /// See [`Codec::decode_container`].
    pub fn decode(&mut self, codec: &Codec, container: &Container) -> qn_codec::Result<GrayImage> {
        let from = Instant::now();
        let (img, stages) = codec.decode_container(container, BackendKind::default())?;
        self.record_all(from, &stages);
        self.attr(Some(SpanId::ROOT), "tiles", container.tiles.len());
        Ok(img)
    }

    /// Seal the span tree; `None` when the request was not traced.
    pub fn finish(self) -> Option<Trace> {
        self.trace.map(TraceBuilder::finish)
    }
}
