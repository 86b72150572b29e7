//! The stage vocabulary: the serving stage names (the codec names its
//! own in [`qn_codec::stage`]) and the [`StageRecorder`] that times each
//! stage of a request once, for histograms, span trees and offline
//! `qnc --timings`/`--trace` alike. The codec's schedules run their
//! stages through the recorder itself ([`Stages`]), so a codec stage is
//! timed where it runs, like every serving stage.

use crate::metrics::ServeMetrics;
use crate::protocol::Opcode;
use qn_codec::stage::{Stages, ENTROPY, MESH_PASS, PREPARE, QUANTIZE, SPECTRAL, STITCH};
use qn_codec::EntropyCoder;
use qn_trace::{fmt_ns, SpanId, Trace, TraceBuilder};
use std::fmt::Display;
use std::time::Instant;

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

/// One request's stages. Each stage is timed once, from when its work
/// starts to when it returns, with `Ok` or `Err`: the codec's too, as
/// its schedules run them through this recorder ([`Stages::run`]). With
/// metrics a stage lands in the op's `serve_stage_ns{op,stage}`
/// histogram; when the request is traced it also becomes a child of the
/// root span. An untraced recorder holds no trace and allocates nothing.
#[derive(Debug)]
pub struct StageRecorder<'a> {
    metrics: Option<(&'a ServeMetrics, Opcode)>,
    trace: Option<TraceBuilder>,
    /// The span of the stage recorded last, when traced.
    last: Option<SpanId>,
}

impl<'a> StageRecorder<'a> {
    /// A recorder feeding `metrics` (the histograms of an op) and, when
    /// the request is traced, `trace`.
    pub fn new(metrics: Option<(&'a ServeMetrics, Opcode)>, trace: Option<TraceBuilder>) -> Self {
        StageRecorder {
            metrics,
            trace,
            last: None,
        }
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
        self.last = Some(tb.record(SpanId::ROOT, name, start, start.saturating_add(ns)));
        self.last
    }

    /// Attach `key=value` to `span` (nothing when untraced).
    pub(crate) fn attr(&mut self, span: Option<SpanId>, key: &str, value: impl Display) {
        if let (Some(tb), Some(span)) = (self.trace.as_mut(), span) {
            tb.attr(span, key, value);
        }
    }

    /// Attach the attributes of the codec schedule that just ran
    /// through this recorder: the root's `tiles` and, after an encode,
    /// `coder` on its `entropy` span, the last stage it ran.
    pub fn codec_attrs(&mut self, tiles: usize, coder: Option<EntropyCoder>) {
        if let Some(coder) = coder {
            self.attr(self.last, "coder", coder);
        }
        self.attr(Some(SpanId::ROOT), "tiles", tiles);
    }

    /// Seal the span tree; `None` when the request was not traced.
    pub fn finish(self) -> Option<Trace> {
        self.trace.map(TraceBuilder::finish)
    }
}

impl Stages for StageRecorder<'_> {
    /// Run `work` as stage `name`; the stage ends when `work` returns.
    fn run<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let from = Instant::now();
        let out = work();
        self.record(name, from, Instant::now());
        out
    }
}
