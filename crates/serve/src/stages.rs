//! The codec stages of a span tree, recorded from the codec's own
//! stage timings. Served requests and offline `qnc compress/decompress
//! --trace` both record through here, so a served tree and an offline
//! tree carry the same codec stages in the same order.

use qn_backend::BackendKind;
use qn_codec::{CodecOptions, DecodeTimings, EncodeTimings};
use qn_trace::{SpanId, TraceBuilder};

/// Record `stages` as children of the root, laid end to end from
/// `start_ns` (the trace offset at which the codec call began).
fn record_stages<const N: usize>(
    tb: &mut TraceBuilder,
    start_ns: u64,
    stages: [(&str, u64); N],
) -> [SpanId; N] {
    let mut off = start_ns;
    stages.map(|(name, ns)| {
        let span = tb.record(SpanId::ROOT, name, off, off + ns);
        off += ns;
        span
    })
}

/// An encode's stages: `prepare`, `mesh_pass` (attr `backend`),
/// `quantize` and `entropy` (attr `coder`), plus the root's `tiles`.
pub fn record_encode(
    tb: &mut TraceBuilder,
    start_ns: u64,
    t: &EncodeTimings,
    opts: &CodecOptions,
    tiles: usize,
) {
    let [_, mesh, _, entropy] = record_stages(
        tb,
        start_ns,
        [
            ("prepare", t.prepare_ns),
            ("mesh_pass", t.mesh_ns),
            ("quantize", t.quantize_ns),
            ("entropy", t.entropy_ns),
        ],
    );
    tb.attr(mesh, "backend", opts.backend);
    tb.attr(entropy, "coder", opts.entropy);
    tb.attr(SpanId::ROOT, "tiles", tiles);
}

/// A decode's stages after the parse: `prepare`, `mesh_pass` (attr
/// `backend`) and `stitch`, plus the root's `tiles`.
pub fn record_decode(
    tb: &mut TraceBuilder,
    start_ns: u64,
    t: &DecodeTimings,
    backend: BackendKind,
    tiles: usize,
) {
    let [_, mesh, _] = record_stages(
        tb,
        start_ns,
        [
            ("prepare", t.prepare_ns),
            ("mesh_pass", t.mesh_ns),
            ("stitch", t.stitch_ns),
        ],
    );
    tb.attr(mesh, "backend", backend);
    tb.attr(SpanId::ROOT, "tiles", tiles);
}
