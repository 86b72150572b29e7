//! The micro-batching core: request-level encode/decode built from the
//! codec's `prepare_*`/`complete_*` halves — the same schedule
//! `Codec::encode_image` runs — with the mesh pass routed through a
//! shared [`qn_backend::MeshBatcher`], so the tile panels of concurrent
//! requests coalesce into single backend passes.
//!
//! Soundness rests on two contracts proven elsewhere: a backend's
//! per-lane output does not depend on which panels share its pass
//! (`qn_backend`'s equivalence contract), and model ids are
//! content-addressed (`qn_codec::model::model_id`), so two requests
//! batched under the same [`BatchKey`] are guaranteed to reference
//! bit-identical meshes. Together they make coalescing invisible:
//! every response is byte-identical to an offline run.

use crate::error::{Result, ServeError};
use qn_backend::Panel;
use qn_backend::{BackendKind, BatchKey, BatcherMetrics, MeshBatcher, MeshSource};
use qn_codec::{Codec, CodecOptions, Container, DecodeTimings, EncodeStats, EncodeTimings};
use qn_image::GrayImage;
use qn_photonic::Mesh;
use qn_trace::{SpanId, TraceBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Saturating nanoseconds since `t` (mirrors the codec's convention).
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Lane for the compression mesh (`U_C` forward) in [`BatchKey`]s.
const LANE_COMPRESS: u8 = 0;
/// Lane for the reconstruction mesh (`U_R` forward).
const LANE_RECONSTRUCT: u8 = 1;

/// Keeps a codec's compression mesh alive for the batcher.
struct CompressMesh(Arc<Codec>);

impl MeshSource for CompressMesh {
    fn mesh(&self) -> &Mesh {
        self.0.model().compression.mesh()
    }
}

/// Keeps a codec's reconstruction mesh alive for the batcher.
struct ReconstructMesh(Arc<Codec>);

impl MeshSource for ReconstructMesh {
    fn mesh(&self) -> &Mesh {
        self.0.model().reconstruction.mesh()
    }
}

/// Request-level batching façade over [`MeshBatcher`]: whole-image
/// encode/decode whose mesh passes may share backend batches with
/// other requests in flight.
#[derive(Debug)]
pub struct TileBatcher {
    inner: MeshBatcher,
}

impl TileBatcher {
    /// A batcher running passes through `backend` that merges at most
    /// `max_tiles` queued tiles per pass (`max_tiles <= 1`:
    /// per-request dispatch).
    pub fn new(backend: BackendKind, max_tiles: usize) -> Self {
        TileBatcher::with_metrics(backend, max_tiles, None)
    }

    /// [`TileBatcher::new`] with optional flush telemetry (batch-size
    /// histogram and per-cause flush counters).
    pub fn with_metrics(
        backend: BackendKind,
        max_tiles: usize,
        metrics: Option<BatcherMetrics>,
    ) -> Self {
        TileBatcher {
            inner: MeshBatcher::with_metrics(backend, max_tiles, metrics),
        }
    }

    /// The backend every pass runs through.
    pub fn backend(&self) -> BackendKind {
        self.inner.backend()
    }

    /// Whether tiles may coalesce across requests.
    pub fn coalesces(&self) -> bool {
        self.inner.coalesces()
    }

    /// Encode `img` with `codec`, the mesh pass batched across
    /// requests; bytes identical to [`Codec::encode_image_with_stats`].
    /// `mesh_ns` in the timings covers submit → results, so it includes
    /// any wait behind a running pass of the same model — the latency
    /// the request actually experiences.
    ///
    /// When `tb` holds a builder, the request's spans are recorded into
    /// it: `prepare`, a `batch_wait` span carrying `cause` and
    /// `batch_tiles` attributes (the flush attribution from
    /// [`qn_backend::BatchInfo`]), a `mesh_pass` child covering the
    /// shared backend pass, then retroactive `quantize`/`entropy` spans
    /// from the codec's stage timings. `tb = None` costs one branch per
    /// span site; tracing reads clocks, never data.
    ///
    /// # Errors
    /// Codec validation/serialisation errors; [`ServeError::Internal`]
    /// if the mesh pass panicked.
    pub fn encode(
        &self,
        codec: &Arc<Codec>,
        img: &GrayImage,
        opts: &CodecOptions,
        tb: &mut Option<TraceBuilder>,
    ) -> Result<(Vec<u8>, EncodeStats, EncodeTimings)> {
        let prep_span = tb.as_mut().map(|tb| tb.begin(SpanId::ROOT, "prepare"));
        let t = Instant::now();
        let (plan, panels) = codec.prepare_encode(img, opts)?;
        let prepare_ns = elapsed_ns(t);
        if let (Some(tb), Some(s)) = (tb.as_mut(), prep_span) {
            tb.end(s);
        }
        let (outs, mesh_ns) = self.mesh_pass(
            BatchKey {
                model: codec.model_id(),
                lane: LANE_COMPRESS,
            },
            Arc::new(CompressMesh(Arc::clone(codec))),
            panels,
            tb,
        )?;
        let complete_off = tb.as_ref().map(qn_trace::TraceBuilder::elapsed_ns);
        let (bytes, stats, mut timings) = codec.complete_encode_timed(plan, outs)?;
        timings.prepare_ns = prepare_ns;
        timings.mesh_ns = mesh_ns;
        if let (Some(tb), Some(c0)) = (tb.as_mut(), complete_off) {
            let q_end = c0 + timings.quantize_ns;
            tb.record(SpanId::ROOT, "quantize", c0, q_end);
            let e = tb.record(SpanId::ROOT, "entropy", q_end, q_end + timings.entropy_ns);
            tb.attr(e, "coder", opts.entropy);
            tb.attr(SpanId::ROOT, "tiles", stats.tiles);
        }
        Ok((bytes, stats, timings))
    }

    /// Decode a parsed container with `codec`, the mesh pass batched
    /// across requests; pixels identical to [`Codec::decode_container`].
    /// `parse_ns` in the timings is left zero — the caller parsed the
    /// container and owns that measurement. Spans, when `tb` holds a
    /// builder: `prepare`, `batch_wait` (+`mesh_pass` child), `stitch`
    /// — see [`TileBatcher::encode`].
    ///
    /// # Errors
    /// Codec geometry errors; [`ServeError::Internal`] if the mesh pass
    /// panicked.
    pub fn decode(
        &self,
        codec: &Arc<Codec>,
        container: &Container,
        tb: &mut Option<TraceBuilder>,
    ) -> Result<(GrayImage, DecodeTimings)> {
        let prep_span = tb.as_mut().map(|tb| tb.begin(SpanId::ROOT, "prepare"));
        let t = Instant::now();
        let (plan, panels) = codec.prepare_decode(container)?;
        let prepare_ns = elapsed_ns(t);
        if let (Some(tb), Some(s)) = (tb.as_mut(), prep_span) {
            tb.end(s);
        }
        let (outs, mesh_ns) = self.mesh_pass(
            BatchKey {
                model: codec.model_id(),
                lane: LANE_RECONSTRUCT,
            },
            Arc::new(ReconstructMesh(Arc::clone(codec))),
            panels,
            tb,
        )?;
        let stitch_span = tb.as_mut().map(|tb| tb.begin(SpanId::ROOT, "stitch"));
        let t = Instant::now();
        let img = codec.complete_decode(plan, outs)?;
        let stitch_ns = elapsed_ns(t);
        if let (Some(tb), Some(s)) = (tb.as_mut(), stitch_span) {
            tb.end(s);
            tb.attr(SpanId::ROOT, "tiles", container.tiles.len());
        }
        Ok((
            img,
            DecodeTimings {
                parse_ns: 0,
                prepare_ns,
                mesh_ns,
                stitch_ns,
            },
        ))
    }

    /// Submit `panels` under `key` and wait for them to come back with
    /// the mesh applied, recording the `batch_wait` span (with its
    /// `mesh_pass` child) when tracing. Returns the panels and the
    /// submit → results nanoseconds.
    fn mesh_pass(
        &self,
        key: BatchKey,
        source: Arc<dyn MeshSource>,
        panels: Vec<Panel>,
        tb: &mut Option<TraceBuilder>,
    ) -> Result<(Vec<Panel>, u64)> {
        let wait_span = tb
            .as_mut()
            .map(|tb| (tb.begin(SpanId::ROOT, "batch_wait"), tb.elapsed_ns()));
        let t = Instant::now();
        let (outs, info) = self
            .inner
            .submit(key, source, panels)
            .wait_info()
            .ok_or_else(|| ServeError::Internal("the batched mesh pass panicked".into()))?;
        let mesh_ns = elapsed_ns(t);
        if let (Some(tb), Some((s, submit_off))) = (tb.as_mut(), wait_span) {
            tb.end(s);
            tb.attr(s, "cause", info.cause.label());
            tb.attr(s, "batch_tiles", info.batch_tiles);
            let mesh_start = submit_off + info.queued_ns;
            let mesh = tb.record(s, "mesh_pass", mesh_start, mesh_start + info.run_ns);
            tb.attr(mesh, "backend", self.backend());
        }
        Ok((outs, mesh_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_image::datasets;

    fn fixture() -> (Arc<Codec>, GrayImage, CodecOptions) {
        let img = datasets::grayscale_blobs(1, 24, 16, 55).remove(0);
        let codec = Arc::new(Codec::spectral_for_image(&img, 4, 8).unwrap());
        let opts = CodecOptions::default();
        (codec, img, opts)
    }

    #[test]
    fn batched_encode_and_decode_match_offline_bytes() {
        let (codec, img, opts) = fixture();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let offline_img = codec.decode_bytes(&offline).unwrap();

        let batcher = TileBatcher::new(BackendKind::Simd, 4096);
        let (bytes, stats, _) = batcher.encode(&codec, &img, &opts, &mut None).unwrap();
        assert_eq!(bytes, offline, "batched encode must be byte-identical");
        assert_eq!(stats.tiles, 24);
        let container = Container::from_bytes(&bytes).unwrap();
        let (decoded, _) = batcher.decode(&codec, &container, &mut None).unwrap();
        assert_eq!(decoded, offline_img, "batched decode must be identical");
    }

    #[test]
    fn concurrent_requests_coalesce_without_cross_talk() {
        let (codec, img, opts) = fixture();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let batcher = Arc::new(TileBatcher::new(BackendKind::Simd, 1_000_000));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let batcher = Arc::clone(&batcher);
                let codec = Arc::clone(&codec);
                let img = img.clone();
                let opts = opts.clone();
                std::thread::spawn(move || {
                    batcher.encode(&codec, &img, &opts, &mut None).unwrap().0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), offline);
        }
    }

    #[test]
    fn per_request_mode_still_matches() {
        let (codec, img, opts) = fixture();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let batcher = TileBatcher::new(BackendKind::Scalar, 1);
        assert!(!batcher.coalesces());
        let (bytes, _, _) = batcher.encode(&codec, &img, &opts, &mut None).unwrap();
        assert_eq!(bytes, offline);
    }
}
