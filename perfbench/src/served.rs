//! The served workloads. Each run starts a fresh `qnc serve` child on
//! `127.0.0.1:0` with its CLI defaults and loads it from one generator
//! thread over `nproc` connections (see `loadgen`).

use crate::layers::{self, CodecLayers};
use crate::loadgen::{Load, WindowResult, DEPTH};
use crate::oracle::{self, Oracle};
use crate::report::Outcome;
use crate::server::{self, ServerLayers, Session};
use crate::{err, host, inputs, quality_metrics, stats, Args, LATENT, TILE};
use qn_codec::Codec;
use qn_image::GrayImage;
use std::time::Instant;

/// Served set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Traced runs sample every `SAMPLE_EVERY`-th encode/decode pair.
const SAMPLE_EVERY: u64 = 8;

/// A served workload's shape.
pub struct Spec {
    name: &'static str,
    stream: u64,
    images: usize,
    side: usize,
    /// Zoo models (0: the server fits a spectral model per request).
    models: usize,
    psnr_floor_db: f64,
}

/// Every request carries a fresh per-image fit and an inline model.
pub const STANDALONE: Spec = Spec {
    name: "standalone-256",
    stream: 2,
    images: 256,
    side: 256,
    models: 0,
    psnr_floor_db: 40.0,
};

/// Tiny requests against four shared, preloaded models.
pub const ZOO: Spec = Spec {
    name: "zoo-32",
    stream: 3,
    images: 256,
    side: 32,
    models: 4,
    psnr_floor_db: 40.0,
};

/// One spectral model per residue class of image index.
fn fit_zoo(images: &[GrayImage], models: usize) -> Result<Vec<Codec>, String> {
    (0..models)
        .map(|m| {
            let share: Vec<GrayImage> = images.iter().skip(m).step_by(models).cloned().collect();
            Codec::spectral_for_images(&share, TILE, LATENT).map_err(err)
        })
        .collect()
}

fn count_ops(out: &mut Outcome, w: &WindowResult) {
    for (total, part) in [(&mut out.encode, &w.encode), (&mut out.decode, &w.decode)] {
        total.attempted += part.attempted;
        total.succeeded += part.succeeded;
        total.failed += part.failed;
    }
    for e in &w.errors {
        out.note(format!("failed op: {e}"));
    }
}

fn host_note(out: &mut Outcome, w: &WindowResult) {
    let nproc = host::nproc();
    out.note(format!(
        "host: nproc {nproc}, host.steal_share {:.4}, server.cpu_util {:.4}, generator cpu \
         {:.3} s (loadgen.cpu_share {:.4}), busy replies {}",
        w.steal_share,
        w.child_cpu_s / (w.window_s * nproc as f64),
        w.gen_cpu_s,
        w.gen_cpu_s / w.window_s,
        w.busy
    ));
}

/// A served workload run.
pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let images = inputs::images(args.seed, spec.stream, spec.images, spec.side, spec.side);
    let models = (spec.models > 0)
        .then(|| fit_zoo(&images, spec.models))
        .transpose()?;
    let load = Load::build(spec.name, args.seed, spec.stream, &images, models)?;
    // Only zoo set-ups refit from the images; a standalone load keeps its
    // pixels in its request frames alone.
    let images = if spec.models > 0 { images } else { Vec::new() };
    let fit = || match spec.models {
        0 => Ok(Vec::new()),
        n => fit_zoo(&images, n),
    };
    let mut oracle = Oracle::new(spec.name, args.seed);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: {} images {}x{}, digest {:016x}, {} connections x {DEPTH} in flight",
        spec.images,
        spec.side,
        spec.side,
        load.digest,
        host::nproc()
    ));
    let mut next_op = 2;
    if !args.trace {
        let mut setups = Vec::new();
        let mut session: Option<Session> = None;
        for _ in 0..SETUP_REPEATS {
            // Kill the previous server before the next one starts.
            drop(session.take());
            let (s, t) = server::setup(args, &load, &fit, &mut oracle)?;
            setups.push(t);
            session = Some(s);
        }
        let mut session = session.expect("at least one set-up");
        let w = session.drive(&load, args.seconds, None, &mut next_op, &mut oracle)?;
        let rss = host::peak_rss_mib(session.pid())?;
        drop(session);
        count_ops(&mut out, &w);
        host_note(&mut out, &w);
        out.note(format!("set-up samples (s): {setups:.4?}"));
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("tiles_per_s", w.tiles_per_s(), "tiles/s");
        crate::latency_metrics(&mut out, &w.enc_ms, &w.dec_ms);
        let cpu_us = w.child_cpu_s * 1e6 / w.tiles().max(1) as f64;
        out.metric("cpu_us_per_tile", cpu_us, "us");
        out.metric("peak_rss_mib", rss, "MiB");
    } else {
        let (mut session, _) = server::setup(args, &load, &fit, &mut oracle)?;
        let plain = session.drive(&load, args.seconds, None, &mut next_op, &mut oracle)?;
        let traced = server::traced_window(
            &mut session,
            &load,
            args.seconds,
            SAMPLE_EVERY,
            &mut next_op,
            &mut oracle,
        )?;
        drop(session);
        count_ops(&mut out, &plain);
        count_ops(&mut out, &traced.window);
        host_note(&mut out, &traced.window);
        let (codec, offline_fit_ms) = offline_layers(&load, &mut oracle)?;
        out.metric("loadgen.cpu_share", traced.loadgen_share(), "share");
        out.metric("host.steal_share", traced.window.steal_share, "share");
        codec.push(&mut out);
        out.metric(
            "backend.table_cache_hit_share",
            traced.table_cache_hit_share(),
            "share",
        );
        let fit_ms = traced.fit_ms();
        out.metric("spectral.fit_ms", fit_ms.unwrap_or(offline_fit_ms), "ms");
        out.note(format!(
            "spectral.fit_ms: server span p50 {fit_ms:.4?} ms, offline \
             Codec::spectral_for_image p50 {offline_fit_ms:.4} ms on the same images"
        ));
        traced.push(&mut out);
        let (untraced, sampled) = (plain.tiles_per_s(), traced.window.tiles_per_s());
        out.metric(
            "trace.overhead_pct",
            (untraced - sampled) / untraced * 100.0,
            "%",
        );
        let dump = args
            .out
            .join(format!("spans-{}-seed{}.json", spec.name, args.seed));
        traced.dump(&dump)?;
        out.note(format!("span trees written to {}", dump.display()));
    }
    quality_metrics(
        &mut out,
        &load.quality,
        spec.psnr_floor_db,
        !args.trace,
        &mut oracle,
    );
    out.note(format!("oracle: {} checks", oracle.checked()));
    out.correct = oracle.passed();
    Ok(out)
}

/// Codec-layer spans measured offline on every distinct image of a
/// served load, outputs asserted equal to the references; also the
/// median offline `Codec::spectral_for_image` time on those images.
fn offline_layers(load: &Load, oracle: &mut Oracle) -> Result<(CodecLayers, f64), String> {
    let mut l = CodecLayers::default();
    let mut fits = Vec::new();
    let mut work = Vec::new();
    for i in 0..load.enc_ref.len() {
        let op = i as u64;
        let img = load.image(i)?;
        let t = Instant::now();
        let fitted = Codec::spectral_for_image(&img, TILE, LATENT).map_err(err)?;
        fits.push(t.elapsed().as_secs_f64() * 1e3);
        let codec = match load.models.len() {
            0 => fitted,
            n => load.models[i % n].clone(),
        };
        let (bytes, es) = layers::encode(&codec, &img, &load.opts).map_err(err)?;
        oracle.bytes(op, "split encode", &load.enc_ref[i], &bytes);
        let (decoded, ds) = layers::decode(&codec, &bytes).map_err(err)?;
        let got = oracle::pixel_digest(&decoded);
        oracle.pixels(op, "split decode", load.dec_ref[i].0, got);
        let (ms, again) = layers::to_bytes(&bytes).map_err(err)?;
        oracle.bytes(op, "Container::to_bytes", &bytes, &again);
        let (parse_ms, id) = layers::inline_parse(&codec, &bytes).map_err(err)?;
        oracle.require(op, "codec_from_inline", id == codec.model_id(), || {
            format!("parsed model {id:#x}, expected {:#x}", codec.model_id())
        });
        l.add_gates(&codec);
        l.enc.push(es);
        l.dec.push(ds);
        l.to_bytes_ms.push(ms);
        l.inline_parse_ms.push(parse_ms);
        work.push((codec, img));
    }
    let pass = || -> Result<f64, String> {
        let t = Instant::now();
        for (codec, img) in &work {
            let bytes = codec.encode_image(img, &load.opts).map_err(err)?;
            codec.decode_bytes(&bytes).map_err(err)?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let wide = pass()?;
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(err)?
        .install(pass)?;
    l.thread_speedup = one / wide;
    Ok((l, stats::median(&fits)))
}

/// Served-layer metrics for a workload that is not itself served: a short
/// traced window through a fresh `qnc serve` child, by model id, on the
/// workload's own images and model. Its ops are checked like any other.
pub fn probe(
    args: &Args,
    name: &'static str,
    images: &[GrayImage],
    codec: &Codec,
    seconds: f64,
    out: &mut Outcome,
    oracle: &mut Oracle,
) -> Result<ServerLayers, String> {
    let load = Load::build(name, args.seed, 0, images, Some(vec![codec.clone()]))?;
    let fit = || Ok(vec![codec.clone()]);
    let (mut session, _) = server::setup(args, &load, &fit, oracle)?;
    let mut next_op = 2;
    let traced = server::traced_window(&mut session, &load, seconds, 1, &mut next_op, oracle)?;
    drop(session);
    let w = &traced.window;
    out.note(format!(
        "served probe: {} encodes, {} decodes, {} failed, {} span trees",
        w.encode.attempted,
        w.decode.attempted,
        w.encode.failed + w.decode.failed,
        w.traces.len()
    ));
    count_ops(out, w);
    let dump = args
        .out
        .join(format!("spans-{name}-probe-seed{}.json", args.seed));
    traced.dump(&dump)?;
    Ok(traced)
}
