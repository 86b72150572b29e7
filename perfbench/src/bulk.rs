//! `bulk-1024`: the offline codec, one caller in a closed loop, no
//! server. `Codec::encode_image` (defaults, inline model off), then
//! `Codec::decode_bytes` of its output, cycling through four seeded
//! 1024×1024 images under one spectral model fitted during set-up. All
//! the time goes to qn-codec and qn-backend; serving and the fit are
//! bypassed. The rayon pool keeps its default size (`nproc`).

use crate::host::{self, HostTicks};
use crate::layers::{self, CodecLayers};
use crate::oracle::{self, Oracle};
use crate::report::Outcome;
use crate::stats::{self, Window};
use crate::{err, inputs, served, Args, Quality, LATENT, TILE};
use qn_codec::{BackendKind, Codec, CodecOptions};
use qn_image::GrayImage;
use std::time::Instant;

const NAME: &str = "bulk-1024";
const STREAM: u64 = 1;
const IMAGES: usize = 4;
const SIDE: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Consecutive calls per throughput sample: one encode/decode pair, so
/// every sample weighs both directions alike.
const CALLS_PER_SAMPLE: usize = 2;
/// Decoded quality below this fails the run.
const PSNR_FLOOR_DB: f64 = 40.0;
/// Length of the served probe of a traced run.
const PROBE_SECONDS: f64 = 3.0;

/// One timed codec call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub decode: bool,
    pub ok: bool,
    pub tiles: u64,
    pub ms: f64,
    pub cpu_ns: u64,
    pub end: Instant,
}

/// Run calls back to back while the window is open. Returns every call
/// started, each with whether it completed inside the window; only those
/// count toward the metrics.
pub fn closed_loop(window: &Window, mut call: impl FnMut(u64) -> Call) -> Vec<(Call, bool)> {
    let mut calls = Vec::new();
    let mut k = 0;
    while window.is_open() {
        let c = call(k);
        calls.push((c, window.contains(c.end)));
        k += 1;
    }
    calls
}

fn counted(calls: &[(Call, bool)]) -> impl Iterator<Item = &Call> {
    calls
        .iter()
        .filter(|(c, inside)| *inside && c.ok)
        .map(|(c, _)| c)
}

/// Median over samples of [`CALLS_PER_SAMPLE`] consecutive counted calls
/// of their tiles over their time inside the calls. Oracle work between
/// calls stays out, and a burst of host steal moves one sample.
fn tiles_per_s(calls: &[(Call, bool)]) -> f64 {
    let calls: Vec<&Call> = counted(calls).collect();
    let rates: Vec<f64> = calls
        .chunks_exact(CALLS_PER_SAMPLE)
        .map(|s| {
            let tiles: u64 = s.iter().map(|c| c.tiles).sum();
            let ms: f64 = s.iter().map(|c| c.ms).sum();
            tiles as f64 * 1e3 / ms
        })
        .collect();
    stats::median(&rates)
}

/// Scalar-backend references: the ROADMAP keeps `scalar` as the oracle.
struct References {
    bytes: Vec<Vec<u8>>,
    pixels: Vec<u64>,
    quality: Quality,
}

fn references(
    codec: &Codec,
    images: &[GrayImage],
    opts: &CodecOptions,
) -> Result<References, String> {
    let scalar = CodecOptions {
        backend: BackendKind::Scalar,
        ..opts.clone()
    };
    let mut refs = References {
        bytes: Vec::new(),
        pixels: Vec::new(),
        quality: Quality::default(),
    };
    for img in images {
        let bytes = codec.encode_image(img, &scalar).map_err(err)?;
        let decoded = codec
            .decode_bytes_with(&bytes, BackendKind::Scalar)
            .map_err(err)?;
        refs.quality.add(img, &bytes, &decoded);
        refs.pixels.push(oracle::pixel_digest(&decoded));
        refs.bytes.push(bytes);
    }
    Ok(refs)
}

fn fit(images: &[GrayImage]) -> Result<Codec, String> {
    Codec::spectral_for_images(images, TILE, LATENT).map_err(err)
}

/// One set-up: the fit plus one checked warm-up call per direction.
/// Returns the codec and the set-up time, checks excluded.
fn setup(
    images: &[GrayImage],
    opts: &CodecOptions,
    refs: &References,
    oracle: &mut Oracle,
) -> Result<(Codec, f64), String> {
    let t = Instant::now();
    let codec = fit(images)?;
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bytes = codec.encode_image(&images[0], opts).map_err(err)?;
    let encode_s = t.elapsed().as_secs_f64();
    oracle.bytes(0, "warm-up encode", &refs.bytes[0], &bytes);
    let t = Instant::now();
    let decoded = codec.decode_bytes(&bytes).map_err(err)?;
    let decode_s = t.elapsed().as_secs_f64();
    oracle.pixels(
        1,
        "warm-up decode",
        refs.pixels[0],
        oracle::pixel_digest(&decoded),
    );
    Ok((codec, fit_s + encode_s + decode_s))
}

enum Output {
    Bytes(Vec<u8>),
    Image(GrayImage),
}

/// The untraced loop: whole `encode_image` / `decode_bytes` calls, each
/// decode taking the bytes of the encode before it.
fn plain_loop(
    window: &Window,
    codec: &Codec,
    images: &[GrayImage],
    opts: &CodecOptions,
    refs: &References,
    oracle: &mut Oracle,
    first_op: u64,
) -> Vec<(Call, bool)> {
    let tiles = inputs::tile_count(&images[0], TILE);
    let mut last = refs.bytes[0].clone();
    closed_loop(window, |k| {
        let i = (k / 2) as usize % IMAGES;
        let op = first_op + k;
        let decode = k % 2 == 1;
        let c0 = host::process_cpu_ns();
        let t0 = Instant::now();
        let result = if decode {
            codec.decode_bytes(&last).map(Output::Image)
        } else {
            codec.encode_image(&images[i], opts).map(Output::Bytes)
        };
        let end = Instant::now();
        let cpu_ns = host::process_cpu_ns() - c0;
        let ok = result.is_ok();
        match result {
            Ok(Output::Bytes(bytes)) => {
                oracle.bytes(op, "encode", &refs.bytes[i], &bytes);
                last = bytes;
            }
            Ok(Output::Image(img)) => {
                oracle.pixels(op, "decode", refs.pixels[i], oracle::pixel_digest(&img));
            }
            Err(_) if !decode => last = refs.bytes[i].clone(),
            Err(_) => {}
        }
        Call {
            decode,
            ok,
            tiles,
            ms: (end - t0).as_secs_f64() * 1e3,
            cpu_ns,
            end,
        }
    })
}

/// Latencies of the counted calls of one direction.
fn latencies(calls: &[(Call, bool)], decode: bool) -> Vec<f64> {
    counted(calls)
        .filter(|c| c.decode == decode)
        .map(|c| c.ms)
        .collect()
}

fn count_calls(out: &mut Outcome, calls: &[(Call, bool)]) {
    for (c, _) in calls {
        let dir = if c.decode {
            &mut out.decode
        } else {
            &mut out.encode
        };
        dir.add(c.ok);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let images = inputs::images(args.seed, STREAM, IMAGES, SIDE, SIDE);
    let opts = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let mut oracle = Oracle::new(NAME, args.seed);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: {IMAGES} images {SIDE}x{SIDE}, digest {:016x}, one caller",
        inputs::digest(&images)
    ));
    let refs = references(&fit(&images)?, &images, &opts)?;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut codec = None;
    for _ in 0..repeats {
        let (c, s) = setup(&images, &opts, &refs, &mut oracle)?;
        setups.push(s);
        codec = Some(c);
    }
    let codec = codec.expect("at least one set-up");
    let nproc = host::nproc() as f64;

    let gen0 = host::thread_cpu_ns();
    let cpu0 = host::process_cpu_ns();
    let host0 = HostTicks::read()?;
    let window = Window::open(args.seconds);
    let calls = plain_loop(&window, &codec, &images, &opts, &refs, &mut oracle, 2);
    let wall = window.start().elapsed().as_secs_f64();
    let steal = host0.steal_share_until(&HostTicks::read()?);
    let cpu_s = (host::process_cpu_ns() - cpu0) as f64 * 1e-9;
    let gen_s = (host::thread_cpu_ns() - gen0) as f64 * 1e-9;
    count_calls(&mut out, &calls);
    out.note(format!(
        "host: nproc {nproc}, host.steal_share {steal:.4}, codec process cpu_util {:.4} \
         (server.cpu_util of this workload), caller thread cpu {gen_s:.3} s (share {:.4})",
        cpu_s / (wall * nproc),
        gen_s / wall
    ));
    let rate = tiles_per_s(&calls);
    if !args.trace {
        let enc = latencies(&calls, false);
        let dec = latencies(&calls, true);
        let cpu_ns: u64 = counted(&calls).map(|c| c.cpu_ns).sum();
        let tiles: u64 = counted(&calls).map(|c| c.tiles).sum();
        out.note(format!("set-up samples (s): {setups:.4?}"));
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("tiles_per_s", rate, "tiles/s");
        crate::latency_metrics(&mut out, &enc, &dec);
        out.metric(
            "cpu_us_per_tile",
            cpu_ns as f64 * 1e-3 / tiles.max(1) as f64,
            "us",
        );
        out.metric(
            "peak_rss_mib",
            host::peak_rss_mib(std::process::id())?,
            "MiB",
        );
    } else {
        traced(
            args,
            &mut out,
            &codec,
            &images,
            &opts,
            &refs,
            &mut oracle,
            rate,
        )?;
    }
    crate::quality_metrics(
        &mut out,
        &refs.quality,
        PSNR_FLOOR_DB,
        !args.trace,
        &mut oracle,
    );
    out.note(format!("oracle: {} checks", oracle.checked()));
    out.correct = oracle.passed();
    Ok(out)
}

/// The traced repeat: every call split into its layer calls, then a
/// one-thread window, offline fit and model-parse timings and a served
/// probe.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    out: &mut Outcome,
    codec: &Codec,
    images: &[GrayImage],
    opts: &CodecOptions,
    refs: &References,
    oracle: &mut Oracle,
    untraced_rate: f64,
) -> Result<(), String> {
    let tiles = inputs::tile_count(&images[0], TILE);
    let mut l = CodecLayers::default();
    let mut last = refs.bytes[0].clone();
    let cache0 = qn_backend::table_cache_stats();
    let host0 = HostTicks::read()?;
    let window = Window::open(args.seconds);
    let first_op = 1 << 32;
    let calls = closed_loop(&window, |k| {
        let i = (k / 2) as usize % IMAGES;
        let op = first_op + k;
        let decode = k % 2 == 1;
        let t0 = Instant::now();
        let ok = if decode {
            let r = layers::decode(codec, &last);
            let ok = r.is_ok();
            if let Ok((img, spans)) = r {
                let got = oracle::pixel_digest(&img);
                oracle.pixels(op, "split decode", refs.pixels[i], got);
                l.dec.push(spans);
            }
            ok
        } else {
            let r = layers::encode(codec, &images[i], opts);
            let ok = r.is_ok();
            last = match r {
                Ok((bytes, spans)) => {
                    oracle.bytes(op, "split encode", &refs.bytes[i], &bytes);
                    l.enc.push(spans);
                    bytes
                }
                Err(_) => refs.bytes[i].clone(),
            };
            ok
        };
        let end = Instant::now();
        Call {
            decode,
            ok,
            tiles,
            ms: (end - t0).as_secs_f64() * 1e3,
            cpu_ns: 0,
            end,
        }
    });
    let steal = host0.steal_share_until(&HostTicks::read()?);
    let cache1 = qn_backend::table_cache_stats();
    count_calls(out, &calls);
    let traced_rate = tiles_per_s(&calls);

    let one = Window::open(args.seconds / 2.0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(err)?;
    let single = pool.install(|| plain_loop(&one, codec, images, opts, refs, oracle, 2 << 32));
    count_calls(out, &single);
    l.thread_speedup = untraced_rate / tiles_per_s(&single);

    let mut fit_ms = Vec::new();
    for (i, img) in images.iter().enumerate() {
        let op = i as u64;
        let t = Instant::now();
        Codec::spectral_for_image(img, TILE, LATENT).map_err(err)?;
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (ms, again) = layers::to_bytes(&refs.bytes[i]).map_err(err)?;
        oracle.bytes(op, "Container::to_bytes", &refs.bytes[i], &again);
        l.to_bytes_ms.push(ms);
        let (ms, id) = layers::inline_parse(codec, &refs.bytes[i]).map_err(err)?;
        oracle.require(op, "codec_from_inline", id == codec.model_id(), || {
            format!("parsed model {id:#x}, expected {:#x}", codec.model_id())
        });
        l.inline_parse_ms.push(ms);
    }
    l.add_gates(codec);

    let probe = served::probe(args, NAME, images, codec, PROBE_SECONDS, out, oracle)?;
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    out.metric("loadgen.cpu_share", probe.loadgen_share(), "share");
    out.metric("host.steal_share", steal, "share");
    l.push(out);
    out.metric(
        "backend.table_cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
    );
    out.metric("spectral.fit_ms", stats::median(&fit_ms), "ms");
    probe.push(out);
    out.metric(
        "trace.overhead_pct",
        (untraced_rate - traced_rate) / untraced_rate * 100.0,
        "%",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn the_closed_loop_never_exceeds_its_window() {
        let window = Window::open(0.25);
        let end = window.start() + Duration::from_secs_f64(0.25);
        let mut starts = Vec::new();
        let calls = closed_loop(&window, |k| {
            starts.push(Instant::now());
            std::thread::sleep(Duration::from_millis(40));
            Call {
                decode: k % 2 == 1,
                ok: true,
                tiles: 1,
                ms: 40.0,
                cpu_ns: 0,
                end: Instant::now(),
            }
        });
        assert!(
            starts.iter().all(|&s| s < end),
            "a call started after the window"
        );
        assert!(calls.len() >= 5);
        let inside: Vec<_> = calls.iter().filter(|(_, inside)| *inside).collect();
        assert!(inside.iter().all(|(c, _)| c.end <= end));
        assert!(
            calls.len() - inside.len() <= 1,
            "only the last call may overrun"
        );
        assert_eq!(counted(&calls).count(), inside.len());
    }
}
