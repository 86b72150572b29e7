//! `qnc` — the quantum-network image codec CLI.
//!
//! ```text
//! qnc compress   <input.pgm> -o <out.qnc> [options]
//! qnc decompress <input.qnc> -o <out.pgm> [options]
//! qnc train      <input.pgm> -o <model.qnm> [options]
//! qnc info       <file.qnc | file.qnm> [--json]
//! qnc serve      [--addr HOST:PORT] [--store DIR] [options]
//! qnc remote     compress|decompress|info|models|stats|trace … --addr HOST:PORT
//! qnc eval       [--datasets LIST] [--grid SPEC] [--baselines LIST]
//!                [-o report.json] [--json] [--check] [--timings]
//! ```
//!
//! Argument parsing is hand-rolled (the dependency set is frozen); every
//! failure exits with a message on stderr and a non-zero status — no
//! panics on user input.

use qn_codec::stage::Stages;
use qn_codec::{
    codec_from_inline, info, model, BackendKind, Codec, CodecOptions, Container, EntropyCoder,
};
use qn_core::config::{InitStrategy, NetworkConfig, OptimizerKind};
use qn_core::trainer::Trainer;
use qn_image::{metrics, pgm, tiles, GrayImage};
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::stages::{self, StageRecorder};
use qn_serve::{Client, ServerConfig};
use qn_trace::TraceBuilder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
qnc — quantum-network image codec

USAGE:
    qnc compress   <input.pgm> -o <out.qnc> [--model <m.qnm>] [--tile N]
                   [--latent D] [--bits B] [--entropy rice|rice-pos|range]
                   [--per-tile-scale] [--no-inline-model] [--no-verify]
                   [--timings] [--trace]
    qnc decompress <input.qnc> -o <out.pgm> [--model <m.qnm>] [--timings]
                   [--trace]
    qnc train      <input.pgm> -o <model.qnm> [--tile N] [--latent D]
                   [--layers-c N] [--layers-r N] [--iters N] [--seed S]
    qnc info       <file.qnc | file.qnm> [--json]
    qnc serve      [--addr HOST:PORT] [--store DIR] [--cache-models N]
                   [--read-timeout-ms T] [--log-level off|warn|info|debug]
                   [--max-inflight N] [--conn-inflight N] [--max-conns N]
                   [--shutdown-grace-ms T] [--quiet] [--slow-ms MS]
    qnc remote compress   <input.pgm> -o <out.qnc> --addr HOST:PORT
                   [--model <m.qnm>] [--tile N] [--latent D] [--bits B]
                   [--entropy C] [--per-tile-scale] [--no-inline-model]
                   [--trace]
    qnc remote decompress <input.qnc> -o <out.pgm> --addr HOST:PORT
                   [--trace]
    qnc remote info       [file.qnc | file.qnm] --addr HOST:PORT
    qnc remote models     --addr HOST:PORT
    qnc remote stats      --addr HOST:PORT [--watch SECS]
    qnc remote trace      --addr HOST:PORT [--slow] [--id HEX] [--json]
    qnc eval       [--datasets a,b,c] [--dir PGM_DIR] [--grid SPEC]
                   [--baselines svd,pca,csc|all|none] [-o report.json]
                   [--json] [--seed S] [--check] [--timings]

Defaults: tile 4 (1..=16), latent 8, bits 8, rice entropy coding,
inline model.
Every command runs the mesh passes on the simd backend, which writes
the same bytes and pixels as the scalar reference the tests check it
against. --entropy picks the latent bitstream coder: rice writes
format v1 (readable by every build), rice-pos and range write format
v2 (per-position Rice parameters / adaptive range coding + norm
deltas — smaller files, identical pixels). `decompress` reads all
three automatically. `compress` without --model builds a PCA-spectral
model from the input image itself and (unless --no-inline-model)
embeds it in the container, so the .qnc decodes standalone. `train`
distills a model from an image's tiles: spectral initialisation plus
--iters gradient refinement steps (0 = spectral only). `serve` runs
the codec server (default addr 127.0.0.1:7733, port 0 = ephemeral;
--store names the model-zoo directory; each request runs the offline
codec schedule, its own mesh pass included, on the reactor that read
it (one reactor per core; a one-panel ENCODE or DECODE by a cached
model id) or on one of max(cores, 8) worker threads;
--quiet drops the banner, --log-level gates the timestamped stderr
event lines; every server records metrics and traces); `remote` runs
compress/decompress/info/models/stats/trace against it, with responses
byte-identical to the offline commands. `remote compress --model`
uploads the model to the server's zoo first.
`remote stats` prints the server's telemetry JSON (counters, gauges,
latency percentiles), the one way to read a running server's metrics;
--watch repeats it every SECS seconds.
`compress`/`decompress` --timings print the command's stages flat
(name=time), --trace the same stages as a span tree: parse (on
decompress), prepare, spectral (when compress fits its own model, from
the tiles prepare gathered), mesh_pass, then quantize/entropy or
stitch. On `remote` commands the request carries
a trace context, the server records the same codec stages between its
frame read, queue wait, parse and reply write, and the client fetches
the tree back — bytes are identical with timing or tracing on or off.
`remote trace` lists
the server's captured traces (recent ring, or the always-keep slow
buffer with --slow; --id filters to one hex trace id). `serve
--slow-ms` arms slow capture: requests at or over MS milliseconds are
kept in the slow buffer and logged as WARN lines with their stage
breakdown. `eval`
runs the rate-distortion sweep (datasets from the registry and/or a
--dir of PGMs, grid spec like 'tile=4;d=2,4,8;bits=4,8' or
smoke/default) with classical baselines at matched rates, prints the
summary table (or the stable JSON with --json), writes the JSON report
with -o, and with --check fails unless the pinned quality gates hold
at the golden operating point, checked before -o is written, so a
failing check writes no report (`qnc eval --check -o
BENCH_quality.json` regenerates the checked-in trail). --timings adds
wall-clock throughput (which makes the report run-dependent, so stable
reports omit it).";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("qnc: {msg}");
    ExitCode::from(2)
}

fn usage(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("qnc: {msg}\n\n{USAGE}");
    ExitCode::from(1)
}

/// Minimal flag cracker: positionals plus `--flag [value]` options.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let takes_value = [
            "-o",
            "--output",
            "--model",
            "--tile",
            "--latent",
            "--bits",
            "--layers-c",
            "--layers-r",
            "--iters",
            "--seed",
            "--addr",
            "--store",
            "--cache-models",
            "--read-timeout-ms",
            "--max-inflight",
            "--conn-inflight",
            "--max-conns",
            "--shutdown-grace-ms",
            "--log-level",
            "--slow-ms",
            "--id",
            "--watch",
            "--entropy",
            "--datasets",
            "--grid",
            "--baselines",
            "--dir",
        ];
        let boolean = [
            "--per-tile-scale",
            "--no-inline-model",
            "--no-verify",
            "--json",
            "--check",
            "--timings",
            "--quiet",
            "--trace",
            "--slow",
            "--help",
            "-h",
        ];
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if takes_value.contains(&arg.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag {arg} needs a value"))?;
                flags.push((arg.clone(), Some(value.clone())));
            } else if boolean.contains(&arg.as_str()) {
                flags.push((arg.clone(), None));
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(format!("unknown flag {arg}"));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == name)
    }

    fn value(&self, names: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| names.contains(&f.as_str()))
            .and_then(|(_, v)| v.as_deref())
    }

    fn numeric<T: std::str::FromStr>(&self, names: &[&str], default: T) -> Result<T, String> {
        match self.value(names) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("{} needs a number, got {s:?}", names[0])),
        }
    }
}

/// `--tile N`: the tile edge in pixels (default 4), checked before any
/// command sizes an `N²`-dimensional model by it. Every command takes
/// the range the server accepts for a per-request model.
fn tile_size(args: &Args) -> Result<usize, String> {
    let max = usize::from(qn_codec::MAX_TILE_SIZE);
    let tile = args.numeric(&["--tile"], 4)?;
    if (1..=max).contains(&tile) {
        Ok(tile)
    } else {
        Err(format!("--tile must be in 1..={max}, got {tile}"))
    }
}

fn read_image(path: &Path) -> Result<GrayImage, String> {
    pgm::read_pgm(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Entropy-coder selection: `--entropy rice|rice-pos|range`, default
/// rice (the v1 bitstream every build reads).
fn entropy_choice(args: &Args) -> Result<EntropyCoder, String> {
    match args.value(&["--entropy"]) {
        Some(name) => name.parse(),
        None => Ok(EntropyCoder::Rice),
    }
}

/// A recorder for an offline command's stages, holding a span tree
/// when `--timings` or `--trace` asks for them.
fn offline_recorder(args: &Args, name: &str) -> StageRecorder<'static> {
    let traced = args.has("--timings") || args.has("--trace");
    StageRecorder::new(
        None,
        traced.then(|| TraceBuilder::new(fresh_trace_id(), name)),
    )
}

/// Print an offline command's stages: flat with `--timings`, as a span
/// tree with `--trace`.
fn print_stages(args: &Args, rec: StageRecorder) {
    let Some(trace) = rec.finish() else { return };
    if args.has("--timings") {
        println!("timings: {}", stages::flat(&trace));
    }
    if args.has("--trace") {
        print!("{}", qn_trace::render_tree(&trace));
    }
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let [input] = args.positional.as_slice() else {
        return Err("compress needs exactly one input image".into());
    };
    let output = PathBuf::from(
        args.value(&["-o", "--output"])
            .ok_or("compress needs -o <out.qnc>")?,
    );
    let tile = tile_size(args)?;
    let latent: usize = args.numeric(&["--latent"], 8)?;
    let opts = CodecOptions {
        tile_size: tile,
        bits: args.numeric(&["--bits"], 8u8)?,
        per_tile_scale: args.has("--per-tile-scale"),
        inline_model: !args.has("--no-inline-model"),
        entropy: entropy_choice(args)?,
        ..CodecOptions::default()
    };

    let img = read_image(Path::new(input))?;
    // The stages a traced `qnc remote compress` renders; timing only
    // reads clocks.
    let mut rec = offline_recorder(args, "compress");
    // An explicit model file, or a spectral model fitted to the image's
    // own tiles inside the encode (recorded as the `spectral` stage).
    let (codec, bytes, stats, model_source) = match args.value(&["--model"]) {
        Some(path) => {
            let codec = Codec::from_model_file(Path::new(path))
                .map_err(|e| format!("loading model {path}: {e}"))?;
            let (bytes, stats) = codec
                .encode_image_with_stats(&img, &opts, &mut rec)
                .map_err(|e| format!("encoding: {e}"))?;
            (codec, bytes, stats, "file")
        }
        None => {
            let (codec, bytes, stats) = Codec::spectral_encode(&img, latent, &opts, &mut rec)
                .map_err(|e| format!("encoding with a spectral model: {e}"))?;
            (codec, bytes, stats, "spectral")
        }
    };
    rec.codec_attrs(stats.tiles, Some(opts.entropy));
    print_stages(args, rec);
    std::fs::write(&output, &bytes).map_err(|e| format!("writing {}: {e}", output.display()))?;

    println!(
        "compressed {}x{} ({} px) -> {} bytes  [{:.3} bpp, ratio {:.2}x, {} tiles, {} empty, model: {model_source}]",
        img.width(),
        img.height(),
        img.len(),
        stats.container_bytes,
        stats.bits_per_pixel,
        stats.ratio(),
        stats.tiles,
        stats.empty_tiles,
    );

    if !args.has("--no-verify") {
        let back = codec
            .decode_bytes(&bytes)
            .map_err(|e| format!("verify decode: {e}"))?;
        let psnr = metrics::psnr(&img, &back.clamped());
        println!(
            "verify: PSNR {psnr:.2} dB, SSIM {:.4}",
            metrics::ssim(&img, &back.clamped())
        );
    }
    Ok(())
}

fn cmd_decompress(args: &Args) -> Result<(), String> {
    let [input] = args.positional.as_slice() else {
        return Err("decompress needs exactly one input container".into());
    };
    let output = PathBuf::from(
        args.value(&["-o", "--output"])
            .ok_or("decompress needs -o <out.pgm>")?,
    );
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;

    let model = match args.value(&["--model"]) {
        Some(path) => Some(
            Codec::from_model_file(Path::new(path))
                .map_err(|e| format!("loading model {path}: {e}"))?,
        ),
        None => None,
    };
    // One parse; a standalone container then rebuilds its codec from
    // the inline model, as the server does. The parse and codec stages
    // are the ones a traced `qnc remote decompress` renders.
    let mut rec = offline_recorder(args, "decompress");
    let container = rec
        .run(stages::PARSE, || Container::from_bytes(&bytes))
        .map_err(|e| format!("decoding: {e}"))?;
    let codec = match model {
        Some(codec) => codec,
        None => codec_from_inline(&container).map_err(|e| format!("decoding: {e}"))?,
    };
    let img = codec
        .decode_container(&container, BackendKind::default(), &mut rec)
        .map_err(|e| format!("decoding: {e}"))?;
    rec.codec_attrs(container.tiles.len(), None);
    print_stages(args, rec);

    pgm::write_pgm(&img.clamped(), &output)
        .map_err(|e| format!("writing {}: {e}", output.display()))?;
    println!(
        "decompressed -> {} ({}x{})",
        output.display(),
        img.width(),
        img.height()
    );
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let [input] = args.positional.as_slice() else {
        return Err("train needs exactly one input image".into());
    };
    let output = PathBuf::from(
        args.value(&["-o", "--output"])
            .ok_or("train needs -o <model.qnm>")?,
    );
    let tile = tile_size(args)?;
    let latent: usize = args.numeric(&["--latent"], 8)?;
    let iters: usize = args.numeric(&["--iters"], 0)?;
    let dim = tile * tile;

    let img = read_image(Path::new(input))?;
    let model = if iters == 0 {
        Codec::spectral_for_image(&img, tile, latent)
            .map_err(|e| format!("spectral model: {e}"))?
            .model()
            .clone()
    } else {
        // Gradient refinement from the spectral start, on the image's
        // own non-empty tiles.
        let tiling = tiles::tile(&img, tile);
        let samples: Vec<GrayImage> = tiling
            .tiles
            .into_iter()
            .filter(|t| t.pixels().iter().any(|&p| p > 0.0))
            .collect();
        if samples.is_empty() {
            return Err("image is entirely black; nothing to train on".into());
        }
        let config = NetworkConfig {
            dim,
            compressed_dim: latent,
            layers_c: args.numeric(&["--layers-c"], 12)?,
            layers_r: args.numeric(&["--layers-r"], 14)?,
            iterations: iters,
            seed: args.numeric(&["--seed"], 7u64)?,
            init: InitStrategy::Spectral,
            // Plain GD on sample-normalised gradients: the spectral
            // start is already near-optimal, and adaptive optimizers
            // (Adam normalises tiny gradients up to full-size steps)
            // walk away from it before re-converging; unnormalised sum
            // gradients diverge outright on hundreds of tiles.
            optimizer: OptimizerKind::Gd,
            learning_rate: 0.05,
            normalize_gradient: true,
        };
        let mut trainer =
            Trainer::new(config, &samples).map_err(|e| format!("trainer setup: {e}"))?;
        let report = trainer.train().map_err(|e| format!("training: {e}"))?;
        println!(
            "trained {iters} iterations on {} tiles: L_C {:.3e}, L_R {:.3e}",
            samples.len(),
            report.final_compression_loss,
            report.final_reconstruction_loss
        );
        trainer.into_autoencoder()
    };

    model::save_model(&output, &model).map_err(|e| format!("saving model: {e}"))?;
    println!(
        "model -> {} (N={}, d={}, id {:#018x})",
        output.display(),
        model.dim(),
        model.compression.compressed_dim(),
        model::model_id(&model)
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let [input] = args.positional.as_slice() else {
        return Err("info needs exactly one file".into());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    if args.has("--json") {
        // The same JSON a running server's INFO reply carries.
        let json = info::file_info_json(&bytes).map_err(|e| format!("{input}: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    match bytes.get(..4) {
        Some(m) if m == qn_codec::container::CONTAINER_MAGIC => {
            let c = qn_codec::Container::from_bytes(&bytes)
                .map_err(|e| format!("parsing container: {e}"))?;
            let h = &c.header;
            let entropy = h.entropy().map_err(|e| format!("parsing container: {e}"))?;
            println!("qnc container v{}", h.version);
            println!("  image        {}x{} px", h.width, h.height);
            println!(
                "  tiles        {}x{} of {}px ({} total)",
                h.tiles_x(),
                h.tiles_y(),
                h.tile_size,
                h.tile_count()
            );
            println!("  latents      d={} @ {} bits", h.latent_dim, h.bits);
            println!("  entropy      {entropy}");
            println!("  model id     {:#018x}", h.model_id);
            println!("  per-tile scale  {}", h.per_tile_scale());
            println!(
                "  inline model {}",
                c.inline_model
                    .as_ref()
                    .map_or("no".to_string(), |m| format!("{} bytes", m.len()))
            );
            println!(
                "  occupied     {}/{} tiles",
                c.tiles.occupied_count(),
                c.tiles.len()
            );
            println!("  file size    {} bytes", bytes.len());
        }
        Some(m) if m == qn_codec::model::MODEL_MAGIC => {
            let model =
                qn_codec::model::decode_model(&bytes).map_err(|e| format!("parsing model: {e}"))?;
            println!("qnm model v{}", qn_codec::model::MODEL_VERSION);
            println!(
                "  dimensions   N={} -> d={}",
                model.dim(),
                model.compression.compressed_dim()
            );
            println!(
                "  mesh U_C     {} layers, {} parameters",
                model.compression.mesh().n_layers(),
                model.compression.mesh().param_count()
            );
            println!(
                "  mesh U_R     {} layers, {} parameters",
                model.reconstruction.mesh().n_layers(),
                model.reconstruction.mesh().param_count()
            );
            println!("  model id     {:#018x}", qn_codec::model::model_id(&model));
            println!("  file size    {} bytes", bytes.len());
        }
        _ => return Err(format!("{input}: not a .qnc container or .qnm model")),
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err(format!(
            "serve takes no positionals, got {:?}",
            args.positional
        ));
    }
    let log_level = match args.value(&["--log-level"]) {
        // The CLI server logs by default; the library default (Off)
        // stays silent for embedded servers.
        None => qn_serve::LogLevel::Info,
        Some(s) => qn_serve::LogLevel::parse(s)
            .ok_or_else(|| format!("--log-level takes off|warn|info|debug, got {s:?}"))?,
    };
    let config = ServerConfig {
        addr: args.value(&["--addr"]).unwrap_or("127.0.0.1:7733").into(),
        store_dir: args.value(&["--store"]).map(PathBuf::from),
        model_cache: args.numeric(&["--cache-models"], 16usize)?,
        read_timeout: Duration::from_millis(args.numeric(&["--read-timeout-ms"], 30_000u64)?),
        max_inflight: args.numeric(&["--max-inflight"], 256usize)?,
        conn_inflight: args.numeric(&["--conn-inflight"], 8usize)?,
        max_conns: args.numeric(&["--max-conns"], 0usize)?,
        shutdown_grace: Duration::from_millis(args.numeric(&["--shutdown-grace-ms"], 5_000u64)?),
        log_level,
        slow_threshold: Duration::from_millis(args.numeric(&["--slow-ms"], 0u64)?),
    };
    let store = config
        .store_dir
        .as_ref()
        .map_or("none (in-memory models only)".to_string(), |d| {
            d.display().to_string()
        });
    let handle = qn_serve::spawn(config.clone()).map_err(|e| format!("starting server: {e}"))?;
    // The address line is the startup handshake scripts and tests parse
    // (ephemeral ports are only knowable here). Written fallibly: a
    // server must keep serving even if stdout is a pipe whose reader
    // went away after the handshake. --quiet suppresses it (and the
    // whole banner) for setups that discover the address elsewhere.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    if !args.has("--quiet") {
        let _ = writeln!(
            stdout,
            "qn-serve listening on {}\n  one mesh pass per request, model store: {store}\n  slow capture {}, log level {}",
            handle.addr(),
            match config.slow_threshold.as_millis() {
                0 => "off".to_string(),
                ms => format!(">= {ms} ms"),
            },
            config.log_level,
        );
        let _ = stdout.flush();
    }
    // Serve until killed; `qnc remote stats` reads the telemetry.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Connect to the server every remote subcommand talks to.
fn remote_client(args: &Args) -> Result<Client, String> {
    let addr = args
        .value(&["--addr"])
        .ok_or("remote needs --addr HOST:PORT")?;
    Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn cmd_remote(args: &Args) -> Result<(), String> {
    let Some((sub, rest)) = args.positional.split_first() else {
        return Err(
            "remote needs a subcommand: compress, decompress, info, models, stats or trace".into(),
        );
    };
    match sub.as_str() {
        "compress" => remote_compress(args, rest),
        "decompress" => remote_decompress(args, rest),
        "info" => remote_info(args, rest),
        "models" => remote_models(args, rest),
        "stats" => remote_stats(args, rest),
        "trace" => remote_trace(args, rest),
        other => Err(format!("unknown remote subcommand {other:?}")),
    }
}

fn remote_stats(args: &Args, positional: &[String]) -> Result<(), String> {
    if !positional.is_empty() {
        return Err(format!(
            "remote stats takes no positionals, got {positional:?}"
        ));
    }
    let mut client = remote_client(args)?;
    let watch: u64 = args.numeric(&["--watch"], 0u64)?;
    // Written fallibly: `--watch` output is made for piping (`| head`,
    // a pager that quits), and a closed stdout must end the loop
    // cleanly, not panic the process mid-print.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    loop {
        let json = client.stats().map_err(|e| format!("remote stats: {e}"))?;
        if writeln!(stdout, "{json}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            return Ok(());
        }
        if watch == 0 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(watch));
    }
}

/// A fresh (non-zero) trace id for `--trace` round-trips: wall-clock
/// nanoseconds mixed with the pid, so concurrent invocations against
/// one server get distinct ids without a PRNG dependency.
fn fresh_trace_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(u64::MAX)
        });
    let id = nanos ^ (u64::from(std::process::id()) << 32);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Fetch and render the span tree the server recorded under `id` (a
/// `--trace` round-trip just completed on `client`'s connection, so
/// the trace is guaranteed captured).
fn print_remote_trace(client: &mut Client, id: u64) -> Result<(), String> {
    let json = client
        .trace(false, Some(id))
        .map_err(|e| format!("fetching trace: {e}"))?;
    let traces = qn_trace::parse_traces(&json).map_err(|e| format!("parsing trace reply: {e}"))?;
    match traces.last() {
        Some(t) => print!("{}", qn_trace::render_tree(t)),
        None => println!("trace {id:016x}: evicted from the server's recent ring before fetch"),
    }
    Ok(())
}

fn remote_trace(args: &Args, positional: &[String]) -> Result<(), String> {
    if !positional.is_empty() {
        return Err(format!(
            "remote trace takes no positionals, got {positional:?}"
        ));
    }
    let id = match args.value(&["--id"]) {
        Some(hex) => {
            let hex = hex.strip_prefix("0x").unwrap_or(hex);
            Some(
                u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("--id takes a hex trace id, got {hex:?}"))?,
            )
        }
        None => None,
    };
    let slow = args.has("--slow");
    let mut client = remote_client(args)?;
    let json = client
        .trace(slow, id)
        .map_err(|e| format!("remote trace: {e}"))?;
    if args.has("--json") {
        println!("{json}");
        return Ok(());
    }
    let traces = qn_trace::parse_traces(&json).map_err(|e| format!("parsing trace reply: {e}"))?;
    if traces.is_empty() {
        println!(
            "no {} traces captured{}",
            if slow { "slow" } else { "recent" },
            id.map_or(String::new(), |id| format!(" under id {id:016x}")),
        );
        return Ok(());
    }
    for t in &traces {
        print!("{}", qn_trace::render_tree(t));
    }
    println!("{} trace(s)", traces.len());
    Ok(())
}

fn remote_models(args: &Args, positional: &[String]) -> Result<(), String> {
    if !positional.is_empty() {
        return Err(format!(
            "remote models takes no positionals, got {positional:?}"
        ));
    }
    let mut client = remote_client(args)?;
    let entries = client
        .list_models()
        .map_err(|e| format!("remote models: {e}"))?;
    if entries.is_empty() {
        println!("model zoo is empty");
        return Ok(());
    }
    println!("{:<18}  {:>10}  cached", "model id", "bytes");
    for e in &entries {
        println!(
            "{:#018x}  {:>10}  {}",
            e.id,
            e.size_bytes,
            if e.cached { "yes" } else { "no" }
        );
    }
    println!("{} model(s)", entries.len());
    Ok(())
}

fn remote_compress(args: &Args, positional: &[String]) -> Result<(), String> {
    let [input] = positional else {
        return Err("remote compress needs exactly one input image".into());
    };
    let output = PathBuf::from(
        args.value(&["-o", "--output"])
            .ok_or("remote compress needs -o <out.qnc>")?,
    );
    let tile = tile_size(args)?;
    let latent: usize = args.numeric(&["--latent"], 8)?;
    let opts = CodecOptions {
        tile_size: tile,
        bits: args.numeric(&["--bits"], 8u8)?,
        per_tile_scale: args.has("--per-tile-scale"),
        inline_model: !args.has("--no-inline-model"),
        entropy: entropy_choice(args)?,
        ..CodecOptions::default()
    };
    let img = read_image(Path::new(input))?;
    let mut client = remote_client(args)?;
    let request = match args.value(&["--model"]) {
        Some(path) => {
            let model_bytes =
                std::fs::read(path).map_err(|e| format!("reading model {path}: {e}"))?;
            let id = client
                .load_model(&model_bytes)
                .map_err(|e| format!("uploading model: {e}"))?;
            model_encode_request(&img, &opts, id)
        }
        None => spectral_encode_request(&img, &opts, latent),
    };
    let trace_ctx = args.has("--trace").then(|| qn_serve::TraceContext {
        id: fresh_trace_id(),
        sampled: true,
    });
    let bytes = match trace_ctx {
        Some(ctx) => client.encode_traced(&request, ctx),
        None => client.encode(&request),
    }
    .map_err(|e| format!("remote encode: {e}"))?;
    std::fs::write(&output, &bytes).map_err(|e| format!("writing {}: {e}", output.display()))?;
    println!(
        "compressed {}x{} ({} px) -> {} bytes  [remote, model: {}]",
        img.width(),
        img.height(),
        img.len(),
        bytes.len(),
        if args.has("--model") {
            "file"
        } else {
            "spectral"
        },
    );
    if let Some(ctx) = trace_ctx {
        print_remote_trace(&mut client, ctx.id)?;
    }
    Ok(())
}

fn remote_decompress(args: &Args, positional: &[String]) -> Result<(), String> {
    let [input] = positional else {
        return Err("remote decompress needs exactly one input container".into());
    };
    let output = PathBuf::from(
        args.value(&["-o", "--output"])
            .ok_or("remote decompress needs -o <out.pgm>")?,
    );
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let mut client = remote_client(args)?;
    let trace_ctx = args.has("--trace").then(|| qn_serve::TraceContext {
        id: fresh_trace_id(),
        sampled: true,
    });
    let img = match trace_ctx {
        Some(ctx) => client.decode_traced(&bytes, ctx),
        None => client.decode(&bytes),
    }
    .map_err(|e| format!("remote decode: {e}"))?;
    pgm::write_pgm(&img.clamped(), &output)
        .map_err(|e| format!("writing {}: {e}", output.display()))?;
    println!(
        "decompressed -> {} ({}x{}) [remote]",
        output.display(),
        img.width(),
        img.height()
    );
    if let Some(ctx) = trace_ctx {
        print_remote_trace(&mut client, ctx.id)?;
    }
    Ok(())
}

fn remote_info(args: &Args, positional: &[String]) -> Result<(), String> {
    let mut client = remote_client(args)?;
    let json = match positional {
        [] => client.info(None),
        [input] => {
            let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
            client.info(Some(&bytes))
        }
        more => return Err(format!("remote info takes at most one file, got {more:?}")),
    }
    .map_err(|e| format!("remote info: {e}"))?;
    println!("{json}");
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err(format!(
            "eval takes no positionals, got {:?}",
            args.positional
        ));
    }
    let seed: u64 = args.numeric(&["--seed"], 0u64)?;
    let grid = qn_eval::Grid::parse(args.value(&["--grid"]).unwrap_or("default"))?;
    let baselines = qn_eval::BaselineSet::parse(args.value(&["--baselines"]).unwrap_or("all"))?;
    let mut datasets = match args.value(&["--datasets"]) {
        Some(roster) => qn_eval::registry::resolve(roster, seed)?,
        None if args.value(&["--dir"]).is_some() => Vec::new(),
        None => qn_eval::registry::all_builtin(seed),
    };
    if let Some(dir) = args.value(&["--dir"]) {
        datasets.push(qn_eval::registry::from_pgm_dir(Path::new(dir))?);
    }
    let report =
        qn_eval::QualityReport::build(&datasets, &grid, &baselines, args.has("--timings"), seed)?;
    if args.has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.human_table());
    }
    // Gates first: a report that fails --check is never written.
    if args.has("--check") {
        match qn_eval::gates::check(&report, &qn_eval::QualityGates::PINNED) {
            Ok(outcome) => eprintln!(
                "quality gates: OK ({:.2} dB >= {:.2} dB floor, {:.3} bpp <= {:.3} bpp ceiling)",
                outcome.psnr_db,
                qn_eval::QualityGates::PINNED.psnr_floor_db,
                outcome.bpp,
                qn_eval::QualityGates::PINNED.bpp_ceiling,
            ),
            Err(violations) => return Err(violations.join("; ")),
        }
    }
    if let Some(out) = args.value(&["-o", "--output"]) {
        std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("eval: report -> {out}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        return usage("missing command");
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => return usage(e),
    };
    if args.has("--help") || args.has("-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "compress" => cmd_compress(&args),
        "decompress" => cmd_decompress(&args),
        "train" => cmd_train(&args),
        "info" => cmd_info(&args),
        "serve" => cmd_serve(&args),
        "remote" => cmd_remote(&args),
        "eval" => cmd_eval(&args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}
