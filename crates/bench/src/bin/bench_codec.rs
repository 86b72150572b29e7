//! Codec throughput recorder: measures encode/decode tiles/sec for
//! every execution backend on identical inputs — pinned to a one-thread
//! pool so the per-backend rows are true single-core numbers on any
//! host — then sweeps a thread axis over the simd backend, prints a
//! table, and writes the numbers to `BENCH_codec.json` at the workspace
//! root — the machine-readable trail the ROADMAP's codec throughput
//! claims point at.
//!
//! Usage: `cargo run --release -p qn-bench --bin bench_codec [size]`
//! (default image size 256; the tile grid is size²/16).

use qn_bench::results_dir;
use qn_codec::{BackendKind, Codec, CodecOptions};
use qn_image::datasets;
use rayon::ThreadPoolBuilder;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Thread counts swept over the simd backend. Counts above the
/// host's parallelism still run (the pool spawns that many workers);
/// their rows record what oversubscription costs.
const THREAD_AXIS: [usize; 4] = [1, 2, 4, 8];

/// Median-of-runs timing for one closure, in seconds per call.
fn time_median<F: FnMut()>(mut f: F, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median encode and decode tiles/sec for one backend on the calling
/// thread's pool.
fn measure(
    codec: &Codec,
    img: &qn_image::GrayImage,
    bytes: &[u8],
    backend: BackendKind,
    tiles: usize,
    runs: usize,
) -> (f64, f64) {
    let opts = CodecOptions {
        backend,
        inline_model: false,
        ..CodecOptions::default()
    };
    let enc_s = time_median(
        || {
            black_box(codec.encode_image(black_box(img), &opts).expect("encode"));
        },
        runs,
    );
    let dec_s = time_median(
        || {
            black_box(
                codec
                    .decode_bytes_with(black_box(bytes), backend)
                    .expect("decode"),
            );
        },
        runs,
    );
    (tiles as f64 / enc_s, tiles as f64 / dec_s)
}

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("size must be a number"))
        .unwrap_or(256);
    let runs = 15;

    let img = datasets::grayscale_blobs(1, size, size, 42).remove(0);
    let tile_size = CodecOptions::default().tile_size;
    let codec = Codec::spectral_for_image(&img, tile_size, 8).expect("spectral model");
    let tiles = size.div_ceil(tile_size) * size.div_ceil(tile_size);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "codec throughput, {size}x{size} image, {tiles} tiles, median of {runs} runs, \
         host parallelism {host_threads}"
    );
    println!(
        "{:<16} {:>8} {:>14} {:>14}",
        "backend", "threads", "enc tiles/s", "dec tiles/s"
    );

    let mut entries = String::new();
    let mut push_entry = |backend: BackendKind, threads: usize, enc_tps: f64, dec_tps: f64| {
        println!(
            "{:<16} {:>8} {:>14.0} {:>14.0}",
            backend.name(),
            threads,
            enc_tps,
            dec_tps
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"backend\": \"{}\", \"threads\": {threads}, \
             \"encode_tiles_per_sec\": {enc_tps:.0}, \"decode_tiles_per_sec\": {dec_tps:.0}}}",
            backend.name(),
        )
        .expect("write entry");
    };

    // Backends must agree byte-for-byte before their speed means
    // anything (the backend contract guarantees value-equal mesh
    // outputs, hence identical containers).
    let reference = {
        let opts = CodecOptions {
            backend: BackendKind::Scalar,
            inline_model: false,
            ..CodecOptions::default()
        };
        codec.encode_image(&img, &opts).expect("encode")
    };
    for backend in BackendKind::ALL {
        let opts = CodecOptions {
            backend,
            inline_model: false,
            ..CodecOptions::default()
        };
        let bytes = codec.encode_image(&img, &opts).expect("encode");
        assert_eq!(bytes, reference, "{backend}: container bytes diverged");
    }

    // Single-core rows: every backend inside a one-thread pool.
    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    for backend in BackendKind::ALL {
        let (enc_tps, dec_tps) =
            single.install(|| measure(&codec, &img, &reference, backend, tiles, runs));
        push_entry(backend, 1, enc_tps, dec_tps);
    }

    // Thread axis over the simd backend: the chunked panel schedule
    // is thread-count invariant, so these rows move only in speed,
    // never in bytes.
    for threads in THREAD_AXIS {
        if threads == 1 {
            continue; // already covered by the single-core row
        }
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("bench pool");
        let (enc_tps, dec_tps) =
            pool.install(|| measure(&codec, &img, &reference, BackendKind::Simd, tiles, runs));
        push_entry(BackendKind::Simd, threads, enc_tps, dec_tps);
    }

    let json = format!(
        "{{\n  \"bench\": \"codec_throughput\",\n  \"image\": \"{size}x{size}\",\n  \
         \"tiles\": {tiles},\n  \"runs\": {runs},\n  \"host_parallelism\": {host_threads},\n  \
         \"results\": [\n{entries}\n  ]\n}}\n",
    );
    // results_dir() is <root>/results; BENCH_codec.json lives at the root.
    let path = results_dir()
        .parent()
        .expect("results dir has a parent")
        .join("BENCH_codec.json");
    std::fs::write(&path, &json).expect("write BENCH_codec.json");
    println!("wrote {}", path.display());
}
