//! Serving-throughput recorder: drives real TCP clients against
//! in-process `qn-serve` instances and measures requests/s, tiles/s
//! and client-observed p50/p99 request latency at 1/4/16 concurrent
//! clients, comparing per-request scalar dispatch (batching off)
//! against cross-request simd batching — the number the ROADMAP's
//! serving claims point at. Final rows measure the cost of the
//! telemetry layer itself (instrumented server vs `metrics: false`)
//! and of span tracing (untraced requests on a tracing-armed server,
//! fully sampled requests, and a `tracing: false` server).
//! Results land in `BENCH_serve.json` at the workspace root.
//!
//! Every configuration first asserts that the remote container is
//! byte-identical to the offline encode — speed only counts after
//! correctness.
//!
//! Usage: `cargo run --release -p qn-bench --bin bench_serve
//! [requests-per-client]` (default 24; image 64×64 → 256 tiles per
//! request).

use qn_backend::BackendKind;
use qn_bench::results_dir;
use qn_codec::model::encode_model;
use qn_codec::{Codec, CodecOptions};
use qn_image::datasets;
use qn_metrics::Histogram;
use qn_serve::client::model_encode_request;
use qn_serve::{spawn, Client, ServerConfig, TraceContext};
use std::fmt::Write as _;
use std::time::Instant;

/// Client-observed latency percentiles, estimated from the same log₂
/// histogram the server uses (`qn_metrics`).
fn percentiles_ms(hist: &Histogram) -> (f64, f64) {
    let to_ms = |ns: u64| ns as f64 / 1e6;
    (
        to_ms(hist.quantile_per_mille(500)),
        to_ms(hist.quantile_per_mille(990)),
    )
}

const IMAGE_SIZE: usize = 64;

struct Mode {
    name: &'static str,
    backend: BackendKind,
    batch_tiles: usize,
}

fn main() {
    let per_client: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("requests-per-client must be a number"))
        .unwrap_or(24);

    let img = datasets::grayscale_blobs(1, IMAGE_SIZE, IMAGE_SIZE, 42).remove(0);
    let opts = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).expect("spectral model");
    let model_bytes = encode_model(codec.model());
    let offline = codec.encode_image(&img, &opts).expect("offline encode");
    let tiles = IMAGE_SIZE.div_ceil(opts.tile_size) * IMAGE_SIZE.div_ceil(opts.tile_size);

    let modes = [
        Mode {
            name: "scalar-per-request",
            backend: BackendKind::Scalar,
            batch_tiles: 1,
        },
        Mode {
            name: "simd-batched",
            backend: BackendKind::default(),
            batch_tiles: ServerConfig::default().batch_tiles,
        },
    ];

    println!(
        "serve throughput, {IMAGE_SIZE}x{IMAGE_SIZE} image, {tiles} tiles/request, \
         {per_client} requests/client"
    );
    println!(
        "{:<20} {:>8} {:>12} {:>14} {:>10} {:>10} {:>12} {:>14}",
        "mode",
        "clients",
        "enc req/s",
        "enc tiles/s",
        "p50 ms",
        "p99 ms",
        "dec req/s",
        "dec tiles/s"
    );

    // One timed sweep against a running server: wall-clock seconds plus
    // a client-side latency histogram across all requests.
    let timed_run = |addr: std::net::SocketAddr,
                     clients: usize,
                     decode: bool,
                     traced: bool|
     -> (f64, Histogram) {
        let hist = Histogram::new();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    for round in 0..per_client {
                        let t = Instant::now();
                        if decode {
                            client.decode(&offline).expect("decode");
                        } else if traced {
                            // Ids only need to be non-zero; collisions
                            // across clients are harmless here.
                            let ctx = TraceContext {
                                id: (round + 1) as u64,
                                sampled: true,
                            };
                            client
                                .encode_traced(
                                    &model_encode_request(&img, &opts, codec.model_id()),
                                    ctx,
                                )
                                .expect("traced encode");
                        } else {
                            client
                                .encode(&model_encode_request(&img, &opts, codec.model_id()))
                                .expect("encode");
                        }
                        hist.observe_duration(t.elapsed());
                    }
                });
            }
        });
        (start.elapsed().as_secs_f64(), hist)
    };
    let warm = |addr: std::net::SocketAddr, name: &str| {
        let mut warm = Client::connect(addr).expect("connect");
        let id = warm.load_model(&model_bytes).expect("load model");
        assert_eq!(id, codec.model_id());
        let remote = warm
            .encode(&model_encode_request(&img, &opts, id))
            .expect("warm encode");
        assert_eq!(remote, offline, "{name}: remote bytes diverged");
    };

    let mut entries = String::new();
    for mode in &modes {
        for clients in [1usize, 4, 16] {
            let server = spawn(ServerConfig {
                addr: "127.0.0.1:0".into(),
                backend: mode.backend,
                batch_tiles: mode.batch_tiles,
                ..ServerConfig::default()
            })
            .expect("spawn server");
            let addr = server.addr();

            // Pre-warm the zoo and pin correctness before timing.
            warm(addr, mode.name);

            let requests = (clients * per_client) as f64;
            let (enc_s, enc_hist) = timed_run(addr, clients, false, false);
            let (dec_s, _) = timed_run(addr, clients, true, false);
            let (enc_rps, dec_rps) = (requests / enc_s, requests / dec_s);
            let (enc_tps, dec_tps) = (enc_rps * tiles as f64, dec_rps * tiles as f64);
            let (p50_ms, p99_ms) = percentiles_ms(&enc_hist);
            println!(
                "{:<20} {:>8} {:>12.1} {:>14.0} {:>10.2} {:>10.2} {:>12.1} {:>14.0}",
                mode.name, clients, enc_rps, enc_tps, p50_ms, p99_ms, dec_rps, dec_tps
            );
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            write!(
                entries,
                "    {{\"mode\": \"{}\", \"backend\": \"{}\", \"batched\": {}, \
                 \"clients\": {clients}, \
                 \"encode_requests_per_sec\": {enc_rps:.1}, \
                 \"encode_tiles_per_sec\": {enc_tps:.0}, \
                 \"encode_latency_p50_ms\": {p50_ms:.3}, \
                 \"encode_latency_p99_ms\": {p99_ms:.3}, \
                 \"decode_requests_per_sec\": {dec_rps:.1}, \
                 \"decode_tiles_per_sec\": {dec_tps:.0}}}",
                mode.name,
                mode.backend.name(),
                mode.batch_tiles > 1,
            )
            .expect("write entry");
            server.shutdown();
        }
    }

    // The cost of telemetry itself: the default panel configuration at
    // 4 clients, with the metrics layer on vs off. Recorded, not
    // asserted — single-machine noise swamps a sub-percent delta.
    let measure_metrics = |metrics: bool| -> f64 {
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics,
            ..ServerConfig::default()
        })
        .expect("spawn server");
        warm(server.addr(), "metrics-overhead");
        let (secs, _) = timed_run(server.addr(), 4, false, false);
        let rps = (4 * per_client) as f64 / secs;
        server.shutdown();
        rps
    };
    let rps_instrumented = measure_metrics(true);
    let rps_bare = measure_metrics(false);
    let overhead_pct = (rps_bare - rps_instrumented) / rps_bare * 100.0;
    println!(
        "metrics overhead (4 clients, encode): instrumented {rps_instrumented:.1} req/s, \
         no-metrics {rps_bare:.1} req/s ({overhead_pct:+.2}%)"
    );

    // The cost of span tracing: untraced requests against a
    // tracing-armed server pay one branch per span site; sampled
    // requests pay full span recording; a `tracing: false` server is
    // the floor. Recorded, not asserted, like the metrics row.
    let measure_tracing = |tracing: bool, sampled: bool| -> f64 {
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            tracing,
            ..ServerConfig::default()
        })
        .expect("spawn server");
        warm(server.addr(), "tracing-overhead");
        let (secs, _) = timed_run(server.addr(), 4, false, sampled);
        let rps = (4 * per_client) as f64 / secs;
        server.shutdown();
        rps
    };
    let rps_no_tracing = measure_tracing(false, false);
    let rps_untraced = measure_tracing(true, false);
    let rps_sampled = measure_tracing(true, true);
    let untraced_pct = (rps_no_tracing - rps_untraced) / rps_no_tracing * 100.0;
    let sampled_pct = (rps_no_tracing - rps_sampled) / rps_no_tracing * 100.0;
    println!(
        "tracing overhead (4 clients, encode): no-tracing {rps_no_tracing:.1} req/s, \
         untraced {rps_untraced:.1} req/s ({untraced_pct:+.2}%), \
         sampled {rps_sampled:.1} req/s ({sampled_pct:+.2}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"image\": \"{IMAGE_SIZE}x{IMAGE_SIZE}\",\n  \
         \"tiles_per_request\": {tiles},\n  \"requests_per_client\": {per_client},\n  \
         \"threads\": {},\n  \"metrics_overhead\": {{\"clients\": 4, \
         \"encode_rps_instrumented\": {rps_instrumented:.1}, \
         \"encode_rps_no_metrics\": {rps_bare:.1}, \
         \"overhead_pct\": {overhead_pct:.2}}},\n  \
         \"tracing_overhead\": {{\"clients\": 4, \
         \"encode_rps_no_tracing\": {rps_no_tracing:.1}, \
         \"encode_rps_untraced\": {rps_untraced:.1}, \
         \"encode_rps_sampled\": {rps_sampled:.1}, \
         \"untraced_overhead_pct\": {untraced_pct:.2}, \
         \"sampled_overhead_pct\": {sampled_pct:.2}}},\n  \"results\": [\n{entries}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let path = results_dir()
        .parent()
        .expect("results dir has a parent")
        .join("BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
