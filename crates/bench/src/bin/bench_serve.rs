//! Serving-throughput recorder: drives real TCP clients against
//! in-process `qn-serve` instances and measures requests/s, tiles/s
//! and client-observed p50/p99 request latency at 1/4/16 concurrent
//! clients (each request runs its own mesh pass). A final row
//! measures the cost of sampled span tracing: one default server
//! alternates untraced and fully sampled 4-client encode windows, and
//! the row records both medians and interquartile ranges and how many
//! pairs the sampled window lost. Metrics are always on,
//! so their cost sits inside every row.
//! Results land in `BENCH_serve.json` at the workspace root.
//!
//! Every configuration first asserts that the remote container is
//! byte-identical to the offline encode — speed only counts after
//! correctness.
//!
//! Usage: `cargo run --release -p qn-bench --bin bench_serve
//! [requests-per-client]` (default 24; image 64×64 → 256 tiles per
//! request).

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

/// The first quartile, median and third quartile of `v` (linear
/// interpolation between order statistics).
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (v.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
    })
}

const IMAGE_SIZE: usize = 64;
/// Untraced/sampled window pairs in the sampled-tracing row.
const TRACING_PAIRS: usize = 20;

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

    println!(
        "serve throughput, {IMAGE_SIZE}x{IMAGE_SIZE} image, {tiles} tiles/request, \
         {per_client} requests/client"
    );
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>10} {:>12} {:>14}",
        "clients", "enc req/s", "enc tiles/s", "p50 ms", "p99 ms", "dec req/s", "dec tiles/s"
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
    let warm = |addr: std::net::SocketAddr| {
        let mut warm = Client::connect(addr).expect("connect");
        let id = warm.load_model(&model_bytes).expect("load model");
        assert_eq!(id, codec.model_id());
        let remote = warm
            .encode(&model_encode_request(&img, &opts, id))
            .expect("warm encode");
        assert_eq!(remote, offline, "remote bytes diverged");
    };

    let mut entries = String::new();
    for clients in [1usize, 4, 16] {
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .expect("spawn server");
        let addr = server.addr();

        // Pre-warm the zoo and pin correctness before timing.
        warm(addr);

        let requests = (clients * per_client) as f64;
        let (enc_s, enc_hist) = timed_run(addr, clients, false, false);
        let (dec_s, _) = timed_run(addr, clients, true, false);
        let (enc_rps, dec_rps) = (requests / enc_s, requests / dec_s);
        let (enc_tps, dec_tps) = (enc_rps * tiles as f64, dec_rps * tiles as f64);
        let (p50_ms, p99_ms) = percentiles_ms(&enc_hist);
        println!(
            "{clients:>8} {enc_rps:>12.1} {enc_tps:>14.0} {p50_ms:>10.2} {p99_ms:>10.2} \
             {dec_rps:>12.1} {dec_tps:>14.0}"
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"clients\": {clients}, \
             \"encode_requests_per_sec\": {enc_rps:.1}, \
             \"encode_tiles_per_sec\": {enc_tps:.0}, \
             \"encode_latency_p50_ms\": {p50_ms:.3}, \
             \"encode_latency_p99_ms\": {p99_ms:.3}, \
             \"decode_requests_per_sec\": {dec_rps:.1}, \
             \"decode_tiles_per_sec\": {dec_tps:.0}}}",
        )
        .expect("write entry");
        server.shutdown();
    }

    // The cost of sampled span tracing, on one default server:
    // alternate untraced and fully sampled 4-client encode windows,
    // swapping the order every pair so drift favours neither. Recorded,
    // not asserted — the spread says whether the gap is real.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    warm(server.addr());
    let window_rps = |sampled: bool| {
        let (secs, _) = timed_run(server.addr(), 4, false, sampled);
        (4 * per_client) as f64 / secs
    };
    let (mut untraced, mut sampled) = (Vec::new(), Vec::new());
    for pair in 0..TRACING_PAIRS {
        if pair % 2 == 0 {
            untraced.push(window_rps(false));
            sampled.push(window_rps(true));
        } else {
            sampled.push(window_rps(true));
            untraced.push(window_rps(false));
        }
    }
    server.shutdown();
    let slower = untraced.iter().zip(&sampled).filter(|(u, s)| s < u).count();
    let [u_q1, u_med, u_q3] = quartiles(&untraced);
    let [s_q1, s_med, s_q3] = quartiles(&sampled);
    println!(
        "sampled tracing (4 clients, encode, {TRACING_PAIRS} pairs): untraced median \
         {u_med:.1} req/s (IQR {u_q1:.1}-{u_q3:.1}), sampled median {s_med:.1} req/s \
         (IQR {s_q1:.1}-{s_q3:.1}), sampled slower in {slower}/{TRACING_PAIRS} pairs"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"image\": \"{IMAGE_SIZE}x{IMAGE_SIZE}\",\n  \
         \"tiles_per_request\": {tiles},\n  \"requests_per_client\": {per_client},\n  \
         \"host_parallelism\": {},\n  \"sampled_tracing\": {{\"clients\": 4, \
         \"pairs\": {TRACING_PAIRS}, \
         \"encode_rps_untraced_median\": {u_med:.1}, \
         \"encode_rps_untraced_iqr\": [{u_q1:.1}, {u_q3:.1}], \
         \"encode_rps_sampled_median\": {s_med:.1}, \
         \"encode_rps_sampled_iqr\": [{s_q1:.1}, {s_q3:.1}], \
         \"sampled_slower_pairs\": {slower}}},\n  \"results\": [\n{entries}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let path = results_dir()
        .parent()
        .expect("results dir has a parent")
        .join("BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
