//! Open-loop load recorder for the event-driven serving core: ≥1000
//! concurrent connections each firing Poisson arrivals at the server,
//! swept across offered rates until saturation. Latency is measured
//! from the *scheduled* arrival time, not the send time, so queueing
//! behind a slow reply is charged to the server (no coordinated
//! omission). Typed `BUSY` sheds are counted separately from
//! successes and from hard errors — under overload the server must
//! degrade by shedding, not by dropping connections.
//! Results land in `BENCH_load.json` at the workspace root.
//!
//! Usage: `cargo run --release -p qn-bench --bin bench_load [--smoke]`
//! `--smoke` shrinks the sweep to a few hundred connections and a
//! couple of seconds per rate for CI.

use qn_bench::results_dir;
use qn_codec::model::encode_model;
use qn_codec::{Codec, CodecOptions};
use qn_image::datasets;
use qn_serve::client::model_encode_request;
use qn_serve::protocol::{ErrorCode, Frame, Opcode};
use qn_serve::{spawn, Client, ServerConfig};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const IMAGE_SIZE: usize = 32;
const MAX_INFLIGHT: usize = 256;

/// Small deterministic PRNG (xorshift64*) so every connection gets an
/// independent, reproducible Poisson stream without external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in (0, 1].
    fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a per-connection rate.
    fn exp_gap(&mut self, per_sec: f64) -> Duration {
        Duration::from_secs_f64(-self.uniform().ln() / per_sec)
    }
}

struct ConnTally {
    ok: u64,
    busy: u64,
    errors: u64,
    latencies_ns: Vec<u64>,
}

/// One virtual client: connect, then fire the connection's Poisson
/// schedule until the horizon, measuring reply latency from each
/// request's scheduled arrival.
fn drive_conn(
    addr: std::net::SocketAddr,
    payload: &[u8],
    seed: u64,
    per_conn_rps: f64,
    start_gate: &Barrier,
    duration: Duration,
    connected: &AtomicU64,
) -> ConnTally {
    let mut stream = TcpStream::connect(addr).expect("connect load client");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    let _ = stream.set_nodelay(true);
    connected.fetch_add(1, Ordering::Relaxed);
    start_gate.wait();

    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let mut scheduled = rng.exp_gap(per_conn_rps);
    let mut tally = ConnTally {
        ok: 0,
        busy: 0,
        errors: 0,
        latencies_ns: Vec::new(),
    };
    let mut request_id: u32 = 1;
    while scheduled < duration {
        let due = start + scheduled;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let frame = Frame::request(Opcode::Encode, request_id, payload.to_vec());
        request_id = request_id.wrapping_add(1).max(1);
        if frame.write_to(&mut stream).is_err() {
            tally.errors += 1;
            break;
        }
        match Frame::read_from(&mut stream) {
            Ok(reply) if reply.status == 0 => {
                tally.ok += 1;
                tally
                    .latencies_ns
                    .push(due.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            Ok(reply) if reply.status == ErrorCode::Busy as u16 => tally.busy += 1,
            Ok(_) => tally.errors += 1,
            Err(_) => {
                tally.errors += 1;
                break;
            }
        }
        scheduled += rng.exp_gap(per_conn_rps);
    }
    tally
}

fn percentile_ms(sorted_ns: &[u64], per_mille: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() * per_mille / 1000).min(sorted_ns.len() - 1);
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (conns, rates, duration) = if smoke {
        (200usize, vec![500.0f64, 2_000.0], Duration::from_secs(2))
    } else {
        (
            1_000usize,
            vec![1_000.0f64, 2_000.0, 4_000.0, 8_000.0],
            Duration::from_secs(8),
        )
    };

    let img = datasets::grayscale_blobs(1, IMAGE_SIZE, IMAGE_SIZE, 7).remove(0);
    let opts = CodecOptions {
        tile_size: 16,
        inline_model: false,
        ..CodecOptions::default()
    };
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).expect("spectral model");

    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: MAX_INFLIGHT,
        ..ServerConfig::default()
    })
    .expect("spawn load server");
    let addr = server.addr();

    // Pre-load the model so each measured request is a pure encode —
    // the serving core is under test, not model fitting.
    let mut warm = Client::connect(addr).expect("warm connect");
    let id = warm
        .load_model(&encode_model(codec.model()))
        .expect("load model");
    assert_eq!(id, codec.model_id());
    let payload = model_encode_request(&img, &opts, id).to_payload();
    let offline = codec.encode_image(&img, &opts).expect("offline encode");
    assert_eq!(
        warm.encode(&model_encode_request(&img, &opts, id))
            .expect("warm encode"),
        offline,
        "remote bytes diverged before load"
    );
    drop(warm);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(8);

    println!(
        "serve load, {IMAGE_SIZE}x{IMAGE_SIZE} spectral encode, {conns} connections, \
         max_inflight {MAX_INFLIGHT}, {}s per rate",
        duration.as_secs()
    );
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "offered", "achieved", "ok", "busy", "errors", "p50 ms", "p99 ms", "p999 ms"
    );

    let mut entries = String::new();
    let mut saturation_rps = 0.0f64;
    for &offered in &rates {
        let per_conn_rps = offered / conns as f64;
        let gate = Barrier::new(conns + 1);
        let connected = AtomicU64::new(0);
        let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|i| {
                    let (gate, connected, payload) = (&gate, &connected, &payload[..]);
                    std::thread::Builder::new()
                        .stack_size(128 * 1024)
                        .spawn_scoped(scope, move || {
                            drive_conn(
                                addr,
                                payload,
                                (offered as u64) << 16 | i as u64,
                                per_conn_rps,
                                gate,
                                duration,
                                connected,
                            )
                        })
                        .expect("spawn load thread")
                })
                .collect();
            gate.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect()
        });
        assert_eq!(
            connected.load(Ordering::Relaxed),
            conns as u64,
            "not every client connected"
        );

        let (mut ok, mut busy, mut errors) = (0u64, 0u64, 0u64);
        let mut latencies: Vec<u64> = Vec::new();
        for t in &tallies {
            ok += t.ok;
            busy += t.busy;
            errors += t.errors;
            latencies.extend_from_slice(&t.latencies_ns);
        }
        latencies.sort_unstable();
        let achieved = ok as f64 / duration.as_secs_f64();
        saturation_rps = saturation_rps.max(achieved);
        let p50 = percentile_ms(&latencies, 500);
        let p99 = percentile_ms(&latencies, 990);
        let p999 = percentile_ms(&latencies, 999);
        println!(
            "{:>12.0} {:>12.1} {:>10} {:>10} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            offered, achieved, ok, busy, errors, p50, p99, p999
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        write!(
            entries,
            "    {{\"offered_rps\": {offered:.0}, \"achieved_rps\": {achieved:.1}, \
             \"ok\": {ok}, \"busy\": {busy}, \"errors\": {errors}, \
             \"latency_p50_ms\": {p50:.3}, \"latency_p99_ms\": {p99:.3}, \
             \"latency_p999_ms\": {p999:.3}}}"
        )
        .expect("write entry");
    }
    server.shutdown();

    let json = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"image\": \"{IMAGE_SIZE}x{IMAGE_SIZE}\",\n  \
         \"connections\": {conns},\n  \"max_inflight\": {MAX_INFLIGHT},\n  \
         \"workers\": {workers},\n  \"duration_secs_per_rate\": {},\n  \
         \"smoke\": {smoke},\n  \"saturation_rps\": {saturation_rps:.1},\n  \
         \"results\": [\n{entries}\n  ]\n}}\n",
        duration.as_secs(),
    );
    let path = results_dir()
        .parent()
        .expect("results dir has a parent")
        .join("BENCH_load.json");
    std::fs::write(&path, &json).expect("write BENCH_load.json");
    println!(
        "saturation {saturation_rps:.1} req/s; wrote {}",
        path.display()
    );
}
