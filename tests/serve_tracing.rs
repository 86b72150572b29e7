//! Tracing suite: wire-propagated trace context, the TRACE RPC, slow
//! capture, the metric catalogue golden, and telemetry polls
//! (STATS/TRACE) never interfering with in-flight encodes. That
//! tracing never perturbs encoded bytes is pinned in
//! `tests/stage_vocabulary.rs`.

use qn_codec::{Codec, CodecOptions};
use qn_image::datasets;
use qn_serve::client::spectral_encode_request;
use qn_serve::{spawn, Client, ServerConfig, ServerHandle, TraceContext};
use qn_trace::parse_traces;
use std::time::Duration;

fn boot(config: ServerConfig) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("spawn server")
}

/// A spectral encode's stages, in order.
const ENCODE_STAGES: [&str; 9] = [
    "frame_read",
    "queue_wait",
    "parse",
    "spectral",
    "prepare",
    "mesh_pass",
    "quantize",
    "entropy",
    "reply_write",
];

/// The names of a trace's spans below the root, asserting that every
/// one is a direct child of the root.
fn stage_names(t: &qn_trace::Trace) -> Vec<&str> {
    t.spans[1..]
        .iter()
        .map(|s| {
            assert_eq!(s.parent, Some(0), "span {} is not a root child", s.name);
            s.name.as_str()
        })
        .collect()
}

#[test]
fn traced_encode_round_trip_returns_a_well_formed_span_tree() {
    let server = boot(ServerConfig::default());
    let img = datasets::grayscale_blobs(1, 32, 24, 42).remove(0);
    let opts = CodecOptions::default();
    let mut client = Client::connect(server.addr()).unwrap();
    let ctx = TraceContext {
        id: 0xABCD_EF01,
        sampled: true,
    };
    let bytes = client
        .encode_traced(&spectral_encode_request(&img, &opts, 8), ctx)
        .unwrap();
    assert!(!bytes.is_empty());

    // The trace is recorded before the reply reaches the client, so a
    // same-connection fetch right after always finds it.
    let json = client.trace(false, Some(ctx.id)).unwrap();
    let traces = parse_traces(&json).unwrap();
    assert_eq!(traces.len(), 1, "{json}");
    let t = &traces[0];
    assert_eq!(t.id, ctx.id);
    assert_eq!(t.name(), "encode");
    assert_eq!(stage_names(t), ENCODE_STAGES, "{json}");

    // Attribution: 32x24 / 4x4 = 48 tiles, run in the request's own
    // mesh pass, so no span carries a flush cause.
    assert_eq!(t.spans[0].attr("tiles"), Some("48"));
    assert_eq!(t.spans[0].attr("origin"), Some("client"));
    assert!(t.spans.iter().all(|s| s.attr("cause").is_none()), "{json}");
    assert_eq!(t.span("mesh_pass").unwrap().attr("backend"), None);
    assert_eq!(t.span("entropy").unwrap().attr("coder"), Some("rice"));

    // Structure: every span sits inside the root, and the stages sum
    // to within the root duration (they are sequential).
    for s in &t.spans {
        assert!(s.start_ns <= s.end_ns, "span {} runs backwards", s.name);
        assert!(
            s.end_ns <= t.duration_ns(),
            "span {} ends after the root",
            s.name
        );
    }
    let stage_sum: u64 = t
        .children(0)
        .into_iter()
        .map(|i| t.spans[i].duration_ns())
        .sum();
    assert!(
        stage_sum <= t.duration_ns(),
        "top-level stages ({stage_sum} ns) exceed the root ({} ns)",
        t.duration_ns()
    );
}

#[test]
fn slow_capture_self_traces_untraced_requests() {
    // A 1 ns threshold makes every request slow; clients send no trace
    // context at all, so every captured trace is server-originated.
    let server = boot(ServerConfig {
        slow_threshold: Duration::from_nanos(1),
        ..ServerConfig::default()
    });
    let img = datasets::grayscale_blobs(1, 24, 24, 3).remove(0);
    let opts = CodecOptions::default();
    let mut client = Client::connect(server.addr()).unwrap();
    let _ = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();

    let slow = parse_traces(&client.trace(true, None).unwrap()).unwrap();
    assert!(!slow.is_empty(), "the encode lands in the slow buffer");
    let t = slow.last().unwrap();
    assert_eq!(t.name(), "encode");
    assert_eq!(t.spans[0].attr("origin"), Some("slow"));
    assert_eq!(stage_names(t), ENCODE_STAGES);

    // The same trace sits in the recent ring, and the id filter finds
    // exactly it in both modes.
    let recent = parse_traces(&client.trace(false, None).unwrap()).unwrap();
    assert!(recent.iter().any(|r| r.id == t.id));
    let by_id = parse_traces(&client.trace(true, Some(t.id)).unwrap()).unwrap();
    assert_eq!(by_id.len(), 1);
    assert_eq!(by_id[0].id, t.id);
    let none = parse_traces(&client.trace(false, Some(0xdead_beef)).unwrap()).unwrap();
    assert!(none.is_empty(), "unknown ids filter to an empty set");
}

#[test]
fn every_server_answers_stats_and_trace_and_info_advertises_both() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    // Protocol-v1 clients feature-detect STATS and TRACE through INFO.
    let info = client.info(None).unwrap();
    assert!(
        info.contains("\"metrics\":true,\"tracing\":true,\"slow_ms\":0"),
        "{info}"
    );
    assert!(info.contains("\"uptime_secs\":"), "{info}");
    assert!(info.contains("\"server_version\":\""), "{info}");
    assert!(client.stats().unwrap().starts_with("{\"uptime_secs\":"));
    // An empty recent ring is a well-formed empty reply, not an error.
    assert!(parse_traces(&client.trace(false, None).unwrap())
        .unwrap()
        .is_empty());
}

#[test]
fn concurrent_stats_and_trace_polls_never_skew_inflight_or_deadlock() {
    let server = boot(ServerConfig {
        slow_threshold: Duration::from_nanos(1),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let img = datasets::grayscale_blobs(1, 24, 24, 11).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();

    let encoders: Vec<_> = (0..6u64)
        .map(|worker| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3u64 {
                    let ctx = TraceContext {
                        id: 0x1000 + worker * 10 + round,
                        sampled: true,
                    };
                    let bytes = client
                        .encode_traced(&spectral_encode_request(&img, &opts, 8), ctx)
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(bytes, offline, "worker {worker} round {round}");
                }
            })
        })
        .collect();
    // Pollers hammer STATS and TRACE while the encodes are in flight —
    // neither runs a mesh pass, so they must never stall behind (or
    // stall) an encode, and the in-flight gauge must stay consistent.
    let pollers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..20 {
                    let stats = client.stats().expect("stats poll");
                    assert!(stats.contains("\"serve_inflight_requests\":"));
                    let json = client.trace(false, None).expect("trace poll");
                    parse_traces(&json).expect("trace JSON parses");
                }
            })
        })
        .collect();
    for h in encoders {
        h.join().expect("encoder thread");
    }
    for h in pollers {
        h.join().expect("poller thread");
    }

    // Every request drained: the in-flight gauge is back to zero and
    // all 18 encodes were captured (recent ring holds 64).
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("\"serve_inflight_requests\":0"),
        "in-flight gauge skewed: {stats}"
    );
    let recent = parse_traces(&client.trace(false, None).unwrap()).unwrap();
    assert!(recent.len() >= 18, "all traced encodes captured");
}

/// Golden test: the metric catalogue — every series name, label set
/// and histogram summary of a deterministic metrics state, as the
/// registry's JSON, byte for byte. Regenerate with `QN_BLESS=1 cargo
/// test --test serve_tracing metric_catalogue` after intentional
/// catalogue changes.
#[test]
fn metric_catalogue_json_matches_golden_bytes() {
    use qn_codec::EntropyCoder;
    use qn_serve::{Opcode, ServeMetrics};

    let m = ServeMetrics::new();
    for op in qn_serve::metrics::REQUEST_OPS {
        m.record_request(Some(op));
    }
    m.record_frame_in(100);
    m.record_frame_out(200);
    m.connection_opened();
    m.record_coded_bytes(EntropyCoder::Rice, 1234);
    for (stage, ns) in [
        ("prepare", 1_000),
        ("mesh_pass", 2_000),
        ("quantize", 3_000),
        ("entropy", 4_000),
    ] {
        m.record_stage(Opcode::Encode, stage, ns);
    }
    m.record_latency(Some(Opcode::Encode), 50_000);
    // Six decode latencies over five buckets, two sharing one, so the
    // pinned percentiles depend on bucket placement and interpolation.
    for ns in [700, 3_000, 40_000, 50_000, 90_000, 2_000_000] {
        m.record_latency(Some(Opcode::Decode), ns);
    }
    m.set_gate_table_stats(7, 2, 1);
    // registry().to_json() skips the live gate-table re-sync and the
    // uptime prefix of stats_json(), keeping the bytes pinnable.
    let actual = m.registry().to_json();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metric_catalogue.json"
    );
    if std::env::var_os("QN_BLESS").is_some() {
        std::fs::write(path, &actual).expect("bless golden");
    }
    let expected = std::fs::read_to_string(path).expect("golden file (bless with QN_BLESS=1)");
    assert_eq!(
        actual, expected,
        "the metric catalogue drifted from the golden bytes; \
         bless with QN_BLESS=1 if the change is intentional"
    );
}
