//! One stage vocabulary, served end to end: every stage a traced
//! request shows as a child of its root span is also a
//! `serve_stage_ns{op,stage}` series in STATS, the histograms count
//! untraced requests exactly like traced ones, a stage that fails
//! (a codec stage included) is recorded and ends where it failed,
//! before the reply is written, and tracing never changes a reply byte.

use qn::codec::model::encode_model;
use qn::codec::{Codec, CodecOptions, Container};
use qn::image::{datasets, GrayImage};
use qn::serve::client::{model_encode_request, spectral_encode_request};
use qn::serve::{spawn, Client, Opcode, ServeError, ServerConfig, ServerHandle, TraceContext};
use qn::trace::{parse_traces, Trace};

fn boot() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

fn image(seed: u64) -> GrayImage {
    datasets::grayscale_blobs(1, 24, 16, seed).remove(0)
}

fn sampled(id: u64) -> TraceContext {
    TraceContext { id, sampled: true }
}

/// The trace recorded under `id` (requested on `client`'s connection
/// after the request's reply, so it is always captured).
fn fetch_trace(client: &mut Client, id: u64) -> Trace {
    let json = client.trace(false, Some(id)).expect("TRACE");
    let mut traces = parse_traces(&json).expect("trace JSON");
    assert_eq!(traces.len(), 1, "{json}");
    traces.remove(0)
}

/// The root's children, in recording order.
fn root_children(t: &Trace) -> Vec<&qn::trace::Span> {
    t.children(0).into_iter().map(|i| &t.spans[i]).collect()
}

/// The observation count of the `key` histogram in a STATS document,
/// `None` when the series does not exist.
fn hist_count(stats: &str, key: &str) -> Option<u64> {
    let at = stats.find(&format!("\"{key}\":{{\"count\":"))?;
    let rest = &stats[at + key.len() + 12..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn stage_key(op: &str, stage: &str) -> String {
    format!("serve_stage_ns{{op={op},stage={stage}}}")
}

#[test]
fn every_root_child_stage_has_a_stats_series() {
    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = CodecOptions::default();
    let img = image(3);

    // A spectral ENCODE, an ENCODE by model id and a DECODE, all traced.
    let spectral = client
        .encode_traced(&spectral_encode_request(&img, &opts, 8), sampled(0x51))
        .unwrap();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let id = client
        .load_model(&qn::codec::model::encode_model(codec.model()))
        .unwrap();
    client
        .encode_traced(&model_encode_request(&img, &opts, id), sampled(0x52))
        .unwrap();
    client.decode_traced(&spectral, sampled(0x53)).unwrap();

    let stats = client.stats().unwrap();
    for (trace_id, op, first_codec_stage) in [
        (0x51, "encode", "prepare"),
        (0x52, "encode", "prepare"),
        (0x53, "decode", "prepare"),
    ] {
        let t = fetch_trace(&mut client, trace_id);
        let names: Vec<&str> = root_children(&t).iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names[..3],
            ["frame_read", "queue_wait", "parse"],
            "{names:?}"
        );
        assert_eq!(names[3], first_codec_stage, "{names:?}");
        assert_eq!(names.last(), Some(&"reply_write"), "{names:?}");
        for name in names {
            let key = stage_key(op, name);
            assert!(
                hist_count(&stats, &key).is_some_and(|n| n >= 1),
                "{key} has no samples: {stats}"
            );
        }
    }
}

#[test]
fn histograms_count_untraced_and_traced_requests_alike() {
    const UNTRACED: u64 = 3;
    const TRACED: u64 = 2;
    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = CodecOptions::default();
    let request = spectral_encode_request(&image(5), &opts, 8);

    let mut container = Vec::new();
    for i in 0..UNTRACED + TRACED {
        let traced = (i >= UNTRACED).then(|| sampled(0x100 + i));
        container = match traced {
            Some(ctx) => client.encode_traced(&request, ctx),
            None => client.encode(&request),
        }
        .unwrap();
        match traced {
            Some(ctx) => client.decode_traced(&container, sampled(ctx.id + 0x100)),
            None => client.decode(&container),
        }
        .unwrap();
    }
    assert!(!container.is_empty());

    // Every sample is recorded before its reply is parked, so the
    // counts are exact as soon as the last reply is read.
    let stats = client.stats().unwrap();
    let last = UNTRACED + TRACED - 1;
    for (op, trace_id) in [("encode", 0x100 + last), ("decode", 0x200 + last)] {
        let t = fetch_trace(&mut client, trace_id);
        for s in root_children(&t) {
            let key = stage_key(op, &s.name);
            assert_eq!(
                hist_count(&stats, &key),
                Some(UNTRACED + TRACED),
                "{key}: {stats}"
            );
        }
    }
}

#[test]
fn a_failing_stage_ends_before_the_reply_is_written() {
    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();
    let opts = CodecOptions::default();
    let img = image(9);
    // A 16-mode zoo model, and three requests the codec refuses in its
    // `prepare` stage: a NaN pixel, a 3×3 tile for the 16-mode model,
    // and a CRC-valid container whose inline model compresses to 4
    // latents while its tiles carry 8.
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let model_id = client.load_model(&encode_model(codec.model())).unwrap();
    let mut nan = img.clone();
    nan.set(5, 5, f64::NAN);
    let tile_3 = CodecOptions {
        tile_size: 3,
        ..opts.clone()
    };
    let narrow = Codec::spectral_for_image(&img, opts.tile_size, 4).unwrap();
    let mut container = Container::from_bytes(&codec.encode_image(&img, &opts).unwrap()).unwrap();
    container.inline_model = Some(encode_model(narrow.model()));
    container.header.model_id = narrow.model_id();
    let cases = [
        (Opcode::Encode, 0xe1, vec![1, 2, 3], "parse"),
        (Opcode::Decode, 0xd1, vec![1, 2, 3], "parse"),
        (
            Opcode::Encode,
            0xe2,
            spectral_encode_request(&nan, &opts, 8).to_payload(),
            "prepare",
        ),
        (
            Opcode::Encode,
            0xe3,
            model_encode_request(&img, &tile_3, model_id).to_payload(),
            "prepare",
        ),
        (
            Opcode::Decode,
            0xd2,
            container.to_bytes().unwrap(),
            "prepare",
        ),
    ];
    for (op, id, payload, failing) in cases {
        let err = client
            .roundtrip_traced(op, sampled(id), payload)
            .expect_err("the request must fail");
        assert!(matches!(err, ServeError::Remote { .. }), "{err}");

        let t = fetch_trace(&mut client, id);
        let children = root_children(&t);
        let span = |name: &str| {
            children
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{op:?} {id:#x}: no {name} span in {children:?}"))
        };
        assert!(
            span(failing).end_ns <= span("reply_write").start_ns,
            "{op:?} {id:#x}: {failing} must end before the reply is written: {children:?}"
        );
        let mut by_start = children.clone();
        by_start.sort_by_key(|s| s.start_ns);
        for pair in by_start.windows(2) {
            assert!(
                pair[0].end_ns <= pair[1].start_ns,
                "{op:?} {id:#x}: {} overlaps {}: {children:?}",
                pair[0].name,
                pair[1].name
            );
        }
    }
    // Each request that failed inside the codec counts in `prepare`.
    let stats = client.stats().unwrap();
    for (op, requests) in [("encode", 2), ("decode", 1)] {
        let key = stage_key(op, "prepare");
        assert_eq!(hist_count(&stats, &key), Some(requests), "{key}: {stats}");
    }
}

#[test]
fn tracing_never_perturbs_encoded_bytes() {
    let img = datasets::grayscale_blobs(1, 32, 32, 7).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let req = spectral_encode_request(&img, &opts, 8);
    let ctx = sampled(0x1dea);

    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();
    let untraced = client.encode(&req).unwrap();
    let traced = client.encode_traced(&req, ctx).unwrap();
    assert_eq!(untraced, offline, "untraced remote matches offline");
    assert_eq!(traced, offline, "tracing must not change a single byte");

    // Traced decodes return the same pixels as untraced ones.
    let plain = client.decode(&offline).unwrap();
    let traced = client.decode_traced(&offline, ctx).unwrap();
    assert_eq!(plain, traced);
}
