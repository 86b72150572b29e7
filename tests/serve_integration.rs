//! Integration suite: a real server on an ephemeral port, real TCP
//! clients, and the acceptance property — **remote responses are
//! byte-identical to offline `qnc` runs** with the same model and
//! options, including under 16-way concurrent load.

use qn_codec::model::encode_model;
use qn_codec::{info, Codec, CodecOptions};
use qn_image::{datasets, GrayImage};
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::protocol::{image_to_payload, Frame, Opcode};
use qn_serve::{spawn, Client, ServerConfig, ServerHandle};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

/// A server on an ephemeral port with the default configuration.
fn boot(store_dir: Option<std::path::PathBuf>) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("qn_serve_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn remote_spectral_encode_is_byte_identical_to_offline() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 32, 24, 42).remove(0);
    let opts = CodecOptions::default();

    // Offline reference: qnc compress without --model.
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();
    assert_eq!(remote, offline, "remote encode must be byte-identical");

    let decoded = client.decode(&remote).unwrap();
    assert_eq!(
        decoded, offline_img,
        "remote decode must be pixel-identical"
    );
}

#[test]
fn zoo_models_encode_and_decode_without_inline_models() {
    let dir = temp_dir("zoo");
    let server = boot(Some(dir.clone()));
    let img = datasets::grayscale_blobs(1, 32, 32, 7).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let model_bytes = encode_model(codec.model());
    let opts = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let offline = codec.encode_image(&img, &opts).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let id = client.load_model(&model_bytes).unwrap();
    assert_eq!(id, codec.model_id(), "LOAD_MODEL returns the content id");
    assert!(
        dir.join(format!("{id:016x}.qnm")).exists(),
        "zoo persists the model under its id"
    );

    let remote = client
        .encode(&model_encode_request(&img, &opts, id))
        .unwrap();
    assert_eq!(remote, offline);

    // The container has no inline model: the server resolves the model
    // id against the zoo.
    let decoded = client.decode(&remote).unwrap();
    assert_eq!(decoded, codec.decode_bytes(&offline).unwrap());

    // A second server over the same zoo dir decodes cold from disk.
    drop(client);
    server.shutdown();
    let reborn = boot(Some(dir));
    let mut client = Client::connect(reborn.addr()).unwrap();
    let decoded = client.decode(&remote).unwrap();
    assert_eq!(decoded, codec.decode_bytes(&offline).unwrap());
}

#[test]
fn sixteen_concurrent_clients_round_trip_byte_identically() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 24, 24, 99).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    // The paper's own request shape too: 4x4 and 8x8 images (one and
    // four tiles) under one shared model, by id.
    let small: Vec<GrayImage> = [4, 8]
        .map(|n| datasets::grayscale_blobs(1, n, n, 70 + n as u64).remove(0))
        .to_vec();
    let shared = Codec::spectral_for_images(&small, opts.tile_size, 8).unwrap();
    let lean = CodecOptions {
        inline_model: false,
        ..opts.clone()
    };
    let small_offline: Vec<(Vec<u8>, GrayImage)> = small
        .iter()
        .map(|img| {
            let bytes = shared.encode_image(img, &lean).unwrap();
            let decoded = shared.decode_bytes(&bytes).unwrap();
            (bytes, decoded)
        })
        .collect();
    let addr = server.addr();
    let id = Client::connect(addr)
        .unwrap()
        .load_model(&encode_model(shared.model()))
        .unwrap();

    let workers: Vec<_> = (0..16)
        .map(|worker| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            let offline_img = offline_img.clone();
            let small = small.clone();
            let lean = lean.clone();
            let small_offline = small_offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    let bytes = client
                        .encode(&spectral_encode_request(&img, &opts, 8))
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(
                        bytes, offline,
                        "worker {worker} round {round}: encode bytes"
                    );
                    let decoded = client
                        .decode(&bytes)
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(
                        decoded, offline_img,
                        "worker {worker} round {round}: decode"
                    );
                    for (img, (want, want_img)) in small.iter().zip(&small_offline) {
                        let n = img.width();
                        let bytes = client
                            .encode(&model_encode_request(img, &lean, id))
                            .unwrap_or_else(|e| panic!("worker {worker} {n}x{n}: {e}"));
                        assert_eq!(&bytes, want, "worker {worker} round {round}: {n}x{n}");
                        let decoded = client.decode(&bytes).unwrap();
                        assert_eq!(&decoded, want_img, "worker {worker} {n}x{n} decode");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    assert!(server.requests_served() >= 16 * 3 * 2);
}

#[test]
fn solo_requests_answer_well_under_a_second() {
    // A solo request runs its own mesh pass inline on its worker: there
    // is nothing to wait for. Its own work takes milliseconds, so only
    // waiting on something else could take it past a second.
    let bound = Duration::from_secs(1);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .unwrap();
    let img = datasets::grayscale_blobs(1, 24, 24, 31).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    for round in 0..3 {
        let t0 = std::time::Instant::now();
        let bytes = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        let decoded = client.decode(&bytes).unwrap();
        let elapsed = t0.elapsed();
        // Bytes stay identical to the offline run.
        assert_eq!(bytes, offline, "round {round}");
        assert_eq!(decoded, offline_img, "round {round}");
        assert!(
            elapsed < bound,
            "round {round}: solo encode+decode took {elapsed:?}, \
             bound is {bound:?} — the request waited on something else"
        );
    }
}

#[test]
fn overlapping_closed_loop_clients_never_wait_on_each_other() {
    // Two clients in a closed loop (each sends its next request as
    // soon as its reply lands), both encoding the same image, so their
    // spectral models coincide. Each request runs its own mesh pass on
    // its own worker, so neither waits on the other's, and eight
    // requests of a few milliseconds each stay far under two seconds.
    let bound = Duration::from_secs(2);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .unwrap();
    let img = datasets::grayscale_blobs(1, 24, 24, 61).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();

    let addr = server.addr();
    let rounds = 4;
    let t0 = std::time::Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|worker| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..rounds {
                    let bytes = client
                        .encode(&spectral_encode_request(&img, &opts, 8))
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(bytes, offline, "worker {worker} round {round}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < bound,
        "2 clients × {rounds} rounds took {elapsed:?} against a {bound:?} \
         bound — some request waited on another request's work"
    );
}

#[test]
fn decode_reply_bytes_are_the_frame_of_the_image_payload() {
    // The server writes a DECODE reply straight from the decoded image
    // into one frame buffer; on the wire it is exactly the reply frame
    // around `image_to_payload`, here for a ragged 203x141 image.
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 203, 141, 5).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let container = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let want = Frame::reply(
        Opcode::Decode,
        41,
        image_to_payload(&codec.decode_bytes(&container).unwrap()),
    )
    .to_bytes();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::request(Opcode::Decode, 41, container)
        .write_to(&mut stream)
        .unwrap();
    let mut got = vec![0u8; want.len()];
    stream.read_exact(&mut got).unwrap();
    assert!(
        got == want,
        "the served DECODE reply differs from its frame"
    );
}

#[test]
fn encode_options_travel_the_wire() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 24, 16, 5).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    for (per_tile_scale, inline_model, bits) in
        [(true, true, 8u8), (true, false, 5), (false, false, 12)]
    {
        let opts = CodecOptions {
            bits,
            per_tile_scale,
            inline_model,
            ..CodecOptions::default()
        };
        let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let remote = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        assert_eq!(
            remote, offline,
            "options (scale={per_tile_scale}, inline={inline_model}, bits={bits})"
        );
    }
}

#[test]
fn every_entropy_coder_round_trips_byte_identically_over_the_wire() {
    // The bitstream-v2 acceptance property: remote encode and decode
    // are byte-identical to offline for all three entropy coders —
    // the coder choice travels the wire, the served container carries
    // the right format version, and the server decodes every format
    // it encodes.
    use qn_codec::EntropyCoder;
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 32, 24, 17).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    for entropy in EntropyCoder::ALL {
        let opts = CodecOptions {
            entropy,
            ..CodecOptions::default()
        };
        let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let offline_img = codec.decode_bytes(&offline).unwrap();

        let remote = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        assert_eq!(remote, offline, "{entropy}: remote encode bytes");
        let header = qn_codec::Container::from_bytes(&remote).unwrap().header;
        assert_eq!(header.entropy().unwrap(), entropy, "{entropy}: wire format");
        let decoded = client.decode(&remote).unwrap();
        assert_eq!(decoded, offline_img, "{entropy}: remote decode pixels");
    }
}

#[test]
fn stalled_mid_frame_peer_is_reaped_and_releases_its_inflight_unit() {
    // A peer that sends an ENCODE frame header and then stalls (or
    // drips bytes) must be reaped by the read timeout, releasing its
    // in-flight gauge unit, and must never slow anyone else down:
    // another client's requests still run at once, well under a
    // second.
    use std::io::{Read as _, Write as _};
    let bound = Duration::from_secs(1);
    let timeout = Duration::from_millis(250);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: timeout,
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics = std::sync::Arc::clone(server.metrics());

    // The stalling peer: a full 16-byte ENCODE header promising a
    // 4096-byte payload that never comes.
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(b"QNF1");
    header.push(1); // protocol version
    header.push(0x01); // ENCODE
    header.extend_from_slice(&0u16.to_le_bytes()); // status
    header.extend_from_slice(&7u32.to_le_bytes()); // request id
    header.extend_from_slice(&4096u32.to_le_bytes()); // payload length
    stalled.write_all(&header).unwrap();
    stalled.flush().unwrap();

    // Give the timeout room to fire and the connection to be reaped.
    std::thread::sleep(timeout * 3);

    // The stalled socket is closed by the server (EOF / reset)...
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = [0u8; 64];
    match stalled.read(&mut probe) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled connection got {n} unexpected reply bytes"),
    }

    // ... counted as a reap, with its in-flight gauge unit released
    // (the socket may close a moment before the unit drops) ...
    assert!(
        metrics
            .stats_json()
            .contains("\"serve_read_deadline_reaps_total\":1"),
        "{}",
        metrics.stats_json()
    );
    let give_up = std::time::Instant::now() + Duration::from_secs(5);
    while !metrics
        .stats_json()
        .contains("\"serve_inflight_requests\":0")
    {
        assert!(
            std::time::Instant::now() < give_up,
            "reaped peer still counted in flight: {}",
            metrics.stats_json()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // ... and a fresh client's requests run at once.
    let img = datasets::grayscale_blobs(1, 24, 24, 43).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for round in 0..2 {
        let t0 = std::time::Instant::now();
        let bytes = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(bytes, offline, "round {round}");
        assert!(
            elapsed < bound,
            "round {round}: encode took {elapsed:?} with a stalled peer reaped"
        );
    }

    // A *drip-feeding* peer (one payload byte per interval, each well
    // under any per-recv timeout) must be reaped too: the deadline
    // covers the whole frame, not each read.
    let mut dripper = std::net::TcpStream::connect(server.addr()).unwrap();
    dripper.write_all(&header).unwrap();
    let drip_deadline = std::time::Instant::now() + timeout * 8;
    let mut reaped = false;
    while std::time::Instant::now() < drip_deadline {
        if dripper
            .write_all(&[0u8])
            .and_then(|()| dripper.flush())
            .is_err()
        {
            reaped = true; // connection closed mid-drip
            break;
        }
        std::thread::sleep(timeout / 5);
    }
    if !reaped {
        // Writes may buffer past the close; the read side settles it.
        dripper
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut probe = [0u8; 16];
        reaped = matches!(dripper.read(&mut probe), Ok(0) | Err(_));
    }
    assert!(reaped, "drip-feeding peer survived the frame deadline");
    // And the server still answers within the bound.
    let t0 = std::time::Instant::now();
    let bytes = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();
    assert_eq!(bytes, offline);
    assert!(
        t0.elapsed() < bound,
        "dripper reaped but the next encode took {:?}",
        t0.elapsed()
    );
}

#[test]
fn list_models_enumerates_the_zoo_with_sizes_and_residency() {
    let dir = temp_dir("list_models");
    let server = boot(Some(dir));
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.list_models().unwrap(), vec![], "fresh zoo is empty");

    let mut expected = Vec::new();
    for seed in [21u64, 22] {
        let img = datasets::grayscale_blobs(1, 16, 16, seed).remove(0);
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let bytes = encode_model(codec.model());
        let id = client.load_model(&bytes).unwrap();
        expected.push((id, bytes.len() as u64));
    }
    expected.sort_unstable();

    let listed = client.list_models().unwrap();
    assert_eq!(
        listed
            .iter()
            .map(|e| (e.id, e.size_bytes))
            .collect::<Vec<_>>(),
        expected,
        "ids and serialized sizes, sorted by id"
    );
    assert!(
        listed.iter().all(|e| e.cached),
        "freshly loaded models are cache-resident"
    );

    // A malformed LIST_MODELS request (non-empty payload) fails typed
    // and keeps the connection usable.
    use qn_serve::protocol::{ErrorCode, Frame, Opcode};
    let bad = Frame::request(Opcode::ListModels, 77, vec![1, 2, 3]);
    bad.write_to(client.stream_mut()).unwrap();
    let reply = Frame::read_from(client.stream_mut()).unwrap();
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);
    assert_eq!(client.list_models().unwrap().len(), 2, "connection lives");
}

#[test]
fn info_replies_share_the_cli_json() {
    // The store dir is the one operator-supplied string in the server
    // INFO reply: a tab, a newline, quotes and a backslash in it must
    // come back escaped, not as raw bytes that break the JSON.
    let dir = temp_dir("info\tstore\n\"quoted\"\\dir");
    let server = boot(Some(dir.clone()));
    let img = datasets::grayscale_blobs(1, 16, 16, 3).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let container = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let model_bytes = encode_model(codec.model());

    let mut client = Client::connect(server.addr()).unwrap();
    // File info: byte-for-byte the `qnc info --json` output.
    assert_eq!(
        client.info(Some(&container)).unwrap(),
        info::file_info_json(&container).unwrap()
    );
    assert_eq!(
        client.info(Some(&model_bytes)).unwrap(),
        info::file_info_json(&model_bytes).unwrap()
    );
    // Server info: names the serving parameters.
    let status = client.info(None).unwrap();
    assert!(status.contains("\"format\":\"qn-serve\""), "{status}");
    // The server offers no backend choice, so INFO names none.
    assert!(!status.contains("\"backend\""), "{status}");
    let parent = dir.parent().unwrap().display().to_string();
    let pid = std::process::id();
    let store_dir = format!(r#""store_dir":"{parent}/info\tstore\n\"quoted\"\\dir_{pid}""#);
    assert!(status.contains(&store_dir), "{status}");
    assert!(!status.chars().any(char::is_control), "{status:?}");
    // The server reports the worker pool it runs and one reactor per
    // core.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = cores.max(8);
    assert!(status.contains(&format!("\"workers\":{pool},")), "{status}");
    assert!(
        status.contains(&format!("\"reactors\":{cores},")),
        "{status}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extract a plain integer counter/gauge value from the stats JSON.
fn stat_int(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {json}"))
}

/// Extract a histogram's observation count from the stats JSON.
fn hist_count(json: &str, key: &str) -> u64 {
    stat_int(json, &format!("{key}\":{{\"count"))
}

#[test]
fn stats_rejects_non_empty_payloads_with_a_typed_error() {
    let server = boot(None);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .roundtrip(qn_serve::Opcode::Stats, b"extra".to_vec())
        .expect_err("STATS with a payload must fail");
    match err {
        qn_serve::ServeError::Remote { code, message } => {
            assert_eq!(code, qn_serve::ErrorCode::BadRequest as u16, "{message}");
            assert!(message.contains("no payload"), "{message}");
        }
        other => panic!("expected a remote BadRequest, got {other}"),
    }
    // The connection survives a request-level error.
    assert!(client.stats().unwrap().starts_with("{\"uptime_secs\":"));
}

#[test]
fn stats_counts_match_a_client_side_tally_under_sixteen_clients() {
    let server = boot(None);
    let addr = server.addr();
    let img = datasets::grayscale_blobs(1, 16, 16, 33).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();

    // Client-side tally: 16 workers × (2 encodes + 1 decode + 1 info +
    // 1 list).
    let workers: Vec<_> = (0..16)
        .map(|_| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..2 {
                    client
                        .encode(&spectral_encode_request(&img, &opts, 8))
                        .expect("encode");
                }
                client.decode(&offline).expect("decode");
                client.info(None).expect("info");
                client.list_models().expect("list");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let (enc, dec, info_n, list_n) = (32u64, 16u64, 16u64, 16u64);

    // Request counters increment before the reply is written, so after
    // the workers join they are exact. Latency records once the reply
    // frame is serialized, before the reactor receives it, so the
    // histograms are exact by then too; the loop re-reads STATS only
    // while they are not.
    let mut client = Client::connect(addr).unwrap();
    let mut stats_calls = 0u64;
    let json = loop {
        stats_calls += 1;
        let json = client.stats().expect("stats");
        if hist_count(&json, "serve_request_latency_ns{op=encode}") == enc
            && hist_count(&json, "serve_request_latency_ns{op=decode}") == dec
        {
            break json;
        }
        assert!(
            stats_calls < 200,
            "latency histograms never caught up: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    assert_eq!(stat_int(&json, "serve_requests_total{op=encode}"), enc);
    assert_eq!(stat_int(&json, "serve_requests_total{op=decode}"), dec);
    assert_eq!(stat_int(&json, "serve_requests_total{op=info}"), info_n);
    assert_eq!(
        stat_int(&json, "serve_requests_total{op=list_models}"),
        list_n
    );
    // The stats polls count themselves (each increments before its own
    // reply is built).
    assert_eq!(
        stat_int(&json, "serve_requests_total{op=stats}"),
        stats_calls
    );
    assert_eq!(stat_int(&json, "serve_connections_total"), 17);
    assert!(stat_int(&json, "serve_frame_bytes_in_total") > 0, "{json}");
    assert!(stat_int(&json, "serve_frame_bytes_out_total") > 0, "{json}");
    // Stage histograms populated by the mesh-bound requests.
    assert_eq!(
        hist_count(&json, "serve_stage_ns{op=encode,stage=mesh_pass}"),
        enc
    );
    assert_eq!(
        hist_count(&json, "serve_stage_ns{op=decode,stage=parse}"),
        dec
    );
    assert_eq!(
        hist_count(&json, "serve_stage_ns{op=encode,stage=spectral}"),
        enc
    );
    // Every encode used the default rice coder.
    assert!(
        stat_int(&json, "codec_coded_bytes_total{coder=rice}") > 0,
        "{json}"
    );
    // Every mesh-bound request released its in-flight gauge unit.
    assert_eq!(stat_int(&json, "serve_inflight_requests"), 0);

    // The handle exposes the same registry the wire serves.
    let handle_json = server.metrics().registry().to_json();
    assert_eq!(
        stat_int(&handle_json, "serve_requests_total{op=encode}"),
        enc
    );
}
