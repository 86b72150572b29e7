//! Protocol-robustness corpus, mirroring `tests/decoder_robustness.rs`
//! one layer up: malformed, truncated, oversized and bit-flipped
//! frames, allocation-bomb length fields and mid-frame disconnects are
//! thrown at a live server. The server must never panic: every case
//! ends in a typed error reply or a clean close, and — the part a
//! panic would break — the server keeps answering healthy requests
//! afterwards.

use qn_codec::bitstream::crc32;
use qn_codec::{Codec, CodecOptions, Container};
use qn_image::datasets;
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::protocol::{ErrorCode, Frame, FrameError, Opcode, HEADER_LEN};
use qn_serve::{spawn, Client, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;
use common::complex_model_file;

fn boot() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// Prove the server is still alive: a fresh connection completes a
/// full encode round-trip.
fn assert_alive(server: &ServerHandle, tag: &str) {
    let img = datasets::grayscale_blobs(1, 8, 8, 1).remove(0);
    let mut client =
        Client::connect(server.addr()).unwrap_or_else(|e| panic!("{tag}: server unreachable: {e}"));
    let bytes = client
        .encode(&spectral_encode_request(&img, &CodecOptions::default(), 8))
        .unwrap_or_else(|e| panic!("{tag}: healthy encode failed: {e}"));
    client
        .decode(&bytes)
        .unwrap_or_else(|e| panic!("{tag}: healthy decode failed: {e}"));
}

/// Write raw bytes, then read whatever the server answers until it
/// closes (or a short timeout). Returns the reply bytes.
fn send_raw(server: &ServerHandle, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    // Half-close so the server sees EOF (the mid-frame disconnect)
    // immediately instead of waiting for more bytes.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// Parse a single reply frame out of raw bytes.
fn parse_reply(bytes: &[u8], tag: &str) -> Frame {
    Frame::read_from(&mut &bytes[..]).unwrap_or_else(|e| panic!("{tag}: unparseable reply: {e}"))
}

fn expect_error(server: &ServerHandle, raw: &[u8], code: ErrorCode, tag: &str) {
    let reply = parse_reply(&send_raw(server, raw), tag);
    assert_eq!(
        reply.status,
        code as u16,
        "{tag}: expected {code:?}, got status {} ({})",
        reply.status,
        String::from_utf8_lossy(&reply.payload)
    );
    assert_alive(server, tag);
}

#[test]
fn stream_level_violations_answer_typed_errors_and_close() {
    let server = boot();

    // An HTTP request is the classic cross-protocol probe.
    expect_error(
        &server,
        b"GET / HTTP/1.1\r\nHost: qn\r\n\r\n",
        ErrorCode::BadMagic,
        "http probe",
    );

    // Correct magic, future protocol version.
    let mut future = Frame::request(Opcode::Info, 1, Vec::new()).to_bytes();
    future[4] = 200;
    refix_frame_crc(&mut future);
    expect_error(
        &server,
        &future,
        ErrorCode::UnsupportedVersion,
        "future version",
    );

    // Allocation bomb: length field claims 4 GiB. Must be rejected
    // before any allocation, typed, and the connection closed.
    let mut bomb = Frame::request(Opcode::Decode, 2, Vec::new()).to_bytes();
    bomb[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_error(&server, &bomb, ErrorCode::FrameTooLarge, "length bomb");

    // Bit-flipped payload with the original CRC.
    let mut flipped = Frame::request(Opcode::Info, 3, vec![0u8; 32]).to_bytes();
    flipped[HEADER_LEN + 5] ^= 0x40;
    expect_error(&server, &flipped, ErrorCode::BadCrc, "bit flip");
}

#[test]
fn truncations_and_midframe_disconnects_close_cleanly() {
    let server = boot();
    let full = Frame::request(Opcode::Info, 9, vec![7u8; 64]).to_bytes();
    // Cut everywhere interesting: inside the magic, the header, the
    // payload and the CRC. The server gets EOF mid-frame and must just
    // drop the connection.
    for cut in [
        0,
        1,
        3,
        7,
        15,
        HEADER_LEN,
        HEADER_LEN + 1,
        full.len() - 5,
        full.len() - 1,
    ] {
        let reply = send_raw(&server, &full[..cut]);
        assert!(
            reply.is_empty(),
            "cut {cut}: expected silent close, got {} reply bytes",
            reply.len()
        );
    }
    assert_alive(&server, "after truncations");
}

#[test]
fn request_level_failures_keep_the_connection_alive() {
    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown opcode: typed error, connection survives.
    let reply = client.roundtrip_raw_opcode(0x6E, Vec::new());
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);

    // Corrupt container in DECODE.
    match client.decode(b"QNC1 but not really a container") {
        Err(qn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::Codec as u16)
        }
        other => panic!("corrupt decode: {other:?}"),
    }

    // Structurally valid container whose model is not in the zoo.
    let img = datasets::grayscale_blobs(1, 16, 16, 21).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let lean = codec
        .encode_image(
            &img,
            &CodecOptions {
                inline_model: false,
                ..CodecOptions::default()
            },
        )
        .unwrap();
    match client.decode(&lean) {
        Err(qn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownModel as u16)
        }
        other => panic!("unknown model: {other:?}"),
    }

    // Garbage LOAD_MODEL payload.
    match client.load_model(b"QNMD???????") {
        Err(qn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::Codec as u16)
        }
        other => panic!("garbage model: {other:?}"),
    }

    // Malformed ENCODE payloads: too short, and a pixel-count bomb.
    let reply = client.roundtrip_raw_opcode(Opcode::Encode as u8, vec![0u8; 10]);
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);
    let mut bomb = vec![0u8; 24];
    bomb[0..2].copy_from_slice(&4u16.to_le_bytes());
    bomb[2] = 8;
    bomb[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
    bomb[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes());
    let reply = client.roundtrip_raw_opcode(Opcode::Encode as u8, bomb);
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);

    // Spectral tile-size bomb: a tiny (1×1) image asking for a 65535²
    // model must be rejected typed, not allocated (~34 GB otherwise).
    let mut tile_bomb = vec![0u8; 24 + 8];
    tile_bomb[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
    tile_bomb[2] = 8;
    tile_bomb[4..6].copy_from_slice(&1u16.to_le_bytes());
    tile_bomb[16..20].copy_from_slice(&1u32.to_le_bytes());
    tile_bomb[20..24].copy_from_slice(&1u32.to_le_bytes());
    tile_bomb[24..32].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
    let reply = client.roundtrip_raw_opcode(Opcode::Encode as u8, tile_bomb);
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);

    // Decode dimension bomb: a structurally plausible container
    // declaring a 131072×131072 image (only empty-tile bits, so the
    // tile count passes the payload-bits check) must be rejected by
    // the serving pixel limit before any tile vector or untile buffer
    // is allocated. The dims sit at fixed offsets 16..24.
    let mut dim_bomb = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    dim_bomb[16..20].copy_from_slice(&(1u32 << 17).to_le_bytes());
    dim_bomb[20..24].copy_from_slice(&(1u32 << 17).to_le_bytes());
    let body = dim_bomb.len() - 4;
    let crc = qn_codec::bitstream::crc32(&dim_bomb[..body]).to_le_bytes();
    dim_bomb[body..].copy_from_slice(&crc);
    for op in [Opcode::Decode, Opcode::Info] {
        let reply = client.roundtrip_raw_opcode(op as u8, dim_bomb.clone());
        assert_eq!(
            reply.status,
            ErrorCode::BadRequest as u16,
            "{op:?} dim bomb: {}",
            String::from_utf8_lossy(&reply.payload)
        );
    }

    // INFO on unrecognised bytes.
    match client.info(Some(b"neither format")) {
        Err(qn_serve::ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::Codec as u16)
        }
        other => panic!("garbage info: {other:?}"),
    }

    // A model file with a complex gate (real-model flag clear): the
    // codec runs real meshes only, so LOAD_MODEL, INFO, and DECODE of a
    // container carrying it inline answer typed codec errors at the
    // model parse.
    let complex = complex_model_file(&qn_codec::model::encode_model(codec.model()));
    let inline = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let mut forged = Container::from_bytes(&inline).unwrap();
    forged.inline_model = Some(complex.clone());
    for (what, outcome) in [
        ("load_model", client.load_model(&complex).map(|_| ())),
        ("info", client.info(Some(&complex[..])).map(|_| ())),
        (
            "decode",
            client.decode(&forged.to_bytes().unwrap()).map(|_| ()),
        ),
    ] {
        match outcome {
            Err(qn_serve::ServeError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::Codec as u16, "{what}: {message}");
                assert!(message.contains("complex"), "{what}: {message}");
            }
            other => panic!("complex-gate {what}: {other:?}"),
        }
    }

    // A spectral ENCODE past the tile cap: its model would have
    // dimension tile², fitted at O(tile⁶) per request.
    let big_tile = CodecOptions {
        tile_size: 17,
        ..CodecOptions::default()
    };
    match client.encode(&spectral_encode_request(&img, &big_tile, 8)) {
        Err(qn_serve::ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest as u16, "{message}");
            assert!(message.contains("tile size"), "{message}");
        }
        other => panic!("tile 17 spectral encode: {other:?}"),
    }

    // A zoo model only encodes tiles of its own state dimension: a
    // tile-8 model (dimension 64) refuses 4×4 tiles instead of padding
    // each one to 64 modes.
    let tile8 = Codec::spectral_for_image(&img, 8, 8).unwrap();
    let id = client
        .load_model(&qn_codec::model::encode_model(tile8.model()))
        .unwrap();
    match client.encode(&model_encode_request(&img, &CodecOptions::default(), id)) {
        Err(qn_serve::ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Codec as u16, "{message}");
            assert!(message.contains("state dimension"), "{message}");
        }
        other => panic!("tile-4 encode with a tile-8 model: {other:?}"),
    }

    // The same connection still serves a healthy request after the
    // whole gauntlet.
    let bytes = client
        .encode(&spectral_encode_request(&img, &CodecOptions::default(), 8))
        .unwrap();
    assert_eq!(
        client.decode(&bytes).unwrap(),
        codec.decode_bytes(&bytes).unwrap()
    );
}

#[test]
fn every_truncation_of_a_valid_frame_is_handled() {
    // The fine-grained sweep: every prefix of a real encode request
    // either closes cleanly (EOF mid-frame) — it can never panic the
    // server or elicit a malformed reply.
    let server = boot();
    let img = datasets::grayscale_blobs(1, 8, 8, 2).remove(0);
    let full = Frame::request(
        Opcode::Encode,
        1,
        spectral_encode_request(&img, &CodecOptions::default(), 8).to_payload(),
    )
    .to_bytes();
    // Sample the cut space (full sweeps of multi-hundred-byte frames
    // are slow over real sockets; header cuts are exhaustive).
    let cuts: Vec<usize> = (0..HEADER_LEN + 4)
        .chain((HEADER_LEN + 4..full.len()).step_by(97))
        .collect();
    for cut in cuts {
        let reply = send_raw(&server, &full[..cut]);
        if !reply.is_empty() {
            // A parseable typed reply is also acceptable (e.g. the cut
            // landed exactly on a frame boundary).
            parse_reply(&reply, &format!("cut {cut}"));
        }
    }
    assert_alive(&server, "after truncation sweep");
}

#[test]
fn pipelined_garbage_after_a_valid_frame_does_not_corrupt_the_reply() {
    let server = boot();
    let img = datasets::grayscale_blobs(1, 8, 8, 3).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let offline = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let mut raw = Frame::request(
        Opcode::Encode,
        5,
        spectral_encode_request(&img, &CodecOptions::default(), 8).to_payload(),
    )
    .to_bytes();
    raw.extend_from_slice(b"trailing garbage that is not a frame");
    let reply_bytes = send_raw(&server, &raw);
    let reply = parse_reply(&reply_bytes, "pipelined garbage");
    assert_eq!(
        reply.status,
        0,
        "{}",
        String::from_utf8_lossy(&reply.payload)
    );
    assert_eq!(
        reply.payload, offline,
        "valid request must answer correct bytes"
    );
    assert_alive(&server, "after pipelined garbage");
}

#[test]
fn a_thousand_idle_connections_stay_alive_with_timeouts_disabled() {
    // The poll core's reason to exist: idle connections cost no
    // threads and are never reaped (the read deadline only runs
    // mid-frame). Park 1000 of them, then prove a sample still
    // round-trips.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::ZERO,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut socks = Vec::with_capacity(1000);
    for i in 0..1000 {
        let stream = TcpStream::connect(server.addr())
            .unwrap_or_else(|e| panic!("connect #{i}: {e} (check the process fd limit)"));
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        socks.push(stream);
    }
    // Wait for every accept to land in the reactor.
    let metrics = std::sync::Arc::clone(server.metrics());
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        if metrics
            .stats_json()
            .contains("\"serve_open_connections\":1000")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reactor never reached 1000 open connections: {}",
            metrics.stats_json()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Idle for several poll cycles, then every 100th connection must
    // still answer — no reap, no starvation by its 999 idle peers.
    std::thread::sleep(Duration::from_millis(200));
    for (i, stream) in socks.iter_mut().enumerate().step_by(100) {
        let frame = Frame::request(Opcode::Info, i as u32, Vec::new());
        frame.write_to(stream).expect("write INFO");
        let reply = Frame::read_from(stream).unwrap_or_else(|e| panic!("conn #{i} reply: {e}"));
        assert_eq!(reply.status, 0, "conn #{i}: {reply:?}");
        assert_eq!(reply.request_id, i as u32);
    }
    assert!(
        metrics
            .stats_json()
            .contains("\"serve_read_deadline_reaps_total\":0"),
        "idle connections must never be reaped: {}",
        metrics.stats_json()
    );
}

#[test]
fn a_peer_that_reads_late_is_throttled_and_still_gets_every_reply() {
    // A peer pipelines far more requests than the reply queue limit
    // can hold while not reading any replies: the server must stop
    // reading (TCP flow control throttles the writer) instead of
    // queueing replies without bound — and once the peer does read,
    // every request must still get its typed reply, in order, on a
    // connection that was never dropped or reaped. Run with a short
    // read timeout to pin that the throttle window does not count
    // against the frame-completion deadline.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let n = 20_000u32;
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let writer = {
        let mut s = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            for id in 0..n {
                Frame::request(Opcode::Info, id, Vec::new())
                    .write_to(&mut s)
                    .unwrap_or_else(|e| panic!("request #{id} refused mid-flood: {e}"));
            }
        })
    };
    // Let the flood hit the backlog gate before reading anything.
    std::thread::sleep(Duration::from_millis(700));
    let mut stream = stream;
    let mut served = 0u64;
    let mut shed = 0u64;
    for id in 0..n {
        let reply = Frame::read_from(&mut stream).unwrap_or_else(|e| panic!("reply #{id}: {e}"));
        assert_eq!(reply.request_id, id, "replies stay in order");
        match reply.status {
            0 => served += 1,
            s if s == ErrorCode::Busy as u16 => shed += 1,
            s => panic!(
                "reply #{id}: unexpected status {s}: {}",
                String::from_utf8_lossy(&reply.payload)
            ),
        }
    }
    writer.join().expect("writer thread");
    assert_eq!(served + shed, u64::from(n), "every request answered");
    assert!(served > 0, "some requests served");
    assert_alive(&server, "after reply-backlog flood");
}

/// Pipeline `frames` in one write on one fresh connection and read
/// `frames.len()` replies back, in order.
fn pipelined_replies(server: &ServerHandle, frames: &[Frame]) -> (TcpStream, Vec<Frame>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = Vec::new();
    for f in frames {
        wire.extend_from_slice(&f.to_bytes());
    }
    stream.write_all(&wire).expect("write pipelined frames");
    let replies = (0..frames.len())
        .map(|i| Frame::read_from(&mut stream).unwrap_or_else(|e| panic!("reply #{i}: {e}")))
        .collect();
    (stream, replies)
}

#[test]
fn saturated_global_admission_sheds_typed_busy_and_recovers() {
    // max_inflight 1: the first frame of a pipelined pair takes the
    // only admission slot (released when its reply is fully written,
    // which cannot happen before the reactor finishes parsing the
    // burst), so the second frame is deterministically shed — with a
    // typed BUSY reply on a connection that stays usable, never a
    // drop or an unbounded queue.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 1,
        conn_inflight: 0,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let img = datasets::grayscale_blobs(1, 8, 8, 5).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let container = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let (mut stream, replies) = pipelined_replies(
        &server,
        &[
            Frame::request(Opcode::Decode, 1, container.clone()),
            Frame::request(Opcode::Info, 2, Vec::new()),
        ],
    );
    assert_eq!(replies[0].status, 0, "first request is admitted and served");
    assert_eq!(replies[0].request_id, 1);
    assert_eq!(
        replies[1].status,
        ErrorCode::Busy as u16,
        "over-cap request answers typed BUSY: {}",
        String::from_utf8_lossy(&replies[1].payload)
    );
    assert_eq!(replies[1].request_id, 2, "BUSY echoes the request id");
    // The shed is visible in telemetry...
    let stats = server.metrics().stats_json();
    assert!(
        stats.contains("\"serve_busy_total\":1"),
        "busy counter: {stats}"
    );
    // ...and the connection recovers: the slot is free once the first
    // reply was written, so the same socket serves the retry.
    Frame::request(Opcode::Info, 3, Vec::new())
        .write_to(&mut stream)
        .expect("write retry");
    let retry = Frame::read_from(&mut stream).expect("retry reply");
    assert_eq!(retry.status, 0, "retry after BUSY succeeds");
    assert_alive(&server, "after global admission shed");
}

#[test]
fn per_connection_inflight_cap_sheds_typed_busy() {
    // conn_inflight 1 with an unlimited global cap: one pipelining
    // connection cannot hold more than one admitted request, and the
    // shed must echo BUSY *in reply order* after the first frame's
    // real reply.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_inflight: 0,
        conn_inflight: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let img = datasets::grayscale_blobs(1, 8, 8, 6).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let container = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let (mut stream, replies) = pipelined_replies(
        &server,
        &[
            Frame::request(Opcode::Decode, 7, container),
            Frame::request(Opcode::Decode, 8, b"never admitted".to_vec()),
        ],
    );
    assert_eq!(replies[0].status, 0, "first decode served");
    assert_eq!(
        replies[1].status,
        ErrorCode::Busy as u16,
        "second pipelined request shed: {}",
        String::from_utf8_lossy(&replies[1].payload)
    );
    // A healthy request on the same connection afterwards: the cap
    // shed requests, never the connection.
    Frame::request(Opcode::Info, 9, Vec::new())
        .write_to(&mut stream)
        .expect("write follow-up");
    assert_eq!(Frame::read_from(&mut stream).expect("follow-up").status, 0);
    assert_alive(&server, "after per-connection shed");
}

#[test]
fn remote_bytes_match_offline_for_every_entropy_coder_through_the_poll_path() {
    // Byte-identity re-pinned through the event-driven core: for all
    // three entropy coders, the served encode equals the offline
    // encode bit for bit, and the served decode inverts it.
    let server = boot();
    let mut client = Client::connect(server.addr()).unwrap();
    let img = datasets::grayscale_blobs(1, 16, 16, 11).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    for coder in [
        qn_codec::EntropyCoder::Rice,
        qn_codec::EntropyCoder::RicePos,
        qn_codec::EntropyCoder::Range,
    ] {
        let opts = CodecOptions {
            entropy: coder,
            ..CodecOptions::default()
        };
        let offline = codec.encode_image(&img, &opts).unwrap();
        let remote = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap_or_else(|e| panic!("{coder:?}: remote encode: {e}"));
        assert_eq!(remote, offline, "{coder:?}: encode bytes drifted");
        let round = client
            .decode(&remote)
            .unwrap_or_else(|e| panic!("{coder:?}: remote decode: {e}"));
        assert_eq!(
            round,
            codec.decode_bytes(&offline).unwrap(),
            "{coder:?}: decode pixels drifted"
        );
    }
}

/// Re-fix a frame's trailing CRC after mutating its header.
fn refix_frame_crc(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

/// Frame-level escape hatch used by this suite: send an arbitrary
/// opcode byte and return the reply frame.
trait RawRoundtrip {
    fn roundtrip_raw_opcode(&mut self, opcode: u8, payload: Vec<u8>) -> Frame;
}

impl RawRoundtrip for Client {
    fn roundtrip_raw_opcode(&mut self, opcode: u8, payload: Vec<u8>) -> Frame {
        let frame = Frame {
            opcode,
            status: 0,
            request_id: 77,
            payload,
        };
        let mut stream = self.stream_mut();
        frame.write_to(&mut stream).expect("write raw frame");
        match Frame::read_from(&mut stream) {
            Ok(reply) => reply,
            Err(FrameError::Io(e)) => panic!("server closed on raw opcode {opcode:#04x}: {e}"),
            Err(e) => panic!("bad reply to raw opcode {opcode:#04x}: {e}"),
        }
    }
}
