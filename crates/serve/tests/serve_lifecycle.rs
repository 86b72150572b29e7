//! Regression tests for server lifecycle bugs the event-driven core
//! fixed:
//!
//! 1. **Shutdown self-connect** — the old `ServerHandle::stop`
//!    unblocked its accept loop by connecting to the *listen* address,
//!    which is not connectable for wildcard (`0.0.0.0`) binds; the
//!    reactor's wakeup pipe works for any bind.
//! 2. **Leaked handler threads** — connection handlers were
//!    spawn-and-forget, so shutdown joined only the accept thread and
//!    in-flight connections raced test teardown; the reactor now
//!    drains in-flight replies within a bounded grace period and every
//!    server thread is joined before `shutdown()` returns.
//! 3. **Stale read deadline** — the old per-frame deadline was cleared
//!    with `let _ = stream.set_read_timeout(None)`, so a failed
//!    restore could reap the *next* frame spuriously; the reactor's
//!    deadline is plain per-connection state, armed at header arrival
//!    and cleared at frame completion, with nothing to restore.

use qn_serve::protocol::{Frame, Opcode, HEADER_LEN};
use qn_serve::{spawn, Client, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn shutdown_returns_promptly_on_a_wildcard_bind() {
    // Bug 1: bind the unconnectable-by-name address. Shutdown must
    // not wait for a real client to stumble in and unblock accept.
    let server = spawn(ServerConfig {
        addr: "0.0.0.0:0".into(),
        ..ServerConfig::default()
    })
    .expect("spawn on wildcard");
    let port = server.addr().port();
    // Sanity: the server actually serves (via loopback, since the
    // wildcard address itself is not a destination).
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect via loopback");
    client.info(None).expect("INFO round-trip");
    drop(client);
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "wildcard-bound shutdown took {:?}",
        t0.elapsed()
    );
}

#[test]
fn shutdown_drains_inflight_replies_before_returning() {
    // Bug 2, the drain half: a request the server has admitted when
    // shutdown starts still gets its reply — the old spawn-and-forget
    // handlers could be killed (or race teardown) with work in flight.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::request(Opcode::Info, 42, Vec::new())
        .write_to(&mut stream)
        .expect("write INFO");
    // Wait until the server has committed to the request (counted at
    // frame completion, the same moment it is admitted), so shutdown
    // demonstrably starts with it in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.requests_served() == 0 {
        assert!(Instant::now() < deadline, "request never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    // The reply was drained into our socket before shutdown returned.
    let reply = Frame::read_from(&mut stream).expect("drained reply after shutdown");
    assert_eq!(reply.status, 0);
    assert_eq!(reply.request_id, 42);
    // And the server is gone: the connection reaches EOF, not a hang.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after drain");
    assert!(rest.is_empty(), "no stray bytes after the drained reply");
}

#[test]
fn connection_held_mid_frame_cannot_stall_shutdown() {
    // Bug 2, the bounded-grace half: a peer parked mid-frame (header
    // sent, payload never coming) must not hold shutdown hostage —
    // and its parked in-flight gauge unit must be released, not
    // leaked.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        // Long enough that shutdown returning promptly proves the
        // mid-frame connection was dropped, not waited out.
        read_timeout: Duration::from_secs(60),
        shutdown_grace: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let metrics = Arc::clone(server.metrics());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A valid ENCODE header promising a payload that never arrives.
    let full = Frame::request(Opcode::Encode, 7, vec![0u8; 256]).to_bytes();
    stream.write_all(&full[..HEADER_LEN]).expect("write header");
    // Wait until the header registered (it raises the mesh in-flight
    // gauge), so shutdown demonstrably starts with the frame open.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !metrics
        .stats_json()
        .contains("\"serve_inflight_requests\":1")
    {
        assert!(
            Instant::now() < deadline,
            "header never raised the in-flight gauge: {}",
            metrics.stats_json()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "mid-frame connection stalled shutdown for {:?}",
        t0.elapsed()
    );
    // The half-read frame's in-flight count was released, not leaked.
    assert!(
        metrics
            .stats_json()
            .contains("\"serve_inflight_requests\":0"),
        "in-flight gauge leaked across shutdown: {}",
        metrics.stats_json()
    );
    // Our side observes the close, not a hang.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after shutdown");
}

#[test]
fn read_deadline_never_leaks_into_the_next_frame() {
    // Bug 3: with a short frame deadline, a connection that idles
    // *between* frames for much longer than the deadline must stay
    // alive — the deadline only runs from header to frame completion,
    // and completing a frame must fully disarm it.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let metrics = Arc::clone(server.metrics());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for (round, idle) in [
        Duration::ZERO,
        // 3x the frame deadline, twice: a stale deadline from the
        // previous frame would reap us here.
        Duration::from_millis(450),
        Duration::from_millis(450),
    ]
    .into_iter()
    .enumerate()
    {
        std::thread::sleep(idle);
        Frame::request(Opcode::Info, round as u32, Vec::new())
            .write_to(&mut stream)
            .unwrap_or_else(|e| panic!("round {round}: write after {idle:?} idle: {e}"));
        let reply = Frame::read_from(&mut stream)
            .unwrap_or_else(|e| panic!("round {round}: reaped after {idle:?} idle: {e}"));
        assert_eq!(reply.status, 0, "round {round}");
    }
    assert!(
        metrics
            .stats_json()
            .contains("\"serve_read_deadline_reaps_total\":0"),
        "idle-between-frames connection was reaped: {}",
        metrics.stats_json()
    );
}
