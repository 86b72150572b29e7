//! The connection core: one reactor thread owns every socket through
//! `poll(2)` (see [`crate::reactor`]), complete frames are
//! admission-checked and handed to a bounded worker pool, and replies
//! come back through per-connection sequence-ordered outboxes. Idle
//! connections cost no threads; a slow-reading peer stalls only its
//! own connection.
//!
//! Error discipline: request-level failures (corrupt containers,
//! unknown models, malformed payloads) answer a typed error frame and
//! keep the connection; stream-level failures (bad magic, oversized
//! frames, CRC mismatches, unknown protocol versions) answer a typed
//! error where the socket still permits and then close — once framing
//! is lost there is no safe way to resynchronise. Admission failures
//! (the global [`ServerConfig::max_inflight`] or per-connection
//! [`ServerConfig::conn_inflight`] cap) answer a typed `BUSY` error
//! and keep the connection: backpressure is explicit, never an
//! unbounded queue into the worker pool. Nothing a peer sends can panic
//! a server thread, and a handler that panics anyway answers a typed
//! `Internal` error and keeps its worker.
//!
//! A worker runs its request end to end: ENCODE and DECODE call the
//! codec's own schedule, mesh pass included, exactly as offline `qnc`
//! does, on the default `simd` backend — the server offers no backend
//! choice, and its replies are byte-identical to the scalar oracle's.
//! A [`StageRecorder`] times every stage of the request once — frame
//! read, queue wait, parse, the codec's named stages, reply write —
//! into the `serve_stage_ns` histograms, and into the span tree when
//! the request is traced.
//!
//! Telemetry has no off switch: every server keeps its
//! [`ServeMetrics`] and a [`Tracer`], and the `STATS` and `TRACE` RPCs
//! always answer.

use crate::error::{Result, ServeError};
use crate::log::{LogLevel, Logger};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    image_to_payload, parse_trace_request, EncodeRequest, ErrorCode, Frame, FrameHeader, Opcode,
    TraceContext, ENC_FLAG_INLINE_MODEL, ENC_FLAG_PER_TILE_SCALE, ENC_FLAG_USE_MODEL_ID,
    HEADER_LEN, PROTOCOL_VERSION,
};
use crate::reactor::{
    earliest, read_available, write_queue, ConnShared, FrameAccumulator, FrameStep, Interest,
    Poller, Reply, WakePipe, Waker, WireReply, WriteProgress,
};
use crate::stages::{self, span_ns, StageRecorder};
use crate::store::ModelStore;
use qn_codec::pipeline::codec_from_inline;
use qn_codec::{info, Codec, CodecOptions, Container};
use qn_trace::{fmt_ns, write_json_string, SpanId, TraceBuilder, Tracer};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes a frame occupies on the wire: header + payload + CRC trailer.
fn frame_wire_bytes(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len + 4) as u64
}

/// Unwritten reply bytes queued on one connection past which the
/// reactor stops reading from (and admitting on) it until the backlog
/// drains. Without this gate a peer that pipelines requests but never
/// reads replies grows the reply queue without bound — BUSY replies
/// carry no admission slot, so the admission caps alone cannot bound
/// it. Reads stopping makes the kernel socket buffers fill and TCP
/// flow control throttle the peer, the way the old blocking write
/// loop did naturally.
const WIRE_BACKLOG_LIMIT: usize = 256 * 1024;

/// Most bytes one service pass reads from one connection, so the
/// reply queue a single burst can generate is bounded before the
/// backlog gate is re-checked (the socket stays level-triggered
/// readable; the remainder is read next iteration).
const READ_BUDGET: usize = 256 * 1024;

/// How long the reactor leaves the listener unregistered after a
/// persistent accept failure (fd exhaustion and kin): the listener
/// stays readable through such errors, so re-polling immediately
/// would spin the reactor at full CPU until a descriptor frees up.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Completed traces kept in the recent ring.
const TRACE_RECENT_CAP: usize = 64;
/// Slow traces kept in the always-keep buffer.
const TRACE_SLOW_CAP: usize = 32;
/// High bits marking server-generated (slow-capture) trace ids, so
/// they never collide with sane client-chosen ids and are recognisable
/// in logs.
const SELF_TRACE_ID_BASE: u64 = 0x5e1f_0000_0000_0000;

/// Tunables for [`spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Model-zoo directory. `None` = in-memory models only: the LRU
    /// cache is then the entire zoo, so a model evicted by
    /// `model_cache` newer ones must be re-`LOAD_MODEL`ed before use.
    pub store_dir: Option<PathBuf>,
    /// Parsed models kept hot in RAM (least-recently-used beyond this;
    /// also the total retention bound when `store_dir` is `None`).
    pub model_cache: usize,
    /// How long a connection may take to deliver the rest of a frame
    /// once its header has arrived (`Duration::ZERO` disables the
    /// timeout). Idle connections are never timed out — the deadline
    /// only runs between header and frame completion, where a stalled
    /// or byte-dripping peer would otherwise hold its connection, a
    /// partial-frame buffer of up to the declared payload, and a unit of
    /// the `serve_inflight_requests` gauge forever.
    pub read_timeout: Duration,
    /// Request-handling worker threads. Zero (the default) sizes the
    /// pool to `max(available_parallelism, 8)`.
    pub workers: usize,
    /// Global admission cap: requests admitted (parsed and handed to
    /// the worker pool, reply not yet fully written) beyond this answer
    /// a typed `BUSY` error instead of queueing. Zero = unlimited.
    pub max_inflight: usize,
    /// Per-connection admission cap: one pipelining peer beyond this
    /// many in-flight requests gets typed `BUSY` replies instead of
    /// monopolising the worker pool. Zero = unlimited.
    pub conn_inflight: usize,
    /// Open-connection cap: accepts beyond this answer one typed
    /// `BUSY` error frame and close. Zero (the default) = unlimited
    /// (the process fd limit is then the real bound).
    pub max_conns: usize,
    /// How long shutdown waits for admitted requests to finish writing
    /// their replies before force-closing the remaining connections.
    pub shutdown_grace: Duration,
    /// Server log verbosity on stderr. The library default is
    /// [`LogLevel::Off`] so embedded servers (tests, benches) stay
    /// silent; the `qnc serve` CLI defaults to `info`.
    pub log_level: LogLevel,
    /// Slow-request threshold (`--slow-ms`; zero = off, the default).
    /// A request's spans are recorded when its trace context asks for
    /// sampling; with a threshold set, every mesh-bound request is
    /// also self-traced server-side, and traces at or over the
    /// threshold land in the always-keep slow buffer and emit a WARN
    /// log line with the stage breakdown.
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7733".into(),
            store_dir: None,
            model_cache: 16,
            read_timeout: Duration::from_secs(30),
            workers: 0,
            max_inflight: 256,
            conn_inflight: 8,
            max_conns: 0,
            shutdown_grace: Duration::from_secs(5),
            log_level: LogLevel::Off,
            slow_threshold: Duration::ZERO,
        }
    }
}

/// Shared server state: the zoo, the configuration, counters and
/// telemetry.
struct Shared {
    store: ModelStore,
    config: ServerConfig,
    requests: AtomicU64,
    /// Requests admitted past the backpressure gate: incremented by
    /// the reactor when a complete frame clears both caps, released
    /// (via [`AdmissionSlot`] drop) when the reply is fully written or
    /// its connection dies. Only the reactor increments, so a
    /// load-then-add admission check cannot overshoot
    /// [`ServerConfig::max_inflight`].
    admitted: AtomicUsize,
    shutdown: AtomicBool,
    /// Wakes the reactor's poll wait: workers after parking a reply,
    /// [`ServerHandle::stop`] after raising `shutdown`.
    waker: Arc<Waker>,
    /// Telemetry; `STATS` serves its registry.
    metrics: Arc<ServeMetrics>,
    /// Trace sink. A request's spans are built only when its context
    /// asks for sampling or slow capture is armed.
    tracer: Tracer,
    /// Ids for server-originated (slow-capture) traces.
    self_trace_seq: AtomicU64,
    log: Logger,
    started: Instant,
}

/// Releases one unit of the global admission count on drop. Acquired
/// by the reactor at frame admission, carried through the job into the
/// reply, dropped when the reply has fully reached the socket (or the
/// connection died first) — so `admitted` measures end-to-end
/// in-flight work, not just queue occupancy.
struct AdmissionSlot {
    shared: Arc<Shared>,
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.shared.admitted.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Holds one unit of the `serve_inflight_requests` gauge for a
/// mesh-bound (ENCODE/DECODE) request, from the arrival of its frame
/// header (the request is certainly coming) until its reply is
/// released to the connection. Owned (`Arc`) rather than borrowed so it
/// can travel from the reactor thread into a worker's job; every exit
/// path — reply, `BUSY` shed, reaped or disconnected connection —
/// releases the unit by dropping.
struct MeshInflightGuard {
    metrics: Arc<ServeMetrics>,
}

impl MeshInflightGuard {
    fn acquire(shared: &Shared) -> MeshInflightGuard {
        shared.metrics.inflight().add(1);
        MeshInflightGuard {
            metrics: Arc::clone(&shared.metrics),
        }
    }
}

impl Drop for MeshInflightGuard {
    fn drop(&mut self) {
        self.metrics.inflight().sub(1);
    }
}

/// One admitted request on its way to a worker.
struct Job {
    /// The connection's outbox, for the seq-ordered reply.
    chan: Arc<ConnShared>,
    /// This frame's position in its connection's reply order.
    seq: u64,
    frame: Frame,
    peer: Arc<str>,
    /// When the frame's header arrived (trace anchor).
    header_at: Instant,
    /// When the frame completed (latency epoch; queue wait counts).
    frame_done_at: Instant,
    admission: AdmissionSlot,
    /// The in-flight gauge unit acquired at header time, released with
    /// the reply (mesh-bound opcodes only).
    mesh_guard: Option<MeshInflightGuard>,
}

/// The bounded handoff between the reactor and the worker pool.
struct JobQueue {
    state: Mutex<JobQueueState>,
    cond: Condvar,
}

struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Admission (not this queue) bounds depth: everything pushed here
    /// already holds an [`AdmissionSlot`]. A push after close drops
    /// the job (its slot releases here).
    fn push(&self, job: Job) {
        let mut s = self.state.lock().expect("job queue poisoned");
        if s.closed {
            return;
        }
        s.jobs.push_back(job);
        drop(s);
        self.cond.notify_one();
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("job queue poisoned").closed = true;
        self.cond.notify_all();
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the reactor, drains in-flight
/// replies within [`ServerConfig::shutdown_grace`] and joins every
/// server thread — no connection handler outlives the handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    jobs: Arc<JobQueue>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (success or typed error).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// The server's telemetry, the registry `STATS` serves. Lets
    /// embedding tests assert on counters directly.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// Stop the server: drain in-flight replies (bounded by
    /// [`ServerConfig::shutdown_grace`]) and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A byte into the wakeup pipe interrupts the reactor's poll
        // wait wherever it is parked — unlike the old self-connect
        // trick, this cannot hang on a wildcard (0.0.0.0) bind where
        // the listen address is not connectable.
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor has drained (or force-closed) every connection;
        // now the workers can be released.
        self.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start serving on background threads.
///
/// # Errors
/// Bind/listen failures, wakeup-pipe creation and zoo-directory
/// creation failures.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(
        config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?,
    )?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let wake = WakePipe::new()?;
    let waker = wake.waker();
    let metrics = Arc::new(ServeMetrics::new());
    let store = ModelStore::new(config.store_dir.clone(), config.model_cache)?
        .with_metrics(metrics.store_metrics());
    let tracer = Tracer::new(TRACE_RECENT_CAP, TRACE_SLOW_CAP, config.slow_threshold);
    let worker_count = if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .max(8)
    };
    let shared = Arc::new(Shared {
        store,
        log: Logger::new(config.log_level),
        started: Instant::now(),
        config,
        requests: AtomicU64::new(0),
        admitted: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        waker,
        metrics,
        tracer,
        self_trace_seq: AtomicU64::new(1),
    });
    let jobs = Arc::new(JobQueue::new());
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let shared = Arc::clone(&shared);
        let jobs = Arc::clone(&jobs);
        workers.push(
            std::thread::Builder::new()
                .name(format!("qn-serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = jobs.pop() {
                        process_job(&shared, job);
                    }
                })?,
        );
    }
    let reactor = {
        let shared = Arc::clone(&shared);
        let jobs = Arc::clone(&jobs);
        std::thread::Builder::new()
            .name("qn-serve-reactor".into())
            .spawn(move || reactor_loop(&shared, listener, wake, &jobs))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(reactor),
        workers,
        jobs,
    })
}

/// Reactor-private per-connection state. Everything workers need is
/// behind the [`ConnShared`] outbox; the socket, read buffer, frame
/// state machine and wire queue belong to the reactor alone.
struct Conn {
    stream: TcpStream,
    peer: Arc<str>,
    chan: Arc<ConnShared>,
    acc: FrameAccumulator,
    /// Validated header of the frame currently accumulating.
    header: Option<FrameHeader>,
    header_at: Option<Instant>,
    /// Frame-completion deadline, armed at header arrival.
    deadline: Option<Instant>,
    /// In-flight gauge unit of an accumulating mesh-bound frame,
    /// parked here between header and completion.
    mesh_guard: Option<MeshInflightGuard>,
    /// Sequence number the next parsed frame gets.
    next_assign: u64,
    /// Sequence number the next wire-bound reply must carry.
    next_release: u64,
    /// Replies released from the outbox, in order, mid-write.
    wire: VecDeque<WireReply>,
    /// Total bytes of replies in `wire` not yet fully written (a
    /// reply's bytes count until it pops). Drives the
    /// [`WIRE_BACKLOG_LIMIT`] read gate.
    wire_bytes: usize,
    /// Requests admitted on this connection whose replies have not
    /// finished writing (the [`ServerConfig::conn_inflight`] gate).
    inflight: usize,
    /// No more reads: peer EOF, stream violation, or server drain.
    read_closed: bool,
    /// This iteration's poll slot, when registered.
    slot: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream, peer: Arc<str>) -> Conn {
        Conn {
            stream,
            peer,
            chan: ConnShared::new(),
            acc: FrameAccumulator::default(),
            header: None,
            header_at: None,
            deadline: None,
            mesh_guard: None,
            next_assign: 0,
            next_release: 0,
            wire: VecDeque::new(),
            wire_bytes: 0,
            inflight: 0,
            read_closed: false,
            slot: None,
        }
    }

    /// Drop any half-read frame (peer EOF / server drain): its bytes
    /// can never complete, and a parked mesh guard must not keep
    /// counting it in flight.
    fn abandon_partial_frame(&mut self) {
        self.header = None;
        self.header_at = None;
        self.deadline = None;
        self.mesh_guard = None;
    }

    /// Every assigned frame's reply has fully reached the socket.
    fn fully_replied(&self) -> bool {
        self.next_release == self.next_assign && self.wire.is_empty()
    }

    /// The peer has let too many reply bytes pile up unread: stop
    /// reading from it (and so stop parsing, admitting and generating
    /// replies) until the backlog drains below the limit.
    fn write_backlogged(&self) -> bool {
        self.wire_bytes >= WIRE_BACKLOG_LIMIT
    }
}

/// Why a connection is being torn down (drives logging/metrics).
enum CloseCause {
    /// Orderly: EOF (or a flushed stream-error close) with every reply
    /// delivered.
    Done,
    /// The frame-completion deadline expired mid-frame.
    Reaped,
    /// Socket-level failure, or shutdown grace expired.
    Dropped,
}

/// The reactor: owns the listener, the wakeup pipe and every
/// connection; never blocks anywhere but `poll`.
fn reactor_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    mut wake: WakePipe,
    jobs: &Arc<JobQueue>,
) {
    let mut poller = Poller::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut listener = Some(listener);
    // Set once shutdown is observed: the drain deadline after which
    // remaining connections are force-closed.
    let mut drain_deadline: Option<Instant> = None;
    // Set after a persistent accept failure: the listener stays
    // unregistered until this instant (see [`ACCEPT_BACKOFF`]).
    let mut accept_backoff: Option<Instant> = None;

    loop {
        // Entering drain mode can make connections closable with no
        // socket event ever coming (read side shut, nothing queued),
        // so that iteration must reach the service pass immediately.
        let mut entered_drain = false;
        if shared.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + shared.config.shutdown_grace);
            listener = None;
            entered_drain = true;
            // Stop reading: admitted requests finish and their replies
            // flush; half-read frames can never complete.
            for conn in &mut conns {
                conn.read_closed = true;
                conn.abandon_partial_frame();
            }
        }

        // Register this iteration's descriptor set.
        poller.clear();
        let now = Instant::now();
        if accept_backoff.is_some_and(|t| now >= t) {
            accept_backoff = None;
        }
        let wake_slot = poller.register(wake.fd(), Interest::Read);
        let listen_slot = match &listener {
            Some(l) if accept_backoff.is_none() => {
                Some(poller.register(l.as_raw_fd(), Interest::Read))
            }
            _ => None,
        };
        for conn in &mut conns {
            // A write-backlogged connection loses read interest: the
            // kernel receive buffer fills and TCP flow control
            // throttles the peer until it drains its replies.
            let interest = match (
                !conn.read_closed && !conn.write_backlogged(),
                !conn.wire.is_empty(),
            ) {
                (true, true) => Some(Interest::ReadWrite),
                (true, false) => Some(Interest::Read),
                (false, true) => Some(Interest::Write),
                // Nothing to read or write — the conn is waiting on
                // workers; their wakeup pipe byte re-enters the loop.
                (false, false) => None,
            };
            conn.slot = interest.map(|i| poller.register(conn.stream.as_raw_fd(), i));
        }

        // Sleep until the earliest frame deadline (or the drain or
        // accept-backoff deadline), a socket event, or a wakeup byte.
        // Deadlines of write-backlogged connections are excluded: the
        // reactor is refusing to read the rest of their frames, so
        // running their completion clock would both reap them unfairly
        // and spin the loop once the deadline passes.
        let mut wake_at = drain_deadline;
        if listener.is_some() {
            wake_at = earliest(wake_at, accept_backoff);
        }
        for conn in &conns {
            if !conn.write_backlogged() {
                wake_at = earliest(wake_at, conn.deadline);
            }
        }
        let timeout = if entered_drain {
            Some(Duration::ZERO)
        } else {
            wake_at.map(|t| t.saturating_duration_since(now))
        };
        if let Err(e) = poller.poll(timeout) {
            shared.log.warn("poll", format_args!("error={e}"));
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if poller.readiness(wake_slot).readable {
            wake.drain();
        }

        // Accept burst.
        if let (Some(l), Some(slot)) = (&listener, listen_slot) {
            if poller.readiness(slot).any() && accept_burst(shared, l, &mut conns) {
                accept_backoff = Some(Instant::now() + ACCEPT_BACKOFF);
            }
        }

        // Service every connection: read & parse, drain outboxes,
        // write, reap deadlines, close the finished.
        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            match service_conn(shared, jobs, &mut conns[i], &poller, now) {
                Some(cause) => {
                    let conn = conns.swap_remove(i);
                    close_conn(shared, conn, &cause);
                }
                None => i += 1,
            }
        }

        if let Some(grace) = drain_deadline {
            if conns.is_empty() {
                return;
            }
            if Instant::now() >= grace {
                for conn in conns.drain(..) {
                    close_conn(shared, conn, &CloseCause::Dropped);
                }
                return;
            }
        }
    }
}

/// Accept until `WouldBlock`, shedding over-cap connections with one
/// typed `BUSY` frame. Returns `true` when a persistent accept
/// failure was hit and the caller should back the listener off.
fn accept_burst(shared: &Arc<Shared>, listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
    loop {
        let (stream, peer_addr) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // A connection that died between arrival and accept is
                // gone on its own; move on to the next one.
                shared.log.warn("accept", format_args!("error={e}"));
                continue;
            }
            Err(e) => {
                // Persistent failure (fd exhaustion and kin): the
                // listener stays readable through these, so returning
                // to poll immediately would spin at full CPU. Tell the
                // reactor to leave the listener unregistered briefly.
                shared.log.warn("accept", format_args!("error={e} backoff"));
                return true;
            }
        };
        let peer: Arc<str> = peer_addr.to_string().into();
        let max_conns = shared.config.max_conns;
        if max_conns > 0 && conns.len() >= max_conns {
            let e = ServeError::Busy(format!(
                "connection limit reached ({max_conns} open); retry shortly"
            ));
            shared.metrics.record_error(ErrorCode::Busy);
            shared.metrics.record_busy();
            shared
                .log
                .info("busy", format_args!("peer={peer} cause=max_conns"));
            // The socket is fresh (empty send buffer) and still in
            // blocking mode, so this small frame cannot meaningfully
            // block; failure just means the peer is already gone.
            let _ = Frame::error(0, ErrorCode::Busy, &e.to_string()).write_to(&mut &stream);
            continue;
        }
        let _ = stream.set_nodelay(true);
        if let Err(e) = stream.set_nonblocking(true) {
            // The old core ignored socket-mode failures wholesale
            // (`let _ = stream.set_read_timeout(None)`) and went on
            // serving with a stale deadline; a socket this reactor
            // cannot switch to nonblocking is unservable — surface the
            // cause and drop it instead.
            shared
                .log
                .warn("accept", format_args!("peer={peer} nonblocking error={e}"));
            continue;
        }
        shared.metrics.connection_opened();
        shared.log.info("connect", format_args!("peer={peer}"));
        conns.push(Conn::new(stream, peer));
    }
}

/// One service pass over one connection. Returns the close cause when
/// the connection should be torn down.
fn service_conn(
    shared: &Arc<Shared>,
    jobs: &Arc<JobQueue>,
    conn: &mut Conn,
    poller: &Poller,
    now: Instant,
) -> Option<CloseCause> {
    let ready = conn.slot.map(|s| poller.readiness(s)).unwrap_or_default();
    if ready.error {
        return Some(CloseCause::Dropped);
    }
    let was_backlogged = conn.write_backlogged();

    if ready.readable && !conn.read_closed && !conn.write_backlogged() {
        match read_available(&conn.stream, &mut conn.acc, READ_BUDGET) {
            Ok((_, eof)) => {
                pump_frames(shared, jobs, conn, now);
                if eof {
                    // Half-close: stop reading, but replies to frames
                    // already parsed still flush (a client may write
                    // its requests, shut down its write side and read
                    // every reply back).
                    conn.read_closed = true;
                    conn.abandon_partial_frame();
                }
            }
            Err(_) => return Some(CloseCause::Dropped),
        }
    }

    // Release worker replies that are next in sequence order.
    if conn.chan.is_dirty() {
        for reply in conn.chan.take_in_order(&mut conn.next_release) {
            conn.wire_bytes += reply.bytes.len();
            conn.wire.push_back(WireReply { reply, cursor: 0 });
        }
    }
    // Push the wire queue whether or not POLLOUT fired: most replies
    // go out on the first attempt without ever registering for write.
    if !conn.wire.is_empty() {
        let Conn {
            ref stream,
            ref mut wire,
            ref mut wire_bytes,
            ref mut inflight,
            ..
        } = *conn;
        let progress = write_queue(stream, wire, |reply| {
            *wire_bytes = wire_bytes.saturating_sub(reply.bytes.len());
            shared.metrics.record_frame_out(reply.bytes.len() as u64);
            if reply.admission.is_some() {
                *inflight = inflight.saturating_sub(1);
            }
        });
        match progress {
            WriteProgress::Drained | WriteProgress::Blocked => {}
            WriteProgress::Broken => return Some(CloseCause::Dropped),
            WriteProgress::CloseRequested => return Some(CloseCause::Done),
        }
    }

    // Frame-completion deadline: the peer started a frame and never
    // finished it (stall or byte-drip) — reap, releasing the parked
    // mesh guard a stalled peer would otherwise pin. The clock only
    // runs while the reactor is willing to read: a pass that touched
    // a write-backlogged state (including the pass whose write drain
    // just cleared it — reads resume one pass later) re-arms the
    // deadline instead, so the throttle window is never counted
    // against the peer's frame-completion time.
    if let Some(deadline) = conn.deadline {
        if was_backlogged || conn.write_backlogged() {
            conn.deadline = Some(now + shared.config.read_timeout);
        } else if now >= deadline {
            return Some(CloseCause::Reaped);
        }
    }

    if conn.read_closed && conn.fully_replied() {
        return Some(CloseCause::Done);
    }
    None
}

/// Parse every complete frame buffered on `conn`, admitting each to
/// the worker pool or answering typed `BUSY`/stream errors in place.
fn pump_frames(shared: &Arc<Shared>, jobs: &Arc<JobQueue>, conn: &mut Conn, now: Instant) {
    loop {
        match conn.acc.step(conn.header.as_ref()) {
            FrameStep::NeedMore => return,
            FrameStep::Header(header) => {
                // A header means the frame is certainly coming: arm
                // the completion deadline and, for mesh-bound opcodes,
                // count the request in flight.
                conn.header_at = Some(now);
                if shared.config.read_timeout > Duration::ZERO {
                    conn.deadline = Some(now + shared.config.read_timeout);
                }
                if header.mesh_bound() {
                    conn.mesh_guard = Some(MeshInflightGuard::acquire(shared));
                }
                conn.header = Some(header);
            }
            FrameStep::Frame(frame) => {
                conn.header = None;
                conn.deadline = None;
                admit_frame(shared, jobs, conn, frame, now);
            }
            FrameStep::Violation(e) => {
                // Framing is unrecoverable: typed error (sequenced
                // after the replies of every valid frame before it),
                // then close once it has flushed.
                conn.abandon_partial_frame();
                shared.metrics.record_error(e.code());
                shared.log.info(
                    "error",
                    format_args!("peer={} code={} detail={e}", conn.peer, e.code().label()),
                );
                let seq = conn.next_assign;
                conn.next_assign += 1;
                conn.chan.push_reply(
                    seq,
                    Reply {
                        bytes: Frame::error(0, e.code(), &e.to_string()).to_bytes(),
                        admission: None,
                        close_after: true,
                    },
                );
                conn.read_closed = true;
                return;
            }
        }
    }
}

/// A complete frame: count it, check both backpressure gates, and
/// either hand it to the worker pool or answer typed `BUSY`.
fn admit_frame(
    shared: &Arc<Shared>,
    jobs: &Arc<JobQueue>,
    conn: &mut Conn,
    frame: Frame,
    now: Instant,
) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let op = Opcode::from_u8(frame.opcode);
    shared.metrics.record_request(op);
    shared
        .metrics
        .record_frame_in(frame_wire_bytes(frame.payload.len()));
    let seq = conn.next_assign;
    conn.next_assign += 1;
    let header_at = conn.header_at.take().unwrap_or(now);
    let mesh_guard = conn.mesh_guard.take();

    let conn_cap = shared.config.conn_inflight;
    let global_cap = shared.config.max_inflight;
    let shed_cause = if conn_cap > 0 && conn.inflight >= conn_cap {
        Some(format!(
            "connection already has {} requests in flight (cap {conn_cap}); \
             read a reply before sending more",
            conn.inflight
        ))
    } else if global_cap > 0 && shared.admitted.load(Ordering::SeqCst) >= global_cap {
        Some(format!(
            "server is at its admission limit ({global_cap} requests in flight); retry shortly"
        ))
    } else {
        None
    };
    if let Some(cause) = shed_cause {
        // Shed: the request never reaches a worker, the connection
        // stays usable, and the client sees a typed retryable error.
        drop(mesh_guard);
        let e = ServeError::Busy(cause);
        shared.metrics.record_error(ErrorCode::Busy);
        shared.metrics.record_busy();
        shared.log.info(
            "busy",
            format_args!(
                "peer={} op={} id={}",
                conn.peer,
                op.map_or("unknown", Opcode::label),
                frame.request_id
            ),
        );
        // A sampled request still leaves a (minimal) trace of the shed.
        if let Ok((Some(ctx), _)) = TraceContext::strip(frame.status, &frame.payload) {
            if ctx.sampled {
                let mut b = TraceBuilder::with_anchor(
                    ctx.id,
                    op.map_or("unknown", Opcode::label),
                    header_at,
                );
                b.attr(SpanId::ROOT, "origin", "client");
                b.attr(SpanId::ROOT, "shed", "busy");
                let read = b.record(SpanId::ROOT, stages::FRAME_READ, 0, span_ns(header_at, now));
                b.attr(read, "bytes", frame_wire_bytes(frame.payload.len()));
                shared.tracer.record(b.finish(), |_| {});
            }
        }
        conn.chan.push_reply(
            seq,
            Reply {
                bytes: Frame::error(frame.request_id, ErrorCode::Busy, &e.to_string()).to_bytes(),
                admission: None,
                close_after: false,
            },
        );
        return;
    }

    shared.admitted.fetch_add(1, Ordering::SeqCst);
    let admission = AdmissionSlot {
        shared: Arc::clone(shared),
    };
    conn.inflight += 1;
    jobs.push(Job {
        chan: Arc::clone(&conn.chan),
        seq,
        frame,
        peer: Arc::clone(&conn.peer),
        header_at,
        frame_done_at: now,
        admission,
        mesh_guard,
    });
}

/// Tear one connection down: mark the outbox closed (late worker
/// replies are dropped, their admission slots released), balance the
/// gauge and log the disconnect.
fn close_conn(shared: &Arc<Shared>, conn: Conn, cause: &CloseCause) {
    conn.chan.close();
    if let CloseCause::Reaped = cause {
        shared.metrics.record_reap();
        shared.log.info(
            "reap",
            format_args!(
                "peer={} timeout_ms={}",
                conn.peer,
                shared.config.read_timeout.as_millis()
            ),
        );
    }
    shared.metrics.connection_closed();
    shared
        .log
        .info("disconnect", format_args!("peer={}", conn.peer));
    // `conn` drops here: wire queue (and any admission slots inside),
    // parked mesh guard, and the socket itself.
}

/// Worker side: run one admitted request end to end and park its reply
/// in the connection's outbox.
fn process_job(shared: &Arc<Shared>, job: Job) {
    let picked_up = Instant::now();
    let Job {
        chan,
        seq,
        frame,
        peer,
        header_at,
        frame_done_at,
        admission,
        mesh_guard,
    } = job;
    let op = Opcode::from_u8(frame.opcode);
    let request_id = frame.request_id;
    // Split off the trace-context prefix (if any) before the payload
    // reaches any handler; a malformed prefix is a request-level error
    // (typed reply, connection kept).
    let stripped = TraceContext::strip(frame.status, &frame.payload);
    let (trace_ctx, body) = match &stripped {
        Ok((ctx, body)) => (*ctx, *body),
        Err(_) => (None, &frame.payload[..]),
    };
    // Span recording is armed when the client asked for sampling, or
    // for mesh-bound requests whenever slow capture is on (a slow
    // request can only land in the slow buffer if its spans were
    // built). Untraced requests still feed the stage histograms.
    let mesh_bound = matches!(op, Some(Opcode::Encode | Opcode::Decode));
    let traced = trace_ctx.is_some_and(|c| c.sampled)
        || (mesh_bound && shared.config.slow_threshold > Duration::ZERO);
    let trace = traced.then(|| {
        let (id, origin) = match trace_ctx {
            Some(c) => (c.id, "client"),
            None => (
                SELF_TRACE_ID_BASE | shared.self_trace_seq.fetch_add(1, Ordering::Relaxed),
                "slow",
            ),
        };
        let mut b = TraceBuilder::with_anchor(id, op.map_or("unknown", Opcode::label), header_at);
        b.attr(SpanId::ROOT, "origin", origin);
        b
    });
    let mut rec = StageRecorder::new(op.map(|op| (&*shared.metrics, op)), trace);
    let read = rec.record(stages::FRAME_READ, header_at, frame_done_at);
    rec.attr(read, "bytes", frame_wire_bytes(frame.payload.len()));
    rec.record(stages::QUEUE_WAIT, frame_done_at, picked_up);
    // A panicking handler costs its request, never its worker thread.
    let outcome = stripped.and_then(|_| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch(shared, op, frame.opcode, body, &mut rec)
        }))
        .unwrap_or_else(|_| Err(ServeError::Internal("the request handler panicked".into())))
    });
    let reply = match outcome {
        Ok((op, payload)) => Frame::reply(op, request_id, payload),
        Err(e) => {
            shared.metrics.record_error(e.code());
            shared.log.info(
                "error",
                format_args!("peer={peer} code={} detail={e}", e.code().label()),
            );
            Frame::error(request_id, e.code(), &e.to_string())
        }
    };
    // Serialize here (the reply_write stage covers building the wire
    // bytes and handing them to the reactor; the socket write itself
    // is asynchronous). An over-limit reply (InvalidInput) is a
    // request-level outcome: tell the client with a typed frame.
    let write_start = Instant::now();
    let mut wire = Vec::with_capacity(HEADER_LEN + reply.payload.len() + 4);
    let mut reply_payload_len = reply.payload.len();
    if let Err(e) = reply.write_to(&mut wire) {
        wire.clear();
        let fallback = Frame::error(request_id, ErrorCode::Internal, &e.to_string());
        reply_payload_len = fallback.payload.len();
        fallback
            .write_to(&mut wire)
            .expect("error frames are always under the payload limit");
    }
    let write = rec.record(stages::REPLY_WRITE, write_start, Instant::now());
    rec.attr(write, "bytes", frame_wire_bytes(reply_payload_len));
    // Finish and record the trace *before* parking the reply: a client
    // that sends TRACE right after receiving this reply on the same
    // connection is guaranteed to find its trace.
    if let Some(trace) = rec.finish() {
        shared.tracer.record(trace, |trace| {
            shared.log.warn(
                "slow",
                format_args!(
                    "peer={peer} id={} op={} total={} {}",
                    trace.id_hex(),
                    trace.name(),
                    fmt_ns(trace.duration_ns()),
                    stages::flat(trace),
                ),
            );
        });
    }
    let latency_ns = span_ns(frame_done_at, Instant::now());
    shared.metrics.record_latency(op, latency_ns);
    shared.log.debug(
        "request",
        format_args!(
            "peer={peer} op={} id={request_id} latency_ns={latency_ns}",
            op.map_or("unknown", Opcode::label)
        ),
    );
    // Released before the reply, so a client that reads its reply and
    // then polls STATS never sees its own request still in flight.
    drop(mesh_guard);
    let delivered = chan.push_reply(
        seq,
        Reply {
            bytes: wire,
            admission: Some(Box::new(admission)),
            close_after: false,
        },
    );
    if delivered {
        shared.waker.wake();
    }
    // !delivered: the connection died while we worked; the reply is
    // dropped and the admission slot released right here.
}

/// Route one well-framed request; every failure comes back typed.
/// `payload` is the request body with any trace-context prefix already
/// stripped; `rec` records the request's stages.
fn dispatch(
    shared: &Shared,
    op: Option<Opcode>,
    opcode_byte: u8,
    payload: &[u8],
    rec: &mut StageRecorder,
) -> Result<(Opcode, Vec<u8>)> {
    match op {
        Some(Opcode::Encode) => handle_encode(shared, payload, rec),
        Some(Opcode::Decode) => handle_decode(shared, payload, rec),
        Some(Opcode::LoadModel) => {
            let id = shared.store.insert_bytes(payload)?;
            Ok((Opcode::LoadModel, id.to_le_bytes().to_vec()))
        }
        Some(Opcode::Info) => handle_info(shared, payload),
        Some(Opcode::ListModels) => {
            if !payload.is_empty() {
                return Err(ServeError::BadRequest(format!(
                    "LIST_MODELS takes no payload, got {} bytes",
                    payload.len()
                )));
            }
            let entries = shared.store.list()?;
            Ok((
                Opcode::ListModels,
                crate::protocol::model_list_to_payload(&entries),
            ))
        }
        Some(Opcode::Stats) => {
            if !payload.is_empty() {
                return Err(ServeError::BadRequest(format!(
                    "STATS takes no payload, got {} bytes",
                    payload.len()
                )));
            }
            Ok((Opcode::Stats, shared.metrics.stats_json().into_bytes()))
        }
        Some(Opcode::Trace) => handle_trace(shared, payload),
        _ => Err(ServeError::BadRequest(format!(
            "opcode {opcode_byte:#04x} names no request this build understands"
        ))),
    }
}

/// The `TRACE` RPC: recent or slow captured traces as JSON, optionally
/// filtered to one id.
fn handle_trace(shared: &Shared, payload: &[u8]) -> Result<(Opcode, Vec<u8>)> {
    let (slow, id) = parse_trace_request(payload)?;
    let mut traces = if slow {
        shared.tracer.slow()
    } else {
        shared.tracer.recent()
    };
    if let Some(id) = id {
        traces.retain(|t| t.id == id);
    }
    Ok((Opcode::Trace, qn_trace::traces_json(&traces).into_bytes()))
}

fn handle_encode(
    shared: &Shared,
    payload: &[u8],
    rec: &mut StageRecorder,
) -> Result<(Opcode, Vec<u8>)> {
    let req = rec.time(stages::PARSE, || EncodeRequest::from_payload(payload))?;
    let codec: Arc<Codec> = if req.flags & ENC_FLAG_USE_MODEL_ID != 0 {
        shared.store.get(req.model_id)?
    } else {
        Arc::new(rec.time(stages::SPECTRAL, || {
            Codec::spectral_for_image(&req.image, req.tile_size as usize, req.latent_dim as usize)
        })?)
    };
    let opts = CodecOptions {
        tile_size: req.tile_size as usize,
        bits: req.bits,
        per_tile_scale: req.flags & ENC_FLAG_PER_TILE_SCALE != 0,
        inline_model: req.flags & ENC_FLAG_INLINE_MODEL != 0,
        entropy: req.entropy,
        ..CodecOptions::default()
    };
    let (bytes, _) = rec.encode(&codec, &req.image, &opts)?;
    shared
        .metrics
        .record_coded_bytes(req.entropy, bytes.len() as u64);
    Ok((Opcode::Encode, bytes))
}

/// Most pixels a served decode may produce: the decoded image must fit
/// one reply frame (`8 bytes/pixel + the 8-byte image header`). This
/// also bounds the parse itself — a crafted header can otherwise
/// declare hundreds of millions of (empty) tiles inside a small
/// payload and drive multi-GB allocations before any reply is built.
const MAX_DECODE_PIXELS: u64 = ((crate::protocol::MAX_PAYLOAD - 8) / 8) as u64;

/// Reject container bytes whose *declared* image dimensions exceed the
/// serving limit, reading only the fixed-offset header fields — called
/// before `Container::from_bytes` so the tile vector of an
/// allocation-bomb header is never materialised. Applies only to
/// structurally authentic bytes (magic, length and CRC check out);
/// anything else passes through for the full parser's precise typed
/// error.
fn check_container_dims(payload: &[u8]) -> Result<()> {
    use qn_codec::bitstream::crc32;
    if payload.len() < 40 || payload[..4] != qn_codec::container::CONTAINER_MAGIC {
        return Ok(());
    }
    let (body, crc_bytes) = payload.split_at(payload.len() - 4);
    if u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) != crc32(body) {
        return Ok(());
    }
    let width = u64::from(u32::from_le_bytes(
        payload[16..20].try_into().expect("4 bytes"),
    ));
    let height = u64::from(u32::from_le_bytes(
        payload[20..24].try_into().expect("4 bytes"),
    ));
    if width.saturating_mul(height) > MAX_DECODE_PIXELS {
        return Err(ServeError::BadRequest(format!(
            "container declares a {width}x{height} image; this server decodes at most \
             {MAX_DECODE_PIXELS} pixels per request (the reply-frame limit)"
        )));
    }
    Ok(())
}

fn handle_decode(
    shared: &Shared,
    payload: &[u8],
    rec: &mut StageRecorder,
) -> Result<(Opcode, Vec<u8>)> {
    check_container_dims(payload)?;
    let container = rec.time(stages::PARSE, || Container::from_bytes(payload))?;
    let codec: Arc<Codec> = if container.header.inline_model() {
        Arc::new(codec_from_inline(&container)?)
    } else {
        shared.store.get(container.header.model_id)?
    };
    let img = rec.decode(&codec, &container)?;
    if let Ok(coder) = container.header.entropy() {
        shared
            .metrics
            .record_decoded_bytes(coder, payload.len() as u64);
    }
    Ok((Opcode::Decode, image_to_payload(&img)))
}

fn handle_info(shared: &Shared, payload: &[u8]) -> Result<(Opcode, Vec<u8>)> {
    let json = if payload.is_empty() {
        server_info_json(shared)
    } else {
        // INFO parses containers too — same header-bomb guard as DECODE.
        if payload.starts_with(&qn_codec::container::CONTAINER_MAGIC) {
            check_container_dims(payload)?;
        }
        info::file_info_json(payload)?
    };
    Ok((Opcode::Info, json.into_bytes()))
}

/// Server status as single-line JSON (the empty-payload `INFO` reply).
/// `metrics` and `tracing` are always `true`: protocol-v1 clients
/// feature-detect `STATS` and `TRACE` through them.
fn server_info_json(shared: &Shared) -> String {
    let mut store_dir = String::new();
    match shared.store.dir() {
        Some(d) => write_json_string(&mut store_dir, &d.display().to_string()),
        None => store_dir.push_str("null"),
    }
    format!(
        "{{\"format\":\"qn-serve\",\"protocol_version\":{PROTOCOL_VERSION},\
         \"server_version\":\"{}\",\"uptime_secs\":{},\"metrics\":true,\
         \"tracing\":true,\"slow_ms\":{},\"read_timeout_ms\":{},\
         \"workers\":{},\"max_inflight\":{},\"conn_inflight\":{},\"max_conns\":{},\
         \"models_cached\":{},\"store_dir\":{store_dir},\
         \"requests_served\":{}}}",
        env!("CARGO_PKG_VERSION"),
        shared.started.elapsed().as_secs(),
        shared.config.slow_threshold.as_millis(),
        shared.config.read_timeout.as_millis(),
        shared.config.workers,
        shared.config.max_inflight,
        shared.config.conn_inflight,
        shared.config.max_conns,
        shared.store.cached_len(),
        shared.requests.load(Ordering::Relaxed),
    )
}
