//! The connection core: one reactor thread per core, each owning its
//! connections and all their state through `poll(2)` (see the crate's
//! `reactor` module). Reactor 0 also owns the listener and hands
//! accepted sockets out round-robin. Complete frames are
//! admission-checked. A cheap ENCODE or DECODE (one default panel of
//! work against a model the zoo holds in RAM) then runs to completion
//! on the reactor that read it; everything else goes to a bounded
//! worker pool, and each worker sends its reply on its connection's own
//! channel and wakes that connection's reactor. Both paths release
//! replies in request order. Idle connections cost no threads; a
//! slow-reading peer stalls only its own connection.
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
//! `Internal` error and keeps its reactor or worker.
//!
//! One request runner serves both paths: ENCODE and DECODE call the
//! codec's own schedule, mesh pass included, exactly as offline `qnc`
//! does, on the default `simd` backend — the server offers no backend
//! choice, and its replies are byte-identical to the scalar oracle's.
//! A [`StageRecorder`] times every stage of the request once — frame
//! read, queue wait, parse, the codec's named stages (the schedule runs
//! them through the recorder), reply write — into the `serve_stage_ns`
//! histograms, and into the span tree when the request is traced. An
//! inline request's queue wait runs from frame completion to the start
//! of its run on the reactor.
//!
//! Telemetry has no off switch: every server keeps its
//! [`ServeMetrics`] and a [`Tracer`], and the `STATS` and `TRACE` RPCs
//! always answer.

use crate::error::{Result, ServeError};
use crate::log::{LogLevel, Logger};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    image_payload_len, parse_trace_request, EncodeRequest, ErrorCode, Frame, FrameHeader, Opcode,
    TraceContext, ENC_FLAG_INLINE_MODEL, ENC_FLAG_PER_TILE_SCALE, ENC_FLAG_USE_MODEL_ID,
    HEADER_LEN, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use crate::reactor::{
    earliest, read_available, FrameAccumulator, FrameStep, Interest, Poller, WakePipe, Waker,
};
use crate::stages::{self, span_ns, StageRecorder};
use crate::store::ModelStore;
use qn_codec::container::{CONTAINER_MAGIC, FLAG_INLINE_MODEL};
use qn_codec::pipeline::codec_from_inline;
use qn_codec::stage::Stages;
use qn_codec::{info, BackendKind, Codec, CodecOptions, Container, DEFAULT_PANEL_WIDTH};
use qn_image::GrayImage;
use qn_trace::{fmt_ns, write_json_string, SpanId, TraceBuilder, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
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

/// Tunables for [`spawn`]. Thread counts are not among them: a server
/// runs one reactor per unit of `available_parallelism` and
/// `max(available_parallelism, 8)` request workers, and INFO reports
/// both.
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
    /// Global admission cap: requests admitted (parsed and run on a
    /// reactor or handed to the worker pool, reply not yet fully
    /// written) beyond this answer a typed `BUSY` error instead of
    /// queueing. Zero = unlimited.
    pub max_inflight: usize,
    /// Per-connection admission cap: one pipelining peer beyond this
    /// many in-flight requests gets typed `BUSY` replies instead of
    /// monopolising the worker pool. Zero = unlimited.
    pub conn_inflight: usize,
    /// Open-connection cap, over every reactor: accepts beyond this
    /// answer one typed `BUSY` error frame and close. Zero (the
    /// default) = unlimited (the process fd limit is then the real
    /// bound).
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
    /// Request workers running: `max(available_parallelism, 8)`, read
    /// once at spawn, so INFO reports the pool that runs.
    workers: usize,
    /// Requests admitted past the backpressure gate: taken by the
    /// reactor that read a complete frame clearing both caps, released
    /// (via [`AdmissionSlot`] drop) when the reply is fully written or
    /// its connection dies. Every reactor admits, so the cap check and
    /// the increment are one compare-and-swap ([`try_admit`]), which
    /// cannot overshoot [`ServerConfig::max_inflight`].
    admitted: AtomicUsize,
    /// Open connections over every reactor: counted by reactor 0 at
    /// accept, where it is checked against [`ServerConfig::max_conns`],
    /// and released in [`close_conn`] by the connection's own reactor.
    /// Only reactor 0 increments, so its check cannot overshoot.
    open_conns: AtomicUsize,
    shutdown: AtomicBool,
    /// One port per reactor, by index; reactor 0 owns the listener.
    reactors: Vec<ReactorPort>,
    /// Telemetry; `STATS` serves its registry, and INFO reads its
    /// uptime and request count.
    metrics: Arc<ServeMetrics>,
    /// Trace sink. A request's spans are built only when its context
    /// asks for sampling or slow capture is armed.
    tracer: Tracer,
    /// Ids for server-originated (slow-capture) traces.
    self_trace_seq: AtomicU64,
    log: Logger,
}

/// An accepted socket and its peer's address.
type Accepted = (TcpStream, Arc<str>);

/// How other threads reach one reactor.
struct ReactorPort {
    /// Sockets reactor 0 accepted for this reactor, not yet adopted.
    /// `None` once the reactor has exited: reactor 0 then keeps what it
    /// accepts for it.
    inbox: Mutex<Option<Vec<Accepted>>>,
    /// Wakes the reactor's poll wait: reactor 0 after a hand-out,
    /// workers after sending a reply, [`ServerHandle::stop`] after
    /// raising `shutdown`.
    waker: Arc<Waker>,
}

/// Take one unit of `admitted` unless `cap` units are already out
/// (`cap` zero = unlimited). One compare-and-swap, so any number of
/// threads admitting at once never push the count past the cap.
fn try_admit(admitted: &AtomicUsize, cap: usize) -> bool {
    admitted
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (cap == 0 || n < cap).then_some(n + 1)
        })
        .is_ok()
}

/// Releases one unit of the global admission count on drop. Acquired
/// by a reactor at frame admission, carried with the request into its
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

/// One admitted request, as [`run_request`] takes it on either path.
struct Request {
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

/// An admitted request that does not run inline, on its way to a
/// worker: the request plus where its reply goes.
struct Job {
    /// The connection's reply channel.
    reply_to: Sender<(u64, Reply)>,
    /// The waker of the reactor that owns the connection.
    waker: Arc<Waker>,
    /// This frame's position in its connection's reply order.
    seq: u64,
    request: Request,
}

/// The bounded handoff between the reactors and the worker pool.
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
/// [`ServerHandle::shutdown`]) stops the reactors, drains in-flight
/// replies within [`ServerConfig::shutdown_grace`] and joins every
/// server thread — no connection handler outlives the handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    jobs: Arc<JobQueue>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests received so far: every complete frame, counted on
    /// arrival whatever its reply (success, typed error or `BUSY`) —
    /// `serve_requests_total` summed over `op`.
    pub fn requests_served(&self) -> u64 {
        self.shared.metrics.requests_total()
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
        // A byte into each wakeup pipe interrupts every reactor's poll
        // wait wherever it is parked — unlike the old self-connect
        // trick, this cannot hang on a wildcard (0.0.0.0) bind where
        // the listen address is not connectable.
        for port in &self.shared.reactors {
            port.waker.wake();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        // The reactors have drained (or force-closed) every connection;
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

/// Bind and start serving on background threads: one reactor per unit
/// of `available_parallelism` (`qn-serve-reactor-{k}`) and
/// `max(available_parallelism, 8)` workers (`qn-serve-worker-{i}`),
/// which run every request that does not run on its reactor: fits,
/// inline-model decodes, images past one panel, requests naming a
/// model not in RAM, and every other opcode.
///
/// # Errors
/// Bind/listen failures, wakeup-pipe creation, zoo-directory creation
/// and thread-spawn failures.
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
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let pipes = (0..cores)
        .map(|_| WakePipe::new())
        .collect::<std::io::Result<Vec<_>>>()?;
    let metrics = Arc::new(ServeMetrics::new());
    let store = ModelStore::new(
        config.store_dir.clone(),
        config.model_cache,
        metrics.store_metrics(),
    )?;
    let tracer = Tracer::new(TRACE_RECENT_CAP, TRACE_SLOW_CAP, config.slow_threshold);
    let worker_count = cores.max(8);
    let shared = Arc::new(Shared {
        store,
        log: Logger::new(config.log_level),
        config,
        workers: worker_count,
        admitted: AtomicUsize::new(0),
        open_conns: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        reactors: pipes
            .iter()
            .map(|pipe| ReactorPort {
                inbox: Mutex::new(Some(Vec::new())),
                waker: pipe.waker(),
            })
            .collect(),
        metrics,
        tracer,
        self_trace_seq: AtomicU64::new(1),
    });
    let jobs = Arc::new(JobQueue::new());
    // Every thread is joined through the handle, so a failed spawn
    // below stops the threads started before it.
    let mut handle = ServerHandle {
        addr,
        shared: Arc::clone(&shared),
        reactors: Vec::with_capacity(pipes.len()),
        workers: Vec::with_capacity(worker_count),
        jobs: Arc::clone(&jobs),
    };
    for i in 0..worker_count {
        let shared = Arc::clone(&shared);
        let jobs = Arc::clone(&jobs);
        handle.workers.push(
            std::thread::Builder::new()
                .name(format!("qn-serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = jobs.pop() {
                        process_job(&shared, job);
                    }
                })?,
        );
    }
    let mut listener = Some(listener);
    for (k, wake) in pipes.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let jobs = Arc::clone(&jobs);
        // Reactor 0 takes the listener.
        let listener = listener.take();
        handle.reactors.push(
            std::thread::Builder::new()
                .name(format!("qn-serve-reactor-{k}"))
                .spawn(move || reactor_loop(&shared, k, listener, wake, &jobs))?,
        );
    }
    Ok(handle)
}

/// One connection, owned by one reactor for life: the socket, read
/// buffer, frame being read, reply order and wire queue. Workers hold
/// only clones of `reply_to` and `waker`; a reply sent after the
/// connection has gone fails to send and is dropped in the worker.
struct Conn {
    stream: TcpStream,
    peer: Arc<str>,
    /// Cloned into every [`Job`]: workers send `(seq, reply)` here.
    reply_to: Sender<(u64, Reply)>,
    /// The owning reactor's waker, cloned into every [`Job`] beside
    /// `reply_to`.
    waker: Arc<Waker>,
    /// Worker replies, in the order they finished.
    replies: Receiver<(u64, Reply)>,
    /// Replies not yet released, by sequence number: worker replies
    /// taken off `replies`, and the reactor's own: inline requests'
    /// replies, `BUSY` and stream errors.
    ready: BTreeMap<u64, Reply>,
    acc: FrameAccumulator,
    /// The frame whose header has arrived and whose rest has not.
    partial: Option<PartialFrame>,
    /// Sequence number the next parsed frame gets.
    next_assign: u64,
    /// Sequence number the next wire-bound reply must carry.
    next_release: u64,
    /// Replies released in sequence order, mid-write.
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

/// What the reactor learned at a frame's header, kept until the frame
/// completes or is abandoned. Dropping it releases the in-flight gauge
/// unit of a half-read mesh-bound frame.
struct PartialFrame {
    /// The validated header.
    header: FrameHeader,
    /// When the header arrived (trace anchor).
    header_at: Instant,
    /// Frame-completion deadline; `None` with the read timeout off.
    deadline: Option<Instant>,
    /// In-flight gauge unit, for mesh-bound opcodes.
    mesh_guard: Option<MeshInflightGuard>,
}

impl Conn {
    fn new(stream: TcpStream, peer: Arc<str>, waker: Arc<Waker>) -> Conn {
        let (reply_to, replies) = mpsc::channel();
        Conn {
            stream,
            peer,
            reply_to,
            waker,
            replies,
            ready: BTreeMap::new(),
            acc: FrameAccumulator::default(),
            partial: None,
            next_assign: 0,
            next_release: 0,
            wire: VecDeque::new(),
            wire_bytes: 0,
            inflight: 0,
            read_closed: false,
            slot: None,
        }
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

/// One finished reply: sent by a worker on its connection's channel
/// (or made by the reactor itself, inline requests' replies included),
/// then held by the reactor until every reply before it in sequence
/// order has been released.
struct Reply {
    /// Complete wire bytes of the reply frame.
    bytes: Vec<u8>,
    /// The admission slot this reply's request holds; dropped (and the
    /// global in-flight count released) once the reply is fully
    /// written — or discarded with the connection. `None` for a `BUSY`
    /// shed or a stream error, which were never admitted.
    admission: Option<AdmissionSlot>,
    /// Close the connection once this reply has flushed (stream-level
    /// errors: framing is lost, nothing after this is parseable).
    close_after: bool,
}

/// A reply frame mid-write: wire bytes plus the write cursor.
struct WireReply {
    /// The released reply being written.
    reply: Reply,
    /// Bytes already written.
    cursor: usize,
}

/// Outcome of pushing one connection's wire queue toward the socket.
enum WriteProgress {
    /// Everything queued has been written.
    Drained,
    /// The socket stopped accepting bytes (register for `POLLOUT`).
    Blocked,
    /// The peer is gone; close the connection.
    Broken,
    /// A reply with `close_after` finished writing; close now.
    CloseRequested,
}

/// Write as much of `queue` as the nonblocking stream accepts,
/// invoking `on_written` with each fully flushed reply.
fn write_queue(
    stream: &TcpStream,
    queue: &mut VecDeque<WireReply>,
    mut on_written: impl FnMut(&Reply),
) -> WriteProgress {
    while let Some(front) = queue.front_mut() {
        while front.cursor < front.reply.bytes.len() {
            match (&mut &*stream).write(&front.reply.bytes[front.cursor..]) {
                Ok(0) => return WriteProgress::Broken,
                Ok(n) => front.cursor += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteProgress::Blocked
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteProgress::Broken,
            }
        }
        let done = queue.pop_front().expect("front exists");
        on_written(&done.reply);
        if done.reply.close_after {
            return WriteProgress::CloseRequested;
        }
    }
    WriteProgress::Drained
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

/// Reactor `index`: owns its wakeup pipe and its connections (and, for
/// reactor 0, the listener); never blocks anywhere but `poll`.
fn reactor_loop(
    shared: &Arc<Shared>,
    index: usize,
    mut listener: Option<TcpListener>,
    mut wake: WakePipe,
    jobs: &Arc<JobQueue>,
) {
    let port = &shared.reactors[index];
    let mut poller = Poller::new();
    let mut conns: Vec<Conn> = Vec::new();
    // Set once shutdown is observed: the drain deadline after which
    // remaining connections are force-closed.
    let mut drain_deadline: Option<Instant> = None;
    // Set after a persistent accept failure: the listener stays
    // unregistered until this instant (see [`ACCEPT_BACKOFF`]).
    let mut accept_backoff: Option<Instant> = None;
    // Accepted sockets so far: the round-robin cursor of reactor 0.
    let mut accepted = 0usize;

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
                conn.partial = None;
            }
        }
        // Adopt the sockets reactor 0 handed over, drain iterations
        // included, so every accepted socket has an owner at shutdown
        // (one adopted while draining is read no more, like the rest).
        if let Some(inbox) = port.inbox.lock().expect("inbox poisoned").as_mut() {
            for (stream, peer) in inbox.drain(..) {
                let mut conn = Conn::new(stream, peer, Arc::clone(&port.waker));
                conn.read_closed = drain_deadline.is_some();
                conns.push(conn);
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
                wake_at = earliest(wake_at, conn.partial.as_ref().and_then(|p| p.deadline));
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

        // Accept burst (reactor 0).
        if let (Some(l), Some(slot)) = (&listener, listen_slot) {
            if poller.readiness(slot).any() && accept_burst(shared, l, &mut conns, &mut accepted) {
                accept_backoff = Some(Instant::now() + ACCEPT_BACKOFF);
            }
        }

        // Service every connection: read & parse, release replies,
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
            if conns.is_empty() || Instant::now() >= grace {
                // Retire the inbox, so reactor 0 keeps whatever it
                // still accepts, and close what it held with the rest.
                let left = port.inbox.lock().expect("inbox poisoned").take();
                for (stream, peer) in left.into_iter().flatten() {
                    conns.push(Conn::new(stream, peer, Arc::clone(&port.waker)));
                }
                for conn in conns.drain(..) {
                    close_conn(shared, conn, &CloseCause::Dropped);
                }
                return;
            }
        }
    }
}

/// Give an accepted socket to the next reactor in round-robin order:
/// into its inbox, with a wakeup, or into `conns` when it is reactor 0
/// itself or has already exited.
fn hand_out(
    shared: &Shared,
    conns: &mut Vec<Conn>,
    accepted: &mut usize,
    stream: TcpStream,
    peer: Arc<str>,
) {
    let k = *accepted % shared.reactors.len();
    *accepted = accepted.wrapping_add(1);
    if k != 0 {
        let port = &shared.reactors[k];
        if let Some(inbox) = port.inbox.lock().expect("inbox poisoned").as_mut() {
            inbox.push((stream, peer));
            port.waker.wake();
            return;
        }
    }
    conns.push(Conn::new(
        stream,
        peer,
        Arc::clone(&shared.reactors[0].waker),
    ));
}

/// Accept until `WouldBlock`, shedding over-cap connections with one
/// typed `BUSY` frame and handing the rest out ([`hand_out`]). Returns
/// `true` when a persistent accept failure was hit and the caller
/// should back the listener off.
fn accept_burst(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    accepted: &mut usize,
) -> bool {
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
        if max_conns > 0 && shared.open_conns.load(Ordering::SeqCst) >= max_conns {
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
        shared.open_conns.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connection_opened();
        shared.log.info("connect", format_args!("peer={peer}"));
        hand_out(shared, conns, accepted, stream, peer);
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
                    conn.partial = None;
                }
            }
            Err(_) => return Some(CloseCause::Dropped),
        }
    }

    // Release every reply that is next in sequence order.
    conn.ready.extend(conn.replies.try_iter());
    while let Some(reply) = conn.ready.remove(&conn.next_release) {
        conn.next_release += 1;
        conn.wire_bytes += reply.bytes.len();
        conn.wire.push_back(WireReply { reply, cursor: 0 });
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
    // finished it (stall or byte-drip) — reap, releasing the partial
    // frame's mesh guard a stalled peer would otherwise pin. The clock
    // only runs while the reactor is willing to read: a pass that touched
    // a write-backlogged state (including the pass whose write drain
    // just cleared it — reads resume one pass later) re-arms the
    // deadline instead, so the throttle window is never counted
    // against the peer's frame-completion time.
    let backlogged = was_backlogged || conn.write_backlogged();
    if let Some(deadline) = conn.partial.as_mut().and_then(|p| p.deadline.as_mut()) {
        if backlogged {
            *deadline = now + shared.config.read_timeout;
        } else if now >= *deadline {
            return Some(CloseCause::Reaped);
        }
    }

    if conn.read_closed && conn.fully_replied() {
        return Some(CloseCause::Done);
    }
    None
}

/// Parse every complete frame buffered on `conn`, admitting each
/// ([`admit_frame`]) or answering a stream error in place.
fn pump_frames(shared: &Arc<Shared>, jobs: &Arc<JobQueue>, conn: &mut Conn, now: Instant) {
    loop {
        match conn.acc.step(conn.partial.as_ref().map(|p| &p.header)) {
            FrameStep::NeedMore => return,
            FrameStep::Header(header) => {
                // A header means the frame is certainly coming: arm
                // the completion deadline and, for mesh-bound opcodes,
                // count the request in flight.
                let timeout = shared.config.read_timeout;
                conn.partial = Some(PartialFrame {
                    header_at: now,
                    deadline: (timeout > Duration::ZERO).then(|| now + timeout),
                    mesh_guard: header
                        .mesh_bound()
                        .then(|| MeshInflightGuard::acquire(shared)),
                    header,
                });
            }
            FrameStep::Frame(frame) => {
                let partial = conn
                    .partial
                    .take()
                    .expect("a frame completes only after its header");
                admit_frame(shared, jobs, conn, frame, partial, now);
            }
            FrameStep::Violation(e) => {
                // Framing is unrecoverable: typed error (sequenced
                // after the replies of every valid frame before it),
                // then close once it has flushed.
                conn.partial = None;
                shared.metrics.record_error(e.code());
                shared.log.info(
                    "error",
                    format_args!("peer={} code={} detail={e}", conn.peer, e.code().label()),
                );
                let seq = conn.next_assign;
                conn.next_assign += 1;
                conn.ready.insert(
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

/// A complete frame: count it, check both backpressure gates, and then
/// run it here ([`runs_inline`]), hand it to the worker pool, or answer
/// typed `BUSY`.
fn admit_frame(
    shared: &Arc<Shared>,
    jobs: &Arc<JobQueue>,
    conn: &mut Conn,
    frame: Frame,
    partial: PartialFrame,
    now: Instant,
) {
    let op = Opcode::from_u8(frame.opcode);
    shared.metrics.record_request(op);
    shared
        .metrics
        .record_frame_in(frame_wire_bytes(frame.payload.len()));
    let seq = conn.next_assign;
    conn.next_assign += 1;
    let PartialFrame {
        header_at,
        mesh_guard,
        ..
    } = partial;

    let conn_cap = shared.config.conn_inflight;
    let global_cap = shared.config.max_inflight;
    let shed_cause = if conn_cap > 0 && conn.inflight >= conn_cap {
        Some(format!(
            "connection already has {} requests in flight (cap {conn_cap}); \
             read a reply before sending more",
            conn.inflight
        ))
    } else if !try_admit(&shared.admitted, global_cap) {
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
        conn.ready.insert(
            seq,
            Reply {
                bytes: Frame::error(frame.request_id, ErrorCode::Busy, &e.to_string()).to_bytes(),
                admission: None,
                close_after: false,
            },
        );
        return;
    }

    // `try_admit` took the admission unit above.
    let admission = AdmissionSlot {
        shared: Arc::clone(shared),
    };
    conn.inflight += 1;
    let request = Request {
        peer: Arc::clone(&conn.peer),
        header_at,
        frame_done_at: now,
        admission,
        mesh_guard,
        frame,
    };
    if runs_inline(shared, &request.frame) {
        // No queue hop and no wakeup: the reply waits in `ready` for
        // its turn, like every other.
        conn.ready.insert(seq, run_request(shared, request));
    } else {
        jobs.push(Job {
            reply_to: conn.reply_to.clone(),
            waker: Arc::clone(&conn.waker),
            seq,
            request,
        });
    }
}

/// Largest tile edge a request may use and still run inline: 16 modes,
/// the paper's 4×4 tiles.
const INLINE_MAX_TILE: u64 = 4;

/// The `n`-byte little-endian field at `at` of `body`, if it holds one.
fn le_field(body: &[u8], at: usize, n: usize) -> Option<u64> {
    let bytes = body.get(at..at + n)?;
    Some(bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b)))
}

/// Whether an admitted frame runs inline on the reactor that read it.
/// It must need no fit and no model parse (an ENCODE by model id, or a
/// DECODE of a container without an inline model), be one default
/// panel of work (tiles of at most [`INLINE_MAX_TILE`] pixels, at most
/// [`DEFAULT_PANEL_WIDTH`] of them, so the codec never forks), and name
/// a model the zoo holds in RAM, so a reactor never waits on the pool or
/// the disk. Reads fixed offsets of the body only: anything short or
/// malformed goes to the workers, which answer it as before.
fn runs_inline(shared: &Shared, frame: &Frame) -> bool {
    let Ok((_, body)) = TraceContext::strip(frame.status, &frame.payload) else {
        return false;
    };
    // ENCODE: tile size at bytes 0..2 and flags at 3. DECODE (a
    // container): flags at 6..8 and tile size at 24..26. Both put the
    // model id at 8..16 and the width and height at 16..24.
    let (by_model_id, tile_at) = match Opcode::from_u8(frame.opcode) {
        Some(Opcode::Encode) => (
            le_field(body, 3, 1).is_some_and(|f| f & u64::from(ENC_FLAG_USE_MODEL_ID) != 0),
            0,
        ),
        Some(Opcode::Decode) => (
            body.starts_with(&CONTAINER_MAGIC)
                && le_field(body, 6, 2).is_some_and(|f| f & u64::from(FLAG_INLINE_MODEL) == 0),
            24,
        ),
        _ => return false,
    };
    let (Some(tile), Some(id), Some(width), Some(height)) = (
        le_field(body, tile_at, 2),
        le_field(body, 8, 8),
        le_field(body, 16, 4),
        le_field(body, 20, 4),
    ) else {
        return false;
    };
    by_model_id
        && (1..=INLINE_MAX_TILE).contains(&tile)
        && width.div_ceil(tile).saturating_mul(height.div_ceil(tile)) <= DEFAULT_PANEL_WIDTH as u64
        && shared.store.cached(id)
}

/// Tear one connection down: balance the gauges and log the
/// disconnect. Dropping the connection drops its reply receiver, so a
/// worker still running one of its requests fails to send the reply and
/// drops it, releasing its admission slot.
fn close_conn(shared: &Arc<Shared>, conn: Conn, cause: &CloseCause) {
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
    shared.open_conns.fetch_sub(1, Ordering::SeqCst);
    shared.metrics.connection_closed();
    shared
        .log
        .info("disconnect", format_args!("peer={}", conn.peer));
    // `conn` drops here: the replies received or still in its channel
    // and its wire queue (with their admission slots), the half-read
    // frame's mesh guard, and the socket itself.
}

/// Worker side: run one request that did not run inline, send its
/// reply on the connection's channel and wake the connection's reactor.
fn process_job(shared: &Arc<Shared>, job: Job) {
    let Job {
        reply_to,
        waker,
        seq,
        request,
    } = job;
    let reply = run_request(shared, request);
    // A failed send means the connection died while we worked: the
    // reply, and its admission slot, drop right here.
    if reply_to.send((seq, reply)).is_ok() {
        waker.wake();
    }
}

/// Run one admitted request end to end and serialize its reply: the
/// one request runner, on a reactor for inline requests and on a worker
/// for the rest. Its queue wait runs from frame completion to now.
fn run_request(shared: &Shared, request: Request) -> Reply {
    let picked_up = Instant::now();
    let Request {
        frame,
        peer,
        header_at,
        frame_done_at,
        admission,
        mesh_guard,
    } = request;
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
    // A panicking handler costs its request, never its thread.
    let outcome = stripped.and_then(|_| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch(shared, op, frame.opcode, body, &mut rec)
        }))
        .unwrap_or_else(|_| Err(ServeError::Internal("the request handler panicked".into())))
    });
    let outcome = outcome.map_err(|e| {
        shared.metrics.record_error(e.code());
        shared.log.info(
            "error",
            format_args!("peer={peer} code={} detail={e}", e.code().label()),
        );
        Frame::error(request_id, e.code(), &e.to_string())
    });
    // Serialize here, once (the reply_write stage covers building the
    // wire bytes and handing them to the reactor; the socket write
    // itself is asynchronous).
    let write_start = Instant::now();
    let wire = match outcome {
        Ok((op, body)) => reply_bytes(op, request_id, body),
        Err(error) => error.to_bytes(),
    };
    let write = rec.record(stages::REPLY_WRITE, write_start, Instant::now());
    rec.attr(write, "bytes", wire.len() as u64);
    // Finish and record the trace *before* releasing the reply: a
    // client that sends TRACE right after receiving this reply on the
    // same connection is guaranteed to find its trace.
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
    Reply {
        bytes: wire,
        admission: Some(admission),
        close_after: false,
    }
}

/// What a request handler hands back for its success reply.
enum ReplyBody {
    /// A finished payload.
    Bytes(Vec<u8>),
    /// A decoded image, written straight into its reply frame.
    Image(GrayImage),
}

/// The wire bytes of a success reply. An over-limit reply is a
/// request-level outcome: the client gets a typed frame.
fn reply_bytes(op: Opcode, request_id: u32, body: ReplyBody) -> Vec<u8> {
    let len = match &body {
        ReplyBody::Bytes(payload) => payload.len(),
        ReplyBody::Image(img) => image_payload_len(img),
    };
    if len > MAX_PAYLOAD {
        let message =
            format!("reply payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte protocol limit");
        return Frame::error(request_id, ErrorCode::Internal, &message).to_bytes();
    }
    match body {
        ReplyBody::Bytes(payload) => Frame::reply(op, request_id, payload).to_bytes(),
        ReplyBody::Image(img) => Frame::image_reply_bytes(request_id, &img),
    }
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
) -> Result<(Opcode, ReplyBody)> {
    let (op, bytes) = match op {
        Some(Opcode::Encode) => handle_encode(shared, payload, rec)?,
        Some(Opcode::Decode) => {
            let img = handle_decode(shared, payload, rec)?;
            return Ok((Opcode::Decode, ReplyBody::Image(img)));
        }
        Some(Opcode::LoadModel) => {
            let id = shared.store.insert_bytes(payload)?;
            (Opcode::LoadModel, id.to_le_bytes().to_vec())
        }
        Some(Opcode::Info) => handle_info(shared, payload)?,
        Some(Opcode::ListModels) => {
            if !payload.is_empty() {
                return Err(ServeError::BadRequest(format!(
                    "LIST_MODELS takes no payload, got {} bytes",
                    payload.len()
                )));
            }
            let entries = shared.store.list()?;
            (
                Opcode::ListModels,
                crate::protocol::model_list_to_payload(&entries),
            )
        }
        Some(Opcode::Stats) => {
            if !payload.is_empty() {
                return Err(ServeError::BadRequest(format!(
                    "STATS takes no payload, got {} bytes",
                    payload.len()
                )));
            }
            (Opcode::Stats, shared.metrics.stats_json().into_bytes())
        }
        Some(Opcode::Trace) => handle_trace(shared, payload)?,
        _ => {
            return Err(ServeError::BadRequest(format!(
                "opcode {opcode_byte:#04x} names no request this build understands"
            )))
        }
    };
    Ok((op, ReplyBody::Bytes(bytes)))
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
    let req = rec.run(stages::PARSE, || EncodeRequest::from_payload(payload))?;
    let opts = CodecOptions {
        tile_size: req.tile_size as usize,
        bits: req.bits,
        per_tile_scale: req.flags & ENC_FLAG_PER_TILE_SCALE != 0,
        inline_model: req.flags & ENC_FLAG_INLINE_MODEL != 0,
        entropy: req.entropy,
        ..CodecOptions::default()
    };
    let (bytes, stats) = if req.flags & ENC_FLAG_USE_MODEL_ID != 0 {
        let codec = shared.store.get(req.model_id)?;
        codec.encode_image_with_stats(&req.image, &opts, rec)?
    } else {
        let (_, bytes, stats) =
            Codec::spectral_encode(&req.image, req.latent_dim as usize, &opts, rec)?;
        (bytes, stats)
    };
    rec.codec_attrs(stats.tiles, Some(opts.entropy));
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
/// error. The dimensions are read first, so an in-limit container is
/// checksummed once, by the parser, not twice.
fn check_container_dims(payload: &[u8]) -> Result<()> {
    use qn_codec::bitstream::crc32;
    if payload.len() < 40 || payload[..4] != qn_codec::container::CONTAINER_MAGIC {
        return Ok(());
    }
    let width = u64::from(u32::from_le_bytes(
        payload[16..20].try_into().expect("4 bytes"),
    ));
    let height = u64::from(u32::from_le_bytes(
        payload[20..24].try_into().expect("4 bytes"),
    ));
    if width.saturating_mul(height) <= MAX_DECODE_PIXELS {
        return Ok(());
    }
    let (body, crc_bytes) = payload.split_at(payload.len() - 4);
    if u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) != crc32(body) {
        return Ok(());
    }
    Err(ServeError::BadRequest(format!(
        "container declares a {width}x{height} image; this server decodes at most \
         {MAX_DECODE_PIXELS} pixels per request (the reply-frame limit)"
    )))
}

/// A DECODE: the decoded image, which the reply frame is built from
/// inside `reply_write`.
fn handle_decode(shared: &Shared, payload: &[u8], rec: &mut StageRecorder) -> Result<GrayImage> {
    check_container_dims(payload)?;
    let container = rec.run(stages::PARSE, || Container::from_bytes(payload))?;
    let codec: Arc<Codec> = if container.header.inline_model() {
        Arc::new(codec_from_inline(&container)?)
    } else {
        shared.store.get(container.header.model_id)?
    };
    let img = codec.decode_container(&container, BackendKind::default(), rec)?;
    rec.codec_attrs(container.tiles.len(), None);
    if let Ok(coder) = container.header.entropy() {
        shared
            .metrics
            .record_decoded_bytes(coder, payload.len() as u64);
    }
    Ok(img)
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
         \"workers\":{},\"reactors\":{},\"max_inflight\":{},\"conn_inflight\":{},\
         \"max_conns\":{},\"models_cached\":{},\"store_dir\":{store_dir},\
         \"requests_served\":{}}}",
        env!("CARGO_PKG_VERSION"),
        shared.metrics.uptime_secs(),
        shared.config.slow_threshold.as_millis(),
        shared.config.read_timeout.as_millis(),
        shared.workers,
        shared.reactors.len(),
        shared.config.max_inflight,
        shared.config.conn_inflight,
        shared.config.max_conns,
        shared.store.cached_len(),
        shared.metrics.requests_total(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_never_overshoots_its_cap_under_contention() {
        // Every reactor admits, so the cap check and the increment must
        // be one step. Two units stay out throughout, so 8 threads, each
        // running 10,000 admit/release cycles against a cap of 3, all
        // contend for the last unit: no admitted thread may ever see
        // more than 3 units out, and every unit comes back.
        const CAP: usize = 3;
        let admitted = AtomicUsize::new(0);
        assert!(try_admit(&admitted, CAP) && try_admit(&admitted, CAP));
        let peak = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        if try_admit(&admitted, CAP) {
                            peak.fetch_max(admitted.load(Ordering::SeqCst), Ordering::SeqCst);
                            admitted.fetch_sub(1, Ordering::SeqCst);
                        }
                        // A pause before the next try, so a release is
                        // not retaken at once by the releasing core.
                        for _ in 0..128 {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert!(!try_admit(&admitted, 2), "at a cap of 2 with 2 out");
        admitted.fetch_sub(2, Ordering::SeqCst);
        assert_eq!(
            peak.into_inner(),
            CAP,
            "the last unit was taken, never more"
        );
        assert_eq!(admitted.load(Ordering::SeqCst), 0, "every unit released");
        // A zero cap is unlimited.
        let many = AtomicUsize::new(1000);
        assert!(try_admit(&many, 0));
        assert_eq!(many.into_inner(), 1001);
    }
}
