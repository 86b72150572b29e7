//! The event-driven connection core: a `poll(2)`-based reactor that
//! owns every socket, so 10k+ mostly-idle connections cost one thread
//! instead of one thread each.
//!
//! # Shape
//!
//! One reactor thread multiplexes the listener, a wakeup pipe and all
//! client sockets (nonblocking) through `poll(2)` — a two-symbol FFI
//! surface (`poll`, `pipe`), no `libc` crate, no async runtime
//! (compat-shim discipline: crates.io is unreachable here). Frame
//! bytes accumulate per connection in a state machine built on
//! [`FrameHeader::parse`](crate::protocol::FrameHeader::parse) — the
//! exact validation path blocking readers use — and complete frames
//! are handed to a bounded worker pool. Workers never touch sockets:
//! replies come back through each connection's ordered outbox and the
//! reactor writes them out under `POLLOUT`, so a slow-reading peer
//! stalls only its own connection, never a worker.
//!
//! # Ordering
//!
//! Every parsed frame gets a per-connection sequence number and every
//! frame produces exactly one reply (success, typed error, or `BUSY`).
//! The outbox releases replies strictly in sequence order, so a
//! pipelining client sees replies in request order and a stream-level
//! error always flushes *after* the replies to the valid frames that
//! preceded it — the same observable order the old sequential loop
//! produced.
//!
//! # Deadlines and lifecycle
//!
//! The frame-level read deadline survives as a poll deadline: armed
//! when a header parses, checked against the earliest-deadline poll
//! timeout, and an expiry reaps the connection (idle connections are
//! never timed out — the clock only runs between header and frame
//! completion). Shutdown writes a byte into the wakeup pipe (no
//! self-connect hack, works on wildcard binds), the reactor stops
//! accepting, drains in-flight replies within a bounded grace period
//! and force-closes whatever remains.

use crate::protocol::HEADER_LEN;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The three-symbol FFI surface. `nfds_t` is `c_ulong` on Linux; the
// event bits below are identical across the unix platforms this repo
// targets.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct RawPollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

const F_GETFL: std::ffi::c_int = 3;
const F_SETFL: std::ffi::c_int = 4;
#[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "netbsd"))]
const O_NONBLOCK: std::ffi::c_int = 0x0004;
#[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "netbsd")))]
const O_NONBLOCK: std::ffi::c_int = 0o4000;

extern "C" {
    fn poll(
        fds: *mut RawPollFd,
        nfds: std::ffi::c_ulong,
        timeout_ms: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn pipe(fds: *mut std::ffi::c_int) -> std::ffi::c_int;
    // fcntl(2) is variadic in C; the int-argument forms used here pass
    // identically through the non-variadic declaration on every ABI
    // this repo targets.
    fn fcntl(fd: RawFd, cmd: std::ffi::c_int, arg: std::ffi::c_int) -> std::ffi::c_int;
}

/// Put a descriptor into nonblocking mode via `F_GETFL`/`F_SETFL`.
fn set_nonblocking(fd: RawFd) -> std::io::Result<()> {
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(std::io::Error::last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// What a registered descriptor wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Readable or writable.
    ReadWrite,
}

/// Readiness delivered for one registered descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Bytes (or an accept/EOF) are waiting.
    pub readable: bool,
    /// The socket can take more outbound bytes.
    pub writable: bool,
    /// Error / hangup / invalid-descriptor condition — readers should
    /// drain and close.
    pub error: bool,
}

impl Readiness {
    fn from_revents(revents: i16) -> Readiness {
        Readiness {
            readable: revents & POLLIN != 0,
            writable: revents & POLLOUT != 0,
            error: revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }

    /// Any condition at all.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.error
    }
}

/// A thin safe wrapper over one `poll(2)` call: callers re-register
/// their descriptor set every iteration (O(n), perfectly adequate at
/// the 10k-connection scale this server targets — the syscall itself
/// walks the set anyway) and read back per-slot [`Readiness`].
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<RawPollFd>,
}

impl Poller {
    /// A poller with no registered descriptors.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Drop all registrations (start of a loop iteration).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register a descriptor; the returned slot indexes [`Poller::readiness`].
    pub fn register(&mut self, fd: RawFd, interest: Interest) -> usize {
        let events = match interest {
            Interest::Read => POLLIN,
            Interest::Write => POLLOUT,
            Interest::ReadWrite => POLLIN | POLLOUT,
        };
        self.fds.push(RawPollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until readiness or timeout (`None` = wait indefinitely).
    /// Returns the number of ready descriptors (0 on timeout).
    ///
    /// # Errors
    /// The raw `poll(2)` failure, with `EINTR` retried internally.
    pub fn poll(&mut self, timeout: Option<Duration>) -> std::io::Result<usize> {
        let timeout_ms: std::ffi::c_int = match timeout {
            // Round up so a 0.4 ms deadline does not spin at 0 ms.
            Some(t) => std::ffi::c_int::try_from(t.as_millis().saturating_add(1))
                .unwrap_or(std::ffi::c_int::MAX),
            None => -1,
        };
        loop {
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::ffi::c_ulong,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Readiness of the descriptor registered at `slot`.
    pub fn readiness(&self, slot: usize) -> Readiness {
        Readiness::from_revents(self.fds[slot].revents)
    }
}

/// A self-wakeup pipe: the reactor parks in `poll` on the read end;
/// any thread (a worker with a finished reply, `ServerHandle::stop`)
/// writes one byte to interrupt the wait. This replaces the old
/// self-connect shutdown hack, which connected to the *listen*
/// address and therefore hung on wildcard (`0.0.0.0`) binds.
#[derive(Debug)]
pub struct WakePipe {
    reader: File,
    writer: Arc<Waker>,
}

/// The clonable write end of a [`WakePipe`].
#[derive(Debug)]
pub struct Waker {
    writer: Mutex<File>,
}

impl Waker {
    /// Interrupt the reactor's poll wait. Never blocks: the write end
    /// is nonblocking, so a full pipe fails with `WouldBlock` — which
    /// is fine, because a full pipe genuinely means a wakeup is
    /// already pending. A closed pipe means the reactor is gone.
    pub fn wake(&self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write(&[1u8]);
        }
    }
}

impl WakePipe {
    /// Create the pipe pair.
    ///
    /// # Errors
    /// The raw `pipe(2)` failure.
    pub fn new() -> std::io::Result<WakePipe> {
        let mut fds = [0 as std::ffi::c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: pipe(2) returned two fresh descriptors we now own.
        let (reader, writer) = unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        // Both ends nonblocking: a blocking write end would stall
        // workers (Mutex held) whenever replies outpace the reactor's
        // drain and the pipe fills; a blocking read end would let
        // `drain`'s catch-up loop hang once the pipe empties.
        set_nonblocking(reader.as_raw_fd())?;
        set_nonblocking(writer.as_raw_fd())?;
        Ok(WakePipe {
            reader,
            writer: Arc::new(Waker {
                writer: Mutex::new(writer),
            }),
        })
    }

    /// The write end, shared with workers and the server handle.
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.writer)
    }

    /// The read end's descriptor, for [`Poller::register`].
    pub fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Swallow every pending wakeup byte. The read end is nonblocking,
    /// so the loop ends with `WouldBlock` (or a short read) once the
    /// pipe is empty — one drain per reactor iteration keeps up with
    /// any number of writers, where a single bounded read could fall
    /// behind a full pipe one iteration at a time.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 4096];
        loop {
            match self.reader.read(&mut sink) {
                Ok(n) if n == sink.len() => {}
                _ => return,
            }
        }
    }
}

/// One finished reply, parked in a connection's outbox until the
/// reactor can write it in sequence order.
pub struct Reply {
    /// Complete wire bytes of the reply frame.
    pub bytes: Vec<u8>,
    /// The admission slot this reply's request holds; dropped (and the
    /// global in-flight count released) once the reply is fully
    /// written — or discarded with the connection. Carried as a boxed
    /// droppable so the reactor stays independent of the server's
    /// accounting types.
    pub admission: Option<Box<dyn Send>>,
    /// Close the connection once this reply has flushed (stream-level
    /// errors: framing is lost, nothing after this is parseable).
    pub close_after: bool,
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reply")
            .field("bytes", &self.bytes.len())
            .field("admission", &self.admission.is_some())
            .field("close_after", &self.close_after)
            .finish()
    }
}

/// Per-connection state shared between the reactor and the workers:
/// the ordered outbox of finished replies. Everything else about a
/// connection is reactor-private.
#[derive(Debug)]
pub struct ConnShared {
    outbox: Mutex<Outbox>,
    /// Set by workers after parking a reply so the reactor can skip
    /// the outbox lock for the (vast) majority of idle connections.
    dirty: AtomicBool,
}

#[derive(Debug, Default)]
struct Outbox {
    /// The connection died; park nothing, drop replies on arrival
    /// (their admission slots release on drop).
    closed: bool,
    /// Finished replies keyed by frame sequence number, released to
    /// the wire strictly in order.
    ready: BTreeMap<u64, Reply>,
}

impl ConnShared {
    /// Fresh shared state for one accepted connection.
    pub fn new() -> Arc<ConnShared> {
        Arc::new(ConnShared {
            outbox: Mutex::new(Outbox::default()),
            dirty: AtomicBool::new(false),
        })
    }

    /// Park a finished reply for in-order delivery. Returns `false`
    /// when the connection is already gone (the reply is dropped and
    /// its admission slot released here).
    pub fn push_reply(&self, seq: u64, reply: Reply) -> bool {
        let mut box_ = self.outbox.lock().expect("outbox poisoned");
        if box_.closed {
            return false;
        }
        box_.ready.insert(seq, reply);
        drop(box_);
        self.dirty.store(true, Ordering::Release);
        true
    }

    /// Reactor side: take every reply that is next in sequence order.
    pub fn take_in_order(&self, next: &mut u64) -> Vec<Reply> {
        self.dirty.store(false, Ordering::Release);
        let mut box_ = self.outbox.lock().expect("outbox poisoned");
        let mut out = Vec::new();
        while let Some(reply) = box_.ready.remove(next) {
            out.push(reply);
            *next += 1;
        }
        out
    }

    /// Whether a worker parked a reply since the last drain.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Mark the connection dead and drop any parked replies (releasing
    /// their admission slots).
    pub fn close(&self) {
        let mut box_ = self.outbox.lock().expect("outbox poisoned");
        box_.closed = true;
        box_.ready.clear();
    }
}

/// Incremental frame accumulation over a nonblocking byte stream: the
/// per-connection read buffer plus the parse cursor. The caller feeds
/// bytes and asks for complete frames; header validation happens
/// exactly once per frame via
/// [`FrameHeader::parse`](crate::protocol::FrameHeader::parse), at the
/// earliest moment the 16 header bytes are present — which is when mesh-bound requests start
/// counting as in flight and the read deadline arms.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes consumed from the front of `buf` (compacted lazily so a
    /// burst of pipelined frames doesn't memmove per frame).
    consumed: usize,
}

/// Consumed-prefix size past which [`FrameAccumulator::extend`]
/// compacts even though the buffer is not fully drained. Without this
/// threshold a long-lived pipelining connection whose reads rarely
/// land exactly on a frame boundary would keep every byte it ever
/// sent resident — memory growing with total traffic, not with
/// pending data.
const COMPACT_CONSUMED_LIMIT: usize = 64 * 1024;

/// One step of [`FrameAccumulator::step`].
#[derive(Debug)]
pub enum FrameStep {
    /// Not enough bytes buffered for the next header/frame.
    NeedMore,
    /// A header just validated (fires once per frame, before the
    /// payload is complete).
    Header(crate::protocol::FrameHeader),
    /// A full frame passed its CRC.
    Frame(crate::protocol::Frame),
    /// Stream-level violation: framing is lost at this byte offset.
    Violation(crate::protocol::FrameError),
}

impl FrameAccumulator {
    /// Append freshly read bytes, compacting first when the consumed
    /// prefix is the whole buffer (free) or has outgrown
    /// `COMPACT_CONSUMED_LIMIT` (one memmove of the pending bytes —
    /// amortised O(1) per byte, and what keeps the buffer bounded by
    /// pending data instead of total traffic).
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed > COMPACT_CONSUMED_LIMIT {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Advance the state machine one step. `header` carries the
    /// already-validated header of the in-progress frame (from a prior
    /// `Header` step); pass `None` to (re)parse one.
    pub fn step(&mut self, header: Option<&crate::protocol::FrameHeader>) -> FrameStep {
        let avail = &self.buf[self.consumed..];
        let header = match header {
            Some(h) => h,
            None => {
                if avail.len() < HEADER_LEN {
                    return FrameStep::NeedMore;
                }
                let raw: &[u8; HEADER_LEN] = avail[..HEADER_LEN].try_into().expect("16 bytes");
                return match crate::protocol::FrameHeader::parse(raw) {
                    Ok(h) => FrameStep::Header(h),
                    Err(e) => FrameStep::Violation(e),
                };
            }
        };
        let frame_len = header.frame_len();
        if avail.len() < frame_len {
            return FrameStep::NeedMore;
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + header.payload_len].to_vec();
        let stored = u32::from_le_bytes(
            avail[frame_len - 4..frame_len]
                .try_into()
                .expect("4 CRC bytes"),
        );
        self.consumed += frame_len;
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        match header.finish(payload, stored) {
            Ok(frame) => FrameStep::Frame(frame),
            Err(e) => FrameStep::Violation(e),
        }
    }
}

/// A reply frame mid-write: wire bytes plus the write cursor.
#[derive(Debug)]
pub struct WireReply {
    /// The parked reply being written.
    pub reply: Reply,
    /// Bytes already written.
    pub cursor: usize,
}

/// Outcome of pushing one connection's wire queue toward the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteProgress {
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
pub fn write_queue(
    stream: &std::net::TcpStream,
    queue: &mut std::collections::VecDeque<WireReply>,
    mut on_written: impl FnMut(&Reply),
) -> WriteProgress {
    while let Some(front) = queue.front_mut() {
        while front.cursor < front.reply.bytes.len() {
            match (&mut (&*stream)).write(&front.reply.bytes[front.cursor..]) {
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

/// Read what the nonblocking stream offers into the accumulator, up
/// to `budget` bytes per call — the cap bounds how much one service
/// pass can inhale before the caller's write-backlog gate is
/// re-checked (the socket stays level-triggered readable, so the rest
/// is picked up next iteration). Returns `(bytes_read, saw_eof)`;
/// errors other than `WouldBlock`/`Interrupted` surface as `Err`
/// (close the connection).
pub fn read_available(
    stream: &std::net::TcpStream,
    acc: &mut FrameAccumulator,
    budget: usize,
) -> std::io::Result<(usize, bool)> {
    let mut chunk = [0u8; 64 * 1024];
    let mut total = 0usize;
    while total < budget {
        let want = chunk.len().min(budget - total);
        match (&mut (&*stream)).read(&mut chunk[..want]) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                acc.extend(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok((total, false)),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok((total, false))
}

/// The earliest of two optional deadlines.
pub fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Frame, FrameError, Opcode};

    #[test]
    fn wake_pipe_interrupts_a_poll_wait() {
        let mut pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut poller = Poller::new();
        let slot = poller.register(pipe.fd(), Interest::Read);
        let start = Instant::now();
        let n = poller.poll(Some(Duration::from_secs(10))).unwrap();
        assert!(n >= 1, "wakeup delivered");
        assert!(poller.readiness(slot).readable);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woke early, not at timeout"
        );
        pipe.drain();
        t.join().unwrap();
    }

    #[test]
    fn accumulator_parses_pipelined_frames_and_flags_garbage() {
        let f1 = Frame::request(Opcode::Info, 1, Vec::new());
        let f2 = Frame::request(Opcode::ListModels, 2, Vec::new());
        let mut wire = f1.to_bytes();
        wire.extend_from_slice(&f2.to_bytes());
        wire.extend_from_slice(b"garbage that is not a frame!");

        let mut acc = FrameAccumulator::default();
        // Drip-feed to exercise NeedMore at every boundary.
        let mut frames = Vec::new();
        let mut header: Option<crate::protocol::FrameHeader> = None;
        let mut violation = None;
        for chunk in wire.chunks(7) {
            acc.extend(chunk);
            loop {
                match acc.step(header.as_ref()) {
                    FrameStep::NeedMore => break,
                    FrameStep::Header(h) => header = Some(h),
                    FrameStep::Frame(f) => {
                        header = None;
                        frames.push(f);
                    }
                    FrameStep::Violation(e) => {
                        violation = Some(e);
                        break;
                    }
                }
            }
            if violation.is_some() {
                break;
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], f1);
        assert_eq!(frames[1], f2);
        assert!(
            matches!(violation, Some(FrameError::BadMagic(_))),
            "{violation:?}"
        );
    }

    #[test]
    fn waker_never_blocks_when_the_pipe_is_full() {
        // Far more wakes than any pipe capacity: every one must return
        // immediately (the write end is nonblocking; a full pipe means
        // a wakeup is already pending). The old blocking write end
        // made this loop hang at the capacity mark.
        let mut pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut poller = Poller::new();
        let slot = poller.register(pipe.fd(), Interest::Read);
        poller.poll(Some(Duration::ZERO)).unwrap();
        assert!(poller.readiness(slot).readable, "wakeups pending");
        // One drain must swallow the whole backlog, not 256 bytes of it.
        pipe.drain();
        let mut poller = Poller::new();
        let slot = poller.register(pipe.fd(), Interest::Read);
        poller.poll(Some(Duration::ZERO)).unwrap();
        assert!(
            !poller.readiness(slot).readable,
            "drain empties the pipe completely"
        );
    }

    #[test]
    fn accumulator_compacts_when_reads_never_land_on_frame_boundaries() {
        // Worst case for the old fully-drained-only compaction: every
        // extend leaves one byte of the next frame pending, so the
        // buffer never drains exactly and `consumed` grows forever —
        // memory proportional to total traffic. The threshold
        // compaction must keep the buffer bounded by pending data.
        let frame = Frame::request(Opcode::Info, 9, vec![0u8; 100]).to_bytes();
        let mut acc = FrameAccumulator::default();
        acc.extend(&frame[..1]);
        let rounds = 10_000usize; // ~1.2 MB of traffic uncompacted
        for _ in 0..rounds {
            acc.extend(&frame[1..]);
            acc.extend(&frame[..1]);
            let header = match acc.step(None) {
                FrameStep::Header(h) => h,
                other => panic!("expected header, got {other:?}"),
            };
            assert!(matches!(acc.step(Some(&header)), FrameStep::Frame(_)));
            assert!(matches!(acc.step(None), FrameStep::NeedMore));
            assert_eq!(acc.pending(), 1, "one byte of the next frame pending");
        }
        assert!(
            acc.buf.len() <= COMPACT_CONSUMED_LIMIT + 2 * frame.len(),
            "buffer bounded by the compaction threshold, got {} after {} bytes",
            acc.buf.len(),
            rounds * frame.len()
        );
    }

    #[test]
    fn read_available_honours_its_budget() {
        let (a, b) = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = std::net::TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            (client, server)
        };
        b.set_nonblocking(true).unwrap();
        (&a).write_all(&[7u8; 8 * 1024]).unwrap();
        // Give the kernel a beat to move the bytes across loopback.
        std::thread::sleep(Duration::from_millis(50));
        let mut acc = FrameAccumulator::default();
        let (n, eof) = read_available(&b, &mut acc, 1024).unwrap();
        assert_eq!(n, 1024, "stops at the budget with more bytes waiting");
        assert!(!eof);
        let (n, eof) = read_available(&b, &mut acc, usize::MAX).unwrap();
        assert_eq!(n, 7 * 1024, "the rest arrives on the next pass");
        assert!(!eof);
        assert_eq!(acc.pending(), 8 * 1024);
    }

    #[test]
    fn accumulator_rejects_corrupt_crc_and_oversize_headers() {
        let mut bytes = Frame::request(Opcode::Info, 3, vec![0u8; 32]).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut acc = FrameAccumulator::default();
        acc.extend(&bytes);
        let header = match acc.step(None) {
            FrameStep::Header(h) => h,
            other => panic!("expected header, got {other:?}"),
        };
        assert!(matches!(
            acc.step(Some(&header)),
            FrameStep::Violation(FrameError::BadCrc { .. })
        ));

        let mut bomb = Frame::request(Opcode::Info, 4, Vec::new()).to_bytes();
        bomb[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut acc = FrameAccumulator::default();
        acc.extend(&bomb);
        assert!(matches!(
            acc.step(None),
            FrameStep::Violation(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn outbox_releases_replies_in_sequence_order() {
        let shared = ConnShared::new();
        let park = |seq: u64| {
            shared.push_reply(
                seq,
                Reply {
                    bytes: vec![seq as u8],
                    admission: None,
                    close_after: false,
                },
            )
        };
        assert!(park(2));
        let mut next = 0u64;
        assert!(shared.take_in_order(&mut next).is_empty(), "gap at 0");
        assert!(park(0));
        let got = shared.take_in_order(&mut next);
        assert_eq!(got.len(), 1, "seq 1 still missing");
        assert!(park(1));
        let got = shared.take_in_order(&mut next);
        assert_eq!(got.len(), 2, "1 then the parked 2");
        assert_eq!(next, 3);
        shared.close();
        assert!(!park(3), "closed outboxes drop replies");
    }
}
