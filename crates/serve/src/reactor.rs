//! The event-driven connection core: `poll(2)`-based reactors, one per
//! core, each owning its sockets, so 10k+ mostly-idle connections cost
//! a thread per core instead of one thread each.
//!
//! # Shape
//!
//! The server runs one reactor thread per unit of
//! `available_parallelism`. Each multiplexes its own wakeup pipe and
//! client sockets (nonblocking) through `poll(2)` — a three-symbol FFI
//! surface (`poll`, `pipe`, `fcntl`), no `libc` crate, no async runtime
//! (compat-shim discipline: crates.io is unreachable here). Reactor 0
//! also owns the listener and hands accepted sockets out round-robin,
//! keeping its own share; a connection stays on its reactor for life.
//! Frame bytes accumulate per connection in a state machine built on
//! [`FrameHeader::parse`](crate::protocol::FrameHeader::parse) — the
//! exact validation path blocking readers use. A complete frame that
//! is one default panel of codec work against a model already in RAM
//! (an ENCODE by model id, or a DECODE without an inline model) runs to
//! completion on the reactor that read it, with no queue hop and no
//! wakeup. Every other frame goes to a bounded worker pool. Workers
//! never touch sockets or connection state: each sends its finished
//! reply on its connection's own `std::sync::mpsc` channel and
//! wakes that connection's reactor, which writes replies out under
//! `POLLOUT`, so a slow-reading peer stalls only its own connection,
//! never a worker.
//!
//! # Ordering
//!
//! Every parsed frame gets a per-connection sequence number and every
//! frame produces exactly one reply (success, typed error, or `BUSY`).
//! Worker replies arrive on the channel in completion order; the
//! reactor parks them, together with the replies it makes itself
//! (inline requests', `BUSY` and stream errors), in the connection's
//! private map and releases them strictly in sequence order. Both paths
//! release through that map, so a pipelining client sees replies in
//! request order whichever thread ran each request, and a stream-level
//! error always flushes *after* the replies to the valid frames that
//! preceded it.
//!
//! # Deadlines and lifecycle
//!
//! The frame-level read deadline survives as a poll deadline: armed
//! when a header parses, checked against the earliest-deadline poll
//! timeout, and an expiry reaps the connection (idle connections are
//! never timed out — the clock only runs between header and frame
//! completion). Shutdown writes a byte into every wakeup pipe (no
//! self-connect hack, works on wildcard binds); reactor 0 stops
//! accepting, and each reactor drains its in-flight replies within a
//! bounded grace period and force-closes whatever remains.

use crate::protocol::HEADER_LEN;
use std::fs::File;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::Arc;
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
        let timeout_ms = poll_timeout_ms(timeout);
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

/// `poll(2)`'s millisecond timeout for `timeout`: whole milliseconds,
/// rounded up so a deadline 0.4 ms away waits 1 ms instead of spinning
/// at 0, and exact otherwise (`ZERO` does not block, 5 ms waits 5 ms);
/// saturates at `c_int::MAX`. `None` is `-1`, wait indefinitely.
fn poll_timeout_ms(timeout: Option<Duration>) -> std::ffi::c_int {
    timeout.map_or(-1, |t| {
        std::ffi::c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(std::ffi::c_int::MAX)
    })
}

/// A self-wakeup pipe, one per reactor: the reactor parks in `poll` on
/// the read end; any thread (a worker with a finished reply, reactor 0
/// handing over a socket, `ServerHandle::stop`) writes one byte to
/// interrupt the wait. This replaces the old
/// self-connect shutdown hack, which connected to the *listen*
/// address and therefore hung on wildcard (`0.0.0.0`) binds.
#[derive(Debug)]
pub struct WakePipe {
    reader: File,
    writer: Arc<Waker>,
}

/// The shared write end of a [`WakePipe`]. Any number of threads write
/// through `&File` at once: a one-byte pipe write is atomic.
#[derive(Debug)]
pub struct Waker {
    writer: File,
}

impl Waker {
    /// Interrupt the reactor's poll wait. Never blocks: the write end
    /// is nonblocking, so a full pipe fails with `WouldBlock` — which
    /// is fine, because a full pipe genuinely means a wakeup is
    /// already pending. A closed pipe means the reactor is gone.
    pub fn wake(&self) {
        let _ = (&self.writer).write(&[1u8]);
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
        // workers whenever replies outpace the reactor's drain and the
        // pipe fills; a blocking read end would let `drain`'s catch-up
        // loop hang once the pipe empties.
        set_nonblocking(reader.as_raw_fd())?;
        set_nonblocking(writer.as_raw_fd())?;
        Ok(WakePipe {
            reader,
            writer: Arc::new(Waker { writer }),
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

    impl FrameAccumulator {
        /// Bytes buffered but not yet consumed by a complete frame.
        fn pending(&self) -> usize {
            self.buf.len() - self.consumed
        }
    }

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
    fn poll_timeouts_round_up_to_whole_milliseconds() {
        let ms = |ns: u64| poll_timeout_ms(Some(Duration::from_nanos(ns)));
        assert_eq!(ms(0), 0, "a zero timeout does not block");
        assert_eq!(ms(1), 1);
        assert_eq!(ms(1_000_000), 1, "a whole millisecond is not a late one");
        assert_eq!(ms(1_000_001), 2);
        assert_eq!(ms(5_000_000), 5);
        assert_eq!(poll_timeout_ms(Some(Duration::MAX)), std::ffi::c_int::MAX);
        assert_eq!(poll_timeout_ms(None), -1, "no deadline waits indefinitely");
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
}
