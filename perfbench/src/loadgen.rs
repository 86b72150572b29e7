//! The load generator: one thread, its own `poll(2)` loop (not the
//! server's reactor, so a reactor change moves only the server side), a
//! closed loop over the given connections with [`DEPTH`] requests in
//! flight on each. Every reply is checked against the reference the
//! same build computed before the server started.

use crate::host::{self, HostTicks};
use crate::oracle::{self, Oracle};
use crate::report::OpCounts;
use crate::stats::{self, Window};
use crate::{err, inputs, Quality, LATENT, TILE};
use qn_codec::{decode_standalone, Codec, CodecOptions};
use qn_image::GrayImage;
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::protocol::{
    trace_request_payload, traced_request, EncodeRequest, ErrorCode, Frame, FrameHeader, Opcode,
    HEADER_LEN,
};
use qn_serve::TraceContext;
use qn_trace::Trace;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Requests in flight per connection: 2 connections × 4 = 8, under the
/// server's per-connection cap of 8 and equal to its 8 default workers.
pub const DEPTH: usize = 4;
/// A run fails if no reply arrives for this long.
const STALL: Duration = Duration::from_secs(30);

fn enc_id(i: usize) -> u32 {
    i as u32
}

fn dec_id(i: usize) -> u32 {
    0x8000_0000 | i as u32
}

/// Everything a served run sends, and the reference each reply must
/// match — all computed offline by this build before the server starts.
pub struct Load {
    pub name: &'static str,
    /// Zoo models, sent with `LOAD_MODEL` (empty: standalone).
    pub models: Vec<Codec>,
    enc_frames: Vec<Vec<u8>>,
    dec_frames: Vec<Vec<u8>>,
    /// Expected ENCODE reply payloads (containers).
    pub enc_ref: Vec<Vec<u8>>,
    /// Expected DECODE reply pixel digests and sizes.
    pub dec_ref: Vec<(u64, u32, u32)>,
    tiles: Vec<u64>,
    order: Vec<usize>,
    pub opts: CodecOptions,
    pub quality: Quality,
    pub digest: u64,
}

impl Load {
    /// Build requests and references. `models`: `None` for per-request
    /// spectral fits with inline models (what `qnc remote compress`
    /// sends by default), else zoo models used round-robin by image.
    pub fn build(
        name: &'static str,
        seed: u64,
        stream: u64,
        images: &[GrayImage],
        models: Option<Vec<Codec>>,
    ) -> Result<Load, String> {
        let opts = CodecOptions {
            inline_model: models.is_none(),
            ..CodecOptions::default()
        };
        let mut load = Load {
            name,
            models: models.unwrap_or_default(),
            enc_frames: Vec::new(),
            dec_frames: Vec::new(),
            enc_ref: Vec::new(),
            dec_ref: Vec::new(),
            tiles: Vec::new(),
            order: inputs::permutation(seed, stream, images.len()),
            opts,
            quality: Quality::default(),
            digest: inputs::digest(images),
        };
        for (i, img) in images.iter().enumerate() {
            let (request, bytes, decoded) = match load.models.is_empty() {
                true => {
                    let codec = Codec::spectral_for_image(img, TILE, LATENT).map_err(err)?;
                    let bytes = codec.encode_image(img, &load.opts).map_err(err)?;
                    let decoded = decode_standalone(&bytes).map_err(err)?;
                    (
                        spectral_encode_request(img, &load.opts, LATENT),
                        bytes,
                        decoded,
                    )
                }
                false => {
                    let codec = &load.models[i % load.models.len()];
                    let bytes = codec.encode_image(img, &load.opts).map_err(err)?;
                    let decoded = codec.decode_bytes(&bytes).map_err(err)?;
                    let request = model_encode_request(img, &load.opts, codec.model_id());
                    (request, bytes, decoded)
                }
            };
            load.quality.add(img, &bytes, &decoded);
            load.enc_frames
                .push(Frame::request(Opcode::Encode, enc_id(i), request.to_payload()).to_bytes());
            load.dec_frames
                .push(Frame::request(Opcode::Decode, dec_id(i), bytes.clone()).to_bytes());
            load.dec_ref.push((
                oracle::pixel_digest(&decoded),
                decoded.width() as u32,
                decoded.height() as u32,
            ));
            load.enc_ref.push(bytes);
            load.tiles.push(inputs::tile_count(img, TILE));
        }
        Ok(load)
    }

    /// The source image of request `i`, read back from its frame.
    pub fn image(&self, i: usize) -> Result<GrayImage, String> {
        let frame = &self.enc_frames[i];
        EncodeRequest::from_payload(&frame[HEADER_LEN..frame.len() - 4])
            .map(|r| r.image)
            .map_err(err)
    }

    /// The op with global index `k`: encodes and decodes alternate, and
    /// the decode stream runs half the pool behind, so no decode follows
    /// the encode of its own image.
    pub fn op(&self, k: u64, sample_every: Option<u64>) -> Op {
        let n = self.order.len();
        let pair = (k / 2) as usize;
        let (kind, image) = match k % 2 {
            0 => (Kind::Encode, self.order[pair % n]),
            _ => (Kind::Decode, self.order[(pair + n / 2) % n]),
        };
        let sampled = sample_every.is_some_and(|e| (k / 2).is_multiple_of(e));
        Op {
            index: k,
            kind,
            image,
            trace: sampled.then_some(0x7B00_0000_0000_0000 | k),
        }
    }

    pub fn frame(&self, op: &Op) -> Cow<'_, [u8]> {
        let (opcode, frame) = match op.kind {
            Kind::Encode => (Opcode::Encode, &self.enc_frames[op.image]),
            Kind::Decode => (Opcode::Decode, &self.dec_frames[op.image]),
            Kind::Trace => {
                let id = op.trace.expect("trace ops carry their id");
                let payload = trace_request_payload(false, Some(id));
                return Cow::Owned(Frame::request(Opcode::Trace, 0x4000_0000, payload).to_bytes());
            }
        };
        match op.trace {
            None => Cow::Borrowed(frame),
            Some(id) => {
                let ctx = TraceContext { id, sampled: true };
                let payload = &frame[HEADER_LEN..frame.len() - 4];
                let id = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
                Cow::Owned(traced_request(opcode, id, ctx, payload).to_bytes())
            }
        }
    }

    fn request_id(&self, op: &Op) -> u32 {
        match op.kind {
            Kind::Encode => enc_id(op.image),
            Kind::Decode => dec_id(op.image),
            Kind::Trace => 0x4000_0000,
        }
    }

    /// Check one ENCODE/DECODE success reply against its reference.
    pub fn check(&self, oracle: &mut Oracle, op: &Op, payload: &[u8]) {
        match op.kind {
            Kind::Encode => {
                oracle.bytes(op.index, "served encode", &self.enc_ref[op.image], payload);
            }
            Kind::Decode => {
                let (digest, w, h) = self.dec_ref[op.image];
                let dims = payload.len() >= 8
                    && payload[0..4] == w.to_le_bytes()
                    && payload[4..8] == h.to_le_bytes();
                oracle.require(op.index, "served decode size", dims, || {
                    format!(
                        "reply of {} bytes does not hold a {w}x{h} image",
                        payload.len()
                    )
                });
                if dims {
                    let got = oracle::digest(&payload[8..]);
                    oracle.pixels(op.index, "served decode", digest, got);
                }
            }
            Kind::Trace => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Encode,
    Decode,
    Trace,
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub index: u64,
    kind: Kind,
    image: usize,
    /// Sampled trace id (for a `Trace` op: the id it fetches).
    trace: Option<u64>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Wait for readiness; an interrupted wait reports nothing ready.
fn wait(fds: &mut [PollFd], timeout: Duration) -> Result<(), String> {
    let ms = timeout.as_millis().clamp(1, 1000) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed slice of pollfd-layout
    // structs and `nfds` is its length; poll writes only `revents`.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("poll: {e}"));
        }
    }
    Ok(())
}

/// A request on the wire.
struct InFlight<'a> {
    op: Op,
    frame: Cow<'a, [u8]>,
    written: usize,
    first_byte: Option<Instant>,
}

/// The generator's state for one connection.
struct Conn<'a> {
    queue: VecDeque<InFlight<'a>>,
    rbuf: Vec<u8>,
    rpos: usize,
}

/// What one window measured.
#[derive(Default)]
pub struct WindowResult {
    pub encode: OpCounts,
    pub decode: OpCounts,
    pub enc_ms: Vec<f64>,
    pub dec_ms: Vec<f64>,
    /// (seconds into the window, tiles) of each success inside it.
    pub completions: Vec<(f64, u64)>,
    pub busy: u64,
    /// Sampled requests: direction, client latency (ms), span tree.
    pub traces: Vec<(Kind, f64, Trace)>,
    pub gen_cpu_s: f64,
    pub child_cpu_s: f64,
    pub steal_share: f64,
    pub window_s: f64,
    pub errors: Vec<String>,
}

impl WindowResult {
    pub fn tiles(&self) -> u64 {
        self.completions.iter().map(|c| c.1).sum()
    }

    pub fn tiles_per_s(&self) -> f64 {
        stats::median_slice_rate(&self.completions, self.window_s)
    }
}

/// Drive the closed loop for `seconds`, then drain what is in flight.
/// Replies completing after the window are checked but not counted.
pub fn drive(
    streams: &mut [TcpStream],
    pid: u32,
    load: &Load,
    seconds: f64,
    sample_every: Option<u64>,
    next_op: &mut u64,
    oracle: &mut Oracle,
) -> Result<WindowResult, String> {
    let mut res = WindowResult::default();
    let mut conns: Vec<Conn> = streams
        .iter()
        .map(|_| Conn {
            queue: VecDeque::new(),
            rbuf: Vec::new(),
            rpos: 0,
        })
        .collect();
    let mut pending: HashMap<u64, (Kind, f64)> = HashMap::new();
    let mut chunk = vec![0u8; 256 << 10];
    let gen0 = host::thread_cpu_ns();
    let child0 = host::proc_cpu_secs(pid)?;
    let host0 = HostTicks::read()?;
    let window = Window::open(seconds);
    let mut closed = false;
    let mut last_progress = Instant::now();
    loop {
        if window.is_open() {
            for c in &mut conns {
                while c.queue.len() < DEPTH {
                    let op = load.op(*next_op, sample_every);
                    *next_op += 1;
                    let frame = load.frame(&op);
                    c.queue.push_back(InFlight {
                        op,
                        frame,
                        written: 0,
                        first_byte: None,
                    });
                }
            }
        } else if !closed {
            closed = true;
            res.gen_cpu_s = (host::thread_cpu_ns() - gen0) as f64 * 1e-9;
            res.child_cpu_s = host::proc_cpu_secs(pid)? - child0;
            res.steal_share = host0.steal_share_until(&HostTicks::read()?);
            res.window_s = window.seconds();
        }
        if closed && conns.iter().all(|c| c.queue.is_empty()) {
            break;
        }
        let mut fds: Vec<PollFd> = streams
            .iter()
            .zip(&conns)
            .map(|(s, c)| {
                let unsent = c.queue.iter().any(|f| f.written < f.frame.len());
                PollFd {
                    fd: s.as_raw_fd(),
                    events: if unsent { POLLIN | POLLOUT } else { POLLIN },
                    revents: 0,
                }
            })
            .collect();
        // Wake at the close, so the window's accounting is read on time.
        wait(&mut fds, window.remaining().min(Duration::from_millis(20)))?;
        for ((stream, c), fd) in streams.iter_mut().zip(&mut conns).zip(&fds) {
            if fd.revents & POLLOUT != 0 {
                write_ready(stream, c)?;
            }
            if fd.revents & !POLLOUT != 0 {
                let (done, at) = read_ready(stream, c, &mut chunk)?;
                if done.is_empty() {
                    continue;
                }
                last_progress = at;
                for reply in done {
                    let sent = c
                        .queue
                        .pop_front()
                        .ok_or("reply with no request in flight")?;
                    let follow_up = on_reply(
                        load,
                        oracle,
                        &window,
                        &mut res,
                        &mut pending,
                        &sent,
                        &reply.header,
                        &c.rbuf[reply.body],
                        at,
                    )?;
                    if let Some(op) = follow_up {
                        let frame = load.frame(&op);
                        c.queue.push_back(InFlight {
                            op,
                            frame,
                            written: 0,
                            first_byte: None,
                        });
                    }
                }
                compact(c);
            }
        }
        if last_progress.elapsed() > STALL {
            return Err(format!("no reply for {} s", STALL.as_secs()));
        }
    }
    Ok(res)
}

/// Write what the socket takes, in request order.
fn write_ready(stream: &mut TcpStream, c: &mut Conn) -> Result<(), String> {
    for f in c.queue.iter_mut().filter(|f| f.written < f.frame.len()) {
        while f.written < f.frame.len() {
            let now = Instant::now();
            match stream.write(&f.frame[f.written..]) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => {
                    f.first_byte.get_or_insert(now);
                    f.written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(format!("write: {e}")),
            }
        }
    }
    Ok(())
}

/// A complete reply frame in a connection's read buffer.
struct Reply {
    header: FrameHeader,
    body: std::ops::Range<usize>,
}

/// Read what is available; return the complete reply frames and the
/// time they were complete.
fn read_ready(
    stream: &mut TcpStream,
    c: &mut Conn,
    chunk: &mut [u8],
) -> Result<(Vec<Reply>, Instant), String> {
    loop {
        match stream.read(chunk) {
            Ok(0) => return Err("server closed a generator connection".into()),
            Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let at = Instant::now();
    let mut done = Vec::new();
    let mut pos = c.rpos;
    while c.rbuf.len() - pos >= HEADER_LEN {
        let raw: &[u8; HEADER_LEN] = c.rbuf[pos..pos + HEADER_LEN].try_into().expect("16 bytes");
        let header = FrameHeader::parse(raw).map_err(|e| format!("reply frame: {e}"))?;
        if c.rbuf.len() - pos < header.frame_len() {
            break;
        }
        let body = pos + HEADER_LEN;
        done.push(Reply {
            header,
            body: body..body + header.payload_len,
        });
        pos += header.frame_len();
    }
    c.rpos = pos;
    Ok((done, at))
}

fn compact(c: &mut Conn) {
    if c.rpos == c.rbuf.len() {
        c.rbuf.clear();
        c.rpos = 0;
    } else if c.rpos > 1 << 20 {
        c.rbuf.drain(..c.rpos);
        c.rpos = 0;
    }
}

/// Account for one reply; returns the `TRACE` request a sampled reply
/// asks for on the same connection.
#[allow(clippy::too_many_arguments)]
fn on_reply(
    load: &Load,
    oracle: &mut Oracle,
    window: &Window,
    res: &mut WindowResult,
    pending: &mut HashMap<u64, (Kind, f64)>,
    sent: &InFlight,
    header: &FrameHeader,
    payload: &[u8],
    at: Instant,
) -> Result<Option<Op>, String> {
    let op = sent.op;
    let first = sent
        .first_byte
        .ok_or("reply before the request was written")?;
    let latency_ms = at.saturating_duration_since(first).as_secs_f64() * 1e3;
    let expected_id = load.request_id(&op);
    oracle.require(
        op.index,
        "reply request id",
        header.request_id == expected_id,
        || format!("{:#x}, expected {expected_id:#x}", header.request_id),
    );
    if op.kind == Kind::Trace {
        let json = std::str::from_utf8(payload).map_err(err)?;
        let traces = qn_trace::parse_traces(json).map_err(|e| format!("TRACE reply: {e}"))?;
        let id = op.trace.expect("trace ops carry their id");
        if let (Some(t), Some((kind, lat))) =
            (traces.into_iter().find(|t| t.id == id), pending.remove(&id))
        {
            res.traces.push((kind, lat, t));
        }
        return Ok(None);
    }
    let reply_op = match op.kind {
        Kind::Encode => Opcode::Encode.reply(),
        _ => Opcode::Decode.reply(),
    };
    let ok = header.status == 0 && header.opcode == reply_op as u8;
    if ok {
        load.check(oracle, &op, payload);
    } else {
        if header.status == ErrorCode::Busy as u16 {
            res.busy += 1;
        }
        if res.errors.len() < 4 {
            res.errors.push(format!(
                "op {} status {}: {}",
                op.index,
                header.status,
                String::from_utf8_lossy(payload)
            ));
        }
    }
    let counts = match op.kind {
        Kind::Encode => &mut res.encode,
        _ => &mut res.decode,
    };
    counts.add(ok);
    if ok && window.contains(at) {
        match op.kind {
            Kind::Encode => res.enc_ms.push(latency_ms),
            _ => res.dec_ms.push(latency_ms),
        }
        res.completions
            .push((window.offset(at), load.tiles[op.image]));
    }
    Ok(op.trace.filter(|_| ok).map(|id| {
        pending.insert(id, (op.kind, latency_ms));
        Op {
            index: op.index,
            kind: Kind::Trace,
            image: op.image,
            trace: Some(id),
        }
    }))
}
