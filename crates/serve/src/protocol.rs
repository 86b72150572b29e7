//! The wire protocol: length-prefixed, versioned, CRC-checked binary
//! frames over a byte stream.
//!
//! # Frame layout (protocol version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QNF1"
//! 4       1     protocol version (1)
//! 5       1     opcode
//! 6       2     status: replies: 0 = OK, else an error code;
//!               requests: 0, or trace-context bits (see below)
//! 8       4     request id (echoed verbatim in the reply)
//! 12      4     payload length (bytes, ≤ MAX_PAYLOAD)
//! 16      …     payload
//! end     4     CRC-32 (IEEE) of header + payload
//! ```
//!
//! Requests use opcodes `0x01..=0x07`; a success reply echoes the
//! request opcode with bit 7 set (`op | 0x80`) and status 0; an error
//! reply uses opcode `0xFF` with a non-zero status code and a UTF-8
//! message payload. Stream-level violations (bad magic, oversized
//! length, CRC mismatch, unknown version) poison the framing — the
//! server answers with a typed error where possible and closes the
//! connection; request-level failures (corrupt container, unknown
//! model) keep the connection alive.
//!
//! # Request payloads
//!
//! `ENCODE` (fixed 24-byte prefix, then pixels):
//!
//! ```text
//! 0   2   tile size (1..=MAX_TILE_SIZE; larger values are rejected)
//! 2   1   quantizer bit depth
//! 3   1   flags: bit 0 per-tile scale, bit 1 inline model,
//!                bit 2 encode with the model id below (else a
//!                      PCA-spectral model is built from the image)
//! 4   2   latent dimension d (spectral model; ignored with bit 2)
//! 6   1   entropy coder: 0 rice (what pre-v2 clients send), 1
//!         rice-pos, 2 range — unknown ids are rejected typed
//! 7   1   reserved (0)
//! 8   8   model id (with bit 2)
//! 16  4   image width    20  4  image height
//! 24  …   width·height pixel values, f64 raw IEEE-754 bits
//! ```
//!
//! Pixels travel as raw `f64` bits so a remote encode sees *exactly*
//! the floats an offline `qnc` run reads from disk — the
//! byte-identical-response guarantee starts here. The `ENCODE` reply
//! payload is the finished `.qnc` file.
//!
//! `DECODE`: the payload is a `.qnc` file; the reply is an image
//! payload (`width u32, height u32, pixels f64 × w·h`). `LOAD_MODEL`:
//! the payload is a `.qnm` file; the reply is the 8-byte model id.
//! `INFO`: an empty payload returns server status JSON; a `.qnc` or
//! `.qnm` payload returns the same JSON `qnc info --json` prints.
//! `LIST_MODELS`: an empty payload; the reply enumerates the zoo as a
//! `count u32` followed by 17-byte entries (`id u64, size u64,
//! cached u8`), sorted by id — see [`ModelEntry`].
//! `STATS`: an empty payload; the reply is the server's telemetry
//! registry as single-line JSON (`uptime_secs` plus the
//! `counters`/`gauges`/`histograms` sections of
//! `qn_metrics::Registry::to_json`). Every server answers it; the
//! `metrics` field of the empty-payload `INFO` reply is always `true`,
//! kept for clients that feature-detect.
//! `TRACE`: an empty payload returns the recent-trace ring; a 9-byte
//! payload (`mode u8` — 0 recent, 1 slow — then `trace id u64`, 0 =
//! unfiltered) selects a buffer and optionally one id. The reply is
//! `qn_trace::traces_json` bytes. Every server answers it; the
//! `tracing` field of the `INFO` reply is always `true`.
//!
//! # Trace context (request status bits)
//!
//! The status field was reserved-zero in requests before PR 9 —
//! replies used it for error codes, requests never carried meaning.
//! A client that wants its request traced sets
//! [`REQ_STATUS_TRACED`] (bit 0) and prefixes the payload with a
//! 9-byte trace context: `trace id u64` (non-zero, client-chosen) and
//! a flags byte (bit 0 = sampled: record the trace server-side). The
//! server strips the prefix before normal payload parsing, so every
//! operation's payload format is unchanged on the wire for untraced
//! clients — a zero status byte-for-byte matches what pre-PR-9
//! clients send. Unknown status bits and malformed contexts are
//! rejected with a typed `BadRequest` (strict-validation discipline:
//! relaxed *only* for the bits defined here).

use crate::error::ServeError;
use qn_codec::bitstream::{crc32, crc32_of_parts};
use qn_codec::{EntropyCoder, MAX_TILE_SIZE};
use qn_image::GrayImage;
use std::io::{Read, Write};

/// Leading magic of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"QNF1";
/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Hard limit on a frame's payload (64 MiB) — read loops reject larger
/// length fields *before* allocating.
pub const MAX_PAYLOAD: usize = 64 << 20;
/// Fixed frame-header length.
pub const HEADER_LEN: usize = 16;

/// Frame opcodes. Requests are `0x01..=0x07`; success replies set bit 7;
/// `0xFF` is the typed error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Compress an image into a `.qnc` container.
    Encode = 0x01,
    /// Decompress a `.qnc` container into pixels.
    Decode = 0x02,
    /// Add a `.qnm` model to the zoo and pre-warm its cache slot.
    LoadModel = 0x03,
    /// Describe the server, or a submitted `.qnc`/`.qnm` file, as JSON.
    Info = 0x04,
    /// Enumerate the model zoo (empty request payload; the reply is a
    /// [`ModelEntry`] list — see [`model_list_to_payload`]).
    ListModels = 0x05,
    /// Report the server's telemetry registry as JSON (empty request
    /// payload).
    Stats = 0x06,
    /// Fetch recent or slow request traces as JSON (optionally
    /// filtered by trace id).
    Trace = 0x07,
    /// Success reply to [`Opcode::Encode`].
    EncodeReply = 0x81,
    /// Success reply to [`Opcode::Decode`].
    DecodeReply = 0x82,
    /// Success reply to [`Opcode::LoadModel`].
    LoadModelReply = 0x83,
    /// Success reply to [`Opcode::Info`].
    InfoReply = 0x84,
    /// Success reply to [`Opcode::ListModels`].
    ListModelsReply = 0x85,
    /// Success reply to [`Opcode::Stats`].
    StatsReply = 0x86,
    /// Success reply to [`Opcode::Trace`].
    TraceReply = 0x87,
    /// Typed error reply (status carries the [`ErrorCode`]).
    ErrorReply = 0xFF,
}

impl Opcode {
    /// Decode a wire opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            0x01 => Opcode::Encode,
            0x02 => Opcode::Decode,
            0x03 => Opcode::LoadModel,
            0x04 => Opcode::Info,
            0x05 => Opcode::ListModels,
            0x06 => Opcode::Stats,
            0x07 => Opcode::Trace,
            0x81 => Opcode::EncodeReply,
            0x82 => Opcode::DecodeReply,
            0x83 => Opcode::LoadModelReply,
            0x84 => Opcode::InfoReply,
            0x85 => Opcode::ListModelsReply,
            0x86 => Opcode::StatsReply,
            0x87 => Opcode::TraceReply,
            0xFF => Opcode::ErrorReply,
            _ => return None,
        })
    }

    /// The success-reply opcode for a request opcode.
    pub fn reply(self) -> Opcode {
        match self {
            Opcode::Encode => Opcode::EncodeReply,
            Opcode::Decode => Opcode::DecodeReply,
            Opcode::LoadModel => Opcode::LoadModelReply,
            Opcode::Info => Opcode::InfoReply,
            Opcode::ListModels => Opcode::ListModelsReply,
            Opcode::Stats => Opcode::StatsReply,
            Opcode::Trace => Opcode::TraceReply,
            other => other,
        }
    }

    /// Stable lowercase label for metric keys
    /// (`serve_requests_total{op=...}`); reply opcodes share their
    /// request's label.
    pub fn label(self) -> &'static str {
        match self {
            Opcode::Encode | Opcode::EncodeReply => "encode",
            Opcode::Decode | Opcode::DecodeReply => "decode",
            Opcode::LoadModel | Opcode::LoadModelReply => "load_model",
            Opcode::Info | Opcode::InfoReply => "info",
            Opcode::ListModels | Opcode::ListModelsReply => "list_models",
            Opcode::Stats | Opcode::StatsReply => "stats",
            Opcode::Trace | Opcode::TraceReply => "trace",
            Opcode::ErrorReply => "error",
        }
    }
}

/// Typed error codes carried in a reply frame's status field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Frame did not start with [`FRAME_MAGIC`].
    BadMagic = 1,
    /// Protocol version newer than this build.
    UnsupportedVersion = 2,
    /// Opcode byte names no known operation.
    UnknownOpcode = 3,
    /// Payload length field exceeds [`MAX_PAYLOAD`].
    FrameTooLarge = 4,
    /// Frame checksum mismatch.
    BadCrc = 5,
    /// Request payload is structurally malformed.
    BadRequest = 16,
    /// No model with the requested id in the zoo.
    UnknownModel = 17,
    /// Codec-level failure (corrupt container/model, geometry mismatch).
    Codec = 18,
    /// Container was encoded with a different model than resolved.
    ModelMismatch = 19,
    /// Server-side invariant failure.
    Internal = 20,
    /// The server is at its admission limit (global `--max-inflight`
    /// or the per-connection in-flight cap) and sheds this request
    /// instead of queueing it unboundedly. Request-level: the
    /// connection stays open and the client may retry.
    Busy = 21,
}

impl ErrorCode {
    /// Decode a wire status value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::FrameTooLarge,
            5 => ErrorCode::BadCrc,
            16 => ErrorCode::BadRequest,
            17 => ErrorCode::UnknownModel,
            18 => ErrorCode::Codec,
            19 => ErrorCode::ModelMismatch,
            20 => ErrorCode::Internal,
            21 => ErrorCode::Busy,
            _ => return None,
        })
    }

    /// Stable lowercase label for metric keys
    /// (`serve_errors_total{code=...}`).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOpcode => "unknown_opcode",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::BadCrc => "bad_crc",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownModel => "unknown_model",
            ErrorCode::Codec => "codec",
            ErrorCode::ModelMismatch => "model_mismatch",
            ErrorCode::Internal => "internal",
            ErrorCode::Busy => "busy",
        }
    }
}

/// Stream-level framing failures (distinct from request-level
/// [`ServeError`]s: these poison the connection).
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream failure (including EOF mid-frame).
    Io(std::io::Error),
    /// Leading bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// Version byte newer than [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// Stored CRC disagrees with the computed one.
    BadCrc {
        /// CRC carried by the frame.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::BadMagic(found) => write!(f, "bad frame magic {found:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(
                f,
                "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            FrameError::TooLarge(len) => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
                )
            }
            FrameError::BadCrc { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl FrameError {
    /// The wire error code a server replies with for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            FrameError::Io(_) => ErrorCode::Internal, // never sent: the stream is gone
            FrameError::BadMagic(_) => ErrorCode::BadMagic,
            FrameError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            FrameError::TooLarge(_) => ErrorCode::FrameTooLarge,
            FrameError::BadCrc { .. } => ErrorCode::BadCrc,
        }
    }
}

/// One parsed (or to-be-written) frame. The opcode stays a raw byte so
/// servers can echo typed errors for opcodes they don't recognise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Wire opcode byte (see [`Opcode`]).
    pub opcode: u8,
    /// 0 = OK; otherwise an [`ErrorCode`] (replies only).
    pub status: u16,
    /// Correlates replies with requests; echoed verbatim.
    pub request_id: u32,
    /// Operation-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame.
    pub fn request(op: Opcode, request_id: u32, payload: Vec<u8>) -> Frame {
        Frame {
            opcode: op as u8,
            status: 0,
            request_id,
            payload,
        }
    }

    /// A success reply to `request_op`.
    pub fn reply(request_op: Opcode, request_id: u32, payload: Vec<u8>) -> Frame {
        Frame {
            opcode: request_op.reply() as u8,
            status: 0,
            request_id,
            payload,
        }
    }

    /// A typed error reply.
    pub fn error(request_id: u32, code: ErrorCode, message: &str) -> Frame {
        Frame {
            opcode: Opcode::ErrorReply as u8,
            status: code as u16,
            request_id,
            payload: message.as_bytes().to_vec(),
        }
    }

    /// Serialise to complete wire bytes (header + payload + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + self.payload.len() + 4);
        bytes.extend_from_slice(&FRAME_MAGIC);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(self.opcode);
        bytes.extend_from_slice(&self.status.to_le_bytes());
        bytes.extend_from_slice(&self.request_id.to_le_bytes());
        bytes.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&self.payload);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Write the frame to a stream.
    ///
    /// # Errors
    /// `InvalidInput` when the payload exceeds [`MAX_PAYLOAD`] (a
    /// receiver would reject it anyway — failing here names the limit
    /// instead of surfacing as a broken pipe, and guards the u32
    /// length field against wrapping); otherwise IO failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        if self.payload.len() > MAX_PAYLOAD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the {MAX_PAYLOAD}-byte protocol limit",
                    self.payload.len()
                ),
            ));
        }
        w.write_all(&self.to_bytes())?;
        w.flush()
    }

    /// Read one frame from a stream. Oversized length fields are
    /// rejected *before* any payload allocation.
    ///
    /// # Errors
    /// [`FrameError`] for stream-level violations; EOF (clean or
    /// mid-frame) surfaces as [`FrameError::Io`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
        let mut raw = [0u8; HEADER_LEN];
        r.read_exact(&mut raw).map_err(FrameError::Io)?;
        let header = FrameHeader::parse(&raw)?;
        let mut payload = vec![0u8; header.payload_len];
        r.read_exact(&mut payload).map_err(FrameError::Io)?;
        let mut crc_bytes = [0u8; 4];
        r.read_exact(&mut crc_bytes).map_err(FrameError::Io)?;
        let stored = u32::from_le_bytes(crc_bytes);
        header.finish(payload, stored)
    }
}

/// A validated frame header — the fixed 16-byte prefix with its magic,
/// version and length checks already applied. This is the unit the
/// server's nonblocking connection state machine accumulates toward:
/// once a header parses, the frame's full wire size is known
/// ([`FrameHeader::frame_len`]), the opcode is known (so mesh-bound
/// requests can be counted in flight before their payload lands), and
/// the read deadline is armed.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Wire opcode byte (see [`Opcode`]).
    pub opcode: u8,
    /// Request status bits / reply error code.
    pub status: u16,
    /// Correlates replies with requests.
    pub request_id: u32,
    /// Declared payload length (validated ≤ [`MAX_PAYLOAD`]).
    pub payload_len: usize,
    /// The raw header bytes, kept for the trailing-CRC check (the CRC
    /// covers header + payload).
    pub raw: [u8; HEADER_LEN],
}

impl FrameHeader {
    /// Validate the fixed 16-byte header: magic, version, length bound.
    ///
    /// # Errors
    /// The same stream-level [`FrameError`]s `read_from` raises —
    /// blocking and nonblocking readers share one validation path.
    pub fn parse(raw: &[u8; HEADER_LEN]) -> Result<FrameHeader, FrameError> {
        if raw[..4] != FRAME_MAGIC {
            return Err(FrameError::BadMagic(raw[..4].try_into().expect("4 bytes")));
        }
        if raw[4] > PROTOCOL_VERSION || raw[4] == 0 {
            return Err(FrameError::UnsupportedVersion(raw[4]));
        }
        let len = u32::from_le_bytes(raw[12..16].try_into().expect("4 bytes"));
        if len as usize > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        Ok(FrameHeader {
            opcode: raw[5],
            status: u16::from_le_bytes(raw[6..8].try_into().expect("2 bytes")),
            request_id: u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes")),
            payload_len: len as usize,
            raw: *raw,
        })
    }

    /// Total wire bytes of the frame this header announces
    /// (header + payload + CRC trailer).
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + self.payload_len + 4
    }

    /// Whether the opcode runs a mesh pass (counted by the
    /// `serve_inflight_requests` gauge).
    pub fn mesh_bound(&self) -> bool {
        matches!(
            Opcode::from_u8(self.opcode),
            Some(Opcode::Encode | Opcode::Decode)
        )
    }

    /// Check the trailing CRC against header + payload and assemble the
    /// frame.
    ///
    /// # Errors
    /// [`FrameError::BadCrc`] on checksum mismatch.
    pub fn finish(&self, payload: Vec<u8>, stored_crc: u32) -> Result<Frame, FrameError> {
        let computed = crc32_of_parts(&[&self.raw, &payload]);
        if stored_crc != computed {
            return Err(FrameError::BadCrc {
                stored: stored_crc,
                computed,
            });
        }
        Ok(Frame {
            opcode: self.opcode,
            status: self.status,
            request_id: self.request_id,
            payload,
        })
    }
}

/// Request-status bit: the payload starts with a
/// [`TraceContext`] prefix. All other request-status bits stay
/// reserved-zero.
pub const REQ_STATUS_TRACED: u16 = 1 << 0;
/// Trace-context flag: record the trace server-side (unset, the id is
/// merely propagated).
pub const TRACE_FLAG_SAMPLED: u8 = 1 << 0;
/// Serialized trace-context length: `id u64` + `flags u8`.
pub const TRACE_CONTEXT_LEN: usize = 9;

/// Client-supplied trace context for one request, carried as a
/// 9-byte payload prefix flagged by [`REQ_STATUS_TRACED`] in the
/// request's status field (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen 64-bit trace id; zero is reserved (= untraced)
    /// and rejected on the wire.
    pub id: u64,
    /// Whether the server should record (sample) the trace.
    pub sampled: bool,
}

impl TraceContext {
    /// Serialise as the wire prefix.
    pub fn to_prefix(self) -> [u8; TRACE_CONTEXT_LEN] {
        let mut p = [0u8; TRACE_CONTEXT_LEN];
        p[..8].copy_from_slice(&self.id.to_le_bytes());
        p[8] = if self.sampled { TRACE_FLAG_SAMPLED } else { 0 };
        p
    }

    /// Validate a request's status field and strip the trace-context
    /// prefix from its payload. Returns the context (if any) and the
    /// operation payload proper.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for unknown status bits, a truncated
    /// prefix, a zero trace id, or unknown context flags — the strict
    /// reserved-byte discipline, relaxed only for the bits defined
    /// here.
    pub fn strip(status: u16, payload: &[u8]) -> Result<(Option<TraceContext>, &[u8]), ServeError> {
        if status & !REQ_STATUS_TRACED != 0 {
            return Err(ServeError::BadRequest(format!(
                "unknown request status bits {:#06x}",
                status & !REQ_STATUS_TRACED
            )));
        }
        if status & REQ_STATUS_TRACED == 0 {
            return Ok((None, payload));
        }
        if payload.len() < TRACE_CONTEXT_LEN {
            return Err(ServeError::BadRequest(format!(
                "traced request needs a {TRACE_CONTEXT_LEN}-byte trace context, got {} bytes",
                payload.len()
            )));
        }
        let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        if id == 0 {
            return Err(ServeError::BadRequest(
                "trace id 0 is reserved (means untraced)".into(),
            ));
        }
        let flags = payload[8];
        if flags & !TRACE_FLAG_SAMPLED != 0 {
            return Err(ServeError::BadRequest(format!(
                "unknown trace-context flags {:#04x}",
                flags & !TRACE_FLAG_SAMPLED
            )));
        }
        Ok((
            Some(TraceContext {
                id,
                sampled: flags & TRACE_FLAG_SAMPLED != 0,
            }),
            &payload[TRACE_CONTEXT_LEN..],
        ))
    }
}

/// Build a traced request frame: status bit set, payload prefixed with
/// the serialized context.
pub fn traced_request(op: Opcode, request_id: u32, ctx: TraceContext, payload: &[u8]) -> Frame {
    let mut p = Vec::with_capacity(TRACE_CONTEXT_LEN + payload.len());
    p.extend_from_slice(&ctx.to_prefix());
    p.extend_from_slice(payload);
    Frame {
        opcode: op as u8,
        status: REQ_STATUS_TRACED,
        request_id,
        payload: p,
    }
}

/// Serialise a `TRACE` request payload: which buffer to read (`slow`)
/// and an optional single-id filter.
pub fn trace_request_payload(slow: bool, id: Option<u64>) -> Vec<u8> {
    let mut p = Vec::with_capacity(9);
    p.push(u8::from(slow));
    p.extend_from_slice(&id.unwrap_or(0).to_le_bytes());
    p
}

/// Parse a `TRACE` request payload (empty = recent, unfiltered).
///
/// # Errors
/// [`ServeError::BadRequest`] for a length other than 0/9 or an
/// unknown mode byte.
pub fn parse_trace_request(payload: &[u8]) -> Result<(bool, Option<u64>), ServeError> {
    match payload {
        [] => Ok((false, None)),
        p if p.len() == 9 => {
            let slow = match p[0] {
                0 => false,
                1 => true,
                other => {
                    return Err(ServeError::BadRequest(format!(
                        "trace request mode must be 0 (recent) or 1 (slow), got {other}"
                    )))
                }
            };
            let id = u64::from_le_bytes(p[1..9].try_into().expect("8 bytes"));
            Ok((slow, (id != 0).then_some(id)))
        }
        p => Err(ServeError::BadRequest(format!(
            "trace request payload must be empty or 9 bytes, got {}",
            p.len()
        ))),
    }
}

/// Option flag: spend 32 bits/tile on a per-tile amplitude scale.
pub const ENC_FLAG_PER_TILE_SCALE: u8 = 1 << 0;
/// Option flag: embed the model in the container.
pub const ENC_FLAG_INLINE_MODEL: u8 = 1 << 1;
/// Option flag: encode with the request's model id (from the zoo)
/// instead of building a spectral model from the image.
pub const ENC_FLAG_USE_MODEL_ID: u8 = 1 << 2;

/// Parsed `ENCODE` request payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeRequest {
    /// Tile edge length.
    pub tile_size: u16,
    /// Quantizer bit depth.
    pub bits: u8,
    /// `ENC_FLAG_*` options.
    pub flags: u8,
    /// Spectral-model latent dimension (ignored with
    /// [`ENC_FLAG_USE_MODEL_ID`]).
    pub latent_dim: u16,
    /// Entropy coder for the latent bitstream (pre-v2 clients leave
    /// the byte zero, which is `rice` — the v1 format).
    pub entropy: EntropyCoder,
    /// Zoo model to encode with (with [`ENC_FLAG_USE_MODEL_ID`]).
    pub model_id: u64,
    /// The image to compress.
    pub image: GrayImage,
}

impl EncodeRequest {
    /// Serialise to a frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(24 + self.image.len() * 8);
        p.extend_from_slice(&self.tile_size.to_le_bytes());
        p.push(self.bits);
        p.push(self.flags);
        p.extend_from_slice(&self.latent_dim.to_le_bytes());
        p.push(self.entropy.wire_id());
        p.push(0); // reserved
        p.extend_from_slice(&self.model_id.to_le_bytes());
        p.extend_from_slice(&(self.image.width() as u32).to_le_bytes());
        p.extend_from_slice(&(self.image.height() as u32).to_le_bytes());
        for &px in self.image.pixels() {
            p.extend_from_slice(&px.to_bits().to_le_bytes());
        }
        p
    }

    /// Parse a frame payload.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for structural malformations; the
    /// pixel count is validated against the payload length before any
    /// image allocation.
    pub fn from_payload(payload: &[u8]) -> Result<EncodeRequest, ServeError> {
        if payload.len() < 24 {
            return Err(ServeError::BadRequest(format!(
                "encode request needs a 24-byte prefix, got {} bytes",
                payload.len()
            )));
        }
        let tile_size = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes"));
        if tile_size == 0 || tile_size > MAX_TILE_SIZE {
            return Err(ServeError::BadRequest(format!(
                "tile size must be in 1..={MAX_TILE_SIZE}, got {tile_size}"
            )));
        }
        let bits = payload[2];
        let flags = payload[3];
        let known = ENC_FLAG_PER_TILE_SCALE | ENC_FLAG_INLINE_MODEL | ENC_FLAG_USE_MODEL_ID;
        if flags & !known != 0 {
            return Err(ServeError::BadRequest(format!(
                "unknown encode flags {:#04x}",
                flags & !known
            )));
        }
        let latent_dim = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes"));
        // Byte 6 was reserved-zero before bitstream v2, so pre-v2
        // clients land on `rice` and this build's rejections stay
        // typed for ids it does not implement.
        let entropy = EntropyCoder::from_wire_id(payload[6]).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "entropy coder id {} names no coder this build understands",
                payload[6]
            ))
        })?;
        // The remaining reserved byte must be zero, like unknown flag
        // bits: a future revision that assigns it meaning must not be
        // silently misread by this build.
        if payload[7] != 0 {
            return Err(ServeError::BadRequest(
                "reserved encode-request bytes must be zero".into(),
            ));
        }
        let model_id = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let (image, rest) = read_image_payload(&payload[16..])?;
        if !rest.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "{} trailing bytes after the encode request",
                rest.len()
            )));
        }
        Ok(EncodeRequest {
            tile_size,
            bits,
            flags,
            latent_dim,
            entropy,
            model_id,
            image,
        })
    }
}

/// Serialise an image as a `width u32, height u32, f64 pixels` payload
/// (the `DECODE` reply format).
pub fn image_to_payload(img: &GrayImage) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + img.len() * 8);
    p.extend_from_slice(&(img.width() as u32).to_le_bytes());
    p.extend_from_slice(&(img.height() as u32).to_le_bytes());
    for &px in img.pixels() {
        p.extend_from_slice(&px.to_bits().to_le_bytes());
    }
    p
}

/// Parse an image payload, returning any trailing bytes.
///
/// # Errors
/// [`ServeError::BadRequest`] when the dimensions are zero/inconsistent
/// with the available bytes (checked before allocating pixels).
pub fn read_image_payload(payload: &[u8]) -> Result<(GrayImage, &[u8]), ServeError> {
    if payload.len() < 8 {
        return Err(ServeError::BadRequest(
            "image payload needs width and height".into(),
        ));
    }
    let width = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
    let height = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
    if width == 0 || height == 0 {
        return Err(ServeError::BadRequest(format!(
            "image dimensions {width}x{height} out of range"
        )));
    }
    let need = (width as u64)
        .checked_mul(height as u64)
        .and_then(|px| px.checked_mul(8))
        .filter(|&n| n <= (payload.len() - 8) as u64)
        .ok_or_else(|| {
            ServeError::BadRequest(format!(
                "image of {width}x{height} pixels does not fit a {}-byte payload",
                payload.len()
            ))
        })? as usize;
    let pixels: Vec<f64> = payload[8..8 + need]
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    let image = GrayImage::from_pixels(width, height, pixels)
        .map_err(|e| ServeError::BadRequest(format!("image payload: {e}")))?;
    Ok((image, &payload[8 + need..]))
}

/// One zoo model in a `LIST_MODELS` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelEntry {
    /// Content-addressed model id.
    pub id: u64,
    /// Serialized `.qnm` size in bytes (on disk, or of the in-memory
    /// body for a store without a zoo directory).
    pub size_bytes: u64,
    /// Whether a parsed copy currently sits in the RAM cache.
    pub cached: bool,
}

/// Serialise a `LIST_MODELS` reply: `count u32`, then per entry
/// `id u64, size u64, cached u8`.
pub fn model_list_to_payload(entries: &[ModelEntry]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + entries.len() * 17);
    p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        p.extend_from_slice(&e.id.to_le_bytes());
        p.extend_from_slice(&e.size_bytes.to_le_bytes());
        p.push(u8::from(e.cached));
    }
    p
}

/// Parse a `LIST_MODELS` reply payload.
///
/// # Errors
/// [`ServeError::BadRequest`] when the count disagrees with the
/// payload length (checked before allocating) or a cached flag is not
/// 0/1.
pub fn model_list_from_payload(payload: &[u8]) -> Result<Vec<ModelEntry>, ServeError> {
    if payload.len() < 4 {
        return Err(ServeError::BadRequest(
            "model list payload needs a 4-byte count".into(),
        ));
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
    let body = &payload[4..];
    if count.checked_mul(17) != Some(body.len()) {
        return Err(ServeError::BadRequest(format!(
            "model list declares {count} entries but carries {} body bytes",
            body.len()
        )));
    }
    body.chunks_exact(17)
        .map(|c| {
            let cached = match c[16] {
                0 => false,
                1 => true,
                other => {
                    return Err(ServeError::BadRequest(format!(
                        "model list cached flag must be 0 or 1, got {other}"
                    )))
                }
            };
            Ok(ModelEntry {
                id: u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
                size_bytes: u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
                cached,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let frame = Frame::request(Opcode::Decode, 42, vec![1, 2, 3, 4, 5]);
        let bytes = frame.to_bytes();
        let back = Frame::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(Opcode::from_u8(back.opcode), Some(Opcode::Decode));
    }

    #[test]
    fn every_header_violation_is_typed() {
        let good = Frame::request(Opcode::Info, 1, Vec::new()).to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(FrameError::UnsupportedVersion(9))
        ));

        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(FrameError::TooLarge(u32::MAX))
        ));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(FrameError::BadCrc { .. })
        ));

        for cut in 0..good.len() {
            assert!(matches!(
                Frame::read_from(&mut &good[..cut]),
                Err(FrameError::Io(_))
            ));
        }
    }

    #[test]
    fn oversized_payloads_are_refused_at_write_time() {
        // Fabricate the length without allocating 64 MiB: a Vec with a
        // huge len is UB, so just build a frame at the boundary and one
        // past it.
        let ok = Frame::request(Opcode::Info, 1, vec![0u8; 1024]);
        assert!(ok.write_to(&mut Vec::new()).is_ok());
        let too_big = Frame::request(Opcode::Info, 1, vec![0u8; MAX_PAYLOAD + 1]);
        let err = too_big.write_to(&mut std::io::sink()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("protocol limit"), "{err}");
    }

    #[test]
    fn error_frames_carry_code_and_message() {
        let e = Frame::error(7, ErrorCode::UnknownModel, "no model 0xabc");
        let back = Frame::read_from(&mut e.to_bytes().as_slice()).unwrap();
        assert_eq!(back.status, ErrorCode::UnknownModel as u16);
        assert_eq!(
            ErrorCode::from_u16(back.status),
            Some(ErrorCode::UnknownModel)
        );
        assert_eq!(back.payload, b"no model 0xabc");
        assert_eq!(Opcode::from_u8(back.opcode), Some(Opcode::ErrorReply));
    }

    #[test]
    fn encode_request_roundtrips_pixels_bit_exactly() {
        let image =
            GrayImage::from_pixels(3, 2, vec![0.0, 0.25, 1.0, 0.5, 1.0 / 3.0, 0.9]).unwrap();
        let req = EncodeRequest {
            tile_size: 4,
            bits: 8,
            flags: ENC_FLAG_INLINE_MODEL,
            latent_dim: 8,
            entropy: EntropyCoder::RicePos,
            model_id: 0,
            image,
        };
        let back = EncodeRequest::from_payload(&req.to_payload()).unwrap();
        assert_eq!(back, req);
        for (a, b) in back.image.pixels().iter().zip(req.image.pixels()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn malformed_request_payloads_fail_typed_without_allocating() {
        assert!(EncodeRequest::from_payload(&[0u8; 10]).is_err());
        // Pixel count inconsistent with the payload length: a crafted
        // 2^31-pixel header must be rejected before allocation.
        let mut p = vec![0u8; 24];
        p[0..2].copy_from_slice(&4u16.to_le_bytes());
        p[2] = 8;
        p[16..20].copy_from_slice(&(1u32 << 30).to_le_bytes());
        p[20..24].copy_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            EncodeRequest::from_payload(&p),
            Err(ServeError::BadRequest(_))
        ));
        // Tile sizes outside 1..=MAX_TILE_SIZE are rejected before the
        // spectral path can turn them into a tile_size² model.
        for bad_tile in [0u16, MAX_TILE_SIZE + 1, u16::MAX] {
            let mut p = vec![0u8; 32];
            p[0..2].copy_from_slice(&bad_tile.to_le_bytes());
            p[2] = 8;
            p[16..20].copy_from_slice(&1u32.to_le_bytes());
            p[20..24].copy_from_slice(&1u32.to_le_bytes());
            assert!(
                matches!(
                    EncodeRequest::from_payload(&p),
                    Err(ServeError::BadRequest(_))
                ),
                "tile size {bad_tile} must be rejected"
            );
        }
        // Unknown entropy-coder ids are rejected typed (byte 6 was
        // reserved-zero before v2, so 0 still means rice).
        let mut ok = vec![0u8; 32];
        ok[0..2].copy_from_slice(&4u16.to_le_bytes());
        ok[2] = 8;
        ok[16..20].copy_from_slice(&1u32.to_le_bytes());
        ok[20..24].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            EncodeRequest::from_payload(&ok).unwrap().entropy,
            EntropyCoder::Rice
        );
        for (byte, value) in [(6usize, 3u8), (6, 0xFF), (7, 1)] {
            let mut bad = ok.clone();
            bad[byte] = value;
            assert!(
                matches!(
                    EncodeRequest::from_payload(&bad),
                    Err(ServeError::BadRequest(_))
                ),
                "byte {byte} = {value} must be rejected"
            );
        }
        // Unknown flags are rejected (reserved for future versions).
        let img = GrayImage::from_pixels(1, 1, vec![0.5]).unwrap();
        let mut req = EncodeRequest {
            tile_size: 4,
            bits: 8,
            flags: 0x80,
            latent_dim: 8,
            entropy: EntropyCoder::Rice,
            model_id: 0,
            image: img,
        };
        let payload = {
            req.flags = 0x80;
            req.to_payload()
        };
        assert!(matches!(
            EncodeRequest::from_payload(&payload),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn model_lists_roundtrip_and_reject_malformed_payloads() {
        let entries = [
            ModelEntry {
                id: 0x0123_4567_89ab_cdef,
                size_bytes: 4096,
                cached: true,
            },
            ModelEntry {
                id: u64::MAX,
                size_bytes: 0,
                cached: false,
            },
        ];
        let p = model_list_to_payload(&entries);
        assert_eq!(p.len(), 4 + 2 * 17);
        assert_eq!(model_list_from_payload(&p).unwrap(), entries);
        assert_eq!(
            model_list_from_payload(&model_list_to_payload(&[])).unwrap(),
            vec![]
        );
        // Truncated, count-mismatched and flag-corrupted payloads fail
        // typed.
        assert!(model_list_from_payload(&p[..3]).is_err());
        assert!(model_list_from_payload(&p[..p.len() - 1]).is_err());
        let mut huge = p.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(model_list_from_payload(&huge).is_err());
        let mut bad_flag = p;
        let last = bad_flag.len() - 1;
        bad_flag[last] = 7;
        assert!(model_list_from_payload(&bad_flag).is_err());
    }

    #[test]
    fn list_models_opcode_has_a_reply() {
        assert_eq!(Opcode::from_u8(0x05), Some(Opcode::ListModels));
        assert_eq!(Opcode::from_u8(0x85), Some(Opcode::ListModelsReply));
        assert_eq!(Opcode::ListModels.reply(), Opcode::ListModelsReply);
    }

    #[test]
    fn stats_opcode_has_a_reply_and_stable_labels() {
        assert_eq!(Opcode::from_u8(0x06), Some(Opcode::Stats));
        assert_eq!(Opcode::from_u8(0x86), Some(Opcode::StatsReply));
        assert_eq!(Opcode::Stats.reply(), Opcode::StatsReply);
        // Metric labels are wire-adjacent: every request opcode and its
        // reply share one stable label, and error codes label uniquely.
        for op in [
            Opcode::Encode,
            Opcode::Decode,
            Opcode::LoadModel,
            Opcode::Info,
            Opcode::ListModels,
            Opcode::Stats,
        ] {
            assert_eq!(op.label(), op.reply().label());
        }
        let mut labels: Vec<&str> = (1..=21)
            .filter_map(ErrorCode::from_u16)
            .map(ErrorCode::label)
            .collect();
        assert_eq!(labels.len(), 11);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 11, "error-code labels must be unique");
    }

    #[test]
    fn trace_opcode_has_a_reply_and_label() {
        assert_eq!(Opcode::from_u8(0x07), Some(Opcode::Trace));
        assert_eq!(Opcode::from_u8(0x87), Some(Opcode::TraceReply));
        assert_eq!(Opcode::Trace.reply(), Opcode::TraceReply);
        assert_eq!(Opcode::Trace.label(), "trace");
        assert_eq!(Opcode::TraceReply.label(), "trace");
    }

    #[test]
    fn trace_context_strips_cleanly_and_rejects_malformed_prefixes() {
        // Untraced requests (status 0) pass through untouched — the
        // pre-PR-9 wire shape.
        let (ctx, rest) = TraceContext::strip(0, b"payload").unwrap();
        assert!(ctx.is_none());
        assert_eq!(rest, b"payload");

        // A traced request strips its 9-byte prefix.
        let ctx = TraceContext {
            id: 0xdead_beef_cafe_f00d,
            sampled: true,
        };
        let frame = traced_request(Opcode::Encode, 5, ctx, b"body");
        assert_eq!(frame.status, REQ_STATUS_TRACED);
        let (got, rest) = TraceContext::strip(frame.status, &frame.payload).unwrap();
        assert_eq!(got, Some(ctx));
        assert_eq!(rest, b"body");
        // ...and survives the byte stream like any other frame.
        let back = Frame::read_from(&mut frame.to_bytes().as_slice()).unwrap();
        assert_eq!(back, frame);

        // Propagate-only context: flags byte zero.
        let quiet = TraceContext {
            id: 7,
            sampled: false,
        };
        let (got, _) = TraceContext::strip(REQ_STATUS_TRACED, &quiet.to_prefix()).unwrap();
        assert_eq!(got, Some(quiet));

        // Strict validation for everything else: unknown status bits,
        // truncated prefix, the reserved zero id, unknown flags.
        assert!(TraceContext::strip(0x0002, b"").is_err());
        assert!(TraceContext::strip(REQ_STATUS_TRACED, &[1u8; 8]).is_err());
        let mut zero_id = ctx.to_prefix();
        zero_id[..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(TraceContext::strip(REQ_STATUS_TRACED, &zero_id).is_err());
        let mut bad_flags = ctx.to_prefix();
        bad_flags[8] = 0x82;
        assert!(TraceContext::strip(REQ_STATUS_TRACED, &bad_flags).is_err());
    }

    #[test]
    fn trace_request_payloads_roundtrip_and_reject_malformed() {
        assert_eq!(parse_trace_request(&[]).unwrap(), (false, None));
        for (slow, id) in [
            (false, None),
            (true, None),
            (false, Some(42)),
            (true, Some(7)),
        ] {
            let p = trace_request_payload(slow, id);
            assert_eq!(p.len(), 9);
            assert_eq!(parse_trace_request(&p).unwrap(), (slow, id));
        }
        assert!(parse_trace_request(&[2u8; 9]).is_err(), "unknown mode");
        assert!(parse_trace_request(&[0u8; 5]).is_err(), "bad length");
        assert!(parse_trace_request(&[0u8; 10]).is_err(), "bad length");
    }

    #[test]
    fn image_payload_rejects_zero_dims_and_truncation() {
        let img = GrayImage::from_pixels(2, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let p = image_to_payload(&img);
        let (back, rest) = read_image_payload(&p).unwrap();
        assert_eq!(back, img);
        assert!(rest.is_empty());
        assert!(read_image_payload(&p[..11]).is_err());
        let mut zero = p.clone();
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_image_payload(&zero).is_err());
    }
}
