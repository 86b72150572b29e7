//! Blocking client for the serve protocol — the transport behind
//! `qnc remote` and the integration/robustness suites.

use crate::error::{Result, ServeError};
use crate::protocol::{
    model_list_from_payload, read_image_payload, trace_request_payload, traced_request,
    EncodeRequest, Frame, ModelEntry, Opcode, TraceContext, ENC_FLAG_INLINE_MODEL,
    ENC_FLAG_PER_TILE_SCALE, ENC_FLAG_USE_MODEL_ID,
};
use qn_codec::CodecOptions;
use qn_image::GrayImage;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a `qn-serve` instance. Requests are synchronous:
/// each call writes one frame and blocks for its reply.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u32,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, next_id: 1 })
    }

    /// Raw access to the underlying stream, for suites that need to
    /// put hand-crafted (malformed) frames on a live connection.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// One request/reply exchange; typed server errors surface as
    /// [`ServeError::Remote`].
    ///
    /// # Errors
    /// Frame/IO errors and remote error replies.
    pub fn roundtrip(&mut self, op: Opcode, payload: Vec<u8>) -> Result<Frame> {
        self.exchange(op, None, payload)
    }

    /// [`Client::roundtrip`] with a trace context riding the request
    /// (see the protocol docs on `REQ_STATUS_TRACED`): the server
    /// records a span trace for this exact request under `ctx.id`,
    /// retrievable afterwards via [`Client::trace`]. The reply bytes
    /// are identical to an untraced exchange.
    ///
    /// # Errors
    /// Frame/IO errors and remote error replies.
    pub fn roundtrip_traced(
        &mut self,
        op: Opcode,
        ctx: TraceContext,
        payload: Vec<u8>,
    ) -> Result<Frame> {
        self.exchange(op, Some(ctx), payload)
    }

    fn exchange(
        &mut self,
        op: Opcode,
        ctx: Option<TraceContext>,
        payload: Vec<u8>,
    ) -> Result<Frame> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let frame = match ctx {
            Some(ctx) => traced_request(op, id, ctx, &payload),
            None => Frame::request(op, id, payload),
        };
        frame.write_to(&mut self.stream)?;
        let reply = Frame::read_from(&mut self.stream)?;
        // Status first: stream-level server errors carry request id 0
        // (the offending frame's id may not have been parseable), and
        // their diagnostic beats a correlation complaint.
        if reply.status != 0 {
            return Err(ServeError::Remote {
                code: reply.status,
                message: String::from_utf8_lossy(&reply.payload).into_owned(),
            });
        }
        if reply.request_id != id {
            return Err(ServeError::Internal(format!(
                "reply correlates to request {} instead of {id}",
                reply.request_id
            )));
        }
        if reply.opcode != op.reply() as u8 {
            return Err(ServeError::Internal(format!(
                "reply opcode {:#04x} does not answer request {:#04x}",
                reply.opcode, op as u8
            )));
        }
        Ok(reply)
    }

    /// Compress an image remotely; returns the `.qnc` bytes
    /// (byte-identical to an offline encode with the same model and
    /// options).
    ///
    /// # Errors
    /// Transport and remote errors.
    pub fn encode(&mut self, req: &EncodeRequest) -> Result<Vec<u8>> {
        Ok(self.roundtrip(Opcode::Encode, req.to_payload())?.payload)
    }

    /// [`Client::encode`] with a trace context riding the request; the
    /// returned `.qnc` bytes are identical to an untraced encode.
    ///
    /// # Errors
    /// Transport and remote errors.
    pub fn encode_traced(&mut self, req: &EncodeRequest, ctx: TraceContext) -> Result<Vec<u8>> {
        Ok(self
            .roundtrip_traced(Opcode::Encode, ctx, req.to_payload())?
            .payload)
    }

    /// Decompress `.qnc` bytes remotely (inline model, or a model the
    /// server's zoo knows).
    ///
    /// # Errors
    /// Transport and remote errors; malformed reply payloads.
    pub fn decode(&mut self, container: &[u8]) -> Result<GrayImage> {
        let reply = self.roundtrip(Opcode::Decode, container.to_vec())?;
        image_from_reply(&reply)
    }

    /// [`Client::decode`] with a trace context riding the request; the
    /// returned pixels are identical to an untraced decode.
    ///
    /// # Errors
    /// Transport and remote errors; malformed reply payloads.
    pub fn decode_traced(&mut self, container: &[u8], ctx: TraceContext) -> Result<GrayImage> {
        let reply = self.roundtrip_traced(Opcode::Decode, ctx, container.to_vec())?;
        image_from_reply(&reply)
    }

    /// Add a `.qnm` model to the server's zoo; returns its id.
    ///
    /// # Errors
    /// Transport and remote errors; malformed reply payloads.
    pub fn load_model(&mut self, model: &[u8]) -> Result<u64> {
        let reply = self.roundtrip(Opcode::LoadModel, model.to_vec())?;
        let bytes: [u8; 8] = reply.payload.as_slice().try_into().map_err(|_| {
            ServeError::Internal(format!(
                "model-id reply holds {} bytes, expected 8",
                reply.payload.len()
            ))
        })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Enumerate the server's model zoo (id, serialized size, RAM
    /// residency), sorted by id.
    ///
    /// # Errors
    /// Transport and remote errors; malformed reply payloads.
    pub fn list_models(&mut self) -> Result<Vec<ModelEntry>> {
        let reply = self.roundtrip(Opcode::ListModels, Vec::new())?;
        model_list_from_payload(&reply.payload)
    }

    /// Server status JSON (no payload) or file info JSON (a `.qnc` /
    /// `.qnm` payload) — the same JSON `qnc info --json` prints.
    ///
    /// # Errors
    /// Transport and remote errors.
    pub fn info(&mut self, file: Option<&[u8]>) -> Result<String> {
        let reply = self.roundtrip(Opcode::Info, file.map_or_else(Vec::new, <[u8]>::to_vec))?;
        String::from_utf8(reply.payload)
            .map_err(|_| ServeError::Internal("info reply is not UTF-8".into()))
    }

    /// The server's telemetry snapshot as single-line JSON (counters,
    /// gauges, histogram percentiles, uptime).
    ///
    /// # Errors
    /// Transport and remote errors.
    pub fn stats(&mut self) -> Result<String> {
        let reply = self.roundtrip(Opcode::Stats, Vec::new())?;
        String::from_utf8(reply.payload)
            .map_err(|_| ServeError::Internal("stats reply is not UTF-8".into()))
    }

    /// Captured span traces as single-line JSON (parse with
    /// [`qn_trace::parse_traces`]): the recent ring, or the always-keep
    /// slow buffer with `slow`, optionally filtered to one trace id.
    ///
    /// # Errors
    /// Transport and remote errors.
    pub fn trace(&mut self, slow: bool, id: Option<u64>) -> Result<String> {
        let reply = self.roundtrip(Opcode::Trace, trace_request_payload(slow, id))?;
        String::from_utf8(reply.payload)
            .map_err(|_| ServeError::Internal("trace reply is not UTF-8".into()))
    }
}

/// The decoded image carried by a `DECODE` reply frame.
fn image_from_reply(reply: &Frame) -> Result<GrayImage> {
    let (img, rest) = read_image_payload(&reply.payload)?;
    if !rest.is_empty() {
        return Err(ServeError::Internal(format!(
            "{} trailing bytes after the decode reply image",
            rest.len()
        )));
    }
    Ok(img)
}

/// Build the `ENCODE` request matching an offline
/// `Codec::encode_image(img, opts)` call with a spectral model
/// distilled from the image (the `qnc compress` default).
///
/// Out-of-range `tile_size`/`latent_dim` values saturate to `u16::MAX`
/// rather than silently wrapping, so the server rejects them with a
/// typed error instead of encoding with parameters the caller never
/// asked for.
pub fn spectral_encode_request(
    img: &GrayImage,
    opts: &CodecOptions,
    latent_dim: usize,
) -> EncodeRequest {
    EncodeRequest {
        tile_size: saturate_u16(opts.tile_size),
        bits: opts.bits,
        flags: option_flags(opts),
        latent_dim: saturate_u16(latent_dim),
        entropy: opts.entropy,
        model_id: 0,
        image: img.clone(),
    }
}

/// Build the `ENCODE` request matching an offline encode with a model
/// the server's zoo already holds (see [`Client::load_model`]).
pub fn model_encode_request(img: &GrayImage, opts: &CodecOptions, model_id: u64) -> EncodeRequest {
    EncodeRequest {
        tile_size: saturate_u16(opts.tile_size),
        bits: opts.bits,
        flags: option_flags(opts) | ENC_FLAG_USE_MODEL_ID,
        latent_dim: 0,
        entropy: opts.entropy,
        model_id,
        image: img.clone(),
    }
}

fn saturate_u16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

fn option_flags(opts: &CodecOptions) -> u8 {
    let mut flags = 0u8;
    if opts.per_tile_scale {
        flags |= ENC_FLAG_PER_TILE_SCALE;
    }
    if opts.inline_model {
        flags |= ENC_FLAG_INLINE_MODEL;
    }
    flags
}
