//! `qn-serve` — a long-running codec server.
//!
//! The offline `qnc` CLI pays the full model-build and dispatch cost on
//! every invocation. This crate turns the codec into a service, the
//! shape the companion work "Quantum Sparse Coding and Decoding Based
//! on Quantum Network" (Ji et al., 2024) frames for the same mesh: one
//! hot decoder shared by many encoded payloads.
//!
//! - [`protocol`] — the length-prefixed, versioned, CRC-checked binary
//!   frame format (`ENCODE`/`DECODE`/`LOAD_MODEL`/`INFO`, typed error
//!   replies, hard frame-size limits);
//! - [`store`] — the content-addressed model zoo: a directory of
//!   `.qnm` files keyed by model id with an LRU-bounded in-memory
//!   cache, so `.qnc` containers referencing a known model id decode
//!   without inline models;
//! - `reactor` (crate-private) — the event-driven connection plumbing:
//!   a `poll(2)` wrapper (three-symbol FFI, no async runtime in this
//!   offline environment), a wakeup pipe per reactor, the
//!   per-connection incremental frame state machine, and the
//!   nonblocking reads;
//! - [`server`] — the connection core: one reactor thread per core,
//!   each owning the sockets reactor 0 hands it round-robin (10k+ idle
//!   connections cost no threads). Complete frames are
//!   admission-checked (global and per-connection in-flight caps answer
//!   typed `BUSY` instead of queueing unboundedly). A one-panel ENCODE
//!   or DECODE by a cached model id then runs the offline codec
//!   schedule on the reactor that read it; everything else goes to a
//!   bounded worker pool, where each request runs the same schedule —
//!   mesh pass included — on its worker. Inline and worker replies
//!   alike are released in request order;
//! - [`client`] — the blocking client used by `qnc remote` and tests;
//! - [`metrics`] — the server's telemetry catalogue over
//!   [`qn_metrics`]: per-opcode request/error counters, latency and
//!   per-stage histograms, zoo hit rates — recorded by every server
//!   and read out over the `STATS` RPC, the one way out;
//! - [`stages`] — the stage vocabulary and the per-request recorder
//!   behind histograms, span trees and `qnc --timings` alike, which the
//!   codec's schedules run their stages through;
//! - [`log`] — leveled, timestamped single-line stderr logging for the
//!   `qnc serve` process.
//!
//! Per-request **span tracing** ([`qn_trace`]) rides the same wire: a
//! client sets `REQ_STATUS_TRACED` and prefixes its payload with a
//! 9-byte trace context (id + sampled flag), the server records the
//! request's span tree (frame read, queue wait, parse, codec stages
//! with the mesh pass, reply write) and serves it back over the `TRACE`
//! RPC. Tracing never changes reply bytes, and an untraced request
//! records its stages into histograms only. Metrics and tracing have
//! no off switch: `STATS` and `TRACE` answer on every server.
//!
//! Responses are **byte-identical** to offline `qnc` runs with the
//! same model and options: the serve path calls the codec's own
//! schedules, and the integration suite pins the equality.

pub mod client;
pub mod error;
pub mod log;
pub mod metrics;
pub mod protocol;
mod reactor;
pub mod server;
pub mod stages;
pub mod store;

pub use client::Client;
pub use error::ServeError;
pub use log::{LogLevel, Logger};
pub use metrics::ServeMetrics;
pub use protocol::{
    ErrorCode, Frame, Opcode, TraceContext, PROTOCOL_VERSION, REQ_STATUS_TRACED, TRACE_FLAG_SAMPLED,
};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use store::{ModelStore, StoreMetrics};
