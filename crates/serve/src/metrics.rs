//! The server's telemetry surface: every metric the serving stack
//! records, registered once in a single [`Registry`] and exposed
//! through the `STATS` RPC, `qnc serve --metrics-dump-secs`, and
//! `qnc remote stats`.
//!
//! # Metric catalogue
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `serve_requests_total` | counter | `op` = `encode`/`decode`/`load_model`/`info`/`list_models`/`stats`/`trace`/`unknown` |
//! | `serve_errors_total` | counter | `code` = [`ErrorCode::label`] |
//! | `serve_request_latency_ns` | histogram | `op` (whole request: frame fully read → reply written) |
//! | `serve_frame_bytes_in_total` / `serve_frame_bytes_out_total` | counter | — |
//! | `serve_connections_total` | counter | — |
//! | `serve_open_connections` | gauge | — |
//! | `serve_inflight_requests` | gauge | — (ENCODE/DECODE requests from frame header to reply release) |
//! | `serve_read_deadline_reaps_total` | counter | — |
//! | `serve_busy_total` | counter | — (requests shed with a typed `BUSY` reply by the admission limits) |
//! | `serve_stage_ns` | histogram | `op`+`stage`: encode `frame_read`/`queue_wait`/`parse`/`spectral`/`prepare`/`mesh_pass`/`quantize`/`entropy`/`reply_write`; decode `frame_read`/`queue_wait`/`parse`/`prepare`/`mesh_pass`/`stitch`/`reply_write` (every admitted ENCODE/DECODE, traced or not, under the span names of a traced request; see [`crate::stages`]) |
//! | `codec_coded_bytes_total` / `codec_decoded_bytes_total` | counter | `coder` = `rice`/`rice-pos`/`range` |
//! | `zoo_hits_total` / `zoo_misses_total` / `zoo_inserts_total` | counter | — |
//! | `zoo_cached_models` | gauge | — |
//! | `gate_table_cache_hits` / `gate_table_cache_misses` / `gate_table_cache_entries` | gauge | — (process-wide [`qn_backend::table_cache_stats`], synced at exposition) |
//!
//! Hot-path handles (per-opcode counters/histograms, per-stage
//! histograms, per-coder byte counters) are pre-resolved into arrays at
//! construction, so request handling never touches the registry mutex.
//! Error counters resolve through the registry on demand — errors are
//! cold.
//!
//! Determinism: counters and gauges are exact (the integration suite
//! asserts request counts under concurrency); durations are wall-clock
//! and never asserted.

use crate::protocol::{ErrorCode, Opcode};
use crate::stages;
use crate::store::StoreMetrics;
use qn_codec::EntropyCoder;
use qn_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// The request opcodes, in wire order — the index into the per-opcode
/// metric arrays.
pub const REQUEST_OPS: [Opcode; 7] = [
    Opcode::Encode,
    Opcode::Decode,
    Opcode::LoadModel,
    Opcode::Info,
    Opcode::ListModels,
    Opcode::Stats,
    Opcode::Trace,
];

/// All metric handles a running server updates, plus the registry that
/// exposes them. Built once per server; shared behind an `Arc`.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    started: Instant,
    requests: [Arc<Counter>; 7],
    requests_unknown: Arc<Counter>,
    latency: [Arc<Histogram>; 7],
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    connections: Arc<Counter>,
    open_connections: Arc<Gauge>,
    inflight: Arc<Gauge>,
    reaps: Arc<Counter>,
    busy: Arc<Counter>,
    /// `serve_stage_ns`, in [`stages::ENCODE`] / [`stages::DECODE`]
    /// order.
    enc_stage: [Arc<Histogram>; stages::ENCODE.len()],
    dec_stage: [Arc<Histogram>; stages::DECODE.len()],
    coded_bytes: [Arc<Counter>; 3],
    decoded_bytes: [Arc<Counter>; 3],
    store: StoreMetrics,
    /// Point-in-time mirrors of the process-wide gate-table cache
    /// counters ([`qn_backend::table_cache_stats`]), synced on every
    /// exposition so they sit next to the zoo hit/miss series.
    table_hits: Arc<Gauge>,
    table_misses: Arc<Gauge>,
    table_entries: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Register the full serving catalogue in a fresh registry.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let req = |op: Opcode| registry.counter_with("serve_requests_total", &[("op", op.label())]);
        let lat =
            |op: Opcode| registry.histogram_with("serve_request_latency_ns", &[("op", op.label())]);
        let stage = |op: Opcode, stage: &str| {
            registry.histogram_with("serve_stage_ns", &[("op", op.label()), ("stage", stage)])
        };
        let per_coder = |name: &str| {
            EntropyCoder::ALL.map(|c| {
                let label = c.to_string();
                registry.counter_with(name, &[("coder", &label)])
            })
        };
        let store = StoreMetrics::new(&registry);
        ServeMetrics {
            started: Instant::now(),
            requests: REQUEST_OPS.map(req),
            requests_unknown: registry.counter_with("serve_requests_total", &[("op", "unknown")]),
            latency: REQUEST_OPS.map(lat),
            bytes_in: registry.counter("serve_frame_bytes_in_total"),
            bytes_out: registry.counter("serve_frame_bytes_out_total"),
            connections: registry.counter("serve_connections_total"),
            open_connections: registry.gauge("serve_open_connections"),
            inflight: registry.gauge("serve_inflight_requests"),
            reaps: registry.counter("serve_read_deadline_reaps_total"),
            busy: registry.counter("serve_busy_total"),
            enc_stage: stages::ENCODE.map(|s| stage(Opcode::Encode, s)),
            dec_stage: stages::DECODE.map(|s| stage(Opcode::Decode, s)),
            coded_bytes: per_coder("codec_coded_bytes_total"),
            decoded_bytes: per_coder("codec_decoded_bytes_total"),
            store,
            table_hits: registry.gauge("gate_table_cache_hits"),
            table_misses: registry.gauge("gate_table_cache_misses"),
            table_entries: registry.gauge("gate_table_cache_entries"),
            registry,
        }
    }

    /// The registry backing every handle (for exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Handles for the [`crate::store::ModelStore`].
    pub fn store_metrics(&self) -> StoreMetrics {
        self.store.clone()
    }

    /// Seconds since these metrics (the server) came up.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    fn op_index(op: Opcode) -> Option<usize> {
        REQUEST_OPS.iter().position(|&o| o == op)
    }

    /// Count one request of `op` (`None` = unrecognised opcode byte).
    pub fn record_request(&self, op: Option<Opcode>) {
        match op.and_then(Self::op_index) {
            Some(i) => self.requests[i].inc(),
            None => self.requests_unknown.inc(),
        }
    }

    /// Count one typed error reply.
    pub fn record_error(&self, code: ErrorCode) {
        // Cold path: registry lookup (idempotent) instead of eleven
        // pre-resolved handles.
        self.registry
            .counter_with("serve_errors_total", &[("code", code.label())])
            .inc();
    }

    /// Record a whole-request latency (frame fully read → reply
    /// written; excludes the peer's own frame-delivery time).
    pub fn record_latency(&self, op: Option<Opcode>, ns: u64) {
        if let Some(i) = op.and_then(Self::op_index) {
            self.latency[i].observe(ns);
        }
    }

    /// Count a fully received request frame's bytes on the wire.
    pub fn record_frame_in(&self, bytes: u64) {
        self.bytes_in.add(bytes);
    }

    /// Count a written reply frame's bytes on the wire.
    pub fn record_frame_out(&self, bytes: u64) {
        self.bytes_out.add(bytes);
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        self.connections.inc();
        self.open_connections.add(1);
    }

    /// A connection ended (any reason).
    pub fn connection_closed(&self) {
        self.open_connections.sub(1);
    }

    /// A connection was reaped by the frame read deadline.
    pub fn record_reap(&self) {
        self.reaps.inc();
    }

    /// A request was shed with a typed `BUSY` reply (global admission
    /// limit or per-connection in-flight cap).
    pub fn record_busy(&self) {
        self.busy.inc();
    }

    /// Mesh-bound (ENCODE/DECODE) requests in flight, counted from the
    /// arrival of their frame header until their reply is released.
    pub fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// Record one ENCODE or DECODE stage into its
    /// `serve_stage_ns{op,stage}` histogram. Other opcodes, and names
    /// outside the op's vocabulary, have no series and record nothing.
    pub fn record_stage(&self, op: Opcode, stage: &str, ns: u64) {
        let (names, hists): (&[&str], &[Arc<Histogram>]) = match op {
            Opcode::Encode => (&stages::ENCODE, &self.enc_stage),
            Opcode::Decode => (&stages::DECODE, &self.dec_stage),
            _ => return,
        };
        if let Some(i) = names.iter().position(|&name| name == stage) {
            hists[i].observe(ns);
        }
    }

    /// Count container bytes produced by an encode, per entropy coder.
    pub fn record_coded_bytes(&self, coder: EntropyCoder, bytes: u64) {
        self.coded_bytes[coder.wire_id() as usize].add(bytes);
    }

    /// Count container bytes consumed by a decode, per entropy coder.
    pub fn record_decoded_bytes(&self, coder: EntropyCoder, bytes: u64) {
        self.decoded_bytes[coder.wire_id() as usize].add(bytes);
    }

    /// Mirror explicit gate-table cache readings into the registry's
    /// gauges. Split from [`ServeMetrics::sync_gate_table_cache`] so
    /// tests can pin exposition bytes without depending on the
    /// process-wide cache state.
    pub fn set_gate_table_stats(&self, hits: u64, misses: u64, entries: u64) {
        self.table_hits.set(hits as i64);
        self.table_misses.set(misses as i64);
        self.table_entries.set(entries as i64);
    }

    /// Refresh the gate-table cache gauges from the live process-wide
    /// counters. Called on every exposition — the cache has no
    /// registry hooks of its own (it predates `qn-metrics`), so its
    /// counters are sampled rather than streamed.
    pub fn sync_gate_table_cache(&self) {
        let s = qn_backend::table_cache_stats();
        self.set_gate_table_stats(s.hits, s.misses, s.entries as u64);
    }

    /// The `STATS` reply payload: `uptime_secs` spliced ahead of the
    /// registry's byte-stable `counters`/`gauges`/`histograms`
    /// sections, single line.
    pub fn stats_json(&self) -> String {
        self.sync_gate_table_cache();
        let registry_json = self.registry.to_json();
        format!(
            "{{\"uptime_secs\":{},{}",
            self.uptime_secs(),
            &registry_json[1..]
        )
    }

    /// The registry as Prometheus-style text, with the gate-table
    /// cache gauges freshly synced.
    pub fn prometheus(&self) -> String {
        self.sync_gate_table_cache();
        self.registry.to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_routes_to_its_own_counter() {
        let m = ServeMetrics::new();
        for op in REQUEST_OPS {
            m.record_request(Some(op));
        }
        m.record_request(Some(Opcode::Encode));
        m.record_request(None);
        let json = m.registry().to_json();
        assert!(
            json.contains("\"serve_requests_total{op=encode}\":2"),
            "{json}"
        );
        for label in [
            "decode",
            "load_model",
            "info",
            "list_models",
            "stats",
            "trace",
        ] {
            assert!(
                json.contains(&format!("\"serve_requests_total{{op={label}}}\":1")),
                "{json}"
            );
        }
        assert!(
            json.contains("\"serve_requests_total{op=unknown}\":1"),
            "{json}"
        );
        // Reply opcodes never have their own series.
        m.record_request(Some(Opcode::EncodeReply));
        assert!(
            m.registry()
                .to_json()
                .contains("\"serve_requests_total{op=unknown}\":2"),
            "a reply opcode arriving as a request counts as unknown"
        );
    }

    #[test]
    fn stage_and_coder_metrics_land_under_stable_keys() {
        let m = ServeMetrics::new();
        for (op, names) in [
            (Opcode::Encode, &stages::ENCODE[..]),
            (Opcode::Decode, &stages::DECODE[..]),
        ] {
            for (i, name) in names.iter().enumerate() {
                m.record_stage(op, name, 100 + i as u64);
            }
        }
        // No series outside the vocabulary: other opcodes, unknown
        // names and the old `mesh` label record nothing.
        m.record_stage(Opcode::Info, "parse", 1);
        m.record_stage(Opcode::Encode, "mesh", 1);
        m.record_stage(Opcode::Decode, "spectral", 1);
        m.record_coded_bytes(EntropyCoder::Range, 1000);
        m.record_decoded_bytes(EntropyCoder::Rice, 500);
        let json = m.registry().to_json();
        for key in [
            "serve_stage_ns{op=encode,stage=frame_read}",
            "serve_stage_ns{op=encode,stage=queue_wait}",
            "serve_stage_ns{op=encode,stage=spectral}",
            "serve_stage_ns{op=encode,stage=mesh_pass}",
            "serve_stage_ns{op=encode,stage=reply_write}",
            "serve_stage_ns{op=decode,stage=parse}",
            "serve_stage_ns{op=decode,stage=mesh_pass}",
            "serve_stage_ns{op=decode,stage=stitch}",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":{{\"count\":1")),
                "{key}: {json}"
            );
        }
        for absent in [
            "stage=mesh}",
            "serve_stage_ns{op=info",
            "op=decode,stage=spectral",
        ] {
            assert!(!json.contains(absent), "{absent}: {json}");
        }
        assert!(
            json.contains("\"codec_coded_bytes_total{coder=range}\":1000"),
            "{json}"
        );
        assert!(
            json.contains("\"codec_decoded_bytes_total{coder=rice}\":500"),
            "{json}"
        );
    }

    #[test]
    fn stats_json_is_one_line_and_leads_with_uptime() {
        let m = ServeMetrics::new();
        m.record_request(Some(Opcode::Info));
        let json = m.stats_json();
        assert!(json.starts_with("{\"uptime_secs\":"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(!json.contains('\n'));
        assert!(json.contains("\"counters\":{"), "{json}");
        assert!(json.contains("\"gauges\":{"), "{json}");
        assert!(json.contains("\"histograms\":{"), "{json}");
    }

    #[test]
    fn gate_table_gauges_sync_on_exposition() {
        let m = ServeMetrics::new();
        m.set_gate_table_stats(10, 3, 2);
        let json = m.registry().to_json();
        assert!(json.contains("\"gate_table_cache_hits\":10"), "{json}");
        assert!(json.contains("\"gate_table_cache_misses\":3"), "{json}");
        assert!(json.contains("\"gate_table_cache_entries\":2"), "{json}");
        // The exposition entry points re-sample the live cache (the
        // exact values race with concurrent tests exercising backends,
        // so only presence is asserted here — serve_integration pins
        // the live behaviour).
        let json = m.stats_json();
        assert!(json.contains("\"gate_table_cache_hits\":"), "{json}");
        let text = m.prometheus();
        assert!(text.contains("gate_table_cache_entries"), "{text}");
    }

    #[test]
    fn connection_and_inflight_gauges_move_both_ways() {
        let m = ServeMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.inflight().add(1);
        m.record_reap();
        m.record_busy();
        let json = m.registry().to_json();
        assert!(json.contains("\"serve_busy_total\":1"), "{json}");
        assert!(json.contains("\"serve_connections_total\":2"), "{json}");
        assert!(json.contains("\"serve_open_connections\":1"), "{json}");
        assert!(json.contains("\"serve_inflight_requests\":1"), "{json}");
        assert!(
            json.contains("\"serve_read_deadline_reaps_total\":1"),
            "{json}"
        );
        m.inflight().sub(1);
        assert!(m
            .registry()
            .to_json()
            .contains("\"serve_inflight_requests\":0"));
    }
}
