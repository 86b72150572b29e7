//! The `qnc serve` child and what the benchmark reads from it: set-up,
//! `STATS` before and after a window, and the span trees `TRACE` returns
//! for sampled requests.

use crate::host;
use crate::loadgen::{self, Kind, Load, WindowResult};
use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::{err, stats, Args};
use qn_codec::Codec;
use qn_serve::protocol::Frame;
use qn_serve::Client;
use qn_trace::Trace;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// A `qnc serve` child. Dropping it kills the child and waits for it.
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn start(qnc: &Path, log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        // No pre-exec hook: it would force a fork of this process, whose
        // request frames make page-table copies slow and noisy, where a
        // plain spawn can use posix_spawn.
        let mut child = Command::new(qnc)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", qnc.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(err)? == 0 {
                return Err("qnc serve exited before printing its address".into());
            }
            if let Some(addr) = line.trim().strip_prefix("qn-serve listening on ") {
                server.addr = addr.parse().map_err(|e| format!("banner {addr:?}: {e}"))?;
                break;
            }
        }
        // Keep draining stdout so a full pipe can never stall the server.
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A started server with its generator connections, ready to load.
pub struct Session {
    server: Server,
    control: Client,
    conns: Vec<TcpStream>,
}

/// Set up one server: fit the zoo models (when the load has any), start
/// the child and wait until it answers `INFO`, `LOAD_MODEL` every model,
/// open `nproc` generator connections, and run one warm-up op per
/// direction. Returns the session and the set-up time; the warm-up
/// replies are checked after the clock stops.
pub fn setup(
    args: &Args,
    load: &Load,
    fit: &dyn Fn() -> Result<Vec<Codec>, String>,
    oracle: &mut Oracle,
) -> Result<(Session, f64), String> {
    let t0 = Instant::now();
    let models = fit()?;
    let log = args.out.join(format!("qnc-serve-{}.log", load.name));
    let server = Server::start(&args.qnc, &log)?;
    let mut control = Client::connect(server.addr).map_err(err)?;
    control.info(None).map_err(err)?;
    let mut loaded = Vec::new();
    for m in &models {
        let body = qn_codec::model::encode_model(m.model());
        loaded.push((control.load_model(&body).map_err(err)?, m.model_id()));
    }
    let mut streams = Vec::new();
    for _ in 0..host::nproc() {
        let s = TcpStream::connect(server.addr).map_err(err)?;
        s.set_nodelay(true).map_err(err)?;
        streams.push(s);
    }
    let mut warm = Vec::new();
    for k in 0..2 {
        let op = load.op(k, None);
        streams[0].write_all(&load.frame(&op)).map_err(err)?;
        warm.push((op, Frame::read_from(&mut streams[0]).map_err(err)?));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let want: Vec<u64> = load.models.iter().map(Codec::model_id).collect();
    let fitted: Vec<u64> = models.iter().map(Codec::model_id).collect();
    oracle.require(0, "set-up fit", fitted == want, || {
        format!("fitted models {fitted:x?} differ from the references' {want:x?}")
    });
    for (id, expected) in loaded {
        oracle.require(0, "load_model", id == expected, || {
            format!("server id {id:#x}, offline id {expected:#x}")
        });
    }
    for (op, reply) in &warm {
        if reply.status != 0 {
            return Err(format!(
                "warm-up op {} failed: {}",
                op.index,
                String::from_utf8_lossy(&reply.payload)
            ));
        }
        load.check(oracle, op, &reply.payload);
    }
    for s in &streams {
        s.set_nonblocking(true).map_err(err)?;
    }
    let session = Session {
        server,
        control,
        conns: streams,
    };
    Ok((session, setup_s))
}

impl Session {
    pub fn pid(&self) -> u32 {
        self.server.pid()
    }

    /// Drive the closed loop on this session's connections.
    pub fn drive(
        &mut self,
        load: &Load,
        seconds: f64,
        sample_every: Option<u64>,
        next_op: &mut u64,
        oracle: &mut Oracle,
    ) -> Result<WindowResult, String> {
        let pid = self.pid();
        loadgen::drive(
            &mut self.conns,
            pid,
            load,
            seconds,
            sample_every,
            next_op,
            oracle,
        )
    }
}

/// Integer value after `"key":` in a STATS document (0 when absent).
fn stat(json: &str, key: &str) -> u64 {
    json.find(&format!("\"{key}\":"))
        .map(|i| leading_u64(&json[i + key.len() + 3..]))
        .unwrap_or(0)
}

/// Sum of every counter whose key starts with `prefix`.
fn stat_sum(json: &str, prefix: &str) -> u64 {
    let pat = format!("\"{prefix}");
    let mut total = 0;
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        if let Some(j) = rest.find("\":") {
            total += leading_u64(&rest[j + 2..]);
        }
    }
    total
}

/// A field of a histogram entry (`"key":{"count":…,"sum":…}`).
fn stat_hist(json: &str, key: &str, field: &str) -> u64 {
    json.find(&format!("\"{key}\":{{"))
        .map(|i| stat(&json[i..], field))
        .unwrap_or(0)
}

fn leading_u64(s: &str) -> u64 {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().unwrap_or(0)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer samples from sampled span trees. Span names come from the
/// trees, so spans a later server adds show up in the report unedited.
fn span_samples(traces: &[(Kind, f64, Trace)]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &str, v: f64| out.entry(k.to_string()).or_default().push(v);
    for (kind, latency_ms, t) in traces {
        let op = if *kind == Kind::Encode {
            "encode"
        } else {
            "decode"
        };
        let ms = |i: usize| t.spans[i].duration_ns() as f64 * 1e-6;
        let root_ms = ms(0);
        for (i, s) in t.spans.iter().enumerate().skip(1) {
            push(&format!("span.{op}.{}_ms", s.name), ms(i));
        }
        let children = t.children(0);
        let covered: f64 = children.iter().map(|&i| ms(i)).sum();
        if root_ms > 0.0 {
            push("server.unattributed_share", 1.0 - covered / root_ms);
        }
        push("reactor.outside_root_ms", latency_ms - root_ms);
        let by_name = |n: &str| children.iter().copied().find(|&i| t.spans[i].name == n);
        if let Some(q) = by_name("queue_wait") {
            push("server.queue_wait_ms", ms(q));
        } else if let Some(fr) = by_name("frame_read") {
            let read_end = t.spans[fr].end_ns;
            let first = children
                .iter()
                .filter(|&&i| i != fr)
                .map(|&i| t.spans[i].start_ns)
                .min();
            if let Some(first) = first.filter(|&s| s >= read_end) {
                push("server.queue_wait_ms", (first - read_end) as f64 * 1e-6);
            }
        }
        for (span, metric) in [
            ("reply_write", "reactor.reply_write_ms"),
            ("parse", "protocol.parse_ms"),
            ("spectral", "spectral.fit_ms"),
            ("prepare", "server.prepare_ms"),
            ("quantize", "server.quantize_ms"),
            ("entropy", "server.entropy_ms"),
            ("stitch", "server.stitch_ms"),
            ("mesh_pass", "batcher.mesh_pass_ms"),
        ] {
            for (i, s) in t.spans.iter().enumerate() {
                if s.name == span {
                    push(metric, ms(i));
                }
            }
        }
        for (i, s) in t.spans.iter().enumerate() {
            if s.name == "batch_wait" {
                let mesh: f64 = t
                    .children(i)
                    .iter()
                    .filter(|&&j| t.spans[j].name == "mesh_pass")
                    .map(|&j| ms(j))
                    .sum();
                push("batcher.wait_ms", ms(i) - mesh);
            }
        }
    }
    out
}

/// The per-layer metrics of the server side, from one traced window.
pub struct ServerLayers {
    samples: BTreeMap<String, Vec<f64>>,
    pub window: WindowResult,
    before: String,
    after: String,
    nproc: usize,
}

impl ServerLayers {
    fn p50(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| stats::median(v))
    }

    fn delta(&self, key: &str) -> u64 {
        stat(&self.after, key).saturating_sub(stat(&self.before, key))
    }

    fn delta_sum(&self, prefix: &str) -> u64 {
        stat_sum(&self.after, prefix).saturating_sub(stat_sum(&self.before, prefix))
    }

    pub fn loadgen_share(&self) -> f64 {
        self.window.gen_cpu_s / self.window.window_s
    }

    pub fn table_cache_hit_share(&self) -> f64 {
        let hits = self.delta("gate_table_cache_hits");
        share(hits, hits + self.delta("gate_table_cache_misses"))
    }

    /// Median of the server's `spectral` spans, when it ran fits.
    pub fn fit_ms(&self) -> Option<f64> {
        self.samples
            .get("spectral.fit_ms")
            .map(|v| stats::median(v))
    }

    /// Push the reactor, protocol, server, batcher and store metrics.
    pub fn push(&self, out: &mut Outcome) {
        let w = &self.window;
        let requests = self.delta_sum("serve_requests_total{");
        let flushes = self.delta_sum("batch_flushes_total{");
        let flush_count = stat_hist(&self.after, "batch_flush_tiles", "count")
            .saturating_sub(stat_hist(&self.before, "batch_flush_tiles", "count"));
        let flush_tiles = stat_hist(&self.after, "batch_flush_tiles", "sum")
            .saturating_sub(stat_hist(&self.before, "batch_flush_tiles", "sum"));
        let zoo_hits = self.delta("zoo_hits_total");
        let zoo_misses = self.delta("zoo_misses_total");
        // No `reactor.frame_read_ms`: on zoo-32 whole frames arrive in one
        // read, so that span is exactly 0 on every run; the per-span notes
        // still print it, and `protocol.bytes_in_per_req` carries the
        // frame-size prediction.
        for key in ["reactor.reply_write_ms", "reactor.outside_root_ms"] {
            out.metric(key, self.p50(key), "ms");
        }
        let bytes_in = self.delta("serve_frame_bytes_in_total");
        let bytes_out = self.delta("serve_frame_bytes_out_total");
        out.metric("protocol.bytes_in_per_req", share(bytes_in, requests), "B");
        out.metric(
            "protocol.bytes_out_per_req",
            share(bytes_out, requests),
            "B",
        );
        out.metric("protocol.parse_ms", self.p50("protocol.parse_ms"), "ms");
        for key in [
            "server.queue_wait_ms",
            "server.prepare_ms",
            "server.quantize_ms",
            "server.entropy_ms",
            "server.stitch_ms",
        ] {
            out.metric(key, self.p50(key), "ms");
        }
        let util = w.child_cpu_s / (w.window_s * self.nproc as f64);
        out.metric("server.cpu_util", util, "share");
        out.metric(
            "server.unattributed_share",
            self.p50("server.unattributed_share"),
            "share",
        );
        out.metric(
            "server.busy_share",
            share(self.delta("serve_busy_total"), requests),
            "share",
        );
        out.metric("batcher.wait_ms", self.p50("batcher.wait_ms"), "ms");
        out.metric(
            "batcher.mesh_pass_ms",
            self.p50("batcher.mesh_pass_ms"),
            "ms",
        );
        out.metric(
            "batcher.tiles_per_flush_mean",
            share(flush_tiles, flush_count),
            "tiles",
        );
        out.metric(
            "batcher.deadline_flush_share",
            share(self.delta("batch_flushes_total{cause=deadline}"), flushes),
            "share",
        );
        out.metric(
            "store.hit_share",
            share(zoo_hits, zoo_hits + zoo_misses),
            "share",
        );
        out.note(format!(
            "traced window: {} sampled span trees, {requests} requests, {flush_count} flushes, \
             table cache hit share {:.4}, zoo {zoo_hits} hits / {zoo_misses} misses",
            w.traces.len(),
            self.table_cache_hit_share()
        ));
        for (key, v) in self.samples.iter().filter(|(k, _)| k.starts_with("span.")) {
            out.note(format!(
                "{key:<34} p50 {:.4} ms over {} spans",
                stats::median(v),
                v.len()
            ));
        }
    }

    /// Write the sampled span trees out (they stay in memory until now).
    pub fn dump(&self, path: &Path) -> Result<(), String> {
        let traces: Vec<Trace> = self.window.traces.iter().map(|t| t.2.clone()).collect();
        std::fs::write(path, qn_trace::traces_json(&traces))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Run a traced window on a set-up session and collect server layers.
pub fn traced_window(
    session: &mut Session,
    load: &Load,
    seconds: f64,
    sample_every: u64,
    next_op: &mut u64,
    oracle: &mut Oracle,
) -> Result<ServerLayers, String> {
    let before = session.control.stats().map_err(err)?;
    let window = session.drive(load, seconds, Some(sample_every), next_op, oracle)?;
    let after = session.control.stats().map_err(err)?;
    Ok(ServerLayers {
        samples: span_samples(&window.traces),
        window,
        before,
        after,
        nproc: host::nproc(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_documents_are_read_by_key() {
        let json = "{\"uptime_secs\":3,\"counters\":{\"batch_flushes_total{cause=deadline}\":4,\
                    \"batch_flushes_total{cause=eager}\":6,\"serve_busy_total\":0},\
                    \"gauges\":{\"gate_table_cache_hits\":12},\"histograms\":{\"batch_flush_tiles\":\
                    {\"count\":10,\"sum\":640,\"min\":1,\"max\":9,\"p50\":8}}}";
        assert_eq!(stat(json, "gate_table_cache_hits"), 12);
        assert_eq!(stat(json, "missing"), 0);
        assert_eq!(stat_sum(json, "batch_flushes_total{"), 10);
        assert_eq!(stat_hist(json, "batch_flush_tiles", "sum"), 640);
        assert_eq!(stat_hist(json, "batch_flush_tiles", "count"), 10);
    }
}
