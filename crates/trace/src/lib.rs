//! `qn-trace` — the zero-dependency span-tracing core.
//!
//! [`qn-metrics`](../qn_metrics/index.html) answers "how is the server
//! doing" in aggregate; this crate answers "why was *this* request
//! slow". A single request's latency mixes frame reads, queue wait,
//! the spectral fit, the mesh pass and entropy coding — separating
//! those needs per-request attribution: a tree of named spans with
//! monotonic start/end times, parent links, and key=value attributes
//! (tile count, backend kind, coder). Built under the same compat-shim discipline as the
//! rest of the workspace: **std only**, no external crates.
//!
//! # Design
//!
//! - **Builder per request.** A [`TraceBuilder`] is a plain owned
//!   value — no thread-locals, no global propagation machinery. The
//!   instrumented path threads `Option<TraceBuilder>` along; untraced
//!   requests pay one branch per span site and nothing else.
//! - **Relative time, closed spans.** Spans store nanosecond offsets
//!   from the trace anchor (an [`Instant`] captured when the request's
//!   first header byte arrived), so a rendered trace is
//!   self-contained and wall-clock-free. Every span is recorded whole
//!   ([`TraceBuilder::record`]) from timings measured by the caller —
//!   e.g. the codec's named stage list (prepare, mesh pass, quantize,
//!   entropy) — so no span is ever left open; only the root closes, at
//!   [`TraceBuilder::finish`].
//! - **Recent ring + slow keep.** The [`Tracer`] sink holds two
//!   fixed-capacity buffers: a ring of the most recent completed
//!   traces, and a separate buffer that only admits traces whose root
//!   duration meets the slow threshold fixed at construction — so one
//!   burst of fast traffic cannot evict the slow outlier you are
//!   hunting. The same comparison hands a slow trace to the caller's
//!   slow hook (the server's WARN line).
//! - **Byte-stable JSON.** [`traces_json`] emits a single line with a
//!   fixed field order and integer-only numbers, so identical traces
//!   serialise to identical bytes; [`parse_traces`] reads exactly that
//!   subset back (the `qnc` client re-renders server traces locally).
//!
//! # Determinism caveat
//!
//! Span *durations* are wall-clock and not assertable; tests pin tree
//! shape, attribute plumbing, JSON bytes on fabricated traces, and
//! buffer policy — never live timings.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle to a span inside one [`TraceBuilder`] / [`Trace`].
///
/// Only meaningful for the builder that issued it; index 0 is always
/// the root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The root span of any trace.
    pub const ROOT: SpanId = SpanId(0);
}

/// One timed, named region of a trace. `start_ns`/`end_ns` are offsets
/// from the trace anchor; `parent` is an index into the owning trace's
/// span list (`None` only for the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, e.g. `"mesh_pass"`.
    pub name: String,
    /// Parent span index; `None` for the root.
    pub parent: Option<usize>,
    /// Start offset from the trace anchor, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace anchor, nanoseconds.
    pub end_ns: u64,
    /// `key=value` annotations, in recording order.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The span's duration in nanoseconds (0 if end precedes start).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A completed span tree. `spans[0]` is the root; every other span's
/// `parent` points at an earlier index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Caller-supplied 64-bit trace id (rendered as 16 hex digits).
    pub id: u64,
    /// The span tree in recording order, root first.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span's name (the trace name).
    pub fn name(&self) -> &str {
        &self.spans[0].name
    }

    /// Total duration: the root span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.spans[0].duration_ns()
    }

    /// Indices of the direct children of span `parent`, in recording
    /// order.
    pub fn children(&self, parent: usize) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(parent))
            .collect()
    }

    /// Find the first span (in recording order) with the given name.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The trace id as 16 lowercase hex digits.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// Render this trace as a single-line JSON object (see
    /// [`traces_json`] for the format contract).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        write_trace_json(&mut out, self);
        out
    }
}

/// In-progress trace: closed spans are recorded and gain attributes,
/// and the root closes when the tree is sealed with
/// [`TraceBuilder::finish`].
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    anchor: Instant,
    /// The tree so far, root first; the root's `end_ns` is set at
    /// [`TraceBuilder::finish`].
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// Start a trace now; the root span opens at offset 0.
    pub fn new(id: u64, name: &str) -> TraceBuilder {
        TraceBuilder::with_anchor(id, name, Instant::now())
    }

    /// Start a trace anchored at an earlier instant (e.g. when the
    /// request's header arrived), so spans recorded from now on get
    /// offsets relative to that point. The root opens at offset 0.
    pub fn with_anchor(id: u64, name: &str, anchor: Instant) -> TraceBuilder {
        TraceBuilder {
            id,
            anchor,
            spans: vec![Span {
                name: name.to_string(),
                parent: None,
                start_ns: 0,
                end_ns: 0,
                attrs: Vec::new(),
            }],
        }
    }

    /// Nanoseconds from the trace anchor to `at` (0 for instants
    /// before the anchor), for spans measured as [`Instant`] pairs.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.anchor).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a child span of `parent` measured elsewhere, with
    /// explicit anchor offsets (e.g. one entry of the codec's named
    /// stage list).
    ///
    /// # Panics
    /// If `parent` was not issued by this builder.
    pub fn record(&mut self, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) -> SpanId {
        assert!(parent.0 < self.spans.len(), "parent span out of range");
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent.0),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Attach a `key=value` attribute to span `id`.
    pub fn attr(&mut self, id: SpanId, key: &str, value: impl fmt::Display) {
        self.spans[id.0]
            .attrs
            .push((key.to_string(), value.to_string()));
    }

    /// Seal the trace: the root closes now.
    pub fn finish(mut self) -> Trace {
        self.spans[0].end_ns = self.offset_ns(Instant::now());
        Trace {
            id: self.id,
            spans: self.spans,
        }
    }
}

/// Sink for completed traces: a fixed-capacity ring of recent traces
/// plus an always-keep buffer for traces at or above the slow
/// threshold. Thread-safe; recording is one short mutex hold.
#[derive(Debug)]
pub struct Tracer {
    recent_cap: usize,
    slow_cap: usize,
    /// Slow threshold in nanoseconds; 0 disables slow capture.
    slow_threshold_ns: u64,
    buffers: Mutex<Buffers>,
}

#[derive(Debug, Default)]
struct Buffers {
    recent: VecDeque<Trace>,
    slow: VecDeque<Trace>,
}

impl Tracer {
    /// A tracer keeping up to `recent_cap` recent traces and
    /// `slow_cap` traces whose root lasts at least `slow_threshold`
    /// (`Duration::ZERO` disables slow capture).
    pub fn new(recent_cap: usize, slow_cap: usize, slow_threshold: Duration) -> Tracer {
        Tracer {
            recent_cap: recent_cap.max(1),
            slow_cap: slow_cap.max(1),
            slow_threshold_ns: u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            buffers: Mutex::new(Buffers::default()),
        }
    }

    /// Record a completed trace into the recent ring (evicting the
    /// oldest when full). A trace whose root meets the slow threshold
    /// is first handed to `on_slow`, then also kept in the slow buffer:
    /// one comparison decides both. The slow buffer is its own ring —
    /// fast traffic never evicts a slow trace; only a newer slow trace
    /// does.
    pub fn record(&self, trace: Trace, on_slow: impl FnOnce(&Trace)) {
        let slow = self.slow_threshold_ns > 0 && trace.duration_ns() >= self.slow_threshold_ns;
        if slow {
            on_slow(&trace);
        }
        let mut buf = self.buffers.lock().unwrap();
        if slow {
            if buf.slow.len() == self.slow_cap {
                buf.slow.pop_front();
            }
            buf.slow.push_back(trace.clone());
        }
        if buf.recent.len() == self.recent_cap {
            buf.recent.pop_front();
        }
        buf.recent.push_back(trace);
    }

    /// Snapshot the recent ring, oldest first.
    pub fn recent(&self) -> Vec<Trace> {
        self.buffers
            .lock()
            .unwrap()
            .recent
            .iter()
            .cloned()
            .collect()
    }

    /// Snapshot the slow buffer, oldest first.
    pub fn slow(&self) -> Vec<Trace> {
        self.buffers.lock().unwrap().slow.iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

/// Render a set of traces as one JSON line:
///
/// ```text
/// {"traces":[{"id":"00000000000000ff","name":"encode","duration_ns":9,
///   "spans":[{"name":"encode","parent":-1,"start_ns":0,"end_ns":9,
///   "attrs":{"tiles":"4"}},...]},...]}
/// ```
///
/// Field order is fixed, numbers are integers only, attribute order is
/// recording order — identical traces render to identical bytes.
pub fn traces_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_trace_json(&mut out, t);
    }
    out.push_str("]}");
    out
}

fn write_trace_json(out: &mut String, t: &Trace) {
    let _ = write!(out, "{{\"id\":\"{:016x}\",\"name\":", t.id);
    write_json_string(out, t.name());
    let _ = write!(out, ",\"duration_ns\":{},\"spans\":[", t.duration_ns());
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(out, &s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            s.start_ns, s.end_ns
        );
        for (j, (k, v)) in s.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_string(out, k);
            out.push(':');
            write_json_string(out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
}

/// Append `s` to `out` as a JSON string literal, with quotes,
/// backslashes and every control character escaped.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// JSON parsing (exactly the subset `traces_json` emits)
// ---------------------------------------------------------------------------

/// Parse a `{"traces":[...]}` document produced by [`traces_json`]
/// back into traces. This is a subset parser for the trace schema, not
/// a general JSON reader — unknown fields are rejected, which keeps
/// client and server renderings honest with each other.
pub fn parse_traces(json: &str) -> Result<Vec<Trace>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    p.expect_key("traces")?;
    p.expect(b'[')?;
    let mut traces = Vec::new();
    if !p.try_consume(b']') {
        loop {
            traces.push(p.trace()?);
            if !p.try_consume(b',') {
                p.expect(b']')?;
                break;
            }
        }
    }
    p.expect(b'}')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(traces)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected '{}' at offset {}, found {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    fn try_consume(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_key(&mut self, key: &str) -> Result<(), String> {
        let got = self.string()?;
        if got != key {
            return Err(format!("expected key \"{key}\", found \"{got}\""));
        }
        self.expect(b':')
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or(format!("bad \\u escape {code:04x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    self.pos -= 1;
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn integer(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| format!("expected integer at offset {start}"))
    }

    fn trace(&mut self) -> Result<Trace, String> {
        self.expect(b'{')?;
        self.expect_key("id")?;
        let id_hex = self.string()?;
        let id =
            u64::from_str_radix(&id_hex, 16).map_err(|_| format!("bad trace id \"{id_hex}\""))?;
        self.expect(b',')?;
        self.expect_key("name")?;
        let name = self.string()?;
        self.expect(b',')?;
        self.expect_key("duration_ns")?;
        let _ = self.integer()?;
        self.expect(b',')?;
        self.expect_key("spans")?;
        self.expect(b'[')?;
        let mut spans = Vec::new();
        if !self.try_consume(b']') {
            loop {
                spans.push(self.span()?);
                if !self.try_consume(b',') {
                    self.expect(b']')?;
                    break;
                }
            }
        }
        self.expect(b'}')?;
        if spans.is_empty() {
            return Err("trace with no spans".to_string());
        }
        if spans[0].name != name || spans[0].parent.is_some() {
            return Err("first span is not the named root".to_string());
        }
        Ok(Trace { id, spans })
    }

    fn span(&mut self) -> Result<Span, String> {
        self.expect(b'{')?;
        self.expect_key("name")?;
        let name = self.string()?;
        self.expect(b',')?;
        self.expect_key("parent")?;
        let parent = self.integer()?;
        self.expect(b',')?;
        self.expect_key("start_ns")?;
        let start_ns = self.integer()? as u64;
        self.expect(b',')?;
        self.expect_key("end_ns")?;
        let end_ns = self.integer()? as u64;
        self.expect(b',')?;
        self.expect_key("attrs")?;
        self.expect(b'{')?;
        let mut attrs = Vec::new();
        if !self.try_consume(b'}') {
            loop {
                let k = self.string()?;
                self.expect(b':')?;
                let v = self.string()?;
                attrs.push((k, v));
                if !self.try_consume(b',') {
                    self.expect(b'}')?;
                    break;
                }
            }
        }
        self.expect(b'}')?;
        let parent = match parent {
            -1 => None,
            p if p >= 0 => Some(p as usize),
            p => return Err(format!("bad parent index {p}")),
        };
        Ok(Span {
            name,
            parent,
            start_ns,
            end_ns,
            attrs,
        })
    }
}

// ---------------------------------------------------------------------------
// Tree rendering
// ---------------------------------------------------------------------------

/// Render a nanosecond quantity with an adaptive unit: `420ns`,
/// `12.3us`, `4.56ms`, `1.23s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Render a trace as an indented ASCII span tree, one span per line:
///
/// ```text
/// trace 00000000000000ff encode 9.2us
///   frame_read +0ns 1.1us bytes=120
///   prepare +2.0us 1.5us
///   mesh_pass +3.5us 2.0us backend=simd
///   entropy +5.5us 1.2us coder=rice
/// ```
///
/// Each line is `name +start duration` followed by `key=value`
/// attributes; children indent two spaces under their parent.
pub fn render_tree(trace: &Trace) -> String {
    let mut out = format!(
        "trace {} {} {}\n",
        trace.id_hex(),
        trace.name(),
        fmt_ns(trace.duration_ns())
    );
    render_children(trace, 0, 1, &mut out);
    out
}

fn render_children(trace: &Trace, parent: usize, depth: usize, out: &mut String) {
    for i in trace.children(parent) {
        let s = &trace.spans[i];
        let _ = write!(
            out,
            "{:indent$}{} +{} {}",
            "",
            s.name,
            fmt_ns(s.start_ns),
            fmt_ns(s.duration_ns()),
            indent = depth * 2
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        render_children(trace, i, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// A hand-built trace with a known shape: root → (read, wait →
    /// mesh), fixed offsets, one attribute on `wait`.
    fn fixture(id: u64) -> Trace {
        Trace {
            id,
            spans: vec![
                Span {
                    name: "encode".into(),
                    parent: None,
                    start_ns: 0,
                    end_ns: 900,
                    attrs: vec![("tiles".into(), "4".into())],
                },
                Span {
                    name: "read".into(),
                    parent: Some(0),
                    start_ns: 10,
                    end_ns: 60,
                    attrs: vec![],
                },
                Span {
                    name: "wait".into(),
                    parent: Some(0),
                    start_ns: 100,
                    end_ns: 800,
                    attrs: vec![("cause".into(), "deadline".into())],
                },
                Span {
                    name: "mesh".into(),
                    parent: Some(2),
                    start_ns: 400,
                    end_ns: 700,
                    attrs: vec![],
                },
            ],
        }
    }

    #[test]
    fn builder_produces_a_well_formed_tree() {
        let mut tb = TraceBuilder::new(7, "encode");
        let read = tb.record(SpanId::ROOT, "read", 0, 10);
        let wait = tb.record(SpanId::ROOT, "wait", 10, 40);
        tb.attr(wait, "cause", "full");
        let mesh = tb.record(wait, "mesh", 20, 30);
        tb.attr(SpanId::ROOT, "tiles", 4);
        let t = tb.finish();
        assert_eq!(t.id, 7);
        assert_eq!(t.name(), "encode");
        assert_eq!(t.spans.len(), 4);
        assert_eq!((read, wait, mesh), (SpanId(1), SpanId(2), SpanId(3)));
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(2), vec![3]);
        assert_eq!(t.span("wait").unwrap().attr("cause"), Some("full"));
        assert_eq!(t.spans[0].attr("tiles"), Some("4"));
        // Spans keep the offsets they were recorded with.
        let (wait, mesh) = (&t.spans[2], &t.spans[3]);
        assert_eq!((wait.start_ns, wait.end_ns), (10, 40));
        assert_eq!((mesh.start_ns, mesh.end_ns), (20, 30));
    }

    #[test]
    fn retroactive_spans_and_anchor_offsets() {
        let anchor = Instant::now();
        let mut tb = TraceBuilder::with_anchor(1, "decode", anchor);
        let s = tb.record(SpanId::ROOT, "entropy", 120, 340);
        tb.attr(s, "coder", "rice");
        let t = tb.finish();
        assert_eq!(t.spans[1].start_ns, 120);
        assert_eq!(t.spans[1].end_ns, 340);
        assert_eq!(t.spans[1].duration_ns(), 220);
        assert_eq!(t.spans[1].attr("coder"), Some("rice"));
        // The root closed at finish(): at or after the retro span's
        // recorded offsets were plausible, and ≥ 0 in any case.
        assert!(t.duration_ns() > 0);
    }

    #[test]
    fn json_render_is_byte_stable_and_pinned() {
        let t = fixture(0xff);
        let expected = concat!(
            "{\"traces\":[{\"id\":\"00000000000000ff\",\"name\":\"encode\",",
            "\"duration_ns\":900,\"spans\":[",
            "{\"name\":\"encode\",\"parent\":-1,\"start_ns\":0,\"end_ns\":900,",
            "\"attrs\":{\"tiles\":\"4\"}},",
            "{\"name\":\"read\",\"parent\":0,\"start_ns\":10,\"end_ns\":60,\"attrs\":{}},",
            "{\"name\":\"wait\",\"parent\":0,\"start_ns\":100,\"end_ns\":800,",
            "\"attrs\":{\"cause\":\"deadline\"}},",
            "{\"name\":\"mesh\",\"parent\":2,\"start_ns\":400,\"end_ns\":700,\"attrs\":{}}",
            "]}]}"
        );
        assert_eq!(traces_json(std::slice::from_ref(&t)), expected);
        assert_eq!(traces_json(std::slice::from_ref(&t)), traces_json(&[t]));
        assert_eq!(traces_json(&[]), "{\"traces\":[]}");
    }

    #[test]
    fn json_round_trips_through_the_subset_parser() {
        let traces = vec![fixture(0xff), fixture(0xdeadbeef)];
        let parsed = parse_traces(&traces_json(&traces)).unwrap();
        assert_eq!(parsed, traces);
        // Escaped content survives the round trip too.
        let mut odd = fixture(1);
        odd.spans[0]
            .attrs
            .push(("note".into(), "a\"b\\c\nd".into()));
        let parsed = parse_traces(&traces_json(&[odd.clone()])).unwrap();
        assert_eq!(parsed, vec![odd]);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_traces("").is_err());
        assert!(parse_traces("{\"traces\":[}").is_err());
        assert!(parse_traces("{\"spans\":[]}").is_err());
        let good = traces_json(&[fixture(2)]);
        assert!(parse_traces(&good[..good.len() - 1]).is_err());
        assert!(parse_traces(&format!("{good} x")).is_err());
    }

    #[test]
    fn tree_render_is_pinned() {
        let expected = "trace 00000000000000ff encode 900ns\n\
                        \x20 read +10ns 50ns\n\
                        \x20 wait +100ns 700ns cause=deadline\n\
                        \x20   mesh +400ns 300ns\n";
        assert_eq!(render_tree(&fixture(0xff)), expected);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_340_000), "2.34ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23s");
    }

    #[test]
    fn tracer_ring_evicts_oldest_recent() {
        let tracer = Tracer::new(3, 2, Duration::ZERO);
        for id in 0..5u64 {
            tracer.record(fixture(id), |t| panic!("{} is not slow", t.id));
        }
        let ids: Vec<u64> = tracer.recent().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "evicted traces are gone");
        assert!(
            tracer.slow().is_empty(),
            "a zero threshold captures nothing"
        );
    }

    #[test]
    fn slow_buffer_keeps_slow_traces_across_fast_bursts() {
        let tracer = Tracer::new(2, 4, Duration::from_nanos(1_000));
        let mut flagged = Vec::new();
        let mut slow = fixture(0xabc);
        slow.spans[0].end_ns = 5_000; // 5µs root: over threshold
        tracer.record(slow, |t| flagged.push(t.id));
        // A burst of fast traces (900ns roots, under threshold)
        // evicts it from the recent ring...
        for id in 1..=4u64 {
            tracer.record(fixture(id), |t| flagged.push(t.id));
        }
        let recent: Vec<u64> = tracer.recent().iter().map(|t| t.id).collect();
        assert_eq!(recent, vec![3, 4]);
        // ...but the slow buffer still has it.
        let slow_ids: Vec<u64> = tracer.slow().iter().map(|t| t.id).collect();
        assert_eq!(slow_ids, vec![0xabc]);
        // An exactly-at-threshold trace counts as slow.
        let mut edge = fixture(0xedbe);
        edge.spans[0].end_ns = 1_000;
        tracer.record(edge, |t| flagged.push(t.id));
        assert_eq!(tracer.slow().len(), 2);
        // The slow hook saw exactly the traces the slow buffer kept.
        assert_eq!(flagged, vec![0xabc, 0xedbe]);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let tracer = Arc::new(Tracer::new(64, 8, Duration::from_nanos(1)));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let tracer = Arc::clone(&tracer);
                thread::spawn(move || {
                    for i in 0..100u64 {
                        tracer.record(fixture(t * 1_000 + i), |_| {});
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tracer.recent().len(), 64);
        assert_eq!(tracer.slow().len(), 8);
    }
}
