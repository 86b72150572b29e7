//! `qn-metrics` — the zero-dependency telemetry core.
//!
//! A running server has to be *seen*: request rates, error classes,
//! queue behaviour, latency percentiles. This crate is the measurement
//! substrate the rest of the workspace instruments against, built
//! under the same compat-shim discipline as everything else — **std
//! only**, no external crates, so it works in the offline build
//! environment and adds nothing to the dependency surface.
//!
//! # Design
//!
//! - **Lock-light.** Every metric operation ([`Counter::inc`],
//!   [`Gauge::add`], [`Histogram::observe`]) is a handful of relaxed
//!   atomic ops — no locks, no allocation, safe to call from any
//!   thread at any rate. The only mutex in the crate guards metric
//!   *registration* and exposition, which are cold paths.
//! - **Fixed-shape histograms.** [`Histogram`] buckets by base-2
//!   magnitude (bucket *i* holds values whose bit length is *i*, so
//!   bucket bounds are `[2^(i-1), 2^i - 1]`), 64 buckets covering all
//!   of `u64`. Percentiles (p50/p95/p99/p999) are estimated by rank
//!   interpolation inside the target bucket, with the bucket bounds
//!   clamped to the observed min/max — exact at the extremes and
//!   within one bucket's resolution (±50 %) everywhere else, which is
//!   plenty for latency work where percentiles differ by orders of
//!   magnitude.
//! - **One byte-stable exposition.** [`Registry::to_json`] is the only
//!   renderer: a single-line JSON object with sorted keys and
//!   integer-only values (no float formatting), so identical metric
//!   states serialise to identical bytes on every platform — the
//!   property the stats tests, the metric-catalogue golden and the
//!   `STATS` RPC lean on.
//!
//! # Determinism caveat
//!
//! Counters and gauges are exact and assertable; durations are
//! wall-clock and are **not** — tests pin counts and histogram
//! *shapes* (bucket boundaries, percentile math on synthetic values),
//! never the timings of real runs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Relaxed ordering everywhere: metrics need atomicity, not
/// synchronisation — readers tolerate being a few updates behind.
const ORD: Ordering = Ordering::Relaxed;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A free-standing counter (registry-less, for client-side use).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, ORD);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(ORD)
    }
}

/// An instantaneous level that can move both ways (in-flight requests,
/// cache residency).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the level outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, ORD);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, ORD);
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, ORD);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(ORD)
    }
}

/// Number of base-2 magnitude buckets (all of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram of `u64` observations (latencies in
/// nanoseconds, sizes in bytes, …) with rank-interpolated percentile
/// estimation. All operations are lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest observation (`u64::MAX` until the first observe).
    min: AtomicU64,
    /// Largest observation.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A free-standing histogram (registry-less, e.g. for a load
    /// generator's client-side latency tally).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value lands in: its bit length (0 for 0),
    /// capped at the last bucket.
    pub fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive `[lo, hi]` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i < HISTOGRAM_BUCKETS => (1u64 << (i - 1), (((1u128 << i) - 1) as u64)),
            _ => panic!("bucket index {i} out of range"),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, ORD);
        self.count.fetch_add(1, ORD);
        self.sum.fetch_add(v, ORD);
        self.min.fetch_min(v, ORD);
        self.max.fetch_max(v, ORD);
    }

    /// Record a duration in whole nanoseconds (saturating).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(ORD)
    }

    /// Sum of all observations (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(ORD)
    }

    /// Smallest observation (0 while empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(ORD);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest observation (0 while empty).
    pub fn max(&self) -> u64 {
        self.max.load(ORD)
    }

    /// Raw bucket counts (index = [`Histogram::bucket_index`]).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(ORD))
    }

    /// Estimate the `pm`‰ quantile (`500` = p50, `999` = p999; values
    /// above 1000 clamp). The estimate is the rank-interpolated
    /// position inside the bucket holding the target rank, with the
    /// bucket's bounds clamped to the observed min/max:
    ///
    /// ```text
    /// target = max(1, ceil(count · pm / 1000))      (1-based rank)
    /// r      = target − (observations below the bucket)
    /// value  = lo + (hi − lo) · r / bucket_count
    /// ```
    ///
    /// Exact at the extremes (p0 → min-side, p100 → max) and
    /// deterministic on a quiesced histogram. Returns 0 while empty.
    pub fn quantile_per_mille(&self, pm: u32) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let pm = u128::from(pm.min(1000));
        let target = ((u128::from(count) * pm).div_ceil(1000).max(1)) as u64;
        let (min, max) = (self.min(), self.max());
        let mut below = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let c = self.buckets[i].load(ORD);
            if c == 0 {
                continue;
            }
            if below + c >= target {
                let (bucket_lo, bucket_hi) = Self::bucket_bounds(i);
                // An occupied bucket always intersects [min, max].
                let lo = bucket_lo.max(min);
                let hi = bucket_hi.min(max);
                let r = target - below;
                return lo + ((u128::from(hi - lo) * u128::from(r)) / u128::from(c)) as u64;
            }
            below += c;
        }
        max // racing observers moved count past the buckets read
    }
}

/// The Arc'd handle kinds a registry hands out.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric: its canonical key and the live handle.
#[derive(Debug, Clone)]
struct Entry {
    /// Canonical exposition key: `name` or `name{k=v,k2=v2}` — also
    /// the identity registration dedupes on.
    key: String,
    metric: Metric,
}

/// A named collection of metrics with idempotent registration and
/// byte-stable exposition. Cheap to share behind an [`Arc`]; handles
/// stay valid (and lock-free) for the registry's lifetime.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// Build the canonical key for a name + label set: `name{k=v,...}`
/// with labels in the given order (callers keep a fixed order, so the
/// key — and the exposition byte stream — is stable).
fn canonical_key(name: &str, labels: &[(&str, &str)]) -> String {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric name {name:?} must be non-empty [A-Za-z0-9_:]"
    );
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(
            !k.is_empty()
                && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && v.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_-.:/ ".contains(c)),
            "label {k}={v:?} must be [A-Za-z0-9_]=[A-Za-z0-9_\\-.:/ ]"
        );
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        let key = canonical_key(name, labels);
        let mut entries = self.entries.lock().expect("metrics registry lock");
        if let Some(e) = entries.iter().find(|e| e.key == key) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            key,
            metric: metric.clone(),
        });
        metric
    }

    /// The counter registered under `name` (created on first use;
    /// later calls return the same handle).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind, or
    /// is not a legal metric name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// A labelled counter, e.g. `counter_with("requests_total",
    /// &[("op", "encode")])`. See [`Registry::counter`].
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!(
                "metric {name:?} is registered as a {}, not a counter",
                other.kind()
            ),
        }
    }

    /// The gauge registered under `name`. See [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// A labelled gauge. See [`Registry::counter`].
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!(
                "metric {name:?} is registered as a {}, not a gauge",
                other.kind()
            ),
        }
    }

    /// A labelled histogram. See [`Registry::counter`].
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!(
                "metric {name:?} is registered as a {}, not a histogram",
                other.kind()
            ),
        }
    }

    /// Registered metric count (all kinds).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("metrics registry lock").len()
    }

    /// Whether nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Single-line JSON with sorted keys and integer-only values:
    ///
    /// ```text
    /// {"counters":{"requests_total{op=encode}":5,...},
    ///  "gauges":{"inflight":0,...},
    ///  "histograms":{"latency_ns{op=encode}":
    ///     {"count":5,"sum":123,"min":2,"max":80,
    ///      "p50":12,"p95":71,"p99":79,"p999":80},...}}
    /// ```
    ///
    /// Byte-stable: the same metric state always serialises to the
    /// same bytes (keys sorted, no floats, no timestamps).
    pub fn to_json(&self) -> String {
        let mut entries = self.entries.lock().expect("metrics registry lock").clone();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut out = String::with_capacity(256 + entries.len() * 48);
        out.push('{');
        for (section, kind) in [
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
        ] {
            if !out.ends_with('{') {
                out.push(',');
            }
            out.push('"');
            out.push_str(section);
            out.push_str("\":{");
            let mut first = true;
            for e in entries.iter().filter(|e| e.metric.kind() == kind) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&e.key); // key charset needs no JSON escaping
                out.push_str("\":");
                match &e.metric {
                    Metric::Counter(c) => out.push_str(&c.get().to_string()),
                    Metric::Gauge(g) => out.push_str(&g.get().to_string()),
                    Metric::Histogram(h) => {
                        let count = h.count();
                        out.push_str(&format!(
                            "{{\"count\":{count},\"sum\":{},\"min\":{},\"max\":{},\
                             \"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                            h.sum(),
                            h.min(),
                            h.max(),
                            h.quantile_per_mille(500),
                            h.quantile_per_mille(950),
                            h.quantile_per_mille(990),
                            h.quantile_per_mille(999),
                        ));
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_stay_monotonic() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), -2);
        g.set(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Hand-computed: bucket i holds exactly the values with bit
        // length i.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(10), (512, 1023));
        assert_eq!(Histogram::bucket_bounds(63), (1 << 62, u64::MAX >> 1));
        // Every boundary pair is adjacent and exhaustive.
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, _) = Histogram::bucket_bounds(i);
            let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
            assert_eq!(
                lo,
                prev_hi + 1,
                "bucket {i} must start after bucket {}",
                i - 1
            );
            assert_eq!(Histogram::bucket_index(lo), i);
            let (_, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(hi), i);
        }
    }

    #[test]
    fn percentiles_of_1_to_100_are_exact_fixtures() {
        // Hand-computed fixture: observing 1..=100, the clamped
        // rank-interpolation lands exactly on pN = N for the pinned
        // quantiles. Worked example for p50: target rank 50 falls in
        // bucket [32,63] with 32 items and 31 items below, so
        // 32 + (63−32)·(50−31)/32 = 32 + 18 = 50.
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile_per_mille(500), 50);
        assert_eq!(h.quantile_per_mille(950), 95);
        assert_eq!(h.quantile_per_mille(990), 99);
        assert_eq!(h.quantile_per_mille(999), 100);
        assert_eq!(h.quantile_per_mille(1000), 100);
        // Clamping: quantiles above 1000‰ behave as 1000‰.
        assert_eq!(h.quantile_per_mille(5000), 100);
    }

    #[test]
    fn percentile_edge_cases_are_pinned() {
        // Empty → 0 everywhere.
        let h = Histogram::new();
        assert_eq!(h.quantile_per_mille(500), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);

        // A single value is every percentile.
        let h = Histogram::new();
        h.observe(7777);
        for pm in [1, 500, 990, 999, 1000] {
            assert_eq!(h.quantile_per_mille(pm), 7777);
        }

        // Repeats of one value: min/max clamping collapses the bucket.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.observe(300);
        }
        assert_eq!(h.quantile_per_mille(500), 300);
        assert_eq!(h.quantile_per_mille(999), 300);

        // Bimodal: p50 stays in the low mode, p999 reaches the high
        // one. 99 × 10 plus 1 × 1_000_000: rank 50 interpolates to
        // 10 + (15−10)·50/99 = 12 inside the clamped [10,15] bucket
        // (within-bucket resolution), rank 100 is the huge value.
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(1_000_000);
        assert_eq!(h.quantile_per_mille(500), 12);
        assert_eq!(h.quantile_per_mille(999), 1_000_000);

        // Zero observations land in the zero bucket.
        let h = Histogram::new();
        h.observe(0);
        h.observe(0);
        assert_eq!(h.quantile_per_mille(500), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_handles_are_idempotent_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter_with("requests_total", &[("op", "encode")]);
        let b = r.counter_with("requests_total", &[("op", "encode")]);
        a.inc();
        assert_eq!(b.get(), 1, "same key must return the same handle");
        assert_eq!(r.len(), 1);
        let other = r.counter_with("requests_total", &[("op", "decode")]);
        assert_eq!(other.get(), 0, "different labels are a different series");
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics_at_registration() {
        let r = Registry::new();
        let _ = r.counter("x_total");
        let _ = r.gauge("x_total");
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn illegal_metric_names_are_rejected() {
        let r = Registry::new();
        let _ = r.counter("bad name with spaces");
    }

    #[test]
    fn json_is_byte_stable_and_sorted_at_fixed_inputs() {
        let build = || {
            let r = Registry::new();
            // Registered in scrambled order: exposition must sort.
            r.counter_with("zz_total", &[]).add(3);
            r.gauge("inflight").set(2);
            r.counter_with("requests_total", &[("op", "encode")]).add(7);
            r.counter_with("requests_total", &[("op", "decode")]).add(1);
            let h = r.histogram_with("latency_ns", &[("op", "encode")]);
            for v in 1..=100 {
                h.observe(v);
            }
            r
        };
        let json = build().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"requests_total{op=decode}\":1,\
             \"requests_total{op=encode}\":7,\"zz_total\":3},\
             \"gauges\":{\"inflight\":2},\
             \"histograms\":{\"latency_ns{op=encode}\":\
             {\"count\":100,\"sum\":5050,\"min\":1,\"max\":100,\
             \"p50\":50,\"p95\":95,\"p99\":99,\"p999\":100}}}"
        );
        // Two identical states serialise to identical bytes.
        assert_eq!(build().to_json(), json);
    }

    #[test]
    fn concurrent_observers_never_lose_counts() {
        let r = Arc::new(Registry::new());
        let c = r.counter("hits_total");
        let h = r.histogram_with("lat_ns", &[]);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8000);
    }

    #[test]
    fn durations_observe_as_nanoseconds() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_nanos(1500));
        assert_eq!(h.sum(), 1500);
        assert_eq!(h.count(), 1);
        // Saturation far beyond u64 nanoseconds.
        h.observe_duration(Duration::from_secs(u64::MAX / 1000));
        assert_eq!(h.max(), u64::MAX);
    }
}
