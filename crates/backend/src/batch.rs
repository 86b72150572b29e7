//! Cross-request batch coalescing: [`MeshBatcher`] runs mesh passes
//! submitted by *independent callers* (e.g. concurrent server requests)
//! and merges the submissions that queue up behind a running pass into
//! single backend batches.
//!
//! The design leans entirely on the [`MeshBackend`](crate::MeshBackend)
//! contract: a backend's output for a lane has the same bits whatever
//! panels share its pass, so moving two requests' panels into one
//! `forward_panels` call and handing them back by count yields exactly
//! the bytes each request would have produced alone. Merging moves
//! panel handles, never amplitudes. Coalescing is therefore invisible
//! to callers — it changes throughput, never results.
//!
//! Submissions are grouped by [`BatchKey`] (a caller-chosen model
//! identity plus a lane discriminating the mesh being applied), and each
//! key commits its work as a group, with no timer anywhere:
//!
//! - a submission whose key has no pass running runs at once on the
//!   submitting thread ([`FlushCause::Eager`]);
//! - submissions that arrive while a pass of their key runs join the
//!   key's pending group; the ending pass hands that group to one of its
//!   waiting submitters, which runs it as one merged pass
//!   ([`FlushCause::Backlog`]) and then hands on whatever queued behind
//!   *it*;
//! - a pending group that reaches the batch tile limit runs at once on
//!   the submitter that filled it ([`FlushCause::Full`]).
//!
//! So a submission only ever waits for a running pass of its own key,
//! and a limit of one tile turns merging off (per-request dispatch).
//! Sizes and limits count tiles, i.e. panel lanes.

use crate::BackendKind;
use qn_linalg::Panel;
use qn_metrics::{Counter, Histogram, Registry};
use qn_photonic::Mesh;
use std::collections::hash_map::{Entry as Slot, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Why a pass ran. Every pass is attributed to exactly one cause, so
/// the per-cause counters in [`BatcherMetrics`] always sum to the total
/// number of passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The submission found no pass of its key running and ran on
    /// arrival, on the submitting thread.
    Eager,
    /// A pending group ran on one of its own submitters, handed to it
    /// by the pass it had queued behind.
    Backlog,
    /// The pass reached the batch tile limit: a pending group filled up
    /// and ran at once, or one oversized submission ran on arrival.
    Full,
}

impl FlushCause {
    /// Every cause, in counter order.
    pub const ALL: [FlushCause; 3] = [FlushCause::Eager, FlushCause::Backlog, FlushCause::Full];

    /// Stable label value used in metric keys.
    pub fn label(self) -> &'static str {
        match self {
            FlushCause::Eager => "eager",
            FlushCause::Backlog => "backlog",
            FlushCause::Full => "full",
        }
    }
}

/// Per-submission flush attribution, delivered with the results via
/// [`BatchHandle::wait_info`]: why the pass ran, how big the merged
/// batch was, and how the submitter's latency split between queueing
/// and the shared backend pass. Pure observability — the values never
/// influence flush decisions or outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInfo {
    /// Why the pass containing this submission ran.
    pub cause: FlushCause,
    /// Total tiles in the executed batch (across all submitters).
    pub batch_tiles: usize,
    /// Nanoseconds from this submission to the start of its pass.
    pub queued_ns: u64,
    /// Nanoseconds the shared backend pass took.
    pub run_ns: u64,
}

/// Telemetry handles a [`MeshBatcher`] updates on every pass: a
/// histogram of batch sizes (in tiles) and one counter per
/// [`FlushCause`]. All handles live in the [`Registry`] the metrics
/// were built from, so exposition picks them up automatically.
#[derive(Debug, Clone)]
pub struct BatcherMetrics {
    /// Tiles per executed batch (`batch_flush_tiles`).
    pub flush_tiles: Arc<Histogram>,
    /// Pass counters in [`FlushCause::ALL`] order
    /// (`batch_flushes_total{cause=...}`).
    causes: [Arc<Counter>; 3],
}

impl BatcherMetrics {
    /// Register the batcher's metrics in `registry` (idempotent —
    /// re-registering returns the same handles).
    pub fn new(registry: &Registry) -> Self {
        BatcherMetrics {
            flush_tiles: registry.histogram("batch_flush_tiles"),
            causes: FlushCause::ALL
                .map(|c| registry.counter_with("batch_flushes_total", &[("cause", c.label())])),
        }
    }

    /// The pass counter for `cause`.
    pub fn flushes(&self, cause: FlushCause) -> &Counter {
        &self.causes[cause as usize]
    }

    fn record(&self, tiles: usize, cause: FlushCause) {
        self.flush_tiles.observe(tiles as u64);
        self.flushes(cause).inc();
    }
}

/// Supplies the mesh a pass executes against. Implementors wrap
/// whatever owns the mesh (e.g. a cached codec) so the mesh stays alive
/// until the pass runs, regardless of which thread runs it.
pub trait MeshSource: Send + Sync {
    /// The mesh every submission under this source's key runs through.
    fn mesh(&self) -> &Mesh;
}

/// Groups submissions that may be coalesced into one backend pass.
///
/// Two submissions with equal keys **must** reference bit-identical
/// meshes (the first submission's [`MeshSource`] executes the whole
/// group). Content-addressed model ids satisfy this by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Content-addressed model identity.
    pub model: u64,
    /// Which of the model's meshes is applied (e.g. 0 = compression
    /// forward, 1 = reconstruction forward).
    pub lane: u8,
}

/// One submission's outputs and attribution.
type Outcome = (Vec<Panel>, BatchInfo);

/// A submission's receipt: resolves to exactly the panels that were
/// submitted, in submission order, with the mesh applied.
///
/// A submission that ran on arrival is resolved before
/// [`MeshBatcher::submit`] returns; one queued behind a running pass
/// resolves when its group has run — possibly on this handle's own
/// thread, inside [`BatchHandle::wait`]. A queued group never depends
/// on its submitters reaching `wait`: a handle may be waited on late,
/// in any order relative to others, or dropped.
pub struct BatchHandle(Receipt);

enum Receipt {
    /// Ran on the submitting thread.
    Ready(Option<Outcome>),
    /// Queued behind a running pass of `key`.
    Queued {
        shared: Arc<Shared>,
        key: BatchKey,
        group: Arc<Rendezvous>,
        index: usize,
    },
}

impl std::fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.0 {
            Receipt::Ready(_) => "ready",
            Receipt::Queued { .. } => "queued",
        };
        f.debug_tuple("BatchHandle").field(&state).finish()
    }
}

impl BatchHandle {
    /// Block until this submission's pass has run. Returns `None` only
    /// if that pass panicked (e.g. on a panel whose dimension differs
    /// from the mesh's).
    pub fn wait(self) -> Option<Vec<Panel>> {
        self.wait_info().map(|(outs, _)| outs)
    }

    /// [`BatchHandle::wait`] plus the flush attribution for this
    /// submission (cause, merged batch size, queue/run split). When the
    /// pass this submission queued behind hands its group here, the
    /// group runs on the calling thread.
    pub fn wait_info(self) -> Option<Outcome> {
        let (shared, key, group, index) = match self.0 {
            Receipt::Ready(outcome) => return outcome,
            Receipt::Queued {
                shared,
                key,
                group,
                index,
            } => (shared, key, group, index),
        };
        let mut st = lock(&group.state);
        st.waiting += 1;
        loop {
            match std::mem::replace(&mut st.phase, Phase::Wait) {
                Phase::Done(mut outcomes) => {
                    let mine = outcomes[index].take();
                    st.phase = Phase::Done(outcomes);
                    return mine;
                }
                Phase::Handed(pending) => {
                    drop(st);
                    let mine = shared.run(pending, FlushCause::Backlog, &group, Some(index));
                    shared.hand_on(key);
                    return mine;
                }
                Phase::Wait => st = group.cond.wait(st).expect("batcher lock poisoned"),
            }
        }
    }
}

/// One caller's panels in a pending group.
struct Entry {
    panels: Vec<Panel>,
    queued_at: Instant,
}

/// Submissions queued behind the running pass of one key.
struct Pending {
    source: Arc<dyn MeshSource>,
    entries: Vec<Entry>,
    /// Lanes across every entry's panels.
    tiles: usize,
}

/// Where a pending group's submitters wait: for the group to be handed
/// to them, then for its outputs.
struct Rendezvous {
    state: Mutex<GroupState>,
    cond: Condvar,
}

struct GroupState {
    /// Submitters that have entered [`BatchHandle::wait_info`] on this
    /// group; none leaves before the group is handed off or has run.
    waiting: usize,
    phase: Phase,
}

enum Phase {
    /// Queued behind its key's running pass, or itself running:
    /// nothing for a waiter to do.
    Wait,
    /// Handed off by the pass it queued behind; the first waiter to
    /// see this runs it.
    Handed(Pending),
    /// Ran: one outcome per entry, each taken by its submitter (all
    /// `None` if the pass panicked).
    Done(Vec<Option<Outcome>>),
}

/// A key's pending group and its rendezvous.
struct Queue {
    pending: Pending,
    group: Arc<Rendezvous>,
}

struct Shared {
    /// One entry per key with a pass running: the group queued behind
    /// that pass, if any.
    lanes: Mutex<HashMap<BatchKey, Option<Queue>>>,
    backend: BackendKind,
    max_tiles: usize,
    metrics: Option<BatcherMetrics>,
}

/// Lock a batcher mutex. Passes run outside every lock and catch their
/// own panics, so no thread panics while holding one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("batcher lock poisoned")
}

/// Saturating nanoseconds between two instants.
fn span_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Shared {
    /// One in-place backend pass over `tiles` lanes, recorded in the
    /// metrics. `None` if it panicked; the panic stays with this pass's
    /// submitters.
    fn pass(
        &self,
        source: &dyn MeshSource,
        mut panels: Vec<Panel>,
        tiles: usize,
        cause: FlushCause,
    ) -> (Option<Vec<Panel>>, u64) {
        if let Some(m) = &self.metrics {
            m.record(tiles, cause);
        }
        let started = Instant::now();
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            self.backend
                .backend()
                .forward_panels(source.mesh(), &mut panels)
        }))
        .is_ok();
        (ran.then_some(panels), span_ns(started, Instant::now()))
    }

    /// Run a pending group as one merged pass, publish every entry's
    /// outputs on `group`, and return entry `own`'s (the runner's, when
    /// it is one of the group's submitters).
    fn run(
        &self,
        pending: Pending,
        cause: FlushCause,
        group: &Rendezvous,
        own: Option<usize>,
    ) -> Option<Outcome> {
        let started = Instant::now();
        let mut all = Vec::new();
        let mut shares = Vec::with_capacity(pending.entries.len());
        for entry in pending.entries {
            shares.push((entry.panels.len(), span_ns(entry.queued_at, started)));
            all.extend(entry.panels);
        }
        let (outs, run_ns) = self.pass(&*pending.source, all, pending.tiles, cause);
        let mut outcomes: Vec<Option<Outcome>> = match outs {
            Some(outs) => {
                // Hand every entry its own panels back, by count.
                let mut outs = outs.into_iter();
                shares
                    .iter()
                    .map(|&(count, queued_ns)| {
                        let info = BatchInfo {
                            cause,
                            batch_tiles: pending.tiles,
                            queued_ns,
                            run_ns,
                        };
                        Some((outs.by_ref().take(count).collect(), info))
                    })
                    .collect()
            }
            None => shares.iter().map(|_| None).collect(),
        };
        let mine = own.and_then(|i| outcomes[i].take());
        lock(&group.state).phase = Phase::Done(outcomes);
        group.cond.notify_all();
        mine
    }

    /// The pass holding `key`'s lane has ended: pass the lane to the
    /// group queued behind it, or free it. The group goes to one of its
    /// submitters blocked in `wait`; if none is blocked yet, it runs
    /// here — a submitter that has not reached `wait` may be blocked on
    /// something else, so nothing may depend on it arriving.
    fn hand_on(&self, key: BatchKey) {
        loop {
            let next = {
                let mut lanes = lock(&self.lanes);
                match lanes.get_mut(&key).and_then(Option::take) {
                    Some(next) => next,
                    None => {
                        lanes.remove(&key);
                        return;
                    }
                }
            };
            let mut st = lock(&next.group.state);
            if st.waiting > 0 {
                st.phase = Phase::Handed(next.pending);
                drop(st);
                next.group.cond.notify_all();
                return;
            }
            drop(st);
            self.run(next.pending, FlushCause::Backlog, &next.group, None);
        }
    }
}

/// Coalesces mesh-pass submissions from many threads into shared
/// backend batches. Cheap to share behind an `Arc`; it owns no thread,
/// and every pass runs on a submitter's own thread.
pub struct MeshBatcher {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for MeshBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshBatcher")
            .field("backend", &self.shared.backend)
            .field("max_tiles", &self.shared.max_tiles)
            .finish()
    }
}

impl MeshBatcher {
    /// A batcher running passes through `backend`, merging at most
    /// `max_tiles` lanes per pending group. `max_tiles <= 1` never
    /// merges — per-request dispatch.
    pub fn new(backend: BackendKind, max_tiles: usize) -> Self {
        Self::with_metrics(backend, max_tiles, None)
    }

    /// [`MeshBatcher::new`] with telemetry: when `metrics` is supplied
    /// every pass records its batch size and cause. Instrumentation
    /// never changes flush decisions or results.
    pub fn with_metrics(
        backend: BackendKind,
        max_tiles: usize,
        metrics: Option<BatcherMetrics>,
    ) -> Self {
        MeshBatcher {
            shared: Arc::new(Shared {
                lanes: Mutex::new(HashMap::new()),
                backend,
                max_tiles: max_tiles.max(1),
                metrics,
            }),
        }
    }

    /// The backend every pass runs through.
    pub fn backend(&self) -> BackendKind {
        self.shared.backend
    }

    /// Whether submissions may be merged across callers.
    pub fn coalesces(&self) -> bool {
        self.shared.max_tiles > 1
    }

    /// Run `panels` forward through `source`'s mesh, in place: at once
    /// on this thread if no pass of `key` is running, otherwise merged
    /// with the other submissions queued behind that pass.
    ///
    /// The returned handle resolves (via [`BatchHandle::wait`]) to
    /// these panels, in order, bit-identical to a standalone
    /// `forward_panels` call over them.
    pub fn submit(
        &self,
        key: BatchKey,
        source: Arc<dyn MeshSource>,
        panels: Vec<Panel>,
    ) -> BatchHandle {
        let shared = &self.shared;
        let submitted = Instant::now();
        let tiles: usize = panels.iter().map(Panel::width).sum();
        if tiles == 0 {
            let info = BatchInfo {
                cause: FlushCause::Eager,
                batch_tiles: 0,
                queued_ns: 0,
                run_ns: 0,
            };
            return BatchHandle(Receipt::Ready(Some((Vec::new(), info))));
        }
        let mut lanes = lock(&shared.lanes);
        let queue = match lanes.entry(key) {
            Slot::Vacant(lane) => {
                // No pass of this key is running: this one takes the
                // lane and runs now.
                lane.insert(None);
                drop(lanes);
                let cause = if tiles >= shared.max_tiles {
                    FlushCause::Full
                } else {
                    FlushCause::Eager
                };
                let queued_ns = span_ns(submitted, Instant::now());
                let (outs, run_ns) = shared.pass(&*source, panels, tiles, cause);
                shared.hand_on(key);
                let info = BatchInfo {
                    cause,
                    batch_tiles: tiles,
                    queued_ns,
                    run_ns,
                };
                return BatchHandle(Receipt::Ready(outs.map(|outs| (outs, info))));
            }
            Slot::Occupied(lane) => lane.into_mut(),
        };
        let Queue { pending, group } = queue.get_or_insert_with(|| Queue {
            pending: Pending {
                source,
                entries: Vec::new(),
                tiles: 0,
            },
            group: Arc::new(Rendezvous {
                state: Mutex::new(GroupState {
                    waiting: 0,
                    phase: Phase::Wait,
                }),
                cond: Condvar::new(),
            }),
        });
        let index = pending.entries.len();
        pending.entries.push(Entry {
            panels,
            queued_at: submitted,
        });
        pending.tiles += tiles;
        if pending.tiles >= shared.max_tiles {
            // Full: run the group now, beside the pass it queued behind.
            let Some(Queue { pending, group }) = queue.take() else {
                unreachable!("the group was just filled");
            };
            drop(lanes);
            let outcome = shared.run(pending, FlushCause::Full, &group, Some(index));
            return BatchHandle(Receipt::Ready(outcome));
        }
        let group = Arc::clone(group);
        drop(lanes);
        BatchHandle(Receipt::Queued {
            shared: Arc::clone(shared),
            key,
            group,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;

    #[derive(Debug)]
    struct OwnedMesh(Mesh);

    impl MeshSource for OwnedMesh {
        fn mesh(&self) -> &Mesh {
            &self.0
        }
    }

    fn random_mesh(dim: usize, layers: usize, seed: u64) -> Mesh {
        Mesh::random(dim, layers, &mut StdRng::seed_from_u64(seed))
    }

    fn mesh(dim: usize, layers: usize, seed: u64) -> Arc<OwnedMesh> {
        Arc::new(OwnedMesh(random_mesh(dim, layers, seed)))
    }

    /// `n` vectors packed into 4-lane panels, so most submissions
    /// carry several panels and a ragged last one.
    fn batch(dim: usize, n: usize, phase: f64) -> Vec<Panel> {
        let vecs: Vec<_> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f64 * 0.31 + phase).sin())
                    .collect()
            })
            .collect();
        qn_linalg::panel::pack(&vecs, 4)
    }

    /// A standalone pass of `kind` over copies of `panels`.
    fn passed(kind: BackendKind, mesh: &Mesh, panels: &[Panel]) -> Vec<Panel> {
        let mut out = panels.to_vec();
        kind.backend().forward_panels(mesh, &mut out);
        out
    }

    /// A mesh whose passes hold at a gate: each `mesh()` call announces
    /// itself on `entered`, then blocks until the test sends `release`.
    struct GatedMesh {
        mesh: Mesh,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    /// The test's side of a [`GatedMesh`].
    struct Gate {
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    impl Gate {
        /// Block until a pass has entered the gated mesh.
        fn await_pass(&self) {
            self.entered
                .recv_timeout(Duration::from_secs(30))
                .expect("a pass entered the gated mesh");
        }

        /// Let one held pass proceed.
        fn open(&self) {
            self.release.send(()).expect("gated pass still waiting");
        }
    }

    impl MeshSource for GatedMesh {
        fn mesh(&self) -> &Mesh {
            lock(&self.entered).send(()).expect("test holds the gate");
            lock(&self.release).recv().expect("test opens the gate");
            &self.mesh
        }
    }

    fn gated(mesh: Mesh) -> (Arc<GatedMesh>, Gate) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let source = Arc::new(GatedMesh {
            mesh,
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let gate = Gate {
            entered: entered_rx,
            release: release_tx,
        };
        (source, gate)
    }

    /// Submit on a fresh thread and wait there, returning the outcome.
    fn submit_and_wait(
        batcher: &Arc<MeshBatcher>,
        key: BatchKey,
        source: Arc<dyn MeshSource>,
        panels: Vec<Panel>,
    ) -> std::thread::JoinHandle<Option<Outcome>> {
        let batcher = Arc::clone(batcher);
        std::thread::spawn(move || batcher.submit(key, source, panels).wait_info())
    }

    /// Spin until `pred` holds (bounded, so a regression fails instead
    /// of hanging).
    fn eventually(what: &str, pred: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !pred() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn counts(metrics: &BatcherMetrics) -> [u64; 3] {
        FlushCause::ALL.map(|c| metrics.flushes(c).get())
    }

    /// Tiles currently queued behind a running pass of `key`.
    fn queued_tiles(batcher: &MeshBatcher, key: BatchKey) -> usize {
        lock(&batcher.shared.lanes)
            .get(&key)
            .and_then(Option::as_ref)
            .map_or(0, |q| q.pending.tiles)
    }

    /// Submitters of `key`'s queued group blocked in `wait`.
    fn waiting(batcher: &MeshBatcher, key: BatchKey) -> usize {
        lock(&batcher.shared.lanes)
            .get(&key)
            .and_then(Option::as_ref)
            .map_or(0, |q| lock(&q.group.state).waiting)
    }

    #[test]
    fn solo_submission_runs_eagerly_before_submit_returns() {
        let registry = Registry::new();
        let metrics = BatcherMetrics::new(&registry);
        let src = mesh(6, 2, 41);
        let xs = batch(6, 3, 0.9);
        let want = passed(BackendKind::Simd, src.mesh(), &xs);
        let batcher = MeshBatcher::with_metrics(BackendKind::Simd, 1_000, Some(metrics.clone()));
        let handle = batcher.submit(BatchKey { model: 7, lane: 0 }, src, xs);
        // Resolved already: the pass ran on this thread inside submit.
        assert!(matches!(handle.0, Receipt::Ready(Some(_))), "{handle:?}");
        let (outs, info) = handle.wait_info().unwrap();
        assert_eq!(outs, want);
        assert_eq!(info.cause, FlushCause::Eager);
        assert_eq!(info.batch_tiles, 3);
        assert_eq!(counts(&metrics), [1, 0, 0]);
        assert!(
            lock(&batcher.shared.lanes).is_empty(),
            "the lane is free again"
        );
    }

    #[test]
    fn arrivals_behind_a_running_pass_merge_into_one_backlog_pass() {
        let registry = Registry::new();
        let metrics = BatcherMetrics::new(&registry);
        let batcher = Arc::new(MeshBatcher::with_metrics(
            BackendKind::Simd,
            1_000,
            Some(metrics.clone()),
        ));
        let key = BatchKey { model: 1, lane: 0 };
        let plain = mesh(8, 3, 11);
        let (leader_src, gate) = gated(random_mesh(8, 3, 11));
        let lead = batch(8, 2, 0.3);
        let leader = submit_and_wait(&batcher, key, leader_src, lead.clone());
        gate.await_pass();

        let (a, b) = (batch(8, 5, 0.0), batch(8, 9, 1.0));
        let want_a = passed(BackendKind::Scalar, plain.mesh(), &a);
        let want_b = passed(BackendKind::Scalar, plain.mesh(), &b);
        let ha = submit_and_wait(&batcher, key, plain.clone(), a);
        let hb = submit_and_wait(&batcher, key, plain.clone(), b);
        eventually("both arrivals to queue", || {
            queued_tiles(&batcher, key) == 14
        });
        gate.open();

        let (lead_out, lead_info) = leader.join().unwrap().unwrap();
        assert_eq!(lead_out, passed(BackendKind::Scalar, plain.mesh(), &lead));
        assert_eq!(lead_info.cause, FlushCause::Eager);
        let (out_a, info_a) = ha.join().unwrap().unwrap();
        let (out_b, info_b) = hb.join().unwrap().unwrap();
        assert_eq!(out_a, want_a);
        assert_eq!(out_b, want_b);
        for info in [info_a, info_b] {
            assert_eq!(info.cause, FlushCause::Backlog);
            assert_eq!(info.batch_tiles, 14);
        }
        assert_eq!(info_a.run_ns, info_b.run_ns, "one shared backend pass");
        assert_eq!(counts(&metrics), [1, 1, 0]);
        assert_eq!(metrics.flush_tiles.sum(), 2 + 14);
    }

    #[test]
    fn the_ending_pass_hands_its_backlog_off_instead_of_running_it() {
        let batcher = Arc::new(MeshBatcher::new(BackendKind::Simd, 1_000));
        let key = BatchKey { model: 2, lane: 1 };
        let (leader_src, leader_gate) = gated(random_mesh(6, 2, 5));
        let (backlog_src, backlog_gate) = gated(random_mesh(6, 2, 5));
        let leader = submit_and_wait(&batcher, key, leader_src, batch(6, 3, 0.5));
        leader_gate.await_pass();
        let queued = submit_and_wait(&batcher, key, backlog_src, batch(6, 4, 0.1));
        eventually("the arrival to block in wait", || {
            waiting(&batcher, key) == 1
        });

        leader_gate.open();
        // The backlog pass starts on the queued submitter and holds at
        // its gate — yet the leader returns.
        backlog_gate.await_pass();
        eventually("the leader to return", || leader.is_finished());
        let (_, info) = leader.join().unwrap().unwrap();
        assert_eq!(info.cause, FlushCause::Eager);
        assert!(!queued.is_finished(), "the backlog pass is still held");
        backlog_gate.open();
        let (outs, info) = queued.join().unwrap().unwrap();
        assert_eq!(outs.iter().map(Panel::width).sum::<usize>(), 4);
        assert_eq!(info.cause, FlushCause::Backlog);
    }

    #[test]
    fn a_pending_group_that_fills_up_runs_at_once() {
        let registry = Registry::new();
        let metrics = BatcherMetrics::new(&registry);
        let batcher = Arc::new(MeshBatcher::with_metrics(
            BackendKind::Simd,
            10,
            Some(metrics.clone()),
        ));
        let key = BatchKey { model: 3, lane: 0 };
        let plain = mesh(5, 2, 21);
        let (leader_src, gate) = gated(random_mesh(5, 2, 21));
        let leader = submit_and_wait(&batcher, key, leader_src, batch(5, 2, 0.2));
        gate.await_pass();

        let a = batch(5, 4, 0.7);
        let b = batch(5, 6, 0.4);
        let ha = submit_and_wait(&batcher, key, plain.clone(), a.clone());
        eventually("the first arrival to queue", || {
            queued_tiles(&batcher, key) == 4
        });
        // 4 + 6 tiles reach the limit of 10: the group runs on this
        // thread while the leader's pass is still held.
        let (out_b, info_b) = batcher
            .submit(key, plain.clone(), b.clone())
            .wait_info()
            .unwrap();
        let (out_a, info_a) = ha.join().unwrap().unwrap();
        assert!(!leader.is_finished(), "the leader is still held");
        assert_eq!(out_a, passed(BackendKind::Scalar, plain.mesh(), &a));
        assert_eq!(out_b, passed(BackendKind::Scalar, plain.mesh(), &b));
        for info in [info_a, info_b] {
            assert_eq!(info.cause, FlushCause::Full);
            assert_eq!(info.batch_tiles, 10);
        }
        gate.open();
        leader.join().unwrap().unwrap();
        assert_eq!(counts(&metrics), [1, 0, 1]);
        eventually("the lane to free", || {
            lock(&batcher.shared.lanes).is_empty()
        });
    }

    #[test]
    fn a_panicking_pass_fails_only_its_own_submitters() {
        let batcher = Arc::new(MeshBatcher::new(BackendKind::Scalar, 1_000));
        let key = BatchKey { model: 4, lane: 0 };
        let src = mesh(6, 2, 9);
        // A solo pass over a panel of the wrong dimension panics inside
        // the backend; its submitter sees `None`.
        let bad = batch(5, 2, 0.3);
        assert!(batcher
            .submit(key, src.clone(), bad.clone())
            .wait()
            .is_none());

        // The same inside a backlog group: every submitter of the
        // group sees `None`, the pass it queued behind is unharmed.
        let (leader_src, gate) = gated(random_mesh(6, 2, 9));
        let leader = submit_and_wait(&batcher, key, leader_src, batch(6, 1, 0.0));
        gate.await_pass();
        let good = submit_and_wait(&batcher, key, src.clone(), batch(6, 3, 0.1));
        eventually("the good arrival to queue", || {
            queued_tiles(&batcher, key) == 3
        });
        let failed = submit_and_wait(&batcher, key, src.clone(), bad);
        eventually("the bad arrival to queue", || {
            queued_tiles(&batcher, key) == 5
        });
        gate.open();
        assert!(leader.join().unwrap().is_some());
        assert!(good.join().unwrap().is_none());
        assert!(failed.join().unwrap().is_none());

        // The lane was handed on: a later submission still completes.
        let xs = batch(6, 4, 0.8);
        let want = passed(BackendKind::Scalar, src.mesh(), &xs);
        assert_eq!(batcher.submit(key, src, xs).wait().unwrap(), want);
    }

    #[test]
    fn dropped_or_unwaited_handles_never_strand_anyone() {
        let registry = Registry::new();
        let metrics = BatcherMetrics::new(&registry);
        let batcher = Arc::new(MeshBatcher::with_metrics(
            BackendKind::Simd,
            1_000,
            Some(metrics.clone()),
        ));
        let key = BatchKey { model: 5, lane: 0 };
        let src = mesh(6, 2, 17);
        let (leader_src, gate) = gated(random_mesh(6, 2, 17));
        let leader = submit_and_wait(&batcher, key, leader_src, batch(6, 2, 0.0));
        gate.await_pass();
        // Queued behind the held pass: one handle dropped at once, one
        // held but not waited on.
        drop(batcher.submit(key, src.clone(), batch(6, 2, 0.1)));
        let xs = batch(6, 3, 0.3);
        let want = passed(BackendKind::Scalar, src.mesh(), &xs);
        let held = batcher.submit(key, src.clone(), xs);
        gate.open();
        // With no submitter of the group in `wait`, the ending pass runs
        // the group itself before returning, and frees the lane.
        leader.join().unwrap().unwrap();
        assert!(lock(&batcher.shared.lanes).is_empty(), "the lane is free");
        assert_eq!(counts(&metrics), [1, 1, 0]);
        let (outs, info) = held.wait_info().unwrap();
        assert_eq!(outs, want);
        assert_eq!((info.cause, info.batch_tiles), (FlushCause::Backlog, 5));
        // A later submission runs on arrival.
        let (_, info) = batcher
            .submit(key, src, batch(6, 1, 0.9))
            .wait_info()
            .unwrap();
        assert_eq!(info.cause, FlushCause::Eager);
    }

    #[test]
    fn different_keys_never_share_a_mesh_or_wait_on_each_other() {
        let src_a = mesh(5, 2, 21);
        let src_b = mesh(5, 2, 22);
        let xs = batch(5, 4, 0.2);
        let want_a = passed(BackendKind::Simd, src_a.mesh(), &xs);
        let want_b = passed(BackendKind::Simd, src_b.mesh(), &xs);
        let batcher = Arc::new(MeshBatcher::new(BackendKind::Simd, 1_000));
        let (held_src, gate) = gated(random_mesh(5, 2, 21));
        let held = submit_and_wait(
            &batcher,
            BatchKey { model: 10, lane: 0 },
            held_src,
            xs.clone(),
        );
        gate.await_pass();
        // Another model, and another lane of the same model, run on
        // arrival while key (10, 0) is held.
        let other_model = batcher.submit(BatchKey { model: 11, lane: 0 }, src_b, xs.clone());
        let other_lane = batcher.submit(BatchKey { model: 10, lane: 1 }, src_a, xs);
        assert_eq!(other_model.wait().unwrap(), want_b);
        assert_eq!(other_lane.wait().unwrap(), want_a);
        gate.open();
        assert_eq!(held.join().unwrap().unwrap().0, want_a);
    }

    #[test]
    fn empty_and_oversized_submissions_resolve_on_arrival() {
        let src = mesh(4, 1, 9);
        let batcher = MeshBatcher::new(BackendKind::Simd, 8);
        let key = BatchKey { model: 6, lane: 0 };
        let (outs, info) = batcher
            .submit(key, src.clone(), Vec::new())
            .wait_info()
            .unwrap();
        assert!(outs.is_empty());
        assert_eq!(info.batch_tiles, 0);
        let xs = batch(4, 12, 0.6);
        let want = passed(BackendKind::Simd, src.mesh(), &xs);
        let (outs, info) = batcher.submit(key, src, xs).wait_info().unwrap();
        assert_eq!(outs, want);
        assert_eq!(info.cause, FlushCause::Full);
        assert_eq!(info.batch_tiles, 12);
    }

    #[test]
    fn a_one_tile_limit_never_merges() {
        let batcher = Arc::new(MeshBatcher::new(BackendKind::Scalar, 1));
        assert!(!batcher.coalesces());
        let key = BatchKey { model: 8, lane: 0 };
        let src = mesh(4, 1, 3);
        let (leader_src, gate) = gated(random_mesh(4, 1, 3));
        let leader = submit_and_wait(&batcher, key, leader_src, batch(4, 1, 0.0));
        gate.await_pass();
        // Arriving behind a running pass, each submission fills its own
        // group and runs at once: no submission ever waits for another.
        for n in [1, 3] {
            let xs = batch(4, n, 0.5);
            let want = passed(BackendKind::Scalar, src.mesh(), &xs);
            let (outs, info) = batcher.submit(key, src.clone(), xs).wait_info().unwrap();
            assert_eq!(outs, want);
            assert_eq!((info.cause, info.batch_tiles), (FlushCause::Full, n));
        }
        gate.open();
        leader.join().unwrap().unwrap();
    }
}
