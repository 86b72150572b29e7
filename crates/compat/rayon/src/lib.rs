//! Offline stand-in for the `rayon` crate.
//!
//! Implements exactly the parallel-iterator subset this workspace uses,
//! on a persistent fork-join pool:
//!
//! - `slice.par_iter().map(f).collect::<Vec<_>>()`
//! - `range.into_par_iter().map(f).collect::<Vec<_>>()`
//! - `slice.par_chunks_mut(n).for_each(f)` (plus `.enumerate()`)
//! - `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)`
//! - `current_num_threads()`
//!
//! # The pool
//!
//! Calls outside any [`ThreadPool::install`] run on a global pool of
//! `available_parallelism − 1` helper threads, started by the first
//! call that forks and kept for the life of the process. A
//! [`ThreadPool`] of `n` threads owns `n − 1` helpers of its own and
//! joins them when it is dropped. Idle helpers park on a condition
//! variable and never spin; no parallel call spawns a thread.
//!
//! A parallel call over `n` items splits them into contiguous blocks
//! of `n.div_ceil(workers)` items, `workers` being the current pool's
//! thread count capped at `n`: the split depends on the pool size and
//! the item count only, so a deterministic closure gives the same
//! result however the blocks are scheduled. The caller claims block 0,
//! publishes the rest to the pool's helpers, runs blocks until none is
//! left unclaimed, and then waits only for the blocks a helper already
//! took. So a call never has more than `workers` participants, and
//! when every helper is busy (many server workers calling at once) it
//! runs serially on its caller instead of queueing behind the others.
//!
//! A panic in a block is caught where it happens and resumed on the
//! caller once every block of the call has finished; the helper that
//! caught it goes back to waiting for work. Every thread has a current
//! pool: `install` sets it for its closure, and a pool's helpers run
//! under their own pool, so a nested parallel call inside a block stays
//! in the pool that runs the block.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// The host's parallelism, read once per process like rayon sizes its
/// global pool once: `available_parallelism` re-reads the cgroup quota
/// files on every call, which costs more than a small parallel call.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Lock `m`, whose holders never panic and leave its data valid at
/// every step, so a poisoned guard is still good.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A panic payload, carried from the block that raised it to the caller.
type Panic = Box<dyn Any + Send>;

/// One parallel call's blocks, shared by its caller and the helpers
/// that take some of them.
struct Job {
    /// The caller's block closure, an `F` behind a type-erased pointer.
    data: *const (),
    /// `run_erased::<F>`: runs block `i` of the closure at `data`.
    call: unsafe fn(*const (), usize),
    blocks: usize,
    /// The next unclaimed block. Block 0 is the caller's from the start.
    next: AtomicUsize,
    /// Blocks finished, by anyone.
    done: AtomicUsize,
    /// The first panic a block raised.
    panic: Mutex<Option<Panic>>,
    /// The caller, unparked by the helper that finishes the last block.
    caller: Thread,
}

// SAFETY: `data` points to an `F: Fn(usize) + Sync` (see `fork_join`),
// so calling it through a shared pointer from any thread is sound, and
// the caller keeps it alive while any block can still run (see
// `Job::run_block`). `call` is a plain function pointer; the atomics,
// the mutex (over a `Send` payload) and the `Thread` handle are `Send`
// and `Sync` on their own.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

/// Run block `i` of the closure at `data`.
///
/// # Safety
/// `data` must point to a live `F`.
unsafe fn run_erased<F: Fn(usize) + Sync>(data: *const (), i: usize) {
    // SAFETY: the caller guarantees `data` is a live `F`.
    let f = unsafe { &*data.cast::<F>() };
    f(i);
}

impl Job {
    /// Claim the next unrun block, if any is left. `Relaxed` is enough:
    /// the counter hands out indices and publishes nothing; the job's
    /// data reached this thread through the queue's mutex.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.blocks).then_some(i)
    }

    /// Whether every block has been claimed.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.blocks
    }

    /// Run claimed block `i`, keep its panic for the caller, and count
    /// it done. Returns whether it was the last block to finish.
    fn run_block(&self, i: usize) -> bool {
        // SAFETY: the closure at `data` outlives every claimed block.
        // `fork_join` returns (and its closure dies) only once `done`
        // reaches `blocks`; a block counts itself done after its last
        // use of the closure, and every block is claimed at most once,
        // so no block can start after the count is full.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, i) }));
        if let Err(payload) = ran {
            lock(&self.panic).get_or_insert(payload);
        }
        // Release: the block's writes happen before the count, which
        // the caller reads with Acquire before it touches the results.
        self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.blocks
    }

    /// Run blocks until none is left unclaimed (a helper's share of the
    /// job), waking the caller if this thread finished the last one.
    fn help(&self) {
        while let Some(i) = self.claim() {
            if self.run_block(i) {
                self.caller.unpark();
            }
        }
    }
}

/// Published jobs and the helpers waiting for them.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    /// Helpers waiting on [`Registry::wake`].
    idle: usize,
    /// Set when the owning [`ThreadPool`] is dropped.
    shutdown: bool,
}

/// A pool's shared state: its thread count, its job queue and its
/// helpers' wake-up.
struct Registry {
    /// Participants per call: the caller plus `threads − 1` helpers.
    threads: usize,
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl Registry {
    fn new(threads: usize) -> Arc<Registry> {
        Arc::new(Registry {
            threads,
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
        })
    }

    /// Spawn helper `index` of this pool. A helper runs its pool's jobs,
    /// with the pool as its current pool, until the pool shuts down.
    fn spawn_helper(self: &Arc<Self>, index: usize) -> std::io::Result<JoinHandle<()>> {
        let registry = Arc::clone(self);
        thread::Builder::new()
            .name(format!("rayon-helper-{index}"))
            .spawn(move || {
                let _current = CurrentPool::set(Some(Arc::clone(&registry)));
                while let Some(job) = registry.next_job() {
                    job.help();
                }
            })
    }

    /// Park until a job has unclaimed blocks, and return it; `None` once
    /// the pool shuts down.
    fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = lock(&self.queue);
        loop {
            if queue.shutdown {
                return None;
            }
            while queue.jobs.front().is_some_and(|job| job.exhausted()) {
                queue.jobs.pop_front();
            }
            if let Some(job) = queue.jobs.front() {
                return Some(Arc::clone(job));
            }
            queue.idle += 1;
            queue = self
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.idle -= 1;
        }
    }

    /// Queue `job` and wake as many idle helpers as it has blocks
    /// beyond the caller's.
    fn publish(&self, job: &Arc<Job>) {
        let wake = {
            let mut queue = lock(&self.queue);
            queue.jobs.push_back(Arc::clone(job));
            queue.idle.min(job.blocks - 1)
        };
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// Take `job` off the queue once its blocks are all claimed.
    fn withdraw(&self, job: &Arc<Job>) {
        lock(&self.queue).jobs.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// The global pool: `host_threads() − 1` helpers, started by the first
/// call that forks outside any [`ThreadPool`]. They live as long as the
/// process, so their handles are not kept; a helper never panics (every
/// block runs under `catch_unwind`), so detaching hides nothing.
fn global() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| {
        let registry = Registry::new(host_threads());
        for index in 0..host_threads() - 1 {
            // A helper that cannot start leaves its blocks to the callers.
            let _ = registry.spawn_helper(index);
        }
        registry
    }))
}

thread_local! {
    /// This thread's current pool: set by [`ThreadPool::install`] for
    /// its closure and by every pool's helpers for their lives; `None`
    /// is the global pool.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Makes a pool this thread's current pool until dropped, then restores
/// the previous one (also when the closure it guards panics).
struct CurrentPool(Option<Arc<Registry>>);

impl CurrentPool {
    fn set(pool: Option<Arc<Registry>>) -> CurrentPool {
        CurrentPool(CURRENT.with(|c| c.replace(pool)))
    }
}

impl Drop for CurrentPool {
    fn drop(&mut self) {
        let previous = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// Number of threads a parallel call on this thread splits across: the
/// current pool's size.
pub fn current_num_threads() -> usize {
    CURRENT.with(|c| c.borrow().as_ref().map_or_else(host_threads, |r| r.threads))
}

/// Run blocks `0..blocks` of `f` on the current pool (see the module
/// docs) and return once all have finished, resuming the first panic
/// any of them raised.
fn fork_join<F: Fn(usize) + Sync>(blocks: usize, f: &F) {
    let registry = CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(global);
    let job = Arc::new(Job {
        data: std::ptr::from_ref(f).cast(),
        call: run_erased::<F>,
        blocks,
        next: AtomicUsize::new(1),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    registry.publish(&job);
    job.run_block(0);
    while let Some(i) = job.claim() {
        job.run_block(i);
    }
    registry.withdraw(&job);
    // Acquire pairs with the Release in `run_block`: every block's
    // writes are visible once the count is full. A stray unpark only
    // costs one more look at the count.
    while job.done.load(Ordering::Acquire) < blocks {
        thread::park();
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Split `items` into contiguous blocks of `n.div_ceil(workers)` and run
/// `body(start, block)` on each, in parallel on the current pool;
/// returns the blocks' results in order. A single block runs on the
/// caller without forking.
fn run_blocks<T, R, F>(items: Vec<T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Vec<T>) -> R + Sync,
{
    let n = items.len();
    let workers = if n <= 1 {
        1
    } else {
        current_num_threads().min(n)
    };
    if workers <= 1 {
        return vec![body(0, items)];
    }
    let chunk = n.div_ceil(workers);
    let mut blocks = Vec::with_capacity(workers);
    let mut items = items;
    while items.len() > chunk {
        let rest = items.split_off(chunk);
        blocks.push(Mutex::new(std::mem::replace(&mut items, rest)));
    }
    blocks.push(Mutex::new(items));
    let results: Vec<Mutex<Option<R>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
    fork_join(blocks.len(), &|b| {
        let block = std::mem::take(&mut *lock(&blocks[b]));
        let result = body(b * chunk, block);
        *lock(&results[b]) = Some(result);
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("fork_join ran every block")
        })
        .collect()
}

/// Run `f` over every item of `items` (with its index) in parallel.
fn parallel_for_each_indexed<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    run_blocks(items, |start, block| {
        for (k, item) in block.into_iter().enumerate() {
            f(start + k, item);
        }
    });
}

/// A materialised "parallel iterator": items are known up front and every
/// adaptor either stays lazy per-index (`map`) or executes the fork-join.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Parallel map; evaluation happens at `collect`/`for_each`.
    pub fn map<U, F>(self, f: F) -> ParMap<I, F>
    where
        U: Send,
        F: Fn(I) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pair every item with its index.
    pub fn enumerate(self) -> ParEnumerate<I> {
        ParEnumerate { items: self.items }
    }

    /// Consume the items in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        parallel_for_each_indexed(self.items, |_, item| f(item));
    }
}

/// Lazy parallel map (result of [`ParIter::map`]).
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, U, F> ParMap<I, F>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    /// Execute the map across workers and collect in index order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let f = &self.f;
        let mut parts = run_blocks(self.items, |_, block| {
            block.into_iter().map(f).collect::<Vec<U>>()
        });
        if parts.len() == 1 {
            return C::from(parts.pop().expect("one block"));
        }
        C::from(parts.into_iter().flatten().collect())
    }

    /// Execute the map for its side effects.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(U) + Sync,
    {
        let f = self.f;
        parallel_for_each_indexed(self.items, |_, item| g(f(item)));
    }
}

/// Enumerated parallel iterator (result of [`ParIter::enumerate`]).
pub struct ParEnumerate<I> {
    items: Vec<I>,
}

impl<I: Send> ParEnumerate<I> {
    /// Consume `(index, item)` pairs in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, I)) + Sync,
    {
        parallel_for_each_indexed(self.items, |i, item| f((i, item)));
    }
}

/// `.par_iter()` on slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Shared-reference item type.
    type Item: Send + 'a;
    /// Build the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `.into_par_iter()` on owning collections and ranges.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;
    /// Build the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `.par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into mutable chunks of `size` (last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// Error from [`ThreadPoolBuilder::build`]: a helper thread could not
/// be spawned.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Fresh builder with default (hardware) parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the worker count (0 = hardware default, as in rayon).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Start the pool's `num_threads − 1` helpers.
    ///
    /// # Errors
    /// [`ThreadPoolBuildError`] when a helper cannot be spawned; the
    /// helpers already started are joined.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = self.num_threads.unwrap_or_else(host_threads);
        let mut pool = ThreadPool {
            registry: Registry::new(threads),
            helpers: Vec::with_capacity(threads - 1),
        };
        for index in 0..threads - 1 {
            let helper = pool
                .registry
                .spawn_helper(index)
                .map_err(|_| ThreadPoolBuildError)?;
            pool.helpers.push(helper);
        }
        Ok(pool)
    }
}

/// A pool of `num_threads` participants: work run under
/// [`ThreadPool::install`] splits across them, on the caller and the
/// pool's own helpers.
pub struct ThreadPool {
    registry: Arc<Registry>,
    helpers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `f` with this pool as the current pool: parallel calls in it
    /// split across this pool's thread count and run on its helpers.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _current = CurrentPool::set(Some(Arc::clone(&self.registry)));
        f()
    }
}

impl Drop for ThreadPool {
    /// Stop the helpers and join them. No call is running: `install`
    /// borrows the pool, and a call returns only after its blocks.
    fn drop(&mut self) {
        lock(&self.registry.queue).shutdown = true;
        self.registry.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper never panics: every block runs under catch_unwind.
            let _ = helper.join();
        }
    }
}

/// The glob-import module mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_on_ranges() {
        let squares: Vec<usize> = (0usize..257).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 257);
        assert_eq!(squares[16], 256);
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let mut data = vec![0u64; 1003];
        data.par_chunks_mut(64).for_each(|chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_chunks_mut_enumerate_sees_chunk_indices() {
        let mut data = vec![0usize; 100];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, j / 10);
        }
    }

    #[test]
    fn the_calling_thread_runs_the_first_block() {
        let caller = thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // Block 1 runs on the caller or on the pool's one helper: over
        // many calls, the threads other than the caller form one set
        // of at most one id, since no call spawns a thread.
        let mut others = HashSet::new();
        for _ in 0..50 {
            let mut data = [0u8; 2];
            let ids = Mutex::new(Vec::new());
            pool.install(|| {
                data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                    ids.lock().unwrap().push((i, thread::current().id()));
                });
            });
            let mut ids = ids.into_inner().unwrap();
            ids.sort_by_key(|&(i, _)| i);
            assert_eq!(ids.len(), 2);
            assert_eq!(ids[0].1, caller, "block 0 runs on the caller");
            // The collecting map splits the same way.
            let mapped: Vec<(usize, ThreadId)> = pool.install(|| {
                (0..2usize)
                    .into_par_iter()
                    .map(|i| (i, thread::current().id()))
                    .collect()
            });
            assert_eq!(mapped[0].1, caller);
            others.extend(
                [ids[1].1, mapped[1].1]
                    .into_iter()
                    .filter(|&id| id != caller),
            );
        }
        assert!(
            others.len() <= 1,
            "{} helper threads for a 2-thread pool",
            others.len()
        );
        // A single block never forks, whatever the pool size.
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let mut one = [0u8; 4];
        let seen = Mutex::new(None);
        wide.install(|| {
            one.par_chunks_mut(4).for_each(|_| {
                *seen.lock().unwrap() = Some(thread::current().id());
            });
        });
        assert_eq!(seen.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn a_one_thread_pool_runs_every_block_on_the_caller() {
        let caller = thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert!(pool.helpers.is_empty(), "a 1-thread pool has no helper");
        let ids: Vec<ThreadId> = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|_| thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == caller));
        let mut data = [0u8; 64];
        pool.install(|| {
            data.par_chunks_mut(1).for_each(|b| {
                assert_eq!(thread::current().id(), caller);
                b[0] = 1;
            });
        });
        assert!(data.iter().all(|&b| b == 1));
    }

    /// Run a two-block call on `pool` whose block 1 must run on the
    /// helper: block 0 holds the caller until block 1 has started.
    /// Returns block 1's thread. `block1` runs inside block 1.
    fn on_the_helper(pool: &ThreadPool, block1: impl Fn() + Sync) -> ThreadId {
        let (started, wait) = mpsc::channel::<ThreadId>();
        let wait = Mutex::new(wait);
        let helper = Mutex::new(None);
        pool.install(|| {
            (0..2usize).into_par_iter().for_each(|i| {
                if i == 0 {
                    let id = wait.lock().unwrap().recv().expect("block 1 started");
                    *helper.lock().unwrap() = Some(id);
                } else {
                    started.send(thread::current().id()).unwrap();
                    block1();
                }
            });
        });
        helper
            .into_inner()
            .unwrap()
            .expect("block 1 reported its thread")
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_helper_survives() {
        let caller = thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            on_the_helper(&pool, || panic!("block 1 failed"))
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 1 failed"));
        // The next call still reaches the same helper.
        let first = on_the_helper(&pool, || finished.store(true, Ordering::SeqCst));
        let second = on_the_helper(&pool, || {});
        assert_ne!(first, caller);
        assert_eq!(first, second, "one helper serves every call");
        assert!(finished.load(Ordering::SeqCst));
        assert_eq!(pool.helpers.len(), 1);
        assert!(!pool.helpers[0].is_finished(), "the helper is still alive");
    }

    #[test]
    fn nested_calls_inside_a_pool_block_finish() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // Block 1 runs on the helper while the caller waits in block 0,
        // so the helper's nested call has no one else to take its
        // blocks and must run them itself.
        let inner = Mutex::new(Vec::new());
        on_the_helper(&pool, || {
            assert_eq!(current_num_threads(), 2, "the helper runs in its pool");
            let v: Vec<usize> = (0..10usize).into_par_iter().map(|i| i * i).collect();
            *inner.lock().unwrap() = v;
        });
        assert_eq!(
            inner.into_inner().unwrap(),
            (0..10).map(|i| i * i).collect::<Vec<_>>()
        );
        // Three levels deep, on every participant.
        let total: usize = pool.install(|| {
            let sums: Vec<usize> = (0..4usize)
                .into_par_iter()
                .map(|a| {
                    let inner: Vec<usize> = (0..4usize)
                        .into_par_iter()
                        .map(|b| {
                            let leaf: Vec<usize> = (0..4usize)
                                .into_par_iter()
                                .map(|c| a * 16 + b * 4 + c)
                                .collect();
                            leaf.iter().sum()
                        })
                        .collect();
                    inner.iter().sum()
                })
                .collect();
            sums.iter().sum()
        });
        assert_eq!(total, (0..64).sum());
    }

    #[test]
    fn dropping_a_pool_joins_its_helpers() {
        /// Flags its thread's exit: thread-local destructors run
        /// before a joined thread counts as finished.
        struct ExitFlag(Arc<AtomicBool>);
        impl Drop for ExitFlag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<ExitFlag>> = const { RefCell::new(None) };
        }
        let exited = Arc::new(AtomicBool::new(false));
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let weak = Arc::downgrade(&pool.registry);
        on_the_helper(&pool, || {
            EXIT.with(|e| *e.borrow_mut() = Some(ExitFlag(Arc::clone(&exited))));
        });
        assert!(!exited.load(Ordering::SeqCst), "the helper waits for work");
        drop(pool);
        assert!(
            exited.load(Ordering::SeqCst),
            "drop returned before the helper exited"
        );
        assert_eq!(weak.strong_count(), 0, "no helper holds the pool any more");
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let sum: usize = pool.install(|| {
            let v: Vec<usize> = (0..100usize).into_par_iter().map(|i| i).collect();
            v.iter().sum()
        });
        assert_eq!(sum, 4950);
    }

    #[test]
    fn workers_inherit_the_installed_thread_count() {
        // A nested parallel call inside an installed pool's block must
        // see the pool's thread count, not available_parallelism: the
        // pool's helpers run under their own pool.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let max_inner = AtomicUsize::new(0);
        pool.install(|| {
            (0..8usize).into_par_iter().for_each(|_| {
                max_inner.fetch_max(current_num_threads(), Ordering::Relaxed);
                // The nested parallel call itself must also work.
                let v: Vec<usize> = (0..4usize).into_par_iter().map(|i| i).collect();
                assert_eq!(v, vec![0, 1, 2, 3]);
            });
        });
        assert_eq!(
            max_inner.load(Ordering::Relaxed),
            2,
            "nested calls must inherit the installed 2-thread override"
        );
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let compute = || -> Vec<f64> {
            (0..500usize)
                .into_par_iter()
                .map(|i| (i as f64).sqrt().sin())
                .collect()
        };
        let base = compute();
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(compute);
            assert_eq!(got, base);
        }
    }
}
