//! Offline stand-in for the `rayon` crate.
//!
//! Implements exactly the parallel-iterator subset this workspace uses,
//! on plain `std::thread::scope` fork-join:
//!
//! - `slice.par_iter().map(f).collect::<Vec<_>>()`
//! - `range.into_par_iter().map(f).collect::<Vec<_>>()`
//! - `slice.par_chunks_mut(n).for_each(f)` (plus `.enumerate()`)
//! - `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)`
//!
//! Work is split into contiguous blocks, one per worker; the calling
//! thread runs the first block and `workers − 1` threads are spawned
//! per call for the rest. That is slower than rayon's work-stealing pool for
//! tiny closures but has identical semantics, and the workspace's
//! deterministic-reduction helpers (`qn-linalg::parallel`) already chunk
//! work coarsely. `install` scopes a thread-count override so the
//! `parallel_scaling` bench keeps measuring real 1/2/4/8-thread runs.

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The host's parallelism, read once per process like rayon sizes its
/// global pool once: `available_parallelism` re-reads the cgroup quota
/// files on every call, which costs more than a small parallel call.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of workers a parallel call should use right now.
fn current_threads() -> usize {
    POOL_THREADS.with(|t| t.get()).unwrap_or_else(host_threads)
}

/// The calling thread's [`ThreadPool::install`] override, for handing to
/// spawned workers. `POOL_THREADS` is a `thread_local!`, so a worker
/// spawned via `std::thread::scope` starts with no override — a nested
/// parallel call inside it would silently fall back to
/// `available_parallelism` and oversubscribe the installed pool. Every
/// spawn site captures the parent's override and re-installs it in the
/// worker.
fn ambient_override() -> Option<usize> {
    POOL_THREADS.with(|t| t.get())
}

/// Run `f` on a worker thread with the parent's pool override active.
fn with_override<R>(ambient: Option<usize>, f: impl FnOnce() -> R) -> R {
    POOL_THREADS.with(|t| t.set(ambient));
    f()
}

/// Run `f` over every item of `items` (mutable blocks) in parallel.
fn parallel_for_each_indexed<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let n = items.len();
    let workers = if n <= 1 { 1 } else { current_threads().min(n) };
    if workers <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    let mut blocks: Vec<Vec<(usize, T)>> = Vec::new();
    let mut current: Vec<(usize, T)> = Vec::with_capacity(chunk);
    for (i, item) in items.into_iter().enumerate() {
        current.push((i, item));
        if current.len() == chunk {
            blocks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    let ambient = ambient_override();
    let mut blocks = blocks.into_iter();
    let own = blocks.next().expect("at least two blocks");
    let f = &f;
    std::thread::scope(|scope| {
        for block in blocks {
            scope.spawn(move || {
                with_override(ambient, || {
                    for (i, item) in block {
                        f(i, item);
                    }
                });
            });
        }
        // The caller runs the first block instead of idling in `join`.
        for (i, item) in own {
            f(i, item);
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
        let n = self.items.len();
        let workers = if n <= 1 { 1 } else { current_threads().min(n) };
        let f = &self.f;
        if workers <= 1 {
            return C::from(self.items.into_iter().map(f).collect());
        }
        let chunk = n.div_ceil(workers);
        let mut blocks: Vec<Vec<I>> = Vec::with_capacity(workers);
        let mut items = self.items;
        while items.len() > chunk {
            let rest = items.split_off(chunk);
            blocks.push(std::mem::replace(&mut items, rest));
        }
        blocks.push(items);
        let ambient = ambient_override();
        let mut blocks = blocks.into_iter();
        let own = blocks.next().expect("at least two blocks");
        let results: Vec<Vec<U>> = std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .map(|block| {
                    scope.spawn(move || {
                        with_override(ambient, || block.into_iter().map(f).collect::<Vec<U>>())
                    })
                })
                .collect();
            // The caller maps the first block instead of idling in `join`.
            let first: Vec<U> = own.into_iter().map(f).collect();
            std::iter::once(first)
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked")),
                )
                .collect()
        });
        C::from(results.into_iter().flatten().collect())
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

/// Error from [`ThreadPoolBuilder::build`] (never produced here; kept for
/// signature compatibility).
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

    /// Materialise the pool.
    ///
    /// # Errors
    /// Never fails in this stand-in; `Result` kept for API compatibility.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(host_threads),
        })
    }
}

/// A scoped thread-count policy: work run under [`ThreadPool::install`]
/// splits across this pool's worker count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count as the ambient parallelism.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        POOL_THREADS.with(|t| {
            let prev = t.get();
            t.set(Some(self.num_threads));
            let result = f();
            t.set(prev);
            result
        })
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
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let mut data = [0u8; 2];
        let ids = std::sync::Mutex::new(Vec::new());
        pool.install(|| {
            data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                ids.lock().unwrap().push((i, std::thread::current().id()));
            });
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_by_key(|&(i, _)| i);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].1, caller, "block 0 runs on the caller");
        assert_ne!(ids[1].1, caller, "block 1 runs on a spawned worker");
        // The collecting map splits the same way.
        let mapped: Vec<_> = pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|i| (i, std::thread::current().id()))
                .collect()
        });
        assert_eq!(mapped[0].1, caller);
        assert_ne!(mapped[1].1, caller);
        // A single block never forks, whatever the pool size.
        let wide = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let mut one = [0u8; 4];
        let seen = std::sync::Mutex::new(None);
        wide.install(|| {
            one.par_chunks_mut(4).for_each(|_| {
                *seen.lock().unwrap() = Some(std::thread::current().id());
            });
        });
        assert_eq!(seen.into_inner().unwrap(), Some(caller));
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
        // A nested parallel call inside an installed pool's worker must
        // see the pool's thread count, not available_parallelism: the
        // thread_local override is re-installed in every spawned worker.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let max_inner = AtomicUsize::new(0);
        pool.install(|| {
            // Outer fan-out: >1 item per worker block so workers spawn.
            (0..8usize).into_par_iter().for_each(|_| {
                // Nested call: current_threads() inside the worker.
                let seen = super::current_threads();
                max_inner.fetch_max(seen, Ordering::Relaxed);
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
