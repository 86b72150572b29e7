//! Deterministic parallel helpers: the one module that forks.
//!
//! Every parallel call in the workspace goes through
//! [`par_map_chunked_into`], which splits the caller's output slice
//! into fixed chunks and runs them on the rayon pool; the other two
//! helpers are built on it.
//!
//! Floating-point addition is not associative, so a reduction whose
//! grouping followed the work split would depend on the thread count.
//! Training runs must be bit-identical across thread counts for the
//! experiments to be reproducible, so [`par_sum_vectors`] uses *fixed*
//! chunk boundaries: items are grouped into chunks of a static size, each
//! chunk is summed sequentially (possibly on different workers), and the
//! per-chunk partials are combined sequentially in index order. The result
//! is identical to a plain sequential fold over the same chunking,
//! regardless of how many threads the pool has. The maps write each item
//! or chunk to its own slot, so they are deterministic by construction.

use rayon::prelude::*;

/// Chunk size used by [`par_sum_vectors`]. Large enough to
/// amortise scheduling, small enough to expose parallelism for the
/// batch sizes used in the experiments.
pub const DET_CHUNK: usize = 64;

/// Deterministic parallel element-wise accumulation of vectors:
/// returns `Σ_{i<n} f(i)`, where `f(i, acc)` adds item `i`'s vector into
/// the length-`len` accumulator `acc`.
///
/// Per-chunk partial vectors are produced in parallel, then combined
/// sequentially in chunk order, so the result is thread-count invariant.
pub fn par_sum_vectors<F>(n: usize, len: usize, f: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let mut partials = vec![Vec::new(); n.div_ceil(DET_CHUNK)];
    par_map_chunked_into(&mut partials, 1, |c, slot| {
        let start = c * DET_CHUNK;
        let mut acc = vec![0.0; len];
        for i in start..(start + DET_CHUNK).min(n) {
            f(i, &mut acc);
        }
        slot[0] = acc;
    });
    let mut out = vec![0.0; len];
    for p in partials {
        for (o, v) in out.iter_mut().zip(&p) {
            *o += v;
        }
    }
    out
}

/// Parallel map with order-preserving collection: `(0..n).map(f)`
/// computed on the rayon pool, one item per chunk. Each element is
/// independent, so this is deterministic by construction.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_map_chunked_into(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
    out.into_iter()
        .map(|v| v.expect("every chunk ran"))
        .collect()
}

/// Parallel map over fixed-size chunks of the caller's preallocated
/// `out` slice: calls `f(start, block)` once per half-open chunk
/// `[start, end)` of at most `chunk` items (the last chunk may be
/// ragged), with `block` the mutable sub-slice `out[start..end]` to
/// fill.
///
/// This is the scheduling substrate for panel-batched mesh execution
/// and the codec's per-panel stages: chunk boundaries depend only on
/// `out.len()` and `chunk`, never on the thread count, so the result
/// is thread-count invariant whenever `f` is deterministic.
///
/// # Panics
/// Panics when `chunk` is zero.
pub fn par_map_chunked_into<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync + Send,
{
    out.par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(i, block)| f(i * chunk, block));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sum_vectors_accumulates_elementwise() {
        let n = 300;
        let len = 4;
        let out = par_sum_vectors(n, len, |i, acc| {
            for (j, a) in acc.iter_mut().enumerate() {
                *a += (i * (j + 1)) as f64;
            }
        });
        let total: f64 = (0..n).map(|i| i as f64).sum();
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, total * (j + 1) as f64);
        }
    }

    #[test]
    fn par_sum_vectors_empty() {
        let out = par_sum_vectors(0, 3, |_, _| panic!("not called"));
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn par_map_preserves_order() {
        let v = par_map_indexed(100, |i| i * 2);
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// The `(start, len)` of every chunk `par_map_chunked_into` hands
    /// out over `n` items, in slot order.
    fn chunk_spans(n: usize, chunk: usize) -> Vec<(usize, usize)> {
        let mut spans = vec![(usize::MAX, 0); n];
        par_map_chunked_into(&mut spans, chunk, |start, block| {
            let len = block.len();
            block.fill((start, len));
        });
        spans.dedup();
        spans
    }

    #[test]
    fn par_map_chunked_into_covers_ragged_ranges() {
        for (n, chunk) in [(10usize, 3usize), (9, 3), (1, 5), (64, 64), (65, 64)] {
            // Chunks tile 0..n in order, each at most `chunk` long.
            let mut expect_start = 0;
            for (s, len) in chunk_spans(n, chunk) {
                assert_eq!(s, expect_start);
                assert!(len > 0 && len <= chunk);
                expect_start = s + len;
            }
            assert_eq!(expect_start, n, "n={n} chunk={chunk}");
        }
    }

    #[test]
    fn par_map_chunked_into_empty_is_a_noop() {
        let mut out: Vec<usize> = Vec::new();
        par_map_chunked_into(&mut out, 8, |_, _| panic!("not called"));
    }

    #[test]
    fn par_map_chunked_into_is_thread_count_invariant() {
        let compute = || {
            let mut out = vec![0usize; 137];
            par_map_chunked_into(&mut out, 16, |start, block| {
                let sum: usize = (start..start + block.len()).sum();
                for (off, v) in block.iter_mut().enumerate() {
                    *v = sum * 1000 + start + off;
                }
            });
            out
        };
        let base = compute();
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(compute), base, "{threads} threads");
        }
    }
}
