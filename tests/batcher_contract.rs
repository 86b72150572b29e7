//! The mesh batcher's contract under a seeded multi-threaded stress.
//!
//! Threads submit to a handful of keys with sizes from zero to twice
//! the merge cap, hold several handles at once, wait on them in random
//! order and drop some unwaited. Whatever the interleaving:
//!
//! - every handle that is waited on resolves, to outputs bit-identical
//!   to a standalone pass of the scalar reference backend;
//! - every pass carries exactly one flush cause, so the per-cause
//!   counters sum to the number of passes;
//! - every submitted tile runs exactly once, dropped handles included,
//!   so the `batch_flush_tiles` sum equals the tiles submitted.

use qn::backend::{BackendKind, BatchKey, BatcherMetrics, FlushCause, MeshBatcher, MeshSource};
use qn::metrics::Registry;
use qn::photonic::Mesh;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const DIM: usize = 8;
const THREADS: usize = 8;
/// Keys are (model, lane) pairs over two models and both lanes.
const KEYS: usize = 4;
const ROUNDS: usize = 40;
/// The merge cap; submissions range from empty to twice this.
const BATCH_TILES: usize = 16;
/// A run takes well under a second; one that has not finished by this
/// long has stranded a submitter.
const WATCHDOG: Duration = Duration::from_secs(60);

/// A mesh whose every pass takes a little while, so arrivals pile up
/// behind running passes and merge.
struct SlowMesh(Mesh);

impl MeshSource for SlowMesh {
    fn mesh(&self) -> &Mesh {
        std::thread::sleep(Duration::from_micros(100));
        &self.0
    }
}

fn key(k: usize) -> BatchKey {
    BatchKey {
        model: (k / 2) as u64,
        lane: (k % 2) as u8,
    }
}

/// Empty one time in eight, over the merge cap one time in eight.
fn size(rng: &mut StdRng) -> usize {
    match rng.random_range(0..8u32) {
        0 => 0,
        1 => rng.random_range(BATCH_TILES + 1..=2 * BATCH_TILES),
        _ => rng.random_range(1..=BATCH_TILES),
    }
}

fn vectors(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect())
        .collect()
}

fn bits(vs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    vs.iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One seeded stress run against `backend`; checks every output inline
/// and returns the metrics plus the tiles submitted.
fn stress(backend: BackendKind, seed: u64) -> (BatcherMetrics, usize) {
    let registry = Registry::new();
    let metrics = BatcherMetrics::new(&registry);
    let batcher = Arc::new(MeshBatcher::with_metrics(
        backend,
        BATCH_TILES,
        Some(metrics.clone()),
    ));
    let meshes: Vec<Arc<SlowMesh>> = (0..KEYS)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + k as u64);
            Arc::new(SlowMesh(Mesh::random(DIM, 3, &mut rng)))
        })
        .collect();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let meshes = meshes.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + 100 + t as u64);
                let mut tiles = 0;
                for round in 0..ROUNDS {
                    // Up to three submissions in flight from this
                    // thread at once ...
                    let mut held = Vec::new();
                    for _ in 0..rng.random_range(1..=3usize) {
                        let k = rng.random_range(0..KEYS);
                        let n = size(&mut rng);
                        let vecs = vectors(&mut rng, n);
                        let want = BackendKind::Scalar
                            .backend()
                            .forward_batch(&meshes[k].0, &vecs);
                        tiles += n;
                        let source: Arc<dyn MeshSource> = meshes[k].clone();
                        held.push((batcher.submit(key(k), source, vecs), want));
                    }
                    // ... waited on in random order, one in ten dropped.
                    while !held.is_empty() {
                        let (handle, want) = held.swap_remove(rng.random_range(0..held.len()));
                        if rng.random_bool(0.1) {
                            drop(handle);
                            continue;
                        }
                        let got = handle.wait().unwrap_or_else(|| {
                            panic!("{backend} seed {seed} thread {t} round {round}: pass failed")
                        });
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{backend} seed {seed} thread {t} round {round}"
                        );
                    }
                }
                tiles
            })
        })
        .collect();
    let tiles = workers
        .into_iter()
        .map(|w| w.join().expect("submitter thread panicked"))
        .sum();
    (metrics, tiles)
}

#[test]
fn batched_passes_match_standalone_scalar_passes_under_a_seeded_stress() {
    let mut reached = [0u64; 3];
    for backend in [BackendKind::Scalar, BackendKind::Simd] {
        for seed in 1..=3 {
            let (tx, rx) = mpsc::channel();
            let run = std::thread::spawn(move || tx.send(stress(backend, seed)));
            let (metrics, tiles) = rx.recv_timeout(WATCHDOG).unwrap_or_else(|e| {
                panic!("{backend} seed {seed}: the stress run failed or stranded a submitter ({e})")
            });
            run.join().expect("stress thread").expect("result received");
            let by_cause = FlushCause::ALL.map(|c| metrics.flushes(c).get());
            let passes = metrics.flush_tiles.count();
            assert_eq!(
                by_cause.iter().sum::<u64>(),
                passes,
                "{backend} seed {seed}: causes {by_cause:?} must sum to the passes"
            );
            assert_eq!(
                metrics.flush_tiles.sum(),
                tiles as u64,
                "{backend} seed {seed}: every submitted tile runs exactly once"
            );
            for (total, n) in reached.iter_mut().zip(by_cause) {
                *total += n;
            }
        }
    }
    // The stress reaches every path: passes on arrival, merged passes
    // behind a running one, and full ones.
    for (cause, n) in FlushCause::ALL.iter().zip(reached) {
        assert!(n > 0, "no {} pass in any run", cause.label());
    }
}
