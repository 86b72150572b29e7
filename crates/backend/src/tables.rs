//! Content-addressed cache of precomputed [`MeshTables`].
//!
//! A mesh is static for the lifetime of a model, but backends receive it
//! by reference on every batch — they cannot know whether two calls name
//! the same model. This module gives every backend a shared,
//! process-wide table cache keyed by a fingerprint of the mesh
//! *contents* (the same content-addressing idea as the model zoo's
//! 64-bit model id): the first pass over a model pays one `sin_cos` per
//! gate to build its [`MeshTables`]; every later pass — any panel, any
//! batch, any request, any backend — reuses the cached tables and runs
//! trig-free.
//!
//! The cache holds the [`CACHE_CAP`] most recently used models (matching
//! the zoo's working-set assumption) under a `Mutex`; tables are handed
//! out as `Arc`s so eviction never invalidates an in-flight pass.

use qn_photonic::{GateOrder, Mesh, MeshTables};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cached models kept before least-recently-used eviction.
pub const CACHE_CAP: usize = 32;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// MRU-ordered (most recent last) fingerprint → tables entries.
type CacheEntries = Vec<(u64, Arc<MeshTables>)>;

fn cache() -> &'static Mutex<CacheEntries> {
    static CACHE: OnceLock<Mutex<CacheEntries>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// FNV-1a over the mesh's full parameter content: dimension, layer
/// count, and every layer's cascade direction + θ bit patterns. The
/// same 64-bit content-addressing scheme (and collision risk class) as
/// the codec's model id.
fn mesh_fingerprint(mesh: &Mesh) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(mesh.dim() as u64).to_le_bytes());
    eat(&(mesh.layers().len() as u64).to_le_bytes());
    for layer in mesh.layers() {
        eat(&[match layer.order() {
            GateOrder::Ascending => 0u8,
            GateOrder::Descending => 1u8,
        }]);
        for &t in layer.thetas() {
            eat(&t.to_bits().to_le_bytes());
        }
    }
    h
}

/// The gate tables for `mesh`, from the shared cache — built on first
/// sight, reused (and bumped to most-recently-used) afterwards.
pub fn cached_tables(mesh: &Mesh) -> Arc<MeshTables> {
    let key = mesh_fingerprint(mesh);
    {
        let mut entries = cache().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            let entry = entries.remove(pos);
            let tables = Arc::clone(&entry.1);
            entries.push(entry);
            HITS.fetch_add(1, Ordering::Relaxed);
            return tables;
        }
    }
    // Build outside the lock: construction is the expensive part.
    let tables = Arc::new(MeshTables::build(mesh));
    let mut entries = cache().lock().unwrap_or_else(|e| e.into_inner());
    // A racing builder may have inserted the same model meanwhile;
    // keeping either copy is correct (identical contents), keep ours.
    entries.retain(|(k, _)| *k != key);
    entries.push((key, Arc::clone(&tables)));
    if entries.len() > CACHE_CAP {
        let excess = entries.len() - CACHE_CAP;
        entries.drain(..excess);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    tables
}

/// Point-in-time counters of the shared table cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build tables.
    pub misses: u64,
    /// Models currently cached.
    pub entries: usize,
}

/// Snapshot the shared table cache's hit/miss/occupancy counters
/// (process-wide; surfaced by `qn-serve`'s STATS).
pub fn table_cache_stats() -> TableCacheStats {
    let entries = cache().lock().unwrap_or_else(|e| e.into_inner()).len();
    TableCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn repeated_lookups_share_one_build() {
        let mesh = Mesh::random(11, 3, &mut StdRng::seed_from_u64(777_001));
        let before = table_cache_stats();
        let a = cached_tables(&mesh);
        let b = cached_tables(&mesh.clone()); // same content, new allocation
        assert!(Arc::ptr_eq(&a, &b), "same model must share tables");
        let after = table_cache_stats();
        assert!(after.hits > before.hits, "second lookup must hit");
        assert_eq!(a.dim(), 11);
    }

    #[test]
    fn different_models_get_different_tables() {
        let mut rng = StdRng::seed_from_u64(777_002);
        let m1 = Mesh::random(9, 2, &mut rng);
        let m2 = Mesh::random(9, 2, &mut rng);
        assert!(!Arc::ptr_eq(&cached_tables(&m1), &cached_tables(&m2)));
        // Structural variations change the fingerprint too.
        assert!(!Arc::ptr_eq(
            &cached_tables(&m1),
            &cached_tables(&m1.reversed())
        ));
    }

    #[test]
    fn cache_is_bounded() {
        let mut rng = StdRng::seed_from_u64(777_003);
        for _ in 0..(CACHE_CAP + 10) {
            cached_tables(&Mesh::random(5, 1, &mut rng));
        }
        assert!(table_cache_stats().entries <= CACHE_CAP);
    }

    #[test]
    fn cached_tables_match_a_fresh_build() {
        let mesh = Mesh::random(8, 3, &mut StdRng::seed_from_u64(777_004));
        let cached = cached_tables(&mesh);
        assert_eq!(*cached, mesh.tables());
    }
}
