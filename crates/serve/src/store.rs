//! The content-addressed model zoo: `.qnm` files keyed by model id in
//! a directory, fronted by an LRU-bounded in-memory cache of parsed
//! codecs.
//!
//! A model's **id is its address**: the FNV-1a 64 of the serialised
//! model body (`qn_codec::model::model_id`), the same identity `.qnc`
//! containers record. `LOAD_MODEL` inserts therefore cannot collide or
//! alias — re-inserting a model is idempotent — and a `.qnc` without an
//! inline model decodes against the zoo by looking up exactly the id
//! in its header. On-disk layout: `<dir>/<id as 16 hex digits>.qnm`.
//!
//! Without a directory the LRU cache **is** the zoo: capacity bounds
//! total retained models (a hard memory bound — peers drive inserts),
//! so an id evicted by `capacity` newer ones must be `LOAD_MODEL`ed
//! again before use. With a directory, eviction only drops the parsed
//! copy; lookups transparently reload from disk.

use crate::error::{Result, ServeError};
use crate::protocol::ModelEntry;
use qn_codec::{model, Codec};
use qn_metrics::{Counter, Gauge, Registry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Zoo telemetry handles: cache hit/miss/insert counters plus a gauge
/// of parsed models resident in RAM. Clonable — handles share the
/// underlying atomics.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    cached_models: Arc<Gauge>,
}

impl StoreMetrics {
    /// Register the zoo metrics in `registry`.
    pub fn new(registry: &Registry) -> StoreMetrics {
        StoreMetrics {
            hits: registry.counter("zoo_hits_total"),
            misses: registry.counter("zoo_misses_total"),
            inserts: registry.counter("zoo_inserts_total"),
            cached_models: registry.gauge("zoo_cached_models"),
        }
    }

    /// RAM-cache hits observed by [`ModelStore::get`].
    pub fn hits(&self) -> &Counter {
        &self.hits
    }

    /// RAM-cache misses (the lookup then falls through to disk).
    pub fn misses(&self) -> &Counter {
        &self.misses
    }

    /// Successful [`ModelStore::insert_bytes`] calls.
    pub fn inserts(&self) -> &Counter {
        &self.inserts
    }

    /// Parsed models currently resident in the RAM cache.
    pub fn cached_models(&self) -> &Gauge {
        &self.cached_models
    }
}

/// Directory-backed, LRU-cached model zoo. Thread-safe; cheap to share
/// behind an `Arc`.
#[derive(Debug)]
pub struct ModelStore {
    dir: Option<PathBuf>,
    capacity: usize,
    /// Most-recently-used at the back.
    cache: Mutex<Vec<(u64, Arc<Codec>)>>,
    metrics: StoreMetrics,
}

impl ModelStore {
    /// A store over `dir` (created if missing; `None` = in-memory only)
    /// holding at most `capacity` parsed models in RAM, counting its
    /// hits, misses, inserts and residency into `metrics`.
    ///
    /// # Errors
    /// Directory-creation failures.
    pub fn new(
        dir: Option<PathBuf>,
        capacity: usize,
        metrics: StoreMetrics,
    ) -> std::io::Result<Self> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ModelStore {
            dir,
            capacity: capacity.max(1),
            cache: Mutex::new(Vec::new()),
            metrics,
        })
    }

    /// The backing directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The on-disk path a model id maps to (whether or not it exists).
    pub fn model_path(&self, id: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id:016x}.qnm")))
    }

    /// Parsed models currently cached in RAM.
    pub fn cached_len(&self) -> usize {
        self.cache.lock().expect("store lock").len()
    }

    /// Whether model `id` is parsed in RAM right now: a peek that
    /// counts no hit or miss, refreshes no recency and never reads the
    /// disk. The reactor asks this before running a request inline,
    /// so a cold model is loaded on a worker, never on a reactor.
    pub(crate) fn cached(&self, id: u64) -> bool {
        let cache = self.cache.lock().expect("store lock");
        cache.iter().any(|(k, _)| *k == id)
    }

    /// Verify, persist and cache a `.qnm` file; returns its id.
    /// Idempotent: re-inserting an existing model only refreshes the
    /// cache.
    ///
    /// # Errors
    /// Model parse errors ([`ServeError::Codec`]) and IO failures
    /// writing the zoo file.
    pub fn insert_bytes(&self, bytes: &[u8]) -> Result<u64> {
        let codec = Codec::new(model::decode_model(bytes)?);
        let id = codec.model_id();
        if let Some(path) = self.model_path(id) {
            // Content-addressed: an existing file already holds these
            // exact bytes (same id ⇒ same body), so never rewrite.
            // Writes go through a uniquely-named temp file + rename so
            // a concurrent get() (or a crash mid-write) can never
            // observe a half-written zoo file, and two simultaneous
            // inserts of the same model never share a temp path (the
            // renames then both land the identical content).
            if !path.exists() {
                static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let tmp = path.with_extension(format!("qnm.tmp.{}.{seq}", std::process::id()));
                std::fs::write(&tmp, bytes)?;
                std::fs::rename(&tmp, &path)?;
            }
        }
        self.touch(id, Arc::new(codec));
        self.metrics.inserts.inc();
        Ok(id)
    }

    /// Look a model up by id: RAM cache first, then the zoo directory.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] when neither holds the id;
    /// [`ServeError::Codec`] when a zoo file is corrupt or its content
    /// hashes to a different id (store corruption).
    pub fn get(&self, id: u64) -> Result<Arc<Codec>> {
        {
            let mut cache = self.cache.lock().expect("store lock");
            if let Some(at) = cache.iter().position(|(k, _)| *k == id) {
                let entry = cache.remove(at);
                let codec = Arc::clone(&entry.1);
                cache.push(entry);
                self.metrics.hits.inc();
                return Ok(codec);
            }
        }
        // A miss is counted here, whatever the disk outcome: the metric
        // tracks RAM-cache effectiveness, not zoo completeness.
        self.metrics.misses.inc();
        let path = self.model_path(id).ok_or(ServeError::UnknownModel(id))?;
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ServeError::UnknownModel(id))
            }
            Err(e) => return Err(ServeError::Io(e)),
        };
        let codec = Codec::new(model::decode_model(&bytes)?);
        if codec.model_id() != id {
            return Err(ServeError::Codec(qn_codec::CodecError::Invalid(format!(
                "zoo file {} holds model {:#018x}, not {id:#018x}",
                path.display(),
                codec.model_id()
            ))));
        }
        let codec = Arc::new(codec);
        self.touch(id, Arc::clone(&codec));
        Ok(codec)
    }

    /// Enumerate the zoo, sorted by id: every `.qnm` in the zoo
    /// directory (file size from disk) plus any cached models a
    /// directory-less store retains (size of the re-serialized body).
    /// The `cached` flag reports RAM-cache residency either way.
    ///
    /// # Errors
    /// Directory read failures; unreadable or foreign files in the zoo
    /// directory are skipped rather than failing the listing (the
    /// store only ever writes `<16 hex digits>.qnm` names).
    pub fn list(&self) -> Result<Vec<ModelEntry>> {
        let cached_ids: Vec<u64> = {
            let cache = self.cache.lock().expect("store lock");
            cache.iter().map(|(id, _)| *id).collect()
        };
        let mut entries: Vec<ModelEntry> = Vec::new();
        if let Some(dir) = &self.dir {
            for entry in std::fs::read_dir(dir).map_err(ServeError::Io)? {
                let Ok(entry) = entry else { continue };
                let path = entry.path();
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                if path.extension().is_none_or(|e| e != "qnm") || stem.len() != 16 {
                    continue;
                }
                let Ok(id) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                // A directory (or other non-file) wearing a model name
                // is foreign too — listing it would promise a model
                // `get` can never load.
                if !meta.is_file() {
                    continue;
                }
                entries.push(ModelEntry {
                    id,
                    size_bytes: meta.len(),
                    cached: cached_ids.contains(&id),
                });
            }
        } else {
            let cache = self.cache.lock().expect("store lock");
            for (id, codec) in cache.iter() {
                entries.push(ModelEntry {
                    id: *id,
                    size_bytes: model::encode_model(codec.model()).len() as u64,
                    cached: true,
                });
            }
        }
        entries.sort_by_key(|e| e.id);
        Ok(entries)
    }

    /// Insert or refresh a cache entry, evicting the least recently
    /// used beyond capacity.
    fn touch(&self, id: u64, codec: Arc<Codec>) {
        let mut cache = self.cache.lock().expect("store lock");
        if let Some(at) = cache.iter().position(|(k, _)| *k == id) {
            cache.remove(at);
        }
        cache.push((id, codec));
        while cache.len() > self.capacity {
            cache.remove(0);
        }
        self.metrics.cached_models.set(cache.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_codec::model::encode_model;
    use qn_image::datasets;

    fn metrics() -> StoreMetrics {
        StoreMetrics::new(&Registry::new())
    }

    fn model_bytes(seed: u64) -> (u64, Vec<u8>) {
        let img = datasets::grayscale_blobs(1, 16, 16, seed).remove(0);
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        (codec.model_id(), encode_model(codec.model()))
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("qn_store_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_then_get_roundtrips_and_persists() {
        let dir = temp_dir("roundtrip");
        let store = ModelStore::new(Some(dir.clone()), 4, metrics()).unwrap();
        let (id, bytes) = model_bytes(1);
        assert_eq!(store.insert_bytes(&bytes).unwrap(), id);
        assert!(store.model_path(id).unwrap().exists());
        assert_eq!(store.get(id).unwrap().model_id(), id);

        // A fresh store over the same directory finds it on disk.
        let cold = ModelStore::new(Some(dir), 4, metrics()).unwrap();
        assert_eq!(cold.cached_len(), 0);
        assert_eq!(cold.get(id).unwrap().model_id(), id);
        assert_eq!(cold.cached_len(), 1);
    }

    #[test]
    fn lru_evicts_in_use_order_but_disk_retains() {
        let dir = temp_dir("lru");
        let store = ModelStore::new(Some(dir), 2, metrics()).unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|s| {
                let (id, bytes) = model_bytes(s + 10);
                store.insert_bytes(&bytes).unwrap();
                id
            })
            .collect();
        assert_eq!(store.cached_len(), 2, "capacity bound");
        // The first model fell out of RAM (a peek does not reload it)
        // but `get` reloads it from the zoo.
        assert!(!store.cached(ids[0]));
        assert_eq!(store.get(ids[0]).unwrap().model_id(), ids[0]);
        assert!(store.cached(ids[0]));
        assert_eq!(store.cached_len(), 2);
    }

    #[test]
    fn unknown_and_corrupt_models_fail_typed() {
        let dir = temp_dir("corrupt");
        let store = ModelStore::new(Some(dir), 2, metrics()).unwrap();
        assert!(matches!(
            store.get(0xDEAD),
            Err(ServeError::UnknownModel(0xDEAD))
        ));
        assert!(matches!(
            store.insert_bytes(b"not a model"),
            Err(ServeError::Codec(_))
        ));
        // A zoo file whose content hashes to a different id is store
        // corruption, not a silent wrong-model decode.
        let (id, bytes) = model_bytes(77);
        let (other_id, other_bytes) = model_bytes(78);
        assert_ne!(id, other_id);
        std::fs::write(store.model_path(id).unwrap(), &other_bytes).unwrap();
        assert!(matches!(store.get(id), Err(ServeError::Codec(_))));
        drop(bytes);
    }

    #[test]
    fn list_enumerates_disk_and_cache_with_residency_flags() {
        let dir = temp_dir("list");
        let store = ModelStore::new(Some(dir.clone()), 2, metrics()).unwrap();
        assert_eq!(store.list().unwrap(), vec![], "fresh zoo is empty");
        let mut ids: Vec<u64> = (0..3)
            .map(|s| {
                let (id, bytes) = model_bytes(s + 40);
                store.insert_bytes(&bytes).unwrap();
                id
            })
            .collect();
        ids.sort_unstable();
        // Foreign files in the zoo directory are ignored.
        std::fs::write(dir.join("README.txt"), "not a model").unwrap();
        std::fs::write(dir.join("short.qnm"), "wrong name shape").unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
        for e in &listed {
            assert_eq!(
                e.size_bytes,
                std::fs::metadata(store.model_path(e.id).unwrap())
                    .unwrap()
                    .len()
            );
        }
        // Capacity 2: exactly one of the three fell out of RAM but
        // stays listed from disk.
        assert_eq!(listed.iter().filter(|e| e.cached).count(), 2);
        assert_eq!(listed.iter().filter(|e| !e.cached).count(), 1);

        // A directory-less store lists its cache (all resident by
        // definition).
        let mem = ModelStore::new(None, 4, metrics()).unwrap();
        let (id, bytes) = model_bytes(50);
        mem.insert_bytes(&bytes).unwrap();
        let listed = mem.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, id);
        assert_eq!(listed[0].size_bytes, bytes.len() as u64);
        assert!(listed[0].cached);
    }

    #[test]
    fn lru_eviction_order_tracks_interleaved_inserts_and_gets() {
        // Directory-less store: the cache IS the zoo, so eviction is
        // observable as UnknownModel. A get() must refresh recency —
        // inserting C after touching A evicts B, not A.
        let store = ModelStore::new(None, 2, metrics()).unwrap();
        let (id_a, bytes_a) = model_bytes(60);
        let (id_b, bytes_b) = model_bytes(61);
        let (id_c, bytes_c) = model_bytes(62);
        store.insert_bytes(&bytes_a).unwrap();
        store.insert_bytes(&bytes_b).unwrap();
        store.get(id_a).unwrap(); // A is now most recent
        store.insert_bytes(&bytes_c).unwrap(); // evicts B
        assert!(matches!(store.get(id_b), Err(ServeError::UnknownModel(b)) if b == id_b));
        assert_eq!(store.get(id_a).unwrap().model_id(), id_a);
        assert_eq!(store.get(id_c).unwrap().model_id(), id_c);
        // Re-inserting an already-cached model refreshes instead of
        // duplicating: capacity still holds exactly two entries.
        store.insert_bytes(&bytes_a).unwrap();
        assert_eq!(store.cached_len(), 2);
        // ... and counts as a touch: C is now the LRU entry.
        store.insert_bytes(&bytes_b).unwrap();
        assert!(matches!(store.get(id_c), Err(ServeError::UnknownModel(_))));
        assert_eq!(store.get(id_a).unwrap().model_id(), id_a);
    }

    #[test]
    fn garbage_in_the_zoo_dir_is_skipped_by_list_not_fatal() {
        let dir = temp_dir("garbage");
        let store = ModelStore::new(Some(dir.clone()), 4, metrics()).unwrap();
        let (id, bytes) = model_bytes(70);
        store.insert_bytes(&bytes).unwrap();
        // Foreign shapes a hostile or confused operator can drop in:
        // wrong extension, wrong stem length, non-hex stem of the right
        // length, and a *directory* wearing a legal model name.
        std::fs::write(dir.join("README.txt"), "hello").unwrap();
        std::fs::write(dir.join("cafe.qnm"), "short stem").unwrap();
        std::fs::write(dir.join("zzzzzzzzzzzzzzzz.qnm"), "sixteen non-hex").unwrap();
        std::fs::create_dir(dir.join("00000000deadbeef.qnm")).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(
            listed.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![id],
            "only the real model is listed"
        );
    }

    #[test]
    fn id_mismatch_corruption_is_not_cached_and_stays_typed() {
        let dir = temp_dir("mismatch");
        let store = ModelStore::new(Some(dir), 4, metrics()).unwrap();
        let (id_a, bytes_a) = model_bytes(80);
        let (_, bytes_b) = model_bytes(81);
        store.insert_bytes(&bytes_a).unwrap();
        // Overwrite A's zoo file with B's body: content no longer
        // hashes to the address.
        std::fs::write(store.model_path(id_a).unwrap(), &bytes_b).unwrap();
        // Force the parsed copy of A out of RAM so get() re-reads disk.
        for seed in 90..94 {
            let (_, bytes) = model_bytes(seed);
            store.insert_bytes(&bytes).unwrap();
        }
        // Every lookup reports corruption; the poisoned bytes never
        // enter the cache as model A.
        for _ in 0..2 {
            assert!(matches!(store.get(id_a), Err(ServeError::Codec(_))));
        }
        let cache_ids: Vec<u64> = store.list().unwrap().iter().map(|e| e.id).collect();
        assert!(
            cache_ids.contains(&id_a),
            "file still listed (list is metadata-only)"
        );
    }

    #[test]
    fn zoo_metrics_count_hits_misses_inserts_and_residency() {
        let registry = Registry::new();
        let metrics = StoreMetrics::new(&registry);
        let dir = temp_dir("metrics");
        let store = ModelStore::new(Some(dir), 2, metrics.clone()).unwrap();
        let (id_a, bytes_a) = model_bytes(100);
        let (id_b, bytes_b) = model_bytes(101);
        let (_, bytes_c) = model_bytes(102);
        store.insert_bytes(&bytes_a).unwrap();
        store.insert_bytes(&bytes_b).unwrap();
        assert_eq!(metrics.inserts().get(), 2);
        assert_eq!(metrics.cached_models().get(), 2);
        store.get(id_a).unwrap(); // RAM hit
        assert_eq!(metrics.hits().get(), 1);
        assert_eq!(metrics.misses().get(), 0);
        // A peek counts nothing, either way.
        assert!(store.cached(id_a));
        assert!(!store.cached(0xF00D));
        assert_eq!((metrics.hits().get(), metrics.misses().get()), (1, 0));
        store.insert_bytes(&bytes_c).unwrap(); // evicts B from RAM
        assert_eq!(metrics.cached_models().get(), 2, "capacity bound");
        store.get(id_b).unwrap(); // miss → disk reload
        assert_eq!(metrics.misses().get(), 1);
        // Unknown ids are misses too (cache effectiveness, not zoo
        // completeness).
        assert!(store.get(0xF00D).is_err());
        assert_eq!(metrics.misses().get(), 2);
        // A failed insert does not count.
        assert!(store.insert_bytes(b"junk").is_err());
        assert_eq!(metrics.inserts().get(), 3);
    }

    #[test]
    fn memory_only_store_serves_inserts_but_knows_nothing_else() {
        let store = ModelStore::new(None, 2, metrics()).unwrap();
        let (id, bytes) = model_bytes(5);
        assert_eq!(store.insert_bytes(&bytes).unwrap(), id);
        assert_eq!(store.get(id).unwrap().model_id(), id);
        assert!(matches!(
            store.get(id + 1),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(store.model_path(id).is_none());
    }
}
