//! Content-addressed on-disk cache for generated graphs and completed
//! cell results.
//!
//! Entries are addressed by an FNV-1a 128 digest
//! ([`arbmis_graph::digest`] — frozen arithmetic, not `std::hash`) of
//! `(CODE_SALT, namespace, key)`. The salt names the cell/cache code
//! generation: bumping it on any change that could alter cell outputs
//! orphans every stale entry at once, with no manual eviction protocol.
//! Within one salt generation a key is immutable — the same digest
//! always stores the same bytes — which is what makes a warm-cache run
//! byte-identical to a cold one (DESIGN.md §9).
//!
//! Each entry is one file `<dir>/<salt>/<namespace>/<digest>.entry`
//! holding a header line (`arbmis-cache v1 <checksum> <len>`) followed
//! by the payload; the checksum is verified on every read, so a
//! truncated or corrupted entry is *rejected and deleted*, and the
//! caller recomputes — poisoning degrades to a cache miss, never to
//! wrong results. Writes go to a temp file first and are published by
//! `rename`, so concurrent writers and readers only ever see complete
//! entries.
//!
//! **Bounded growth.** Salting alone would leak: every [`CODE_SALT`]
//! bump orphans a whole generation of entries that nothing would ever
//! read *or delete* again. Two mechanisms keep the directory bounded:
//!
//! * the salt is the first path component, so [`Cache::open`] prunes
//!   every sibling salt directory that is not the current generation;
//! * the cache carries a byte capacity ([`Cache::open_with_capacity`];
//!   default [`DEFAULT_CAPACITY`]). Each publish that pushes the current
//!   generation over capacity evicts entries oldest-mtime-first
//!   (ties broken by path) until it fits, never evicting the entry just
//!   published. A single entry larger than the capacity is stored alone.

use arbmis_graph::digest::{checksum64, Fnv128};
use arbmis_graph::gen::GraphSpec;
use arbmis_graph::{io as graph_io, Graph};
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The code-version salt mixed into every cache digest. Bump whenever a
/// generator, experiment cell, or the cache payload encoding changes in
/// a way that could alter stored bytes.
pub const CODE_SALT: &str = "arbmis-cells-v2";

/// Entry-file magic + format version.
const MAGIC: &str = "arbmis-cache v1";

/// Default byte capacity of the current salt generation (256 MiB —
/// generous for edge lists and cell JSON, small next to a target dir).
pub const DEFAULT_CAPACITY: u64 = 256 * 1024 * 1024;

/// Cache hit/miss tallies. These depend on prior process runs (disk
/// state), so they are *timing-class* data under the DESIGN.md §8
/// quarantine — never put them in deterministic output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries found but rejected (checksum/format mismatch) — counted
    /// in addition to the miss they become.
    pub rejected: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evicted: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A content-addressed cache rooted at one directory.
pub struct Cache {
    dir: PathBuf,
    capacity: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    /// Serializes capacity sweeps so concurrent publishers do not race
    /// each other deleting files.
    sweep: Mutex<()>,
    /// In-memory graph memo so one process never loads or generates the
    /// same `(spec, seed)` twice, keyed by entry digest.
    graph_memo: Mutex<HashMap<String, Arc<Graph>>>,
}

impl Cache {
    /// Opens (creating if needed) a cache rooted at `dir` with the
    /// [`DEFAULT_CAPACITY`] byte cap.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Cache> {
        Self::open_with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// Opens (creating if needed) a cache rooted at `dir`, capping the
    /// current salt generation at `capacity` bytes. Opening also prunes
    /// every foreign-salt sibling directory — entries a [`CODE_SALT`]
    /// bump orphaned — so stale generations cannot accumulate.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures (pruning is best-effort).
    pub fn open_with_capacity(dir: impl Into<PathBuf>, capacity: u64) -> io::Result<Cache> {
        let dir = dir.into();
        fs::create_dir_all(dir.join(CODE_SALT))?;
        if let Ok(siblings) = fs::read_dir(&dir) {
            for entry in siblings.flatten() {
                let is_foreign_dir = entry.file_type().is_ok_and(|t| t.is_dir())
                    && entry.file_name() != std::ffi::OsStr::new(CODE_SALT);
                if is_foreign_dir {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        Ok(Cache {
            dir,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            sweep: Mutex::new(()),
            graph_memo: Mutex::new(HashMap::new()),
        })
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current salt generation's directory (everything the byte cap
    /// governs lives under here).
    pub fn salt_dir(&self) -> PathBuf {
        self.dir.join(CODE_SALT)
    }

    /// The byte capacity of the current salt generation.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current hit/miss tallies.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// The digest addressing `(CODE_SALT, namespace, key)`.
    fn digest(namespace: &str, key: &str) -> String {
        let mut h = Fnv128::new();
        h.write_str(CODE_SALT).write_str(namespace).write_str(key);
        h.hex()
    }

    /// The on-disk path an entry would live at (exposed so tests and CI
    /// can corrupt or inspect specific entries).
    pub fn entry_path(&self, namespace: &str, key: &str) -> PathBuf {
        self.salt_dir()
            .join(namespace)
            .join(format!("{}.entry", Self::digest(namespace, key)))
    }

    /// Looks up an entry, verifying its checksum. Rejected (corrupt)
    /// entries are deleted and reported as misses.
    pub fn get(&self, namespace: &str, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(namespace, key);
        let Ok(bytes) = fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match Self::decode(&bytes) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores an entry (atomic publish via temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers typically treat a failed store
    /// as best-effort and continue.
    pub fn put(&self, namespace: &str, key: &str, payload: &[u8]) -> io::Result<()> {
        let path = self.entry_path(namespace, key);
        let parent = path.parent().expect("entry path always has a parent");
        fs::create_dir_all(parent)?;
        let mut framed =
            format!("{MAGIC} {:016x} {}\n", checksum64(payload), payload.len()).into_bytes();
        framed.extend_from_slice(payload);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, &framed)?;
        fs::rename(&tmp, &path)?;
        self.enforce_capacity(&path);
        Ok(())
    }

    /// Brings the current salt generation back under [`Self::capacity`]
    /// by deleting entries oldest-mtime-first (ties broken by path),
    /// sparing `just_published`. Best-effort: I/O hiccups skip a file
    /// rather than failing the publish that triggered the sweep.
    fn enforce_capacity(&self, just_published: &Path) {
        let _guard = self.sweep.lock().unwrap();
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut used = 0u64;
        collect_entries(&self.salt_dir(), &mut entries, &mut used);
        if used <= self.capacity {
            return;
        }
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, path, len) in entries {
            if used <= self.capacity {
                break;
            }
            if path == just_published {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                used = used.saturating_sub(len);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Splits a raw entry file into its verified payload.
    fn decode(bytes: &[u8]) -> Option<Vec<u8>> {
        let newline = bytes.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&bytes[..newline]).ok()?;
        let rest = &bytes[newline + 1..];
        let fields = header.strip_prefix(MAGIC)?;
        let mut it = fields.split_whitespace();
        let sum = u64::from_str_radix(it.next()?, 16).ok()?;
        let len: usize = it.next()?.parse().ok()?;
        if it.next().is_some() || rest.len() != len || checksum64(rest) != sum {
            return None;
        }
        Some(rest.to_vec())
    }

    /// The generated graph for `(spec, seed)`: from the in-process memo,
    /// else from disk (edge-list payload), else generated and stored.
    /// The returned graph is structurally identical on every path — the
    /// edge-list round trip is lossless — so results never depend on
    /// cache temperature.
    pub fn graph(&self, spec: &GraphSpec, seed: u64) -> Arc<Graph> {
        let key = graph_key(spec, seed);
        let digest = Self::digest(NS_GRAPH, &key);
        if let Some(g) = self.graph_memo.lock().unwrap().get(&digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(g);
        }
        let g = match self.get(NS_GRAPH, &key).and_then(|payload| {
            let g = graph_io::parse_edge_list(std::str::from_utf8(&payload).ok()?).ok()?;
            Some(g)
        }) {
            Some(g) => Arc::new(g),
            None => {
                let g = Arc::new(generate(spec, seed));
                let mut payload = Vec::new();
                graph_io::write_edge_list(&g, &mut payload).expect("writing to a Vec cannot fail");
                let _ = self.put(NS_GRAPH, &key, &payload);
                g
            }
        };
        self.graph_memo
            .lock()
            .unwrap()
            .entry(digest)
            .or_insert_with(|| Arc::clone(&g));
        g
    }
}

/// Recursively lists `*.entry` files under `root`, accumulating
/// `(mtime, path, len)` rows and the total byte count (leftover temp
/// files count toward usage but are never eviction candidates — they
/// are transient by construction).
fn collect_entries(
    root: &Path,
    entries: &mut Vec<(std::time::SystemTime, PathBuf, u64)>,
    used: &mut u64,
) {
    let Ok(dir) = fs::read_dir(root) else {
        return;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        if meta.is_dir() {
            collect_entries(&path, entries, used);
        } else {
            *used += meta.len();
            if path.extension().is_some_and(|e| e == "entry") {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((mtime, path, meta.len()));
            }
        }
    }
}

/// Namespace for generated-graph entries.
pub const NS_GRAPH: &str = "graph";
/// Namespace for completed cell results.
pub const NS_CELL: &str = "cell";

/// The canonical cache key for a generated graph.
fn graph_key(spec: &GraphSpec, seed: u64) -> String {
    format!("{};seed={seed}", spec.stable_key())
}

/// Generates `(spec, seed)` from scratch — the cache's ground truth.
fn generate(spec: &GraphSpec, seed: u64) -> Graph {
    spec.generate(&mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Process-wide cache handle, set once by the CLI (`--cache-dir` /
/// `--no-cache`). `None` means caching is off and every lookup
/// recomputes.
static GLOBAL: Mutex<Option<Arc<Cache>>> = Mutex::new(None);

/// Installs (or clears) the process-wide cache.
pub fn set_global_cache(cache: Option<Arc<Cache>>) {
    *GLOBAL.lock().unwrap() = cache;
}

/// The process-wide cache, if one is installed.
pub fn global_cache() -> Option<Arc<Cache>> {
    GLOBAL.lock().unwrap().clone()
}

/// Generates `(spec, seed)` through the process-wide cache when one is
/// installed, from scratch otherwise. Experiment cells route all graph
/// construction through this so warm reruns skip generation entirely.
pub fn cached_graph(spec: &GraphSpec, seed: u64) -> Arc<Graph> {
    match global_cache() {
        Some(cache) => cache.graph(spec, seed),
        None => Arc::new(generate(spec, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen::GraphFamily;

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("arbmis-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    #[test]
    fn roundtrip_and_stats() {
        let c = tmp_cache("roundtrip");
        assert_eq!(c.get(NS_CELL, "k"), None);
        c.put(NS_CELL, "k", b"payload").unwrap();
        assert_eq!(c.get(NS_CELL, "k").as_deref(), Some(&b"payload"[..]));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                rejected: 0,
                evicted: 0
            }
        );
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn distinct_keys_and_namespaces_do_not_collide() {
        let c = tmp_cache("collide");
        c.put(NS_CELL, "a", b"1").unwrap();
        c.put(NS_CELL, "b", b"2").unwrap();
        c.put(NS_GRAPH, "a", b"3").unwrap();
        assert_eq!(c.get(NS_CELL, "a").as_deref(), Some(&b"1"[..]));
        assert_eq!(c.get(NS_CELL, "b").as_deref(), Some(&b"2"[..]));
        assert_eq!(c.get(NS_GRAPH, "a").as_deref(), Some(&b"3"[..]));
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn corrupted_entry_is_rejected_and_deleted() {
        let c = tmp_cache("poison");
        c.put(NS_CELL, "k", b"good payload").unwrap();
        let path = c.entry_path(NS_CELL, "k");
        // Flip payload bytes without fixing the checksum.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(c.get(NS_CELL, "k"), None, "corrupt entry must not serve");
        assert!(!path.exists(), "corrupt entry must be evicted");
        assert_eq!(c.stats().rejected, 1);
        // Truncation is also caught.
        c.put(NS_CELL, "k", b"good payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(c.get(NS_CELL, "k"), None);
        assert_eq!(c.stats().rejected, 2);
        let _ = fs::remove_dir_all(c.dir());
    }

    #[test]
    fn graph_identical_across_memo_disk_and_generation() {
        let spec = GraphSpec::new(GraphFamily::ForestUnion { alpha: 2 }, 200);
        let fresh = generate(&spec, 7);
        let c = tmp_cache("graph");
        let g1 = c.graph(&spec, 7); // generated + stored
        let g2 = c.graph(&spec, 7); // memo
        assert_eq!(*g1, fresh);
        assert!(Arc::ptr_eq(&g1, &g2));
        drop(c);
        // A fresh handle on the same dir reads the disk entry.
        let c2 = Cache::open(
            std::env::temp_dir().join(format!("arbmis-cache-test-graph-{}", std::process::id())),
        )
        .unwrap();
        let g3 = c2.graph(&spec, 7);
        assert_eq!(*g3, fresh);
        assert_eq!(c2.stats().hits, 1);
        // Different seed is a different graph and a different entry.
        let g4 = c2.graph(&spec, 8);
        assert_ne!(*g4, fresh);
        let _ = fs::remove_dir_all(c2.dir());
    }

    #[test]
    fn salt_is_part_of_the_address() {
        // The digest must move if the salt does; pin the current mapping
        // so accidental digest-scheme changes are caught.
        let d = Cache::digest(NS_CELL, "key");
        let mut h = Fnv128::new();
        h.write_str(CODE_SALT).write_str(NS_CELL).write_str("key");
        assert_eq!(d, h.hex());
    }

    /// Total bytes currently under `root`, recursively.
    fn dir_size(root: &Path) -> u64 {
        let mut entries = Vec::new();
        let mut used = 0;
        collect_entries(root, &mut entries, &mut used);
        used
    }

    #[test]
    fn capacity_evicts_oldest_entries_first() {
        let dir =
            std::env::temp_dir().join(format!("arbmis-cache-test-cap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Each ~100-byte payload frames to ~140 bytes; capacity fits
        // roughly two entries.
        let c = Cache::open_with_capacity(&dir, 300).unwrap();
        let payload = [7u8; 100];
        c.put(NS_CELL, "a", &payload).unwrap();
        // mtime has coarse granularity on some filesystems; space the
        // writes out so "oldest" is unambiguous.
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.put(NS_CELL, "b", &payload).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.put(NS_CELL, "c", &payload).unwrap();
        assert!(dir_size(&c.salt_dir()) <= c.capacity(), "cap enforced");
        assert_eq!(c.get(NS_CELL, "a"), None, "oldest entry evicted");
        assert!(c.get(NS_CELL, "c").is_some(), "just-published entry kept");
        assert!(c.stats().evicted >= 1);
        // An entry larger than the whole capacity is stored alone.
        c.put(NS_CELL, "big", &[1u8; 400]).unwrap();
        assert!(c.get(NS_CELL, "big").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_salt_generations_are_pruned_on_open() {
        let dir =
            std::env::temp_dir().join(format!("arbmis-cache-test-salt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Simulate entries orphaned by an earlier CODE_SALT generation.
        let stale = dir.join("arbmis-cells-v0").join(NS_CELL);
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("dead.entry"), vec![0u8; 4096]).unwrap();
        let c = Cache::open(&dir).unwrap();
        assert!(!dir.join("arbmis-cells-v0").exists(), "stale salt pruned");
        assert!(c.salt_dir().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_reheal_and_salt_bump_stay_under_cap() {
        // The unbounded-growth regression: repeated poison/reheal cycles
        // plus an abandoned salt generation must leave the directory
        // bounded by the capacity, not growing with history.
        let dir =
            std::env::temp_dir().join(format!("arbmis-cache-test-bound-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let stale = dir.join("some-older-salt").join(NS_GRAPH);
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("orphan.entry"), vec![0u8; 1 << 16]).unwrap();
        let cap = 2_000;
        let c = Cache::open_with_capacity(&dir, cap).unwrap();
        for round in 0..20 {
            let key = format!("cell-{round}");
            c.put(NS_CELL, &key, &[round as u8; 512]).unwrap();
            // Poison it, observe the rejection, then reheal.
            let path = c.entry_path(NS_CELL, &key);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(c.get(NS_CELL, &key), None);
            c.put(NS_CELL, &key, &[round as u8; 512]).unwrap();
        }
        assert!(
            dir_size(&dir) <= cap,
            "directory must stay bounded: {} > {cap}",
            dir_size(&dir)
        );
        assert!(c.stats().evicted > 0, "history this long must evict");
        // The newest generation of entries still serves.
        assert!(c.get(NS_CELL, "cell-19").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_graph_without_global_cache_generates() {
        let spec = GraphSpec::new(GraphFamily::KTree { k: 2 }, 64);
        // Not installing a global cache here: global state is exercised
        // by the integration suite to avoid cross-test interference.
        let g = cached_graph(&spec, 3);
        assert_eq!(*g, generate(&spec, 3));
    }
}
