//! Content-addressed two-tier stores: an in-memory LRU over an optional
//! read-through disk directory. [`ResultCache`] holds completed run
//! results keyed by the canonical hash of (machine config, workload,
//! scale, seed, model), so repeated sweep points return instantly and
//! results survive a service restart; [`CheckpointStore`] holds
//! warm-start machine snapshots.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A value a [`Store`] can hold: how much of the memory bound it takes
/// and how it is written to and read back from its `<key>.<EXT>` file.
pub trait Payload: Sized {
    /// Extension of the disk-tier files.
    const EXT: &'static str;
    /// What one entry counts against the memory bound.
    fn weight(&self) -> usize;
    /// The bytes written to disk.
    fn to_disk(&self) -> &[u8];
    /// Parses a disk file back; `None` treats the file as absent.
    fn from_disk(bytes: Vec<u8>) -> Option<Self>;
}

/// Result JSON, bounded by **bytes**: payloads range from a few hundred
/// bytes to the better part of a megabyte (interval metrics), so an
/// entry-count cap would bound nothing useful.
impl Payload for String {
    const EXT: &'static str = "json";
    fn weight(&self) -> usize {
        self.len()
    }
    fn to_disk(&self) -> &[u8] {
        self.as_bytes()
    }
    fn from_disk(bytes: Vec<u8>) -> Option<String> {
        String::from_utf8(bytes).ok()
    }
}

/// Binary checkpoints, bounded by entry count.
impl Payload for Vec<u8> {
    const EXT: &'static str = "ck";
    fn weight(&self) -> usize {
        1
    }
    fn to_disk(&self) -> &[u8] {
        self
    }
    fn from_disk(bytes: Vec<u8>) -> Option<Vec<u8>> {
        Some(bytes)
    }
}

struct Entry<P> {
    stamp: u64,
    value: Arc<P>,
}

/// The two-tier store. Not internally synchronised — the service wraps
/// it in a mutex. Past the memory bound, entries are evicted
/// least-recently-used first until the total fits again; evicted
/// entries stay reachable through the disk tier.
pub struct Store<P: Payload> {
    bound: usize,
    used: usize,
    stamp: u64,
    map: HashMap<u64, Entry<P>>,
    dir: Option<PathBuf>,
}

/// Completed run results (`<key>.json` files), bounded by bytes.
pub type ResultCache = Store<String>;

/// Warm-start checkpoint store: post-fast-forward machine snapshots
/// keyed by [`hidisc::MachineConfig::warm_hash`] extended with the
/// workload identity (`<key>.ck` files), bounded by entry count. A
/// restored entry skips the shared run prefix instead of the whole run.
pub type CheckpointStore = Store<Vec<u8>>;

impl ResultCache {
    /// A cache holding at most `budget` bytes of results in memory
    /// (at least 1), persisting to `dir` when given (created on first
    /// insert, read-through on miss).
    pub fn new(budget: usize, dir: Option<PathBuf>) -> ResultCache {
        Store::with_bound(budget, dir)
    }

    /// Bytes of result payload currently held in memory. Always at most
    /// the construction budget.
    pub fn bytes(&self) -> usize {
        self.used
    }
}

impl CheckpointStore {
    /// A store holding at most `cap` checkpoints in memory (at least 1),
    /// persisting to `dir` when given.
    pub fn new(cap: usize, dir: Option<PathBuf>) -> CheckpointStore {
        Store::with_bound(cap, dir)
    }
}

impl<P: Payload> Store<P> {
    fn with_bound(bound: usize, dir: Option<PathBuf>) -> Store<P> {
        Store {
            bound: bound.max(1),
            used: 0,
            stamp: 0,
            map: HashMap::new(),
            dir,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn path_of(&self, key: u64) -> Option<PathBuf> {
        let ext = P::EXT;
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.{ext}")))
    }

    /// Looks `key` up, consulting the disk tier on a memory miss.
    /// Refreshes recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<P>> {
        let stamp = self.touch();
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
            return Some(Arc::clone(&e.value));
        }
        let path = self.path_of(key)?;
        let value = Arc::new(P::from_disk(std::fs::read(path).ok()?)?);
        self.insert_memory(key, Arc::clone(&value), stamp);
        Some(value)
    }

    /// Inserts a value, persisting it to the disk tier (best-effort — a
    /// read-only directory degrades to memory-only).
    pub fn insert(&mut self, key: u64, value: Arc<P>) {
        if let Some(path) = self.path_of(key) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let tmp = path.with_extension("tmp");
            if std::fs::write(&tmp, value.to_disk()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        let stamp = self.touch();
        self.insert_memory(key, value, stamp);
    }

    fn insert_memory(&mut self, key: u64, value: Arc<P>, stamp: u64) {
        self.remove(key);
        // A payload bigger than the whole bound never enters the memory
        // tier (it would immediately evict everything *and* still bust
        // the bound); it stays reachable through the disk tier.
        if value.weight() > self.bound {
            return;
        }
        self.used += value.weight();
        self.map.insert(key, Entry { stamp, value });
        // Evict oldest-first until the total fits the bound again.
        while self.used > self.bound {
            let Some((&lru, _)) = self.map.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            self.remove(lru);
        }
    }

    fn remove(&mut self, key: u64) {
        if let Some(e) = self.map.remove(&key) {
            self.used -= e.value.weight();
        }
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn checkpoint_store_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("hidisc-ck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = CheckpointStore::new(1, Some(dir.clone()));
            s.insert(3, Arc::new(vec![1, 2, 3]));
            s.insert(4, Arc::new(vec![4])); // 3 leaves memory, stays on disk
            assert_eq!(s.get(3).as_deref(), Some(&vec![1, 2, 3]));
        }
        let mut s2 = CheckpointStore::new(4, Some(dir.clone()));
        assert!(s2.is_empty());
        assert_eq!(s2.get(4).as_deref(), Some(&vec![4]));
        assert_eq!(s2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_lru_evicts_least_recently_used() {
        // Budget fits two 3-byte entries but not three.
        let mut c = ResultCache::new(6, None);
        c.insert(1, val("one")); // 3 bytes
        c.insert(2, val("two")); // 3 bytes
        assert_eq!(c.bytes(), 6);
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("one"));
        c.insert(3, val("3b!")); // evicts 2 (1 was just touched)
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 6);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn oversized_entries_skip_the_memory_tier() {
        let dir = std::env::temp_dir().join(format!("hidisc-cache-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ResultCache::new(4, Some(dir.clone()));
        c.insert(1, val("tiny"));
        assert_eq!(c.bytes(), 4);
        c.insert(2, val("way too large for the budget"));
        // The giant entry displaced nothing and used no memory...
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 4);
        // ...but still resolves, read through the disk tier every time.
        assert!(c.get(2).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = ResultCache::new(100, None);
        c.insert(1, val("aaaa"));
        c.insert(1, val("bb"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("bb"));
    }

    #[test]
    fn disk_tier_round_trips_and_survives_memory_eviction() {
        let dir = std::env::temp_dir().join(format!("hidisc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = ResultCache::new(5, Some(dir.clone()));
            c.insert(7, val("seven"));
            c.insert(8, val("eight")); // 7 leaves memory, stays on disk
            assert_eq!(c.get(7).as_deref().map(String::as_str), Some("seven"));
        }
        // A fresh instance (fresh process in real life) reads through.
        let mut c2 = ResultCache::new(64, Some(dir.clone()));
        assert!(c2.is_empty());
        assert_eq!(c2.get(8).as_deref().map(String::as_str), Some("eight"));
        assert_eq!(c2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
