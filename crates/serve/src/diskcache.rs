//! Persistent on-disk content-addressed result cache.
//!
//! Layered *under* the in-memory [`crate::ResultCache`]: a daemon restart
//! loses the process, not the corpus of compiled responses. The layout is
//! append-friendly — one file per entry, named by the 64-bit FNV content
//! key — so inserts never rewrite existing entries and a crash can at
//! worst leave one partial temp file behind (writes go to a `.tmp` and
//! are renamed into place).
//!
//! Every entry is integrity-checked: a header line carries the key, the
//! body length and an FNV-1a checksum of the body, and both load-time
//! scans and per-request reads re-verify all three. A corrupt or
//! truncated entry is *dropped* (deleted and recompiled), never served —
//! the daemon's byte-stable-response guarantee extends across restarts.
//!
//! Eviction is LRU under a byte-size budget: the index is an [`Lru`]
//! weighted by body bytes, so the sum of resident body bytes never exceeds
//! the budget (`0` = unbounded) and a response larger than the whole
//! budget is not stored at all. On open, entries are seeded oldest-first
//! by file modification time so a restarted daemon keeps the same
//! eviction order it would have had.

use crate::cache::ContentHash;
use panorama_arch::Lru;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Magic/version tag opening every entry file's header line.
const MAGIC: &str = "panorama-disk-cache-v1";

/// Extension of committed entry files (temp files use `.tmp`).
const ENTRY_EXT: &str = "entry";

/// Counters and occupancy of a [`DiskCache`], snapshotted for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Lookups answered from disk (integrity check passed).
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Byte budget (`0` = unbounded).
    pub capacity: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Body bytes currently resident.
    pub bytes: u64,
    /// Corrupt or truncated entries dropped (at open or on read).
    pub corrupt: u64,
}

struct Inner {
    /// Resident keys, each weighted by its body length; the files are the
    /// values.
    index: Lru<u64, ()>,
    hits: u64,
    misses: u64,
    corrupt: u64,
}

/// A restart-surviving result cache: one integrity-checked file per
/// content key, LRU-evicted under a byte budget.
pub struct DiskCache {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory and indexes every
    /// valid entry, dropping corrupt or truncated ones. `budget` bounds
    /// the resident body bytes (`0` = unbounded); existing entries beyond
    /// the budget are evicted oldest-modification-first.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures. Individual unreadable
    /// entries are dropped, not fatal.
    pub fn open(dir: impl Into<PathBuf>, budget: u64) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            index: Lru::new(budget),
            hits: 0,
            misses: 0,
            corrupt: 0,
        };
        // Seed LRU order deterministically: oldest mtime first, key as
        // the tie-break. Leftover temp files from a crashed writer are
        // removed on sight.
        let mut found: Vec<(u128, u64, u64)> = Vec::new(); // (mtime_ns, key, len)
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Some(key) = key_of(&path) else {
                inner.corrupt += 1;
                let _ = fs::remove_file(&path);
                continue;
            };
            match read_entry(&path, key) {
                Some(body) => {
                    let mtime = dirent
                        .metadata()
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                        .map_or(0, |d| d.as_nanos());
                    found.push((mtime, key, body.len() as u64));
                }
                None => {
                    inner.corrupt += 1;
                    let _ = fs::remove_file(&path);
                }
            }
        }
        found.sort_unstable();
        let cache = DiskCache {
            dir,
            inner: Mutex::new(inner),
        };
        for (_, key, len) in found {
            let evicted = cache.lock().index.insert(key, (), len);
            cache.delete(evicted);
        }
        Ok(cache)
    }

    /// Poison recovery: index mutations are completed whole under the
    /// lock; a panicking reader leaves valid state.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{ENTRY_EXT}"))
    }

    /// Deletes the files of keys the index no longer holds.
    fn delete(&self, evicted: Vec<(u64, ())>) {
        for (key, ()) in evicted {
            let _ = fs::remove_file(self.path_of(key));
        }
    }

    /// The cached response for `key`, re-verified against its checksum.
    /// A corrupt entry is deleted and reported as a miss — the caller
    /// recompiles and re-inserts.
    pub fn get(&self, key: u64) -> Option<String> {
        let mut inner = self.lock();
        if !inner.index.touch(&key) {
            inner.misses += 1;
            return None;
        }
        match read_entry(&self.path_of(key), key) {
            Some(body) => {
                inner.hits += 1;
                Some(body)
            }
            None => {
                // Truncated or bit-flipped on disk: drop, never serve.
                inner.index.remove(&key);
                inner.corrupt += 1;
                inner.misses += 1;
                let _ = fs::remove_file(self.path_of(key));
                None
            }
        }
    }

    /// Persists a response under `key` (write-to-temp + rename, so a
    /// concurrent crash never leaves a half-written committed entry),
    /// evicting least-recently-used entries past the byte budget. A body
    /// larger than the whole budget is not written and evicts nothing
    /// (it still counts as an eviction, so the pressure shows). An I/O
    /// failure skips the insert silently — the disk tier is an
    /// optimization, not a correctness dependency.
    pub fn insert(&self, key: u64, body: &str) {
        let mut inner = self.lock();
        let evicted = inner.index.insert(key, (), body.len() as u64);
        if evicted.iter().any(|&(refused, ())| refused == key) {
            return;
        }
        self.delete(evicted);
        let header = format!(
            "{MAGIC} {key:016x} {} {:016x}\n",
            body.len(),
            checksum(body)
        );
        let tmp = self.dir.join(format!("{key:016x}.tmp"));
        let write = fs::write(&tmp, format!("{header}{body}"))
            .and_then(|()| fs::rename(&tmp, self.path_of(key)));
        if write.is_err() {
            // Unindexed means no file: drop a previous copy along with
            // the temp file.
            let _ = fs::remove_file(&tmp);
            let _ = fs::remove_file(self.path_of(key));
            inner.index.remove(&key);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte budget (`0` = unbounded).
    pub fn budget(&self) -> u64 {
        self.lock().index.budget()
    }

    /// Counter and occupancy snapshot for `/metrics`.
    pub fn stats(&self) -> DiskCacheStats {
        let inner = self.lock();
        DiskCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.index.len() as u64,
            capacity: inner.index.budget(),
            evictions: inner.index.evictions(),
            bytes: inner.index.weight(),
            corrupt: inner.corrupt,
        }
    }
}

/// FNV-1a over the body, framed exactly like the request key hash.
fn checksum(body: &str) -> u64 {
    ContentHash::new().chunk(body).finish()
}

/// The key a committed entry file claims via its name, or `None` for a
/// name this cache never wrote.
fn key_of(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// Reads and fully validates one entry file: magic, in-header key matching
/// the filename, exact body length, and checksum. `None` on any mismatch.
fn read_entry(path: &Path, key: u64) -> Option<String> {
    let raw = fs::read_to_string(path).ok()?;
    let (header, body) = raw.split_once('\n')?;
    let mut fields = header.split(' ');
    if fields.next() != Some(MAGIC) {
        return None;
    }
    let header_key = u64::from_str_radix(fields.next()?, 16).ok()?;
    let len: usize = fields.next()?.parse().ok()?;
    let sum = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() || header_key != key || body.len() != len || checksum(body) != sum {
        return None;
    }
    Some(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("panorama-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let cache = DiskCache::open(&dir, 0).unwrap();
            cache.insert(42, "{\"ii\":3}\n");
            assert_eq!(cache.get(42).as_deref(), Some("{\"ii\":3}\n"));
        }
        // A fresh process sees the same bytes.
        let cache = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(42).as_deref(), Some("{\"ii\":3}\n"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_dropped_not_served() {
        let dir = temp_dir("truncate");
        let cache = DiskCache::open(&dir, 0).unwrap();
        cache.insert(7, "a perfectly valid response body\n");
        drop(cache);
        // Truncate the committed file mid-body.
        let path = dir.join(format!("{:016x}.{ENTRY_EXT}", 7u64));
        let raw = fs::read_to_string(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let cache = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(cache.len(), 0, "truncated entry must not be indexed");
        assert_eq!(cache.stats().corrupt, 1);
        assert!(!path.exists(), "corrupt file is deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_detected_on_read() {
        let dir = temp_dir("bitflip");
        let cache = DiskCache::open(&dir, 0).unwrap();
        cache.insert(9, "response-body-here\n");
        let path = dir.join(format!("{:016x}.{ENTRY_EXT}", 9u64));
        let raw = fs::read_to_string(&path).unwrap();
        fs::write(&path, raw.replace("body", "BODY")).unwrap();
        assert_eq!(cache.get(9), None, "checksum mismatch must not serve");
        assert_eq!(cache.stats().corrupt, 1);
        assert_eq!(cache.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let dir = temp_dir("budget");
        let cache = DiskCache::open(&dir, 30).unwrap();
        cache.insert(1, "aaaaaaaaaa"); // 10 bytes
        cache.insert(2, "bbbbbbbbbb");
        cache.insert(3, "cccccccccc");
        assert_eq!(cache.len(), 3);
        // Refresh 1, insert 4: 2 is now LRU and must go.
        assert!(cache.get(1).is_some());
        cache.insert(4, "dddddddddd");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(2), None);
        assert!(cache.get(1).is_some());
        assert!(cache.get(4).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_entry_is_refused_without_evicting_residents() {
        let dir = temp_dir("oversized");
        let cache = DiskCache::open(&dir, 30).unwrap();
        cache.insert(1, "aaaaaaaaaa"); // 10 bytes
        cache.insert(2, "bbbbbbbbbb");
        cache.insert(3, &"c".repeat(40));
        assert_eq!(cache.get(1).as_deref(), Some("aaaaaaaaaa"));
        assert_eq!(cache.get(2).as_deref(), Some("bbbbbbbbbb"));
        assert_eq!(cache.get(3), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (2, 20, 1));
        for ext in [ENTRY_EXT, "tmp"] {
            let path = dir.join(format!("{:016x}.{ext}", 3u64));
            assert!(!path.exists(), "{} was written", path.display());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_respects_budget_and_drops_temp_files() {
        let dir = temp_dir("reopen-budget");
        {
            let cache = DiskCache::open(&dir, 0).unwrap();
            for key in 0..4u64 {
                cache.insert(key, "xxxxxxxxxx");
                // mtimes in the reverse of key order: key 0 is the newest,
                // so only an mtime-ordered seed keeps the low keys
                let age = std::time::Duration::from_secs(60 * key);
                let mtime = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000) - age;
                fs::File::options()
                    .write(true)
                    .open(cache.path_of(key))
                    .and_then(|f| f.set_modified(mtime))
                    .unwrap();
            }
        }
        fs::write(dir.join("dead.tmp"), "partial write").unwrap();
        let cache = DiskCache::open(&dir, 25).unwrap();
        assert_eq!(cache.len(), 2, "oldest entries evicted to fit budget");
        assert!(
            cache.get(0).is_some() && cache.get(1).is_some(),
            "newest survive"
        );
        assert_eq!((cache.get(2), cache.get(3)), (None, None), "oldest evicted");
        assert!(!dir.join("dead.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
