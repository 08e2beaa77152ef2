//! Content-addressed LRU cache of completed compile responses.
//!
//! Iterative DSE loops re-query the same (kernel, architecture, options)
//! point many times; the compile pipeline is deterministic, so the
//! canonical response document can be replayed byte-for-byte. The key is
//! an FNV-1a hash over the *content* that determines the response — the
//! DFG text, the architecture text, and the mapping options — never over
//! anything incidental like the client, the worker count, or arrival time.
//! (The portfolio's result is bit-identical at any thread count, which is
//! what makes excluding `threads` from the key sound.)

use panorama_arch::Lru;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Accumulating FNV-1a hasher over byte chunks, with length framing so
/// `("ab", "c")` and `("a", "bc")` key differently.
#[derive(Debug, Clone, Copy)]
pub struct ContentHash(u64);

impl Default for ContentHash {
    fn default() -> Self {
        ContentHash(0xcbf2_9ce4_8422_2325) // FNV offset basis
    }
}

impl ContentHash {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHash::default()
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3); // FNV prime
        }
    }

    /// Mixes one framed chunk into the hash.
    #[must_use]
    pub fn chunk(mut self, bytes: &str) -> Self {
        self.push_bytes(&(bytes.len() as u64).to_le_bytes());
        self.push_bytes(bytes.as_bytes());
        self
    }

    /// The final 64-bit key.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A bounded key → response-document cache with LRU eviction: an
/// [`Lru`] of unit-weight entries behind a lock.
pub struct ResultCache {
    inner: Mutex<Lru<u64, String>>,
}

impl ResultCache {
    /// An empty cache retaining at most `capacity` responses (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity.max(1) as u64)),
        }
    }

    /// Poison recovery, same reasoning as the job queue: values are whole
    /// inserted strings, never partially built under the lock.
    fn lock(&self) -> MutexGuard<'_, Lru<u64, String>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached response for `key`, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<String> {
        self.lock().get(&key).cloned()
    }

    /// Stores a response, evicting the least recently used entry past
    /// capacity.
    pub fn insert(&self, key: u64, response: String) {
        self.lock().insert(key, response, 1);
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of retained responses.
    pub fn capacity(&self) -> usize {
        self.lock().budget() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_frames_chunks() {
        let a = ContentHash::new().chunk("ab").chunk("c").finish();
        let b = ContentHash::new().chunk("a").chunk("bc").finish();
        assert_ne!(a, b);
        let c = ContentHash::new().chunk("ab").chunk("c").finish();
        assert_eq!(a, c);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = ResultCache::new(2);
        cache.insert(1, "one".to_string());
        cache.insert(2, "two".to_string());
        assert_eq!(cache.get(1).as_deref(), Some("one")); // 2 is now LRU
        cache.insert(3, "three".to_string());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1).as_deref(), Some("one"));
        assert_eq!(cache.get(3).as_deref(), Some("three"));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResultCache::new(2);
        cache.insert(1, "old".to_string());
        cache.insert(1, "new".to_string());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1).as_deref(), Some("new"));
    }

    /// Regression test for an `O(capacity)` eviction scan: at capacity
    /// 10k, inserting 2×capacity entries must stay fast (a full scan per
    /// eviction makes this quadratic) and evict in exact LRU order — the
    /// surviving keys are precisely the newest `capacity`.
    #[test]
    fn insert_at_capacity_10k_is_logarithmic_and_exact_lru() {
        const CAP: u64 = 10_000;
        let cache = ResultCache::new(CAP as usize);
        for key in 0..2 * CAP {
            cache.insert(key, String::new());
        }
        assert_eq!(cache.len(), CAP as usize);
        assert!(cache.get(CAP - 1).is_none(), "oldest half evicted");
        assert!(cache.get(CAP).is_some(), "newest half resident");
        // Refresh an old-but-resident key, then push one past capacity:
        // the refreshed key survives, the now-coldest one does not.
        assert!(cache.get(CAP + 1).is_some());
        cache.insert(2 * CAP, String::new());
        assert!(cache.get(CAP + 1).is_some(), "refreshed key survives");
        assert!(cache.get(CAP + 2).is_none(), "coldest key evicted");
    }

    /// Concurrent get/insert stress: 8 threads hammering a small cache
    /// must never lose an update mid-flight (every get returns the exact
    /// string inserted for that key) and `len <= capacity` must hold at
    /// every observation point.
    #[test]
    fn concurrent_stress_preserves_values_and_capacity() {
        use std::sync::Arc;
        const CAP: usize = 64;
        let cache = Arc::new(ResultCache::new(CAP));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (t * 131 + i) % 256;
                        cache.insert(key, format!("value-{key}"));
                        let probe = (i * 17 + t) % 256;
                        if let Some(v) = cache.get(probe) {
                            assert_eq!(v, format!("value-{probe}"), "torn value for {probe}");
                        }
                        assert!(cache.len() <= CAP, "len exceeded capacity");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("stress thread");
        }
        assert!(cache.len() <= CAP);
        assert!(!cache.is_empty());
    }
}
