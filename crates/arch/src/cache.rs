//! The workspace's one bounded map ([`Lru`]) and the shared MRRG cache
//! built on it.
//!
//! Every cache in the toolchain that may grow without limit — MRRGs per
//! II, compile responses in memory and on disk, warm-start mappings, the
//! daemon's per-architecture [`Cgra`] pool — is an [`Lru`] behind its own
//! `Mutex`. `Lru` owns recency, weight, the budget and the eviction count;
//! what a lookup *means* (hit/miss accounting, file integrity, nearest
//! structure) stays with each user.
//!
//! The mappers rebuild the [`Mrrg`](crate::Mrrg) for every II they attempt,
//! and the portfolio pipeline maps several partition candidates over the
//! same II range concurrently. The graph depends only on the architecture
//! and the II, so a [`Cgra`] carries an [`MrrgCache`] keyed by II: the
//! first requester builds the graph, everyone else (other candidates,
//! annealing restarts, verification, statistics) shares the same
//! [`Arc<Mrrg>`].
//!
//! The cache is *bounded*: a resident server compiles arbitrarily many
//! kernels against one shared `Cgra`, and each kernel's II sweep touches a
//! different II range — an unbounded map would grow for the lifetime of
//! the process. Above [`MrrgCache::capacity`] entries the least recently
//! used graph is evicted; in-flight users keep their `Arc` alive, so
//! eviction only drops the cache's own reference.

use crate::{Cgra, Mrrg};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default [`MrrgCache`] capacity: generous for one compile's II sweep
/// (tens of IIs at most) while keeping a server's resident set bounded.
pub const DEFAULT_MRRG_CACHE_CAPACITY: usize = 32;

/// One resident entry of an [`Lru`].
#[derive(Debug)]
struct Slot<V> {
    value: V,
    weight: u64,
    /// This entry's key in the recency index.
    tick: u64,
}

/// A weight-budgeted map that evicts its least recently used entries.
///
/// Every entry carries a weight (`1` for a count-bounded cache, a byte
/// length for a size-bounded one); the sum of resident weights never
/// exceeds a non-zero budget, and a budget of `0` means unbounded. Plain
/// data, not thread-safe: each user wraps it in the lock it needs.
///
/// Recency is a tick-ordered index. Ticks come from one counter that only
/// this struct increments, so they are unique, the least recently used
/// entry is always the index's first element, and `get`, `touch`, `insert`
/// and each eviction are `O(log n)`.
///
/// # Examples
///
/// ```
/// use panorama_arch::Lru;
///
/// let mut lru = Lru::new(2);
/// assert!(lru.insert("a", 1, 1).is_empty());
/// assert!(lru.insert("b", 2, 1).is_empty());
/// assert_eq!(lru.get(&"a"), Some(&1)); // "b" is now the oldest
/// assert_eq!(lru.insert("c", 3, 1), [("b", 2)]);
/// // Heavier than the whole budget: handed back, residents untouched.
/// assert_eq!(lru.insert("d", 4, 3), [("d", 4)]);
/// assert_eq!(lru.iter().collect::<Vec<_>>(), [(&"a", &1), (&"c", &3)]);
/// assert_eq!(lru.evictions(), 2);
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// `tick -> key`, least recently used first; every resident key
    /// appears exactly once.
    order: BTreeMap<u64, K>,
    tick: u64,
    weight: u64,
    budget: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// An empty map whose resident weight may not exceed `budget` (`0` =
    /// unbounded).
    pub fn new(budget: u64) -> Self {
        Lru {
            slots: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            weight: 0,
            budget,
            evictions: 0,
        }
    }

    /// The value under `key`, which becomes the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.slots.get_mut(key)?;
        self.tick += 1;
        let key = self
            .order
            .remove(&slot.tick)
            .expect("resident key is indexed");
        slot.tick = self.tick;
        self.order.insert(self.tick, key);
        Some(&slot.value)
    }

    /// Marks `key` most recently used; `false` when it is not resident.
    pub fn touch(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Resident entries, least recently used first, without touching any.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.values().map(|key| (key, &self.slots[key].value))
    }

    /// Stores `value` under `key` as the most recently used entry
    /// (replacing a resident value in place) and returns what had to leave
    /// to stay within the budget, least recently used first.
    ///
    /// An entry heavier than a non-zero budget can never fit: it is
    /// refused and handed back as its own — counted — eviction, and the
    /// residents (a previous value under `key` included) are untouched.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> Vec<(K, V)> {
        if self.budget != 0 && weight > self.budget {
            self.evictions += 1;
            return vec![(key, value)];
        }
        self.tick += 1;
        let slot = Slot {
            value,
            weight,
            tick: self.tick,
        };
        if let Some(old) = self.slots.insert(key.clone(), slot) {
            self.order.remove(&old.tick);
            self.weight -= old.weight;
        }
        self.order.insert(self.tick, key);
        self.weight += weight;
        // The new entry carries the newest tick and fits the budget alone,
        // so it is never its own insert's victim.
        self.evict_to_budget()
    }

    /// Takes `key` out; not an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.slots.remove(key)?;
        self.order.remove(&slot.tick);
        self.weight -= slot.weight;
        Some(slot.value)
    }

    /// Changes the budget (`0` = unbounded) and returns the entries the new
    /// one no longer holds, least recently used first.
    pub fn set_budget(&mut self, budget: u64) -> Vec<(K, V)> {
        self.budget = budget;
        self.evict_to_budget()
    }

    fn evict_to_budget(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.budget != 0 && self.weight > self.budget {
            let Some((_, key)) = self.order.pop_first() else {
                break;
            };
            let slot = self.slots.remove(&key).expect("indexed key is resident");
            self.weight -= slot.weight;
            self.evictions += 1;
            evicted.push((key, slot.value));
        }
        evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum of the resident entries' weights.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The weight budget (`0` = unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Entries evicted or refused so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// A thread-safe, LRU-bounded II → [`Mrrg`] cache.
///
/// Cloning a [`Cgra`] shares its cache (the architecture is immutable, so
/// every clone produces identical graphs).
///
/// # Examples
///
/// ```
/// use panorama_arch::{Cgra, CgraConfig};
///
/// let cgra = Cgra::new(CgraConfig::small_4x4())?;
/// let a = cgra.mrrg_shared(3);
/// let b = cgra.mrrg_shared(3);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cgra.mrrg_cache().hits(), 1);
/// assert_eq!(cgra.mrrg_cache().misses(), 1);
/// # Ok::<(), panorama_arch::ArchError>(())
/// ```
#[derive(Debug)]
pub struct MrrgCache {
    inner: Mutex<Lru<usize, Arc<Mrrg>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for MrrgCache {
    fn default() -> Self {
        MrrgCache::with_capacity(DEFAULT_MRRG_CACHE_CAPACITY)
    }
}

impl MrrgCache {
    /// Creates an empty cache holding at most
    /// [`DEFAULT_MRRG_CACHE_CAPACITY`] graphs.
    pub fn new() -> Self {
        MrrgCache::default()
    }

    /// Creates an empty cache holding at most `capacity` graphs; `0`
    /// means unbounded.
    pub fn with_capacity(capacity: usize) -> Self {
        MrrgCache {
            inner: Mutex::new(Lru::new(capacity as u64)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached graph for `ii`, building (and retaining) it on first
    /// request. Inserting past the capacity evicts the least recently
    /// used graph.
    ///
    /// # Panics
    ///
    /// Panics when `ii == 0` (propagated from [`Cgra::mrrg`]).
    pub fn get_or_build(&self, cgra: &Cgra, ii: usize) -> Arc<Mrrg> {
        if let Some(mrrg) = self.lock().get(&ii) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(mrrg);
        }
        // Build outside the lock so a slow build of one II never blocks
        // lookups of another. Two threads may race to build the same II;
        // the graph is deterministic, so keeping the first insert is fine.
        let built = Arc::new(cgra.mrrg(ii));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut graphs = self.lock();
        if let Some(first) = graphs.get(&ii) {
            return Arc::clone(first);
        }
        graphs.insert(ii, Arc::clone(&built), 1);
        built
    }

    /// Changes the capacity, evicting immediately when the cache already
    /// holds more graphs; `0` means unbounded.
    pub fn set_capacity(&self, capacity: usize) {
        self.lock().set_budget(capacity as u64);
    }

    /// The maximum number of graphs retained (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.lock().budget() as usize
    }

    /// Locks the cache state, recovering from poisoning: the map holds
    /// only `Arc`'d complete graphs, and every [`Lru`] operation leaves it
    /// consistent, so a thread that panicked while holding the lock can
    /// never have left a half-built entry behind. One crashing portfolio
    /// candidate must not turn every later compile on the shared `Cgra`
    /// into a cascade of cache panics.
    fn lock(&self) -> MutexGuard<'_, Lru<usize, Arc<Mrrg>>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to build a graph.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of graphs evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Number of distinct IIs currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no graphs yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CgraConfig;
    use proptest::prelude::*;

    /// The obvious LRU: entries in recency order, least recent first.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u8, u64, u64)>, // (key, value, weight)
        budget: u64,
        evictions: u64,
    }

    impl Model {
        fn touch(&mut self, key: u8) -> Option<u64> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn remove(&mut self, key: u8) -> Option<u64> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            Some(self.entries.remove(at).1)
        }

        fn weight(&self) -> u64 {
            self.entries.iter().map(|e| e.2).sum()
        }

        fn shrink(&mut self) -> Vec<(u8, u64)> {
            let mut out = Vec::new();
            while self.budget != 0 && self.weight() > self.budget {
                let (key, value, _) = self.entries.remove(0);
                self.evictions += 1;
                out.push((key, value));
            }
            out
        }

        fn insert(&mut self, key: u8, value: u64, weight: u64) -> Vec<(u8, u64)> {
            if self.budget != 0 && weight > self.budget {
                self.evictions += 1;
                return vec![(key, value)];
            }
            self.remove(key);
            self.entries.push((key, value, weight));
            self.shrink()
        }
    }

    proptest! {
        /// Random get / insert / remove / touch / set_budget sequences:
        /// after every step the index holds the residents, the recency
        /// order, the weight and the eviction count of the naive model,
        /// and every call returned the model's victims.
        #[test]
        fn lru_matches_a_recency_ordered_vec_model(
            budget in 0u64..24,
            steps in proptest::collection::vec(0u64..u64::MAX, 1..400),
        ) {
            let mut lru: Lru<u8, u64> = Lru::new(budget);
            let mut model = Model { budget, ..Model::default() };
            for step in steps {
                let key = (step >> 8) as u8 % 12;
                match step % 16 {
                    0..=6 => {
                        let weight = 1 + (step >> 16) % 8;
                        prop_assert_eq!(lru.insert(key, step, weight), model.insert(key, step, weight));
                    }
                    7..=9 => prop_assert_eq!(lru.get(&key).copied(), model.touch(key)),
                    10..=11 => prop_assert_eq!(lru.touch(&key), model.touch(key).is_some()),
                    12..=14 => prop_assert_eq!(lru.remove(&key), model.remove(key)),
                    _ => {
                        model.budget = (step >> 16) % 24;
                        prop_assert_eq!(lru.set_budget(model.budget), model.shrink());
                    }
                }
                let residents: Vec<(u8, u64)> = lru.iter().map(|(k, v)| (*k, *v)).collect();
                let expected: Vec<(u8, u64)> = model.entries.iter().map(|e| (e.0, e.1)).collect();
                prop_assert_eq!(residents, expected);
                prop_assert_eq!(lru.len(), model.entries.len());
                prop_assert_eq!(lru.weight(), model.weight());
                prop_assert_eq!(lru.budget(), model.budget);
                prop_assert_eq!(lru.evictions(), model.evictions);
                prop_assert!(lru.budget() == 0 || lru.weight() <= lru.budget());
            }
        }
    }

    #[test]
    fn lru_refuses_an_entry_heavier_than_the_budget_and_keeps_its_residents() {
        let mut lru = Lru::new(30);
        assert!(lru.insert(1, "a", 10).is_empty());
        assert!(lru.insert(2, "b", 10).is_empty());
        assert_eq!(lru.insert(3, "huge", 40), [(3, "huge")]);
        assert_eq!(lru.iter().collect::<Vec<_>>(), [(&1, &"a"), (&2, &"b")]);
        assert_eq!((lru.len(), lru.weight(), lru.evictions()), (2, 20, 1));
        // Unbounded takes anything.
        let mut lru = Lru::new(0);
        assert!(lru.insert(3, "huge", u64::MAX).is_empty());
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = MrrgCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), DEFAULT_MRRG_CACHE_CAPACITY);
        let a = cache.get_or_build(&cgra, 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.get_or_build(&cgra, 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_iis_get_distinct_graphs() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = MrrgCache::new();
        let a = cache.get_or_build(&cgra, 2);
        let b = cache.get_or_build(&cgra, 3);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.ii(), 2);
        assert_eq!(b.ii(), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_lookups_share_one_graph() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = MrrgCache::new();
        let graphs: Vec<Arc<Mrrg>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_build(&cgra, 4)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(graphs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn poisoned_lock_recovers_and_still_serves_hits() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = Arc::new(MrrgCache::new());
        let first = cache.get_or_build(&cgra, 2);
        // Poison the mutex: panic in another thread while holding it, the
        // way a crashing portfolio candidate would mid-lookup.
        let poisoner = Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("simulated candidate crash while holding the cache lock");
        });
        assert!(handle.join().is_err());
        assert!(cache.inner.is_poisoned());
        // The cache must keep working: hits still hit, inserts still land.
        let again = cache.get_or_build(&cgra, 2);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.hits(), 1);
        let other = cache.get_or_build(&cgra, 3);
        assert_eq!(other.ii(), 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cgra_clones_share_the_cache() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let clone = cgra.clone();
        let a = cgra.mrrg_shared(2);
        let b = clone.mrrg_shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cgra.mrrg_cache().misses(), 1);
        assert_eq!(cgra.mrrg_cache().hits(), 1);
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used_graph() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = MrrgCache::with_capacity(2);
        let a = cache.get_or_build(&cgra, 2); // {2}
        cache.get_or_build(&cgra, 3); // {2, 3}
        let a2 = cache.get_or_build(&cgra, 2); // touch 2 → 3 is now LRU
        assert!(Arc::ptr_eq(&a, &a2));
        cache.get_or_build(&cgra, 4); // evicts 3, keeps {2, 4}
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // The recently-used graph survived: same Arc, one more hit.
        let hits = cache.hits();
        let a3 = cache.get_or_build(&cgra, 2);
        assert!(Arc::ptr_eq(&a, &a3));
        assert_eq!(cache.hits(), hits + 1);
        // The evicted II must be rebuilt: a fresh miss (and it evicts 4,
        // the LRU at this point).
        let misses = cache.misses();
        let b2 = cache.get_or_build(&cgra, 3);
        assert_eq!(b2.ii(), 3);
        assert_eq!(cache.misses(), misses + 1);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn set_capacity_shrinks_immediately_and_zero_means_unbounded() {
        let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
        let cache = MrrgCache::with_capacity(0);
        for ii in 2..=9 {
            cache.get_or_build(&cgra, ii);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 0);
        cache.set_capacity(3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 5);
        // The three newest stamps (IIs 7, 8, 9) survive the shrink.
        let misses = cache.misses();
        for ii in 7..=9 {
            cache.get_or_build(&cgra, ii);
        }
        assert_eq!(cache.misses(), misses);
    }
}
