//! Warm-start incremental remapping: reuse a prior mapping of a nearly
//! identical `(DFG, architecture)` pair instead of starting cold.
//!
//! A [`WarmStartCache`] keys successful mappings by a structural
//! fingerprint (architecture hash, positional op kinds, sorted dependency
//! edges). A lookup matches when the architectures are identical and the
//! node/edge edit distance stays under [`WarmStartCache::threshold`]; the
//! hit yields a [`WarmHint`] carrying the prior II, per-op `(PE, time)`
//! placement seeds for structurally unchanged ops, and the prior search's
//! PathFinder history costs. [`SprMapper`](crate::SprMapper) consumes the
//! hint when constructed via
//! [`with_warm_cache`](crate::SprMapper::with_warm_cache): at the hinted
//! II it seeds placement and router history from the prior solution, and
//! falls back to the cold path whenever the seeds do not fit — so a warm
//! start can only change *where the search begins*, never what a returned
//! mapping is checked against ([`Mapping::verify`](crate::Mapping::verify)
//! applies unchanged).
//!
//! Invalidation is structural, not nominal: entries never go stale because
//! a lookup re-derives the structure of the query pair and matches it
//! against the stored structure — a renamed kernel with identical shape
//! hits, an identically named kernel with a changed graph misses (or
//! seeds only its unchanged prefix). `panorama-serve` wires this cache in
//! as a second, delta-tolerant tier behind its exact result cache.

use crate::Mapping;
use panorama_arch::{Cgra, Lru, PeId};
use panorama_dfg::Dfg;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Default number of prior mappings a [`WarmStartCache`] retains.
pub const DEFAULT_WARM_CACHE_CAPACITY: usize = 32;

/// Structural signature of a `(DFG, architecture)` pair: everything the
/// edit distance compares, nothing it ignores (names, kernel labels).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Structure {
    /// Hash of the full [`CgraConfig`](panorama_arch::CgraConfig); warm
    /// starts never cross architectures.
    arch: u64,
    /// Op kinds in op-index order.
    kinds: Vec<u8>,
    /// `(src, dst, distance)` per dependency, sorted.
    edges: Vec<(u32, u32, u32)>,
}

impl Structure {
    fn of(dfg: &Dfg, cgra: &Cgra) -> Self {
        let mut h = DefaultHasher::new();
        cgra.config().hash(&mut h);
        let kinds = dfg.op_ids().map(|op| dfg.op(op).kind as u8).collect();
        let mut edges: Vec<(u32, u32, u32)> = dfg
            .deps()
            .map(|e| {
                (
                    e.src.index() as u32,
                    e.dst.index() as u32,
                    e.weight.distance(),
                )
            })
            .collect();
        edges.sort_unstable();
        Structure {
            arch: h.finish(),
            kinds,
            edges,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.arch.hash(&mut h);
        self.kinds.hash(&mut h);
        self.edges.hash(&mut h);
        h.finish()
    }

    /// Positional node/edge edit distance; `usize::MAX` across different
    /// architectures (never warm-startable).
    fn edit_distance(&self, other: &Self) -> usize {
        if self.arch != other.arch {
            return usize::MAX;
        }
        let common = self.kinds.len().min(other.kinds.len());
        let mut d = self.kinds.len().abs_diff(other.kinds.len());
        d += (0..common)
            .filter(|&i| self.kinds[i] != other.kinds[i])
            .count();
        // symmetric difference of the two sorted edge lists
        let (mut i, mut j) = (0, 0);
        while i < self.edges.len() && j < other.edges.len() {
            match self.edges[i].cmp(&other.edges[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    d += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    d += 1;
                    j += 1;
                }
            }
        }
        d + (self.edges.len() - i) + (other.edges.len() - j)
    }
}

/// One remembered mapping, stored under its structure's fingerprint.
#[derive(Debug, Clone)]
struct Entry {
    structure: Structure,
    ii: usize,
    pe_of: Vec<PeId>,
    time_of: Vec<usize>,
    /// Final PathFinder history of the search that produced the mapping
    /// (empty when recorded externally from a bare [`Mapping`]).
    history: Vec<f32>,
    /// [`Mapping::content_hash`] of the recorded mapping; `0` when the
    /// recorder predates hashing. On an exact-structure hit the mapper
    /// compares its warm-seeded result against this hash and falls back
    /// to the cold search on a mismatch, so replay stays byte-stable.
    content_hash: u64,
}

/// What a cache hit seeds the mapper with.
#[derive(Debug, Clone)]
pub struct WarmHint {
    pub(crate) ii: usize,
    pub(crate) edit_distance: usize,
    /// Per-op `(PE, absolute time)` seed for ops whose kind is unchanged
    /// at the same index; `None` for inserted or retyped ops.
    pub(crate) seeds: Vec<Option<(PeId, usize)>>,
    pub(crate) history: Vec<f32>,
    pub(crate) content_hash: u64,
}

impl WarmHint {
    /// II of the prior mapping (the warm attempt targets exactly this II).
    pub fn ii(&self) -> usize {
        self.ii
    }

    /// Node/edge edit distance between the query and the matched entry.
    pub fn edit_distance(&self) -> usize {
        self.edit_distance
    }

    /// [`Mapping::content_hash`] of the recorded mapping (`0` when the
    /// entry was recorded without one).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }
}

#[derive(Debug)]
struct Inner {
    /// Prior mappings by structural fingerprint, least recently recorded
    /// first. A lookup does not refresh the entry it matches: a sweep over
    /// more structures than the store holds (each match recording its own
    /// result) would otherwise evict exactly the entries it has yet to
    /// reach.
    entries: Lru<u64, Entry>,
    hits: u64,
    misses: u64,
    records: u64,
}

/// Bounded, shareable store of prior mappings for warm-start remapping.
///
/// Clones share one store (like
/// [`MrrgCache`](panorama_arch::MrrgCache)), so a server or bench harness
/// can hand the same cache to many mapper instances. All operations
/// recover from poisoning: a panicking holder leaves the cache usable.
///
/// # Examples
///
/// ```
/// use panorama_arch::{Cgra, CgraConfig};
/// use panorama_dfg::{kernels, KernelId, KernelScale};
/// use panorama_mapper::{LowerLevelMapper, SprMapper, WarmStartCache};
///
/// let cgra = Cgra::new(CgraConfig::small_4x4())?;
/// let dfg = kernels::generate(KernelId::Fir, KernelScale::Tiny);
/// let cache = WarmStartCache::default();
/// let cold = SprMapper::default().map(&dfg, &cgra, None)?;
/// cache.record(&dfg, &cgra, &cold);
/// let warm_mapper = SprMapper::default().with_warm_cache(cache.clone());
/// let warm = warm_mapper.map(&dfg, &cgra, None)?;
/// warm.verify(&dfg, &cgra)?;
/// assert_eq!(cache.hits(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct WarmStartCache {
    inner: Arc<Mutex<Inner>>,
}

impl Default for WarmStartCache {
    fn default() -> Self {
        WarmStartCache::with_capacity(DEFAULT_WARM_CACHE_CAPACITY)
    }
}

impl WarmStartCache {
    /// An empty cache retaining up to `capacity` mappings (0 is clamped
    /// to 1).
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStartCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: Lru::new(capacity.max(1) as u64),
                hits: 0,
                misses: 0,
                records: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Edit-distance cap for a DFG of `num_ops` operations: small
    /// graphs tolerate a handful of edits, large ones up to 10%.
    pub fn threshold(num_ops: usize) -> usize {
        4.max(num_ops / 10)
    }

    /// Looks for a prior mapping of the same architecture within the edit
    /// threshold; the closest match wins, ties favour the least recently
    /// recorded entry. Counts a hit or a miss either way.
    pub fn lookup(&self, dfg: &Dfg, cgra: &Cgra) -> Option<WarmHint> {
        let query = Structure::of(dfg, cgra);
        let threshold = Self::threshold(dfg.num_ops());
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut best: Option<(usize, &Entry)> = None;
        for (_, entry) in inner.entries.iter() {
            let d = entry.structure.edit_distance(&query);
            if d <= threshold && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, entry));
            }
        }
        let Some((edit_distance, entry)) = best else {
            inner.misses += 1;
            return None;
        };
        inner.hits += 1;
        let mut seeds = vec![None; dfg.num_ops()];
        let common = dfg.num_ops().min(entry.structure.kinds.len());
        for (i, seed) in seeds.iter_mut().enumerate().take(common) {
            if query.kinds[i] == entry.structure.kinds[i] {
                *seed = Some((entry.pe_of[i], entry.time_of[i]));
            }
        }
        Some(WarmHint {
            ii: entry.ii,
            edit_distance,
            seeds,
            history: entry.history.clone(),
            content_hash: entry.content_hash,
        })
    }

    /// Remembers a successful mapping (without router history — used by
    /// external callers holding only the [`Mapping`]).
    pub fn record(&self, dfg: &Dfg, cgra: &Cgra, mapping: &Mapping) {
        let pe_of = dfg.op_ids().map(|op| mapping.pe_of(op)).collect();
        let time_of = dfg.op_ids().map(|op| mapping.time_of(op)).collect();
        self.record_parts(
            dfg,
            cgra,
            mapping.ii(),
            pe_of,
            time_of,
            Vec::new(),
            mapping.content_hash(),
        );
    }

    /// Remembers a successful mapping together with the PathFinder history
    /// that produced it (the internal success path of `SprMapper`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_parts(
        &self,
        dfg: &Dfg,
        cgra: &Cgra,
        ii: usize,
        pe_of: Vec<PeId>,
        time_of: Vec<usize>,
        history: Vec<f32>,
        content_hash: u64,
    ) {
        let structure = Structure::of(dfg, cgra);
        let fingerprint = structure.fingerprint();
        let entry = Entry {
            structure,
            ii,
            pe_of,
            time_of,
            history,
            content_hash,
        };
        let mut inner = self.lock();
        inner.records += 1;
        inner.entries.insert(fingerprint, entry, 1);
    }

    /// Lookups that found a usable prior mapping.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that found nothing within the edit threshold.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Successful mappings recorded (including same-fingerprint updates).
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.lock().entries.evictions()
    }

    /// Retention bound.
    pub fn capacity(&self) -> usize {
        self.lock().entries.budget() as usize
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama_arch::CgraConfig;
    use panorama_dfg::{DfgBuilder, OpKind};

    fn cgra() -> Cgra {
        Cgra::new(CgraConfig::small_4x4()).unwrap()
    }

    fn chain(n: usize, extra: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ops: Vec<_> = (0..n).map(|i| b.op(OpKind::Add, format!("n{i}"))).collect();
        for w in ops.windows(2) {
            b.data(w[0], w[1]);
        }
        for i in 0..extra {
            let x = b.op(OpKind::Add, format!("x{i}"));
            b.data(ops[0], x);
        }
        b.build().unwrap()
    }

    fn fake_mapping(dfg: &Dfg, ii: usize) -> Mapping {
        Mapping {
            mapper: "test",
            ii,
            mii: ii,
            time_of: (0..dfg.num_ops()).collect(),
            pe_of: (0..dfg.num_ops()).map(PeId::from_index).collect(),
            routes: None,
            stats: crate::MappingStats::default(),
        }
    }

    #[test]
    fn identical_structure_hits_with_full_seeds() {
        let cache = WarmStartCache::default();
        let dfg = chain(8, 0);
        cache.record(&dfg, &cgra(), &fake_mapping(&dfg, 2));
        let hint = cache.lookup(&dfg, &cgra()).expect("identical pair hits");
        assert_eq!(hint.ii(), 2);
        assert_eq!(hint.edit_distance(), 0);
        assert!(hint.seeds.iter().all(Option::is_some));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn small_delta_hits_and_seeds_unchanged_prefix() {
        let cache = WarmStartCache::default();
        let base = chain(10, 0);
        cache.record(&base, &cgra(), &fake_mapping(&base, 2));
        let grown = chain(10, 1); // one extra op + one extra edge
        let hint = cache
            .lookup(&grown, &cgra())
            .expect("delta under threshold");
        assert_eq!(hint.edit_distance(), 2);
        assert_eq!(hint.seeds.iter().filter(|s| s.is_some()).count(), 10);
        assert!(hint.seeds[10].is_none(), "inserted op has no seed");
    }

    #[test]
    fn large_delta_misses() {
        let cache = WarmStartCache::default();
        let base = chain(10, 0);
        cache.record(&base, &cgra(), &fake_mapping(&base, 2));
        assert!(cache.lookup(&chain(10, 8), &cgra()).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_architecture_never_matches() {
        let cache = WarmStartCache::default();
        let dfg = chain(6, 0);
        cache.record(&dfg, &cgra(), &fake_mapping(&dfg, 2));
        let other = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
        assert!(cache.lookup(&dfg, &other).is_none());
    }

    #[test]
    fn warm_replay_reports_are_byte_identical_to_cold() {
        use crate::{LowerLevelMapper, SprMapper};
        use panorama_dfg::{kernels, KernelId, KernelScale};
        for id in [KernelId::Fir, KernelId::Cordic, KernelId::MatrixMultiply] {
            let cgra = cgra();
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let cold = SprMapper::default().map(&dfg, &cgra, None).unwrap();
            let cache = WarmStartCache::default();
            cache.record(&dfg, &cgra, &cold);
            let warm = SprMapper::default()
                .with_warm_cache(cache.clone())
                .map(&dfg, &cgra, None)
                .unwrap();
            assert_eq!(cache.hits(), 1, "{id:?}: warm run should hit the cache");
            assert_eq!(
                cold.content_hash(),
                warm.content_hash(),
                "{id:?}: warm-seeded mapping content must match the cold run"
            );
            assert_eq!(
                cold.render(&dfg, &cgra).into_bytes(),
                warm.render(&dfg, &cgra).into_bytes(),
                "{id:?}: warm report bytes must match the cold run"
            );
        }
    }

    #[test]
    fn recorded_hint_carries_the_content_hash() {
        let cache = WarmStartCache::default();
        let dfg = chain(6, 0);
        let mapping = fake_mapping(&dfg, 2);
        cache.record(&dfg, &cgra(), &mapping);
        let hint = cache.lookup(&dfg, &cgra()).unwrap();
        assert_eq!(hint.content_hash(), mapping.content_hash());
        assert_ne!(hint.content_hash(), 0);
    }

    #[test]
    fn rerecord_replaces_and_capacity_evicts_oldest() {
        let cache = WarmStartCache::with_capacity(2);
        let a = chain(4, 0);
        let b = chain(20, 0);
        let c = chain(40, 0);
        cache.record(&a, &cgra(), &fake_mapping(&a, 1));
        cache.record(&a, &cgra(), &fake_mapping(&a, 3)); // replace, not grow
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&a, &cgra()).unwrap().ii(), 3);
        cache.record(&b, &cgra(), &fake_mapping(&b, 1));
        cache.record(&c, &cgra(), &fake_mapping(&c, 1));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a, &cgra()).is_none(), "oldest evicted");
    }
}
