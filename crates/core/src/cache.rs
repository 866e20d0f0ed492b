//! A bounded LRU cache with hit/miss/eviction counters.
//!
//! Long-lived processes must not keep derived state without bound.
//! `chason serve` keeps its resident matrices (each holding its own plans)
//! and `chason route` its sharded residents, both keyed by load-time
//! fingerprint. [`LruCache`] is what they share: a fixed-capacity map that
//! evicts the least-recently-used entry on insert and counts hits, misses,
//! and evictions so cache effectiveness is observable (`chason client
//! stats` surfaces these numbers).
//!
//! The implementation favours simplicity over asymptotics: recency is a
//! monotonic tick per entry and eviction scans for the minimum, so `insert`
//! is `O(len)`. These caches hold tens of entries, each worth milliseconds
//! of scheduling or loading — the scan is noise. Not internally
//! synchronized; wrap in a `Mutex` to share across threads.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Observable counters of an [`LruCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by inserts into a full cache.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<V> {
    value: V,
    last_used: u64,
}

/// A bounded least-recently-used cache. See the module docs for the
/// intended use and complexity trade-offs.
pub struct LruCache<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, marking the entry most-recently-used and recording a
    /// hit or miss.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits += 1;
                Some(&slot.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or the hit/miss counters.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Whether `key` is resident, without touching recency or counters.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used one
    /// first when the cache is full. Returns the displaced entry: the
    /// previous value under `key`, or the evicted (key, value) pair.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.last_used = tick;
            let old = std::mem::replace(&mut slot.value, value);
            return Some((key, old));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.evict_lru()
        } else {
            None
        };
        self.map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
        evicted
    }

    /// Iterates the resident values in no particular order, without
    /// touching recency or counters.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|slot| &slot.value)
    }

    fn evict_lru(&mut self) -> Option<(K, V)> {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| k.clone())?;
        let slot = self.map.remove(&victim)?;
        self.evictions += 1;
        Some((victim, slot.value))
    }

    /// Removes an entry, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove(key).map(|slot| slot.value)
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

impl<K: Eq + Hash, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        assert!(cache.insert("a", 1).is_none());
        assert!(cache.insert("b", 2).is_none());
        assert_eq!(cache.get("a"), Some(&1)); // "b" is now the LRU entry
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(cache.contains("a") && cache.contains("c"));
        assert!(!cache.contains("b"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn counters_track_hits_misses_evictions() {
        let mut cache = LruCache::new(1);
        assert_eq!(cache.get("x"), None);
        cache.insert("x", 10);
        assert_eq!(cache.get("x"), Some(&10));
        cache.insert("y", 20); // evicts x
        assert_eq!(cache.get("x"), None);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions),
            (1, 2, 1),
            "{stats:?}"
        );
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!((stats.len, stats.capacity), (1, 1));
    }

    #[test]
    fn replacing_a_key_returns_the_old_value_without_eviction() {
        let mut cache = LruCache::new(1);
        cache.insert("k", 1);
        assert_eq!(cache.insert("k", 2), Some(("k", 1)));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.peek("k"), Some(&2));
    }

    #[test]
    fn peek_does_not_disturb_recency_or_counters() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.peek("a"), Some(&1));
        // "a" is still the LRU entry because peek did not bump it.
        assert_eq!(cache.insert("c", 3), Some(("a", 1)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn values_visit_every_entry_without_touching_recency_or_counters() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.values().sum::<i32>(), 3);
        // "a" is still the LRU entry because values() did not bump it.
        assert_eq!(cache.insert("c", 3), Some(("a", 1)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2));
    }

    #[test]
    fn remove_and_clear() {
        let mut cache = LruCache::new(4);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.remove(&1), Some("one"));
        assert_eq!(cache.remove(&1), None);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0, "remove/clear are not evictions");
    }

    /// A `(fingerprint, version, config)` key: several versions of one
    /// matrix, under several configurations, sharing one cache.
    type VersionedKey = (u64, u64, u8);

    #[test]
    fn multi_version_pressure_evicts_least_recent_version() {
        let mut cache: LruCache<VersionedKey, &'static str> = LruCache::new(3);
        // Three versions of the same matrix fill the cache.
        cache.insert((0xabc, 0, 0), "v0");
        cache.insert((0xabc, 1, 0), "v1");
        cache.insert((0xabc, 2, 0), "v2");
        // Touch v0 and v2 so v1 is the least recently used version.
        assert!(cache.get(&(0xabc, 0, 0)).is_some());
        assert!(cache.get(&(0xabc, 2, 0)).is_some());
        let evicted = cache.insert((0xdef, 0, 0), "other");
        assert_eq!(evicted, Some(((0xabc, 1, 0), "v1")));
        assert!(cache.contains(&(0xabc, 0, 0)));
        assert!(cache.contains(&(0xabc, 2, 0)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn update_invalidation_counts_a_miss_then_a_hit() {
        let mut cache: LruCache<VersionedKey, &'static str> = LruCache::new(4);
        cache.insert((7, 0, 0), "plan-v0");
        assert!(cache.get(&(7, 0, 0)).is_some());
        // An update bumps the version; the old plan no longer matches.
        assert!(cache.get(&(7, 1, 0)).is_none());
        cache.insert((7, 1, 0), "plan-v1");
        assert!(cache.get(&(7, 1, 0)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Explicit invalidation of the superseded version frees residency
        // without counting as an eviction.
        assert_eq!(cache.remove(&(7, 0, 0)), Some("plan-v0"));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn versions_of_one_matrix_do_not_collide_across_configs() {
        let mut cache: LruCache<VersionedKey, u32> = LruCache::new(8);
        cache.insert((9, 0, 0), 100);
        cache.insert((9, 0, 1), 200);
        cache.insert((9, 1, 0), 101);
        assert_eq!(cache.get(&(9, 0, 0)), Some(&100));
        assert_eq!(cache.get(&(9, 0, 1)), Some(&200));
        assert_eq!(cache.get(&(9, 1, 0)), Some(&101));
        assert_eq!(cache.len(), 3);
    }
}
