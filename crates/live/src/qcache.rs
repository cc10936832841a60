//! A snapshot-keyed query→result cache.
//!
//! A query server sees the same popular patterns over and over while the
//! index mutates only occasionally; between two snapshot publications the
//! answer to a given pattern cannot change (snapshots are immutable), so
//! re-running confirmation is pure waste. This cache memoizes full match
//! lists (with spans) keyed by pattern and stamps each entry with the
//! **generation** of the snapshot it was computed against. A lookup hits
//! only when the caller's current generation equals the stamp — every
//! write that publishes a new snapshot bumps the generation, so the whole
//! cache is invalidated *for free*: no publish-side hook, no epoch scan,
//! stale entries simply stop matching and get overwritten on the next
//! miss.
//!
//! The layout is entry-bounded independent `Mutex` FIFO shards keyed by
//! pattern hash, so concurrent lookups of different patterns contend 1/N
//! of the time and the critical section is a hash probe plus an `Arc`
//! clone. Hit / miss / eviction counters are registered in the global
//! metrics registry (`free_qcache_hits_total` /
//! `free_qcache_misses_total` / `free_qcache_evictions_total`) so cache
//! health shows up in `/metrics` next to the serve RED series.

use crate::query::LiveMatch;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Number of independent shards. A power of two so the shard of a
/// pattern hash is a mask away.
const SHARDS: usize = 8;

struct Entry {
    /// Generation of the snapshot the matches were computed against.
    generation: u64,
    matches: Arc<Vec<LiveMatch>>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    fifo: VecDeque<String>,
}

/// An entry-bounded, sharded, thread-safe query result cache keyed on
/// snapshot generation.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total / number of shards).
    shard_budget: usize,
}

impl QueryCache {
    /// Creates a cache holding at most (approximately) `total_entries`
    /// memoized queries across all shards.
    pub fn new(total_entries: usize) -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (total_entries / SHARDS).max(1),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Returns the cached matches for `pattern` **iff** they were
    /// computed against exactly `generation`, counting a hit or miss.
    /// An entry stamped with an older generation is left in place (it
    /// will be overwritten by the next insert) and reported as a miss.
    pub fn get(&self, pattern: &str, generation: u64) -> Option<Arc<Vec<LiveMatch>>> {
        let shard = self
            .shard(pattern)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let found = shard
            .map
            .get(pattern)
            .filter(|e| e.generation == generation)
            .map(|e| e.matches.clone());
        let registry = free_trace::metrics::global();
        match found {
            Some(m) => {
                registry
                    .counter("free_qcache_hits_total", "query cache hits")
                    .inc();
                Some(m)
            }
            None => {
                registry
                    .counter("free_qcache_misses_total", "query cache misses")
                    .inc();
                None
            }
        }
    }

    /// Memoizes a freshly computed answer. An existing entry for the
    /// same pattern (any generation) is replaced in place; the oldest
    /// entries are evicted once the shard exceeds its budget.
    pub fn insert(&self, pattern: &str, generation: u64, matches: Arc<Vec<LiveMatch>>) {
        let key = pattern.to_string();
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let entry = Entry {
            generation,
            matches,
        };
        if shard.map.insert(key.clone(), entry).is_none() {
            shard.fifo.push_back(key);
        }
        let mut evicted = 0u64;
        while shard.map.len() > self.shard_budget {
            let Some(old) = shard.fifo.pop_front() else {
                break;
            };
            if shard.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        if evicted > 0 {
            free_trace::metrics::global()
                .counter("free_qcache_evictions_total", "query cache evictions")
                .add(evicted);
        }
    }

    /// Number of memoized queries across all shards (any generation).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(seqs: &[u32]) -> Arc<Vec<LiveMatch>> {
        Arc::new(
            seqs.iter()
                .map(|&seq| LiveMatch {
                    seq,
                    spans: Vec::new(),
                })
                .collect(),
        )
    }

    #[test]
    fn hit_only_at_the_same_generation() {
        let cache = QueryCache::new(64);
        assert!(cache.get("needle", 7).is_none());
        cache.insert("needle", 7, matches(&[1, 4]));
        let hit = cache.get("needle", 7).expect("hit at generation 7");
        assert_eq!(hit.len(), 2);
        // A publish bumps the generation: the entry silently stops
        // matching — invalidation without touching the cache.
        assert!(cache.get("needle", 8).is_none());
    }

    #[test]
    fn newer_generation_replaces_in_place() {
        let cache = QueryCache::new(64);
        cache.insert("p", 1, matches(&[1]));
        cache.insert("p", 2, matches(&[1, 2]));
        assert!(cache.get("p", 1).is_none());
        assert_eq!(cache.get("p", 2).expect("hit").len(), 2);
        assert_eq!(cache.len(), 1, "replacement must not duplicate the key");
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        let cache = QueryCache::new(SHARDS * 2);
        for i in 0..64 {
            cache.insert(&format!("p{i}"), 1, matches(&[i]));
        }
        assert!(cache.len() <= SHARDS * 2);
    }
}
