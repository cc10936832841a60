//! A query→result cache that appends extend instead of invalidate.
//!
//! A query server sees the same popular patterns over and over while
//! the index mostly grows. A live answer is exact (no false negative,
//! every match confirmed), so an answer computed over the sequences
//! below a snapshot's `next_seq` stays the answer over those sequences
//! for as long as no document below it is removed: an add only appends
//! sequences past it, and a flush or compaction moves documents without
//! changing one. This cache memoizes full match lists (each document's
//! sequence number and match count) keyed by pattern and stamps each
//! entry with the `next_seq` and the *removal count* (the deletes
//! published so far) of the snapshot it was computed against.
//! [`QueryCache::query`] answers a pattern against a snapshot in one of
//! three ways ([`Lookup`]):
//!
//! - the same stamp: a **hit**, the memoized answer as it is;
//! - the same removal count and an older `next_seq`: an **extension**,
//!   the query runs over the sequences from the entry's `next_seq` on
//!   only (the appended documents), its matches are appended to the
//!   memoized ones, and the entry is re-stamped; it counts as a hit;
//! - anything else (a removal since, or no entry): a **miss**, the query
//!   runs over the whole snapshot and replaces the entry.
//!
//! The stamps come from one [`crate::LiveIndex`]'s snapshots, so a cache
//! serves one index.
//!
//! The layout is entry-bounded independent `Mutex` FIFO shards keyed by
//! pattern hash, so concurrent lookups of different patterns contend 1/N
//! of the time and the critical section is a hash probe plus an `Arc`
//! clone; queries run outside the lock. Hit / miss / extension /
//! eviction counters are registered in the global metrics registry
//! (`free_qcache_hits_total` / `free_qcache_misses_total` /
//! `free_qcache_extended_total` / `free_qcache_evictions_total`) so
//! cache health shows up in `/metrics` next to the serve RED series.

use crate::error::Result;
use crate::query::{LiveMatch, QueryOpts};
use crate::Snapshot;
use free_corpus::DocId;
use free_engine::RequestBudget;
use free_trace::Counter;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Number of independent shards. A power of two so the shard of a
/// pattern hash is a mask away.
const SHARDS: usize = 8;

/// What an answer was computed against. Both fields only grow over one
/// index's snapshots, so a later snapshot's stamp orders after an
/// earlier one's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp {
    removals: u64,
    next_seq: DocId,
}

impl Stamp {
    fn of(snapshot: &Snapshot) -> Stamp {
        Stamp {
            removals: snapshot.removals,
            next_seq: snapshot.next_seq(),
        }
    }
}

struct Entry {
    stamp: Stamp,
    matches: Arc<Vec<LiveMatch>>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    fifo: VecDeque<String>,
}

/// How [`QueryCache::query`] answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The memoized answer, computed against the same stamp.
    Hit,
    /// The memoized answer plus the matches among the documents appended
    /// since it was computed.
    Extended,
    /// A run over the whole snapshot.
    Miss,
}

/// An entry-bounded, sharded, thread-safe query result cache whose
/// entries appends extend (see the module docs).
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total / number of shards).
    shard_budget: usize,
    /// The hit / miss / extension / eviction series, resolved once.
    hits: Counter,
    misses: Counter,
    extended: Counter,
    evictions: Counter,
}

impl QueryCache {
    /// Creates a cache holding at most (approximately) `total_entries`
    /// memoized queries across all shards.
    pub fn new(total_entries: usize) -> QueryCache {
        let registry = free_trace::metrics::global();
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (total_entries / SHARDS).max(1),
            hits: registry.counter("free_qcache_hits_total", "query cache hits"),
            misses: registry.counter("free_qcache_misses_total", "query cache misses"),
            extended: registry.counter(
                "free_qcache_extended_total",
                "query cache hits extended over appended documents",
            ),
            evictions: registry.counter("free_qcache_evictions_total", "query cache evictions"),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// The matches of `pattern` in `snapshot`, with their match counts,
    /// in global sequence order: what [`Snapshot::query_opts`] answers
    /// under `budget` at the configured thread count, served from the
    /// memoized answer where the stamps allow (see the module docs).
    /// A run that fails (a timeout, say) leaves the entry as it was.
    pub fn query(
        &self,
        snapshot: &Snapshot,
        pattern: &str,
        budget: &RequestBudget,
    ) -> Result<(Arc<Vec<LiveMatch>>, Lookup)> {
        let stamp = Stamp::of(snapshot);
        let found = {
            let shard = self
                .shard(pattern)
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            shard.map.get(pattern).map(|e| (e.stamp, e.matches.clone()))
        };
        let opts = QueryOpts {
            budget: budget.clone(),
            ..QueryOpts::default()
        };
        let (matches, lookup) = match found {
            Some((at, matches)) if at == stamp => {
                self.hits.inc();
                return Ok((matches, Lookup::Hit));
            }
            Some((at, cached)) if at.removals == stamp.removals && at.next_seq < stamp.next_seq => {
                let appended = snapshot.query_since(pattern, &opts, at.next_seq)?.matches;
                self.hits.inc();
                self.extended.inc();
                let matches = if appended.is_empty() {
                    cached
                } else {
                    Arc::new(cached.iter().copied().chain(appended).collect())
                };
                (matches, Lookup::Extended)
            }
            _ => {
                self.misses.inc();
                (
                    Arc::new(snapshot.query_opts(pattern, &opts)?.matches),
                    Lookup::Miss,
                )
            }
        };
        self.insert(pattern, stamp, matches.clone());
        Ok((matches, lookup))
    }

    /// Memoizes an answer. An existing entry for the same pattern is
    /// replaced in place unless its stamp is the later one (a reader on
    /// an older snapshot does not undo a newer answer); the oldest
    /// entries are evicted once the shard exceeds its budget.
    fn insert(&self, pattern: &str, stamp: Stamp, matches: Arc<Vec<LiveMatch>>) {
        let mut shard = self
            .shard(pattern)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = shard.map.get_mut(pattern) {
            if entry.stamp <= stamp {
                *entry = Entry { stamp, matches };
            }
            return;
        }
        shard
            .map
            .insert(pattern.to_string(), Entry { stamp, matches });
        shard.fifo.push_back(pattern.to_string());
        let mut evicted = 0u64;
        while shard.map.len() > self.shard_budget {
            let Some(old) = shard.fifo.pop_front() else {
                break;
            };
            if shard.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        self.evictions.add(evicted);
    }

    /// Number of memoized queries across all shards.
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
    use crate::{LiveConfig, LiveIndex};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn matches(seqs: &[u32]) -> Arc<Vec<LiveMatch>> {
        Arc::new(
            seqs.iter()
                .map(|&seq| LiveMatch { seq, count: 1 })
                .collect(),
        )
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        static DIRS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "free-qcache-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The matching seqs of `pattern` through the cache, and how it
    /// answered.
    fn lookup(cache: &QueryCache, index: &LiveIndex, pattern: &str) -> (Vec<DocId>, Lookup) {
        let unlimited = RequestBudget::unlimited();
        let (found, how) = cache.query(&index.snapshot(), pattern, &unlimited).unwrap();
        (found.iter().map(|m| m.seq).collect(), how)
    }

    /// An add extends the answer, a flush or a compaction leaves it a
    /// hit, and a delete makes the next lookup a miss.
    #[test]
    fn an_append_extends_a_removal_misses() {
        let dir = fresh_dir("extend");
        let mut index = LiveIndex::create(&dir, LiveConfig::default()).unwrap();
        let cache = QueryCache::new(64);
        index
            .add_batch(&["one needle", "hay", "two needle"])
            .unwrap();
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 2], Lookup::Miss));
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 2], Lookup::Hit));
        index.add_batch(&["three needle", "more hay"]).unwrap();
        assert_eq!(
            lookup(&cache, &index, "needle"),
            (vec![0, 2, 3], Lookup::Extended)
        );
        index.add_batch(&["hay again"]).unwrap();
        assert_eq!(
            lookup(&cache, &index, "needle"),
            (vec![0, 2, 3], Lookup::Extended)
        );
        index.flush().unwrap();
        assert_eq!(
            lookup(&cache, &index, "needle"),
            (vec![0, 2, 3], Lookup::Hit)
        );
        index.delete(2).unwrap();
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 3], Lookup::Miss));
        index.compact().unwrap();
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 3], Lookup::Hit));
        assert_eq!(cache.len(), 1, "re-stamping must not duplicate the key");
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reader on an older snapshot misses, and its answer does not
    /// replace the newer one.
    #[test]
    fn a_newer_stamp_replaces_in_place() {
        let dir = fresh_dir("older");
        let mut index = LiveIndex::create(&dir, LiveConfig::default()).unwrap();
        let cache = QueryCache::new(64);
        index.add_batch(&["one needle"]).unwrap();
        let older = index.snapshot();
        index.add_batch(&["two needle"]).unwrap();
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 1], Lookup::Miss));
        let unlimited = RequestBudget::unlimited();
        let (found, how) = cache.query(&older, "needle", &unlimited).unwrap();
        assert_eq!((found.len(), how), (1, Lookup::Miss));
        assert_eq!(lookup(&cache, &index, "needle"), (vec![0, 1], Lookup::Hit));
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        let cache = QueryCache::new(SHARDS * 2);
        let stamp = Stamp {
            removals: 0,
            next_seq: 64,
        };
        for i in 0..64 {
            cache.insert(&format!("p{i}"), stamp, matches(&[i]));
        }
        assert!(cache.len() <= SHARDS * 2);
    }
}
