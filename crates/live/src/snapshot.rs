//! Immutable point-in-time snapshots of one shard, and the cell the live
//! index publishes its snapshots through.
//!
//! A [`ShardSnapshot`] is a frozen view of one shard at one generation:
//! `Arc`-shared sealed segments, an `Arc`-shared write buffer, and the
//! tombstone set. After every mutation the writer ([`crate::LiveIndex`])
//! collects one per shard into a [`crate::Snapshot`] and publishes it
//! into a [`SnapshotCell`]; readers load the cell — a refcount bump under
//! a briefly held lock, never blocking on flush or compaction — and query
//! the frozen view for as long as they like. Compaction can retire
//! segment files while snapshots still reference them: each segment holds
//! its own open file handles, and on POSIX an unlinked file stays
//! readable through an open descriptor, so memory (and disk) reclamation
//! is simply the last `Arc` dropping.

use crate::error::{Error, Result};
use crate::memtable::Memtable;
use crate::segment::Segment;
use crate::LiveConfig;
use free_corpus::{Corpus, DocId};
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};

/// A frozen view of one shard at one generation, in the shard's local
/// sequence space. Read operations are `&self` and thread-safe.
pub(crate) struct ShardSnapshot {
    pub(crate) segments: Vec<Arc<Segment>>,
    pub(crate) memtable: Arc<Memtable>,
    pub(crate) wal_base: DocId,
    pub(crate) deleted: Arc<BTreeSet<DocId>>,
    pub(crate) generation: u64,
    pub(crate) config: Arc<LiveConfig>,
    /// `deleted` as the sorted list the executor filters candidates
    /// with, and the live document count: both fixed for the life of the
    /// snapshot, so they are worked out once here, not once per query.
    pub(crate) tombstones: Arc<Vec<DocId>>,
    pub(crate) live_docs: usize,
}

impl ShardSnapshot {
    /// Freezes the given state. `prev`, the snapshot this one replaces,
    /// lends its tombstone list when no delete or compaction came
    /// between the two (the set is then the very same `Arc`).
    pub(crate) fn new(
        segments: Vec<Arc<Segment>>,
        memtable: Arc<Memtable>,
        wal_base: DocId,
        deleted: Arc<BTreeSet<DocId>>,
        generation: u64,
        config: Arc<LiveConfig>,
        prev: Option<&ShardSnapshot>,
    ) -> ShardSnapshot {
        let tombstones = match prev {
            Some(p) if Arc::ptr_eq(&p.deleted, &deleted) => p.tombstones.clone(),
            _ => Arc::new(deleted.iter().copied().collect()),
        };
        // Every sequence number from `wal_base` on names a buffered
        // document, so the tombstones in that range are the buffer's dead.
        let buffered_dead = deleted.range(wal_base..).count().min(memtable.len());
        let live_docs = segments
            .iter()
            .map(|s| s.live_docs(&deleted))
            .sum::<usize>()
            + memtable.len()
            - buffered_dead;
        ShardSnapshot {
            segments,
            memtable,
            wal_base,
            deleted,
            generation,
            config,
            tombstones,
            live_docs,
        }
    }

    /// Number of live (queryable) documents.
    pub(crate) fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Sequence numbers of all live documents, ascending.
    pub(crate) fn live_seqs(&self) -> Vec<DocId> {
        let mut out = Vec::new();
        for seg in &self.segments {
            out.extend(seg.seqs.iter().filter(|s| !self.deleted.contains(s)));
        }
        for i in 0..self.memtable.len() as DocId {
            let seq = self.wal_base + i;
            if !self.deleted.contains(&seq) {
                out.push(seq);
            }
        }
        out
    }

    /// Reads one live document by sequence number.
    // `expect`: `physically_present` was checked on entry, so the doc is
    // guaranteed to be found in the buffer or in an owning segment.
    #[allow(clippy::expect_used)]
    pub(crate) fn get(&self, seq: DocId) -> Result<Vec<u8>> {
        if !self.physically_present(seq) || self.deleted.contains(&seq) {
            return Err(Error::UnknownDoc(seq));
        }
        if seq >= self.wal_base {
            let local = (seq - self.wal_base) as usize;
            return Ok(self
                .memtable
                .doc(local)
                .expect("present in buffer")
                .to_vec());
        }
        let seg = self.owner(seq).expect("present in a segment");
        let local = seg.local_of(seq).expect("present in a segment");
        Ok(seg.corpus.get(local)?)
    }

    /// The segment owning `seq`, found by binary search over the
    /// sorted, non-overlapping sequence ranges.
    pub(crate) fn owner(&self, seq: DocId) -> Option<&Segment> {
        let i = self.segments.partition_point(|s| s.meta.last_seq < seq);
        self.segments
            .get(i)
            .map(|s| &**s)
            .filter(|s| s.meta.first_seq <= seq)
    }

    /// Whether `seq` names a stored document (live or tombstoned).
    pub(crate) fn physically_present(&self, seq: DocId) -> bool {
        if seq >= self.wal_base {
            ((seq - self.wal_base) as usize) < self.memtable.len()
        } else {
            self.owner(seq).is_some_and(|s| s.local_of(seq).is_some())
        }
    }
}

/// The one-writer/many-reader publication point: holds the current
/// [`crate::Snapshot`] and swaps it atomically. `load` clones the `Arc`
/// under a read lock held only for the refcount bump, so readers never
/// wait on a flush or compaction (which build their state *before*
/// storing).
pub(crate) struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    pub(crate) fn new(initial: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            current: RwLock::new(initial),
        }
    }

    /// The most recently published snapshot.
    pub(crate) fn load(&self) -> Arc<T> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes `snapshot`, making it visible to every subsequent
    /// `load`. In-flight readers keep whatever they loaded.
    pub(crate) fn store(&self, snapshot: Arc<T>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::{ShardSnapshot, SnapshotCell};
    use crate::Snapshot;
    use std::sync::Arc;

    /// The per-shard pieces of the read path must be shareable: every
    /// shard's frozen view rides inside the published `Snapshot`, and the
    /// cell is loaded concurrently by every reader. The public types are
    /// audited next to their definitions in `shard.rs`.
    #[test]
    fn read_path_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardSnapshot>();
        assert_send_sync::<Arc<ShardSnapshot>>();
        assert_send_sync::<SnapshotCell<Snapshot>>();
    }
}
