//! Immutable point-in-time snapshots of one shard, and the cell the live
//! index publishes its snapshots through.
//!
//! A [`ShardSnapshot`] is a frozen view of one shard at one generation:
//! `Arc`-shared sealed segments and write buffer, each paired with the
//! bitmap of its deleted documents ([`DeadBits`]; the buffer's is inside
//! the [`Memtable`]). After every mutation the writer
//! ([`crate::LiveIndex`]) collects one per shard into a
//! [`crate::Snapshot`] and publishes it into a [`SnapshotCell`]; readers
//! load the cell — a refcount bump under a briefly held lock, never
//! blocking on flush or compaction — and query the frozen view for as
//! long as they like. Compaction can retire segment files while
//! snapshots still reference them: each segment holds its own open file
//! handles, and on POSIX an unlinked file stays readable through an open
//! descriptor, so memory (and disk) reclamation is simply the last `Arc`
//! dropping.

use crate::dead::DeadBits;
use crate::error::{Error, Result};
use crate::memtable::Memtable;
use crate::segment::Segment;
use crate::LiveConfig;
use free_corpus::{Corpus, DocId};
use std::ops::Deref;
use std::sync::{Arc, RwLock};

/// A sealed segment and its documents deleted since it was sealed. A
/// flush or compaction seals only live documents, so a new segment
/// starts with no dead ones.
#[derive(Clone)]
pub(crate) struct Sealed {
    pub(crate) segment: Arc<Segment>,
    pub(crate) dead: DeadBits,
}

impl Sealed {
    pub(crate) fn new(segment: Segment) -> Sealed {
        Sealed {
            segment: Arc::new(segment),
            dead: DeadBits::default(),
        }
    }

    /// Number of documents not deleted.
    pub(crate) fn live_docs(&self) -> usize {
        self.seqs.len() - self.dead.count()
    }
}

impl Deref for Sealed {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        &self.segment
    }
}

/// The source storing a document: a segment, by its position in the
/// shard's segments, or the write buffer.
#[derive(Clone, Copy)]
pub(crate) enum Owner {
    Segment(usize),
    Buffer,
}

/// A frozen view of one shard at one generation, in the shard's local
/// sequence space. Read operations are `&self` and thread-safe.
pub(crate) struct ShardSnapshot {
    pub(crate) segments: Vec<Sealed>,
    pub(crate) memtable: Arc<Memtable>,
    pub(crate) wal_base: DocId,
    pub(crate) generation: u64,
    pub(crate) config: Arc<LiveConfig>,
    /// The live document count, summed from the sources' once.
    pub(crate) live_docs: usize,
}

impl ShardSnapshot {
    /// Freezes the given state.
    pub(crate) fn new(
        segments: Vec<Sealed>,
        memtable: Arc<Memtable>,
        wal_base: DocId,
        generation: u64,
        config: Arc<LiveConfig>,
    ) -> ShardSnapshot {
        let live_docs = segments.iter().map(Sealed::live_docs).sum::<usize>() + memtable.len()
            - memtable.dead.count();
        ShardSnapshot {
            segments,
            memtable,
            wal_base,
            generation,
            config,
            live_docs,
        }
    }

    /// Number of live (queryable) documents.
    pub(crate) fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Sequence numbers of all live documents, ascending.
    pub(crate) fn live_seqs(&self) -> Vec<DocId> {
        let mut out = Vec::with_capacity(self.live_docs);
        for seg in &self.segments {
            let live = seg
                .seqs
                .iter()
                .enumerate()
                .filter(|(l, _)| !seg.dead.contains(*l));
            out.extend(live.map(|(_, &seq)| seq));
        }
        let buffered = (0..self.memtable.len()).filter(|&l| !self.memtable.dead.contains(l));
        out.extend(buffered.map(|l| self.wal_base + l as DocId));
        out
    }

    /// Reads one live document by sequence number.
    pub(crate) fn get(&self, seq: DocId) -> Result<Vec<u8>> {
        let (owner, local) = self.live(seq).ok_or(Error::UnknownDoc(seq))?;
        Ok(self.read(owner, local)?)
    }

    /// The source storing `seq` and its local id there, whether the
    /// document is live or deleted: the buffer from `wal_base` on, below
    /// it a binary search over the segments' sorted, non-overlapping
    /// sequence ranges.
    pub(crate) fn locate(&self, seq: DocId) -> Option<(Owner, usize)> {
        if seq >= self.wal_base {
            let local = (seq - self.wal_base) as usize;
            return (local < self.memtable.len()).then_some((Owner::Buffer, local));
        }
        let i = self.segments.partition_point(|s| s.meta.last_seq < seq);
        let local = self.segments.get(i)?.local_of(seq)?;
        Some((Owner::Segment(i), local as usize))
    }

    /// [`ShardSnapshot::locate`] for a live document only.
    pub(crate) fn live(&self, seq: DocId) -> Option<(Owner, usize)> {
        self.locate(seq)
            .filter(|&(owner, local)| !self.dead(owner).contains(local))
    }

    /// The dead documents of `owner`.
    pub(crate) fn dead(&self, owner: Owner) -> &DeadBits {
        match owner {
            Owner::Segment(i) => &self.segments[i].dead,
            Owner::Buffer => &self.memtable.dead,
        }
    }

    /// The bytes of document `local` of `owner`, as
    /// [`ShardSnapshot::locate`] found it.
    // `expect`: `locate` only names buffered documents that exist.
    #[allow(clippy::expect_used)]
    pub(crate) fn read(&self, owner: Owner, local: usize) -> free_corpus::Result<Vec<u8>> {
        match owner {
            Owner::Segment(i) => self.segments[i].corpus.get(local as DocId),
            Owner::Buffer => Ok(self.memtable.doc(local).expect("located").to_vec()),
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
