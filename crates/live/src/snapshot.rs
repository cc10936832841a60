//! Immutable point-in-time snapshots of the live index.
//!
//! A [`Snapshot`] is a frozen view of the index at one generation:
//! `Arc`-shared sealed segments, an `Arc`-shared write buffer, and the
//! tombstone set. The writer ([`crate::LiveIndex`]) publishes a fresh
//! snapshot into a shared cell after every mutation; readers load
//! the cell — a refcount bump under a briefly held lock, never blocking
//! on flush or compaction — and query the frozen view for as long as
//! they like. Compaction can retire segment files while snapshots still
//! reference them: each segment holds its own open file handles, and on
//! POSIX an unlinked file stays readable through an open descriptor, so
//! memory (and disk) reclamation is simply the last `Arc` dropping.
//!
//! [`LiveReader`] is the cheap, cloneable handle handed to reader
//! threads: it holds the cell, not a snapshot, so each query sees the
//! freshest published generation.

use crate::error::{Error, Result};
use crate::memtable::Memtable;
use crate::query::{execute, LiveQueryResult, QueryOpts};
use crate::segment::Segment;
use crate::LiveConfig;
use free_corpus::{Corpus, DocId};
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};

/// A frozen, shareable view of the live index at one generation.
///
/// All read operations (`get`, `live_seqs`, `query`, …) are `&self` and
/// thread-safe; the view never changes once published, so two calls at
/// any distance in time return identical results.
pub struct Snapshot {
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

impl Snapshot {
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
        prev: Option<&Snapshot>,
    ) -> Snapshot {
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
        Snapshot {
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

    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of sealed segments in this view.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of tombstones visible to this view.
    pub fn num_tombstones(&self) -> usize {
        self.deleted.len()
    }

    /// The next sequence number the writer would assign, as of this
    /// snapshot.
    pub fn next_seq(&self) -> DocId {
        self.wal_base + self.memtable.len() as DocId
    }

    /// Number of live (queryable) documents.
    pub fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Sequence numbers of all live documents, ascending.
    pub fn live_seqs(&self) -> Vec<DocId> {
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
    pub fn get(&self, seq: DocId) -> Result<Vec<u8>> {
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

    /// Runs `pattern` over this snapshot with the configured thread
    /// count, extracting match spans.
    pub fn query(&self, pattern: &str) -> Result<LiveQueryResult> {
        self.query_with(pattern, self.config.engine.effective_threads(), true)
    }

    /// Runs `pattern` with an explicit confirmation thread count.
    /// Results are identical for any `threads` value.
    pub fn query_with(
        &self,
        pattern: &str,
        threads: usize,
        want_spans: bool,
    ) -> Result<LiveQueryResult> {
        self.query_opts(
            pattern,
            &QueryOpts {
                threads,
                want_spans,
                ..QueryOpts::default()
            },
        )
    }

    /// Runs `pattern` with full per-request options (thread count, span
    /// extraction, deadline/cancellation budget). An expired budget
    /// aborts between confirmation batches with a structured
    /// [`Error::Timeout`] / [`Error::Cancelled`] — never partial results.
    pub fn query_opts(&self, pattern: &str, opts: &QueryOpts) -> Result<LiveQueryResult> {
        let threads = if opts.threads == 0 {
            self.config.engine.effective_threads()
        } else {
            opts.threads
        };
        execute(self, pattern, threads, opts.want_spans, &opts.budget)
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
/// snapshot and swaps it atomically. `load` clones the `Arc` under a
/// read lock held only for the refcount bump, so readers never wait on
/// a flush or compaction (which build their state *before* storing).
/// `T` is a `Snapshot`, or a `ShardedSnapshot` for a sharded index.
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

/// A cheap, cloneable, `Send + Sync` handle for querying the live index
/// from any thread while the writer keeps ingesting.
///
/// Obtained from [`crate::LiveIndex::reader`]. Each [`LiveReader::snapshot`]
/// call returns the freshest published view; hold the returned
/// [`Snapshot`] to pin a generation across several reads.
#[derive(Clone)]
pub struct LiveReader {
    pub(crate) cell: Arc<SnapshotCell<Snapshot>>,
}

impl LiveReader {
    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Generation of the most recently published snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Runs `pattern` over the freshest published snapshot.
    pub fn query(&self, pattern: &str) -> Result<LiveQueryResult> {
        self.snapshot().query(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole read path must be shareable: snapshots are handed to
    /// reader threads by `Arc`, and `LiveReader` clones are the
    /// per-thread query handles.
    #[test]
    fn read_path_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_clone<T: Clone>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<Snapshot>>();
        assert_send_sync::<LiveReader>();
        assert_send_sync::<crate::LiveIndex>();
        assert_clone::<LiveReader>();
    }
}
