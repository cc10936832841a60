//! Immutable point-in-time snapshots of the live index, and the cell the
//! writer publishes them through.
//!
//! A [`Snapshot`] is a frozen view of the index at one generation:
//! `Arc`-shared sealed segments and write buffer, each paired with the
//! bitmap of its deleted documents ([`DeadBits`]; the buffer's is inside
//! the [`Memtable`]). After every mutation the writer
//! ([`crate::LiveIndex`]) publishes one into a [`SnapshotCell`]; readers
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
use crate::query::{execute_prepared, LiveMatch, LiveQueryResult, QueryOpts};
use crate::segment::Segment;
use crate::LiveConfig;
use free_corpus::{Corpus, DocId};
use free_engine::QueryMetrics;
use std::ops::Deref;
use std::sync::{Arc, RwLock};
use std::time::Instant;

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
/// index's segments, or the write buffer.
#[derive(Clone, Copy)]
pub(crate) enum Owner {
    Segment(usize),
    Buffer,
}

/// A frozen, shareable view of the live index at one generation.
///
/// All read operations (`get`, `live_seqs`, `query`, …) are `&self` and
/// thread-safe; the view never changes once published, so two calls at
/// any distance in time return identical results.
pub struct Snapshot {
    pub(crate) segments: Vec<Sealed>,
    pub(crate) memtable: Arc<Memtable>,
    pub(crate) wal_base: DocId,
    pub(crate) generation: u64,
    /// The writer's delete count (see `LiveIndex::removals`).
    pub(crate) removals: u64,
    pub(crate) config: Arc<LiveConfig>,
    /// The live document count, summed from the sources' once.
    live_docs: usize,
}

impl Snapshot {
    /// Freezes the given state.
    pub(crate) fn new(
        segments: Vec<Sealed>,
        memtable: Arc<Memtable>,
        wal_base: DocId,
        generation: u64,
        removals: u64,
        config: Arc<LiveConfig>,
    ) -> Snapshot {
        let live_docs = segments.iter().map(Sealed::live_docs).sum::<usize>() + memtable.len()
            - memtable.dead.count();
        Snapshot {
            segments,
            memtable,
            wal_base,
            generation,
            removals,
            config,
            live_docs,
        }
    }

    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The writer's `next_seq`: every document ever added sits below it.
    pub(crate) fn next_seq(&self) -> DocId {
        self.wal_base + self.memtable.len() as DocId
    }

    /// Number of live (queryable) documents.
    pub fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Sequence numbers of all live documents, ascending.
    pub fn live_seqs(&self) -> Vec<DocId> {
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
    pub fn get(&self, seq: DocId) -> Result<Vec<u8>> {
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

    /// [`Snapshot::locate`] for a live document only.
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
    /// [`Snapshot::locate`] found it.
    // `expect`: `locate` only names buffered documents that exist.
    #[allow(clippy::expect_used)]
    pub(crate) fn read(&self, owner: Owner, local: usize) -> free_corpus::Result<Vec<u8>> {
        match owner {
            Owner::Segment(i) => self.segments[i].corpus.get(local as DocId),
            Owner::Buffer => Ok(self.memtable.doc(local).expect("located").to_vec()),
        }
    }

    /// Runs `pattern` over this view with the configured thread count:
    /// each matching document with its number of matches.
    pub fn query(&self, pattern: &str) -> Result<LiveQueryResult> {
        self.query_opts(pattern, &QueryOpts::default())
    }

    /// Runs `pattern` over this view with per-request options (thread
    /// count, deadline/cancellation budget). Matches come in sequence
    /// order, each with its number of leftmost-longest matches, identical
    /// for any `threads` value (see [`crate::query`]).
    ///
    /// An expired deadline or tripped cancel token stops confirmation at
    /// its next batch boundary, and the whole query returns a structured
    /// [`Error::Timeout`] / [`Error::Cancelled`] — never partial results.
    pub fn query_opts(&self, pattern: &str, opts: &QueryOpts) -> Result<LiveQueryResult> {
        let result = self.query_since(pattern, opts, 0)?;
        QueryMetrics::global().record(&result.stats.base);
        crate::query::emit_qlog(pattern, &result.stats);
        Ok(result)
    }

    /// [`Snapshot::query_opts`] over the documents at sequence `since` or
    /// above only, recording no metrics and no query-log record: what
    /// [`crate::QueryCache`] runs to extend an answer.
    pub(crate) fn query_since(
        &self,
        pattern: &str,
        opts: &QueryOpts,
        since: DocId,
    ) -> Result<LiveQueryResult> {
        let econfig = &self.config.engine;
        let threads = if opts.threads == 0 {
            econfig.effective_threads()
        } else {
            opts.threads
        };
        let mut query_span = econfig.tracer.span("live.query");
        query_span.record("pattern", pattern);
        query_span.record("generation", self.generation);
        query_span.record("since", u64::from(since));

        let prep_start = Instant::now();
        let prepared = free_engine::PreparedQuery::new(pattern, econfig, &query_span)?;
        let prep_time = prep_start.elapsed();
        let mut matches = Vec::new();
        let mut stats = execute_prepared(
            self,
            &prepared,
            since,
            threads,
            &opts.budget,
            &query_span,
            &mut |seq, spans| {
                let count = u32::try_from(spans.len()).unwrap_or(u32::MAX);
                matches.push(LiveMatch { seq, count });
                true
            },
        )?;
        stats.base.plan_time += prep_time;
        Ok(LiveQueryResult { matches, stats })
    }
}

/// The one-writer/many-reader publication point: holds the current
/// [`Snapshot`] and swaps it atomically. `load` clones the `Arc` under a
/// read lock held only for the refcount bump, so readers never wait on a
/// flush or compaction (which build their state *before* storing).
pub(crate) struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            current: RwLock::new(initial),
        }
    }

    /// The most recently published snapshot.
    pub(crate) fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes `snapshot`, making it visible to every subsequent
    /// `load`. In-flight readers keep whatever they loaded.
    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }
}

/// A cheap, cloneable, `Send + Sync` handle for querying the live index
/// from any thread while the writer keeps ingesting.
///
/// Obtained from [`crate::LiveIndex::reader`]. Each
/// [`LiveReader::snapshot`] call returns the freshest published view;
/// hold the returned [`Snapshot`] to pin a generation across several
/// reads.
#[derive(Clone)]
pub struct LiveReader {
    pub(crate) cell: Arc<SnapshotCell>,
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
}

#[cfg(test)]
mod tests {
    use super::{LiveReader, Snapshot, SnapshotCell};
    use crate::LiveIndex;
    use std::sync::Arc;

    /// The read path must be shareable: snapshots are handed to reader
    /// threads by `Arc`, the cell is loaded concurrently by every
    /// reader, and `LiveReader` clones are the per-thread query handles.
    #[test]
    fn read_path_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_clone<T: Clone>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<Snapshot>>();
        assert_send_sync::<SnapshotCell>();
        assert_send_sync::<LiveReader>();
        assert_send_sync::<LiveIndex>();
        assert_clone::<LiveReader>();
    }
}
