//! Live (incrementally updatable) FREE index.
//!
//! The batch pipeline in `free-engine` builds one immutable index from
//! one frozen corpus. This crate layers an LSM-style *live* index on top
//! of the same building blocks so documents can be added, deleted, and
//! queried continuously.
//!
//! There is one index type, [`LiveIndex`]: one writer over one
//! directory, created by [`LiveIndex::create`] and reopened by
//! [`LiveIndex::open`]. Writes take `&mut LiveIndex`; reads take the
//! published [`Snapshot`] (from [`LiveIndex::snapshot`] or a
//! [`LiveReader`] on another thread), and a query runs on it through
//! [`Snapshot::query`] or [`Snapshot::query_opts`]. The index is:
//!
//! - **Dictionary**: one set of mined keys, the oldest segment's key
//!   directory. Only the first flush into an empty index and a
//!   re-mining compaction mine; every other segment and the write
//!   buffer index exactly the dictionary's keys, so a query is planned
//!   once against it.
//! - **Write buffer**: new documents land in a WAL-backed in-memory
//!   buffer (a [`memtable::Memtable`]); each batch is matched against
//!   the dictionary as it arrives and keeps its postings by key id.
//! - **Segments**: a *flush* seals the buffer into an immutable segment
//!   in the `free-index` on-disk format, writing the buffered postings
//!   without mining or scanning, and no document: the WAL becomes the
//!   segment's store.
//! - **Deletes**: every segment and the write buffer own a copy-on-write
//!   bitmap of their deleted documents, which every query skips; the
//!   tombstone log (`tombstones.log`) is its durable form. Compaction
//!   eliminates them physically (a flush carries the buffer's bitmap
//!   over to the segment, whose store keeps the documents).
//! - **Compaction**: rewrites every surviving document into one segment.
//!   It merges the segments' postings under the dictionary, unless the
//!   documents flushed since the last compaction have drifted from it
//!   ([`LiveIndex::drift`], [`DRIFT_TOLERANCE`]); then it runs the batch
//!   build, so the index is byte for byte `Engine::build_on_disk` over
//!   the live documents and its mined keys become the new dictionary.
//!
//! Every document has a stable, never-reused sequence number
//! ([`free_corpus::DocId`]), and queries at any generation return
//! exactly what a from-scratch rebuild over the live documents would —
//! the differential invariant checked by `tests/proptest_live.rs`.

pub mod error;
pub mod manifest;
pub mod memtable;
pub mod qcache;
pub mod query;
pub mod segment;
pub mod stats;

mod cursor;
mod dead;
mod live;
mod postings;
mod snapshot;
mod view;

pub use error::{Error, Result};
pub use live::{
    orphan_segment_ids, pending_flush, read_tombstones, sharded_layout, useful_limit, Drift,
    LiveIndex, DRIFT_TOLERANCE, SEGMENTS_DIR, TOMBSTONES_FILE, TOMBSTONES_HEADER, WAL_DIR,
    WAL_EPOCH_FILE,
};
pub use manifest::{Manifest, SegmentMeta};
pub use qcache::{Lookup, QueryCache};
pub use query::{LiveMatch, LiveQueryResult, LiveQueryStats, QueryOpts};
pub use snapshot::{LiveReader, Snapshot};
pub use stats::{LiveStats, SegmentStats};

use free_engine::EngineConfig;

/// Configuration for a [`LiveIndex`].
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Engine configuration used for dictionary mining, planning, and
    /// confirmation. The same configuration must be used across sessions
    /// for a given live index directory.
    pub engine: EngineConfig,
    /// Flush the write buffer once it holds this many document bytes.
    pub flush_threshold_bytes: u64,
    /// Flush the write buffer once it holds this many documents.
    pub flush_threshold_docs: usize,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            engine: EngineConfig::default(),
            flush_threshold_bytes: 4 << 20,
            flush_threshold_docs: 8192,
        }
    }
}
