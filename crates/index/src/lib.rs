//! Inverted-index substrate for the FREE regular expression indexing
//! engine.
//!
//! The multigram index of the paper (Figure 2) is structurally a classic
//! inverted index: a *directory* of keys — here, byte multigrams — each
//! pointing at a *postings list* of the data units containing that key.
//! This crate provides that machinery, independent of how keys are chosen
//! (key selection is the `free-engine` crate's job):
//!
//! * [`varint`] — LEB128 variable-length integers; postings are stored
//!   delta-encoded so dense lists cost ~1 byte per posting.
//! * [`postings`] — building, encoding and decoding sorted document-id
//!   lists.
//! * [`ops`] — set operations over postings (intersection incl. galloping,
//!   union, k-way variants) used by the query planner's AND/OR nodes.
//! * [`MemIndex`] — a mutable in-memory index used during construction.
//! * [`mod@format`] — the immutable on-disk format ([`IndexWriter`] /
//!   [`IndexReader`]): header, key directory (loaded into memory whole —
//!   the paper stresses the multigram directory is small enough to cache),
//!   and a postings section read on demand, or in one checksummed pass
//!   ([`PostingsStream`]).
//! * [`builder`] — the paper's "generate postings, sort, construct" final
//!   pass, twice: [`CountedPostings`] for a dictionary known in advance
//!   (one exact-size buffer filled by key index, by several scans at once
//!   over consecutive key ranges), and [`IndexBuilder`]
//!   for an arbitrary `(gram, doc)` stream (sorted runs spilled to disk
//!   and merged).

#![forbid(unsafe_code)]

pub mod blocked;
pub mod builder;
pub mod cursor;
pub mod error;
pub mod format;
pub mod instrument;
pub mod keys;
pub mod memindex;
pub mod ops;
pub mod postings;
pub mod stats;
pub mod varint;

pub use blocked::{BlockedCursor, BlockedPostings};
pub use builder::{CountedPostings, CountedRange, IndexBuilder};
pub use cursor::{CursorStats, PostingsCursor, SliceCursor};
pub use error::{Error, Result};
pub use format::{IndexReader, IndexWriter, PostingsStream, VerifyIssue, VerifyIssueKind};
pub use instrument::{InstrumentedCursor, OpCounters};
pub use keys::{KeyDirectory, Keys};
pub use memindex::MemIndex;
pub use ops::{AndCursor, OrCursor};
pub use postings::{Postings, PostingsBuilder};
pub use stats::IndexStats;

/// Document identifier (matches `free-corpus`'s `DocId`).
pub type DocId = u32;

/// A gram key: an arbitrary byte string.
pub type Key = Box<[u8]>;

/// Read access to an index: key lookup plus directory enumeration.
///
/// Both [`MemIndex`] and [`IndexReader`] implement this, so the engine's
/// planner and executor are storage-agnostic.
pub trait IndexRead {
    /// Number of keys in the directory.
    fn num_keys(&self) -> usize;

    /// Whether `key` is present.
    fn contains_key(&self, key: &[u8]) -> bool;

    /// Number of documents in `key`'s postings list, if present. This is
    /// the planner's selectivity estimate and must not require decoding
    /// the postings.
    fn doc_count(&self, key: &[u8]) -> Option<usize>;

    /// Decodes the postings for `key` into sorted doc ids.
    fn postings(&self, key: &[u8]) -> Result<Option<Vec<DocId>>>;

    /// Visits every key in lexicographic order.
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8]));

    /// Index size statistics.
    fn stats(&self) -> IndexStats;

    /// Opens a primed streaming cursor over `key`'s postings, or `None`
    /// if the key is absent.
    ///
    /// The default implementation decodes the whole list into a
    /// [`SliceCursor`]; storage formats with skip structure (the blocked
    /// on-disk format) override this to seek without full decoding.
    fn cursor(&self, key: &[u8]) -> Result<Option<Box<dyn PostingsCursor>>> {
        Ok(self
            .postings(key)?
            .map(|docs| Box::new(SliceCursor::new(docs)) as Box<dyn PostingsCursor>))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let mut idx = MemIndex::new();
        idx.add(b"gram", 1);
        let r: &dyn IndexRead = &idx;
        assert_eq!(r.num_keys(), 1);
        assert!(r.contains_key(b"gram"));
        assert_eq!(r.doc_count(b"gram"), Some(1));
    }
}
