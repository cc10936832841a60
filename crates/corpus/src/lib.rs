//! Corpus substrate for the FREE regular expression indexing engine.
//!
//! The paper's experiments run over 700,000 web pages crawled in 1999
//! (4.5 GB). This crate provides the two things FREE needs from that
//! dataset:
//!
//! 1. **A data-unit store** — the paper partitions raw text into *data
//!    units* (web pages). [`DiskCorpus`] persists data units in a segmented
//!    on-disk layout (a data file plus an offset table) with buffered
//!    sequential scans and random access by [`DocId`]; [`MemCorpus`] is the
//!    in-memory equivalent for tests and small experiments. Both implement
//!    [`Corpus`].
//!
//! 2. **A synthetic web corpus** — the original crawl is unavailable, so
//!    [`synth`] generates deterministic HTML-like pages whose feature
//!    frequencies (MP3 anchors, `<script>` blocks, e-mail addresses, phone
//!    numbers, ZIP codes, product mentions, …) are tuned so the paper's ten
//!    benchmark queries span the same selectivity spectrum as reported in
//!    the evaluation section.

#![forbid(unsafe_code)]

pub mod error;
pub mod fscorpus;
pub mod memory;
pub mod store;
pub mod synth;

pub use error::{Error, Result};
pub use fscorpus::FsCorpus;
pub use memory::MemCorpus;
pub use store::{CorpusWriter, DiskCorpus};

use std::ops::Range;

/// Identifier of a data unit within a corpus: a dense index starting at 0,
/// assigned in insertion order.
pub type DocId = u32;

/// Read access to a corpus of data units.
///
/// The two access patterns FREE uses map directly onto the trait: full
/// sequential scans (index construction; the "Scan" baseline) and reads
/// of candidate data units (the confirmation step after an index
/// lookup), a sorted list of them at a time ([`Corpus::get_sorted`]), so
/// a store can read candidates that lie close together the way a scan
/// reads: one read per run of them.
///
/// `Sync` is a supertrait because the engine's parallel confirmation
/// stage fans [`Corpus::get_sorted`] and [`Corpus::scan_range`] calls
/// out to worker threads sharing one `&C`; implementations must use
/// positioned reads or per-call handles rather than shared seek state.
pub trait Corpus: Sync {
    /// Number of data units.
    fn len(&self) -> usize;

    /// Whether the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of all data units in bytes (the paper's `|D|`).
    fn total_bytes(&self) -> u64;

    /// Reads one data unit into a freshly allocated buffer.
    fn get(&self, id: DocId) -> Result<Vec<u8>>;

    /// Hands `f` the data units `ids`, in the order given, until it
    /// returns `false`: what a [`Corpus::get`] per id would read, and an
    /// id that `get` refuses ends the read with `get`'s error after the
    /// ids before it. `ids` should be ascending; the stores that read
    /// runs of them ([`DiskCorpus`], the live view) read any other order
    /// correctly, one id per read. The default calls `get`.
    fn get_sorted(&self, ids: &[DocId], f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> Result<()> {
        for &id in ids {
            if !f(id, &self.get(id)?) {
                break;
            }
        }
        Ok(())
    }

    /// Sequentially visits the data units whose position in scan order
    /// lies in `positions` (clamped to `0..len`), in id order, so threads
    /// that split one pass into ranges each read only their own.
    /// Implementations stream with buffered I/O; the callback returning
    /// `false` stops the scan early (used by first-k result queries).
    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> Result<()>;

    /// [`Corpus::scan_range`] over every data unit.
    fn scan(&self, f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> Result<()> {
        self.scan_range(0..self.len(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let c = MemCorpus::from_docs(vec![b"one".to_vec(), b"two".to_vec()]);
        let dyn_c: &dyn Corpus = &c;
        assert_eq!(dyn_c.len(), 2);
        assert!(!dyn_c.is_empty());
        assert_eq!(dyn_c.total_bytes(), 6);
    }
}
