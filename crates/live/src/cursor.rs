//! The cursor adapter that maps per-source candidate streams into the
//! sequence-number space.
//!
//! Each source (sealed segment or write buffer) compiles the physical
//! plan into a [`PostingsCursor`] over *local* doc ids. [`SourceCursor`]
//! drops the ids the source's dead bitmap ([`DeadBits`]) marks deleted,
//! with one bit test per candidate, and translates the rest to sequence
//! numbers ([`Seqs`]: a segment's strictly ascending sequence map, or the
//! write buffer's base offset). The adapted streams obey the cursor
//! contract in the sequence space, so they compose directly under one
//! engine `OrCursor` k-way merge.

use crate::dead::DeadBits;
use free_corpus::DocId;
use free_index::cursor::{CursorStats, PostingsCursor};
use free_index::Result;
use std::sync::Arc;

/// Advances `inner` past the dead local ids it stands on; returns the
/// live one it stops at.
fn skip_dead(inner: &mut dyn PostingsCursor, dead: &DeadBits) -> Result<Option<DocId>> {
    while let Some(local) = inner.current() {
        if !dead.contains(local as usize) {
            return Ok(Some(local));
        }
        inner.advance()?;
    }
    Ok(None)
}

/// How one source's local ids map to sequence numbers.
pub(crate) enum Seqs {
    /// A segment's strictly ascending sequence map.
    Map(Arc<Vec<DocId>>),
    /// The write buffer: local id `i` is sequence `base + i`.
    From(DocId),
}

impl Seqs {
    fn of(&self, local: DocId) -> DocId {
        match self {
            Seqs::Map(seqs) => seqs[local as usize],
            Seqs::From(base) => base + local,
        }
    }

    /// The least local id whose sequence is `>= seq`.
    fn local_of(&self, seq: DocId) -> DocId {
        match self {
            Seqs::Map(seqs) => seqs.partition_point(|&s| s < seq) as DocId,
            Seqs::From(base) => seq.saturating_sub(*base),
        }
    }
}

/// Maps a source-local cursor into sequence numbers through the source's
/// [`Seqs`], skipping its dead documents. The map is strictly ascending,
/// so the mapped stream is too, and `seek` stays monotone.
pub(crate) struct SourceCursor {
    inner: Box<dyn PostingsCursor>,
    seqs: Seqs,
    dead: DeadBits,
}

impl SourceCursor {
    /// Wraps `inner` (yielding local ids of the source `seqs` maps),
    /// hiding the ids in `dead`. The returned cursor is primed past any
    /// leading dead id.
    pub(crate) fn new(
        inner: Box<dyn PostingsCursor>,
        seqs: Seqs,
        dead: DeadBits,
    ) -> Result<SourceCursor> {
        let mut c = SourceCursor { inner, seqs, dead };
        skip_dead(&mut *c.inner, &c.dead)?;
        Ok(c)
    }

    fn map(&self, local: Option<DocId>) -> Option<DocId> {
        local.map(|l| self.seqs.of(l))
    }
}

impl PostingsCursor for SourceCursor {
    fn current(&self) -> Option<DocId> {
        self.map(self.inner.current())
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        self.inner.advance()?;
        let next = skip_dead(&mut *self.inner, &self.dead)?;
        Ok(self.map(next))
    }

    fn seek(&mut self, target: DocId) -> Result<Option<DocId>> {
        let local_target = self.seqs.local_of(target);
        self.inner.seek(local_target)?;
        let landed = skip_dead(&mut *self.inner, &self.dead)?;
        Ok(self.map(landed))
    }

    fn cost_estimate(&self) -> usize {
        self.inner.cost_estimate()
    }

    fn collect_stats(&self, out: &mut CursorStats) {
        self.inner.collect_stats(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_index::SliceCursor;

    fn drain(mut c: impl PostingsCursor) -> Vec<DocId> {
        let mut out = Vec::new();
        while let Some(d) = c.current() {
            out.push(d);
            c.advance().unwrap();
        }
        out
    }

    fn dead(locals: &[usize]) -> DeadBits {
        let mut dead = DeadBits::default();
        for &l in locals {
            dead.insert(l);
        }
        dead
    }

    #[test]
    fn seq_map_translates_and_seeks() {
        let seqs = Arc::new(vec![10, 14, 15, 22, 30]);
        let inner = Box::new(SliceCursor::new(vec![0, 2, 4]));
        let mut c = SourceCursor::new(inner, Seqs::Map(seqs.clone()), dead(&[])).unwrap();
        assert_eq!(c.current(), Some(10));
        assert_eq!(c.seek(15).unwrap(), Some(15));
        assert_eq!(c.seek(16).unwrap(), Some(30));
        assert_eq!(c.advance().unwrap(), None);

        let inner = Box::new(SliceCursor::new(vec![0, 2, 4]));
        let c = SourceCursor::new(inner, Seqs::Map(seqs), dead(&[])).unwrap();
        assert_eq!(drain(c), vec![10, 15, 30]);
    }

    #[test]
    fn offset_shifts() {
        let inner = Box::new(SliceCursor::new(vec![0, 1, 3]));
        let mut c = SourceCursor::new(inner, Seqs::From(100), dead(&[])).unwrap();
        assert_eq!(c.current(), Some(100));
        assert_eq!(c.seek(101).unwrap(), Some(101));
        assert_eq!(c.advance().unwrap(), Some(103));
        // Seeking below the base is a no-op (never moves backwards).
        assert_eq!(c.seek(5).unwrap(), Some(103));
    }

    /// The adapter over a segment and over a write buffer whose local id
    /// `l` is sequence `100 + l`, yielding the local ids `ids` minus
    /// `dead_ids`.
    fn adapters(ids: &[DocId], dead_ids: &[usize]) -> [Box<dyn PostingsCursor>; 2] {
        let inner = || Box::new(SliceCursor::new(ids.to_vec()));
        let seqs = Arc::new((100..200).collect());
        [
            Box::new(SourceCursor::new(inner(), Seqs::Map(seqs), dead(dead_ids)).unwrap()),
            Box::new(SourceCursor::new(inner(), Seqs::From(100), dead(dead_ids)).unwrap()),
        ]
    }

    /// A leading dead id is skipped at construction, and a `seek` that
    /// lands on a dead id moves on to the next live one.
    #[test]
    fn tombstones_are_skipped() {
        for c in adapters(&[1, 2, 3, 5, 8], &[1, 3, 8]) {
            assert_eq!(c.current(), Some(102));
            assert_eq!(drain(c), vec![102, 105]);
        }
        for mut c in adapters(&[1, 2, 3, 5, 8], &[1, 3, 8]) {
            assert_eq!(c.seek(103).unwrap(), Some(105));
            assert_eq!(c.advance().unwrap(), None);
        }
    }

    #[test]
    fn all_tombstoned_is_empty() {
        for c in adapters(&[4, 7], &[4, 7]) {
            assert_eq!(c.current(), None);
        }
    }
}
