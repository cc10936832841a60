//! Cursor adapters that lift per-source candidate streams into the
//! global sequence-number space.
//!
//! Each source (sealed segment or write buffer) compiles its physical
//! plan into a [`PostingsCursor`] over *local* doc ids. These adapters
//! drop the ids the source's dead bitmap ([`DeadBits`]) marks deleted,
//! with one bit test per candidate, and translate the rest to global
//! sequence numbers — [`SeqMapCursor`] through a segment's strictly
//! ascending sequence map, [`OffsetCursor`] by the write buffer's base
//! offset — so the adapted streams obey the cursor contract in the
//! global space and compose directly under the engine's `OrCursor` k-way
//! merge.

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

/// Maps a segment-local cursor into global sequence numbers via the
/// segment's sequence map, skipping its dead documents. Strict ascent of
/// the map makes the mapped stream strictly ascending, and
/// `partition_point` keeps `seek` monotone.
pub(crate) struct SeqMapCursor {
    inner: Box<dyn PostingsCursor>,
    seqs: Arc<Vec<DocId>>,
    dead: DeadBits,
}

impl SeqMapCursor {
    /// Wraps `inner` (yielding local ids `< seqs.len()`), hiding the ids
    /// in `dead`. The returned cursor is primed past any leading dead id.
    pub(crate) fn new(
        inner: Box<dyn PostingsCursor>,
        seqs: Arc<Vec<DocId>>,
        dead: DeadBits,
    ) -> Result<SeqMapCursor> {
        let mut c = SeqMapCursor { inner, seqs, dead };
        skip_dead(&mut *c.inner, &c.dead)?;
        Ok(c)
    }

    fn map(&self, local: Option<DocId>) -> Option<DocId> {
        local.map(|l| self.seqs[l as usize])
    }
}

impl PostingsCursor for SeqMapCursor {
    fn current(&self) -> Option<DocId> {
        self.map(self.inner.current())
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        self.inner.advance()?;
        let next = skip_dead(&mut *self.inner, &self.dead)?;
        Ok(self.map(next))
    }

    fn seek(&mut self, target: DocId) -> Result<Option<DocId>> {
        let local_target = self.seqs.partition_point(|&s| s < target);
        self.inner.seek(local_target as DocId)?;
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

/// Shifts a write-buffer cursor by the buffer's base sequence number
/// (buffer doc `i` has sequence `base + i`), skipping its dead documents.
pub(crate) struct OffsetCursor {
    inner: Box<dyn PostingsCursor>,
    base: DocId,
    dead: DeadBits,
}

impl OffsetCursor {
    /// Wraps `inner`, offsetting every id by `base` and hiding the ids in
    /// `dead`. The returned cursor is primed past any leading dead id.
    pub(crate) fn new(
        inner: Box<dyn PostingsCursor>,
        base: DocId,
        dead: DeadBits,
    ) -> Result<OffsetCursor> {
        let mut c = OffsetCursor { inner, base, dead };
        skip_dead(&mut *c.inner, &c.dead)?;
        Ok(c)
    }
}

impl PostingsCursor for OffsetCursor {
    fn current(&self) -> Option<DocId> {
        self.inner.current().map(|l| l + self.base)
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        self.inner.advance()?;
        Ok(skip_dead(&mut *self.inner, &self.dead)?.map(|l| l + self.base))
    }

    fn seek(&mut self, target: DocId) -> Result<Option<DocId>> {
        self.inner.seek(target.saturating_sub(self.base))?;
        Ok(skip_dead(&mut *self.inner, &self.dead)?.map(|l| l + self.base))
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
        let mut c = SeqMapCursor::new(inner, seqs.clone(), dead(&[])).unwrap();
        assert_eq!(c.current(), Some(10));
        assert_eq!(c.seek(15).unwrap(), Some(15));
        assert_eq!(c.seek(16).unwrap(), Some(30));
        assert_eq!(c.advance().unwrap(), None);

        let inner = Box::new(SliceCursor::new(vec![0, 2, 4]));
        let c = SeqMapCursor::new(inner, seqs, dead(&[])).unwrap();
        assert_eq!(drain(c), vec![10, 15, 30]);
    }

    #[test]
    fn offset_shifts() {
        let inner = Box::new(SliceCursor::new(vec![0, 1, 3]));
        let mut c = OffsetCursor::new(inner, 100, dead(&[])).unwrap();
        assert_eq!(c.current(), Some(100));
        assert_eq!(c.seek(101).unwrap(), Some(101));
        assert_eq!(c.advance().unwrap(), Some(103));
        // Seeking below the base is a no-op (never moves backwards).
        assert_eq!(c.seek(5).unwrap(), Some(103));
    }

    /// Both adapters over a source whose local id `l` is sequence
    /// `100 + l`, yielding the local ids `ids` minus `dead_ids`.
    fn adapters(ids: &[DocId], dead_ids: &[usize]) -> [Box<dyn PostingsCursor>; 2] {
        let inner = || Box::new(SliceCursor::new(ids.to_vec()));
        let seqs = Arc::new((100..200).collect());
        [
            Box::new(SeqMapCursor::new(inner(), seqs, dead(dead_ids)).unwrap()),
            Box::new(OffsetCursor::new(inner(), 100, dead(dead_ids)).unwrap()),
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
