//! Blocked postings with skip pointers.
//!
//! Delta-varint postings must be decoded sequentially, so intersecting a
//! rare list (a few documents) with a common one (most of the corpus)
//! wastes time decoding postings that can never match. Blocking fixes
//! this: postings are encoded in fixed-size blocks, and a small skip
//! table records each block's last document id and byte extent. An
//! intersection probes the skip table (binary search) and decodes only
//! the blocks that can contain candidates — the classic inverted-index
//! skip-pointer design, here as the optional fast path for the engine's
//! `Fetch` intersections.

use crate::cursor::{CursorStats, PostingsCursor};
use crate::postings::Postings;
use crate::{varint, DocId, Error, Result};
use std::borrow::Borrow;

/// Number of postings per block. 128 balances skip granularity against
/// table overhead (~1.6 % at 2 bytes/posting).
pub const BLOCK_SIZE: usize = 128;

/// One skip-table entry.
#[derive(Clone, Copy, Debug)]
struct Skip {
    /// Last (largest) doc id in the block.
    last_doc: DocId,
    /// Byte offset of the block in the encoded stream.
    offset: u32,
    /// Number of postings in the block.
    len: u16,
}

/// An immutable postings list with a block-level skip table.
#[derive(Clone, Debug)]
pub struct BlockedPostings {
    encoded: Vec<u8>,
    skips: Vec<Skip>,
    count: u32,
}

impl BlockedPostings {
    /// Builds from sorted, deduplicated doc ids.
    // `expect`: `chunks()` never yields an empty block.
    #[allow(clippy::expect_used)]
    pub fn from_sorted(ids: &[DocId]) -> BlockedPostings {
        let mut encoded = Vec::with_capacity(ids.len());
        let mut skips = Vec::with_capacity(ids.len().div_ceil(BLOCK_SIZE));
        for block in ids.chunks(BLOCK_SIZE) {
            let offset = encoded.len() as u32;
            // Each block restarts delta coding from an absolute id, so
            // blocks are independently decodable.
            let mut prev = None;
            for &id in block {
                match prev {
                    None => varint::encode(u64::from(id), &mut encoded),
                    Some(p) => {
                        debug_assert!(id > p, "ids must be strictly increasing");
                        varint::encode(u64::from(id - p), &mut encoded)
                    }
                };
                prev = Some(id);
            }
            skips.push(Skip {
                last_doc: *block.last().expect("chunks are non-empty"),
                offset,
                len: block.len() as u16,
            });
        }
        BlockedPostings {
            encoded,
            skips,
            count: ids.len() as u32,
        }
    }

    /// Converts from a plain postings list (decodes once).
    pub fn from_postings(p: &Postings) -> Result<BlockedPostings> {
        Ok(BlockedPostings::from_sorted(&p.decode()?))
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of blocks (= skip entries).
    pub fn num_blocks(&self) -> usize {
        self.skips.len()
    }

    /// Encoded payload size in bytes (excluding the skip table).
    pub fn encoded_len(&self) -> usize {
        self.encoded.len()
    }

    /// Decodes everything (for tests and full unions).
    pub fn decode(&self) -> Result<Vec<DocId>> {
        let mut out = Vec::with_capacity(self.count as usize);
        self.decode_into(&mut out)?;
        Ok(out)
    }

    /// Appends every id, in order, to `out`.
    pub(crate) fn decode_into(&self, out: &mut Vec<DocId>) -> Result<()> {
        (0..self.skips.len()).try_for_each(|i| self.decode_block(i, out))
    }

    fn block_bytes(&self, i: usize) -> &[u8] {
        let start = self.skips[i].offset as usize;
        let end = self
            .skips
            .get(i + 1)
            .map_or(self.encoded.len(), |s| s.offset as usize);
        &self.encoded[start..end]
    }

    fn decode_block(&self, i: usize, out: &mut Vec<DocId>) -> Result<()> {
        let mut buf = self.block_bytes(i);
        let mut current = 0u64;
        for j in 0..self.skips[i].len {
            let (delta, used) = varint::decode(buf)?;
            buf = &buf[used..];
            current = if j == 0 { delta } else { current + delta };
            if current > u64::from(DocId::MAX) {
                return Err(Error::Corrupt("doc id overflows u32".into()));
            }
            out.push(current as DocId);
        }
        Ok(())
    }

    /// Whether `doc` is in the list, decoding at most one block.
    pub fn contains(&self, doc: DocId) -> Result<bool> {
        let block = self.skips.partition_point(|s| s.last_doc < doc);
        if block >= self.skips.len() {
            return Ok(false);
        }
        let mut ids = Vec::with_capacity(self.skips[block].len as usize);
        self.decode_block(block, &mut ids)?;
        Ok(ids.binary_search(&doc).is_ok())
    }

    /// Returns a primed [`BlockedCursor`] borrowing this list.
    pub fn cursor(&self) -> Result<BlockedCursor<&BlockedPostings>> {
        BlockedCursor::new(self)
    }

    /// Returns a primed [`BlockedCursor`] that owns this list.
    pub fn into_cursor(self) -> Result<BlockedCursor<BlockedPostings>> {
        BlockedCursor::new(self)
    }

    /// Serializes the list (skip table + encoded payload) into `out`.
    ///
    /// Layout: `count`, `payload_len`, `num_skips`, then per skip entry
    /// `last_doc`/`offset`/`len`, then the payload bytes — all integers
    /// LEB128. Used by the on-disk format's blocked postings entries.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        varint::encode(u64::from(self.count), out);
        varint::encode(self.encoded.len() as u64, out);
        varint::encode(self.skips.len() as u64, out);
        for s in &self.skips {
            varint::encode(u64::from(s.last_doc), out);
            varint::encode(u64::from(s.offset), out);
            varint::encode(u64::from(s.len), out);
        }
        out.extend_from_slice(&self.encoded);
    }

    /// Deserializes a list written by [`BlockedPostings::write_to`]. The
    /// slice must contain exactly one serialized list.
    pub fn read(mut buf: &[u8]) -> Result<BlockedPostings> {
        let mut take = |what: &'static str| -> Result<u64> {
            let (v, used) = varint::decode(buf)
                .map_err(|_| Error::Corrupt(format!("blocked postings: bad {what}")))?;
            buf = &buf[used..];
            Ok(v)
        };
        let count = take("count")?;
        let payload_len = take("payload length")? as usize;
        let num_skips = take("skip count")? as usize;
        if count > u64::from(u32::MAX) || num_skips > count as usize {
            return Err(Error::Corrupt("blocked postings: bad header".into()));
        }
        let mut skips: Vec<Skip> = Vec::with_capacity(num_skips);
        for i in 0..num_skips {
            let last_doc = take("skip last_doc")?;
            let offset = take("skip offset")?;
            let len = take("skip len")?;
            if last_doc > u64::from(DocId::MAX)
                || offset > u64::from(u32::MAX)
                || len == 0
                || len > BLOCK_SIZE as u64
            {
                return Err(Error::Corrupt("blocked postings: bad skip entry".into()));
            }
            // Offsets must start at 0, ascend strictly, and stay inside
            // the payload, or block slicing would be out of bounds.
            let expected_floor = if i == 0 {
                0
            } else {
                u64::from(skips[i - 1].offset) + 1
            };
            if (i == 0 && offset != 0) || offset < expected_floor || offset as usize >= payload_len
            {
                return Err(Error::Corrupt(
                    "blocked postings: skip offset out of bounds".into(),
                ));
            }
            skips.push(Skip {
                last_doc: last_doc as DocId,
                offset: offset as u32,
                len: len as u16,
            });
        }
        if buf.len() != payload_len {
            return Err(Error::Corrupt("blocked postings: payload length".into()));
        }
        Ok(BlockedPostings {
            encoded: buf.to_vec(),
            skips,
            count: count as u32,
        })
    }

    /// Deep structural validation for `free fsck`: decodes every block
    /// and cross-checks the skip table against the decoded contents —
    /// per-block doc ids strictly ascending, ascent maintained across
    /// block boundaries, each skip entry's `last_doc` equal to its
    /// block's actual last id, and the block lengths summing to the
    /// stored count. Returns the first inconsistency as `Err(Corrupt)`.
    pub fn validate(&self) -> Result<()> {
        let corrupt = |msg: String| Err(Error::Corrupt(format!("blocked postings: {msg}")));
        let mut total = 0usize;
        let mut prev: Option<DocId> = None;
        for (i, s) in self.skips.iter().enumerate() {
            let mut ids = Vec::with_capacity(s.len as usize);
            self.decode_block(i, &mut ids)?;
            if ids.len() != s.len as usize {
                return corrupt(format!(
                    "block {i} decodes {} postings, skip table says {}",
                    ids.len(),
                    s.len
                ));
            }
            for &id in &ids {
                if prev.is_some_and(|p| id <= p) {
                    return corrupt(format!("doc ids not strictly ascending in block {i}"));
                }
                prev = Some(id);
            }
            if ids.last() != Some(&s.last_doc) {
                return corrupt(format!(
                    "block {i} ends at doc {:?}, skip table says {}",
                    ids.last(),
                    s.last_doc
                ));
            }
            total += ids.len();
        }
        if total != self.count as usize {
            return corrupt(format!(
                "blocks hold {total} postings, header says {}",
                self.count
            ));
        }
        Ok(())
    }

    /// Intersects a (typically short) sorted probe list against this
    /// list, decoding only the blocks that contain probe candidates.
    /// Returns the matching ids plus the number of blocks decoded (for
    /// cost accounting and benches).
    pub fn intersect_sorted(&self, probes: &[DocId]) -> Result<(Vec<DocId>, usize)> {
        let mut out = Vec::new();
        let mut decoded: Vec<DocId> = Vec::new();
        let mut decoded_block = usize::MAX;
        let mut blocks_decoded = 0;
        for &p in probes {
            let block = self.skips.partition_point(|s| s.last_doc < p);
            if block >= self.skips.len() {
                break;
            }
            if block != decoded_block {
                decoded.clear();
                self.decode_block(block, &mut decoded)?;
                decoded_block = block;
                blocks_decoded += 1;
            }
            if decoded.binary_search(&p).is_ok() {
                out.push(p);
            }
        }
        Ok((out, blocks_decoded))
    }
}

/// A [`PostingsCursor`] over a [`BlockedPostings`] list.
///
/// `seek` binary-searches the skip table and decodes only the target
/// block; whole blocks passed over are charged to `postings_skipped`
/// without ever being decoded. Generic over [`Borrow`] so it can either
/// borrow a cached list (`&BlockedPostings`) or own one read from disk.
#[derive(Clone, Debug)]
pub struct BlockedCursor<B: Borrow<BlockedPostings> = BlockedPostings> {
    inner: B,
    /// Index of the decoded block (meaningless when `buf` is empty).
    block: usize,
    /// Decoded contents of `block`.
    buf: Vec<DocId>,
    /// Position within `buf`; `pos == buf.len()` means exhausted.
    pos: usize,
    /// Postings logically before the current position (yielded or skipped).
    consumed: usize,
    stats: CursorStats,
}

impl<B: Borrow<BlockedPostings>> BlockedCursor<B> {
    /// Creates a primed cursor: positioned on the first posting (the
    /// first block is decoded eagerly), or exhausted for an empty list.
    pub fn new(inner: B) -> Result<BlockedCursor<B>> {
        let mut cursor = BlockedCursor {
            inner,
            block: 0,
            buf: Vec::new(),
            pos: 0,
            consumed: 0,
            stats: CursorStats::default(),
        };
        if cursor.list().num_blocks() > 0 {
            cursor.load_block(0)?;
        }
        Ok(cursor)
    }

    fn list(&self) -> &BlockedPostings {
        self.inner.borrow()
    }

    fn load_block(&mut self, i: usize) -> Result<()> {
        self.buf.clear();
        self.inner.borrow().decode_block(i, &mut self.buf)?;
        self.block = i;
        self.pos = 0;
        self.stats.blocks_decoded += 1;
        self.stats.postings_decoded += self.buf.len() as u64;
        Ok(())
    }
}

impl<B: Borrow<BlockedPostings> + Send> PostingsCursor for BlockedCursor<B> {
    fn current(&self) -> Option<DocId> {
        self.buf.get(self.pos).copied()
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        if self.pos < self.buf.len() {
            self.pos += 1;
            self.consumed += 1;
            if self.pos >= self.buf.len() {
                let next = self.block + 1;
                if next < self.list().num_blocks() {
                    self.load_block(next)?;
                }
            }
        }
        Ok(self.current())
    }

    fn seek(&mut self, target: DocId) -> Result<Option<DocId>> {
        self.stats.seeks += 1;
        match self.current() {
            None => return Ok(None),
            Some(d) if d >= target => return Ok(Some(d)),
            Some(_) => {}
        }
        // Find the first block whose last doc can reach the target.
        let skips = &self.list().skips;
        let dest = self.block + skips[self.block..].partition_point(|s| s.last_doc < target);
        if dest != self.block {
            // The rest of the decoded block plus every block in between
            // is skipped; intermediate blocks are never decoded.
            let mut skipped = self.buf.len() - self.pos;
            for s in &self.list().skips[self.block + 1..dest.min(skips.len())] {
                skipped += s.len as usize;
            }
            self.stats.postings_skipped += skipped as u64;
            self.consumed += skipped;
            if dest >= self.list().num_blocks() {
                self.pos = self.buf.len();
                return Ok(None);
            }
            self.load_block(dest)?;
        }
        // `dest`'s last doc is >= target, so the in-block search hits.
        let idx = self.pos + self.buf[self.pos..].partition_point(|&d| d < target);
        self.stats.postings_skipped += (idx - self.pos) as u64;
        self.consumed += idx - self.pos;
        self.pos = idx;
        Ok(self.current())
    }

    fn cost_estimate(&self) -> usize {
        self.list().len().saturating_sub(self.consumed)
    }

    fn collect_stats(&self, out: &mut CursorStats) {
        out.merge(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small() {
        let ids = vec![3, 7, 100, 1_000];
        let b = BlockedPostings::from_sorted(&ids);
        assert_eq!(b.len(), 4);
        assert_eq!(b.num_blocks(), 1);
        assert_eq!(b.decode().unwrap(), ids);
    }

    #[test]
    fn roundtrip_multiblock() {
        let ids: Vec<DocId> = (0..1000).map(|i| i * 3).collect();
        let b = BlockedPostings::from_sorted(&ids);
        assert_eq!(b.num_blocks(), 1000usize.div_ceil(BLOCK_SIZE));
        assert_eq!(b.decode().unwrap(), ids);
    }

    #[test]
    fn empty() {
        let b = BlockedPostings::from_sorted(&[]);
        assert!(b.is_empty());
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.decode().unwrap(), Vec::<DocId>::new());
        assert!(!b.contains(5).unwrap());
        assert_eq!(b.intersect_sorted(&[1, 2]).unwrap().0, Vec::<DocId>::new());
    }

    #[test]
    fn contains_probes_one_block() {
        let ids: Vec<DocId> = (0..500).map(|i| i * 2).collect();
        let b = BlockedPostings::from_sorted(&ids);
        assert!(b.contains(0).unwrap());
        assert!(b.contains(998).unwrap());
        assert!(!b.contains(999).unwrap());
        assert!(!b.contains(5_000).unwrap());
    }

    #[test]
    fn intersect_skips_blocks() {
        let long: Vec<DocId> = (0..10_000).collect();
        let b = BlockedPostings::from_sorted(&long);
        let probes = vec![5, 9_000, 9_001, 20_000];
        let (hits, blocks) = b.intersect_sorted(&probes).unwrap();
        assert_eq!(hits, vec![5, 9_000, 9_001]);
        // Only two distinct blocks needed (ids 5 and 9000/9001), out of ~78.
        assert_eq!(blocks, 2);
        assert!(b.num_blocks() > 70);
    }

    #[test]
    fn intersect_matches_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..50 {
            let mut long: Vec<DocId> = (0..rng.gen_range(0..800))
                .map(|_| rng.gen_range(0..3_000))
                .collect();
            long.sort_unstable();
            long.dedup();
            let mut probes: Vec<DocId> = (0..rng.gen_range(0..40))
                .map(|_| rng.gen_range(0..3_500))
                .collect();
            probes.sort_unstable();
            probes.dedup();
            let b = BlockedPostings::from_sorted(&long);
            let want = crate::ops::intersect(&probes, &long);
            assert_eq!(b.intersect_sorted(&probes).unwrap().0, want);
        }
    }

    #[test]
    fn from_postings_conversion() {
        let p = Postings::from_sorted(&[1, 5, 9]);
        let b = BlockedPostings::from_postings(&p).unwrap();
        assert_eq!(b.decode().unwrap(), vec![1, 5, 9]);
    }

    #[test]
    fn serialization_roundtrip() {
        for n in [0usize, 1, 5, BLOCK_SIZE, BLOCK_SIZE + 1, 1000] {
            let ids: Vec<DocId> = (0..n as DocId).map(|i| i * 7 + 3).collect();
            let b = BlockedPostings::from_sorted(&ids);
            let mut bytes = Vec::new();
            b.write_to(&mut bytes);
            let back = BlockedPostings::read(&bytes).unwrap();
            assert_eq!(back.len(), b.len());
            assert_eq!(back.num_blocks(), b.num_blocks());
            assert_eq!(back.decode().unwrap(), ids);
        }
    }

    #[test]
    fn serialization_rejects_garbage() {
        let b = BlockedPostings::from_sorted(&[1, 2, 3]);
        let mut bytes = Vec::new();
        b.write_to(&mut bytes);
        // Truncated payload.
        assert!(BlockedPostings::read(&bytes[..bytes.len() - 1]).is_err());
        // Trailing junk.
        bytes.push(0);
        assert!(BlockedPostings::read(&bytes).is_err());
        assert!(BlockedPostings::read(&[]).is_err());
    }

    #[test]
    fn validate_accepts_clean_lists() {
        for n in [1usize, BLOCK_SIZE, BLOCK_SIZE * 3 + 7] {
            let ids: Vec<DocId> = (0..n as DocId).map(|i| i * 2 + 1).collect();
            BlockedPostings::from_sorted(&ids).validate().unwrap();
        }
        BlockedPostings::from_sorted(&[]).validate().unwrap();
    }

    #[test]
    fn validate_catches_skip_table_lies() {
        let ids: Vec<DocId> = (0..400).collect();
        // A skip entry whose last_doc disagrees with its block.
        let mut b = BlockedPostings::from_sorted(&ids);
        b.skips[1].last_doc += 1;
        assert!(matches!(b.validate(), Err(Error::Corrupt(_))));
        // A count that disagrees with the blocks.
        let mut b = BlockedPostings::from_sorted(&ids);
        b.count += 1;
        assert!(matches!(b.validate(), Err(Error::Corrupt(_))));
        // Non-ascending ids across a block boundary.
        let mut b = BlockedPostings::from_sorted(&ids);
        b.skips[0].last_doc = 500; // would need block 0 to end past block 1's start
        assert!(matches!(b.validate(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn read_rejects_out_of_bounds_skip_offsets() {
        let ids: Vec<DocId> = (0..400).collect();
        let b = BlockedPostings::from_sorted(&ids);
        let mut clean = Vec::new();
        b.write_to(&mut clean);
        // Re-serialize with a first skip offset that is not 0.
        let mut forged = Vec::new();
        varint::encode(u64::from(b.count), &mut forged);
        varint::encode(b.encoded.len() as u64, &mut forged);
        varint::encode(b.skips.len() as u64, &mut forged);
        for (i, s) in b.skips.iter().enumerate() {
            varint::encode(u64::from(s.last_doc), &mut forged);
            let off = if i == 0 {
                b.encoded.len() as u64 + 100 // past the payload
            } else {
                u64::from(s.offset)
            };
            varint::encode(off, &mut forged);
            varint::encode(u64::from(s.len), &mut forged);
        }
        forged.extend_from_slice(&b.encoded);
        assert!(matches!(
            BlockedPostings::read(&forged),
            Err(Error::Corrupt(_))
        ));
        // The clean serialization still reads fine.
        assert!(BlockedPostings::read(&clean).is_ok());
    }

    #[test]
    fn cursor_walks_all_blocks() {
        use crate::cursor::drain;
        let ids: Vec<DocId> = (0..1000).map(|i| i * 3).collect();
        let b = BlockedPostings::from_sorted(&ids);
        let mut c = b.cursor().unwrap();
        assert_eq!(c.current(), Some(0));
        assert_eq!(c.cost_estimate(), 1000);
        assert_eq!(drain(&mut c).unwrap(), ids);
        let mut s = CursorStats::default();
        c.collect_stats(&mut s);
        assert_eq!(s.blocks_decoded as usize, b.num_blocks());
        assert_eq!(s.postings_decoded, 1000);
        assert_eq!(s.postings_skipped, 0);
    }

    #[test]
    fn cursor_on_empty_list() {
        let b = BlockedPostings::from_sorted(&[]);
        let mut c = b.cursor().unwrap();
        assert_eq!(c.current(), None);
        assert_eq!(c.advance().unwrap(), None);
        assert_eq!(c.seek(10).unwrap(), None);
        assert_eq!(c.cost_estimate(), 0);
    }

    #[test]
    fn cursor_seek_skips_undecoded_blocks() {
        let ids: Vec<DocId> = (0..10_000).collect();
        let b = BlockedPostings::from_sorted(&ids);
        let mut c = b.cursor().unwrap();
        assert_eq!(c.seek(9_000).unwrap(), Some(9_000));
        let mut s = CursorStats::default();
        c.collect_stats(&mut s);
        // Only the first block (priming) and the target block decoded.
        assert_eq!(s.blocks_decoded, 2);
        assert_eq!(s.postings_skipped, 9_000);
        assert!(s.postings_decoded < 3 * BLOCK_SIZE as u64);
        assert_eq!(c.cost_estimate(), 1_000);
        // Seek past the end exhausts; further ops are no-ops.
        assert_eq!(c.seek(20_000).unwrap(), None);
        assert_eq!(c.advance().unwrap(), None);
        assert_eq!(c.seek(1).unwrap(), None);
        assert_eq!(c.cost_estimate(), 0);
    }

    #[test]
    fn cursor_seek_within_block_and_between_values() {
        let ids: Vec<DocId> = (0..500).map(|i| i * 2).collect();
        let b = BlockedPostings::from_sorted(&ids);
        let mut c = b.cursor().unwrap();
        // Target between two present values rounds up.
        assert_eq!(c.seek(3).unwrap(), Some(4));
        // Backward seek is a no-op.
        assert_eq!(c.seek(0).unwrap(), Some(4));
        // Seek to current stays put.
        assert_eq!(c.seek(4).unwrap(), Some(4));
        assert_eq!(c.advance().unwrap(), Some(6));
    }

    #[test]
    fn cursor_matches_slice_cursor_randomized() {
        use crate::cursor::SliceCursor;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        for _ in 0..30 {
            let mut ids: Vec<DocId> = (0..rng.gen_range(0..1200))
                .map(|_| rng.gen_range(0..5_000))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let b = BlockedPostings::from_sorted(&ids);
            let mut blocked = b.cursor().unwrap();
            let mut slice = SliceCursor::new(ids.clone());
            // Interleave random seeks and advances; positions must agree.
            for _ in 0..200 {
                if rng.gen_bool(0.5) {
                    let t = rng.gen_range(0..5_500);
                    assert_eq!(blocked.seek(t).unwrap(), slice.seek(t).unwrap());
                } else {
                    assert_eq!(blocked.advance().unwrap(), slice.advance().unwrap());
                }
                assert_eq!(blocked.current(), slice.current());
            }
        }
    }

    #[test]
    fn owned_cursor_reads_from_disk_shape() {
        // The on-disk path: serialize, read back, cursor owns the list.
        let ids: Vec<DocId> = (0..300).map(|i| i * 5).collect();
        let mut bytes = Vec::new();
        BlockedPostings::from_sorted(&ids).write_to(&mut bytes);
        let mut c = BlockedPostings::read(&bytes)
            .unwrap()
            .into_cursor()
            .unwrap();
        assert_eq!(c.seek(751).unwrap(), Some(755));
        assert_eq!(crate::cursor::drain(&mut c).unwrap().last(), Some(&1495));
    }
}
