//! A [`Corpus`] view over a snapshot of one shard keyed by its
//! sequence numbers, so the engine's confirmation machinery
//! (including parallel confirmation and first-k early exit) runs
//! unchanged against segments plus write buffer.

use crate::dead::DeadBits;
use crate::snapshot::ShardSnapshot;
use free_corpus::{Corpus, DocId};
use std::ops::Range;

/// Read view of one shard at one generation. `get` is keyed by the
/// shard's sequence number; ids with no live document error like any other
/// out-of-range access, and `len` is the live document count.
pub(crate) struct LiveView<'a>(pub &'a ShardSnapshot);

impl Corpus for LiveView<'_> {
    fn len(&self) -> usize {
        self.0.live_docs
    }

    fn total_bytes(&self) -> u64 {
        let s = self.0;
        s.segments.iter().map(|s| s.data_bytes()).sum::<u64>() + s.memtable.bytes()
    }

    fn get(&self, seq: DocId) -> free_corpus::Result<Vec<u8>> {
        let s = self.0;
        match s.live(seq) {
            Some((owner, local)) => s.read(owner, local),
            None => Err(free_corpus::Error::DocOutOfRange {
                id: seq,
                len: s.live_docs,
            }),
        }
    }

    fn scan(&self, f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> free_corpus::Result<()> {
        self.scan_range(0..self.0.live_docs, f)
    }

    /// Positions count live documents in sequence order: each segment's,
    /// then the write buffer's. Reads the segments a range covers front
    /// to back, checking every unit's CRC as [`Corpus::get`] does but
    /// bypassing the segment's fetch cache, which a scan would otherwise
    /// flush of the candidates it holds.
    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> free_corpus::Result<()> {
        let s = self.0;
        let mut skip = positions.start;
        let mut take = positions.end.saturating_sub(positions.start);
        for seg in &s.segments {
            let Some(locals) = live_locals(&seg.dead, seg.seqs.len(), &mut skip, &mut take) else {
                continue;
            };
            let mut stopped = false;
            seg.corpus.scan_checked(locals, &mut |local, bytes| {
                if seg.dead.contains(local as usize) {
                    return true;
                }
                stopped = !f(seg.seqs[local as usize], bytes);
                !stopped
            })?;
            if stopped {
                return Ok(());
            }
        }
        let dead = &s.memtable.dead;
        let locals = live_locals(dead, s.memtable.len(), &mut skip, &mut take);
        for local in locals.unwrap_or_default() {
            let doc = s.memtable.doc(local).unwrap_or_default();
            if !dead.contains(local) && !f(s.wal_base + local as DocId, doc) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// The local ids, out of a source's `len`, that hold its live documents
/// `skip..skip + take` (dead ones may lie between), or `None` when there
/// are none. Counts the source's live documents off `skip`, then those
/// taken off `take`.
fn live_locals(
    dead: &DeadBits,
    len: usize,
    skip: &mut usize,
    take: &mut usize,
) -> Option<Range<usize>> {
    let live = len - dead.count();
    if *skip >= live {
        *skip -= live;
        return None;
    }
    let wanted = (*take).min(live - *skip);
    if wanted == 0 {
        return None;
    }
    let range = dead.nth_live(*skip)..dead.nth_live(*skip + wanted - 1) + 1;
    *skip = 0;
    *take -= wanted;
    Some(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Shard;
    use crate::LiveConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What `scan_range(positions)` visits, stopping after `stop` units.
    fn visited(view: &LiveView<'_>, positions: Range<usize>, stop: usize) -> Vec<(DocId, Vec<u8>)> {
        let mut seen = Vec::new();
        view.scan_range(positions, &mut |seq, bytes| {
            seen.push((seq, bytes.to_vec()));
            seen.len() < stop
        })
        .unwrap();
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Over segments flushed at random points, random deletes (in the
        /// segments and in the write buffer, each some stages after its
        /// document was added, so a flush may seal past one), an optional
        /// compaction and a buffer that may be empty, `scan_range` visits
        /// exactly the live documents at those positions of a full pass,
        /// for empty and reversed ranges, ranges past the end, and
        /// visitors that stop early.
        #[test]
        fn scan_range_is_scan_and_skip(
            sizes in prop::collection::vec(0usize..60, 1..60),
            flushes in prop::collection::btree_set(0usize..60, 0..4),
            dead in prop::collection::vec((0u32..60, 0usize..3), 0..20),
            compact_after in 0usize..8,
            ranges in prop::collection::vec((0usize..70, 0usize..70, 1usize..70), 1..8),
        ) {
            static DIRS: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "free-live-view-range-{}-{}",
                std::process::id(),
                DIRS.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut shard = Shard::create(&dir, LiveConfig::default()).unwrap();
            let docs: Vec<Vec<u8>> = (sizes.iter().enumerate())
                .map(|(i, &len)| format!("doc {i} {}", "x".repeat(len)).into_bytes())
                .collect();
            let dead: BTreeMap<DocId, usize> =
                dead.into_iter().filter(|&(seq, _)| (seq as usize) < docs.len()).collect();
            // Stage `i` adds the documents up to `ends[i]`, deletes, then
            // flushes unless it is the last, and compacts if it is stage
            // `compact_after` (about half the cases name no stage).
            let mut ends: Vec<usize> =
                flushes.into_iter().filter(|&at| at > 0 && at < docs.len()).collect();
            ends.push(docs.len());
            let stage_of = |seq: DocId| ends.partition_point(|&end| end <= seq as usize);
            let mut from = 0;
            for (stage, &end) in ends.iter().enumerate() {
                shard.add_batch_deferred(&docs[from..end]).unwrap();
                from = end;
                for (&seq, &delay) in &dead {
                    if (stage_of(seq) + delay).min(ends.len() - 1) == stage {
                        shard.delete(seq).unwrap();
                    }
                }
                if stage + 1 < ends.len() {
                    shard.flush().unwrap();
                }
                if compact_after == stage {
                    shard.compact().unwrap();
                }
            }
            let snapshot = shard.snapshot();
            let view = LiveView(&snapshot);
            let live: Vec<(DocId, Vec<u8>)> = (0..docs.len() as DocId)
                .filter(|seq| !dead.contains_key(seq))
                .map(|seq| (seq, docs[seq as usize].clone()))
                .collect();
            prop_assert_eq!(view.len(), live.len());
            prop_assert_eq!(&visited(&view, 0..usize::MAX, usize::MAX), &live);
            for (start, end, stop) in ranges {
                let first = start.min(live.len());
                let want: Vec<_> = live[first..end.clamp(first, live.len())]
                    .iter()
                    .take(stop)
                    .cloned()
                    .collect();
                prop_assert_eq!(&visited(&view, start..end, stop), &want, "{}..{}", start, end);
            }
            drop(shard);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `get` of a deleted document errors like any other missing id, in
    /// a segment and in the write buffer; its live neighbours read back.
    #[test]
    fn get_hides_deleted_documents() {
        let dir = std::env::temp_dir().join(format!("free-live-view-get-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut shard = Shard::create(&dir, LiveConfig::default()).unwrap();
        let docs: Vec<Vec<u8>> = (0..10).map(|i| format!("doc {i}").into_bytes()).collect();
        shard.add_batch_deferred(&docs[..5]).unwrap();
        shard.flush().unwrap();
        shard.add_batch_deferred(&docs[5..]).unwrap();
        for seq in [2, 7] {
            shard.delete(seq).unwrap();
        }
        let snapshot = shard.snapshot();
        let view = LiveView(&snapshot);
        for seq in [2, 7] {
            let got = view.get(seq);
            assert!(
                matches!(got, Err(free_corpus::Error::DocOutOfRange { id, len: 8 }) if id == seq),
                "{seq}: {got:?}"
            );
        }
        for seq in [1, 3, 6, 8] {
            assert_eq!(view.get(seq).unwrap(), docs[seq as usize], "{seq}");
        }
        drop(shard);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A SCAN answers what reading every live document would, and leaves
    /// a segment's fetch cache holding what it held: no entry evicted,
    /// no hit or miss counted.
    #[test]
    fn a_scan_leaves_the_fetch_cache_alone() {
        let dir = std::env::temp_dir().join(format!("free-live-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut shard = Shard::create(&dir, LiveConfig::default()).unwrap();
        let docs: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("document {i} says {}", "la ".repeat(i)).into_bytes())
            .collect();
        shard.add_batch_deferred(&docs[..30]).unwrap();
        shard.flush().unwrap();
        shard.add_batch_deferred(&docs[30..]).unwrap();
        for seq in [3, 33] {
            shard.delete(seq).unwrap();
        }
        let snapshot = shard.snapshot();
        let view = LiveView(&snapshot);
        let corpus = &snapshot.segments[0].corpus;
        let candidates = [1, 5, 7];
        for seq in candidates {
            view.get(seq).unwrap();
        }
        let warm = corpus.cache_stats().unwrap();

        let mut seen = Vec::new();
        view.scan(&mut |seq, bytes| {
            seen.push((seq, bytes.to_vec()));
            true
        })
        .unwrap();
        let want: Vec<(DocId, Vec<u8>)> = (0..40)
            .filter(|seq| ![3, 33].contains(seq))
            .map(|seq| (seq, docs[seq as usize].clone()))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(
            corpus.cache_stats().unwrap(),
            warm,
            "the scan counted nothing"
        );
        for seq in candidates {
            view.get(seq).unwrap();
        }
        assert_eq!(
            corpus.cache_stats().unwrap(),
            (warm.0 + 3, warm.1),
            "every candidate is still cached"
        );

        let mut visited = 0;
        view.scan(&mut |_, _| {
            visited += 1;
            visited < 5
        })
        .unwrap();
        assert_eq!(visited, 5, "a scan stops when told to");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
