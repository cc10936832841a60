//! A [`Corpus`] view over a whole [`Snapshot`] keyed by sequence
//! numbers, so the engine's confirmation machinery (including parallel
//! confirmation and first-k early exit) runs unchanged against the
//! segments plus write buffer, or against only the documents from a
//! given sequence on.

use crate::dead::DeadBits;
use crate::snapshot::{Owner, Snapshot};
use free_corpus::{Corpus, DocId};
use std::ops::Range;

/// One source of the snapshot, with the range of its local ids a scan
/// covers.
type Source = (Owner, Range<usize>);

/// Read view of the index at one generation. `get` is keyed by sequence
/// number; ids with no live document error like any other out-of-range
/// access. `len`, `total_bytes` and `scan_range` cover the live
/// documents at sequence `since` or above.
pub(crate) struct LiveView<'a> {
    snapshot: &'a Snapshot,
    /// The least sequence the scan covers.
    since: DocId,
}

impl<'a> LiveView<'a> {
    pub(crate) fn new(snapshot: &'a Snapshot, since: DocId) -> LiveView<'a> {
        LiveView { snapshot, since }
    }

    /// The sources, the segments and then the write buffer, with the
    /// range of the source's local ids at sequence `since` or above.
    fn sources(&self) -> impl Iterator<Item = Source> + '_ {
        let (s, since) = (self.snapshot, self.since);
        let segments = s.segments.iter().enumerate().map(move |(i, seg)| {
            let first = seg.seqs.partition_point(|&seq| seq < since);
            (Owner::Segment(i), first..seg.seqs.len())
        });
        let buffered = s.memtable.len();
        let first = (since.saturating_sub(s.wal_base) as usize).min(buffered);
        segments.chain(std::iter::once((Owner::Buffer, first..buffered)))
    }
}

impl Corpus for LiveView<'_> {
    fn len(&self) -> usize {
        let live = |(owner, locals): Source| {
            let dead = self.snapshot.dead(owner);
            locals.len() - (dead.count() - dead.count_below(locals.start))
        };
        self.sources().map(live).sum()
    }

    /// The bytes of the sources the scan covers, each counted in the
    /// share of its documents at `since` or above.
    fn total_bytes(&self) -> u64 {
        let s = self.snapshot;
        let bytes = |(owner, locals): Source| {
            let (bytes, len) = match owner {
                Owner::Segment(i) => (s.segments[i].data_bytes(), s.segments[i].seqs.len()),
                Owner::Buffer => (s.memtable.bytes(), s.memtable.len()),
            };
            (bytes * locals.len() as u64)
                .checked_div(len as u64)
                .unwrap_or(0)
        };
        self.sources().map(bytes).sum()
    }

    fn get(&self, seq: DocId) -> free_corpus::Result<Vec<u8>> {
        let s = self.snapshot;
        match s.live(seq) {
            Some((owner, local)) => s.read(owner, local),
            None => Err(free_corpus::Error::DocOutOfRange {
                id: seq,
                len: s.live_docs(),
            }),
        }
    }

    /// Reads the seqs in order, source by source: the seqs that follow
    /// one another in one segment are one [`Corpus::get_sorted`] of their
    /// local ids there (a CRC-checked read per run of them), and the
    /// write buffer's documents are handed out by reference.
    fn get_sorted(
        &self,
        seqs: &[DocId],
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> free_corpus::Result<()> {
        let s = self.snapshot;
        let mut locals = Vec::new();
        let mut rest = seqs;
        while let Some(&seq) = rest.first() {
            let Some((owner, local)) = s.live(seq) else {
                return Err(free_corpus::Error::DocOutOfRange {
                    id: seq,
                    len: s.live_docs(),
                });
            };
            let Owner::Segment(i) = owner else {
                if !f(seq, s.memtable.doc(local).unwrap_or_default()) {
                    return Ok(());
                }
                rest = &rest[1..];
                continue;
            };
            locals.clear();
            locals.push(local as DocId);
            for &next in &rest[1..] {
                match s.live(next) {
                    Some((Owner::Segment(j), local)) if j == i => locals.push(local as DocId),
                    _ => break,
                }
            }
            let seg = &s.segments[i];
            let mut stopped = false;
            seg.corpus.get_sorted(&locals, &mut |local, bytes| {
                stopped = !f(seg.seqs[local as usize], bytes);
                !stopped
            })?;
            if stopped {
                return Ok(());
            }
            rest = &rest[locals.len()..];
        }
        Ok(())
    }

    /// Positions count the live documents at `since` or above in
    /// sequence order: the segments', then the write buffer's. Reads the
    /// segments a range covers front to back, checking every unit's CRC
    /// as [`Corpus::get`] does.
    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> free_corpus::Result<()> {
        let s = self.snapshot;
        let mut skip = positions.start;
        let mut take = positions.end.saturating_sub(positions.start);
        for (owner, locals) in self.sources() {
            let dead = s.dead(owner);
            let Some(locals) = live_locals(dead, locals, &mut skip, &mut take) else {
                continue;
            };
            match owner {
                Owner::Segment(i) => {
                    let seg = &s.segments[i];
                    let mut stopped = false;
                    seg.corpus.scan_checked(locals, &mut |local, bytes, _| {
                        if dead.contains(local as usize) {
                            return true;
                        }
                        stopped = !f(seg.seqs[local as usize], bytes);
                        !stopped
                    })?;
                    if stopped {
                        return Ok(());
                    }
                }
                Owner::Buffer => {
                    for local in locals {
                        let doc = s.memtable.doc(local).unwrap_or_default();
                        if !dead.contains(local) && !f(s.wal_base + local as DocId, doc) {
                            return Ok(());
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The local ids, out of a source's `locals`, that hold its live
/// documents `skip..skip + take` counted from `locals.start` (dead ones
/// may lie between), or `None` when there are none. Counts the source's
/// live documents in `locals` off `skip`, then those taken off `take`.
fn live_locals(
    dead: &DeadBits,
    locals: Range<usize>,
    skip: &mut usize,
    take: &mut usize,
) -> Option<Range<usize>> {
    let dead_before = dead.count_below(locals.start);
    let live = locals.len() - (dead.count() - dead_before);
    if *skip >= live {
        *skip -= live;
        return None;
    }
    let wanted = (*take).min(live - *skip);
    if wanted == 0 {
        return None;
    }
    // Live documents below `locals.start`, which `nth_live` counts too.
    let first = locals.start - dead_before + *skip;
    let range = dead.nth_live(first)..dead.nth_live(first + wanted - 1) + 1;
    *skip = 0;
    *take -= wanted;
    Some(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveConfig, LiveIndex};
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

    /// Only explicit flushes flush, so a schedule is exact.
    fn config() -> LiveConfig {
        LiveConfig {
            flush_threshold_bytes: u64::MAX,
            flush_threshold_docs: usize::MAX,
            ..LiveConfig::default()
        }
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        static DIRS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "free-live-view-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An index built by a random schedule: the documents, the deleted
    /// ones (by sequence), and the index.
    ///
    /// Stage `i` adds the documents up to the `i`-th flush point, deletes,
    /// then flushes unless it is the last, and compacts if it is stage
    /// `compact_after` (about half the cases name no stage). Each delete
    /// lands some stages after its document was added, so a flush may
    /// seal past one.
    fn scheduled(
        dir: &std::path::Path,
        sizes: &[usize],
        flushes: std::collections::BTreeSet<usize>,
        dead: Vec<(DocId, usize)>,
        compact_after: usize,
    ) -> (Vec<Vec<u8>>, BTreeMap<DocId, usize>, LiveIndex) {
        let mut index = LiveIndex::create(dir, config()).unwrap();
        let docs: Vec<Vec<u8>> = (sizes.iter().enumerate())
            .map(|(i, &len)| format!("doc {i} {}", "x".repeat(len)).into_bytes())
            .collect();
        let dead: BTreeMap<DocId, usize> = dead
            .into_iter()
            .filter(|&(seq, _)| (seq as usize) < docs.len())
            .collect();
        let mut ends: Vec<usize> = flushes
            .into_iter()
            .filter(|&at| at > 0 && at < docs.len())
            .collect();
        ends.push(docs.len());
        let stage_of = |seq: DocId| ends.partition_point(|&end| end <= seq as usize);
        let mut from = 0;
        for (stage, &end) in ends.iter().enumerate() {
            index.add_batch(&docs[from..end]).unwrap();
            from = end;
            for (&seq, &delay) in &dead {
                if (stage_of(seq) + delay).min(ends.len() - 1) == stage {
                    index.delete(seq).unwrap();
                }
            }
            if stage + 1 < ends.len() {
                index.flush().unwrap();
            }
            if compact_after == stage {
                index.compact().unwrap();
            }
        }
        (docs, dead, index)
    }

    /// What reading `seqs` hands out, stopping after `stop` documents,
    /// and the error that ended the read: by `get_sorted`, or with
    /// `each` by one `get` per seq.
    fn read(
        view: &LiveView<'_>,
        seqs: &[DocId],
        stop: usize,
        each: bool,
    ) -> (Vec<(DocId, Vec<u8>)>, Option<String>) {
        let mut seen = Vec::new();
        let mut take = |seq: DocId, bytes: &[u8]| {
            seen.push((seq, bytes.to_vec()));
            seen.len() < stop
        };
        let result = if each {
            let mut result = Ok(());
            for &seq in seqs {
                match view.get(seq) {
                    Ok(bytes) if take(seq, &bytes) => {}
                    Ok(_) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            result
        } else {
            view.get_sorted(seqs, &mut take)
        };
        (seen, result.err().map(|e| e.to_string()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Over segments flushed at random points, random deletes (in the
        /// segments and in the write buffer), an optional compaction and a
        /// buffer that may be empty, `scan_range` visits exactly the live
        /// documents at sequence `since` or above, at those positions of a
        /// pass in sequence order, for empty and reversed ranges, ranges
        /// past the end, and visitors that stop early; `len` counts them.
        #[test]
        fn scan_range_is_scan_and_skip(
            sizes in prop::collection::vec(0usize..60, 1..60),
            flushes in prop::collection::btree_set(0usize..60, 0..4),
            dead in prop::collection::vec((0u32..60, 0usize..3), 0..20),
            compact_after in 0usize..8,
            ranges in prop::collection::vec((0usize..70, 0usize..70, 1usize..70), 1..8),
            since in prop_oneof![Just(0 as DocId), 0 as DocId..70],
        ) {
            let dir = fresh_dir("range");
            let (docs, dead, index) = scheduled(&dir, &sizes, flushes, dead, compact_after);
            let snapshot = index.snapshot();
            let view = LiveView::new(&snapshot, since);
            let live: Vec<(DocId, Vec<u8>)> = (since..docs.len() as DocId)
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
            drop(index);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Over the same schedules, `get_sorted` of any ascending set of
        /// seqs hands out what one `get` per seq reads, in order, across
        /// segments and the write buffer; it stops when asked, and a
        /// deleted seq (or one past the end) ends it with `get`'s error
        /// after the seqs before it.
        #[test]
        fn get_sorted_is_get_per_seq(
            sizes in prop::collection::vec(0usize..60, 1..60),
            flushes in prop::collection::btree_set(0usize..60, 0..4),
            dead in prop::collection::vec((0u32..60, 0usize..3), 0..20),
            compact_after in 0usize..8,
            picks in prop::collection::vec(0usize..4, 62),
            stop in prop_oneof![Just(usize::MAX), 1usize..60],
        ) {
            let dir = fresh_dir("sorted");
            let (docs, dead, index) = scheduled(&dir, &sizes, flushes, dead, compact_after);
            let snapshot = index.snapshot();
            let view = LiveView::new(&snapshot, 0);
            // Mostly live seqs; a pick of 0 also takes a deleted seq, and
            // the seqs past the end are taken as well.
            let seqs: Vec<DocId> = (0..picks.len() as DocId)
                .filter(|&seq| {
                    let pick = picks[seq as usize];
                    pick >= 2 || (pick == 0 && dead.contains_key(&seq))
                })
                .collect();
            let live: Vec<DocId> = seqs
                .iter()
                .copied()
                .filter(|seq| (*seq as usize) < docs.len() && !dead.contains_key(seq))
                .collect();
            for seqs in [&seqs, &live] {
                let (want, err) = read(&view, seqs, stop, true);
                prop_assert_eq!(read(&view, seqs, stop, false), (want, err));
            }
            drop(index);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `get` of a deleted document errors like any other missing id, in
    /// a segment and in the write buffer; its live neighbours read back.
    #[test]
    fn get_hides_deleted_documents() {
        let dir = fresh_dir("get");
        let mut index = LiveIndex::create(&dir, config()).unwrap();
        let docs: Vec<Vec<u8>> = (0..10).map(|i| format!("doc {i}").into_bytes()).collect();
        index.add_batch(&docs[..5]).unwrap();
        index.flush().unwrap();
        index.add_batch(&docs[5..]).unwrap();
        for seq in [2, 7] {
            index.delete(seq).unwrap();
        }
        let snapshot = index.snapshot();
        let view = LiveView::new(&snapshot, 0);
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
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
