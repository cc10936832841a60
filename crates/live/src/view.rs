//! A [`Corpus`] view over a snapshot of one shard keyed by its
//! sequence numbers, so the engine's confirmation machinery
//! (including parallel confirmation and first-k early exit) runs
//! unchanged against segments plus write buffer.

use crate::snapshot::ShardSnapshot;
use free_corpus::{Corpus, DocId};

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
        if seq >= s.wal_base {
            if let Some(doc) = s.memtable.doc((seq - s.wal_base) as usize) {
                return Ok(doc.to_vec());
            }
        } else if let Some(seg) = s.owner(seq) {
            if let Some(local) = seg.local_of(seq) {
                return seg.corpus.get(local);
            }
        }
        Err(free_corpus::Error::DocOutOfRange {
            id: seq,
            len: s.live_docs,
        })
    }

    /// Reads each segment front to back in one sequential pass, checking
    /// every unit's CRC as [`Corpus::get`] does but bypassing the
    /// segment's fetch cache, which a scan would otherwise flush of the
    /// candidates it holds.
    fn scan(&self, f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> free_corpus::Result<()> {
        let s = self.0;
        for seg in &s.segments {
            let mut stopped = false;
            seg.corpus.scan_checked(&mut |local, bytes| {
                let seq = seg.seqs[local as usize];
                if s.deleted.contains(&seq) {
                    return true;
                }
                stopped = !f(seq, bytes);
                !stopped
            })?;
            if stopped {
                return Ok(());
            }
        }
        for (local, doc) in s.memtable.docs().enumerate() {
            let seq = s.wal_base + local as DocId;
            if !s.deleted.contains(&seq) && !f(seq, doc) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Shard;
    use crate::LiveConfig;

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
