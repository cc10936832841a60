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

    fn scan(&self, f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> free_corpus::Result<()> {
        let s = self.0;
        for seg in &s.segments {
            for (local, &seq) in seg.seqs.iter().enumerate() {
                if s.deleted.contains(&seq) {
                    continue;
                }
                let bytes = seg.corpus.get(local as DocId)?;
                if !f(seq, &bytes) {
                    return Ok(());
                }
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
