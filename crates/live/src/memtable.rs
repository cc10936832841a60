//! The in-memory write buffer: documents not yet sealed into a segment,
//! indexed by the live index's dictionary as they arrive.
//!
//! Documents are appended to the WAL for durability and mirrored here.
//! Each `add_batch` becomes an immutable, `Arc`-shared chunk of the
//! documents plus, grouped by key id, the dictionary keys (the oldest
//! segment's key directory) each one contains. A snapshot copies chunk
//! pointers, never postings, and a flush hands the chunks to the one
//! postings writer (the `postings` module), which writes the grouped
//! postings into the new segment without scanning a document again.
//! Before the first flush there is no dictionary: queries confirm the
//! whole buffer, a scan the flush thresholds bound, and that flush mines
//! one over the buffer's live documents (`LiveBuffer`). The buffer's
//! deleted documents are a `DeadBits` bitmap over its local ids: a flush
//! hands it to the segment it seals, whose store (the adopted WAL) keeps
//! them, and writes none of their postings.

use crate::dead::DeadBits;
use crate::postings::Source;
use free_corpus::{Corpus, DocId};
use free_engine::grams::GramMatcher;
use free_index::{IndexRead, IndexStats, Keys};
use free_trace::Span;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The dictionary's Aho-Corasick automaton as the write buffer runs it
/// (pattern `i` is key `i`), and the per-key counters that group a
/// batch's postings. Each match's stamp is a count of the documents
/// matched so far, so no two documents share one even when truncated
/// sequence numbers are reused.
pub(crate) struct BufferMatcher {
    matcher: GramMatcher,
    matched: u64,
    /// One per key, all zero between batches.
    counts: Vec<u32>,
}

impl BufferMatcher {
    pub(crate) fn new(keys: Keys<'_>) -> BufferMatcher {
        let patterns: Vec<&[u8]> = keys.iter().collect();
        BufferMatcher {
            matcher: GramMatcher::new(&patterns),
            matched: 0,
            counts: vec![0; keys.len()],
        }
    }
}

/// Microseconds since `start`, for a span attribute.
fn micros(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

/// Buffered documents and their postings, immutable once built: key id
/// `keys[i]` (ascending) is in the documents `run(i)` (local ids,
/// ascending), the run ending at `run_ends[i]` in `locals`.
#[derive(Default)]
pub(crate) struct Chunk {
    /// Local id of the chunk's first document.
    first: DocId,
    docs: Vec<Arc<[u8]>>,
    pub(crate) keys: Vec<u32>,
    run_ends: Vec<u32>,
    locals: Vec<DocId>,
}

impl Chunk {
    /// Records the postings of the chunk's documents: the keys `m` finds
    /// in each, grouped by key id. The pairs arrive in document order; a
    /// counting sort over key ids places each local id in its key's run,
    /// so every run comes out ascending without a comparison.
    fn index(&mut self, m: &mut BufferMatcher, span: &mut Span) {
        let start = Instant::now();
        // The keys of every document, one after the other; `ends[i]` ends
        // document `i`'s.
        let (mut found, mut ends) = (Vec::new(), Vec::with_capacity(self.docs.len()));
        let mut distinct = 0;
        for doc in &self.docs {
            m.matched += 1;
            let counts = &mut m.counts;
            m.matcher.match_distinct(doc, m.matched, &mut |key| {
                let count = &mut counts[key as usize];
                distinct += usize::from(*count == 0);
                *count += 1;
                found.push(key);
            });
            ends.push(found.len());
        }
        span.record("match_us", micros(start));
        span.record("postings", found.len());

        let start = Instant::now();
        self.keys.reserve_exact(distinct);
        self.run_ends.reserve_exact(distinct);
        self.locals = vec![0; found.len()];
        // Each count becomes where its key's next local id goes.
        let mut end = 0;
        for (key, count) in m.counts.iter_mut().enumerate().filter(|(_, c)| **c > 0) {
            self.keys.push(key as u32);
            (*count, end) = (end, end + *count);
            self.run_ends.push(end);
        }
        let mut doc_start = 0;
        for (local, doc_end) in (self.first..).zip(ends) {
            for &key in &found[doc_start..doc_end] {
                let at = &mut m.counts[key as usize];
                self.locals[*at as usize] = local;
                *at += 1;
            }
            doc_start = doc_end;
        }
        for &key in &self.keys {
            m.counts[key as usize] = 0;
        }
        span.record("group_us", micros(start));
    }

    pub(crate) fn run(&self, i: usize) -> &[DocId] {
        let start = i.checked_sub(1).map_or(0, |p| self.run_ends[p]);
        &self.locals[start as usize..self.run_ends[i] as usize]
    }

    /// The documents and postings of `a`, then of `b`, which follows it:
    /// a two-pointer walk over the two key lists that copies whole runs.
    fn merge(a: &Chunk, b: &Chunk) -> Chunk {
        let mut merged = Chunk {
            first: a.first,
            docs: [&a.docs[..], &b.docs[..]].concat(),
            keys: Vec::with_capacity(a.keys.len() + b.keys.len()),
            run_ends: Vec::with_capacity(a.keys.len() + b.keys.len()),
            locals: Vec::with_capacity(a.locals.len() + b.locals.len()),
        };
        let (mut i, mut j) = (0, 0);
        while let (Some(&ka), Some(&kb)) = (a.keys.get(i), b.keys.get(j)) {
            if ka <= kb {
                merged.locals.extend_from_slice(a.run(i));
                i += 1;
            }
            if kb <= ka {
                merged.locals.extend_from_slice(b.run(j));
                j += 1;
            }
            merged.keys.push(ka.min(kb));
            merged.run_ends.push(merged.locals.len() as u32);
        }
        // One side is done; the other's remaining runs follow whole.
        for (chunk, from) in [(a, i), (b, j)] {
            let start = from.checked_sub(1).map_or(0, |p| chunk.run_ends[p]);
            let shift = merged.locals.len() as u32 - start;
            merged.keys.extend_from_slice(&chunk.keys[from..]);
            merged
                .locals
                .extend_from_slice(&chunk.locals[start as usize..]);
            let ends = chunk.run_ends[from..].iter().map(|end| end + shift);
            merged.run_ends.extend(ends);
        }
        merged.keys.shrink_to_fit();
        merged.run_ends.shrink_to_fit();
        merged
    }
}

/// The write buffer over documents not yet sealed into a segment.
///
/// `Clone` copies chunk pointers and shares the dead bitmap: the live
/// index mutates the buffer copy-on-write (`Arc::make_mut`) while
/// published snapshots keep the chunks and bitmap they hold.
#[derive(Clone, Default)]
pub struct Memtable {
    chunks: Vec<Arc<Chunk>>,
    bytes: u64,
    /// The buffered documents deleted, by local id.
    pub(crate) dead: DeadBits,
}

impl Memtable {
    /// Appends `docs`, recording for each document the dictionary keys
    /// `matcher` finds in it (none without a dictionary). Returns the
    /// local id of the first document. Records on `span` the time spent
    /// merging chunks (`merge_us`) and, with a dictionary, matching and
    /// grouping (`match_us`, `group_us`) and the postings found.
    ///
    /// The batch becomes a new chunk, and chunk sizes then follow a
    /// binary counter: the newest two merge while the older holds no
    /// more documents. A buffer of n documents has O(log n) chunks, each
    /// posting is copied O(log n) times, and a key takes one run per
    /// chunk rather than one per batch.
    pub(crate) fn push_batch<D: AsRef<[u8]>>(
        &mut self,
        docs: &[D],
        matcher: Option<&mut BufferMatcher>,
        span: &mut Span,
    ) -> DocId {
        let first = self.len() as DocId;
        let mut chunk = Chunk {
            first,
            docs: docs.iter().map(|d| Arc::from(d.as_ref())).collect(),
            ..Chunk::default()
        };
        if let Some(m) = matcher {
            chunk.index(m, span);
        }
        self.bytes += docs.iter().map(|d| d.as_ref().len() as u64).sum::<u64>();
        self.chunks.push(Arc::new(chunk));
        let start = Instant::now();
        while let [.., older, newer] = &self.chunks[..] {
            if older.docs.len() > newer.docs.len() {
                break;
            }
            let merged = Chunk::merge(older, newer);
            self.chunks.truncate(self.chunks.len() - 2);
            self.chunks.push(Arc::new(merged));
        }
        span.record("merge_us", micros(start));
        first
    }

    /// Number of buffered documents.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.docs.len()).sum()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total buffered document bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One buffered document by local id.
    pub fn doc(&self, local: usize) -> Option<&[u8]> {
        let c = self.chunks.partition_point(|c| c.first as usize <= local);
        let chunk = &self.chunks[c.checked_sub(1)?];
        chunk.docs.get(local - chunk.first as usize).map(|d| &**d)
    }

    /// All buffered documents in local-id order.
    pub fn docs(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().flat_map(|c| c.docs.iter().map(|d| &**d))
    }

    /// Local ids of the buffered documents containing dictionary key
    /// `key`, ascending.
    fn postings(&self, key: u32) -> Vec<DocId> {
        let runs = self
            .chunks
            .iter()
            .filter_map(|c| Some(c.run(c.keys.binary_search(&key).ok()?)));
        runs.flatten().copied().collect()
    }

    /// The buffer's chunks as sources of a segment's postings (see the
    /// `postings` module): its live documents, under their local ids.
    pub(crate) fn sources(&self) -> impl Iterator<Item = Source<'_>> {
        self.chunks.iter().map(|c| Source::chunk(c, &self.dead))
    }

    /// Adds to `counts[key]` how many live buffered documents hold
    /// dictionary key `key`, and returns how many live documents there
    /// are: what a flush would seal. Run lengths, unless a dead document
    /// sits in a run.
    pub(crate) fn count_keys(&self, counts: &mut [u32]) -> u64 {
        for chunk in &self.chunks {
            for (i, &key) in chunk.keys.iter().enumerate() {
                let run = chunk.run(i);
                let gone = if self.dead.count() == 0 {
                    0
                } else {
                    run.iter()
                        .filter(|&&l| self.dead.contains(l as usize))
                        .count()
                };
                counts[key as usize] += (run.len() - gone) as u32;
            }
        }
        (self.len() - self.dead.count()) as u64
    }
}

/// The live documents of a write buffer as a [`Corpus`] under their
/// local ids: what the first flush mines, in memory, so the segment's
/// index is the batch build over exactly these documents, numbered as the
/// adopted WAL numbers them. With no document deleted, the ids are
/// `0..n` and the index is byte for byte the batch build's.
pub(crate) struct LiveBuffer<'a> {
    memtable: &'a Memtable,
    /// The live local ids, ascending: position `p` of a scan is `live[p]`.
    live: Vec<DocId>,
    bytes: u64,
}

impl<'a> LiveBuffer<'a> {
    pub(crate) fn new(memtable: &'a Memtable) -> LiveBuffer<'a> {
        let (mut live, mut bytes) = (Vec::with_capacity(memtable.len()), 0);
        for (local, doc) in memtable.docs().enumerate() {
            if !memtable.dead.contains(local) {
                live.push(local as DocId);
                bytes += doc.len() as u64;
            }
        }
        LiveBuffer {
            memtable,
            live,
            bytes,
        }
    }
}

impl Corpus for LiveBuffer<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn total_bytes(&self) -> u64 {
        self.bytes
    }

    fn get(&self, id: DocId) -> free_corpus::Result<Vec<u8>> {
        match self.memtable.doc(id as usize) {
            Some(doc) if self.live.binary_search(&id).is_ok() => Ok(doc.to_vec()),
            _ => Err(free_corpus::Error::DocOutOfRange {
                id,
                len: self.live.len(),
            }),
        }
    }

    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> free_corpus::Result<()> {
        let end = positions.end.min(self.live.len());
        let ids = &self.live[positions.start.min(end)..end];
        for &id in ids {
            let doc = self.memtable.doc(id as usize).unwrap_or_default();
            if !f(id, doc) {
                break;
            }
        }
        Ok(())
    }
}

/// The buffer read through the dictionary it was indexed with, so a plan
/// over the dictionary compiles against it like against any segment.
pub(crate) struct BufferIndex<'a> {
    /// The dictionary: the oldest segment's sorted key directory.
    pub(crate) keys: Keys<'a>,
    pub(crate) memtable: &'a Memtable,
}

impl BufferIndex<'_> {
    /// The dictionary id of `key`: one lookup in the directory's table.
    fn id(&self, key: &[u8]) -> Option<u32> {
        Some(self.keys.position(key)? as u32)
    }
}

impl IndexRead for BufferIndex<'_> {
    fn num_keys(&self) -> usize {
        self.keys.len()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        self.id(key).is_some()
    }

    fn doc_count(&self, key: &[u8]) -> Option<usize> {
        Some(self.memtable.postings(self.id(key)?).len())
    }

    fn postings(&self, key: &[u8]) -> free_index::Result<Option<Vec<DocId>>> {
        Ok(self.id(key).map(|k| self.memtable.postings(k)))
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.keys.iter().for_each(f);
    }

    /// Key count only: nothing reads the sizes of the buffer's postings.
    fn stats(&self) -> IndexStats {
        IndexStats {
            num_keys: self.keys.len() as u64,
            ..IndexStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_index::KeyDirectory;

    fn keys(list: &[&str]) -> KeyDirectory {
        KeyDirectory::from_sorted(list)
    }

    /// `push_batch` without a trace.
    fn push<D: AsRef<[u8]>>(
        m: &mut Memtable,
        docs: &[D],
        matcher: Option<&mut BufferMatcher>,
    ) -> DocId {
        m.push_batch(docs, matcher, &mut Span::disabled())
    }

    #[test]
    fn indexes_dictionary_keys_by_id() {
        let dict = keys(&["ab", "ca", "zz"]);
        let mut matcher = BufferMatcher::new(dict.keys());
        let mut m = Memtable::default();
        assert_eq!(push(&mut m, &[&b"abcab"[..], b"xy"], Some(&mut matcher)), 0);
        assert_eq!(push(&mut m, &[b"cab"], Some(&mut matcher)), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(m.bytes(), 10);
        assert_eq!(m.doc(1), Some(&b"xy"[..]));
        assert_eq!(m.doc(2), Some(&b"cab"[..]));
        assert_eq!(m.doc(3), None);
        let index = BufferIndex {
            keys: dict.keys(),
            memtable: &m,
        };
        assert_eq!(index.postings(b"ab").unwrap(), Some(vec![0, 2]));
        assert_eq!(index.postings(b"ca").unwrap(), Some(vec![0, 2]));
        // A dictionary key no buffered document contains: present, empty.
        assert_eq!(index.postings(b"zz").unwrap(), Some(vec![]));
        // A key outside the dictionary is absent.
        assert_eq!(index.postings(b"xy").unwrap(), None);
    }

    #[test]
    fn chunks_merge_like_a_binary_counter() {
        let dict = keys(&["a", "b", "c"]);
        let mut matcher = BufferMatcher::new(dict.keys());
        let mut m = Memtable::default();
        let docs: Vec<String> = (0..7)
            .map(|i| ["ab", "bc", "ca"][i % 3].repeat(i + 1))
            .collect();
        let mut sizes = Vec::new();
        for doc in &docs {
            push(&mut m, &[doc.as_bytes()], Some(&mut matcher));
            sizes.push(m.chunks.iter().map(|c| c.docs.len()).collect::<Vec<_>>());
        }
        assert_eq!(sizes[2], vec![2, 1]);
        assert_eq!(sizes[3], vec![4]);
        assert_eq!(sizes[6], vec![4, 2, 1]);
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(m.doc(i), Some(doc.as_bytes()));
        }
        let index = BufferIndex {
            keys: dict.keys(),
            memtable: &m,
        };
        for key in ["a", "b", "c"] {
            let want: Vec<DocId> = (0..7).filter(|&i| docs[i as usize].contains(key)).collect();
            assert_eq!(index.postings(key.as_bytes()).unwrap(), Some(want), "{key}");
        }
    }

    #[test]
    fn buffer_without_dictionary_holds_documents_only() {
        let mut m = Memtable::default();
        push(&mut m, &[&b"hello"[..], b"world"], None);
        let snapshot = m.clone();
        push(&mut m, &[b"again"], None);
        assert_eq!(snapshot.len(), 2, "a clone keeps the chunks it holds");
        assert_eq!(
            m.docs().collect::<Vec<_>>(),
            vec![&b"hello"[..], b"world", b"again"]
        );
        let dict = keys(&["ll"]);
        let index = BufferIndex {
            keys: dict.keys(),
            memtable: &m,
        };
        assert_eq!(index.postings(b"ll").unwrap(), Some(vec![]));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Random batches of 1 to 39 documents, then two single-document
        /// batches (so the last push merges) whose documents hold no key:
        /// every chunk's keys are strictly ascending and its runs are
        /// exactly a sort of the chunk's `(key, local)` pairs, found by a
        /// naive search; the buffer's postings are the whole buffer's.
        #[test]
        fn chunks_group_postings_like_a_sort(
            batches in prop::collection::vec(
                prop::collection::vec(
                    prop::collection::vec(
                        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'x')],
                        0..10,
                    ),
                    1..40,
                ),
                1..10,
            ),
        ) {
            let dict = keys(&["a", "ab", "b", "bca", "c", "cc", "xx"]);
            let contains = |doc: &[u8], key: &[u8]| doc.windows(key.len()).any(|w| w == key);
            let mut matcher = BufferMatcher::new(dict.keys());
            let mut m = Memtable::default();
            let mut docs: Vec<Vec<u8>> = Vec::new();
            let tail = [vec![b"xqx".to_vec()], vec![b"q".to_vec()]];
            for batch in batches.iter().chain(&tail) {
                prop_assert_eq!(push(&mut m, batch, Some(&mut matcher)) as usize, docs.len());
                docs.extend_from_slice(batch);
            }
            for chunk in &m.chunks {
                let first = chunk.first as usize;
                let mut pairs: Vec<(u32, DocId)> = Vec::new();
                for (local, doc) in (first..).zip(&docs[first..first + chunk.docs.len()]) {
                    for (key, k) in dict.keys().iter().enumerate() {
                        if contains(doc, k) {
                            pairs.push((key as u32, local as DocId));
                        }
                    }
                }
                pairs.sort_unstable();
                let runs = || pairs.chunk_by(|a, b| a.0 == b.0);
                prop_assert!(chunk.keys.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(&chunk.keys, &runs().map(|r| r[0].0).collect::<Vec<_>>());
                for (i, run) in runs().enumerate() {
                    let want: Vec<DocId> = run.iter().map(|p| p.1).collect();
                    prop_assert_eq!(chunk.run(i), &want[..]);
                }
                prop_assert_eq!(chunk.locals.len(), pairs.len());
            }
            let index = BufferIndex { keys: dict.keys(), memtable: &m };
            for k in dict.keys().iter() {
                let want: Vec<DocId> = (0..docs.len() as DocId)
                    .filter(|&l| contains(&docs[l as usize], k))
                    .collect();
                prop_assert_eq!(index.postings(k).unwrap(), Some(want));
            }
        }
    }
}
