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
//! whole buffer, a scan the flush thresholds bound.

use crate::postings::Source;
use free_corpus::DocId;
use free_engine::grams::GramMatcher;
use free_index::{IndexRead, IndexStats, Key};
use std::sync::Arc;

/// The dictionary's Aho-Corasick automaton as the write buffer runs it
/// (pattern `i` is key `i`). Each match's stamp is a count of the
/// documents matched so far, so no two documents share one even when
/// truncated sequence numbers are reused.
pub(crate) struct BufferMatcher {
    matcher: GramMatcher,
    matched: u64,
}

impl BufferMatcher {
    pub(crate) fn new(keys: &[Key]) -> BufferMatcher {
        BufferMatcher {
            matcher: GramMatcher::new(keys),
            matched: 0,
        }
    }
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
    /// Appends `locals` to key `key`'s run; keys arrive in ascending order.
    fn push_run(&mut self, key: u32, locals: &[DocId]) {
        self.locals.extend_from_slice(locals);
        if self.keys.last() != Some(&key) {
            self.keys.push(key);
            self.run_ends.push(0);
        }
        if let Some(end) = self.run_ends.last_mut() {
            *end = self.locals.len() as u32;
        }
    }

    pub(crate) fn run(&self, i: usize) -> &[DocId] {
        let start = i.checked_sub(1).map_or(0, |p| self.run_ends[p]);
        &self.locals[start as usize..self.run_ends[i] as usize]
    }

    fn runs(&self) -> impl Iterator<Item = (u32, &[DocId])> {
        (0..self.keys.len()).map(|i| (self.keys[i], self.run(i)))
    }

    /// The documents and postings of `a`, then of `b`, which follows it.
    fn merge(a: &Chunk, b: &Chunk) -> Chunk {
        let mut merged = Chunk {
            first: a.first,
            docs: [&a.docs[..], &b.docs[..]].concat(),
            locals: Vec::with_capacity(a.locals.len() + b.locals.len()),
            ..Chunk::default()
        };
        let (mut ra, mut rb) = (a.runs().peekable(), b.runs().peekable());
        while let Some(key) = [ra.peek(), rb.peek()]
            .into_iter()
            .flatten()
            .map(|r| r.0)
            .min()
        {
            for runs in [&mut ra, &mut rb] {
                if let Some((_, locals)) = runs.next_if(|r| r.0 == key) {
                    merged.push_run(key, locals);
                }
            }
        }
        merged.keys.shrink_to_fit();
        merged.run_ends.shrink_to_fit();
        merged
    }
}

/// The write buffer over documents not yet sealed into a segment.
///
/// `Clone` copies chunk pointers only: the live index mutates the buffer
/// copy-on-write (`Arc::make_mut`) while published snapshots keep the
/// chunks they hold.
#[derive(Clone, Default)]
pub struct Memtable {
    chunks: Vec<Arc<Chunk>>,
    bytes: u64,
}

impl Memtable {
    /// Appends `docs`, recording for each document the dictionary keys
    /// `matcher` finds in it (none without a dictionary). Returns the
    /// local id of the first document.
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
    ) -> DocId {
        let first = self.len() as DocId;
        // (key id, local id) pairs, sorted into per-key runs.
        let mut pairs: Vec<u64> = Vec::new();
        if let Some(m) = matcher {
            for (i, doc) in docs.iter().enumerate() {
                let local = u64::from(first) + i as u64;
                m.matched += 1;
                m.matcher
                    .match_distinct(doc.as_ref(), m.matched, &mut |key| {
                        pairs.push(u64::from(key) << 32 | local);
                    });
            }
            pairs.sort_unstable();
        }
        let distinct = pairs.chunk_by(|a, b| a >> 32 == b >> 32).count();
        let mut chunk = Chunk {
            first,
            docs: docs.iter().map(|d| Arc::from(d.as_ref())).collect(),
            keys: Vec::with_capacity(distinct),
            run_ends: Vec::with_capacity(distinct),
            locals: Vec::with_capacity(pairs.len()),
        };
        for pair in pairs {
            chunk.push_run((pair >> 32) as u32, &[pair as DocId]);
        }
        self.bytes += docs.iter().map(|d| d.as_ref().len() as u64).sum::<u64>();
        self.chunks.push(Arc::new(chunk));
        while let [.., older, newer] = &self.chunks[..] {
            if older.docs.len() > newer.docs.len() {
                break;
            }
            let merged = Chunk::merge(older, newer);
            self.chunks.truncate(self.chunks.len() - 2);
            self.chunks.push(Arc::new(merged));
        }
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
    /// `postings` module), each buffered local id `l` becoming `remap[l]`.
    pub(crate) fn sources<'a>(
        &'a self,
        remap: &'a [Option<DocId>],
    ) -> impl Iterator<Item = Source<'a>> {
        self.chunks.iter().map(move |c| Source::chunk(c, remap))
    }

    /// Postings and document bytes of the buffered documents `live`
    /// keeps: what a flush would seal.
    pub(crate) fn totals(&self, live: impl Fn(DocId) -> bool) -> (u64, u64) {
        let postings = self.chunks.iter().flat_map(|c| &c.locals);
        let bytes = self.docs().zip(0..).filter(|&(_, l)| live(l));
        (
            postings.filter(|&&l| live(l)).count() as u64,
            bytes.map(|(d, _)| d.len() as u64).sum(),
        )
    }
}

/// The buffer read through the dictionary it was indexed with, so a plan
/// over the dictionary compiles against it like against any segment.
pub(crate) struct BufferIndex<'a> {
    /// The dictionary: the oldest segment's sorted key directory.
    pub(crate) keys: &'a [Key],
    pub(crate) memtable: &'a Memtable,
}

impl BufferIndex<'_> {
    fn id(&self, key: &[u8]) -> Option<u32> {
        let i = self.keys.binary_search_by(|k| (**k).cmp(key)).ok()?;
        Some(i as u32)
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
        self.keys.iter().for_each(|k| f(k));
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

    fn keys(list: &[&str]) -> Vec<Key> {
        list.iter().map(|k| k.as_bytes().into()).collect()
    }

    #[test]
    fn indexes_dictionary_keys_by_id() {
        let dict = keys(&["ab", "ca", "zz"]);
        let mut matcher = BufferMatcher::new(&dict);
        let mut m = Memtable::default();
        assert_eq!(m.push_batch(&[&b"abcab"[..], b"xy"], Some(&mut matcher)), 0);
        assert_eq!(m.push_batch(&[b"cab"], Some(&mut matcher)), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(m.bytes(), 10);
        assert_eq!(m.doc(1), Some(&b"xy"[..]));
        assert_eq!(m.doc(2), Some(&b"cab"[..]));
        assert_eq!(m.doc(3), None);
        let index = BufferIndex {
            keys: &dict,
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
        let mut matcher = BufferMatcher::new(&dict);
        let mut m = Memtable::default();
        let docs: Vec<String> = (0..7)
            .map(|i| ["ab", "bc", "ca"][i % 3].repeat(i + 1))
            .collect();
        let mut sizes = Vec::new();
        for doc in &docs {
            m.push_batch(&[doc.as_bytes()], Some(&mut matcher));
            sizes.push(m.chunks.iter().map(|c| c.docs.len()).collect::<Vec<_>>());
        }
        assert_eq!(sizes[2], vec![2, 1]);
        assert_eq!(sizes[3], vec![4]);
        assert_eq!(sizes[6], vec![4, 2, 1]);
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(m.doc(i), Some(doc.as_bytes()));
        }
        let index = BufferIndex {
            keys: &dict,
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
        m.push_batch(&[&b"hello"[..], b"world"], None);
        let snapshot = m.clone();
        m.push_batch(&[b"again"], None);
        assert_eq!(snapshot.len(), 2, "a clone keeps the chunks it holds");
        assert_eq!(
            m.docs().collect::<Vec<_>>(),
            vec![&b"hello"[..], b"world", b"again"]
        );
        let dict = keys(&["ll"]);
        let index = BufferIndex {
            keys: &dict,
            memtable: &m,
        };
        assert_eq!(index.postings(b"ll").unwrap(), Some(vec![]));
    }
}
