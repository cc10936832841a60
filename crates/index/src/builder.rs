//! External-memory index construction.
//!
//! The paper builds its indexes in a final corpus scan that "1) generates
//! postings lists 2) *sorts* the gram keys and postings lists and 3)
//! actually constructs the index" (§5.2). For corpora whose postings don't
//! fit in memory, this module implements that recipe as a classic run
//! merge: postings accumulate in a [`MemIndex`]; when the memory budget is
//! exceeded the batch is sorted and spilled to a run file; at the end all
//! runs, and last the batch still in memory, are merged key-by-key into
//! the final [`IndexWriter`].
//!
//! Because the corpus is scanned in document-id order, every run covers a
//! disjoint, increasing range of doc ids; merging a key's postings across
//! runs is therefore pure concatenation (re-encoded to restore the delta
//! base), never an interleave.
//!
//! [`IndexBuilder`] knows nothing about the keys in advance. A build that
//! does — a sorted dictionary with exact document counts, which is what
//! every gram selector returns — uses [`CountedPostings`] instead: one
//! buffer sized from the counts, filled by key index (by one scan per
//! range of keys, several at once), written in key order. No hashing, no
//! sorting, no run files.

use crate::format::{IndexReader, IndexWriter};
use crate::memindex::MemIndex;
use crate::postings::{Postings, PostingsBuilder};
use crate::{varint, DocId, Error, IndexRead as _, Key, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Default memory budget for buffered postings before spilling (bytes of
/// encoded postings, i.e. roughly final-index bytes).
pub const DEFAULT_MEMORY_BUDGET: usize = 256 << 20;

/// Builds an on-disk index from a stream of `(key, doc)` pairs, spilling
/// sorted runs when the memory budget is exceeded.
pub struct IndexBuilder {
    output: PathBuf,
    memory_budget: usize,
    current: MemIndex,
    runs: Vec<PathBuf>,
    last_doc: Option<DocId>,
}

impl IndexBuilder {
    /// Creates a builder that will write the final index to `output`.
    pub fn new(output: impl AsRef<Path>) -> IndexBuilder {
        IndexBuilder::with_memory_budget(output, DEFAULT_MEMORY_BUDGET)
    }

    /// Creates a builder with an explicit spill threshold (useful in tests
    /// to force the external path).
    pub fn with_memory_budget(output: impl AsRef<Path>, memory_budget: usize) -> IndexBuilder {
        IndexBuilder {
            output: output.as_ref().to_path_buf(),
            memory_budget: memory_budget.max(1),
            current: MemIndex::new(),
            runs: Vec::new(),
            last_doc: None,
        }
    }

    /// Adds one posting. Documents must be fed in non-decreasing id order.
    pub fn add(&mut self, key: &[u8], doc: DocId) -> Result<()> {
        if let Some(last) = self.last_doc {
            if doc < last {
                return Err(Error::Corrupt(format!(
                    "documents out of order: {doc} after {last}"
                )));
            }
            // Spill only at document boundaries so a document's postings
            // never straddle two runs for the same key with equal ids.
            if doc != last && self.current.encoded_bytes() as usize >= self.memory_budget {
                self.spill()?;
            }
        }
        self.last_doc = Some(doc);
        self.current.add(key, doc);
        Ok(())
    }

    /// Number of run files spilled so far.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    fn run_path(&self, i: usize) -> PathBuf {
        self.output.with_extension(format!("run{i}.tmp"))
    }

    fn spill(&mut self) -> Result<()> {
        let run = std::mem::take(&mut self.current);
        if run.num_keys() == 0 {
            return Ok(());
        }
        let path = self.run_path(self.runs.len());
        let f = File::create(&path)
            .map_err(|e| Error::io(format!("create run {}", path.display()), e))?;
        let mut w = BufWriter::new(f);
        for (key, postings) in run.into_sorted() {
            let mut rec = Vec::with_capacity(key.len() + postings.encoded().len() + 12);
            varint::encode(key.len() as u64, &mut rec);
            rec.extend_from_slice(&key);
            varint::encode(postings.len() as u64, &mut rec);
            varint::encode(postings.encoded().len() as u64, &mut rec);
            rec.extend_from_slice(postings.encoded());
            w.write_all(&rec)
                .map_err(|e| Error::io("write run record", e))?;
        }
        w.flush().map_err(|e| Error::io("flush run", e))?;
        self.runs.push(path);
        Ok(())
    }

    /// Merges all runs and the in-memory remainder into the final index
    /// and opens it. The run files are removed whether or not the merge
    /// succeeds.
    pub fn finish(mut self) -> Result<IndexReader> {
        let merged = self.merge();
        let removed = self.runs.iter().try_for_each(|path| {
            std::fs::remove_file(path)
                .map_err(|e| Error::io(format!("remove run {}", path.display()), e))
        });
        let reader = merged?;
        removed?;
        Ok(reader)
    }

    fn merge(&mut self) -> Result<IndexReader> {
        let mut writer = IndexWriter::create(&self.output)?;
        let mut readers = Vec::with_capacity(self.runs.len() + 1);
        for path in &self.runs {
            readers.push(RunReader::open(path)?);
        }
        // The remainder holds the newest documents, so it merges last.
        let remainder = std::mem::take(&mut self.current).into_sorted();
        readers.push(RunReader::new(RunSource::Memory(remainder.into_iter()))?);
        merge_runs(&mut readers, &mut writer)?;
        writer.finish()
    }
}

/// Where a sorted run's records come from.
enum RunSource {
    /// A spilled run file.
    File(BufReader<File>),
    /// The batch that never left memory.
    Memory(std::vec::IntoIter<(Key, Postings)>),
}

/// Streaming reader over one sorted run.
struct RunReader {
    source: RunSource,
    /// Look-ahead record.
    pending: Option<(Key, Postings)>,
}

impl RunReader {
    fn open(path: &Path) -> Result<RunReader> {
        let f =
            File::open(path).map_err(|e| Error::io(format!("open run {}", path.display()), e))?;
        RunReader::new(RunSource::File(BufReader::new(f)))
    }

    fn new(source: RunSource) -> Result<RunReader> {
        let mut r = RunReader {
            source,
            pending: None,
        };
        r.advance()?;
        Ok(r)
    }

    fn advance(&mut self) -> Result<()> {
        self.pending = match &mut self.source {
            RunSource::File(reader) => read_record(reader)?,
            RunSource::Memory(records) => records.next(),
        };
        Ok(())
    }

    fn peek_key(&self) -> Option<&Key> {
        self.pending.as_ref().map(|(k, _)| k)
    }

    fn take(&mut self) -> Result<Option<(Key, Postings)>> {
        let rec = self.pending.take();
        if rec.is_some() {
            self.advance()?;
        }
        Ok(rec)
    }
}

fn read_record(r: &mut BufReader<File>) -> Result<Option<(Key, Postings)>> {
    // Records start with a varint key length; EOF here means "run done".
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(Error::io("read run record", e)),
    }
    let key_len = read_varint_continuing(r, first[0])?;
    let mut key = vec![0u8; key_len as usize];
    r.read_exact(&mut key)
        .map_err(|e| Error::io("read run key", e))?;
    let count = read_varint(r)?;
    let enc_len = read_varint(r)?;
    let mut enc = vec![0u8; enc_len as usize];
    r.read_exact(&mut enc)
        .map_err(|e| Error::io("read run postings", e))?;
    Ok(Some((
        key.into(),
        Postings::from_encoded(bytes::Bytes::from(enc), count as u32),
    )))
}

fn read_varint(r: &mut BufReader<File>) -> Result<u64> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)
        .map_err(|e| Error::io("read varint", e))?;
    read_varint_continuing(r, b[0])
}

/// Finishes a varint whose first byte was already consumed.
fn read_varint_continuing(r: &mut BufReader<File>, first: u8) -> Result<u64> {
    let mut value = u64::from(first & 0x7f);
    let mut shift = 7u32;
    let mut byte = first;
    while byte & 0x80 != 0 {
        if shift >= 64 {
            return Err(Error::Corrupt("run varint too long".into()));
        }
        let mut b = [0u8; 1];
        r.read_exact(&mut b)
            .map_err(|e| Error::io("read varint", e))?;
        byte = b[0];
        value |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
    Ok(value)
}

/// Merges sorted runs into the writer. Runs cover disjoint ascending doc
/// ranges in run order, so equal keys concatenate.
// `expect`: `take()` is only called on readers whose `peek_key()` just
// matched, so a record is guaranteed to be pending.
#[allow(clippy::expect_used)]
fn merge_runs(readers: &mut [RunReader], writer: &mut IndexWriter) -> Result<()> {
    loop {
        // Smallest key among all pending records.
        let min_key: Option<Key> = readers.iter().filter_map(|r| r.peek_key()).min().cloned();
        let Some(key) = min_key else { break };
        let mut merged = PostingsBuilder::new();
        // Runs were spilled in doc order, so visiting readers in index
        // order keeps doc ids non-decreasing.
        for r in readers.iter_mut() {
            if r.peek_key() == Some(&key) {
                let (_, postings) = r.take()?.expect("peeked record exists");
                for doc in postings.iter() {
                    merged.push(doc?);
                }
            }
        }
        writer.add(&key, &merged.finish())?;
    }
    Ok(())
}

/// Postings for a dictionary known in advance: sorted keys, each with the
/// exact number of documents that contain it.
///
/// One buffer of `sum(doc_counts)` document ids is laid out key after key
/// (offsets are prefix sums of the counts) and filled by key *index* as a
/// corpus scan finds `(key, doc)` pairs; [`write_to`](Self::write_to)
/// then streams it into an [`IndexWriter`] in key order. Memory is 4
/// bytes per posting plus 8 per key, all of it in two allocations.
/// [`split_at_keys`](Self::split_at_keys) cuts the keys into consecutive
/// ranges that separate scans, on separate threads, fill at once.
///
/// The counts are a promise made by whoever chose the keys. A pair beyond
/// a key's count, a key left short, and documents out of order are all
/// reported as [`Error::Corrupt`]; nothing is ever truncated or padded.
pub struct CountedPostings {
    /// Per key: where its next document id goes, and where its run ends
    /// (which is where the next key's run starts).
    spans: Vec<Span>,
    docs: Vec<DocId>,
}

#[derive(Clone, Copy)]
struct Span {
    next: u32,
    end: u32,
}

/// The keys of one range of a [`CountedPostings`], filled on their own;
/// see [`CountedPostings::split_at_keys`].
pub struct CountedRange<'a> {
    /// Index of the range's first key in the whole dictionary.
    first: usize,
    spans: &'a mut [Span],
    /// The range's part of the buffer, which starts at offset `base`.
    docs: &'a mut [DocId],
    base: u32,
}

impl CountedPostings {
    /// Lays out the buffer for keys with the given document counts.
    pub fn new(doc_counts: impl IntoIterator<Item = u32>) -> Result<CountedPostings> {
        let mut end = 0u32;
        let mut spans = Vec::new();
        for count in doc_counts {
            let next = end;
            end = end.checked_add(count).ok_or_else(|| {
                Error::Corrupt("more than 2^32 postings in one accumulation".into())
            })?;
            spans.push(Span { next, end });
        }
        Ok(CountedPostings {
            spans,
            docs: vec![0; end as usize],
        })
    }

    /// Records that document `doc` contains key number `key`. Documents
    /// must arrive in non-decreasing order; a repeated `(key, doc)` pair
    /// coalesces.
    #[inline]
    pub fn add(&mut self, key: usize, doc: DocId) -> Result<()> {
        CountedRange {
            first: 0,
            spans: &mut self.spans,
            docs: &mut self.docs,
            base: 0,
        }
        .add(key, doc)
    }

    /// Cuts the keys before each of `cuts` from the keys after it: one
    /// [`CountedRange`] per range of consecutive keys, which a scan fills
    /// by key index counted from the range's first key, apart from (and
    /// at the same time as) the other ranges.
    ///
    /// # Panics
    ///
    /// If `cuts` are not ascending key indices.
    pub fn split_at_keys(&mut self, cuts: &[usize]) -> Vec<CountedRange<'_>> {
        let keys = self.spans.len();
        let mut ranges = Vec::with_capacity(cuts.len() + 1);
        let (mut spans, mut docs) = (&mut self.spans[..], &mut self.docs[..]);
        let (mut first, mut base) = (0, 0u32);
        for &cut in cuts.iter().chain(std::iter::once(&keys)) {
            let (these, rest) = std::mem::take(&mut spans).split_at_mut(cut - first);
            let end = these.last().map_or(base, |s| s.end);
            let (buffer, rest_docs) = std::mem::take(&mut docs).split_at_mut((end - base) as usize);
            ranges.push(CountedRange {
                first,
                spans: these,
                docs: buffer,
                base,
            });
            (spans, docs, first, base) = (rest, rest_docs, cut, end);
        }
        ranges
    }

    /// Appends every key with its postings to `writer`. `keys` yields the
    /// key bytes in the order the counts were given, which must be
    /// strictly ascending (the writer checks). Keys counted in no
    /// document are left out.
    pub fn write_to<'k>(
        self,
        keys: impl ExactSizeIterator<Item = &'k [u8]>,
        writer: &mut IndexWriter,
    ) -> Result<()> {
        if keys.len() != self.spans.len() {
            return Err(Error::Corrupt(format!(
                "{} key(s) for {} document count(s)",
                keys.len(),
                self.spans.len()
            )));
        }
        let mut start = 0usize;
        for (key, span) in keys.zip(&self.spans) {
            if span.next != span.end {
                return Err(Error::Corrupt(format!(
                    "key {:?} occurs in {} document(s), its selector counted {}",
                    String::from_utf8_lossy(key),
                    span.next as usize - start,
                    span.end as usize - start
                )));
            }
            let end = span.end as usize;
            if end > start {
                writer.add_sorted(key, &self.docs[start..end])?;
            }
            start = end;
        }
        Ok(())
    }
}

impl CountedRange<'_> {
    /// Records that document `doc` contains the range's key number `key`,
    /// as [`CountedPostings::add`] does.
    #[inline]
    pub fn add(&mut self, key: usize, doc: DocId) -> Result<()> {
        let start = match key.checked_sub(1) {
            Some(prev) => self.spans[prev].end,
            None => self.base,
        };
        let span = &mut self.spans[key];
        if span.next > start {
            let last = self.docs[(span.next - 1 - self.base) as usize];
            if last == doc {
                return Ok(());
            }
            if last > doc {
                return Err(Error::Corrupt(format!(
                    "documents out of order: {doc} after {last}"
                )));
            }
        }
        if span.next == span.end {
            return Err(Error::Corrupt(format!(
                "key {} occurs in more than the {} document(s) its selector counted",
                self.first + key,
                span.end - start
            )));
        }
        self.docs[(span.next - self.base) as usize] = doc;
        span.next += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexRead;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("free-builder-{name}-{}.idx", std::process::id()))
    }

    #[test]
    fn in_memory_path() {
        let path = tmpfile("mem");
        let mut b = IndexBuilder::new(&path);
        b.add(b"bb", 0).unwrap();
        b.add(b"aa", 0).unwrap();
        b.add(b"aa", 1).unwrap();
        b.add(b"cc", 2).unwrap();
        assert_eq!(b.num_runs(), 0);
        let r = b.finish().unwrap();
        assert_eq!(r.num_keys(), 3);
        assert_eq!(r.postings(b"aa").unwrap().unwrap(), vec![0, 1]);
        assert_eq!(r.postings(b"bb").unwrap().unwrap(), vec![0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spilling_path_matches_memory_path() {
        let path1 = tmpfile("spill1");
        let path2 = tmpfile("spill2");
        // Generate a deterministic stream of (key, doc) pairs.
        let mut pairs = Vec::new();
        for doc in 0..200u32 {
            for k in 0..((doc % 7) + 1) {
                pairs.push((format!("key{:02}", (doc + k * 13) % 25), doc));
            }
        }
        let mut small = IndexBuilder::with_memory_budget(&path1, 64); // force spills
        let mut big = IndexBuilder::new(&path2);
        for (k, d) in &pairs {
            small.add(k.as_bytes(), *d).unwrap();
            big.add(k.as_bytes(), *d).unwrap();
        }
        assert!(small.num_runs() > 1, "expected multiple runs");
        let rs = small.finish().unwrap();
        let rb = big.finish().unwrap();
        assert_eq!(rs.num_keys(), rb.num_keys());
        let mut keys = Vec::new();
        rb.for_each_key(&mut |k| keys.push(k.to_vec()));
        for k in keys {
            assert_eq!(
                rs.postings(&k).unwrap(),
                rb.postings(&k).unwrap(),
                "key {}",
                String::from_utf8_lossy(&k)
            );
        }
        std::fs::remove_file(&path1).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn rejects_out_of_order_docs() {
        let path = tmpfile("order");
        let mut b = IndexBuilder::new(&path);
        b.add(b"k", 5).unwrap();
        assert!(b.add(b"k", 4).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_postings_coalesce_across_adds() {
        let path = tmpfile("dup");
        let mut b = IndexBuilder::new(&path);
        b.add(b"k", 3).unwrap();
        b.add(b"k", 3).unwrap();
        b.add(b"k", 3).unwrap();
        let r = b.finish().unwrap();
        assert_eq!(r.postings(b"k").unwrap().unwrap(), vec![3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_builder() {
        let path = tmpfile("emptyb");
        let r = IndexBuilder::new(&path).finish().unwrap();
        assert_eq!(r.num_keys(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_build_that_never_spilled_touches_no_run_file() {
        let dir = std::env::temp_dir().join(format!("free-builder-norun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("only.idx");
        // A directory where run 0 would go: creating the run would fail.
        std::fs::create_dir(path.with_extension("run0.tmp")).unwrap();
        let mut b = IndexBuilder::new(&path);
        for doc in 0..50u32 {
            b.add(format!("key{}", doc % 9).as_bytes(), doc).unwrap();
        }
        assert_eq!(b.num_runs(), 0);
        let r = b.finish().unwrap();
        assert_eq!(r.num_keys(), 9);
        assert_eq!(
            r.postings(b"key3").unwrap().unwrap(),
            vec![3, 12, 21, 30, 39, 48]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_files_removed_when_the_merge_fails() {
        let path = tmpfile("failmerge");
        let mut b = IndexBuilder::with_memory_budget(&path, 8);
        for doc in 0..50u32 {
            b.add(format!("key{doc}").as_bytes(), doc).unwrap();
        }
        assert!(b.num_runs() > 1);
        let runs: Vec<PathBuf> = (0..b.num_runs()).map(|i| b.run_path(i)).collect();
        // Cut the last run short: its reader fails on open.
        let last = runs.last().unwrap();
        let len = std::fs::metadata(last).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(last)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        assert!(b.finish().is_err());
        for run in &runs {
            assert!(!run.exists(), "{} left behind", run.display());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// `CountedPostings` over the exact counts of `pairs` (keyed by index
    /// into `keys`), written to `path`.
    fn counted_index(
        path: &Path,
        keys: &[&[u8]],
        counts: &[u32],
        pairs: &[(usize, DocId)],
    ) -> Result<IndexReader> {
        let mut counted = CountedPostings::new(counts.iter().copied())?;
        for &(key, doc) in pairs {
            counted.add(key, doc)?;
        }
        let mut writer = IndexWriter::create(path)?;
        counted.write_to(keys.iter().copied(), &mut writer)?;
        writer.finish()
    }

    #[test]
    fn counted_postings_write_the_file_the_builder_writes() {
        let keys: Vec<String> = (0..25).map(|i| format!("key{i:02}")).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let mut pairs = Vec::new();
        for doc in 0..1200u32 {
            for k in 0..((doc % 7) + 1) {
                pairs.push((((doc + k * 13) % 24) as usize, doc)); // key 24 never occurs
                if doc % 5 == 0 {
                    pairs.push((((doc + k * 13) % 24) as usize, doc)); // repeats coalesce
                }
            }
        }
        let mut counts = vec![0u32; keys.len()];
        let mut distinct = pairs.clone();
        distinct.dedup();
        for &(key, _) in &distinct {
            counts[key] += 1;
        }
        assert!(counts.iter().any(|&c| c > 128), "a blocked list is covered");
        let (p1, p2) = (tmpfile("counted1"), tmpfile("counted2"));
        counted_index(&p1, &key_refs, &counts, &pairs).unwrap();
        let mut b = IndexBuilder::new(&p2);
        for &(key, doc) in &pairs {
            b.add(key_refs[key], doc).unwrap();
        }
        b.finish().unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn key_ranges_filled_apart_write_the_same_file() {
        let keys: Vec<String> = (0..25).map(|i| format!("key{i:02}")).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let pairs: Vec<(usize, DocId)> = (0..400u32)
            .flat_map(|doc| (0..(doc % 5) + 1).map(move |k| (((doc + k * 7) % 25) as usize, doc)))
            .collect();
        let mut counts = vec![0u32; keys.len()];
        for &(key, _) in &pairs {
            counts[key] += 1;
        }
        let (whole, apart) = (tmpfile("rangeswhole"), tmpfile("rangesapart"));
        counted_index(&whole, &key_refs, &counts, &pairs).unwrap();
        for cuts in [&[][..], &[1], &[7, 8, 20], &[0, 13, 25]] {
            let mut counted = CountedPostings::new(counts.iter().copied()).unwrap();
            let starts: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).collect();
            // Last range first: the ranges share nothing.
            for (r, mut range) in counted.split_at_keys(cuts).into_iter().enumerate().rev() {
                let end = cuts.get(r).copied().unwrap_or(keys.len());
                for &(key, doc) in pairs.iter().filter(|p| (starts[r]..end).contains(&p.0)) {
                    range.add(key - starts[r], doc).unwrap();
                }
            }
            let mut writer = IndexWriter::create(&apart).unwrap();
            counted
                .write_to(key_refs.iter().copied(), &mut writer)
                .unwrap();
            writer.finish().unwrap();
            assert_eq!(
                std::fs::read(&apart).unwrap(),
                std::fs::read(&whole).unwrap(),
                "cuts {cuts:?}"
            );
        }
        // A range names a key that breaks its count by its whole index.
        let mut counted = CountedPostings::new([1, 1, 1]).unwrap();
        let mut ranges = counted.split_at_keys(&[2]);
        ranges[1].add(0, 4).unwrap();
        match ranges[1].add(0, 5) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("key 2 occurs in more"), "{msg}"),
            other => panic!("{:?}", other.err()),
        }
        std::fs::remove_file(&whole).unwrap();
        std::fs::remove_file(&apart).unwrap();
    }

    #[test]
    fn counted_postings_reject_every_broken_promise() {
        let path = tmpfile("countedbad");
        let keys: [&[u8]; 2] = [b"aa", b"bb"];
        let corrupt = |r: Result<IndexReader>, what: &str| match r {
            Err(Error::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(other) => panic!("{other}"),
            Ok(_) => panic!("accepted: {what}"),
        };
        // One document more than counted, one fewer, out of order.
        corrupt(
            counted_index(&path, &keys, &[1, 1], &[(0, 1), (1, 1), (0, 2)]),
            "more than the 1 document(s)",
        );
        corrupt(
            counted_index(&path, &keys, &[2, 1], &[(0, 1), (1, 1)]),
            "occurs in 1 document(s), its selector counted 2",
        );
        corrupt(
            counted_index(&path, &keys, &[2, 1], &[(0, 5), (1, 5), (0, 4)]),
            "out of order",
        );
        // Keys out of order, or not as many as counts.
        corrupt(
            counted_index(&path, &[b"bb", b"aa"], &[1, 1], &[(0, 1), (1, 1)]),
            "keys out of order",
        );
        corrupt(
            counted_index(&path, &keys[..1], &[1, 1], &[(0, 1), (1, 1)]),
            "1 key(s)",
        );
        assert!(matches!(
            CountedPostings::new([u32::MAX, 1]),
            Err(Error::Corrupt(_))
        ));
        // A neighbour's run is never read as this key's last document.
        let r = counted_index(&path, &keys, &[1, 1], &[(0, 7), (1, 7)]).unwrap();
        assert_eq!(r.postings(b"bb").unwrap().unwrap(), vec![7]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_files_cleaned_up() {
        let path = tmpfile("cleanup");
        let mut b = IndexBuilder::with_memory_budget(&path, 8);
        for doc in 0..50u32 {
            b.add(format!("key{doc}").as_bytes(), doc).unwrap();
        }
        assert!(b.num_runs() > 0);
        let run0 = b.run_path(0);
        assert!(run0.exists());
        let _r = b.finish().unwrap();
        assert!(!run0.exists(), "run file should be deleted");
        std::fs::remove_file(&path).unwrap();
    }
}
