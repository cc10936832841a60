//! On-disk data-unit storage.
//!
//! Layout (two files inside a directory):
//!
//! ```text
//! <dir>/corpus.dat   raw data-unit bytes, concatenated in id order
//! <dir>/corpus.idx   header + one table entry per unit
//! ```
//!
//! The index header is an 8-byte magic (`FREECORP`), a u32 version (2,
//! the only one accepted), a u64 unit count, and a u32 CRC32 of the
//! count's little-endian bytes. Each table entry is the unit's cumulative
//! *end* offset (u64) followed by the CRC32 of the unit's bytes (u32), so
//! data unit `i` occupies `dat[offset[i-1]..offset[i]]` (with
//! `offset[-1] = 0`) and any bit flip in either file is detectable. The
//! full table is loaded into memory on open — 12 bytes per data unit,
//! which for the paper's 700 k pages is under 9 MB.
//!
//! The store is appendable: [`CorpusWriter::open_append`] resumes writing
//! after the last committed unit in O(1) — it reads only the index header
//! and the *tail* offset (never the full table, never the data file), and
//! [`CorpusWriter::commit`] appends the new entries and patches the count
//! (plus its CRC, one positioned write) in place. The count is the commit
//! point: entries are written before the count, so a crash mid-commit
//! leaves the previously committed prefix readable and any torn tail
//! bytes are truncated on the next reopen.
//!
//! The store keeps no cache: every [`Corpus::get`] is one positioned read
//! of the unit and a check of its CRC, on the path that serves query
//! results. The confirmation step reads its candidates through
//! [`Corpus::get_sorted`] instead: candidates that lie close together
//! become one *run*, read with one positioned read into one reused
//! buffer, and every candidate unit of it is CRC-checked before it is
//! handed out (the units between them are neither checked nor handed
//! out). A run spans at most 256 KiB and at most twice its
//! candidates' own bytes, a rule on offsets alone, so what is read never
//! depends on timing. [`Corpus::scan`] (the mining/merge throughput path,
//! which re-reads the corpus many times per build, and a batch SCAN
//! query) does *not* verify; `free fsck` covers scans offline via
//! [`DiskCorpus::verify_units`], and a scan whose bytes are written out
//! again, or that answers a live query, uses [`DiskCorpus::scan_checked`].
//! Every read goes through one ranged reader.

use crate::{Corpus, DocId, Error, Result};
use free_checksum::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FREECORP";
const VERSION: u32 = 2;
const DATA_FILE: &str = "corpus.dat";
const INDEX_FILE: &str = "corpus.idx";
/// Byte offset of the u64 unit count inside the index file.
const COUNT_OFFSET: u64 = 12;
/// Byte offset where the entry table starts: magic, version, count, and
/// the u32 CRC of the count.
const TABLE_OFFSET: u64 = 24;
/// Bytes per table entry: the u64 end offset, then the unit's CRC32.
const ENTRY_STRIDE: u64 = 12;
/// Most bytes one positioned read of a sequential pass or of a run of
/// candidates covers (a unit larger than this is read alone). Builds
/// and SCAN queries read from several threads at once, and glibc keeps each thread's freed buffer
/// resident in that thread's malloc arena, so this bounds what a pass
/// costs each thread; from the page cache reads this size stream as fast
/// as larger ones.
const READ_BUFFER: u64 = 256 << 10;

/// Reads and validates the index-file header from the start of `idx`,
/// leaving it at the entry table. Returns the unit count, which must
/// match its stored CRC.
// `expect`: every `try_into` slices a fixed range of a 24-byte buffer.
#[allow(clippy::expect_used)]
fn read_header(idx: &mut impl Read, idx_path: &Path) -> Result<u64> {
    let mut header = [0u8; TABLE_OFFSET as usize];
    // The magic is judged before the rest is read, so a short file that
    // is not a corpus index at all says so.
    let (magic, rest) = header.split_at_mut(MAGIC.len());
    idx.read_exact(magic)
        .map_err(|e| Error::io(format!("read magic of {}", idx_path.display()), e))?;
    if magic != MAGIC {
        return Err(Error::Corrupt(format!(
            "bad magic in {}: {magic:?}",
            idx_path.display()
        )));
    }
    idx.read_exact(rest)
        .map_err(|e| Error::io(format!("read header of {}", idx_path.display()), e))?;
    let version = u32::from_le_bytes(header[8..12].try_into().expect("fixed size"));
    if version != VERSION {
        return Err(Error::Corrupt(format!(
            "{}: unsupported format, rebuild (corpus version {version}, expected {VERSION})",
            idx_path.display()
        )));
    }
    let count_bytes: [u8; 8] = header[12..20].try_into().expect("fixed size");
    let count_crc = u32::from_le_bytes(header[20..24].try_into().expect("fixed size"));
    if count_crc != crc32(&count_bytes) {
        return Err(Error::Corrupt(format!(
            "unit count fails its CRC in {}",
            idx_path.display()
        )));
    }
    Ok(u64::from_le_bytes(count_bytes))
}

/// Streaming writer that appends data units to an on-disk corpus.
pub struct CorpusWriter {
    data: BufWriter<File>,
    /// Table entries (absolute end offset, CRC32) of the units appended
    /// by *this* writer, in their on-disk form.
    new_entries: Vec<u8>,
    /// Units already committed before this writer opened.
    base_count: u64,
    written: u64,
    dir: PathBuf,
}

impl CorpusWriter {
    /// Creates (or truncates) a corpus store in `dir`.
    pub fn create(dir: impl AsRef<Path>) -> Result<CorpusWriter> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::io(format!("create dir {}", dir.display()), e))?;
        let data_path = dir.join(DATA_FILE);
        let data = File::create(&data_path)
            .map_err(|e| Error::io(format!("create {}", data_path.display()), e))?;
        // Write the header (count 0) up front so `commit` only ever patches
        // the count and appends offsets, in both create and append modes.
        let idx_path = dir.join(INDEX_FILE);
        let idx = File::create(&idx_path)
            .map_err(|e| Error::io(format!("create {}", idx_path.display()), e))?;
        let mut header = Vec::with_capacity(TABLE_OFFSET as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&crc32(&0u64.to_le_bytes()).to_le_bytes());
        idx.write_all_at(&header, 0)
            .map_err(|e| Error::io("write header", e))?;
        Ok(CorpusWriter {
            data: BufWriter::new(data),
            new_entries: Vec::new(),
            base_count: 0,
            written: 0,
            dir,
        })
    }

    /// Reopens an existing store for appending in O(1): only the index
    /// header and the last committed offset are read — the offset table is
    /// never scanned and the data file is never rewritten. Uncommitted
    /// bytes past the last committed offset (from a crashed writer) are
    /// truncated away.
    pub fn open_append(dir: impl AsRef<Path>) -> Result<CorpusWriter> {
        let dir = dir.as_ref().to_path_buf();
        let idx_path = dir.join(INDEX_FILE);
        let idx = File::open(&idx_path)
            .map_err(|e| Error::io(format!("open {}", idx_path.display()), e))?;
        let base_count = read_header(&mut &idx, &idx_path)?;
        let written = if base_count == 0 {
            0
        } else {
            let mut buf8 = [0u8; 8];
            idx.read_exact_at(&mut buf8, TABLE_OFFSET + (base_count - 1) * ENTRY_STRIDE)
                .map_err(|e| Error::io("read tail offset", e))?;
            u64::from_le_bytes(buf8)
        };
        let data_path = dir.join(DATA_FILE);
        let data = OpenOptions::new()
            .write(true)
            .open(&data_path)
            .map_err(|e| Error::io(format!("open {}", data_path.display()), e))?;
        let data_len = data
            .metadata()
            .map_err(|e| Error::io(format!("stat {}", data_path.display()), e))?
            .len();
        if data_len < written {
            return Err(Error::Corrupt(format!(
                "data file shorter than committed offsets ({data_len} < {written})"
            )));
        }
        if data_len > written {
            // Torn tail from a writer that crashed before committing.
            data.set_len(written)
                .map_err(|e| Error::io("truncate torn tail", e))?;
        }
        use std::io::Seek;
        let mut data = data;
        data.seek(std::io::SeekFrom::Start(written))
            .map_err(|e| Error::io("seek to append position", e))?;
        Ok(CorpusWriter {
            data: BufWriter::new(data),
            new_entries: Vec::new(),
            base_count,
            written,
            dir,
        })
    }

    /// Appends one data unit, returning its id.
    pub fn append(&mut self, doc: &[u8]) -> Result<DocId> {
        self.append_with_crc(doc, crc32(doc))
    }

    /// [`CorpusWriter::append`] of a unit whose CRC32 the caller has just
    /// checked to be `crc` (a copy out of
    /// [`DiskCorpus::scan_checked`]), so its bytes are not summed twice.
    /// A wrong `crc` is stored as given, and every later read of the unit
    /// fails its check.
    pub fn append_with_crc(&mut self, doc: &[u8], crc: u32) -> Result<DocId> {
        let id = self.len() as DocId;
        self.data
            .write_all(doc)
            .map_err(|e| Error::io(format!("write data unit {id}"), e))?;
        self.written += doc.len() as u64;
        let entries = &mut self.new_entries;
        entries.extend_from_slice(&self.written.to_le_bytes());
        entries.extend_from_slice(&crc.to_le_bytes());
        Ok(id)
    }

    /// Number of data units in the store (committed plus pending).
    pub fn len(&self) -> usize {
        self.base_count as usize + self.new_entries.len() / ENTRY_STRIDE as usize
    }

    /// Whether the store holds no data units at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes everything, appends the new entries, and commits them by
    /// patching the unit count (and its CRC, in one positioned write)
    /// in the header. Costs O(units appended), whatever the store holds.
    pub fn commit(mut self) -> Result<()> {
        self.data
            .flush()
            .map_err(|e| Error::io("flush data file", e))?;
        let idx_path = self.dir.join(INDEX_FILE);
        let idx = OpenOptions::new()
            .write(true)
            .open(&idx_path)
            .map_err(|e| Error::io(format!("open {}", idx_path.display()), e))?;
        // Entries first, count last: the count is the commit point.
        idx.write_all_at(
            &self.new_entries,
            TABLE_OFFSET + self.base_count * ENTRY_STRIDE,
        )
        .map_err(|e| Error::io("write offsets", e))?;
        let count_bytes = (self.len() as u64).to_le_bytes();
        let mut commit = Vec::with_capacity(12);
        commit.extend_from_slice(&count_bytes);
        commit.extend_from_slice(&crc32(&count_bytes).to_le_bytes());
        idx.write_all_at(&commit, COUNT_OFFSET)
            .map_err(|e| Error::io("write count", e))
    }

    /// [`CorpusWriter::commit`], then the opened read-side corpus, which
    /// reads the whole entry table.
    pub fn finish(self) -> Result<DiskCorpus> {
        let dir = self.dir.clone();
        self.commit()?;
        DiskCorpus::open(dir)
    }
}

/// A read-only on-disk corpus.
pub struct DiskCorpus {
    data_path: PathBuf,
    /// Open handle used for random access via positioned reads
    /// (`read_exact_at`), so concurrent `get` calls share it without
    /// seek-state races or per-call `open` overhead.
    data: File,
    /// Cumulative end offsets; `ends[i]` is one past the last byte of doc i.
    ends: Vec<u64>,
    /// Per-unit CRC32s, parallel to `ends`.
    crcs: Vec<u32>,
}

impl DiskCorpus {
    /// Always `None`: the store has no document cache. Kept only for the
    /// standalone benchmark's adapter, which reads it as a cache hit
    /// share of 0; ROADMAP item 1 removes it together with that adapter.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Opens an existing corpus store in `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<DiskCorpus> {
        let dir = dir.as_ref();
        let idx_path = dir.join(INDEX_FILE);
        let idx = File::open(&idx_path)
            .map_err(|e| Error::io(format!("open {}", idx_path.display()), e))?;
        let mut r = BufReader::new(idx);
        let count = read_header(&mut r, &idx_path)? as usize;
        let mut buf8 = [0u8; 8];
        let mut buf4 = [0u8; 4];
        let mut ends = Vec::with_capacity(count);
        let mut crcs = Vec::with_capacity(count);
        let mut prev = 0u64;
        for i in 0..count {
            r.read_exact(&mut buf8)
                .map_err(|e| Error::io(format!("read offset {i}"), e))?;
            let end = u64::from_le_bytes(buf8);
            if end < prev {
                return Err(Error::Corrupt(format!(
                    "offsets not monotone at {i}: {end} < {prev}"
                )));
            }
            ends.push(end);
            prev = end;
            r.read_exact(&mut buf4)
                .map_err(|e| Error::io(format!("read unit CRC {i}"), e))?;
            crcs.push(u32::from_le_bytes(buf4));
        }
        let data_path = dir.join(DATA_FILE);
        let data_len = std::fs::metadata(&data_path)
            .map_err(|e| Error::io(format!("stat {}", data_path.display()), e))?
            .len();
        let last_end = ends.last().copied().unwrap_or(0);
        if last_end > data_len {
            return Err(Error::Corrupt(format!(
                "offset table points past end of data file ({last_end} > {data_len})"
            )));
        }
        let data = File::open(&data_path)
            .map_err(|e| Error::io(format!("open {}", data_path.display()), e))?;
        Ok(DiskCorpus {
            data_path,
            data,
            ends,
            crcs,
        })
    }

    /// Re-reads every unit sequentially and checks its stored CRC32,
    /// returning one `(id, detail)` pair per corrupted unit; empty on a
    /// clean store. This is `free fsck`'s offline scan — the hot
    /// [`Corpus::scan`] path deliberately skips these checks.
    pub fn verify_units(&self) -> Result<Vec<(DocId, String)>> {
        let mut bad = Vec::new();
        self.scan(&mut |id, bytes| {
            if let Err(detail) = self.check_unit(id, bytes) {
                bad.push((id, detail));
            }
            true
        })?;
        Ok(bad)
    }

    /// [`Corpus::scan_range`] with every unit checked against its stored
    /// CRC32 before `f` sees it, with that CRC: the first that fails ends
    /// the pass with [`Error::Corrupt`]. A copy that writes the units out
    /// again (live compaction) reads through this and stores the CRC it
    /// was handed, so damage is refused, not laundered into a store that
    /// verifies clean; so does a live SCAN.
    pub fn scan_checked(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8], u32) -> bool,
    ) -> Result<()> {
        let mut bad = None;
        self.scan_range(positions, &mut |id, bytes| match self.checked(id, bytes) {
            Ok(()) => f(id, bytes, self.crcs[id as usize]),
            Err(e) => {
                bad = Some(e);
                false
            }
        })?;
        bad.map_or(Ok(()), Err)
    }

    fn check_unit(&self, id: DocId, bytes: &[u8]) -> std::result::Result<(), String> {
        let (stored, actual) = (self.crcs[id as usize], crc32(bytes));
        if actual != stored {
            return Err(format!(
                "data unit {id} fails its CRC (stored {stored:08x}, actual {actual:08x})"
            ));
        }
        Ok(())
    }

    /// [`DiskCorpus::check_unit`] as the error a read returns.
    fn checked(&self, id: DocId, bytes: &[u8]) -> Result<()> {
        self.check_unit(id, bytes)
            .map_err(|detail| Error::Corrupt(format!("{detail} in {}", self.data_path.display())))
    }

    /// The offset unit `i` (in range) starts at.
    fn start(&self, i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// The ranged reader every read goes through: the bytes of units
    /// `units` (non-empty, in range) into `buf` with one positioned read.
    /// Returns the offset `buf[0]` was read from.
    fn read_units(&self, units: Range<usize>, buf: &mut Vec<u8>) -> Result<u64> {
        let from = self.start(units.start);
        buf.resize((self.ends[units.end - 1] - from) as usize, 0);
        self.data
            .read_exact_at(buf, from)
            .map_err(|e| Error::io(format!("read data units {}..{}", units.start, units.end), e))?;
        Ok(from)
    }

    /// How many of `ids` (the first in range) one run reads: each next id
    /// lies past the one before it, and the run's span stays within
    /// [`READ_BUFFER`] and within twice its candidates' own bytes.
    fn run_len(&self, ids: &[DocId]) -> usize {
        let first = ids[0] as usize;
        let from = self.start(first);
        let mut own = self.ends[first] - from;
        let mut last = first;
        let mut n = 1;
        for &id in &ids[1..] {
            let id = id as usize;
            if id <= last || id >= self.ends.len() {
                break;
            }
            let span = self.ends[id] - from;
            let grown = own + (self.ends[id] - self.ends[id - 1]);
            if span > READ_BUFFER || span > 2 * grown {
                break;
            }
            (own, last, n) = (grown, id, n + 1);
        }
        n
    }

    /// `id` as an index, or the error a read of a missing unit returns.
    fn index_of(&self, id: DocId) -> Result<usize> {
        let i = id as usize;
        if i >= self.ends.len() {
            return Err(Error::DocOutOfRange {
                id,
                len: self.ends.len(),
            });
        }
        Ok(i)
    }
}

impl Corpus for DiskCorpus {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn total_bytes(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    fn get(&self, id: DocId) -> Result<Vec<u8>> {
        let i = self.index_of(id)?;
        let mut buf = Vec::new();
        self.read_units(i..i + 1, &mut buf)?;
        self.checked(id, &buf)?;
        Ok(buf)
    }

    /// Reads the ids run by run (see the module docs), each run with one
    /// positioned read into one buffer reused for the whole call, and
    /// checks every candidate unit's CRC before `f` sees it.
    fn get_sorted(&self, ids: &[DocId], f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> Result<()> {
        let mut buf = Vec::new();
        let mut rest = ids;
        while let Some(&first) = rest.first() {
            let first = self.index_of(first)?;
            let n = self.run_len(rest);
            let (run, later) = rest.split_at(n);
            let last = run[n - 1] as usize;
            let from = self.read_units(first..last + 1, &mut buf)?;
            for &id in run {
                let i = id as usize;
                let bytes = &buf[(self.start(i) - from) as usize..(self.ends[i] - from) as usize];
                self.checked(id, bytes)?;
                if !f(id, bytes) {
                    return Ok(());
                }
            }
            rest = later;
        }
        Ok(())
    }

    /// Reads the range with one positioned read per 256 KiB of units
    /// into one reused buffer. It does not check unit CRCs (see
    /// [`DiskCorpus::scan_checked`]).
    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> Result<()> {
        let end = positions.end.min(self.ends.len());
        let mut first = positions.start.min(end);
        let mut buf = Vec::new();
        while first < end {
            let from = self.start(first);
            // The units after `first` that still fit in one read.
            let last =
                first + 1 + self.ends[first + 1..end].partition_point(|&e| e - from <= READ_BUFFER);
            self.read_units(first..last, &mut buf)?;
            let mut at = 0;
            for id in first..last {
                let next = (self.ends[id] - from) as usize;
                if !f(id as DocId, &buf[at..next]) {
                    return Ok(());
                }
                at = next;
            }
            first = last;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("free-corpus-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut w = CorpusWriter::create(&dir).unwrap();
        let docs: Vec<Vec<u8>> = vec![
            b"first page".to_vec(),
            Vec::new(),
            b"third page with more bytes".to_vec(),
        ];
        for d in &docs {
            w.append(d).unwrap();
        }
        assert_eq!(w.len(), 3);
        let c = w.finish().unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_bytes(), 36);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&c.get(i as DocId).unwrap(), d);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen() {
        let dir = tmpdir("reopen");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"persisted").unwrap();
        drop(w.finish().unwrap());
        let c = DiskCorpus::open(&dir).unwrap();
        assert_eq!(c.get(0).unwrap(), b"persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_matches_get() {
        let dir = tmpdir("scan");
        let mut w = CorpusWriter::create(&dir).unwrap();
        for i in 0..50u32 {
            w.append(format!("document number {i} {}", "x".repeat(i as usize)).as_bytes())
                .unwrap();
        }
        let c = w.finish().unwrap();
        let mut count = 0;
        c.scan(&mut |id, bytes| {
            assert_eq!(bytes, c.get(id).unwrap());
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_early_stop() {
        let dir = tmpdir("early");
        let mut w = CorpusWriter::create(&dir).unwrap();
        for _ in 0..10 {
            w.append(b"doc").unwrap();
        }
        let c = w.finish().unwrap();
        let mut n = 0;
        c.scan(&mut |_, _| {
            n += 1;
            n < 4
        })
        .unwrap();
        assert_eq!(n, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range() {
        let dir = tmpdir("oor");
        let w = CorpusWriter::create(&dir).unwrap();
        let c = w.finish().unwrap();
        assert!(matches!(c.get(0), Err(Error::DocOutOfRange { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = tmpdir("corrupt");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"data").unwrap();
        drop(w.finish().unwrap());
        std::fs::write(dir.join(INDEX_FILE), b"NOTMAGIC????????").unwrap();
        assert!(matches!(DiskCorpus::open(&dir), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_data_rejected() {
        let dir = tmpdir("trunc");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"some bytes here").unwrap();
        drop(w.finish().unwrap());
        // Chop the data file shorter than the offsets claim.
        std::fs::write(dir.join(DATA_FILE), b"x").unwrap();
        assert!(matches!(DiskCorpus::open(&dir), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_gets_agree() {
        let dir = tmpdir("parget");
        let mut w = CorpusWriter::create(&dir).unwrap();
        for i in 0..200u32 {
            w.append(format!("unit {i} {}", "y".repeat((i % 17) as usize)).as_bytes())
                .unwrap();
        }
        let c = std::sync::Arc::new(w.finish().unwrap());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in (t..200).step_by(4) {
                    let want = format!("unit {i} {}", "y".repeat((i % 17) as usize));
                    assert_eq!(c.get(i).unwrap(), want.as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_resumes_ids_and_bytes() {
        let dir = tmpdir("append");
        let mut w = CorpusWriter::create(&dir).unwrap();
        assert_eq!(w.append(b"one").unwrap(), 0);
        assert_eq!(w.append(b"two").unwrap(), 1);
        drop(w.finish().unwrap());
        // Three reopen cycles, each adding one unit.
        for round in 0..3u32 {
            let mut w = CorpusWriter::open_append(&dir).unwrap();
            assert_eq!(w.len(), 2 + round as usize);
            let id = w.append(format!("round {round}").as_bytes()).unwrap();
            assert_eq!(id, 2 + round);
            let c = w.finish().unwrap();
            assert_eq!(c.len(), 3 + round as usize);
        }
        let c = DiskCorpus::open(&dir).unwrap();
        assert_eq!(c.get(0).unwrap(), b"one");
        assert_eq!(c.get(1).unwrap(), b"two");
        for round in 0..3u32 {
            assert_eq!(
                c.get(2 + round).unwrap(),
                format!("round {round}").as_bytes()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_on_empty_store() {
        let dir = tmpdir("append-empty");
        drop(CorpusWriter::create(&dir).unwrap().finish().unwrap());
        let mut w = CorpusWriter::open_append(&dir).unwrap();
        assert!(w.is_empty());
        w.append(b"first").unwrap();
        let c = w.finish().unwrap();
        assert_eq!(c.get(0).unwrap(), b"first");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_truncates_torn_tail() {
        let dir = tmpdir("append-torn");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"committed").unwrap();
        drop(w.finish().unwrap());
        // Simulate a writer that crashed after writing data bytes but
        // before committing the offsets: raw bytes past the last offset.
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(DATA_FILE))
                .unwrap();
            f.write_all(b"torn garbage").unwrap();
        }
        let mut w = CorpusWriter::open_append(&dir).unwrap();
        assert_eq!(w.len(), 1);
        w.append(b"after crash").unwrap();
        let c = w.finish().unwrap();
        assert_eq!(c.get(0).unwrap(), b"committed");
        assert_eq!(c.get(1).unwrap(), b"after crash");
        assert_eq!(c.total_bytes(), 9 + 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commits_write_what_one_pass_writes() {
        let (one, many) = (tmpdir("one-pass"), tmpdir("many-commits"));
        let units: Vec<Vec<u8>> = (0..20)
            .map(|i| format!("unit {i} {}", "z".repeat(i % 5)).into_bytes())
            .collect();
        let mut w = CorpusWriter::create(&one).unwrap();
        for unit in &units {
            w.append(unit).unwrap();
        }
        w.commit().unwrap();
        CorpusWriter::create(&many).unwrap().commit().unwrap();
        for batch in units.chunks(3) {
            let mut w = CorpusWriter::open_append(&many).unwrap();
            for unit in batch {
                w.append(unit).unwrap();
            }
            w.commit().unwrap();
        }
        let same = || {
            [DATA_FILE, INDEX_FILE].iter().all(|f| {
                std::fs::read(one.join(f)).unwrap() == std::fs::read(many.join(f)).unwrap()
            })
        };
        assert!(same());
        // A writer dropped before its commit leaves data bytes behind; the
        // next append truncates them.
        let mut w = CorpusWriter::open_append(&many).unwrap();
        w.append(b"never committed").unwrap();
        drop(w);
        assert!(!same());
        let w = CorpusWriter::open_append(&many).unwrap();
        assert_eq!(w.len(), units.len());
        w.commit().unwrap();
        assert!(same());
        let c = DiskCorpus::open(&many).unwrap();
        for (id, unit) in units.iter().enumerate() {
            assert_eq!(&c.get(id as DocId).unwrap(), unit);
        }
        std::fs::remove_dir_all(&one).unwrap();
        std::fs::remove_dir_all(&many).unwrap();
    }

    #[test]
    fn other_versions_are_rejected() {
        let dir = tmpdir("oneversion");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"doc").unwrap();
        drop(w.finish().unwrap());
        let good = std::fs::read(dir.join(INDEX_FILE)).unwrap();
        for version in [1u32, 3] {
            let mut idx = good.clone();
            idx[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(dir.join(INDEX_FILE), &idx).unwrap();
            for err in [
                DiskCorpus::open(&dir).err(),
                CorpusWriter::open_append(&dir).err(),
            ] {
                assert!(
                    matches!(&err, Some(Error::Corrupt(m)) if m.contains("unsupported format, rebuild")),
                    "version {version}: {err:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn new_stores_are_checksummed() {
        let dir = tmpdir("v2crc");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"guarded bytes").unwrap();
        let c = w.finish().unwrap();
        assert_eq!(c.crcs, vec![crc32(b"guarded bytes")]);
        assert!(c.verify_units().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_data_byte_fails_get_and_verify() {
        let dir = tmpdir("flip");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"aaaa").unwrap();
        w.append(b"bbbb").unwrap();
        drop(w.finish().unwrap());
        // Flip one bit inside unit 1's bytes.
        let mut data = std::fs::read(dir.join(DATA_FILE)).unwrap();
        data[5] ^= 0x10;
        std::fs::write(dir.join(DATA_FILE), &data).unwrap();
        let c = DiskCorpus::open(&dir).unwrap();
        assert_eq!(c.get(0).unwrap(), b"aaaa");
        assert!(matches!(c.get(1), Err(Error::Corrupt(_))));
        let bad = c.verify_units().unwrap();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 1);
        // A checked scan hands over the good unit and stops at the bad one.
        let mut seen = Vec::new();
        let err = c
            .scan_checked(0..c.len(), &mut |id, _, _| {
                seen.push(id);
                true
            })
            .expect_err("a damaged unit must end the pass");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("data unit 1 fails its CRC")),
            "{err}"
        );
        assert_eq!(seen, vec![0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_follow_offsets_only() {
        let dir = tmpdir("runs");
        let mut w = CorpusWriter::create(&dir).unwrap();
        for _ in 0..10 {
            w.append(&[7u8; 100]).unwrap();
        }
        w.append(&vec![7u8; READ_BUFFER as usize]).unwrap();
        let c = w.finish().unwrap();
        // Every other unit: the span is under twice the candidates' bytes,
        // so one run reads the units between them too.
        assert_eq!(c.run_len(&[0, 2, 4, 6, 8]), 5);
        // Two units in six: 600 bytes spanned for 200 of candidates.
        assert_eq!(c.run_len(&[0, 5, 6]), 1);
        assert_eq!(c.run_len(&[5, 6]), 2);
        // Not ascending: a new run.
        assert_eq!(c.run_len(&[3, 3]), 1);
        assert_eq!(c.run_len(&[4, 2]), 1);
        // The run would pass READ_BUFFER; an id past the end stops it.
        assert_eq!(c.run_len(&[9, 10]), 1);
        assert_eq!(c.run_len(&[10, 11]), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_count_rejected_at_open() {
        let dir = tmpdir("count-crc");
        let mut w = CorpusWriter::create(&dir).unwrap();
        w.append(b"doc").unwrap();
        drop(w.finish().unwrap());
        let mut idx = std::fs::read(dir.join(INDEX_FILE)).unwrap();
        idx[COUNT_OFFSET as usize] ^= 1;
        std::fs::write(dir.join(INDEX_FILE), &idx).unwrap();
        assert!(matches!(DiskCorpus::open(&dir), Err(Error::Corrupt(_))));
        assert!(matches!(
            CorpusWriter::open_append(&dir),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_append_missing_store_is_io_error() {
        assert!(matches!(
            CorpusWriter::open_append("/nonexistent/path/xyz"),
            Err(Error::Io { .. })
        ));
    }

    #[test]
    fn missing_dir_is_io_error() {
        assert!(matches!(
            DiskCorpus::open("/nonexistent/path/xyz"),
            Err(Error::Io { .. })
        ));
    }
}
