//! Sealed immutable segments: a corpus store, an index, and the
//! local→global sequence map.
//!
//! The oldest segment's key directory is the live index's *dictionary*.
//! Two operations mine one, with the same pipeline the offline engine
//! uses (`mine_index`: [`free_engine::select_keys`], then
//! [`free_engine::build_index`]): the first flush into an index with no
//! segments, and a compaction that finds the new documents drifted from
//! the dictionary (`LiveIndex::drift`). Every other segment is sealed
//! over exactly the dictionary's keys by the one postings writer (the
//! `postings` module): a flush writes the postings the write buffer
//! recorded as documents arrived, and a merging compaction concatenates
//! the segments' own, keeping every dictionary key. Each segment is
//! therefore complete for every dictionary key: a key absent from its
//! directory occurs in none of its live documents.
//!
//! A flush writes no document: the WAL, already a CRC-checked store in
//! this format, becomes the segment's store by a rename. The buffered
//! documents deleted before the flush stay in it, under their dead bits
//! and their tombstones, with no postings, until a compaction drops them.
//! Compaction writes its store through a `SegmentWriter`.

use crate::error::{Error, Result};
use crate::manifest::SegmentMeta;
use free_corpus::{Corpus, CorpusWriter, DiskCorpus, DocId};
use free_engine::EngineConfig;
use free_index::{IndexRead, IndexReader};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sequence-map magic (the only generation accepted): the file is the
/// magic, a u64 count, the u32 sequence words, and a trailing CRC32 (LE)
/// over everything before it.
const SEQS_MAGIC: &[u8; 8] = b"FREESEQ2";

/// Directory of the segment's corpus store.
pub fn corpus_dir(seg_root: &Path, id: u64) -> PathBuf {
    seg_root.join(format!("seg-{id}.corpus"))
}

/// Path of the segment's index file.
pub fn index_path(seg_root: &Path, id: u64) -> PathBuf {
    seg_root.join(format!("seg-{id}.idx"))
}

/// Path of the segment's sequence-map file.
pub fn seqs_path(seg_root: &Path, id: u64) -> PathBuf {
    seg_root.join(format!("seg-{id}.seqs"))
}

/// Writes the local→global sequence map.
pub fn write_seqs(path: &Path, seqs: &[DocId]) -> Result<()> {
    let mut buf = Vec::with_capacity(20 + seqs.len() * 4);
    buf.extend_from_slice(SEQS_MAGIC);
    buf.extend_from_slice(&(seqs.len() as u64).to_le_bytes());
    for &s in seqs {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    let crc = free_checksum::crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    let mut f =
        File::create(path).map_err(|e| Error::io(format!("create {}", path.display()), e))?;
    f.write_all(&buf)
        .map_err(|e| Error::io(format!("write {}", path.display()), e))
}

/// Reads a local→global sequence map, validating its checksum and
/// strict ascent.
// `unwrap`: every `try_into` takes a slice whose length was validated
// against the count above.
#[allow(clippy::unwrap_used)]
pub fn read_seqs(path: &Path) -> Result<Vec<DocId>> {
    let mut f = File::open(path).map_err(|e| Error::io(format!("open {}", path.display()), e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| Error::io(format!("read {}", path.display()), e))?;
    if bytes.len() < 16 || &bytes[..8] != SEQS_MAGIC {
        return Err(Error::Corrupt(format!(
            "{}: unsupported format, rebuild (seqs file without the FREESEQ2 magic)",
            path.display()
        )));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    // Header, `count` four-byte words, and the CRC; compared without
    // multiplying a count that damage may have made enormous.
    let words = bytes.len().checked_sub(20).filter(|n| n % 4 == 0);
    if words.map(|n| (n / 4) as u64) != Some(count) {
        return Err(Error::Corrupt(format!(
            "seqs file {} length mismatch",
            path.display()
        )));
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual = free_checksum::crc32(&bytes[..body_end]);
    if stored != actual {
        return Err(Error::Corrupt(format!(
            "seqs file {} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}",
            path.display()
        )));
    }
    let mut seqs = Vec::with_capacity(count as usize);
    let mut prev: Option<DocId> = None;
    for chunk in bytes[16..body_end].chunks_exact(4) {
        let s = DocId::from_le_bytes(chunk.try_into().unwrap());
        if let Some(p) = prev {
            if s <= p {
                return Err(Error::Corrupt(format!(
                    "seqs file {} not strictly ascending",
                    path.display()
                )));
            }
        }
        prev = Some(s);
        seqs.push(s);
    }
    Ok(seqs)
}

/// A sealed segment opened for reading.
pub struct Segment {
    /// Committed metadata.
    pub meta: SegmentMeta,
    /// The segment's document store (local ids).
    pub corpus: DiskCorpus,
    /// The segment's index (local ids): mined, or over the dictionary.
    pub index: IndexReader,
    /// Strictly ascending map local id → global sequence number. Shared
    /// with cursors via `Arc` so query streams borrow nothing.
    pub seqs: Arc<Vec<DocId>>,
}

impl Segment {
    /// Opens the segment files named by `meta` under `seg_root`.
    pub fn open(seg_root: &Path, meta: SegmentMeta) -> Result<Segment> {
        let seqs = read_seqs(&seqs_path(seg_root, meta.id))?;
        let index = IndexReader::open(index_path(seg_root, meta.id))?;
        Segment::with_index(seg_root, meta, index, seqs)
    }

    /// The segment `meta` names, its index and sequence map already in
    /// hand: opens its corpus store and checks the three agree.
    pub(crate) fn with_index(
        seg_root: &Path,
        meta: SegmentMeta,
        index: IndexReader,
        seqs: Vec<DocId>,
    ) -> Result<Segment> {
        let segment = Segment {
            corpus: DiskCorpus::open(corpus_dir(seg_root, meta.id))?,
            meta,
            index,
            seqs: Arc::new(seqs),
        };
        segment.check()?;
        Ok(segment)
    }

    fn check(&self) -> Result<()> {
        let m = &self.meta;
        if self.seqs.len() != m.num_docs as usize
            || self.corpus.len() != m.num_docs as usize
            || self.seqs.first() != Some(&m.first_seq)
            || self.seqs.last() != Some(&m.last_seq)
        {
            return Err(Error::Corrupt(format!(
                "segment {} files disagree with manifest metadata",
                m.id
            )));
        }
        Ok(())
    }

    /// Local doc id of the document with sequence `seq`, if stored here.
    pub fn local_of(&self, seq: DocId) -> Option<DocId> {
        self.seqs.binary_search(&seq).ok().map(|i| i as DocId)
    }

    /// Total stored document bytes.
    pub fn data_bytes(&self) -> u64 {
        self.corpus.total_bytes()
    }

    /// Number of keys in the segment's index directory.
    pub fn num_keys(&self) -> usize {
        self.index.num_keys()
    }
}

/// A segment being written: its documents in ascending sequence order,
/// then its index, either mined or handed over by the caller.
pub(crate) struct SegmentWriter {
    root: PathBuf,
    id: u64,
    corpus: CorpusWriter,
    seqs: Vec<DocId>,
}

impl SegmentWriter {
    /// Starts segment `id` under `seg_root`.
    pub(crate) fn create(seg_root: &Path, id: u64) -> Result<SegmentWriter> {
        std::fs::create_dir_all(seg_root)
            .map_err(|e| Error::io(format!("create {}", seg_root.display()), e))?;
        Ok(SegmentWriter {
            root: seg_root.to_path_buf(),
            id,
            corpus: CorpusWriter::create(corpus_dir(seg_root, id))?,
            seqs: Vec::new(),
        })
    }

    /// Appends the document with sequence number `seq`, which must exceed
    /// every one appended before it, copied out of a checked read that
    /// found its CRC32 to be `crc`, which the store records as given
    /// instead of summing the bytes again.
    pub(crate) fn append_copied(&mut self, seq: DocId, bytes: &[u8], crc: u32) -> Result<()> {
        self.corpus.append_with_crc(bytes, crc)?;
        self.seqs.push(seq);
        Ok(())
    }

    /// Seals the segment with the batch build: a key set mined over its
    /// documents with the engine's selection policy
    /// ([`free_engine::select_keys`]), then one postings scan
    /// ([`free_engine::build_index`]). The index file is byte for byte
    /// what `Engine::build_on_disk` writes for the same documents.
    pub(crate) fn mine(self, config: &EngineConfig) -> Result<Segment> {
        self.seal(|corpus, path| mine_index(corpus, config, path))
    }

    /// Seals the segment with the index `index` writes at the given path
    /// over the segment's (local-id) corpus. Returns the opened segment.
    // `expect`: callers never seal an empty segment; `seqs[0]` above would
    // already have panicked if nothing was appended.
    #[allow(clippy::expect_used)]
    pub(crate) fn seal(
        self,
        index: impl FnOnce(&DiskCorpus, &Path) -> Result<IndexReader>,
    ) -> Result<Segment> {
        let (root, id, seqs) = (self.root, self.id, self.seqs);
        assert!(!seqs.is_empty(), "segments are never empty");
        let corpus = self.corpus.finish()?;
        write_seqs(&seqs_path(&root, id), &seqs)?;
        let segment = Segment {
            meta: SegmentMeta {
                id,
                num_docs: seqs.len() as u32,
                first_seq: seqs[0],
                last_seq: *seqs.last().expect("non-empty"),
            },
            index: index(&corpus, &index_path(&root, id))?,
            corpus,
            seqs: Arc::new(seqs),
        };
        segment.check()?;
        Ok(segment)
    }
}

/// The batch build over `corpus`, written at `path`: a key set mined
/// with the engine's selection policy ([`free_engine::select_keys`]),
/// then one postings scan ([`free_engine::build_index`]). The file is
/// byte for byte what `Engine::build_on_disk` writes for the same
/// documents under the same ids.
pub(crate) fn mine_index(
    corpus: &impl Corpus,
    config: &EngineConfig,
    path: &Path,
) -> Result<IndexReader> {
    let (keys, _mining) = free_engine::select_keys(corpus, config)?;
    Ok(free_engine::build_index(
        corpus,
        &keys,
        path,
        config.build_memory_budget,
    )?)
}

/// Best-effort removal of a segment's files (after compaction replaced
/// it). Failures are ignored: orphaned files are cleaned up again on the
/// next open.
pub fn remove_segment_files(seg_root: &Path, id: u64) {
    let _ = std::fs::remove_file(index_path(seg_root, id));
    let _ = std::fs::remove_file(seqs_path(seg_root, id));
    let _ = std::fs::remove_dir_all(corpus_dir(seg_root, id));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("free-live-segment-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seqs_roundtrip() {
        let dir = tmpdir("seqs");
        let path = dir.join("x.seqs");
        write_seqs(&path, &[3, 7, 8, 100]).unwrap();
        assert_eq!(read_seqs(&path).unwrap(), vec![3, 7, 8, 100]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seqs_checksum_catches_bit_flips() {
        let dir = tmpdir("seqs-crc");
        let path = dir.join("x.seqs");
        write_seqs(&path, &[1, 2, 3]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a high byte of the last word: the list stays strictly
        // ascending, so only the CRC can catch the damage.
        let last = bytes.len() - 4 - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_seqs(&path), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_ascending_seqs_rejected() {
        let dir = tmpdir("seqs-bad");
        let path = dir.join("x.seqs");
        write_seqs(&path, &[3, 3]).unwrap();
        assert!(matches!(read_seqs(&path), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_and_reopen_segment() {
        let dir = tmpdir("build");
        let docs: Vec<(DocId, &[u8])> = vec![
            (5, b"the quick brown fox"),
            (9, b"jumped over the lazy dog"),
            (12, b"the quick red dog"),
        ];
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        for (seq, bytes) in docs {
            let crc = free_checksum::crc32(bytes);
            writer.append_copied(seq, bytes, crc).unwrap();
        }
        let seg = writer.mine(&EngineConfig::default()).unwrap();
        assert_eq!(seg.meta.first_seq, 5);
        assert_eq!(seg.meta.last_seq, 12);
        assert_eq!(seg.local_of(9), Some(1));
        assert_eq!(seg.local_of(6), None);
        assert_eq!(seg.corpus.get(2).unwrap(), b"the quick red dog");
        let reopened = Segment::open(&dir, seg.meta.clone()).unwrap();
        assert_eq!(reopened.seqs, seg.seqs);
        assert_eq!(reopened.num_keys(), seg.num_keys());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
