//! The live-index manifest: the single commit point for structural change.
//!
//! A live index directory looks like:
//!
//! ```text
//! <dir>/live.manifest        this file — committed state
//! <dir>/wal/                 appendable corpus store: the write buffer
//! <dir>/wal.epoch            epoch stamp matching `wal_epoch` below
//! <dir>/tombstones.log       one deleted sequence number per line
//! <dir>/segments/seg-N.idx   sealed segment index (free-index format)
//! <dir>/segments/seg-N.seqs  local doc id → global sequence number
//! <dir>/segments/seg-N.corpus/  sealed segment document store
//! ```
//!
//! The manifest is a small line-oriented text file rewritten atomically
//! (temp file + rename) by flush and compaction. Everything else is
//! either append-only between manifest commits (the WAL, the tombstone
//! log) or immutable once named by a committed manifest (segments).
//! Flush bumps `wal_epoch` and recreates the WAL *after* committing the
//! manifest; a crash in between leaves a WAL whose epoch stamp disagrees
//! with the manifest, which `open` detects and discards — the docs are
//! already sealed in the flushed segment, so nothing is lost or
//! duplicated.
//!
//! Manifests written before the drift rule read only the segments' own
//! counts also carry a `baseline=` line. Like any unknown key, it is
//! ignored, and the next store drops it.

use crate::error::{Error, Result};
use free_checksum::crc32;
use free_corpus::DocId;
use std::path::{Path, PathBuf};

/// Manifest file name inside the live index directory.
pub const MANIFEST_FILE: &str = "live.manifest";
/// Header prefix (magic plus version, the only one accepted); the rest of
/// the line is the CRC32 of the manifest body (every byte after the
/// header line) in lowercase hex. Putting the checksum in the *first*
/// line means a torn or truncated rewrite is detected no matter where the
/// damage lands. Version 3 marks one dictionary per index (every segment
/// indexes the oldest segment's keys); a version 2 directory has a key
/// set per segment, which the version 3 planner would under-read.
const HEADER: &str = "FREELIVE 3 ";

/// Committed description of one sealed segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Unique segment id (never reused; names the files).
    pub id: u64,
    /// Number of documents stored (including tombstoned ones).
    pub num_docs: u32,
    /// Smallest sequence number in the segment.
    pub first_seq: DocId,
    /// Largest sequence number in the segment.
    pub last_seq: DocId,
}

/// The committed structural state of a live index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Mutation counter at last commit (diagnostic only; the in-memory
    /// generation keeps counting between commits).
    pub generation: u64,
    /// Sequence number of the first write-buffer document; WAL doc `i`
    /// has sequence `wal_base + i`.
    pub wal_base: DocId,
    /// Epoch stamp the current WAL must carry (see module docs).
    pub wal_epoch: u64,
    /// Next segment id to assign.
    pub next_segment_id: u64,
    /// Sealed segments in ascending sequence order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh, empty manifest.
    pub fn new() -> Manifest {
        Manifest {
            generation: 0,
            wal_base: 0,
            wal_epoch: 0,
            next_segment_id: 0,
            segments: Vec::new(),
        }
    }

    /// Path of the manifest file under `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Whether a manifest exists under `dir`.
    pub fn exists(dir: &Path) -> bool {
        Manifest::path(dir).is_file()
    }

    /// Loads and validates the manifest in `dir`.
    pub fn load(dir: &Path) -> Result<Manifest> {
        let body = read_checksummed(dir, MANIFEST_FILE, HEADER)?;
        let mut m = Manifest::new();
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| Error::Corrupt(format!("bad manifest line {line:?}")))?;
            let bad = |_| Error::Corrupt(format!("bad manifest value in {line:?}"));
            match key {
                "generation" => m.generation = value.parse().map_err(bad)?,
                "wal_base" => m.wal_base = value.parse().map_err(bad)?,
                "wal_epoch" => m.wal_epoch = value.parse().map_err(bad)?,
                "next_segment_id" => m.next_segment_id = value.parse().map_err(bad)?,
                "segment" => {
                    let fields: Vec<&str> = value.split_whitespace().collect();
                    if fields.len() != 4 {
                        return Err(Error::Corrupt(format!("bad segment line {line:?}")));
                    }
                    m.segments.push(SegmentMeta {
                        id: fields[0].parse().map_err(bad)?,
                        first_seq: fields[1].parse().map_err(bad)?,
                        last_seq: fields[2].parse().map_err(bad)?,
                        num_docs: fields[3].parse().map_err(bad)?,
                    });
                }
                // Unknown keys are ignored for forward compatibility.
                _ => {}
            }
        }
        m.validate()?;
        Ok(m)
    }

    /// Atomically writes the manifest into `dir` (temp file + rename).
    pub fn store(&self, dir: &Path) -> Result<()> {
        self.validate()?;
        let mut body = String::new();
        body.push_str(&format!("generation={}\n", self.generation));
        body.push_str(&format!("wal_base={}\n", self.wal_base));
        body.push_str(&format!("wal_epoch={}\n", self.wal_epoch));
        body.push_str(&format!("next_segment_id={}\n", self.next_segment_id));
        for s in &self.segments {
            body.push_str(&format!(
                "segment={} {} {} {}\n",
                s.id, s.first_seq, s.last_seq, s.num_docs
            ));
        }
        write_checksummed(dir, MANIFEST_FILE, HEADER, &body)
    }

    /// Structural invariants: segments sorted by sequence range, ranges
    /// non-overlapping, every range below `wal_base`, ids unique and
    /// below `next_segment_id`.
    fn validate(&self) -> Result<()> {
        let mut prev_last: Option<DocId> = None;
        for s in &self.segments {
            if s.num_docs == 0 || s.first_seq > s.last_seq {
                return Err(Error::Corrupt(format!("segment {} has empty range", s.id)));
            }
            if s.id >= self.next_segment_id {
                return Err(Error::Corrupt(format!(
                    "segment id {} >= next_segment_id {}",
                    s.id, self.next_segment_id
                )));
            }
            if let Some(prev) = prev_last {
                if s.first_seq <= prev {
                    return Err(Error::Corrupt(format!(
                        "segment {} overlaps or reorders sequence ranges",
                        s.id
                    )));
                }
            }
            if s.last_seq >= self.wal_base {
                return Err(Error::Corrupt(format!(
                    "segment {} reaches into the write-buffer range",
                    s.id
                )));
            }
            prev_last = Some(s.last_seq);
        }
        Ok(())
    }
}

/// Reads the file `file` in `dir`: a `<header><crc32-hex>` line, then the
/// body that checksum covers, which is returned. A missing file is
/// [`Error::NotFound`]; another header is "unsupported format, rebuild".
pub(crate) fn read_checksummed(dir: &Path, file: &str, header: &str) -> Result<String> {
    let path = dir.join(file);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(Error::NotFound(dir.to_path_buf()))
        }
        Err(e) => return Err(Error::io(format!("read {}", path.display()), e)),
    };
    let (first, body) = text.split_once('\n').unwrap_or((&text, ""));
    let hex = first.strip_prefix(header).ok_or_else(|| {
        Error::Corrupt(format!(
            "{}: unsupported format, rebuild (header {:?}, expected \"{header}<crc32>\")",
            path.display(),
            first.get(..header.len()).unwrap_or(first)
        ))
    })?;
    let expected = u32::from_str_radix(hex.trim(), 16)
        .map_err(|_| Error::Corrupt(format!("bad header checksum in {}", path.display())))?;
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(Error::Corrupt(format!(
            "checksum mismatch in {}: header says {expected:08x}, body is {actual:08x}",
            path.display()
        )));
    }
    Ok(body.to_string())
}

/// Atomically writes `body` under a `<header><crc32-hex>` line to the
/// file `file` in `dir` (temp file + rename).
pub(crate) fn write_checksummed(dir: &Path, file: &str, header: &str, body: &str) -> Result<()> {
    let text = format!("{header}{:08x}\n{body}", crc32(body.as_bytes()));
    let tmp = dir.join(format!("{file}.tmp"));
    std::fs::write(&tmp, text).map_err(|e| Error::io(format!("write {}", tmp.display()), e))?;
    std::fs::rename(&tmp, dir.join(file))
        .map_err(|e| Error::io(format!("rename {} over {file}", tmp.display()), e))
}

impl Default for Manifest {
    fn default() -> Manifest {
        Manifest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("free-live-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let m = Manifest {
            generation: 9,
            wal_base: 120,
            wal_epoch: 3,
            next_segment_id: 5,
            segments: vec![
                SegmentMeta {
                    id: 2,
                    num_docs: 40,
                    first_seq: 0,
                    last_seq: 49,
                },
                SegmentMeta {
                    id: 4,
                    num_docs: 70,
                    first_seq: 50,
                    last_seq: 119,
                },
            ],
        };
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_is_not_found() {
        let dir = tmpdir("missing");
        assert!(matches!(Manifest::load(&dir), Err(Error::NotFound(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_segments_rejected() {
        let dir = tmpdir("overlap");
        let m = Manifest {
            generation: 0,
            wal_base: 100,
            wal_epoch: 0,
            next_segment_id: 2,
            segments: vec![
                SegmentMeta {
                    id: 0,
                    num_docs: 10,
                    first_seq: 0,
                    last_seq: 20,
                },
                SegmentMeta {
                    id: 1,
                    num_docs: 10,
                    first_seq: 15,
                    last_seq: 30,
                },
            ],
        };
        assert!(matches!(m.store(&dir), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_rejected() {
        let dir = tmpdir("garbage");
        // Headerless: what every generation before `FREELIVE 2` looks like.
        std::fs::write(Manifest::path(&dir), "generation=4\nwal_base=7\n").unwrap();
        let err = Manifest::load(&dir).expect_err("must not load");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported format, rebuild")),
            "{err}"
        );
        // A well-formed `FREELIVE 2` manifest: per-segment key sets.
        let body = "generation=4\nwal_base=7\n";
        let old = format!("FREELIVE 2 {:08x}\n{body}", crc32(body.as_bytes()));
        std::fs::write(Manifest::path(&dir), old).unwrap();
        let err = Manifest::load(&dir).expect_err("must not load");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("unsupported format, rebuild")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_manifests_are_checksummed() {
        let dir = tmpdir("v2crc");
        let mut m = Manifest::new();
        m.wal_base = 10;
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        // Flipping any body byte must fail the header CRC.
        let path = Manifest::path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("wal_base=10", "wal_base=11")).unwrap();
        assert!(matches!(Manifest::load(&dir), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest written before the drift rule read the segments' own
    /// counts carries `baseline=<postings> <bytes>`, and one written while
    /// the key selector was a choice may carry `selector=<spec>`: it
    /// loads as if those lines were absent, and the next store drops them.
    #[test]
    fn a_baseline_line_is_ignored() {
        let dir = tmpdir("baseline");
        let body = "generation=3\nwal_base=10\nwal_epoch=1\nnext_segment_id=1\n\
                    selector=trigram:k=3\nbaseline=3100 52000\nsegment=0 0 9 10\n";
        let text = format!("{HEADER}{:08x}\n{body}", crc32(body.as_bytes()));
        std::fs::write(Manifest::path(&dir), text).unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!((m.wal_base, m.segments.len()), (10, 1));
        m.store(&dir).unwrap();
        let stored = std::fs::read_to_string(Manifest::path(&dir)).unwrap();
        assert!(!stored.contains("baseline="), "{stored}");
        assert!(!stored.contains("selector="), "{stored}");
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
