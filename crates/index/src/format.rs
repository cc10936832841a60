//! The immutable on-disk index format.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "FREEIDX1" | version u32 | num_keys u64 | dir_bytes u64 |
//! +--------------------------------------------------------------+
//! | directory: for each key, in lexicographic order:             |
//! |   key_len varint | key bytes | doc_count varint              |
//! |   encoding u8 | postings_len varint                          |
//! |   (offsets are implicit prefix sums)                         |
//! +--------------------------------------------------------------+
//! | postings section: concatenated encoded postings lists        |
//! +--------------------------------------------------------------+
//! | footer: magic "FREESUM1" | meta_crc u32 | postings_crc u32   |
//! +--------------------------------------------------------------+
//! ```
//!
//! The whole directory is loaded into memory on open. The paper's design
//! leans on exactly this property: the multigram directory is tiny (<1 %
//! of a complete n-gram index's keys), so key lookups never touch disk and
//! I/O is spent only on the postings actually needed by a query. In
//! memory each key is held once, in a [`KeyDirectory`]: the key bytes in
//! one buffer, `u32` key ends, and an open-addressing table of key
//! positions; beside it, one fixed-size entry per key (postings offset,
//! length and count).
//!
//! Each list is stored in one of two encodings, tagged per directory
//! entry: short lists stay plain delta-varint, while lists longer than
//! one block are stored as [`BlockedPostings`] (skip table +
//! independently decodable blocks), so [`IndexReader::cursor`] can `seek`
//! across them without decoding everything.
//!
//! `meta_crc` is the CRC32 of the header plus directory, verified on
//! every open (those bytes are read into memory anyway); `postings_crc`
//! covers the whole postings section and is checked by every sequential
//! pass over it ([`PostingsStream`]: [`IndexReader::verify`] for `free
//! fsck`, and live compaction's merge), so the open path stays O(dir).
//! The version is 3 and no other is accepted: a file that says otherwise
//! is damaged or foreign, and the answer to both is to rebuild it.

use crate::blocked::{BlockedPostings, BLOCK_SIZE};
use crate::cursor::{PostingsCursor, SliceCursor};
use crate::keys::{KeyDirectory, Keys};
use crate::postings::{decode_into, encode_into, Postings};
use crate::stats::IndexStats;
use crate::{varint, DocId, Error, IndexRead, Key, Result};
use bytes::Bytes;
use free_checksum::Crc32;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FREEIDX1";
const VERSION: u32 = 3;

/// Magic introducing the checksum footer.
const FOOTER_MAGIC: &[u8; 8] = b"FREESUM1";
/// Total footer size: magic + meta CRC + postings CRC.
const FOOTER_LEN: u64 = 16;

/// Directory encoding tag: plain delta-varint postings.
const ENC_PLAIN: u8 = 0;
/// Directory encoding tag: serialized [`BlockedPostings`].
const ENC_BLOCKED: u8 = 1;

/// Streaming writer for the on-disk format. Keys must be appended in
/// strictly increasing lexicographic order.
pub struct IndexWriter {
    path: PathBuf,
    directory: Vec<u8>,
    postings: Vec<u8>,
    num_keys: u64,
    num_postings: u64,
    key_bytes: u64,
    /// The key added last (meaningless while `num_keys` is 0).
    last_key: Vec<u8>,
    /// Spill the postings section to a temp file when it outgrows memory.
    spill: Option<BufWriter<File>>,
    spilled_bytes: u64,
    /// Running CRC over the postings section, fed one whole buffer at a
    /// time (each spill and the last one), so it stays correct when
    /// postings spill to disk and its braided loop sees long inputs, not
    /// one short payload per key.
    postings_crc: Crc32,
}

/// Postings accumulate in memory up to this size before spilling to a
/// side file (1 GiB of postings would otherwise double peak memory).
const SPILL_THRESHOLD: usize = 64 << 20;

impl IndexWriter {
    /// Creates a writer targeting `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<IndexWriter> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| Error::io(format!("create dir {}", parent.display()), e))?;
            }
        }
        Ok(IndexWriter {
            path,
            directory: Vec::new(),
            postings: Vec::new(),
            num_keys: 0,
            num_postings: 0,
            key_bytes: 0,
            last_key: Vec::new(),
            spill: None,
            spilled_bytes: 0,
            postings_crc: Crc32::new(),
        })
    }

    fn spill_path(&self) -> PathBuf {
        self.path.with_extension("postings.tmp")
    }

    /// Appends one key with its postings. Keys must arrive in strictly
    /// increasing order.
    pub fn add(&mut self, key: &[u8], postings: &Postings) -> Result<()> {
        if postings.len() > BLOCK_SIZE {
            let blocked = BlockedPostings::from_postings(postings)?;
            self.push_entry(key, postings.len(), ENC_BLOCKED, |out| {
                blocked.write_to(out)
            })
        } else {
            self.push_entry(key, postings.len(), ENC_PLAIN, |out| {
                out.extend_from_slice(postings.encoded())
            })
        }
    }

    /// Appends one key with its postings given as strictly ascending ids,
    /// encoded once, straight into the postings section: the bytes
    /// [`IndexWriter::add`] writes for the same ids.
    pub fn add_sorted(&mut self, key: &[u8], ids: &[DocId]) -> Result<()> {
        if ids.len() > BLOCK_SIZE {
            let blocked = BlockedPostings::from_sorted(ids);
            self.push_entry(key, ids.len(), ENC_BLOCKED, |out| blocked.write_to(out))
        } else {
            self.push_entry(key, ids.len(), ENC_PLAIN, |out| encode_into(ids, out))
        }
    }

    /// Appends one directory entry; `write` appends its payload to the
    /// postings section. Lists longer than one block are stored blocked,
    /// so readers can skip across them (the skip table costs ~2 % of the
    /// payload).
    fn push_entry(
        &mut self,
        key: &[u8],
        count: usize,
        enc: u8,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        if self.num_keys > 0 && key <= &self.last_key[..] {
            return Err(Error::Corrupt(format!(
                "keys out of order: {:?} after {:?}",
                String::from_utf8_lossy(key),
                String::from_utf8_lossy(&self.last_key)
            )));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        let start = self.postings.len();
        write(&mut self.postings);
        let payload_len = self.postings.len() - start;
        varint::encode(key.len() as u64, &mut self.directory);
        self.directory.extend_from_slice(key);
        varint::encode(count as u64, &mut self.directory);
        self.directory.push(enc);
        varint::encode(payload_len as u64, &mut self.directory);
        self.num_keys += 1;
        self.num_postings += count as u64;
        self.key_bytes += key.len() as u64;
        if self.postings.len() >= SPILL_THRESHOLD {
            self.flush_spill()?;
        }
        Ok(())
    }

    // `expect`: the spill writer is created two lines above when absent.
    #[allow(clippy::expect_used)]
    fn flush_spill(&mut self) -> Result<()> {
        if self.spill.is_none() {
            let f = File::create(self.spill_path())
                .map_err(|e| Error::io("create postings spill file", e))?;
            self.spill = Some(BufWriter::new(f));
        }
        let w = self.spill.as_mut().expect("just created");
        self.postings_crc.update(&self.postings);
        w.write_all(&self.postings)
            .map_err(|e| Error::io("spill postings", e))?;
        self.spilled_bytes += self.postings.len() as u64;
        self.postings.clear();
        Ok(())
    }

    /// Finalizes the file and opens it for reading.
    // `expect`: the spill branch is only taken after `is_some()`.
    #[allow(clippy::expect_used)]
    pub fn finish(mut self) -> Result<IndexReader> {
        let f = File::create(&self.path)
            .map_err(|e| Error::io(format!("create {}", self.path.display()), e))?;
        let mut w = BufWriter::new(f);
        let mut header = Vec::with_capacity(28);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&self.num_keys.to_le_bytes());
        header.extend_from_slice(&(self.directory.len() as u64).to_le_bytes());
        let mut meta_crc = Crc32::new();
        meta_crc.update(&header);
        meta_crc.update(&self.directory);
        w.write_all(&header)
            .map_err(|e| Error::io("write header", e))?;
        w.write_all(&self.directory)
            .map_err(|e| Error::io("write directory", e))?;
        if self.spill.is_some() {
            self.flush_spill()?;
            let mut spill = self.spill.take().expect("spill exists");
            spill.flush().map_err(|e| Error::io("flush spill", e))?;
            drop(spill);
            let mut src =
                File::open(self.spill_path()).map_err(|e| Error::io("reopen spill", e))?;
            std::io::copy(&mut src, &mut w).map_err(|e| Error::io("copy spill", e))?;
            std::fs::remove_file(self.spill_path()).map_err(|e| Error::io("remove spill", e))?;
        } else {
            self.postings_crc.update(&self.postings);
            w.write_all(&self.postings)
                .map_err(|e| Error::io("write postings", e))?;
        }
        w.write_all(FOOTER_MAGIC)
            .map_err(|e| Error::io("write footer magic", e))?;
        w.write_all(&meta_crc.finish().to_le_bytes())
            .map_err(|e| Error::io("write meta crc", e))?;
        w.write_all(&self.postings_crc.finish().to_le_bytes())
            .map_err(|e| Error::io("write postings crc", e))?;
        w.flush().map_err(|e| Error::io("flush index", e))?;
        IndexReader::open(&self.path)
    }
}

/// One directory entry. A list is stored blocked exactly when it holds
/// more than [`BLOCK_SIZE`] postings: the writer's rule, to which `open`
/// holds every entry's encoding tag.
#[derive(Clone, Copy, Debug)]
struct DirEntry {
    offset: u64,
    len: u32,
    doc_count: u32,
}

impl DirEntry {
    /// Whether the payload is a serialized [`BlockedPostings`].
    fn blocked(&self) -> bool {
        self.doc_count as usize > BLOCK_SIZE
    }
}

/// A read-only on-disk index. The directory lives in memory; postings are
/// read on demand with positioned reads (thread-safe, no seek state).
pub struct IndexReader {
    file: File,
    postings_start: u64,
    /// The keys, in order; key `i`'s entry is `dir[i]`.
    keys: KeyDirectory,
    /// Directory entries in key order.
    dir: Vec<DirEntry>,
    num_postings: u64,
    key_bytes: u64,
    postings_bytes: u64,
    /// Expected CRC of the postings section. Checked by
    /// [`IndexReader::verify`], not on the query path.
    postings_crc: u32,
}

/// What a [`VerifyIssue`] is about, so callers (fsck) can map each issue
/// onto a stable diagnostic code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyIssueKind {
    /// The postings section does not match its recorded CRC32.
    Checksum,
    /// An entry's payload failed to decode at all.
    Decode,
    /// Decoded doc ids are not strictly ascending.
    Order,
    /// A blocked list's skip table disagrees with its blocks.
    SkipTable,
    /// Decoded postings length differs from the directory's doc count.
    DocCount,
    /// A doc id is outside the corpus bound supplied by the caller.
    DocRange,
}

/// One integrity finding from [`IndexReader::verify`].
#[derive(Clone, Debug)]
pub struct VerifyIssue {
    /// Issue category (maps onto an FA4xx code in `free-analyze`).
    pub kind: VerifyIssueKind,
    /// The directory key the issue was found under, when entry-scoped.
    pub key: Option<Key>,
    /// Human-readable description of the inconsistency.
    pub detail: String,
}

impl IndexReader {
    /// Opens an index file, loading its directory.
    // `expect`: every `try_into` slices a fixed-size range of a
    // fixed-size buffer, so the conversion cannot fail.
    #[allow(clippy::expect_used)]
    pub fn open(path: impl AsRef<Path>) -> Result<IndexReader> {
        let path = path.as_ref();
        let mut file =
            File::open(path).map_err(|e| Error::io(format!("open {}", path.display()), e))?;
        let mut header = [0u8; 8 + 4 + 8 + 8];
        file.read_exact(&mut header)
            .map_err(|e| Error::io("read header", e))?;
        if &header[..8] != MAGIC {
            return Err(Error::Corrupt(format!("bad magic in {}", path.display())));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("fixed size"));
        if version != VERSION {
            return Err(Error::Corrupt(format!(
                "{}: unsupported format, rebuild (index version {version}, expected {VERSION})",
                path.display()
            )));
        }
        let num_keys = u64::from_le_bytes(header[12..20].try_into().expect("fixed size"));
        let dir_bytes = u64::from_le_bytes(header[20..28].try_into().expect("fixed size"));
        let file_len = file
            .metadata()
            .map_err(|e| Error::io("stat index", e))?
            .len();
        // Both sizes are allocated below, before the CRC that covers them
        // can be located; an entry takes at least four directory bytes.
        if dir_bytes > file_len || num_keys > dir_bytes.min(u32::MAX.into()) {
            return Err(Error::Corrupt(format!(
                "header of {} claims {num_keys} keys in {dir_bytes} directory bytes; the file has {file_len}",
                path.display()
            )));
        }
        let mut dir = vec![0u8; dir_bytes as usize];
        file.read_exact(&mut dir)
            .map_err(|e| Error::io("read directory", e))?;
        let postings_start = header.len() as u64 + dir_bytes;

        let mut keys = KeyDirectory::with_capacity(num_keys as usize);
        let mut entry_list = Vec::with_capacity(num_keys as usize);
        let overflow = || Error::Corrupt(format!("{}: directory sizes overflow", path.display()));
        let mut cursor = &dir[..];
        let mut offset = 0u64;
        let mut num_postings = 0u64;
        let mut key_bytes = 0u64;
        for i in 0..num_keys {
            let (key_len, used) = varint::decode(cursor)?;
            cursor = &cursor[used..];
            if cursor.len() < key_len as usize {
                return Err(Error::Corrupt(format!("truncated key {i}")));
            }
            keys.push(&cursor[..key_len as usize])?;
            cursor = &cursor[key_len as usize..];
            let (doc_count, used) = varint::decode(cursor)?;
            cursor = &cursor[used..];
            let enc = *cursor
                .first()
                .ok_or_else(|| Error::Corrupt(format!("truncated encoding tag, key {i}")))?;
            cursor = &cursor[1..];
            let blocked = match enc {
                ENC_PLAIN => false,
                ENC_BLOCKED => true,
                other => return Err(Error::Corrupt(format!("unknown postings encoding {other}"))),
            };
            let (plen, used) = varint::decode(cursor)?;
            cursor = &cursor[used..];
            // The directory is not yet checked against its CRC: every
            // size in it is untrusted.
            let (Ok(doc_count32), Ok(len)) = (u32::try_from(doc_count), u32::try_from(plen)) else {
                return Err(Error::Corrupt(format!(
                    "key {i} claims {doc_count} postings in {plen} bytes"
                )));
            };
            if blocked != (doc_count32 as usize > BLOCK_SIZE) {
                return Err(Error::Corrupt(format!(
                    "key {i} stores {doc_count} postings {}",
                    if blocked { "blocked" } else { "plain" }
                )));
            }
            entry_list.push(DirEntry {
                offset,
                len,
                doc_count: doc_count32,
            });
            offset = offset.checked_add(plen).ok_or_else(overflow)?;
            num_postings = num_postings.checked_add(doc_count).ok_or_else(overflow)?;
            key_bytes += key_len;
        }
        if !cursor.is_empty() {
            return Err(Error::Corrupt("trailing bytes in directory".into()));
        }
        let need = postings_start
            .checked_add(offset)
            .and_then(|n| n.checked_add(FOOTER_LEN))
            .ok_or_else(overflow)?;
        if need > file_len {
            return Err(Error::Corrupt(format!(
                "postings section truncated: need {need} bytes, file has {file_len}"
            )));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, postings_start + offset)
            .map_err(|e| Error::io("read footer", e))?;
        if &footer[..8] != FOOTER_MAGIC {
            return Err(Error::Corrupt(format!(
                "bad footer magic in {}",
                path.display()
            )));
        }
        let meta_crc = u32::from_le_bytes(footer[8..12].try_into().expect("fixed size"));
        let mut crc = Crc32::new();
        crc.update(&header);
        crc.update(&dir);
        if crc.finish() != meta_crc {
            return Err(Error::Corrupt(format!(
                "header/directory checksum mismatch in {}",
                path.display()
            )));
        }
        let postings_crc = u32::from_le_bytes(footer[12..16].try_into().expect("fixed size"));
        keys.seal();
        Ok(IndexReader {
            file,
            postings_start,
            keys,
            dir: entry_list,
            num_postings,
            key_bytes,
            postings_bytes: offset,
            postings_crc,
        })
    }

    /// Exhaustively verifies the file in one [`PostingsStream`] pass:
    /// decodes every entry and checks doc-id monotonicity, skip-table
    /// consistency, and directory doc counts, then the section against its
    /// recorded CRC (reported first). When `doc_bound` is given, doc ids
    /// must be `< bound`.
    ///
    /// Returns structural findings rather than failing on the first one,
    /// so fsck can report everything wrong with a file in one pass. I/O
    /// errors still abort with `Err`.
    pub fn verify(&self, doc_bound: Option<DocId>) -> Result<Vec<VerifyIssue>> {
        let mut issues = Vec::new();
        let mut stream = self.stream();
        while let Some((key, e, payload)) = stream.next_raw()? {
            let name = String::from_utf8_lossy(key).into_owned();
            let decoded = if e.blocked() {
                match BlockedPostings::read(payload) {
                    Ok(b) => {
                        if let Err(err) = b.validate() {
                            issues.push(VerifyIssue {
                                kind: VerifyIssueKind::SkipTable,
                                key: Some(key.into()),
                                detail: format!("blocked list for {name:?} invalid: {err}"),
                            });
                            continue;
                        }
                        match b.decode() {
                            Ok(d) => d,
                            Err(err) => {
                                issues.push(VerifyIssue {
                                    kind: VerifyIssueKind::Decode,
                                    key: Some(key.into()),
                                    detail: format!("blocked list for {name:?} undecodable: {err}"),
                                });
                                continue;
                            }
                        }
                    }
                    Err(err) => {
                        issues.push(VerifyIssue {
                            kind: VerifyIssueKind::Decode,
                            key: Some(key.into()),
                            detail: format!("blocked list for {name:?} unreadable: {err}"),
                        });
                        continue;
                    }
                }
            } else {
                match Postings::from_encoded(Bytes::copy_from_slice(payload), e.doc_count).decode()
                {
                    Ok(d) => d,
                    Err(err) => {
                        issues.push(VerifyIssue {
                            kind: VerifyIssueKind::Decode,
                            key: Some(key.into()),
                            detail: format!("postings for {name:?} undecodable: {err}"),
                        });
                        continue;
                    }
                }
            };
            // Plain decode tolerates zero deltas after the first id, so
            // ascent must be re-checked on the decoded ids here.
            if let Some(w) = decoded.windows(2).find(|w| w[1] <= w[0]) {
                issues.push(VerifyIssue {
                    kind: VerifyIssueKind::Order,
                    key: Some(key.into()),
                    detail: format!(
                        "doc ids for {name:?} not strictly ascending: {} then {}",
                        w[0], w[1]
                    ),
                });
            }
            if decoded.len() != e.doc_count as usize {
                issues.push(VerifyIssue {
                    kind: VerifyIssueKind::DocCount,
                    key: Some(key.into()),
                    detail: format!(
                        "directory says {} docs for {name:?}, payload decodes to {}",
                        e.doc_count,
                        decoded.len()
                    ),
                });
            }
            if let Some(bound) = doc_bound {
                if let Some(&bad) = decoded.iter().find(|&&d| d >= bound) {
                    issues.push(VerifyIssue {
                        kind: VerifyIssueKind::DocRange,
                        key: Some(key.into()),
                        detail: format!(
                            "doc id {bad} for {name:?} is outside the corpus (bound {bound})"
                        ),
                    });
                }
            }
        }
        match stream.finish() {
            Err(Error::Corrupt(detail)) => issues.insert(
                0,
                VerifyIssue {
                    kind: VerifyIssueKind::Checksum,
                    key: None,
                    detail,
                },
            ),
            other => other?,
        }
        Ok(issues)
    }

    /// A sequential pass over the postings section (see
    /// [`PostingsStream`]).
    pub fn stream(&self) -> PostingsStream<'_> {
        PostingsStream {
            index: self,
            next: 0,
            buf: Vec::new(),
            start: 0,
            pos: self.postings_start,
            crc: Crc32::new(),
        }
    }

    /// Reads one entry's raw payload bytes from disk (positioned read, so
    /// concurrent callers never contend on seek state).
    fn read_payload(&self, e: DirEntry) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; e.len as usize];
        self.file
            .read_exact_at(&mut buf, self.postings_start + e.offset)
            .map_err(|err| Error::io("read postings", err))?;
        Ok(buf)
    }

    /// Reads and fully decodes one entry's postings.
    fn decode_entry(&self, e: DirEntry) -> Result<Vec<DocId>> {
        let buf = self.read_payload(e)?;
        if e.blocked() {
            BlockedPostings::read(&buf)?.decode()
        } else {
            Postings::from_encoded(Bytes::from(buf), e.doc_count).decode()
        }
    }

    fn entry(&self, key: &[u8]) -> Option<DirEntry> {
        self.keys().position(key).map(|i| self.dir[i])
    }

    /// The sorted key directory (borrowed).
    pub fn keys(&self) -> Keys<'_> {
        self.keys.keys()
    }

    /// Each key's document count, in the order of [`IndexReader::keys`].
    pub fn doc_counts(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.dir.iter().map(|e| e.doc_count)
    }
}

/// One entry as a [`PostingsStream`] reads it: its key, its directory
/// entry and its raw payload.
type RawEntry<'k, 'p> = (&'k [u8], DirEntry, &'p [u8]);

/// Bytes a [`PostingsStream`] reads at a time.
const STREAM_CHUNK: usize = 256 << 10;

/// One sequential pass over an index's postings section, entry by entry
/// in key order, through one buffer filled by large positioned reads:
/// no lookup and no syscall per key.
///
/// The section's CRC32 is taken over the bytes as they stream in, and
/// [`PostingsStream::finish`] checks it. A caller that writes what it
/// read into a file of its own (which gets a fresh checksum) must finish
/// the pass before it commits that file, or it would launder damage.
pub struct PostingsStream<'a> {
    index: &'a IndexReader,
    /// Directory position of the next entry.
    next: usize,
    /// Bytes read and not yet taken are `buf[start..]`.
    buf: Vec<u8>,
    start: usize,
    /// File offset of the first byte not yet read.
    pos: u64,
    crc: Crc32,
}

impl<'a> PostingsStream<'a> {
    /// The key of the next entry; `None` past the last.
    pub fn peek_key(&self) -> Option<&'a [u8]> {
        self.index.keys().get(self.next)
    }

    /// Decodes the next entry's postings into `out`, replacing what it
    /// held, and returns the entry's key; `None` past the last entry.
    /// The ids must ascend strictly and number what the directory says,
    /// or the entry is [`Error::Corrupt`].
    pub fn next_into(&mut self, out: &mut Vec<DocId>) -> Result<Option<&'a [u8]>> {
        out.clear();
        let Some((key, e, payload)) = self.next_raw()? else {
            return Ok(None);
        };
        if e.blocked() {
            BlockedPostings::read(payload)?.decode_into(out)?;
        } else {
            decode_into(payload, e.doc_count, out)?;
        }
        if out.len() != e.doc_count as usize || out.windows(2).any(|w| w[1] <= w[0]) {
            return Err(Error::Corrupt(format!(
                "postings of {:?} disagree with the directory",
                String::from_utf8_lossy(key)
            )));
        }
        Ok(Some(key))
    }

    /// The next entry's key, directory entry and raw payload.
    fn next_raw(&mut self) -> Result<Option<RawEntry<'a, '_>>> {
        let index = self.index;
        let Some(key) = index.keys().get(self.next) else {
            return Ok(None);
        };
        let e = index.dir[self.next];
        self.next += 1;
        let len = e.len as usize;
        let have = self.buf.len() - self.start;
        if have < len {
            self.buf.drain(..self.start);
            self.start = 0;
            // `open` checked that the entries exactly fill the section.
            let left = index.postings_start + index.postings_bytes - self.pos;
            let n = (len - have).max(STREAM_CHUNK).min(left as usize);
            self.buf.resize(have + n, 0);
            index
                .file
                .read_exact_at(&mut self.buf[have..], self.pos)
                .map_err(|err| Error::io("stream postings", err))?;
            self.crc.update(&self.buf[have..]);
            self.pos += n as u64;
        }
        let payload = &self.buf[self.start..self.start + len];
        self.start += len;
        Ok(Some((key, e, payload)))
    }

    /// Ends the pass: reads the entries not yet taken, then fails with
    /// [`Error::Corrupt`] unless the section matches its recorded CRC32.
    pub fn finish(mut self) -> Result<()> {
        while self.next_raw()?.is_some() {}
        let (expected, actual) = (self.index.postings_crc, self.crc.finish());
        if actual != expected {
            return Err(Error::Corrupt(format!(
                "postings section checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(())
    }
}

impl IndexRead for IndexReader {
    fn num_keys(&self) -> usize {
        self.dir.len()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        self.keys().contains(key)
    }

    fn doc_count(&self, key: &[u8]) -> Option<usize> {
        self.entry(key).map(|e| e.doc_count as usize)
    }

    fn postings(&self, key: &[u8]) -> Result<Option<Vec<DocId>>> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => Ok(Some(self.decode_entry(e)?)),
        }
    }

    fn cursor(&self, key: &[u8]) -> Result<Option<Box<dyn PostingsCursor>>> {
        let Some(e) = self.entry(key) else {
            return Ok(None);
        };
        let buf = self.read_payload(e)?;
        if e.blocked() {
            // The cursor owns the raw blocked list and decodes blocks on
            // demand, driven by `seek`.
            Ok(Some(Box::new(BlockedPostings::read(&buf)?.into_cursor()?)))
        } else {
            let docs = Postings::from_encoded(Bytes::from(buf), e.doc_count).decode()?;
            Ok(Some(Box::new(SliceCursor::new(docs))))
        }
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.keys().iter().for_each(f);
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            num_keys: self.dir.len() as u64,
            num_postings: self.num_postings,
            key_bytes: self.key_bytes,
            postings_bytes: self.postings_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("free-index-{name}-{}.idx", std::process::id()))
    }

    /// Hand-assembles an index file around one directory and postings
    /// section, with a footer whose CRCs are right for those bytes.
    fn craft(version: u32, num_keys: u64, dir: &[u8], postings: &[u8]) -> Vec<u8> {
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&num_keys.to_le_bytes());
        file.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        file.extend_from_slice(dir);
        let meta_crc = free_checksum::crc32(&file);
        file.extend_from_slice(postings);
        file.extend_from_slice(FOOTER_MAGIC);
        file.extend_from_slice(&meta_crc.to_le_bytes());
        file.extend_from_slice(&free_checksum::crc32(postings).to_le_bytes());
        file
    }

    #[test]
    fn roundtrip() {
        let path = tmpfile("roundtrip");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"alpha", &Postings::from_sorted(&[1, 5, 9])).unwrap();
        w.add(b"beta", &Postings::from_sorted(&[2])).unwrap();
        w.add(b"gamma", &Postings::from_sorted(&[0, 1, 2, 3]))
            .unwrap();
        let r = w.finish().unwrap();
        assert_eq!(r.num_keys(), 3);
        assert_eq!(r.postings(b"alpha").unwrap().unwrap(), vec![1, 5, 9]);
        assert_eq!(r.postings(b"beta").unwrap().unwrap(), vec![2]);
        assert_eq!(r.postings(b"gamma").unwrap().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.postings(b"delta").unwrap(), None);
        assert_eq!(r.doc_count(b"gamma"), Some(4));
        let s = r.stats();
        assert_eq!(s.num_keys, 3);
        assert_eq!(s.num_postings, 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_from_disk() {
        let path = tmpfile("reopen");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"key", &Postings::from_sorted(&[7, 8])).unwrap();
        drop(w.finish().unwrap());
        let r = IndexReader::open(&path).unwrap();
        assert_eq!(r.postings(b"key").unwrap().unwrap(), vec![7, 8]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_out_of_order_keys() {
        let path = tmpfile("order");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"bb", &Postings::from_sorted(&[1])).unwrap();
        assert!(w.add(b"aa", &Postings::from_sorted(&[2])).is_err());
        assert!(w.add(b"bb", &Postings::from_sorted(&[2])).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_index() {
        let path = tmpfile("empty");
        let w = IndexWriter::create(&path).unwrap();
        let r = w.finish().unwrap();
        assert_eq!(r.num_keys(), 0);
        assert_eq!(r.postings(b"x").unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keys_enumerate_sorted() {
        let path = tmpfile("sorted");
        let mut w = IndexWriter::create(&path).unwrap();
        for k in [&b"a"[..], b"ab", b"b"] {
            w.add(k, &Postings::from_sorted(&[0])).unwrap();
        }
        let r = w.finish().unwrap();
        let mut seen = Vec::new();
        r.for_each_key(&mut |k| seen.push(k.to_vec()));
        assert_eq!(seen, vec![b"a".to_vec(), b"ab".to_vec(), b"b".to_vec()]);
        assert_eq!(r.keys().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_magic() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"WRONGMAGICxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_truncated_postings() {
        let path = tmpfile("trunc");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"kk", &Postings::from_sorted(&[1, 2, 3, 4, 5, 6, 7, 8]))
            .unwrap();
        drop(w.finish().unwrap());
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binary_keys() {
        let path = tmpfile("binkeys");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(&[0u8, 1, 2], &Postings::from_sorted(&[3])).unwrap();
        w.add(&[0u8, 1, 255], &Postings::from_sorted(&[4])).unwrap();
        let r = w.finish().unwrap();
        assert_eq!(r.postings(&[0u8, 1, 255]).unwrap().unwrap(), vec![4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn long_lists_stored_blocked() {
        use crate::cursor::CursorStats;
        let path = tmpfile("blockedv2");
        let ids: Vec<DocId> = (0..5_000).map(|i| i * 2).collect();
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"common", &Postings::from_sorted(&ids)).unwrap();
        w.add(b"rare", &Postings::from_sorted(&[4, 40, 9_996]))
            .unwrap();
        let r = w.finish().unwrap();
        assert!(r.entry(b"common").unwrap().blocked());
        assert!(!r.entry(b"rare").unwrap().blocked());
        // Full decode agrees regardless of encoding.
        assert_eq!(r.postings(b"common").unwrap().unwrap(), ids);
        assert_eq!(r.postings(b"rare").unwrap().unwrap(), vec![4, 40, 9_996]);
        // The cursor path seeks sub-linearly over the blocked list.
        let mut c = r.cursor(b"common").unwrap().unwrap();
        assert_eq!(c.seek(9_000).unwrap(), Some(9_000));
        let mut s = CursorStats::default();
        c.collect_stats(&mut s);
        assert!(s.postings_skipped > 4_000);
        assert!((s.blocks_decoded as usize) < ids.len().div_ceil(BLOCK_SIZE) / 2);
        assert!(r.cursor(b"absent").unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn only_version_3_opens() {
        let path = tmpfile("oneversion");
        let postings = Postings::from_sorted(&[3, 9, 27]);
        let mut dir = Vec::new();
        varint::encode(2, &mut dir);
        dir.extend_from_slice(b"ab");
        varint::encode(postings.len() as u64, &mut dir);
        dir.push(ENC_PLAIN);
        varint::encode(postings.encoded().len() as u64, &mut dir);
        // Internally consistent files (right CRCs for their own bytes)
        // that merely claim another generation.
        for version in [1u32, 2, 4] {
            std::fs::write(&path, craft(version, 1, &dir, postings.encoded())).unwrap();
            let err = IndexReader::open(&path).err().expect("must not open");
            assert!(
                matches!(&err, Error::Corrupt(m) if m.contains("unsupported format, rebuild")),
                "version {version}: {err}"
            );
        }
        std::fs::write(&path, craft(VERSION, 1, &dir, postings.encoded())).unwrap();
        let r = IndexReader::open(&path).unwrap();
        assert_eq!(r.postings(b"ab").unwrap().unwrap(), vec![3, 9, 27]);
        // A written v3 file whose version field rots to 2 must not fall
        // back to a reader that skips the footer.
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"key", &Postings::from_sorted(&[7, 8])).unwrap();
        drop(w.finish().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_future_version_and_bad_encoding() {
        let path = tmpfile("futurever");
        std::fs::write(&path, craft(99, 0, &[], &[])).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        // An entry with an unknown encoding tag.
        let mut dir = Vec::new();
        varint::encode(1, &mut dir);
        dir.push(b'k');
        varint::encode(1, &mut dir); // doc_count
        dir.push(7); // bogus encoding
        varint::encode(1, &mut dir); // payload len
        std::fs::write(&path, craft(VERSION, 1, &dir, &[0])).unwrap();
        let err = IndexReader::open(&path).err().expect("must not open");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("encoding 7")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn encoding_tag_must_follow_the_count() {
        let path = tmpfile("tagcount");
        let postings = Postings::from_sorted(&[3]);
        let mut dir = Vec::new();
        varint::encode(1, &mut dir);
        dir.push(b'k');
        varint::encode(1, &mut dir);
        dir.push(ENC_BLOCKED);
        varint::encode(postings.encoded().len() as u64, &mut dir);
        std::fs::write(&path, craft(VERSION, 1, &dir, postings.encoded())).unwrap();
        let err = IndexReader::open(&path).err().expect("must not open");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("stores 1 postings blocked")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn directory_sizes_past_u32_are_corrupt_before_the_crc() {
        let path = tmpfile("dirsizes");
        let entry = |dir: &mut Vec<u8>, key: u8, doc_count: u64, plen: u64| {
            varint::encode(1, dir);
            dir.push(key);
            varint::encode(doc_count, dir);
            dir.push(ENC_PLAIN);
            varint::encode(plen, dir);
        };
        // Two keys of 2^63 postings bytes each: their sum wrapped past
        // 2^64 (a panic under overflow checks) while each was truncated
        // to 0 by `as u32`; the header/directory CRC is checked after.
        let mut dir = Vec::new();
        entry(&mut dir, b'a', 1, 1 << 63);
        entry(&mut dir, b'b', 1, 1 << 63);
        std::fs::write(&path, craft(VERSION, 2, &dir, &[])).unwrap();
        let err = IndexReader::open(&path).err().expect("must not open");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("claims 1 postings in 9223372036854775808 bytes")),
            "{err}"
        );
        // A doc count that `as u32` would have cut to 0, CRCs intact.
        let mut dir = Vec::new();
        entry(&mut dir, b'a', 1 << 32, 1);
        std::fs::write(&path, craft(VERSION, 1, &dir, &[0])).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_files_carry_verifiable_checksums() {
        let path = tmpfile("v3crc");
        let ids: Vec<DocId> = (0..2_000).map(|i| i * 3).collect();
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"long", &Postings::from_sorted(&ids)).unwrap();
        w.add(b"short", &Postings::from_sorted(&[1, 4])).unwrap();
        let r = w.finish().unwrap();
        assert!(r.verify(Some(6_000)).unwrap().is_empty());
        // doc_bound below the max id is reported as a range issue.
        let issues = r.verify(Some(10)).unwrap();
        assert!(issues.iter().any(|i| i.kind == VerifyIssueKind::DocRange));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_detects_postings_corruption() {
        let path = tmpfile("v3bitflip");
        let ids: Vec<DocId> = (0..1_000).collect();
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"k", &Postings::from_sorted(&ids)).unwrap();
        drop(w.finish().unwrap());
        // Flip a byte in the middle of the postings section. The open
        // path (header+dir CRC) still succeeds; verify() must flag it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - FOOTER_LEN as usize - 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = IndexReader::open(&path).unwrap();
        let issues = r.verify(None).unwrap();
        assert!(issues.iter().any(|i| i.kind == VerifyIssueKind::Checksum));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_rejects_directory_corruption_at_open() {
        let path = tmpfile("v3dirflip");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"alpha", &Postings::from_sorted(&[1, 2, 3])).unwrap();
        drop(w.finish().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the directory's key bytes: the entry still
        // parses (same lengths) but the meta CRC catches the change.
        let pos = 28 + 2; // header + key_len varint + 1 byte into "alpha"
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v3_rejects_bad_footer_magic() {
        let path = tmpfile("v3footer");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"k", &Postings::from_sorted(&[5])).unwrap();
        drop(w.finish().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let footer_start = bytes.len() - FOOTER_LEN as usize;
        bytes[footer_start] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_flags_non_ascending_plain_postings() {
        // Zero deltas after the first id decode "successfully" into
        // duplicate doc ids; verify() must catch what decode() tolerates.
        let path = tmpfile("v2dupid");
        let mut enc = Vec::new();
        varint::encode(7, &mut enc); // doc 7
        varint::encode(0, &mut enc); // delta 0 -> doc 7 again
        let mut dir = Vec::new();
        varint::encode(1, &mut dir);
        dir.push(b'k');
        varint::encode(2, &mut dir); // doc_count
        dir.push(ENC_PLAIN);
        varint::encode(enc.len() as u64, &mut dir);
        std::fs::write(&path, craft(VERSION, 1, &dir, &enc)).unwrap();
        let r = IndexReader::open(&path).unwrap();
        let issues = r.verify(None).unwrap();
        assert!(issues.iter().any(|i| i.kind == VerifyIssueKind::Order));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn add_sorted_writes_the_bytes_add_writes() {
        let long: Vec<DocId> = (0..1_000).map(|i| i * 3).collect();
        let lists: [(&[u8], &[DocId]); 3] = [(b"a", &[1, 2]), (b"b", &long), (b"c", &[7])];
        let (p, q) = (tmpfile("add-postings"), tmpfile("add-sorted"));
        let mut w = IndexWriter::create(&p).unwrap();
        let mut v = IndexWriter::create(&q).unwrap();
        for (key, ids) in lists {
            w.add(key, &Postings::from_sorted(ids)).unwrap();
            v.add_sorted(key, ids).unwrap();
        }
        drop((w.finish().unwrap(), v.finish().unwrap()));
        assert_eq!(std::fs::read(&p).unwrap(), std::fs::read(&q).unwrap());
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    #[test]
    fn stream_reads_every_entry_in_key_order_and_checks_the_crc() {
        let path = tmpfile("stream");
        let long: Vec<DocId> = (0..1_000).map(|i| i * 3).collect();
        let lists: Vec<(&[u8], Vec<DocId>)> = vec![
            (b"a", vec![1, 2]),
            (b"b", long.clone()),
            (b"c", vec![]),
            (b"d", vec![5, 9_000]),
        ];
        let mut w = IndexWriter::create(&path).unwrap();
        for (key, ids) in &lists {
            w.add_sorted(key, ids).unwrap();
        }
        let r = w.finish().unwrap();
        let mut stream = r.stream();
        let mut out = vec![42];
        let mut seen = Vec::new();
        assert_eq!(stream.peek_key(), Some(&b"a"[..]));
        while let Some(key) = stream.next_into(&mut out).unwrap() {
            seen.push((key, out.clone()));
        }
        assert_eq!(stream.peek_key(), None);
        assert_eq!(seen, lists);
        stream.finish().unwrap();

        // "a" is [1, 2], stored as the bytes 1 and 1; making the second 3
        // still decodes ([1, 4]), so only the section CRC can tell.
        let postings_bytes = r.stats().postings_bytes as usize;
        drop(r);
        let mut bytes = std::fs::read(&path).unwrap();
        let section = bytes.len() - FOOTER_LEN as usize - postings_bytes;
        bytes[section + 1] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        let r = IndexReader::open(&path).unwrap();
        let mut stream = r.stream();
        assert_eq!(stream.next_into(&mut out).unwrap(), Some(&b"a"[..]));
        assert_eq!(out, vec![1, 4]);
        let err = stream
            .finish()
            .expect_err("a damaged section must not pass");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The directory is held once: 23 k keys of five to eight bytes, a
    /// live dictionary's shape, take under 1 MiB of heap, where a hash
    /// map and a sorted list of boxed keys took about 3 MiB. Every key is
    /// found through the position table, and only keys are.
    #[test]
    fn a_directory_is_held_once() {
        let path = tmpfile("held-once");
        let keys: Vec<Vec<u8>> = (0..23_000u32)
            .map(|i| format!("{:0width$x}", i * 7, width = 5 + (i % 4) as usize).into_bytes())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut w = IndexWriter::create(&path).unwrap();
        for (i, key) in keys.iter().enumerate() {
            w.add_sorted(key, &[i as DocId]).unwrap();
        }
        let r = w.finish().unwrap();
        assert_eq!(r.num_keys(), keys.len());
        let held = r.keys.resident_bytes() + r.dir.capacity() * std::mem::size_of::<DirEntry>();
        assert!(held < 1 << 20, "{held} B");
        for (i, key) in keys.iter().enumerate().step_by(97) {
            assert_eq!(r.keys().position(key), Some(i));
            assert_eq!(r.postings(key).unwrap(), Some(vec![i as DocId]));
        }
        assert_eq!(
            r.keys().iter().map(<[u8]>::to_vec).collect::<Vec<_>>(),
            keys
        );
        assert!(!r.contains_key(b"zzzz"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_reads() {
        let path = tmpfile("concurrent");
        let mut w = IndexWriter::create(&path).unwrap();
        for i in 0..100u32 {
            let key = format!("key{i:03}");
            w.add(key.as_bytes(), &Postings::from_sorted(&[i, i + 1000]))
                .unwrap();
        }
        let r = std::sync::Arc::new(w.finish().unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in (t..100).step_by(4) {
                    let key = format!("key{i:03}");
                    let p = r.postings(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(p, vec![i as u32, i as u32 + 1000]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }
}
