//! The live index: ingest, tombstone deletes, flush, and compaction.

use crate::error::{Error, Result};
use crate::manifest::{Manifest, SegmentMeta};
use crate::memtable::{BufferMatcher, LiveBuffer, Memtable};
use crate::postings::{write_postings, Source};
use crate::segment::{
    corpus_dir, index_path, mine_index, remove_segment_files, seqs_path, write_seqs, Segment,
    SegmentWriter,
};
use crate::snapshot::{LiveReader, Owner, Sealed, Snapshot, SnapshotCell};
use crate::stats::{LiveStats, SegmentStats};
use crate::LiveConfig;
use free_corpus::{Corpus, CorpusWriter, DiskCorpus, DocId};
use free_index::IndexWriter;
use free_trace::metrics::{self, Gauge};
use free_trace::Span;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// WAL corpus-store directory name inside a live index directory.
pub const WAL_DIR: &str = "wal";
/// Epoch-stamp file name; must match the manifest's `wal_epoch`.
pub const WAL_EPOCH_FILE: &str = "wal.epoch";
/// Tombstone log file name.
pub const TOMBSTONES_FILE: &str = "tombstones.log";
/// Sealed-segments directory name.
pub const SEGMENTS_DIR: &str = "segments";
/// The root file of the N-shard layout earlier versions could write (a
/// `FREESHRD` manifest over `shard-<s>/` directories). Nothing opens that
/// layout any more; see [`sharded_layout`].
const SHARDED_MANIFEST_FILE: &str = "sharded.manifest";

/// The sharded-layout manifest in `dir`, if there is one: such a
/// directory is refused by every open and create path
/// ([`Error::ShardedLayout`]) and by `free fsck`, and left as it is.
pub fn sharded_layout(dir: &Path) -> Option<PathBuf> {
    let path = dir.join(SHARDED_MANIFEST_FILE);
    path.is_file().then_some(path)
}

/// How far the dictionary may drift before compaction re-mines it: a
/// compaction re-mines when more than this share of the postings of the
/// documents flushed since the last one fall on keys that are useless
/// among those documents (see [`useful_limit`]). On synthetic pages, a
/// dictionary mined from 36 or more pages like them puts at most 7 %
/// there, and one mined from 20 pages, or from another vocabulary, puts
/// 8-48 %. `free segments` flags `FA302` on the same rule. See
/// DESIGN.md, *Live index*, under compaction.
pub const DRIFT_TOLERANCE: f64 = 0.075;

/// The most of `n` documents a key may be in and still pass the paper's
/// usefulness test at threshold `c` (Definition 3.4), with a margin for
/// sampling: the largest count that a key in a share `c` of all
/// documents reaches with probability at least 1 %. Without the margin a
/// handful of documents flags every key two of them share.
pub fn useful_limit(n: u64, c: f64) -> u64 {
    if c >= 1.0 {
        return n;
    }
    if c <= 0.0 {
        return 0;
    }
    // P(X >= k) for X ~ Binomial(n, c), summed from k = n down; each term
    // from the one above it in log space (c^n underflows).
    let (ln_c, ln_q) = (c.ln(), (1.0 - c).ln());
    let mut ln_pmf = n as f64 * ln_c;
    let mut tail = 0.0;
    for k in (1..=n).rev() {
        tail += ln_pmf.exp();
        if tail >= 0.01 {
            return k;
        }
        ln_pmf += (k as f64 / (n - k + 1) as f64).ln() + ln_q - ln_c;
    }
    0
}

/// The dictionary measured against the documents flushed since the last
/// compaction (see [`LiveIndex::drift`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Drift {
    /// The share of those documents' postings that fall on keys useless
    /// among them; `None` when there is nothing to measure: no such
    /// documents, or none of them holds a dictionary key.
    pub share: Option<f64>,
    /// The share, or 1.0 when the next compaction re-mines a dictionary
    /// that indexes nothing of the new documents (an empty one among
    /// them), and 0.0 when the next compaction would rewrite nothing.
    pub fraction: f64,
}

impl Drift {
    const NONE: Drift = Drift {
        share: None,
        fraction: 0.0,
    };

    /// Whether the next compaction re-mines the dictionary.
    pub fn remines(&self) -> bool {
        self.fraction > DRIFT_TOLERANCE
    }
}

/// Tombstone-log header line. Entries that follow are
/// `"<seq> <crc32-hex>"`, the CRC taken over the decimal sequence
/// string, so a damaged digit or a torn append can't silently resurrect
/// (or delete) the wrong document. No other line shape is accepted.
pub const TOMBSTONES_HEADER: &str = "FREETOMB 2";

/// An LSM-style incrementally updatable index over the FREE engine, in
/// one directory.
///
/// Documents are added to a write-ahead corpus store (the WAL) and
/// mirrored in an in-memory [`Memtable`], indexed by the index's one
/// dictionary: the oldest segment's key directory. A *flush* seals the
/// buffer into an immutable segment over that dictionary's keys (the
/// first flush, with no dictionary yet, mines one), whose store is the
/// WAL itself, renamed; a delete sets one bit
/// in the dead bitmap of the segment or buffer holding the document,
/// and appends a line to the tombstone log, the bitmaps' durable form;
/// *compaction* rewrites every surviving document into one segment,
/// merging the segments' postings under the dictionary, or mining a
/// fresh one when the new documents have drifted from it. Every
/// document keeps a stable, never-reused sequence number, so query
/// results are comparable across any schedule of mutations.
///
/// Mutations — `add_batch`, `delete`, `flush`, `compact` — take
/// `&mut self`. Reads go through the immutable [`Snapshot`] republished
/// (an atomic `Arc` swap) after every mutation, so a query result always
/// reflects exactly one generation, and any number of [`LiveReader`]
/// threads can query concurrently without ever blocking on a flush or
/// compaction. Segments, the write buffer's chunks, and the dead bitmaps
/// are `Arc`-shared between the writer and snapshots; the writer mutates
/// the buffer and the bitmaps copy-on-write (`Arc::make_mut`), so an add
/// copies chunk pointers, never postings, and a delete copies one
/// source's bitmap.
pub struct LiveIndex {
    dir: PathBuf,
    config: Arc<LiveConfig>,
    manifest: Manifest,
    segments: Vec<Sealed>,
    memtable: Arc<Memtable>,
    /// The dictionary's automaton, built by the first add that needs it
    /// and dropped only when the dictionary is replaced: by a re-mining
    /// compaction, or one that leaves no segment (the first flush creates
    /// a dictionary, and a merge keeps it key for key). Boxed: it is
    /// large.
    matcher: Option<Box<BufferMatcher>>,
    generation: u64,
    /// Deletes published so far. Adds, flushes and compactions leave it
    /// alone, so a cached answer over the sequences below a snapshot's
    /// `next_seq` holds at every later snapshot with the same count.
    removals: u64,
    published: Arc<SnapshotCell>,
    /// `free_live_segments`: the sealed segments.
    segments_gauge: Gauge,
}

impl LiveIndex {
    /// Creates a new, empty live index in `dir`. Fails with
    /// [`Error::AlreadyExists`] if a live index is already there, and
    /// with [`Error::ShardedLayout`] over a sharded directory.
    pub fn create(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        let dir = dir.as_ref();
        if let Some(path) = sharded_layout(dir) {
            return Err(Error::ShardedLayout(path));
        }
        if Manifest::exists(dir) {
            return Err(Error::AlreadyExists(dir.to_path_buf()));
        }
        std::fs::create_dir_all(dir.join(SEGMENTS_DIR))
            .map_err(|e| Error::io(format!("create {}", dir.display()), e))?;
        Manifest::new().store(dir)?;
        reset_wal(dir, 0)?;
        std::fs::write(dir.join(TOMBSTONES_FILE), format!("{TOMBSTONES_HEADER}\n"))
            .map_err(|e| Error::io("write tombstones", e))?;
        LiveIndex::open(dir, config)
    }

    /// Opens the live index in `dir`, replaying the WAL into the write
    /// buffer, completing a flush a crash interrupted after its commit
    /// ([`pending_flush`]) and discarding any state a crash left
    /// uncommitted. Fails with [`Error::ShardedLayout`] over a sharded
    /// directory, which it leaves untouched.
    pub fn open(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        let dir = dir.as_ref().to_path_buf();
        if let Some(path) = sharded_layout(&dir) {
            return Err(Error::ShardedLayout(path));
        }
        let manifest = Manifest::load(&dir)?;
        let seg_root = dir.join(SEGMENTS_DIR);
        let wal_dir = dir.join(WAL_DIR);
        let epoch = read_wal_epoch(&dir);
        if let Some(meta) = pending_flush(&dir, &manifest)? {
            let store = corpus_dir(&seg_root, meta.id);
            std::fs::rename(&wal_dir, &store)
                .map_err(|e| Error::io(format!("rename WAL to {}", store.display()), e))?;
        }
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            segments.push(Segment::open(&seg_root, meta.clone())?);
        }
        remove_orphans(&seg_root, &manifest);
        // WAL epoch check: a flush commits the manifest (with the next
        // epoch) before its WAL becomes the segment's store and a fresh
        // WAL is stamped, so a WAL whose stamp disagrees is stale: its
        // documents are already sealed in a segment (a fresh WAL that
        // missed its stamp is empty).
        let wal_present = wal_dir.join("corpus.idx").is_file();
        if epoch.is_none() && wal_present && DiskCorpus::open(&wal_dir)?.len() > 0 {
            // Every writer of the stamp recreates the WAL empty first, so
            // a missing or garbled stamp over buffered documents is damage:
            // whether they are sealed already is unknowable, and discarding
            // them could lose acknowledged writes.
            return Err(Error::Corrupt(format!(
                "{}: WAL epoch stamp unreadable while the WAL holds buffered \
                 documents; restore {WAL_EPOCH_FILE} (the manifest commits epoch {})",
                dir.display(),
                manifest.wal_epoch
            )));
        }
        if epoch != Some(manifest.wal_epoch) || !wal_present {
            reset_wal(&dir, manifest.wal_epoch)?;
        }
        let wal = DiskCorpus::open(&wal_dir)?;
        let mut buffered: Vec<Vec<u8>> = Vec::with_capacity(wal.len());
        wal.scan(&mut |_, bytes| {
            buffered.push(bytes.to_vec());
            true
        })?;
        let generation = manifest.generation;
        let config = Arc::new(config);
        let segments: Vec<Sealed> = segments.into_iter().map(Sealed::new).collect();
        let memtable = Arc::new(Memtable::default());
        let published = Arc::new(SnapshotCell::new(Arc::new(Snapshot::new(
            segments.clone(),
            memtable.clone(),
            manifest.wal_base,
            generation,
            0,
            config.clone(),
        ))));
        let mut live = LiveIndex {
            dir,
            config,
            manifest,
            segments,
            memtable,
            matcher: None,
            generation,
            removals: 0,
            published,
            segments_gauge: metrics::global()
                .gauge("free_live_segments", "Sealed segments in the live index"),
        };
        if !buffered.is_empty() {
            live.buffer(&buffered, &mut Span::disabled());
        }
        // Tombstones are checked against the documents this publishes.
        live.publish();
        live.load_tombstones()?;
        live.publish();
        Ok(live)
    }

    /// Opens `dir` if it holds a live index, creates one there otherwise.
    pub fn open_or_create(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        let dir = dir.as_ref();
        if Manifest::exists(dir) || sharded_layout(dir).is_some() {
            LiveIndex::open(dir, config)
        } else {
            LiveIndex::create(dir, config)
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Mutation counter: bumps on every add/delete/flush/compact, so two
    /// equal generations imply identical query results.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> DocId {
        self.manifest.wal_base + self.memtable.len() as DocId
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of live (queryable) documents.
    pub fn live_docs(&self) -> usize {
        self.snapshot().live_docs()
    }

    /// Sequence numbers of all live documents, ascending.
    pub fn live_seqs(&self) -> Vec<DocId> {
        self.snapshot().live_seqs()
    }

    /// Reads one live document by sequence number.
    pub fn get(&self, seq: DocId) -> Result<Vec<u8>> {
        self.snapshot().get(seq)
    }

    /// The most recently published snapshot. Mutating methods publish
    /// before returning, so between mutations this is exactly the
    /// writer's in-memory state.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.load()
    }

    /// A cheap, cloneable handle other threads can use to query the
    /// index concurrently with this writer. Readers always see the
    /// freshest published generation and never block on mutations.
    pub fn reader(&self) -> LiveReader {
        LiveReader {
            cell: self.published.clone(),
        }
    }

    /// Freezes a snapshot of the current state and publishes it. Called
    /// at the end of every mutation; cheap: a few `Arc` clones per
    /// source.
    fn publish(&self) {
        self.segments_gauge.set(self.segments.len() as i64);
        self.published.store(Arc::new(Snapshot::new(
            self.segments.clone(),
            self.memtable.clone(),
            self.manifest.wal_base,
            self.generation,
            self.removals,
            self.config.clone(),
        )));
    }

    /// Adds one document, returning its sequence number; may trigger an
    /// automatic flush.
    pub fn add(&mut self, doc: &[u8]) -> Result<DocId> {
        Ok(self.add_batch(&[doc])?[0])
    }

    /// Adds a batch of documents, returning their sequence numbers. The
    /// whole batch commits to the WAL with one append-reopen, then lands
    /// in the write buffer, and the snapshot is republished once, so
    /// readers see the whole batch or none of it; a flush follows if the
    /// buffer crossed either configured threshold.
    ///
    /// On return the batch is committed to the WAL files in the page
    /// cache: it survives a crash of this process, not a power loss or a
    /// kernel crash, since nothing is synced to the disk (ROADMAP item 4).
    /// The WAL commits first and the buffer takes the batch after it, so
    /// an I/O error leaves the in-memory state as it was.
    pub fn add_batch<D: AsRef<[u8]>>(&mut self, docs: &[D]) -> Result<Vec<DocId>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = self.config.engine.tracer.span("ingest");
        let end = u64::from(self.next_seq()) + docs.len() as u64;
        if end > u64::from(DocId::MAX) {
            return Err(Error::Corrupt("sequence-number space exhausted".into()));
        }
        let wal = Instant::now();
        let mut writer = CorpusWriter::open_append(self.dir.join(WAL_DIR))?;
        let mut bytes = 0u64;
        for doc in docs {
            writer.append(doc.as_ref())?;
            bytes += doc.as_ref().len() as u64;
        }
        writer.commit()?;
        span.record("wal_us", wal.elapsed().as_micros() as u64);
        let first = self.manifest.wal_base + self.buffer(docs, &mut span);
        self.generation += 1;
        metrics::global()
            .counter(
                "free_live_docs_added_total",
                "Documents ingested into the live index",
            )
            .add(docs.len() as u64);
        span.record("docs", docs.len());
        span.record("bytes", bytes);
        drop(span);
        self.publish();
        if self.memtable.bytes() >= self.config.flush_threshold_bytes
            || self.memtable.len() >= self.config.flush_threshold_docs
        {
            self.flush()?;
        }
        Ok((first..first + docs.len() as DocId).collect())
    }

    /// Appends `docs` to the write buffer as one chunk, indexed by the
    /// dictionary when the index has one; returns the first document's
    /// local id. Copy-on-write: a snapshot may still hold the buffer, so
    /// `Arc::make_mut` copies its chunk pointers, never a chunk. Records
    /// where the time went on `span` (see [`Memtable::push_batch`]).
    fn buffer<D: AsRef<[u8]>>(&mut self, docs: &[D], span: &mut Span) -> DocId {
        let matcher = match self.segments.first() {
            None => None,
            Some(dict) => Some(
                &mut **self
                    .matcher
                    .get_or_insert_with(|| Box::new(BufferMatcher::new(dict.index.keys()))),
            ),
        };
        Arc::make_mut(&mut self.memtable).push_batch(docs, matcher, span)
    }

    /// Tombstones the document with sequence number `seq`. The document
    /// disappears from queries immediately; its storage is reclaimed by
    /// the next compaction.
    pub fn delete(&mut self, seq: DocId) -> Result<()> {
        let snapshot = self.snapshot();
        let (owner, local) = snapshot.locate(seq).ok_or(Error::UnknownDoc(seq))?;
        if snapshot.dead(owner).contains(local) {
            return Err(Error::AlreadyDeleted(seq));
        }
        let path = self.dir.join(TOMBSTONES_FILE);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::io(format!("open {}", path.display()), e))?;
        writeln!(f, "{}", tombstone_line(seq)).map_err(|e| Error::io("append tombstone", e))?;
        self.mark_dead(owner, local);
        self.generation += 1;
        self.removals += 1;
        self.publish();
        metrics::global()
            .counter(
                "free_live_docs_deleted_total",
                "Documents tombstoned in the live index",
            )
            .inc();
        Ok(())
    }

    /// Seals the write buffer into a new immutable segment. No document
    /// is written: the WAL, already a CRC-checked store in the segment
    /// format, becomes the segment's store. The flush writes the
    /// segment's sequence map and its index (the postings the buffer
    /// recorded, under the dictionary's keys; only the first flush, into
    /// an index with no segments, mines, over the live documents, and so
    /// creates the dictionary), commits the manifest naming the segment
    /// and the next WAL epoch, renames `wal/` to the segment's store, and
    /// starts an empty WAL stamped with that epoch. A crash after the
    /// commit leaves a state [`LiveIndex::open`] completes; one before it,
    /// files the next open removes.
    ///
    /// Deleted buffered documents stay in the store under the segment's
    /// dead bits, with their tombstones, and no postings; compaction drops
    /// them. A buffer whose every document is deleted seals nothing: its
    /// WAL is replaced and its tombstones consumed. Returns whether
    /// anything was flushed.
    pub fn flush(&mut self) -> Result<bool> {
        if self.memtable.is_empty() {
            return Ok(false);
        }
        let mut span = self.config.engine.tracer.span("flush");
        let base = self.manifest.wal_base;
        let buffered = self.memtable.len();
        let dead = self.memtable.dead.clone();
        span.record("docs", buffered - dead.count());
        span.record("dead", dead.count());
        let seg_root = self.dir.join(SEGMENTS_DIR);
        let id = self.manifest.next_segment_id;
        let mut sealed = None;
        if dead.count() < buffered {
            let start = Instant::now();
            // The store keeps only what the WAL committed: reopening it
            // for append cuts the bytes a crashed add left past that.
            drop(CorpusWriter::open_append(self.dir.join(WAL_DIR))?);
            let seqs: Vec<DocId> = (base..base + buffered as DocId).collect();
            write_seqs(&seqs_path(&seg_root, id), &seqs)?;
            let path = index_path(&seg_root, id);
            let index = match self.segments.first() {
                None => mine_index(&LiveBuffer::new(&self.memtable), &self.config.engine, &path)?,
                Some(dict) => {
                    let mut index = IndexWriter::create(&path)?;
                    let sources = self.memtable.sources().collect();
                    write_postings(dict.index.keys(), sources, false, &mut index)?;
                    index.finish()?
                }
            };
            span.record("index", start.elapsed());
            span.record("segment_id", id);
            span.record("keys", index.keys().len());
            let meta = SegmentMeta {
                id,
                num_docs: buffered as u32,
                first_seq: base,
                last_seq: base + buffered as DocId - 1,
            };
            self.manifest.segments.push(meta.clone());
            self.manifest.next_segment_id += 1;
            sealed = Some((meta, index, seqs));
        }
        // Commit: the manifest names the new segment and the new WAL
        // epoch; then the WAL becomes the segment's store, and a fresh
        // one starts.
        let commit = Instant::now();
        self.generation += 1;
        self.manifest.wal_base = base + buffered as DocId;
        self.manifest.wal_epoch += 1;
        self.manifest.generation = self.generation;
        self.manifest.store(&self.dir)?;
        let wal_dir = self.dir.join(WAL_DIR);
        if sealed.is_some() {
            let store = corpus_dir(&seg_root, id);
            std::fs::rename(&wal_dir, &store)
                .map_err(|e| Error::io(format!("rename WAL to {}", store.display()), e))?;
        }
        reset_wal(&self.dir, self.manifest.wal_epoch)?;
        span.record("commit", commit.elapsed());
        // Replace rather than clear: snapshots may still hold the old
        // buffer, which stays valid (and frozen) until they drop it.
        self.memtable = Arc::new(Memtable::default());
        match sealed {
            Some((meta, index, seqs)) => {
                let mut segment = Sealed::new(Segment::with_index(&seg_root, meta, index, seqs)?);
                // The buffer's deletes carry over, local id for local id,
                // and the tombstone log already names them.
                segment.dead = dead;
                self.segments.push(segment);
            }
            // Nothing sealed: the dropped documents' tombstones go.
            None => self.rewrite_tombstones()?,
        }
        self.publish();
        drop(span);
        metrics::global()
            .counter("free_live_flushes_total", "Write-buffer flushes")
            .inc();
        Ok(true)
    }

    /// Flushes, then rewrites every surviving document into one segment:
    /// the survivors, in sequence order, are copied into a new corpus,
    /// each checked against its stored CRC on the way (a damaged one is
    /// [`Error::Corrupt`] and nothing is committed). The segment is
    /// indexed one of two ways, as [`LiveIndex::drift`] decides:
    ///
    /// - *Merge* (the dictionary fits): each dictionary key's postings
    ///   are the segments' lists, concatenated and renumbered, read in
    ///   one checksummed pass per segment. Nothing is mined or scanned,
    ///   and the dictionary keeps every key, one whose documents were all
    ///   deleted with an empty list.
    /// - *Re-mine* (the dictionary indexes nothing of the new documents,
    ///   an empty one included, or has drifted from them): the batch
    ///   build, so the index is byte for byte what `Engine::build_on_disk`
    ///   writes over the live documents, and its keys become the new
    ///   dictionary.
    ///
    /// Tombstoned documents are dropped and their tombstones consumed;
    /// sequence numbers are kept. Returns whether anything changed.
    pub fn compact(&mut self) -> Result<bool> {
        let mut span = self.config.engine.tracer.span("compact");
        self.flush()?;
        if self.segments.is_empty() {
            return Ok(false);
        }
        if self.segments.len() == 1 && self.tombstones() == 0 {
            span.record("skipped", "single live segment, no tombstones");
            return Ok(false);
        }
        let drift = self.drift();
        if let Some(share) = drift.share {
            span.record("share", share);
        }
        let seg_root = self.dir.join(SEGMENTS_DIR);
        let old_ids: Vec<u64> = self.segments.iter().map(|s| s.meta.id).collect();
        let mut merge_bytes = 0u64;
        let mut new_segment = None;
        // The flush left every live document in a segment.
        if self.live_docs() > 0 {
            let id = self.manifest.next_segment_id;
            let written = self.write_compacted(id, drift.remines(), &mut merge_bytes, &mut span);
            // A failed rewrite leaves the committed state as it was.
            new_segment = Some(written.inspect_err(|_| remove_segment_files(&seg_root, id))?);
            self.manifest.next_segment_id = id + 1;
        }
        let remined = drift.remines() && new_segment.is_some();
        span.record("remined", remined);
        if remined || new_segment.is_none() {
            // The dictionary is replaced (or gone): the old automaton is
            // dead weight.
            self.matcher = None;
        }
        // Commit, then clean up the replaced segments.
        let commit = Instant::now();
        self.generation += 1;
        self.manifest.segments = new_segment.iter().map(|s| s.meta.clone()).collect();
        self.manifest.generation = self.generation;
        self.manifest.store(&self.dir)?;
        self.segments = new_segment.into_iter().map(Sealed::new).collect();
        self.rewrite_tombstones()?;
        // In-flight queries may still stream from the replaced
        // segments; unlinking their files only drops the directory
        // entries — the snapshots' open descriptors stay readable, and
        // the disk space returns when the last `Arc<Segment>` drops.
        for &old in &old_ids {
            remove_segment_files(&seg_root, old);
        }
        self.publish();
        span.record("commit", commit.elapsed());
        let m = metrics::global();
        m.counter("free_live_compactions_total", "Segment compactions")
            .inc();
        if remined {
            m.counter(
                "free_live_remines_total",
                "Compactions that re-mined the dictionary",
            )
            .inc();
        }
        m.counter(
            "free_live_merge_bytes_total",
            "Document bytes rewritten by compaction",
        )
        .add(merge_bytes);
        span.record("segments_merged", old_ids.len());
        span.record("merge_bytes", merge_bytes);
        Ok(true)
    }

    /// Writes compaction's segment `id`: every surviving document, copied
    /// in sequence order after a check against its stored CRC (which the
    /// copy then stores, not summing the bytes twice), indexed by
    /// the batch build when `remine` and by merging the segments'
    /// postings under the dictionary otherwise. Records the copy and the
    /// merge-or-mine durations on `span`.
    fn write_compacted(
        &self,
        id: u64,
        remine: bool,
        merge_bytes: &mut u64,
        span: &mut Span,
    ) -> Result<Segment> {
        let start = Instant::now();
        let mut writer = SegmentWriter::create(&self.dir.join(SEGMENTS_DIR), id)?;
        // Per segment, local id -> local id in the new segment. Segments
        // hold disjoint, ascending sequence ranges, so reading them in
        // order yields the survivors in sequence order.
        let mut remaps = Vec::with_capacity(self.segments.len());
        let mut next: DocId = 0;
        for seg in &self.segments {
            let mut remap = Vec::with_capacity(seg.seqs.len());
            let mut appended = Ok(());
            seg.corpus
                .scan_checked(0..seg.seqs.len(), &mut |local, bytes, crc| {
                    if seg.dead.contains(local as usize) {
                        remap.push(None);
                        return true;
                    }
                    remap.push(Some(next));
                    next += 1;
                    *merge_bytes += bytes.len() as u64;
                    appended = writer.append_copied(seg.seqs[local as usize], bytes, crc);
                    appended.is_ok()
                })
                .map_err(|e| match e {
                    free_corpus::Error::Corrupt(m) => {
                        Error::Corrupt(format!("segment {}: {m}", seg.meta.id))
                    }
                    other => other.into(),
                })?;
            appended?;
            remaps.push(remap);
        }
        span.record("copy", start.elapsed());
        let start = Instant::now();
        let segment = if remine {
            writer.mine(&self.config.engine)?
        } else {
            writer.seal(|_, path| {
                let sources = (self.segments.iter().zip(remaps))
                    .map(|(seg, remap)| Source::Segment {
                        id: seg.meta.id,
                        stream: seg.index.stream(),
                        remap,
                    })
                    .collect();
                let mut index = IndexWriter::create(path)?;
                write_postings(self.segments[0].index.keys(), sources, true, &mut index)?;
                Ok(index.finish()?)
            })?
        };
        span.record(if remine { "mine" } else { "merge" }, start.elapsed());
        Ok(segment)
    }

    /// A snapshot of the index's shape.
    pub fn stats(&self) -> LiveStats {
        let segments: Vec<SegmentStats> = self
            .segments
            .iter()
            .map(|s| SegmentStats {
                id: s.meta.id,
                num_docs: s.meta.num_docs,
                live_docs: s.live_docs(),
                first_seq: s.meta.first_seq,
                last_seq: s.meta.last_seq,
                data_bytes: s.data_bytes(),
                index_keys: s.num_keys(),
            })
            .collect();
        LiveStats {
            generation: self.generation,
            next_seq: self.next_seq(),
            memtable_docs: self.memtable.len(),
            memtable_bytes: self.memtable.bytes(),
            tombstones: self.tombstones(),
            live_docs: self.live_docs(),
            total_bytes: segments.iter().map(|s| s.data_bytes).sum::<u64>() + self.memtable.bytes(),
            segments,
        }
    }

    /// The dictionary measured against the documents flushed since the
    /// last compaction, counting what the next flush would seal as
    /// flushed: the share of their postings on keys that are useless
    /// among them, each key's count set against [`useful_limit`] for
    /// the number of live documents among them. This is the decision the
    /// next [`LiveIndex::compact`] acts on ([`Drift::remines`]) and what
    /// `free segments` reports as `FA302`. It reads the counts the
    /// segments' key directories and the buffer's runs hold, never a
    /// document, and finds each key's dictionary id with one lookup.
    pub fn drift(&self) -> Drift {
        // What the next compaction finds after its flush: nothing to
        // rewrite is nothing to re-mine.
        let flushing = self.memtable.dead.count() < self.memtable.len();
        let rewrites = self.segments.len() + usize::from(flushing) > 1
            || self.segments.iter().any(|s| s.dead.count() > 0);
        let Some(dict) = self.segments.first().map(|s| &s.index) else {
            return Drift::NONE;
        };
        if !rewrites || self.live_docs() == 0 {
            return Drift::NONE;
        }
        // Per dictionary key, the new documents holding it. A younger
        // segment's keys are dictionary keys; the documents a flush found
        // deleted are in its store but in no postings.
        let keys = dict.keys();
        let mut counts = vec![0u32; keys.len()];
        let mut n = self.memtable.count_keys(&mut counts);
        for seg in &self.segments[1..] {
            n += seg.live_docs() as u64;
            for (key, count) in seg.index.keys().iter().zip(seg.index.doc_counts()) {
                if let Some(at) = keys.position(key) {
                    counts[at] += count;
                }
            }
        }
        if n == 0 {
            return Drift::NONE;
        }
        let limit = useful_limit(n, self.config.engine.usefulness_threshold);
        let (mut useless, mut total) = (0u64, 0u64);
        for count in counts.into_iter().map(u64::from) {
            total += count;
            if count > limit {
                useless += count;
            }
        }
        if total == 0 {
            // Nothing of the new documents is indexed: an empty
            // dictionary, or one mined from other content entirely.
            return Drift {
                share: None,
                fraction: 1.0,
            };
        }
        let share = useless as f64 / total as f64;
        Drift {
            share: Some(share),
            fraction: share,
        }
    }

    /// Segment ids whose files are still present under `segments/` but
    /// are not named by the committed manifest: retired by a compaction
    /// whose file removal failed, or left behind by a crash between
    /// commit and cleanup. In-flight snapshots never need these files
    /// (they read through their own open descriptors), so anything
    /// listed here is leaked disk; reopening the index removes them.
    pub fn retired_segment_files(&self) -> Vec<u64> {
        orphan_segment_ids(&self.dir.join(SEGMENTS_DIR), &self.manifest)
    }

    /// How many generations the published snapshot trails the writer.
    /// Every mutation republishes before returning, so this is 0
    /// whenever the writer is quiescent; nonzero indicates a
    /// publication bug (surfaced by `free segments` as FA304).
    pub fn snapshot_lag(&self) -> u64 {
        self.generation - self.snapshot().generation
    }

    fn load_tombstones(&mut self) -> Result<()> {
        let path = self.dir.join(TOMBSTONES_FILE);
        let seqs = match read_tombstones(&path) {
            Ok(t) => t,
            Err(Error::NotFound(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut stale = false;
        let present = self.snapshot();
        for seq in seqs {
            // Tombstones whose docs a compaction already eliminated (a
            // crash can leave the log ahead of the manifest) are stale.
            match present.locate(seq) {
                Some((owner, local)) => self.mark_dead(owner, local),
                None => stale = true,
            }
        }
        if stale {
            self.rewrite_tombstones()?;
        }
        Ok(())
    }

    /// Marks document `local` of `owner` dead in the writer's state,
    /// copying that source's bitmap if a snapshot shares it.
    fn mark_dead(&mut self, owner: Owner, local: usize) {
        let dead = match owner {
            Owner::Segment(i) => &mut self.segments[i].dead,
            Owner::Buffer => &mut Arc::make_mut(&mut self.memtable).dead,
        };
        dead.insert(local);
    }

    /// How many stored documents are deleted: the set bits of every
    /// source's dead bitmap.
    fn tombstones(&self) -> usize {
        let sealed = self.segments.iter().map(|s| s.dead.count()).sum::<usize>();
        sealed + self.memtable.dead.count()
    }

    /// Rewrites the tombstone log from the dead bitmaps, in sequence
    /// order: the segments' in theirs, then the buffer's.
    fn rewrite_tombstones(&self) -> Result<()> {
        let path = self.dir.join(TOMBSTONES_FILE);
        let tmp = self.dir.join(format!("{TOMBSTONES_FILE}.tmp"));
        let mut text = format!("{TOMBSTONES_HEADER}\n");
        let sealed = (self.segments.iter()).flat_map(|s| s.dead.iter().map(|local| s.seqs[local]));
        let base = self.manifest.wal_base;
        let buffered = self.memtable.dead.iter().map(|l| base + l as DocId);
        for seq in sealed.chain(buffered) {
            text.push_str(&tombstone_line(seq));
            text.push('\n');
        }
        std::fs::write(&tmp, text).map_err(|e| Error::io(format!("write {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &path).map_err(|e| Error::io("rename tombstones", e))
    }
}

/// The WAL epoch stamp in `dir`; `None` when it is missing or garbled.
fn read_wal_epoch(dir: &Path) -> Option<u64> {
    let stamp = std::fs::read_to_string(dir.join(WAL_EPOCH_FILE)).ok()?;
    stamp.trim().parse().ok()
}

/// Replaces the WAL in `dir` with an empty one, then stamps it `epoch`:
/// a stamp never names a WAL that holds documents of an older epoch.
fn reset_wal(dir: &Path, epoch: u64) -> Result<()> {
    let wal_dir = dir.join(WAL_DIR);
    let _ = std::fs::remove_dir_all(&wal_dir);
    CorpusWriter::create(&wal_dir)?.commit()?;
    std::fs::write(dir.join(WAL_EPOCH_FILE), format!("{epoch}\n"))
        .map_err(|e| Error::io("write wal epoch", e))
}

/// The segment whose flush committed but did not finish, if a crash left
/// one: the manifest's newest segment has no store, and `wal/` holds
/// its documents under a stamp older than the manifest's epoch (or a
/// garbled one: the stamp is written last). [`LiveIndex::open`]
/// completes that flush by renaming `wal/` to the segment's store; `free
/// fsck` reports the state as a warning. A WAL holding another number of
/// documents than the segment is [`Error::Corrupt`].
pub fn pending_flush(dir: &Path, manifest: &Manifest) -> Result<Option<SegmentMeta>> {
    let Some(meta) = manifest.segments.last() else {
        return Ok(None);
    };
    let wal_dir = dir.join(WAL_DIR);
    if corpus_dir(&dir.join(SEGMENTS_DIR), meta.id).exists()
        || read_wal_epoch(dir) == Some(manifest.wal_epoch)
        || !wal_dir.join("corpus.idx").is_file()
    {
        return Ok(None);
    }
    let held = DiskCorpus::open(&wal_dir)?.len();
    if held != meta.num_docs as usize {
        return Err(Error::Corrupt(format!(
            "{}: segment {} has no store, and the WAL that would be it holds {held} \
             document(s), not {}",
            dir.display(),
            meta.id,
            meta.num_docs
        )));
    }
    Ok(Some(meta.clone()))
}

/// One serialized tombstone entry: the sequence number plus the CRC32 of
/// its decimal representation.
fn tombstone_line(seq: DocId) -> String {
    let digits = seq.to_string();
    let crc = free_checksum::crc32(digits.as_bytes());
    format!("{digits} {crc:08x}")
}

/// Reads a tombstone log without opening the index. Returns the logged
/// sequence numbers in file order, so duplicates survive for callers
/// that care. Every entry must be `<seq> <crc32-hex>` with a matching
/// checksum; anything else (a bare number is what a torn append leaves)
/// is [`Error::Corrupt`]. Missing files map to [`Error::NotFound`].
pub fn read_tombstones(path: &Path) -> Result<Vec<DocId>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(Error::NotFound(path.to_path_buf()))
        }
        Err(e) => return Err(Error::io(format!("read {}", path.display()), e)),
    };
    let mut seqs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line == TOMBSTONES_HEADER {
            continue;
        }
        let (digits, crc_hex) = line.split_once(' ').ok_or_else(|| {
            Error::Corrupt(format!(
                "{}: unsupported format, rebuild (tombstone line {line:?} is not \"<seq> <crc32-hex>\")",
                path.display()
            ))
        })?;
        let seq: DocId = digits
            .parse()
            .map_err(|_| Error::Corrupt(format!("bad tombstone line {line:?}")))?;
        let expected = u32::from_str_radix(crc_hex.trim(), 16)
            .map_err(|_| Error::Corrupt(format!("bad tombstone checksum in {line:?}")))?;
        if free_checksum::crc32(digits.as_bytes()) != expected {
            return Err(Error::Corrupt(format!(
                "tombstone checksum mismatch in {line:?}"
            )));
        }
        seqs.push(seq);
    }
    Ok(seqs)
}

/// Segment ids with files under `seg_root` that the manifest does not
/// name — leftovers from a compaction or flush that crashed (or whose
/// cleanup failed) after committing. Sorted, deduplicated.
pub fn orphan_segment_ids(seg_root: &Path, manifest: &Manifest) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(seg_root) else {
        return Vec::new();
    };
    let live: std::collections::HashSet<u64> = manifest.segments.iter().map(|s| s.id).collect();
    let mut orphans = BTreeSet::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("seg-") else {
            continue;
        };
        let Some(id) = rest.split('.').next().and_then(|id| id.parse::<u64>().ok()) else {
            continue;
        };
        if !live.contains(&id) {
            orphans.insert(id);
        }
    }
    orphans.into_iter().collect()
}

/// Removes segment files in `seg_root` not named by the manifest.
/// Best-effort: failures are ignored.
fn remove_orphans(seg_root: &Path, manifest: &Manifest) {
    for id in orphan_segment_ids(seg_root, manifest) {
        remove_segment_files(seg_root, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{execute_prepared, LiveMatch, QueryOpts};
    use free_corpus::synth::{Generator, SynthConfig};
    use free_engine::{CancelToken, EngineConfig, RequestBudget};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Only explicit flushes flush, and tiny corpora mine keys.
    fn small_config() -> LiveConfig {
        LiveConfig {
            engine: EngineConfig {
                usefulness_threshold: 0.6,
                max_gram_len: 6,
                ..EngineConfig::default()
            },
            flush_threshold_bytes: u64::MAX,
            flush_threshold_docs: usize::MAX,
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "free-live-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pages(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let generator = Generator::new(SynthConfig::tiny(n, seed));
        let mut page = Vec::new();
        (0..n as DocId)
            .map(|id| {
                generator.page(id, &mut page);
                page.clone()
            })
            .collect()
    }

    /// A delete copies only the bitmap of the source holding the
    /// document: the other segments' and the buffer's are still the very
    /// ones the previous snapshot holds, and that snapshot still reads
    /// the document.
    #[test]
    fn a_delete_touches_one_source() {
        let dir = std::env::temp_dir().join(format!("free-live-one-source-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut live = LiveIndex::create(&dir, LiveConfig::default()).unwrap();
        let docs = pages(3, 40);
        for part in docs.chunks(10) {
            live.add_batch(part).unwrap();
            if live.num_segments() < 3 {
                live.flush().unwrap();
            }
        }
        for seq in [2, 35] {
            live.delete(seq).unwrap();
        }
        let before = live.snapshot();
        assert_eq!(before.segments.len(), 3);
        live.delete(15).unwrap();
        let after = live.snapshot();
        for i in [0, 2] {
            assert!(
                after.segments[i].dead.shares(&before.segments[i].dead),
                "{i}"
            );
        }
        assert!(!after.segments[1].dead.shares(&before.segments[1].dead));
        assert!(after.memtable.dead.shares(&before.memtable.dead));
        assert_eq!(before.get(15).unwrap(), docs[15]);
        assert_eq!(before.live_docs(), 38);
        assert!(matches!(after.get(15), Err(Error::UnknownDoc(15))));
        assert_eq!(after.live_docs(), 37);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A merge keeps the dictionary key for key, so the write buffer's
    /// automaton survives it; a re-mine replaces the dictionary and drops
    /// the automaton.
    #[test]
    fn only_a_remine_drops_the_buffer_matcher() {
        let dir = std::env::temp_dir().join(format!("free-live-matcher-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut live = LiveIndex::create(&dir, LiveConfig::default()).unwrap();
        let same = pages(7, 200);
        live.add_batch(&same[..100]).unwrap();
        live.flush().unwrap();
        live.add_batch(&same[100..]).unwrap();
        assert!(live.matcher.is_some());
        assert!(!live.drift().remines());
        assert!(live.compact().unwrap());
        assert!(live.matcher.is_some(), "a merge keeps the automaton");

        live.add_batch(&pages(99, 100)).unwrap();
        assert!(live.drift().remines());
        assert!(live.compact().unwrap());
        assert!(live.matcher.is_none(), "a re-mine drops it");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A query that cannot use the index confirms as a SCAN: ranged,
    /// CRC-checked reads of the live documents. It answers what the regex
    /// finds in every live document (a rebuild's answer), at one thread
    /// and at four, over two segments with deletes and a non-empty write
    /// buffer.
    #[test]
    fn a_scan_query_reads_every_live_document() {
        let dir = fresh_dir("scan-live");
        let mut idx = LiveIndex::create(&dir, small_config()).unwrap();
        // About 700 KiB, so the SCAN spans several ranges; every digit is
        // in every document, so none is an index key.
        let docs: Vec<Vec<u8>> = (0..360)
            .map(|i| {
                let mut d = format!("0123456789 doc {i} holds {} here", i * 37 % 1000).into_bytes();
                d.resize(2_000, b'.');
                d
            })
            .collect();
        idx.add_batch(&docs[..150]).unwrap();
        idx.flush().unwrap();
        idx.add_batch(&docs[150..300]).unwrap();
        idx.flush().unwrap();
        idx.add_batch(&docs[300..]).unwrap();
        let deleted = [3, 160, 161, 310];
        for seq in deleted {
            idx.delete(seq).unwrap();
        }
        let snapshot = idx.snapshot();
        let pattern = "[5-7][0-9][0-9] ";
        let regex = free_regex::Regex::new(pattern).unwrap();
        let want: Vec<LiveMatch> = (0..docs.len() as DocId)
            .filter(|seq| !deleted.contains(seq))
            .map(|seq| {
                let count = regex.find_all(&docs[seq as usize]).len() as u32;
                LiveMatch { seq, count }
            })
            .filter(|m| m.count > 0)
            .collect();
        assert!(want.len() > 50, "{}", want.len());
        for threads in [1, 4] {
            let opts = QueryOpts {
                threads,
                ..QueryOpts::default()
            };
            let result = snapshot.query_opts(pattern, &opts).unwrap();
            assert!(result.stats.base.used_scan, "threads={threads}");
            assert_eq!(result.matches, want, "threads={threads}");
            assert_eq!(result.stats.base.docs_examined, docs.len() - deleted.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One word of five per document, so a word is a selective pattern.
    fn worded(seqs: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        const WORDS: [&str; 5] = ["alpha", "bravo", "charlie", "delta", "echo"];
        seqs.map(|i| format!("doc {i} {}", WORDS[i % 5]).into_bytes())
            .collect()
    }

    /// 40 documents with every odd seq deleted, a flush unless
    /// `scanning` (then nothing is flushed and every query scans), and 10
    /// more in the write buffer.
    fn mixed(dir: &Path, scanning: bool) -> LiveIndex {
        let mut idx = LiveIndex::create(dir, small_config()).unwrap();
        idx.add_batch(&worded(0..40)).unwrap();
        for seq in (1..40).step_by(2) {
            idx.delete(seq).unwrap();
        }
        if !scanning {
            idx.flush().unwrap();
        }
        idx.add_batch(&worded(40..50)).unwrap();
        idx
    }

    /// A query from `since` answers exactly the full answer's matches at
    /// `since` or above, counts included, for every `since`, over an index
    /// that streams its candidates and one without a dictionary that
    /// scans, with deletes in the segment and in the buffer, at one thread
    /// and at four.
    #[test]
    fn a_query_since_answers_the_tail() {
        for scanning in [false, true] {
            let dir = fresh_dir("since");
            let mut idx = mixed(&dir, scanning);
            for seq in [41, 46] {
                idx.delete(seq).unwrap();
            }
            let snapshot = idx.snapshot();
            for pattern in ["bravo", "doc 4", "[0-9]"] {
                let full = snapshot.query(pattern).unwrap().matches;
                for since in 0..=idx.next_seq() + 1 {
                    for threads in [1, 4] {
                        let opts = QueryOpts {
                            threads,
                            ..QueryOpts::default()
                        };
                        let got = snapshot.query_since(pattern, &opts, since).unwrap();
                        let want: Vec<_> =
                            (full.iter()).filter(|m| m.seq >= since).copied().collect();
                        assert_eq!(got.matches, want, "{scanning} {pattern} {since} {threads}");
                    }
                }
            }
            drop(idx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An index that scans (nothing flushed) and one that streams its
    /// candidates: an expired deadline, and a token cancelled by the first
    /// match, each fail the whole query with a structured error, whichever
    /// pass they stop.
    #[test]
    fn the_budget_stops_both_passes() {
        let pattern = "bravo";
        for used_scan in [true, false] {
            let dir = fresh_dir("budget");
            let idx = mixed(&dir, used_scan);
            let snapshot = idx.snapshot();
            let found = snapshot.query(pattern).unwrap();
            assert_eq!(found.stats.base.used_scan, used_scan);
            assert!(!found.matches.is_empty());
            let expired = QueryOpts {
                budget: RequestBudget::with_deadline(Instant::now()),
                ..QueryOpts::default()
            };
            let got = snapshot.query_opts(pattern, &expired);
            assert!(
                matches!(got, Err(Error::Timeout { .. })),
                "{:?}",
                got.map(|r| r.matches)
            );
            let token = CancelToken::new();
            let budget = RequestBudget::unlimited().cancelled_by(token.clone());
            let econfig = &snapshot.config.engine;
            let span = free_trace::Span::disabled();
            let prepared = free_engine::PreparedQuery::new(pattern, econfig, &span).unwrap();
            let mut delivered = 0;
            let got = execute_prepared(&snapshot, &prepared, 0, 4, &budget, &span, &mut |_, _| {
                delivered += 1;
                token.cancel();
                true
            });
            assert!(matches!(got, Err(Error::Cancelled)), "{got:?}");
            assert!(delivered > 0);
            drop(idx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A batch whose WAL commit fails leaves no trace: the sequence
    /// cursor, the live documents and the answers are as before, the
    /// writer stays usable, and the retried batch takes the same
    /// sequences, on reopen too.
    #[test]
    fn a_failed_wal_commit_leaves_no_trace() {
        let dir = fresh_dir("failed-commit");
        let mut idx = LiveIndex::create(&dir, small_config()).unwrap();
        let seed: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'p', b'q', i]).collect();
        idx.add_batch(&seed).unwrap();
        // Break the WAL's commit path: its index file becomes a
        // directory, so the next append fails.
        let wal_idx = dir.join(WAL_DIR).join("corpus.idx");
        let saved = std::fs::read(&wal_idx).unwrap();
        std::fs::remove_file(&wal_idx).unwrap();
        std::fs::create_dir(&wal_idx).unwrap();
        let batch: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'r', b's', i]).collect();
        let generation = idx.generation();
        assert!(idx.add_batch(&batch).is_err());
        assert_eq!(idx.next_seq(), 4);
        assert_eq!(idx.generation(), generation);
        assert_eq!(idx.live_seqs(), (0..4).collect::<Vec<_>>());
        assert_eq!(idx.snapshot().query("pq").unwrap().matches.len(), 4);
        assert!(idx.snapshot().query("rs").unwrap().matches.is_empty());
        // Heal the WAL and retry the batch.
        std::fs::remove_dir(&wal_idx).unwrap();
        std::fs::write(&wal_idx, &saved).unwrap();
        let ids = idx.add_batch(&batch).unwrap();
        assert_eq!(ids, (4..8).collect::<Vec<_>>());
        for (i, doc) in batch.iter().enumerate() {
            assert_eq!(&idx.get(4 + i as DocId).unwrap(), doc);
        }
        drop(idx);
        let reopened = LiveIndex::open(&dir, small_config()).unwrap();
        assert_eq!(reopened.next_seq(), 8);
        assert_eq!(reopened.live_docs(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `create` over an existing index is [`Error::AlreadyExists`], and
    /// over a directory holding the sharded layout's manifest it is
    /// [`Error::ShardedLayout`] naming that file; neither writes anything.
    #[test]
    fn create_refuses_existing_layouts() {
        let rooted = fresh_dir("exists-rooted");
        drop(LiveIndex::create(&rooted, small_config()).unwrap());
        let sharded = fresh_dir("exists-sharded");
        std::fs::create_dir_all(sharded.join("shard-0")).unwrap();
        std::fs::write(
            sharded.join(SHARDED_MANIFEST_FILE),
            "FREESHRD 1 0\nshards=2\n",
        )
        .unwrap();
        for existing in [&rooted, &sharded] {
            let before = listing(existing);
            match LiveIndex::create(existing, small_config()) {
                Err(Error::AlreadyExists(dir)) => assert_eq!(&dir, existing),
                Err(Error::ShardedLayout(path)) => {
                    assert_eq!(path, sharded.join(SHARDED_MANIFEST_FILE));
                }
                other => panic!("{existing:?}: {:?}", other.map(|_| ())),
            }
            assert_eq!(listing(existing), before, "a refused create wrote files");
            let _ = std::fs::remove_dir_all(existing);
        }
    }

    /// Sorted names directly under `dir`.
    fn listing(dir: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    }
}
