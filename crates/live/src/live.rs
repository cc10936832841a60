//! The live index: ingest, tombstone deletes, flush, and compaction.

use crate::error::{Error, Result};
use crate::manifest::Manifest;
use crate::memtable::{BufferMatcher, Memtable};
use crate::postings::{write_postings, Source};
use crate::segment::{remove_segment_files, Segment, SegmentWriter};
use crate::snapshot::{Owner, Sealed, ShardSnapshot};
use crate::stats::{LiveStats, SegmentStats};
use crate::LiveConfig;
use free_corpus::{Corpus, CorpusWriter, DiskCorpus, DocId};
use free_index::IndexWriter;
use free_trace::{metrics, Span};
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
/// compaction (see [`Shard::drift`]).
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

/// One shard of a [`crate::LiveIndex`]: an LSM-style incrementally
/// updatable index over the FREE engine, in one directory.
///
/// Documents are added to a write-ahead corpus store (the WAL) and
/// mirrored in an in-memory [`Memtable`], indexed by the shard's one
/// dictionary: the oldest segment's key directory. A *flush* seals the
/// buffer into an immutable segment over that dictionary's keys (the
/// first flush, with no dictionary yet, mines one); a delete sets one bit
/// in the dead bitmap of the segment or buffer holding the document,
/// and appends a line to the tombstone log, the bitmaps' durable form;
/// *compaction* rewrites every surviving document into one segment,
/// merging the segments' postings under the dictionary, or mining a
/// fresh one when the new documents have drifted from it. Every
/// document keeps a stable, never-reused sequence number (local to the
/// shard), so query results are comparable across any schedule of
/// mutations.
///
/// Mutations take `&mut self` and are the router's alone; outside the
/// crate a shard is read-only inspection through
/// [`crate::LiveIndex::shards`]. After every mutation the shard freezes
/// its state into a `ShardSnapshot`, which the router collects into
/// the index's published [`crate::Snapshot`]. Segments, the write
/// buffer's chunks, and the dead bitmaps are `Arc`-shared between the
/// writer and snapshots; the writer mutates the buffer and the bitmaps
/// copy-on-write (`Arc::make_mut`), so an add copies chunk pointers,
/// never postings, and a delete copies one source's bitmap.
pub struct Shard {
    dir: PathBuf,
    config: Arc<LiveConfig>,
    manifest: Manifest,
    segments: Vec<Sealed>,
    memtable: Arc<Memtable>,
    /// The dictionary's automaton, built by the first add that needs it
    /// and dropped only when the dictionary is replaced: by a re-mining
    /// compaction, or one that leaves no segment (the first flush creates
    /// a dictionary, and a merge keeps it key for key). Boxed: it is
    /// large, and the shard is moved around whole.
    matcher: Option<Box<BufferMatcher>>,
    generation: u64,
    published: Arc<ShardSnapshot>,
}

impl Shard {
    /// Initializes an empty shard in `dir`. Fails with
    /// [`Error::AlreadyExists`] if a live index is already there, rooted
    /// or sharded.
    pub(crate) fn create(dir: impl AsRef<Path>, config: LiveConfig) -> Result<Shard> {
        let dir = dir.as_ref();
        if Manifest::exists(dir) || crate::ShardedManifest::exists(dir) {
            return Err(Error::AlreadyExists(dir.to_path_buf()));
        }
        std::fs::create_dir_all(dir.join(SEGMENTS_DIR))
            .map_err(|e| Error::io(format!("create {}", dir.display()), e))?;
        Manifest::new().store(dir)?;
        CorpusWriter::create(dir.join(WAL_DIR))?.commit()?;
        std::fs::write(dir.join(WAL_EPOCH_FILE), "0\n")
            .map_err(|e| Error::io("write wal epoch", e))?;
        std::fs::write(dir.join(TOMBSTONES_FILE), format!("{TOMBSTONES_HEADER}\n"))
            .map_err(|e| Error::io("write tombstones", e))?;
        Shard::open(dir, config)
    }

    /// Opens the shard in `dir`, replaying the WAL into the write buffer
    /// and discarding any state a crash left uncommitted.
    pub(crate) fn open(dir: impl AsRef<Path>, config: LiveConfig) -> Result<Shard> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Manifest::load(&dir)?;
        let seg_root = dir.join(SEGMENTS_DIR);
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            segments.push(Segment::open(&seg_root, meta.clone())?);
        }
        remove_orphans(&seg_root, &manifest);
        // WAL epoch check: a flush commits the manifest before recreating
        // the WAL, so a crash in between leaves a stale WAL whose epoch
        // stamp disagrees — its docs are already sealed in a segment.
        let epoch = std::fs::read_to_string(dir.join(WAL_EPOCH_FILE))
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok());
        let wal_dir = dir.join(WAL_DIR);
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
            let _ = std::fs::remove_dir_all(&wal_dir);
            CorpusWriter::create(&wal_dir)?.commit()?;
            std::fs::write(
                dir.join(WAL_EPOCH_FILE),
                format!("{}\n", manifest.wal_epoch),
            )
            .map_err(|e| Error::io("write wal epoch", e))?;
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
        let published = Arc::new(ShardSnapshot::new(
            segments.clone(),
            memtable.clone(),
            manifest.wal_base,
            generation,
            config.clone(),
        ));
        let mut live = Shard {
            dir,
            config,
            manifest,
            segments,
            memtable,
            matcher: None,
            generation,
            published,
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

    /// The shard's configuration.
    pub(crate) fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Mutation counter: bumps on every add/delete/flush/compact, so two
    /// equal generations imply identical query results.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The next (local) sequence number to be assigned.
    pub(crate) fn next_seq(&self) -> DocId {
        self.manifest.wal_base + self.memtable.len() as DocId
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of buffered (unflushed) documents in the write buffer,
    /// live or tombstoned. `next_seq() - buffered_docs()` is the flush
    /// frontier: everything below it is sealed into segments.
    pub(crate) fn buffered_docs(&self) -> usize {
        self.memtable.len()
    }

    /// The most recently frozen snapshot. Mutating methods publish
    /// before returning, so between mutations this is exactly the
    /// writer's in-memory state.
    pub(crate) fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.published.clone()
    }

    /// Freezes a snapshot of the current state. Called at the end of
    /// every mutation; cheap: a few `Arc` clones per source.
    fn publish(&mut self) {
        self.published = Arc::new(ShardSnapshot::new(
            self.segments.clone(),
            self.memtable.clone(),
            self.manifest.wal_base,
            self.generation,
            self.config.clone(),
        ));
    }

    /// Appends a batch of documents to the WAL and the write buffer,
    /// returning their local sequence numbers. The whole batch commits to
    /// the WAL with one append-reopen. Never auto-flushes, leaving the
    /// whole batch in the write buffer regardless of thresholds: the
    /// router commits one batch across its shards with this and runs
    /// [`Shard::maybe_flush`] only after *every* shard holds its part, so
    /// a crash mid-commit can only ever leave excess documents in shard
    /// WALs — where [`Shard::truncate_buffer`] can still discard them.
    pub(crate) fn add_batch_deferred<D: AsRef<[u8]>>(&mut self, docs: &[D]) -> Result<Vec<DocId>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = self.config.engine.tracer.span("ingest");
        let end = u64::from(self.next_seq()) + docs.len() as u64;
        if end > u64::from(DocId::MAX) {
            return Err(Error::Corrupt("sequence-number space exhausted".into()));
        }
        // WAL first, memtable after the commit: an I/O error mid-batch
        // leaves the in-memory state agreeing with the committed prefix.
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
        let ids: Vec<DocId> = (first..first + docs.len() as DocId).collect();
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
        Ok(ids)
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

    /// Flushes if the write buffer has crossed either configured
    /// threshold; the auto-flush check [`crate::LiveIndex::add_batch`]
    /// runs after every ingest. Returns whether a flush happened.
    pub(crate) fn maybe_flush(&mut self) -> Result<bool> {
        if self.memtable.bytes() >= self.config.flush_threshold_bytes
            || self.memtable.len() >= self.config.flush_threshold_docs
        {
            self.flush()
        } else {
            Ok(false)
        }
    }

    /// Tombstones the document with sequence number `seq`. The document
    /// disappears from queries immediately; its storage is reclaimed by
    /// the next compaction (or flush, for still-buffered documents).
    pub(crate) fn delete(&mut self, seq: DocId) -> Result<()> {
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
        self.publish();
        metrics::global()
            .counter(
                "free_live_docs_deleted_total",
                "Documents tombstoned in the live index",
            )
            .inc();
        Ok(())
    }

    /// Seals the write buffer into a new immutable segment and resets the
    /// WAL. The segment indexes the dictionary's keys with the postings
    /// the buffer recorded; only the first flush, into an index with no
    /// segments, mines (and so creates the dictionary). Tombstoned buffer
    /// documents are simply not written — their tombstones are consumed.
    /// Returns whether anything was flushed.
    pub(crate) fn flush(&mut self) -> Result<bool> {
        if self.memtable.is_empty() {
            return Ok(false);
        }
        self.seal_buffer_prefix(self.memtable.len(), "flush")?;
        metrics::global()
            .counter("free_live_flushes_total", "Write-buffer flushes")
            .inc();
        Ok(true)
    }

    /// Discards every buffered (unflushed) document except the first
    /// `keep_docs`, sealing those into a segment so the drop commits
    /// with the same crash-safe manifest-then-WAL-reset protocol a flush
    /// uses. The dropped documents' sequence numbers are reassigned to
    /// future adds — the same semantics as unsharded WAL recovery for a
    /// batch whose commit never completed. Recovery-only: the sharded
    /// router uses this to restore the cross-shard routing invariant
    /// after a partial batch commit; nothing else should call it.
    /// Returns whether anything was dropped.
    pub(crate) fn truncate_buffer(&mut self, keep_docs: usize) -> Result<bool> {
        if keep_docs >= self.memtable.len() {
            return Ok(false);
        }
        self.seal_buffer_prefix(keep_docs, "truncate")?;
        metrics::global()
            .counter(
                "free_live_truncates_total",
                "Write-buffer truncations (sharded crash recovery)",
            )
            .inc();
        Ok(true)
    }

    /// Shared core of [`Shard::flush`] and
    /// [`Shard::truncate_buffer`]: seals the first `keep_docs`
    /// buffered documents (minus tombstoned ones) into a segment,
    /// advances `wal_base` past exactly those documents, and resets the
    /// WAL — dropping any buffered tail beyond `keep_docs`. Commit
    /// order (manifest first, then tombstones, then the WAL reset) makes
    /// a crash at any point recoverable via the WAL epoch check in
    /// [`Shard::open`].
    fn seal_buffer_prefix(&mut self, keep_docs: usize, op: &'static str) -> Result<()> {
        let mut span = self.config.engine.tracer.span(op);
        let base = self.manifest.wal_base;
        let next_seq = base + keep_docs as DocId;
        let live = |local: usize| !self.memtable.dead.contains(local);
        let survivors = (0..keep_docs).filter(|&local| live(local)).count();
        span.record("docs", survivors);
        span.record("dropped_tombstones", keep_docs - survivors);
        span.record("dropped_docs", self.memtable.len() - keep_docs);
        let mut new_segment = None;
        if survivors > 0 {
            let id = self.manifest.next_segment_id;
            let mut writer = SegmentWriter::create(&self.dir.join(SEGMENTS_DIR), id)?;
            // Buffer local id -> segment local id; `None` is not sealed.
            let mut remap: Vec<Option<DocId>> = Vec::with_capacity(self.memtable.len());
            let mut sealed: DocId = 0;
            for (local, doc) in self.memtable.docs().take(keep_docs).enumerate() {
                if live(local) {
                    writer.append(base + local as DocId, doc)?;
                    remap.push(Some(sealed));
                    sealed += 1;
                } else {
                    remap.push(None);
                }
            }
            remap.resize(self.memtable.len(), None);
            let seg = match self.segments.first() {
                None => writer.mine(&self.config.engine)?,
                Some(dict) => writer.seal(|_, path| {
                    let mut index = IndexWriter::create(path)?;
                    let sources = self.memtable.sources(&remap).collect();
                    write_postings(dict.index.keys(), sources, false, &mut index)?;
                    Ok(index.finish()?)
                })?,
            };
            span.record("segment_id", id);
            span.record("keys", seg.num_keys());
            self.manifest.segments.push(seg.meta.clone());
            self.manifest.next_segment_id += 1;
            new_segment = Some(seg);
        }
        // Commit: manifest first (it names the new segment and the new
        // WAL epoch), then the tombstones without the buffer's (its dead
        // documents were not sealed, or were dropped), then the WAL reset.
        self.generation += 1;
        self.manifest.wal_base = next_seq;
        self.manifest.wal_epoch += 1;
        self.manifest.generation = self.generation;
        self.manifest.store(&self.dir)?;
        // Replace rather than clear: snapshots may still hold the old
        // buffer, which stays valid (and frozen) until they drop it.
        self.memtable = Arc::new(Memtable::default());
        self.segments.extend(new_segment.map(Sealed::new));
        self.rewrite_tombstones()?;
        self.reset_wal()?;
        self.publish();
        Ok(())
    }

    /// Flushes, then rewrites every surviving document into one segment:
    /// the survivors, in sequence order, are copied into a new corpus,
    /// each checked against its stored CRC on the way (a damaged one is
    /// [`Error::Corrupt`] and nothing is committed). The segment is
    /// indexed one of two ways, as [`Shard::drift`] decides:
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
    pub(crate) fn compact(&mut self) -> Result<bool> {
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
        if self.published.live_docs() > 0 {
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
    /// in sequence order after a check against its stored CRC, indexed by
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
                .scan_checked(0..seg.seqs.len(), &mut |local, bytes| {
                    if seg.dead.contains(local as usize) {
                        remap.push(None);
                        return true;
                    }
                    remap.push(Some(next));
                    next += 1;
                    *merge_bytes += bytes.len() as u64;
                    appended = writer.append(seg.seqs[local as usize], bytes);
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
            live_docs: self.published.live_docs(),
            total_bytes: segments.iter().map(|s| s.data_bytes).sum::<u64>() + self.memtable.bytes(),
            segments,
        }
    }

    /// The dictionary measured against the documents flushed since the
    /// last compaction, counting what the next flush would seal as
    /// flushed: the share of their postings on keys that are useless
    /// among them, each key's count set against [`useful_limit`] for
    /// their number. This is the decision the next `Shard::compact`
    /// acts on ([`Drift::remines`]) and what `free segments` reports as
    /// `FA302`. It reads the counts the segments' key directories and the
    /// buffer's runs hold, never a document.
    pub fn drift(&self) -> Drift {
        // What the next compaction finds after its flush: nothing to
        // rewrite is nothing to re-mine.
        let flushing = self.memtable.dead.count() < self.memtable.len();
        let rewrites = self.segments.len() + usize::from(flushing) > 1
            || self.segments.iter().any(|s| s.dead.count() > 0);
        let Some(dict) = self.segments.first().map(|s| &s.index) else {
            return Drift::NONE;
        };
        if !rewrites || self.published.live_docs() == 0 {
            return Drift::NONE;
        }
        // Per dictionary key, the new documents holding it. A younger
        // segment's keys are dictionary keys, in the same order.
        let keys = dict.keys();
        let mut counts = vec![0u32; keys.len()];
        let mut n = self.memtable.count_keys(&mut counts);
        for seg in &self.segments[1..] {
            n += u64::from(seg.meta.num_docs);
            let mut at = 0;
            for (key, count) in seg.index.keys().iter().zip(seg.index.doc_counts()) {
                at += keys[at..].partition_point(|k| k < key);
                if keys.get(at) == Some(key) {
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
        self.generation - self.published.generation
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

    fn reset_wal(&self) -> Result<()> {
        let wal_dir = self.dir.join(WAL_DIR);
        let _ = std::fs::remove_dir_all(&wal_dir);
        CorpusWriter::create(&wal_dir)?.commit()?;
        std::fs::write(
            self.dir.join(WAL_EPOCH_FILE),
            format!("{}\n", self.manifest.wal_epoch),
        )
        .map_err(|e| Error::io("write wal epoch", e))
    }
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
    use free_corpus::synth::{Generator, SynthConfig};

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
        let mut live = Shard::create(&dir, LiveConfig::default()).unwrap();
        let docs = pages(3, 40);
        for part in docs.chunks(10) {
            live.add_batch_deferred(part).unwrap();
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
        let mut live = Shard::create(&dir, LiveConfig::default()).unwrap();
        let same = pages(7, 200);
        live.add_batch_deferred(&same[..100]).unwrap();
        live.flush().unwrap();
        live.add_batch_deferred(&same[100..]).unwrap();
        assert!(live.matcher.is_some());
        assert!(!live.drift().remines());
        assert!(live.compact().unwrap());
        assert!(live.matcher.is_some(), "a merge keeps the automaton");

        live.add_batch_deferred(&pages(99, 100)).unwrap();
        assert!(live.drift().remines());
        assert!(live.compact().unwrap());
        assert!(live.matcher.is_none(), "a re-mine drops it");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
