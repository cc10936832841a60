//! The live index: N >= 1 [`Shard`]s behind one deterministic router.
//!
//! A [`LiveIndex`] splits the sequence space round-robin over `N` shards
//! fixed at create time: global sequence `g` lives in shard `g % N` as
//! local sequence `g / N` (inverse: `g = local * N + shard`). Routing is
//! therefore O(1) in both directions, needs no persisted mapping, and
//! keeps every shard's local sequence space contiguous — each shard is a
//! completely ordinary live directory that flush, compaction, crash
//! recovery, and `fsck` already understand. With one shard, local and
//! global sequences coincide.
//!
//! On disk, a live directory is N >= 1 shards. One shard is rooted at
//! the directory itself — what [`LiveIndex::create`] writes, no sharded
//! manifest — and N > 1 live under `shard-<s>/`
//! ([`LiveIndex::create_sharded`]):
//!
//! ```text
//! <dir>/sharded.manifest   CRC-checksummed `FREESHRD 1` header, shards=N
//! <dir>/shard-0/           a normal live index directory
//! <dir>/shard-1/           …
//! ```
//!
//! (A `sharded.manifest` saying `shards=1` over `shard-0/`, which older
//! versions wrote, still opens.)
//!
//! Writes route each document to its shard (batches split and commit to
//! the per-shard WALs, in parallel when N > 1); flush and compaction run
//! across all shards on scoped threads. Batch commits are all-or-nothing:
//! auto-flush checks are deferred until every shard's WAL holds its part,
//! so an interrupted commit — a shard's I/O error, or a crash — can only
//! strand excess documents in shard WALs. A runtime failure rolls the
//! committed shards back immediately (`Shard::truncate_buffer`); a
//! crash is repaired at the next open, which truncates every shard back
//! to the longest consistent round-robin prefix — the same
//! discard-the-unacknowledged-tail semantics as WAL recovery inside one
//! shard. After every mutation the writer republishes one [`Snapshot`] —
//! an `Arc`'d vector of per-shard views swapped atomically in one cell —
//! so a reader can never observe a torn cross-shard state. Queries plan
//! once (regex parse + logical plan), execute per shard against that
//! consistent vector (inline for one shard), and k-way-merge the
//! per-shard match streams back into exact global sequence order:
//! results are byte-identical for any shard count and any confirmation
//! thread count (`tests/proptest_shard.rs` pins this differentially).

use crate::error::{Error, Result};
use crate::manifest::{read_checksummed, write_checksummed};
use crate::query::{execute_prepared, LiveMatch, LiveQueryResult, LiveQueryStats, QueryOpts};
use crate::snapshot::{ShardSnapshot, SnapshotCell};
use crate::stats::LiveStats;
use crate::{LiveConfig, Manifest, Shard};
use free_corpus::DocId;
use free_engine::{partition_threads, QueryStats};
use free_trace::metrics::{self, Counter, Gauge, Histogram};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Sharded manifest file name inside the index directory.
pub const SHARDED_MANIFEST_FILE: &str = "sharded.manifest";
/// Version-1 header prefix; the rest of the line is the CRC32 of the
/// manifest body in lowercase hex (same torn-write protection as the
/// live manifest's `FREELIVE 3` header).
const SHARDED_HEADER: &str = "FREESHRD 1 ";
/// Upper bound on the shard count recorded at create time.
pub const MAX_SHARDS: usize = 256;

/// Directory of shard `s` under a sharded index root.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// The committed top-level state of a sharded live index: the shard
/// count, fixed at create time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedManifest {
    /// Number of shards (1..=[`MAX_SHARDS`]).
    pub shards: usize,
}

impl ShardedManifest {
    /// Path of the sharded manifest file under `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(SHARDED_MANIFEST_FILE)
    }

    /// Whether a sharded manifest exists under `dir`.
    pub fn exists(dir: &Path) -> bool {
        ShardedManifest::path(dir).is_file()
    }

    /// Loads and validates the sharded manifest in `dir`.
    pub fn load(dir: &Path) -> Result<ShardedManifest> {
        let body = read_checksummed(dir, SHARDED_MANIFEST_FILE, SHARDED_HEADER)?;
        let mut shards: Option<usize> = None;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| Error::Corrupt(format!("bad sharded manifest line {line:?}")))?;
            // Unknown keys are ignored for forward compatibility.
            if key == "shards" {
                shards = Some(value.parse().map_err(|_| {
                    Error::Corrupt(format!("bad sharded manifest value in {line:?}"))
                })?);
            }
        }
        let m = ShardedManifest {
            shards: shards.ok_or_else(|| {
                Error::Corrupt(format!(
                    "sharded manifest in {} lacks shards=",
                    dir.display()
                ))
            })?,
        };
        m.validate()?;
        Ok(m)
    }

    /// Atomically writes the manifest into `dir` (temp file + rename),
    /// with the checksummed header.
    pub fn store(&self, dir: &Path) -> Result<()> {
        self.validate()?;
        let body = format!("shards={}\n", self.shards);
        write_checksummed(dir, SHARDED_MANIFEST_FILE, SHARDED_HEADER, &body)
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(Error::Corrupt(format!(
                "shard count {} out of range 1..={MAX_SHARDS}",
                self.shards
            )));
        }
        Ok(())
    }
}

/// Given each shard's local `next_seq`, reconstructs the global
/// `next_seq` — and thereby proves the round-robin routing invariant:
/// with `G` documents ever assigned, shards `0..G % N` must hold
/// `ceil(G / N)` sequences and the rest `floor(G / N)`. Any other
/// distribution means a global sequence is missing from — or would be
/// claimed by — more than one shard.
pub fn derive_next_seq(locals: &[DocId]) -> Result<DocId> {
    let n = locals.len() as u64;
    let m = u64::from(locals.iter().copied().max().unwrap_or(0));
    if m == 0 {
        return Ok(0);
    }
    let k = locals.iter().filter(|&&l| u64::from(l) == m).count() as u64;
    for (s, &l) in locals.iter().enumerate() {
        let want = if (s as u64) < k { m } else { m - 1 };
        if u64::from(l) != want {
            return Err(Error::Corrupt(format!(
                "shard {s} holds {l} local sequences where round-robin routing \
                 requires {want}: cross-shard routing invariant violated"
            )));
        }
    }
    let g = (m - 1) * n + k;
    if g > u64::from(DocId::MAX) {
        return Err(Error::Corrupt(
            "sequence-number space exhausted".to_string(),
        ));
    }
    Ok(g as DocId)
}

/// Number of global sequences in `0..g` that round-robin routing over
/// `n` shards assigns to shard `s` — the local count shard `s` holds
/// when the global prefix `0..g` is fully committed.
pub fn shard_local_count(g: DocId, s: usize, n: usize) -> DocId {
    let (g, s, n) = (u64::from(g), s as u64, n as u64);
    if g <= s {
        0
    } else {
        (g - s).div_ceil(n) as DocId
    }
}

/// The longest round-robin-consistent global prefix reconstructible
/// from per-shard local counts: the largest `G` such that every shard
/// holds at least its round-robin share of `0..G`. Equal to
/// [`derive_next_seq`]'s value for legal shapes; smaller when a crash
/// (or partial failure) interrupted a parallel batch commit and left
/// some shards over-committed. Shard `s`'s `(l+1)`-th local sequence is
/// global `l * n + s`, so its cap on `G` is exactly that expression.
pub fn recoverable_next_seq(locals: &[DocId]) -> DocId {
    let n = locals.len() as u64;
    locals
        .iter()
        .enumerate()
        .map(|(s, &l)| u64::from(l) * n + s as u64)
        .min()
        .unwrap_or(0)
        .min(u64::from(DocId::MAX)) as DocId
}

/// Truncates every over-committed shard's buffered tail back to the
/// longest consistent round-robin prefix ([`recoverable_next_seq`]),
/// restoring the routing invariant after an interrupted parallel batch
/// commit. Fails with [`Error::Corrupt`] if an excess document is
/// already sealed into a segment — batch commits defer flushes until
/// every shard's WAL holds the whole batch, so only damage from outside
/// the writer can produce that shape, and truncating sealed
/// (acknowledged) data would destroy documents a caller was told were
/// committed.
fn repair_routing(shards: &mut [Shard]) -> Result<()> {
    let n = shards.len();
    let locals: Vec<DocId> = shards.iter().map(Shard::next_seq).collect();
    let g = recoverable_next_seq(&locals);
    for (s, shard) in shards.iter_mut().enumerate() {
        let target = shard_local_count(g, s, n);
        let cur = shard.next_seq();
        if cur <= target {
            continue;
        }
        let wal_base = cur - shard.buffered_docs() as DocId;
        if target < wal_base {
            return Err(Error::Corrupt(format!(
                "shard {s} holds {cur} local sequences where the longest \
                 consistent round-robin prefix (global count {g}) allows \
                 {target}, and the excess is sealed into segments — \
                 unrepairable without destroying acknowledged documents"
            )));
        }
        shard.truncate_buffer((target - wal_base) as usize)?;
    }
    Ok(())
}

/// Per-shard labeled metric handles, resolved once at open so hot-path
/// updates are plain atomic stores. The three `query*` series are the
/// per-shard RED metrics: a hot or slow shard is visible in `free
/// metrics` without per-query logs, and all three exist for every shard
/// from open on.
struct ShardMetrics {
    added: Counter,
    live_docs: Gauge,
    segments: Gauge,
    queries: Counter,
    query_errors: Counter,
    query_ns: Histogram,
}

impl ShardMetrics {
    /// Folds one shard's slice of a fanned-out query into its RED series.
    fn record_query(&self, ok: bool, elapsed: std::time::Duration) {
        self.queries.inc();
        self.query_errors.add(u64::from(!ok));
        self.query_ns.observe_duration(elapsed);
    }
}

fn shard_metrics(shard: usize) -> ShardMetrics {
    let label = shard.to_string();
    let registry = metrics::global();
    ShardMetrics {
        added: registry.labeled_counter(
            "free_shard_docs_added_total",
            "Documents ingested per shard of a sharded live index",
            "shard",
            &label,
        ),
        live_docs: registry.labeled_gauge(
            "free_shard_live_docs",
            "Live documents per shard of a sharded live index",
            "shard",
            &label,
        ),
        segments: registry.labeled_gauge(
            "free_shard_segments",
            "Sealed segments per shard of a sharded live index",
            "shard",
            &label,
        ),
        queries: registry.labeled_counter(
            "free_shard_queries_total",
            "per-shard query executions",
            "shard",
            &label,
        ),
        query_errors: registry.labeled_counter(
            "free_shard_query_errors_total",
            "per-shard query failures",
            "shard",
            &label,
        ),
        query_ns: registry.labeled_histogram(
            "free_shard_query_ns",
            "per-shard query latency in nanoseconds",
            "shard",
            &label,
        ),
    }
}

/// An LSM-style incrementally updatable index over the FREE engine,
/// partitioned over N >= 1 single-writer [`Shard`]s (see the module docs
/// for the routing scheme and on-disk layout).
///
/// Mutations — `add_batch`, `delete`, `flush`, `compact` — take
/// `&mut self`; every sequence number crossing the API boundary is
/// *global*, locals never escape. Reads go through the immutable
/// [`Snapshot`] republished (an atomic `Arc` swap) after every mutation,
/// so a [`LiveQueryResult`] always reflects exactly one generation — and
/// any number of [`LiveReader`] threads can query concurrently without
/// ever blocking on a flush or compaction.
pub struct LiveIndex {
    shards: Vec<Shard>,
    generation: u64,
    next_seq: DocId,
    published: Arc<SnapshotCell<Snapshot>>,
    metrics: Arc<[ShardMetrics]>,
    /// `free_live_segments`: sealed segments over every shard.
    segments: Gauge,
    /// Set when a partial batch commit could not be rolled back: the
    /// router's sequence cursor no longer agrees with shard state, so
    /// further mutations would assign wrong global sequences. Mutating
    /// calls fail with the stored message until the index is reopened
    /// (open-time recovery truncates back to a consistent prefix).
    poisoned: Option<String>,
}

impl LiveIndex {
    /// Creates a new live index of one shard rooted at `dir` itself (what
    /// `free create` without `--shards` writes). Fails with
    /// [`Error::AlreadyExists`] if `dir` already holds a live index of
    /// either layout.
    pub fn create(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        LiveIndex::create_sharded(dir, config, 1)
    }

    /// Creates a new live index with `shards` partitions, fixed for the
    /// lifetime of the directory: one shard is rooted at `dir` itself
    /// (the bytes [`LiveIndex::create`] writes), more go under
    /// `shard-<s>/` behind a sharded manifest. Fails with
    /// [`Error::AlreadyExists`] if `dir` already holds a live index of
    /// either layout.
    pub fn create_sharded(
        dir: impl AsRef<Path>,
        config: LiveConfig,
        shards: usize,
    ) -> Result<LiveIndex> {
        let dir = dir.as_ref();
        let manifest = ShardedManifest { shards };
        manifest.validate()?;
        if ShardedManifest::exists(dir) || Manifest::exists(dir) {
            return Err(Error::AlreadyExists(dir.to_path_buf()));
        }
        if shards == 1 {
            return LiveIndex::assemble(vec![Shard::create(dir, config)?]);
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("create {}", dir.display()), e))?;
        manifest.store(dir)?;
        let indexes = (0..shards)
            .map(|s| Shard::create(shard_dir(dir, s), config.clone()))
            .collect::<Result<Vec<_>>>()?;
        LiveIndex::assemble(indexes)
    }

    /// Opens an existing live index. A directory with a `FREELIVE`
    /// manifest and no sharded manifest is one shard rooted at `dir`;
    /// otherwise the shard count comes from the sharded manifest. Each
    /// shard replays its WAL into its write buffer and discards any state
    /// a crash left uncommitted. The global sequence cursor is
    /// reconstructed from the shards' local cursors, which also re-proves
    /// the round-robin routing invariant.
    ///
    /// A crash (or unrecoverable I/O failure) during a parallel batch
    /// commit can leave some shards holding documents of a batch other
    /// shards never committed. Those documents were never acknowledged
    /// — the batch's `add_batch` never returned — so recovery truncates
    /// every over-committed shard's buffered tail back to the longest
    /// consistent round-robin prefix, exactly as WAL recovery inside a
    /// shard discards an uncommitted batch suffix. Divergence the
    /// truncation cannot repair (excess documents already sealed into
    /// segments, which no crash of the batch path can produce) surfaces
    /// as [`Error::Corrupt`].
    pub fn open(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        let dir = dir.as_ref();
        if Manifest::exists(dir) && !ShardedManifest::exists(dir) {
            return LiveIndex::assemble(vec![Shard::open(dir, config)?]);
        }
        let manifest = ShardedManifest::load(dir)?;
        let mut indexes = (0..manifest.shards)
            .map(|s| Shard::open(shard_dir(dir, s), config.clone()))
            .collect::<Result<Vec<_>>>()?;
        let locals: Vec<DocId> = indexes.iter().map(Shard::next_seq).collect();
        if derive_next_seq(&locals).is_err() {
            repair_routing(&mut indexes)?;
            metrics::global()
                .counter(
                    "free_shard_recoveries_total",
                    "Sharded indexes whose open truncated an interrupted batch commit",
                )
                .inc();
        }
        LiveIndex::assemble(indexes)
    }

    /// Opens `dir` if it holds a live index of either layout, creates a
    /// one-shard index there otherwise.
    pub fn open_or_create(dir: impl AsRef<Path>, config: LiveConfig) -> Result<LiveIndex> {
        let dir = dir.as_ref();
        if ShardedManifest::exists(dir) || Manifest::exists(dir) {
            LiveIndex::open(dir, config)
        } else {
            LiveIndex::create(dir, config)
        }
    }

    fn assemble(shards: Vec<Shard>) -> Result<LiveIndex> {
        let locals: Vec<DocId> = shards.iter().map(Shard::next_seq).collect();
        let next_seq = derive_next_seq(&locals)?;
        let generation = shards.iter().map(Shard::generation).sum();
        let metrics: Arc<[ShardMetrics]> = (0..shards.len()).map(shard_metrics).collect();
        let initial = Arc::new(Snapshot {
            shards: shards.iter().map(Shard::snapshot).collect(),
            metrics: metrics.clone(),
            generation,
        });
        let index = LiveIndex {
            metrics,
            segments: metrics::global()
                .gauge("free_live_segments", "Sealed segments in the live index"),
            shards,
            generation,
            next_seq,
            published: Arc::new(SnapshotCell::new(initial)),
            poisoned: None,
        };
        index.publish();
        Ok(index)
    }

    /// Number of shards, fixed at create time.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &LiveConfig {
        self.shards[0].config()
    }

    /// Mutation counter: bumped on every mutating call that changed
    /// something, so two equal generations imply identical query results.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The next global sequence number to be assigned.
    pub fn next_seq(&self) -> DocId {
        self.next_seq
    }

    /// Total sealed segments across all shards.
    pub fn num_segments(&self) -> usize {
        self.shards.iter().map(Shard::num_segments).sum()
    }

    /// Total live (queryable) documents across all shards.
    pub fn live_docs(&self) -> usize {
        self.snapshot().live_docs()
    }

    /// Global sequence numbers of all live documents, ascending.
    pub fn live_seqs(&self) -> Vec<DocId> {
        self.snapshot().live_seqs()
    }

    /// Reads one live document by global sequence number.
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

    /// The index's shape: the shards' document, byte and tombstone counts
    /// summed, the index's own `generation` and global `next_seq`, and
    /// every shard's segments in shard order (their sequence ranges local
    /// to their shard).
    pub fn stats(&self) -> LiveStats {
        let mut total = LiveStats {
            generation: self.generation,
            next_seq: self.next_seq,
            ..LiveStats::default()
        };
        for shard in self.shards.iter().map(Shard::stats) {
            total.segments.extend(shard.segments);
            total.memtable_docs += shard.memtable_docs;
            total.memtable_bytes += shard.memtable_bytes;
            total.tombstones += shard.tombstones;
            total.live_docs += shard.live_docs;
            total.total_bytes += shard.total_bytes;
        }
        total
    }

    /// Read-only access to the underlying shards, indexed by shard
    /// number (for per-shard inspection: stats, drift probes, health).
    /// Sequence-space fields are in each shard's *local* space.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Adds one document, returning its global sequence number; may
    /// trigger an automatic flush.
    pub fn add(&mut self, doc: &[u8]) -> Result<DocId> {
        Ok(self.add_batch(&[doc])?[0])
    }

    /// Adds a batch of documents, returning their global sequence
    /// numbers. The batch is split per shard by the round-robin router
    /// and committed to the per-shard WALs (in parallel on scoped
    /// threads when N > 1), one append per shard; per-shard auto-flush
    /// checks run only after *every* shard has committed, so an
    /// interrupted commit never leaves excess documents anywhere but
    /// shard WALs. The snapshot is republished once every shard's WAL
    /// holds its part, so readers see the whole batch or none of it.
    ///
    /// On return the batch is committed to the WAL files in the page
    /// cache: it survives a crash of this process, not a power loss or a
    /// kernel crash, since nothing is synced to the disk (ROADMAP item 4).
    ///
    /// The batch is all-or-nothing: if any shard's commit fails, shards
    /// that did commit are rolled back (their buffered tails truncated)
    /// and the error is returned with the router unchanged — a retry of
    /// the same batch cannot duplicate documents. If the rollback
    /// itself fails the writer is *poisoned*: every further mutation
    /// fails with [`Error::Corrupt`] naming both failures, reads keep
    /// working off the last consistent snapshot, and reopening the
    /// index repairs the divergence (see [`LiveIndex::open`]).
    // `expect` on `join()`: re-raising a shard worker's panic on the
    // coordinating thread is the correct way to propagate it.
    #[allow(clippy::expect_used)]
    pub fn add_batch<D: AsRef<[u8]>>(&mut self, docs: &[D]) -> Result<Vec<DocId>> {
        self.ensure_usable()?;
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let g0 = self.next_seq;
        let end = u64::from(g0) + docs.len() as u64;
        if end > u64::from(DocId::MAX) {
            return Err(Error::Corrupt("sequence-number space exhausted".into()));
        }
        let n = self.shards.len();
        let mut parts: Vec<Vec<&[u8]>> = vec![Vec::new(); n];
        for (i, doc) in docs.iter().enumerate() {
            parts[(g0 as usize + i) % n].push(doc.as_ref());
        }
        let mut outcomes: Vec<Result<Vec<DocId>>> = Vec::with_capacity(n);
        if n == 1 {
            outcomes.push(self.shards[0].add_batch_deferred(&parts[0]));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(parts.iter())
                    .map(|(shard, part)| {
                        if part.is_empty() {
                            None
                        } else {
                            Some(scope.spawn(move || shard.add_batch_deferred(part)))
                        }
                    })
                    .collect();
                for handle in handles {
                    outcomes.push(match handle {
                        Some(h) => h.join().expect("shard ingest worker panicked"),
                        None => Ok(Vec::new()),
                    });
                }
            });
        }
        if let Some(err) = outcomes.iter_mut().find_map(|o| match o {
            Ok(_) => None,
            Err(_) => std::mem::replace(o, Ok(Vec::new())).err(),
        }) {
            return Err(self.rollback_batch(g0, err));
        }
        for (s, outcome) in outcomes.into_iter().enumerate() {
            let locals = outcome.unwrap_or_default();
            self.metrics[s].added.add(locals.len() as u64);
        }
        self.next_seq = end as DocId;
        self.generation += 1;
        self.publish();
        // Deferred auto-flush, now that every shard's WAL holds the whole
        // batch: a crash from here on leaves a legal round-robin shape.
        self.for_each_shard(Shard::maybe_flush)?;
        Ok((g0..self.next_seq).collect())
    }

    /// Rolls every shard back to its pre-batch local count after a
    /// partial commit failure, truncating committed shards' buffered
    /// tails so the failed batch leaves no trace. Returns the error to
    /// surface: `cause` itself after a clean rollback, or a poisoning
    /// error naming both failures if the rollback also failed.
    fn rollback_batch(&mut self, g0: DocId, cause: Error) -> Error {
        let n = self.shards.len();
        let mut rolled = false;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let base = shard_local_count(g0, s, n);
            let cur = shard.next_seq();
            if cur <= base {
                continue;
            }
            // The batch deferred flushes, so the excess is buffered and
            // `base` cannot be below the shard's flush frontier.
            let wal_base = cur - shard.buffered_docs() as DocId;
            let outcome = match base.checked_sub(wal_base) {
                Some(keep) => shard.truncate_buffer(keep as usize),
                None => Err(Error::Corrupt(format!(
                    "shard {s} flushed mid-batch: excess sealed at local \
                     {wal_base}, pre-batch count was {base}"
                ))),
            };
            match outcome {
                Ok(did) => rolled |= did,
                Err(e) => {
                    let msg = format!(
                        "partial batch commit ({cause}) and shard {s} rollback \
                         failed ({e})"
                    );
                    self.poisoned = Some(msg.clone());
                    return Error::Corrupt(format!(
                        "sharded live index poisoned: {msg}; reopen the index \
                         to recover"
                    ));
                }
            }
        }
        if rolled {
            // The truncations sealed pre-batch buffers into segments;
            // republish so readers track that (unchanged) document set.
            self.generation += 1;
            self.publish();
        }
        cause
    }

    /// Fails with the poisoning message while the writer is unusable
    /// (see [`LiveIndex::add_batch`]).
    fn ensure_usable(&self) -> Result<()> {
        match &self.poisoned {
            Some(msg) => Err(Error::Corrupt(format!(
                "sharded live index poisoned: {msg}; reopen the index to \
                 recover"
            ))),
            None => Ok(()),
        }
    }

    /// Tombstones the document with global sequence number `seq`. The
    /// document disappears from queries immediately; its storage is
    /// reclaimed by the next compaction (or flush, for still-buffered
    /// documents).
    pub fn delete(&mut self, seq: DocId) -> Result<()> {
        self.ensure_usable()?;
        let n = self.shards.len() as DocId;
        self.shards[(seq % n) as usize]
            .delete(seq / n)
            .map_err(|e| remap_seq_err(e, seq))?;
        self.generation += 1;
        self.publish();
        Ok(())
    }

    /// Seals every shard's write buffer into a new immutable segment, in
    /// parallel (see `Shard::flush`). Returns whether any shard flushed
    /// anything.
    pub fn flush(&mut self) -> Result<bool> {
        self.ensure_usable()?;
        self.for_each_shard(Shard::flush)
    }

    /// Compacts every shard, in parallel: each rewrites its surviving
    /// documents into one segment (see `Shard::compact`). Returns
    /// whether any shard compacted anything.
    pub fn compact(&mut self) -> Result<bool> {
        self.ensure_usable()?;
        self.for_each_shard(Shard::compact)
    }

    /// Runs a maintenance operation on every shard (in parallel on
    /// scoped threads when N > 1), then republishes the snapshot.
    // `expect` on `join()`: re-raising a shard worker's panic on the
    // coordinating thread is the correct way to propagate it.
    #[allow(clippy::expect_used)]
    fn for_each_shard(&mut self, op: impl Fn(&mut Shard) -> Result<bool> + Sync) -> Result<bool> {
        let outcomes: Vec<Result<bool>> = if self.shards.len() == 1 {
            vec![op(&mut self.shards[0])]
        } else {
            let op = &op;
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| scope.spawn(move || op(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard maintenance worker panicked"))
                    .collect()
            })
        };
        let mut any = false;
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok(did) => any |= did,
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if any {
            self.generation += 1;
        }
        self.publish();
        Ok(any)
    }

    /// Builds and publishes the snapshot. The per-shard snapshot `Arc`s
    /// are collected *after* all shard mutations of the current
    /// operation completed (this type is single-writer), so the stored
    /// vector is always a consistent cross-shard cut.
    fn publish(&self) {
        let snaps: Vec<Arc<ShardSnapshot>> = self.shards.iter().map(Shard::snapshot).collect();
        let mut segments = 0;
        for (snap, m) in snaps.iter().zip(self.metrics.iter()) {
            m.live_docs.set(snap.live_docs() as i64);
            m.segments.set(snap.segments.len() as i64);
            segments += snap.segments.len();
        }
        self.segments.set(segments as i64);
        self.published.store(Arc::new(Snapshot {
            shards: snaps,
            metrics: self.metrics.clone(),
            generation: self.generation,
        }));
    }
}

/// Remaps a shard-local sequence error to the global sequence the caller
/// asked about.
fn remap_seq_err(e: Error, global: DocId) -> Error {
    match e {
        Error::UnknownDoc(_) => Error::UnknownDoc(global),
        Error::AlreadyDeleted(_) => Error::AlreadyDeleted(global),
        other => other,
    }
}

/// A frozen, shareable view of the live index at one generation: one
/// per-shard view per shard, all taken after the same mutation, swapped
/// in and out atomically as a unit.
///
/// All read operations (`get`, `live_seqs`, `query`, …) are `&self` and
/// thread-safe; the view never changes once published, so two calls at
/// any distance in time return identical results.
pub struct Snapshot {
    shards: Vec<Arc<ShardSnapshot>>,
    metrics: Arc<[ShardMetrics]>,
    generation: u64,
}

impl Snapshot {
    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total live (queryable) documents across all shards.
    pub fn live_docs(&self) -> usize {
        self.shards.iter().map(|s| s.live_docs()).sum()
    }

    /// Global sequence numbers of all live documents, ascending.
    pub fn live_seqs(&self) -> Vec<DocId> {
        let n = self.shards.len() as DocId;
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            out.extend(shard.live_seqs().into_iter().map(|l| l * n + s as DocId));
        }
        out.sort_unstable();
        out
    }

    /// Reads one live document by global sequence number.
    pub fn get(&self, seq: DocId) -> Result<Vec<u8>> {
        let n = self.shards.len() as DocId;
        self.shards[(seq % n) as usize]
            .get(seq / n)
            .map_err(|e| remap_seq_err(e, seq))
    }

    /// Runs `pattern` over this view with the configured thread count,
    /// extracting match spans.
    pub fn query(&self, pattern: &str) -> Result<LiveQueryResult> {
        self.query_opts(pattern, &QueryOpts::default())
    }

    /// Runs `pattern` over every shard of this view with full per-request
    /// options (thread count, span extraction, deadline/cancellation
    /// budget) and merges the per-shard result streams back into exact
    /// global sequence order.
    ///
    /// The pattern is prepared **once** ([`free_engine::PreparedQuery`]:
    /// regex, logical plan, prefilter); only the physical plan (a
    /// function of each shard's own dictionary) is derived per shard. With more than one shard, shards execute in
    /// parallel on scoped threads, each with a slice of the
    /// confirmation-thread budget ([`partition_threads`]), and each
    /// shard's matches — ascending in local sequence, therefore ascending
    /// in global sequence after the `local * N + shard` lift — feed a
    /// k-way merge. Results are identical for any shard count and any
    /// `threads` value.
    ///
    /// The request budget is shared by every shard of the fan-out: one
    /// expired deadline or tripped cancel token stops all shard workers
    /// at their next confirmation batch boundary, and the whole query
    /// returns a structured [`Error::Timeout`] / [`Error::Cancelled`] —
    /// never partial results.
    // `expect` on `join()`: re-raising a shard query worker's panic on
    // the coordinating thread is the correct way to propagate it.
    #[allow(clippy::expect_used)]
    pub fn query_opts(&self, pattern: &str, opts: &QueryOpts) -> Result<LiveQueryResult> {
        let config = &self.shards[0].config;
        let econfig = &config.engine;
        let threads = if opts.threads == 0 {
            econfig.effective_threads()
        } else {
            opts.threads
        };
        let want_spans = opts.want_spans;
        let req_budget = &opts.budget;
        let mut query_span = econfig.tracer.span("live.query");
        query_span.record("pattern", pattern);
        query_span.record("generation", self.generation);
        query_span.record("shards", self.shards.len() as u64);

        let prep_start = Instant::now();
        let prepared = free_engine::PreparedQuery::new(pattern, econfig, &query_span)?;
        let prep_time = prep_start.elapsed();

        let n = self.shards.len();
        let budgets = partition_threads(threads, n);
        let mut outcomes: Vec<Result<LiveQueryResult>> = Vec::with_capacity(n);
        if n == 1 {
            let started = Instant::now();
            let outcome = execute_prepared(
                &self.shards[0],
                &prepared,
                budgets[0],
                want_spans,
                req_budget,
                &query_span,
            );
            self.metrics[0].record_query(outcome.is_ok(), started.elapsed());
            outcomes.push(outcome);
        } else {
            std::thread::scope(|scope| {
                let prepared = &prepared;
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .zip(&budgets)
                    .zip(self.metrics.iter())
                    .enumerate()
                    .map(|(s, ((snap, &budget), red))| {
                        let mut span = query_span.child("live.query.shard");
                        span.record("shard", s as u64);
                        scope.spawn(move || {
                            let started = Instant::now();
                            let outcome = execute_prepared(
                                snap, prepared, budget, want_spans, req_budget, &span,
                            );
                            red.record_query(outcome.is_ok(), started.elapsed());
                            outcome
                        })
                    })
                    .collect();
                for handle in handles {
                    outcomes.push(handle.join().expect("shard query worker panicked"));
                }
            });
        }

        let mut stats = QueryStats::default();
        let mut sources = 0usize;
        let mut scanned = 0usize;
        let mut grams: Vec<Box<[u8]>> = Vec::new();
        let n_docid = n as DocId;
        // Per-shard match streams, lifted into global sequence space.
        let mut queues: Vec<std::vec::IntoIter<LiveMatch>> = Vec::with_capacity(n);
        let mut total = 0usize;
        for (s, outcome) in outcomes.into_iter().enumerate() {
            let mut result = outcome?;
            stats.absorb(&result.stats.base);
            sources += result.stats.sources;
            scanned += result.stats.scanned_sources;
            grams.extend(result.stats.grams);
            for m in &mut result.matches {
                m.seq = m.seq * n_docid + s as DocId;
            }
            total += result.matches.len();
            queues.push(result.matches.into_iter());
        }
        stats.plan_time += prep_time;
        grams.sort_unstable();
        grams.dedup();

        // K-way merge by global sequence. Each queue is already
        // ascending; with at most MAX_SHARDS queues a linear min-scan
        // per output element is cheap and allocation-free.
        let mut heads: Vec<Option<LiveMatch>> = queues.iter_mut().map(Iterator::next).collect();
        let mut matches = Vec::with_capacity(total);
        loop {
            let mut best: Option<(usize, DocId)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(m) = head {
                    if best.is_none_or(|(_, seq)| m.seq < seq) {
                        best = Some((i, m.seq));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            if let Some(m) = heads[i].take() {
                matches.push(m);
            }
            heads[i] = queues[i].next();
        }

        free_engine::record_query(free_trace::metrics::global(), &stats);
        let stats = LiveQueryStats {
            base: stats,
            sources,
            scanned_sources: scanned,
            grams,
            generation: self.generation,
        };
        crate::query::emit_qlog(pattern, &stats, want_spans);
        Ok(LiveQueryResult { matches, stats })
    }
}

/// A cheap, cloneable, `Send + Sync` handle for querying the live index
/// from any thread while the writer keeps ingesting.
///
/// Obtained from [`LiveIndex::reader`]. Each [`LiveReader::snapshot`]
/// call returns the freshest published view; hold the returned
/// [`Snapshot`] to pin a generation across several reads.
#[derive(Clone)]
pub struct LiveReader {
    cell: Arc<SnapshotCell<Snapshot>>,
}

impl LiveReader {
    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Generation of the most recently published snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_engine::EngineConfig;
    use free_regex::Span;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn config() -> LiveConfig {
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
            "free-shard-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// (seq, document, spans) of every match, at `threads` threads.
    fn rows(idx: &LiveIndex, pattern: &str, threads: usize) -> Vec<(DocId, Vec<u8>, Vec<Span>)> {
        let opts = QueryOpts {
            threads,
            ..QueryOpts::default()
        };
        let snapshot = idx.snapshot();
        let result = snapshot.query_opts(pattern, &opts).unwrap();
        (result.matches.into_iter())
            .map(|m| (m.seq, snapshot.get(m.seq).unwrap(), m.spans))
            .collect()
    }

    /// A query that cannot use the index confirms as a SCAN: ranged,
    /// CRC-checked reads of the live documents. It answers what the regex
    /// finds in every live document (a rebuild's answer), at one thread
    /// and at four, over two segments with deletes and a non-empty write
    /// buffer.
    #[test]
    fn a_scan_query_reads_every_live_document() {
        let dir = fresh_dir("scan-live");
        let mut idx = LiveIndex::create(&dir, config()).unwrap();
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
        let want: Vec<(DocId, Vec<Span>)> = (0..docs.len() as DocId)
            .filter(|seq| !deleted.contains(seq))
            .map(|seq| {
                let spans = regex.find_all(&docs[seq as usize]);
                (seq, spans.into_iter().map(|m| m.span()).collect::<Vec<_>>())
            })
            .filter(|(_, spans)| !spans.is_empty())
            .collect();
        assert!(want.len() > 50, "{}", want.len());
        for threads in [1, 4] {
            let opts = QueryOpts {
                threads,
                ..QueryOpts::default()
            };
            let result = snapshot.query_opts(pattern, &opts).unwrap();
            assert!(result.stats.base.used_scan, "threads={threads}");
            let got: Vec<(DocId, Vec<Span>)> = (result.matches.into_iter())
                .map(|m| (m.seq, m.spans))
                .collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(result.stats.base.docs_examined, docs.len() - deleted.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrip_and_damage() {
        let dir = fresh_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let m = ShardedManifest { shards: 4 };
        m.store(&dir).unwrap();
        assert_eq!(ShardedManifest::load(&dir).unwrap(), m);
        // Any body flip fails the header CRC.
        let path = ShardedManifest::path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("shards=4", "shards=5")).unwrap();
        assert!(matches!(
            ShardedManifest::load(&dir),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_bounds() {
        let dir = fresh_dir("bounds");
        assert!(matches!(
            LiveIndex::create_sharded(&dir, config(), 0),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            LiveIndex::create_sharded(&dir, config(), MAX_SHARDS + 1),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn derive_next_seq_enforces_round_robin() {
        assert_eq!(derive_next_seq(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(derive_next_seq(&[1, 0, 0]).unwrap(), 1);
        assert_eq!(derive_next_seq(&[1, 1, 0]).unwrap(), 2);
        assert_eq!(derive_next_seq(&[1, 1, 1]).unwrap(), 3);
        assert_eq!(derive_next_seq(&[2, 1, 1]).unwrap(), 4);
        assert_eq!(derive_next_seq(&[5]).unwrap(), 5);
        // A seq missing from shard 1 / claimed twice elsewhere.
        assert!(derive_next_seq(&[2, 0, 1]).is_err());
        assert!(derive_next_seq(&[0, 1, 0]).is_err());
        assert!(derive_next_seq(&[3, 1, 1]).is_err());
    }

    #[test]
    fn recoverable_prefix_math() {
        // Legal shapes: the recoverable prefix IS the derived next_seq.
        for locals in [&[0, 0, 0][..], &[1, 0, 0], &[1, 1, 0], &[2, 1, 1], &[5]] {
            assert_eq!(
                recoverable_next_seq(locals),
                derive_next_seq(locals).unwrap(),
                "{locals:?}"
            );
        }
        // Crash shapes: truncate back to the longest consistent prefix.
        // Shard 1 committed its part before shard 0 did.
        assert_eq!(recoverable_next_seq(&[0, 1]), 0);
        assert_eq!(recoverable_next_seq(&[2, 3]), 4);
        // A middle shard lags a parallel three-way commit.
        assert_eq!(recoverable_next_seq(&[2, 1, 2]), 4);
        // Round-robin share of the recovered prefix.
        for (g, want) in [(0, [0, 0]), (1, [1, 0]), (4, [2, 2]), (5, [3, 2])] {
            for (s, w) in want.into_iter().enumerate() {
                assert_eq!(shard_local_count(g, s, 2), w, "g={g} s={s}");
            }
        }
    }

    #[test]
    fn reopen_truncates_interrupted_batch_commit() {
        let dir = fresh_dir("crash-repair");
        let docs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![b'w', b'x' + (i % 2), i]).collect();
        let mut idx = LiveIndex::create_sharded(&dir, config(), 2).unwrap();
        idx.add_batch(&docs).unwrap();
        drop(idx);
        // Simulate a crash that committed shard 1's part of a later
        // batch but not shard 0's: locals [3, 4], an illegal shape.
        {
            let mut lone = LiveIndex::open(shard_dir(&dir, 1), config()).unwrap();
            lone.add(b"never acknowledged").unwrap();
            assert_eq!(lone.next_seq(), 4);
        }
        let reopened = LiveIndex::open(&dir, config()).unwrap();
        assert_eq!(reopened.next_seq(), 6, "tail truncated back to 6 docs");
        assert_eq!(reopened.live_seqs(), (0..6).collect::<Vec<_>>());
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(&reopened.get(i as DocId).unwrap(), doc);
        }
        // The repaired index reopens cleanly and keeps assigning fresh
        // sequences where the truncated tail used to be.
        drop(reopened);
        let mut again = LiveIndex::open(&dir, config()).unwrap();
        assert_eq!(again.add(b"reassigned").unwrap(), 6);
        assert_eq!(&again.get(6).unwrap(), b"reassigned");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_from_scratch_crash_shape() {
        let dir = fresh_dir("crash-empty");
        let idx = LiveIndex::create_sharded(&dir, config(), 2).unwrap();
        drop(idx);
        // First-ever batch: only shard 1's part landed. Locals [0, 1].
        {
            let mut lone = LiveIndex::open(shard_dir(&dir, 1), config()).unwrap();
            lone.add(b"orphan").unwrap();
        }
        let reopened = LiveIndex::open(&dir, config()).unwrap();
        assert_eq!(reopened.next_seq(), 0);
        assert_eq!(reopened.live_docs(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_refuses_sealed_divergence() {
        let dir = fresh_dir("crash-sealed");
        let mut idx = LiveIndex::create_sharded(&dir, config(), 2).unwrap();
        idx.add_batch(&[b"aa".as_slice(), b"bb"]).unwrap();
        drop(idx);
        // Excess sealed into a segment is beyond what a crashed batch
        // commit can produce: refuse rather than destroy sealed docs.
        {
            let mut lone = LiveIndex::open(shard_dir(&dir, 1), config()).unwrap();
            lone.add(b"interloper").unwrap();
            lone.flush().unwrap();
        }
        assert!(matches!(
            LiveIndex::open(&dir, config()),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_batch_failure_rolls_back() {
        let dir = fresh_dir("partial-rollback");
        let mut idx = LiveIndex::create_sharded(&dir, config(), 2).unwrap();
        let seed: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'p', b'q', i]).collect();
        idx.add_batch(&seed).unwrap();
        // Break shard 1's WAL commit path: its index file becomes a
        // directory, so the next append fails while shard 0 succeeds.
        let wal_idx = shard_dir(&dir, 1).join("wal").join("corpus.idx");
        let saved = std::fs::read(&wal_idx).unwrap();
        std::fs::remove_file(&wal_idx).unwrap();
        std::fs::create_dir(&wal_idx).unwrap();
        let batch: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'r', b's', i]).collect();
        assert!(idx.add_batch(&batch).is_err());
        // All-or-nothing: the failed batch left no trace anywhere.
        assert_eq!(idx.next_seq(), 4);
        assert_eq!(idx.live_seqs(), (0..4).collect::<Vec<_>>());
        assert_eq!(rows(&idx, "pq", 2).len(), 4);
        assert!(rows(&idx, "rs", 2).is_empty());
        // The writer stays usable: heal the WAL and retry the batch.
        std::fs::remove_dir(&wal_idx).unwrap();
        std::fs::write(&wal_idx, &saved).unwrap();
        let ids = idx.add_batch(&batch).unwrap();
        assert_eq!(ids, (4..8).collect::<Vec<_>>());
        for (i, doc) in batch.iter().enumerate() {
            assert_eq!(&idx.get(4 + i as DocId).unwrap(), doc);
        }
        // Committed and legal on disk: a reopen sees the same state.
        drop(idx);
        let reopened = LiveIndex::open(&dir, config()).unwrap();
        assert_eq!(reopened.next_seq(), 8);
        assert_eq!(reopened.live_docs(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn routing_roundtrip_and_reopen() {
        let dir = fresh_dir("routing");
        let docs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'a' + (i % 3), b'b', i]).collect();
        let mut idx = LiveIndex::create_sharded(&dir, config(), 4).unwrap();
        let ids = idx.add_batch(&docs).unwrap();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(idx.live_seqs(), (0..10).collect::<Vec<_>>());
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(&idx.get(i as DocId).unwrap(), doc);
        }
        idx.delete(3).unwrap();
        assert!(matches!(idx.delete(3), Err(Error::AlreadyDeleted(3))));
        assert!(matches!(idx.get(99), Err(Error::UnknownDoc(99))));
        idx.flush().unwrap();
        assert_eq!(idx.next_seq(), 10);
        drop(idx);
        let reopened = LiveIndex::open(&dir, config()).unwrap();
        assert_eq!(reopened.num_shards(), 4);
        assert_eq!(reopened.next_seq(), 10);
        assert_eq!(reopened.live_docs(), 9);
        for (i, doc) in docs.iter().enumerate() {
            if i == 3 {
                assert!(reopened.get(3).is_err());
            } else {
                assert_eq!(&reopened.get(i as DocId).unwrap(), doc);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_matches_unsharded() {
        let sharded_dir = fresh_dir("diff-sharded");
        let plain_dir = fresh_dir("diff-plain");
        let mut sharded = LiveIndex::create_sharded(&sharded_dir, config(), 3).unwrap();
        let mut plain = LiveIndex::create(&plain_dir, config()).unwrap();
        let docs: Vec<Vec<u8>> = vec![
            b"ab ca x".to_vec(),
            b"bca".to_vec(),
            b"a b".to_vec(),
            b"cabx".to_vec(),
            b"abab".to_vec(),
            b"xxx".to_vec(),
            b"ab".to_vec(),
        ];
        for idx in [&mut sharded, &mut plain] {
            idx.add_batch(&docs).unwrap();
            idx.delete(1).unwrap();
            idx.flush().unwrap();
        }
        for pattern in ["ab", "bca*", "a b", "(ab|ca)x?"] {
            for threads in [1, 4] {
                assert_eq!(
                    rows(&sharded, pattern, threads),
                    rows(&plain, pattern, threads),
                    "pattern {pattern} diverged"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&sharded_dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn create_refuses_existing_layouts() {
        let dir = fresh_dir("exists");
        let _idx = LiveIndex::create_sharded(&dir, config(), 2).unwrap();
        // A rooted single shard: no sharded manifest, no `shard-0/`.
        let rooted = fresh_dir("exists-rooted");
        let one = LiveIndex::create(&rooted, config()).unwrap();
        assert_eq!(one.num_shards(), 1);
        assert!(Manifest::exists(&rooted) && !ShardedManifest::exists(&rooted));
        assert!(!shard_dir(&rooted, 0).exists());
        for existing in [&dir, &rooted] {
            let before = listing(existing);
            for shards in [1, 2] {
                assert!(matches!(
                    LiveIndex::create_sharded(existing, config(), shards),
                    Err(Error::AlreadyExists(_))
                ));
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

    /// The public read path must be shareable: snapshots are handed to
    /// reader threads by `Arc`, and `LiveReader` clones are the
    /// per-thread query handles.
    #[test]
    fn sharded_read_path_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_clone<T: Clone>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<Snapshot>>();
        assert_send_sync::<LiveReader>();
        assert_send_sync::<LiveIndex>();
        assert_clone::<LiveReader>();
    }
}
