//! `free fsck` — a deep static verifier for on-disk index state
//! (`FA401`–`FA499`).
//!
//! Layered checks, cheapest first:
//!
//! * **L0 structural** — magics, versions, offset bounds, and the CRC32
//!   checksums every artifact carries: the index file, corpus stores, and
//!   the live-index metadata (manifest, sequence maps, tombstone log).
//!   Each artifact has one accepted format; any other version is
//!   structural damage (`FA401`).
//! * **L1 intra-file semantic** — postings doc-id monotonicity, skip
//!   tables consistent with their blocks, sequence-map ascent, directory
//!   doc counts vs decoded payloads.
//! * **L2 cross-structure** — manifest ↔ files-on-disk agreement (no
//!   dangling or orphaned segments), WAL epoch staleness, corpus offset
//!   tables, key-directory shape, and a live index's one-dictionary
//!   rule: every segment but the oldest indexes only the oldest
//!   segment's keys.
//! * **L3 sampled semantic** (`--deep`) — re-mines sampled documents
//!   with the Aho-Corasick gram scanner and proves the index's
//!   no-false-negative guarantee: every sampled document containing a
//!   dictionary key appears in that key's postings (a live segment is
//!   held to the whole dictionary, not just its own directory).
//!
//! Everything here reads artifacts *directly* — never through
//! [`free_live::LiveIndex::open`], which repairs state as a side effect
//! (orphan removal, WAL reset, tombstone rewrite) and would hide exactly
//! the damage fsck exists to report.

use crate::diagnostics::{codes, diagnostic_json, json_string, Diagnostic, Severity};
use free_corpus::{Corpus, DiskCorpus, DocId};
use free_engine::grams::GramMatcher;
use free_index::{IndexRead, IndexReader, Keys, VerifyIssueKind};
use free_live::{Manifest, SegmentMeta};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// Options for [`fsck`].
#[derive(Clone, Copy, Debug)]
pub struct FsckOptions {
    /// Run the sampled deep check (L3): re-mine sampled documents and
    /// prove postings completeness.
    pub deep: bool,
    /// Documents to sample per segment in the deep check.
    pub sample: usize,
}

impl Default for FsckOptions {
    fn default() -> FsckOptions {
        FsckOptions {
            deep: false,
            sample: 64,
        }
    }
}

/// The result of one fsck run.
#[derive(Clone, Debug)]
pub struct FsckReport {
    /// The path that was checked, verbatim.
    pub target: String,
    /// What the target was detected as: `live`, `batch`, `index`,
    /// `corpus`, or `qlog`.
    pub kind: &'static str,
    /// Artifacts (files / stores) examined.
    pub artifacts_checked: usize,
    /// Documents re-mined by the deep check (0 without `--deep`).
    pub docs_sampled: usize,
    /// All findings, in layer order.
    pub diagnostics: Vec<Diagnostic>,
}

impl FsckReport {
    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the report for terminal consumption.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let n = self.diagnostics.len();
        let _ = writeln!(
            out,
            "fsck {} ({}): {} artifact(s) checked, {} doc(s) sampled, {} finding{}",
            self.target,
            self.kind,
            self.artifacts_checked,
            self.docs_sampled,
            n,
            if n == 1 { "" } else { "s" }
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "  help: {s}");
            }
        }
        if !self.has_errors() {
            let _ = writeln!(out, "ok: no integrity errors");
        }
        out
    }

    /// Renders the report as one JSON object (hand-rolled; the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"target\":{}", json_string(&self.target));
        let _ = write!(out, ",\"kind\":{}", json_string(self.kind));
        let _ = write!(out, ",\"artifacts_checked\":{}", self.artifacts_checked);
        let _ = write!(out, ",\"docs_sampled\":{}", self.docs_sampled);
        let _ = write!(out, ",\"errors\":{}", self.has_errors());
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&diagnostic_json(d));
        }
        out.push_str("]}");
        out
    }
}

/// Verifies the on-disk state at `path`, auto-detecting what it is:
///
/// * a live index directory (contains `live.manifest`; one holding the
///   N-shard layout's `sharded.manifest` is one `FA401` error, since
///   nothing opens that layout),
/// * a batch index directory (contains `idx.free`),
/// * a corpus store directory (contains `corpus.idx`),
/// * a durable query-log directory (contains `qlog-*.jsonl` segments),
/// * a bare index file (`free-index` format).
///
/// Damage is reported as diagnostics, not errors; `Err` is reserved for
/// targets that cannot be identified at all.
pub fn fsck(path: &Path, opts: &FsckOptions) -> std::io::Result<FsckReport> {
    let target = path.display().to_string();
    if path.is_dir() {
        if let Some(manifest) = free_live::sharded_layout(path) {
            let error = free_live::Error::ShardedLayout(manifest);
            return Ok(FsckReport {
                target,
                kind: "live",
                artifacts_checked: 1,
                docs_sampled: 0,
                diagnostics: vec![diag(
                    codes::STRUCTURAL_DAMAGE,
                    Severity::Error,
                    error.to_string(),
                )],
            });
        }
        if path.join(free_live::manifest::MANIFEST_FILE).is_file() {
            return Ok(fsck_live(path, opts, target));
        }
        if path.join("idx.free").is_file() {
            return Ok(fsck_batch(path, opts, target));
        }
        if path.join("corpus.idx").is_file() {
            let mut r = FsckReport {
                target,
                kind: "corpus",
                artifacts_checked: 0,
                docs_sampled: 0,
                diagnostics: Vec::new(),
            };
            check_corpus(path, "corpus store", &mut r);
            return Ok(r);
        }
        if free_trace::qlog::is_log_dir(path) {
            return fsck_qlog(path, target);
        }
    } else if path.is_file() {
        let mut r = FsckReport {
            target,
            kind: "index",
            artifacts_checked: 0,
            docs_sampled: 0,
            diagnostics: Vec::new(),
        };
        check_index_file(path, "index", None, &mut r);
        return Ok(r);
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!(
            "{} is not a live index, batch index, corpus store, query log, or index file",
            path.display()
        ),
    ))
}

/// Verifies a durable query-log directory: every segment's CRC footer,
/// the may-only-the-last-be-unsealed invariant, and torn trailing
/// fragments. A torn tail is a *warning* — the shape a crash mid-append
/// legitimately leaves; readers (`free log`, `free replay`) skip the
/// fragment and trust every whole line before it. A failed CRC on a
/// sealed segment is an error: sealed bytes must never change.
fn fsck_qlog(path: &Path, target: String) -> std::io::Result<FsckReport> {
    use free_trace::qlog::SegmentStatus;
    let mut r = FsckReport {
        target,
        kind: "qlog",
        artifacts_checked: 0,
        docs_sampled: 0,
        diagnostics: Vec::new(),
    };
    let segments = free_trace::qlog::read_dir(path)?;
    let last_seq = segments.last().map(|s| s.seq);
    for seg in &segments {
        r.artifacts_checked += 1;
        match &seg.status {
            SegmentStatus::Sealed => {}
            SegmentStatus::Unsealed { torn_bytes } => {
                if Some(seg.seq) != last_seq {
                    r.diagnostics.push(diag(
                        codes::QLOG_UNSEALED,
                        Severity::Warning,
                        format!(
                            "query-log segment {} is unsealed but not the newest: \
                             the writer crashed before rotation sealed it \
                             ({} trusted record(s) remain readable)",
                            seg.path.display(),
                            seg.records.len()
                        ),
                    ));
                }
                if *torn_bytes > 0 {
                    r.diagnostics.push(diag(
                        codes::QLOG_TORN_TAIL,
                        Severity::Warning,
                        format!(
                            "query-log segment {} ends in a torn {torn_bytes}-byte \
                             fragment (crash mid-append); readers skip it and keep \
                             the {} whole record(s) before it",
                            seg.path.display(),
                            seg.records.len()
                        ),
                    ));
                }
            }
            SegmentStatus::Corrupt { detail } => {
                r.diagnostics.push(diag(
                    damage_code(detail),
                    Severity::Error,
                    format!(
                        "query-log segment {} is corrupt: {detail}",
                        seg.path.display()
                    ),
                ));
            }
        }
    }
    Ok(r)
}

fn diag(code: &'static str, severity: Severity, message: String) -> Diagnostic {
    Diagnostic::new(code, severity, None, message)
}

/// Maps an open/read error to FA401 (structural) or FA402 (checksum),
/// depending on what the format layer reported.
fn damage_code(message: &str) -> &'static str {
    if message.contains("checksum") {
        codes::CHECKSUM_MISMATCH
    } else {
        codes::STRUCTURAL_DAMAGE
    }
}

/// L0+L1 over one index file. `doc_bound` bounds valid doc ids when the
/// caller knows the corpus size. Returns the opened reader for further
/// (L3) checks when the file is readable.
fn check_index_file(
    path: &Path,
    what: &str,
    doc_bound: Option<DocId>,
    r: &mut FsckReport,
) -> Option<IndexReader> {
    r.artifacts_checked += 1;
    let idx = match IndexReader::open(path) {
        Ok(idx) => idx,
        Err(e) => {
            let msg = e.to_string();
            r.diagnostics.push(diag(
                damage_code(&msg),
                Severity::Error,
                format!("{what} {} unreadable: {msg}", path.display()),
            ));
            return None;
        }
    };
    match idx.verify(doc_bound) {
        Ok(issues) => {
            for issue in issues {
                let (code, severity) = match issue.kind {
                    VerifyIssueKind::Checksum => (codes::CHECKSUM_MISMATCH, Severity::Error),
                    VerifyIssueKind::Decode => (codes::STRUCTURAL_DAMAGE, Severity::Error),
                    VerifyIssueKind::Order | VerifyIssueKind::DocRange => {
                        (codes::POSTINGS_ORDER, Severity::Error)
                    }
                    VerifyIssueKind::SkipTable => (codes::SKIP_TABLE, Severity::Error),
                    VerifyIssueKind::DocCount => (codes::SEQ_MAP, Severity::Error),
                };
                r.diagnostics.push(diag(
                    code,
                    severity,
                    format!("{what} {}: {}", path.display(), issue.detail),
                ));
            }
        }
        Err(e) => {
            r.diagnostics.push(diag(
                codes::STRUCTURAL_DAMAGE,
                Severity::Error,
                format!("{what} {} verify aborted: {e}", path.display()),
            ));
        }
    }
    check_prefix_free(&idx, path, what, r);
    Some(idx)
}

/// L2 key-directory shape: the miner's key set is prefix-free (a gram
/// and its extension are never both useful). A complete-gram index
/// legitimately violates this, so it is advisory only.
fn check_prefix_free(idx: &IndexReader, path: &Path, what: &str, r: &mut FsckReport) {
    let keys = idx.keys();
    let violations = (keys.iter().zip(keys.iter().skip(1)))
        .filter(|(key, next)| next.starts_with(key))
        .count();
    if violations > 0 {
        r.diagnostics.push(diag(
            codes::PREFIX_FREE,
            Severity::Info,
            format!(
                "{what} {}: key directory is not prefix-free ({violations} key(s) extend \
                 another key); expected for a complete-gram index, unexpected for a mined one",
                path.display()
            ),
        ));
    }
}

/// L0 over one corpus store. Returns the opened store for cross-checks.
fn check_corpus(dir: &Path, what: &str, r: &mut FsckReport) -> Option<DiskCorpus> {
    r.artifacts_checked += 1;
    let corpus = match DiskCorpus::open(dir) {
        Ok(c) => c,
        Err(e) => {
            let msg = e.to_string();
            let code = if msg.contains("monotone") || msg.contains("offset table") {
                codes::CORPUS_OFFSETS
            } else {
                damage_code(&msg)
            };
            r.diagnostics.push(diag(
                code,
                Severity::Error,
                format!("{what} {} unreadable: {msg}", dir.display()),
            ));
            return None;
        }
    };
    match corpus.verify_units() {
        Ok(bad) => {
            for (id, detail) in bad.iter().take(5) {
                r.diagnostics.push(diag(
                    codes::CHECKSUM_MISMATCH,
                    Severity::Error,
                    format!("{what} {}: unit {id}: {detail}", dir.display()),
                ));
            }
            if bad.len() > 5 {
                r.diagnostics.push(diag(
                    codes::CHECKSUM_MISMATCH,
                    Severity::Error,
                    format!(
                        "{what} {}: {} more unit(s) fail their checksums",
                        dir.display(),
                        bad.len() - 5
                    ),
                ));
            }
        }
        Err(e) => {
            r.diagnostics.push(diag(
                codes::STRUCTURAL_DAMAGE,
                Severity::Error,
                format!("{what} {} verify aborted: {e}", dir.display()),
            ));
        }
    }
    Some(corpus)
}

/// Deterministic evenly-spaced sample of `want` out of `n` local ids.
fn sample_ids(n: usize, want: usize) -> Vec<DocId> {
    if n == 0 || want == 0 {
        return Vec::new();
    }
    let want = want.min(n);
    let step = n as f64 / want as f64;
    let mut out: Vec<DocId> = (0..want).map(|i| (i as f64 * step) as DocId).collect();
    out.dedup();
    out
}

/// L3: re-mines `sample` documents with the gram scanner for `keys`, the
/// dictionary `idx` must be complete for, and proves the postings
/// invariant both ways (a key absent from `idx` has empty postings).
/// `get_doc` resolves a local id to bytes. A document `dead` says is
/// deleted needs no postings: a flush keeps the buffer's deleted
/// documents in the segment's store, unindexed, until compaction.
#[allow(clippy::too_many_arguments)]
fn check_deep(
    idx: &IndexReader,
    keys: Keys<'_>,
    what: &str,
    num_docs: usize,
    sample: usize,
    get_doc: &mut dyn FnMut(DocId) -> Result<Vec<u8>, String>,
    dead: &dyn Fn(DocId) -> bool,
    r: &mut FsckReport,
) {
    if keys.is_empty() {
        return;
    }
    let sampled = sample_ids(num_docs, sample);
    if sampled.is_empty() {
        return;
    }
    // One automaton pass per sampled doc records which keys it contains.
    let patterns: Vec<&[u8]> = keys.iter().collect();
    let mut matcher = GramMatcher::new(&patterns);
    let mut present: Vec<BTreeSet<DocId>> = vec![BTreeSet::new(); keys.len()];
    for &id in &sampled {
        let bytes = match get_doc(id) {
            Ok(b) => b,
            Err(e) => {
                r.diagnostics.push(diag(
                    codes::STRUCTURAL_DAMAGE,
                    Severity::Error,
                    format!("{what}: cannot read sampled doc {id}: {e}"),
                ));
                continue;
            }
        };
        matcher.match_distinct(&bytes, u64::from(id), &mut |pi| {
            present[pi as usize].insert(id);
        });
        r.docs_sampled += 1;
    }
    let sampled_set: BTreeSet<DocId> = sampled.iter().copied().collect();
    // Then each key's postings, restricted to the sample, must agree.
    for (ki, key) in keys.iter().enumerate() {
        let postings = match idx.postings(key) {
            Ok(Some(p)) => p,
            Ok(None) => Vec::new(),
            Err(e) => {
                r.diagnostics.push(diag(
                    codes::STRUCTURAL_DAMAGE,
                    Severity::Error,
                    format!("{what}: postings for {:?} unreadable: {e}", printable(key)),
                ));
                continue;
            }
        };
        let in_postings: BTreeSet<DocId> = postings
            .into_iter()
            .filter(|d| sampled_set.contains(d))
            .collect();
        for &id in present[ki]
            .difference(&in_postings)
            .filter(|&&id| !dead(id))
        {
            r.diagnostics.push(diag(
                codes::POSTINGS_INCOMPLETE,
                Severity::Error,
                format!(
                    "{what}: doc {id} contains indexed gram {:?} but is missing from its \
                     postings — queries can silently miss it (no-false-negative \
                     guarantee broken)",
                    printable(key)
                ),
            ));
        }
        for &id in in_postings.difference(&present[ki]) {
            r.diagnostics.push(diag(
                codes::POSTINGS_EXTRA,
                Severity::Warning,
                format!(
                    "{what}: postings for gram {:?} claim doc {id}, which does not \
                     contain it — harmless for answers, wasted confirmation work",
                    printable(key)
                ),
            ));
        }
    }
}

fn printable(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

/// What the next open does about an unreadable WAL epoch stamp: with
/// buffered documents it refuses (whether they are sealed already is
/// unknowable), over an empty WAL it rewrites the stamp.
fn unreadable_stamp_outcome(wal_len: Option<usize>, epoch: u64) -> String {
    match wal_len {
        Some(0) => format!("the WAL is empty, so the next open rewrites the stamp as {epoch}"),
        Some(n) => format!(
            "open refuses the directory while the WAL holds {n} buffered doc(s); \
             restore the stamp (the manifest commits epoch {epoch})"
        ),
        None => "what open does depends on the WAL (see its own finding)".to_string(),
    }
}

/// fsck over a live index directory: manifest, every segment (seqs +
/// corpus + index, cross-checked), the WAL, the epoch stamp, the
/// tombstone log, and orphaned files.
fn fsck_live(dir: &Path, opts: &FsckOptions, target: String) -> FsckReport {
    let mut r = FsckReport {
        target,
        kind: "live",
        artifacts_checked: 0,
        docs_sampled: 0,
        diagnostics: Vec::new(),
    };
    r.artifacts_checked += 1;
    let manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(e) => {
            let msg = e.to_string();
            r.diagnostics.push(diag(
                damage_code(&msg),
                Severity::Error,
                format!("manifest in {} unreadable: {msg}", dir.display()),
            ));
            return r;
        }
    };
    let seg_root = dir.join(free_live::SEGMENTS_DIR);
    let wal_dir = dir.join(free_live::WAL_DIR);
    let tomb_path = dir.join(free_live::TOMBSTONES_FILE);
    let tombstones = free_live::read_tombstones(&tomb_path);
    let dead: BTreeSet<DocId> = tombstones.iter().flatten().copied().collect();
    // A flush that committed and crashed before its WAL became the
    // segment's store: the next open renames it, so the store is checked
    // where it is, and the WAL and its stamp are the flush's, not stale.
    let pending = free_live::pending_flush(dir, &manifest).ok().flatten();
    if let Some(meta) = &pending {
        r.diagnostics.push(diag(
            codes::STALE_WAL_EPOCH,
            Severity::Warning,
            format!(
                "segment {}'s store is still {}: the flush that committed WAL epoch {} \
                 was cut off before renaming it, and the next open completes it",
                meta.id,
                wal_dir.display(),
                manifest.wal_epoch
            ),
        ));
    }
    // The dictionary: the oldest segment's key directory.
    let mut dictionary: Option<IndexReader> = None;
    for (i, meta) in manifest.segments.iter().enumerate() {
        let keys = dictionary.as_ref().map(IndexReader::keys);
        let store = match &pending {
            Some(p) if p.id == meta.id => wal_dir.clone(),
            _ => free_live::segment::corpus_dir(&seg_root, meta.id),
        };
        let idx = check_segment(&seg_root, meta, &store, keys, &dead, opts, &mut r);
        if i == 0 {
            dictionary = idx;
        }
    }
    // L2: segment files on disk the manifest does not name.
    let orphans = free_live::orphan_segment_ids(&seg_root, &manifest);
    if !orphans.is_empty() {
        r.diagnostics.push(diag(
            codes::ORPHANED_FILES,
            Severity::Warning,
            format!(
                "{} orphaned segment id(s) on disk not named by the manifest: {:?}; \
                 leaked by a crashed compaction, removed on next open",
                orphans.len(),
                orphans
            ),
        ));
    }
    // L2: the WAL and its epoch stamp, unless the WAL is that flush's.
    let wal_len = match pending {
        Some(_) => None,
        None => check_wal(dir, &manifest, &mut r),
    };
    // L1/L2: the tombstone log.
    r.artifacts_checked += 1;
    match tombstones {
        Ok(seqs) => {
            let wal_end = wal_len.map(|n| manifest.wal_base + n as DocId);
            for seq in seqs {
                let in_segment = manifest
                    .segments
                    .iter()
                    .any(|s| s.first_seq <= seq && seq <= s.last_seq);
                let in_wal = seq >= manifest.wal_base && wal_end.is_some_and(|e| seq < e);
                if !in_segment && !in_wal {
                    r.diagnostics.push(diag(
                        codes::BAD_TOMBSTONE,
                        Severity::Warning,
                        format!(
                            "tombstone for seq {seq} references no stored document \
                             (stale after compaction; rewritten on next open)"
                        ),
                    ));
                }
            }
        }
        Err(free_live::Error::NotFound(_)) => {
            r.diagnostics.push(diag(
                codes::MISSING_SEGMENT_FILES,
                Severity::Error,
                format!("tombstone log {} is missing", tomb_path.display()),
            ));
        }
        Err(e) => {
            let msg = e.to_string();
            r.diagnostics.push(diag(
                damage_code(&msg),
                Severity::Error,
                format!("tombstone log {} unreadable: {msg}", tomb_path.display()),
            ));
        }
    }
    r
}

/// L2 over the WAL and its epoch stamp. Returns how many documents the
/// WAL holds when it is readable.
fn check_wal(dir: &Path, manifest: &Manifest, r: &mut FsckReport) -> Option<usize> {
    let wal_dir = dir.join(free_live::WAL_DIR);
    let wal_present = wal_dir.join("corpus.idx").is_file();
    let wal_len = if wal_present {
        check_corpus(&wal_dir, "WAL corpus", r).map(|c| c.len())
    } else {
        None
    };
    r.artifacts_checked += 1;
    let epoch_path = dir.join(free_live::WAL_EPOCH_FILE);
    let stamp = std::fs::read_to_string(&epoch_path).map(|s| s.trim().parse::<u64>());
    let stale = matches!(stamp, Ok(Ok(epoch)) if epoch != manifest.wal_epoch);
    if !wal_present && !stale {
        r.diagnostics.push(diag(
            codes::MISSING_SEGMENT_FILES,
            Severity::Error,
            format!("WAL corpus store missing under {}", wal_dir.display()),
        ));
    }
    match stamp {
        Ok(Ok(epoch)) if epoch == manifest.wal_epoch => {}
        // A flush cut after its WAL became the segment's store and before
        // a fresh WAL was stamped: a stale stamp over no WAL, or over an
        // empty one, discards nothing.
        Ok(Ok(epoch)) if !wal_present || wal_len == Some(0) => {
            r.diagnostics.push(diag(
                codes::STALE_WAL_EPOCH,
                Severity::Warning,
                format!(
                    "WAL epoch stamp is {epoch} but the manifest commits epoch {}; the WAL is \
                     {}, so nothing is discarded: the next open starts an empty WAL",
                    manifest.wal_epoch,
                    if wal_present { "empty" } else { "absent" }
                ),
            ));
        }
        Ok(Ok(epoch)) => {
            r.diagnostics.push(diag(
                codes::STALE_WAL_EPOCH,
                Severity::Error,
                format!(
                    "WAL epoch stamp is {epoch} but the manifest commits epoch {}; the \
                     WAL's {} buffered doc(s) will be discarded on the next open",
                    manifest.wal_epoch,
                    wal_len.unwrap_or(0)
                ),
            ));
        }
        Ok(Err(_)) => {
            r.diagnostics.push(diag(
                codes::STRUCTURAL_DAMAGE,
                Severity::Error,
                format!(
                    "WAL epoch stamp {} is not a number; {}",
                    epoch_path.display(),
                    unreadable_stamp_outcome(wal_len, manifest.wal_epoch)
                ),
            ));
        }
        Err(e) => {
            r.diagnostics.push(diag(
                codes::STALE_WAL_EPOCH,
                Severity::Error,
                format!(
                    "WAL epoch stamp {} unreadable ({e}); {}",
                    epoch_path.display(),
                    unreadable_stamp_outcome(wal_len, manifest.wal_epoch)
                ),
            ));
        }
    }
    wal_len
}

/// All layers over one sealed segment whose corpus store is `store`.
/// `dictionary` is the live index's dictionary, `None` for the oldest
/// segment, whose own directory it is; `dead` holds the sequences the
/// tombstone log names. Returns the segment's index when it is readable.
fn check_segment(
    seg_root: &Path,
    meta: &SegmentMeta,
    store: &Path,
    dictionary: Option<Keys<'_>>,
    dead: &BTreeSet<DocId>,
    opts: &FsckOptions,
    r: &mut FsckReport,
) -> Option<IndexReader> {
    let what = format!("segment {}", meta.id);
    let idx_path = free_live::segment::index_path(seg_root, meta.id);
    let seqs_path = free_live::segment::seqs_path(seg_root, meta.id);
    let mut missing = Vec::new();
    for (p, is_dir) in [(&*idx_path, false), (&seqs_path, false), (store, true)] {
        if (is_dir && !p.is_dir()) || (!is_dir && !p.is_file()) {
            missing.push(p.display().to_string());
        }
    }
    if !missing.is_empty() {
        r.diagnostics.push(diag(
            codes::MISSING_SEGMENT_FILES,
            Severity::Error,
            format!(
                "{what} is committed by the manifest but missing file(s): {}",
                missing.join(", ")
            ),
        ));
        return None;
    }
    // L0/L1: the sequence map.
    r.artifacts_checked += 1;
    let mut seqs = Vec::new();
    match free_live::segment::read_seqs(&seqs_path) {
        Ok(read) => {
            seqs = read;
            if seqs.len() != meta.num_docs as usize
                || seqs.first() != Some(&meta.first_seq)
                || seqs.last() != Some(&meta.last_seq)
            {
                r.diagnostics.push(diag(
                    codes::SEQ_MAP,
                    Severity::Error,
                    format!(
                        "{what} sequence map disagrees with the manifest: {} seq(s) \
                         [{:?}..{:?}] vs committed {} docs [{}..{}]",
                        seqs.len(),
                        seqs.first(),
                        seqs.last(),
                        meta.num_docs,
                        meta.first_seq,
                        meta.last_seq
                    ),
                ));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            r.diagnostics.push(diag(
                damage_code(&msg),
                Severity::Error,
                format!("{what} sequence map unreadable: {msg}"),
            ));
        }
    }
    // L0/L2: the corpus store, cross-checked against the manifest.
    let corpus = check_corpus(store, &what, r);
    if let Some(c) = &corpus {
        if c.len() != meta.num_docs as usize {
            r.diagnostics.push(diag(
                codes::SEQ_MAP,
                Severity::Error,
                format!(
                    "{what} corpus stores {} doc(s) but the manifest commits {}",
                    c.len(),
                    meta.num_docs
                ),
            ));
        }
    }
    // L0/L1: the index, with doc ids bounded by the committed count.
    let idx = check_index_file(&idx_path, &what, Some(meta.num_docs), r);
    // L2: a younger segment indexes only the dictionary's keys.
    let outside = dictionary.zip(idx.as_ref()).map_or(0, |(dict, idx)| {
        idx.keys().iter().filter(|k| !dict.contains(k)).count()
    });
    if outside > 0 {
        r.diagnostics.push(diag(
            codes::OUTSIDE_DICTIONARY,
            Severity::Error,
            format!("{what}: {outside} key(s) are not in the dictionary, the oldest segment's"),
        ));
    }
    // L3: sampled re-mining against the dictionary's keys.
    if opts.deep {
        if let (Some(idx), Some(corpus)) = (&idx, corpus) {
            let deleted =
                |local: DocId| (seqs.get(local as usize)).is_some_and(|seq| dead.contains(seq));
            check_deep(
                idx,
                dictionary.unwrap_or(idx.keys()),
                &what,
                corpus.len(),
                opts.sample,
                &mut |id| corpus.get(id).map_err(|e| e.to_string()),
                &deleted,
                r,
            );
        }
    }
    idx
}

/// fsck over a batch (`freegrep index`) directory: the manifest's file
/// list, its index checksum line, and the index itself.
fn fsck_batch(dir: &Path, opts: &FsckOptions, target: String) -> FsckReport {
    let mut r = FsckReport {
        target,
        kind: "batch",
        artifacts_checked: 0,
        docs_sampled: 0,
        diagnostics: Vec::new(),
    };
    let manifest_path = dir.join("manifest.txt");
    let idx_path = dir.join("idx.free");
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let mut checksum: Option<String> = None;
    r.artifacts_checked += 1;
    match std::fs::read_to_string(&manifest_path) {
        Ok(text) => {
            for line in text.lines() {
                match line.split_once('=') {
                    Some(("file", v)) => files.push(v.into()),
                    Some(("checksum", v)) => checksum = Some(v.trim().to_string()),
                    Some(_) => {}
                    None => {
                        r.diagnostics.push(diag(
                            codes::STRUCTURAL_DAMAGE,
                            Severity::Error,
                            format!(
                                "manifest {} has a non key=value line: {line:?}",
                                manifest_path.display()
                            ),
                        ));
                    }
                }
            }
        }
        Err(e) => {
            r.diagnostics.push(diag(
                codes::STRUCTURAL_DAMAGE,
                Severity::Error,
                format!("manifest {} unreadable: {e}", manifest_path.display()),
            ));
        }
    }
    // L0: whole-file checksum of the index, as the manifest records it.
    match &checksum {
        Some(hex) => match (u32::from_str_radix(hex, 16), std::fs::read(&idx_path)) {
            (Ok(expected), Ok(bytes)) => {
                let actual = free_checksum::crc32(&bytes);
                if actual != expected {
                    r.diagnostics.push(diag(
                        codes::CHECKSUM_MISMATCH,
                        Severity::Error,
                        format!(
                            "index file {} fails the manifest checksum: recorded \
                             {expected:08x}, computed {actual:08x}",
                            idx_path.display()
                        ),
                    ));
                }
            }
            (Err(_), _) => {
                r.diagnostics.push(diag(
                    codes::STRUCTURAL_DAMAGE,
                    Severity::Error,
                    format!("manifest checksum {hex:?} is not hex"),
                ));
            }
            (_, Err(e)) => {
                r.diagnostics.push(diag(
                    codes::STRUCTURAL_DAMAGE,
                    Severity::Error,
                    format!("index file {} unreadable: {e}", idx_path.display()),
                ));
            }
        },
        None => {
            r.diagnostics.push(diag(
                codes::STRUCTURAL_DAMAGE,
                Severity::Error,
                format!(
                    "manifest {} records no index checksum",
                    manifest_path.display()
                ),
            ));
        }
    }
    // L2: the pinned file list must still exist on disk.
    let mut missing = 0usize;
    for f in &files {
        if !f.is_file() {
            missing += 1;
            if missing <= 5 {
                r.diagnostics.push(diag(
                    codes::MISSING_SEGMENT_FILES,
                    Severity::Error,
                    format!("indexed file {} no longer exists", f.display()),
                ));
            }
        }
    }
    if missing > 5 {
        r.diagnostics.push(diag(
            codes::MISSING_SEGMENT_FILES,
            Severity::Error,
            format!("{} more indexed file(s) no longer exist", missing - 5),
        ));
    }
    let doc_bound = if files.is_empty() {
        None
    } else {
        Some(files.len() as DocId)
    };
    let idx = check_index_file(&idx_path, "index", doc_bound, &mut r);
    if opts.deep {
        if let Some(idx) = idx {
            let files = files.clone();
            check_deep(
                &idx,
                idx.keys(),
                "index",
                files.len(),
                opts.sample,
                &mut |id| {
                    std::fs::read(&files[id as usize])
                        .map_err(|e| format!("{}: {e}", files[id as usize].display()))
                },
                &|_| false,
                &mut r,
            );
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_corpus::CorpusWriter;
    use free_index::{IndexWriter, Key, Postings};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("free-fsck-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_index_file_has_no_findings() {
        let dir = tmpdir("clean-idx");
        let path = dir.join("x.idx");
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"abc", &Postings::from_sorted(&[0, 2])).unwrap();
        drop(w.finish().unwrap());
        let r = fsck(&path, &FsckOptions::default()).unwrap();
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(!r.has_errors());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_index_file_is_flagged() {
        let dir = tmpdir("bad-idx");
        let path = dir.join("x.idx");
        let ids: Vec<DocId> = (0..500).collect();
        let mut w = IndexWriter::create(&path).unwrap();
        w.add(b"abc", &Postings::from_sorted(&ids)).unwrap();
        drop(w.finish().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 40;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r = fsck(&path, &FsckOptions::default()).unwrap();
        assert!(r.has_errors(), "{}", r.render_human());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_corpus_store_has_no_findings() {
        let dir = tmpdir("clean-corpus");
        let store = dir.join("store");
        let mut w = CorpusWriter::create(&store).unwrap();
        w.append(b"hello world").unwrap();
        w.append(b"second doc").unwrap();
        w.finish().unwrap();
        let r = fsck(&store, &FsckOptions::default()).unwrap();
        assert_eq!(r.kind, "corpus");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_corpus_unit_is_flagged() {
        let dir = tmpdir("bad-corpus");
        let store = dir.join("store");
        let mut w = CorpusWriter::create(&store).unwrap();
        w.append(b"some document content here").unwrap();
        w.finish().unwrap();
        let data = store.join("corpus.dat");
        let mut bytes = std::fs::read(&data).unwrap();
        bytes[3] ^= 0x08;
        std::fs::write(&data, &bytes).unwrap();
        let r = fsck(&store, &FsckOptions::default()).unwrap();
        assert!(r.has_errors());
        assert!(!r.with_code(codes::CHECKSUM_MISMATCH).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_target_is_an_error() {
        let dir = tmpdir("unknown");
        assert!(fsck(&dir, &FsckOptions::default()).is_err());
        assert!(fsck(&dir.join("nope"), &FsckOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        assert_eq!(sample_ids(0, 8), Vec::<DocId>::new());
        assert_eq!(sample_ids(10, 0), Vec::<DocId>::new());
        assert_eq!(sample_ids(3, 8), vec![0, 1, 2]);
        let s = sample_ids(1000, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s, sample_ids(1000, 10));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    /// A directory of the N-shard layout is one structural error naming
    /// its `sharded.manifest`, and nothing under it is read as a live
    /// index.
    #[test]
    fn a_sharded_directory_is_one_error() {
        let dir = tmpdir("sharded");
        let root = dir.join("idx");
        let mut shard =
            free_live::LiveIndex::create(root.join("shard-0"), free_live::LiveConfig::default())
                .unwrap();
        shard.add_batch(&[b"alpha beta gamma".as_slice()]).unwrap();
        drop(shard);
        std::fs::write(root.join("sharded.manifest"), "FREESHRD 1 0\nshards=1\n").unwrap();
        let r = fsck(&root, &FsckOptions::default()).unwrap();
        assert_eq!(r.kind, "live");
        assert_eq!(r.diagnostics.len(), 1, "{}", r.render_human());
        let d = &r.diagnostics[0];
        assert_eq!(
            (d.code, d.severity),
            (codes::STRUCTURAL_DAMAGE, Severity::Error)
        );
        assert!(d.message.contains("sharded.manifest"), "{}", d.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A live config whose dictionary is non-empty on a few dozen docs.
    fn dictionary_config() -> free_live::LiveConfig {
        let mut config = free_live::LiveConfig::default();
        config.engine.usefulness_threshold = 0.5;
        config
    }

    fn numbered_docs(range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        const WORDS: [&str; 5] = ["amber", "basalt", "cobalt", "dolomite", "emerald"];
        range
            .map(|i| format!("record {i} holds {} and {}", WORDS[i % 5], WORDS[i * 3 % 5]))
            .map(String::into_bytes)
            .collect()
    }

    /// Rewrites the index at `path` with `edit` applied to its
    /// `(key, postings)` list, CRCs and all.
    fn rewrite_index(path: &Path, edit: impl FnOnce(&mut Vec<(Key, Vec<DocId>)>)) {
        let idx = IndexReader::open(path).unwrap();
        let mut entries: Vec<(Key, Vec<DocId>)> = idx
            .keys()
            .iter()
            .map(|k| (k.into(), idx.postings(k).unwrap().unwrap()))
            .collect();
        drop(idx);
        edit(&mut entries);
        let mut w = IndexWriter::create(path).unwrap();
        for (key, docs) in &entries {
            w.add(key, &Postings::from_sorted(docs)).unwrap();
        }
        drop(w.finish().unwrap());
    }

    #[test]
    fn younger_segments_are_held_to_the_dictionary() {
        let dir = tmpdir("dictionary");
        let root = dir.join("idx");
        let mut idx = free_live::LiveIndex::create(&root, dictionary_config()).unwrap();
        idx.add_batch(&numbered_docs(0..30)).unwrap();
        idx.flush().unwrap();
        idx.add_batch(&numbered_docs(30..50)).unwrap();
        idx.flush().unwrap();
        drop(idx);
        let deep = FsckOptions {
            deep: true,
            ..FsckOptions::default()
        };
        let r = fsck(&root, &deep).unwrap();
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
        let seg_1 = root.join("segments/seg-1.idx");
        let pristine = std::fs::read(&seg_1).unwrap();

        // The younger segment drops a dictionary key its documents hold:
        // the deep check, run with the dictionary's keys, finds them.
        rewrite_index(&seg_1, |entries| {
            let widest = (0..entries.len())
                .max_by_key(|&i| entries[i].1.len())
                .unwrap();
            entries.remove(widest);
        });
        let r = fsck(&root, &deep).unwrap();
        assert!(r.has_errors(), "{}", r.render_human());
        assert!(
            !r.with_code(codes::POSTINGS_INCOMPLETE).is_empty(),
            "{}",
            r.render_human()
        );

        // A key outside the dictionary breaks the one-dictionary rule.
        std::fs::write(&seg_1, &pristine).unwrap();
        rewrite_index(&seg_1, |entries| {
            entries.push((b"\xff\xfe"[..].into(), vec![0]))
        });
        let r = fsck(&root, &FsckOptions::default()).unwrap();
        let hits = r.with_code(codes::OUTSIDE_DICTIONARY);
        assert_eq!(hits.len(), 1, "{}", r.render_human());
        assert_eq!(hits[0].severity, Severity::Error);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pristine_multi_segment_directory_is_clean() {
        let dir = tmpdir("dictionary-pristine");
        let root = dir.join("idx");
        let mut idx = free_live::LiveIndex::create(&root, dictionary_config()).unwrap();
        for batch in [0..40, 40..60, 60..80] {
            idx.add_batch(&numbered_docs(batch)).unwrap();
            idx.flush().unwrap();
        }
        idx.add_batch(&numbered_docs(80..90)).unwrap();
        drop(idx);
        let deep = FsckOptions {
            deep: true,
            ..FsckOptions::default()
        };
        let r = fsck(&root, &deep).unwrap();
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
        assert!(r.docs_sampled >= 80, "{}", r.docs_sampled);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_json_shape() {
        let r = FsckReport {
            target: "x".into(),
            kind: "index",
            artifacts_checked: 1,
            docs_sampled: 0,
            diagnostics: vec![diag(
                codes::CHECKSUM_MISMATCH,
                Severity::Error,
                "boom".into(),
            )],
        };
        let json = r.to_json();
        assert!(json.contains("\"code\":\"FA402\""), "{json}");
        assert!(json.contains("\"errors\":true"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }
}
