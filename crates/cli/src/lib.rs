//! `freegrep` — grep with a prebuilt gram index (the paper's presuf shell).
//!
//! The library half of the CLI: index manifests, the index/search/explain
//! operations, and output formatting. `main.rs` is a thin argument parser
//! over these functions so everything here is unit-testable.
//!
//! An index lives in a directory:
//!
//! ```text
//! <index-dir>/manifest.txt   key=value lines: root, file list, config
//! <index-dir>/idx.free       the gram index (free-index format)
//! ```
//!
//! The manifest pins the exact file list the index was built over, so
//! searches stay consistent even if the tree gains or loses files (stale
//! content still requires re-indexing, as with any indexed search tool).

#![forbid(unsafe_code)]

pub mod replay;
pub mod serve;

use free_corpus::{Corpus, FsCorpus};
use free_engine::{Engine, EngineConfig};
use free_index::IndexReader;
use free_live::{LiveIndex, LiveStats, Shard};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Everything that can go wrong in the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Underlying engine/corpus/index failure.
    Engine(free_engine::Error),
    /// Live-index failure.
    Live(free_live::Error),
    /// Manifest missing or malformed.
    Manifest(String),
    /// I/O around the index directory.
    Io(std::io::Error),
    /// An argument value is invalid (wrong range, not a valid option).
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Live(e) => write!(f, "{e}"),
            CliError::Manifest(m) => write!(f, "manifest error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<free_engine::Error> for CliError {
    fn from(e: free_engine::Error) -> Self {
        CliError::Engine(e)
    }
}
impl From<free_corpus::Error> for CliError {
    fn from(e: free_corpus::Error) -> Self {
        CliError::Engine(e.into())
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<free_live::Error> for CliError {
    fn from(e: free_live::Error) -> Self {
        CliError::Live(e)
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Options for `freegrep index`.
#[derive(Clone, Debug)]
pub struct IndexOptions {
    /// Directory tree to index.
    pub root: PathBuf,
    /// Where to store the index (default: `<root>/.freegrep`).
    pub index_dir: PathBuf,
    /// File extensions to include (empty = all files).
    pub extensions: Vec<String>,
    /// Directory names to skip.
    pub skip_dirs: Vec<String>,
    /// Usefulness threshold `c`, `0 < c <= 1`: the one knob of key
    /// selection.
    pub threshold: f64,
    /// Print a progress line per a-priori mining pass (to stderr, live).
    pub verbose: bool,
    /// Overwrite an existing index in `index_dir`. Without this, building
    /// over an existing index is refused so a typo'd `--out` can't
    /// silently clobber someone else's index.
    pub force: bool,
}

impl IndexOptions {
    /// Defaults for a root directory.
    pub fn new(root: impl Into<PathBuf>) -> IndexOptions {
        let root = root.into();
        IndexOptions {
            index_dir: root.join(".freegrep"),
            root,
            extensions: Vec::new(),
            skip_dirs: vec![
                ".git".into(),
                ".freegrep".into(),
                "target".into(),
                "node_modules".into(),
            ],
            threshold: 0.1,
            verbose: false,
            force: false,
        }
    }
}

const MANIFEST_FILE: &str = "manifest.txt";
const INDEX_FILE: &str = "idx.free";

/// A tracer that forwards per-pass mining events to stderr as live
/// progress lines (what `--verbose` shows during a build).
fn verbose_tracer() -> free_trace::Tracer {
    let sink: free_trace::span::Sink = std::sync::Arc::new(|e: &free_trace::Event| {
        if e.name == "mine.pass" {
            let get = |k: &str| e.attr(k).map(ToString::to_string).unwrap_or_default();
            eprintln!(
                "pass {}: gram lengths {}..={}, {} considered, {} kept, {} corpus bytes read \
                 in {} range(s), folded in {} us",
                get("pass"),
                get("min_len"),
                get("max_len"),
                get("grams_considered"),
                get("grams_kept"),
                get("bytes_read"),
                get("ranges"),
                get("fold_us"),
            );
        }
    });
    free_trace::Tracer::with_sink(4096, sink)
}

/// Builds (or rebuilds) an index, returning a human-readable summary.
pub fn build_index(options: &IndexOptions) -> Result<String> {
    Ok(build_index_report(options)?.0)
}

/// Like [`build_index`], but also returns the engine's build statistics
/// (for `--stats-json`).
pub fn build_index_report(options: &IndexOptions) -> Result<(String, free_engine::BuildStats)> {
    // A degenerate configuration (`--c 0`, `--c 1.5`) is a usage error
    // refused before any file is read or written (the `--shards 0`
    // precedent).
    let config = EngineConfig {
        usefulness_threshold: options.threshold,
        tracer: if options.verbose {
            verbose_tracer()
        } else {
            free_trace::Tracer::disabled()
        },
        ..EngineConfig::default()
    };
    config
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let exts: Vec<&str> = options.extensions.iter().map(String::as_str).collect();
    let skips: Vec<&str> = options.skip_dirs.iter().map(String::as_str).collect();
    let corpus = FsCorpus::open(&options.root, &exts, &skips)?;
    if corpus.is_empty() {
        return Err(CliError::Manifest(format!(
            "no files to index under {}",
            options.root.display()
        )));
    }
    let files = corpus.paths().to_vec();
    let num_files = files.len();
    let total_bytes = corpus.total_bytes();

    let manifest_path = options.index_dir.join(MANIFEST_FILE);
    if manifest_path.exists() && !options.force {
        return Err(CliError::Manifest(format!(
            "an index already exists at {} — pass --force to overwrite it",
            options.index_dir.display()
        )));
    }
    std::fs::create_dir_all(&options.index_dir)?;
    let engine = Engine::build_on_disk(corpus, config, options.index_dir.join(INDEX_FILE))?;
    let stats = engine.build_stats();

    // Manifest: everything needed to reopen consistently. The checksum
    // line records the CRC32 of the finished index file so `free fsck`
    // can prove the pair still belongs together.
    let idx_bytes = std::fs::read(options.index_dir.join(INDEX_FILE))?;
    let mut manifest = String::new();
    let _ = writeln!(manifest, "version=1");
    let _ = writeln!(manifest, "root={}", options.root.display());
    let _ = writeln!(manifest, "threshold={}", options.threshold);
    let _ = writeln!(
        manifest,
        "checksum={:08x}",
        free_checksum::crc32(&idx_bytes)
    );
    for f in &files {
        let _ = writeln!(manifest, "file={}", f.display());
    }
    std::fs::write(options.index_dir.join(MANIFEST_FILE), manifest)?;

    let summary = format!(
        "indexed {num_files} files ({total_bytes} bytes) in {:.2?}: {} gram keys, {} postings → {}",
        stats.total_time(),
        stats.index_stats.num_keys,
        stats.index_stats.num_postings,
        options.index_dir.join(INDEX_FILE).display(),
    );
    Ok((summary, stats.clone()))
}

/// The process-wide metrics registry in Prometheus text exposition
/// format (what `free metrics` prints).
pub fn metrics_text() -> String {
    free_trace::metrics::global().expose()
}

/// An opened index ready to answer searches.
pub struct SearchIndex {
    engine: Engine<FsCorpus, IndexReader>,
}

impl SearchIndex {
    /// Opens the index stored in `index_dir` with confirmation running on
    /// all available CPUs (equivalent to `open_with_threads(dir, 0)`).
    pub fn open(index_dir: &Path) -> Result<SearchIndex> {
        SearchIndex::open_with_threads(index_dir, 0)
    }

    /// Opens the index stored in `index_dir`, confirming candidates with
    /// `threads` worker threads (`0` = one per available CPU). Thread
    /// count never changes which matches are reported or their order —
    /// only how fast candidate files are read and checked.
    pub fn open_with_threads(index_dir: &Path, threads: usize) -> Result<SearchIndex> {
        let manifest_path = index_dir.join(MANIFEST_FILE);
        let manifest = std::fs::read_to_string(&manifest_path).map_err(|e| {
            CliError::Manifest(format!("cannot read {}: {e}", manifest_path.display()))
        })?;
        let mut root: Option<PathBuf> = None;
        let mut threshold = 0.1f64;
        let mut files: Vec<PathBuf> = Vec::new();
        for (lineno, line) in manifest.lines().enumerate() {
            let Some((key, value)) = line.split_once('=') else {
                return Err(CliError::Manifest(format!(
                    "line {} is not key=value: {line:?}",
                    lineno + 1
                )));
            };
            match key {
                "version" if value != "1" => {
                    return Err(CliError::Manifest(format!(
                        "unsupported manifest version {value}"
                    )));
                }
                "root" => root = Some(PathBuf::from(value)),
                "threshold" => {
                    threshold = value
                        .parse()
                        .map_err(|_| CliError::Manifest(format!("bad threshold {value:?}")))?;
                }
                "file" => files.push(PathBuf::from(value)),
                _ => {} // forward compatible
            }
        }
        let root = root.ok_or_else(|| CliError::Manifest("manifest missing root=".into()))?;
        let corpus = FsCorpus::from_paths(&root, files)?;
        let config = EngineConfig {
            usefulness_threshold: threshold,
            num_threads: threads,
            ..EngineConfig::default()
        };
        let engine = Engine::open(corpus, config, index_dir.join(INDEX_FILE))?;
        Ok(SearchIndex { engine })
    }

    /// Runs a search, returning formatted `path:line:text` output plus a
    /// summary line. `limit` caps the printed matches (0 = unlimited).
    /// With `stats_json` the human summary line is replaced by the
    /// query's cost counters as one line of JSON.
    // `expect`: every doc id in a query result was produced by this
    // engine's own corpus, so the path lookup cannot miss.
    #[allow(clippy::expect_used)]
    pub fn search(
        &self,
        pattern: &str,
        limit: usize,
        files_only: bool,
        stats_json: bool,
    ) -> Result<String> {
        let mut result = self.engine.query(pattern)?;
        let mut out = String::new();
        let matches = if limit > 0 {
            // First-k streaming keeps latency proportional to the output.
            let hits = result.first_k_matches(limit)?;
            let mut grouped: Vec<(u32, Vec<free_regex::Span>)> = Vec::new();
            for (doc, span) in hits {
                match grouped.last_mut() {
                    Some((d, spans)) if *d == doc => spans.push(span),
                    _ => grouped.push((doc, vec![span])),
                }
            }
            grouped
        } else {
            result
                .all_matches()?
                .into_iter()
                .map(|dm| (dm.doc, dm.spans))
                .collect()
        };
        let mut total = 0usize;
        for (doc, spans) in &matches {
            let path = self
                .engine
                .corpus()
                .path(*doc)
                .expect("doc id from this corpus")
                .display()
                .to_string();
            if files_only {
                let _ = writeln!(out, "{path}");
                total += spans.len();
                continue;
            }
            let bytes = self.engine.corpus().get(*doc)?;
            for span in spans {
                total += 1;
                let line_no = bytes[..span.start].iter().filter(|&&b| b == b'\n').count() + 1;
                let line_start = bytes[..span.start]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let line_end = bytes[span.start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| span.start + p);
                let text = String::from_utf8_lossy(&bytes[line_start..line_end]);
                let _ = writeln!(out, "{path}:{line_no}:{}", text.trim_end());
            }
        }
        if stats_json {
            let _ = writeln!(out, "{}", result.into_stats().to_json());
            return Ok(out);
        }
        let stats = result.stats();
        let _ = writeln!(
            out,
            "# {total} match(es) in {} file(s); examined {} of {} files{}",
            matches.len(),
            stats.docs_examined,
            self.engine.num_docs(),
            if result.used_scan() {
                " (no usable grams: full scan)"
            } else {
                ""
            },
        );
        Ok(out)
    }

    /// Executes `pattern` to completion and returns `(matching_docs,
    /// match_count)` — the two counters `free replay` verifies against a
    /// captured query record.
    pub fn counts(&self, pattern: &str) -> Result<(u64, u64)> {
        let mut result = self.engine.query(pattern)?;
        let matches = result.all_matches()?;
        let docs = matches.len() as u64;
        let spans = matches.iter().map(|d| d.spans.len() as u64).sum();
        Ok((docs, spans))
    }

    /// Explains the access plan for a pattern.
    pub fn explain(&self, pattern: &str) -> Result<String> {
        Ok(self.engine.explain(pattern)?)
    }

    /// Executes the pattern with per-operator instrumentation and renders
    /// the annotated plan (`explain --analyze`), as text or JSON. Text
    /// output appends any `FA204` estimate-drift findings.
    pub fn explain_analyze(&self, pattern: &str, json: bool) -> Result<String> {
        let ea = self.engine.explain_analyze(pattern)?;
        if json {
            return Ok(format!("{}\n", ea.to_json()));
        }
        let mut out = ea.render_text();
        if let Some(root) = &ea.root {
            for d in free_analyze::cost::drift_diagnostics(root) {
                let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
            }
        }
        Ok(out)
    }

    /// Static pattern analysis refined against this index's actual gram
    /// dictionary (`free analyze --index DIR`): the plan class reflects
    /// which grams the index holds and how selective they are,
    /// instead of the shape-only judgment. Exit status mirrors plain
    /// `analyze`: 1 when the report has errors, 0 otherwise.
    pub fn analyze(&self, pattern: &str, json: bool) -> (String, i32) {
        let cfg = free_analyze::AnalysisConfig::default();
        let report = free_analyze::analyze_with_index(
            pattern,
            self.engine.index(),
            self.engine.num_docs(),
            &cfg,
        );
        let output = if json {
            format!("{}\n", report.to_json())
        } else {
            report.render_human()
        };
        (output, i32::from(report.has_errors()))
    }

    /// Index statistics summary.
    pub fn stats(&self) -> String {
        let s = self.engine.build_stats();
        format!(
            "{} files indexed; {} gram keys, {} postings ({} bytes)",
            self.engine.num_docs(),
            s.index_stats.num_keys,
            s.index_stats.num_postings,
            s.index_stats.total_bytes(),
        )
    }
}

/// Default directory for the live-index subcommands.
pub const DEFAULT_LIVE_DIR: &str = ".freelive";

fn live_config(threads: usize) -> free_live::LiveConfig {
    free_live::LiveConfig {
        engine: EngineConfig {
            num_threads: threads,
            ..EngineConfig::default()
        },
        ..free_live::LiveConfig::default()
    }
}

/// Writes the aggregate shape ([`LiveIndex::stats`]) as JSON fields of
/// `o`.
fn aggregate_fields(o: &mut free_trace::json::JsonObject, stats: &LiveStats) {
    o.field_u64("generation", stats.generation)
        .field_u64("next_seq", u64::from(stats.next_seq))
        .field_u64("num_segments", stats.segments.len() as u64)
        .field_u64("memtable_docs", stats.memtable_docs as u64)
        .field_u64("tombstones", stats.tombstones as u64)
        .field_u64("live_docs", stats.live_docs as u64)
        .field_u64("total_bytes", stats.total_bytes);
}

/// Each shard's own stats, in shard order.
fn shard_stats(idx: &LiveIndex) -> Vec<LiveStats> {
    idx.shards().iter().map(Shard::stats).collect()
}

/// The `per_shard` JSON array: each shard's stats, plus its dictionary
/// drift when `drifts` carries one per shard.
fn per_shard_json(per_shard: &[LiveStats], drifts: Option<&[free_live::Drift]>) -> String {
    let mut arr = free_trace::json::JsonArray::new();
    for (s, stats) in per_shard.iter().enumerate() {
        let mut o = free_trace::json::JsonObject::new();
        o.field_u64("shard", s as u64)
            .field_raw("stats", stats.to_json());
        if let Some(drift) = drifts.map(|d| d[s]) {
            o.field_f64("drift_fraction", drift.fraction);
            if let Some(share) = drift.share {
                o.field_f64("drift_share", share);
            }
        }
        arr.push_raw(o.finish());
    }
    arr.finish()
}

/// Index shape as one JSON object (the line protocol's `stats` reply):
/// the shard count, the aggregate, and a `per_shard` breakdown.
pub(crate) fn live_stats_json(idx: &LiveIndex) -> String {
    let mut o = free_trace::json::JsonObject::new();
    o.field_u64("shards", idx.num_shards() as u64);
    aggregate_fields(&mut o, &idx.stats());
    o.field_raw("per_shard", per_shard_json(&shard_stats(idx), None));
    o.finish()
}

/// `free create`: initializes an empty live index at `dir` over `shards`
/// independent shards with round-robin document routing (the count is
/// fixed for the lifetime of the directory; one shard is rooted at `dir`
/// itself).
pub fn live_create(dir: &Path, shards: usize) -> Result<String> {
    if shards == 0 {
        return Err(CliError::Usage(format!(
            "--shards must be between 1 and {} (got 0)",
            free_live::MAX_SHARDS
        )));
    }
    let note = if shards == 1 {
        String::new()
    } else {
        format!(" with {shards} shards")
    };
    LiveIndex::create_sharded(dir, live_config(0), shards)?;
    Ok(format!("created live index at {}{note}\n", dir.display()))
}

/// `free add`: ingests each file as one document into the live index at
/// `dir` (created with one shard on first use), printing the assigned
/// sequence numbers.
pub fn live_add(dir: &Path, files: &[PathBuf]) -> Result<String> {
    let mut live = LiveIndex::open_or_create(dir, live_config(0))?;
    let mut docs = Vec::with_capacity(files.len());
    for f in files {
        docs.push(std::fs::read(f)?);
    }
    let ids = live.add_batch(&docs)?;
    let mut out = String::new();
    for (f, id) in files.iter().zip(&ids) {
        let _ = writeln!(out, "added {} as doc {id}", f.display());
    }
    let stats = live.stats();
    let _ = writeln!(
        out,
        "# {} live doc(s), {} segment(s), {} buffered",
        stats.live_docs,
        stats.segments.len(),
        stats.memtable_docs
    );
    Ok(out)
}

/// `free delete`: tombstones documents by sequence number.
pub fn live_delete(dir: &Path, seqs: &[u32]) -> Result<String> {
    let mut live = LiveIndex::open(dir, live_config(0))?;
    let mut out = String::new();
    for &seq in seqs {
        live.delete(seq)?;
        let _ = writeln!(out, "deleted doc {seq}");
    }
    let _ = writeln!(out, "# {} live doc(s) remain", live.live_docs());
    Ok(out)
}

/// `free compact`: flushes the write buffer and merges all segments into
/// one per shard (shards in parallel), reclaiming tombstoned documents.
pub fn live_compact(dir: &Path) -> Result<String> {
    let mut live = LiveIndex::open(dir, live_config(0))?;
    let before = live.stats();
    let changed = live.compact()?;
    let after = live.stats();
    if !changed && before.segments.len() == after.segments.len() {
        return Ok(format!(
            "nothing to compact: {} segment(s), {} tombstone(s)\n",
            after.segments.len(),
            after.tombstones
        ));
    }
    Ok(format!(
        "compacted {} segment(s) + {} buffered doc(s) ({} tombstone(s) reclaimed) \
         into {} segment(s); {} live doc(s)\n",
        before.segments.len(),
        before.memtable_docs,
        before.tombstones,
        after.segments.len(),
        after.live_docs
    ))
}

/// Renders a diagnostic list as a JSON array.
fn diags_to_json(diags: &[free_analyze::Diagnostic]) -> String {
    let mut arr = free_trace::json::JsonArray::new();
    for d in diags {
        let mut o = free_trace::json::JsonObject::new();
        o.field_str("code", d.code)
            .field_str("severity", &d.severity.to_string())
            .field_str("message", &d.message);
        if let Some(s) = &d.suggestion {
            o.field_str("suggestion", s);
        }
        arr.push_raw(o.finish());
    }
    arr.finish()
}

/// `free segments`: reports the live index's shape shard by shard, plus
/// each shard's `FA30x` health findings (prefixed `shard N:`) and the
/// cross-shard balance check (`FA501`, trivially quiet for one shard).
/// With `json`, emits one object: `shards`, the aggregate under `stats`,
/// a `per_shard` breakdown with each shard's `drift_fraction` (and
/// `drift_share` when there is one), and the `diagnostics`. The returned
/// exit code is 1 when any finding is error-severity (e.g. `FA304`
/// snapshot lag), so scripts and CI can gate on index health without
/// parsing the output.
pub fn live_segments(dir: &Path, json: bool) -> Result<(String, i32)> {
    let idx = LiveIndex::open(dir, live_config(0))?;
    let per = shard_stats(&idx);
    let mut diags = Vec::new();
    let mut drifts = Vec::with_capacity(per.len());
    for (s, (live, stats)) in idx.shards().iter().zip(&per).enumerate() {
        let drift = live.drift();
        drifts.push(drift);
        let health = free_analyze::LiveHealth {
            num_segments: stats.segments.len(),
            memtable_docs: stats.memtable_docs,
            live_docs: stats.live_docs,
            tombstoned_docs: stats.tombstones,
            drift_fraction: drift.fraction,
            retired_segment_files: live.retired_segment_files().len(),
            snapshot_lag: live.snapshot_lag(),
        };
        for mut d in
            free_analyze::analyze_live(&health, &free_analyze::LiveAnalysisConfig::default())
        {
            d.message = format!("shard {s}: {}", d.message);
            diags.push(d);
        }
    }
    let balance = free_analyze::ShardHealth {
        live_docs_per_shard: per.iter().map(|s| s.live_docs).collect(),
    };
    diags.extend(free_analyze::analyze_shards(
        &balance,
        &free_analyze::ShardAnalysisConfig::default(),
    ));
    let exit_code = i32::from(
        diags
            .iter()
            .any(|d| d.severity == free_analyze::Severity::Error),
    );
    let shape = idx.stats();
    if json {
        let mut agg = free_trace::json::JsonObject::new();
        aggregate_fields(&mut agg, &shape);
        let mut o = free_trace::json::JsonObject::new();
        o.field_u64("shards", idx.num_shards() as u64)
            .field_raw("stats", agg.finish())
            .field_raw("per_shard", per_shard_json(&per, Some(&drifts)))
            .field_raw("diagnostics", diags_to_json(&diags));
        return Ok((format!("{}\n", o.finish()), exit_code));
    }
    let mut out = format!(
        "live index: {} shard(s), generation {}, next seq {}\n\
         # total: {} live doc(s), {} segment(s), {} tombstone(s)\n",
        idx.num_shards(),
        shape.generation,
        shape.next_seq,
        shape.live_docs,
        shape.segments.len(),
        shape.tombstones,
    );
    for (s, stats) in per.iter().enumerate() {
        let _ = writeln!(out, "-- shard {s} --");
        out.push_str(&stats.render_human());
        let share = drifts[s]
            .share
            .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
        let _ = writeln!(
            out,
            "dictionary drift: {:.1}% (new postings on keys useless among the new \
             documents: {share}; re-mine past {:.1}%)",
            drifts[s].fraction * 100.0,
            free_live::DRIFT_TOLERANCE * 100.0
        );
    }
    for d in &diags {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "  help: {s}");
        }
    }
    Ok((out, exit_code))
}

/// `free fsck`: verifies on-disk index state (live directory, batch
/// index directory, corpus store, or bare index file) without mutating
/// anything. `deep` additionally re-mines `sample` documents per segment
/// with the gram scanner and proves the postings' no-false-negative
/// guarantee. Returns the rendered report and the process exit code:
/// 0 when clean (advisories allowed), 1 when any error-severity `FA4xx`
/// finding fired.
pub fn fsck(path: &Path, deep: bool, sample: usize, json: bool) -> Result<(String, i32)> {
    let opts = free_analyze::FsckOptions { deep, sample };
    let report = free_analyze::fsck(path, &opts)?;
    let out = if json {
        format!("{}\n", report.to_json())
    } else {
        report.render_human()
    };
    Ok((out, i32::from(report.has_errors())))
}

/// `free search --live`: queries the live index, printing one line per
/// matching document.
pub fn live_search(dir: &Path, pattern: &str, threads: usize) -> Result<String> {
    let live = LiveIndex::open(dir, live_config(threads))?;
    let result = live.snapshot().query(pattern)?;
    let mut out = String::new();
    for m in &result.matches {
        let _ = writeln!(out, "doc {}: {} match(es)", m.seq, m.spans.len());
    }
    let _ = writeln!(
        out,
        "# {} matching doc(s) of {} live; examined {}{}",
        result.matches.len(),
        live.live_docs(),
        result.stats.base.docs_examined,
        if result.stats.base.used_scan {
            " (no usable grams: full scan)"
        } else {
            ""
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("freegrep-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("src/alpha.rs"),
            b"fn alpha() {\n    needle_one();\n}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("src/beta.rs"),
            b"fn beta() {\n    // no needles here\n    needle_two();\n}\n",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), b"needle_one in notes\n").unwrap();
        dir
    }

    #[test]
    fn index_and_search_roundtrip() {
        let dir = setup("roundtrip");
        let options = IndexOptions {
            threshold: 0.9, // tiny corpus: keep most grams useful
            ..IndexOptions::new(&dir)
        };
        let summary = build_index(&options).unwrap();
        assert!(summary.contains("indexed 3 files"), "{summary}");

        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let out = idx.search(r"needle_\a+\(", 0, false, false).unwrap();
        assert!(out.contains("alpha.rs:2:"), "{out}");
        assert!(out.contains("beta.rs:3:"), "{out}");
        assert!(!out.contains("notes.txt"), "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extension_filter() {
        let dir = setup("ext");
        let options = IndexOptions {
            extensions: vec!["txt".into()],
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let out = idx.search("needle_one", 0, true, false).unwrap();
        assert!(out.contains("notes.txt"), "{out}");
        assert!(!out.contains("alpha.rs"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn limit_streams_first_k() {
        let dir = setup("limit");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let out = idx.search("needle", 1, false, false).unwrap();
        assert!(out.contains("1 match(es)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_and_stats() {
        let dir = setup("explain");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let plan = idx.explain("needle_one").unwrap();
        assert!(plan.contains("physical:"), "{plan}");
        let stats = idx.stats();
        assert!(stats.contains("3 files indexed"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn search_stats_json_replaces_summary() {
        let dir = setup("statsjson");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let out = idx.search("needle_one", 0, true, true).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with('{') && last.ends_with('}'), "{out}");
        assert!(last.contains("\"docs_examined\":"), "{out}");
        assert!(last.contains("\"matching_docs\":2"), "{out}");
        assert!(
            !out.contains("match(es)"),
            "summary must be replaced: {out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_analyze_renders_tree_and_json() {
        let dir = setup("analyze");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        let text = idx.explain_analyze("needle_one", false).unwrap();
        assert!(text.contains("actual"), "{text}");
        assert!(text.contains("est ~"), "{text}");
        let json = idx.explain_analyze("needle_one", true).unwrap();
        assert!(json.contains("\"root\":"), "{json}");
        assert!(json.contains("\"stats\":{"), "{json}");
        // Scan-degenerate queries still render (root null).
        let scan = idx.explain_analyze(r"\d", true).unwrap();
        assert!(scan.contains("\"root\":null"), "{scan}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_text_reflects_queries() {
        let dir = setup("metrics");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        let idx = SearchIndex::open(&options.index_dir).unwrap();
        idx.search("needle_one", 0, true, false).unwrap();
        let text = metrics_text();
        assert!(text.contains("free_queries_total"), "{text}");
        assert!(text.contains("free_builds_total"), "{text}");
        assert!(
            text.contains("free_query_total_ns_bucket"),
            "histograms must expose buckets: {text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_clear_error() {
        let dir = setup("missing");
        let err = match SearchIndex::open(&dir.join("nope")) {
            Err(e) => e,
            Ok(_) => panic!("open should fail"),
        };
        assert!(err.to_string().contains("manifest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let dir = setup("corrupt");
        let options = IndexOptions {
            threshold: 0.9,
            ..IndexOptions::new(&dir)
        };
        build_index(&options).unwrap();
        std::fs::write(options.index_dir.join("manifest.txt"), "not key value\n").unwrap();
        assert!(SearchIndex::open(&options.index_dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_live_cli_roundtrip() {
        for shards in [1usize, 4] {
            live_cli_roundtrip(shards);
        }
    }

    fn live_cli_roundtrip(shards: usize) {
        let dir =
            std::env::temp_dir().join(format!("freegrep-shardcli-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live_dir = dir.join("live");
        let files: Vec<PathBuf> = (0..6)
            .map(|i| {
                let p = dir.join(format!("doc{i}.txt"));
                let kind = if i % 2 == 0 { "even" } else { "odd" };
                std::fs::write(&p, format!("document {i} with needle_{kind}\n")).unwrap();
                p
            })
            .collect();

        // A zero shard count is a usage error, not a silent one-shard
        // index.
        let zero = live_create(&live_dir, 0);
        assert!(
            matches!(&zero, Err(CliError::Usage(m)) if m.contains("--shards")),
            "{zero:?}"
        );
        assert!(!live_dir.exists(), "--shards 0 must not create anything");

        let created = live_create(&live_dir, shards).unwrap();
        assert_eq!(created.contains("4 shards"), shards == 4, "{created}");
        // One shard is rooted at the directory, more sit behind a
        // sharded manifest.
        assert_eq!(live_dir.join("live.manifest").is_file(), shards == 1);
        assert_eq!(live_dir.join("sharded.manifest").is_file(), shards > 1);
        // Creating over an existing index must refuse, not clobber —
        // whichever layout either side has.
        for again in [1, 2] {
            assert!(live_create(&live_dir, again).is_err());
        }

        let out = live_add(&live_dir, &files).unwrap();
        assert!(
            out.contains("as doc 0") && out.contains("as doc 5"),
            "{out}"
        );
        assert!(out.contains("# 6 live doc(s)"), "{out}");

        let found = live_search(&live_dir, "needle_even", 1).unwrap();
        assert!(
            found.contains("doc 0:") && found.contains("doc 2:") && found.contains("doc 4:"),
            "{found}"
        );
        assert!(found.contains("# 3 matching doc(s) of 6 live"), "{found}");

        let del = live_delete(&live_dir, &[2]).unwrap();
        assert!(del.contains("# 5 live doc(s) remain"), "{del}");
        let comp = live_compact(&live_dir).unwrap();
        assert!(comp.contains("compacted"), "{comp}");

        let (json, code) = live_segments(&live_dir, true).unwrap();
        assert_eq!(code, 0, "{json}");
        assert!(json.contains(&format!("\"shards\":{shards}")), "{json}");
        assert!(json.contains("\"per_shard\":["), "{json}");
        assert!(json.contains("\"drift_fraction\":"), "{json}");
        assert!(json.contains("\"live_docs\":5"), "{json}");
        let (human, code) = live_segments(&live_dir, false).unwrap();
        assert_eq!(code, 0, "{human}");
        assert!(
            human.contains(&format!("live index: {shards} shard(s)")),
            "{human}"
        );
        assert!(
            human.contains(&format!("-- shard {} --", shards - 1)),
            "{human}"
        );

        // fsck auto-detects the layout and verifies every shard.
        let (fsck_out, code) = fsck(&live_dir, false, 4, false).unwrap();
        assert_eq!(code, 0, "{fsck_out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_root_errors() {
        let dir = std::env::temp_dir().join(format!("freegrep-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let options = IndexOptions::new(&dir);
        assert!(build_index(&options).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
