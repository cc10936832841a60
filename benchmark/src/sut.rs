//! The system under test, as the benchmark sees it.
//!
//! This is the only module that names an engine API (a `free_*` crate or
//! `freegrep`), a wire path, or a metric series of the server. Every
//! workload, the oracle and the tracer go through the plain types
//! below, so a refactor that changes an engine API needs a follow-up in
//! this one file and nowhere else in the benchmark.
//!
//! Everything runs at shipped defaults: `EngineConfig::default()`,
//! `LiveConfig::default()`, `ServeOptions::new(dir)`.

use crate::oracle::{Answer, AnswerDigest};
use free_corpus::synth::{Generator, SynthConfig, Vocabulary};
use free_corpus::{Corpus, CorpusWriter, DiskCorpus};
use free_engine::plan::{LogicalPlan, PhysicalPlan};
use free_engine::select::SelectedGram;
use free_engine::{Engine, EngineConfig, PlanClass};
use free_index::{AndCursor, IndexBuilder, IndexRead, IndexReader, PostingsCursor};
use free_live::{LiveConfig, LiveIndex};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workspace's hand-rolled JSON writer and reader, which the
/// benchmark's own files and output reuse.
pub use free_trace::{JsonArray, JsonObject, JsonValue};

pub type DocId = u32;
pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Environment variables that override an engine default; the benchmark
/// removes them so that only a changed default moves a number.
pub const DEFAULT_OVERRIDING_ENV: [&str; 2] = ["FREE_THREADS", "FREE_SHARDS"];

// ---------------------------------------------------------------------
// corpus generation, checksums, regex (the oracle's matcher)
// ---------------------------------------------------------------------

/// A window onto the synthetic web-page generator at
/// `SynthConfig::default()` (rates, vocabulary and generator seed all as
/// shipped). The generator makes page `n` from `(its seed, n)` alone, so
/// windows starting at different pages are independent samples of one
/// distribution: the benchmark's seed picks the window, and the
/// vocabulary, and with it the mean page size and the gram statistics,
/// stay the same for every seed.
pub struct Pages {
    generator: Generator,
    vocab: Vocabulary,
    first: DocId,
}

impl Pages {
    /// The window whose page 0 is the generator's page `first`.
    pub fn new(first: DocId) -> Pages {
        let config = SynthConfig::default();
        let vocab = Vocabulary::new(config.vocab_size, config.seed);
        Pages {
            generator: Generator::new(config),
            vocab,
            first,
        }
    }

    /// Generates the window's page `id` into `out` (cleared first).
    pub fn page(&self, id: DocId, out: &mut Vec<u8>) {
        self.generator.page(self.first.wrapping_add(id), out);
    }

    /// The vocabulary word at Zipf rank `rank` (0 = most frequent).
    pub fn word(&self, rank: usize) -> &str {
        self.vocab.word(rank)
    }

    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }
}

/// Incremental CRC-32 (fingerprints, and the checksum layer's metric).
#[derive(Default)]
pub struct Crc(free_checksum::Crc32);

impl Crc {
    pub fn update(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }

    pub fn finish(&self) -> u32 {
        self.0.finish()
    }
}

pub fn crc32(bytes: &[u8]) -> u32 {
    free_checksum::crc32(bytes)
}

/// A compiled pattern, for the oracle and the regex layer's replays.
pub struct Matcher(free_regex::Regex);

impl Matcher {
    pub fn new(pattern: &str) -> Result<Matcher> {
        Ok(Matcher(free_regex::Regex::new(pattern)?))
    }

    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.0.is_match(haystack)
    }

    /// Number of matches in `haystack` (`Regex::find_all`).
    pub fn count(&self, haystack: &[u8]) -> usize {
        self.0.find_all(haystack).len()
    }
}

/// A literal searcher (`free_regex::Finder`), the anchoring prefilter.
pub struct Literal(free_regex::Finder);

impl Literal {
    pub fn new(needle: &[u8]) -> Literal {
        Literal(free_regex::Finder::new(needle))
    }

    pub fn find(&self, haystack: &[u8]) -> Option<usize> {
        self.0.find(haystack)
    }
}

// ---------------------------------------------------------------------
// persisted corpus
// ---------------------------------------------------------------------

/// Streams documents into a corpus store on disk.
pub struct CorpusSink(CorpusWriter);

impl CorpusSink {
    pub fn create(dir: &Path) -> Result<CorpusSink> {
        Ok(CorpusSink(CorpusWriter::create(dir)?))
    }

    pub fn append(&mut self, doc: &[u8]) -> Result<()> {
        self.0.append(doc)?;
        Ok(())
    }

    pub fn finish(self) -> Result<()> {
        self.0.finish()?;
        Ok(())
    }
}

/// A corpus store opened for reading.
pub struct StoredCorpus(DiskCorpus);

impl StoredCorpus {
    pub fn open(dir: &Path) -> Result<StoredCorpus> {
        Ok(StoredCorpus(DiskCorpus::open(dir)?))
    }

    pub fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }

    pub fn get(&self, id: DocId) -> Result<Vec<u8>> {
        Ok(self.0.get(id)?)
    }

    /// `Corpus::scan`: every document in id order.
    pub fn scan(&self, visit: &mut dyn FnMut(DocId, &[u8])) -> Result<()> {
        self.0.scan(&mut |id, bytes| {
            visit(id, bytes);
            true
        })?;
        Ok(())
    }

    /// Document-cache `(hits, misses)`; `None` when no cache is enabled
    /// (the shipped default for a batch engine).
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.0.cache_stats()
    }
}

// ---------------------------------------------------------------------
// batch build: the one call, and the same work in stages
// ---------------------------------------------------------------------

/// What a build reports about itself (`BuildStats` / `MiningStats`).
#[derive(Clone, Debug, Default)]
pub struct BuildInfo {
    pub keys: u64,
    pub postings: u64,
    pub mining_passes: u64,
    pub grams_counted: u64,
    pub keys_selected: u64,
}

fn mining_info(keys: usize, mining: &free_engine::MiningStats) -> BuildInfo {
    BuildInfo {
        keys: keys as u64,
        postings: 0,
        mining_passes: mining.passes as u64,
        grams_counted: mining.per_pass.iter().map(|p| p.grams_considered).sum(),
        keys_selected: mining.per_pass.iter().map(|p| p.grams_kept).sum(),
    }
}

/// `Engine::build_on_disk` (Multigram, a-priori, c = 0.1: the default
/// configuration) over the corpus store in `corpus_dir`.
pub fn build_on_disk(corpus_dir: &Path, index_path: &Path) -> Result<(BatchEngine, BuildInfo)> {
    let corpus = DiskCorpus::open(corpus_dir)?;
    let engine = Engine::build_on_disk(corpus, EngineConfig::default(), index_path)?;
    let stats = engine.build_stats();
    let mut info = mining_info(stats.num_keys, &stats.mining);
    info.postings = stats.index_stats.num_postings;
    Ok((BatchEngine(engine), info))
}

/// The keys `select_keys` chose.
pub struct Keys(Vec<SelectedGram>);

/// Stage 1 of a build: `select_keys` (the a-priori mining passes).
pub fn select_keys(corpus: &StoredCorpus) -> Result<(Keys, BuildInfo)> {
    let (keys, mining) = free_engine::select_keys(&corpus.0, &EngineConfig::default())?;
    let info = mining_info(keys.len(), &mining);
    Ok((Keys(keys), info))
}

/// `generate_postings` into a sink that discards: the corpus scan and
/// gram matching of stage 2 without the index writer. Returns the
/// number of postings produced.
pub fn postings_discarded(corpus: &StoredCorpus, keys: &Keys) -> Result<u64> {
    let mut postings = 0u64;
    free_engine::generate_postings(&corpus.0, &keys.0, &mut |key, doc| {
        postings += 1;
        std::hint::black_box((key, doc));
        Ok(())
    })?;
    Ok(postings)
}

/// An index under construction.
pub struct IndexSink(IndexBuilder);

/// Stage 2 of a build: `generate_postings` into `IndexBuilder::add`.
pub fn postings_into_index(
    corpus: &StoredCorpus,
    keys: &Keys,
    index_path: &Path,
) -> Result<IndexSink> {
    let budget = EngineConfig::default().build_memory_budget;
    let mut builder = IndexBuilder::with_memory_budget(index_path, budget);
    free_engine::generate_postings(&corpus.0, &keys.0, &mut |key, doc| {
        builder.add(key, doc).map_err(Into::into)
    })?;
    Ok(IndexSink(builder))
}

/// Stage 3 of a build: `IndexBuilder::finish`. Returns the postings
/// count of the finished index.
pub fn finish_index(sink: IndexSink) -> Result<u64> {
    Ok(sink.0.finish()?.stats().num_postings)
}

/// Milliseconds one `IndexReader::open` takes (meta CRC verify included).
pub fn index_open_ms(index_path: &Path) -> Result<f64> {
    let start = Instant::now();
    let reader = IndexReader::open(index_path)?;
    let ms = crate::measure::ms_since(start);
    std::hint::black_box(reader.num_keys());
    Ok(ms)
}

// ---------------------------------------------------------------------
// batch query
// ---------------------------------------------------------------------

/// How well a plan uses the index (`PlanClass`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Indexed,
    Weak,
    Scan,
}

fn class_of(c: PlanClass) -> Class {
    match c {
        PlanClass::Indexed => Class::Indexed,
        PlanClass::Weak => Class::Weak,
        PlanClass::Scan => Class::Scan,
    }
}

/// `QueryStats` of one drained query.
#[derive(Clone, Debug)]
pub struct QueryInfo {
    pub class: Class,
    pub plan_ns: u64,
    pub index_ns: u64,
    pub confirm_ns: u64,
    pub scan_ns: u64,
    pub postings_decoded: u64,
    pub cursor_seeks: u64,
    pub blocks_decoded: u64,
    pub postings_skipped: u64,
    pub candidates: u64,
    pub docs_examined: u64,
    pub docs_prefiltered: u64,
    pub matching_docs: u64,
}

/// What the planner decided for a pattern, from the public stage
/// functions (`Regex::new` → `LogicalPlan::from_ast` →
/// `PhysicalPlan::from_logical_with`), with each stage's wall time.
pub struct PlanInfo {
    pub compile_ns: u64,
    pub plan_ns: u64,
    pub class: Class,
    /// Every index key the plan fetches.
    pub keys: Vec<Vec<u8>>,
    /// Key sets the plan intersects (each of two keys or more).
    pub conjunctions: Vec<Vec<Vec<u8>>>,
    /// Literals the anchoring prefilter checks before the automaton.
    pub prefilter_literals: Vec<Vec<u8>>,
    physical: PhysicalPlan,
}

fn conjunctions(plan: &PhysicalPlan, out: &mut Vec<Vec<Vec<u8>>>) {
    let leaf_keys = |p: &PhysicalPlan| match p {
        PhysicalPlan::Fetch { keys, .. } => keys.iter().map(|k| k.to_vec()).collect(),
        _ => Vec::new(),
    };
    match plan {
        PhysicalPlan::Fetch { .. } => {
            let mut keys: Vec<Vec<u8>> = leaf_keys(plan);
            keys.sort();
            keys.dedup();
            if keys.len() >= 2 {
                out.push(keys);
            }
        }
        PhysicalPlan::And(children) => {
            let mut keys: Vec<Vec<u8>> = children.iter().flat_map(leaf_keys).collect();
            keys.sort();
            keys.dedup();
            if keys.len() >= 2 {
                out.push(keys);
            }
            for c in children {
                if !matches!(c, PhysicalPlan::Fetch { .. }) {
                    conjunctions(c, out);
                }
            }
        }
        PhysicalPlan::Or(children) => {
            for c in children {
                conjunctions(c, out);
            }
        }
        PhysicalPlan::Scan => {}
    }
}

/// A batch engine over a corpus store and an on-disk index.
pub struct BatchEngine(Engine<DiskCorpus, IndexReader>);

impl BatchEngine {
    /// `Engine::open`. With `engine_tracer` the engine's own span
    /// tracer is enabled (for the observability-budget row only).
    pub fn open(corpus_dir: &Path, index_path: &Path, engine_tracer: bool) -> Result<BatchEngine> {
        let corpus = DiskCorpus::open(corpus_dir)?;
        let mut config = EngineConfig::default();
        if engine_tracer {
            config.tracer = free_trace::Tracer::enabled();
        }
        Ok(BatchEngine(Engine::open(corpus, config, index_path)?))
    }

    /// One request: `Engine::query` drained to its full match list.
    pub fn query(&self, pattern: &str) -> Result<Answer> {
        Ok(self.query_with_info(pattern)?.0)
    }

    /// The same request, also returning the `QueryStats` it produced.
    pub fn query_with_info(&self, pattern: &str) -> Result<(Answer, QueryInfo)> {
        let mut result = self.0.query(pattern)?;
        let matches = result.all_matches()?;
        let mut digest = AnswerDigest::default();
        for m in &matches {
            digest.push(m.doc);
        }
        let s = result.stats();
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let info = QueryInfo {
            class: class_of(s.plan_class),
            plan_ns: ns(s.plan_time),
            index_ns: ns(s.index_time),
            confirm_ns: ns(s.confirm_time),
            scan_ns: ns(s.scan_time),
            postings_decoded: s.postings_decoded,
            cursor_seeks: s.cursor_seeks,
            blocks_decoded: s.blocks_decoded,
            postings_skipped: s.postings_skipped,
            candidates: s.candidates as u64,
            docs_examined: s.docs_examined as u64,
            docs_prefiltered: s.docs_prefiltered as u64,
            matching_docs: s.matching_docs as u64,
        };
        Ok((digest.finish(), info))
    }

    /// Plans `pattern` in stages through the public stage functions,
    /// timing each.
    pub fn plan(&self, pattern: &str) -> Result<PlanInfo> {
        let config = self.0.config();
        let t0 = Instant::now();
        let regex = free_regex::Regex::new(pattern)?;
        let compile_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let logical = LogicalPlan::from_ast(regex.ast(), config.class_expand_limit);
        let options = free_engine::plan::physical::PlanOptions {
            num_docs: self.0.num_docs(),
            prune_selectivity: config.prune_selectivity,
        };
        let physical = PhysicalPlan::from_logical_with(&logical, self.0.index(), options);
        let plan_ns = t1.elapsed().as_nanos() as u64;
        let mut conj = Vec::new();
        conjunctions(&physical, &mut conj);
        Ok(PlanInfo {
            compile_ns,
            plan_ns,
            class: class_of(physical.classify(self.0.num_docs())),
            keys: physical.gram_keys().iter().map(|k| k.to_vec()).collect(),
            conjunctions: conj,
            prefilter_literals: free_engine::build_prefilter(&logical)
                .iter()
                .map(|f| f.needle().to_vec())
                .collect(),
            physical,
        })
    }

    /// The candidate documents a plan selects (`eval_plan`, the eager
    /// reference executor); `None` for a scan.
    pub fn candidates(&self, plan: &PlanInfo) -> Result<Option<Vec<DocId>>> {
        let mut scratch = free_engine::QueryStats::default();
        Ok(
            match free_engine::exec::eval_plan(&plan.physical, self.0.index(), &mut scratch)? {
                free_engine::exec::Candidates::All => None,
                free_engine::exec::Candidates::Docs(d) => Some(d),
            },
        )
    }

    /// Decodes the whole postings list of `key`; returns its length.
    pub fn decode_postings(&self, key: &[u8]) -> Result<usize> {
        Ok(self.0.index().postings(key)?.map_or(0, |p| p.len()))
    }

    /// Drains an `AndCursor` over the cursors of `keys`; returns
    /// `(seeks issued, documents yielded)`.
    pub fn and_cursor(&self, keys: &[Vec<u8>]) -> Result<(u64, u64)> {
        let mut cursors: Vec<Box<dyn PostingsCursor>> = Vec::with_capacity(keys.len());
        for key in keys {
            match self.0.index().cursor(key)? {
                Some(c) => cursors.push(c),
                None => return Ok((0, 0)),
            }
        }
        let mut and = AndCursor::new(cursors)?;
        let mut docs = 0u64;
        while and.current().is_some() {
            docs += 1;
            and.advance()?;
        }
        let mut stats = free_index::CursorStats::default();
        and.collect_stats(&mut stats);
        Ok((stats.seeks, docs))
    }

    /// The index's size: `(postings, file bytes)`.
    pub fn index_size(&self, index_path: &Path) -> (u64, u64) {
        let bytes = std::fs::metadata(index_path).map_or(0, |m| m.len());
        (self.0.index().stats().num_postings, bytes)
    }

    /// Spans the engine's own tracer buffered (0 when it is disabled).
    pub fn engine_spans(&self) -> usize {
        self.0.config().tracer.events().len()
    }
}

// ---------------------------------------------------------------------
// live index
// ---------------------------------------------------------------------

/// Shape of a live directory (`LiveStats`).
#[derive(Clone, Debug, Default)]
pub struct LiveShape {
    pub segments: usize,
    /// Stored document bytes, segments and write buffer together.
    pub doc_bytes: u64,
    /// Document bytes in the write buffer (and so in the WAL).
    pub buffered_bytes: u64,
}

/// Sub-paths of a live directory whose sizes the write-path ratios use.
pub const LIVE_WAL_DIR: &str = free_live::WAL_DIR;
pub const LIVE_SEGMENTS_DIR: &str = free_live::SEGMENTS_DIR;

/// A live (LSM) index directory opened for writing.
pub struct Live(LiveIndex);

impl Live {
    pub fn create(dir: &Path) -> Result<Live> {
        Ok(Live(LiveIndex::create(dir, LiveConfig::default())?))
    }

    /// `LiveIndex::open`: manifest load, WAL replay, segment opens.
    pub fn open(dir: &Path) -> Result<Live> {
        Ok(Live(LiveIndex::open(dir, LiveConfig::default())?))
    }

    pub fn add_batch(&mut self, docs: &[Vec<u8>]) -> Result<Vec<DocId>> {
        Ok(self.0.add_batch(docs)?)
    }

    pub fn delete(&mut self, seq: DocId) -> Result<()> {
        Ok(self.0.delete(seq)?)
    }

    pub fn flush(&mut self) -> Result<bool> {
        Ok(self.0.flush()?)
    }

    pub fn compact(&mut self) -> Result<bool> {
        Ok(self.0.compact()?)
    }

    pub fn num_segments(&self) -> usize {
        self.0.num_segments()
    }

    pub fn shape(&self) -> LiveShape {
        let stats = self.0.stats();
        LiveShape {
            segments: stats.segments.len(),
            doc_bytes: stats.total_bytes,
            buffered_bytes: stats.memtable_bytes,
        }
    }

    /// One read: `snapshot().query(pattern)`, all matches.
    pub fn query(&self, pattern: &str) -> Result<Answer> {
        let result = self.0.snapshot().query(pattern)?;
        let mut digest = AnswerDigest::default();
        for m in &result.matches {
            digest.push(m.seq);
        }
        Ok(digest.finish())
    }
}

// ---------------------------------------------------------------------
// the query service and its wire formats
// ---------------------------------------------------------------------

/// `freegrep::serve::serve` running in this process on an ephemeral port.
pub struct Server {
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::result::Result<(), String>>,
}

impl Server {
    /// Starts the server over the live directory `dir` with
    /// `ServeOptions::new(dir)` and returns once it has bound its port.
    pub fn start(dir: PathBuf) -> Result<Server> {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let options = freegrep::serve::ServeOptions::new(dir);
            freegrep::serve::serve(&options, |addr| {
                let _ = tx.send(addr);
            })
            .map_err(|e| e.to_string())
        });
        match rx.recv() {
            Ok(addr) => Ok(Server { addr, thread }),
            Err(_) => Err(match thread.join() {
                Ok(Err(e)) => e.into(),
                _ => "server thread ended before binding".into(),
            }),
        }
    }

    /// Waits for the server to drain and return (after a shutdown
    /// request was acknowledged).
    pub fn join(self) -> Result<()> {
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.into()),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Wire paths of the HTTP front end.
pub const HTTP_QUERY: &str = "/query";
pub const HTTP_HEALTH: &str = "/healthz";
pub const HTTP_METRICS: &str = "/metrics";
pub const HTTP_SHUTDOWN: &str = "/shutdown";

/// Body of a `POST /query` for `pattern` (all matches, no documents).
pub fn query_body(pattern: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("query", pattern);
    o.finish()
}

/// One line-protocol `add` request carrying `docs`, newline included.
pub fn add_line(docs: &[Vec<u8>]) -> String {
    let mut arr = JsonArray::new();
    for doc in docs {
        arr.push_str(&String::from_utf8_lossy(doc));
    }
    let mut o = JsonObject::new();
    o.field_raw("add", arr.finish());
    let mut line = o.finish();
    line.push('\n');
    line
}

/// Whether a line-protocol reply acknowledged the request.
pub fn line_reply_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// Parses a `/query` reply body into its match list's digest. The
/// matches are `{"seq":N,"spans":M}` objects in sequence order; only
/// the sequence numbers are read, by a scan that does not build a tree
/// (a WEAK query's reply is tens of kilobytes).
pub fn parse_query_reply(body: &[u8]) -> Option<Answer> {
    if !body.starts_with(b"{\"ok\":true") {
        return None;
    }
    let mut digest = AnswerDigest::default();
    let needle = b"{\"seq\":";
    let mut at = 0;
    while let Some(pos) = find(&body[at..], needle) {
        let mut i = at + pos + needle.len();
        let mut seq: u32 = 0;
        while let Some(d) = body.get(i).filter(|b| b.is_ascii_digit()) {
            seq = seq.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
            i += 1;
        }
        digest.push(seq);
        at = i;
    }
    let answer = digest.finish();
    // Cross-check against the reply's own `total`.
    let total_at = find(body, b"\"total\":")? + 8;
    let total: u32 = std::str::from_utf8(body.get(total_at..)?)
        .ok()?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    (total == answer.docs).then_some(answer)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Counters read from the Prometheus text of `GET /metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub requests_ok: f64,
    pub requests_shed: f64,
    pub requests_timeout: f64,
    pub requests_error: f64,
}

pub fn parse_metrics(text: &str) -> ServiceCounters {
    let series = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).filter(|r| r.starts_with(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    ServiceCounters {
        cache_hits: series("free_qcache_hits_total"),
        cache_misses: series("free_qcache_misses_total"),
        requests_ok: series("free_serve_requests_total{status=\"ok\"}"),
        requests_shed: series("free_serve_requests_total{status=\"shed\"}"),
        requests_timeout: series("free_serve_requests_total{status=\"timeout\"}"),
        requests_error: series("free_serve_requests_total{status=\"error\"}"),
    }
}
