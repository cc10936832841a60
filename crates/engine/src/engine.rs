//! The engine façade: index construction plus the query entry point.

use crate::config::{EngineConfig, IndexKind};
use crate::exec::results::QueryResult;
use crate::exec::stream::{compile_plan, CandidateSource, StreamState};
use crate::grams::GramMatcher;
use crate::metrics::{BuildStats, QueryStats};
use crate::prepare::PreparedQuery;
use crate::select::{enumerate_complete, mine, MiningStats, SelectedGram};
use crate::Result;
use free_corpus::Corpus;
use free_index::{CountedPostings, CountedRange, IndexRead, IndexReader, IndexWriter, MemIndex};
use std::path::Path;
use std::time::{Duration, Instant};

/// A FREE engine: a corpus, a gram index over it, and the runtime
/// machinery to answer regex queries (Figure 1's "runtime matching
/// engine", with the index construction engine folded into the `build_*`
/// constructors).
pub struct Engine<C: Corpus, I: IndexRead> {
    corpus: C,
    index: I,
    config: EngineConfig,
    build_stats: BuildStats,
}

/// The all-in-memory engine used by tests and small corpora.
pub type InMemoryEngine = Engine<free_corpus::MemCorpus, MemIndex>;

/// Selects gram keys per the configured index kind. Returns the keys and
/// the mining statistics (per-pass counters are empty for `Complete`,
/// which enumerates in one scan rather than mining). Public so segment
/// builders outside this crate (the live index) mine with the same policy.
pub fn select_keys<C: Corpus>(
    corpus: &C,
    config: &EngineConfig,
) -> Result<(Vec<SelectedGram>, MiningStats)> {
    let selected = select_timed(corpus, config)?;
    Ok((selected.keys, selected.mining))
}

/// [`select_keys`] in a `build.select` child span of `build`, which
/// records the key count, the passes, and the time spent mining and
/// making the keys of the mined grams.
fn select_in_span<C: Corpus>(
    build: &free_trace::Span,
    corpus: &C,
    config: &EngineConfig,
) -> Result<(Vec<SelectedGram>, MiningStats)> {
    let mut span = build.child("build.select");
    let selected = select_timed(corpus, config)?;
    span.record("keys", selected.keys.len());
    span.record("passes", selected.mining.passes);
    span.record("mine_us", selected.mine_time.as_micros() as u64);
    span.record("shell_us", selected.shell_time.as_micros() as u64);
    Ok((selected.keys, selected.mining))
}

/// [`select_keys`]'s keys and statistics, and how long mining and making
/// the keys of the mined grams took.
struct Selected {
    keys: Vec<SelectedGram>,
    mining: MiningStats,
    mine_time: Duration,
    shell_time: Duration,
}

fn select_timed<C: Corpus>(corpus: &C, config: &EngineConfig) -> Result<Selected> {
    config.validate()?;
    let started = Instant::now();
    if config.index_kind == IndexKind::Complete {
        let keys = enumerate_complete(corpus, 2.min(config.max_gram_len), config.max_gram_len)?;
        let mining = MiningStats {
            passes: 1,
            ..MiningStats::default()
        };
        return Ok(Selected {
            keys,
            mining,
            mine_time: started.elapsed(),
            shell_time: Duration::ZERO,
        });
    }
    let mined = mine(corpus, &config.select_config())?;
    let mine_time = started.elapsed();
    let started = Instant::now();
    let selection = match config.index_kind {
        IndexKind::Presuf => mined.presuf_shell(),
        IndexKind::Multigram | IndexKind::Complete => mined.multigrams(),
    };
    Ok(Selected {
        keys: selection.grams,
        mining: selection.stats,
        mine_time,
        shell_time: started.elapsed(),
    })
}

/// The Aho-Corasick automaton over `keys`, pattern `i` being `keys[i]`.
fn matcher_for(keys: &[SelectedGram]) -> GramMatcher {
    let patterns: Vec<&[u8]> = keys.iter().map(|g| &*g.gram).collect();
    GramMatcher::new(&patterns)
}

/// One corpus scan that reports, in document order, every `(key, doc)`
/// pair with pattern `key` of `matcher` occurring in `doc`, each pair once.
fn scan_postings<C: Corpus>(
    corpus: &C,
    matcher: &mut GramMatcher,
    sink: &mut dyn FnMut(usize, free_corpus::DocId) -> Result<()>,
) -> Result<()> {
    let mut pending: Result<()> = Ok(());
    corpus.scan(&mut |doc, bytes| {
        let mut ok = true;
        matcher.match_distinct(bytes, u64::from(doc), &mut |pi| {
            if pending.is_ok() {
                if let Err(e) = sink(pi as usize, doc) {
                    pending = Err(e);
                    ok = false;
                }
            }
        });
        ok
    })?;
    pending
}

/// Generates postings for the selected keys in one corpus scan, feeding
/// them to `sink` in document order. Public for the same reason as
/// [`select_keys`]; a build that writes an index file should call
/// [`build_index`], which never handles key bytes per posting.
pub fn generate_postings<C: Corpus>(
    corpus: &C,
    keys: &[SelectedGram],
    sink: &mut dyn FnMut(&[u8], free_corpus::DocId) -> Result<()>,
) -> Result<()> {
    scan_postings(corpus, &mut matcher_for(keys), &mut |key, doc| {
        sink(&keys[key].gram, doc)
    })
}

/// Builds the index file for `keys` over `corpus` at `index_path` and
/// opens it: the shared final stage of every on-disk build (the batch
/// engine, a live flush).
///
/// `keys` is [`select_keys`]'s output: sorted, and each `doc_count`
/// exact. The counts size
/// one [`CountedPostings`] buffer of 4 bytes per posting, corpus scans
/// fill it by key index, and it is written out in key order. If the
/// buffer would exceed `memory_budget` bytes the keys are cut into
/// consecutive waves that fit (a lone key may exceed it), one buffer
/// each. A wave's keys are cut again into consecutive ranges of about
/// equal postings, one per core the build may use
/// ([`build_ranges`](crate::select::build_ranges)), scanned at once, each
/// by its own thread with its own matcher into its own part of the
/// buffer. Ranges of a sorted dictionary written in order make the same
/// file for any budget or core count. Keys that break the contract make
/// the build fail with [`free_index::Error::Corrupt`].
pub fn build_index<C: Corpus>(
    corpus: &C,
    keys: &[SelectedGram],
    index_path: &Path,
    memory_budget: usize,
) -> Result<IndexReader> {
    let ranges = crate::select::build_ranges(corpus.total_bytes());
    Ok(build_index_in(corpus, keys, index_path, memory_budget, ranges)?.index)
}

/// What [`build_index_in`] built, and what it took.
struct Constructed {
    index: IndexReader,
    /// Key ranges, one corpus scan each.
    scans: usize,
    /// The most bytes the matchers held at once.
    matcher_bytes: usize,
    /// Keys the matchers report per trie leaf.
    keys_per_leaf: f64,
    /// Wall time of the key-range scans, the writes after them excluded.
    scan_time: Duration,
}

/// [`build_index`] cutting each wave into `ranges` key ranges.
fn build_index_in<C: Corpus>(
    corpus: &C,
    keys: &[SelectedGram],
    index_path: &Path,
    memory_budget: usize,
    ranges: usize,
) -> Result<Constructed> {
    let mut writer = IndexWriter::create(index_path)?;
    let max_postings =
        (memory_budget / std::mem::size_of::<free_corpus::DocId>()).min(u32::MAX as usize) as u64;
    let fill = |mut range: CountedRange<'_>, mut matcher: GramMatcher| -> Result<()> {
        scan_postings(corpus, &mut matcher, &mut |key, doc| {
            Ok(range.add(key, doc)?)
        })
    };
    let (mut scans, mut matcher_bytes) = (0, 0);
    let (mut leaves, mut leaf_keys) = (0, 0);
    let mut scan_time = Duration::ZERO;
    let mut rest = keys;
    while !rest.is_empty() {
        // The keys before the first one that overflows the buffer, and
        // never none: a lone key may exceed the budget.
        let mut postings = 0u64;
        let fit = rest
            .iter()
            .position(|g| {
                postings += u64::from(g.doc_count);
                postings > max_postings
            })
            .unwrap_or(rest.len())
            .max(1);
        let (wave, later) = rest.split_at(fit);
        let mut counted = CountedPostings::new(wave.iter().map(|g| g.doc_count))?;
        let cuts = balanced_cuts(wave, ranges);
        let bounds: Vec<usize> = (std::iter::once(0).chain(cuts.iter().copied()))
            .chain([wave.len()])
            .collect();
        scans += bounds.len() - 1;
        // The calling thread builds every matcher and scans the first
        // range itself; the other threads only scan, and allocate nothing
        // that outlives them (glibc keeps what a thread frees in that
        // thread's own malloc arena).
        let key_ranges = bounds.windows(2).map(|b| &wave[b[0]..b[1]]);
        let mut parts = key_ranges.zip(counted.split_at_keys(&cuts));
        let mut wave_bytes = 0;
        let mut matcher = |range| {
            let matcher = matcher_for(range);
            wave_bytes += matcher.resident_bytes();
            leaves += matcher.num_leaves();
            leaf_keys += matcher.leaf_keys();
            matcher
        };
        let started = Instant::now();
        let filled: Vec<Result<()>> = std::thread::scope(|s| {
            let first = parts.next();
            let others: Vec<_> = parts
                .map(|(range, part)| {
                    let matcher = matcher(range);
                    s.spawn(move || fill(part, matcher))
                })
                .collect();
            let first = first.map_or(Ok(()), |(range, part)| fill(part, matcher(range)));
            std::iter::once(first)
                .chain(
                    others
                        .into_iter()
                        .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
                )
                .collect()
        });
        scan_time += started.elapsed();
        filled.into_iter().collect::<Result<()>>()?;
        matcher_bytes = matcher_bytes.max(wave_bytes);
        counted.write_to(wave.iter().map(|g| &*g.gram), &mut writer)?;
        rest = later;
    }
    Ok(Constructed {
        index: writer.finish()?,
        scans,
        matcher_bytes,
        keys_per_leaf: leaf_keys as f64 / leaves.max(1) as f64,
        scan_time,
    })
}

/// Where to cut the sorted `wave` into at most `ranges` consecutive key
/// ranges of about equal postings: the first key of every range but the
/// first. A range ends at the first key whose postings before it reach
/// the next share; a key larger than a share takes the shares it spans.
fn balanced_cuts(wave: &[SelectedGram], ranges: usize) -> Vec<usize> {
    let total = u128::from(wave.iter().map(|g| u64::from(g.doc_count)).sum::<u64>());
    let ranges = ranges as u128;
    let mut cuts = Vec::new();
    // Shares reached so far, plus one.
    let mut share = 1u128;
    let mut before = 0u128;
    for (i, g) in wave.iter().enumerate() {
        let reached = |share: u128| share < ranges && before * ranges >= total * share;
        if total > 0 && i > 0 && reached(share) {
            cuts.push(i);
            while reached(share) {
                share += 1;
            }
        }
        before += u128::from(g.doc_count);
    }
    cuts
}

impl<C: Corpus> Engine<C, MemIndex> {
    /// Builds an engine whose index lives in memory.
    pub fn build_in_memory(corpus: C, config: EngineConfig) -> Result<Self> {
        let build_span = config.tracer.span("build");
        let select_start = Instant::now();
        let (keys, mining) = select_in_span(&build_span, &corpus, &config)?;
        let select_time = select_start.elapsed();

        let construct_start = Instant::now();
        let mut index = MemIndex::new();
        {
            let mut span = build_span.child("build.construct");
            generate_postings(&corpus, &keys, &mut |key, doc| {
                index.add(key, doc);
                Ok(())
            })?;
            span.record("postings", index.stats().num_postings);
        }
        let construct_time = construct_start.elapsed();

        let build_stats = BuildStats {
            select_time,
            select_passes: mining.passes,
            construct_time,
            num_keys: keys.len(),
            index_stats: index.stats(),
            mining,
        };
        crate::metrics::record_build(free_trace::metrics::global(), &build_stats);
        Ok(Engine {
            corpus,
            index,
            config,
            build_stats,
        })
    }
}

impl<C: Corpus> Engine<C, IndexReader> {
    /// Builds an engine whose index is constructed on disk at
    /// `index_path` (see [`build_index`]).
    pub fn build_on_disk(
        corpus: C,
        config: EngineConfig,
        index_path: impl AsRef<Path>,
    ) -> Result<Self> {
        let build_span = config.tracer.span("build");
        let select_start = Instant::now();
        let (keys, mining) = select_in_span(&build_span, &corpus, &config)?;
        let select_time = select_start.elapsed();

        let construct_start = Instant::now();
        let index = {
            let mut span = build_span.child("build.construct");
            let built = build_index_in(
                &corpus,
                &keys,
                index_path.as_ref(),
                config.build_memory_budget,
                crate::select::build_ranges(corpus.total_bytes()),
            )?;
            span.record("postings", built.index.stats().num_postings);
            span.record("ranges", built.scans);
            span.record("scan_us", built.scan_time.as_micros() as u64);
            span.record("matcher_bytes", built.matcher_bytes);
            span.record("keys_per_leaf", built.keys_per_leaf);
            built.index
        };
        let construct_time = construct_start.elapsed();

        let build_stats = BuildStats {
            select_time,
            select_passes: mining.passes,
            construct_time,
            num_keys: keys.len(),
            index_stats: index.stats(),
            mining,
        };
        crate::metrics::record_build(free_trace::metrics::global(), &build_stats);
        Ok(Engine {
            corpus,
            index,
            config,
            build_stats,
        })
    }

    /// Opens an engine over a previously built on-disk index.
    pub fn open(corpus: C, config: EngineConfig, index_path: impl AsRef<Path>) -> Result<Self> {
        let index = IndexReader::open(index_path)?;
        let build_stats = BuildStats {
            num_keys: index.num_keys(),
            index_stats: index.stats(),
            ..BuildStats::default()
        };
        Ok(Engine {
            corpus,
            index,
            config,
            build_stats,
        })
    }
}

impl<C: Corpus, I: IndexRead> Engine<C, I> {
    /// The corpus being queried.
    pub fn corpus(&self) -> &C {
        &self.corpus
    }

    /// The gram index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Build-time statistics (Table 3's quantities).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Number of data units in the corpus.
    pub fn num_docs(&self) -> usize {
        self.corpus.len()
    }

    /// Compiles a query: prepare the pattern ([`PreparedQuery::new`]),
    /// plan it against the index, and compile the physical plan into a
    /// streaming cursor tree. The returned [`QueryResult`] pulls
    /// candidates and confirms matches lazily. A plan that cannot use the
    /// index scans the corpus, as the paper's engine does.
    pub fn query(&self, pattern: &str) -> Result<QueryResult<'_, C, I>> {
        let mut query_span = self.config.tracer.span("query");
        query_span.record("pattern", pattern);
        let plan_start = Instant::now();
        let prepared = PreparedQuery::new(pattern, &self.config, &query_span)?;
        let physical = {
            let mut span = query_span.child("query.plan");
            let physical = prepared.plan(&self.index, self.corpus.len(), &self.config);
            if span.is_enabled() {
                span.record("class", physical.classify(self.corpus.len()).to_string());
                span.record("estimate", physical.estimate().min(u64::MAX as usize));
            }
            physical
        };
        let mut stats = QueryStats {
            plan_time: plan_start.elapsed(),
            used_scan: physical.is_scan(),
            plan_class: physical.classify(self.corpus.len()),
            ..QueryStats::default()
        };
        let index_start = Instant::now();
        let source = {
            let mut span = query_span.child("query.compile");
            match compile_plan(&physical, &self.index, &mut stats)? {
                Some(cursor) => {
                    let mut st = StreamState::new(cursor);
                    // Surface the work done priming the cursors (slice leaves
                    // decode their whole list at open).
                    st.refresh(&mut stats);
                    span.record("keys_fetched", stats.keys_fetched);
                    CandidateSource::Stream(st)
                }
                None => {
                    stats.candidates = self.corpus.len();
                    span.record("scan", true);
                    CandidateSource::All
                }
            }
        };
        stats.index_time += index_start.elapsed();
        Ok(QueryResult::new(
            self, prepared, physical, source, stats, query_span,
        ))
    }

    /// Human-readable plan description for a query (does not execute it).
    pub fn explain(&self, pattern: &str) -> Result<String> {
        let prepared = PreparedQuery::new(pattern, &self.config, &free_trace::Span::disabled())?;
        let physical = prepared.plan(&self.index, self.corpus.len(), &self.config);
        Ok(format!(
            "pattern:  {pattern}\nlogical:  {:?}\nphysical: {physical:?}\nestimate: {} candidate(s)",
            prepared.logical(),
            match physical.estimate() {
                usize::MAX => "all".to_string(),
                n => n.to_string(),
            }
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use free_corpus::synth::{Generator, SynthConfig};
    use free_corpus::MemCorpus;

    fn tiny_corpus() -> MemCorpus {
        let (corpus, _) = Generator::new(SynthConfig::tiny(120, 9)).build_mem();
        corpus
    }

    /// The engine must be shareable across threads (`&Engine` handed to
    /// a worker pool): corpus reads are positioned, index reads are
    /// positioned, and the config's tracer sinks are `Send + Sync`.
    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine<free_corpus::DiskCorpus, free_index::IndexReader>>();
        assert_send_sync::<InMemoryEngine>();
        assert_send_sync::<EngineConfig>();
    }

    #[test]
    fn build_in_memory_and_query() {
        let corpus = MemCorpus::from_docs(vec![
            b"alpha beta".to_vec(),
            b"gamma delta".to_vec(),
            b"alpha gamma".to_vec(),
        ]);
        let engine = Engine::build_in_memory(
            corpus,
            EngineConfig {
                usefulness_threshold: 0.7,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut r = engine.query("alpha").unwrap();
        assert_eq!(r.matching_docs().unwrap(), vec![0, 2]);
        assert!(!r.used_scan());
    }

    #[test]
    fn index_and_scan_agree_on_synthetic_corpus() {
        let corpus = tiny_corpus();
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        for pattern in [
            r"\.mp3",
            "clinton",
            "motorola",
            "<script>",
            "stanford",
            r"\d\d\d\d\d",
            "nosuchstringanywhere",
        ] {
            let (want, _) = baseline::scan_matching_docs(engine.corpus(), pattern).unwrap();
            let mut r = engine.query(pattern).unwrap();
            let got = r.matching_docs().unwrap();
            assert_eq!(got, want, "pattern {pattern}");
        }
    }

    #[test]
    fn presuf_and_complete_agree_with_multigram() {
        let corpus = tiny_corpus();
        let multigram = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig::with_kind(IndexKind::Multigram),
        )
        .unwrap();
        let presuf =
            Engine::build_in_memory(corpus.clone(), EngineConfig::with_kind(IndexKind::Presuf))
                .unwrap();
        let complete_cfg = EngineConfig {
            max_gram_len: 6, // keep the complete index small in tests
            ..EngineConfig::with_kind(IndexKind::Complete)
        };
        let complete = Engine::build_in_memory(corpus, complete_cfg).unwrap();
        for pattern in [
            r"william\s+[a-z]+\s+clinton",
            r"\.mp3",
            "<script>.*</script>",
        ] {
            let mut a = multigram.query(pattern).unwrap();
            let mut b = presuf.query(pattern).unwrap();
            let mut c = complete.query(pattern).unwrap();
            let want = a.matching_docs().unwrap();
            assert_eq!(b.matching_docs().unwrap(), want, "{pattern} presuf");
            assert_eq!(c.matching_docs().unwrap(), want, "{pattern} complete");
        }
    }

    #[test]
    fn presuf_index_is_smaller() {
        let corpus = tiny_corpus();
        let multigram = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig::with_kind(IndexKind::Multigram),
        )
        .unwrap();
        let presuf =
            Engine::build_in_memory(corpus, EngineConfig::with_kind(IndexKind::Presuf)).unwrap();
        let m = multigram.build_stats();
        let p = presuf.build_stats();
        assert!(p.num_keys <= m.num_keys);
        assert!(p.index_stats.num_postings <= m.index_stats.num_postings);
    }

    #[test]
    fn complete_index_is_larger() {
        let corpus = tiny_corpus();
        let cfg = EngineConfig {
            max_gram_len: 5,
            ..EngineConfig::with_kind(IndexKind::Complete)
        };
        let complete = Engine::build_in_memory(corpus.clone(), cfg).unwrap();
        let multigram = Engine::build_in_memory(
            corpus,
            EngineConfig {
                max_gram_len: 5,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // The tiny test corpus has boosted feature rates and a small
        // vocabulary, so the gap is far smaller than Table 3's 100x; the
        // full experiment harness reproduces the paper-scale ratio.
        assert!(
            complete.build_stats().num_keys > multigram.build_stats().num_keys * 2,
            "complete {} vs multigram {}",
            complete.build_stats().num_keys,
            multigram.build_stats().num_keys
        );
    }

    #[test]
    fn on_disk_engine_agrees_with_memory() {
        let dir = std::env::temp_dir().join(format!("free-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = tiny_corpus();
        let mem = Engine::build_in_memory(corpus.clone(), EngineConfig::default()).unwrap();
        let disk = Engine::build_on_disk(
            corpus.clone(),
            EngineConfig::default(),
            dir.join("idx.free"),
        )
        .unwrap();
        assert_eq!(
            mem.build_stats().index_stats.num_keys,
            disk.build_stats().index_stats.num_keys
        );
        assert_eq!(
            mem.build_stats().index_stats.num_postings,
            disk.build_stats().index_stats.num_postings
        );
        for pattern in ["clinton", r"\.mp3", "ebay"] {
            let mut a = mem.query(pattern).unwrap();
            let mut b = disk.query(pattern).unwrap();
            assert_eq!(
                a.matching_docs().unwrap(),
                b.matching_docs().unwrap(),
                "{pattern}"
            );
        }
        // Reopen from disk.
        let reopened = Engine::open(corpus, EngineConfig::default(), dir.join("idx.free")).unwrap();
        let mut r = reopened.query("clinton").unwrap();
        let mut a = mem.query("clinton").unwrap();
        assert_eq!(r.matching_docs().unwrap(), a.matching_docs().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_number_of_key_ranges_writes_the_same_file() {
        let dir = std::env::temp_dir().join(format!("free-engine-ranges-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = tiny_corpus();
        let (keys, _) = select_keys(&corpus, &EngineConfig::default()).unwrap();
        let build = |budget: usize, ranges: usize| {
            let path = dir.join(format!("{budget}-{ranges}.free"));
            let scans = build_index_in(&corpus, &keys, &path, budget, ranges)
                .unwrap()
                .scans;
            (std::fs::read(&path).unwrap(), scans)
        };
        let (want, _) = build(usize::MAX, 1);
        for ranges in [1, 2, 4] {
            let (bytes, scans) = build(free_index::builder::DEFAULT_MEMORY_BUDGET, ranges);
            assert_eq!(scans, ranges, "one buffer cut into {ranges} ranges");
            assert!(bytes == want, "{ranges} ranges, default budget");
            // 1024 postings in flight: many buffers, each cut into ranges.
            let (bytes, scans) = build(4096, ranges);
            assert!(scans > 4 * ranges, "{scans} scans");
            assert!(bytes == want, "{ranges} ranges, 4096-byte budget");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_traced_build_records_its_key_ranges() {
        let dir = std::env::temp_dir().join(format!("free-engine-traced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = tiny_corpus();
        let ranges = crate::select::build_ranges(corpus.total_bytes());
        let tracer = free_trace::Tracer::enabled();
        let config = EngineConfig {
            tracer: tracer.clone(),
            ..EngineConfig::default()
        };
        Engine::build_on_disk(corpus, config, dir.join("idx.free")).unwrap();
        let events = tracer.events();
        let construct = (events.iter()).find(|e| {
            e.name == "build.construct" && matches!(e.kind, free_trace::EventKind::SpanEnd { .. })
        });
        assert_eq!(
            construct.and_then(|e| e.attr("ranges")),
            Some(&free_trace::Value::U64(ranges as u64))
        );
        assert!(matches!(
            construct.and_then(|e| e.attr("scan_us")),
            Some(&free_trace::Value::U64(_))
        ));
        assert!(matches!(
            construct.and_then(|e| e.attr("matcher_bytes")),
            Some(&free_trace::Value::U64(bytes)) if bytes > 0
        ));
        // The default dictionary is a presuf shell: one key per leaf.
        assert_eq!(
            construct.and_then(|e| e.attr("keys_per_leaf")),
            Some(&free_trace::Value::F64(1.0))
        );
        let pass = events.iter().find(|e| e.name == "mine.pass").unwrap();
        for attr in [
            "ranges",
            "positions_probed",
            "count_us",
            "fold_us",
            "resolve_us",
        ] {
            assert!(pass.attr(attr).is_some(), "{attr}: {pass:?}");
        }
        let select = (events.iter()).find(|e| {
            e.name == "build.select" && matches!(e.kind, free_trace::EventKind::SpanEnd { .. })
        });
        for attr in ["mine_us", "shell_us"] {
            assert!(
                select.and_then(|e| e.attr(attr)).is_some(),
                "{attr}: {select:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn balanced_cuts_split_postings_evenly() {
        let cut = |counts: &[u32], ranges: usize| -> Vec<usize> {
            let keys: Vec<SelectedGram> = (counts.iter().enumerate())
                .map(|(i, &doc_count)| SelectedGram {
                    gram: vec![i as u8].into(),
                    doc_count,
                })
                .collect();
            balanced_cuts(&keys, ranges)
        };
        // Cut where half the postings are behind, not where a greedy fill
        // of half would stop (30 | 30 | 40: a third scan).
        assert_eq!(cut(&[30, 30, 40], 2), vec![2]);
        assert_eq!(cut(&[30, 30, 40], 1), Vec::<usize>::new());
        assert_eq!(cut(&[5; 8], 4), vec![2, 4, 6]);
        // A key larger than a share takes the shares it spans.
        assert_eq!(cut(&[1, 100, 1, 1], 4), vec![2]);
        assert_eq!(cut(&[3], 4), Vec::<usize>::new());
        assert_eq!(cut(&[0, 0, 0], 2), Vec::<usize>::new());
        assert!(cut(&[], 2).is_empty());
    }

    #[test]
    fn explain_output() {
        let corpus = tiny_corpus();
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        let out = engine.explain("(Bill|William).*Clinton").unwrap();
        assert!(out.contains("logical:"), "{out}");
        assert!(out.contains("physical:"), "{out}");
        let out = engine.explain(r"\d\d\d\d\d").unwrap();
        assert!(out.contains("SCAN"), "{out}");
    }

    #[test]
    fn anchoring_rejects_index_false_positives() {
        // A doc containing ".mp" and "mp3" separately satisfies the
        // substring-cover plan for the gram ".mp3" but not the literal;
        // the anchoring prefilter must reject it without a DFA pass.
        let corpus = MemCorpus::from_docs(vec![
            b"rare.mp here and xmp3 there plus qqfiller".to_vec(),
            b"a real song.mp3qq link".to_vec(),
            b"background noise qq".to_vec(),
        ]);
        let engine = Engine::build_in_memory(
            corpus,
            EngineConfig {
                usefulness_threshold: 0.7,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut r = engine.query(r"\.mp3qq").unwrap();
        let docs = r.matching_docs().unwrap();
        assert_eq!(docs, vec![1]);
        // The run may or may not have had a false positive to reject
        // depending on the candidate set; it must never exceed the
        // examined count.
        assert!(r.stats().docs_prefiltered <= r.stats().docs_examined);
    }

    #[test]
    fn prefilter_checks_the_longest_literal_first() {
        let needles = |pattern: &str| -> Vec<Vec<u8>> {
            let ast = free_regex::parse(pattern).unwrap();
            crate::build_prefilter(&crate::plan::LogicalPlan::from_ast(&ast, 16))
                .iter()
                .map(|f| f.needle().to_vec())
                .collect()
        };
        // Plan order is left to right; the prefilter reorders.
        assert_eq!(
            needles("the.{0,40}quetzalcoatl.{0,9}and"),
            vec![b"quetzalcoatl".to_vec(), b"and".to_vec(), b"the".to_vec()]
        );
        // Ties break in byte order, repeats collapse, and a gram inside a
        // longer one is still dropped.
        assert_eq!(
            needles("zeta.*alfa.*zeta.*alf"),
            vec![b"alfa".to_vec(), b"zeta".to_vec()]
        );
    }

    #[test]
    fn invalid_pattern_errors() {
        let corpus = MemCorpus::from_docs(vec![b"x".to_vec()]);
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        assert!(engine.query("(").is_err());
    }

    #[test]
    fn null_plans_scan_the_corpus() {
        let corpus = tiny_corpus();
        let n = corpus.len();
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        // `a*` is nullable: its logical plan is NULL, so the physical plan
        // is a scan, and the query runs as one.
        let mut r = engine.query("a*").unwrap();
        assert_eq!(r.matching_docs().unwrap().len(), n);
        assert!(r.used_scan());
        assert_eq!(r.stats().docs_examined, n);
    }

    #[test]
    fn query_stats_carry_plan_class() {
        use crate::plan::physical::PlanClass;
        let corpus = tiny_corpus();
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        let r = engine.query("clinton").unwrap();
        assert_eq!(r.stats().plan_class, PlanClass::Indexed);
        let r = engine.query(r"\d\d\d\d\d").unwrap();
        assert_eq!(r.stats().plan_class, PlanClass::Scan);
        assert!(r.stats().used_scan);
    }

    #[test]
    fn selective_queries_avoid_most_of_the_corpus() {
        let corpus = tiny_corpus();
        let n = corpus.len();
        let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
        let mut r = engine.query("motorola.*(xpc|mpc)[0-9]+").unwrap();
        let _ = r.matching_docs().unwrap();
        assert!(!r.used_scan(), "selective query should use the index");
        assert!(
            r.stats().docs_examined < n / 2,
            "examined {} of {}",
            r.stats().docs_examined,
            n
        );
    }
}
