//! Differential tests for the streaming executor: the cursor-combinator
//! path must return byte-identical candidates to the eager slice
//! reference, over both the in-memory index and the blocked on-disk
//! format, and confirmation must return the same matches for any thread
//! count — also where the inline first batch hands over to the helper
//! threads, when a budget runs out between two batches, when a first-k
//! query stops, and for a SCAN cut into ranges of the corpus.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::{Corpus, CorpusWriter, DocId, MemCorpus};
use free_engine::exec::stream::{
    compile_plan, confirm_source, CandidateSource, StreamState, BATCH_PER_WORKER,
};
use free_engine::exec::{eval_plan, Candidates};
use free_engine::metrics::QueryStats;
use free_engine::plan::physical::PhysicalPlan;
use free_engine::{CancelToken, Engine, EngineConfig, Error, RequestBudget};
use free_index::cursor::drain;
use free_index::postings::Postings;
use free_index::{IndexRead, IndexReader, IndexWriter, MemIndex, SliceCursor};
use free_regex::{Finder, Regex, Span};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Key names the plan generator draws from. `zz` is never inserted into
/// the index, exercising the absent-key short-circuit.
const KEYS: [&str; 5] = ["k0", "k1", "k2", "k3", "zz"];

fn arb_postings() -> impl Strategy<Value = Vec<u32>> {
    // Up to 400 docs over a 2_000-doc universe: lists long enough that
    // the on-disk format stores some of them blocked (> 128 postings).
    prop::collection::btree_set(0u32..2_000, 0..400).prop_map(|s| s.into_iter().collect())
}

fn arb_index_content() -> impl Strategy<Value = BTreeMap<&'static str, Vec<u32>>> {
    (
        arb_postings(),
        arb_postings(),
        arb_postings(),
        arb_postings(),
    )
        .prop_map(|(a, b, c, d)| {
            let mut m = BTreeMap::new();
            m.insert("k0", a);
            m.insert("k1", b);
            m.insert("k2", c);
            m.insert("k3", d);
            m
        })
}

fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    let key = (0usize..KEYS.len()).prop_map(|i| KEYS[i]);
    let leaf = prop::collection::vec(key, 1..3).prop_map(|keys| PhysicalPlan::Fetch {
        gram: b"g".to_vec(),
        keys: keys
            .into_iter()
            .map(|k| k.as_bytes().to_vec().into_boxed_slice())
            .collect(),
        estimate: 0,
    });
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(PhysicalPlan::And),
            prop::collection::vec(inner, 2..4).prop_map(PhysicalPlan::Or),
        ]
    })
}

fn build_mem(content: &BTreeMap<&str, Vec<u32>>) -> MemIndex {
    let mut idx = MemIndex::new();
    for (key, docs) in content {
        for &d in docs {
            idx.add(key.as_bytes(), d);
        }
    }
    idx
}

fn build_disk(content: &BTreeMap<&str, Vec<u32>>, name: &str) -> IndexReader {
    let dir = std::env::temp_dir().join(format!("free-stream-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("idx.free");
    let mut w = IndexWriter::create(&path).unwrap();
    for (key, docs) in content {
        if !docs.is_empty() {
            w.add(key.as_bytes(), &Postings::from_sorted(docs)).unwrap();
        }
    }
    w.finish().unwrap()
}

fn eager_docs<I: IndexRead>(plan: &PhysicalPlan, index: &I) -> Vec<u32> {
    let mut stats = QueryStats::default();
    match eval_plan(plan, index, &mut stats).unwrap() {
        Candidates::Docs(d) => d,
        Candidates::All => panic!("generated plans never scan"),
    }
}

fn streamed_docs<I: IndexRead>(plan: &PhysicalPlan, index: &I) -> Vec<u32> {
    let mut stats = QueryStats::default();
    let mut cursor = compile_plan(plan, index, &mut stats).unwrap().unwrap();
    drain(&mut *cursor).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cursor Fetch/AND/OR equals the eager slice reference, and the
    /// blocked on-disk index equals the in-memory index, for any plan.
    #[test]
    fn cursor_plans_agree_with_eager_reference(
        content in arb_index_content(),
        plan in arb_plan(),
    ) {
        let mem = build_mem(&content);
        let want = eager_docs(&plan, &mem);
        prop_assert_eq!(&streamed_docs(&plan, &mem), &want, "memindex cursor vs eager");

        let disk = build_disk(&content, "agree");
        prop_assert_eq!(&eager_docs(&plan, &disk), &want, "disk eager vs mem eager");
        prop_assert_eq!(&streamed_docs(&plan, &disk), &want, "disk cursor vs eager");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end: the engine returns identical matches with 1 and 4
    /// confirmation threads, including first-k prefixes.
    #[test]
    fn thread_count_does_not_change_matches(
        docs in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' '), Just(b'x')],
                0..40,
            ),
            1..25,
        ),
        k in 1usize..6,
    ) {
        let corpus = MemCorpus::from_docs(docs);
        let pattern = "ab|bca*";
        let engine_with = |threads: usize| {
            Engine::build_in_memory(
                corpus.clone(),
                EngineConfig {
                    usefulness_threshold: 0.6,
                    max_gram_len: 6,
                    num_threads: threads,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        let seq = engine_with(1);
        let par = engine_with(4);

        let mut a = seq.query(pattern).unwrap();
        let mut b = par.query(pattern).unwrap();
        let want = a.all_matches().unwrap();
        prop_assert_eq!(&b.all_matches().unwrap(), &want);
        prop_assert_eq!(a.stats().docs_examined, b.stats().docs_examined);
        prop_assert_eq!(a.stats().matching_docs, b.stats().matching_docs);

        let mut a = seq.query(pattern).unwrap();
        let mut b = par.query(pattern).unwrap();
        prop_assert_eq!(a.first_k_matches(k).unwrap(), b.first_k_matches(k).unwrap());
    }
}

/// Acceptance criterion: a lopsided AND over the blocked on-disk index
/// must skip postings (whole blocks) rather than decode everything.
#[test]
fn lopsided_and_skips_postings_on_blocked_index() {
    let mut content: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    content.insert("common", (0..20_000).collect());
    content.insert("rare", vec![3, 9_999, 19_998]);
    let disk = build_disk(&content, "lopsided");

    let key = |s: &str| s.as_bytes().to_vec().into_boxed_slice();
    let plan = PhysicalPlan::And(vec![
        PhysicalPlan::Fetch {
            gram: b"rare".to_vec(),
            keys: vec![key("rare")],
            estimate: 3,
        },
        PhysicalPlan::Fetch {
            gram: b"common".to_vec(),
            keys: vec![key("common")],
            estimate: 20_000,
        },
    ]);

    let mut stats = QueryStats::default();
    let mut cursor = compile_plan(&plan, &disk, &mut stats).unwrap().unwrap();
    let docs = drain(&mut *cursor).unwrap();
    assert_eq!(docs, vec![3, 9_999, 19_998]);

    let mut cs = free_index::CursorStats::default();
    cursor.collect_stats(&mut cs);
    assert!(
        cs.blocks_decoded > 0,
        "the 20k-doc list must be stored blocked: {cs:?}"
    );
    assert!(
        cs.postings_skipped > 0,
        "lopsided AND must skip postings: {cs:?}"
    );
    assert!(
        cs.postings_decoded < 20_000,
        "the common list must not be fully decoded: {cs:?}"
    );
}

/// The same skip accounting must surface in `QueryStats` when the query
/// runs through the engine over an on-disk index.
#[test]
fn engine_reports_postings_skipped_on_disk_index() {
    let dir = std::env::temp_dir().join(format!("free-stream-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Every doc contains "commongram"; few contain "rareneedle". The AND
    // of both grams is maximally lopsided.
    let docs: Vec<Vec<u8>> = (0..600)
        .map(|i| {
            if i % 200 == 7 {
                format!("commongram rareneedle {i}").into_bytes()
            } else {
                format!("commongram filler {i}").into_bytes()
            }
        })
        .collect();
    let corpus = MemCorpus::from_docs(docs);
    let config = EngineConfig {
        usefulness_threshold: 1.0,
        max_gram_len: 10,
        prune_selectivity: 1.0, // keep the common list in the plan
        ..EngineConfig::default()
    };
    let engine = Engine::build_on_disk(corpus, config, dir.join("idx.free")).unwrap();
    let mut r = engine.query("commongram.*rareneedle").unwrap();
    let matching = r.matching_docs().unwrap();
    assert_eq!(matching, vec![7, 207, 407]);
    let stats = r.stats();
    assert!(
        stats.postings_skipped > 0,
        "lopsided AND must report skipped postings: {stats}"
    );
    assert!(stats.cursor_seeks > 0, "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `n` pages, two in three matching `ne+dle` (some twice, so span lists
/// differ from page to page), for the boundary tests below.
fn boundary_corpus(n: usize) -> MemCorpus {
    MemCorpus::from_docs(
        (0..n)
            .map(|i| match i % 3 {
                0 => format!("page {i}: a needle, then a neeedle").into_bytes(),
                1 => format!("page {i}: only hay").into_bytes(),
                _ => format!("page {i}: one needle").into_bytes(),
            })
            .collect(),
    )
}

/// What one confirmation pass delivered: the matches in delivery order,
/// its counters (clocks zeroed), and how it ended.
type Confirmed = (Vec<(DocId, Vec<Span>)>, QueryStats, Result<(), Error>);

/// Confirms `source` with `threads`, cancelling `cancel` as soon as
/// `cancel_at` documents have been delivered.
fn confirm_with(
    corpus: &MemCorpus,
    source: &mut CandidateSource,
    threads: usize,
    cancel: Option<(&CancelToken, usize)>,
) -> Confirmed {
    let regex = Regex::new("ne+dle").unwrap();
    let budget = match cancel {
        Some((token, _)) => RequestBudget::unlimited().cancelled_by(token.clone()),
        None => RequestBudget::unlimited(),
    };
    let mut stats = QueryStats::default();
    let mut hits = Vec::new();
    let outcome = confirm_source(
        corpus,
        &regex,
        source,
        true,
        &[],
        threads,
        &budget,
        &mut stats,
        &mut |doc, spans| {
            hits.push((doc, spans));
            if let Some((token, at)) = cancel {
                if hits.len() == at {
                    token.cancel();
                }
            }
            true
        },
    );
    stats.index_time = Default::default();
    stats.confirm_time = Default::default();
    (hits, stats, outcome)
}

/// Candidate counts on both sides of every batch boundary give the same
/// matches, in the same order, with the same spans and the same counters
/// at 1, 2 and 4 threads — whether the candidates arrive materialized or
/// as a stream, and so whether they are confirmed inline (one batch or
/// less) or by the helpers (anything more).
#[test]
fn inline_and_parallel_confirmation_agree_at_batch_boundaries() {
    let mut counts = vec![0, 1];
    for threads in [1, 2, 4] {
        let batch = threads * BATCH_PER_WORKER;
        counts.extend([batch - 1, batch, batch + 1, 3 * batch]);
    }
    counts.sort_unstable();
    counts.dedup();
    for &n in &counts {
        let corpus = boundary_corpus(n);
        let ids: Vec<DocId> = (0..n as DocId).collect();
        let (want, want_stats, outcome) =
            confirm_with(&corpus, &mut CandidateSource::Docs(ids.clone()), 1, None);
        outcome.unwrap();
        assert_eq!(want.len(), n - (n + 1) / 3, "n={n}");
        assert_eq!(want_stats.docs_examined, n);
        for threads in [1, 2, 4] {
            let mut docs = CandidateSource::Docs(ids.clone());
            let cursor = Box::new(SliceCursor::new(ids.clone()));
            let mut stream = CandidateSource::Stream(StreamState::new(cursor));
            for source in [&mut docs, &mut stream] {
                let (got, stats, outcome) = confirm_with(&corpus, source, threads, None);
                outcome.unwrap();
                assert_eq!(got, want, "n={n} threads={threads}");
                // A streamed pass also counts what its cursor did; the
                // confirmation counters must not differ.
                let mut stats = stats;
                stats.candidates = want_stats.candidates;
                stats.postings_decoded = want_stats.postings_decoded;
                assert_eq!(stats, want_stats, "n={n} threads={threads}");
            }
        }
    }
}

/// A budget that runs out while batch `k` is being folded is noticed at
/// the next batch boundary: the caller gets a structured error after
/// exactly the first `k` batches — every match in them, none beyond, and
/// counters to match — for any thread count.
#[test]
fn budget_expiring_at_a_batch_boundary_yields_an_exact_prefix() {
    for threads in [1usize, 2, 4] {
        let batch = threads * BATCH_PER_WORKER;
        let n = 4 * batch + 5;
        let corpus = boundary_corpus(n);
        let ids: Vec<DocId> = (0..n as DocId).collect();
        let (full, _, outcome) =
            confirm_with(&corpus, &mut CandidateSource::Docs(ids.clone()), 1, None);
        outcome.unwrap();
        // Batch 1 is the inline one, batches 2.. the helpers'.
        for batches in [1, 2, 3] {
            let boundary = (batches * batch) as DocId;
            let prefix: Vec<_> = full
                .iter()
                .filter(|(d, _)| *d < boundary)
                .cloned()
                .collect();
            let token = CancelToken::new();
            // Cancel in the middle of the last batch that may be folded.
            let cancel_at = prefix.len() - 3;
            let (got, stats, outcome) = confirm_with(
                &corpus,
                &mut CandidateSource::Docs(ids.clone()),
                threads,
                Some((&token, cancel_at)),
            );
            assert!(
                matches!(outcome, Err(Error::Cancelled)),
                "threads={threads} batches={batches}: {outcome:?}"
            );
            assert_eq!(got, prefix, "threads={threads} batches={batches}");
            assert_eq!(stats.docs_examined, batches * batch);
            assert_eq!(stats.matching_docs, prefix.len());
            assert_eq!(
                stats.match_count,
                prefix.iter().map(|(_, s)| s.len()).sum::<usize>()
            );
        }
    }
}

/// A page of at least `len` bytes of one of four kinds: matching
/// `ne+dle` twice, once at its end, holding the prefilter's literal but
/// no match, or plain hay that the prefilter rejects.
fn sized_page(i: usize, len: usize, kind: u8) -> Vec<u8> {
    let mut page = format!("page {i}: ").into_bytes();
    match kind {
        0 => page.extend_from_slice(b"a needle, then a neeedle "),
        2 => page.extend_from_slice(b"a candle "),
        _ => {}
    }
    while page.len() < len {
        page.extend_from_slice(b"hay ");
    }
    if kind == 1 {
        page.extend_from_slice(b"one needle");
    }
    page
}

/// Writes `pages` to a fresh on-disk corpus store.
fn disk_corpus(pages: &[Vec<u8>]) -> free_corpus::DiskCorpus {
    static STORES: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-stream-units-{}-{}",
        std::process::id(),
        STORES.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = CorpusWriter::create(&dir).unwrap();
    for page in pages {
        w.append(page).unwrap();
    }
    let corpus = w.finish().unwrap();
    // The open store keeps reading its unlinked files.
    std::fs::remove_dir_all(&dir).unwrap();
    corpus
}

/// How a confirmation pass ends.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// Every candidate is confirmed.
    Never,
    /// The visitor stops after the k-th match (first-k).
    FirstK(usize),
    /// A cancel token trips as the k-th match is delivered.
    CancelAt(usize),
}

/// Which candidate source a pass confirms.
#[derive(Clone, Copy, Debug)]
enum Source {
    Docs,
    Stream,
    All,
}

/// Confirms `ids` (every page, for [`Source::All`]) from `source` with
/// `threads`, stopping as `stop` says; the counters come back with their
/// clocks zeroed and the cursor-side counters cleared, since a streamed
/// pass pulls further ahead with more threads.
fn confirm_units_with<C: Corpus>(
    corpus: &C,
    source: Source,
    ids: &[DocId],
    threads: usize,
    stop: Stop,
) -> Confirmed {
    let regex = Regex::new("ne+dle").unwrap();
    let prefilter = [Finder::new(b"dle")];
    let token = CancelToken::new();
    let budget = RequestBudget::unlimited().cancelled_by(token.clone());
    let mut source = match source {
        Source::Docs => CandidateSource::Docs(ids.to_vec()),
        Source::Stream => {
            CandidateSource::Stream(StreamState::new(Box::new(SliceCursor::new(ids.to_vec()))))
        }
        Source::All => CandidateSource::All,
    };
    let mut stats = QueryStats::default();
    let mut hits = Vec::new();
    let outcome = confirm_source(
        corpus,
        &regex,
        &mut source,
        true,
        &prefilter,
        threads,
        &budget,
        &mut stats,
        &mut |doc, spans| {
            hits.push((doc, spans));
            match stop {
                Stop::Never => true,
                Stop::FirstK(k) => hits.len() < k,
                Stop::CancelAt(k) => {
                    if hits.len() == k {
                        token.cancel();
                    }
                    true
                }
            }
        },
    );
    stats.index_time = Default::default();
    stats.confirm_time = Default::default();
    stats.scan_time = Default::default();
    stats.candidates = 0;
    stats.postings_decoded = 0;
    (hits, stats, outcome)
}

/// One corpus's [`confirm_units_with`].
type Confirmer<'a> = dyn Fn(Source, &[DocId], usize, Stop) -> Confirmed + 'a;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense candidate sets, materialized or streamed, and
    /// SCANs of corpora spanning one range or several, over memory and
    /// disk: any thread count delivers the matches, spans and counters of
    /// one thread, also when a first-k visitor stops at a random match.
    /// A cancel at a random match ends every pass at the first batch
    /// boundary after it, with exactly what one thread confirms of the
    /// candidates before that boundary.
    #[test]
    fn any_thread_count_confirms_like_one(
        sizes in prop::collection::vec((0usize..4_000, 0u8..4), 1..500),
        every in prop_oneof![Just(1usize), Just(2), Just(23)],
        on_disk in any::<bool>(),
        source in prop_oneof![Just(Source::Docs), Just(Source::Stream), Just(Source::All)],
        threads in 1usize..=7,
        stop in prop_oneof![
            Just(Stop::Never),
            (1usize..100).prop_map(Stop::FirstK),
            (1usize..100).prop_map(Stop::CancelAt),
        ],
    ) {
        let pages: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(len, kind))| sized_page(i, len, kind))
            .collect();
        let ids: Vec<DocId> = match source {
            Source::All => (0..pages.len() as DocId).collect(),
            _ => (0..pages.len() as DocId).filter(|&d| (d as usize).is_multiple_of(every)).collect(),
        };
        let check = |corpus: &Confirmer<'_>| {
            let (want, want_stats, want_outcome) = corpus(source, &ids, 1, Stop::Never);
            want_outcome.unwrap();
            let (got, stats, outcome) = corpus(source, &ids, threads, stop);
            match stop {
                Stop::CancelAt(k) if k <= want.len() => {
                    prop_assert!(matches!(outcome, Err(Error::Cancelled)), "{outcome:?}");
                    // The batch boundary after the k-th match: a batch is
                    // `threads` units of ids, or one range of a SCAN.
                    let at = ids.iter().position(|&d| d == want[k - 1].0).unwrap();
                    let end = match source {
                        Source::All => stats.docs_examined,
                        _ => {
                            let batch = threads * BATCH_PER_WORKER;
                            ids.len().min((at / batch + 1) * batch)
                        }
                    };
                    prop_assert!(end > at);
                    let (prefix, prefix_stats, prefix_outcome) =
                        corpus(Source::Docs, &ids[..end], 1, Stop::Never);
                    prefix_outcome.unwrap();
                    prop_assert_eq!(&got, &prefix);
                    prop_assert_eq!(&stats, &prefix_stats);
                    if let Source::All = source {
                        // Ranges do not depend on the thread count.
                        let (one, one_stats, _) = corpus(source, &ids, 1, stop);
                        prop_assert_eq!(&got, &one);
                        prop_assert_eq!(&stats, &one_stats);
                    }
                }
                _ => {
                    outcome.unwrap();
                    let (one, one_stats, one_outcome) = corpus(source, &ids, 1, stop);
                    one_outcome.unwrap();
                    prop_assert_eq!(&got, &one);
                    prop_assert_eq!(&stats, &one_stats);
                    if let Stop::Never = stop {
                        prop_assert_eq!(&got, &want);
                        prop_assert_eq!(&stats, &want_stats);
                    }
                }
            }
            Ok(())
        };
        if on_disk {
            let corpus = disk_corpus(&pages);
            check(&|source, ids, threads, stop| {
                confirm_units_with(&corpus, source, ids, threads, stop)
            })?;
        } else {
            let corpus = MemCorpus::from_docs(pages);
            check(&|source, ids, threads, stop| {
                confirm_units_with(&corpus, source, ids, threads, stop)
            })?;
        }
    }
}
