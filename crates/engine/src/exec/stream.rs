//! Streaming plan execution: cursor compilation plus batched parallel
//! confirmation.
//!
//! [`compile_plan`] turns a [`PhysicalPlan`] into a tree of
//! [`PostingsCursor`] combinators that yields candidate doc ids lazily in
//! increasing order — leaf postings are only decoded where the enclosing
//! intersection might land (skip tables on the blocked on-disk format,
//! galloping over decoded slices in memory).
//!
//! [`confirm_source`] drives confirmation from that cursor in batches.
//! The first batch is always confirmed inline on the calling thread, so
//! a query whose candidates fit in one batch never crosses a thread.
//! With `threads > 1`, a stream that outlives its first batch gets
//! `threads - 1` scoped helpers, spawned once for the rest of the query
//! and fed a chunk of every later batch (the calling thread confirms
//! the first chunk itself), reading candidate data units through shared
//! [`Corpus`] random access. Helpers report per-document outcomes which
//! the calling thread folds back in doc-id order, so results, early-exit
//! points, and every logical cost counter are identical for any thread
//! count.

use super::analyze::Probe;
use crate::budget::RequestBudget;
use crate::metrics::QueryStats;
use crate::plan::PhysicalPlan;
use crate::Result;
use free_corpus::{Corpus, DocId};
use free_index::cursor::{CursorStats, PostingsCursor};
use free_index::{AndCursor, IndexRead, InstrumentedCursor, OrCursor, SliceCursor};
use free_regex::{Finder, Regex, Searcher, Span};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Candidate doc ids pulled per confirmation thread per batch (a batch is
/// `threads` times this); sized so a batch is large enough to amortize
/// handing chunks to the helpers but small enough that first-k queries
/// stop after a sliver of the candidate stream.
pub const BATCH_PER_WORKER: usize = 32;

/// Name of the global counter of confirmation helper threads spawned:
/// zero for a query whose candidates fit in its first batch, at most
/// `threads - 1` for any other, whatever the candidate count.
pub const HELPERS_SPAWNED_COUNTER: &str = "free_confirm_helpers_spawned_total";

/// How many scanned documents go by between budget polls on the scan
/// fallback path (which has no batch boundaries of its own).
const SCAN_CHECK_EVERY: usize = 64;

/// Compiles a physical plan into a primed cursor tree.
///
/// Returns `None` for a root [`PhysicalPlan::Scan`] (every data unit is a
/// candidate — there is nothing to stream). Postings fetched while priming
/// leaf cursors are charged to `stats.keys_fetched`; decode/seek work is
/// accounted per cursor and folded in via [`StreamState::refresh`].
pub fn compile_plan<I: IndexRead>(
    plan: &PhysicalPlan,
    index: &I,
    stats: &mut QueryStats,
) -> Result<Option<Box<dyn PostingsCursor>>> {
    match plan {
        PhysicalPlan::Scan => Ok(None),
        _ => compile_node(plan, index, stats, None).map(Some),
    }
}

/// Compiles one plan node. With `probes`, every operator (an AND, an OR,
/// or a whole Fetch — the smallest unit the planner reasons about) is
/// wrapped in an [`InstrumentedCursor`] and its [`Probe`] is pushed onto
/// `probes`, its children's probes nested inside it in plan order.
pub(crate) fn compile_node<I: IndexRead>(
    plan: &PhysicalPlan,
    index: &I,
    stats: &mut QueryStats,
    probes: Option<&mut Vec<Probe>>,
) -> Result<Box<dyn PostingsCursor>> {
    let mut children = probes.as_ref().map(|_| Vec::new());
    let mut compile_all = |kids: &[PhysicalPlan]| {
        kids.iter()
            .map(|k| compile_node(k, index, stats, children.as_mut()))
            .collect::<Result<Vec<_>>>()
    };
    let cursor: Box<dyn PostingsCursor> = match plan {
        PhysicalPlan::Scan => unreachable!("Scan only occurs at the root"),
        PhysicalPlan::Fetch { keys, .. } => compile_fetch(keys, index, stats)?,
        PhysicalPlan::And(kids) => Box::new(AndCursor::new(compile_all(kids)?)?),
        PhysicalPlan::Or(kids) => Box::new(OrCursor::new(compile_all(kids)?)?),
    };
    let Some(probes) = probes else {
        return Ok(cursor);
    };
    let probe = Probe::new(plan, children.unwrap_or_default());
    let wrapped = InstrumentedCursor::new(cursor, Arc::clone(&probe.counters));
    probes.push(probe);
    Ok(Box::new(wrapped))
}

/// Compiles a Fetch leaf: the intersection of the postings of `keys`.
// `expect`: `pop()` happens in the `len == 1` branch.
#[allow(clippy::expect_used)]
fn compile_fetch<I: IndexRead>(
    keys: &[Box<[u8]>],
    index: &I,
    stats: &mut QueryStats,
) -> Result<Box<dyn PostingsCursor>> {
    // Keys all cover one gram and are intersected. Dedup repeated keys (a
    // plan may mention one key twice; intersecting a list with itself is
    // pure waste) and short-circuit to an empty cursor before opening
    // anything if some key is absent — an AND with a missing leg cannot
    // match.
    let mut uniq: Vec<&[u8]> = keys.iter().map(|k| &**k).collect();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.iter().any(|k| !index.contains_key(k)) {
        return Ok(Box::new(SliceCursor::empty()));
    }
    let mut children: Vec<Box<dyn PostingsCursor>> = Vec::with_capacity(uniq.len());
    for key in uniq {
        match index.cursor(key)? {
            Some(c) => {
                stats.keys_fetched += 1;
                children.push(c);
            }
            None => return Ok(Box::new(SliceCursor::empty())),
        }
    }
    Ok(if children.len() == 1 {
        children.pop().expect("one child")
    } else {
        Box::new(AndCursor::new(children)?)
    })
}

/// A partially-consumed candidate stream: the cursor still to drain plus
/// every doc id already pulled from it (so a later accessor can re-confirm
/// from the start without re-evaluating the index).
pub struct StreamState {
    /// Doc ids pulled from the cursor so far, in order.
    pub(crate) seen: Vec<DocId>,
    /// The remaining stream.
    pub(crate) cursor: Box<dyn PostingsCursor>,
    /// Cursor counters already folded into `QueryStats`, so refreshes add
    /// only the delta.
    reported: CursorStats,
}

impl StreamState {
    /// Wraps a freshly compiled cursor.
    pub fn new(cursor: Box<dyn PostingsCursor>) -> StreamState {
        StreamState {
            seen: Vec::new(),
            cursor,
            reported: CursorStats::default(),
        }
    }

    /// Folds cursor-side work done since the last refresh into `stats`.
    pub fn refresh(&mut self, stats: &mut QueryStats) {
        let mut now = CursorStats::default();
        self.cursor.collect_stats(&mut now);
        stats.postings_decoded += now.postings_decoded - self.reported.postings_decoded;
        stats.cursor_seeks += now.seeks - self.reported.seeks;
        stats.blocks_decoded += now.blocks_decoded - self.reported.blocks_decoded;
        stats.postings_skipped += now.postings_skipped - self.reported.postings_skipped;
        self.reported = now;
        stats.candidates = stats.candidates.max(self.seen.len());
    }
}

/// The candidate set a query result confirms against.
pub enum CandidateSource {
    /// Every data unit is a candidate (scan fallback).
    All,
    /// A lazily-evaluated cursor stream, materialized only on demand.
    Stream(StreamState),
    /// Fully materialized candidates (sorted).
    Docs(Vec<DocId>),
}

/// What one worker observed about one candidate document. Folded on the
/// main thread in doc-id order so stats stay deterministic.
struct Outcome {
    doc: DocId,
    bytes: u64,
    prefiltered: bool,
    matched: bool,
    spans: Vec<Span>,
}

/// Examines one document: prefilter, then one decision pass of the
/// automaton (span extraction, when wanted, answers containment too).
/// Pure with respect to `stats` — counting happens in `fold`.
fn examine(
    searcher: &mut Searcher,
    prefilter: &[Finder],
    want_spans: bool,
    doc: DocId,
    bytes: &[u8],
) -> Outcome {
    let mut outcome = Outcome {
        doc,
        bytes: bytes.len() as u64,
        prefiltered: false,
        matched: false,
        spans: Vec::new(),
    };
    // Anchoring: every required literal must occur before the automaton
    // is engaged (rejection at literal-scan speed).
    if prefilter.iter().any(|f| !f.contains(bytes)) {
        outcome.prefiltered = true;
    } else if want_spans {
        // `find_all` is empty exactly when the page does not match.
        outcome.spans = searcher
            .find_all(bytes)
            .into_iter()
            .map(|m| m.span())
            .collect();
        outcome.matched = !outcome.spans.is_empty();
    } else {
        outcome.matched = searcher.is_match(bytes);
    }
    outcome
}

/// Fetches and examines `ids` in order.
fn examine_all<C: Corpus>(
    corpus: &C,
    searcher: &mut Searcher,
    prefilter: &[Finder],
    want_spans: bool,
    ids: &[DocId],
) -> Result<Vec<Outcome>> {
    ids.iter()
        .map(|&doc| {
            let bytes = corpus.get(doc)?;
            Ok(examine(searcher, prefilter, want_spans, doc, &bytes))
        })
        .collect()
}

/// Folds one outcome into the stats and the caller's visitor. Returns
/// `false` to stop confirmation (first-k early exit). Only consumed
/// outcomes are counted, so counters are identical for any thread count.
fn fold(
    o: Outcome,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
) -> bool {
    stats.docs_examined += 1;
    stats.bytes_examined += o.bytes;
    if o.prefiltered {
        stats.docs_prefiltered += 1;
        return true;
    }
    if !o.matched {
        return true;
    }
    stats.matching_docs += 1;
    stats.match_count += o.spans.len();
    on_doc(o.doc, o.spans)
}

/// Confirms candidate ids delivered by `next_batch`, which fills the
/// buffer with up to `n` ids; an empty fill ends the stream.
///
/// The `budget` is polled once per batch, *before* any of the batch's
/// outcomes are folded: an expired request therefore surfaces a structured
/// error with exactly the counters of the batches already consumed — never
/// a half-folded batch.
///
/// No thread is spawned per batch. The first batch (every batch, with one
/// thread) is confirmed inline; only a stream that outlives it gets
/// helpers, spawned once and fed over channels until the query ends.
// `expect` on `recv()`: a helper only hangs up by panicking, and
// re-raising that on the coordinating thread is the correct way to
// propagate it.
#[allow(clippy::too_many_arguments, clippy::expect_used)]
fn confirm_ids<C: Corpus>(
    corpus: &C,
    regex: &Regex,
    want_spans: bool,
    prefilter: &[Finder],
    threads: usize,
    budget: &RequestBudget,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
    next_batch: &mut dyn FnMut(usize, &mut Vec<DocId>) -> Result<()>,
) -> Result<()> {
    let threads = threads.max(1);
    let mut batch = Vec::new();
    let mut pull = |batch: &mut Vec<DocId>| -> Result<bool> {
        budget.check()?;
        batch.clear();
        next_batch(threads * BATCH_PER_WORKER, batch)?;
        Ok(!batch.is_empty())
    };
    // The lazy DFA caches this searcher builds keep paying off for the
    // whole query, inline or not.
    let mut searcher = regex.searcher();
    for batch_no in 0usize.. {
        if !pull(&mut batch)? {
            return Ok(());
        }
        if threads > 1 && batch_no > 0 {
            break;
        }
        for &doc in &batch {
            let bytes = corpus.get(doc)?;
            let o = examine(&mut searcher, prefilter, want_spans, doc, &bytes);
            if !fold(o, stats, on_doc) {
                return Ok(());
            }
        }
    }
    free_trace::metrics::global()
        .counter(
            HELPERS_SPAWNED_COUNTER,
            "Confirmation helper threads spawned (once per query that outlives its first batch)",
        )
        .add(threads as u64 - 1);
    std::thread::scope(|s| {
        // Each helper owns a searcher for as long as the query runs and
        // answers one chunk per job; hanging up its job channel (leaving
        // this closure) is what ends it.
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                let (job_tx, job_rx) = mpsc::channel::<Vec<DocId>>();
                let (out_tx, out_rx) = mpsc::channel();
                s.spawn(move || {
                    let mut searcher = regex.searcher();
                    for ids in job_rx {
                        let out = examine_all(corpus, &mut searcher, prefilter, want_spans, &ids);
                        if out_tx.send(out).is_err() {
                            break;
                        }
                    }
                });
                (job_tx, out_rx)
            })
            .collect();
        loop {
            let mut chunks = batch.chunks(batch.len().div_ceil(threads));
            let mine = chunks.next().unwrap_or_default();
            let busy: Vec<_> = chunks
                .zip(&helpers)
                .map(|(ids, (job_tx, out_rx))| {
                    // A failed send means the helper died; `recv` below
                    // reports it.
                    let _ = job_tx.send(ids.to_vec());
                    out_rx
                })
                .collect();
            let mut rounds = Vec::with_capacity(threads);
            rounds.push(examine_all(
                corpus,
                &mut searcher,
                prefilter,
                want_spans,
                mine,
            ));
            for out_rx in busy {
                rounds.push(out_rx.recv().expect("confirmation helper panicked"));
            }
            // Chunks are contiguous slices of the sorted batch, so folding
            // them in chunk order preserves doc-id order.
            for r in rounds {
                for o in r? {
                    if !fold(o, stats, on_doc) {
                        return Ok(());
                    }
                }
            }
            if !pull(&mut batch)? {
                return Ok(());
            }
        }
    })
}

/// Confirmation entry point: runs the full regex over the candidate
/// source, folding costs into `stats`.
///
/// `on_doc` receives each matching document and its match spans; returning
/// `false` stops early (first-k queries). Span extraction only happens
/// when `want_spans` is set — pure containment queries stay on the DFA
/// fast path. A [`CandidateSource::Stream`] that gets fully drained is
/// converted in place to [`CandidateSource::Docs`], so later accessors
/// reuse the materialized set instead of re-touching the index.
///
/// The `budget` is polled at every confirmation batch boundary (and every
/// 64 docs on the scan fallback); expiry aborts with
/// [`crate::Error::Timeout`] / [`crate::Error::Cancelled`] and no partial
/// results reach `on_doc`'s caller beyond the batches already folded.
/// Callers without a deadline pass [`RequestBudget::unlimited`].
#[allow(clippy::too_many_arguments)]
pub fn confirm_source<C: Corpus>(
    corpus: &C,
    regex: &Regex,
    source: &mut CandidateSource,
    want_spans: bool,
    prefilter: &[Finder],
    threads: usize,
    budget: &RequestBudget,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
) -> Result<()> {
    match source {
        CandidateSource::All => {
            // Scan confirmation stays sequential, on the borrowed buffers
            // the corpus scan hands out, although the automaton, not the
            // read, is its cost: over the benchmark's `query_batch` corpus
            // (2400 pages) a bare sequential read takes 0.6-0.7 ms of the
            // 2.4-3.7 ms a SCAN query spends. Its cost is charged to
            // `scan_time`, not `confirm_time` — this is a blind scan, not
            // index-assisted confirmation.
            let start = Instant::now();
            let mut searcher = regex.searcher();
            let mut expired: Result<()> = Ok(());
            let mut since_check = 0usize;
            corpus.scan(&mut |doc, bytes| {
                if !budget.is_unlimited() {
                    since_check += 1;
                    if since_check >= SCAN_CHECK_EVERY {
                        since_check = 0;
                        if let Err(e) = budget.check() {
                            expired = Err(e);
                            return false;
                        }
                    }
                }
                let o = examine(&mut searcher, prefilter, want_spans, doc, bytes);
                fold(o, stats, on_doc)
            })?;
            stats.scan_time += start.elapsed();
            expired
        }
        CandidateSource::Docs(ids) => {
            let start = Instant::now();
            let ids: &[DocId] = ids;
            let mut pos = 0;
            let mut next = |n: usize, buf: &mut Vec<DocId>| -> Result<()> {
                let end = (pos + n).min(ids.len());
                buf.extend_from_slice(&ids[pos..end]);
                pos = end;
                Ok(())
            };
            confirm_ids(
                corpus, regex, want_spans, prefilter, threads, budget, stats, on_doc, &mut next,
            )?;
            stats.confirm_time += start.elapsed();
            Ok(())
        }
        CandidateSource::Stream(st) => {
            let start = Instant::now();
            let mut pull_time = Duration::ZERO;
            {
                let seen = &mut st.seen;
                let cursor = &mut st.cursor;
                // Re-deliver previously pulled ids first so every
                // confirmation pass sees the candidate set from the start,
                // then pull fresh batches from the cursor.
                let mut pos = 0usize;
                let mut next = |n: usize, buf: &mut Vec<DocId>| -> Result<()> {
                    if pos < seen.len() {
                        let end = (pos + n).min(seen.len());
                        buf.extend_from_slice(&seen[pos..end]);
                        pos = end;
                        return Ok(());
                    }
                    let t = Instant::now();
                    for _ in 0..n {
                        match cursor.current() {
                            Some(doc) => {
                                seen.push(doc);
                                buf.push(doc);
                                cursor.advance()?;
                            }
                            None => break,
                        }
                    }
                    pos = seen.len();
                    pull_time += t.elapsed();
                    Ok(())
                };
                confirm_ids(
                    corpus, regex, want_spans, prefilter, threads, budget, stats, on_doc, &mut next,
                )?;
            }
            st.refresh(stats);
            stats.index_time += pull_time;
            stats.confirm_time += start.elapsed().saturating_sub(pull_time);
            let drained = if st.cursor.current().is_none() {
                Some(std::mem::take(&mut st.seen))
            } else {
                None
            };
            if let Some(docs) = drained {
                stats.candidates = docs.len();
                *source = CandidateSource::Docs(docs);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{eval_plan, Candidates};
    use crate::plan::{LogicalPlan, PhysicalPlan};
    use free_corpus::MemCorpus;
    use free_index::cursor::drain;
    use free_index::MemIndex;

    fn index_with(keys: &[(&str, &[u32])]) -> MemIndex {
        let mut idx = MemIndex::new();
        for (k, docs) in keys {
            for &d in *docs {
                idx.add(k.as_bytes(), d);
            }
        }
        idx
    }

    fn plan(pattern: &str, idx: &MemIndex) -> PhysicalPlan {
        let logical = LogicalPlan::from_ast(&free_regex::parse(pattern).unwrap(), 16);
        PhysicalPlan::from_logical(&logical, idx)
    }

    fn compiled_docs(pattern: &str, idx: &MemIndex) -> (Option<Vec<u32>>, QueryStats) {
        let mut stats = QueryStats::default();
        let cursor = compile_plan(&plan(pattern, idx), idx, &mut stats).unwrap();
        (cursor.map(|mut c| drain(&mut c).unwrap()), stats)
    }

    #[test]
    fn compiled_plan_matches_eager_reference() {
        let idx = index_with(&[
            ("abc", &[1, 2, 3, 7, 9]),
            ("xyz", &[2, 3, 4, 9]),
            ("qqq", &[1, 9]),
        ]);
        for pattern in ["abc", "abc.*xyz", "abc|xyz", "abc.*xyz.*qqq", "abc|qqq"] {
            let p = plan(pattern, &idx);
            let mut s1 = QueryStats::default();
            let want = match eval_plan(&p, &idx, &mut s1).unwrap() {
                Candidates::Docs(d) => d,
                Candidates::All => panic!("unexpected scan for {pattern}"),
            };
            let (got, _) = compiled_docs(pattern, &idx);
            assert_eq!(got, Some(want), "{pattern}");
        }
    }

    #[test]
    fn scan_plan_compiles_to_none() {
        let idx = index_with(&[("other", &[1])]);
        let (got, _) = compiled_docs("missing", &idx);
        assert_eq!(got, None);
    }

    #[test]
    fn fetch_counts_keys_once_per_unique_key() {
        let idx = index_with(&[("abc", &[1, 4, 9])]);
        let keys = vec![
            b"abc".to_vec().into_boxed_slice(),
            b"abc".to_vec().into_boxed_slice(),
        ];
        let p = PhysicalPlan::Fetch {
            gram: b"abc".to_vec(),
            keys,
            estimate: 3,
        };
        let mut stats = QueryStats::default();
        let mut c = compile_plan(&p, &idx, &mut stats).unwrap().unwrap();
        assert_eq!(drain(&mut c).unwrap(), vec![1, 4, 9]);
        assert_eq!(stats.keys_fetched, 1, "duplicate key must be deduped");
    }

    #[test]
    fn fetch_with_absent_key_short_circuits() {
        let idx = index_with(&[("abc", &[1, 4, 9])]);
        let keys = vec![
            b"abc".to_vec().into_boxed_slice(),
            b"nope".to_vec().into_boxed_slice(),
        ];
        let p = PhysicalPlan::Fetch {
            gram: b"abc".to_vec(),
            keys,
            estimate: 3,
        };
        let mut stats = QueryStats::default();
        let mut c = compile_plan(&p, &idx, &mut stats).unwrap().unwrap();
        assert_eq!(drain(&mut c).unwrap(), Vec::<u32>::new());
        assert_eq!(stats.keys_fetched, 0, "no postings may be fetched");
        assert_eq!(stats.postings_decoded, 0);
    }

    fn confirm_collect(
        corpus: &MemCorpus,
        regex: &Regex,
        source: &mut CandidateSource,
        threads: usize,
        stats: &mut QueryStats,
    ) -> Vec<(DocId, usize)> {
        let mut hits = Vec::new();
        confirm_source(
            corpus,
            regex,
            source,
            true,
            &[],
            threads,
            &RequestBudget::unlimited(),
            stats,
            &mut |doc, spans| {
                hits.push((doc, spans.len()));
                true
            },
        )
        .unwrap();
        hits
    }

    #[test]
    fn parallel_confirm_matches_sequential() {
        let docs: Vec<Vec<u8>> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    format!("doc {i} has a needle in it").into_bytes()
                } else {
                    format!("doc {i} plain hay").into_bytes()
                }
            })
            .collect();
        let corpus = MemCorpus::from_docs(docs);
        let regex = Regex::new("needle").unwrap();
        let ids: Vec<DocId> = (0..200).collect();
        let mut s1 = QueryStats::default();
        let seq = confirm_collect(
            &corpus,
            &regex,
            &mut CandidateSource::Docs(ids.clone()),
            1,
            &mut s1,
        );
        for threads in [2, 4, 7] {
            let mut sn = QueryStats::default();
            let par = confirm_collect(
                &corpus,
                &regex,
                &mut CandidateSource::Docs(ids.clone()),
                threads,
                &mut sn,
            );
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(sn.docs_examined, s1.docs_examined, "threads={threads}");
            assert_eq!(sn.bytes_examined, s1.bytes_examined, "threads={threads}");
            assert_eq!(sn.matching_docs, s1.matching_docs, "threads={threads}");
            assert_eq!(sn.match_count, s1.match_count, "threads={threads}");
        }
    }

    #[test]
    fn parallel_early_stop_counts_match_sequential() {
        let docs: Vec<Vec<u8>> = (0..300).map(|i| format!("hit {i}").into_bytes()).collect();
        let corpus = MemCorpus::from_docs(docs);
        let regex = Regex::new("hit").unwrap();
        let ids: Vec<DocId> = (0..300).collect();
        for threads in [1, 4] {
            let mut stats = QueryStats::default();
            let mut count = 0;
            confirm_source(
                &corpus,
                &regex,
                &mut CandidateSource::Docs(ids.clone()),
                false,
                &[],
                threads,
                &RequestBudget::unlimited(),
                &mut stats,
                &mut |_, _| {
                    count += 1;
                    count < 5
                },
            )
            .unwrap();
            assert_eq!(count, 5, "threads={threads}");
            assert_eq!(
                stats.docs_examined, 5,
                "early stop must count only consumed docs (threads={threads})"
            );
        }
    }

    #[test]
    fn drained_stream_becomes_docs() {
        let idx = index_with(&[("abc", &[0, 1])]);
        let corpus = MemCorpus::from_docs(vec![b"abc".to_vec(), b"zzz".to_vec()]);
        let regex = Regex::new("abc").unwrap();
        let mut stats = QueryStats::default();
        let cursor = compile_plan(&plan("abc", &idx), &idx, &mut stats)
            .unwrap()
            .unwrap();
        let mut source = CandidateSource::Stream(StreamState::new(cursor));
        let hits = confirm_collect(&corpus, &regex, &mut source, 1, &mut stats);
        assert_eq!(hits, vec![(0, 1)]);
        match &source {
            CandidateSource::Docs(d) => assert_eq!(d, &vec![0, 1]),
            _ => panic!("fully drained stream must materialize"),
        }
        assert_eq!(stats.candidates, 2);
        // A second pass re-confirms from the materialized set.
        let hits = confirm_collect(&corpus, &regex, &mut source, 1, &mut stats);
        assert_eq!(hits, vec![(0, 1)]);
        assert_eq!(stats.docs_examined, 4);
    }

    #[test]
    fn interrupted_stream_resumes_from_the_start() {
        let idx = index_with(&[("hit", &[0, 1, 2, 3, 4])]);
        let corpus =
            MemCorpus::from_docs((0..5).map(|i| format!("hit {i}").into_bytes()).collect());
        let regex = Regex::new("hit").unwrap();
        let mut stats = QueryStats::default();
        let cursor = compile_plan(&plan("hit", &idx), &idx, &mut stats)
            .unwrap()
            .unwrap();
        let mut source = CandidateSource::Stream(StreamState::new(cursor));
        let mut first = Vec::new();
        confirm_source(
            &corpus,
            &regex,
            &mut source,
            false,
            &[],
            1,
            &RequestBudget::unlimited(),
            &mut stats,
            &mut |doc, _| {
                first.push(doc);
                first.len() < 2
            },
        )
        .unwrap();
        assert_eq!(first, vec![0, 1]);
        // The next pass must deliver the whole candidate set again.
        let hits = confirm_collect(&corpus, &regex, &mut source, 1, &mut stats);
        assert_eq!(
            hits.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }
}
