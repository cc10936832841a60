//! Streaming plan execution: cursor compilation plus parallel
//! confirmation.
//!
//! [`compile_plan`] turns a [`PhysicalPlan`] into a tree of
//! [`PostingsCursor`] combinators that yields candidate doc ids lazily in
//! increasing order — leaf postings are only decoded where the enclosing
//! intersection might land (skip tables on the blocked on-disk format,
//! galloping over decoded slices in memory).
//!
//! [`confirm_source`] confirms every candidate source with one executor.
//! The calling thread cuts the work into units — [`BATCH_PER_WORKER`]
//! ids pulled from the cursor, read with [`Corpus::get_sorted`] (on disk:
//! one CRC-checked positioned read per run of candidates that lie close
//! together, into one buffer), or, for a SCAN, a contiguous range of
//! corpus positions read with [`Corpus::scan_range`] — and folds
//! finished units in doc-id order. The first batch is always confirmed
//! inline, so a query whose candidates fit in it never crosses a thread.
//! With `threads > 1`, work past it gets `threads - 1` scoped helpers,
//! spawned once for the rest of the query; every thread, the caller
//! included, claims the oldest unclaimed unit, and the caller cuts only
//! a few units per thread ahead of the one it folds. Helpers report
//! per-document outcomes and only the outcomes the caller consumes are
//! counted, so results, early-exit points, and every logical cost
//! counter are identical for any thread count.

use super::analyze::Probe;
use crate::budget::RequestBudget;
use crate::metrics::QueryStats;
use crate::plan::PhysicalPlan;
use crate::Result;
use free_corpus::{Corpus, DocId};
use free_index::cursor::{CursorStats, PostingsCursor};
use free_index::{AndCursor, IndexRead, InstrumentedCursor, OrCursor, SliceCursor};
use free_regex::{Finder, Regex, Searcher, Span};
use free_trace::Counter;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Candidate doc ids in one unit of confirmation work; a batch, the
/// stretch between two budget polls, is `threads` units. Sized so a unit
/// amortizes claiming it, but a first-k query stops after a sliver of
/// the candidate stream.
pub const BATCH_PER_WORKER: usize = 32;

/// Name of the global counter of confirmation helper threads spawned:
/// zero for a query whose work fits in its inline units, `threads - 1`
/// for any other, whatever the candidate count.
pub const HELPERS_SPAWNED_COUNTER: &str = "free_confirm_helpers_spawned_total";

/// Corpus bytes one unit of SCAN work covers (going by the corpus's mean
/// unit size): one positioned read of a [`free_corpus::DiskCorpus`].
const SCAN_RANGE_BYTES: u64 = 256 << 10;

/// Units of work, per confirming thread, the caller cuts ahead of the
/// one it folds next: bounds what a first-k query or an error wastes.
const LOOKAHEAD_PER_THREAD: usize = 4;

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

/// What one thread observed about one candidate document. Folded on the
/// calling thread in doc-id order so stats stay deterministic.
struct Outcome {
    doc: DocId,
    bytes: u64,
    prefiltered: bool,
    matched: bool,
    spans: Vec<Span>,
}

/// What every confirming thread of one query shares.
struct Confirm<'a, C> {
    corpus: &'a C,
    regex: &'a Regex,
    prefilter: &'a [Finder],
    want_spans: bool,
}

impl<C: Corpus> Confirm<'_, C> {
    /// Examines one document: prefilter, then one decision pass of the
    /// automaton (span extraction, when wanted, answers containment too).
    /// Pure with respect to `stats` — counting happens in `fold`.
    fn examine(&self, searcher: &mut Searcher, doc: DocId, bytes: &[u8]) -> Outcome {
        let mut outcome = Outcome {
            doc,
            bytes: bytes.len() as u64,
            prefiltered: false,
            matched: false,
            spans: Vec::new(),
        };
        // Anchoring: every required literal must occur before the
        // automaton is engaged (rejection at literal-scan speed).
        if self.prefilter.iter().any(|f| !f.contains(bytes)) {
            outcome.prefiltered = true;
        } else if self.want_spans {
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

    /// Examines the documents of `work` in order, handing each outcome to
    /// `sink` until it returns `false`.
    fn run(
        &self,
        searcher: &mut Searcher,
        work: &Work,
        sink: &mut dyn FnMut(Outcome) -> bool,
    ) -> Result<()> {
        match work {
            Work::Ids(ids) => {
                self.corpus.get_sorted(ids, &mut |doc, bytes| {
                    sink(self.examine(searcher, doc, bytes))
                })?;
            }
            Work::Range(positions) => {
                self.corpus
                    .scan_range(positions.clone(), &mut |doc, bytes| {
                        sink(self.examine(searcher, doc, bytes))
                    })?;
            }
        }
        Ok(())
    }

    /// Examines `work` into a buffer, for the caller to fold later.
    fn buffer(&self, searcher: &mut Searcher, work: &Work) -> (Vec<Outcome>, Result<()>) {
        let mut outcomes = Vec::new();
        let result = self.run(searcher, work, &mut |o| {
            outcomes.push(o);
            true
        });
        (outcomes, result)
    }
}

/// Examines and folds `work` on the calling thread, one document at a
/// time; `false` once the visitor stops.
fn fold_unit<C: Corpus>(
    cx: &Confirm<'_, C>,
    searcher: &mut Searcher,
    work: &Work,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
) -> Result<bool> {
    let mut going = true;
    cx.run(searcher, work, &mut |o| {
        going = fold(o, stats, on_doc);
        going
    })?;
    Ok(going)
}

/// Folds a unit another thread examined; `false` once the visitor stops.
fn fold_done(
    outcomes: Vec<Outcome>,
    result: Result<()>,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
) -> Result<bool> {
    for o in outcomes {
        if !fold(o, stats, on_doc) {
            return Ok(false);
        }
    }
    result.map(|()| true)
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

/// One unit of confirmation work.
enum Work {
    /// [`BATCH_PER_WORKER`] candidate ids (fewer at the end of the
    /// stream), in order.
    Ids(Vec<DocId>),
    /// Contiguous scan positions of a SCAN, [`SCAN_RANGE_BYTES`] of
    /// corpus or so.
    Range(Range<usize>),
}

/// Where one unit of work stands.
enum Slot {
    /// Not yet claimed.
    Open(Work),
    /// A thread is working on it.
    Claimed,
    /// Examined: the outcomes, and the error that cut the unit short.
    Done(Vec<Outcome>, Result<()>),
}

/// The units between the fold point and the look-ahead bound.
struct Queue {
    /// Oldest first; `slots[0]` is the next unit to fold. Units are
    /// claimed oldest first, so the claimed ones are a prefix.
    slots: VecDeque<Slot>,
    /// How many of `slots` are claimed (or done).
    claimed: usize,
    /// Units folded before `slots[0]`: turns a claim into a slot index.
    folded: usize,
    /// No unit will be added any more.
    closed: bool,
    /// The query is over (folded, stopped early, or failed): helpers
    /// claim nothing more.
    stopped: bool,
    /// A helper panicked; its unit will never be done.
    panicked: bool,
}

impl Queue {
    /// Claims the oldest open unit: its number and its work.
    fn claim(&mut self) -> Option<(usize, Work)> {
        let slot = self.slots.get_mut(self.claimed)?;
        match std::mem::replace(slot, Slot::Claimed) {
            Slot::Open(work) => {
                self.claimed += 1;
                Some((self.folded + self.claimed - 1, work))
            }
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Takes the front unit off the queue, for the caller to fold.
    fn take_front(&mut self) -> Option<Slot> {
        let slot = self.slots.pop_front()?;
        if !matches!(slot, Slot::Open(_)) {
            self.claimed -= 1;
        }
        self.folded += 1;
        Some(slot)
    }

    /// Stores the outcomes of unit `unit`, which a thread claimed.
    fn finish(&mut self, unit: usize, outcomes: Vec<Outcome>, result: Result<()>) {
        let at = unit - self.folded;
        self.slots[at] = Slot::Done(outcomes, result);
    }
}

/// The claim queue and its two signals.
struct Shared {
    queue: Mutex<Queue>,
    /// A unit opened, or the queue closed or stopped.
    opened: Condvar,
    /// A unit is done, or a helper panicked.
    done: Condvar,
}

impl Shared {
    /// Locks the queue. A panic cannot leave it half-updated (every
    /// update is a slot swap plus a counter step), so a poisoned lock is
    /// taken over; a helper's panic itself is reported through
    /// [`Queue::panicked`].
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stops the helpers when the calling thread leaves the claim loop, by
/// return, `?` or panic.
struct StopOnDrop<'a>(&'a Shared);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        let mut q = self.0.lock();
        q.stopped = true;
        q.closed = true;
        self.0.opened.notify_all();
    }
}

/// Flags a helper's panic, so the caller does not wait on its unit.
struct PanicFlag<'a>(&'a Shared);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().panicked = true;
            self.0.done.notify_all();
        }
    }
}

/// A helper thread: claims the oldest open unit and examines it into a
/// buffer with its own `searcher`, until the query stops or no unit is
/// left.
fn help<C: Corpus>(cx: &Confirm<'_, C>, shared: &Shared, mut searcher: Searcher) {
    let _flag = PanicFlag(shared);
    let mut q = shared.lock();
    while !q.stopped {
        if let Some((unit, work)) = q.claim() {
            drop(q);
            let (outcomes, result) = cx.buffer(&mut searcher, &work);
            q = shared.lock();
            q.finish(unit, outcomes, result);
            shared.done.notify_one();
        } else if q.closed {
            return;
        } else {
            q = shared
                .opened
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Confirms the units `next_unit` cuts, folding every outcome in order.
///
/// The `budget` is polled before each batch of `per_batch` units is
/// folded, never between two units of one batch, and once more when the
/// units run out: an expired request therefore surfaces a structured
/// error with exactly the counters of the batches already consumed —
/// never a half-folded batch, and never a complete-looking answer.
///
/// The first `inline` units are examined and folded on the calling
/// thread, one document at a time, and so is every unit with one thread.
/// Only work past them gets helpers: `helpers` of them (`threads - 1`
/// but in tests), spawned once for the rest of the query. From then on every thread, the caller
/// included, claims the oldest open unit, and the caller cuts at most
/// [`LOOKAHEAD_PER_THREAD`] units per thread ahead of the one it folds
/// next. A helper that never gets a core claims nothing, so the caller
/// never waits on a unit nobody started: it folds a front unit it
/// claimed itself as it examines it, and while a helper holds the front
/// unit it examines a later one or waits for that helper.
// `panic!`: a helper panicked, and re-raising that on the coordinating
// thread is the correct way to propagate it.
#[allow(clippy::too_many_arguments)]
fn confirm_units<C: Corpus>(
    cx: &Confirm<'_, C>,
    threads: usize,
    helpers: usize,
    per_batch: usize,
    inline: usize,
    budget: &RequestBudget,
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
    next_unit: &mut dyn FnMut() -> Result<Option<Work>>,
) -> Result<()> {
    // The lazy DFA caches this searcher builds keep paying off for the
    // whole query, and helpers start from copies of it.
    let mut searcher = cx.regex.searcher();
    let mut folded = 0usize;
    let poll = |folded: usize| {
        if folded.is_multiple_of(per_batch) {
            budget.check()
        } else {
            Ok(())
        }
    };
    let first = loop {
        let Some(work) = next_unit()? else {
            return budget.check();
        };
        if threads > 1 && folded >= inline {
            break work;
        }
        poll(folded)?;
        folded += 1;
        if !fold_unit(cx, &mut searcher, &work, stats, on_doc)? {
            return Ok(());
        }
    };
    static SPAWNED: OnceLock<Counter> = OnceLock::new();
    SPAWNED
        .get_or_init(|| {
            free_trace::metrics::global().counter(
                HELPERS_SPAWNED_COUNTER,
                "Confirmation helper threads spawned (once per query with work past its inline units)",
            )
        })
        .add(helpers as u64);
    let shared = Shared {
        queue: Mutex::new(Queue {
            slots: VecDeque::from([Slot::Open(first)]),
            claimed: 0,
            folded,
            closed: false,
            stopped: false,
            panicked: false,
        }),
        opened: Condvar::new(),
        done: Condvar::new(),
    };
    let lookahead = LOOKAHEAD_PER_THREAD * threads;
    std::thread::scope(|s| {
        for _ in 0..helpers {
            // A helper starts from a copy of the caller's automaton, which
            // the inline units have warmed, instead of building its own.
            let (shared, searcher) = (&shared, searcher.clone());
            s.spawn(move || help(cx, shared, searcher));
        }
        let _stop = StopOnDrop(&shared);
        // An error cutting a unit surfaces once every unit cut before it
        // is folded.
        let mut cut_error = None;
        loop {
            // Cut units up to the look-ahead bound, not holding the lock.
            let mut q = shared.lock();
            while !q.closed && q.slots.len() < lookahead {
                drop(q);
                let next = next_unit();
                q = shared.lock();
                match next {
                    Ok(Some(work)) => {
                        q.slots.push_back(Slot::Open(work));
                        shared.opened.notify_one();
                    }
                    Ok(None) => q.closed = true,
                    Err(e) => {
                        q.closed = true;
                        cut_error = Some(e);
                    }
                }
                if q.closed {
                    shared.opened.notify_all();
                }
            }
            // While a helper holds the front unit, examine a later one or
            // wait for it.
            while let Some(Slot::Claimed) = q.slots.front() {
                if let Some((unit, work)) = q.claim() {
                    drop(q);
                    let (outcomes, result) = cx.buffer(&mut searcher, &work);
                    q = shared.lock();
                    q.finish(unit, outcomes, result);
                } else if q.panicked {
                    panic!("confirmation helper panicked");
                } else {
                    q = shared.done.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            }
            let Some(front) = q.take_front() else {
                return cut_error.map_or_else(|| budget.check(), Err);
            };
            drop(q);
            poll(folded)?;
            folded += 1;
            let going = match front {
                Slot::Open(work) => fold_unit(cx, &mut searcher, &work, stats, on_doc)?,
                Slot::Done(outcomes, result) => fold_done(outcomes, result, stats, on_doc)?,
                // The loop above leaves no claimed unit at the front.
                Slot::Claimed => true,
            };
            if !going {
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
/// Candidates are confirmed in units of [`BATCH_PER_WORKER`] ids, and the
/// `budget` is polled before each batch of `threads` units; a SCAN
/// ([`CandidateSource::All`]) is confirmed in ranges of about 256 KiB of
/// corpus, and the budget is polled before each.
/// Expiry aborts with [`crate::Error::Timeout`] /
/// [`crate::Error::Cancelled`] and no partial results reach `on_doc`'s
/// caller beyond the batches already folded. Callers without a deadline
/// pass [`RequestBudget::unlimited`].
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
    let cx = Confirm {
        corpus,
        regex,
        prefilter,
        want_spans,
    };
    let threads = threads.max(1);
    let helpers = threads - 1;
    let start = Instant::now();
    match source {
        CandidateSource::All => {
            // The ranges hold about SCAN_RANGE_BYTES of corpus each, going
            // by the mean unit size. A blind scan's cost is charged to
            // `scan_time`, not `confirm_time`.
            let len = corpus.len();
            let per_range = match corpus.total_bytes() {
                0 => len,
                bytes => (SCAN_RANGE_BYTES as u128 * len as u128 / bytes as u128) as usize,
            }
            .clamp(1, len.max(1));
            let inline = if len.div_ceil(per_range) < 2 {
                usize::MAX
            } else {
                0
            };
            let mut next = 0usize;
            let mut next_range = || {
                let range = next..(next + per_range).min(len);
                next = range.end;
                Ok((!range.is_empty()).then_some(Work::Range(range)))
            };
            confirm_units(
                &cx,
                threads,
                helpers,
                1,
                inline,
                budget,
                stats,
                on_doc,
                &mut next_range,
            )?;
            stats.scan_time += start.elapsed();
            Ok(())
        }
        CandidateSource::Docs(ids) => {
            let mut chunks = ids.chunks(BATCH_PER_WORKER);
            let mut next_chunk = || Ok(chunks.next().map(|c| Work::Ids(c.to_vec())));
            confirm_units(
                &cx,
                threads,
                helpers,
                threads,
                threads,
                budget,
                stats,
                on_doc,
                &mut next_chunk,
            )?;
            stats.confirm_time += start.elapsed();
            Ok(())
        }
        CandidateSource::Stream(st) => {
            let mut pull_time = Duration::ZERO;
            {
                let seen = &mut st.seen;
                let cursor = &mut st.cursor;
                // Re-deliver previously pulled ids first so every
                // confirmation pass sees the candidate set from the start,
                // then pull fresh ones from the cursor.
                let mut pos = 0usize;
                let mut next_chunk = || -> Result<Option<Work>> {
                    let end = (pos + BATCH_PER_WORKER).min(seen.len());
                    let mut ids = seen[pos..end].to_vec();
                    pos = end;
                    if ids.len() < BATCH_PER_WORKER {
                        let t = Instant::now();
                        while ids.len() < BATCH_PER_WORKER {
                            let Some(doc) = cursor.current() else {
                                break;
                            };
                            seen.push(doc);
                            ids.push(doc);
                            cursor.advance()?;
                        }
                        pos = seen.len();
                        pull_time += t.elapsed();
                    }
                    Ok((!ids.is_empty()).then_some(Work::Ids(ids)))
                };
                confirm_units(
                    &cx,
                    threads,
                    helpers,
                    threads,
                    threads,
                    budget,
                    stats,
                    on_doc,
                    &mut next_chunk,
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

    /// With threads but no helper ever claiming a unit — spawned helpers
    /// that never get a core — the calling thread confirms every unit
    /// itself, candidate chunks and scan ranges alike, and delivers what
    /// one thread does.
    #[test]
    fn a_query_completes_when_no_helper_claims_a_unit() {
        let docs: Vec<Vec<u8>> = (0..700)
            .map(|i| format!("doc {i} {}", if i % 3 == 0 { "needle" } else { "hay" }).into_bytes())
            .collect();
        let corpus = MemCorpus::from_docs(docs);
        let regex = Regex::new("needle").unwrap();
        let cx = Confirm {
            corpus: &corpus,
            regex: &regex,
            prefilter: &[],
            want_spans: true,
        };
        let ids: Vec<DocId> = (0..700).collect();
        let mut want_stats = QueryStats::default();
        let want = confirm_collect(
            &corpus,
            &regex,
            &mut CandidateSource::Docs(ids.clone()),
            1,
            &mut want_stats,
        );
        for threads in [2, 4] {
            for ranges in [false, true] {
                let mut chunks = ids.chunks(BATCH_PER_WORKER);
                let mut next = 0;
                let mut next_unit = || {
                    Ok(if ranges {
                        let range = next..(next + 50).min(ids.len());
                        next = range.end;
                        (!range.is_empty()).then_some(Work::Range(range))
                    } else {
                        chunks.next().map(|c| Work::Ids(c.to_vec()))
                    })
                };
                let (per_batch, inline) = if ranges { (1, 0) } else { (threads, threads) };
                let mut stats = QueryStats::default();
                let mut hits = Vec::new();
                confirm_units(
                    &cx,
                    threads,
                    0,
                    per_batch,
                    inline,
                    &RequestBudget::unlimited(),
                    &mut stats,
                    &mut |doc, spans| {
                        hits.push((doc, spans.len()));
                        true
                    },
                    &mut next_unit,
                )
                .unwrap();
                assert_eq!(hits, want, "threads={threads} ranges={ranges}");
                stats.confirm_time = want_stats.confirm_time;
                assert_eq!(stats, want_stats, "threads={threads} ranges={ranges}");
            }
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

    /// On disk, candidates are read in runs that span the units between
    /// them: damage in those units leaves the answer and every counter
    /// alone, and damage in a candidate fails the query with
    /// `Error::Corrupt`, at any thread count.
    #[test]
    fn only_candidates_are_checked_on_disk() {
        use free_corpus::{CorpusWriter, DiskCorpus};
        let dir = std::env::temp_dir().join(format!("free-stream-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let docs: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                format!("doc {i:03} {}", if i % 3 == 0 { "needle" } else { "hay" }).into_bytes()
            })
            .collect();
        let mut w = CorpusWriter::create(&dir).unwrap();
        for d in &docs {
            w.append(d).unwrap();
        }
        w.commit().unwrap();
        let flip = |id: usize| {
            let path = dir.join("corpus.dat");
            let mut data = std::fs::read(&path).unwrap();
            data[docs[..id].iter().map(Vec::len).sum::<usize>()] ^= 0x20;
            std::fs::write(&path, data).unwrap();
        };
        let regex = Regex::new("needle").unwrap();
        let ids: Vec<DocId> = (0..300).step_by(2).collect();
        let confirm = |threads: usize| {
            let corpus = DiskCorpus::open(&dir).unwrap();
            let (mut stats, mut hits) = (QueryStats::default(), Vec::new());
            let result = confirm_source(
                &corpus,
                &regex,
                &mut CandidateSource::Docs(ids.clone()),
                true,
                &[],
                threads,
                &RequestBudget::unlimited(),
                &mut stats,
                &mut |doc, spans| {
                    hits.push((doc, spans.len()));
                    true
                },
            );
            result.map(|()| (hits, stats.docs_examined, stats.matching_docs))
        };
        let mut s = QueryStats::default();
        let want = confirm_collect(
            &MemCorpus::from_docs(docs.clone()),
            &regex,
            &mut CandidateSource::Docs(ids.clone()),
            1,
            &mut s,
        );
        for id in (1..300).step_by(2) {
            flip(id);
        }
        for threads in [1, 3] {
            let got = confirm(threads).unwrap();
            assert_eq!(got, (want.clone(), s.docs_examined, s.matching_docs));
        }
        flip(200);
        for threads in [1, 3] {
            let err = confirm(threads).unwrap_err();
            assert!(
                matches!(&err, crate::Error::Corpus(free_corpus::Error::Corrupt(m))
                    if m.contains("data unit 200 fails its CRC")),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
