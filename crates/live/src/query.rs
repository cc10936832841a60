//! The live query executor: one candidate stream, confirmed by one
//! executor.
//!
//! One [`PreparedQuery`] (regex, logical plan, prefilter) is built per
//! query and one *physical* plan against the index's dictionary (its
//! oldest segment's key directory). Every source — each sealed segment
//! and the write buffer — indexes exactly the dictionary's keys, so that
//! one plan compiles against each source's index to a cursor over local
//! ids, and a dictionary key absent from a source's directory is one
//! none of its documents contains (an empty branch, not a NULL one). The
//! cursor adapters drop each source's deleted documents by a bit test
//! and map the rest to sequence numbers, so the sources merge through
//! one engine `OrCursor` k-way heap, in sequence order. The query scans
//! instead when there is no dictionary yet (nothing flushed) or the plan
//! cannot use the index: ranged, CRC-checked reads of the live
//! documents.
//!
//! A query therefore makes one pass of the engine's confirmation
//! executor ([`confirm_source`]) on the calling thread with the whole
//! thread budget, against one view of the snapshot: the candidate
//! stream or the scan. Candidates are read a unit of them at a time
//! ([`Corpus::get_sorted`]): per segment, one positioned read per run of
//! candidates that lie close together, every candidate's CRC checked on
//! every read; write-buffer documents are handed out by reference.
//! Results at any generation, for any thread count,
//! are therefore identical to a from-scratch rebuild over the live
//! documents.

use crate::cursor::{Seqs, SourceCursor};
use crate::error::Result;
use crate::memtable::BufferIndex;
use crate::view::LiveView;
use crate::Snapshot;
use free_corpus::{Corpus, DocId};
use free_engine::exec::stream::{compile_plan, confirm_source, CandidateSource, StreamState};
use free_engine::{PlanClass, PreparedQuery, QueryStats, RequestBudget};
use free_index::cursor::PostingsCursor;
use free_index::OrCursor;
use free_regex::Span;
use free_trace::json::JsonObject;
use std::time::Instant;

/// Per-request execution options: the request-scoped counterpart to the
/// index-wide [`crate::LiveConfig`]. `threads = 0` means "use the configured
/// default"; the budget defaults to unlimited, so `QueryOpts::default()`
/// is what [`crate::Snapshot::query`] runs with.
#[derive(Clone, Debug, Default)]
pub struct QueryOpts {
    /// Confirmation thread count; `0` uses the engine config's value.
    pub threads: usize,
    /// Deadline / cancellation for this request.
    pub budget: RequestBudget,
}

/// One matching document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveMatch {
    /// The document's global sequence number.
    pub seq: DocId,
    /// The number of leftmost-longest matches in the document.
    pub count: u32,
}

/// Execution statistics for one live query.
#[derive(Clone, Debug)]
pub struct LiveQueryStats {
    /// The engine-level counters, folded across all sources.
    pub base: QueryStats,
    /// Number of candidate sources consulted (segments + write buffer).
    pub sources: usize,
    /// Sources confirmed whole: every source when the plan cannot use the
    /// index, or the write buffer before the first flush.
    pub scanned_sources: usize,
    /// The index keys the plan fetched, sorted and deduplicated.
    pub grams: Vec<Box<[u8]>>,
    /// Generation the query ran at.
    pub generation: u64,
}

impl LiveQueryStats {
    /// Renders as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("generation", self.generation)
            .field_u64("sources", self.sources as u64)
            .field_u64("scanned_sources", self.scanned_sources as u64)
            .field_raw("engine", self.base.to_json());
        o.finish()
    }
}

/// The result of one live query: all matching documents, in ascending
/// sequence order, with their match counts.
#[derive(Clone, Debug)]
pub struct LiveQueryResult {
    /// Matching documents in sequence order.
    pub matches: Vec<LiveMatch>,
    /// Execution statistics.
    pub stats: LiveQueryStats,
}

impl LiveQueryResult {
    /// Just the matching sequence numbers.
    pub fn matching_seqs(&self) -> Vec<DocId> {
        self.matches.iter().map(|m| m.seq).collect()
    }
}

/// Appends one record for a finished live query to the durable query
/// log (no-op when none is installed). Live confirmation always runs to
/// exhaustion and counts every match, so records are `complete` with
/// their `match_count` confirmed, and they carry the plan's gram keys. There is no per-operator flight-recorder tree on the live
/// path (the analyze executor is batch-only) — slow live queries are
/// still flagged `slow`.
pub(crate) fn emit_qlog(pattern: &str, stats: &LiveQueryStats) {
    if free_trace::qlog::enabled() {
        let slow = free_engine::qlog::is_slow(&stats.base);
        let grams: Vec<&[u8]> = stats.grams.iter().map(|g| &**g).collect();
        free_trace::qlog::emit(free_engine::qlog::query_record(
            "live",
            pattern,
            &stats.base,
            &grams,
            true,
            true,
            slow,
            None,
        ));
    }
}

/// Runs an already-prepared query over `snapshot`, handing each match at
/// sequence `since` or above to `on_doc` (`since` 0 is the whole
/// snapshot), in ascending sequence order. The caller
/// ([`crate::Snapshot::query_opts`]) owns the query span, the prepare
/// time and metrics recording.
///
/// A segment whose documents all sit below `since` is skipped; the
/// candidate stream starts with a seek to `since`, and a scan reads only
/// the documents at or above it. A result cache extends an answer past
/// appends this way at the cost of the appended documents
/// ([`crate::QueryCache`]).
// `expect`: `compile_plan` returns `None` only for scan plans, which
// the compiling branch excludes; `pop()` sits in the `len == 1` arm.
#[allow(clippy::expect_used, clippy::too_many_arguments)]
pub(crate) fn execute_prepared(
    snapshot: &Snapshot,
    prepared: &PreparedQuery,
    since: DocId,
    threads: usize,
    budget: &RequestBudget,
    query_span: &free_trace::Span,
    on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
) -> Result<LiveQueryStats> {
    let plan_start = Instant::now();
    let mut stats = QueryStats::default();
    let mut cursors: Vec<Box<dyn PostingsCursor>> = Vec::new();
    let mut grams: Vec<Box<[u8]>> = Vec::new();
    // The sources holding a document at `since` or above: a suffix of
    // the segments, which hold ascending, disjoint sequence ranges, and
    // the write buffer past them.
    let first = (snapshot.segments).partition_point(|seg| seg.meta.last_seq < since);
    let segments = &snapshot.segments[first..];
    let buffered = snapshot.memtable.len() as DocId > since.saturating_sub(snapshot.wal_base);
    let sources = segments.len() + usize::from(buffered);
    let scanned_sources = |stats: &QueryStats| if stats.used_scan { sources } else { 0 };
    {
        let mut span = query_span.child("live.plan");
        // One plan, against the dictionary (the oldest segment's key
        // directory): every source indexes exactly its keys, so a key
        // missing from a source's directory is in none of its documents.
        let planned = (snapshot.segments.first())
            .filter(|_| sources > 0)
            .map(|dict| {
                let num_docs = dict.meta.num_docs as usize;
                let physical = prepared.plan(&dict.index, num_docs, &snapshot.config.engine);
                (dict, physical.classify(num_docs), physical)
            });
        match planned.filter(|p| p.1 != PlanClass::Scan) {
            Some((dict, class, physical)) => {
                stats.plan_class = class;
                grams.extend(physical.gram_keys().into_iter().map(Into::into));
                for seg in segments {
                    let cursor = compile_plan(&physical, &seg.index, &mut stats)?
                        .expect("non-scan plans always compile to a cursor");
                    let seqs = Seqs::Map(seg.seqs.clone());
                    cursors.push(Box::new(SourceCursor::new(cursor, seqs, seg.dead.clone())?));
                }
                if buffered {
                    let buffer = BufferIndex {
                        keys: dict.index.keys(),
                        memtable: &snapshot.memtable,
                    };
                    let cursor = compile_plan(&physical, &buffer, &mut stats)?
                        .expect("non-scan plans always compile to a cursor");
                    let seqs = Seqs::From(snapshot.wal_base);
                    let dead = snapshot.memtable.dead.clone();
                    cursors.push(Box::new(SourceCursor::new(cursor, seqs, dead)?));
                }
            }
            // Without a dictionary (nothing flushed yet) or with a plan
            // that cannot use it, every live document is a candidate:
            // the scan reads them.
            None if sources > 0 => {
                stats.plan_class = PlanClass::Scan;
                stats.used_scan = true;
            }
            None => {}
        }
        span.record("sources", sources);
        span.record("scanned_sources", scanned_sources(&stats));
    }
    stats.plan_time = plan_start.elapsed();
    grams.sort_unstable();
    grams.dedup();

    let view = LiveView::new(snapshot, since);
    let (regex, prefilter) = (prepared.regex(), prepared.prefilter());
    {
        let mut span = query_span.child("live.confirm");
        // With no stream to confirm, the scan runs even over no document,
        // so an expired budget still surfaces.
        let mut source = if cursors.is_empty() {
            stats.candidates += view.len();
            CandidateSource::All
        } else {
            let index_start = Instant::now();
            let mut root: Box<dyn PostingsCursor> = match cursors.len() {
                1 => cursors.pop().expect("one cursor"),
                _ => Box::new(OrCursor::new(cursors)?),
            };
            if since > 0 {
                root.seek(since)?;
            }
            let mut st = StreamState::new(root);
            st.refresh(&mut stats);
            stats.index_time += index_start.elapsed();
            CandidateSource::Stream(st)
        };
        confirm_source(
            &view,
            regex,
            &mut source,
            true,
            prefilter,
            threads,
            budget,
            &mut stats,
            on_doc,
        )?;
        span.record("matching_docs", stats.matching_docs);
        span.record("docs_examined", stats.docs_examined);
    }
    Ok(LiveQueryStats {
        scanned_sources: scanned_sources(&stats),
        base: stats,
        sources,
        grams,
        generation: snapshot.generation,
    })
}
