//! The multi-segment query executor.
//!
//! One [`PreparedQuery`] (regex, logical plan, prefilter) is built per
//! query and one *physical* plan per shard snapshot, against the index's
//! dictionary (the oldest segment's key directory). Every source — each
//! sealed segment and the write buffer — indexes exactly the
//! dictionary's keys, so that one plan compiles against each source's
//! index to a cursor over local ids, and a dictionary key absent from a
//! source's directory is one none of its documents contains (an empty
//! branch, not a NULL one). The cursor adapters drop each source's
//! deleted documents by a bit test and lift the rest into the global
//! sequence space. Before the first flush there is no dictionary and
//! the buffer is confirmed whole. The per-source streams merge through
//! the engine's `OrCursor` k-way heap (global sequence order), and the
//! candidates are confirmed by the engine's (optionally parallel)
//! confirmation running against a sequence-keyed corpus view. A plan
//! that cannot use the index is confirmed as a SCAN: ranged, CRC-checked
//! reads of every live document; a candidate fetch is one CRC-checked
//! positioned read of its unit. Results at any generation are therefore
//! identical to a from-scratch rebuild over the live documents.

use crate::cursor::{OffsetCursor, SeqMapCursor};
use crate::error::Result;
use crate::memtable::BufferIndex;
use crate::snapshot::ShardSnapshot;
use crate::view::LiveView;
use free_corpus::{Corpus, DocId};
use free_engine::exec::stream::{compile_plan, confirm_source, CandidateSource, StreamState};
use free_engine::{PlanClass, PreparedQuery, QueryStats, RequestBudget};
use free_index::cursor::PostingsCursor;
use free_index::{OrCursor, SliceCursor};
use free_regex::Span;
use free_trace::json::JsonObject;
use std::time::Instant;

/// Per-request execution options: the request-scoped counterpart to the
/// index-wide [`crate::LiveConfig`]. `threads = 0` means "use the configured
/// default"; the budget defaults to unlimited, so `QueryOpts::default()`
/// is what [`crate::Snapshot::query`] runs with.
#[derive(Clone, Debug)]
pub struct QueryOpts {
    /// Confirmation thread count; `0` uses the engine config's value.
    pub threads: usize,
    /// Extract match spans (versus containment-only confirmation).
    pub want_spans: bool,
    /// Deadline / cancellation for this request.
    pub budget: RequestBudget,
}

impl Default for QueryOpts {
    fn default() -> QueryOpts {
        QueryOpts {
            threads: 0,
            want_spans: true,
            budget: RequestBudget::unlimited(),
        }
    }
}

/// One matching document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveMatch {
    /// The document's global sequence number.
    pub seq: DocId,
    /// Match spans within the document, in position order.
    pub spans: Vec<Span>,
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
    /// The index keys the plan fetched, deduplicated (over every shard of
    /// a sharded index, sorted).
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
/// sequence order, with their match spans.
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
/// exhaustion, so records are `complete`, and they carry the plan's
/// gram keys. There is no per-operator flight-recorder tree on the live
/// path (the analyze executor is batch-only) — slow live queries are
/// still flagged `slow`.
pub(crate) fn emit_qlog(pattern: &str, stats: &LiveQueryStats, want_spans: bool) {
    if free_trace::qlog::enabled() {
        let slow = free_engine::qlog::is_slow(&stats.base);
        let grams: Vec<&[u8]> = stats.grams.iter().map(|g| &**g).collect();
        free_trace::qlog::emit(free_engine::qlog::query_record(
            "live",
            pattern,
            &stats.base,
            &grams,
            true,
            want_spans,
            slow,
            None,
        ));
    }
}

/// Runs an already-prepared query over one shard's view. The caller
/// ([`crate::Snapshot::query_opts`]) owns query-span creation and
/// metrics recording, so a fan-out over N shards pays regex parsing,
/// logical planning and the prefilter once and records one query.
// `expect`: `compile_plan` returns `None` only for scan plans, which
// the compiling branch excludes; `pop()` sits in the `len == 1` arm.
#[allow(clippy::expect_used)]
pub(crate) fn execute_prepared(
    snapshot: &ShardSnapshot,
    prepared: &PreparedQuery,
    threads: usize,
    want_spans: bool,
    budget: &RequestBudget,
    query_span: &free_trace::Span,
) -> Result<LiveQueryResult> {
    let econfig = &snapshot.config.engine;
    let plan_start = Instant::now();
    let mut stats = QueryStats::default();
    let sources = snapshot.segments.len() + usize::from(!snapshot.memtable.is_empty());
    let mut cursors: Vec<Box<dyn PostingsCursor>> = Vec::with_capacity(sources);
    // One plan per snapshot, against the dictionary (the oldest segment's
    // key directory): every source indexes exactly its keys, so a key
    // missing from a source's directory is in none of its documents.
    let planned = (snapshot.segments.first()).map(|dict| {
        (
            dict,
            prepared.plan(&dict.index, dict.meta.num_docs as usize, econfig),
        )
    });
    // Without a dictionary (nothing flushed yet) or with a plan that
    // cannot use it, every document is a candidate.
    let scan = planned.as_ref().is_none_or(|(_, p)| p.is_scan());
    {
        let mut span = query_span.child("live.plan");
        // A scan compiles nothing: the view's ranged reads confirm every
        // live document.
        if let (false, Some((dict, physical))) = (scan, &planned) {
            for seg in &snapshot.segments {
                let cursor = compile_plan(physical, &seg.index, &mut stats)?
                    .expect("non-scan plans always compile to a cursor");
                let cursor = SeqMapCursor::new(cursor, seg.seqs.clone(), seg.dead.clone())?;
                cursors.push(Box::new(cursor));
            }
            if !snapshot.memtable.is_empty() {
                let buffer = BufferIndex {
                    keys: dict.index.keys(),
                    memtable: &snapshot.memtable,
                };
                let cursor = compile_plan(physical, &buffer, &mut stats)?
                    .expect("non-scan plans always compile to a cursor");
                let dead = snapshot.memtable.dead.clone();
                let cursor = OffsetCursor::new(cursor, snapshot.wal_base, dead)?;
                cursors.push(Box::new(cursor));
            }
        }
        span.record("sources", sources);
        span.record("scanned_sources", if scan { sources } else { 0 });
    }
    stats.used_scan = scan && sources > 0;
    stats.plan_class = match &planned {
        Some((dict, physical)) => physical.classify(dict.meta.num_docs as usize),
        None if stats.used_scan => PlanClass::Scan,
        None => PlanClass::Indexed,
    };
    stats.plan_time = plan_start.elapsed();
    let grams = planned
        .as_ref()
        .map(|(_, p)| p.gram_keys().into_iter().map(Into::into).collect())
        .unwrap_or_default();

    let view = LiveView(snapshot);
    let index_start = Instant::now();
    let mut source = if scan {
        stats.candidates = view.len();
        CandidateSource::All
    } else {
        let root: Box<dyn PostingsCursor> = match cursors.len() {
            0 => Box::new(SliceCursor::empty()),
            1 => cursors.pop().expect("one cursor"),
            _ => Box::new(OrCursor::new(cursors)?),
        };
        let mut st = StreamState::new(root);
        st.refresh(&mut stats);
        CandidateSource::Stream(st)
    };
    stats.index_time += index_start.elapsed();

    let mut matches = Vec::new();
    {
        let mut span = query_span.child("live.confirm");
        confirm_source(
            &view,
            prepared.regex(),
            &mut source,
            want_spans,
            prepared.prefilter(),
            threads,
            budget,
            &mut stats,
            &mut |seq, spans| {
                matches.push(LiveMatch { seq, spans });
                true
            },
        )?;
        span.record("matching_docs", stats.matching_docs);
        span.record("docs_examined", stats.docs_examined);
    }
    Ok(LiveQueryResult {
        matches,
        stats: LiveQueryStats {
            base: stats,
            sources,
            scanned_sources: if scan { sources } else { 0 },
            grams,
            generation: snapshot.generation,
        },
    })
}
