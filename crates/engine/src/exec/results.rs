//! Query results: lazily-confirmed matches with cost accounting.

use super::stream::{confirm_source, CandidateSource};
use crate::budget::RequestBudget;
use crate::engine::Engine;
use crate::metrics::QueryStats;
use crate::plan::PhysicalPlan;
use crate::prepare::PreparedQuery;
use crate::Result;
use free_corpus::{Corpus, DocId};
use free_index::IndexRead;
use free_regex::Span;
use std::time::Instant;

/// All matches within one data unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocMatches {
    /// The data unit.
    pub doc: DocId,
    /// Match spans within the unit, in order.
    pub spans: Vec<Span>,
}

/// The result of compiling a query.
///
/// Plan generation and cursor compilation happen eagerly in
/// [`Engine::query`](crate::Engine::query); candidate doc ids then stream
/// lazily out of the cursor tree, and the expensive confirmation step
/// (reading candidate data units, running the full matcher) is deferred to
/// the accessor methods so first-k queries can stop early — the behaviour
/// behind the paper's Figure 11 response-time experiment. Candidates are
/// materialized only on demand ([`QueryResult::num_candidates`]) or as a
/// side effect of a full confirmation pass.
pub struct QueryResult<'e, C: Corpus, I: IndexRead> {
    engine: &'e Engine<C, I>,
    prepared: PreparedQuery,
    physical: PhysicalPlan,
    source: CandidateSource,
    stats: QueryStats,
    span: free_trace::Span,
    /// Per-request deadline/cancel override; unlimited unless the caller
    /// installs one via [`QueryResult::set_budget`].
    budget: RequestBudget,
    /// A confirmation pass ran to exhaustion (no early stop), so
    /// `stats.matching_docs` is the full answer. Recorded into the
    /// query log; `free replay` verifies only complete records.
    confirm_complete: bool,
    /// The completing pass counted spans (`stats.match_count` is real).
    confirm_spans: bool,
}

impl<'e, C: Corpus, I: IndexRead> QueryResult<'e, C, I> {
    pub(crate) fn new(
        engine: &'e Engine<C, I>,
        prepared: PreparedQuery,
        physical: PhysicalPlan,
        source: CandidateSource,
        stats: QueryStats,
        span: free_trace::Span,
    ) -> Self {
        QueryResult {
            engine,
            prepared,
            physical,
            source,
            stats,
            span,
            budget: RequestBudget::unlimited(),
            confirm_complete: false,
            confirm_spans: false,
        }
    }

    /// Installs a per-request budget, the request-scoped override of the
    /// engine-wide [`EngineConfig`](crate::EngineConfig). Confirmation
    /// passes started after this call poll the budget at batch boundaries
    /// and abort with [`crate::Error::Timeout`] /
    /// [`crate::Error::Cancelled`] once it expires.
    pub fn set_budget(&mut self, budget: RequestBudget) {
        self.budget = budget;
    }

    /// Cost counters accumulated so far. Confirmation costs appear after
    /// one of the match accessors has run.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Number of candidate data units the index narrows the query to.
    ///
    /// A still-streaming candidate source is materialized here (the only
    /// way to count it), which may touch the index.
    pub fn num_candidates(&mut self) -> Result<usize> {
        self.materialize()?;
        Ok(match &self.source {
            CandidateSource::All => self.engine.num_docs(),
            CandidateSource::Docs(d) => d.len(),
            CandidateSource::Stream(_) => unreachable!("materialize() removes streams"),
        })
    }

    /// Drains a streaming source into a materialized doc list in place.
    fn materialize(&mut self) -> Result<()> {
        if let CandidateSource::Stream(st) = &mut self.source {
            let start = Instant::now();
            while let Some(doc) = st.cursor.current() {
                st.seen.push(doc);
                st.cursor.advance()?;
            }
            st.refresh(&mut self.stats);
            self.stats.index_time += start.elapsed();
            let docs = std::mem::take(&mut st.seen);
            self.stats.candidates = docs.len();
            self.source = CandidateSource::Docs(docs);
        }
        Ok(())
    }

    /// Whether the query fell back to a full scan.
    pub fn used_scan(&self) -> bool {
        self.stats.used_scan
    }

    /// Runs confirmation over the candidate source with the configured
    /// thread count.
    fn run_confirm(
        &mut self,
        want_spans: bool,
        on_doc: &mut dyn FnMut(DocId, Vec<Span>) -> bool,
    ) -> Result<()> {
        let corpus = self.engine.corpus();
        let threads = self.engine.config().effective_threads();
        let mut confirm_span = self.span.child("query.confirm");
        let examined_before = self.stats.docs_examined;
        let mut stopped_early = false;
        let result = confirm_source(
            corpus,
            self.prepared.regex(),
            &mut self.source,
            want_spans,
            self.prepared.prefilter(),
            threads,
            &self.budget,
            &mut self.stats,
            &mut |doc, spans| {
                let keep_going = on_doc(doc, spans);
                stopped_early |= !keep_going;
                keep_going
            },
        );
        if result.is_ok() && !stopped_early {
            self.confirm_complete = true;
            self.confirm_spans |= want_spans;
        }
        if confirm_span.is_enabled() {
            confirm_span.record("threads", threads);
            confirm_span.record("docs_examined", self.stats.docs_examined - examined_before);
        }
        result
    }

    /// Data units containing at least one match (the paper's `M(r)`),
    /// confirmed against the raw corpus.
    pub fn matching_docs(&mut self) -> Result<Vec<DocId>> {
        let mut out = Vec::new();
        self.run_confirm(false, &mut |doc, _| {
            out.push(doc);
            true
        })?;
        Ok(out)
    }

    /// Every match span in every matching data unit.
    pub fn all_matches(&mut self) -> Result<Vec<DocMatches>> {
        let mut out = Vec::new();
        self.run_confirm(true, &mut |doc, spans| {
            out.push(DocMatches { doc, spans });
            true
        })?;
        Ok(out)
    }

    /// Total number of matching strings (the paper's "result size").
    pub fn count_matches(&mut self) -> Result<usize> {
        Ok(self.all_matches()?.iter().map(|d| d.spans.len()).sum())
    }

    /// The first `k` matching strings in document order, stopping the
    /// confirmation as soon as they are found (Figure 11's measurement).
    pub fn first_k_matches(&mut self, k: usize) -> Result<Vec<(DocId, Span)>> {
        let mut out: Vec<(DocId, Span)> = Vec::with_capacity(k);
        if k == 0 {
            return Ok(out);
        }
        self.run_confirm(true, &mut |doc, spans| {
            for s in spans {
                if out.len() >= k {
                    break;
                }
                out.push((doc, s));
            }
            out.len() < k
        })?;
        Ok(out)
    }

    /// Consumes the result, returning the accumulated statistics.
    pub fn into_stats(mut self) -> QueryStats {
        if let CandidateSource::Stream(st) = &mut self.source {
            st.refresh(&mut self.stats);
        }
        self.stats.clone()
    }
}

impl<C: Corpus, I: IndexRead> Drop for QueryResult<'_, C, I> {
    /// Every query result folds its final counters into the process-wide
    /// metrics registry exactly once, on drop — however much of the query
    /// was actually consumed — and, when a durable query log is
    /// installed, appends one record to it. A query that crossed the
    /// slow threshold is re-executed under
    /// [`Engine::explain_analyze`](crate::Engine::explain_analyze) so
    /// the record carries the full per-operator tree (the flight
    /// recorder); `explain_analyze` never constructs a `QueryResult`, so
    /// this cannot recurse.
    fn drop(&mut self) {
        if let CandidateSource::Stream(st) = &mut self.source {
            st.refresh(&mut self.stats);
        }
        crate::metrics::QueryMetrics::global().record(&self.stats);
        self.span.record("matches", self.stats.match_count);
        if free_trace::qlog::enabled() {
            let slow = crate::qlog::is_slow(&self.stats);
            let analyze = if slow {
                self.engine
                    .explain_analyze(self.prepared.pattern())
                    .ok()
                    .map(|a| a.to_json())
            } else {
                None
            };
            free_trace::qlog::emit(crate::qlog::query_record(
                "batch",
                self.prepared.pattern(),
                &self.stats,
                &self.physical.gram_keys(),
                self.confirm_complete,
                self.confirm_spans,
                slow,
                analyze,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig};
    use free_corpus::MemCorpus;

    fn engine_with_threads(num_threads: usize) -> crate::InMemoryEngine {
        let corpus = MemCorpus::from_docs(vec![
            b"the needle is here".to_vec(),
            b"plain hay".to_vec(),
            b"needle needle".to_vec(),
            b"more hay".to_vec(),
        ]);
        Engine::build_in_memory(
            corpus,
            EngineConfig {
                usefulness_threshold: 0.6,
                num_threads,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    }

    fn engine() -> crate::InMemoryEngine {
        engine_with_threads(1)
    }

    #[test]
    fn matching_docs_and_counts() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        assert_eq!(r.matching_docs().unwrap(), vec![0, 2]);
        let mut r = e.query("needle").unwrap();
        assert_eq!(r.count_matches().unwrap(), 3);
    }

    #[test]
    fn all_matches_spans() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        let ms = r.all_matches().unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].doc, 0);
        assert_eq!(ms[0].spans.len(), 1);
        assert_eq!(ms[1].spans.len(), 2);
    }

    #[test]
    fn first_k_stops_early() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        let first = r.first_k_matches(1).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, 0);
        // Only the first candidate should have been examined.
        assert_eq!(r.stats().docs_examined, 1);
    }

    #[test]
    fn first_k_more_than_available() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        let all = r.first_k_matches(100).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn first_zero() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        assert!(r.first_k_matches(0).unwrap().is_empty());
        assert_eq!(r.stats().docs_examined, 0);
    }

    #[test]
    fn stats_accumulate() {
        let e = engine();
        let mut r = e.query("needle").unwrap();
        assert_eq!(r.stats().docs_examined, 0);
        let _ = r.matching_docs().unwrap();
        assert!(r.stats().docs_examined > 0);
        let stats = r.into_stats();
        assert_eq!(stats.matching_docs, 2);
    }

    #[test]
    fn num_candidates_before_and_after_confirm() {
        // num_candidates first (materializes the stream), then confirm.
        let e = engine();
        let mut r = e.query("needle").unwrap();
        let n = r.num_candidates().unwrap();
        assert_eq!(r.matching_docs().unwrap().len(), 2);
        assert!(n >= 2);
        // Confirm first (drains the stream), then num_candidates.
        let mut r = e.query("needle").unwrap();
        assert_eq!(r.count_matches().unwrap(), 3);
        assert_eq!(r.num_candidates().unwrap(), n);
        assert_eq!(r.stats().candidates, n);
    }

    #[test]
    fn threaded_results_match_sequential() {
        let seq = engine_with_threads(1);
        let par = engine_with_threads(4);
        for pattern in ["needle", "hay", "h..dle|hay"] {
            let mut a = seq.query(pattern).unwrap();
            let mut b = par.query(pattern).unwrap();
            assert_eq!(
                a.all_matches().unwrap(),
                b.all_matches().unwrap(),
                "{pattern}"
            );
            assert_eq!(
                a.stats().docs_examined,
                b.stats().docs_examined,
                "{pattern}"
            );
        }
    }

    #[test]
    fn first_k_stops_early_with_threads() {
        let e = engine_with_threads(4);
        let mut r = e.query("needle").unwrap();
        let first = r.first_k_matches(1).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, 0);
        assert_eq!(r.stats().docs_examined, 1);
    }
}
