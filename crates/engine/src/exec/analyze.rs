//! `EXPLAIN ANALYZE`: execute a query with every plan node instrumented
//! and report estimated vs. actual per-operator work.
//!
//! [`Engine::explain_analyze`] prepares and plans the query exactly like
//! [`Engine::query`](crate::Engine::query) and compiles it through the
//! same cursor compiler, which wraps each operator in an
//! [`InstrumentedCursor`](free_index::InstrumentedCursor) before the full
//! confirmation pass runs. The wrappers record how the executor actually
//! drove each node — seeks, advances, distinct docs yielded, inclusive
//! wall time — and capture the node's subtree [`CursorStats`] at drop, so
//! after execution the probe tree can be folded into a [`NodeStats`] tree
//! whose root reconciles with the aggregate [`QueryStats`]
//! (instrumentation is transparent to
//! [`PostingsCursor::collect_stats`](free_index::PostingsCursor::collect_stats)).
//!
//! Scan-degenerate plans have no cursor tree; they execute as scans and
//! report `root: None` plus the scan-side stats.

use std::sync::Arc;

use super::stream::{compile_node, confirm_source, CandidateSource, StreamState};
use crate::budget::RequestBudget;
use crate::engine::Engine;
use crate::metrics::QueryStats;
use crate::plan::PhysicalPlan;
use crate::prepare::PreparedQuery;
use crate::Result;
use free_corpus::Corpus;
use free_index::cursor::CursorStats;
use free_index::{IndexRead, OpCounters};
use free_trace::{JsonArray, JsonObject};
use std::time::Instant;

/// One instrumented plan node awaiting execution: its display label, the
/// planner's cardinality estimate, the live counter handle, and the child
/// probes in plan order. The cursor compiler
/// ([`compile_node`](super::stream::compile_node)) builds the probe tree
/// next to the cursor tree it mirrors.
pub(crate) struct Probe {
    label: String,
    estimate: usize,
    pub(crate) counters: Arc<OpCounters>,
    children: Vec<Probe>,
}

impl Probe {
    /// A probe for `plan`, whose operator children have `children`.
    pub(crate) fn new(plan: &PhysicalPlan, children: Vec<Probe>) -> Probe {
        let label = match plan {
            PhysicalPlan::And(_) => "AND".to_string(),
            PhysicalPlan::Or(_) => "OR".to_string(),
            _ => format!("{plan:?}"),
        };
        Probe {
            label,
            estimate: plan.estimate(),
            counters: Arc::new(OpCounters::new()),
            children,
        }
    }
}

/// Per-operator execution statistics for one plan node.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Operator label (`AND`, `OR`, or the Fetch's debug rendering).
    pub label: String,
    /// The planner's cardinality estimate for this node.
    pub estimate: usize,
    /// Distinct doc ids this node actually yielded.
    pub actual_docs: u64,
    /// `seek` calls the executor issued to this node.
    pub seeks: u64,
    /// `advance` calls the executor issued to this node.
    pub nexts: u64,
    /// Wall-clock nanoseconds inside this node (inclusive of children).
    pub time_ns: u64,
    /// Index work done by this node's whole subtree.
    pub subtree: CursorStats,
    /// Index work attributable to this node alone (subtree minus
    /// children's subtrees; combinators do no leaf work themselves).
    pub exclusive: CursorStats,
    /// Child operators in plan order.
    pub children: Vec<NodeStats>,
}

fn node_stats(probe: &Probe) -> NodeStats {
    use std::sync::atomic::Ordering;
    let children: Vec<NodeStats> = probe.children.iter().map(node_stats).collect();
    let subtree = probe.counters.final_stats().unwrap_or_default();
    let mut exclusive = subtree;
    for c in &children {
        exclusive.seeks = exclusive.seeks.saturating_sub(c.subtree.seeks);
        exclusive.blocks_decoded = exclusive
            .blocks_decoded
            .saturating_sub(c.subtree.blocks_decoded);
        exclusive.postings_decoded = exclusive
            .postings_decoded
            .saturating_sub(c.subtree.postings_decoded);
        exclusive.postings_skipped = exclusive
            .postings_skipped
            .saturating_sub(c.subtree.postings_skipped);
    }
    NodeStats {
        label: probe.label.clone(),
        estimate: probe.estimate,
        actual_docs: probe.counters.docs_yielded.load(Ordering::Relaxed),
        seeks: probe.counters.seeks.load(Ordering::Relaxed),
        nexts: probe.counters.nexts.load(Ordering::Relaxed),
        time_ns: probe.counters.time_ns.load(Ordering::Relaxed),
        subtree,
        exclusive,
        children,
    }
}

/// The result of [`Engine::explain_analyze`]: the physical plan annotated
/// with per-operator actuals plus the query's aggregate statistics.
#[derive(Clone, Debug)]
pub struct ExplainAnalyze {
    /// The query pattern.
    pub pattern: String,
    /// The physical plan's debug rendering.
    pub plan: String,
    /// The instrumented operator tree; `None` for scan-degenerate plans.
    pub root: Option<NodeStats>,
    /// Aggregate statistics for the full (plan + index + confirm) run.
    pub stats: QueryStats,
}

/// Renders nanoseconds with a human-friendly unit.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

fn render_node(node: &NodeStats, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
    let (branch, child_prefix) = if is_root {
        (String::new(), String::new())
    } else if is_last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    out.push_str(&format!(
        "{branch}{}  (est ~{}, actual {} doc(s), {} seek(s), {} next(s), \
         {} decoded, {} skipped, {})\n",
        node.label,
        node.estimate,
        node.actual_docs,
        node.seeks,
        node.nexts,
        node.subtree.postings_decoded,
        node.subtree.postings_skipped,
        fmt_ns(node.time_ns),
    ));
    for (i, c) in node.children.iter().enumerate() {
        render_node(c, &child_prefix, i + 1 == node.children.len(), false, out);
    }
}

fn cursor_stats_json(s: &CursorStats) -> String {
    let mut o = JsonObject::new();
    o.field_u64("seeks", s.seeks);
    o.field_u64("blocks_decoded", s.blocks_decoded);
    o.field_u64("postings_decoded", s.postings_decoded);
    o.field_u64("postings_skipped", s.postings_skipped);
    o.finish()
}

fn node_json(node: &NodeStats) -> String {
    let mut o = JsonObject::new();
    o.field_str("label", &node.label);
    o.field_u64("estimate", node.estimate as u64);
    o.field_u64("actual_docs", node.actual_docs);
    o.field_u64("seeks", node.seeks);
    o.field_u64("nexts", node.nexts);
    o.field_u64("time_ns", node.time_ns);
    o.field_raw("subtree", cursor_stats_json(&node.subtree));
    o.field_raw("exclusive", cursor_stats_json(&node.exclusive));
    let mut kids = JsonArray::new();
    for c in &node.children {
        kids.push_raw(node_json(c));
    }
    o.field_raw("children", kids.finish());
    o.finish()
}

impl ExplainAnalyze {
    /// Renders the annotated plan as a text tree followed by the aggregate
    /// statistics summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("pattern: {}\n", self.pattern));
        match &self.root {
            Some(root) => render_node(root, "", true, true, &mut out),
            None => out.push_str("SCAN  (no usable index plan; full corpus scan)\n"),
        }
        out.push_str(&format!("{}\n", self.stats));
        out
    }

    /// Serializes the annotated plan as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("pattern", &self.pattern);
        o.field_str("plan", &self.plan);
        match &self.root {
            Some(root) => o.field_raw("root", node_json(root)),
            None => o.field_raw("root", "null".to_string()),
        };
        o.field_raw("stats", self.stats.to_json());
        o.finish()
    }
}

impl<C: Corpus, I: IndexRead> Engine<C, I> {
    /// Executes `pattern` with per-operator instrumentation and returns
    /// the annotated plan (the `EXPLAIN ANALYZE` of relational engines).
    ///
    /// The full confirmation pass runs (no early exit, spans not
    /// extracted), so the reported actuals reflect a complete
    /// `matching_docs`-style query.
    pub fn explain_analyze(&self, pattern: &str) -> Result<ExplainAnalyze> {
        let plan_start = Instant::now();
        let prepared = PreparedQuery::new(pattern, self.config(), &free_trace::Span::disabled())?;
        let num_docs = self.corpus().len();
        let physical = prepared.plan(self.index(), num_docs, self.config());
        let mut stats = QueryStats {
            plan_time: plan_start.elapsed(),
            used_scan: physical.is_scan(),
            plan_class: physical.classify(num_docs),
            ..QueryStats::default()
        };

        let index_start = Instant::now();
        let mut probes = Vec::new();
        let mut source = if physical.is_scan() {
            stats.candidates = num_docs;
            CandidateSource::All
        } else {
            let cursor = compile_node(&physical, self.index(), &mut stats, Some(&mut probes))?;
            let mut st = StreamState::new(cursor);
            st.refresh(&mut stats);
            CandidateSource::Stream(st)
        };
        stats.index_time += index_start.elapsed();

        confirm_source(
            self.corpus(),
            prepared.regex(),
            &mut source,
            false,
            prepared.prefilter(),
            self.config().effective_threads(),
            &RequestBudget::unlimited(),
            &mut stats,
            &mut |_, _| true,
        )?;
        // Drop the candidate source: a drained stream was already
        // converted to docs (dropping the cursor tree), but an empty
        // stream may still hold it — the instrumented wrappers capture
        // their subtree stats at drop.
        drop(source);

        crate::metrics::QueryMetrics::global().record(&stats);
        Ok(ExplainAnalyze {
            pattern: pattern.to_string(),
            plan: format!("{physical:?}"),
            root: probes.first().map(node_stats),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexKind;
    use crate::{Engine, EngineConfig};
    use free_corpus::MemCorpus;

    /// A complete index with pruning disabled, so multi-literal queries
    /// deterministically compile to AND/OR trees over Fetch leaves.
    fn engine() -> crate::InMemoryEngine {
        let corpus = MemCorpus::from_docs(vec![
            b"the needle is here".to_vec(),
            b"plain hay".to_vec(),
            b"needle needle hay".to_vec(),
            b"more hay".to_vec(),
            b"hay needle hay".to_vec(),
        ]);
        Engine::build_in_memory(
            corpus,
            EngineConfig {
                max_gram_len: 4,
                prune_selectivity: 1.0,
                ..EngineConfig::with_kind(IndexKind::Complete)
            },
        )
        .unwrap()
    }

    /// Sums the exclusive per-node stats over the whole tree.
    fn sum_exclusive(node: &NodeStats, acc: &mut CursorStats) {
        acc.merge(&node.exclusive);
        for c in &node.children {
            sum_exclusive(c, acc);
        }
    }

    #[test]
    fn root_subtree_reconciles_with_query_stats() {
        let e = engine();
        let ea = e.explain_analyze("needle.*hay").unwrap();
        let root = ea.root.as_ref().expect("indexed plan has a tree");
        assert_eq!(root.subtree.seeks, ea.stats.cursor_seeks);
        assert_eq!(root.subtree.postings_decoded, ea.stats.postings_decoded);
        assert_eq!(root.subtree.blocks_decoded, ea.stats.blocks_decoded);
        assert_eq!(root.subtree.postings_skipped, ea.stats.postings_skipped);
        // Exclusive stats partition the subtree: summed over all nodes
        // they reproduce the root subtree exactly.
        let mut total = CursorStats::default();
        sum_exclusive(root, &mut total);
        assert_eq!(total, root.subtree);
    }

    #[test]
    fn actuals_and_estimates_are_reported_per_node() {
        let e = engine();
        let ea = e.explain_analyze("needle.*hay").unwrap();
        let root = ea.root.as_ref().unwrap();
        // The AND of two fetches: the root label and two children.
        assert_eq!(root.label, "AND");
        assert_eq!(root.children.len(), 2);
        for c in &root.children {
            assert!(c.label.starts_with("Fetch"), "{}", c.label);
            assert!(c.estimate > 0);
            assert!(c.children.is_empty());
        }
        // The AND yielded exactly the candidate set.
        assert_eq!(root.actual_docs as usize, ea.stats.candidates);
        assert!(ea.stats.docs_examined > 0, "confirmation must have run");
    }

    #[test]
    fn scan_plan_has_no_tree_but_runs() {
        let e = engine();
        let ea = e.explain_analyze(r"\d\d\d\d\d").unwrap();
        assert!(ea.root.is_none());
        assert!(ea.stats.used_scan);
        assert_eq!(ea.stats.docs_examined, 5, "scan examines every doc");
        assert!(ea.render_text().contains("SCAN"));
        assert!(ea.to_json().contains("\"root\":null"));
    }

    #[test]
    fn text_and_json_render_the_tree() {
        let e = engine();
        let ea = e.explain_analyze("needle.*hay").unwrap();
        let text = ea.render_text();
        assert!(text.contains("AND"), "{text}");
        assert!(text.contains("├─ Fetch"), "{text}");
        assert!(text.contains("└─ Fetch"), "{text}");
        assert!(text.contains("est ~"), "{text}");
        let json = ea.to_json();
        assert!(json.contains("\"label\":\"AND\""), "{json}");
        assert!(json.contains("\"children\":["), "{json}");
        assert!(json.contains("\"subtree\":{"), "{json}");
    }

    #[test]
    fn or_plans_are_labelled() {
        let e = engine();
        let ea = e.explain_analyze("needle|hay").unwrap();
        let root = ea.root.as_ref().unwrap();
        assert_eq!(root.label, "OR");
        assert_eq!(root.children.len(), 2);
    }
}
