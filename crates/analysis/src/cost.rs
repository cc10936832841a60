//! The static cost classifier.
//!
//! Labels a plan INDEXED, WEAK, or SCAN. Two modes:
//!
//! - **Query-only** ([`classify_logical`]): no index at hand, so the
//!   judgment uses plan shape alone — NULL plans scan, plans whose every
//!   gram is a single byte are barely better than scanning (single-byte
//!   grams are almost never useful in the Definition 3.4 sense), and
//!   everything else is assumed indexed. This is what `free analyze`
//!   uses.
//! - **Index-backed** ([`classify_physical`]): resolves the logical plan
//!   against a concrete index directory and classifies by
//!   [`PhysicalPlan::estimate`] relative to the corpus size, exactly as
//!   the engine does at query time.

use crate::diagnostics::{codes, Diagnostic, Severity};
use free_engine::plan::logical::LogicalPlan;
use free_engine::plan::physical::{PhysicalPlan, PlanOptions};
use free_engine::{EngineConfig, PlanClass};
use free_index::IndexRead;

/// Classifies a logical plan without an index.
pub fn classify_logical(plan: &LogicalPlan) -> PlanClass {
    if plan.is_null() {
        PlanClass::Scan
    } else if plan.grams().iter().all(|g| g.len() < 2) {
        PlanClass::Weak
    } else {
        PlanClass::Indexed
    }
}

/// Classifies a logical plan against a concrete index: resolves the
/// physical plan and judges its candidate estimate against `num_docs`,
/// returning the class together with the estimate.
pub fn classify_physical<I: IndexRead>(
    plan: &LogicalPlan,
    index: &I,
    num_docs: usize,
) -> (PlanClass, usize) {
    let options = PlanOptions::new(num_docs, &EngineConfig::default());
    let physical = PhysicalPlan::from_logical_with(plan, index, options);
    (physical.classify(num_docs), physical.estimate())
}

/// Renders a class as its `FA201`/`FA202`/`FA203` diagnostic.
pub fn class_diagnostic(class: PlanClass) -> Diagnostic {
    match class {
        PlanClass::Indexed => Diagnostic::new(
            codes::CLASS_INDEXED,
            Severity::Info,
            None,
            "plan class INDEXED: the index narrows candidates before any \
             data unit is read",
        ),
        PlanClass::Weak => Diagnostic::new(
            codes::CLASS_WEAK,
            Severity::Warning,
            None,
            "plan class WEAK: the plan uses the index but expects to fetch \
             a large fraction of the corpus",
        )
        .with_suggestion("add a longer or rarer literal to the pattern"),
        PlanClass::Scan => Diagnostic::new(
            codes::CLASS_SCAN,
            Severity::Warning,
            None,
            "plan class SCAN: the index cannot constrain this query; every \
             data unit will be read",
        )
        .with_suggestion(
            "rewrite the query so at least one alternation-free literal \
             survives (see the FA0xx findings above)",
        ),
    }
}

/// Ratio between estimated and actual cardinality beyond which `FA204`
/// fires.
pub const DRIFT_FACTOR: f64 = 4.0;

/// Minimum `max(estimate, actual)` for drift to be reported; below this
/// the absolute error is too small to matter.
pub const DRIFT_MIN_CARDINALITY: u64 = 16;

/// Checks one operator's estimate against its observed cardinality,
/// producing an `FA204` diagnostic when they disagree by more than
/// [`DRIFT_FACTOR`] in either direction.
///
/// `label` names the operator (typically a plan node's rendering from
/// [`free_engine::NodeStats`]).
pub fn estimate_drift(label: &str, estimated: usize, actual: u64) -> Option<Diagnostic> {
    let est = estimated as u64;
    if est.max(actual) < DRIFT_MIN_CARDINALITY {
        return None;
    }
    // Guard both directions with a zero-safe ratio: a zero estimate
    // against a large actual (or vice versa) is infinite drift.
    let (lo, hi) = (est.min(actual), est.max(actual));
    if lo > 0 && (hi as f64) < DRIFT_FACTOR * lo as f64 {
        return None;
    }
    let direction = if actual > est { "under" } else { "over" };
    Some(
        Diagnostic::new(
            codes::ESTIMATE_DRIFT,
            Severity::Warning,
            None,
            format!(
                "estimate drift at {label}: planner estimated ~{estimated} \
                 doc(s) but the operator yielded {actual} ({direction}estimated)"
            ),
        )
        .with_suggestion(
            "the doc-frequency statistics the planner used do not reflect \
             this operator's true selectivity; consider rebuilding the index \
             or lowering the usefulness threshold",
        ),
    )
}

/// Walks an `EXPLAIN ANALYZE` operator tree and reports every node whose
/// actual cardinality drifted from its estimate (pre-order, so the root's
/// finding comes first).
pub fn drift_diagnostics(root: &free_engine::NodeStats) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    fn walk(node: &free_engine::NodeStats, out: &mut Vec<Diagnostic>) {
        if let Some(d) = estimate_drift(&node.label, node.estimate, node.actual_docs) {
            out.push(d);
        }
        for c in &node.children {
            walk(c, out);
        }
    }
    walk(root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_regex::parse;

    fn logical(pattern: &str) -> LogicalPlan {
        LogicalPlan::from_ast(&parse(pattern).unwrap(), 16)
    }

    #[test]
    fn logical_classification_tiers() {
        assert_eq!(classify_logical(&logical("a*")), PlanClass::Scan);
        assert_eq!(classify_logical(&logical("Clinton")), PlanClass::Indexed);
        // `[ab]` expands to OR("a", "b"): all grams single-byte → WEAK.
        assert_eq!(classify_logical(&logical("[ab]")), PlanClass::Weak);
        assert_eq!(classify_logical(&logical("x")), PlanClass::Weak);
        // The class splits the literals, so every gram is one byte.
        assert_eq!(classify_logical(&logical("x[ab]y")), PlanClass::Weak);
        // One multi-byte gram is enough to call it INDEXED.
        assert_eq!(classify_logical(&logical("ab[xy]")), PlanClass::Indexed);
    }

    #[test]
    fn physical_classification_uses_estimates() {
        use free_index::MemIndex;
        let mut idx = MemIndex::new();
        idx.add(b"ab", 0);
        for d in 0..9 {
            idx.add(b"zz", d);
        }
        // 1 of 10 candidates → INDEXED.
        let (class, est) = classify_physical(&logical("ab"), &idx, 10);
        assert_eq!((class, est), (PlanClass::Indexed, 1));
        // 9 of 10 candidates ≥ WEAK_FRACTION → WEAK.
        let (class, est) = classify_physical(&logical("zz"), &idx, 10);
        assert_eq!((class, est), (PlanClass::Weak, 9));
        let (class, _) = classify_physical(&logical("a*"), &idx, 10);
        assert_eq!(class, PlanClass::Scan);
        // An AND of a rare and a common gram: the rare member sets the
        // estimate, and pruning the common one leaves it standing.
        let (class, est) = classify_physical(&logical("ab.*zz"), &idx, 10);
        assert_eq!((class, est), (PlanClass::Indexed, 1));
    }

    #[test]
    fn compiled_classification_reads_cursor_estimates() {
        use free_engine::exec::stream::compile_plan;
        use free_index::{MemIndex, PostingsCursor};
        let mut idx = MemIndex::new();
        idx.add(b"ab", 0);
        for d in 0..9 {
            idx.add(b"zz", d);
        }
        // The static class must agree with the bound the engine's primed
        // cursor tree reports, and that bound is never looser.
        for pattern in ["ab", "zz", "ab.*zz", "a*"] {
            let plan = logical(pattern);
            let (class, static_est) = classify_physical(&plan, &idx, 10);
            let options = PlanOptions::new(10, &EngineConfig::default());
            let physical = PhysicalPlan::from_logical_with(&plan, &idx, options);
            let mut stats = free_engine::QueryStats::default();
            match compile_plan(&physical, &idx, &mut stats).unwrap() {
                Some(cursor) => {
                    let est = cursor.cost_estimate().min(10);
                    assert!(est <= static_est, "{pattern}: {est} > {static_est}");
                    assert_eq!(class, physical.classify(10), "{pattern}");
                    assert_ne!(class, PlanClass::Scan, "{pattern}");
                }
                None => assert_eq!(class, PlanClass::Scan, "{pattern}"),
            }
        }
        // An AND of a rare and a common gram: the cursor bound is the
        // rare child's remaining count.
        let physical = PhysicalPlan::from_logical_with(
            &logical("ab.*zz"),
            &idx,
            PlanOptions::new(10, &EngineConfig::default()),
        );
        let mut stats = free_engine::QueryStats::default();
        let cursor = compile_plan(&physical, &idx, &mut stats).unwrap().unwrap();
        assert!(
            cursor.cost_estimate() <= 1,
            "AND bound must come from the rarest child"
        );
    }

    #[test]
    fn drift_fires_only_on_large_relative_misses() {
        // 4x under-estimate on a meaningful cardinality: fires.
        let d = estimate_drift("Fetch[\"abc\"]", 10, 40).expect("drift");
        assert_eq!(d.code, codes::ESTIMATE_DRIFT);
        assert!(d.message.contains("underestimated"), "{}", d.message);
        // Over-estimate fires too.
        let d = estimate_drift("AND", 100, 20).expect("drift");
        assert!(d.message.contains("overestimated"), "{}", d.message);
        // Inside the factor: quiet.
        assert!(estimate_drift("AND", 30, 40).is_none());
        // Tiny cardinalities: quiet even at infinite ratio.
        assert!(estimate_drift("AND", 0, 10).is_none());
        // Zero actual against a large estimate is infinite drift.
        assert!(estimate_drift("AND", 100, 0).is_some());
    }

    #[test]
    fn drift_walks_the_analyze_tree() {
        use free_corpus::MemCorpus;
        use free_engine::{Engine, EngineConfig};
        // Docs where "ab" and "cd" co-occur nowhere: the AND's estimate
        // (min of children) is far above its actual cardinality of zero.
        let docs: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    format!("ab filler {i}").into_bytes()
                } else {
                    format!("cd filler {i}").into_bytes()
                }
            })
            .collect();
        let engine = Engine::build_in_memory(
            MemCorpus::from_docs(docs),
            EngineConfig {
                max_gram_len: 3,
                prune_selectivity: 1.0,
                ..EngineConfig::with_kind(free_engine::IndexKind::Complete)
            },
        )
        .unwrap();
        let ea = engine.explain_analyze("ab.*cd").unwrap();
        let root = ea.root.as_ref().expect("indexed plan");
        let found = drift_diagnostics(root);
        assert!(
            found.iter().any(|d| d.code == codes::ESTIMATE_DRIFT),
            "AND with zero actual docs must report drift: {found:?}"
        );
    }

    #[test]
    fn class_diagnostics_carry_stable_codes() {
        assert_eq!(
            class_diagnostic(PlanClass::Indexed).code,
            codes::CLASS_INDEXED
        );
        assert_eq!(class_diagnostic(PlanClass::Weak).code, codes::CLASS_WEAK);
        assert_eq!(class_diagnostic(PlanClass::Scan).code, codes::CLASS_SCAN);
        assert_eq!(
            class_diagnostic(PlanClass::Indexed).severity,
            Severity::Info
        );
        assert_eq!(
            class_diagnostic(PlanClass::Scan).severity,
            Severity::Warning
        );
    }
}
