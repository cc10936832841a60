//! **free-analyze** — static analysis of regex queries against the FREE
//! multigram index cost model.
//!
//! Cho & Rajagopalan's engine degrades gracefully — a query whose plan
//! collapses to NULL still *runs*, it just scans the whole corpus
//! (§5.3's `zip`, `phone`, and `html` queries). Graceful degradation is
//! also silent degradation: nothing tells the user their query threw the
//! index away, or why. This crate is the missing diagnostic layer. Five
//! engines, the first three purely static (no corpus access required):
//!
//! 1. **Query linter** ([`lint`]) — walks the span-carrying parse tree
//!    and predicts index pathologies before planning: NULL-collapsing
//!    constructs (Table 2), edge `.*`, over-wide classes, unindexable
//!    alternation branches, counted-repetition blowup, nested
//!    quantifiers.
//! 2. **Plan soundness verifier** ([`soundness`]) — proves, per required
//!    gram, the Algorithm 4.1 invariant that the gram is a factor of
//!    every string in the query's language (via the derivative × KMP
//!    product construction in [`free_regex::factor`]).
//! 3. **Cost classifier** ([`cost`]) — labels the plan INDEXED, WEAK, or
//!    SCAN, from plan shape alone or against a concrete index.
//! 4. **On-disk verifier** ([`mod@fsck`]) — checks stored index state
//!    (checksums, postings invariants, manifest ↔ disk agreement, and a
//!    sampled re-mining proof) without mutating anything; this one reads
//!    disk, never the query.
//! 5. **Workload miner** ([`workload`]) — reads the durable query log
//!    (`free search`/`free serve --query-log`) back and reports
//!    workload-level pathologies: hot SCAN patterns, aggregate
//!    selectivity drift, slow-query concentration (`FA6xx`).
//!
//! Findings carry stable `FAxxx` codes (see [`diagnostics::codes`]) and
//! render both human-readable and as JSON. The `freegrep`/`free` CLI
//! exposes all of this as `free analyze <pattern>`.

#![forbid(unsafe_code)]

pub mod cost;
pub mod diagnostics;
pub mod fsck;
pub mod lint;
pub mod live;
pub mod soundness;
pub mod workload;

pub use diagnostics::{codes, Diagnostic, Report, Severity};
pub use fsck::{fsck, FsckOptions, FsckReport};
pub use lint::predicts_null;
pub use live::{analyze_live, LiveAnalysisConfig, LiveHealth};
pub use soundness::SoundnessSummary;
pub use workload::{analyze_workload, QueryRecord, WorkloadOptions, WorkloadReport};

use free_engine::plan::logical::LogicalPlan;
use free_index::IndexRead;
use free_regex::factor::DEFAULT_STATE_BUDGET;
use free_regex::{parse_spanned, Span};

/// Tunables for the analyzer. Defaults track
/// [`EngineConfig::default`](free_engine::EngineConfig::default) so the
/// linter predicts what the engine will actually do.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Classes with more members than this collapse to NULL during
    /// planning (mirrors `EngineConfig::class_expand_limit`).
    pub class_expand_limit: usize,
    /// Derivative-state budget per gram for the soundness verifier.
    pub soundness_state_budget: usize,
    /// `FA005` fires when a counted repetition expands an exact literal
    /// beyond this many bytes.
    pub repeat_literal_limit: usize,
    /// `FA005` fires when a repetition's upper bound exceeds this.
    pub repeat_count_limit: u32,
    /// Whether to run the (comparatively expensive) soundness verifier.
    pub check_soundness: bool,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            class_expand_limit: free_engine::EngineConfig::default().class_expand_limit,
            soundness_state_budget: DEFAULT_STATE_BUDGET,
            repeat_literal_limit: 64,
            repeat_count_limit: 256,
            check_soundness: true,
        }
    }
}

/// Analyzes `pattern` without an index: parse, lint, plan, verify
/// soundness, classify. Parse failures become an `FA000` diagnostic in
/// the report rather than an error — the analyzer always has something
/// to say.
pub fn analyze(pattern: &str, cfg: &AnalysisConfig) -> Report {
    analyze_planned(pattern, cfg).0
}

/// [`analyze`], also returning the logical plan (`None` when the pattern
/// does not parse).
fn analyze_planned(pattern: &str, cfg: &AnalysisConfig) -> (Report, Option<LogicalPlan>) {
    let tree = match parse_spanned(pattern) {
        Ok(tree) => tree,
        Err(e) => {
            let at = e.offset().min(pattern.len());
            let end = (at + 1).min(pattern.len().max(at));
            let report = Report {
                pattern: pattern.to_string(),
                plan: None,
                class: None,
                diagnostics: vec![diagnostics::Diagnostic::new(
                    codes::PARSE_ERROR,
                    Severity::Error,
                    Some(Span::new(at, end.max(at))),
                    format!("pattern does not parse: {}", e.kind()),
                )],
            };
            return (report, None);
        }
    };
    let mut diags = lint::lint(&tree, cfg);
    let ast = tree.to_ast();
    let plan = LogicalPlan::from_ast(&ast, cfg.class_expand_limit);
    if cfg.check_soundness {
        diags.extend(soundness::verify_plan(&ast, &plan, cfg.soundness_state_budget).diagnostics);
    }
    let class = cost::classify_logical(&plan);
    diags.push(cost::class_diagnostic(class));
    let report = Report {
        pattern: pattern.to_string(),
        plan: Some(format!("{plan:?}")),
        class: Some(class),
        diagnostics: diags,
    };
    (report, Some(plan))
}

/// Like [`analyze`], but classifies against a concrete index directory
/// and corpus size, using the physical plan's candidate estimate (the
/// same judgment the engine records in its query stats).
pub fn analyze_with_index<I: IndexRead>(
    pattern: &str,
    index: &I,
    num_docs: usize,
    cfg: &AnalysisConfig,
) -> Report {
    let (mut report, plan) = analyze_planned(pattern, cfg);
    let Some(plan) = plan else {
        return report; // parse error: nothing more to classify
    };
    let (class, _estimate) = cost::classify_physical(&plan, index, num_docs);
    // Replace the shape-only judgment with the estimate-backed one.
    report.diagnostics.retain(|d| !d.code.starts_with("FA2"));
    report.diagnostics.push(cost::class_diagnostic(class));
    report.class = Some(class);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_engine::PlanClass;

    #[test]
    fn analyze_star_reports_null_plan_and_scan_class() {
        let r = analyze("a*", &AnalysisConfig::default());
        assert_eq!(r.class, Some(PlanClass::Scan));
        assert_eq!(r.plan.as_deref(), Some("NULL"));
        assert_eq!(r.with_code(codes::NULL_PLAN).len(), 1);
        assert_eq!(r.with_code(codes::CLASS_SCAN).len(), 1);
        assert!(!r.has_errors());
    }

    #[test]
    fn analyze_clean_pattern_is_quiet() {
        let r = analyze("Clinton", &AnalysisConfig::default());
        assert_eq!(r.class, Some(PlanClass::Indexed));
        assert_eq!(r.plan.as_deref(), Some("\"Clinton\""));
        // Only the class note remains.
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, codes::CLASS_INDEXED);
    }

    #[test]
    fn analyze_parse_error_is_a_diagnostic() {
        let r = analyze("(", &AnalysisConfig::default());
        assert!(r.has_errors());
        assert_eq!(r.plan, None);
        assert_eq!(r.class, None);
        let d = &r.with_code(codes::PARSE_ERROR)[0].clone();
        assert!(d.message.contains("unclosed group"), "{}", d.message);
    }

    #[test]
    fn analyze_paper_query_is_indexed_and_sound() {
        let r = analyze(
            r#"<a href=("|')?.*\.mp3("|')?>"#,
            &AnalysisConfig::default(),
        );
        assert_eq!(r.class, Some(PlanClass::Indexed));
        assert!(r.with_code(codes::UNSOUND_GRAM).is_empty());
    }

    #[test]
    fn analyze_with_index_refines_the_class() {
        let mut idx = free_index::MemIndex::new();
        for d in 0..8 {
            idx.add(b"th", d);
        }
        let cfg = AnalysisConfig::default();
        // Shape-only: "th" is a 2-byte gram → INDEXED. Against an index
        // where "th" hits 8 of 10 docs, the estimate says WEAK.
        assert_eq!(analyze("th", &cfg).class, Some(PlanClass::Indexed));
        let r = analyze_with_index("th", &idx, 10, &cfg);
        assert_eq!(r.class, Some(PlanClass::Weak));
        assert_eq!(r.with_code(codes::CLASS_WEAK).len(), 1);
        assert_eq!(r.with_code(codes::CLASS_INDEXED).len(), 0);
        // Parse errors pass through untouched.
        assert!(analyze_with_index("(", &idx, 10, &cfg).has_errors());
    }
}
