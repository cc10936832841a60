//! Query preparation: the one path from a pattern to what an executor
//! runs.
//!
//! Every executor — [`Engine::query`](crate::Engine::query),
//! [`Engine::explain`](crate::Engine::explain),
//! [`Engine::explain_analyze`](crate::Engine::explain_analyze), the live
//! index's snapshot queries and the scan [`baseline`](crate::baseline) —
//! turns a pattern into its regex, its Algorithm 4.1 logical plan and its
//! required-literal prefilter through [`PreparedQuery::new`], and plans
//! physically through [`PreparedQuery::plan`].

use crate::config::EngineConfig;
use crate::plan::physical::PlanOptions;
use crate::plan::{LogicalPlan, PhysicalPlan};
use crate::Result;
use free_index::IndexRead;
use free_regex::{Finder, Regex};

/// A pattern parsed, logically planned and given its prefilter: the part
/// of a query that does not depend on the index it runs against.
pub struct PreparedQuery {
    regex: Regex,
    logical: LogicalPlan,
    prefilter: Vec<Finder>,
}

impl PreparedQuery {
    /// Parses `pattern` (recording regex details into `span`), plans it
    /// logically under `config`, and builds its prefilter.
    ///
    /// In builds with debug assertions, every gram the logical plan
    /// requires is verified to be a factor of the query language (the
    /// Algorithm 4.1 soundness invariant) before anything runs it.
    pub fn new(
        pattern: &str,
        config: &EngineConfig,
        span: &free_trace::Span,
    ) -> Result<PreparedQuery> {
        let regex = Regex::new_traced(pattern, span)?;
        let logical = LogicalPlan::from_ast(regex.ast(), config.class_expand_limit);
        debug_assert_required_grams_sound(regex.ast(), &logical, pattern);
        let prefilter = build_prefilter(&logical);
        Ok(PreparedQuery {
            regex,
            logical,
            prefilter,
        })
    }

    /// The physical plan against `index`, a directory over `num_docs`
    /// data units.
    pub fn plan<I: IndexRead>(
        &self,
        index: &I,
        num_docs: usize,
        config: &EngineConfig,
    ) -> PhysicalPlan {
        PhysicalPlan::from_logical_with(&self.logical, index, PlanOptions::new(num_docs, config))
    }

    /// The pattern as given.
    pub fn pattern(&self) -> &str {
        self.regex.pattern()
    }

    /// The compiled matcher that confirms candidates.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The logical access plan (Algorithm 4.1 output).
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The literals every match contains, checked before the automaton.
    pub fn prefilter(&self) -> &[Finder] {
        &self.prefilter
    }
}

/// Debug-mode soundness check: every gram in `required_grams()` must be a
/// factor of the query language (every matching string contains it), or
/// the index could discard true matches. Compiled out of release builds;
/// a budget-exhausted check (`Unknown`) is treated as passing since it
/// proves nothing either way.
fn debug_assert_required_grams_sound(ast: &free_regex::Ast, logical: &LogicalPlan, pattern: &str) {
    if cfg!(debug_assertions) {
        use free_regex::factor::{gram_is_factor, FactorCheck, DEFAULT_STATE_BUDGET};
        for gram in logical.required_grams() {
            if let FactorCheck::Violated { witness } =
                gram_is_factor(ast, gram, DEFAULT_STATE_BUDGET)
            {
                panic!(
                    "plan soundness violation: query {pattern:?} requires gram \
                     {:?} but matches {:?}, which does not contain it",
                    String::from_utf8_lossy(gram),
                    String::from_utf8_lossy(&witness),
                );
            }
        }
    }
}

/// Builds literal finders for the plan's required grams (anchoring).
/// Grams of length 1 never reject realistic candidates and grams contained
/// in a longer required gram are subsumed by it, so both are dropped.
/// The finders come longest needle first (ties in byte order): the
/// prefilter is a conjunction, so the order changes no outcome, and a
/// longer literal is the rarer one, so it is the likeliest to reject a
/// page with one scan.
pub fn build_prefilter(logical: &LogicalPlan) -> Vec<Finder> {
    let grams = logical.required_grams();
    let mut needles: Vec<&[u8]> = grams
        .iter()
        .copied()
        .filter(|g| g.len() >= 2)
        .filter(|g| {
            !grams
                .iter()
                .any(|other| other.len() > g.len() && other.windows(g.len()).any(|w| w == *g))
        })
        .collect();
    needles.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    needles.dedup();
    needles.into_iter().map(Finder::new).collect()
}
