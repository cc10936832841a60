//! The physical index access plan (§4.3, Figure 7).
//!
//! Each logical gram is resolved against the directory of the concrete
//! index:
//!
//! 1. the gram itself is a key → fetch its postings;
//! 2. the gram is not a key but some of its substrings are (it was useful
//!    but pruned — e.g. by the presuf shell — or it extends a minimal
//!    useful gram) → fetch the AND of those substrings' postings
//!    (Observation 3.14 guarantees coverage for useful grams);
//! 3. no substring is a key (the gram is useless) → NULL.
//!
//! NULLs are then eliminated a second time with the Table 2 rules; if the
//! root itself becomes NULL the query cannot use the index at all and the
//! engine falls back to a sequential scan (which the paper shows costs
//! the same as raw scanning — "indexing techniques do not degrade
//! performance").
//!
//! AND children are ordered by estimated selectivity so intersections
//! shrink the candidate set as early as possible — the paper's analogy to
//! RDBMS join ordering.

use super::logical::LogicalPlan;
use crate::config::EngineConfig;
use free_index::IndexRead;
use std::fmt;

/// Options controlling physical planning.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Number of data units in the corpus (for selectivity estimates).
    pub num_docs: usize,
    /// Fetches whose estimated selectivity exceeds this are pruned from
    /// conjunctions that retain a more selective member — the paper's
    /// Example 2.1: looking up `<a href=` "may even slow down the
    /// process, because of the additional overhead of looking through a
    /// large postings list". Only bites on indexes that store common
    /// grams (the Complete baseline); multigram keys are all useful
    /// (sel ≤ c) by construction. `1.0` disables pruning.
    pub prune_selectivity: f64,
}

impl PlanOptions {
    /// The options a query over `num_docs` data units plans with under
    /// `config`: the one place the engine reads
    /// [`EngineConfig::prune_selectivity`].
    pub fn new(num_docs: usize, config: &EngineConfig) -> PlanOptions {
        PlanOptions {
            num_docs,
            prune_selectivity: config.prune_selectivity,
        }
    }

    /// No pruning (used by tests and by callers without corpus context).
    pub fn none() -> PlanOptions {
        PlanOptions {
            num_docs: 0,
            prune_selectivity: 1.0,
        }
    }

    fn prune_limit(&self) -> usize {
        if self.prune_selectivity >= 1.0 || self.num_docs == 0 {
            usize::MAX
        } else {
            (self.prune_selectivity * self.num_docs as f64).ceil() as usize
        }
    }
}

/// A static classification of how well a physical plan uses the index.
///
/// This is the cost-model summary surfaced by `free analyze` and recorded
/// in query stats: INDEXED plans touch a small slice of the corpus, WEAK
/// plans are index-assisted but still expect to fetch a large fraction of
/// it, and SCAN plans cannot use the index at all (the paper's
/// `zip`/`phone`/`html` queries). The variants are declared best to
/// worst, so the order ranks them: the worst of several plans is their
/// `max`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlanClass {
    /// The index narrows candidates to under [`WEAK_FRACTION`] of the
    /// corpus.
    #[default]
    Indexed,
    /// The plan uses the index but its estimate covers at least
    /// [`WEAK_FRACTION`] of the corpus — barely better than scanning.
    Weak,
    /// The plan degenerated to a full sequential scan.
    Scan,
}

/// Estimated candidate fraction at or above which an index-using plan is
/// classified [`PlanClass::Weak`].
pub const WEAK_FRACTION: f64 = 0.5;

impl fmt::Display for PlanClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanClass::Indexed => "INDEXED",
            PlanClass::Weak => "WEAK",
            PlanClass::Scan => "SCAN",
        })
    }
}

/// A physical index access plan. `Fetch` leaves carry concrete directory
/// keys; interior nodes are set operations over postings.
#[derive(Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// Intersect the postings of `keys` (all of which cover one logical
    /// gram).
    Fetch {
        /// The logical gram this leaf covers.
        gram: Vec<u8>,
        /// Index keys whose postings intersect to cover the gram.
        keys: Vec<Box<[u8]>>,
        /// Estimated result size (min of the keys' document counts).
        estimate: usize,
    },
    /// Intersect children.
    And(Vec<PhysicalPlan>),
    /// Union children.
    Or(Vec<PhysicalPlan>),
    /// The plan cannot constrain candidates: scan the whole corpus.
    Scan,
}

impl PhysicalPlan {
    /// Resolves a logical plan against an index directory, without
    /// common-list pruning.
    pub fn from_logical<I: IndexRead>(logical: &LogicalPlan, index: &I) -> PhysicalPlan {
        PhysicalPlan::from_logical_with(logical, index, PlanOptions::none())
    }

    /// Resolves a logical plan against an index directory.
    pub fn from_logical_with<I: IndexRead>(
        logical: &LogicalPlan,
        index: &I,
        options: PlanOptions,
    ) -> PhysicalPlan {
        match resolve(logical, index, &options) {
            Some(plan) => plan,
            None => PhysicalPlan::Scan,
        }
    }

    /// Estimated number of candidate documents this plan yields.
    /// `usize::MAX` means unbounded (scan).
    pub fn estimate(&self) -> usize {
        match self {
            PhysicalPlan::Fetch { estimate, .. } => *estimate,
            PhysicalPlan::And(cs) => cs.iter().map(PhysicalPlan::estimate).min().unwrap_or(0),
            PhysicalPlan::Or(cs) => cs
                .iter()
                .map(PhysicalPlan::estimate)
                .fold(0usize, |a, b| a.saturating_add(b)),
            PhysicalPlan::Scan => usize::MAX,
        }
    }

    /// Whether the plan degenerates to a full scan.
    pub fn is_scan(&self) -> bool {
        matches!(self, PhysicalPlan::Scan)
    }

    /// Classifies the plan against a corpus of `num_docs` data units.
    ///
    /// With `num_docs == 0` there is no basis for a WEAK judgment, so any
    /// non-scan plan is INDEXED.
    pub fn classify(&self, num_docs: usize) -> PlanClass {
        if self.is_scan() {
            return PlanClass::Scan;
        }
        let estimate = self.estimate();
        if num_docs > 0 && estimate as f64 >= WEAK_FRACTION * num_docs as f64 {
            PlanClass::Weak
        } else {
            PlanClass::Indexed
        }
    }

    /// Total number of index keys fetched by the plan.
    pub fn num_keys(&self) -> usize {
        match self {
            PhysicalPlan::Fetch { keys, .. } => keys.len(),
            PhysicalPlan::And(cs) | PhysicalPlan::Or(cs) => {
                cs.iter().map(PhysicalPlan::num_keys).sum()
            }
            PhysicalPlan::Scan => 0,
        }
    }

    /// Every index key the plan fetches, deduplicated, in plan order —
    /// what the query log records so workload mining can see which
    /// multigrams real traffic leans on.
    pub fn gram_keys(&self) -> Vec<&[u8]> {
        fn walk<'p>(plan: &'p PhysicalPlan, out: &mut Vec<&'p [u8]>) {
            match plan {
                PhysicalPlan::Fetch { keys, .. } => {
                    for key in keys {
                        if !out.contains(&key.as_ref()) {
                            out.push(key.as_ref());
                        }
                    }
                }
                PhysicalPlan::And(cs) | PhysicalPlan::Or(cs) => {
                    for c in cs {
                        walk(c, out);
                    }
                }
                PhysicalPlan::Scan => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// `None` plays the role of NULL during resolution.
fn resolve<I: IndexRead>(
    logical: &LogicalPlan,
    index: &I,
    options: &PlanOptions,
) -> Option<PhysicalPlan> {
    match logical {
        LogicalPlan::Null => None,
        LogicalPlan::Gram(g) => resolve_gram(g, index, options),
        LogicalPlan::And(children) => {
            let mut resolved: Vec<PhysicalPlan> = children
                .iter()
                .filter_map(|c| resolve(c, index, options))
                .collect();
            // Table 2: x AND NULL = x; all-NULL AND is NULL.
            if resolved.is_empty() {
                return None;
            }
            // Most selective first.
            resolved.sort_by_key(PhysicalPlan::estimate);
            resolved.dedup();
            // Example 2.1's optimization: once a selective member anchors
            // the conjunction, drop members whose postings are so long
            // that reading them costs more than the filtering they add.
            let limit = options.prune_limit();
            if resolved[0].estimate() <= limit {
                resolved.retain(|p| p.estimate() <= limit);
            }
            if resolved.len() == 1 {
                return resolved.pop();
            }
            Some(PhysicalPlan::And(resolved))
        }
        LogicalPlan::Or(children) => {
            // Table 2: x OR NULL = NULL.
            let mut resolved = Vec::with_capacity(children.len());
            for c in children {
                resolved.push(resolve(c, index, options)?);
            }
            resolved.dedup();
            if resolved.len() == 1 {
                return resolved.pop();
            }
            Some(PhysicalPlan::Or(resolved))
        }
    }
}

/// Resolves one gram per the three cases in the module docs.
fn resolve_gram<I: IndexRead>(
    gram: &[u8],
    index: &I,
    options: &PlanOptions,
) -> Option<PhysicalPlan> {
    if let Some(count) = index.doc_count(gram) {
        return Some(PhysicalPlan::Fetch {
            gram: gram.to_vec(),
            keys: vec![gram.into()],
            estimate: count,
        });
    }
    // Collect all indexed substrings, then drop any key that is itself a
    // substring of another collected key: the longer key's postings are a
    // subset (every doc containing it contains the shorter one), so the
    // shorter key adds a fetch without adding filtering power.
    let mut subs: Vec<(Box<[u8]>, usize)> = Vec::new();
    for i in 0..gram.len() {
        for j in (i + 1)..=gram.len() {
            let cand = &gram[i..j];
            if let Some(count) = index.doc_count(cand) {
                if !subs.iter().any(|(k, _)| &**k == cand) {
                    subs.push((cand.into(), count));
                }
            }
        }
    }
    if subs.is_empty() {
        return None;
    }
    let mut maximal: Vec<(Box<[u8]>, usize)> = subs
        .iter()
        .filter(|(k, _)| {
            !subs
                .iter()
                .any(|(other, _)| other.len() > k.len() && contains_sub(other, k))
        })
        .cloned()
        .collect();
    let estimate = maximal.iter().map(|&(_, c)| c).min().unwrap_or(0);
    // Same Example 2.1 pruning within a substring cover: keep the rarest
    // key, drop covering keys whose postings dwarf the filtering they add.
    let limit = options.prune_limit();
    if estimate <= limit {
        maximal.retain(|&(_, c)| c <= limit);
    }
    Some(PhysicalPlan::Fetch {
        gram: gram.to_vec(),
        keys: maximal.into_iter().map(|(k, _)| k).collect(),
        estimate,
    })
}

fn contains_sub(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalPlan::Fetch {
                gram,
                keys,
                estimate,
            } => {
                write!(f, "Fetch[{:?}", String::from_utf8_lossy(gram))?;
                if keys.len() != 1 || &*keys[0] != gram.as_slice() {
                    write!(f, " via ")?;
                    for (i, k) in keys.iter().enumerate() {
                        if i > 0 {
                            write!(f, "+")?;
                        }
                        write!(f, "{:?}", String::from_utf8_lossy(k))?;
                    }
                }
                write!(f, " ~{estimate}]")
            }
            PhysicalPlan::And(cs) => {
                write!(f, "AND(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c:?}")?;
                }
                write!(f, ")")
            }
            PhysicalPlan::Or(cs) => {
                write!(f, "OR(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c:?}")?;
                }
                write!(f, ")")
            }
            PhysicalPlan::Scan => write!(f, "SCAN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn logical(pattern: &str) -> LogicalPlan {
        LogicalPlan::from_ast(&free_regex::parse(pattern).unwrap(), 16)
    }

    #[test]
    fn exact_key_available() {
        let idx = index_with(&[("Clinton", &[1, 2, 3])]);
        let p = PhysicalPlan::from_logical(&logical("Clinton"), &idx);
        assert_eq!(format!("{p:?}"), r#"Fetch["Clinton" ~3]"#);
        assert_eq!(p.estimate(), 3);
        assert_eq!(p.num_keys(), 1);
    }

    #[test]
    fn substring_cover_paper_figure_7() {
        // William not indexed, but Willi and liam are: AND of both.
        let idx = index_with(&[
            ("Willi", &[1, 2]),
            ("liam", &[2, 3]),
            ("Clint", &[2]),
            ("nton", &[2, 4]),
        ]);
        let p = PhysicalPlan::from_logical(&logical("(Bill|William).*Clinton"), &idx);
        // Bill has no keys → NULL → OR(Bill, William) → NULL; AND keeps
        // Clinton's cover.
        let shown = format!("{p:?}");
        assert!(shown.contains("Clint"), "{shown}");
        assert!(shown.contains("nton"), "{shown}");
        assert!(!shown.contains("Willi"), "{shown}");
    }

    #[test]
    fn or_survives_when_both_branches_resolve() {
        let idx = index_with(&[
            ("Bill", &[1]),
            ("Willi", &[2]),
            ("liam", &[2, 3]),
            ("Clinton", &[1, 2]),
        ]);
        let p = PhysicalPlan::from_logical(&logical("(Bill|William).*Clinton"), &idx);
        let shown = format!("{p:?}");
        assert!(shown.contains("OR("), "{shown}");
        assert!(shown.contains("Willi"), "{shown}");
        assert!(shown.contains(r#"+"liam""#), "{shown}");
    }

    #[test]
    fn useless_gram_becomes_scan() {
        let idx = index_with(&[("unrelated", &[1])]);
        let p = PhysicalPlan::from_logical(&logical("nothing"), &idx);
        assert!(p.is_scan());
        assert_eq!(p.estimate(), usize::MAX);
    }

    #[test]
    fn null_logical_plan_is_scan() {
        let idx = index_with(&[("x", &[1])]);
        let p = PhysicalPlan::from_logical(&LogicalPlan::Null, &idx);
        assert!(p.is_scan());
    }

    #[test]
    fn and_ordered_by_selectivity() {
        let idx = index_with(&[("commonish", &[1, 2, 3, 4, 5]), ("rare", &[2])]);
        let p = PhysicalPlan::from_logical(&logical("commonish.*rare"), &idx);
        match p {
            PhysicalPlan::And(cs) => {
                assert_eq!(cs[0].estimate(), 1);
                assert_eq!(cs[1].estimate(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redundant_superstring_keys_pruned() {
        // If both "mp3" and ".mp3" are keys, a gram ".mp3" resolves to the
        // exact key; but a *longer* gram "x.mp3" with only substring keys
        // available should keep only the minimal covering keys.
        let idx = index_with(&[("mp3", &[1, 2, 3]), (".mp3", &[1, 2])]);
        let p = PhysicalPlan::from_logical(&logical("qq\\.mp3"), &idx);
        match &p {
            PhysicalPlan::Fetch { keys, estimate, .. } => {
                // "mp3" is a substring of ".mp3", so its postings are a
                // superset; only the stronger ".mp3" key is fetched.
                assert_eq!(keys.len(), 1);
                assert_eq!(&**keys.first().unwrap(), b".mp3");
                assert_eq!(*estimate, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn estimates_combine() {
        let idx = index_with(&[("aaa", &[1, 2, 3]), ("bbb", &[4])]);
        let and = PhysicalPlan::from_logical(&logical("aaa.*bbb"), &idx);
        assert_eq!(and.estimate(), 1);
        let or = PhysicalPlan::from_logical(&logical("aaa|bbb"), &idx);
        assert_eq!(or.estimate(), 4);
    }

    #[test]
    fn example_2_1_pruning_drops_common_lists() {
        // "<a href=" appears in 9 of 10 docs, ".mp3" in 1: with pruning
        // at 0.5, the conjunction keeps only the selective fetch.
        let idx = index_with(&[("<a href=", &[0, 1, 2, 3, 4, 5, 6, 7, 8]), (".mp3", &[3])]);
        let logical = logical(r"<a href=.*\.mp3");
        let pruned = PhysicalPlan::from_logical_with(
            &logical,
            &idx,
            PlanOptions {
                num_docs: 10,
                prune_selectivity: 0.5,
            },
        );
        assert_eq!(format!("{pruned:?}"), r#"Fetch[".mp3" ~1]"#);
        // Without pruning both fetches remain.
        let full = PhysicalPlan::from_logical(&logical, &idx);
        assert!(
            matches!(full, PhysicalPlan::And(ref cs) if cs.len() == 2),
            "{full:?}"
        );
    }

    #[test]
    fn pruning_never_removes_the_only_member() {
        // All lists are common: nothing to anchor on, so nothing pruned.
        let idx = index_with(&[("aaa", &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])]);
        let p = PhysicalPlan::from_logical_with(
            &logical("aaa"),
            &idx,
            PlanOptions {
                num_docs: 10,
                prune_selectivity: 0.5,
            },
        );
        assert_eq!(p.estimate(), 10);
        assert_eq!(p.num_keys(), 1);
    }

    #[test]
    fn or_with_unresolvable_branch_is_scan() {
        let idx = index_with(&[("aaa", &[1])]);
        let p = PhysicalPlan::from_logical(&logical("aaa|zzz"), &idx);
        assert!(p.is_scan());
    }

    #[test]
    fn classification_tiers() {
        let idx = index_with(&[("rare", &[1]), ("common", &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])]);
        let p = PhysicalPlan::from_logical(&logical("rare"), &idx);
        assert_eq!(p.classify(10), PlanClass::Indexed);
        let p = PhysicalPlan::from_logical(&logical("common"), &idx);
        assert_eq!(p.classify(10), PlanClass::Weak);
        // Exactly at the fraction boundary counts as weak.
        assert_eq!(p.classify(20), PlanClass::Weak);
        assert_eq!(p.classify(21), PlanClass::Indexed);
        let p = PhysicalPlan::from_logical(&logical("absent"), &idx);
        assert_eq!(p.classify(10), PlanClass::Scan);
        // No corpus context: only scans are flagged.
        let p = PhysicalPlan::from_logical(&logical("common"), &idx);
        assert_eq!(p.classify(0), PlanClass::Indexed);
        assert_eq!(format!("{}", PlanClass::Weak), "WEAK");
    }
}
