//! Plan execution: postings retrieval, boolean combination, and match
//! confirmation against the raw data units.
//!
//! Two executors live here. [`stream`] is the default query path: it
//! compiles the plan into a streaming cursor tree and confirms candidates
//! with a batched (optionally parallel) worker pool. The eager
//! [`eval_plan`] / [`confirm`] pair below is kept as the materialized
//! reference implementation — simple enough to audit, and the oracle the
//! differential tests compare the cursors against.

pub mod analyze;
pub mod results;
pub mod stream;

use crate::metrics::QueryStats;
use crate::plan::PhysicalPlan;
use crate::Result;
use free_corpus::{Corpus, DocId};
use free_index::{ops, IndexRead};
use std::time::Instant;

/// Splits a confirmation-thread budget across `parts` parallel executors
/// (one per shard of a partitioned index): every part gets at least one
/// thread, and when the budget exceeds the part count the remainder goes
/// to the earliest parts, deterministically. The confirmation pass is
/// deterministic for any thread count, so callers may hand each partition
/// any slice of the budget without affecting results.
pub fn partition_threads(threads: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let threads = threads.max(1);
    let base = (threads / parts).max(1);
    let extra = threads.saturating_sub(base * parts);
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// The candidate set produced by plan evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Candidates {
    /// Every data unit is a candidate (scan fallback).
    All,
    /// Exactly these data units (sorted).
    Docs(Vec<DocId>),
}

impl Candidates {
    /// Number of candidates, given the corpus size.
    pub fn len(&self, corpus_docs: usize) -> usize {
        match self {
            Candidates::All => corpus_docs,
            Candidates::Docs(d) => d.len(),
        }
    }
}

/// Evaluates a physical plan to a candidate set, charging postings I/O to
/// `stats`.
pub fn eval_plan<I: IndexRead>(
    plan: &PhysicalPlan,
    index: &I,
    stats: &mut QueryStats,
) -> Result<Candidates> {
    let start = Instant::now();
    let out = match plan {
        PhysicalPlan::Scan => Candidates::All,
        _ => Candidates::Docs(eval_node(plan, index, stats)?),
    };
    stats.index_time += start.elapsed();
    Ok(out)
}

fn eval_node<I: IndexRead>(
    plan: &PhysicalPlan,
    index: &I,
    stats: &mut QueryStats,
) -> Result<Vec<DocId>> {
    match plan {
        PhysicalPlan::Scan => unreachable!("Scan only occurs at the root"),
        PhysicalPlan::Fetch { keys, .. } => {
            // Keys all cover one gram; intersect, cheapest first. Repeated
            // keys are deduped (intersecting a list with itself is pure
            // waste), and an absent key empties the whole intersection, so
            // short-circuit before fetching anything.
            let mut order: Vec<&[u8]> = keys.iter().map(|k| &**k).collect();
            order.sort_unstable();
            order.dedup();
            if order.iter().any(|k| !index.contains_key(k)) {
                return Ok(Vec::new());
            }
            order.sort_by_key(|k| index.doc_count(k).unwrap_or(usize::MAX));
            let mut acc: Option<Vec<DocId>> = None;
            for key in order {
                let postings = index.postings(key)?.unwrap_or_default();
                stats.keys_fetched += 1;
                stats.postings_decoded += postings.len() as u64;
                acc = Some(match acc {
                    None => postings,
                    Some(prev) => ops::intersect(&prev, &postings),
                });
                if acc.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            Ok(acc.unwrap_or_default())
        }
        PhysicalPlan::And(children) => {
            // Children are pre-sorted by estimate; evaluate in order with
            // early exit on an empty intermediate result.
            let mut acc: Option<Vec<DocId>> = None;
            for c in children {
                let docs = eval_node(c, index, stats)?;
                acc = Some(match acc {
                    None => docs,
                    Some(prev) => ops::intersect(&prev, &docs),
                });
                if acc.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            Ok(acc.unwrap_or_default())
        }
        PhysicalPlan::Or(children) => {
            let lists: Vec<Vec<DocId>> = children
                .iter()
                .map(|c| eval_node(c, index, stats))
                .collect::<Result<_>>()?;
            let refs: Vec<&[DocId]> = lists.iter().map(Vec::as_slice).collect();
            Ok(ops::union_many(&refs))
        }
    }
}

/// Confirmation: run the full regex over candidate data units.
///
/// `on_doc` receives each matching document and its match spans; returning
/// `false` stops early (first-k queries). Span extraction only happens
/// when `want_spans` is set — pure containment queries stay on the DFA
/// fast path.
pub fn confirm<C: Corpus>(
    corpus: &C,
    regex: &free_regex::Regex,
    candidates: &Candidates,
    want_spans: bool,
    prefilter: &[free_regex::Finder],
    stats: &mut QueryStats,
    on_doc: &mut dyn FnMut(DocId, Vec<free_regex::Span>) -> bool,
) -> Result<()> {
    let start = Instant::now();
    let mut searcher = regex.searcher();
    let mut visit = |doc: DocId, bytes: &[u8], stats: &mut QueryStats| -> bool {
        stats.docs_examined += 1;
        stats.bytes_examined += bytes.len() as u64;
        // Anchoring: every required literal must occur before the
        // automaton is engaged (rejection at literal-scan speed).
        for f in prefilter {
            if !f.contains(bytes) {
                stats.docs_prefiltered += 1;
                return true;
            }
        }
        if !searcher.is_match(bytes) {
            return true;
        }
        stats.matching_docs += 1;
        let spans: Vec<free_regex::Span> = if want_spans {
            searcher
                .find_all(bytes)
                .into_iter()
                .map(|m| m.span())
                .collect()
        } else {
            Vec::new()
        };
        stats.match_count += spans.len();
        on_doc(doc, spans)
    };
    match candidates {
        Candidates::All => {
            // Blind scan: charged to `scan_time`, not `confirm_time`.
            corpus.scan(&mut |doc, bytes| visit(doc, bytes, stats))?;
            stats.scan_time += start.elapsed();
        }
        Candidates::Docs(ids) => {
            for &id in ids {
                let bytes = corpus.get(id)?;
                if !visit(id, &bytes, stats) {
                    break;
                }
            }
            stats.confirm_time += start.elapsed();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LogicalPlan, PhysicalPlan};
    use free_corpus::MemCorpus;
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

    #[test]
    fn partition_threads_covers_every_part() {
        assert_eq!(partition_threads(1, 4), vec![1, 1, 1, 1]);
        assert_eq!(partition_threads(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(partition_threads(6, 4), vec![2, 2, 1, 1]);
        assert_eq!(partition_threads(9, 2), vec![5, 4]);
        assert_eq!(partition_threads(0, 0), vec![1]);
        assert_eq!(partition_threads(8, 1), vec![8]);
    }

    fn eval(pattern: &str, idx: &MemIndex) -> (Candidates, QueryStats) {
        let logical = LogicalPlan::from_ast(&free_regex::parse(pattern).unwrap(), 16);
        let physical = PhysicalPlan::from_logical(&logical, idx);
        let mut stats = QueryStats::default();
        let c = eval_plan(&physical, idx, &mut stats).unwrap();
        (c, stats)
    }

    #[test]
    fn fetch_single_key() {
        let idx = index_with(&[("abc", &[1, 4, 9])]);
        let (c, stats) = eval("abc", &idx);
        assert_eq!(c, Candidates::Docs(vec![1, 4, 9]));
        assert_eq!(stats.keys_fetched, 1);
        assert_eq!(stats.postings_decoded, 3);
    }

    #[test]
    fn and_intersects() {
        let idx = index_with(&[("abc", &[1, 2, 3]), ("xyz", &[2, 3, 4])]);
        let (c, _) = eval("abc.*xyz", &idx);
        assert_eq!(c, Candidates::Docs(vec![2, 3]));
    }

    #[test]
    fn or_unions() {
        let idx = index_with(&[("abc", &[1, 2]), ("xyz", &[2, 4])]);
        let (c, _) = eval("abc|xyz", &idx);
        assert_eq!(c, Candidates::Docs(vec![1, 2, 4]));
    }

    #[test]
    fn and_of_disjoint_keys_is_empty() {
        let idx = index_with(&[("aaa", &[9]), ("zzz", &[1, 2, 3, 4, 5])]);
        let (c, stats) = eval("aaa.*zzz", &idx);
        assert_eq!(c, Candidates::Docs(vec![]));
        // The rarer key ("aaa", 1 doc) is fetched first per the plan
        // ordering; both fetches are needed to prove emptiness.
        assert_eq!(stats.keys_fetched, 2);
        assert_eq!(stats.postings_decoded, 6);
    }

    #[test]
    fn fetch_dedups_and_short_circuits_on_absent_key() {
        let idx = index_with(&[("abc", &[1, 4, 9])]);
        let key = |s: &str| s.as_bytes().to_vec().into_boxed_slice();
        let dup = PhysicalPlan::Fetch {
            gram: b"abc".to_vec(),
            keys: vec![key("abc"), key("abc")],
            estimate: 3,
        };
        let mut stats = QueryStats::default();
        let c = eval_plan(&dup, &idx, &mut stats).unwrap();
        assert_eq!(c, Candidates::Docs(vec![1, 4, 9]));
        assert_eq!(stats.keys_fetched, 1, "duplicate key must be deduped");
        let missing = PhysicalPlan::Fetch {
            gram: b"abc".to_vec(),
            keys: vec![key("abc"), key("nope")],
            estimate: 3,
        };
        let mut stats = QueryStats::default();
        let c = eval_plan(&missing, &idx, &mut stats).unwrap();
        assert_eq!(c, Candidates::Docs(vec![]));
        assert_eq!(stats.keys_fetched, 0, "absent key must short-circuit");
        assert_eq!(stats.postings_decoded, 0);
    }

    #[test]
    fn scan_plan_yields_all() {
        let idx = index_with(&[("other", &[1])]);
        let (c, _) = eval("missing", &idx);
        assert_eq!(c, Candidates::All);
        assert_eq!(c.len(50), 50);
    }

    #[test]
    fn confirm_filters_false_positives() {
        // Index says docs 0 and 1 contain "ab", but only doc 0 matches
        // the full regex ab$ (simulated with abz).
        let corpus = MemCorpus::from_docs(vec![b"xxabz".to_vec(), b"ab".to_vec()]);
        let regex = free_regex::Regex::new("abz").unwrap();
        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        confirm(
            &corpus,
            &regex,
            &Candidates::Docs(vec![0, 1]),
            true,
            &[],
            &mut stats,
            &mut |doc, spans| {
                hits.push((doc, spans.len()));
                true
            },
        )
        .unwrap();
        assert_eq!(hits, vec![(0, 1)]);
        assert_eq!(stats.docs_examined, 2);
        assert_eq!(stats.matching_docs, 1);
        assert_eq!(stats.match_count, 1);
        assert_eq!(stats.bytes_examined, 7);
    }

    #[test]
    fn confirm_early_stop() {
        let corpus = MemCorpus::from_docs(vec![
            b"hit one".to_vec(),
            b"hit two".to_vec(),
            b"hit three".to_vec(),
        ]);
        let regex = free_regex::Regex::new("hit").unwrap();
        let mut stats = QueryStats::default();
        let mut count = 0;
        confirm(
            &corpus,
            &regex,
            &Candidates::All,
            false,
            &[],
            &mut stats,
            &mut |_, _| {
                count += 1;
                count < 2
            },
        )
        .unwrap();
        assert_eq!(count, 2);
        assert_eq!(stats.docs_examined, 2, "early stop must stop the scan");
    }

    #[test]
    fn confirm_without_spans_does_not_count_matches() {
        let corpus = MemCorpus::from_docs(vec![b"aaa".to_vec()]);
        let regex = free_regex::Regex::new("a").unwrap();
        let mut stats = QueryStats::default();
        confirm(
            &corpus,
            &regex,
            &Candidates::All,
            false,
            &[],
            &mut stats,
            &mut |_, spans| {
                assert!(spans.is_empty());
                true
            },
        )
        .unwrap();
        assert_eq!(stats.matching_docs, 1);
        assert_eq!(stats.match_count, 0);
    }
}
