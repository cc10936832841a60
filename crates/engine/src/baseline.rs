//! The "Scan" baseline of §5.3: match the regex against every data unit
//! sequentially, with no index at all — what running `grep`/`lex`/`awk`
//! over the corpus would do.

use crate::config::EngineConfig;
use crate::exec::results::DocMatches;
use crate::exec::{confirm, Candidates};
use crate::metrics::QueryStats;
use crate::prepare::PreparedQuery;
use crate::Result;
use free_corpus::{Corpus, DocId};
use free_regex::Span;
use std::time::Instant;

/// Scans the whole corpus, returning the matching data units.
pub fn scan_matching_docs<C: Corpus>(
    corpus: &C,
    pattern: &str,
) -> Result<(Vec<DocId>, QueryStats)> {
    let (prepared, mut stats) = compile(pattern)?;
    let mut out = Vec::new();
    confirm(
        corpus,
        prepared.regex(),
        &Candidates::All,
        false,
        prepared.prefilter(),
        &mut stats,
        &mut |doc, _| {
            out.push(doc);
            true
        },
    )?;
    Ok((out, stats))
}

/// Scans the whole corpus, returning every match span.
pub fn scan_all_matches<C: Corpus>(
    corpus: &C,
    pattern: &str,
) -> Result<(Vec<DocMatches>, QueryStats)> {
    let (prepared, mut stats) = compile(pattern)?;
    let mut out = Vec::new();
    confirm(
        corpus,
        prepared.regex(),
        &Candidates::All,
        true,
        prepared.prefilter(),
        &mut stats,
        &mut |doc, spans| {
            out.push(DocMatches { doc, spans });
            true
        },
    )?;
    Ok((out, stats))
}

/// Scans until the first `k` matching strings are found (the Figure 11
/// baseline, whose response time fluctuates wildly with result density).
pub fn scan_first_k<C: Corpus>(
    corpus: &C,
    pattern: &str,
    k: usize,
) -> Result<(Vec<(DocId, Span)>, QueryStats)> {
    let (prepared, mut stats) = compile(pattern)?;
    let mut out: Vec<(DocId, Span)> = Vec::with_capacity(k);
    if k > 0 {
        confirm(
            corpus,
            prepared.regex(),
            &Candidates::All,
            true,
            prepared.prefilter(),
            &mut stats,
            &mut |doc, spans| {
                for s in spans {
                    if out.len() >= k {
                        break;
                    }
                    out.push((doc, s));
                }
                out.len() < k
            },
        )?;
    }
    Ok((out, stats))
}

fn compile(pattern: &str) -> Result<(PreparedQuery, QueryStats)> {
    let start = Instant::now();
    // The scan baseline prepares the pattern exactly as the engine does,
    // so it anchors on the same required literals, mirroring the
    // Boyer-Moore literal optimizations inside grep-class tools — keeping
    // the Figure 9 comparison honest. It is also the ground truth the
    // differential tests compare the engine against, so in debug builds
    // it proves those literals required exactly as `Engine::query` does:
    // an unsound gram would otherwise drop the same true matches from
    // both sides.
    let prepared = PreparedQuery::new(
        pattern,
        &EngineConfig::default(),
        &free_trace::Span::disabled(),
    )?;
    let stats = QueryStats {
        plan_time: start.elapsed(),
        used_scan: true,
        ..QueryStats::default()
    };
    Ok((prepared, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_corpus::MemCorpus;

    fn corpus() -> MemCorpus {
        MemCorpus::from_docs(vec![
            b"one fish two fish".to_vec(),
            b"red fish".to_vec(),
            b"no match".to_vec(),
            b"fishfish".to_vec(),
        ])
    }

    #[test]
    fn matching_docs() {
        let (docs, stats) = scan_matching_docs(&corpus(), "fish").unwrap();
        assert_eq!(docs, vec![0, 1, 3]);
        assert!(stats.used_scan);
        assert_eq!(stats.docs_examined, 4);
        assert_eq!(stats.matching_docs, 3);
    }

    #[test]
    fn all_matches_counts_strings() {
        let (ms, stats) = scan_all_matches(&corpus(), "fish").unwrap();
        let total: usize = ms.iter().map(|m| m.spans.len()).sum();
        assert_eq!(total, 5);
        assert_eq!(stats.match_count, 5);
    }

    #[test]
    fn first_k_early_exit() {
        let (hits, stats) = scan_first_k(&corpus(), "fish", 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        assert!(stats.docs_examined <= 2);
    }

    #[test]
    fn no_matches() {
        let (docs, stats) = scan_matching_docs(&corpus(), "zebra").unwrap();
        assert!(docs.is_empty());
        assert_eq!(stats.docs_examined, 4);
    }

    #[test]
    fn bad_pattern_is_error() {
        assert!(scan_matching_docs(&corpus(), "(").is_err());
    }
}
