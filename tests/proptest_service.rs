//! Property tests for the production-service layer: request budgets
//! (deadline + cooperative cancellation) and the snapshot-keyed query
//! result cache.
//!
//! The budget invariant: a query cancelled at ANY confirmation batch
//! boundary returns a structured error — never partial results. What was
//! delivered before the cut is a prefix of the full answer, and the cost
//! counters agree exactly with the deliveries, at 1 and 4 threads.
//!
//! The cache invariant: a cached answer served at generation G is
//! byte-identical to an uncached execution against the same snapshot,
//! under any schedule of add / delete / flush / compact (every mutation
//! publishes a new generation, so a hit can only come from an
//! equal-generation snapshot — the free-invalidation property).

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::{Corpus, DocId, MemCorpus};
use free_engine::exec::stream::{confirm_source_budgeted, CandidateSource};
use free_engine::{CancelToken, QueryStats, RequestBudget};
use free_live::{LiveConfig, LiveIndex, QueryCache, QueryOpts};
use free_regex::Regex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs confirmation over `corpus` with `budget`, cancelling the token
/// (if any) after `cancel_after` delivered matches. Returns the
/// delivered `(doc, span_count)` pairs, the final stats, and the
/// executor's verdict.
fn confirm_with_budget(
    corpus: &MemCorpus,
    regex: &Regex,
    ids: &[DocId],
    threads: usize,
    budget: &RequestBudget,
    cancel: Option<(&CancelToken, usize)>,
) -> (Vec<(DocId, usize)>, QueryStats, free_engine::Result<()>) {
    let mut stats = QueryStats::default();
    let mut hits = Vec::new();
    let verdict = confirm_source_budgeted(
        corpus,
        regex,
        &mut CandidateSource::Docs(ids.to_vec()),
        true,
        &[],
        threads,
        budget,
        &mut stats,
        &mut |doc, spans| {
            hits.push((doc, spans.len()));
            if let Some((token, after)) = cancel {
                if hits.len() >= after {
                    token.cancel();
                }
            }
            true
        },
    );
    (hits, stats, verdict)
}

fn arb_docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // Enough matching docs that multi-batch schedules (batch = 32 per
    // worker) actually span several budget checkpoints.
    prop::collection::vec(0u32..10, 80..300).prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            .map(|(i, draw)| {
                // ~70% of documents match.
                if draw < 7 {
                    format!("doc {i} carries the needle token").into_bytes()
                } else {
                    format!("doc {i} is plain hay").into_bytes()
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancellation at a random batch boundary: structured error,
    /// delivered hits are a prefix of the full answer, and the counters
    /// equal the deliveries — no partial result leaks, at 1 and 4
    /// threads.
    #[test]
    fn cancelled_query_is_structured_and_prefix_consistent(
        docs in arb_docs(),
        cut in 1usize..64,
    ) {
        let corpus = MemCorpus::from_docs(docs);
        let regex = Regex::new("needle").unwrap();
        let ids: Vec<DocId> = (0..corpus.len() as DocId).collect();

        // Reference: the full answer under an unlimited budget.
        let (full, full_stats, verdict) = confirm_with_budget(
            &corpus, &regex, &ids, 1, &RequestBudget::unlimited(), None,
        );
        prop_assert!(verdict.is_ok());
        prop_assert_eq!(full_stats.matching_docs, full.len());

        for threads in [1usize, 4] {
            let token = CancelToken::new();
            let budget = RequestBudget::unlimited().cancelled_by(token.clone());
            let (hits, stats, verdict) = confirm_with_budget(
                &corpus, &regex, &ids, threads, &budget, Some((&token, cut)),
            );
            if cut > full.len() {
                // The token never tripped: the run completes normally.
                prop_assert!(verdict.is_ok(), "threads={threads}");
                prop_assert_eq!(&hits, &full, "threads={threads}");
                continue;
            }
            // Structured cancellation, not Ok-with-missing-results.
            prop_assert!(
                matches!(verdict, Err(free_engine::Error::Cancelled)),
                "threads={threads}: {verdict:?}"
            );
            // The cut lands on a batch boundary at or after the trip
            // point, and what was delivered is a prefix of the full
            // answer (deterministic fold order).
            prop_assert!(hits.len() >= cut, "threads={threads}");
            prop_assert!(hits.len() <= full.len(), "threads={threads}");
            prop_assert_eq!(&hits[..], &full[..hits.len()], "threads={threads}");
            // Counters agree exactly with the deliveries: whole batches
            // only, nothing half-folded.
            prop_assert_eq!(
                stats.matching_docs, hits.len(),
                "threads={threads}"
            );
            prop_assert!(
                stats.docs_examined >= stats.matching_docs,
                "threads={threads}"
            );
            prop_assert!(
                stats.docs_examined <= full_stats.docs_examined,
                "threads={threads}"
            );
        }
    }

    /// An already-expired deadline stops the executor before the first
    /// batch: zero deliveries, zero examined docs, structured timeout.
    #[test]
    fn expired_deadline_delivers_nothing(docs in arb_docs()) {
        let corpus = MemCorpus::from_docs(docs);
        let regex = Regex::new("needle").unwrap();
        let ids: Vec<DocId> = (0..corpus.len() as DocId).collect();
        for threads in [1usize, 4] {
            let budget = RequestBudget::with_timeout(std::time::Duration::ZERO);
            let (hits, stats, verdict) =
                confirm_with_budget(&corpus, &regex, &ids, threads, &budget, None);
            prop_assert!(
                matches!(verdict, Err(free_engine::Error::Timeout { .. })),
                "threads={threads}: {verdict:?}"
            );
            prop_assert!(hits.is_empty(), "threads={threads}");
            prop_assert_eq!(stats.docs_examined, 0, "threads={threads}");
            prop_assert_eq!(stats.matching_docs, 0, "threads={threads}");
        }
    }
}

// ---------------------------------------------------------------------
// Cache coherence
// ---------------------------------------------------------------------

/// Patterns spanning indexed and weak plans over the generator alphabet.
const PATTERNS: [&str; 3] = ["ab", "bca*", "(ab|ca)x?"];

#[derive(Clone, Debug)]
enum Op {
    Add(Vec<Vec<u8>>),
    Delete(usize),
    Flush,
    Compact,
}

fn arb_doc() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' '), Just(b'x')],
        0..24,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec(arb_doc(), 1..4).prop_map(Op::Add),
        3 => any::<usize>().prop_map(Op::Delete),
        2 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-svc-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serving through the cache never changes an answer: at every point
    /// in a random mutation schedule, a cache hit equals a from-scratch
    /// execution against the same snapshot, and mutations invalidate by
    /// construction (new generation → the stale entry stops matching).
    #[test]
    fn cached_results_equal_uncached_under_any_schedule(
        ops in prop::collection::vec(arb_op(), 1..8),
    ) {
        let dir = fresh_dir();
        let mut live = LiveIndex::create(
            &dir,
            LiveConfig {
                // Only explicit Flush ops flush, so schedules are exact.
                flush_threshold_bytes: u64::MAX,
                flush_threshold_docs: usize::MAX,
                ..LiveConfig::default()
            },
        )
        .unwrap();
        let cache = QueryCache::new(64);
        let reader = live.reader();
        let mut live_seqs: Vec<u32> = Vec::new();

        for op in ops {
            match op {
                Op::Add(docs) => {
                    live_seqs.extend(live.add_batch(&docs).unwrap());
                }
                Op::Delete(raw) => {
                    if !live_seqs.is_empty() {
                        let seq = live_seqs.remove(raw % live_seqs.len());
                        live.delete(seq).unwrap();
                    }
                }
                Op::Flush => {
                    live.flush().unwrap();
                }
                Op::Compact => {
                    live.compact().unwrap();
                }
            }
            for pattern in PATTERNS {
                let snapshot = reader.snapshot();
                let generation = snapshot.generation();
                let fresh = snapshot
                    .query_opts(pattern, &QueryOpts { threads: 1, ..QueryOpts::default() })
                    .unwrap()
                    .matches;
                match cache.get(pattern, generation) {
                    Some(hit) => {
                        // The coherence property: a hit at generation G
                        // IS the uncached answer at generation G.
                        prop_assert_eq!(hit.as_slice(), fresh.as_slice(), "{pattern}");
                    }
                    None => cache.insert(pattern, generation, Arc::new(fresh)),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
