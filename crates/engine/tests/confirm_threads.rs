//! No thread is spawned per confirmation batch: a query whose candidates
//! fit in its first batch spawns none at all, and a longer one spawns
//! `threads - 1` helpers once, whatever the candidate count.
//!
//! The count comes from a process-wide counter, so this file holds one
//! test and nothing else confirms concurrently with it.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used)]

use free_corpus::{DocId, MemCorpus};
use free_engine::exec::stream::{
    confirm_source, CandidateSource, BATCH_PER_WORKER, HELPERS_SPAWNED_COUNTER,
};
use free_engine::{QueryStats, RequestBudget};
use free_regex::Regex;

fn spawned() -> u64 {
    free_trace::metrics::global()
        .counter(HELPERS_SPAWNED_COUNTER, "")
        .get()
}

/// Confirms `candidates` documents with `threads`; returns how many
/// helper threads that spawned.
fn helpers_for(candidates: usize, threads: usize) -> u64 {
    let docs: Vec<Vec<u8>> = (0..candidates)
        .map(|i| format!("doc {i} needle").into_bytes())
        .collect();
    let corpus = MemCorpus::from_docs(docs);
    let regex = Regex::new("needle").unwrap();
    let ids: Vec<DocId> = (0..candidates as DocId).collect();
    let before = spawned();
    let mut stats = QueryStats::default();
    let mut hits = 0;
    confirm_source(
        &corpus,
        &regex,
        &mut CandidateSource::Docs(ids),
        true,
        &[],
        threads,
        &RequestBudget::unlimited(),
        &mut stats,
        &mut |_, _| {
            hits += 1;
            true
        },
    )
    .unwrap();
    assert_eq!(hits, candidates);
    spawned() - before
}

#[test]
fn helpers_are_spawned_once_per_query_and_only_past_the_first_batch() {
    for threads in [2usize, 4] {
        let batch = threads * BATCH_PER_WORKER;
        let helpers = threads as u64 - 1;
        assert_eq!(helpers_for(0, threads), 0);
        assert_eq!(helpers_for(1, threads), 0);
        assert_eq!(helpers_for(batch - 1, threads), 0);
        assert_eq!(helpers_for(batch, threads), 0, "one full batch is inline");
        assert_eq!(helpers_for(batch + 1, threads), helpers);
        assert_eq!(helpers_for(3 * batch, threads), helpers);
        assert_eq!(helpers_for(40 * batch + 7, threads), helpers);
    }
    assert_eq!(helpers_for(40 * BATCH_PER_WORKER, 1), 0);
}
