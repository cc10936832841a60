//! Differential property test for the live index: after ANY schedule of
//! ingest / delete / flush / compact operations, queries must return
//! exactly what a from-scratch batch build over the surviving documents
//! returns — same documents, same match spans — and must be identical
//! across confirmation thread counts.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::MemCorpus;
use free_engine::{Engine, EngineConfig};
use free_live::{LiveConfig, LiveIndex, QueryOpts};
use free_regex::Span;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Patterns exercising indexed, weak, and scan-ish plans over the tiny
/// alphabet the generator draws from.
const PATTERNS: [&str; 4] = ["ab", "bca*", "a b", "(ab|ca)x?"];

#[derive(Clone, Debug)]
enum Op {
    /// Add a batch of documents.
    Add(Vec<Vec<u8>>),
    /// Delete the (raw % live)-th live document, if any.
    Delete(usize),
    /// Seal the write buffer into a segment.
    Flush,
    /// Merge all segments, dropping tombstones.
    Compact,
}

fn arb_doc() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b' '), Just(b'x')],
        0..30,
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

fn engine_config() -> EngineConfig {
    EngineConfig {
        usefulness_threshold: 0.6,
        max_gram_len: 6,
        ..EngineConfig::default()
    }
}

fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-live-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (document content, spans) for every live match, in sequence order.
fn live_results(live: &LiveIndex, pattern: &str, threads: usize) -> Vec<(Vec<u8>, Vec<Span>)> {
    let opts = QueryOpts {
        threads,
        ..QueryOpts::default()
    };
    live.snapshot()
        .query_opts(pattern, &opts)
        .unwrap()
        .matches
        .into_iter()
        .map(|m| (live.get(m.seq).unwrap(), m.spans))
        .collect()
}

/// The reference: a batch engine built from scratch over the model's
/// surviving documents, results keyed back to content.
fn rebuild_results(model: &[Vec<u8>], pattern: &str) -> Vec<(Vec<u8>, Vec<Span>)> {
    let engine =
        Engine::build_in_memory(MemCorpus::from_docs(model.to_vec()), engine_config()).unwrap();
    let matches = engine.query(pattern).unwrap().all_matches().unwrap();
    matches
        .into_iter()
        .map(|m| (model[m.doc as usize].clone(), m.spans))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential invariant: at EVERY point in a random schedule,
    /// live results equal a from-scratch rebuild, for 1 and 4 threads.
    #[test]
    fn any_schedule_matches_from_scratch_rebuild(ops in prop::collection::vec(arb_op(), 1..8)) {
        let dir = fresh_dir();
        let mut live = LiveIndex::create(
            &dir,
            LiveConfig {
                engine: engine_config(),
                // Only explicit Flush ops flush, so schedules are exact.
                flush_threshold_bytes: u64::MAX,
                flush_threshold_docs: usize::MAX,
            },
        )
        .unwrap();
        // The model: surviving documents in sequence order.
        let mut model: Vec<(u32, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                Op::Add(docs) => {
                    let ids = live.add_batch(&docs).unwrap();
                    for (id, doc) in ids.into_iter().zip(docs) {
                        model.push((id, doc));
                    }
                }
                Op::Delete(raw) => {
                    if !model.is_empty() {
                        let (seq, _) = model.remove(raw % model.len());
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
            let seqs: Vec<u32> = model.iter().map(|(s, _)| *s).collect();
            prop_assert_eq!(&live.live_seqs(), &seqs, "live seq set diverged");
            let contents: Vec<Vec<u8>> = model.iter().map(|(_, d)| d.clone()).collect();
            for pattern in PATTERNS {
                let want = rebuild_results(&contents, pattern);
                let got = live_results(&live, pattern, 1);
                prop_assert_eq!(&got, &want, "pattern {} diverged from rebuild", pattern);
                let got4 = live_results(&live, pattern, 4);
                prop_assert_eq!(&got4, &want, "pattern {} diverged across threads", pattern);
            }
        }

        // And the invariant survives a reopen of the final state.
        drop(live);
        let live = LiveIndex::open(&dir, LiveConfig {
            engine: engine_config(),
            ..LiveConfig::default()
        })
        .unwrap();
        let contents: Vec<Vec<u8>> = model.iter().map(|(_, d)| d.clone()).collect();
        for pattern in PATTERNS {
            let want = rebuild_results(&contents, pattern);
            prop_assert_eq!(&live_results(&live, pattern, 1), &want, "reopen diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
