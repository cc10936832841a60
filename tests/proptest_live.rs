//! Differential property test for the live index: after ANY schedule of
//! ingest / delete / flush / compact operations, queries must return
//! exactly what a from-scratch batch build over the surviving documents
//! returns — same documents, same match counts — and must be identical
//! across confirmation thread counts: the answers, their order and the
//! logical counters at 2 and 4 threads are those at one. Schedules
//! delete buffered documents just before a flush and reopen after it, so
//! segments whose stores keep deleted documents are read back from disk.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::MemCorpus;
use free_engine::{Engine, EngineConfig};
use free_live::{LiveConfig, LiveIndex, LiveQueryResult, QueryOpts};
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
    /// Delete the (raw % buffered)-th live buffered document, if any,
    /// then flush and reopen: the segment the flush seals keeps the
    /// deleted document in its store, under its dead bit.
    DeleteBufferedFlushReopen(usize),
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
        2 => any::<usize>().prop_map(Op::DeleteBufferedFlushReopen),
    ]
}

/// The live buffered sequences of `seqs` (live, ascending).
fn buffered(live: &LiveIndex, seqs: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let first = live.next_seq() - live.stats().memtable_docs as u32;
    seqs.into_iter().filter(|&seq| seq >= first).collect()
}

/// Deletes the (raw % n)-th of the `n` live buffered documents, if any,
/// and returns its sequence; then flushes and reopens `live`.
fn delete_buffered_flush_reopen(
    live: &mut LiveIndex,
    dir: &std::path::Path,
    candidates: Vec<u32>,
    raw: usize,
) -> Option<u32> {
    let deleted = (!candidates.is_empty()).then(|| candidates[raw % candidates.len()]);
    if let Some(seq) = deleted {
        live.delete(seq).unwrap();
    }
    live.flush().unwrap();
    *live = LiveIndex::open(dir, live_config()).unwrap();
    deleted
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        usefulness_threshold: 0.6,
        max_gram_len: 6,
        ..EngineConfig::default()
    }
}

/// Only explicit Flush ops flush, so schedules are exact.
fn live_config() -> LiveConfig {
    LiveConfig {
        engine: engine_config(),
        flush_threshold_bytes: u64::MAX,
        flush_threshold_docs: usize::MAX,
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

/// (document content, match count) for every live match, in sequence
/// order.
fn live_results(live: &LiveIndex, pattern: &str, threads: usize) -> Vec<(Vec<u8>, usize)> {
    let opts = QueryOpts {
        threads,
        ..QueryOpts::default()
    };
    live.snapshot()
        .query_opts(pattern, &opts)
        .unwrap()
        .matches
        .into_iter()
        .map(|m| (live.get(m.seq).unwrap(), m.count as usize))
        .collect()
}

/// The answer to `pattern` at `threads` threads: (seq, match count) of every
/// match in sequence order, and the logical counters (documents
/// examined, candidates, matching documents).
type Answer = (Vec<(u32, u32)>, (usize, usize, usize));

fn answer(live: &LiveIndex, pattern: &str, threads: usize) -> Answer {
    let opts = QueryOpts {
        threads,
        ..QueryOpts::default()
    };
    let r: LiveQueryResult = live.snapshot().query_opts(pattern, &opts).unwrap();
    let b = &r.stats.base;
    let counters = (b.docs_examined, b.candidates, b.matching_docs);
    let matches = r.matches.into_iter().map(|m| (m.seq, m.count)).collect();
    (matches, counters)
}

/// Asserts every pattern's answer at 2 and 4 threads is its answer at 1.
fn assert_thread_invariant(live: &LiveIndex, when: &str) -> Result<(), TestCaseError> {
    for pattern in PATTERNS {
        let want = answer(live, pattern, 1);
        for threads in [2, 4] {
            prop_assert_eq!(
                &answer(live, pattern, threads),
                &want,
                "pattern {} at {} thread(s), {}",
                pattern,
                threads,
                when
            );
        }
    }
    Ok(())
}

/// The reference: a batch engine built from scratch over the model's
/// surviving documents, results keyed back to content.
fn rebuild_results(model: &[Vec<u8>], pattern: &str) -> Vec<(Vec<u8>, usize)> {
    let engine =
        Engine::build_in_memory(MemCorpus::from_docs(model.to_vec()), engine_config()).unwrap();
    let matches = engine.query(pattern).unwrap().all_matches().unwrap();
    matches
        .into_iter()
        .map(|m| (model[m.doc as usize].clone(), m.spans.len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential invariant: at EVERY point in a random schedule,
    /// live results equal a from-scratch rebuild, for 1 and 4 threads.
    #[test]
    fn any_schedule_matches_from_scratch_rebuild(ops in prop::collection::vec(arb_op(), 1..8)) {
        let dir = fresh_dir();
        let mut live = LiveIndex::create(&dir, live_config()).unwrap();
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
                Op::DeleteBufferedFlushReopen(raw) => {
                    let candidates = buffered(&live, model.iter().map(|(s, _)| *s));
                    let gone = delete_buffered_flush_reopen(&mut live, &dir, candidates, raw);
                    model.retain(|(s, _)| Some(*s) != gone);
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

    /// Thread invariance: at every point in a random schedule, and after
    /// a reopen of its final state, every pattern's matches (seqs and
    /// match counts, in order) and logical counters at 2 and 4 confirmation
    /// threads equal those at one. The reopened index answers as before
    /// and its next add continues the sequence.
    #[test]
    fn answers_do_not_depend_on_the_thread_count(
        ops in prop::collection::vec(arb_op(), 1..8),
        extra in prop::collection::vec(arb_doc(), 1..5),
    ) {
        let dir = fresh_dir();
        let mut live = LiveIndex::create(&dir, live_config()).unwrap();
        let mut seqs: Vec<u32> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Add(docs) => seqs.extend(live.add_batch(docs).unwrap()),
                Op::Delete(raw) => {
                    if !seqs.is_empty() {
                        live.delete(seqs.remove(raw % seqs.len())).unwrap();
                    }
                }
                Op::Flush => {
                    live.flush().unwrap();
                }
                Op::Compact => {
                    live.compact().unwrap();
                }
                Op::DeleteBufferedFlushReopen(raw) => {
                    let candidates = buffered(&live, seqs.iter().copied());
                    let gone = delete_buffered_flush_reopen(&mut live, &dir, candidates, *raw);
                    seqs.retain(|&s| Some(s) != gone);
                }
            }
            assert_thread_invariant(&live, &format!("after op {step} ({op:?})"))?;
        }
        let next_seq = live.next_seq();
        let want: Vec<Answer> = PATTERNS.iter().map(|p| answer(&live, p, 1)).collect();
        drop(live);

        let mut live = LiveIndex::open(&dir, live_config()).unwrap();
        prop_assert_eq!(live.next_seq(), next_seq);
        prop_assert_eq!(live.live_seqs(), seqs);
        for (pattern, want) in PATTERNS.iter().zip(&want) {
            prop_assert_eq!(&answer(&live, pattern, 1).0, &want.0, "{} after reopen", pattern);
        }
        assert_thread_invariant(&live, "after reopen")?;
        let ids = live.add_batch(&extra).unwrap();
        prop_assert_eq!(ids[0], next_seq, "writes continue the sequence");
        assert_thread_invariant(&live, "after a write past reopen")?;
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
