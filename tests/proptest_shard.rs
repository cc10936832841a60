//! Differential property test for sharding: for ANY schedule of ingest /
//! delete / flush / compact operations, a live index over N shards must
//! be observationally identical to a one-shard index driven by the same
//! schedule — same sequence numbers, same matches, same spans, in the
//! same order — for any shard count and any confirmation thread count,
//! and the equivalence must survive a reopen.
//!
//! Shard count defaults to {1, 4} and can be pinned with `FREE_SHARDS=N`
//! (the CI matrix runs both). One shard is the rooted layout; the second
//! property checks it against the `shards=1` manifest over `shard-0/`
//! that older versions wrote.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_engine::EngineConfig;
use free_live::{LiveConfig, LiveIndex, LiveQueryResult, QueryOpts, ShardedManifest};
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
    /// Seal the write buffer(s) into segments.
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
        4 => prop::collection::vec(arb_doc(), 1..5).prop_map(Op::Add),
        3 => any::<usize>().prop_map(Op::Delete),
        2 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn live_config() -> LiveConfig {
    LiveConfig {
        engine: EngineConfig {
            usefulness_threshold: 0.6,
            max_gram_len: 6,
            ..EngineConfig::default()
        },
        // Only explicit Flush ops flush, so schedules are exact.
        flush_threshold_bytes: u64::MAX,
        flush_threshold_docs: usize::MAX,
    }
}

fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-shard-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Shard counts to exercise: `FREE_SHARDS=N` pins one, default {1, 4}.
fn shard_counts() -> Vec<usize> {
    match std::env::var("FREE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 4],
    }
}

/// (seq, spans) for every match of `pattern`, in global order, at
/// `threads` threads. The logical counters of a run at more than one
/// thread must equal those of a run at one.
fn results(live: &LiveIndex, pattern: &str, threads: usize) -> Vec<(u32, Vec<Span>)> {
    let snapshot = live.snapshot();
    let run = |threads| {
        let opts = QueryOpts {
            threads,
            ..QueryOpts::default()
        };
        snapshot.query_opts(pattern, &opts).unwrap()
    };
    let counters = |r: &LiveQueryResult| {
        let b = &r.stats.base;
        (b.docs_examined, b.candidates, b.matching_docs)
    };
    let result = run(threads);
    if threads > 1 {
        assert_eq!(
            counters(&result),
            counters(&run(1)),
            "counters of {pattern} at {threads} thread(s)"
        );
    }
    (result.matches.into_iter())
        .map(|m| (m.seq, m.spans))
        .collect()
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharding invariant: a sharded index is indistinguishable from
    /// an unsharded one over the same operation schedule — for every
    /// prefix of the schedule, every pattern, and 1 vs 4 query threads.
    #[test]
    fn sharded_matches_unsharded_for_any_schedule(ops in prop::collection::vec(arb_op(), 1..8)) {
        for shards in shard_counts() {
            let plain_dir = fresh_dir();
            let shard_dir = fresh_dir();
            let mut plain = LiveIndex::create(&plain_dir, live_config()).unwrap();
            let mut sharded =
                LiveIndex::create_sharded(&shard_dir, live_config(), shards).unwrap();
            // One shard is rooted at the directory, with no manifest of
            // its own; more sit behind one.
            prop_assert_eq!(ShardedManifest::exists(&shard_dir), shards > 1);
            // Surviving (seq, doc) pairs, for delete targeting.
            let mut model: Vec<(u32, Vec<u8>)> = Vec::new();

            for op in &ops {
                match op {
                    Op::Add(docs) => {
                        let a = plain.add_batch(docs).unwrap();
                        let b = sharded.add_batch(docs).unwrap();
                        prop_assert_eq!(&a, &b, "assigned seqs diverged");
                        for (id, doc) in a.into_iter().zip(docs) {
                            model.push((id, doc.clone()));
                        }
                    }
                    Op::Delete(raw) => {
                        if !model.is_empty() {
                            let (seq, _) = model.remove(raw % model.len());
                            plain.delete(seq).unwrap();
                            sharded.delete(seq).unwrap();
                        }
                    }
                    Op::Flush => {
                        plain.flush().unwrap();
                        sharded.flush().unwrap();
                    }
                    Op::Compact => {
                        plain.compact().unwrap();
                        sharded.compact().unwrap();
                    }
                }
                prop_assert_eq!(plain.live_seqs(), sharded.live_seqs(), "seq sets diverged");
                for (seq, doc) in &model {
                    prop_assert_eq!(&sharded.get(*seq).unwrap(), doc, "doc content diverged");
                }
                for pattern in PATTERNS {
                    let want = results(&plain, pattern, 1);
                    for threads in [1usize, 4] {
                        let got = results(&sharded, pattern, threads);
                        prop_assert_eq!(
                            &got, &want,
                            "pattern {} diverged at {} shard(s), {} thread(s)",
                            pattern, shards, threads
                        );
                    }
                }
            }

            // The equivalence survives a reopen of both final states.
            drop(plain);
            drop(sharded);
            let plain = LiveIndex::open(&plain_dir, live_config()).unwrap();
            let sharded = LiveIndex::open(&shard_dir, live_config()).unwrap();
            prop_assert_eq!(plain.next_seq(), sharded.next_seq(), "next_seq diverged on reopen");
            prop_assert_eq!(plain.live_seqs(), sharded.live_seqs(), "reopen seq sets diverged");
            for pattern in PATTERNS {
                prop_assert_eq!(
                    results(&plain, pattern, 1),
                    results(&sharded, pattern, 1),
                    "pattern {} diverged after reopen", pattern
                );
            }
            let _ = std::fs::remove_dir_all(&plain_dir);
            let _ = std::fs::remove_dir_all(&shard_dir);
        }
    }

    /// One layout, two claims. `LiveIndex::create` roots one shard at the
    /// directory (no sharded manifest, no `shard-0/`), and after any
    /// schedule it reopens as that one shard with byte-identical answers
    /// at 1 and 4 threads, then takes further writes. The same files
    /// under `shard-0/` behind a hand-written `shards=1` manifest (what
    /// older versions wrote) answer, and take writes, identically.
    #[test]
    fn plain_directory_is_one_rooted_shard(
        ops in prop::collection::vec(arb_op(), 1..8),
        extra in prop::collection::vec(arb_doc(), 1..5),
    ) {
        let rooted_dir = fresh_dir();
        let legacy_dir = fresh_dir();
        let mut live = LiveIndex::create(&rooted_dir, live_config()).unwrap();
        prop_assert!(!ShardedManifest::exists(&rooted_dir));
        prop_assert!(!free_live::shard_dir(&rooted_dir, 0).exists());
        let mut seqs: Vec<u32> = Vec::new();
        for op in &ops {
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
            }
        }
        let next_seq = live.next_seq();
        let want: Vec<_> = PATTERNS.iter().map(|p| results(&live, p, 1)).collect();
        drop(live);
        copy_dir(&rooted_dir, &free_live::shard_dir(&legacy_dir, 0));
        ShardedManifest { shards: 1 }.store(&legacy_dir).unwrap();

        let mut after_writes = Vec::new();
        for dir in [&rooted_dir, &legacy_dir] {
            let mut live = LiveIndex::open(dir, live_config()).unwrap();
            prop_assert_eq!(live.num_shards(), 1);
            prop_assert_eq!(live.next_seq(), next_seq);
            prop_assert_eq!(live.live_seqs(), seqs.clone());
            for (pattern, want) in PATTERNS.iter().zip(&want) {
                for threads in [1usize, 4] {
                    prop_assert_eq!(
                        &results(&live, pattern, threads), want,
                        "pattern {} diverged at {} thread(s) in {}",
                        pattern, threads, dir.display()
                    );
                }
            }
            let ids = live.add_batch(&extra).unwrap();
            prop_assert_eq!(ids[0], next_seq, "writes continue the sequence");
            live.delete(ids[0]).unwrap();
            live.flush().unwrap();
            after_writes.push(
                PATTERNS.iter().map(|p| results(&live, p, 4)).collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&after_writes[0], &after_writes[1]);
        let _ = std::fs::remove_dir_all(&rooted_dir);
        let _ = std::fs::remove_dir_all(&legacy_dir);
    }
}
