//! Concurrency stress test for the snapshot-isolated live index.
//!
//! A writer thread applies a random schedule of add / delete / flush /
//! compact while N reader threads continuously load snapshots and run
//! queries. The invariant: every result set a reader ever observes is
//! exactly what a from-scratch batch build over *some* published
//! state's surviving documents returns — i.e. readers always see a
//! consistent point-in-time view, never a torn one, even while
//! compaction is rewriting and unlinking segment files under them.
//!
//! The writer records the live document set after every operation,
//! keyed by the generation it published. Flush and compaction publish
//! intermediate generations (the inner flush of a compact) that the
//! writer does not record, but those never change the *live* set — only
//! add and delete do — so a reader's snapshot at generation `g` must
//! match the model at the greatest recorded generation `<= g`.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::MemCorpus;
use free_engine::{Engine, EngineConfig};
use free_live::{LiveConfig, LiveIndex, LiveReader, QueryOpts};
use free_regex::Span;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

const PATTERNS: [&str; 4] = ["ab", "bca*", "a b", "(ab|ca)x?"];

/// One observed query: the snapshot generation it ran against, the
/// pattern, and each match's (seq, content, spans).
type Observation = (u64, &'static str, Rows);

/// Generation → live (seq, content) pairs after each writer op.
type Model = BTreeMap<u64, Vec<(u32, Vec<u8>)>>;

/// Match rows of one query: (seq, content, spans) per matching doc.
type Rows = Vec<(u32, Vec<u8>, Vec<Span>)>;

fn engine_config() -> EngineConfig {
    EngineConfig {
        usefulness_threshold: 0.6,
        max_gram_len: 6,
        ..EngineConfig::default()
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-live-stress-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_doc(rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: [u8; 5] = [b'a', b'b', b'c', b' ', b'x'];
    (0..rng.gen_range(0usize..24))
        .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())])
        .collect()
}

/// What a from-scratch batch engine over `docs` returns for `pattern`,
/// keyed back to (seq, content, spans).
fn rebuild(docs: &[(u32, Vec<u8>)], pattern: &str) -> Vec<(u32, Vec<u8>, Vec<Span>)> {
    let contents: Vec<Vec<u8>> = docs.iter().map(|(_, d)| d.clone()).collect();
    let engine = Engine::build_in_memory(MemCorpus::from_docs(contents), engine_config()).unwrap();
    let matches = engine.query(pattern).unwrap().all_matches().unwrap();
    matches
        .into_iter()
        .map(|m| {
            let (seq, content) = &docs[m.doc as usize];
            (*seq, content.clone(), m.spans)
        })
        .collect()
}

/// Runs `readers` query threads against a writer applying `ops` random
/// operations (compaction weighted by `compact_weight` in 0..=100) over
/// `shards` partitions, then validates every observation against a
/// from-scratch rebuild of the model at the observed generation. With
/// more than one shard the writer fans every operation out across them
/// while readers stream from snapshots, so the snapshot must also be
/// cross-shard consistent: a reader must never see shard A post-op and
/// shard B pre-op for the same operation.
fn run_stress(
    tag: &str,
    seed: u64,
    shards: usize,
    readers: usize,
    ops: usize,
    compact_weight: u32,
) {
    let dir = fresh_dir(tag);
    let mut live = LiveIndex::create_sharded(
        &dir,
        LiveConfig {
            engine: engine_config(),
            // Only explicit flush/compact ops reshape the index, so the
            // recorded schedule is exact.
            flush_threshold_bytes: u64::MAX,
            flush_threshold_docs: usize::MAX,
        },
        shards,
    )
    .unwrap();
    // Readers confirm on one thread per shard, at most two.
    let reader_opts = QueryOpts {
        threads: shards.min(2),
        ..QueryOpts::default()
    };

    let model = Mutex::new(Model::new());
    model.lock().unwrap().insert(live.generation(), Vec::new());
    let reader_handle = live.reader();
    let done = AtomicBool::new(false);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Writer: random schedule, recording the live set per generation.
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut alive: Vec<(u32, Vec<u8>)> = Vec::new();
            for _ in 0..ops {
                let roll = rng.gen_range(0u32..100);
                if roll < 45 {
                    let docs: Vec<Vec<u8>> = (0..rng.gen_range(1usize..4))
                        .map(|_| random_doc(&mut rng))
                        .collect();
                    let ids = live.add_batch(&docs).unwrap();
                    alive.extend(ids.into_iter().zip(docs));
                } else if roll < 65 {
                    if !alive.is_empty() {
                        let (seq, _) = alive.remove(rng.gen_range(0usize..alive.len()));
                        live.delete(seq).unwrap();
                    }
                } else if roll < 100 - compact_weight {
                    live.flush().unwrap();
                } else {
                    live.compact().unwrap();
                }
                model
                    .lock()
                    .unwrap()
                    .insert(live.generation(), alive.clone());
            }
            done.store(true, Ordering::SeqCst);
        });

        // Readers: hammer snapshots until the writer finishes, recording
        // (generation, pattern, results) tuples read from ONE snapshot.
        for r in 0..readers {
            let reader: LiveReader = reader_handle.clone();
            let observations = &observations;
            let done = &done;
            let reader_opts = &reader_opts;
            scope.spawn(move || {
                let mut local: Vec<Observation> = Vec::new();
                let mut i = r; // stagger pattern phase across readers
                while !done.load(Ordering::SeqCst) {
                    let pattern = PATTERNS[i % PATTERNS.len()];
                    i += 1;
                    let snapshot = reader.snapshot();
                    let result = snapshot.query_opts(pattern, reader_opts).unwrap();
                    let rows = result
                        .matches
                        .into_iter()
                        .map(|m| (m.seq, snapshot.get(m.seq).unwrap(), m.spans))
                        .collect();
                    if local.len() < 400 {
                        local.push((snapshot.generation(), pattern, rows));
                    }
                }
                observations.lock().unwrap().append(&mut local);
            });
        }
    });

    // Validate: each observation equals the rebuild of the model at the
    // greatest recorded generation <= the snapshot's generation.
    let model = model.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert!(!observations.is_empty(), "readers observed nothing");
    let mut expected_cache: BTreeMap<(u64, &str), Rows> = BTreeMap::new();
    for (gen, pattern, rows) in &observations {
        let (model_gen, docs) = model
            .range(..=gen)
            .next_back()
            .unwrap_or_else(|| panic!("no recorded generation <= {gen}"));
        let expected = expected_cache
            .entry((*model_gen, pattern))
            .or_insert_with(|| rebuild(docs, pattern));
        assert_eq!(
            rows, expected,
            "snapshot at generation {gen} diverged from the rebuild of \
             generation {model_gen} for pattern {pattern} ({shards} shard(s))"
        );
    }

    // The final state must also survive a reopen, and answer identically
    // at 1 and 8 confirmation threads.
    let final_docs = model.values().next_back().unwrap().clone();
    let reopened = LiveIndex::open(
        &dir,
        LiveConfig {
            engine: engine_config(),
            ..LiveConfig::default()
        },
    )
    .unwrap();
    let snapshot = reopened.snapshot();
    for pattern in PATTERNS {
        let expected = rebuild(&final_docs, pattern);
        for threads in [1, 8] {
            let opts = QueryOpts {
                threads,
                ..QueryOpts::default()
            };
            let got: Vec<(u32, Vec<u8>, Vec<Span>)> = snapshot
                .query_opts(pattern, &opts)
                .unwrap()
                .matches
                .into_iter()
                .map(|m| (m.seq, snapshot.get(m.seq).unwrap(), m.spans))
                .collect();
            assert_eq!(
                got, expected,
                "reopened index diverged for pattern {pattern} at {threads} threads"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eight_readers_see_consistent_snapshots() {
    run_stress("mixed", 0xF2EE, 1, 8, 60, 10);
}

#[test]
fn sharded_readers_see_consistent_composite_snapshots() {
    run_stress("shard-mixed", 0x5AD5, 4, 6, 50, 10);
}

#[test]
fn sharded_readers_survive_parallel_compaction() {
    // Compaction rewrites every shard's segment files in parallel while
    // readers stream from the composite snapshot.
    run_stress("shard-compact", 0x5CDE, 3, 6, 35, 35);
}

#[test]
fn readers_survive_continuous_compaction() {
    // Compaction on every third op or so: segment files are constantly
    // rewritten and unlinked while eight readers stream from them.
    run_stress("compact", 0xC0DE, 1, 8, 40, 35);
}

#[test]
fn single_reader_matches_model() {
    run_stress("single", 0x51E9, 1, 1, 50, 10);
}
