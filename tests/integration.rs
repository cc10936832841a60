//! Cross-crate integration tests: corpus → index → engine, against the
//! scan ground truth, with on-disk persistence in the loop.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::synth::{Generator, SynthConfig};
use free_corpus::{Corpus, DiskCorpus, MemCorpus};
use free_engine::{baseline, Engine, EngineConfig, IndexKind};
use free_index::IndexRead;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("free-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The four execution modes must agree exactly — matching documents AND
/// matching strings — on every benchmark query.
#[test]
fn all_modes_agree_on_benchmark_queries() {
    let (corpus, _) = Generator::new(SynthConfig::tiny(250, 77)).build_mem();
    let multigram = Engine::build_in_memory(
        corpus.clone(),
        EngineConfig::with_kind(IndexKind::Multigram),
    )
    .unwrap();
    let presuf = Engine::build_in_memory(corpus.clone(), EngineConfig::default()).unwrap();
    let complete = Engine::build_in_memory(
        corpus.clone(),
        EngineConfig {
            max_gram_len: 5,
            ..EngineConfig::with_kind(IndexKind::Complete)
        },
    )
    .unwrap();
    let queries = [
        r#"<a href=("|')?.*\.mp3("|')?>"#,
        r"\d\d\d\d\d(-\d\d\d\d)?",
        r"<[^>]*<",
        r"william\s+[a-z]+\s+clinton",
        r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*",
        r"<script>.*</script>",
        r"\(\d\d\d\) \d\d\d-\d\d\d\d|\d\d\d-\d\d\d-\d\d\d\d",
        r#"<a\s+href\s*=\s*("|')?[^>]*(\.ps|\.pdf)("|')?>.{0,200}sigmod"#,
        r"(\a|\d|-|_|\.)+@((\a|\d)+\.)*stanford\.edu",
        r"cgi\.ebay\.com.*item=[0-9]+",
    ];
    for pattern in queries {
        let (scan_matches, _) = baseline::scan_all_matches(&corpus, pattern).unwrap();
        for (label, engine) in [
            ("multigram", &multigram),
            ("presuf", &presuf),
            ("complete", &complete),
        ] {
            let mut r = engine.query(pattern).unwrap();
            let got = r.all_matches().unwrap();
            assert_eq!(
                got, scan_matches,
                "{label} disagrees with scan on {pattern}"
            );
        }
    }
}

/// A full disk round trip: synthetic corpus streamed to disk, index built
/// on disk with a tiny memory budget (forcing run spills), engine
/// reopened, results identical to the all-in-memory path.
#[test]
fn disk_pipeline_roundtrip() {
    let dir = tmpdir("pipeline");
    let generator = Generator::new(SynthConfig::tiny(150, 3));
    let (disk_corpus, _) = generator.build_disk(dir.join("corpus")).unwrap();
    let (mem_corpus, _) = generator.build_mem();

    let config = EngineConfig {
        build_memory_budget: 512, // force the external run-merge path
        ..EngineConfig::default()
    };
    let disk_engine =
        Engine::build_on_disk(disk_corpus, config.clone(), dir.join("idx.free")).unwrap();
    let mem_engine = Engine::build_in_memory(mem_corpus.clone(), config.clone()).unwrap();

    assert_eq!(
        disk_engine.build_stats().index_stats.num_keys,
        mem_engine.build_stats().index_stats.num_keys
    );
    assert_eq!(
        disk_engine.build_stats().index_stats.num_postings,
        mem_engine.build_stats().index_stats.num_postings
    );

    for pattern in ["clinton", r"\.mp3", "<script>", r"\d\d\d\d\d"] {
        let mut a = disk_engine.query(pattern).unwrap();
        let mut b = mem_engine.query(pattern).unwrap();
        assert_eq!(
            a.all_matches().unwrap(),
            b.all_matches().unwrap(),
            "{pattern}"
        );
    }

    // Reopen both corpus and index from cold files.
    drop(disk_engine);
    let reopened_corpus = DiskCorpus::open(dir.join("corpus")).unwrap();
    let reopened = Engine::open(reopened_corpus, config, dir.join("idx.free")).unwrap();
    let mut a = reopened.query("clinton").unwrap();
    let mut b = mem_engine.query("clinton").unwrap();
    assert_eq!(a.all_matches().unwrap(), b.all_matches().unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Observation 3.8: a prefix-free key set's postings never exceed the
/// corpus size in characters. The multigram miner's output is prefix free
/// (Theorem 3.9), so this must hold for every multigram index.
#[test]
fn observation_3_8_postings_bounded_by_corpus_size() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (corpus, _) = Generator::new(SynthConfig::tiny(80, seed)).build_mem();
        let engine = Engine::build_in_memory(corpus.clone(), EngineConfig::default()).unwrap();
        let stats = engine.build_stats();
        assert!(
            stats.index_stats.num_postings <= corpus.total_bytes(),
            "seed {seed}: {} postings > {} corpus bytes",
            stats.index_stats.num_postings,
            corpus.total_bytes()
        );
    }
}

/// Theorem 3.9(3): the mined key set is prefix free; and the presuf shell
/// is additionally suffix free (Definition 3.12).
#[test]
fn key_set_structure_invariants() {
    let (corpus, _) = Generator::new(SynthConfig::tiny(120, 9)).build_mem();
    let multigram = Engine::build_in_memory(corpus.clone(), EngineConfig::default()).unwrap();
    let presuf =
        Engine::build_in_memory(corpus, EngineConfig::with_kind(IndexKind::Presuf)).unwrap();

    let mut keys: Vec<Vec<u8>> = Vec::new();
    multigram
        .index()
        .for_each_key(&mut |k| keys.push(k.to_vec()));
    for a in &keys {
        for b in &keys {
            if a != b {
                assert!(!b.starts_with(&a[..]), "prefix violation: {a:?} < {b:?}");
            }
        }
    }

    let mut pkeys: Vec<Vec<u8>> = Vec::new();
    presuf.index().for_each_key(&mut |k| pkeys.push(k.to_vec()));
    for a in &pkeys {
        for b in &pkeys {
            if a != b {
                assert!(!b.starts_with(&a[..]), "prefix violation: {a:?} < {b:?}");
                assert!(!b.ends_with(&a[..]), "suffix violation: {a:?} vs {b:?}");
            }
        }
    }
    // The presuf shell is a subset of the multigram keys.
    let keyset: std::collections::HashSet<&Vec<u8>> = keys.iter().collect();
    for k in &pkeys {
        assert!(keyset.contains(k), "presuf key {k:?} not in multigram keys");
    }
}

/// Candidate supersets: the index may only ever *over*-approximate — every
/// truly matching document must be among the candidates (no false
/// negatives), for all index kinds.
#[test]
fn index_candidates_are_supersets_of_matches() {
    let (corpus, _) = Generator::new(SynthConfig::tiny(200, 21)).build_mem();
    let engine = Engine::build_in_memory(corpus.clone(), EngineConfig::default()).unwrap();
    for pattern in [
        r"\.mp3",
        "clinton",
        r"motorola.*(xpc|mpc)[0-9]+",
        "bb.*cc.*dd.+zz", // Example 3.5's pathological query
    ] {
        let (want, _) = baseline::scan_matching_docs(&corpus, pattern).unwrap();
        let mut r = engine.query(pattern).unwrap();
        let candidates = r.num_candidates().unwrap();
        let got = r.matching_docs().unwrap();
        assert_eq!(got, want, "{pattern}");
        assert!(
            candidates >= got.len(),
            "{pattern}: {candidates} candidates < {} matches",
            got.len()
        );
    }
}

/// The quickstart path from the README, kept honest by CI.
#[test]
fn readme_quickstart_compiles_and_runs() {
    let corpus = MemCorpus::from_docs(vec![
        b"see <a href=\"song.mp3\"> here".to_vec(),
        b"nothing relevant".to_vec(),
    ]);
    let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
    let mut result = engine.query(r#"<a href=("|')?.*\.mp3("|')?>"#).unwrap();
    assert_eq!(result.matching_docs().unwrap(), vec![0]);
}

/// Observation 3.14: the presuf shell contains at least one substring of
/// every useful gram — so any useful gram used as a query literal must
/// still resolve to an index plan (not a scan) under the Suffix index.
#[test]
fn observation_3_14_presuf_covers_useful_grams() {
    let (corpus, _) = Generator::new(SynthConfig::tiny(150, 13)).build_mem();
    let n = corpus.len() as f64;
    let c = 0.1;
    let multigram = Engine::build_in_memory(
        corpus.clone(),
        EngineConfig {
            usefulness_threshold: c,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let presuf = Engine::build_in_memory(
        corpus.clone(),
        EngineConfig {
            usefulness_threshold: c,
            ..EngineConfig::with_kind(IndexKind::Presuf)
        },
    )
    .unwrap();
    // Probe with literal queries taken from real page substrings of
    // several lengths; all scan-measured useful ones must get index plans.
    let sample = corpus.get(0).unwrap();
    let mut probed = 0;
    for len in [4usize, 6, 8, 10] {
        for start in (0..sample.len().saturating_sub(len)).step_by(37) {
            let gram = &sample[start..start + len];
            // Skip grams with regex metacharacters for a literal query.
            if !gram.iter().all(|b| b.is_ascii_alphanumeric() || *b == b' ') {
                continue;
            }
            let pattern: String = String::from_utf8(gram.to_vec()).unwrap();
            let (docs, _) = baseline::scan_matching_docs(&corpus, &pattern).unwrap();
            let useful = (docs.len() as f64) / n <= c;
            if !useful {
                continue;
            }
            probed += 1;
            let rm = multigram.query(&pattern).unwrap();
            assert!(
                !rm.used_scan(),
                "multigram index must cover useful gram {pattern:?}"
            );
            let rp = presuf.query(&pattern).unwrap();
            assert!(
                !rp.used_scan(),
                "presuf shell must cover useful gram {pattern:?} (Obs 3.14)"
            );
        }
    }
    assert!(probed > 5, "only {probed} useful grams probed — weak test");
}

/// Plan pruning is behavior-preserving: with and without it the engine
/// returns identical matches.
#[test]
fn optimizations_preserve_results() {
    let (corpus, _) = Generator::new(SynthConfig::tiny(120, 31)).build_mem();
    let mut engines = Vec::new();
    for prune in [1.0, 0.5] {
        engines.push(
            Engine::build_in_memory(
                corpus.clone(),
                EngineConfig {
                    prune_selectivity: prune,
                    ..EngineConfig::default()
                },
            )
            .unwrap(),
        );
    }
    for pattern in [
        r"\.mp3",
        r"william\s+[a-z]+\s+clinton",
        r"<script>.*</script>",
        r"\d\d\d\d\d",
    ] {
        let mut base = engines[0].query(pattern).unwrap();
        let want = base.all_matches().unwrap();
        for e in &engines[1..] {
            let mut r = e.query(pattern).unwrap();
            assert_eq!(r.all_matches().unwrap(), want, "{pattern}");
        }
    }
}

/// Every live directory written before the presuf shell became the
/// default holds a multigram dictionary. Opened under the new default it
/// keeps that dictionary through flushes and a merging compaction, and
/// only its first drift re-mine turns it into a shell: the batch build
/// over the survivors. Answers equal a scan, and a deep fsck is clean,
/// at every step.
#[test]
fn a_multigram_live_directory_becomes_a_shell_at_its_first_remine() {
    use free_analyze::{fsck, FsckOptions};
    use free_live::{LiveConfig, LiveIndex};
    let dir = tmpdir("multigram-upgrade");
    let live_dir = dir.join("live");
    let pages = |n: usize, seed: u64| -> Vec<Vec<u8>> {
        let (corpus, _) = Generator::new(SynthConfig::tiny(n, seed)).build_mem();
        (0..n as u32).map(|id| corpus.get(id).unwrap()).collect()
    };
    let same = pages(200, 7);
    let check = |live: &LiveIndex| {
        let seqs = live.live_seqs();
        let docs: Vec<Vec<u8>> = seqs.iter().map(|&s| live.get(s).unwrap()).collect();
        let corpus = MemCorpus::from_docs(docs);
        for pattern in ["Clinton", "[0-9]{5}", "<script", "sigmod.*200[0-9]", "ebay"] {
            let (want, _) = baseline::scan_matching_docs(&corpus, pattern).unwrap();
            let want: Vec<u32> = want.iter().map(|&d| seqs[d as usize]).collect();
            assert_eq!(
                live.snapshot().query(pattern).unwrap().matching_seqs(),
                want,
                "{pattern}"
            );
        }
        let report = fsck(
            &live_dir,
            &FsckOptions {
                deep: true,
                sample: 64,
            },
        )
        .unwrap();
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    };
    let dictionary = |live: &LiveIndex| -> Vec<free_index::Key> {
        let id = live.stats().segments[0].id;
        let path = live_dir.join(format!("segments/seg-{id}.idx"));
        free_index::IndexReader::open(path).unwrap().keys().to_vec()
    };

    let multigram = LiveConfig {
        engine: EngineConfig::with_kind(IndexKind::Multigram),
        ..LiveConfig::default()
    };
    let mut live = LiveIndex::create(&live_dir, multigram).unwrap();
    live.add_batch(&same[..100]).unwrap();
    live.flush().unwrap();
    let mined = dictionary(&live);
    drop(live);

    let mut live = LiveIndex::open(&live_dir, LiveConfig::default()).unwrap();
    assert_eq!(dictionary(&live), mined);
    check(&live);
    live.add_batch(&same[100..150]).unwrap();
    live.flush().unwrap();
    live.add_batch(&same[150..]).unwrap();
    live.delete(3).unwrap();
    check(&live);
    assert!(!live.drift().remines(), "{:?}", live.drift());
    assert!(live.compact().unwrap());
    assert_eq!(dictionary(&live), mined, "a merge keeps the dictionary");
    check(&live);

    live.add_batch(&pages(100, 99)).unwrap();
    assert!(live.drift().remines(), "{:?}", live.drift());
    assert!(live.compact().unwrap());
    let survivors: Vec<Vec<u8>> = (live.live_seqs().iter())
        .map(|&s| live.get(s).unwrap())
        .collect();
    let shell = dir.join("shell.free");
    Engine::build_on_disk(
        MemCorpus::from_docs(survivors),
        EngineConfig::default(),
        &shell,
    )
    .unwrap();
    let id = live.stats().segments[0].id;
    assert_eq!(
        std::fs::read(live_dir.join(format!("segments/seg-{id}.idx"))).unwrap(),
        std::fs::read(&shell).unwrap()
    );
    let keys = dictionary(&live);
    assert!(keys.len() < mined.len());
    for (i, a) in keys.iter().enumerate() {
        assert!(!keys
            .iter()
            .enumerate()
            .any(|(j, b)| i != j && b.ends_with(a)));
    }
    check(&live);
    std::fs::remove_dir_all(&dir).unwrap();
}
