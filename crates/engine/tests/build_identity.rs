//! The index file is a function of the corpus and the configuration
//! alone: pinned checksums of files built before the build kernels were
//! rewritten, the same bytes for any memory budget, and a structured
//! error — never a short list — when a key set breaks the selector
//! contract.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use free_corpus::synth::{Generator, SynthConfig};
use free_corpus::MemCorpus;
use free_engine::select::SelectedGram;
use free_engine::{build_index, select_keys, Engine, EngineConfig, IndexKind, SelectorSpec};
use free_index::IndexRead;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("free-identity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The default build of [`corpus`]: its presuf shell, 3 433 keys and
/// 25 833 postings in 52 094 bytes (under the multigram default: 14 078
/// keys and 70 277 postings in 210 159 bytes).
const SHELL_CRC: u32 = 0xae1d_1a12;
const SHELL_LEN: usize = 52_094;

fn corpus() -> MemCorpus {
    Generator::new(SynthConfig::tiny(200, 7)).build_mem().0
}

/// CRC32 and length of the file `Engine::build_on_disk` writes for
/// `SynthConfig::tiny(200, 7)`. The kinds and selectors other than the
/// default were recorded at commit 1ac5c4b (hash-map miner,
/// per-state-map matcher, run-file builder); the multigram file was the
/// default then, and still writing it byte for byte shows that making the
/// presuf shell the default changed what is built, not how.
#[test]
fn golden_index_files() {
    let dir = tmp_dir("golden");
    let cases = [
        (
            "default (presuf shell)",
            EngineConfig::default(),
            SHELL_CRC,
            SHELL_LEN,
        ),
        (
            "multigram",
            EngineConfig::with_kind(IndexKind::Multigram),
            0x0f3f_bf82u32,
            210_159usize,
        ),
        (
            "presuf",
            EngineConfig {
                max_gram_len: 5,
                ..EngineConfig::with_kind(IndexKind::Presuf)
            },
            0xe5c9_9908,
            48_180,
        ),
        (
            "complete",
            EngineConfig {
                max_gram_len: 5,
                ..EngineConfig::with_kind(IndexKind::Complete)
            },
            0x2e74_d079,
            535_592,
        ),
        (
            "trigram",
            EngineConfig {
                selector: SelectorSpec::Trigram { k: 3 },
                ..EngineConfig::default()
            },
            0x9da0_afa4,
            98_464,
        ),
    ];
    for (name, config, crc, len) in cases {
        let path = dir.join(format!("{name}.free"));
        Engine::build_on_disk(corpus(), config, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), len, "{name}");
        assert_eq!(free_checksum::crc32(&bytes), crc, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn any_memory_budget_writes_the_same_file() {
    let dir = tmp_dir("budget");
    let corpus = corpus();
    let (keys, _) = select_keys(&corpus, &EngineConfig::default()).unwrap();
    let build = |keys: &[SelectedGram], budget: usize| {
        let path = dir.join("idx.free");
        build_index(&corpus, keys, &path, budget).unwrap();
        std::fs::read(&path).unwrap()
    };
    // 25 833 postings at 4 bytes: two scans under a 60 000-byte budget.
    let whole = build(&keys, usize::MAX);
    assert_eq!(free_checksum::crc32(&whole), SHELL_CRC);
    assert_eq!(build(&keys, 60_000), whole);
    // Down to one key per scan (a lone key may exceed the budget).
    let some = build(&keys[..600], usize::MAX);
    for budget in [4096, 64, 0] {
        assert_eq!(build(&keys[..600], budget), some, "budget {budget}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_lying_selector_is_a_corrupt_error() {
    let dir = tmp_dir("lying");
    let corpus = corpus();
    let (keys, _) = select_keys(&corpus, &EngineConfig::default()).unwrap();
    let keys = &keys[..500];
    let path = dir.join("idx.free");
    let build =
        |keys: &[SelectedGram], budget: usize| match build_index(&corpus, keys, &path, budget) {
            Err(free_engine::Error::Index(free_index::Error::Corrupt(msg))) => msg,
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("lying key set accepted"),
        };
    for budget in [usize::MAX, 256] {
        let mut low = keys.to_vec();
        low[250].doc_count -= 1;
        assert!(build(&low, budget).contains("more than"), "budget {budget}");
        let mut high = keys.to_vec();
        high[250].doc_count += 1;
        assert!(
            build(&high, budget).contains("its selector counted"),
            "budget {budget}"
        );
        let mut unsorted = keys.to_vec();
        unsorted.swap(100, 400);
        let msg = build(&unsorted, budget);
        // Caught by whichever check meets the swapped keys first.
        assert!(
            msg.contains("keys out of order") || msg.contains("counted"),
            "budget {budget}: {msg}"
        );
        let mut repeated = keys.to_vec();
        repeated[7] = repeated[6].clone();
        assert!(
            build(&repeated, budget).contains("keys out of order"),
            "budget {budget}"
        );
    }
    // The honest keys still build, and a key nothing contains is left out
    // (as the run-file builder left it out) rather than stored empty.
    let mut honest = keys.to_vec();
    let absent = SelectedGram {
        gram: b"\xfe\xfe\xfe"[..].into(),
        doc_count: 0,
    };
    let at = honest.partition_point(|g| g.gram < absent.gram);
    honest.insert(at, absent);
    let index = build_index(&corpus, &honest, &path, usize::MAX).unwrap();
    assert_eq!(index.num_keys(), keys.len());
    std::fs::remove_dir_all(&dir).unwrap();
}
