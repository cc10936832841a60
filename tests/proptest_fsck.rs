//! Corruption-injection property test for `free fsck`.
//!
//! The harness builds one realistic live-index fixture (two sealed
//! segments, a non-empty WAL, two tombstones), then for each case flips a
//! bit, truncates, or extends a random byte range of a random on-disk
//! artifact in a fresh copy, and asserts the safety contract:
//!
//! > every injected fault is either **detected** by `fsck` (an
//! > error-severity `FA4xx` finding) or **harmless** (the index reopens
//! > and every probe query returns exactly the pristine results).
//!
//! A fault that slips past fsck *and* changes query results is the bug
//! class this whole subsystem exists to rule out. Random faults rarely
//! land on the few bytes that choose how the rest of a file is read, so
//! one deterministic test sweeps every header bit and every truncation
//! length of the two line-oriented files.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_analyze::{fsck, FsckOptions};
use free_engine::EngineConfig;
use free_live::{LiveConfig, LiveIndex};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Probe queries spanning indexed, weak, and scan-degenerate plans over
/// the fixture's vocabulary.
const PATTERNS: [&str; 4] = ["quick", "fox|dog", "qu[aeiou]", "z*"];

/// A high usefulness threshold so the tiny per-segment corpora still
/// mine non-empty key sets (the deep check re-mines against those keys).
/// Must be identical everywhere the fixture directory is opened.
fn config() -> LiveConfig {
    LiveConfig {
        engine: EngineConfig {
            usefulness_threshold: 0.9,
            ..EngineConfig::default()
        },
        ..LiveConfig::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-fsck-prop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// Every file under `dir`, relative paths, sorted for determinism.
fn walk_files(dir: &Path, prefix: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let rel = prefix.join(entry.file_name());
        if entry.path().is_dir() {
            walk_files(&entry.path(), &rel, out);
        } else {
            out.push(rel);
        }
    }
    out.sort();
}

/// The pristine fixture: its directory, file list, and reference query
/// results. Built once; cases copy it.
struct Fixture {
    dir: PathBuf,
    files: Vec<PathBuf>,
    reference: Vec<Vec<u32>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = fresh_dir("fixture");
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        let docs: Vec<&[u8]> = vec![
            b"the quick brown fox jumps over the lazy dog",
            b"pack my box with five dozen liquor jugs",
            b"sphinx of black quartz judge my vow",
            b"how vexingly quick daft zebras jump",
            b"the five boxing wizards jump quickly",
            b"jackdaws love my big sphinx of quartz",
        ];
        // Two sealed segments...
        live.add_batch(&docs[..3]).unwrap();
        live.flush().unwrap();
        live.add_batch(&docs[3..5]).unwrap();
        live.flush().unwrap();
        // ...buffered docs so the WAL is non-empty, and two tombstones:
        // one in a sealed segment, one whose first digit names a live
        // document the probes match (seq 1), so a delete torn after that
        // digit is visible.
        live.add_batch(&docs).unwrap();
        live.delete(2).unwrap();
        live.delete(10).unwrap();
        let reference = PATTERNS.iter().map(|p| probe(&live, p)).collect();
        drop(live);

        let mut files = Vec::new();
        walk_files(&dir, Path::new(""), &mut files);
        assert!(files.len() >= 8, "fixture too small: {files:?}");
        Fixture {
            dir,
            files,
            reference,
        }
    })
}

/// Matching sequence numbers for one pattern (spans are implied by seq +
/// content, which `get` pins).
fn probe(live: &LiveIndex, pattern: &str) -> Vec<u32> {
    live.query_with(pattern, 1, true)
        .unwrap()
        .matches
        .iter()
        .map(|m| m.seq)
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// XOR one bit at (offset % len).
    BitFlip { offset: usize, bit: u8 },
    /// Cut the file to (offset % len) bytes.
    Truncate { offset: usize },
    /// Append 1 + (offset % 16) arbitrary bytes.
    Extend { offset: usize, byte: u8 },
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        4 => (any::<usize>(), 0u8..8).prop_map(|(offset, bit)| Fault::BitFlip { offset, bit }),
        2 => any::<usize>().prop_map(|offset| Fault::Truncate { offset }),
        1 => (any::<usize>(), any::<u8>())
            .prop_map(|(offset, byte)| Fault::Extend { offset, byte }),
    ]
}

/// Applies the fault; returns false if it would be a no-op (empty file
/// bit-flip / zero-length truncate of an empty file).
fn inject(path: &Path, fault: Fault) -> bool {
    let mut bytes = std::fs::read(path).unwrap();
    match fault {
        Fault::BitFlip { offset, bit } => {
            if bytes.is_empty() {
                return false;
            }
            let i = offset % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        Fault::Truncate { offset } => {
            if bytes.is_empty() {
                return false;
            }
            bytes.truncate(offset % bytes.len());
        }
        Fault::Extend { offset, byte } => {
            bytes.extend(std::iter::repeat_n(byte, 1 + offset % 16));
        }
    }
    std::fs::write(path, bytes).unwrap();
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The detected-or-harmless contract, over random single faults.
    #[test]
    fn every_fault_is_detected_or_harmless(
        file_raw in any::<usize>(),
        fault in arb_fault(),
    ) {
        let fixture = fixture();
        let case_dir = fresh_dir("case");
        copy_dir(&fixture.dir, &case_dir);
        let rel = &fixture.files[file_raw % fixture.files.len()];
        let injected = inject(&case_dir.join(rel), fault);
        if !injected {
            std::fs::remove_dir_all(&case_dir).unwrap();
            return Ok(());
        }

        detected_or_harmless(&case_dir, true)
            .map_err(|e| TestCaseError::fail(format!("{} + {fault:?}: {e}", rel.display())))?;
        std::fs::remove_dir_all(&case_dir).unwrap();
    }
}

/// The oracle: fsck either reports an error for the damaged copy in
/// `case_dir` (returns `Ok(true)`), or it passed the state as sound, in
/// which case the index must behave exactly like the pristine one
/// (warnings/advisories — e.g. a stale tombstone — may legitimately fire
/// without changing results). Reopening may repair benign damage; that's
/// fine on a throwaway copy.
fn detected_or_harmless(case_dir: &Path, deep: bool) -> Result<bool, String> {
    let report = fsck(case_dir, &FsckOptions { deep, sample: 16 })
        .expect("fsck itself must not fail on a recognizable directory");
    if report.has_errors() {
        return Ok(true);
    }
    let live = LiveIndex::open(case_dir, config())
        .map_err(|e| format!("fsck reported no errors, yet reopen failed: {e}"))?;
    for (pattern, want) in PATTERNS.iter().zip(&fixture().reference) {
        if &probe(&live, pattern) != want {
            return Err(format!(
                "fsck reported no errors, yet {pattern:?} changed results"
            ));
        }
    }
    Ok(false)
}

/// Every bit of every fixed-size header is covered by a magic, a version
/// check or a CRC, so every single-bit flip there must be *detected*; and
/// every truncation of the tombstone log and the manifest that cuts a
/// line must be detected or harmless. Truncating the tombstone log at a
/// line boundary drops whole, individually valid records, which per-line
/// checksums cannot see (ROADMAP item 8a); those lengths are skipped.
#[test]
fn header_bits_and_line_truncations_are_detected() {
    let fixture = fixture();
    let case = |rel: &Path, fault: Fault| {
        let case_dir = fresh_dir("sweep");
        copy_dir(&fixture.dir, &case_dir);
        assert!(inject(&case_dir.join(rel), fault));
        let detected = detected_or_harmless(&case_dir, false)
            .unwrap_or_else(|e| panic!("{} + {fault:?}: {e}", rel.display()));
        std::fs::remove_dir_all(&case_dir).unwrap();
        detected
    };
    for rel in &fixture.files {
        let name = rel.file_name().unwrap().to_str().unwrap();
        let header_len = match name {
            "corpus.idx" => 24,
            _ if name.ends_with(".idx") => 28,
            _ if name.ends_with(".seqs") => 16,
            _ => 0,
        };
        for offset in 0..header_len {
            for bit in 0..8 {
                let fault = Fault::BitFlip { offset, bit };
                assert!(case(rel, fault), "{} + {fault:?} undetected", rel.display());
            }
        }
        if name == free_live::TOMBSTONES_FILE || name == free_live::manifest::MANIFEST_FILE {
            let bytes = std::fs::read(fixture.dir.join(rel)).unwrap();
            for offset in 0..bytes.len() {
                let whole_lines =
                    offset == 0 || bytes[offset - 1] == b'\n' || bytes[offset] == b'\n';
                if name == free_live::TOMBSTONES_FILE && whole_lines {
                    continue;
                }
                case(rel, Fault::Truncate { offset });
            }
        }
    }
}

/// The pristine fixture itself must verify completely clean, including
/// the deep sampled re-mining pass — zero findings of any severity.
#[test]
fn pristine_fixture_is_clean_under_deep_fsck() {
    let fixture = fixture();
    let report = fsck(
        &fixture.dir,
        &FsckOptions {
            deep: true,
            sample: 64,
        },
    )
    .unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "pristine index must have zero findings:\n{}",
        report.render_human()
    );
    assert!(report.docs_sampled > 0, "deep pass must sample documents");
}

/// A stale WAL epoch (crash between manifest commit and epoch stamp
/// cleanup) is exactly the state `LiveIndex::open` silently repairs; when
/// that cleanup has NOT run, fsck must flag it as an FA422 error.
#[test]
fn stale_wal_epoch_is_flagged_when_cleanup_skipped() {
    let fixture = fixture();
    let dir = fresh_dir("stale-epoch");
    copy_dir(&fixture.dir, &dir);
    std::fs::write(dir.join(free_live::WAL_EPOCH_FILE), b"0\n").unwrap();
    let report = fsck(&dir, &FsckOptions::default()).unwrap();
    assert!(report.has_errors(), "{}", report.render_human());
    assert_eq!(
        report.with_code(free_analyze::codes::STALE_WAL_EPOCH).len(),
        1,
        "{}",
        report.render_human()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
