//! Property tests for the durable query log: kill-point crash safety
//! and differential workload replay.
//!
//! Two contracts, straight from the observability design:
//!
//! 1. **Kill-point**: truncating a query-log segment at *any* byte
//!    offset (the shape any crash or torn write leaves) is always
//!    detected coherently — `free fsck` findings agree with what the
//!    segment reader reports, readers keep every whole record written
//!    before the cut and never invent one, and undamaged segments lose
//!    nothing.
//! 2. **Differential replay**: a workload captured while querying a
//!    live index replays against the same directory
//!    with every per-query result count (`matching_docs` and
//!    `match_count`) reproduced exactly.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use free_analyze::{codes, fsck, FsckOptions};
use free_live::{LiveConfig, LiveIndex};
use free_trace::qlog::{self, LogConfig, LogWriter, SegmentStatus};
use freegrep::replay::{replay, ReplayOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The process-wide query-log slot is shared by every test in this
/// binary; both properties install into it, so they serialize here.
static QLOG: Mutex<()> = Mutex::new(());

/// Document pool: enough vocabulary overlap that every pattern finds
/// something somewhere, plus hay that matches nothing.
const DOCS: [&str; 8] = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "sphinx of black quartz judge my vow",
    "how vexingly quick daft zebras jump",
    "the five boxing wizards jump quickly",
    "jackdaws love my big sphinx of quartz",
    "plain hay with nothing interesting",
    "quick quick slow quick",
];

/// Query pool spanning indexed, alternation, class, and scan-degenerate
/// plans (the last records SCAN-class entries for the workload miner).
const PATTERNS: [&str; 6] = ["quick", "fox|dog", "qu[aeiou]", "sphinx", "jum.s?", "z*"];

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "free-qlog-prop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a live index in `dir` from `doc_picks`, capturing `schedule`
/// queries into a query log at `log_dir` (small segments force
/// rotation). Returns the captured record lines, segment-ascending.
fn capture(
    dir: &Path,
    log_dir: &Path,
    doc_picks: &[usize],
    flush_every: usize,
    schedule: &[usize],
) -> Vec<String> {
    let mut live = LiveIndex::create(dir, LiveConfig::default()).unwrap();
    for (i, &pick) in doc_picks.iter().enumerate() {
        live.add_batch(&[DOCS[pick % DOCS.len()]]).unwrap();
        if (i + 1) % flush_every == 0 {
            live.flush().unwrap();
        }
    }
    let writer = LogWriter::with_config(
        log_dir,
        LogConfig {
            rotate_bytes: 512,
            queue_capacity: 1024,
        },
    )
    .unwrap();
    qlog::install(writer);
    for &pick in schedule {
        live.snapshot()
            .query(PATTERNS[pick % PATTERNS.len()])
            .unwrap();
    }
    qlog::shutdown(); // seals every segment
    qlog::read_dir(log_dir)
        .unwrap()
        .iter()
        .flat_map(|seg| seg.trusted_records().to_vec())
        .collect()
}

/// A live query has one plan (against the index's dictionary), so its
/// record carries the plan's gram keys, each key once.
#[test]
fn live_records_carry_the_plan_grams() {
    let _guard = QLOG.lock().unwrap_or_else(|e| e.into_inner());
    let docs: Vec<String> = (0..60)
        .map(|i| format!("entry {i:03} filed under shelf {}", i % 7))
        .collect();
    let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let dir = fresh_dir("grams-idx");
    let log_dir = fresh_dir("grams-log");
    let mut live = LiveIndex::create(&dir, LiveConfig::default()).unwrap();
    live.add_batch(&docs).unwrap();
    live.flush().unwrap();
    qlog::install(LogWriter::with_config(&log_dir, LogConfig::default()).unwrap());
    live.snapshot().query("entry 042").unwrap();
    qlog::shutdown();
    let records: Vec<String> = qlog::read_dir(&log_dir)
        .unwrap()
        .iter()
        .flat_map(|seg| seg.trusted_records().to_vec())
        .collect();
    assert_eq!(records.len(), 1, "{records:?}");
    let record = free_trace::JsonValue::parse(&records[0]).unwrap();
    let grams: Vec<&str> = record
        .get("grams")
        .and_then(free_trace::JsonValue::as_array)
        .unwrap()
        .iter()
        .filter_map(free_trace::JsonValue::as_str)
        .collect();
    assert!(!grams.is_empty(), "{}", records[0]);
    let mut unique = grams.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), grams.len(), "{}", records[0]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&log_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-point: a query log truncated at any byte offset stays
    /// coherent — fsck findings match the reader's verdict, surviving
    /// records are a subsequence of the originals with undamaged
    /// segments intact, and replay of the survivors still verifies.
    #[test]
    fn truncated_log_is_detected_and_prior_records_survive(
        doc_picks in prop::collection::vec(any::<usize>(), 4..10),
        schedule in prop::collection::vec(any::<usize>(), 4..12),
        seg_pick in any::<usize>(),
        cut in any::<usize>(),
    ) {
        // Hold the slot for the whole case: the replay below runs live
        // queries, which must not leak records into a concurrently
        // capturing test.
        let _guard = QLOG.lock().unwrap_or_else(|e| e.into_inner());
        let dir = fresh_dir("kill-idx");
        let log_dir = fresh_dir("kill-log");
        let original = capture(&dir, &log_dir, &doc_picks, 3, &schedule);
        prop_assert_eq!(original.len(), schedule.len());

        // Truncate one segment at a random interior offset.
        let before = qlog::read_dir(&log_dir).unwrap();
        let victim = &before[seg_pick % before.len()];
        let bytes = std::fs::read(&victim.path).unwrap();
        prop_assume!(bytes.len() > 1);
        std::fs::write(&victim.path, &bytes[..cut % bytes.len()]).unwrap();

        // The reader's verdict and fsck's findings must agree.
        let after = qlog::read_dir(&log_dir).unwrap();
        let report = fsck(&log_dir, &FsckOptions::default()).unwrap();
        prop_assert_eq!(report.kind, "qlog");
        let last_seq = after.last().map(|s| s.seq);
        for seg in &after {
            match &seg.status {
                SegmentStatus::Sealed => {}
                SegmentStatus::Unsealed { torn_bytes } => {
                    if *torn_bytes > 0 {
                        prop_assert!(
                            !report.with_code(codes::QLOG_TORN_TAIL).is_empty(),
                            "torn tail unreported: {}", report.render_human()
                        );
                    }
                    if Some(seg.seq) != last_seq {
                        prop_assert!(
                            !report.with_code(codes::QLOG_UNSEALED).is_empty(),
                            "unsealed non-final segment unreported: {}",
                            report.render_human()
                        );
                    }
                }
                SegmentStatus::Corrupt { .. } => {
                    prop_assert!(report.has_errors(), "{}", report.render_human());
                }
            }
        }

        // Surviving records are a subsequence of the originals; every
        // record in an untouched segment survives whole.
        let survivors: Vec<String> = after
            .iter()
            .flat_map(|seg| seg.trusted_records().to_vec())
            .collect();
        let mut cursor = original.iter();
        for s in &survivors {
            prop_assert!(
                cursor.any(|o| o == s),
                "reader invented or reordered a record: {s}"
            );
        }
        let untouched: usize = before
            .iter()
            .filter(|seg| seg.seq != victim.seq)
            .map(|seg| seg.records.len())
            .sum();
        prop_assert!(survivors.len() >= untouched);

        // The survivors still replay clean against the same index.
        let mut opts = ReplayOptions::new(&log_dir);
        opts.live_dir = Some(dir.clone());
        opts.threads = 1;
        let (out, code) = replay(&opts).unwrap();
        prop_assert_eq!(code, 0, "replay of survivors failed:\n{}", out);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    /// Differential replay: every captured workload replays with result
    /// counts reproduced exactly.
    #[test]
    fn replay_reproduces_recorded_counts(
        doc_picks in prop::collection::vec(any::<usize>(), 4..12),
        schedule in prop::collection::vec(any::<usize>(), 3..10),
        flush_every in 2usize..5,
        open_loop in any::<bool>(),
    ) {
        let qps = if open_loop { 2000 } else { 0 };
        let _guard = QLOG.lock().unwrap_or_else(|e| e.into_inner());
        let dir = fresh_dir("diff-idx");
        let log_dir = fresh_dir("diff-log");
        let original = capture(&dir, &log_dir, &doc_picks, flush_every, &schedule);
        prop_assert_eq!(original.len(), schedule.len());

        let mut opts = ReplayOptions::new(&log_dir);
        opts.live_dir = Some(dir.clone());
        opts.threads = 1;
        opts.qps = qps;
        opts.json = true;
        let (out, code) = replay(&opts).unwrap();
        prop_assert_eq!(code, 0, "replay mismatch:\n{}", out);
        // The live path always records complete confirmations, so every
        // captured record must have been replayed and verified.
        prop_assert!(
            out.contains(&format!("\"replayed\":{}", schedule.len())),
            "not every record was verified:\n{}", out
        );
        prop_assert!(out.contains("\"mismatches\":0"), "{}", out);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&log_dir);
    }
}
