//! `free log` and `free replay` — reading the durable query log back.
//!
//! `free log` tails, filters, and aggregates a query-log directory
//! (written by `free search --query-log` or `free serve --query-log`).
//! `free replay` re-executes a captured workload against any index —
//! batch or live — and verifies that every replayed query reproduces the
//! result counts its record captured: the observability layer doubles as
//! a differential test harness.
//!
//! Both commands trust exactly what `free fsck` trusts: whole records
//! from sealed and unsealed segments; a torn trailing fragment or a
//! corrupt segment is skipped (and reported), never a fatal error.

use crate::{CliError, Result, SearchIndex};
use free_analyze::workload::{analyze_workload, QueryRecord, WorkloadOptions};
use free_engine::qlog::now_ms;
use free_live::LiveIndex;
use free_trace::json::JsonObject;
use free_trace::qlog::{self, SegmentStatus};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Options for `free log`.
#[derive(Clone, Debug)]
pub struct LogOptions {
    /// The query-log directory.
    pub dir: PathBuf,
    /// Show only the last N records (0 = all).
    pub tail: usize,
    /// Keep only records whose pattern contains this substring.
    pub filter: Option<String>,
    /// Keep only records flagged slow.
    pub slow_only: bool,
    /// Print the aggregate workload report (with `FA6xx` diagnostics)
    /// instead of individual records.
    pub stats: bool,
    /// Print full record JSON (including any captured explain-analyze
    /// tree) instead of one-line summaries.
    pub analyze: bool,
    /// Emit records as raw JSON lines.
    pub json: bool,
}

impl LogOptions {
    /// Defaults: list every record as a one-line summary.
    pub fn new(dir: impl Into<PathBuf>) -> LogOptions {
        LogOptions {
            dir: dir.into(),
            tail: 0,
            filter: None,
            slow_only: false,
            stats: false,
            analyze: false,
            json: false,
        }
    }
}

/// One parsed record plus the raw line it came from (the raw line keeps
/// the flight-recorder tree, which `QueryRecord` does not carry).
struct LoadedRecord {
    record: QueryRecord,
    raw: String,
}

/// What a log directory load found: trusted query records, plus the
/// bookkeeping the commands report.
struct LoadedLog {
    records: Vec<LoadedRecord>,
    segments: usize,
    sealed: usize,
    corrupt: usize,
    torn_bytes: u64,
    accesses: usize,
}

fn load_log(dir: &Path) -> std::io::Result<LoadedLog> {
    let segments = qlog::read_dir(dir)?;
    let mut loaded = LoadedLog {
        records: Vec::new(),
        segments: segments.len(),
        sealed: 0,
        corrupt: 0,
        torn_bytes: 0,
        accesses: 0,
    };
    for seg in &segments {
        match &seg.status {
            SegmentStatus::Sealed => loaded.sealed += 1,
            SegmentStatus::Unsealed { torn_bytes } => loaded.torn_bytes += torn_bytes,
            SegmentStatus::Corrupt { .. } => loaded.corrupt += 1,
        }
        for line in seg.trusted_records() {
            if let Some(record) = QueryRecord::parse(line) {
                loaded.records.push(LoadedRecord {
                    record,
                    raw: line.clone(),
                });
            } else if line.contains("\"type\":\"access\"") {
                loaded.accesses += 1;
            }
        }
    }
    Ok(loaded)
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Runs `free log`: renders the log directory per `opts`. Returns the
/// output and an exit code (0 always — damaged segments are reported,
/// not fatal; `free fsck` is the command whose exit code judges them).
pub fn log_report(opts: &LogOptions) -> Result<(String, i32)> {
    if opts.stats {
        let report = analyze_workload(&opts.dir, &WorkloadOptions::default())?;
        let out = if opts.json {
            format!("{}\n", report.to_json())
        } else {
            report.render_human()
        };
        return Ok((out, 0));
    }
    let loaded = load_log(&opts.dir)?;
    let mut kept: Vec<&LoadedRecord> = loaded
        .records
        .iter()
        .filter(|r| !opts.slow_only || r.record.slow)
        .filter(|r| {
            opts.filter
                .as_deref()
                .is_none_or(|f| r.record.pattern.contains(f))
        })
        .collect();
    if opts.tail > 0 && kept.len() > opts.tail {
        kept.drain(..kept.len() - opts.tail);
    }
    let mut out = String::new();
    if !opts.json {
        let _ = writeln!(
            out,
            "query log {}: {} segment(s) ({} sealed, {} corrupt), \
             {} query record(s), {} access record(s); showing {}",
            opts.dir.display(),
            loaded.segments,
            loaded.sealed,
            loaded.corrupt,
            loaded.records.len(),
            loaded.accesses,
            kept.len(),
        );
        if loaded.torn_bytes > 0 {
            let _ = writeln!(
                out,
                "note: skipped a torn {}-byte trailing fragment (crash mid-append)",
                loaded.torn_bytes
            );
        }
    }
    for r in kept {
        if opts.json || (opts.analyze && r.record.has_analyze) {
            let _ = writeln!(out, "{}", r.raw);
            continue;
        }
        let q = &r.record;
        let _ = writeln!(
            out,
            "{} {:>5} {:<7} docs={} matches={} candidates={} {}{}{:?}",
            q.ts_ms,
            q.source,
            q.plan_class,
            q.matching_docs,
            q.match_count,
            q.candidates,
            fmt_ns(q.total_ns),
            if q.slow { " SLOW " } else { " " },
            q.pattern,
        );
    }
    Ok((out, 0))
}

/// Options for `free replay`.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// The query-log directory to replay from.
    pub log_dir: PathBuf,
    /// Replay against this batch index directory…
    pub index: Option<PathBuf>,
    /// …or against this live index directory.
    pub live_dir: Option<PathBuf>,
    /// Open-loop pacing: issue queries at this rate (0 = closed loop,
    /// each query starts when the previous one finishes).
    pub qps: u64,
    /// Confirmation worker threads (0 = one per CPU).
    pub threads: usize,
    /// Emit the summary as one JSON object.
    pub json: bool,
}

impl ReplayOptions {
    /// Defaults: closed-loop replay; a target must still be set.
    pub fn new(log_dir: impl Into<PathBuf>) -> ReplayOptions {
        ReplayOptions {
            log_dir: log_dir.into(),
            index: None,
            live_dir: None,
            qps: 0,
            threads: 0,
            json: false,
        }
    }
}

/// The index a replay runs against.
enum ReplayTarget {
    Batch(Box<SearchIndex>),
    Live(LiveIndex),
}

impl ReplayTarget {
    /// Executes `pattern` and returns `(matching_docs, match_count)` —
    /// the two counters verified against the recorded values.
    fn counts(&self, pattern: &str) -> Result<(u64, u64)> {
        match self {
            ReplayTarget::Batch(index) => index.counts(pattern),
            ReplayTarget::Live(handle) => {
                let result = handle.snapshot().query(pattern)?;
                let docs = result.matches.len() as u64;
                let matches = result.matches.iter().map(|m| u64::from(m.count)).sum();
                Ok((docs, matches))
            }
        }
    }
}

/// One disagreement between a recorded query and its replay.
#[derive(Clone, Debug)]
pub struct ReplayMismatch {
    /// The pattern, verbatim.
    pub pattern: String,
    /// What the record captured: `(matching_docs, match_count)`.
    pub recorded: (u64, u64),
    /// What the replay produced.
    pub replayed: (u64, u64),
    /// Whether `match_count` participated in the comparison (only when
    /// the record's completing pass counted spans).
    pub compared_spans: bool,
}

/// Runs `free replay`: re-executes every complete captured query against
/// the target index and verifies recorded result counts. Exit code 1
/// when any query disagrees.
pub fn replay(opts: &ReplayOptions) -> Result<(String, i32)> {
    let target = match (&opts.index, &opts.live_dir) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "replay takes --index DIR or --dir LIVEDIR, not both".into(),
            ))
        }
        (Some(dir), None) => {
            ReplayTarget::Batch(Box::new(SearchIndex::open_with_threads(dir, opts.threads)?))
        }
        (None, Some(dir)) => {
            ReplayTarget::Live(LiveIndex::open(dir, crate::live_config(opts.threads))?)
        }
        (None, None) => {
            return Err(CliError::Usage(
                "replay needs a target: --index DIR (batch) or --dir DIR (live)".into(),
            ))
        }
    };
    let loaded = load_log(&opts.log_dir)?;
    let total_records = loaded.records.len();
    let schedule: Vec<&LoadedRecord> = loaded
        .records
        .iter()
        .filter(|r| r.record.complete)
        .collect();
    let skipped_incomplete = total_records - schedule.len();

    let mut mismatches: Vec<ReplayMismatch> = Vec::new();
    let mut errors = 0usize;
    let started = Instant::now();
    for (i, r) in schedule.iter().enumerate() {
        // Open loop (qps > 0): query i is *scheduled* at i/qps seconds
        // after start, independent of how long its predecessors took. A
        // replay that falls behind never sleeps (coordinated omission
        // stays visible in the achieved rate).
        if let Some(step) = 1_000_000_000u64.checked_div(opts.qps) {
            let due = Duration::from_nanos(i as u64 * step);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let q = &r.record;
        let (docs, spans) = match target.counts(&q.pattern) {
            Ok(counts) => counts,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        let docs_ok = docs == q.matching_docs;
        let spans_ok = !q.spans || spans == q.match_count;
        if !docs_ok || !spans_ok {
            mismatches.push(ReplayMismatch {
                pattern: q.pattern.clone(),
                recorded: (q.matching_docs, q.match_count),
                replayed: (docs, spans),
                compared_spans: q.spans,
            });
        }
    }
    let wall = started.elapsed();
    let replayed = schedule.len() - errors;
    let achieved_qps = if wall.as_secs_f64() > 0.0 {
        replayed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };

    let code = i32::from(!mismatches.is_empty());
    if opts.json {
        let mut o = JsonObject::new();
        o.field_u64("ts_ms", now_ms())
            .field_str("log", &opts.log_dir.display().to_string())
            .field_u64("records", total_records as u64)
            .field_u64("replayed", replayed as u64)
            .field_u64("skipped_incomplete", skipped_incomplete as u64)
            .field_u64("errors", errors as u64)
            .field_u64("mismatches", mismatches.len() as u64)
            .field_u64("qps_target", opts.qps)
            .field_f64("qps_achieved", achieved_qps)
            .field_u64("wall_ms", wall.as_millis() as u64);
        return Ok((format!("{}\n", o.finish()), code));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {replayed} of {total_records} record(s) from {} \
         ({skipped_incomplete} incomplete skipped, {errors} error(s)) \
         in {:.2}s ({achieved_qps:.1} queries/s{})",
        opts.log_dir.display(),
        wall.as_secs_f64(),
        if opts.qps > 0 {
            format!(", target {}", opts.qps)
        } else {
            String::new()
        },
    );
    if loaded.corrupt > 0 || loaded.torn_bytes > 0 {
        let _ = writeln!(
            out,
            "note: skipped {} corrupt segment(s) and {} torn byte(s); \
             run `free fsck {}` for details",
            loaded.corrupt,
            loaded.torn_bytes,
            opts.log_dir.display(),
        );
    }
    for m in mismatches.iter().take(10) {
        let _ = writeln!(
            out,
            "mismatch: {:?} recorded docs={} matches={} but replay found docs={} matches={}{}",
            m.pattern,
            m.recorded.0,
            m.recorded.1,
            m.replayed.0,
            m.replayed.1,
            if m.compared_spans { "" } else { " (docs only)" },
        );
    }
    if mismatches.len() > 10 {
        let _ = writeln!(out, "… and {} more mismatch(es)", mismatches.len() - 10);
    }
    if mismatches.is_empty() {
        let _ = writeln!(
            out,
            "ok: every replayed query reproduced its recorded counts"
        );
    } else {
        let _ = writeln!(
            out,
            "FAIL: {} of {replayed} replayed query(ies) disagree with the record",
            mismatches.len()
        );
    }
    Ok((out, code))
}
