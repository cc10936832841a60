//! Workload diagnostics mined from the durable query log
//! (`FA600`–`FA699`).
//!
//! `free search --query-log` and `free serve --query-log` capture one
//! record per executed query (see `free_trace::qlog`). This module reads
//! a log directory back and reports *workload-level* pathologies no
//! single-query analyzer can see:
//!
//! * **`FA601` hot SCAN pattern** — a pattern whose plan degenerated to
//!   a full scan keeps being issued. One scan is exploration; the same
//!   scan N times is a standing tax.
//! * **`FA602` aggregate estimate drift** — summed over the workload,
//!   the index hands confirmation far more candidates than ever match.
//!   Individually each query looks fine; together they say the mined
//!   gram set is too weak for this query mix.
//! * **`FA603` slow-query concentration** — most slow-query records
//!   carry the same pattern, so one plan fix reclaims most of the lost
//!   time. Slow records carry a captured `explain_analyze` tree (the
//!   flight recorder) pointing at the operator to fix.
//!
//! Torn or corrupt segments are skipped exactly as `free replay` skips
//! them — only trusted records feed the statistics.

use crate::diagnostics::{codes, diagnostic_json, json_string, Diagnostic, Severity};
use free_trace::json::JsonValue;
use free_trace::qlog::{self, SegmentStatus};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Thresholds for the workload analyzers. The defaults are deliberately
/// conservative: diagnostics should name standing problems, not noise.
#[derive(Clone, Debug)]
pub struct WorkloadOptions {
    /// `FA601` fires when a SCAN-class pattern appears at least this
    /// many times.
    pub scan_repeat_threshold: usize,
    /// `FA602` fires when aggregate candidates exceed this multiple of
    /// aggregate matching documents (over complete records only).
    pub drift_factor: f64,
    /// `FA602` needs at least this many aggregate candidates before it
    /// will speak — tiny workloads drift by accident.
    pub drift_min_candidates: u64,
    /// `FA603` fires when one pattern holds at least this share of the
    /// slow-query records…
    pub concentration_share: f64,
    /// …and there are at least this many slow records in total.
    pub concentration_min_slow: usize,
}

impl Default for WorkloadOptions {
    fn default() -> WorkloadOptions {
        WorkloadOptions {
            scan_repeat_threshold: 3,
            drift_factor: 4.0,
            drift_min_candidates: 64,
            concentration_share: 0.5,
            concentration_min_slow: 5,
        }
    }
}

/// One query record parsed back out of the log. Fields mirror the JSON
/// envelope written by `free_engine::qlog::query_record`.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Wall-clock capture time (unix milliseconds).
    pub ts_ms: u64,
    /// `"batch"` or `"live"`.
    pub source: String,
    /// The pattern, verbatim.
    pub pattern: String,
    /// `INDEXED`, `WEAK`, or `SCAN`.
    pub plan_class: String,
    /// Multigram keys the physical plan fetched (batch only).
    pub grams: Vec<String>,
    /// The confirmation pass ran to exhaustion, so the counts below are
    /// the full answer (replay verifies only complete records).
    pub complete: bool,
    /// The completing pass counted spans (`match_count` is real).
    pub spans: bool,
    /// The query crossed the slow threshold; `has_analyze` says whether
    /// a flight-recorder tree was captured alongside.
    pub slow: bool,
    /// A captured `explain_analyze` tree rides in the record.
    pub has_analyze: bool,
    /// Candidate documents the index produced.
    pub candidates: u64,
    /// Documents confirmed to match.
    pub matching_docs: u64,
    /// Total match spans (meaningful when `spans`).
    pub match_count: u64,
    /// End-to-end query time in nanoseconds.
    pub total_ns: u64,
}

impl QueryRecord {
    /// Parses one log line; `None` for access records, damaged lines, or
    /// anything that is not a `type:"query"` record.
    pub fn parse(line: &str) -> Option<QueryRecord> {
        let v = JsonValue::parse(line).ok()?;
        if v.get("type")?.as_str()? != "query" {
            return None;
        }
        let stats = v.get("stats")?;
        let grams = v
            .get("grams")
            .and_then(|g| g.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|g| g.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Some(QueryRecord {
            ts_ms: v.get("ts_ms").and_then(|x| x.as_u64()).unwrap_or(0),
            source: v.get("source")?.as_str()?.to_string(),
            pattern: v.get("pattern")?.as_str()?.to_string(),
            plan_class: stats
                .get("plan_class")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string(),
            grams,
            complete: v.get("complete").and_then(|x| x.as_bool()).unwrap_or(false),
            spans: v.get("spans").and_then(|x| x.as_bool()).unwrap_or(false),
            slow: v.get("slow").and_then(|x| x.as_bool()).unwrap_or(false),
            has_analyze: v.get("analyze").is_some_and(|a| *a != JsonValue::Null),
            candidates: stats
                .get("candidates")
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
            matching_docs: stats
                .get("matching_docs")
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
            match_count: stats
                .get("match_count")
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
            total_ns: stats.get("total_ns").and_then(|x| x.as_u64()).unwrap_or(0),
        })
    }
}

/// The result of mining one query-log directory.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// The log directory, verbatim.
    pub target: String,
    /// Segments read (sealed + unsealed).
    pub segments: usize,
    /// Segments whose CRC footer verified.
    pub sealed: usize,
    /// Segments skipped as corrupt.
    pub corrupt: usize,
    /// Query records parsed.
    pub queries: usize,
    /// Access records seen (counted, not mined).
    pub accesses: usize,
    /// Access records by outcome status (`ok`/`error`/`timeout`/`shed`).
    /// Pre-status records (no `status` field) are classified from their
    /// `ok` flag. Sheds and timeouts showing up here is the point: the
    /// log records what the server *refused*, not just what it served.
    pub access_status: BTreeMap<String, usize>,
    /// Records flagged slow.
    pub slow: usize,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl WorkloadReport {
    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the report for terminal consumption.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let n = self.diagnostics.len();
        let _ = writeln!(
            out,
            "workload {}: {} segment(s) ({} sealed, {} corrupt), \
             {} query record(s), {} slow, {} finding{}",
            self.target,
            self.segments,
            self.sealed,
            self.corrupt,
            self.queries,
            self.slow,
            n,
            if n == 1 { "" } else { "s" }
        );
        if self.accesses > 0 {
            let breakdown = self
                .access_status
                .iter()
                .map(|(status, count)| format!("{status} {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "access records: {} ({breakdown})", self.accesses);
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "  help: {s}");
            }
        }
        if n == 0 {
            let _ = writeln!(out, "ok: no workload pathologies");
        }
        out
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"target\":{}", json_string(&self.target));
        let _ = write!(out, ",\"segments\":{}", self.segments);
        let _ = write!(out, ",\"sealed\":{}", self.sealed);
        let _ = write!(out, ",\"corrupt\":{}", self.corrupt);
        let _ = write!(out, ",\"queries\":{}", self.queries);
        let _ = write!(out, ",\"accesses\":{}", self.accesses);
        out.push_str(",\"access_status\":{");
        for (i, (status, count)) in self.access_status.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{count}", json_string(status));
        }
        out.push('}');
        let _ = write!(out, ",\"slow\":{}", self.slow);
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&diagnostic_json(d));
        }
        out.push_str("]}");
        out
    }
}

/// Mines the query-log directory at `dir`: reads every trusted record
/// (torn tails and corrupt segments are skipped) and runs the `FA6xx`
/// analyzers over the parsed workload.
pub fn analyze_workload(dir: &Path, opts: &WorkloadOptions) -> std::io::Result<WorkloadReport> {
    let segments = qlog::read_dir(dir)?;
    let mut report = WorkloadReport {
        target: dir.display().to_string(),
        segments: segments.len(),
        sealed: 0,
        corrupt: 0,
        queries: 0,
        accesses: 0,
        access_status: BTreeMap::new(),
        slow: 0,
        diagnostics: Vec::new(),
    };
    let mut records = Vec::new();
    for seg in &segments {
        match &seg.status {
            SegmentStatus::Sealed => report.sealed += 1,
            SegmentStatus::Unsealed { .. } => {}
            SegmentStatus::Corrupt { .. } => report.corrupt += 1,
        }
        for line in seg.trusted_records() {
            if let Some(q) = QueryRecord::parse(line) {
                records.push(q);
            } else if line.contains("\"type\":\"access\"") {
                report.accesses += 1;
                *report
                    .access_status
                    .entry(access_status(line).to_string())
                    .or_insert(0) += 1;
            }
        }
    }
    report.queries = records.len();
    report.slow = records.iter().filter(|r| r.slow).count();
    report.diagnostics = analyze_records(&records, opts);
    Ok(report)
}

/// Classifies one access-record line by its `status` field; records
/// written before statuses existed are classified from their `ok` flag.
fn access_status(line: &str) -> &'static str {
    let Ok(v) = JsonValue::parse(line) else {
        return "unknown";
    };
    match v.get("status").and_then(|s| s.as_str()) {
        Some("ok") => "ok",
        Some("error") => "error",
        Some("timeout") => "timeout",
        Some("shed") => "shed",
        Some(_) => "unknown",
        None => match v.get("ok").and_then(|o| o.as_bool()) {
            Some(true) => "ok",
            Some(false) => "error",
            None => "unknown",
        },
    }
}

/// The `FA6xx` analyzers over an already-parsed workload. Split from
/// [`analyze_workload`] so tests and `free replay` can feed records
/// directly.
pub fn analyze_records(records: &[QueryRecord], opts: &WorkloadOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // FA601: SCAN-class patterns by repetition count, worst first.
    let mut scans: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records.iter().filter(|r| r.plan_class == "SCAN") {
        *scans.entry(r.pattern.as_str()).or_insert(0) += 1;
    }
    let mut hot: Vec<(&str, usize)> = scans
        .into_iter()
        .filter(|&(_, n)| n >= opts.scan_repeat_threshold)
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (pattern, n) in hot {
        diags.push(
            Diagnostic::new(
                codes::HOT_SCAN_PATTERN,
                Severity::Warning,
                None,
                format!(
                    "pattern {pattern:?} ran as a full SCAN {n} times: \
                     every execution walks the whole corpus"
                ),
            )
            .with_suggestion(
                "run `free analyze` on the pattern; anchoring it with a literal \
                 of length >= 2 lets the multigram index prune",
            ),
        );
    }

    // FA602: aggregate candidates vs confirmed matches, complete
    // records only (an early-stopped query undercounts its matches).
    let complete: Vec<&QueryRecord> = records.iter().filter(|r| r.complete).collect();
    let candidates: u64 = complete.iter().map(|r| r.candidates).sum();
    let matched: u64 = complete.iter().map(|r| r.matching_docs).sum();
    if candidates >= opts.drift_min_candidates
        && candidates as f64 > opts.drift_factor * (matched.max(1)) as f64
    {
        let ratio = candidates as f64 / matched.max(1) as f64;
        diags.push(
            Diagnostic::new(
                codes::WORKLOAD_DRIFT,
                Severity::Warning,
                None,
                format!(
                    "index selectivity is weak for this workload: {candidates} candidate \
                     document(s) confirmed down to {matched} match(es) ({ratio:.1}x) \
                     across {} complete record(s)",
                    complete.len()
                ),
            )
            .with_suggestion(
                "re-mine with a lower usefulness threshold (more, rarer grams), \
                 or raise max gram length"
                    .to_string(),
            ),
        );
    }

    // FA603: does one pattern own the slow log?
    let slow: Vec<&QueryRecord> = records.iter().filter(|r| r.slow).collect();
    if slow.len() >= opts.concentration_min_slow {
        let mut by_pattern: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &slow {
            *by_pattern.entry(r.pattern.as_str()).or_insert(0) += 1;
        }
        if let Some((pattern, n)) = by_pattern
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        {
            let share = n as f64 / slow.len() as f64;
            if share >= opts.concentration_share {
                diags.push(
                    Diagnostic::new(
                        codes::SLOW_CONCENTRATION,
                        Severity::Warning,
                        None,
                        format!(
                            "pattern {pattern:?} accounts for {n} of {} slow-query \
                             record(s) ({:.0}%)",
                            slow.len(),
                            share * 100.0
                        ),
                    )
                    .with_suggestion(
                        "inspect its captured explain-analyze tree with \
                         `free log <dir> --slow --analyze`"
                            .to_string(),
                    ),
                );
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        pattern: &str,
        class: &str,
        candidates: u64,
        matched: u64,
        slow: bool,
    ) -> QueryRecord {
        QueryRecord {
            ts_ms: 0,
            source: "batch".to_string(),
            pattern: pattern.to_string(),
            plan_class: class.to_string(),
            grams: Vec::new(),
            complete: true,
            spans: false,
            slow,
            has_analyze: false,
            candidates,
            matching_docs: matched,
            match_count: matched,
            total_ns: 1000,
        }
    }

    #[test]
    fn parses_a_written_record() {
        let stats = free_engine::QueryStats::default();
        let line = free_engine::qlog::query_record(
            "batch",
            "nee.le",
            &stats,
            &[b"nee".as_slice(), b"le".as_slice()],
            true,
            false,
            false,
            None,
        );
        let q = QueryRecord::parse(&line).unwrap();
        assert_eq!(q.pattern, "nee.le");
        assert_eq!(q.source, "batch");
        assert_eq!(q.grams, vec!["nee".to_string(), "le".to_string()]);
        assert!(q.complete);
        assert!(!q.slow);
        assert!(!q.has_analyze);
    }

    #[test]
    fn access_records_are_not_query_records() {
        assert!(QueryRecord::parse(r#"{"type":"access","ts_ms":1,"request_id":1}"#).is_none());
        assert!(QueryRecord::parse("not json").is_none());
    }

    #[test]
    fn hot_scan_fires_at_threshold() {
        let opts = WorkloadOptions::default();
        let mut records = vec![record("a.*b", "SCAN", 10, 1, false); 2];
        assert!(analyze_records(&records, &opts).is_empty());
        records.push(record("a.*b", "SCAN", 10, 1, false));
        let diags = analyze_records(&records, &opts);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::HOT_SCAN_PATTERN);
        assert!(diags[0].message.contains("3 times"));
        let hint = diags[0].suggestion.as_deref().unwrap();
        assert!(hint.contains("free analyze"), "{hint}");
    }

    #[test]
    fn drift_needs_volume_and_ratio() {
        let opts = WorkloadOptions::default();
        // Big candidate volume, nearly all confirmed: no drift.
        let good = vec![record("x", "INDEXED", 100, 90, false); 10];
        assert!(analyze_records(&good, &opts).is_empty());
        // Big candidate volume, almost nothing confirms: drift.
        let bad = vec![record("x", "INDEXED", 100, 2, false); 10];
        let diags = analyze_records(&bad, &opts);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::WORKLOAD_DRIFT);
        // Same ratio but below the candidate floor: silent.
        let tiny = vec![record("x", "INDEXED", 10, 0, false)];
        assert!(analyze_records(&tiny, &opts).is_empty());
    }

    #[test]
    fn slow_concentration_wants_a_majority() {
        let opts = WorkloadOptions::default();
        let mut records = vec![record("hog", "WEAK", 50, 40, true); 4];
        records.push(record("other", "WEAK", 50, 40, true));
        let diags = analyze_records(&records, &opts);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SLOW_CONCENTRATION);
        assert!(diags[0].message.contains("4 of 5"));
        // An even spread stays quiet.
        let spread: Vec<QueryRecord> = (0..6)
            .map(|i| record(&format!("p{i}"), "WEAK", 50, 40, true))
            .collect();
        assert!(analyze_records(&spread, &opts).is_empty());
    }

    #[test]
    fn access_records_break_down_by_status() {
        let dir = std::env::temp_dir().join(format!("free-workload-acc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let w = free_trace::LogWriter::create(&dir).unwrap();
        for status in ["ok", "ok", "timeout", "shed", "error"] {
            w.emit(format!(
                r#"{{"type":"access","ts_ms":1,"request_id":1,"cmd":"query","ok":{},"status":"{status}","total_ns":10}}"#,
                status == "ok"
            ));
        }
        // A pre-status record classifies from its ok flag.
        w.emit(
            r#"{"type":"access","ts_ms":1,"request_id":9,"cmd":"ping","ok":true,"total_ns":10}"#
                .to_string(),
        );
        w.close();
        let report = analyze_workload(&dir, &WorkloadOptions::default()).unwrap();
        assert_eq!(report.accesses, 6);
        assert_eq!(report.access_status.get("ok"), Some(&3));
        assert_eq!(report.access_status.get("timeout"), Some(&1));
        assert_eq!(report.access_status.get("shed"), Some(&1));
        assert_eq!(report.access_status.get("error"), Some(&1));
        let human = report.render_human();
        assert!(human.contains("access records: 6"), "{human}");
        assert!(human.contains("shed 1"), "{human}");
        let json = report.to_json();
        assert!(json.contains("\"access_status\":{"), "{json}");
        assert!(json.contains("\"timeout\":1"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_report_renders_both_ways() {
        let dir = std::env::temp_dir().join(format!("free-workload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let w = free_trace::LogWriter::create(&dir).unwrap();
        let stats = free_engine::QueryStats {
            candidates: 100,
            matching_docs: 1,
            ..Default::default()
        };
        for _ in 0..3 {
            w.emit(free_engine::qlog::query_record(
                "batch",
                "sc.n",
                &stats,
                &[],
                true,
                false,
                false,
                None,
            ));
        }
        w.close();
        let report = analyze_workload(&dir, &WorkloadOptions::default()).unwrap();
        assert_eq!(report.queries, 3);
        assert_eq!(report.sealed, 1);
        assert!(report.render_human().contains("3 query record(s)"));
        assert!(report.to_json().contains("\"queries\":3"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
