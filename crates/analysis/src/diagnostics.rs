//! The diagnostic model: stable codes, severities, spans, and rendering.
//!
//! Every finding the analyzer can produce is identified by a stable
//! `FAxxx` code so scripts and tests can match on it without parsing
//! prose. Codes are grouped by engine:
//!
//! | Range | Engine |
//! |---|---|
//! | `FA000` | pattern does not parse |
//! | `FA001`–`FA099` | query linter (index pathologies visible in the AST) |
//! | `FA101`–`FA199` | plan soundness verifier (Algorithm 4.1 invariant) |
//! | `FA201`–`FA299` | static cost classifier (INDEXED / WEAK / SCAN) |
//! | `FA301`–`FA399` | live-index health (fragmentation, drift, tombstones) |
//! | `FA401`–`FA499` | on-disk integrity (`free fsck`) |
//! | `FA600`–`FA699` | workload diagnostics (query-log mining) |
//!
//! `FA400` (an advisory for artifacts written before the checksummed
//! formats) is retired: those formats are no longer read, so the finding
//! cannot occur. So are `FA501`–`FA504` (the balance, layout and routing
//! of the N-shard layout, which no longer opens; `free fsck` reports a
//! sharded directory as one `FA401`). The numbers are not reused.

use free_engine::PlanClass;
use free_regex::Span;
use std::fmt;

/// Stable diagnostic codes. Never renumber these: external tooling and
/// the CLI integration tests match on the literal strings.
pub mod codes {
    /// The pattern failed to parse.
    pub const PARSE_ERROR: &str = "FA000";
    /// Algorithm 4.1 reduces the query to the NULL plan (full scan).
    pub const NULL_PLAN: &str = "FA001";
    /// Leading/trailing unbounded repetition contributes nothing.
    pub const EDGE_STAR: &str = "FA002";
    /// A character class wider than `class_expand_limit` (collapses to NULL).
    pub const WIDE_CLASS: &str = "FA003";
    /// An alternation branch with no grams nullifies the whole alternation.
    pub const NULL_BRANCH: &str = "FA004";
    /// A counted repetition expands into an oversized literal or count.
    pub const REPEAT_BLOWUP: &str = "FA005";
    /// Nested unbounded quantifiers (ambiguous, superlinear matching).
    pub const NESTED_QUANTIFIER: &str = "FA006";
    /// A required gram is not a factor of every matching string.
    pub const UNSOUND_GRAM: &str = "FA101";
    /// Plan classified INDEXED.
    pub const CLASS_INDEXED: &str = "FA201";
    /// Plan classified WEAK.
    pub const CLASS_WEAK: &str = "FA202";
    /// Plan classified SCAN.
    pub const CLASS_SCAN: &str = "FA203";
    /// An operator's actual cardinality drifted far from the planner's
    /// estimate (only produced when an `EXPLAIN ANALYZE` trace is
    /// available).
    pub const ESTIMATE_DRIFT: &str = "FA204";
    /// A live index is split across too many sealed segments.
    pub const OVER_FRAGMENTED: &str = "FA301";
    /// New documents contain candidate grams the live index's dictionary
    /// lacks.
    pub const KEY_SET_DRIFT: &str = "FA302";
    /// Tombstoned documents dominate a live index's stored documents.
    pub const TOMBSTONE_DEBT: &str = "FA303";
    /// Retired segment files linger on disk, or the published snapshot
    /// trails the writer's generation.
    pub const SNAPSHOT_STALENESS: &str = "FA304";
    /// An artifact is structurally unreadable: bad magic, unsupported
    /// format version, truncated header, unparseable directory or log
    /// line.
    pub const STRUCTURAL_DAMAGE: &str = "FA401";
    /// Stored bytes fail their recorded CRC32.
    pub const CHECKSUM_MISMATCH: &str = "FA402";
    /// A postings list's doc ids are not strictly ascending, or point
    /// outside the corpus.
    pub const POSTINGS_ORDER: &str = "FA410";
    /// A blocked postings list's skip table disagrees with its blocks.
    pub const SKIP_TABLE: &str = "FA411";
    /// Stored metadata disagrees with decoded content: an index
    /// directory's doc count vs its payload, or a segment's sequence map
    /// vs its committed metadata (count, first/last sequence) or its
    /// sibling files.
    pub const SEQ_MAP: &str = "FA412";
    /// A tombstone references a sequence number no segment stores.
    pub const BAD_TOMBSTONE: &str = "FA413";
    /// A manifest-named segment is missing files on disk.
    pub const MISSING_SEGMENT_FILES: &str = "FA420";
    /// Segment files on disk are not named by the manifest (leaked by a
    /// crashed compaction; reopening the index removes them).
    pub const ORPHANED_FILES: &str = "FA421";
    /// The WAL epoch stamp disagrees with the manifest: the WAL's
    /// contents will be discarded on the next open.
    pub const STALE_WAL_EPOCH: &str = "FA422";
    /// A corpus store's offset table is inconsistent (non-monotonic
    /// offsets or units past end of data).
    pub const CORPUS_OFFSETS: &str = "FA423";
    /// The key directory violates the miner's prefix-free invariant
    /// (advisory: a complete-gram index legitimately does this).
    pub const PREFIX_FREE: &str = "FA424";
    /// A live segment other than the oldest holds a key outside the
    /// dictionary (the oldest segment's keys), which queries never read.
    pub const OUTSIDE_DICTIONARY: &str = "FA426";
    /// A query-log segment ends in a torn (unterminated) trailing
    /// fragment — the shape a crash mid-append leaves. Readers skip the
    /// fragment; every whole line before it is trusted (advisory).
    pub const QLOG_TORN_TAIL: &str = "FA440";
    /// A query-log segment other than the highest-numbered one is
    /// unsealed (no CRC footer): the writer crashed before rotation
    /// could seal it, so its bytes are readable but unverifiable.
    pub const QLOG_UNSEALED: &str = "FA441";
    /// Deep check: a sampled document contains an indexed gram but is
    /// missing from that gram's postings (breaks the no-false-negative
    /// guarantee).
    pub const POSTINGS_INCOMPLETE: &str = "FA430";
    /// Deep check: a postings list claims a sampled document that does
    /// not contain the gram (false positives cost time, not answers).
    pub const POSTINGS_EXTRA: &str = "FA431";
    /// A SCAN-class pattern recurs in the captured workload: every
    /// execution walks the whole corpus, and the repetition says it is
    /// not a one-off exploration.
    pub const HOT_SCAN_PATTERN: &str = "FA601";
    /// Aggregate candidate counts dwarf confirmed matches across the
    /// workload: the index admits far more documents than match, so
    /// confirmation dominates (weak gram selectivity).
    pub const WORKLOAD_DRIFT: &str = "FA602";
    /// One pattern accounts for the majority of slow-query records:
    /// fixing a single plan would reclaim most of the lost time.
    pub const SLOW_CONCENTRATION: &str = "FA603";
}

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — nothing wrong, but worth knowing.
    Info,
    /// The query will work but index usage degrades.
    Warning,
    /// The query is broken (parse error) or the engine is (unsound plan).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Byte range of the pattern the finding points at, when location is
    /// meaningful (plan-level findings have none).
    pub span: Option<Span>,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional actionable advice.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Option<Span>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }
}

/// The full analysis result for one pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// The analyzed pattern, verbatim.
    pub pattern: String,
    /// The logical plan in `Debug` notation (`AND("a", OR("b", "c"))`),
    /// absent when the pattern did not parse.
    pub plan: Option<String>,
    /// Static cost classification, absent when the pattern did not parse.
    pub class: Option<PlanClass>,
    /// All findings, in emission order (lints, soundness, cost).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
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

    /// Renders the report for terminal consumption: a header, one block
    /// per diagnostic (with a caret line locating spanned findings), and
    /// the plan summary.
    pub fn render_human(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let n = self.diagnostics.len();
        let _ = writeln!(
            out,
            "analyzing `{}`: {} finding{}",
            self.pattern,
            n,
            if n == 1 { "" } else { "s" }
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
            if let Some(span) = d.span {
                let _ = writeln!(out, "  {}", self.pattern);
                let carets = "^".repeat(span.len().max(1));
                let _ = writeln!(out, "  {}{}", " ".repeat(span.start), carets);
            }
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "  help: {s}");
            }
        }
        if let Some(plan) = &self.plan {
            let _ = writeln!(out, "plan: {plan}");
        }
        if let Some(class) = self.class {
            let _ = writeln!(out, "class: {class}");
        }
        out
    }

    /// Renders the report as a JSON object (hand-rolled; the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"pattern\":{}", json_string(&self.pattern));
        match &self.plan {
            Some(p) => {
                let _ = write!(out, ",\"plan\":{}", json_string(p));
            }
            None => out.push_str(",\"plan\":null"),
        }
        match self.class {
            Some(c) => {
                let _ = write!(out, ",\"class\":{}", json_string(&c.to_string()));
            }
            None => out.push_str(",\"class\":null"),
        }
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

/// Renders one diagnostic as a JSON object (the element shape of every
/// report's `"diagnostics"` array, shared with `free fsck`).
pub fn diagnostic_json(d: &Diagnostic) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"code\":{},\"severity\":{}",
        json_string(d.code),
        json_string(&d.severity.to_string())
    );
    match d.span {
        Some(s) => {
            let _ = write!(out, ",\"span\":{{\"start\":{},\"end\":{}}}", s.start, s.end);
        }
        None => out.push_str(",\"span\":null"),
    }
    let _ = write!(out, ",\"message\":{}", json_string(&d.message));
    match &d.suggestion {
        Some(s) => {
            let _ = write!(out, ",\"suggestion\":{}", json_string(s));
        }
        None => out.push_str(",\"suggestion\":null"),
    }
    out.push('}');
    out
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            pattern: "a*".to_string(),
            plan: Some("NULL".to_string()),
            class: Some(PlanClass::Scan),
            diagnostics: vec![Diagnostic::new(
                codes::NULL_PLAN,
                Severity::Warning,
                Some(Span::new(0, 2)),
                "the plan is NULL",
            )
            .with_suggestion("add a literal")],
        }
    }

    #[test]
    fn human_rendering_shows_code_and_caret() {
        let text = sample_report().render_human();
        assert!(text.contains("warning[FA001]"), "{text}");
        assert!(text.contains("\n  a*\n  ^^\n"), "{text}");
        assert!(text.contains("help: add a literal"), "{text}");
        assert!(text.contains("class: SCAN"), "{text}");
    }

    #[test]
    fn json_rendering_is_stable() {
        let json = sample_report().to_json();
        assert_eq!(
            json,
            "{\"pattern\":\"a*\",\"plan\":\"NULL\",\"class\":\"SCAN\",\
             \"diagnostics\":[{\"code\":\"FA001\",\"severity\":\"warning\",\
             \"span\":{\"start\":0,\"end\":2},\"message\":\"the plan is NULL\",\
             \"suggestion\":\"add a literal\"}]}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn has_errors_and_with_code() {
        let mut r = sample_report();
        assert!(!r.has_errors());
        assert_eq!(r.with_code(codes::NULL_PLAN).len(), 1);
        assert_eq!(r.with_code(codes::UNSOUND_GRAM).len(), 0);
        r.diagnostics.push(Diagnostic::new(
            codes::PARSE_ERROR,
            Severity::Error,
            None,
            "x",
        ));
        assert!(r.has_errors());
    }
}
