//! Query-log record construction: the JSON line each executed query
//! appends to the durable log (`free_trace::qlog`).
//!
//! One record per query, emitted from [`QueryResult`]'s drop hook (and
//! from the live engine's execution path), so *every* consumed query is
//! captured however much of its result the caller read. The schema is a
//! stable envelope around [`QueryStats::to_json`]:
//!
//! ```json
//! {"type":"query","ts_ms":...,"source":"batch","pattern":"...",
//!  "grams":["abc","bcd"],"complete":true,"spans":true,"slow":false,
//!  "stats":{...},"analyze":{...}|null}
//! ```
//!
//! * `source` — `"batch"` (immutable index) or `"live"`.
//! * `grams` — the index keys the physical plan fetched (empty for
//!   scans); workload mining (`free log --analyze`, ROADMAP item 3)
//!   reads gram popularity from here.
//! * `complete` — a confirmation pass ran to exhaustion, so
//!   `stats.matching_docs` is the full answer; `free replay` verifies
//!   only complete records (a first-k query that stopped early is
//!   captured but not replayable as a count check).
//! * `spans` — the completing pass counted match spans, so
//!   `stats.match_count` is meaningful too.
//! * `slow` / `analyze` — when the query's total time reached the
//!   process-wide threshold ([`free_trace::qlog::slow_threshold_ns`]),
//!   the flight recorder re-executes it under
//!   [`Engine::explain_analyze`](crate::Engine::explain_analyze) and
//!   embeds the full per-operator tree — est-vs-actual docs, seeks,
//!   nexts, and exclusive time per node — so a production pathology is
//!   diagnosable after the fact without reproducing it by hand.
//!
//! [`QueryResult`]: crate::QueryResult
//! [`QueryStats::to_json`]: crate::QueryStats::to_json

use crate::metrics::QueryStats;
use free_trace::{JsonArray, JsonObject};
use std::time::{SystemTime, UNIX_EPOCH};

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before it, which only a broken clock reports).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Builds one query record line. `grams` are the physical plan's index
/// keys (lossily UTF-8 decoded — multigrams mined from text are
/// overwhelmingly printable); `analyze` is a pre-rendered JSON object
/// from [`ExplainAnalyze::to_json`](crate::ExplainAnalyze::to_json).
#[allow(clippy::too_many_arguments)]
pub fn query_record(
    source: &str,
    pattern: &str,
    stats: &QueryStats,
    grams: &[&[u8]],
    complete: bool,
    spans: bool,
    slow: bool,
    analyze: Option<String>,
) -> String {
    let mut o = JsonObject::new();
    o.field_str("type", "query")
        .field_u64("ts_ms", now_ms())
        .field_str("source", source)
        .field_str("pattern", pattern);
    let mut keys = JsonArray::new();
    for gram in grams {
        keys.push_str(&String::from_utf8_lossy(gram));
    }
    o.field_raw("grams", keys.finish())
        .field_bool("complete", complete)
        .field_bool("spans", spans)
        .field_bool("slow", slow)
        .field_raw("stats", stats.to_json())
        .field_raw("analyze", analyze.unwrap_or_else(|| "null".to_string()));
    o.finish()
}

/// Whether the flight-recorder threshold is armed and `stats` crossed
/// it. A threshold of 0 marks every query slow (CI uses this to force
/// captures); `u64::MAX` (the default) disarms the recorder.
pub fn is_slow(stats: &QueryStats) -> bool {
    let threshold = free_trace::qlog::slow_threshold_ns();
    threshold != u64::MAX
        && stats.total_time().as_nanos().min(u128::from(u64::MAX)) as u64 >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_trace::JsonValue;

    #[test]
    fn record_round_trips_through_the_parser() {
        let stats = QueryStats {
            candidates: 7,
            matching_docs: 3,
            match_count: 5,
            ..QueryStats::default()
        };
        let line = query_record(
            "batch",
            "nee.le",
            &stats,
            &[b"nee".as_ref(), b"dle".as_ref()],
            true,
            true,
            false,
            None,
        );
        assert!(!line.contains('\n'));
        let v = JsonValue::parse(&line).expect("parse");
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("query"));
        assert_eq!(v.get("pattern").and_then(JsonValue::as_str), Some("nee.le"));
        assert_eq!(v.get("complete").and_then(JsonValue::as_bool), Some(true));
        let grams = v.get("grams").and_then(JsonValue::as_array).expect("grams");
        assert_eq!(grams.len(), 2);
        assert_eq!(grams[0].as_str(), Some("nee"));
        let stats = v.get("stats").expect("stats");
        assert_eq!(
            stats.get("matching_docs").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            stats.get("match_count").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert!(matches!(v.get("analyze"), Some(JsonValue::Null)));
    }

    #[test]
    fn slow_is_disarmed_by_default() {
        free_trace::qlog::set_slow_threshold_ns(None);
        let stats = QueryStats {
            confirm_time: std::time::Duration::from_secs(10),
            ..QueryStats::default()
        };
        assert!(!is_slow(&stats));
        free_trace::qlog::set_slow_threshold_ns(Some(1_000_000));
        assert!(is_slow(&stats));
        free_trace::qlog::set_slow_threshold_ns(Some(0));
        assert!(is_slow(&QueryStats::default()));
        free_trace::qlog::set_slow_threshold_ns(None);
    }
}
