//! Query- and build-time metrics.
//!
//! The paper's figures report wall-clock seconds on a 450 MHz Pentium III;
//! our reproduction reports both wall-clock *and* logical cost counters
//! (data units examined, bytes scanned, postings decoded) so the shape of
//! the results can be compared independent of hardware.

use crate::plan::physical::PlanClass;
use crate::select::MiningStats;
use free_trace::{Counter, Histogram, JsonArray, JsonObject, Registry};
use std::sync::OnceLock;
use std::time::Duration;

/// Cost accounting for one query execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Time spent parsing the regex and generating the plan.
    pub plan_time: Duration,
    /// Time spent fetching and combining postings lists.
    pub index_time: Duration,
    /// Time spent reading *index-selected* candidate data units and
    /// confirming matches. Zero for scan-fallback queries, whose matcher
    /// time is [`scan_time`](QueryStats::scan_time).
    pub confirm_time: Duration,
    /// Time spent in the scan fallback: running the matcher over the whole
    /// corpus because the plan could not use the index. Accounted
    /// separately from `confirm_time` so index-assisted confirmation and
    /// blind scanning can be told apart.
    pub scan_time: Duration,
    /// Whether the plan degenerated to a full corpus scan (the paper's
    /// `zip`/`phone`/`html` cases).
    pub used_scan: bool,
    /// Static cost classification of the plan (INDEXED/WEAK/SCAN).
    pub plan_class: PlanClass,
    /// Number of index keys whose postings were fetched.
    pub keys_fetched: usize,
    /// Total postings decoded across those keys.
    pub postings_decoded: u64,
    /// Seeks issued against streaming cursors (leapfrog intersection
    /// probes and explicit repositioning).
    pub cursor_seeks: u64,
    /// Encoded postings blocks decoded by blocked-list cursors.
    pub blocks_decoded: u64,
    /// Postings passed over without being decoded or yielded: galloped
    /// past in memory or skipped wholesale via block skip tables.
    pub postings_skipped: u64,
    /// Candidate data units selected by the index (equals the corpus size
    /// when `used_scan`). While a streamed query is still partially
    /// consumed this counts the candidates pulled so far; it is exact once
    /// the stream has been drained or materialized.
    pub candidates: usize,
    /// Data units actually read and examined by the matcher.
    pub docs_examined: usize,
    /// Data units rejected by the anchoring literal prefilter, without
    /// running the automaton.
    pub docs_prefiltered: usize,
    /// Bytes of document data examined.
    pub bytes_examined: u64,
    /// Data units containing at least one match (the paper's `M(r)`).
    pub matching_docs: usize,
    /// Total matching strings found (the paper's "result size").
    pub match_count: usize,
}

impl QueryStats {
    /// Total wall-clock time, including any scan-fallback time.
    pub fn total_time(&self) -> Duration {
        self.plan_time + self.index_time + self.confirm_time + self.scan_time
    }

    /// Fraction of the corpus that had to be examined (lower is better;
    /// 1.0 for scans).
    pub fn examine_fraction(&self, corpus_docs: usize) -> f64 {
        if corpus_docs == 0 {
            0.0
        } else {
            self.docs_examined as f64 / corpus_docs as f64
        }
    }

    /// Serializes the stats as one compact JSON object (the payload of
    /// `freegrep --stats-json`). Times are in nanoseconds.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("plan_ns", duration_ns(self.plan_time))
            .field_u64("index_ns", duration_ns(self.index_time))
            .field_u64("confirm_ns", duration_ns(self.confirm_time))
            .field_u64("scan_ns", duration_ns(self.scan_time))
            .field_u64("total_ns", duration_ns(self.total_time()))
            .field_bool("used_scan", self.used_scan)
            .field_str("plan_class", &self.plan_class.to_string())
            .field_u64("keys_fetched", self.keys_fetched as u64)
            .field_u64("postings_decoded", self.postings_decoded)
            .field_u64("cursor_seeks", self.cursor_seeks)
            .field_u64("blocks_decoded", self.blocks_decoded)
            .field_u64("postings_skipped", self.postings_skipped)
            .field_u64("candidates", self.candidates as u64)
            .field_u64("docs_examined", self.docs_examined as u64)
            .field_u64("docs_prefiltered", self.docs_prefiltered as u64)
            .field_u64("bytes_examined", self.bytes_examined)
            .field_u64("matching_docs", self.matching_docs as u64)
            .field_u64("match_count", self.match_count as u64);
        o.finish()
    }
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl core::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "plan {:?} + index {:?} + confirm {:?} + scan {:?}; {} keys, {} postings \
             ({} skipped, {} seeks, {} blocks), \
             {} candidates, {} docs examined ({} bytes, {} prefiltered), \
             {} matching docs, {} matches{}",
            self.plan_time,
            self.index_time,
            self.confirm_time,
            self.scan_time,
            self.keys_fetched,
            self.postings_decoded,
            self.postings_skipped,
            self.cursor_seeks,
            self.blocks_decoded,
            self.candidates,
            self.docs_examined,
            self.bytes_examined,
            self.docs_prefiltered,
            self.matching_docs,
            self.match_count,
            if self.used_scan {
                " [scan fallback]"
            } else {
                ""
            }
        )
    }
}

/// Cost accounting for an index build.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Time spent mining/selecting gram keys.
    pub select_time: Duration,
    /// Corpus scans used by selection.
    pub select_passes: usize,
    /// Time spent generating postings and constructing the index.
    pub construct_time: Duration,
    /// Number of gram keys selected.
    pub num_keys: usize,
    /// Final index statistics.
    pub index_stats: free_index::IndexStats,
    /// Per-pass a-priori mining counters (empty for `Complete` indexes,
    /// which enumerate rather than mine).
    pub mining: MiningStats,
}

impl BuildStats {
    /// Total build time.
    pub fn total_time(&self) -> Duration {
        self.select_time + self.construct_time
    }

    /// Serializes the stats as one compact JSON object (the payload of
    /// `free build --stats-json`). Times are in nanoseconds.
    pub fn to_json(&self) -> String {
        let mut passes = JsonArray::new();
        for p in &self.mining.per_pass {
            let mut po = JsonObject::new();
            po.field_u64("min_len", p.lengths.0 as u64)
                .field_u64("max_len", p.lengths.1 as u64)
                .field_u64("grams_considered", p.grams_considered)
                .field_u64("grams_kept", p.grams_kept)
                .field_u64("bytes_read", p.bytes_read)
                .field_u64("positions_probed", p.positions_probed);
            passes.push_raw(po.finish());
        }
        let mut idx = JsonObject::new();
        idx.field_u64("num_keys", self.index_stats.num_keys)
            .field_u64("num_postings", self.index_stats.num_postings)
            .field_u64("key_bytes", self.index_stats.key_bytes)
            .field_u64("postings_bytes", self.index_stats.postings_bytes);
        let mut o = JsonObject::new();
        o.field_u64("select_ns", duration_ns(self.select_time))
            .field_u64("construct_ns", duration_ns(self.construct_time))
            .field_u64("total_ns", duration_ns(self.total_time()))
            .field_u64("select_passes", self.select_passes as u64)
            .field_u64("num_keys", self.num_keys as u64)
            .field_u64("candidates_counted", self.mining.candidates_counted)
            .field_u64("candidates_skipped", self.mining.candidates_skipped)
            .field_raw("passes", passes.finish())
            .field_raw("index", idx.finish());
        o.finish()
    }
}

/// Handles of the per-query series, resolved once so that recording a
/// query is plain atomic updates: no name formatting, registry lock or
/// map lookup per query.
pub struct QueryMetrics {
    queries: Counter,
    scan_fallbacks: Counter,
    postings_decoded: Counter,
    cursor_seeks: Counter,
    blocks_decoded: Counter,
    postings_skipped: Counter,
    docs_examined: Counter,
    matches: Counter,
    plan_ns: Histogram,
    index_ns: Histogram,
    confirm_ns: Histogram,
    scan_ns: Histogram,
    total_ns: Histogram,
}

impl QueryMetrics {
    /// Resolves (registering on first use) every series in `registry`.
    pub fn new(registry: &Registry) -> QueryMetrics {
        QueryMetrics {
            queries: registry.counter("free_queries_total", "Queries executed"),
            scan_fallbacks: registry.counter(
                "free_query_scan_fallbacks_total",
                "Queries whose plan degenerated to a full corpus scan",
            ),
            postings_decoded: registry.counter(
                "free_query_postings_decoded_total",
                "Postings decoded across all queries",
            ),
            cursor_seeks: registry.counter(
                "free_query_cursor_seeks_total",
                "Cursor seeks issued across all queries",
            ),
            blocks_decoded: registry.counter(
                "free_query_blocks_decoded_total",
                "Encoded postings blocks decoded across all queries",
            ),
            postings_skipped: registry.counter(
                "free_query_postings_skipped_total",
                "Postings skipped without decoding across all queries",
            ),
            docs_examined: registry.counter(
                "free_query_docs_examined_total",
                "Candidate data units read by the matcher",
            ),
            matches: registry.counter(
                "free_query_matches_total",
                "Matching strings found across all queries",
            ),
            plan_ns: registry.histogram("free_query_plan_ns", "Parse+plan latency per query (ns)"),
            index_ns: registry
                .histogram("free_query_index_ns", "Index probe latency per query (ns)"),
            confirm_ns: registry.histogram(
                "free_query_confirm_ns",
                "Confirmation latency per query (ns)",
            ),
            scan_ns: registry
                .histogram("free_query_scan_ns", "Scan-fallback latency per query (ns)"),
            total_ns: registry
                .histogram("free_query_total_ns", "End-to-end latency per query (ns)"),
        }
    }

    /// The series in [`free_trace::metrics::global`], resolved on first
    /// use.
    pub fn global() -> &'static QueryMetrics {
        static GLOBAL: OnceLock<QueryMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| QueryMetrics::new(free_trace::metrics::global()))
    }

    /// Folds one finished query's counters into the series. Called
    /// automatically (on the global series) when a
    /// [`QueryResult`](crate::QueryResult) is dropped.
    pub fn record(&self, stats: &QueryStats) {
        self.queries.inc();
        self.scan_fallbacks.add(u64::from(stats.used_scan));
        self.postings_decoded.add(stats.postings_decoded);
        self.cursor_seeks.add(stats.cursor_seeks);
        self.blocks_decoded.add(stats.blocks_decoded);
        self.postings_skipped.add(stats.postings_skipped);
        self.docs_examined.add(stats.docs_examined as u64);
        self.matches.add(stats.match_count as u64);
        self.plan_ns.observe_duration(stats.plan_time);
        self.index_ns.observe_duration(stats.index_time);
        self.confirm_ns.observe_duration(stats.confirm_time);
        self.scan_ns.observe_duration(stats.scan_time);
        self.total_ns.observe_duration(stats.total_time());
    }
}

/// Folds one finished index build's counters into `registry`.
pub fn record_build(registry: &Registry, stats: &BuildStats) {
    registry
        .counter("free_builds_total", "Index builds completed")
        .inc();
    registry
        .counter(
            "free_build_select_passes_total",
            "Corpus scans spent mining gram keys",
        )
        .add(stats.select_passes as u64);
    registry
        .gauge("free_index_keys", "Gram keys in the most recent index")
        .set(stats.num_keys as i64);
    registry
        .gauge("free_index_postings", "Postings in the most recent index")
        .set(stats.index_stats.num_postings as i64);
    registry
        .histogram("free_build_select_ns", "Key selection time per build (ns)")
        .observe_duration(stats.select_time);
    registry
        .histogram(
            "free_build_construct_ns",
            "Index construction time per build (ns)",
        )
        .observe_duration(stats.construct_time);
    registry
        .histogram("free_build_total_ns", "Total build time (ns)")
        .observe_duration(stats.total_time());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let s = QueryStats {
            plan_time: Duration::from_millis(1),
            index_time: Duration::from_millis(2),
            confirm_time: Duration::from_millis(3),
            scan_time: Duration::from_millis(4),
            docs_examined: 25,
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(10));
        assert!((s.examine_fraction(100) - 0.25).abs() < 1e-12);
        assert_eq!(s.examine_fraction(0), 0.0);
    }

    #[test]
    fn display_mentions_scan_fallback() {
        let mut s = QueryStats::default();
        assert!(!s.to_string().contains("scan fallback"));
        assert!(s.to_string().contains("scan"), "scan time always shown");
        s.used_scan = true;
        assert!(s.to_string().contains("scan fallback"));
    }

    #[test]
    fn query_stats_json_round_trips_key_fields() {
        let s = QueryStats {
            plan_time: Duration::from_nanos(1500),
            scan_time: Duration::from_nanos(10),
            postings_decoded: 42,
            matching_docs: 3,
            used_scan: true,
            ..Default::default()
        };
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"plan_ns\":1500"), "{json}");
        assert!(json.contains("\"scan_ns\":10"), "{json}");
        assert!(json.contains("\"total_ns\":1510"), "{json}");
        assert!(json.contains("\"postings_decoded\":42"), "{json}");
        assert!(json.contains("\"matching_docs\":3"), "{json}");
        assert!(json.contains("\"used_scan\":true"), "{json}");
        assert!(json.contains("\"plan_class\":\"INDEXED\""), "{json}");
    }

    #[test]
    fn build_stats_json_includes_passes() {
        let b = BuildStats {
            select_time: Duration::from_nanos(5),
            select_passes: 2,
            num_keys: 7,
            mining: MiningStats {
                passes: 2,
                candidates_counted: 100,
                candidates_skipped: 4,
                per_pass: vec![crate::select::apriori::PassStats {
                    lengths: (1, 2),
                    grams_considered: 60,
                    grams_kept: 5,
                    bytes_read: 1234,
                    positions_probed: 987,
                }],
            },
            ..Default::default()
        };
        let json = b.to_json();
        assert!(json.contains("\"select_passes\":2"), "{json}");
        assert!(json.contains("\"grams_considered\":60"), "{json}");
        assert!(json.contains("\"bytes_read\":1234"), "{json}");
        assert!(json.contains("\"positions_probed\":987"), "{json}");
        assert!(json.contains("\"index\":{"), "{json}");
    }

    #[test]
    fn record_feeds_registry() {
        let r = Registry::new();
        let s = QueryStats {
            postings_decoded: 9,
            used_scan: true,
            ..Default::default()
        };
        let metrics = QueryMetrics::new(&r);
        metrics.record(&s);
        metrics.record(&s);
        let text = r.expose();
        assert!(text.contains("free_queries_total 2"), "{text}");
        assert!(text.contains("free_query_scan_fallbacks_total 2"), "{text}");
        assert!(
            text.contains("free_query_postings_decoded_total 18"),
            "{text}"
        );
        let b = BuildStats {
            num_keys: 11,
            ..Default::default()
        };
        record_build(&r, &b);
        let text = r.expose();
        assert!(text.contains("free_builds_total 1"), "{text}");
        assert!(text.contains("free_index_keys 11"), "{text}");
    }

    #[test]
    fn build_stats_total() {
        let b = BuildStats {
            select_time: Duration::from_secs(1),
            construct_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(b.total_time(), Duration::from_secs(3));
    }
}
