//! Live-index health analysis (`FA301`–`FA399`).
//!
//! The batch analyzers judge *queries*; these judge the *index shape* of
//! a live (incrementally updated) index. The caller summarizes the index
//! into a [`LiveHealth`]; apart from the drift tolerance it shares with
//! compaction, this module takes nothing from the live-index crate, so
//! the analysis stays a pure function of plain numbers and is trivially
//! testable.
//!
//! | Code | Finding |
//! |---|---|
//! | `FA301` | over-fragmented: too many sealed segments |
//! | `FA302` | dictionary drift: the next compaction re-mines the dictionary |
//! | `FA303` | tombstone debt: deleted docs dominate stored docs |
//! | `FA304` | snapshot staleness: retired segment files linger, or the published snapshot trails the writer |

use crate::diagnostics::{codes, Diagnostic, Severity};

/// A shape summary of a live index, as computed by its owner.
#[derive(Clone, Copy, Debug)]
pub struct LiveHealth {
    /// Sealed segments on disk.
    pub num_segments: usize,
    /// Documents in the write buffer (including tombstoned ones).
    pub memtable_docs: usize,
    /// Live (queryable) documents.
    pub live_docs: usize,
    /// Tombstoned documents not yet reclaimed by compaction.
    pub tombstoned_docs: usize,
    /// How far the documents flushed since the last compaction have
    /// drifted from the dictionary: the share of their postings on keys
    /// useless among them (`free_live::Drift::fraction`).
    pub drift_fraction: f64,
    /// Segment files on disk that no manifest entry references (retired
    /// by compaction but never unlinked — leaked disk).
    pub retired_segment_files: usize,
    /// Writer generation minus the published snapshot's generation; any
    /// nonzero value means readers are served a stale view.
    pub snapshot_lag: u64,
}

/// Thresholds for [`analyze_live`].
#[derive(Clone, Copy, Debug)]
pub struct LiveAnalysisConfig {
    /// Flag `FA301` when more than this many segments exist.
    pub max_segments: usize,
    /// Flag `FA302` when the drift fraction exceeds this; the default is
    /// the tolerance past which compaction re-mines, so the finding fires
    /// exactly when the next compaction will.
    pub drift_threshold: f64,
    /// Flag `FA303` when tombstones exceed this fraction of stored docs.
    pub tombstone_threshold: f64,
}

impl Default for LiveAnalysisConfig {
    fn default() -> LiveAnalysisConfig {
        LiveAnalysisConfig {
            max_segments: 8,
            drift_threshold: free_live::DRIFT_TOLERANCE,
            tombstone_threshold: 0.3,
        }
    }
}

/// Analyzes a live index's shape, returning zero or more diagnostics.
pub fn analyze_live(health: &LiveHealth, cfg: &LiveAnalysisConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if health.num_segments > cfg.max_segments {
        out.push(
            Diagnostic::new(
                codes::OVER_FRAGMENTED,
                Severity::Warning,
                None,
                format!(
                    "index is split across {} segments (threshold {}); every query \
                     merges one candidate stream per segment",
                    health.num_segments, cfg.max_segments
                ),
            )
            .with_suggestion("run `free compact` to merge segments into one"),
        );
    }
    if health.drift_fraction > cfg.drift_threshold {
        out.push(
            Diagnostic::new(
                codes::KEY_SET_DRIFT,
                Severity::Warning,
                None,
                format!(
                    "the dictionary has drifted from the documents flushed since the \
                     last compaction: {:.1}% of their postings fall on keys useless \
                     among them (100% when it indexes none of them, as an empty \
                     dictionary does; threshold {:.1}%): queries over new content lose \
                     selectivity, and the next compaction re-mines it",
                    health.drift_fraction * 100.0,
                    cfg.drift_threshold * 100.0
                ),
            )
            .with_suggestion(
                "run `free compact` to re-mine the dictionary over every live \
                 document",
            ),
        );
    }
    let stored = health.live_docs + health.tombstoned_docs;
    if stored > 0 {
        let frac = health.tombstoned_docs as f64 / stored as f64;
        if frac > cfg.tombstone_threshold {
            out.push(
                Diagnostic::new(
                    codes::TOMBSTONE_DEBT,
                    Severity::Warning,
                    None,
                    format!(
                        "{:.0}% of stored documents are tombstoned (threshold {:.0}%); \
                         postings and storage are mostly dead weight",
                        frac * 100.0,
                        cfg.tombstone_threshold * 100.0
                    ),
                )
                .with_suggestion("run `free compact` to reclaim tombstoned documents"),
            );
        }
    }
    if health.retired_segment_files > 0 || health.snapshot_lag > 0 {
        let mut parts = Vec::new();
        if health.retired_segment_files > 0 {
            parts.push(format!(
                "{} retired segment file(s) linger on disk",
                health.retired_segment_files
            ));
        }
        if health.snapshot_lag > 0 {
            parts.push(format!(
                "published snapshot trails the writer by {} generation(s)",
                health.snapshot_lag
            ));
        }
        // Lingering files are only leaked disk (Warning); a lagging
        // snapshot means readers are actively served stale results — a
        // publication bug, so it escalates to Error.
        let severity = if health.snapshot_lag > 0 {
            Severity::Error
        } else {
            Severity::Warning
        };
        out.push(
            Diagnostic::new(
                codes::SNAPSHOT_STALENESS,
                severity,
                None,
                format!(
                    "{}; readers may see stale data and disk is not reclaimed",
                    parts.join("; ")
                ),
            )
            .with_suggestion(
                "reopen the index to republish and sweep orphans; if this \
                 persists, a writer crashed between commit and publish",
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> LiveHealth {
        LiveHealth {
            num_segments: 2,
            memtable_docs: 10,
            live_docs: 100,
            tombstoned_docs: 5,
            drift_fraction: 0.05,
            retired_segment_files: 0,
            snapshot_lag: 0,
        }
    }

    #[test]
    fn healthy_index_is_clean() {
        let diags = analyze_live(&healthy(), &LiveAnalysisConfig::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fragmentation_flags_fa301() {
        let health = LiveHealth {
            num_segments: 20,
            ..healthy()
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OVER_FRAGMENTED);
    }

    #[test]
    fn drift_flags_fa302() {
        let health = LiveHealth {
            drift_fraction: 0.8,
            ..healthy()
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::KEY_SET_DRIFT);
        assert!(diags[0].message.contains("80.0%"), "{}", diags[0].message);
    }

    #[test]
    fn tombstone_debt_flags_fa303() {
        let health = LiveHealth {
            live_docs: 10,
            tombstoned_docs: 90,
            ..healthy()
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::TOMBSTONE_DEBT);
    }

    #[test]
    fn empty_index_divides_safely() {
        let health = LiveHealth {
            num_segments: 0,
            memtable_docs: 0,
            live_docs: 0,
            tombstoned_docs: 0,
            drift_fraction: 0.0,
            retired_segment_files: 0,
            snapshot_lag: 0,
        };
        assert!(analyze_live(&health, &LiveAnalysisConfig::default()).is_empty());
    }

    #[test]
    fn retired_files_flag_fa304() {
        let health = LiveHealth {
            retired_segment_files: 3,
            ..healthy()
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SNAPSHOT_STALENESS);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(
            diags[0].message.contains("3 retired segment file(s)"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn snapshot_lag_flags_fa304() {
        let health = LiveHealth {
            snapshot_lag: 2,
            ..healthy()
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SNAPSHOT_STALENESS);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0].message.contains("trails the writer by 2"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn all_findings_can_fire_together() {
        let health = LiveHealth {
            num_segments: 50,
            memtable_docs: 100,
            live_docs: 10,
            tombstoned_docs: 90,
            drift_fraction: 0.9,
            retired_segment_files: 1,
            snapshot_lag: 1,
        };
        let diags = analyze_live(&health, &LiveAnalysisConfig::default());
        let codes_found: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes_found,
            vec![
                codes::OVER_FRAGMENTED,
                codes::KEY_SET_DRIFT,
                codes::TOMBSTONE_DEBT,
                codes::SNAPSHOT_STALENESS
            ]
        );
    }
}
