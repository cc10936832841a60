//! Engine configuration.

use crate::{Error, Result};
use std::sync::OnceLock;

/// Which index family to build — the three columns of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Complete k-gram indexes for `k = 2..=max_gram_len` — the paper's
    /// "optimal but prohibitively large" baseline.
    Complete,
    /// Minimal useful multigrams (Algorithm 3.1): the shell's input, and
    /// a column of Table 3.
    Multigram,
    /// Multigrams further pruned to a presuf shell (§3.2, the shortest
    /// common suffix rule). Called "Suffix" in Table 3. The default: a
    /// quarter of the multigram keys and under half the postings, with
    /// every query answered the same.
    Presuf,
}

impl IndexKind {
    /// The label used in the paper's tables and figures.
    pub fn paper_name(&self) -> &'static str {
        match self {
            IndexKind::Complete => "Complete",
            IndexKind::Multigram => "Multigram",
            IndexKind::Presuf => "Suffix",
        }
    }
}

/// Tunables for index construction and query execution.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which index family to build; the default is the presuf shell.
    pub index_kind: IndexKind,
    /// The usefulness threshold `c` (Definition 3.4): a gram is useful if
    /// `sel(x) <= c`. The paper's experiments fix `c = 0.1` and suggest
    /// tying it to the random/sequential I/O cost ratio. The one knob of
    /// key selection; `0 < c <= 1` (at `c = 0` no gram is useful and
    /// every query would scan).
    pub usefulness_threshold: f64,
    /// Maximum gram length indexed; the paper cuts off at 10.
    pub max_gram_len: usize,
    /// How many gram lengths to evaluate per corpus scan. The paper notes
    /// the gram keys can be identified "in less than 10 scans because we
    /// identified useful grams of multiple lengths in one scan"; with the
    /// default of 2 this needs ⌈10/2⌉ = 5 scans, matching §5.2.
    pub lengths_per_pass: usize,
    /// During planning, a character class with at most this many members
    /// is rewritten as an OR of its members (paper §4.2 rewrites `[0-9]`
    /// to `0|1|…|9`); larger classes become NULL. Keeping this modest
    /// avoids plans that OR hundreds of useless single-byte grams.
    pub class_expand_limit: usize,
    /// Memory budget in bytes for the postings buffer of an on-disk build
    /// (4 bytes per posting). A key set whose postings exceed it is built
    /// one buffer at a time over consecutive key ranges, with the same
    /// resulting file (see [`build_index`](crate::build_index)). Mining
    /// keeps one bit per corpus byte only if that fits too; otherwise
    /// every pass visits every position, with the same keys.
    pub build_memory_budget: usize,
    /// Conjunction members whose estimated selectivity exceeds this are
    /// pruned when a more selective member exists (the paper's Example
    /// 2.1: skip looking up `<a href=` — its huge postings list costs
    /// more than it filters). Only bites on indexes storing common grams
    /// (the Complete baseline). `1.0` disables pruning.
    pub prune_selectivity: f64,
    /// Threads that confirm a query's candidates. `0` means auto-detect
    /// (one per available CPU). The default is the `FREE_THREADS`
    /// environment variable if set and parseable, else `0`: a query uses
    /// every core it can get, and a helper that never gets one costs only
    /// its spawn. Results and logical cost counters are identical for
    /// every thread count; only wall-clock changes.
    ///
    /// This governs confirmation only. Builds (mining and the postings
    /// scan) use the machine's available parallelism, whatever this says,
    /// and write the same bytes on any number of cores (see
    /// [`build_ranges`](crate::select::build_ranges)).
    pub num_threads: usize,
    /// Trace collector for build and query spans/events. The default is
    /// [`free_trace::Tracer::disabled`], which reduces every tracing hook
    /// on the hot path to a branch on a `None` — see the overhead guard
    /// test. Attach an enabled tracer to collect parse → plan → mine →
    /// execute → confirm spans.
    pub tracer: free_trace::Tracer,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            index_kind: IndexKind::Presuf,
            usefulness_threshold: 0.1,
            max_gram_len: 10,
            lengths_per_pass: 2,
            class_expand_limit: 16,
            build_memory_budget: free_index::builder::DEFAULT_MEMORY_BUDGET,
            prune_selectivity: 0.5,
            num_threads: std::env::var("FREE_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            tracer: free_trace::Tracer::disabled(),
        }
    }
}

impl EngineConfig {
    /// A configuration building the given index kind with defaults.
    pub fn with_kind(kind: IndexKind) -> EngineConfig {
        EngineConfig {
            index_kind: kind,
            ..EngineConfig::default()
        }
    }

    /// The number of confirmation worker threads to actually use:
    /// resolves `num_threads == 0` to the machine's available
    /// parallelism, read once per process (the call reads cgroup files
    /// and the affinity mask, which every query would otherwise pay).
    pub fn effective_threads(&self) -> usize {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        match self.num_threads {
            0 => *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            n => n,
        }
    }

    /// Validates invariants, returning a [`Error::Config`] on violation.
    pub fn validate(&self) -> Result<()> {
        let c = self.usefulness_threshold;
        if !(c > 0.0 && c <= 1.0) {
            return Err(Error::Config(format!(
                "usefulness threshold must be in (0,1], got {c}"
            )));
        }
        if self.max_gram_len == 0 {
            return Err(Error::Config("max_gram_len must be at least 1".into()));
        }
        if self.lengths_per_pass == 0 {
            return Err(Error::Config("lengths_per_pass must be at least 1".into()));
        }
        if !(0.0..=1.0).contains(&self.prune_selectivity) {
            return Err(Error::Config(format!(
                "prune selectivity must be in [0,1], got {}",
                self.prune_selectivity
            )));
        }
        Ok(())
    }

    /// The mining-relevant slice of this config, for
    /// [`free_select::mine`].
    pub fn select_config(&self) -> free_select::SelectConfig {
        free_select::SelectConfig {
            usefulness_threshold: self.usefulness_threshold,
            max_gram_len: self.max_gram_len,
            lengths_per_pass: self.lengths_per_pass,
            memory_budget: self.build_memory_budget,
            tracer: self.tracer.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.usefulness_threshold, 0.1);
        assert_eq!(c.max_gram_len, 10);
        // §3.2: the shell is the paper's index structure.
        assert_eq!(c.index_kind, IndexKind::Presuf);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let mut c = EngineConfig {
            num_threads: 3,
            ..EngineConfig::default()
        };
        assert_eq!(c.effective_threads(), 3);
        c.num_threads = 0;
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn paper_names() {
        assert_eq!(IndexKind::Complete.paper_name(), "Complete");
        assert_eq!(IndexKind::Multigram.paper_name(), "Multigram");
        assert_eq!(IndexKind::Presuf.paper_name(), "Suffix");
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = [
            EngineConfig {
                usefulness_threshold: 1.5,
                ..Default::default()
            },
            EngineConfig {
                usefulness_threshold: -0.1,
                ..Default::default()
            },
            EngineConfig {
                usefulness_threshold: 0.0,
                ..Default::default()
            },
            EngineConfig {
                usefulness_threshold: f64::NAN,
                ..Default::default()
            },
            EngineConfig {
                max_gram_len: 0,
                ..Default::default()
            },
            EngineConfig {
                lengths_per_pass: 0,
                ..Default::default()
            },
        ];
        for config in bad {
            assert!(config.validate().is_err(), "{config:?}");
        }
    }
}
