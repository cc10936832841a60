//! Gram-selection strategies for the FREE engine.
//!
//! The paper's Algorithm 3.1 (a-priori mining of minimal useful grams) is
//! one point in a design space that later work benchmarks head-to-head.
//! This crate puts the choice behind the [`GramSelector`] trait and ships
//! four strategies:
//!
//! * [`apriori`] — Algorithm 3.1, the reference implementation (moved out
//!   of the engine crate; the paper's "Multigram" selection).
//! * [`trigram`] — fixed-k complete enumeration, the Russ Cox /
//!   code-search baseline (`k = 3` by default).
//! * [`budgeted`] — sweeps the usefulness threshold `c` and keeps the
//!   most capable selection whose estimated index size fits a byte
//!   budget.
//! * [`workload`] — mines only grams relevant to a captured query log
//!   (a qlog directory), weighting candidates by how often — and how
//!   slowly — the recorded patterns would exercise them.
//!
//! Every selector returns a **prefix-free** gram set, so downstream
//! consumers (postings generation, the planner, the presuf shell) can
//! rely on the same invariants regardless of strategy. Missing grams only
//! ever degrade plans toward a scan — selection strategy never affects
//! which documents match, only how fast the candidates narrow.
//!
//! Strategy identity and parameters round-trip through
//! [`SelectorSpec`]: parsed from `NAME[:k=v,...]` command-line syntax,
//! persisted in index manifests, and re-hydrated when a segment is
//! re-mined during compaction.

#![forbid(unsafe_code)]

use core::fmt;

use free_corpus::Corpus;

pub mod apriori;
pub mod budgeted;
pub mod complete;
mod counter;
pub mod presuf;
pub mod spec;
pub mod trigram;
pub mod workload;

pub use apriori::{mine_multigrams, AprioriSelector, MiningStats, PassStats, Selection};
pub use budgeted::BudgetedSelector;
pub use complete::enumerate_complete;
pub use presuf::presuf_shell;
pub use spec::{selector_for, SelectorSpec};
pub use trigram::TrigramSelector;
pub use workload::WorkloadSelector;

/// Convenience alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Any failure while selecting grams.
#[derive(Debug)]
pub enum Error {
    /// Invalid selector parameters or tunables.
    Config(String),
    /// Corpus storage failure during a mining scan.
    Corpus(free_corpus::Error),
    /// I/O failure reading an external input (e.g. a qlog directory).
    Io {
        /// What the selector was doing.
        context: String,
        /// The OS-level error.
        source: std::io::Error,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "selector configuration error: {msg}"),
            Error::Corpus(e) => write!(f, "corpus error during selection: {e}"),
            Error::Io { context, source } => {
                write!(f, "selector I/O error ({context}): {source}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Corpus(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Config(_) => None,
        }
    }
}

impl From<free_corpus::Error> for Error {
    fn from(e: free_corpus::Error) -> Error {
        Error::Corpus(e)
    }
}

/// Corpus bytes a build scan needs per range before a second thread pays
/// for its spawn; smaller corpora (tiny flushes, unit tests) stay on the
/// calling thread.
const MIN_RANGE_BYTES: u64 = 64 << 10;

/// How many ranges a build scan over `corpus_bytes` runs at once: one per
/// core the process may use (`std::thread::available_parallelism`, which
/// honours affinity masks and cgroup quotas), but no more than one per
/// 64 KiB of corpus. The a-priori passes cut the corpus into that many
/// document ranges, the postings build its dictionary into that many key
/// ranges; neither changes a byte of output.
pub fn build_ranges(corpus_bytes: u64) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fit = usize::try_from(corpus_bytes / MIN_RANGE_BYTES).unwrap_or(usize::MAX);
    cores.min(fit).max(1)
}

/// A selected gram key with its document frequency (`M(x)` in the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedGram {
    /// The gram bytes.
    pub gram: Box<[u8]>,
    /// Number of data units containing the gram.
    pub doc_count: u32,
}

impl SelectedGram {
    /// Selectivity given corpus size `n` (Definition 3.1).
    pub fn selectivity(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            f64::from(self.doc_count) / n as f64
        }
    }
}

/// Tunables shared by every selection strategy.
///
/// This is the mining-relevant slice of the engine configuration; the
/// engine converts its own config into one of these before dispatching to
/// a selector.
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// The usefulness threshold `c` (Definition 3.4): a gram is useful if
    /// `sel(x) <= c`. Strategies that take their own `c` parameter use it
    /// to override this value.
    pub usefulness_threshold: f64,
    /// Maximum gram length considered; the paper cuts off at 10.
    pub max_gram_len: usize,
    /// How many gram lengths the a-priori miner evaluates per corpus
    /// scan.
    pub lengths_per_pass: usize,
    /// Trace collector for `mine.pass` / `select.*` events.
    pub tracer: free_trace::Tracer,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            usefulness_threshold: 0.1,
            max_gram_len: 10,
            lengths_per_pass: 2,
            tracer: free_trace::Tracer::disabled(),
        }
    }
}

impl SelectConfig {
    /// Validates invariants, returning [`Error::Config`] on violation.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.usefulness_threshold) {
            return Err(Error::Config(format!(
                "usefulness threshold must be in [0,1], got {}",
                self.usefulness_threshold
            )));
        }
        if self.max_gram_len == 0 {
            return Err(Error::Config("max_gram_len must be at least 1".into()));
        }
        if self.lengths_per_pass == 0 {
            return Err(Error::Config("lengths_per_pass must be at least 1".into()));
        }
        Ok(())
    }
}

/// A gram-selection strategy.
///
/// Contract every implementation must honor:
///
/// 1. **Prefix-free output** — no selected gram is a proper prefix of
///    another. This bounds total postings (Observation 3.8) and is what
///    the presuf shell and the FA424 fsck check assume.
/// 2. **Sorted output** — grams sorted lexicographically, ready for the
///    index builder.
/// 3. **Accurate counts** — `doc_count` is the number of data units
///    containing the gram (not occurrences).
/// 4. **Soundness is free** — the planner consults the index's actual key
///    set, so *any* gram set yields correct query results; strategies
///    compete only on index size and candidate-set quality.
pub trait GramSelector: Send + Sync {
    /// The strategy's short name (`apriori`, `trigram`, ...).
    fn name(&self) -> &'static str;

    /// The canonical spec string (`trigram:k=3`) that re-creates this
    /// selector; persisted in index manifests.
    fn spec_string(&self) -> String;

    /// Runs the strategy over `corpus`.
    fn select(&self, corpus: &dyn Corpus, config: &SelectConfig) -> Result<Selection>;

    /// Per-key shape invariant for fsck: returns a violation message if
    /// an on-disk index key could not have been produced by this
    /// strategy (e.g. a non-k-length key under `trigram:k=3`). `None`
    /// means the key is consistent.
    fn check_key(&self, _key: &[u8]) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity() {
        let g = SelectedGram {
            gram: b"abc"[..].into(),
            doc_count: 25,
        };
        assert!((g.selectivity(100) - 0.25).abs() < 1e-12);
        assert_eq!(g.selectivity(0), 0.0);
    }

    #[test]
    fn config_validation() {
        assert!(SelectConfig::default().validate().is_ok());
        let bad = SelectConfig {
            usefulness_threshold: 1.5,
            ..SelectConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SelectConfig {
            max_gram_len: 0,
            ..SelectConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SelectConfig {
            lengths_per_pass: 0,
            ..SelectConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        let s: Box<dyn GramSelector> = Box::new(AprioriSelector::default());
        assert_eq!(s.name(), "apriori");
    }
}
