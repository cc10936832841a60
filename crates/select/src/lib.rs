//! Gram selection for the FREE engine: the paper's one way of choosing
//! index keys.
//!
//! * [`apriori`] — Algorithm 3.1: a-priori mining of the minimal useful
//!   grams (the paper's "Multigram" selection). They are **prefix free**
//!   (Theorem 3.9), which bounds total postings by `|D|`
//!   (Observation 3.8).
//! * [`presuf`] — §3.2: the presuf shell of a mined set, the keys the
//!   engine indexes by default, cut from the miner's buffer.
//! * [`complete`] — the "Complete" baseline of Table 3: every k-gram.
//!
//! The one knob is the usefulness threshold `c`
//! ([`SelectConfig::usefulness_threshold`]). The planner consults the
//! index's actual key set, so the keys chosen never change which
//! documents match, only how fast the candidates narrow.

#![forbid(unsafe_code)]

use core::fmt;

pub mod apriori;
pub mod complete;
mod counter;
pub mod presuf;

pub use apriori::{mine, mine_multigrams, Mined, MiningStats, PassStats, Selection};
pub use complete::enumerate_complete;

/// Convenience alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Any failure while selecting grams.
#[derive(Debug)]
pub enum Error {
    /// Invalid tunables.
    Config(String),
    /// Corpus storage failure during a mining scan.
    Corpus(free_corpus::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "selector configuration error: {msg}"),
            Error::Corpus(e) => write!(f, "corpus error during selection: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Corpus(e) => Some(e),
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

/// The mining tunables: the slice of the engine configuration the
/// a-priori miner reads.
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// The usefulness threshold `c` (Definition 3.4): a gram is useful if
    /// `sel(x) <= c`.
    pub usefulness_threshold: f64,
    /// Maximum gram length considered; the paper cuts off at 10.
    pub max_gram_len: usize,
    /// How many gram lengths the a-priori miner evaluates per corpus
    /// scan.
    pub lengths_per_pass: usize,
    /// Bytes the miner's visit bitmaps may take (one bit per corpus
    /// byte); over it every pass visits every position. The engine passes
    /// its build memory budget.
    pub memory_budget: usize,
    /// Trace collector for `mine.pass` / `select.*` events.
    pub tracer: free_trace::Tracer,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            usefulness_threshold: 0.1,
            max_gram_len: 10,
            lengths_per_pass: 2,
            memory_budget: 256 << 20,
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
}
