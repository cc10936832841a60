//! Unified error type for the engine.

use core::fmt;

/// Convenience alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Any failure while building an index or executing a query.
#[derive(Debug)]
pub enum Error {
    /// The query pattern failed to parse or compile.
    Regex(free_regex::Error),
    /// Corpus storage failure.
    Corpus(free_corpus::Error),
    /// Index storage failure.
    Index(free_index::Error),
    /// Configuration rejected (e.g. zero gram length).
    Config(String),
    /// The request's [`RequestBudget`](crate::budget::RequestBudget)
    /// deadline expired; execution stopped at a confirmation batch
    /// boundary with no partial results. `elapsed` is how far past the
    /// deadline the expiry was noticed.
    Timeout {
        /// Time past the deadline at the moment the executor noticed.
        elapsed: std::time::Duration,
    },
    /// The request's cancel token was tripped; execution stopped at a
    /// confirmation batch boundary with no partial results.
    Cancelled,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Regex(e) => write!(f, "query error: {e}"),
            Error::Corpus(e) => write!(f, "corpus error: {e}"),
            Error::Index(e) => write!(f, "index error: {e}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Timeout { elapsed } => write!(
                f,
                "query deadline exceeded (noticed {:.1}ms past the deadline)",
                elapsed.as_secs_f64() * 1e3
            ),
            Error::Cancelled => write!(f, "query cancelled by the caller"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Regex(e) => Some(e),
            Error::Corpus(e) => Some(e),
            Error::Index(e) => Some(e),
            Error::Config(_) | Error::Timeout { .. } | Error::Cancelled => None,
        }
    }
}

impl From<free_regex::Error> for Error {
    fn from(e: free_regex::Error) -> Error {
        Error::Regex(e)
    }
}

impl From<free_corpus::Error> for Error {
    fn from(e: free_corpus::Error) -> Error {
        Error::Corpus(e)
    }
}

impl From<free_index::Error> for Error {
    fn from(e: free_index::Error) -> Error {
        Error::Index(e)
    }
}

impl From<free_select::Error> for Error {
    fn from(e: free_select::Error) -> Error {
        match e {
            free_select::Error::Config(msg) => Error::Config(msg),
            free_select::Error::Corpus(e) => Error::Corpus(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = free_regex::parse("(").unwrap_err().into();
        assert!(e.to_string().contains("query error"));
        let e: Error = free_corpus::Error::Corrupt("x".into()).into();
        assert!(e.to_string().contains("corpus error"));
        let e: Error = free_index::Error::Corrupt("y".into()).into();
        assert!(e.to_string().contains("index error"));
        let e = Error::Config("bad c".into());
        assert!(e.to_string().contains("bad c"));
    }
}
