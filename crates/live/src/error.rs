//! Unified error type for the live index.

use core::fmt;
use std::path::PathBuf;

/// Convenience alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Any failure while mutating or querying a live index.
#[derive(Debug)]
pub enum Error {
    /// Corpus storage failure.
    Corpus(free_corpus::Error),
    /// Index storage failure.
    Index(free_index::Error),
    /// Engine failure (mining, planning, confirmation).
    Engine(free_engine::Error),
    /// The query pattern failed to parse or compile.
    Regex(free_regex::Error),
    /// Filesystem failure with context.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// On-disk state violates a format or ordering invariant.
    Corrupt(String),
    /// A live index already exists where `create` was asked to make one.
    AlreadyExists(PathBuf),
    /// No live index manifest was found at the given directory.
    NotFound(PathBuf),
    /// The directory holds the N-shard layout (this is its
    /// `sharded.manifest`), which no open or create path accepts; the
    /// directory is left as it is.
    ShardedLayout(PathBuf),
    /// The sequence number does not name a document in the index (never
    /// assigned, or already removed by compaction).
    UnknownDoc(u32),
    /// The document is already tombstoned.
    AlreadyDeleted(u32),
    /// The request's deadline expired mid-confirmation; execution stopped
    /// at a batch boundary with no partial results.
    Timeout {
        /// Time past the deadline at the moment the executor noticed.
        elapsed: std::time::Duration,
    },
    /// The request's cancel token was tripped mid-confirmation.
    Cancelled,
}

impl Error {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Error {
        Error::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Corpus(e) => write!(f, "corpus error: {e}"),
            Error::Index(e) => write!(f, "index error: {e}"),
            Error::Engine(e) => write!(f, "engine error: {e}"),
            Error::Regex(e) => write!(f, "query error: {e}"),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::Corrupt(msg) => write!(f, "corrupt live index: {msg}"),
            Error::AlreadyExists(dir) => write!(
                f,
                "live index already exists at {} (open it instead)",
                dir.display()
            ),
            Error::NotFound(dir) => {
                write!(f, "no live index at {} (create one first)", dir.display())
            }
            Error::ShardedLayout(path) => write!(
                f,
                "{} belongs to a sharded live index, a layout this version does not \
                 open; add its documents to a new live index",
                path.display()
            ),
            Error::UnknownDoc(seq) => write!(f, "no document with sequence number {seq}"),
            Error::AlreadyDeleted(seq) => {
                write!(f, "document {seq} is already deleted")
            }
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
            Error::Corpus(e) => Some(e),
            Error::Index(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Regex(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
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

impl From<free_engine::Error> for Error {
    fn from(e: free_engine::Error) -> Error {
        match e {
            free_engine::Error::Regex(e) => Error::Regex(e),
            free_engine::Error::Timeout { elapsed } => Error::Timeout { elapsed },
            free_engine::Error::Cancelled => Error::Cancelled,
            other => Error::Engine(other),
        }
    }
}

impl From<free_regex::Error> for Error {
    fn from(e: free_regex::Error) -> Error {
        Error::Regex(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = free_corpus::Error::Corrupt("x".into()).into();
        assert!(e.to_string().contains("corpus error"));
        let e: Error = free_engine::Error::from(free_regex::parse("(").unwrap_err()).into();
        assert!(matches!(e, Error::Regex(_)));
        let e = Error::UnknownDoc(7);
        assert!(e.to_string().contains('7'));
        let e = Error::io("writing manifest", std::io::Error::other("boom"));
        assert!(e.to_string().contains("writing manifest"));
    }
}
