//! A self-contained, byte-oriented regular expression engine.
//!
//! This crate is the matching substrate of the FREE regular expression
//! indexing engine (Cho & Rajagopalan, ICDE 2002). FREE uses a prebuilt
//! multigram index to narrow a regex query down to a small set of candidate
//! data units, then confirms candidates with a conventional regex matcher.
//! This crate is that conventional matcher, built from scratch:
//!
//! * [`parse`] / [`Parser`] — a recursive-descent parser for the paper's
//!   syntax (Table 1: `.`, `*`, `+`, `?`, `|`, `[...]`, `[^...]`, `\a`,
//!   `\d`) extended with the usual `{m,n}` counted repetition, `\s`, `\w`,
//!   and hex escapes.
//! * [`nfa::Nfa`] — Thompson construction over the parsed [`ast::Ast`].
//! * [`dfa::LazyDfa`] — an on-the-fly determinized automaton with byte-class
//!   alphabet compression. The production matcher is four of them: two
//!   decide containment ("does this data unit match at all?") — one run
//!   right to left from each occurrence of the literal every match ends
//!   with, when the pattern has one, else one forward over the whole
//!   unit — one run right to left over the reversed pattern marks where
//!   matches start, one anchored extends a start to its longest end —
//!   leftmost-longest *spans* (what `grep -o` would print) at DFA speed.
//! * [`Regex`] / [`Searcher`] — the high-level façade composing them.
//! * [`pike::PikeVm`] — an NFA simulation that reports the same spans
//!   directly; kept as the differential reference for the DFA path.
//! * [`dense::DenseDfa`] — an eagerly built DFA with Hopcroft minimization;
//!   a second reference, cross-checking the lazy DFA in tests.
//!
//! Everything operates on `&[u8]`: FREE's corpus is raw web-page bytes and
//! its index keys are byte multigrams, so no UTF-8 assumptions are made
//! anywhere in the pipeline.
//!
//! # Example
//!
//! ```
//! use free_regex::Regex;
//!
//! let re = Regex::new(r"(Bill|William).*Clinton").unwrap();
//! assert!(re.is_match(b"William Jefferson Clinton"));
//! let m = re.find(b"... Bill Clinton spoke ...").unwrap();
//! assert_eq!(m.range(), 4..16);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod class;
pub mod dense;
pub mod derivative;
pub mod dfa;
pub mod error;
pub mod factor;
pub mod literal;
pub mod nfa;
pub mod oracle;
pub mod parser;
pub mod pike;
pub mod rewrite;
pub mod spanned;

mod matcher;

pub use crate::ast::Ast;
pub use crate::class::ByteClass;
pub use crate::error::{Error, Result};
pub use crate::literal::Finder;
pub use crate::matcher::{Match, Regex, RegexConfig, Searcher};
pub use crate::parser::{parse, parse_spanned, Parser, ParserConfig};
pub use crate::spanned::{SpannedAst, SpannedKind};

/// A half-open byte span `[start, end)` within a haystack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte of the match.
    pub start: usize,
    /// Byte offset one past the last byte of the match.
    pub end: usize,
}

impl Span {
    /// Creates a span. Panics in debug builds if `start > end`.
    #[inline]
    pub fn new(start: usize, end: usize) -> Span {
        debug_assert!(start <= end, "span start {start} > end {end}");
        Span { start, end }
    }

    /// Length of the span in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The span as a standard range, usable for slicing.
    #[inline]
    pub fn range(&self) -> core::ops::Range<usize> {
        self.start..self.end
    }
}

impl core::fmt::Debug for Span {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

impl From<Span> for core::ops::Range<usize> {
    fn from(s: Span) -> Self {
        s.range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.range(), 3..7);
        assert_eq!(format!("{s:?}"), "3..7");
        let r: core::ops::Range<usize> = s.into();
        assert_eq!(r, 3..7);
    }

    #[test]
    fn span_empty() {
        let s = Span::new(5, 5);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
