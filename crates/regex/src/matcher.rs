//! The high-level [`Regex`] façade.
//!
//! A [`Regex`] owns the parsed AST and the compiled NFA (both immutable and
//! shareable across threads). Searching requires mutable scratch state (the
//! lazy DFA caches), which lives in a [`Searcher`]; each thread that wants
//! to match creates its own searcher via [`Regex::searcher`]. For
//! convenience, `Regex` also exposes direct `is_match`/`find`/`find_all`
//! methods that maintain one searcher in a mutex, created the first time
//! one of them is called — fine for casual use, while bulk scanning
//! (FREE's confirmation step) should hold a dedicated `Searcher` per
//! worker.

use crate::ast::Ast;
use crate::dfa::{LazyDfa, DEFAULT_STATE_LIMIT};
use crate::error::Result;
use crate::literal::{suffix_literal, Finder};
use crate::nfa::Nfa;
use crate::parser::{Parser, ParserConfig};
use crate::Span;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Configuration for compiling a [`Regex`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RegexConfig {
    /// Parser options (case folding, repetition limits).
    pub parser: ParserConfig,
}

/// The immutable compiled form every [`Searcher`] of one pattern shares.
#[derive(Debug)]
struct Program {
    ast: Ast,
    nfa: Nfa,
    /// The literal every match ends with ([`suffix_literal`]), if any:
    /// what the decision is positioned on.
    anchor: Option<Finder>,
    /// The NFA of the reversed pattern, compiled the first time a
    /// searcher needs it: at its first decision when the pattern has an
    /// anchor, else when it is first asked for match *starts*.
    reverse: OnceLock<Nfa>,
}

impl Program {
    // `expect`: reversal keeps every node of the AST, so the reversed
    // program has exactly as many states as the forward one, which
    // compiled within the same limit.
    #[allow(clippy::expect_used)]
    fn reverse(&self) -> &Nfa {
        self.reverse.get_or_init(|| {
            Nfa::compile(&self.ast.reversed()).expect("reversed pattern compiles like the original")
        })
    }
}

/// A compiled regular expression.
#[derive(Clone, Debug)]
pub struct Regex {
    pattern: String,
    program: Arc<Program>,
    shared: Arc<OnceLock<Mutex<Searcher>>>,
}

/// A single match: a [`Span`] within some haystack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    span: Span,
}

impl Match {
    /// Start offset of the match.
    pub fn start(&self) -> usize {
        self.span.start
    }

    /// End offset (exclusive) of the match.
    pub fn end(&self) -> usize {
        self.span.end
    }

    /// The span itself.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The span as a slice range.
    pub fn range(&self) -> core::ops::Range<usize> {
        self.span.range()
    }
}

impl Regex {
    /// Compiles a pattern with default configuration.
    pub fn new(pattern: &str) -> Result<Regex> {
        Regex::with_config(pattern, RegexConfig::default())
    }

    /// Compiles a pattern with default configuration, recording
    /// `regex.parse` / `regex.compile` child spans under `parent`.
    pub fn new_traced(pattern: &str, parent: &free_trace::Span) -> Result<Regex> {
        Regex::with_config_traced(pattern, RegexConfig::default(), parent)
    }

    /// Compiles a pattern with the given configuration.
    pub fn with_config(pattern: &str, config: RegexConfig) -> Result<Regex> {
        Regex::with_config_traced(pattern, config, &free_trace::Span::disabled())
    }

    /// Compiles a pattern with the given configuration, recording
    /// `regex.parse` / `regex.compile` child spans under `parent` with the
    /// pattern length, AST literal width, and NFA state count.
    pub fn with_config_traced(
        pattern: &str,
        config: RegexConfig,
        parent: &free_trace::Span,
    ) -> Result<Regex> {
        let ast = {
            let mut span = parent.child("regex.parse");
            span.record("pattern_bytes", pattern.len());
            Parser::new(config.parser).parse(pattern)?
        };
        let nfa = {
            let mut span = parent.child("regex.compile");
            let nfa = Nfa::compile(&ast)?;
            span.record("nfa_states", nfa.len());
            nfa
        };
        Ok(Regex {
            pattern: pattern.to_string(),
            program: Arc::new(Program {
                anchor: suffix_literal(&ast).map(|s| Finder::new(&s)),
                ast,
                nfa,
                reverse: OnceLock::new(),
            }),
            shared: Arc::new(OnceLock::new()),
        })
    }

    /// The original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The parsed AST (used by FREE's index planner).
    pub fn ast(&self) -> &Ast {
        &self.program.ast
    }

    /// The compiled NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.program.nfa
    }

    /// Creates a searcher with its own scratch state, for dedicated or
    /// multi-threaded use.
    pub fn searcher(&self) -> Searcher {
        self.searcher_with_state_limit(DEFAULT_STATE_LIMIT)
    }

    /// [`Regex::searcher`] with a custom bound on the states each of its
    /// lazy DFAs may cache before starting over (min 2). Results never
    /// depend on the bound; a tiny one forces mid-document cache resets,
    /// which is what the differential tests use it for.
    pub fn searcher_with_state_limit(&self, state_limit: usize) -> Searcher {
        Searcher {
            contains: LazyDfa::with_state_limit(&self.program.nfa, state_limit),
            ends: None,
            spans: None,
            state_limit,
            program: self.program.clone(),
        }
    }

    /// The searcher behind the convenience methods, created on first
    /// use. It recovers from lock poisoning: every search starts from a
    /// fresh run state, and the lazy-DFA caches stay valid across an
    /// unwound insert, so a panicked peer can't corrupt it.
    fn shared(&self) -> MutexGuard<'_, Searcher> {
        self.shared
            .get_or_init(|| Mutex::new(self.searcher()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `haystack` contains a match.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.shared().is_match(haystack)
    }

    /// The leftmost-longest match, if any.
    pub fn find(&self, haystack: &[u8]) -> Option<Match> {
        self.shared().find(haystack)
    }

    /// All non-overlapping leftmost-longest matches.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        self.shared().find_all(haystack)
    }

    /// Number of non-overlapping matches in `haystack`.
    pub fn count_matches(&self, haystack: &[u8]) -> usize {
        self.find_all(haystack).len()
    }
}

/// Mutable scratch state for searching one pattern: its lazy DFA caches.
///
/// Four automata, each answering one question in linear time (see
/// [`crate::dfa`]). *Whether* the haystack matches is decided on the
/// literal every match ends with, when the pattern has one: from each
/// occurrence of it, left to right, the anchored reverse DFA steps back
/// until it accepts (a match ends there) or dies. Otherwise, and when
/// those walks have stepped as many bytes as the haystack holds, the
/// forward unanchored DFA decides. Only if the haystack matches, and
/// spans are wanted, the unanchored reverse DFA marks every offset a
/// match starts at and the anchored DFA extends each start the
/// iteration reaches to its longest end. The pattern
/// language has no anchors or look-around, so whether `haystack[i..j]`
/// matches never depends on the bytes around it, and the spans are
/// exactly the leftmost-longest ones a backtracking or Pike-VM search
/// reports ([`crate::pike`] and [`crate::oracle`] are the references the
/// property tests hold this to).
#[derive(Clone, Debug)]
pub struct Searcher {
    program: Arc<Program>,
    state_limit: usize,
    /// Forward, unanchored: does the haystack contain a match?
    contains: LazyDfa,
    /// Reversed pattern, anchored, run right to left from an anchor
    /// occurrence's end: does a match end there? Built at the first
    /// decision of a pattern that has an anchor.
    ends: Option<LazyDfa>,
    /// Built the first time a haystack that matches is asked for spans.
    spans: Option<SpanScratch>,
}

/// The span-recovery half of a [`Searcher`].
#[derive(Clone, Debug)]
struct SpanScratch {
    /// Reversed pattern, unanchored, run right to left: accepting at `i`
    /// iff some match starts at `i`.
    starts: LazyDfa,
    /// Forward, anchored: the longest end from a given start.
    longest: LazyDfa,
    /// Bitset over `0..=haystack.len()` of the offsets `starts` accepted.
    marks: Vec<u64>,
}

impl SpanScratch {
    /// Marks every offset of `haystack` at which a match starts.
    fn mark_starts(&mut self, reverse: &Nfa, haystack: &[u8]) {
        self.marks.clear();
        self.marks.resize(haystack.len() / 64 + 1, 0);
        let marks = &mut self.marks;
        self.starts
            .accepting_positions_rev(reverse, haystack, &mut |i| marks[i / 64] |= 1 << (i % 64));
    }

    /// The first marked offset at or after `at`.
    fn next_start(&self, at: usize) -> Option<usize> {
        let mut word = at / 64;
        let mut bits = *self.marks.get(word)? & (!0u64 << (at % 64));
        while bits == 0 {
            word += 1;
            bits = *self.marks.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

impl Searcher {
    /// Whether `haystack` contains a match: the one containment decision
    /// behind every search, positioned on the anchor where that answers,
    /// else the forward pass.
    pub fn is_match(&mut self, haystack: &[u8]) -> bool {
        match self.positioned(haystack) {
            Some(matched) => matched,
            None => self.contains.is_match(&self.program.nfa, haystack),
        }
    }

    /// Decides containment from the occurrences of the pattern's anchor,
    /// or returns `None` when it has none or the walks ran out of steps.
    ///
    /// Every match ends with the anchor, so the haystack matches iff a
    /// match ends where some occurrence does. The reverse walks share a
    /// cap of `haystack.len()` steps, and each is handed only the bytes
    /// the cap still allows, so a pattern whose walks never die (the
    /// `.*` of `<script>.*</script>` carries each one back to the start)
    /// costs at most one forward pass more than the forward pass alone.
    fn positioned(&mut self, haystack: &[u8]) -> Option<bool> {
        let program = &*self.program;
        let anchor = program.anchor.as_ref()?;
        let state_limit = self.state_limit;
        let ends = self
            .ends
            .get_or_insert_with(|| LazyDfa::anchored(program.reverse(), state_limit));
        let mut steps = haystack.len();
        let mut at = 0;
        while let Some(p) = anchor.find_at(haystack, at) {
            let end = p + anchor.needle().len();
            let floor = end.saturating_sub(steps);
            let (accepted, stop) =
                ends.accepts_ending_at(program.reverse(), &haystack[floor..], end - floor);
            if accepted {
                return Some(true);
            }
            if stop == 0 && floor > 0 {
                // Cut short by the cap, not by the start of the haystack.
                return None;
            }
            steps -= end - floor - stop;
            at = p + 1;
        }
        Some(false)
    }

    /// The leftmost-longest match, if any.
    pub fn find(&mut self, haystack: &[u8]) -> Option<Match> {
        let mut first = None;
        self.for_each_match(haystack, &mut |span| {
            first = Some(Match { span });
            false
        });
        first
    }

    /// All non-overlapping leftmost-longest matches, in order. Empty iff
    /// [`Searcher::is_match`] is false, so a caller that wants the spans
    /// need not ask the containment question separately.
    pub fn find_all(&mut self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.for_each_match(haystack, &mut |span| {
            out.push(Match { span });
            true
        });
        out
    }

    /// Visits the non-overlapping leftmost-longest matches in order until
    /// `visit` returns `false`.
    fn for_each_match(&mut self, haystack: &[u8], visit: &mut dyn FnMut(Span) -> bool) {
        // Decision pass: most haystacks end here.
        if !self.is_match(haystack) {
            return;
        }
        let program = &*self.program;
        let state_limit = self.state_limit;
        let spans = self.spans.get_or_insert_with(|| SpanScratch {
            starts: LazyDfa::with_state_limit(program.reverse(), state_limit),
            longest: LazyDfa::anchored(&program.nfa, state_limit),
            marks: Vec::new(),
        });
        spans.mark_starts(program.reverse(), haystack);
        let mut at = 0;
        while let Some(start) = spans.next_start(at) {
            // A marked offset starts a match, so the anchored pass finds
            // an end; the `else` is unreachable.
            let Some(end) = spans
                .longest
                .longest_match_at(&program.nfa, haystack, start)
            else {
                debug_assert!(false, "marked start {start} has no match");
                return;
            };
            if !visit(Span::new(start, end)) {
                return;
            }
            at = if end == start { end + 1 } else { end };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_api() {
        let re = Regex::new("ab+c").unwrap();
        assert_eq!(re.pattern(), "ab+c");
        assert!(re.is_match(b"xxabbbcxx"));
        assert!(!re.is_match(b"xxacxx"));
        let m = re.find(b"xxabcxx").unwrap();
        assert_eq!(m.range(), 2..5);
        assert_eq!(m.start(), 2);
        assert_eq!(m.end(), 5);
    }

    #[test]
    fn find_all_and_count() {
        let re = Regex::new(r"\d+").unwrap();
        let ms = re.find_all(b"a1b22c333");
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].range(), 1..2);
        assert_eq!(ms[1].range(), 3..5);
        assert_eq!(ms[2].range(), 6..9);
        assert_eq!(re.count_matches(b"a1b22c333"), 3);
        assert_eq!(re.count_matches(b"none"), 0);
    }

    #[test]
    fn dedicated_searcher_matches_shared_results() {
        let re = Regex::new("(cat|dog)s?").unwrap();
        let mut s = re.searcher();
        let hay = b"cats and dogs";
        assert_eq!(s.find_all(hay).len(), re.find_all(hay).len());
    }

    #[test]
    fn searchers_are_independent_across_threads() {
        let re = Regex::new(r"\a+@\a+\.(com|edu)").unwrap();
        let re2 = re.clone();
        let handle = std::thread::spawn(move || {
            let mut s = re2.searcher();
            s.is_match(b"mail me at bob@example.com now")
        });
        let mut s = re.searcher();
        assert!(s.is_match(b"alice@school.edu"));
        assert!(handle.join().unwrap());
    }

    #[test]
    fn shared_searcher_is_built_on_first_use_only() {
        // No anchor: `c` alone is too short to position a decision.
        let re = Regex::new("ab+c").unwrap();
        assert!(re.shared.get().is_none(), "compiling builds no scratch");
        let _ = re.searcher();
        assert!(
            re.shared.get().is_none(),
            "dedicated searchers are separate"
        );
        assert!(re.is_match(b"abbc"));
        assert!(re.shared.get().is_some());
        // Clones share it, and the reverse program waits for a span request.
        let clone = re.clone();
        assert!(clone.shared.get().is_some());
        assert!(re.program.reverse.get().is_none());
        assert_eq!(clone.find(b"xabcx").unwrap().range(), 1..4);
        assert!(re.program.reverse.get().is_some());
        // Anchored on `cd`: the first decision walks the reverse program.
        let re = Regex::new("ab+cd").unwrap();
        let _ = re.searcher();
        assert!(re.program.reverse.get().is_none());
        assert!(!re.is_match(b"abbc"));
        assert!(re.program.reverse.get().is_some());
    }

    /// `a.*bc` over `haystack`: the positioned answer, if the cap let it
    /// give one, and the answer every search gives, checked against the
    /// Pike VM.
    fn capped(haystack: &[u8]) -> Option<bool> {
        let re = Regex::new("a.*bc").unwrap();
        let mut vm = crate::pike::PikeVm::new(re.nfa());
        let want = vm.find_at(re.nfa(), haystack, 0);
        let mut searcher = re.searcher_with_state_limit(3);
        let positioned = searcher.positioned(haystack);
        assert_eq!(searcher.is_match(haystack), want.is_some());
        assert_eq!(searcher.find(haystack).map(|m| m.span()), want);
        positioned
    }

    #[test]
    fn positioned_decision_falls_back_when_its_walks_run_out() {
        let bcs = b"bc".repeat(2048);
        // No `a`: every `bc` walks back to the start without dying, and
        // the cap hands the page to the forward pass.
        assert_eq!(capped(&bcs), None);
        // A leading `a`: the first walk accepts.
        assert_eq!(capped(&[b"a", &bcs[..]].concat()), Some(true));
        // A late `a`: the walks before it use up the cap.
        assert_eq!(capped(&[&bcs[..], b"abc"].concat()), None);
    }

    #[test]
    fn shared_searcher_survives_a_poisoned_lock() {
        let re = Regex::new("needle").unwrap();
        assert!(re.is_match(b"a needle"));
        let re2 = re.clone();
        let _ = std::thread::spawn(move || {
            let _guard = re2.shared();
            panic!("poison the shared searcher");
        })
        .join();
        assert!(re.shared.get().unwrap().is_poisoned());
        assert!(re.is_match(b"still a needle"));
        assert_eq!(re.find_all(b"needle needle").len(), 2);
    }

    #[test]
    fn long_documents_agree_with_the_pike_vm() {
        // Long enough that the eight-byte stride, the idle-stretch test
        // (kept for the rare first byte, given up for the alternation of
        // common ones) and, with a two-state cache, many mid-document
        // flushes all come into play — none of which a short property-test
        // haystack reaches.
        let mut x = 0x2545_F491u32;
        let hay: Vec<u8> = (0..6000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                b"abbacc9 01ab2345c, the fox"[(x >> 24) as usize % 26]
            })
            .collect();
        for pattern in [
            r"(ab|ba)+c{0,3}|\d{2,4}",
            r"9 .{0,12}x",
            r"(a|b|c|t|h|e|f|o)x?\d",
            r"c*",
        ] {
            let re = Regex::new(pattern).unwrap();
            let mut vm = crate::pike::PikeVm::new(re.nfa());
            let mut want = Vec::new();
            let mut at = 0;
            while let Some(span) = vm.find_at(re.nfa(), &hay, at) {
                at = if span.is_empty() {
                    span.end + 1
                } else {
                    span.end
                };
                want.push(Match { span });
            }
            assert!(want.len() > 10, "{pattern}: {}", want.len());
            for limit in [DEFAULT_STATE_LIMIT, 2, 3, 5] {
                let mut searcher = re.searcher_with_state_limit(limit);
                assert_eq!(searcher.find_all(&hay), want, "{pattern} limit {limit}");
                assert_eq!(searcher.find(&hay), want.first().copied());
            }
        }
    }

    #[test]
    fn empty_match_iteration_terminates() {
        let re = Regex::new("x*").unwrap();
        let ms = re.find_all(b"ax");
        // pos 0: empty; pos 1: "x"; pos 2: empty.
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn traced_compile_emits_parse_and_compile_spans() {
        let tracer = free_trace::Tracer::enabled();
        let root = tracer.span("query");
        let re = Regex::new_traced("ab+c", &root).unwrap();
        assert!(re.is_match(b"abbc"));
        drop(root);
        let events = tracer.events();
        let ended: Vec<&str> = events
            .iter()
            .filter(|e| matches!(e.kind, free_trace::EventKind::SpanEnd { .. }))
            .map(|e| e.name)
            .collect();
        assert_eq!(ended, vec!["regex.parse", "regex.compile", "query"]);
        let compile = events
            .iter()
            .rfind(|e| {
                e.name == "regex.compile" && matches!(e.kind, free_trace::EventKind::SpanEnd { .. })
            })
            .unwrap();
        match compile.attr("nfa_states") {
            Some(free_trace::Value::U64(n)) => assert!(*n > 0),
            other => panic!("missing nfa_states: {other:?}"),
        }
        // The untraced path still works and records nothing.
        let before = tracer.events().len();
        Regex::new("xy").unwrap();
        assert_eq!(tracer.events().len(), before);
    }

    #[test]
    fn case_insensitive_config() {
        let cfg = RegexConfig {
            parser: ParserConfig {
                case_insensitive: true,
                ..Default::default()
            },
        };
        let re = Regex::with_config("clinton", cfg).unwrap();
        assert!(re.is_match(b"CLINTON"));
        assert!(re.is_match(b"Clinton"));
        let re = Regex::new("clinton").unwrap();
        assert!(!re.is_match(b"CLINTON"));
    }

    #[test]
    fn matches_agree_with_oracle_on_paper_queries() {
        let cases: &[(&str, &[u8])] = &[
            (r#"<a href=("|')?.*\.mp3("|')?>"#, b"<a href='x.mp3'>"),
            (r"\d\d\d\d\d(-\d\d\d\d)?", b"zip 90210-1234 inside"),
            (r"<[^>]*<", b"<b <i>"),
            (r"motorola.*(xpc|mpc)[0-9]+", b"motorola mpc750 chip"),
            (r"<script>.*</script>", b"<script>var x;</script>"),
        ];
        for (pat, hay) in cases {
            let re = Regex::new(pat).unwrap();
            let ast = crate::parser::parse(pat).unwrap();
            assert_eq!(
                re.is_match(hay),
                crate::oracle::is_match(&ast, hay),
                "{pat}"
            );
            let got = re.find(hay).map(|m| m.span());
            let want = crate::oracle::find_at(&ast, hay, 0);
            assert_eq!(got, want, "{pat}");
        }
    }
}
