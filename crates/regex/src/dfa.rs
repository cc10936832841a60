//! An on-the-fly (lazy) determinization of the Thompson NFA.
//!
//! Lazy DFAs answer every question FREE's confirmation step asks of a
//! data unit, each in strict `O(n)` time with one table lookup per
//! haystack byte:
//!
//! * *does this page contain a match at all?* — an **unanchored** DFA over
//!   the pattern, run left to right ([`LazyDfa::shortest_match`]);
//! * *where do matches start?* — an unanchored DFA over the **reversed**
//!   pattern ([`crate::Ast::reversed`]), run right to left
//!   ([`LazyDfa::accepting_positions_rev`]): it is accepting at offset
//!   `i` exactly when some match begins at `i`;
//! * *where does the longest match from this start end?* — an
//!   **anchored** DFA over the pattern ([`LazyDfa::longest_match_at`]);
//! * *does a match end exactly here?* — an **anchored** DFA over the
//!   reversed pattern, run right to left from that offset
//!   ([`LazyDfa::accepts_ending_at`]): it accepts after consuming
//!   `haystack[i..end]` backwards iff `haystack[i..end]` matches, and dies
//!   as soon as no longer stretch can.
//!
//! [`crate::Searcher`] composes them: when every match ends with a
//! literal ([`crate::literal::suffix_literal`]), the last automaton
//! decides containment from each occurrence of that literal, so only the
//! bytes a match could end on, and the few before them that tell it
//! apart, are stepped through; otherwise the first one decides. The
//! second and third then turn a page that matches into leftmost-longest
//! spans.
//!
//! DFA states are created the first time they are visited (subset
//! construction, McNaughton–Yamada), keyed by their NFA state set;
//! transitions are dense over the NFA's byte equivalence classes rather
//! than all 256 bytes. A state's id *is* its row offset in the transition
//! table (pre-multiplied by the stride), with the accepting and dead
//! flags in the two top bits, so the inner loop is one class lookup, one
//! table read and one compare per byte. An unanchored automaton whose
//! start state only a few ASCII ranges leave (`0-9`, `<`) passes over
//! whole words of the haystack without them, one word test each.
//!
//! An *unanchored* automaton implicitly adds the epsilon closure of the
//! NFA start state to every state set, which is equivalent to prefixing
//! the pattern with `.*?`; an *anchored* one does not, and so has a dead
//! state (the empty set) it can stop at.
//!
//! If a pathological pattern forces more than the configured state limit
//! states, the cache is cleared and rebuilt; callers never observe a
//! failure, only (rare) re-computation.

use crate::class::ByteClass;
use crate::literal::{load, LANES, LOW7, WORD};
use crate::nfa::{Nfa, State, StateId};
use rustc_hash::FxHashMap;

/// A DFA state: its row offset into the transition table in the low 30
/// bits, [`ACCEPT`] and [`DEAD`] above them.
type DfaStateId = u32;

/// Flag: the state's NFA set contains the match state.
const ACCEPT: DfaStateId = 1 << 31;

/// Flag: the state's NFA set is empty (anchored automata only).
const DEAD: DfaStateId = 1 << 30;

/// Ids at or above this carry a flag (or are [`UNKNOWN`]): the one
/// compare the inner loop makes per byte.
const FLAGGED: DfaStateId = DEAD;

/// Mask selecting the row offset out of an id.
const OFFSET: DfaStateId = DEAD - 1;

/// Sentinel: transition not yet computed. No real id has every offset
/// bit set (the state limit is clamped below that).
const UNKNOWN: DfaStateId = u32::MAX;

/// How many bytes [`LazyDfa::run`] takes at a time.
const STRIDE: usize = 8;

/// How many idle-stretch tests [`LazyDfa::note_idle`] judges at a time.
const IDLE_WINDOW: u32 = 128;

/// Default bound on cached DFA states before the cache is reset.
pub const DEFAULT_STATE_LIMIT: usize = 10_000;

/// A lazily-built deterministic automaton over one NFA.
#[derive(Clone, Debug)]
pub struct LazyDfa {
    /// Transition table: `transitions[row offset + byte class]`.
    transitions: Vec<DfaStateId>,
    /// Interned NFA state sets, by state index (row offset / stride).
    sets: Vec<Box<[StateId]>>,
    /// Map from NFA state set to DFA state id.
    cache: FxHashMap<Box<[StateId]>, DfaStateId>,
    /// Maps each haystack byte to its equivalence class.
    classes: [u8; 256],
    /// Number of byte classes (stride of the transition table).
    stride: usize,
    /// Whether matches must begin where the search begins.
    anchored: bool,
    /// Whether [`LazyDfa::run`] still tests for idle stretches (never, when
    /// anchored: such an automaton does not loop in its start state), and
    /// the current window of its attempts.
    idle_pays: bool,
    idle_tried: u32,
    idle_passed: u32,
    start: DfaStateId,
    state_limit: usize,
    /// Number of times the cache overflowed and was reset.
    resets: u64,
    /// Scratch for epsilon closures.
    seen: Vec<bool>,
    /// Scratch: the NFA set being stepped, the set it steps to, and the
    /// closure work stack.
    current: Vec<StateId>,
    next: Vec<StateId>,
    stack: Vec<StateId>,
    /// One representative byte per input equivalence class.
    reps: Vec<u8>,
    /// The bytes that can take an unanchored automaton out of its start
    /// state, when a word can be tested for them at once.
    escapes: Option<Escapes>,
}

/// How many byte ranges [`Escapes`] tests per word.
const ESCAPE_RANGES: usize = 3;

/// The bytes that can move an unanchored automaton off its start state,
/// when they are at most [`ESCAPE_RANGES`] ranges of ASCII: the first
/// bytes of the pattern's matches, such as `0-9` for a digit pattern or
/// `<` for a tag. Eight haystack bytes holding none of them leave the
/// automaton where it was, and this tests the eight with one word load
/// and a few bit operations per range (SWAR, as
/// [`crate::literal::Finder`] does), where the table test of
/// [`LazyDfa::run`] makes sixteen dependent-free reads. A superset is
/// safe: a word it flags is only stepped through.
#[derive(Clone, Copy, Debug)]
struct Escapes {
    /// Per range `lo..=hi`, `128 - lo` and `127 - hi` in every lane:
    /// added to a lane's low seven bits, the first sets its top bit iff
    /// the byte is at least `lo`, the second iff it is above `hi`, and
    /// neither carries into the next lane. Unused ranges are `(0, 0)`,
    /// which never sets a top bit.
    ranges: [(u64, u64); ESCAPE_RANGES],
    /// How many of `ranges` are in use.
    len: usize,
}

impl Escapes {
    /// The escapes of the start state whose NFA set is `start`, if they
    /// fit: the union of the classes its byte-consuming states accept.
    /// Any other byte steps none of them, so the unanchored automaton
    /// stays in `start`.
    fn of(nfa: &Nfa, start: &[StateId]) -> Option<Escapes> {
        let mut leaving = ByteClass::EMPTY;
        for &s in start {
            if let State::Class { class, .. } = nfa.state(s) {
                leaving = leaving.union(nfa.class(class));
            }
        }
        let runs = leaving.ranges();
        if runs.is_empty() || runs.len() > ESCAPE_RANGES || runs.iter().any(|&(_, hi)| hi >= 0x80) {
            return None;
        }
        let mut ranges = [(0, 0); ESCAPE_RANGES];
        for (slot, &(lo, hi)) in ranges.iter_mut().zip(&runs) {
            *slot = (LANES * (128 - u64::from(lo)), LANES * (127 - u64::from(hi)));
        }
        Some(Escapes {
            ranges,
            len: runs.len(),
        })
    }

    /// Whether some byte of `word` is an escape, testing the first `N`
    /// ranges. Exact: a lane counts when its byte is ASCII (top bit
    /// clear), at least `lo` and not above `hi` of some range.
    #[inline(always)]
    fn hit<const N: usize>(&self, word: u64) -> bool {
        let low = word & LOW7;
        let lanes = self.ranges[..N]
            .iter()
            .fold(0, |acc, &(from, past)| acc | ((low + from) & !(low + past)));
        lanes & !word & !LOW7 != 0
    }

    /// How many bytes at the front of `rest` (at its back, when `REV`)
    /// hold no escape, counted in whole words.
    #[inline(always)]
    fn idle_len<const REV: bool>(&self, rest: &[u8]) -> usize {
        // One loop per range count, so a single range costs one test.
        match self.len {
            1 => self.idle_words::<REV, 1>(rest),
            2 => self.idle_words::<REV, 2>(rest),
            _ => self.idle_words::<REV, ESCAPE_RANGES>(rest),
        }
    }

    fn idle_words<const REV: bool, const N: usize>(&self, rest: &[u8]) -> usize {
        let idle = |word: &[u8]| !self.hit::<N>(load(word, 0));
        let words = if REV {
            rest.rchunks_exact(WORD).take_while(|w| idle(w)).count()
        } else {
            rest.chunks_exact(WORD).take_while(|w| idle(w)).count()
        };
        words * WORD
    }
}

impl LazyDfa {
    /// Creates an unanchored lazy DFA for `nfa` with the default state
    /// limit.
    pub fn new(nfa: &Nfa) -> LazyDfa {
        LazyDfa::with_state_limit(nfa, DEFAULT_STATE_LIMIT)
    }

    /// Creates an unanchored lazy DFA with a custom cache limit (min 2).
    pub fn with_state_limit(nfa: &Nfa, state_limit: usize) -> LazyDfa {
        LazyDfa::build(nfa, false, state_limit)
    }

    /// Creates an anchored lazy DFA (matches must begin where the search
    /// begins) with a custom cache limit (min 2).
    pub fn anchored(nfa: &Nfa, state_limit: usize) -> LazyDfa {
        LazyDfa::build(nfa, true, state_limit)
    }

    fn build(nfa: &Nfa, anchored: bool, state_limit: usize) -> LazyDfa {
        let stride = nfa.num_byte_classes() as usize;
        let mut classes = [0u8; 256];
        for (b, slot) in classes.iter_mut().enumerate() {
            // At most 256 classes, so every class index fits a byte.
            *slot = nfa.byte_class(b as u8) as u8;
        }
        let mut dfa = LazyDfa {
            transitions: Vec::new(),
            sets: Vec::new(),
            cache: FxHashMap::default(),
            classes,
            stride,
            anchored,
            idle_pays: !anchored,
            idle_tried: 0,
            idle_passed: 0,
            start: 0,
            // Every row offset (plus the rows a reset transiently adds)
            // must stay clear of the flag bits.
            state_limit: state_limit.clamp(2, OFFSET as usize / stride - 4),
            resets: 0,
            seen: vec![false; nfa.len()],
            current: Vec::new(),
            next: Vec::new(),
            stack: Vec::new(),
            reps: nfa.byte_class_representatives(),
            escapes: None,
        };
        dfa.reset(nfa);
        if !anchored {
            // A reset re-interns the same start set first, so the start
            // state, and what leaves it, outlive every reset.
            let start = &dfa.sets[(dfa.start & OFFSET) as usize / stride];
            dfa.escapes = Escapes::of(nfa, start);
        }
        dfa
    }

    /// Number of materialized DFA states.
    pub fn num_states(&self) -> usize {
        self.sets.len()
    }

    /// How many times the state cache overflowed.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    fn reset(&mut self, nfa: &Nfa) {
        self.transitions.clear();
        self.sets.clear();
        self.cache.clear();
        // State 0: closure(nfa.start), which an unanchored automaton
        // also folds into every later state.
        let mut set = Vec::new();
        self.seen.iter_mut().for_each(|s| *s = false);
        nfa.epsilon_closure_into(nfa.start(), &mut set, &mut self.seen, &mut self.stack);
        set.sort_unstable();
        self.start = self.intern(nfa, set.into_boxed_slice());
    }

    fn intern(&mut self, nfa: &Nfa, set: Box<[StateId]>) -> DfaStateId {
        if let Some(&id) = self.cache.get(&set) {
            return id;
        }
        let mut id = (self.sets.len() * self.stride) as DfaStateId;
        if set.iter().any(|&s| matches!(nfa.state(s), State::Match)) {
            id |= ACCEPT;
        }
        // Nothing leaves the empty set: its row loops back to itself.
        let fill = if set.is_empty() {
            id |= DEAD;
            id
        } else {
            UNKNOWN
        };
        self.transitions
            .extend(std::iter::repeat_n(fill, self.stride));
        self.sets.push(set.clone());
        self.cache.insert(set, id);
        id
    }

    /// Computes (and caches) the transition out of `state` on `class`.
    ///
    /// On cache overflow the table is flushed, but the *current* state's
    /// NFA set is re-interned first, so in-progress partial matches are
    /// never lost; the returned id is always valid against the new table.
    #[inline(never)]
    fn compute_transition(&mut self, nfa: &Nfa, state: DfaStateId, class: usize) -> DfaStateId {
        let mut state = state;
        if self.sets.len() >= self.state_limit {
            let saved = self.sets[(state & OFFSET) as usize / self.stride].clone();
            self.resets += 1;
            self.reset(nfa);
            state = self.intern(nfa, saved);
        }
        let row = (state & OFFSET) as usize;
        // A representative byte for this class.
        let rep = self.reps[class];
        self.current.clear();
        self.current
            .extend_from_slice(&self.sets[row / self.stride]);
        self.next.clear();
        self.seen.iter_mut().for_each(|s| *s = false);
        if !self.anchored {
            // Unanchored: every state set implicitly restarts the pattern.
            nfa.epsilon_closure_into(nfa.start(), &mut self.next, &mut self.seen, &mut self.stack);
        }
        for &s in &self.current {
            if let State::Class { class: c, next } = nfa.state(s) {
                if nfa.class(c).contains(rep) {
                    nfa.epsilon_closure_into(next, &mut self.next, &mut self.seen, &mut self.stack);
                }
            }
        }
        self.next.sort_unstable();
        let next_id = match self.cache.get(self.next.as_slice()) {
            Some(&id) => id,
            None => self.intern(nfa, self.next.as_slice().into()),
        };
        self.transitions[row + class] = next_id;
        next_id
    }

    /// Feeds `haystack` to the automaton from `state` — front to back, or
    /// back to front when `REV` — until it *enters* a flagged (accepting
    /// or dead) state or the input runs out. Returns the state reached and
    /// how many bytes were consumed; the state is flagged only if the last
    /// byte consumed entered it (or none was).
    ///
    /// Each byte's row comes from the state the byte before produced, so
    /// the plain loop runs at the latency of one dependent load per byte.
    /// An unanchored automaton spends most of a page that does not match
    /// in its start state, though, so the input is taken [`STRIDE`] bytes
    /// at a time, and a stretch that starts there and whose every byte
    /// leads back there — lookups that do not depend on one another — is
    /// passed over whole. Where the text leaves the start state too often
    /// for that to pay (an alternation of many first letters), the
    /// attempt is given up: see [`LazyDfa::note_idle`]. When the bytes
    /// that leave the start state fit [`Escapes`], runs of whole words
    /// without one are passed over with a word test instead of the
    /// lookups, which is never given up.
    #[inline(always)]
    fn run<const REV: bool>(
        &mut self,
        nfa: &Nfa,
        state: DfaStateId,
        haystack: &[u8],
    ) -> (DfaStateId, usize) {
        let len = haystack.len();
        if len == 0 {
            return (state, 0);
        }
        // Only unflagged states are stepped *from* below, so the flags
        // come off once here rather than once per byte.
        let mut state = state & OFFSET;
        let mut rest = haystack;
        let (mut tried, mut passed) = (0u32, 0u32);
        let reached = loop {
            let transitions = self.transitions.as_slice();
            let classes = &self.classes;
            let class_of = |b: u8| usize::from(classes[usize::from(b)]);
            // A flagged start (nullable pattern) never equals `state`.
            let idle = if self.idle_pays { self.start } else { UNKNOWN };
            let escapes = self.escapes;
            let mut pending = None;
            'scan: while !rest.is_empty() {
                if let Some(escapes) = escapes.filter(|_| state == idle) {
                    // Whole words without an escape byte, at one test
                    // each; the word that stops it is stepped below.
                    let skip = escapes.idle_len::<REV>(rest);
                    rest = if REV {
                        &rest[..rest.len() - skip]
                    } else {
                        &rest[skip..]
                    };
                    if rest.is_empty() {
                        break;
                    }
                }
                let n = rest.len().min(STRIDE);
                let stretch = if REV {
                    &rest[rest.len() - n..]
                } else {
                    &rest[..n]
                };
                let mut idles = false;
                if state == idle && n == STRIDE && escapes.is_none() {
                    idles = stretch.iter().fold(true, |all, &b| {
                        all & (transitions[idle as usize + class_of(b)] == idle)
                    });
                    tried += 1;
                    passed += u32::from(idles);
                }
                if !idles {
                    for i in 0..n {
                        let b = stretch[if REV { n - 1 - i } else { i }];
                        let next = transitions[state as usize + class_of(b)];
                        if next >= FLAGGED {
                            pending = Some((class_of(b), next));
                            rest = if REV {
                                &rest[..rest.len() - (i + 1)]
                            } else {
                                &rest[i + 1..]
                            };
                            break 'scan;
                        }
                        state = next;
                    }
                }
                rest = if REV {
                    &rest[..rest.len() - n]
                } else {
                    &rest[n..]
                };
            }
            let Some((class, next)) = pending else {
                break state;
            };
            state = if next == UNKNOWN {
                self.compute_transition(nfa, state, class)
            } else {
                next
            };
            if state >= FLAGGED {
                break state;
            }
        };
        self.note_idle(tried, passed);
        (reached, len - rest.len())
    }

    /// Books how the idle-stretch test of [`LazyDfa::run`] fared. A failed
    /// test costs about half of what stepping through the stretch does (a
    /// mispredicted branch on top of the lookups), a passed one saves
    /// nearly all of it; once a window of attempts shows fewer than half
    /// passing, the test is dropped for the life of this automaton and
    /// every stretch is stepped through, as if this shortcut did not
    /// exist.
    fn note_idle(&mut self, tried: u32, passed: u32) {
        self.idle_tried += tried;
        self.idle_passed += passed;
        if self.idle_tried >= IDLE_WINDOW {
            self.idle_pays = self.idle_passed * 2 >= self.idle_tried;
            self.idle_tried = 0;
            self.idle_passed = 0;
        }
    }

    /// Returns `true` iff `haystack` contains a match, scanning from the
    /// left and stopping at the earliest accepting state.
    pub fn is_match(&mut self, nfa: &Nfa, haystack: &[u8]) -> bool {
        self.shortest_match(nfa, haystack).is_some()
    }

    /// Returns the end offset of the leftmost shortest match, if any
    /// (from offset 0 only, when the automaton is anchored).
    pub fn shortest_match(&mut self, nfa: &Nfa, haystack: &[u8]) -> Option<usize> {
        if self.start & ACCEPT != 0 {
            return Some(0);
        }
        let (state, consumed) = self.run::<false>(nfa, self.start, haystack);
        (state & ACCEPT != 0).then_some(consumed)
    }

    /// Runs the automaton over `haystack` *right to left* and reports
    /// every offset at which it is accepting, in decreasing order.
    ///
    /// For an unanchored automaton over a reversed pattern those are
    /// exactly the offsets where a match of the original pattern starts:
    /// after consuming `haystack[i..]` backwards it accepts iff some
    /// `haystack[i..j]` reversed is in the reversed language.
    pub fn accepting_positions_rev(
        &mut self,
        nfa: &Nfa,
        haystack: &[u8],
        on_accept: &mut dyn FnMut(usize),
    ) {
        let mut state = self.start;
        let mut pos = haystack.len();
        if state & ACCEPT != 0 {
            on_accept(pos);
        }
        while pos > 0 && state & DEAD == 0 {
            let (reached, consumed) = self.run::<true>(nfa, state, &haystack[..pos]);
            state = reached;
            pos -= consumed;
            if state & ACCEPT != 0 {
                on_accept(pos);
            }
        }
    }

    /// Returns the end offset of the longest match that starts exactly at
    /// `at`, stopping as soon as the automaton dies. Meant for an
    /// [anchored](LazyDfa::anchored) automaton.
    pub fn longest_match_at(&mut self, nfa: &Nfa, haystack: &[u8], at: usize) -> Option<usize> {
        let mut state = self.start;
        let mut pos = at;
        let mut last = (state & ACCEPT != 0).then_some(pos);
        while pos < haystack.len() && state & DEAD == 0 {
            let (reached, consumed) = self.run::<false>(nfa, state, &haystack[pos..]);
            state = reached;
            pos += consumed;
            if state & ACCEPT != 0 {
                last = Some(pos);
            }
        }
        last
    }

    /// Whether some match ends exactly at `end`: runs the automaton right
    /// to left from `end`, stopping at its first accepting state or as
    /// soon as it dies. Meant for an [anchored](LazyDfa::anchored)
    /// automaton over a reversed pattern, the mirror of
    /// [`LazyDfa::longest_match_at`].
    ///
    /// Returns whether it accepted and the offset it stopped at: the start
    /// of the shortest match ending at `end`, the offset it died at, or
    /// 0 when the input ran out first, so `end - stop` bytes were stepped.
    pub fn accepts_ending_at(&mut self, nfa: &Nfa, haystack: &[u8], end: usize) -> (bool, usize) {
        let mut state = self.start;
        let mut pos = end;
        while pos > 0 && state & (ACCEPT | DEAD) == 0 {
            let (reached, consumed) = self.run::<true>(nfa, state, &haystack[..pos]);
            state = reached;
            pos -= consumed;
        }
        (state & ACCEPT != 0, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::parser::parse;
    use crate::pike::PikeVm;

    fn dfa_for(pattern: &str) -> (Nfa, LazyDfa) {
        let nfa = Nfa::compile(&parse(pattern).unwrap()).unwrap();
        let dfa = LazyDfa::new(&nfa);
        (nfa, dfa)
    }

    #[test]
    fn literal_containment() {
        let (nfa, mut dfa) = dfa_for("needle");
        assert!(dfa.is_match(&nfa, b"hay needle hay"));
        assert!(!dfa.is_match(&nfa, b"hay nee dle hay"));
        assert!(dfa.is_match(&nfa, b"needle"));
        assert!(!dfa.is_match(&nfa, b""));
    }

    #[test]
    fn shortest_match_end_offset() {
        let (nfa, mut dfa) = dfa_for("ab");
        assert_eq!(dfa.shortest_match(&nfa, b"xxab"), Some(4));
        assert_eq!(dfa.shortest_match(&nfa, b"ab"), Some(2));
        assert_eq!(dfa.shortest_match(&nfa, b"ba"), None);
    }

    #[test]
    fn nullable_matches_immediately() {
        let (nfa, mut dfa) = dfa_for("a*");
        assert_eq!(dfa.shortest_match(&nfa, b"bbb"), Some(0));
        assert_eq!(dfa.shortest_match(&nfa, b""), Some(0));
    }

    #[test]
    fn alternation_and_classes() {
        let (nfa, mut dfa) = dfa_for(r"(cat|dog)\d+");
        assert!(dfa.is_match(&nfa, b"see dog42 run"));
        assert!(!dfa.is_match(&nfa, b"see dog run"));
        assert!(dfa.is_match(&nfa, b"cat7"));
    }

    #[test]
    fn agrees_with_pikevm_on_fixed_corpus() {
        let patterns = [
            "abc",
            "a*b",
            "(ab|ba)+",
            r"\d{2,4}",
            "x[yz]*w",
            "a|b|c|d",
            "(a|b)(c|d)(e|f)",
            r"<[^>]*>",
        ];
        let haystacks: &[&[u8]] = &[
            b"",
            b"a",
            b"ab",
            b"abc",
            b"aabbaabb",
            b"12345",
            b"xyzyzyzw",
            b"<tag>text</tag>",
            b"no digits here",
            b"dddd",
        ];
        for pat in patterns {
            let nfa = Nfa::compile(&parse(pat).unwrap()).unwrap();
            let mut dfa = LazyDfa::new(&nfa);
            let mut vm = PikeVm::new(&nfa);
            for hay in haystacks {
                assert_eq!(
                    dfa.is_match(&nfa, hay),
                    vm.is_match(&nfa, hay),
                    "pattern {pat} haystack {hay:?}"
                );
            }
        }
    }

    #[test]
    fn cache_overflow_recovers() {
        // Pattern with many states; a tiny limit forces constant resets,
        // results must stay correct.
        let pat = r"(a|b|c|d|e|f){1,20}z";
        let nfa = Nfa::compile(&parse(pat).unwrap()).unwrap();
        let mut dfa = LazyDfa::with_state_limit(&nfa, 2);
        assert!(dfa.is_match(&nfa, b"abcdefz"));
        assert!(!dfa.is_match(&nfa, b"abcdef"));
        assert!(dfa.resets() > 0);
    }

    #[test]
    fn anchored_automaton_finds_the_longest_end_and_dies() {
        let nfa = Nfa::compile(&parse("ab*|abbc").unwrap()).unwrap();
        let mut dfa = LazyDfa::anchored(&nfa, DEFAULT_STATE_LIMIT);
        assert_eq!(dfa.longest_match_at(&nfa, b"xabbbx", 1), Some(5));
        assert_eq!(dfa.longest_match_at(&nfa, b"xabbcx", 1), Some(5));
        assert_eq!(dfa.longest_match_at(&nfa, b"xabbbx", 0), None, "anchored");
        assert_eq!(
            dfa.longest_match_at(&nfa, b"xa", 1),
            Some(2),
            "end of input"
        );
        // Anchored containment only looks at offset 0.
        assert_eq!(dfa.shortest_match(&nfa, b"ab"), Some(1));
        assert_eq!(dfa.shortest_match(&nfa, b"xab"), None);
        // The empty set is one dead state however it is reached.
        let states = dfa.num_states();
        assert_eq!(dfa.longest_match_at(&nfa, b"zzzzzzzzzzzzzzzz", 0), None);
        assert_eq!(dfa.num_states(), states);
    }

    #[test]
    fn reversed_automaton_accepts_exactly_where_matches_start() {
        let ast = parse("ab+|bc").unwrap();
        let rev = Nfa::compile(&ast.reversed()).unwrap();
        let mut dfa = LazyDfa::new(&rev);
        let starts = |dfa: &mut LazyDfa, hay: &[u8]| {
            let mut out = Vec::new();
            dfa.accepting_positions_rev(&rev, hay, &mut |i| out.push(i));
            out.reverse();
            out
        };
        assert_eq!(starts(&mut dfa, b"xabbcab"), vec![1, 3, 5]);
        assert_eq!(starts(&mut dfa, b"ba"), Vec::<usize>::new());
        assert_eq!(starts(&mut dfa, b""), Vec::<usize>::new());
        // A nullable pattern starts (an empty match) everywhere.
        let rev = Nfa::compile(&parse("a*").unwrap().reversed()).unwrap();
        let mut out = Vec::new();
        LazyDfa::new(&rev).accepting_positions_rev(&rev, b"ba", &mut |i| out.push(i));
        assert_eq!(out, vec![2, 1, 0]);
    }

    #[test]
    fn reversed_anchored_automaton_accepts_where_a_match_ends() {
        let ast = parse("a.*bc|xbc").unwrap();
        let rev = Nfa::compile(&ast.reversed()).unwrap();
        let mut dfa = LazyDfa::anchored(&rev, DEFAULT_STATE_LIMIT);
        // Stops at the shortest match ending at 7: "xbc" from 4.
        assert_eq!(dfa.accepts_ending_at(&rev, b"abcxxbcbc", 7), (true, 4));
        assert_eq!(dfa.accepts_ending_at(&rev, b"abcxxbcbc", 9), (true, 0));
        // `.*` keeps it alive back to the start of the input.
        assert_eq!(dfa.accepts_ending_at(&rev, b"zzbc", 4), (false, 0));
        // Dies on the `z` before the needed `b`.
        assert_eq!(dfa.accepts_ending_at(&rev, b"azzc", 4), (false, 2));
        assert_eq!(dfa.accepts_ending_at(&rev, b"abc", 0), (false, 0));
    }

    #[test]
    fn idle_stretches_are_skipped_or_given_up_without_changing_answers() {
        // 40 KiB of lowercase text with the needle planted at known
        // offsets; `z` opens nothing else, so almost every stretch idles,
        // while the vowel alternation leaves the start state every few
        // bytes and must make the automaton give the test up.
        let mut hay: Vec<u8> = (0..40_960u32)
            .map(|i| b"the quick brown fox jumps over a lazy dog "[(i % 42) as usize])
            .collect();
        for at in [4_000, 20_001, 40_950] {
            hay[at..at + 4].copy_from_slice(b"zyzx");
        }
        // `zyzx` is left by one byte, so whole words are tested at once;
        // the other two need the table test (four ranges of first bytes,
        // all but `z` absent from the text, and then eight of them).
        for (pattern, words, idles) in [
            ("zyzx", true, true),
            ("(0|2|4)q|zyzx", false, true),
            ("(a|e|i|o|u|t|h|r)zx|zyzx", false, false),
        ] {
            let nfa = Nfa::compile(&parse(pattern).unwrap()).unwrap();
            let mut dfa = LazyDfa::new(&nfa);
            assert_eq!(dfa.escapes.is_some(), words, "{pattern}");
            let mut vm = PikeVm::new(&nfa);
            assert_eq!(dfa.shortest_match(&nfa, &hay), Some(4_004), "{pattern}");
            assert_eq!(
                dfa.shortest_match(&nfa, &hay[4_004..]),
                Some(16_001),
                "{pattern}"
            );
            assert_eq!(
                dfa.shortest_match(&nfa, &hay[20_005..]),
                Some(20_949),
                "{pattern}"
            );
            assert!(!dfa.is_match(&nfa, &hay[..4_003]), "{pattern}");
            assert_eq!(
                vm.find_at(&nfa, &hay, 0).map(|s| s.end),
                Some(4_004),
                "{pattern}"
            );
            assert_eq!(dfa.idle_pays, idles, "{pattern}");
        }
    }

    #[test]
    fn escape_words_are_told_apart_exactly() {
        let digits: Vec<u8> = (b'0'..=b'9').collect();
        for (pattern, leaving) in [
            (r"\d+x", digits.clone()),
            ("<[^>]*<", b"<".to_vec()),
            (r"\(\d|\d-", [&b"("[..], &digits].concat()),
            ("(a|c|e)q", b"ace".to_vec()),
        ] {
            let (_, dfa) = dfa_for(pattern);
            let escapes = dfa.escapes.expect(pattern);
            assert_eq!(escapes.len, leaving_runs(&leaving), "{pattern}");
            // Every byte in every lane, among fillers that are no escape;
            // `0xb0` differs from `0` only in its top bit.
            for filler in [b' ', b'z', 0xb0, 0xff] {
                for b in 0..=255u8 {
                    for lane in 0..WORD {
                        let mut word = [filler; WORD];
                        word[lane] = b;
                        let word = u64::from_le_bytes(word);
                        let want = leaving.contains(&b);
                        assert_eq!(escapes.hit::<ESCAPE_RANGES>(word), want, "{pattern} {b}");
                        let skipped = escapes.idle_len::<false>(&word.to_le_bytes());
                        assert_eq!(skipped == 0, want, "{pattern} {b}");
                    }
                }
            }
        }
        // Whole words only, from the front or from the back.
        let (_, dfa) = dfa_for(r"\d+x");
        let escapes = dfa.escapes.unwrap();
        assert_eq!(escapes.idle_len::<false>(b"0abcdefghijklmnopq"), 0);
        assert_eq!(escapes.idle_len::<true>(b"0abcdefghijklmnopq"), 16);
        assert_eq!(escapes.idle_len::<false>(b"abcdefghijklmnop7"), 16);
        // Four runs, a byte above ASCII, or none at all: no word test.
        for pattern in ["(a|c|e|g)q", "a.b|.c", "()"] {
            assert!(dfa_for(pattern).1.escapes.is_none(), "{pattern}");
        }
        // Anchored automata never idle in their start state.
        let nfa = Nfa::compile(&parse("ab").unwrap()).unwrap();
        assert!(LazyDfa::anchored(&nfa, DEFAULT_STATE_LIMIT)
            .escapes
            .is_none());
    }

    fn leaving_runs(bytes: &[u8]) -> usize {
        let mut class = ByteClass::EMPTY;
        bytes.iter().for_each(|&b| class.insert(b));
        class.ranges().len()
    }

    #[test]
    fn long_counted_repeat() {
        // The paper's `sigmod` query uses `.{0,200}`.
        let pat = r"a.{0,20}b";
        let (nfa, mut dfa) = dfa_for(pat);
        assert!(dfa.is_match(&nfa, b"a xxxxxxxxxx b"));
        assert!(!dfa.is_match(&nfa, b"a xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx b"));
    }

    #[test]
    fn state_count_stays_bounded() {
        let (nfa, mut dfa) = dfa_for("abc");
        for _ in 0..100 {
            dfa.is_match(&nfa, b"xxabcxx");
        }
        assert!(dfa.num_states() <= 8, "{}", dfa.num_states());
        assert_eq!(dfa.resets(), 0);
    }
}
