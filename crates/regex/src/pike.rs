//! A Pike-style virtual machine: simulates the Thompson NFA over a haystack
//! while tracking match *spans*, with leftmost-longest (POSIX) semantics.
//!
//! The VM is a *reference*, not a production tier. It carries a start
//! offset per thread, which makes leftmost-longest spans a direct reading
//! of the simulation — easy to audit, and an order of magnitude slower per byte
//! than a DFA. The production [`crate::Searcher`] gets the same spans
//! from three lazy DFAs ([`crate::dfa`]); the property tests hold the two
//! (and the backtracking [`crate::oracle`]) equal, and the Criterion
//! benches keep timing it as the baseline the DFA path is measured
//! against.

use crate::nfa::{Nfa, State, StateId};
use crate::Span;

/// A reusable NFA simulation. Holds scratch thread lists, so callers that
/// match many haystacks should reuse one `PikeVm`.
#[derive(Clone, Debug)]
pub struct PikeVm {
    clist: ThreadList,
    nlist: ThreadList,
    stack: Vec<(StateId, usize)>,
}

impl PikeVm {
    /// Creates a VM sized for `nfa`.
    pub fn new(nfa: &Nfa) -> PikeVm {
        PikeVm {
            clist: ThreadList::new(nfa.len()),
            nlist: ThreadList::new(nfa.len()),
            stack: Vec::new(),
        }
    }

    /// Finds the leftmost-longest match at or after `at`.
    pub fn find_at(&mut self, nfa: &Nfa, haystack: &[u8], at: usize) -> Option<Span> {
        self.clist.clear();
        self.nlist.clear();
        let mut best: Option<Span> = None;
        let mut pos = at;
        loop {
            // Seed a new potential match start unless one is already found
            // (any later start would be less leftmost).
            if best.is_none() && pos <= haystack.len() {
                Self::add_thread(&mut self.stack, &mut self.clist, nfa, nfa.start(), pos, pos);
            }
            if self.clist.is_empty() && (best.is_some() || pos >= haystack.len()) {
                break;
            }
            let byte = haystack.get(pos).copied();
            for i in 0..self.clist.len() {
                let (state, start) = self.clist.get(i);
                // Threads whose start is right of an established match can
                // never improve it.
                if let Some(b) = best {
                    if start > b.start {
                        continue;
                    }
                }
                match nfa.state(state) {
                    State::Class { class, next } => {
                        if let Some(b) = byte {
                            if nfa.class(class).contains(b) {
                                Self::add_thread(
                                    &mut self.stack,
                                    &mut self.nlist,
                                    nfa,
                                    next,
                                    start,
                                    pos + 1,
                                );
                            }
                        }
                    }
                    State::Match => {
                        best = Some(match best {
                            None => Span::new(start, pos),
                            Some(b) => {
                                if start < b.start || (start == b.start && pos > b.end) {
                                    Span::new(start, pos)
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    // Splits stay in the list as epsilon-closure visited
                    // markers; they carry no work of their own.
                    State::Split { .. } => {}
                }
            }
            core::mem::swap(&mut self.clist, &mut self.nlist);
            self.nlist.clear();
            if pos >= haystack.len() {
                // Final position processed (to catch matches ending at EOF).
                break;
            }
            pos += 1;
        }
        best
    }

    /// Returns `true` as soon as any match is found at or after `at`
    /// (shortest-match semantics; cheaper than [`PikeVm::find_at`]).
    pub fn is_match(&mut self, nfa: &Nfa, haystack: &[u8]) -> bool {
        if nfa.is_nullable() {
            return true;
        }
        self.clist.clear();
        self.nlist.clear();
        let mut pos = 0;
        loop {
            Self::add_thread(&mut self.stack, &mut self.clist, nfa, nfa.start(), 0, pos);
            let byte = haystack.get(pos).copied();
            for i in 0..self.clist.len() {
                let (state, _) = self.clist.get(i);
                match nfa.state(state) {
                    State::Match => return true,
                    State::Class { class, next } => {
                        if let Some(b) = byte {
                            if nfa.class(class).contains(b) {
                                Self::add_thread(
                                    &mut self.stack,
                                    &mut self.nlist,
                                    nfa,
                                    next,
                                    0,
                                    pos + 1,
                                );
                            }
                        }
                    }
                    State::Split { .. } => {}
                }
            }
            core::mem::swap(&mut self.clist, &mut self.nlist);
            self.nlist.clear();
            if pos >= haystack.len() {
                return false;
            }
            pos += 1;
        }
    }

    /// Adds `state`'s epsilon closure to `list`, each thread carrying
    /// `start`. When a state is already present, the thread with the
    /// smaller (more leftward) start wins.
    fn add_thread(
        stack: &mut Vec<(StateId, usize)>,
        list: &mut ThreadList,
        nfa: &Nfa,
        state: StateId,
        start: usize,
        _pos: usize,
    ) {
        stack.clear();
        stack.push((state, start));
        while let Some((s, st)) = stack.pop() {
            match list.start_of(s) {
                Some(existing) if existing <= st => continue,
                _ => {}
            }
            list.upsert(s, st);
            if let State::Split { a, b } = nfa.state(s) {
                stack.push((a, st));
                stack.push((b, st));
            }
        }
    }
}

/// A sparse set of NFA states, each with an associated match-start position.
#[derive(Clone, Debug)]
struct ThreadList {
    /// Dense list of live state ids, in insertion order.
    dense: Vec<StateId>,
    /// `sparse[s]` is the index into `dense` for state `s`, if live.
    sparse: Vec<u32>,
    /// Start position per dense slot.
    starts: Vec<usize>,
}

const NOT_PRESENT: u32 = u32::MAX;

impl ThreadList {
    fn new(states: usize) -> ThreadList {
        ThreadList {
            dense: Vec::with_capacity(states),
            sparse: vec![NOT_PRESENT; states],
            starts: Vec::with_capacity(states),
        }
    }

    fn clear(&mut self) {
        for &s in &self.dense {
            self.sparse[s as usize] = NOT_PRESENT;
        }
        self.dense.clear();
        self.starts.clear();
    }

    fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    fn len(&self) -> usize {
        self.dense.len()
    }

    fn get(&self, i: usize) -> (StateId, usize) {
        (self.dense[i], self.starts[i])
    }

    fn start_of(&self, state: StateId) -> Option<usize> {
        let idx = self.sparse[state as usize];
        if idx == NOT_PRESENT {
            None
        } else {
            Some(self.starts[idx as usize])
        }
    }

    /// Inserts `state` or lowers its start if already present.
    fn upsert(&mut self, state: StateId, start: usize) {
        let idx = self.sparse[state as usize];
        if idx == NOT_PRESENT {
            self.sparse[state as usize] = self.dense.len() as u32;
            self.dense.push(state);
            self.starts.push(start);
        } else if self.starts[idx as usize] > start {
            self.starts[idx as usize] = start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::parser::parse;

    fn find(pattern: &str, haystack: &[u8]) -> Option<Span> {
        let nfa = Nfa::compile(&parse(pattern).unwrap()).unwrap();
        PikeVm::new(&nfa).find_at(&nfa, haystack, 0)
    }

    fn matches(pattern: &str, haystack: &[u8]) -> bool {
        let nfa = Nfa::compile(&parse(pattern).unwrap()).unwrap();
        PikeVm::new(&nfa).is_match(&nfa, haystack)
    }

    #[test]
    fn literal_find() {
        assert_eq!(find("abc", b"xxabcxx"), Some(Span::new(2, 5)));
        assert_eq!(find("abc", b"ab"), None);
        assert_eq!(find("abc", b""), None);
    }

    #[test]
    fn match_at_start_and_end() {
        assert_eq!(find("ab", b"abxx"), Some(Span::new(0, 2)));
        assert_eq!(find("ab", b"xxab"), Some(Span::new(2, 4)));
        assert_eq!(find("a", b"a"), Some(Span::new(0, 1)));
    }

    #[test]
    fn leftmost_longest() {
        // Leftmost: earliest start wins even if a later match is longer.
        assert_eq!(find("a+|bbbb", b"a bbbb"), Some(Span::new(0, 1)));
        // Longest: among same start, longest wins.
        assert_eq!(find("a|ab|abc", b"abc"), Some(Span::new(0, 3)));
        assert_eq!(find("ab*", b"abbbc"), Some(Span::new(0, 4)));
    }

    #[test]
    fn greedy_star_spans_maximally() {
        assert_eq!(find("<.*>", b"x<a><b>y"), Some(Span::new(1, 7)));
        assert_eq!(find("<[^>]*>", b"x<a><b>y"), Some(Span::new(1, 4)));
    }

    #[test]
    fn empty_pattern_matches_empty_at_zero() {
        assert_eq!(find("", b"abc"), Some(Span::new(0, 0)));
        assert_eq!(find("a*", b"bbb"), Some(Span::new(0, 0)));
        assert_eq!(find("", b""), Some(Span::new(0, 0)));
    }

    #[test]
    fn nullable_pattern_prefers_nonempty_at_same_start() {
        // At position 0, a* can match "" or "aaa"; longest wins.
        assert_eq!(find("a*", b"aaab"), Some(Span::new(0, 3)));
    }

    #[test]
    fn alternation_branches() {
        assert_eq!(find("cat|dog", b"hotdog"), Some(Span::new(3, 6)));
        assert_eq!(find("cat|dog", b"concat"), Some(Span::new(3, 6)));
        assert!(find("cat|dog", b"bird").is_none());
    }

    #[test]
    fn counted_repetition() {
        assert_eq!(find("a{3}", b"aa"), None);
        assert_eq!(find("a{3}", b"aaaa"), Some(Span::new(0, 3)));
        assert_eq!(find("a{2,3}", b"aaaa"), Some(Span::new(0, 3)));
        assert_eq!(find("ba{1,2}b", b"xbaab"), Some(Span::new(1, 5)));
    }

    #[test]
    fn classes_and_shorthands() {
        assert_eq!(find(r"\d+", b"abc123def"), Some(Span::new(3, 6)));
        assert_eq!(find(r"[a-c]+", b"zzabcaz"), Some(Span::new(2, 6)));
        assert_eq!(find(r"\s", b"ab cd"), Some(Span::new(2, 3)));
    }

    #[test]
    fn find_at_offset() {
        let nfa = Nfa::compile(&parse("ab").unwrap()).unwrap();
        let mut vm = PikeVm::new(&nfa);
        assert_eq!(vm.find_at(&nfa, b"abxab", 1), Some(Span::new(3, 5)));
        assert_eq!(vm.find_at(&nfa, b"abxab", 4), None);
    }

    #[test]
    fn is_match_agrees_with_find() {
        let cases = [
            ("abc", &b"xxabc"[..], true),
            ("abc", b"xxab", false),
            ("a*", b"", true),
            (r"\d{5}", b"zip 90210 ok", true),
            (r"\d{5}", b"zip 9021 ok", false),
        ];
        for (pat, hay, want) in cases {
            assert_eq!(matches(pat, hay), want, "{pat} on {hay:?}");
            assert_eq!(find(pat, hay).is_some(), want, "{pat} on {hay:?}");
        }
    }

    #[test]
    fn paper_example_mp3() {
        let pat = r#"<a href=("|')?.*\.mp3("|')?>"#;
        let hay = br#"<html><a href="songs/track01.mp3">dl</a></html>"#;
        let m = find(pat, hay).expect("must match");
        assert_eq!(&hay[m.range()][..8], b"<a href=");
    }

    #[test]
    fn paper_example_clinton() {
        let pat = r"william\s+[a-z]+\s+clinton";
        let hay = b"president william jefferson clinton spoke";
        let m = find(pat, hay).unwrap();
        assert_eq!(&hay[m.range()], b"william jefferson clinton");
    }

    #[test]
    fn pathological_useless_grams_query() {
        // Example 3.5 from the paper: bb.*cc.*dd.+zz
        let pat = "bb.*cc.*dd.+zz";
        assert!(matches(pat, b"bb cc dd x zz"));
        assert!(!matches(pat, b"bb cc ddzz")); // `.+` needs one byte
        assert!(!matches(pat, b"zz dd cc bb"));
    }
}
