//! An eagerly-built, fully-materialized DFA with Hopcroft minimization.
//!
//! Where the lazy DFA ([`crate::dfa`]) builds states on demand, this module
//! performs the classic ahead-of-time pipeline (Hopcroft & Ullman, reference
//! \[17\] of the paper): subset construction over the byte-class-compressed
//! alphabet, then Hopcroft's `O(n log n)` partition refinement. The result
//! is a flat transition table with no hashing on the search path — the
//! fastest option when the automaton is known to be small, and a
//! cross-check oracle for the lazy DFA in tests.

use crate::error::{Error, ErrorKind, Result};
use crate::nfa::{Nfa, State, StateId};
use rustc_hash::FxHashMap;

/// Default bound on constructed DFA states.
pub const DEFAULT_STATE_LIMIT: usize = 50_000;

/// Sentinel for the dead state in the transition table.
const DEAD: u32 = u32::MAX;

/// A dense, eagerly-determinized automaton for unanchored containment
/// search.
#[derive(Clone, Debug)]
pub struct DenseDfa {
    /// `transitions[state * stride + class]`, `DEAD` meaning no transition.
    transitions: Vec<u32>,
    is_match: Vec<bool>,
    /// Maps haystack bytes to alphabet classes.
    byte_class: [u16; 256],
    stride: usize,
    start: u32,
}

impl DenseDfa {
    /// Builds an unanchored DFA from `nfa` with the default state limit.
    pub fn build(nfa: &Nfa) -> Result<DenseDfa> {
        DenseDfa::build_with_limit(nfa, DEFAULT_STATE_LIMIT)
    }

    /// Builds an unanchored DFA, failing if more than `limit` states arise.
    pub fn build_with_limit(nfa: &Nfa, limit: usize) -> Result<DenseDfa> {
        let stride = nfa.num_byte_classes() as usize;
        let reps = nfa.byte_class_representatives();
        let mut cache: FxHashMap<Box<[StateId]>, u32> = FxHashMap::default();
        let mut sets: Vec<Box<[StateId]>> = Vec::new();
        let mut transitions: Vec<u32> = Vec::new();
        let mut is_match: Vec<bool> = Vec::new();
        let mut seen = vec![false; nfa.len()];

        let mut start_set = Vec::new();
        seen.iter_mut().for_each(|s| *s = false);
        let mut stack = Vec::new();
        nfa.epsilon_closure_into(nfa.start(), &mut start_set, &mut seen, &mut stack);
        start_set.sort_unstable();

        let mut intern = |set: Box<[StateId]>,
                          sets: &mut Vec<Box<[StateId]>>,
                          is_match: &mut Vec<bool>,
                          transitions: &mut Vec<u32>|
         -> u32 {
            if let Some(&id) = cache.get(&set) {
                return id;
            }
            let id = sets.len() as u32;
            is_match.push(set.iter().any(|&s| matches!(nfa.state(s), State::Match)));
            transitions.extend(std::iter::repeat_n(DEAD, stride));
            sets.push(set.clone());
            cache.insert(set, id);
            id
        };

        let start = intern(
            start_set.into_boxed_slice(),
            &mut sets,
            &mut is_match,
            &mut transitions,
        );
        let mut work = vec![start];
        while let Some(id) = work.pop() {
            if sets.len() > limit {
                return Err(Error::new(
                    ErrorKind::ProgramTooLarge {
                        states: sets.len(),
                        limit,
                    },
                    0,
                    "",
                ));
            }
            let current = sets[id as usize].clone();
            for (class, &rep) in reps.iter().enumerate() {
                let mut next_set = Vec::new();
                seen.iter_mut().for_each(|s| *s = false);
                // Unanchored search: the pattern can restart at any byte.
                nfa.epsilon_closure_into(nfa.start(), &mut next_set, &mut seen, &mut stack);
                for &s in current.iter() {
                    if let State::Class { class: c, next } = nfa.state(s) {
                        if nfa.class(c).contains(rep) {
                            nfa.epsilon_closure_into(next, &mut next_set, &mut seen, &mut stack);
                        }
                    }
                }
                next_set.sort_unstable();
                next_set.dedup();
                let before = sets.len();
                let next_id = intern(
                    next_set.into_boxed_slice(),
                    &mut sets,
                    &mut is_match,
                    &mut transitions,
                );
                if sets.len() > before {
                    work.push(next_id);
                }
                transitions[id as usize * stride + class] = next_id;
            }
        }

        let mut byte_class = [0u16; 256];
        for b in 0..=255u8 {
            byte_class[b as usize] = nfa.byte_class(b);
        }
        Ok(DenseDfa {
            transitions,
            is_match,
            byte_class,
            stride,
            start,
        })
    }

    /// Number of states in the automaton.
    pub fn num_states(&self) -> usize {
        self.is_match.len()
    }

    /// Returns the end offset of the leftmost shortest match, if any.
    pub fn shortest_match(&self, haystack: &[u8]) -> Option<usize> {
        let mut state = self.start;
        if self.is_match[state as usize] {
            return Some(0);
        }
        for (pos, &b) in haystack.iter().enumerate() {
            let class = self.byte_class[b as usize] as usize;
            state = self.transitions[state as usize * self.stride + class];
            debug_assert_ne!(state, DEAD, "unanchored DFA has no dead states");
            if self.is_match[state as usize] {
                return Some(pos + 1);
            }
        }
        None
    }

    /// Whether `haystack` contains a match.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.shortest_match(haystack).is_some()
    }

    /// Minimizes the DFA with Hopcroft's partition-refinement algorithm.
    /// Returns a new automaton accepting the same language with the minimum
    /// number of states.
    pub fn minimize(&self) -> DenseDfa {
        let n = self.num_states();
        let stride = self.stride;
        if n <= 1 {
            return self.clone();
        }

        // Reverse transition lists: rev[class][target] = sources.
        let mut rev: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; stride];
        for s in 0..n {
            for (c, rev_c) in rev.iter_mut().enumerate() {
                let t = self.transitions[s * stride + c];
                debug_assert_ne!(t, DEAD);
                rev_c[t as usize].push(s as u32);
            }
        }

        // Initial partition: accepting vs non-accepting.
        let mut block_of: Vec<u32> = vec![0; n];
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for (s, block) in block_of.iter_mut().enumerate() {
            let b = usize::from(self.is_match[s]);
            *block = b as u32;
            blocks[b].push(s as u32);
        }
        if blocks[1].is_empty() || blocks[0].is_empty() {
            blocks.retain(|b| !b.is_empty());
            block_of.fill(0);
        }

        // Worklist of (block, class) pairs.
        let mut work: Vec<(u32, usize)> = Vec::new();
        for b in 0..blocks.len() {
            for c in 0..stride {
                work.push((b as u32, c));
            }
        }

        while let Some((b, c)) = work.pop() {
            // States with a transition on `c` into block `b`.
            let mut incoming: Vec<u32> = Vec::new();
            for &t in &blocks[b as usize] {
                incoming.extend_from_slice(&rev[c][t as usize]);
            }
            if incoming.is_empty() {
                continue;
            }
            // Group the incoming states by their current block.
            let mut touched: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for s in incoming {
                touched.entry(block_of[s as usize]).or_default().push(s);
            }
            for (blk, movers) in touched {
                let blk_len = blocks[blk as usize].len();
                if movers.len() == blk_len {
                    continue; // the whole block moves: no split
                }
                // Split `blk` into movers and stayers.
                let new_id = blocks.len() as u32;
                let mover_set: std::collections::HashSet<u32> = movers.iter().copied().collect();
                let old: Vec<u32> = blocks[blk as usize]
                    .iter()
                    .copied()
                    .filter(|s| !mover_set.contains(s))
                    .collect();
                blocks[blk as usize] = old;
                for &s in &movers {
                    block_of[s as usize] = new_id;
                }
                blocks.push(movers);
                // Hopcroft: enqueue the smaller half for every class.
                let smaller = if blocks[blk as usize].len() < blocks[new_id as usize].len() {
                    blk
                } else {
                    new_id
                };
                for cc in 0..stride {
                    work.push((smaller, cc));
                }
            }
        }

        // Rebuild the automaton over blocks.
        let num_blocks = blocks.len();
        let mut transitions = vec![DEAD; num_blocks * stride];
        let mut is_match = vec![false; num_blocks];
        for (bid, members) in blocks.iter().enumerate() {
            let rep = members[0] as usize;
            is_match[bid] = self.is_match[rep];
            for c in 0..stride {
                let t = self.transitions[rep * stride + c];
                transitions[bid * stride + c] = block_of[t as usize];
            }
        }
        DenseDfa {
            transitions,
            is_match,
            byte_class: self.byte_class,
            stride,
            start: block_of[self.start as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::parser::parse;
    use crate::pike::PikeVm;

    fn build(pattern: &str) -> DenseDfa {
        let nfa = Nfa::compile(&parse(pattern).unwrap()).unwrap();
        DenseDfa::build(&nfa).unwrap()
    }

    #[test]
    fn literal() {
        let d = build("abc");
        assert!(d.is_match(b"xxabcxx"));
        assert!(!d.is_match(b"xxacbxx"));
        assert_eq!(d.shortest_match(b"abc"), Some(3));
    }

    #[test]
    fn nullable() {
        let d = build("a*");
        assert_eq!(d.shortest_match(b"zzz"), Some(0));
    }

    #[test]
    fn agrees_with_pike_and_lazy() {
        let patterns = ["a(b|c)*d", r"\d{2,3}x", "(foo|bar|baz)qux?", "[^a]b"];
        let haystacks: &[&[u8]] = &[
            b"",
            b"abcbcbcd",
            b"12x",
            b"1234x",
            b"barqu",
            b"bazquxx",
            b"ab",
            b"xb",
            b"zzabcbdzz",
        ];
        for pat in patterns {
            let nfa = Nfa::compile(&parse(pat).unwrap()).unwrap();
            let dense = DenseDfa::build(&nfa).unwrap();
            let mut lazy = crate::dfa::LazyDfa::new(&nfa);
            let mut vm = PikeVm::new(&nfa);
            for hay in haystacks {
                let want = vm.is_match(&nfa, hay);
                assert_eq!(dense.is_match(hay), want, "dense {pat} {hay:?}");
                assert_eq!(lazy.is_match(&nfa, hay), want, "lazy {pat} {hay:?}");
            }
        }
    }

    #[test]
    fn state_limit() {
        let nfa = Nfa::compile(&parse("(a|b|c|d){1,30}z").unwrap()).unwrap();
        let err = DenseDfa::build_with_limit(&nfa, 3).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ProgramTooLarge { .. }));
    }

    #[test]
    fn minimize_preserves_language() {
        let patterns = ["abc", "a(b|c)*d", "(ab|ac)", r"\d\d", "x+y+"];
        let haystacks: &[&[u8]] = &[
            b"abc", b"ab", b"ad", b"abbbcd", b"ac", b"42", b"4", b"xxyy", b"xy", b"yx", b"",
            b"zzabczz",
        ];
        for pat in patterns {
            let d = build(pat);
            let m = d.minimize();
            assert!(m.num_states() <= d.num_states(), "{pat}");
            for hay in haystacks {
                assert_eq!(
                    d.is_match(hay),
                    m.is_match(hay),
                    "pattern {pat} haystack {hay:?}"
                );
                assert_eq!(
                    d.shortest_match(hay),
                    m.shortest_match(hay),
                    "{pat} {hay:?}"
                );
            }
        }
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        // `abc|xbc`: subset construction keeps the two `b`/`c` chains
        // separate (different NFA state ids) although their languages are
        // identical; minimization must merge them.
        let d = build("abc|xbc");
        let m = d.minimize();
        assert!(
            m.num_states() < d.num_states(),
            "{} !< {}",
            m.num_states(),
            d.num_states()
        );
    }

    #[test]
    fn minimize_idempotent() {
        let d = build("a(b|c)+d").minimize();
        let m = d.minimize();
        assert_eq!(d.num_states(), m.num_states());
    }
}
