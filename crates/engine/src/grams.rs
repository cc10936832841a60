//! Multi-pattern gram matching: a from-scratch Aho-Corasick automaton.
//!
//! The final index-construction scan must, for every data unit, find which
//! of the selected gram keys occur in it (to emit postings). Probing a hash
//! set at every position × every length is `O(len · max_gram_len)` hash
//! work; an Aho-Corasick automaton does it in `O(len)` byte transitions,
//! the same trick production string engines use. Matches are reported once
//! per `(pattern, document)` via a stamp vector, because the paper's
//! postings record *data units containing* a gram, not occurrences.
//!
//! The automaton is a handful of flat arrays. States are numbered
//! breadth-first over the sorted patterns, so the children of a state are
//! consecutive states and a transition is a search of one short run of
//! the label array; the root, the only state with up to 256 children,
//! has a dense row instead.

/// One automaton state. The children of state `s` are the states
/// `states[s].children..states[s + 1].children`, and the patterns ending
/// exactly at `s` are `pattern_ids[states[s].patterns..states[s +
/// 1].patterns]`; a sentinel state closes the last range of each.
#[derive(Clone, Copy, Debug)]
struct State {
    /// Id of the first child.
    children: u32,
    /// Failure link: the longest proper suffix of this state's string
    /// that is also a state.
    fail: u32,
    /// The nearest state along the failure chain, this one included, at
    /// which a pattern ends; 0 (the root, where none does) if there is
    /// none.
    report: u32,
    /// Start of this state's run in `pattern_ids`.
    patterns: u32,
}

/// A set of byte patterns compiled into an Aho-Corasick automaton.
#[derive(Clone, Debug)]
pub struct GramMatcher {
    /// Transitions out of the root for every byte (0: stay at the root).
    root: Vec<u32>,
    /// Every state in breadth-first order, then the sentinel.
    states: Vec<State>,
    /// `labels[s]`: the byte on the edge into state `s`. Sorted within
    /// each run of siblings.
    labels: Vec<u8>,
    /// Pattern indices grouped by the state they end at.
    pattern_ids: Vec<u32>,
    /// per-pattern "seen in current doc" stamps.
    stamps: Vec<u64>,
}

impl GramMatcher {
    /// Builds the automaton from `patterns`. Empty patterns are rejected
    /// by debug assertion (grams are never empty) and never match.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> GramMatcher {
        let pattern = |i: u32| patterns[i as usize].as_ref();
        // Sorted, the patterns below any trie node are one contiguous
        // range, split by the next byte into the ranges of its children.
        let mut order: Vec<u32> = (0..patterns.len() as u32)
            .filter(|&i| {
                debug_assert!(!pattern(i).is_empty(), "gram patterns must be non-empty");
                !pattern(i).is_empty()
            })
            .collect();
        order.sort_by(|&a, &b| pattern(a).cmp(pattern(b)));

        // The trie: `pending[s]` is the range of `order` below state `s`.
        let mut pending: Vec<(usize, usize)> = vec![(0, order.len())];
        let mut states: Vec<State> = Vec::new();
        let mut labels: Vec<u8> = vec![0];
        let mut pattern_ids: Vec<u32> = Vec::with_capacity(order.len());
        let mut depth_end = 1; // first state of the next depth
        let mut depth = 0;
        let mut s = 0;
        while s < pending.len() {
            if s == depth_end {
                depth += 1;
                depth_end = pending.len();
            }
            let (mut next, end) = pending[s];
            states.push(State {
                children: pending.len() as u32,
                fail: 0,
                report: 0,
                patterns: pattern_ids.len() as u32,
            });
            // Patterns that end here sort before their extensions.
            while next < end && pattern(order[next]).len() == depth {
                pattern_ids.push(order[next]);
                next += 1;
            }
            while next < end {
                let byte = pattern(order[next])[depth];
                let run = order[next..end]
                    .iter()
                    .take_while(|&&i| pattern(i)[depth] == byte)
                    .count();
                labels.push(byte);
                pending.push((next, next + run));
                next += run;
            }
            s += 1;
        }
        let num_states = states.len();
        states.push(State {
            children: num_states as u32,
            fail: 0,
            report: 0,
            patterns: pattern_ids.len() as u32,
        });

        let mut root = vec![0u32; 256];
        for child in states[0].children..states[1].children {
            root[labels[child as usize] as usize] = child;
        }
        let mut matcher = GramMatcher {
            root,
            states,
            labels,
            pattern_ids,
            stamps: vec![u64::MAX; patterns.len()],
        };
        // Failure and report links, shallow states first: a state's links
        // lead to strictly shallower states, which are already final. The
        // children of the root keep `fail == 0`.
        for s in 1..num_states {
            let here = matcher.states[s];
            let ends_here = here.patterns != matcher.states[s + 1].patterns;
            matcher.states[s].report = if ends_here {
                s as u32
            } else {
                matcher.states[here.fail as usize].report
            };
            for child in here.children..matcher.states[s + 1].children {
                matcher.states[child as usize].fail =
                    matcher.step(here.fail, matcher.labels[child as usize]);
            }
        }
        matcher
    }

    /// Number of patterns in the automaton.
    pub fn num_patterns(&self) -> usize {
        self.stamps.len()
    }

    /// Number of automaton states (for diagnostics).
    pub fn num_states(&self) -> usize {
        self.states.len() - 1
    }

    #[inline]
    fn step(&self, mut state: u32, b: u8) -> u32 {
        while state != 0 {
            let first = self.states[state as usize].children as usize;
            let end = self.states[state as usize + 1].children as usize;
            if let Some(i) = self.labels[first..end].iter().position(|&l| l == b) {
                return (first + i) as u32;
            }
            state = self.states[state as usize].fail;
        }
        self.root[b as usize]
    }

    /// Scans `haystack` and invokes `on_match(pattern_index)` once for
    /// each *distinct* pattern found. `doc_stamp` must be unique per call
    /// scope (e.g. the document id) — it powers occurrence deduplication
    /// without clearing state between documents.
    pub fn match_distinct(
        &mut self,
        haystack: &[u8],
        doc_stamp: u64,
        on_match: &mut dyn FnMut(u32),
    ) {
        debug_assert_ne!(
            doc_stamp,
            u64::MAX,
            "u64::MAX is the unstamped sentinel and would suppress matches"
        );
        let mut state = 0u32;
        for &b in haystack {
            state = self.step(state, b);
            let mut at = self.states[state as usize].report as usize;
            while at != 0 {
                let ending =
                    self.states[at].patterns as usize..self.states[at + 1].patterns as usize;
                for &pi in &self.pattern_ids[ending] {
                    if self.stamps[pi as usize] != doc_stamp {
                        self.stamps[pi as usize] = doc_stamp;
                        on_match(pi);
                    }
                }
                at = self.states[self.states[at].fail as usize].report as usize;
            }
        }
    }

    /// Convenience: the distinct pattern indices in `haystack`, sorted.
    pub fn distinct_patterns(&mut self, haystack: &[u8], doc_stamp: u64) -> Vec<u32> {
        let mut out = Vec::new();
        self.match_distinct(haystack, doc_stamp, &mut |pi| out.push(pi));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(patterns: &[&str], haystack: &str) -> Vec<String> {
        let mut m = GramMatcher::new(patterns);
        m.distinct_patterns(haystack.as_bytes(), 1)
            .into_iter()
            .map(|pi| patterns[pi as usize].to_string())
            .collect()
    }

    #[test]
    fn single_pattern() {
        assert_eq!(find(&["abc"], "xxabcxx"), vec!["abc"]);
        assert!(find(&["abc"], "xxabxcx").is_empty());
    }

    #[test]
    fn multiple_patterns_distinct() {
        let got = find(&["he", "she", "his", "hers"], "ushers");
        assert_eq!(got, vec!["he", "she", "hers"]);
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let got = find(&["a", "ab", "abc", "bc"], "abc");
        assert_eq!(got, vec!["a", "ab", "abc", "bc"]);
    }

    #[test]
    fn repeated_occurrences_reported_once() {
        let mut m = GramMatcher::new(&["ab"]);
        let mut count = 0;
        m.match_distinct(b"ababab", 7, &mut |_| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn stamps_isolate_documents() {
        let mut m = GramMatcher::new(&["xy"]);
        assert_eq!(m.distinct_patterns(b"xy", 1).len(), 1);
        // Same stamp: suppressed (simulates same doc scanned twice).
        assert_eq!(m.distinct_patterns(b"xy", 1).len(), 0);
        // New stamp: reported again.
        assert_eq!(m.distinct_patterns(b"xy", 2).len(), 1);
    }

    #[test]
    fn empty_haystack_and_no_patterns() {
        let mut m = GramMatcher::new::<&[u8]>(&[]);
        assert_eq!(m.num_patterns(), 0);
        m.match_distinct(b"anything", 1, &mut |_| panic!("no patterns"));
        let mut m = GramMatcher::new(&["x"]);
        m.match_distinct(b"", 1, &mut |_| panic!("empty haystack"));
    }

    #[test]
    fn binary_patterns() {
        let patterns: Vec<Vec<u8>> = vec![vec![0u8, 255], vec![255, 0]];
        let mut m = GramMatcher::new(&patterns);
        let hits = m.distinct_patterns(&[1u8, 0, 255, 0, 2], 1);
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn agrees_with_naive_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..50 {
            let num_pats = rng.gen_range(1..8);
            let patterns: Vec<Vec<u8>> = (0..num_pats)
                .map(|_| {
                    (0..rng.gen_range(1..5))
                        .map(|_| b"ab"[rng.gen_range(0..2)])
                        .collect()
                })
                .collect();
            let haystack: Vec<u8> = (0..rng.gen_range(0..40))
                .map(|_| b"ab"[rng.gen_range(0..2)])
                .collect();
            let mut m = GramMatcher::new(&patterns);
            let got = m.distinct_patterns(&haystack, round);
            let want: Vec<u32> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| haystack.windows(p.len()).any(|w| w == &p[..]))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "patterns {patterns:?} haystack {haystack:?}");
        }
    }

    #[test]
    fn long_haystack_and_many_patterns() {
        // Cross-check against contains() on a larger haystack.
        let patterns: Vec<String> = (0..60).map(|i| format!("tok{i:02}")).collect();
        let mut hay = String::new();
        for i in (0..60).step_by(3) {
            hay.push_str(&format!("padding tok{i:02} more padding "));
        }
        let mut m = GramMatcher::new(&patterns);
        let got = m.distinct_patterns(hay.as_bytes(), 1);
        let want: Vec<u32> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| hay.contains(p.as_str()))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_patterns_each_reported() {
        // Two identical patterns: both indices fire.
        let got = find(&["aa", "aa"], "aa");
        assert_eq!(got.len(), 2);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The shape the build feeds it: a mined (prefix-free, heavily
        /// prefix-sharing) key set, here over text and binary bytes, plus
        /// repeated patterns and patterns nested in others.
        #[test]
        fn agrees_with_windows_on_mined_key_sets(
            docs in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(b' '), Just(0u8), Just(255u8)],
                    0..48,
                ),
                1..12,
            ),
            threshold in 0usize..6,
            repeated in 0usize..4,
        ) {
            let corpus = free_corpus::MemCorpus::from_docs(docs.clone());
            let config = free_select::SelectConfig {
                usefulness_threshold: ((threshold as f64 + 0.5) / docs.len() as f64).min(1.0),
                ..free_select::SelectConfig::default()
            };
            let mined = free_select::mine_multigrams(&corpus, &config).unwrap();
            let mut patterns: Vec<Vec<u8>> = mined.grams.iter().map(|g| g.gram.to_vec()).collect();
            for i in 0..repeated.min(patterns.len()) {
                let again = patterns[i * 7 % patterns.len()].clone();
                // A proper suffix, when there is one: a pattern inside a pattern.
                patterns.push(again[again.len() / 2..].to_vec());
                patterns.push(again);
            }
            let mut m = GramMatcher::new(&patterns);
            prop_assert_eq!(m.num_patterns(), patterns.len());
            let prefixes: std::collections::BTreeSet<&[u8]> = patterns
                .iter()
                .flat_map(|p| (1..=p.len()).map(move |cut| &p[..cut]))
                .collect();
            prop_assert_eq!(m.num_states(), prefixes.len() + 1, "one state per distinct prefix");
            for (stamp, doc) in docs.iter().enumerate() {
                let want: Vec<u32> = patterns
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| doc.windows(p.len()).any(|w| w == &p[..]))
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(m.distinct_patterns(doc, stamp as u64), want, "doc {:?}", doc);
            }
        }
    }
}
