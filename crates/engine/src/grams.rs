//! Multi-pattern gram matching: an Aho-Corasick automaton compiled into a
//! DFA over the trie's internal states.
//!
//! The final index-construction scan must, for every data unit, find which
//! of the selected gram keys occur in it (to emit postings). Probing a hash
//! set at every position × every length is `O(len · max_gram_len)` hash
//! work; an Aho-Corasick automaton does it in `O(len)` byte transitions,
//! the same trick production string engines use. Matches are reported once
//! per `(pattern, document)` via a stamp vector, because the paper's
//! postings record *data units containing* a gram, not occurrences.
//!
//! Every transition is precomputed, so a byte costs one table lookup and
//! no failure-link walk. Only the trie's *internal* states (those with a
//! child) have a row: a mined dictionary is prefix free, so every key ends
//! at a leaf, and most states are leaves. A transition into a state that
//! reports patterns is flagged and names a *report*: the patterns to
//! report (the state's own and those along its failure chain, flattened)
//! and the row to resume at — the state's own if it is internal, else
//! that of the nearest internal state on its failure chain, which is where
//! every transition out of the leaf goes. Columns are byte classes: one
//! per byte some pattern uses, and one for every other byte, all of which
//! lead back to the root.
//!
//! The scan has no branch on the data. A step selects the next row from
//! the transition and its report's resume row by a mask, and writes the
//! report index to a pending buffer that advances only when the
//! transition reports; after each block the pending reports go through
//! the stamps. A walk is one chain of dependent loads, so the haystack is
//! cut into `STRIPES` stripes walked in lockstep, each starting at the
//! root one longest pattern (less a byte) before its cut, which makes the
//! overlap exact (see `stripe_starts`). A haystack too short for
//! stripes runs as one stripe through the same loop.

use std::ops::Range;

/// Set on a transition whose target reports patterns: the other bits
/// index `reports`. When clear, the entry is the target's row offset.
const REPORT: u32 = 1 << 31;

/// What a transition into a reporting state does.
#[derive(Clone, Copy, Debug)]
struct Report {
    /// Row offset the scan continues from.
    resume: u32,
    /// Start of the state's patterns in `outputs`; the next report's
    /// `start` ends them (a sentinel closes the last).
    start: u32,
}

/// A set of byte patterns compiled into an Aho-Corasick DFA.
#[derive(Clone, Debug)]
pub struct GramMatcher {
    /// The column of every byte.
    class: [u8; 256],
    /// The transitions of the internal states, one row of `classes`
    /// entries each, in breadth-first order; the root's row is first.
    delta: Vec<u32>,
    /// One per reporting state, then a sentinel.
    reports: Vec<Report>,
    /// Pattern indices, grouped by the reporting state they belong to.
    outputs: Vec<u32>,
    /// Trie states, internal and leaves, the root included.
    num_states: usize,
    /// Leaves, and the keys a transition into one reports, summed.
    leaves: usize,
    leaf_keys: usize,
    /// Per pattern, the number of the last scan that reported it.
    stamps: Vec<u32>,
    /// Scans are numbered by distinct consecutive `doc_stamp`s: the
    /// last scan's number, and its `doc_stamp`.
    scan: (u32, u64),
    /// The longest pattern's length: how far back of its cut a stripe
    /// starts.
    longest: usize,
    /// The reports each stripe found in the current block, `BLOCK`
    /// entries per stripe, drained through `stamps` after the block.
    pending: Vec<u32>,
}

/// Walks that step in lockstep over one haystack. A walk is one chain of
/// dependent table loads; interleaved, each walk's loads fill the others'
/// waits. Matching 1944 benchmark pages against the 22 k-key shell
/// (medians of 12 alternating processes on 2 vCPUs), the branch-free step
/// read 9.6 ns a byte with two stripes, 7.5 with four and 5.9 with eight,
/// against 14.9 for the branching one-walk loop it replaced; with one
/// stripe it read 17.1 against 16.1 (8 processes). Four take most of the
/// gain; eight re-walk twice the overlaps and cut only haystacks four
/// times as long.
const STRIPES: usize = 4;

/// Bytes each stripe walks between two drains of its pending reports:
/// the pending buffer holds `STRIPES * BLOCK` report indices (4 KiB),
/// whatever the haystack's length.
const BLOCK: usize = 256;

/// The shortest haystack the walk cuts into stripes, for a longest
/// pattern of `longest` bytes. Below it the overlaps would be a large
/// share of the walk; it also keeps every stripe inside the haystack,
/// which needs `n >= longest - 1 + (STRIPES - 1)^2`.
fn striped_from(longest: usize) -> usize {
    STRIPES * STRIPES * longest.max(1)
}

/// Where the striped walk starts each stripe, and the bytes every stripe
/// walks, for a haystack of `n` bytes and a longest pattern of `longest`;
/// `None` below [`striped_from`].
///
/// Stripe `k < STRIPES - 1` starts at `k * step`, the last ends at `n`,
/// and each overlaps the one before by at least `longest - 1` bytes. So
/// an occurrence that sticks out of the last stripe starting at or
/// before it lies whole in the next one, and a walk started at the root
/// sees it; what the overlaps report twice, the stamps drop.
fn stripe_starts(n: usize, longest: usize) -> Option<([usize; STRIPES], usize)> {
    if n < striped_from(longest) {
        return None;
    }
    let overlap = longest.max(1) - 1;
    let len = (n + (STRIPES - 1) * overlap).div_ceil(STRIPES);
    let step = len - overlap;
    let starts = std::array::from_fn(|k| if k + 1 < STRIPES { k * step } else { n - len });
    Some((starts, len))
}

/// Calls `f(byte, child, own)` for every child of the trie state whose
/// patterns are `below` (sorted, sharing their first `depth` bytes), in
/// byte order: `below[child]` are the patterns below the child, and the
/// first `own` of them end there.
fn for_each_child<P: AsRef<[u8]>>(
    patterns: &[P],
    below: &[u32],
    depth: usize,
    mut f: impl FnMut(u8, Range<usize>, usize),
) {
    let pattern = |i: u32| patterns[i as usize].as_ref();
    // A linear scan, not a binary search: each pattern is looked at once
    // per depth, and most ranges are short.
    let count = |run: &[u32], same: &dyn Fn(&[u8]) -> bool| {
        run.iter().take_while(|&&i| same(pattern(i))).count()
    };
    // Patterns that end at the state itself sort before their extensions.
    let mut start = count(below, &|p| p.len() == depth);
    while let Some(&first) = below.get(start) {
        let byte = pattern(first)[depth];
        let end = start + count(&below[start..], &|p| p[depth] == byte);
        f(
            byte,
            start..end,
            count(&below[start..end], &|p| p.len() == depth + 1),
        );
        start = end;
    }
}

impl GramMatcher {
    /// Builds the automaton from `patterns`. Empty patterns are rejected
    /// by debug assertion (grams are never empty) and never match.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> GramMatcher {
        let pattern = |i: u32| patterns[i as usize].as_ref();
        // Sorted, the patterns below any trie state are one contiguous
        // range, split by the next byte into the ranges of its children.
        let mut order: Vec<u32> = (0..patterns.len() as u32)
            .filter(|&i| {
                debug_assert!(!pattern(i).is_empty(), "gram patterns must be non-empty");
                !pattern(i).is_empty()
            })
            .collect();
        order.sort_by(|&a, &b| pattern(a).cmp(pattern(b)));

        let mut used = [false; 256];
        for &i in &order {
            for &b in pattern(i) {
                used[usize::from(b)] = true;
            }
        }
        let mut class = [0u8; 256];
        // Class 0 gathers the unused bytes, if there are any.
        let mut classes = usize::from(used.contains(&false));
        for (column, _) in class.iter_mut().zip(used).filter(|&(_, used)| used) {
            *column = classes as u8;
            classes += 1;
        }

        // Internal states are the distinct proper prefixes, the empty one
        // included. Counted first, so the table is allocated once at its
        // final size: a pattern adds those of its proper prefixes that
        // are longer than its common prefix with the one before it, plus
        // that common prefix when it is the whole of the one before.
        let mut num_internal = 1;
        let mut prev: &[u8] = &[];
        for &i in &order {
            let p = pattern(i);
            let common = p.iter().zip(prev).take_while(|(a, b)| a == b).count();
            num_internal += (p.len() - 1).saturating_sub(common)
                + usize::from(common == prev.len() && 0 < common && common < p.len());
            prev = p;
        }
        assert!(
            num_internal * classes <= REPORT as usize,
            "{num_internal} internal states x {classes} byte classes overflow a transition"
        );

        // The rows, breadth first. An internal state is the range of
        // `order` below it, its depth, and the row of its nearest internal
        // failure state, which is shallower and so already final: the
        // state's row is a copy of that one with its children's entries
        // written over.
        let mut internal: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(num_internal);
        internal.push((0, order.len() as u32, 0, 0));
        let mut delta = vec![0u32; num_internal * classes];
        let mut reports: Vec<Report> = Vec::new();
        let mut outputs: Vec<u32> = Vec::new();
        let (mut leaves, mut leaf_keys) = (0, 0);
        let mut s = 0;
        while let Some(&(start, end, depth, fail_row)) = internal.get(s) {
            let (row, fail_row) = (s * classes, fail_row as usize);
            if s > 0 {
                delta.copy_within(fail_row..fail_row + classes, row);
            }
            let below = &order[start as usize..end as usize];
            for_each_child(patterns, below, depth as usize, |byte, child, own| {
                let column = usize::from(class[usize::from(byte)]);
                // The child's failure target, as a transition from the
                // parent's failure state (the root's children fail to it).
                let fail = if s == 0 { 0 } else { delta[fail_row + column] };
                let (fail_resume, inherited) = match fail & REPORT {
                    0 => (fail, 0..0),
                    _ => {
                        let r = (fail ^ REPORT) as usize;
                        let end = reports
                            .get(r + 1)
                            .map_or(outputs.len(), |n| n.start as usize);
                        (reports[r].resume, reports[r].start as usize..end)
                    }
                };
                let child_row = if own < child.len() {
                    let (first, last) = (start + child.start as u32, start + child.end as u32);
                    internal.push((first, last, depth + 1, fail_resume));
                    ((internal.len() - 1) * classes) as u32
                } else {
                    leaves += 1;
                    leaf_keys += own + inherited.len();
                    fail_resume
                };
                delta[row + column] = if own == 0 && inherited.is_empty() {
                    child_row
                } else {
                    reports.push(Report {
                        resume: child_row,
                        start: outputs.len() as u32,
                    });
                    outputs.extend_from_slice(&below[child.start..child.start + own]);
                    outputs.extend_from_within(inherited);
                    REPORT | (reports.len() - 1) as u32
                };
            });
            s += 1;
        }
        debug_assert_eq!(internal.len(), num_internal);
        reports.push(Report {
            resume: 0,
            start: outputs.len() as u32,
        });
        reports.shrink_to_fit();
        outputs.shrink_to_fit();
        GramMatcher {
            class,
            delta,
            reports,
            outputs,
            num_states: internal.len() + leaves,
            leaves,
            leaf_keys,
            stamps: vec![0; patterns.len()],
            scan: (0, u64::MAX),
            longest: patterns.iter().map(|p| p.as_ref().len()).max().unwrap_or(0),
            pending: vec![0; STRIPES * BLOCK],
        }
    }

    /// Number of patterns in the automaton.
    pub fn num_patterns(&self) -> usize {
        self.stamps.len()
    }

    /// Number of automaton states (for diagnostics).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Trie leaves: one per pattern that no other pattern extends.
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Keys reported by a transition into a leaf, summed over the leaves:
    /// the leaf's own plus every pattern that is a suffix of it. It
    /// equals [`GramMatcher::num_leaves`] exactly when no pattern is a
    /// proper suffix of another, as in a presuf shell.
    pub fn leaf_keys(&self) -> usize {
        self.leaf_keys
    }

    /// Internal states whose transitions report a pattern: none when no
    /// pattern occurs inside a proper prefix of another, as in any mined
    /// dictionary (a proper prefix of a key is useless, so none of its
    /// substrings is a key).
    pub fn reporting_internal_states(&self) -> usize {
        self.reports.len() - 1 - self.leaves
    }

    /// Bytes the matcher holds, inline and on the heap.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<GramMatcher>()
            + 4 * (self.delta.capacity()
                + self.outputs.capacity()
                + self.stamps.capacity()
                + self.pending.capacity())
            + std::mem::size_of::<Report>() * self.reports.capacity()
    }

    /// Scans `haystack` and invokes `on_match(pattern_index)` once for
    /// each *distinct* pattern found. `doc_stamp` must be unique per call
    /// scope (e.g. the document id) — it powers occurrence deduplication
    /// without clearing state between documents: consecutive calls with
    /// one stamp report each pattern once between them.
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
        if self.scan.1 != doc_stamp {
            // Numbers wrap after 2^32 - 1 scans: start over.
            if self.scan.0 == u32::MAX {
                self.stamps.fill(0);
                self.scan.0 = 0;
            }
            self.scan = (self.scan.0 + 1, doc_stamp);
        }
        match stripe_starts(haystack.len(), self.longest) {
            Some((starts, len)) => self.walk(starts.map(|s| &haystack[s..s + len]), on_match),
            None => self.walk([haystack], on_match),
        }
    }

    /// Walks the equally long `stripes` in lockstep from the root. A step
    /// has no branch: it writes the transition's report index (0, any
    /// report, when it has none) to the stripe's next pending slot and
    /// keeps it by advancing by the report flag, and selects the next row
    /// from the transition and the report's resume row by a mask. After
    /// each block the pending reports' patterns go through the stamps.
    fn walk<const LANES: usize>(&mut self, stripes: [&[u8]; LANES], on_match: &mut dyn FnMut(u32)) {
        let GramMatcher {
            class,
            delta,
            reports,
            outputs,
            stamps,
            scan: (scan, _),
            pending,
            ..
        } = self;
        let len = stripes[0].len();
        let mut rows = [0usize; LANES];
        for block in (0..len).step_by(BLOCK) {
            let mut found = [0usize; LANES];
            for i in block..len.min(block + BLOCK) {
                for k in 0..LANES {
                    let next = delta[rows[k] + usize::from(class[usize::from(stripes[k][i])])];
                    let flag = next >> 31;
                    let mask = 0u32.wrapping_sub(flag);
                    let r = next & !REPORT & mask;
                    let resume = reports[r as usize].resume;
                    rows[k] = ((resume & mask) | (next & !mask)) as usize;
                    pending[k * BLOCK + found[k]] = r;
                    found[k] += flag as usize;
                }
            }
            for (k, &found) in found.iter().enumerate() {
                for &r in &pending[k * BLOCK..k * BLOCK + found] {
                    let (start, end) = (reports[r as usize].start, reports[r as usize + 1].start);
                    for &pi in &outputs[start as usize..end as usize] {
                        let stamp = &mut stamps[pi as usize];
                        if *stamp != *scan {
                            *stamp = *scan;
                            on_match(pi);
                        }
                    }
                }
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

    /// A mined dictionary is prefix free, so every key ends at a leaf,
    /// and a proper prefix of a key is useless, so none of its substrings
    /// is a key: no internal state reports. Its presuf shell also has no
    /// key that is a proper suffix of another, so every leaf reports its
    /// own key and nothing else; the multigram set it comes from does not.
    #[test]
    fn a_mined_shell_reports_one_key_per_leaf() {
        use crate::{select_keys, EngineConfig, IndexKind};
        use free_corpus::synth::{Generator, SynthConfig};
        let corpus = Generator::new(SynthConfig::tiny(200, 7)).build_mem().0;
        for kind in [IndexKind::Presuf, IndexKind::Multigram] {
            let (keys, _) = select_keys(&corpus, &EngineConfig::with_kind(kind)).unwrap();
            let patterns: Vec<&[u8]> = keys.iter().map(|g| &*g.gram).collect();
            let m = GramMatcher::new(&patterns);
            assert_eq!(m.reporting_internal_states(), 0, "{kind:?}");
            assert_eq!(m.num_leaves(), keys.len(), "{kind:?}");
            if kind == IndexKind::Presuf {
                assert_eq!(m.leaf_keys(), m.num_leaves());
            } else {
                assert!(m.leaf_keys() > m.num_leaves());
            }
        }
    }

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
            let want = windows_of(&patterns, &haystack);
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
        assert_eq!(got, windows_of(&patterns, hay.as_bytes()));
    }

    #[test]
    fn duplicate_patterns_each_reported() {
        // Two identical patterns: both indices fire.
        let got = find(&["aa", "aa"], "aa");
        assert_eq!(got.len(), 2);
    }

    /// The patterns of `patterns` that occur in `hay`, by index.
    fn windows_of<P: AsRef<[u8]>>(patterns: &[P], hay: &[u8]) -> Vec<u32> {
        (patterns.iter().enumerate())
            .filter(|(_, p)| hay.windows(p.as_ref().len()).any(|w| w == p.as_ref()))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn stripes_tile_the_haystack_with_overlaps_of_a_longest_key() {
        for longest in 0..=12 {
            let from = striped_from(longest);
            assert_eq!(stripe_starts(from - 1, longest), None);
            let overlap = longest.max(1) - 1;
            for n in (from..from + 300).chain([4096, 1 << 20]) {
                let (starts, len) = stripe_starts(n, longest).unwrap();
                assert_eq!(
                    (starts[0], starts[STRIPES - 1] + len),
                    (0, n),
                    "{n} {longest}"
                );
                for pair in starts.windows(2) {
                    assert!(pair[0] <= pair[1] && pair[1] + overlap <= pair[0] + len);
                }
            }
        }
    }

    /// A longest key (and a shorter one inside it) placed across every
    /// stripe cut, at every offset, is found once, and nothing else is.
    #[test]
    fn a_key_across_any_stripe_cut_is_found() {
        let patterns = ["abcdefghijkl", "fgh", "lab", "xyz"];
        let key = patterns[0].as_bytes();
        let mut m = GramMatcher::new(&patterns);
        let from = striped_from(key.len());
        let mut stamp = 0;
        for n in [from, from + 1, from + 2, from + 3, from + 5, 1000, 4099] {
            let (starts, len) = stripe_starts(n, key.len()).unwrap();
            // Where a stripe starts, ends, and where the ends it alone
            // sees whole begin.
            let cuts = starts.iter().flat_map(|&s| [s, s + len, s + key.len() - 1]);
            for cut in cuts {
                for at in cut.saturating_sub(key.len())..=cut.min(n - key.len()) {
                    let mut hay = vec![b'.'; n];
                    hay[at..at + key.len()].copy_from_slice(key);
                    stamp += 1;
                    let mut got = Vec::new();
                    m.match_distinct(&hay, stamp, &mut |pi| got.push(pi));
                    got.sort_unstable();
                    assert_eq!(got, [0, 1], "n {n}, key at {at}");
                }
            }
        }
    }

    #[test]
    fn a_stamp_reused_across_calls_reports_each_key_once() {
        let patterns = ["needle", "hay", "straw"];
        let mut m = GramMatcher::new(&patterns);
        let long = |words: &str| words.repeat(200).into_bytes();
        let (a, b) = (long("hay needle ... "), long("straw hay ... "));
        assert!(b.len() >= striped_from(6));
        let mut got = Vec::new();
        for hay in [&a, &b, &a] {
            m.match_distinct(hay, 9, &mut |pi| got.push(pi));
        }
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(m.distinct_patterns(&b, 10), [1, 2]);
    }

    /// The pending reports live in a buffer of fixed size, whatever the
    /// haystack's length.
    #[test]
    fn a_long_haystack_leaves_the_resident_bytes_alone() {
        let patterns = ["ab", "ba", "abc"];
        let mut m = GramMatcher::new(&patterns);
        let before = m.resident_bytes();
        // Every byte reports.
        let hay = b"ab".repeat(1 << 19);
        assert_eq!(m.distinct_patterns(&hay, 1), [0, 1]);
        assert_eq!(m.resident_bytes(), before);
    }

    use proptest::prelude::*;

    /// `hay`, then its prefixes one byte short of, at and one byte past
    /// the shortest striped haystack, where it is that long.
    fn at_the_threshold<'h>(patterns: &[Vec<u8>], hay: &'h [u8]) -> Vec<&'h [u8]> {
        let from = striped_from(patterns.iter().map(Vec::len).max().unwrap_or(0));
        let cuts = [from - 1, from, from + 1]
            .into_iter()
            .filter(|&n| n < hay.len());
        std::iter::once(hay)
            .chain(cuts.map(|n| &hay[..n]))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The shape the build feeds it: a mined (prefix-free, heavily
        /// prefix-sharing) key set, here over text and binary bytes, plus
        /// repeated patterns and patterns nested in others, against the
        /// documents it was mined from and longer haystacks of the same
        /// bytes.
        #[test]
        fn agrees_with_windows_on_mined_key_sets(
            docs in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(b' '), Just(0u8), Just(255u8)],
                    0..48,
                ),
                1..12,
            ),
            long in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(b' '), Just(0u8), Just(255u8)],
                    0..4096,
                ),
                1..4,
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
            let mut stamp = 0;
            for hay in docs.iter().chain(&long).flat_map(|hay| at_the_threshold(&patterns, hay)) {
                stamp += 1;
                prop_assert_eq!(m.distinct_patterns(hay, stamp), windows_of(&patterns, hay), "{:?}", hay);
            }
        }

        /// Any pattern set, not only a mined one: duplicated patterns, a
        /// pattern that is a prefix of another (so it ends at an internal
        /// state), one that is a suffix of another, and no patterns at
        /// all, against haystacks over all 256 byte values, most of which
        /// no pattern uses.
        #[test]
        fn agrees_with_windows_on_any_pattern_set(
            seeds in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(0u8), Just(255u8)],
                    1..13,
                ),
                0..8,
            ),
            derived in prop::collection::vec((0usize..64, 0usize..4), 0..8),
            haystacks in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(0u8), Just(255u8), any::<u8>()],
                    0..4096,
                ),
                1..6,
            ),
        ) {
            let mut patterns = seeds.clone();
            for &(which, how) in &derived {
                let Some(p) = seeds.get(which % seeds.len().max(1)) else { break };
                patterns.push(match how {
                    0 => p.clone(),
                    1 => p[..p.len().div_ceil(2)].to_vec(),
                    2 => p[p.len() / 2..].to_vec(),
                    // The seed becomes a prefix of another pattern.
                    _ => [&p[..], b"ab"].concat(),
                });
            }
            let mut m = GramMatcher::new(&patterns);
            prop_assert_eq!(m.num_patterns(), patterns.len());
            let prefixes: std::collections::BTreeSet<&[u8]> = patterns
                .iter()
                .flat_map(|p| (1..=p.len()).map(move |cut| &p[..cut]))
                .collect();
            prop_assert_eq!(m.num_states(), prefixes.len() + 1, "one state per distinct prefix");
            let mut stamp = 0;
            for hay in haystacks.iter().flat_map(|hay| at_the_threshold(&patterns, hay)) {
                stamp += 1;
                prop_assert_eq!(m.distinct_patterns(hay, stamp), windows_of(&patterns, hay), "{:?}", hay);
            }
        }
    }
}
