//! Literal extraction and fast substring search.
//!
//! The paper's introduction (contribution 4) references an *anchoring*
//! technique from the extended technical report that "significantly
//! speeds up in-memory regular expression match": instead of feeding
//! every byte of a candidate data unit through the automaton, use the
//! literals the match *must* contain to position (or reject) the match
//! with a fast substring search first. This module provides the two
//! ingredients:
//!
//! * [`required_literal`] — the longest byte string every match of an AST
//!   must contain, when one exists; the prefilter rejects a page that
//!   lacks one;
//! * [`suffix_literal`] — the byte string every match *ends* with, when
//!   the pattern has one: [`crate::Searcher`] positions its decision on
//!   each occurrence of it (see [`crate::dfa`]);
//! * [`Finder`] — substring search a word at a time. Per eight window
//!   starts it tests the needle's first and last bytes with two word
//!   loads and an exact zero-byte mask (SWAR: bit tricks on a `u64`, no
//!   platform intrinsics), and compares only the windows both tests pass.
//!   It is not a skip loop (Boyer & Moore, the paper's reference \[7\]):
//!   on text, skips shrink to a byte or two wherever the needle's letters
//!   are common, and on 2.3 KB chunks of English prose this scan runs
//!   1.4-5x a Boyer–Moore–Horspool loop, depending on the needle.

use crate::ast::Ast;

/// Substring searcher for a fixed needle, a word of window starts at a
/// time.
#[derive(Clone, Debug)]
pub struct Finder {
    needle: Vec<u8>,
    /// The needle's first and last bytes in every byte of a word.
    first: u64,
    last: u64,
}

/// Window starts tested per step: the bytes in one `u64`.
pub(crate) const WORD: usize = 8;

/// `0x0101..01`: times a byte, that byte in every lane.
pub(crate) const LANES: u64 = u64::MAX / 255;

/// `0x7f7f..7f`: every bit of a lane but its top one.
pub(crate) const LOW7: u64 = LANES * 0x7f;

/// The eight bytes at `at`, lane `k` holding `bytes[at + k]`.
#[inline(always)]
pub(crate) fn load(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; WORD];
    word.copy_from_slice(&bytes[at..at + WORD]);
    u64::from_le_bytes(word)
}

/// The top bit of every lane of `word` that equals the lane of `byte`
/// (a broadcast byte), and no other bit. Exact: adding `0x7f` to the
/// low seven bits of a lane never carries into the next lane.
#[inline(always)]
fn equal_lanes(word: u64, byte: u64) -> u64 {
    let y = word ^ byte;
    !(((y & LOW7) + LOW7) | y | LOW7)
}

impl Finder {
    /// Builds a searcher. Empty needles are allowed and match everywhere.
    pub fn new(needle: &[u8]) -> Finder {
        let broadcast = |b: Option<&u8>| LANES * u64::from(b.copied().unwrap_or(0));
        Finder {
            needle: needle.to_vec(),
            first: broadcast(needle.first()),
            last: broadcast(needle.last()),
        }
    }

    /// The needle being searched for.
    pub fn needle(&self) -> &[u8] {
        &self.needle
    }

    /// First occurrence of the needle at or after `at`.
    ///
    /// A window is worth comparing only where the haystack holds the
    /// needle's first byte at its start and the needle's last byte at
    /// its end. Both tests are made for eight window starts at once,
    /// on two word loads `n - 1` bytes apart, and the surviving starts
    /// are compared in full, leftmost first. The last starts, too few
    /// for a word, are tested one at a time.
    pub fn find_at(&self, haystack: &[u8], at: usize) -> Option<usize> {
        let n = self.needle.len();
        if n == 0 {
            return (at <= haystack.len()).then_some(at);
        }
        let matches_at = |pos: usize| haystack[pos..pos + n] == self.needle[..];
        let mut pos = at;
        while pos + n + WORD - 1 <= haystack.len() {
            let mut hits = equal_lanes(load(haystack, pos), self.first)
                & equal_lanes(load(haystack, pos + n - 1), self.last);
            while hits != 0 {
                let start = pos + hits.trailing_zeros() as usize / WORD;
                if matches_at(start) {
                    return Some(start);
                }
                hits &= hits - 1;
            }
            pos += WORD;
        }
        (pos..(haystack.len() + 1).saturating_sub(n)).find(|&start| matches_at(start))
    }

    /// First occurrence of the needle.
    pub fn find(&self, haystack: &[u8]) -> Option<usize> {
        self.find_at(haystack, 0)
    }

    /// Whether the haystack contains the needle.
    pub fn contains(&self, haystack: &[u8]) -> bool {
        self.find(haystack).is_some()
    }

    /// All (possibly overlapping) occurrence start offsets.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut at = 0;
        while let Some(p) = self.find_at(haystack, at) {
            out.push(p);
            at = p + 1;
            if self.needle.is_empty() && at > haystack.len() {
                break;
            }
        }
        out
    }
}

/// The longest literal every match of `ast` must contain, if any.
///
/// This is the regex-level analogue of the planner's required-gram
/// analysis: alternations and zero-minimum repeats contribute nothing,
/// exact literals chain across concatenation.
pub fn required_literal(ast: &Ast) -> Option<Vec<u8>> {
    let info = analyze(ast);
    info.best.filter(|b| !b.is_empty())
}

/// The literal every match of `ast` ends with, if it is at least two
/// bytes long: the trailing run of exact children of a top-level
/// concatenation, or the whole pattern when it matches one string.
///
/// [`crate::Searcher`] decides containment from the occurrences of this
/// literal, so it must be a suffix of *every* match; a shorter one than
/// two bytes occurs too often in text to position anything.
pub fn suffix_literal(ast: &Ast) -> Option<Vec<u8>> {
    let literal = match ast {
        Ast::Concat(nodes) => {
            let run: Vec<Vec<u8>> = nodes.iter().rev().map_while(|n| analyze(n).exact).collect();
            run.into_iter().rev().flatten().collect()
        }
        other => analyze(other).exact.unwrap_or_default(),
    };
    (literal.len() >= 2).then_some(literal)
}

/// Analysis result for a subtree.
struct Info {
    /// Longest literal guaranteed to occur somewhere in any match.
    best: Option<Vec<u8>>,
    /// If the subtree matches exactly one string, that string.
    exact: Option<Vec<u8>>,
}

fn longer(a: Option<Vec<u8>>, b: Option<Vec<u8>>) -> Option<Vec<u8>> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.len() >= y.len() { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

fn analyze(ast: &Ast) -> Info {
    match ast {
        Ast::Empty => Info {
            best: None,
            exact: Some(Vec::new()),
        },
        Ast::Class(c) => match c.as_singleton() {
            Some(b) => Info {
                best: Some(vec![b]),
                exact: Some(vec![b]),
            },
            None => Info {
                best: None,
                exact: None,
            },
        },
        Ast::Concat(nodes) => {
            // Chain exact literals; the best required literal is the
            // longest among chained runs and children's own bests.
            let mut best: Option<Vec<u8>> = None;
            let mut run: Vec<u8> = Vec::new();
            let mut exact: Option<Vec<u8>> = Some(Vec::new());
            for node in nodes {
                let info = analyze(node);
                match (&info.exact, &mut exact) {
                    (Some(e), Some(acc)) => acc.extend_from_slice(e),
                    _ => exact = None,
                }
                match info.exact {
                    Some(e) => run.extend_from_slice(&e),
                    None => {
                        if !run.is_empty() {
                            best = longer(best, Some(std::mem::take(&mut run)));
                        }
                        best = longer(best, info.best);
                    }
                }
            }
            if !run.is_empty() {
                best = longer(best, Some(run));
            }
            Info { best, exact }
        }
        Ast::Alternate(nodes) => {
            // A literal is required only if required by *every* branch;
            // conservatively, use the branches' longest common required
            // substring only when all branches share an identical best.
            let infos: Vec<Info> = nodes.iter().map(analyze).collect();
            let mut common: Option<Vec<u8>> = None;
            let mut all_same = true;
            for info in &infos {
                match (&info.best, &common) {
                    (Some(b), None) => common = Some(b.clone()),
                    (Some(b), Some(c)) if b == c => {}
                    _ => {
                        all_same = false;
                        break;
                    }
                }
            }
            Info {
                best: if all_same { common } else { None },
                exact: None,
            }
        }
        Ast::Repeat { node, min, max } => {
            if *min == 0 {
                return Info {
                    best: None,
                    exact: (*max == Some(0)).then(Vec::new),
                };
            }
            let inner = analyze(node);
            match (&inner.exact, max) {
                (Some(e), Some(m)) if m == min => {
                    let lit = e.repeat(*min as usize);
                    Info {
                        best: (!lit.is_empty()).then(|| lit.clone()),
                        exact: Some(lit),
                    }
                }
                (Some(e), _) => {
                    let lit = e.repeat(*min as usize);
                    Info {
                        best: (!lit.is_empty()).then_some(lit),
                        exact: None,
                    }
                }
                (None, _) => Info {
                    best: inner.best,
                    exact: None,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    fn req(pattern: &str) -> Option<String> {
        required_literal(&parse(pattern).unwrap()).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    #[test]
    fn finder_basic() {
        let f = Finder::new(b"needle");
        assert_eq!(f.find(b"hay needle hay"), Some(4));
        assert_eq!(f.find(b"needle"), Some(0));
        assert_eq!(f.find(b"need"), None);
        assert!(f.contains(b"xxneedle"));
        assert!(!f.contains(b""));
    }

    #[test]
    fn finder_at_offsets() {
        let f = Finder::new(b"ab");
        assert_eq!(f.find_at(b"abxab", 1), Some(3));
        assert_eq!(f.find_at(b"abxab", 4), None);
        assert_eq!(f.find_all(b"ababab"), vec![0, 2, 4]);
    }

    #[test]
    fn finder_overlapping() {
        let f = Finder::new(b"aa");
        assert_eq!(f.find_all(b"aaaa"), vec![0, 1, 2]);
    }

    #[test]
    fn finder_single_byte_and_empty() {
        let f = Finder::new(b"x");
        assert_eq!(f.find_all(b"axbxc"), vec![1, 3]);
        let f = Finder::new(b"");
        assert_eq!(f.find(b"ab"), Some(0));
        assert_eq!(f.find_all(b"ab").len(), 3); // 0, 1, 2
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every start offset, including past the end, against the naive
        /// search: needles long and short enough for the word loop to test
        /// both of their bytes in one word or in two, haystacks long
        /// enough for many words and a tail.
        #[test]
        fn finder_agrees_with_naive(
            needle in prop::collection::vec(0usize..4, 1..=12),
            hay in prop::collection::vec(0usize..4, 0..=300),
        ) {
            let letters = |v: Vec<usize>| -> Vec<u8> { v.into_iter().map(|i| b"abcx"[i]).collect() };
            let (needle, hay) = (letters(needle), letters(hay));
            let finder = Finder::new(&needle);
            for at in 0..=hay.len() + 1 {
                let want = hay
                    .get(at..)
                    .and_then(|rest| rest.windows(needle.len()).position(|w| w == &needle[..]))
                    .map(|p| p + at);
                prop_assert_eq!(finder.find_at(&hay, at), want, "at {}", at);
            }
            let all: Vec<usize> = hay
                .windows(needle.len())
                .enumerate()
                .filter(|(_, w)| *w == &needle[..])
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(finder.find_all(&hay), all);
        }
    }

    #[test]
    fn required_literal_basics() {
        assert_eq!(req("Clinton"), Some("Clinton".into()));
        assert_eq!(req("Cli(nt)on"), Some("Clinton".into()));
        assert_eq!(req(".*"), None);
        assert_eq!(req(""), None);
        assert_eq!(req("[ab]"), None);
    }

    #[test]
    fn required_literal_picks_longest() {
        assert_eq!(req("ab.*clinton.*xy"), Some("clinton".into()));
        assert_eq!(req(r"<a href=(x|y)?.*\.mp3"), Some("<a href=".into()));
    }

    #[test]
    fn required_literal_alternation() {
        // Different branches: nothing is globally required.
        assert_eq!(req("Bill|William"), None);
        // Identical branch requirement survives.
        assert_eq!(req("(abc|abc)"), Some("abc".into()));
        // A literal outside the alternation still counts.
        assert_eq!(req("(Bill|William).*Clinton"), Some("Clinton".into()));
    }

    #[test]
    fn required_literal_repeats() {
        assert_eq!(req("a+"), Some("a".into()));
        assert_eq!(req("(ab){3}"), Some("ababab".into()));
        assert_eq!(req("(ab){2,5}"), Some("abab".into()));
        assert_eq!(req("(ab)*"), None);
        assert_eq!(req("x(a|b)+y"), Some("x".into()));
    }

    fn suffix(pattern: &str) -> Option<String> {
        suffix_literal(&parse(pattern).unwrap()).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    #[test]
    fn suffix_literal_is_the_trailing_exact_run() {
        assert_eq!(suffix("(Bill|William).*Clinton"), Some("Clinton".into()));
        assert_eq!(suffix("<script>.*</script>"), Some("</script>".into()));
        assert_eq!(suffix("a.*b(cd){2}"), Some("bcdcd".into()));
        assert_eq!(suffix("needle"), Some("needle".into()));
        assert_eq!(suffix("(ab){3}"), Some("ababab".into()));
        // One byte is too short, and nothing follows a repeat or class.
        assert_eq!(suffix("ab+c"), None);
        assert_eq!(suffix(r"x\d+"), None);
        assert_eq!(suffix("Bill|William"), None);
        assert_eq!(suffix(r#"<a href=("|')?.*\.mp3("|')?>"#), None);
        assert_eq!(suffix("a*"), None);
        assert_eq!(suffix(""), None);
    }

    #[test]
    fn suffix_literal_ends_every_match() {
        use crate::oracle;
        let haystacks: &[&[u8]] = &[b"xabcdab", b"abab", b"cdcdabcd", b"aXbcd", b"bcd"];
        for pat in ["a.*bcd", "(ab|ba)cd", "(a|b)+ab", "(ab){2}", "[ab]?cd"] {
            let ast = parse(pat).unwrap();
            let lit = suffix_literal(&ast).unwrap();
            for hay in haystacks {
                for at in 0..=hay.len() {
                    for end in oracle::match_ends(&ast, hay, at) {
                        assert!(hay[at..end].ends_with(&lit), "{pat} over {hay:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn required_literal_is_sound() {
        // Every string matching the pattern must contain the literal.
        use crate::oracle;
        let patterns = [
            "abc",
            "a(b|c)d",
            "x+yz?",
            "(ab|cd)ef",
            r"w[il]+am",
            "a{2,3}b",
        ];
        let haystacks: &[&[u8]] = &[
            b"abc", b"abd", b"acd", b"xxyz", b"xy", b"abef", b"cdef", b"wiiiam", b"aab", b"aaab",
            b"zzabczz",
        ];
        for pat in patterns {
            let ast = parse(pat).unwrap();
            let Some(lit) = required_literal(&ast) else {
                continue;
            };
            let finder = Finder::new(&lit);
            for hay in haystacks {
                if let Some(span) = oracle::find_at(&ast, hay, 0) {
                    let matched = &hay[span.range()];
                    assert!(
                        finder.contains(matched),
                        "{pat}: match {:?} lacks required literal {:?}",
                        String::from_utf8_lossy(matched),
                        String::from_utf8_lossy(&lit)
                    );
                }
            }
        }
    }
}
