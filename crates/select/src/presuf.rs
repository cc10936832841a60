//! §3.2: the presuf shell (shortest common suffix rule).
//!
//! Any gram obtained by *prepending* characters to a useful gram is also
//! useful, so a multigram selection often contains many keys that share a
//! discriminating suffix (the paper's example: `<a href="k`, `a href="k`,
//! …, `="k` — only the last carries the selectivity). The presuf shell
//! keeps, for every key, only its shortest suffix that is itself a key,
//! producing a set that is both prefix-free and suffix-free
//! (Definition 3.12) while still containing a substring of every useful
//! gram (Observation 3.14).
//!
//! The miner hands over its grams end to end in one byte buffer, and the
//! shell is cut from there: every gram goes into a hash set of ranges of
//! that buffer, a gram is dropped when one of its proper suffixes is in
//! the set, and only the survivors are copied out, then sorted once.
//! Nothing is sorted or copied for a gram the shell drops. `O(|X| · L)`
//! probes for grams of at most `L` bytes. Observation 3.13's recipe (sort
//! the keys by their bytes read backwards, drop a key when the last kept
//! key is its suffix) gives the same set; the tests hold the two equal.

use crate::counter::{head_at, spread};
use crate::SelectedGram;
use std::ops::Range;

/// The presuf shell of the distinct grams `grams`, each a range of
/// `bytes` with its document count: the grams none of whose proper
/// suffixes is one of them, sorted by their bytes.
///
/// For a prefix-free set (the miner's output is, by Theorem 3.9(3)) this
/// is the unique presuf shell.
pub(crate) fn shell(bytes: &[u8], grams: &[(Range<usize>, u32)]) -> Vec<SelectedGram> {
    let members = Members::new(bytes, grams);
    let mut kept: Vec<SelectedGram> = (grams.iter())
        .filter(|(gram, _)| {
            !(gram.start + 1..gram.end).any(|from| members.contains(from..gram.end))
        })
        .map(|(gram, doc_count)| SelectedGram {
            gram: bytes[gram.clone()].into(),
            doc_count: *doc_count,
        })
        .collect();
    kept.sort_unstable_by(|a, b| a.gram.cmp(&b.gram));
    kept
}

/// A hash set of grams, each a range of one byte buffer.
struct Members<'a> {
    bytes: &'a [u8],
    grams: &'a [(Range<usize>, u32)],
    /// `0` is empty; otherwise the low half of the gram's hash in the high
    /// 32 bits and its index in `grams` plus one in the low 32.
    table: Vec<u64>,
    /// `64 - log2(table.len())`.
    shift: u32,
}

impl<'a> Members<'a> {
    fn new(bytes: &'a [u8], grams: &'a [(Range<usize>, u32)]) -> Members<'a> {
        assert!(grams.len() < 1 << 31, "gram set exceeds 2^31 grams");
        let slots = (2 * grams.len()).max(2).next_power_of_two();
        let mut members = Members {
            bytes,
            grams,
            table: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
        };
        let mask = slots - 1;
        for (index, (gram, _)) in grams.iter().enumerate() {
            let hash = members.hash(gram.clone());
            let mut i = (hash >> members.shift) as usize;
            while members.table[i] != 0 {
                i = (i + 1) & mask;
            }
            members.table[i] = hash << 32 | (index as u64 + 1);
        }
        members
    }

    /// The gram's bytes eight at a time, each word read as one integer.
    fn hash(&self, gram: Range<usize>) -> u64 {
        let mut h = gram.len() as u64;
        for at in gram.clone().step_by(8) {
            h = spread(h ^ head_at(self.bytes, at, gram.end - at));
        }
        h
    }

    /// Whether the gram `bytes[gram]` is in the set.
    fn contains(&self, gram: Range<usize>) -> bool {
        let hash = self.hash(gram.clone());
        let mask = self.table.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let entry = self.table[i];
            if entry == 0 {
                return false;
            }
            if (entry >> 32) as u32 == hash as u32 {
                let member = &self.grams[(entry as u32 - 1) as usize].0;
                if self.bytes[member.clone()] == self.bytes[gram.clone()] {
                    return true;
                }
            }
            i = (i + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grams(keys: &[&str]) -> Vec<SelectedGram> {
        keys.iter()
            .map(|k| SelectedGram {
                gram: k.as_bytes().into(),
                doc_count: 1,
            })
            .collect()
    }

    /// [`shell`] of `grams` laid end to end in one buffer, as the miner
    /// hands them over.
    fn shell_of(grams: Vec<SelectedGram>) -> Vec<SelectedGram> {
        let mut bytes = Vec::new();
        let ranges: Vec<(Range<usize>, u32)> = (grams.iter())
            .map(|g| {
                let start = bytes.len();
                bytes.extend_from_slice(&g.gram);
                (start..bytes.len(), g.doc_count)
            })
            .collect();
        shell(&bytes, &ranges)
    }

    /// The shell as Observation 3.13's recipe first shipped: materialized
    /// reversed keys, sorted, swept, and the kept grams cloned. The
    /// reference the arena-cut shell is held to.
    fn reference_shell(grams: &[SelectedGram]) -> Vec<SelectedGram> {
        let mut reversed: Vec<(Vec<u8>, &SelectedGram)> = grams
            .iter()
            .map(|g| (g.gram.iter().rev().copied().collect(), g))
            .collect();
        reversed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut kept: Vec<SelectedGram> = Vec::new();
        let mut last_kept: Option<Vec<u8>> = None;
        for (rev, g) in reversed {
            if !last_kept.as_ref().is_some_and(|prev| rev.starts_with(prev)) {
                last_kept = Some(rev);
                kept.push(g.clone());
            }
        }
        kept.sort_by(|a, b| a.gram.cmp(&b.gram));
        kept
    }

    fn keys(sel: &[SelectedGram]) -> Vec<String> {
        sel.iter()
            .map(|g| String::from_utf8_lossy(&g.gram).into_owned())
            .collect()
    }

    fn is_suffix_free(sel: &[SelectedGram]) -> bool {
        for a in sel {
            for b in sel {
                if a.gram != b.gram && b.gram.ends_with(&a.gram) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn paper_example_3_10() {
        // All the keys share the discriminating suffix `="k`; only it
        // survives.
        let input = grams(&["<a href=\"k", "a href=\"k", " href=\"k", "href=\"k", "=\"k"]);
        let shell = shell_of(input.clone());
        assert_eq!(keys(&shell), vec!["=\"k"]);
    }

    #[test]
    fn unrelated_keys_survive() {
        let input = grams(&["abc", "xyz", "mno"]);
        let shell = shell_of(input.clone());
        assert_eq!(shell.len(), 3);
    }

    #[test]
    fn shell_is_suffix_free() {
        let input = grams(&["ton", "aton", "baton", "on", "ba", "tuba"]);
        let shell = shell_of(input.clone());
        assert!(is_suffix_free(&shell), "{:?}", keys(&shell));
        // "on" covers ton/aton/baton; "ba" and "tuba" both end... "ba" is a
        // suffix of "tuba", so only "ba" survives of those two.
        assert_eq!(keys(&shell), vec!["ba", "on"]);
    }

    #[test]
    fn every_input_has_a_suffix_in_shell() {
        // Definition 3.12 condition 1.
        let input = grams(&["clinton", "linton", "inton", "nton", "gore", "ore", "potus"]);
        let shell = shell_of(input.clone());
        for g in &input {
            assert!(
                shell.iter().any(|s| g.gram.ends_with(&s.gram)),
                "{:?} uncovered by {:?}",
                String::from_utf8_lossy(&g.gram),
                keys(&shell)
            );
        }
        assert!(is_suffix_free(&shell));
    }

    #[test]
    fn shell_is_subset_of_input() {
        // Definition 3.12 condition 3.
        let input = grams(&["needle", "dle", "xyzzy", "zy"]);
        let shell = shell_of(input.clone());
        for s in &shell {
            assert!(input.iter().any(|g| g.gram == s.gram));
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(shell_of(Vec::new()).is_empty());
        let one = grams(&["solo"]);
        assert_eq!(shell_of(one).len(), 1);
    }

    #[test]
    fn identical_suffix_chains_keep_shortest() {
        let input = grams(&["a", "ba", "cba", "dcba"]);
        let shell = shell_of(input.clone());
        assert_eq!(keys(&shell), vec!["a"]);
    }

    #[test]
    fn output_sorted_lexicographically() {
        let input = grams(&["zz", "aa", "mm"]);
        let shell = shell_of(input.clone());
        assert_eq!(keys(&shell), vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn doc_counts_preserved() {
        let mut input = grams(&["rare", "are"]);
        input[0].doc_count = 5;
        input[1].doc_count = 17;
        let shell = shell_of(input.clone());
        assert_eq!(shell.len(), 1);
        assert_eq!(&*shell[0].gram, b"are");
        assert_eq!(shell[0].doc_count, 17);
    }

    use proptest::prelude::*;

    /// A random prefix-free key set, sorted, whose keys are often proper
    /// suffixes of several others: short stems over a three-letter
    /// alphabet, each also extended on the left, with every key that has
    /// another key as a proper prefix dropped.
    fn prefix_free() -> impl Strategy<Value = Vec<SelectedGram>> {
        let word = prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..5);
        prop::collection::vec((word.clone(), prop::collection::vec(word, 0..4)), 0..40).prop_map(
            |stems| {
                let mut all: Vec<Vec<u8>> = Vec::new();
                for (stem, heads) in stems {
                    for head in heads {
                        all.push([&head[..], &stem[..]].concat());
                    }
                    all.push(stem);
                }
                all.sort();
                all.dedup();
                let free: Vec<&Vec<u8>> = all
                    .iter()
                    .filter(|k| !all.iter().any(|p| p.len() < k.len() && k.starts_with(p)))
                    .collect();
                (free.iter().zip(1..))
                    .map(|(k, doc_count)| SelectedGram {
                        gram: k.as_slice().into(),
                        doc_count,
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #[test]
        fn agrees_with_the_reference(grams in prefix_free()) {
            let want = reference_shell(&grams);
            let got = shell_of(grams);
            prop_assert_eq!(&got, &want);
            prop_assert!(is_suffix_free(&got));
        }

        /// Cut from the miner's buffer, the shell of a set mined from a
        /// random corpus (three letters and the bytes 0 and 0xff, so
        /// suffixes recur) is the reference's shell of its sorted keys.
        #[test]
        fn the_shell_of_a_mined_set_is_the_reference(
            docs in prop::collection::vec(
                prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8), Just(0xffu8)], 0..40),
                1..24,
            ),
            c in 0.05f64..0.6,
            max_gram_len in 1usize..=12,
        ) {
            let corpus = free_corpus::MemCorpus::from_docs(docs);
            let config = crate::SelectConfig {
                usefulness_threshold: c,
                max_gram_len,
                ..crate::SelectConfig::default()
            };
            let multigrams = crate::mine_multigrams(&corpus, &config).unwrap();
            let shell = crate::mine(&corpus, &config).unwrap().presuf_shell();
            prop_assert_eq!(&shell.grams, &reference_shell(&multigrams.grams));
            prop_assert_eq!(&shell.stats, &multigrams.stats);
        }
    }
}
