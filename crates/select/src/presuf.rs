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
//! Implementation is Observation 3.13's recipe without reversing a key:
//! sort the keys by their bytes read backwards, then sweep — a key is
//! dropped when the most recently kept key is its suffix (its prefix in
//! the reversed orientation) — and sort the survivors back. All three
//! steps work in place on the mined vector: no key is copied and nothing
//! is allocated. `O(|X| log |X|)`.

use crate::SelectedGram;

/// Computes the presuf shell of a prefix-free gram set, consuming it.
///
/// The input must be prefix free (which [`crate::mine_multigrams`] output
/// is, by Theorem 3.9(3)); the result is then the unique presuf shell,
/// sorted by gram bytes.
pub fn presuf_shell(mut grams: Vec<SelectedGram>) -> Vec<SelectedGram> {
    grams.sort_unstable_by(|a, b| a.gram.iter().rev().cmp(b.gram.iter().rev()));
    // Read backwards, the keys a kept key is a suffix of follow it in one
    // run, so comparing with the last kept key is enough.
    grams.dedup_by(|gram, kept| gram.gram.ends_with(&kept.gram));
    grams.sort_unstable_by(|a, b| a.gram.cmp(&b.gram));
    grams
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

    /// The shell as the recipe first shipped: materialized reversed keys,
    /// sorted, swept, and the kept grams cloned. The reference the
    /// in-place sweep is held to.
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
        let shell = presuf_shell(input.clone());
        assert_eq!(keys(&shell), vec!["=\"k"]);
    }

    #[test]
    fn unrelated_keys_survive() {
        let input = grams(&["abc", "xyz", "mno"]);
        let shell = presuf_shell(input.clone());
        assert_eq!(shell.len(), 3);
    }

    #[test]
    fn shell_is_suffix_free() {
        let input = grams(&["ton", "aton", "baton", "on", "ba", "tuba"]);
        let shell = presuf_shell(input.clone());
        assert!(is_suffix_free(&shell), "{:?}", keys(&shell));
        // "on" covers ton/aton/baton; "ba" and "tuba" both end... "ba" is a
        // suffix of "tuba", so only "ba" survives of those two.
        assert_eq!(keys(&shell), vec!["ba", "on"]);
    }

    #[test]
    fn every_input_has_a_suffix_in_shell() {
        // Definition 3.12 condition 1.
        let input = grams(&["clinton", "linton", "inton", "nton", "gore", "ore", "potus"]);
        let shell = presuf_shell(input.clone());
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
        let shell = presuf_shell(input.clone());
        for s in &shell {
            assert!(input.iter().any(|g| g.gram == s.gram));
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(presuf_shell(Vec::new()).is_empty());
        let one = grams(&["solo"]);
        assert_eq!(presuf_shell(one).len(), 1);
    }

    #[test]
    fn identical_suffix_chains_keep_shortest() {
        let input = grams(&["a", "ba", "cba", "dcba"]);
        let shell = presuf_shell(input.clone());
        assert_eq!(keys(&shell), vec!["a"]);
    }

    #[test]
    fn output_sorted_lexicographically() {
        let input = grams(&["zz", "aa", "mm"]);
        let shell = presuf_shell(input.clone());
        assert_eq!(keys(&shell), vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn doc_counts_preserved() {
        let mut input = grams(&["rare", "are"]);
        input[0].doc_count = 5;
        input[1].doc_count = 17;
        let shell = presuf_shell(input.clone());
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
            let got = presuf_shell(grams);
            prop_assert_eq!(&got, &want);
            prop_assert!(is_suffix_free(&got));
        }
    }
}
