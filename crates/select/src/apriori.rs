//! Algorithm 3.1: a-priori mining of the minimal useful grams.
//!
//! A gram `x` is *c-useful* if `sel(x) = M(x)/N <= c` (Definition 3.4).
//! The algorithm grows grams breadth-first: a gram of length `k` is a
//! candidate only if its `(k-1)`-prefix turned out *useless* — useful
//! prefixes are already minimal useful grams, and any extension of a
//! useful gram is useful but not minimal (Theorem 3.9 guarantees the
//! output is exactly the minimal useful grams, which also makes it prefix
//! free, which in turn bounds total postings by `|D|`, Observation 3.8).
//!
//! Following §3.1's optimization ("we may find useless grams for both
//! k = 1 and 2 … in one pass"), each corpus scan counts
//! [`lengths_per_pass`](crate::SelectConfig::lengths_per_pass)
//! consecutive gram lengths: grams of the longer lengths are counted
//! optimistically (their immediate prefix's usefulness is unknown until
//! the pass ends) and filtered level-by-level afterwards.

use crate::counter::{count_ranges, GramCounter, GramSet};
use crate::{Result, SelectConfig, SelectedGram};
use free_corpus::Corpus;
use std::ops::Range;

/// Statistics from a mining run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Number of full corpus scans performed.
    pub passes: usize,
    /// Total candidate grams whose counts were tracked.
    pub candidates_counted: u64,
    /// Candidates discarded because their prefix turned out useful
    /// (optimistic counting overshoot).
    pub candidates_skipped: u64,
    /// Per-pass counters, in pass order (empty for strategies that do not
    /// mine, e.g. complete enumeration).
    pub per_pass: Vec<PassStats>,
}

/// Counters for one a-priori corpus scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// The range of gram lengths counted in this pass (`k..=k_end`).
    pub lengths: (usize, usize),
    /// Candidate grams whose counts were tracked during the scan.
    pub grams_considered: u64,
    /// Grams this pass confirmed as minimal useful (kept for the index).
    pub grams_kept: u64,
    /// Corpus bytes read by the scan.
    pub bytes_read: u64,
}

/// The result of mining: the minimal useful grams plus statistics.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Minimal useful grams, sorted lexicographically.
    pub grams: Vec<SelectedGram>,
    /// Number of data units scanned (the paper's `N`).
    pub num_docs: usize,
    /// Mining statistics.
    pub stats: MiningStats,
}

impl Selection {
    /// The raw gram keys, sorted.
    pub fn keys(&self) -> Vec<Box<[u8]>> {
        self.grams.iter().map(|g| g.gram.clone()).collect()
    }
}

/// Runs Algorithm 3.1 over `corpus` with the config's threshold.
pub fn mine_multigrams(corpus: &dyn Corpus, config: &SelectConfig) -> Result<Selection> {
    mine_in_ranges(corpus, config, crate::build_ranges(corpus.total_bytes()))
}

/// [`mine_multigrams`] with each pass counting `ranges` document ranges
/// at once; the selection and its statistics are the same for any number.
fn mine_in_ranges(corpus: &dyn Corpus, config: &SelectConfig, ranges: usize) -> Result<Selection> {
    config.validate()?;
    let n = corpus.len();
    // floor(c * N): a gram is useful iff count <= threshold.
    let threshold = (config.usefulness_threshold * n as f64).floor() as u32;

    // The minimal useful grams found so far, their bytes end to end in
    // `useful_bytes`. Nothing is allocated per gram while the counters
    // hold their tables, so the grams' allocations, which outlive the
    // mining, are not left scattered between the tables' freed space.
    let mut useful_bytes: Vec<u8> = Vec::new();
    let mut useful: Vec<(Range<usize>, u32)> = Vec::new();
    let mut stats = MiningStats::default();
    // The grams confirmed useless at length `k-1`, to be extended: the
    // empty gram before the first pass.
    let mut frontier = GramSet::new(0);
    frontier.intern(0, &[]);
    let mut gram = Vec::new();
    let mut k = 1usize;
    // One counter per document range, kept from pass to pass.
    let mut counters: Vec<GramCounter> = (0..ranges.clamp(1, n.max(1)))
        .map(|_| GramCounter::new())
        .collect();

    while k <= config.max_gram_len && !frontier.is_empty() {
        let levels = config.lengths_per_pass.min(GramCounter::MAX_LEVELS);
        let k_end = k.saturating_add(levels - 1).min(config.max_gram_len);
        let kept_before = useful.len();

        // One corpus scan: count every gram of length k..=k_end whose
        // (k-1)-prefix is in the frontier.
        // Grams longer than k are counted optimistically: whether their
        // immediate prefix is useless is only known once the scan ends.
        let (bytes_read, fold) = count_ranges(corpus, &frontier, &mut counters, k_end)?;
        let counter = &mut counters[0];
        stats.passes += 1;
        stats.candidates_counted += counter.len() as u64;

        // Resolve shortest grams first: a gram is a real candidate only if
        // its immediate prefix is a useless candidate. For the shortest
        // length that holds by construction of the frontier.
        let last_level = (k_end - k) as u32;
        let mut next_frontier = GramSet::new(k_end);
        for slot in counter.slots_by_level() {
            let c = counter.entry(slot);
            if c.level > 0 && !counter.is_useless(c.parent) {
                stats.candidates_skipped += 1;
                continue;
            }
            let is_useful = c.doc_count <= threshold;
            if !is_useful {
                counter.mark_useless(slot);
            }
            if is_useful || c.level == last_level {
                counter.gram_bytes(slot, &frontier, &mut gram);
                if is_useful {
                    let start = useful_bytes.len();
                    useful_bytes.extend_from_slice(&gram);
                    useful.push((start..useful_bytes.len(), c.doc_count));
                } else {
                    next_frontier.intern(next_frontier.hash(&gram), &gram);
                }
            }
        }
        let pass = PassStats {
            lengths: (k, k_end),
            grams_considered: counter.len() as u64,
            grams_kept: (useful.len() - kept_before) as u64,
            bytes_read,
        };
        frontier = next_frontier;
        config.tracer.event(
            "mine.pass",
            vec![
                ("pass", stats.passes.into()),
                ("min_len", pass.lengths.0.into()),
                ("max_len", pass.lengths.1.into()),
                ("grams_considered", pass.grams_considered.into()),
                ("grams_kept", pass.grams_kept.into()),
                ("bytes_read", pass.bytes_read.into()),
                ("ranges", counters.len().into()),
                ("fold_us", (fold.as_micros() as u64).into()),
            ],
        );
        stats.per_pass.push(pass);
        k = k_end + 1;
    }

    drop(counters);
    let bytes = |gram: &Range<usize>| &useful_bytes[gram.clone()];
    useful.sort_by(|a, b| bytes(&a.0).cmp(bytes(&b.0)));
    let grams = (useful.iter())
        .map(|(gram, doc_count)| SelectedGram {
            gram: bytes(gram).into(),
            doc_count: *doc_count,
        })
        .collect();
    Ok(Selection {
        grams,
        num_docs: n,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_corpus::MemCorpus;

    fn mine(docs: &[&str], c: f64, max_len: usize) -> Selection {
        let corpus = MemCorpus::from_docs(docs.iter().map(|d| d.as_bytes().to_vec()).collect());
        let config = SelectConfig {
            usefulness_threshold: c,
            max_gram_len: max_len,
            ..SelectConfig::default()
        };
        mine_multigrams(&corpus, &config).unwrap()
    }

    fn keys(sel: &Selection) -> Vec<String> {
        sel.grams
            .iter()
            .map(|g| String::from_utf8_lossy(&g.gram).into_owned())
            .collect()
    }

    #[test]
    fn rare_one_grams_selected_directly() {
        // 'z' appears in 1 of 10 docs → useful at c=0.1 and minimal.
        let mut docs = vec!["aaaa"; 9];
        docs.push("aazb");
        let sel = mine(&docs, 0.1, 4);
        assert!(keys(&sel).contains(&"z".to_string()));
        // 'a' is in every doc → useless; but no doc-count limit reached at
        // longer lengths since "aa" etc. all ubiquitous except in doc 10.
        assert!(!keys(&sel).contains(&"a".to_string()));
    }

    #[test]
    fn minimality_no_gram_is_prefix_of_another() {
        let docs: Vec<String> = (0..50)
            .map(|i| format!("common prefix {} tail{}", "x".repeat(i % 5), i))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let sel = mine(&refs, 0.2, 8);
        let ks = keys(&sel);
        for a in &ks {
            for b in &ks {
                if a != b {
                    assert!(!b.starts_with(a.as_str()), "{a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn every_selected_gram_is_useful_and_prefixes_useless() {
        let docs: Vec<String> = (0..40)
            .map(|i| format!("doc{} shared words appear everywhere {}", i, i % 4))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let c = 0.15;
        let sel = mine(&refs, c, 6);
        let n = sel.num_docs;
        let count_docs = |g: &str| refs.iter().filter(|d| d.contains(g)).count();
        for g in &sel.grams {
            let s = String::from_utf8_lossy(&g.gram).into_owned();
            let actual = count_docs(&s);
            assert_eq!(actual as u32, g.doc_count, "doc count for {s}");
            assert!((actual as f64) / (n as f64) <= c, "{s} should be useful");
            // Every proper prefix must be useless (minimality).
            for cut in 1..s.len() {
                let p = &s[..cut];
                assert!(
                    (count_docs(p) as f64) / (n as f64) > c,
                    "prefix {p} of {s} should be useless"
                );
            }
        }
    }

    #[test]
    fn theorem_3_9_completeness() {
        // Every useful gram has a prefix in the selection (or is itself
        // selected), up to max_gram_len.
        let docs: Vec<String> = (0..30)
            .map(|i| format!("alpha beta gamma {}", if i < 3 { "needle" } else { "hay" }))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let sel = mine(&refs, 0.2, 8);
        let ks = keys(&sel);
        // "needle" is in 3/30 docs → useful; some prefix of it must be
        // indexed.
        assert!(
            (1..="needle".len()).any(|cut| ks.contains(&"needle"[..cut].to_string())),
            "no prefix of 'needle' indexed: {ks:?}"
        );
    }

    #[test]
    fn max_len_cutoff_respected() {
        let docs = vec!["abcdefghijklmnop"; 3];
        let sel = mine(&docs, 0.9, 4);
        for g in &sel.grams {
            assert!(g.gram.len() <= 4);
        }
    }

    #[test]
    fn threshold_zero_selects_nothing() {
        // c=0 means useful ⇔ sel(x) = 0, impossible for occurring grams.
        let sel = mine(&["abc", "abd"], 0.0, 4);
        assert!(sel.grams.is_empty());
    }

    #[test]
    fn threshold_one_selects_all_one_grams() {
        // c=1: every gram is useful, so all 1-grams are minimal useful.
        let sel = mine(&["ab", "bc"], 1.0, 4);
        let ks = keys(&sel);
        assert_eq!(ks, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_corpus() {
        let corpus = MemCorpus::new();
        let sel = mine_multigrams(&corpus, &SelectConfig::default()).unwrap();
        assert!(sel.grams.is_empty());
        assert_eq!(sel.num_docs, 0);
    }

    #[test]
    fn lengths_per_pass_does_not_change_result() {
        let docs: Vec<String> = (0..25)
            .map(|i| format!("the quick brown fox {} jumps over {}", i, i * 7))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let corpus = MemCorpus::from_docs(refs.iter().map(|d| d.as_bytes().to_vec()).collect());
        let mut results = Vec::new();
        for lpp in [1, 2, 3, 10] {
            let config = SelectConfig {
                usefulness_threshold: 0.2,
                max_gram_len: 6,
                lengths_per_pass: lpp,
                ..SelectConfig::default()
            };
            let sel = mine_multigrams(&corpus, &config).unwrap();
            results.push((lpp, sel));
        }
        let base = keys(&results[0].1);
        for (lpp, sel) in &results[1..] {
            assert_eq!(keys(sel), base, "lengths_per_pass={lpp}");
        }
        // More lengths per pass ⇒ fewer scans.
        assert!(results[3].1.stats.passes < results[0].1.stats.passes);
    }

    #[test]
    fn pass_count_matches_paper_shape() {
        // With max_gram_len=10 and lengths_per_pass=2 the gram
        // identification takes ≤5 scans (§5.2: "this gram-key
        // identification could be done in less than 10 scans").
        let docs: Vec<String> = (0..20).map(|i| format!("abcdefghij{i}")).collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let corpus = MemCorpus::from_docs(refs.iter().map(|d| d.as_bytes().to_vec()).collect());
        let config = SelectConfig {
            usefulness_threshold: 0.1,
            max_gram_len: 10,
            lengths_per_pass: 2,
            ..SelectConfig::default()
        };
        let sel = mine_multigrams(&corpus, &config).unwrap();
        assert!(sel.stats.passes <= 5, "{} passes", sel.stats.passes);
    }

    #[test]
    fn per_pass_counters_sum_to_totals() {
        let docs: Vec<String> = (0..30)
            .map(|i| format!("alpha beta gamma {} filler", i % 6))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let corpus = MemCorpus::from_docs(refs.iter().map(|d| d.as_bytes().to_vec()).collect());
        let total_bytes: u64 = refs.iter().map(|d| d.len() as u64).sum();
        let sel = mine_multigrams(&corpus, &SelectConfig::default()).unwrap();
        assert_eq!(sel.stats.per_pass.len(), sel.stats.passes);
        let considered: u64 = sel.stats.per_pass.iter().map(|p| p.grams_considered).sum();
        assert_eq!(considered, sel.stats.candidates_counted);
        let kept: u64 = sel.stats.per_pass.iter().map(|p| p.grams_kept).sum();
        assert_eq!(kept, sel.grams.len() as u64);
        for p in &sel.stats.per_pass {
            assert_eq!(p.bytes_read, total_bytes, "every pass scans the corpus");
            assert!(p.lengths.0 <= p.lengths.1);
        }
    }

    #[test]
    fn mining_emits_per_pass_trace_events() {
        let corpus = MemCorpus::from_docs(vec![b"abcabc".to_vec(), b"xyzxyz".to_vec()]);
        let tracer = free_trace::Tracer::enabled();
        let config = SelectConfig {
            tracer: tracer.clone(),
            ..SelectConfig::default()
        };
        let sel = mine_in_ranges(&corpus, &config, 2).unwrap();
        let passes: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.name == "mine.pass")
            .collect();
        assert_eq!(passes.len(), sel.stats.passes);
        for (i, e) in passes.iter().enumerate() {
            assert_eq!(
                e.attr("pass"),
                Some(&free_trace::Value::U64(i as u64 + 1)),
                "{e:?}"
            );
            assert!(e.attr("bytes_read").is_some());
            assert_eq!(e.attr("ranges"), Some(&free_trace::Value::U64(2)));
            assert!(e.attr("fold_us").is_some());
        }
    }

    #[test]
    fn output_is_sorted() {
        let sel = mine(&["zebra", "apple", "mango"], 0.4, 5);
        let ks = keys(&sel);
        let mut sorted = ks.clone();
        sorted.sort();
        assert_eq!(ks, sorted);
    }

    /// The definition the miner must reproduce, computed the slow way:
    /// document counts of every substring up to `max_len`, by
    /// enumeration.
    fn oracle_counts(docs: &[Vec<u8>], max_len: usize) -> std::collections::BTreeMap<Vec<u8>, u32> {
        let mut seen = std::collections::BTreeSet::new();
        for (d, doc) in docs.iter().enumerate() {
            for i in 0..doc.len() {
                for m in 1..=max_len.min(doc.len() - i) {
                    seen.insert((doc[i..i + m].to_vec(), d));
                }
            }
        }
        let mut counts = std::collections::BTreeMap::new();
        for (gram, _) in seen {
            *counts.entry(gram).or_insert(0u32) += 1;
        }
        counts
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 96 }))]

        /// Against the definition, for any corpus over a small alphabet
        /// with long shared stretches (so useless grams, and with them
        /// keys, pass 16 bytes), any cutoff, any number of lengths per
        /// pass and any number of document ranges.
        #[test]
        fn mining_matches_the_definition(
            shared in prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..32),
            docs in prop::collection::vec(
                (prop_oneof![0usize..33, 18usize..33], prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)], 0..10)),
                1..14,
            ),
            threshold in prop_oneof![0usize..16, 1usize..4],
            max_gram_len in prop_oneof![1usize..=20, 17usize..=20],
            lengths_per_pass in 1usize..=4,
            ranges in 1usize..=4,
        ) {
            // Each document: a cut of the shared stretch, then its own tail.
            let docs: Vec<Vec<u8>> = docs
                .into_iter()
                .map(|(cut, tail)| [&shared[..cut.min(shared.len())], &tail[..]].concat())
                .collect();
            let corpus = MemCorpus::from_docs(docs.clone());
            // The `c` whose floor(c * N) is the drawn document threshold.
            let c = ((threshold as f64 + 0.5) / docs.len() as f64).min(1.0);
            let config = SelectConfig {
                usefulness_threshold: c,
                max_gram_len,
                lengths_per_pass,
                ..SelectConfig::default()
            };
            let sel = mine_in_ranges(&corpus, &config, ranges).unwrap();
            // Document ranges (more of them than documents, too) change
            // neither the selection nor its statistics.
            let one_range = mine_in_ranges(&corpus, &config, 1).unwrap();
            prop_assert_eq!(&sel.grams, &one_range.grams);
            prop_assert_eq!(&sel.stats, &one_range.stats);
            let counts = oracle_counts(&docs, max_gram_len);
            let threshold = threshold.min(docs.len()) as u32;
            let useful = |g: &[u8]| counts[g] <= threshold;

            prop_assert_eq!(sel.num_docs, docs.len());
            prop_assert!(sel.grams.windows(2).all(|w| w[0].gram < w[1].gram), "sorted, no repeats");
            for g in &sel.grams {
                prop_assert!(!g.gram.is_empty() && g.gram.len() <= max_gram_len);
                prop_assert_eq!(Some(&g.doc_count), counts.get(&g.gram[..]), "exact count of {:?}", g.gram);
                prop_assert!(useful(&g.gram), "{:?} is useful", g.gram);
                for cut in 1..g.gram.len() {
                    prop_assert!(!useful(&g.gram[..cut]), "prefix {cut} of {:?} is useless", g.gram);
                }
            }
            // Prefix free: a sorted neighbour would be the witness.
            prop_assert!(sel.grams.windows(2).all(|w| !w[1].gram.starts_with(&w[0].gram)));
            // Every useful gram is covered by exactly the minimal useful
            // gram that is its prefix; together with the loop above this
            // makes the selection equal to the definition's.
            let selected: std::collections::BTreeSet<&[u8]> =
                sel.grams.iter().map(|g| &g.gram[..]).collect();
            for gram in counts.keys().filter(|g| useful(g)) {
                let covers = (1..=gram.len()).filter(|&cut| selected.contains(&gram[..cut])).count();
                prop_assert_eq!(covers, 1, "{:?} covered once", gram);
            }

            let stats = &sel.stats;
            prop_assert_eq!(stats.passes, stats.per_pass.len());
            let considered: u64 = stats.per_pass.iter().map(|p| p.grams_considered).sum();
            prop_assert_eq!(considered, stats.candidates_counted);
            let kept: u64 = stats.per_pass.iter().map(|p| p.grams_kept).sum();
            prop_assert_eq!(kept, sel.grams.len() as u64);
            let mut next_len = 1;
            for p in &stats.per_pass {
                prop_assert_eq!(p.lengths.0, next_len);
                prop_assert!(p.lengths.1 < p.lengths.0 + lengths_per_pass && p.lengths.1 <= max_gram_len);
                prop_assert_eq!(p.bytes_read, corpus.total_bytes());
                next_len = p.lengths.1 + 1;
            }
            // One length per pass counts candidates only, so nothing is
            // counted and then skipped, and the counted grams are exactly
            // the definition's candidates: those with no useful prefix.
            if lengths_per_pass == 1 {
                prop_assert_eq!(stats.candidates_skipped, 0);
                let candidates = counts
                    .keys()
                    .filter(|g| (1..g.len()).all(|cut| !useful(&g[..cut])))
                    .count();
                prop_assert_eq!(stats.candidates_counted, candidates as u64);
            }
        }
    }
}
