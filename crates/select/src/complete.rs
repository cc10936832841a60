//! The "Complete" baseline of Table 3: one n-gram index for every
//! `n = 2..=max_gram_len`, i.e. an index entry for *every* distinct k-gram
//! occurring in the corpus.
//!
//! The paper builds this as the gold standard — any substring of a query
//! (up to the cutoff) can be looked up — and shows it is an order of
//! magnitude larger than the multigram index while only ~32 % faster.

use crate::counter::{count_pass, GramCounter, GramSet, Prefixes, RangeTables};
use crate::{Result, SelectedGram};
use free_corpus::Corpus;

/// Enumerates every distinct k-gram for `k = min_len..=max_len` with its
/// document frequency, sorted lexicographically.
///
/// The paper's complete index spans `k = 2..=10`; pass `min_len = 2`.
pub fn enumerate_complete(
    corpus: &dyn Corpus,
    min_len: usize,
    max_len: usize,
) -> Result<Vec<SelectedGram>> {
    assert!(min_len >= 1 && min_len <= max_len);
    assert!(max_len - min_len < GramCounter::MAX_LEVELS);
    // One counting pass whose frontier is every (min_len - 1)-gram the
    // corpus holds, collected as the scan meets them: one range, since
    // the frontier is written while it is read.
    let mut prefixes = GramSet::new(min_len - 1);
    let mut tables = RangeTables::new(GramCounter::new(), None);
    count_pass(
        corpus,
        Prefixes::Any(&mut prefixes),
        0..usize::MAX,
        max_len,
        &mut tables,
        &mut GramCounter::reserve,
    )?;
    let counter = tables.counter;
    let mut out = Vec::with_capacity(counter.len());
    let mut gram = Vec::new();
    for slot in counter.slots_by_level() {
        counter.gram_bytes(slot, &prefixes, &mut gram);
        out.push(SelectedGram {
            gram: gram.as_slice().into(),
            doc_count: counter.entry(slot).doc_count,
        });
    }
    out.sort_by(|a, b| a.gram.cmp(&b.gram));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_corpus::MemCorpus;

    #[test]
    fn enumerates_all_grams() {
        let corpus = MemCorpus::from_docs(vec![b"abab".to_vec(), b"ba".to_vec()]);
        let grams = enumerate_complete(&corpus, 2, 3).unwrap();
        let keys: Vec<String> = grams
            .iter()
            .map(|g| String::from_utf8_lossy(&g.gram).into_owned())
            .collect();
        assert_eq!(keys, vec!["ab", "aba", "ba", "bab"]);
        // "ab" occurs in doc 0 only; "ba" in both.
        let find = |k: &str| {
            grams
                .iter()
                .find(|g| &*g.gram == k.as_bytes())
                .unwrap()
                .doc_count
        };
        assert_eq!(find("ab"), 1);
        assert_eq!(find("ba"), 2);
        assert_eq!(find("aba"), 1);
    }

    #[test]
    fn doc_frequency_not_occurrence_count() {
        let corpus = MemCorpus::from_docs(vec![b"xxxxxx".to_vec()]);
        let grams = enumerate_complete(&corpus, 2, 2).unwrap();
        assert_eq!(grams.len(), 1);
        assert_eq!(grams[0].doc_count, 1); // five occurrences, one doc
    }

    #[test]
    fn respects_length_bounds() {
        let corpus = MemCorpus::from_docs(vec![b"abcdef".to_vec()]);
        let grams = enumerate_complete(&corpus, 3, 4).unwrap();
        assert!(grams.iter().all(|g| (3..=4).contains(&g.gram.len())));
        // 4 trigrams + 3 tetragrams.
        assert_eq!(grams.len(), 7);
    }

    #[test]
    fn empty_corpus() {
        let corpus = MemCorpus::new();
        assert!(enumerate_complete(&corpus, 2, 10).unwrap().is_empty());
    }

    #[test]
    fn short_docs_skipped_gracefully() {
        let corpus = MemCorpus::from_docs(vec![b"a".to_vec(), b"ab".to_vec()]);
        let grams = enumerate_complete(&corpus, 2, 5).unwrap();
        assert_eq!(grams.len(), 1);
        assert_eq!(&*grams[0].gram, b"ab");
    }
}
