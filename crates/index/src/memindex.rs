//! A mutable in-memory inverted index.
//!
//! Used as the construction buffer for small/medium corpora and as the
//! in-memory half of the external [`crate::builder`]. Keys map to
//! [`PostingsBuilder`]s, which keep postings *encoded* even while mutable,
//! so memory stays close to the final index size (~1 byte per posting for
//! dense lists) instead of 4-8 bytes per posting.

use crate::postings::PostingsBuilder;
use crate::stats::IndexStats;
use crate::{DocId, IndexRead, Key, Result};
use rustc_hash::FxHashMap;

/// An in-memory inverted index from gram keys to postings.
#[derive(Clone, Debug, Default)]
pub struct MemIndex {
    map: FxHashMap<Key, PostingsBuilder>,
    /// Sum of the builders' encoded lengths, kept current by `add`.
    encoded_bytes: u64,
}

impl MemIndex {
    /// Creates an empty index.
    pub fn new() -> MemIndex {
        MemIndex::default()
    }

    /// Adds a posting. Ids must be non-decreasing per key (corpus scans
    /// deliver them in order); duplicate `(key, doc)` pairs coalesce.
    pub fn add(&mut self, key: &[u8], doc: DocId) {
        let added = match self.map.get_mut(key) {
            Some(b) => {
                let before = b.encoded_len();
                b.push(doc);
                b.encoded_len() - before
            }
            None => {
                let mut b = PostingsBuilder::new();
                b.push(doc);
                let len = b.encoded_len();
                self.map.insert(key.into(), b);
                len
            }
        };
        self.encoded_bytes += added as u64;
    }

    /// Total number of postings across all keys.
    pub fn num_postings(&self) -> u64 {
        self.map.values().map(|b| b.len() as u64).sum()
    }

    /// Heap bytes held by encoded postings (a running count: `O(1)`).
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes
    }

    /// Drains into sorted `(key, postings)` pairs, consuming the index.
    pub fn into_sorted(self) -> Vec<(Key, crate::Postings)> {
        let mut out: Vec<(Key, crate::Postings)> =
            self.map.into_iter().map(|(k, b)| (k, b.finish())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl IndexRead for MemIndex {
    fn num_keys(&self) -> usize {
        self.map.len()
    }

    fn contains_key(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    fn doc_count(&self, key: &[u8]) -> Option<usize> {
        self.map.get(key).map(|b| b.len())
    }

    fn postings(&self, key: &[u8]) -> Result<Option<Vec<DocId>>> {
        match self.map.get(key) {
            None => Ok(None),
            // Clone-then-finish: postings stay encoded internally.
            Some(b) => Ok(Some(b.clone().finish().decode()?)),
        }
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        let mut keys: Vec<&Key> = self.map.keys().collect();
        keys.sort();
        for k in keys {
            f(k);
        }
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            num_keys: self.map.len() as u64,
            num_postings: self.num_postings(),
            key_bytes: self.map.keys().map(|k| k.len() as u64).sum(),
            postings_bytes: self.encoded_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut idx = MemIndex::new();
        idx.add(b"abc", 0);
        idx.add(b"abc", 0); // duplicate coalesces
        idx.add(b"abc", 3);
        idx.add(b"xyz", 1);
        assert_eq!(idx.num_keys(), 2);
        assert_eq!(idx.num_postings(), 3);
        assert_eq!(idx.postings(b"abc").unwrap().unwrap(), vec![0, 3]);
        assert_eq!(idx.postings(b"xyz").unwrap().unwrap(), vec![1]);
        assert_eq!(idx.postings(b"nope").unwrap(), None);
        assert_eq!(idx.doc_count(b"abc"), Some(2));
        assert!(idx.contains_key(b"xyz"));
        assert!(!idx.contains_key(b"xy"));
    }

    #[test]
    fn keys_iterate_sorted() {
        let mut idx = MemIndex::new();
        for k in [&b"zz"[..], b"aa", b"mm"] {
            idx.add(k, 0);
        }
        let mut seen = Vec::new();
        idx.for_each_key(&mut |k| seen.push(k.to_vec()));
        assert_eq!(seen, vec![b"aa".to_vec(), b"mm".to_vec(), b"zz".to_vec()]);
    }

    #[test]
    fn into_sorted_order() {
        let mut idx = MemIndex::new();
        idx.add(b"beta", 2);
        idx.add(b"alpha", 1);
        let sorted = idx.into_sorted();
        assert_eq!(&*sorted[0].0, b"alpha");
        assert_eq!(&*sorted[1].0, b"beta");
        assert_eq!(sorted[1].1.decode().unwrap(), vec![2]);
    }

    #[test]
    fn stats() {
        let mut idx = MemIndex::new();
        idx.add(b"ab", 0);
        idx.add(b"ab", 5);
        idx.add(b"cde", 9);
        let s = idx.stats();
        assert_eq!(s.num_keys, 2);
        assert_eq!(s.num_postings, 3);
        assert_eq!(s.key_bytes, 5);
        assert!(s.postings_bytes >= 3);
    }

    #[test]
    fn running_byte_count_equals_recomputed_sum() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut idx = MemIndex::new();
        let mut doc = 0u32;
        for step in 0..4000 {
            // Gaps wide enough for multi-byte varints, duplicates, new
            // and repeated keys.
            if rng.gen_range(0..3) > 0 {
                doc += [0u32, 1, 200, 70_000][rng.gen_range(0..4)];
            }
            let key = [b'k', rng.gen_range(0..40u8)];
            idx.add(&key, doc);
            if step % 97 == 0 {
                let recomputed: u64 = idx.map.values().map(|b| b.encoded_len() as u64).sum();
                assert_eq!(idx.encoded_bytes(), recomputed);
            }
        }
        let recomputed: u64 = idx.map.values().map(|b| b.encoded_len() as u64).sum();
        assert_eq!(idx.encoded_bytes(), recomputed);
        assert_eq!(idx.stats().postings_bytes, recomputed);
    }

    #[test]
    fn binary_keys_allowed() {
        let mut idx = MemIndex::new();
        idx.add(&[0u8, 255, 7], 4);
        assert!(idx.contains_key(&[0u8, 255, 7]));
        assert_eq!(idx.postings(&[0u8, 255, 7]).unwrap().unwrap(), vec![4]);
    }
}
