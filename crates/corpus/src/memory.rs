//! An in-memory corpus, for tests and small experiments.

use crate::{Corpus, DocId, Error, Result};
use std::ops::Range;

/// A corpus whose data units all live in memory.
#[derive(Clone, Debug, Default)]
pub struct MemCorpus {
    docs: Vec<Vec<u8>>,
    total_bytes: u64,
}

impl MemCorpus {
    /// Creates an empty corpus.
    pub fn new() -> MemCorpus {
        MemCorpus::default()
    }

    /// Creates a corpus from a list of data units; ids follow list order.
    pub fn from_docs(docs: Vec<Vec<u8>>) -> MemCorpus {
        let total_bytes = docs.iter().map(|d| d.len() as u64).sum();
        MemCorpus { docs, total_bytes }
    }

    /// Appends a data unit, returning its id.
    pub fn push(&mut self, doc: Vec<u8>) -> DocId {
        let id = self.docs.len() as DocId;
        self.total_bytes += doc.len() as u64;
        self.docs.push(doc);
        id
    }

    /// Borrows a data unit without copying.
    pub fn doc(&self, id: DocId) -> Option<&[u8]> {
        self.docs.get(id as usize).map(Vec::as_slice)
    }

    /// Iterates over `(id, bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &[u8])> {
        self.docs
            .iter()
            .enumerate()
            .map(|(i, d)| (i as DocId, d.as_slice()))
    }
}

impl Corpus for MemCorpus {
    fn len(&self) -> usize {
        self.docs.len()
    }

    fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn get(&self, id: DocId) -> Result<Vec<u8>> {
        self.docs
            .get(id as usize)
            .cloned()
            .ok_or(Error::DocOutOfRange {
                id,
                len: self.docs.len(),
            })
    }

    /// Hands out the stored slices, copying nothing.
    fn get_sorted(&self, ids: &[DocId], f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> Result<()> {
        for &id in ids {
            let doc = self.doc(id).ok_or(Error::DocOutOfRange {
                id,
                len: self.docs.len(),
            })?;
            if !f(id, doc) {
                break;
            }
        }
        Ok(())
    }

    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> Result<()> {
        let end = positions.end.min(self.docs.len());
        for i in positions.start.min(end)..end {
            if !f(i as DocId, &self.docs[i]) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = MemCorpus::new();
        assert!(c.is_empty());
        let a = c.push(b"hello".to_vec());
        let b = c.push(b"world!".to_vec());
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_bytes(), 11);
        assert_eq!(c.get(0).unwrap(), b"hello");
        assert_eq!(c.doc(1), Some(&b"world!"[..]));
    }

    #[test]
    fn get_out_of_range() {
        let c = MemCorpus::from_docs(vec![b"x".to_vec()]);
        match c.get(5) {
            Err(Error::DocOutOfRange { id: 5, len: 1 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_visits_in_order_and_stops_early() {
        let c = MemCorpus::from_docs(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        let mut seen = Vec::new();
        c.scan(&mut |id, d| {
            seen.push((id, d.to_vec()));
            id < 1 // stop after the second doc
        })
        .unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].1, b"b");
    }

    #[test]
    fn empty_docs_allowed() {
        let mut c = MemCorpus::new();
        c.push(Vec::new());
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.get(0).unwrap(), Vec::<u8>::new());
    }
}
