//! Postings lists: sorted document-id sets, delta + varint encoded.

use crate::{varint, DocId, Error, Result};
use bytes::Bytes;

/// Accumulates document ids for one key during index construction.
///
/// Ids must arrive in non-decreasing order (index construction scans the
/// corpus in id order); duplicates are coalesced, so pushing every
/// occurrence of a gram yields one posting per document — the paper's
/// `M(x)` counts *data units*, not occurrences.
#[derive(Clone, Debug, Default)]
pub struct PostingsBuilder {
    encoded: Vec<u8>,
    last: Option<DocId>,
    count: u32,
}

impl PostingsBuilder {
    /// Creates an empty builder.
    pub fn new() -> PostingsBuilder {
        PostingsBuilder::default()
    }

    /// Adds a document id. Panics in debug builds if ids go backwards.
    #[inline]
    pub fn push(&mut self, doc: DocId) {
        match self.last {
            Some(last) if last == doc => return, // same doc, coalesce
            Some(last) => {
                debug_assert!(doc > last, "doc ids must be non-decreasing");
                varint::encode(u64::from(doc - last), &mut self.encoded);
            }
            None => {
                varint::encode(u64::from(doc), &mut self.encoded);
            }
        }
        self.last = Some(doc);
        self.count += 1;
    }

    /// Number of postings so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no postings were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the encoded representation so far.
    pub fn encoded_len(&self) -> usize {
        self.encoded.len()
    }

    /// Finalizes into an immutable [`Postings`].
    pub fn finish(self) -> Postings {
        Postings {
            encoded: Bytes::from(self.encoded),
            count: self.count,
        }
    }
}

/// An immutable, encoded postings list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postings {
    encoded: Bytes,
    count: u32,
}

impl Postings {
    /// Builds a postings list from sorted, deduplicated doc ids.
    pub fn from_sorted(ids: &[DocId]) -> Postings {
        let mut b = PostingsBuilder::new();
        for &id in ids {
            b.push(id);
        }
        b.finish()
    }

    /// Reconstructs a postings list from its encoded form (as stored on
    /// disk) and its posting count.
    pub fn from_encoded(encoded: Bytes, count: u32) -> Postings {
        Postings { encoded, count }
    }

    /// Number of documents in the list.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The encoded bytes (for writing to disk).
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }

    /// Decodes into a sorted `Vec<DocId>`.
    pub fn decode(&self) -> Result<Vec<DocId>> {
        let mut out = Vec::with_capacity(self.count as usize);
        decode_into(&self.encoded, self.count, &mut out)?;
        Ok(out)
    }

    /// Streaming decoder.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            buf: &self.encoded,
            remaining: self.count,
            current: 0,
            first: true,
        }
    }
}

/// Appends the delta-varint encoding of strictly ascending `ids` to
/// `out`: the bytes [`Postings::from_sorted`] encodes them to.
pub(crate) fn encode_into(ids: &[DocId], out: &mut Vec<u8>) {
    let mut prev = None;
    for &id in ids {
        debug_assert!(
            prev.is_none_or(|p| id > p),
            "ids must be strictly increasing"
        );
        varint::encode(u64::from(prev.map_or(id, |p| id - p)), out);
        prev = Some(id);
    }
}

/// Appends the `count` ids delta-varint `encoded` holds, which must be
/// exactly those, to `out`.
pub(crate) fn decode_into(encoded: &[u8], count: u32, out: &mut Vec<DocId>) -> Result<()> {
    let mut buf = encoded;
    let mut current = 0u64;
    for i in 0..count {
        let (delta, used) = varint::decode(buf)?;
        buf = &buf[used..];
        current = if i == 0 { delta } else { current + delta };
        if current > u64::from(DocId::MAX) {
            return Err(Error::Corrupt("doc id overflows u32".into()));
        }
        out.push(current as DocId);
    }
    if !buf.is_empty() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after postings",
            buf.len()
        )));
    }
    Ok(())
}

/// Iterator over an encoded postings list.
#[derive(Clone, Debug)]
pub struct PostingsIter<'a> {
    buf: &'a [u8],
    remaining: u32,
    current: u64,
    first: bool,
}

impl Iterator for PostingsIter<'_> {
    type Item = Result<DocId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match varint::decode(self.buf) {
            Err(e) => {
                self.remaining = 0;
                Some(Err(e))
            }
            Ok((delta, used)) => {
                self.buf = &self.buf[used..];
                self.current = if self.first {
                    self.first = false;
                    delta
                } else {
                    self.current + delta
                };
                if self.current > u64::from(DocId::MAX) {
                    self.remaining = 0;
                    return Some(Err(Error::Corrupt("doc id overflows u32".into())));
                }
                Some(Ok(self.current as DocId))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let ids = vec![0, 1, 5, 100, 1_000_000];
        let p = Postings::from_sorted(&ids);
        assert_eq!(p.len(), 5);
        assert_eq!(p.decode().unwrap(), ids);
    }

    #[test]
    fn builder_coalesces_duplicates() {
        let mut b = PostingsBuilder::new();
        for id in [3, 3, 3, 7, 7, 9] {
            b.push(id);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.finish().decode().unwrap(), vec![3, 7, 9]);
    }

    #[test]
    fn empty_list() {
        let p = PostingsBuilder::new().finish();
        assert!(p.is_empty());
        assert_eq!(p.decode().unwrap(), Vec::<DocId>::new());
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn dense_lists_are_one_byte_per_posting() {
        let ids: Vec<DocId> = (0..1000).collect();
        let p = Postings::from_sorted(&ids);
        assert_eq!(p.encoded().len(), 1000);
    }

    #[test]
    fn iter_matches_decode() {
        let ids = vec![2, 4, 8, 16, 1 << 20, (1 << 20) + 1];
        let p = Postings::from_sorted(&ids);
        let via_iter: Vec<DocId> = p.iter().map(|r| r.unwrap()).collect();
        assert_eq!(via_iter, ids);
        assert_eq!(p.iter().len(), ids.len());
    }

    #[test]
    fn from_encoded_roundtrip() {
        let p = Postings::from_sorted(&[1, 9, 42]);
        let q = Postings::from_encoded(Bytes::copy_from_slice(p.encoded()), p.len() as u32);
        assert_eq!(q.decode().unwrap(), vec![1, 9, 42]);
    }

    #[test]
    fn corrupt_truncation_detected() {
        let p = Postings::from_sorted(&[500, 700]);
        let cut = Postings::from_encoded(
            Bytes::copy_from_slice(&p.encoded()[..p.encoded().len() - 1]),
            2,
        );
        assert!(cut.decode().is_err());
        let results: Vec<_> = cut.iter().collect();
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn corrupt_trailing_bytes_detected() {
        let p = Postings::from_sorted(&[1]);
        let mut bytes = p.encoded().to_vec();
        bytes.push(0x05);
        let bad = Postings::from_encoded(Bytes::from(bytes), 1);
        assert!(bad.decode().is_err());
    }

    #[test]
    fn max_doc_id() {
        let p = Postings::from_sorted(&[DocId::MAX - 1, DocId::MAX]);
        assert_eq!(p.decode().unwrap(), vec![DocId::MAX - 1, DocId::MAX]);
    }
}
