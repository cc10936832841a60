//! Property tests for the on-disk corpus store: arbitrary binary documents
//! (including empty ones) must round-trip exactly, in order, via both
//! random access and sequential scan; and every store's ranged scan must
//! visit exactly what a full scan visits at those positions.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used)]

use free_corpus::{Corpus, CorpusWriter, DiskCorpus, DocId, FsCorpus, MemCorpus};
use proptest::prelude::*;
use std::ops::Range;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disk_roundtrip(docs in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..200), 0..30
    ), case_id in 0u64..u64::MAX) {
        let dir = std::env::temp_dir().join(
            format!("free-store-pt-{}-{case_id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = CorpusWriter::create(&dir).unwrap();
        for d in &docs {
            w.append(d).unwrap();
        }
        let c = w.finish().unwrap();
        prop_assert_eq!(c.len(), docs.len());
        prop_assert_eq!(c.total_bytes(), docs.iter().map(|d| d.len() as u64).sum::<u64>());
        for (i, d) in docs.iter().enumerate() {
            prop_assert_eq!(&c.get(i as u32).unwrap(), d);
        }
        let mut scanned: Vec<Vec<u8>> = Vec::new();
        c.scan(&mut |_, bytes| { scanned.push(bytes.to_vec()); true }).unwrap();
        prop_assert_eq!(&scanned, &docs);

        // Cold reopen sees identical content.
        drop(c);
        let c = DiskCorpus::open(&dir).unwrap();
        for (i, d) in docs.iter().enumerate() {
            prop_assert_eq!(&c.get(i as u32).unwrap(), d);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A corpus that implements only the required methods, so its
/// `scan_range` is the trait's provided scan-and-skip.
struct ScanOnly<'a>(&'a dyn Corpus);

impl Corpus for ScanOnly<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }

    fn get(&self, id: DocId) -> free_corpus::Result<Vec<u8>> {
        self.0.get(id)
    }

    fn scan(&self, f: &mut dyn FnMut(DocId, &[u8]) -> bool) -> free_corpus::Result<()> {
        self.0.scan(f)
    }
}

/// What `scan_range(positions)` visits, stopping after `stop` units.
fn visited(c: &dyn Corpus, positions: Range<usize>, stop: usize) -> Vec<(DocId, Vec<u8>)> {
    let mut seen = Vec::new();
    c.scan_range(positions, &mut |id, bytes| {
        seen.push((id, bytes.to_vec()));
        seen.len() < stop
    })
    .unwrap();
    seen
}

/// Every range of `ranges` (start, end, units before the visitor stops)
/// visits what a full scan visits at those positions, on `c` and on the
/// provided scan-and-skip over it.
fn ranges_agree(
    c: &dyn Corpus,
    docs: &[Vec<u8>],
    ranges: &[(usize, usize, usize)],
) -> Result<(), TestCaseError> {
    let all: Vec<(DocId, Vec<u8>)> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| (i as DocId, d.clone()))
        .collect();
    prop_assert_eq!(&visited(c, 0..usize::MAX, usize::MAX), &all);
    for &(start, end, stop) in ranges {
        let from = start.min(all.len());
        let want: Vec<_> = all[from..end.clamp(from, all.len())]
            .iter()
            .take(stop)
            .cloned()
            .collect();
        prop_assert_eq!(
            &visited(c, start..end, stop),
            &want,
            "{}..{} stop {}",
            start,
            end,
            stop
        );
        prop_assert_eq!(
            &visited(&ScanOnly(c), start..end, stop),
            &want,
            "provided {}..{} stop {}",
            start,
            end,
            stop
        );
    }
    Ok(())
}

/// Documents of arbitrary sizes, mostly small and some larger than one
/// positioned read of the on-disk store (256 KiB), each filled with one
/// byte after its index.
fn arb_sized_docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let size = prop_oneof![9 => 0usize..300, 1 => 100_000usize..300_000];
    prop::collection::vec((size, any::<u8>()), 0..24).prop_map(|docs| {
        docs.into_iter()
            .enumerate()
            .map(|(i, (len, fill))| {
                let mut d = format!("{i}:").into_bytes();
                d.resize(len.max(d.len()), fill);
                if len == 0 {
                    d.clear();
                }
                d
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `scan_range` equals scan-and-skip on the on-disk store, in memory
    /// and over files: empty units, empty and reversed ranges, ranges past
    /// the end, and visitors that stop early.
    #[test]
    fn scan_range_is_scan_and_skip(
        docs in arb_sized_docs(),
        ranges in prop::collection::vec((0usize..30, 0usize..30, 1usize..30), 1..8),
        case_id in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join(
            format!("free-range-pt-{}-{case_id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = CorpusWriter::create(dir.join("store")).unwrap();
        for d in &docs {
            w.append(d).unwrap();
        }
        let disk = w.finish().unwrap();
        ranges_agree(&disk, &docs, &ranges)?;
        ranges_agree(&MemCorpus::from_docs(docs.clone()), &docs, &ranges)?;
        let files = dir.join("files");
        std::fs::create_dir_all(&files).unwrap();
        for (i, d) in docs.iter().enumerate() {
            std::fs::write(files.join(format!("doc-{i:03}.txt")), d).unwrap();
        }
        ranges_agree(&FsCorpus::open(&files, &[], &[]).unwrap(), &docs, &ranges)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
