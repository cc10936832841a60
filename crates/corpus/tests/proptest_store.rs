//! Property tests for the on-disk corpus store: arbitrary binary documents
//! (including empty ones) must round-trip exactly, in order, via both
//! random access and sequential scan; every store's ranged scan must
//! visit exactly what a full scan visits at those positions; and every
//! store's read of a sorted id list must hand out what one `get` per id
//! reads, checking exactly the units it hands out.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used)]

use free_corpus::{Corpus, CorpusWriter, DiskCorpus, DocId, Error, FsCorpus, MemCorpus};
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
/// visits what a full scan visits at those positions.
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

/// What reading `ids` hands out, stopping after `stop` units, and the
/// error that ended the read: by `get_sorted`, or with `each` by one
/// `get` per id.
fn read(
    c: &dyn Corpus,
    ids: &[DocId],
    stop: usize,
    each: bool,
) -> (Vec<(DocId, Vec<u8>)>, Option<Error>) {
    let mut seen = Vec::new();
    let mut take = |id: DocId, bytes: &[u8]| {
        seen.push((id, bytes.to_vec()));
        seen.len() < stop
    };
    let result = if each {
        let mut result = Ok(());
        for &id in ids {
            match c.get(id) {
                Ok(bytes) if take(id, &bytes) => {}
                Ok(_) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        result
    } else {
        c.get_sorted(ids, &mut take)
    };
    (seen, result.err())
}

/// `get_sorted` of `ids` equals one `get` per id: the units handed out,
/// and the error (by its message) that ended the read.
fn sorted_agrees(c: &dyn Corpus, ids: &[DocId], stop: usize) -> Result<(), TestCaseError> {
    let (want, want_err) = read(c, ids, stop, true);
    let (got, got_err) = read(c, ids, stop, false);
    prop_assert_eq!(got, want);
    prop_assert_eq!(
        got_err.map(|e| e.to_string()),
        want_err.map(|e| e.to_string())
    );
    Ok(())
}

/// Writes `docs` to a fresh store under `dir`.
fn store(dir: &std::path::Path, docs: &[Vec<u8>]) -> DiskCorpus {
    let _ = std::fs::remove_dir_all(dir);
    let mut w = CorpusWriter::create(dir).unwrap();
    for d in docs {
        w.append(d).unwrap();
    }
    w.finish().unwrap()
}

/// Flips one bit of the byte `at` bytes into unit `id` of the store in
/// `dir` (holding `docs`); the unit must not be empty.
fn flip(dir: &std::path::Path, docs: &[Vec<u8>], id: usize, at: usize) {
    let path = dir.join("corpus.dat");
    let mut data = std::fs::read(&path).unwrap();
    let start: usize = docs[..id].iter().map(Vec::len).sum();
    data[start + at % docs[id].len()] ^= 0x20;
    std::fs::write(&path, data).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `get_sorted` of any ascending id subset hands out what a `get`
    /// per id reads, bytes and order, on disk, in memory and over files;
    /// it stops when the visitor asks, and an id past the end ends it
    /// with `get`'s error after the ids before it.
    #[test]
    fn get_sorted_is_get_per_id(
        docs in arb_sized_docs(),
        picks in prop::collection::vec(any::<bool>(), 24),
        stop in prop_oneof![Just(usize::MAX), 1usize..30],
        case_id in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join(
            format!("free-sorted-pt-{}-{case_id}", std::process::id()));
        let ids: Vec<DocId> = (0..docs.len() as DocId).filter(|&i| picks[i as usize]).collect();
        let past_end: Vec<DocId> = ids.iter().copied().chain([docs.len() as DocId, 99]).collect();
        let disk = store(&dir.join("store"), &docs);
        let mem = MemCorpus::from_docs(docs.clone());
        let files = dir.join("files");
        std::fs::create_dir_all(&files).unwrap();
        for (i, d) in docs.iter().enumerate() {
            std::fs::write(files.join(format!("doc-{i:03}.txt")), d).unwrap();
        }
        let files = FsCorpus::open(&files, &[], &[]).unwrap();
        for c in [&disk as &dyn Corpus, &mem, &files] {
            sorted_agrees(c, &ids, stop)?;
            sorted_agrees(c, &past_end, stop)?;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// On disk, `get_sorted` checks every unit it hands out and no other:
    /// with a byte flipped in every unit it does not hand out (many of
    /// them inside the runs it reads) the answer is unchanged, and a byte
    /// flipped in one it hands out fails the read with `Error::Corrupt`
    /// after the units before it.
    #[test]
    fn get_sorted_checks_what_it_hands_out(
        sizes in prop::collection::vec(1usize..400, 1..40),
        picks in prop::collection::vec(any::<bool>(), 40),
        at in any::<usize>(),
        victim in any::<usize>(),
        case_id in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join(
            format!("free-sorted-flip-{}-{case_id}", std::process::id()));
        let docs: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|b| (i * 7 + b) as u8).collect())
            .collect();
        let ids: Vec<DocId> = (0..docs.len() as DocId).filter(|&i| picks[i as usize]).collect();
        let want: Vec<(DocId, Vec<u8>)> =
            ids.iter().map(|&id| (id, docs[id as usize].clone())).collect();
        drop(store(&dir, &docs));
        for id in (0..docs.len() as DocId).filter(|id| !ids.contains(id)) {
            flip(&dir, &docs, id as usize, at);
        }
        let c = DiskCorpus::open(&dir).unwrap();
        let (got, err) = read(&c, &ids, usize::MAX, false);
        prop_assert!(err.is_none(), "{:?}", err);
        prop_assert_eq!(&got, &want);
        if !ids.is_empty() {
            let k = victim % ids.len();
            flip(&dir, &docs, ids[k] as usize, at);
            let c = DiskCorpus::open(&dir).unwrap();
            let (got, err) = read(&c, &ids, usize::MAX, false);
            prop_assert!(matches!(err, Some(Error::Corrupt(_))), "{:?}", err);
            prop_assert_eq!(&got[..], &want[..k]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
