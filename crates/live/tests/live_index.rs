//! End-to-end tests for the live index: ingest, delete, flush, compact,
//! reopen, crash recovery, and the differential invariant against a
//! from-scratch batch build.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_corpus::{DocId, MemCorpus};
use free_engine::{Engine, EngineConfig};
use free_live::{Error, LiveConfig, LiveIndex, QueryOpts};
use std::path::Path;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("free-live-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> LiveConfig {
    LiveConfig {
        engine: EngineConfig::default(),
        ..LiveConfig::default()
    }
}

fn docs() -> Vec<&'static [u8]> {
    vec![
        b"the quick brown fox jumps over the lazy dog",
        b"pack my box with five dozen liquor jugs",
        b"sphinx of black quartz judge my vow",
        b"how vexingly quick daft zebras jump",
        b"the five boxing wizards jump quickly",
        b"jackdaws love my big sphinx of quartz",
    ]
}

/// Queries the live index and a from-scratch batch rebuild over the same
/// live documents, asserting identical (content, match count) results.
fn assert_matches_rebuild(live: &LiveIndex, patterns: &[&str]) {
    let seqs = live.live_seqs();
    let contents: Vec<Vec<u8>> = seqs.iter().map(|&s| live.get(s).unwrap()).collect();
    let engine = Engine::build_in_memory(
        MemCorpus::from_docs(contents.clone()),
        live.config().engine.clone(),
    )
    .unwrap();
    for pattern in patterns {
        let got = live.snapshot().query(pattern).unwrap();
        let want: Vec<(Vec<u8>, usize)> = engine
            .query(pattern)
            .unwrap()
            .all_matches()
            .unwrap()
            .into_iter()
            .map(|m| (contents[m.doc as usize].clone(), m.spans.len()))
            .collect();
        let got: Vec<(Vec<u8>, usize)> = got
            .matches
            .into_iter()
            .map(|m| (live.get(m.seq).unwrap(), m.count as usize))
            .collect();
        assert_eq!(got, want, "pattern {pattern:?} diverged from rebuild");
    }
}

#[test]
fn create_add_query_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    let ids = live.add_batch(&docs()).unwrap();
    assert_eq!(ids, (0..6).collect::<Vec<DocId>>());
    assert_eq!(live.live_docs(), 6);

    let result = live.snapshot().query("qu[iao]").unwrap();
    assert_eq!(result.matches.len(), 6);
    assert_matches_rebuild(&live, &["quick", "sphinx", "ju[md]", "xyzzy", "o"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_refuses_existing() {
    let dir = tmp_dir("refuse");
    LiveIndex::create(&dir, config()).unwrap();
    match LiveIndex::create(&dir, config()).map(|_| ()) {
        Err(Error::AlreadyExists(_)) => {}
        other => panic!("expected AlreadyExists, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn tree(dir: &Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

/// A directory of the N-shard layout (`sharded.manifest` over
/// `shard-<s>/`, which earlier versions wrote) is refused by `open`,
/// `open_or_create` and `create` with an error naming the file, and not
/// a byte under it changes.
#[test]
fn a_sharded_directory_is_refused_untouched() {
    let dir = tmp_dir("sharded-layout");
    for s in 0..2 {
        let mut shard = LiveIndex::create(dir.join(format!("shard-{s}")), config()).unwrap();
        shard.add_batch(&docs()[s..s + 2]).unwrap();
    }
    let manifest = dir.join("sharded.manifest");
    std::fs::write(&manifest, "FREESHRD 1 0\nshards=2\n").unwrap();
    let before = tree(&dir);
    let refusals = [
        LiveIndex::open(&dir, config()).map(|_| ()),
        LiveIndex::open_or_create(&dir, config()).map(|_| ()),
        LiveIndex::create(&dir, config()).map(|_| ()),
    ];
    for refused in refusals {
        match refused {
            Err(e @ Error::ShardedLayout(_)) => {
                assert!(matches!(&e, Error::ShardedLayout(p) if *p == manifest));
                assert!(e.to_string().contains("sharded.manifest"), "{e}");
            }
            other => panic!("expected ShardedLayout, got {other:?}"),
        }
    }
    assert_eq!(tree(&dir), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_replays_wal() {
    let dir = tmp_dir("reopen");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&docs()[..3]).unwrap();
    }
    let mut live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.live_docs(), 3);
    assert_eq!(live.num_segments(), 0);
    let ids = live.add_batch(&docs()[3..]).unwrap();
    assert_eq!(ids, vec![3, 4, 5]);
    assert_matches_rebuild(&live, &["quick", "jump"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_seals_segment_and_persists() {
    let dir = tmp_dir("flush");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&docs()).unwrap();
        assert!(live.flush().unwrap());
        assert!(!live.flush().unwrap(), "empty buffer flush is a no-op");
        assert_eq!(live.num_segments(), 1);
        assert_eq!(live.stats().memtable_docs, 0);
        assert_matches_rebuild(&live, &["quick", "sphinx of"]);
    }
    let live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.num_segments(), 1);
    assert_eq!(live.live_docs(), 6);
    assert_matches_rebuild(&live, &["quick", "sphinx of"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Length and CRC32 of the presuf-shell index `Engine::build_on_disk`
/// writes for `SynthConfig::tiny(200, 7)` under the default
/// configuration (3 433 keys, 25 833 postings); `free-engine`'s
/// `build_identity` test pins the same constants.
const SHELL_LEN: usize = 52_094;
const SHELL_CRC: u32 = 0xae1d_1a12;

/// A flush runs the batch build's final stage on its own documents: the
/// segment's index file is byte for byte the file `Engine::build_on_disk`
/// writes for the same pages. The default dictionary is the presuf
/// shell; under the multigram default the same flush wrote 210 159 B
/// (CRC 0x0f3fbf82, which `build_identity` still pins for that kind).
#[test]
fn flush_segment_index_file_is_pinned() {
    use free_corpus::synth::{Generator, SynthConfig};
    use free_corpus::Corpus;
    let dir = tmp_dir("golden-flush");
    let (pages, _) = Generator::new(SynthConfig::tiny(200, 7)).build_mem();
    let pages: Vec<Vec<u8>> = (0..pages.len() as DocId)
        .map(|id| pages.get(id).unwrap())
        .collect();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages).unwrap();
    assert!(live.flush().unwrap());
    let bytes = std::fs::read(dir.join("segments/seg-0.idx")).unwrap();
    assert_eq!(bytes.len(), SHELL_LEN);
    assert_eq!(free_checksum::crc32(&bytes), SHELL_CRC);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `SynthConfig::tiny(200, 7)`: the corpus `build_identity.rs` pins.
fn synth_pages() -> Vec<Vec<u8>> {
    tiny_pages(200, 7)
}

/// `SynthConfig::tiny(n, 99)`: pages from another vocabulary.
fn other_vocabulary(n: usize) -> Vec<Vec<u8>> {
    tiny_pages(n, 99)
}

fn tiny_pages(n: usize, seed: u64) -> Vec<Vec<u8>> {
    use free_corpus::synth::{Generator, SynthConfig};
    use free_corpus::Corpus;
    let (pages, _) = Generator::new(SynthConfig::tiny(n, seed)).build_mem();
    (0..pages.len() as DocId)
        .map(|id| pages.get(id).unwrap())
        .collect()
}

/// Patterns that hit the synthetic pages, for differential checks.
const SYNTH_PATTERNS: &[&str] = &["Clinton", "[0-9]{5}", "<script", "sigmod.*200[0-9]", "ebay"];

/// The survivors' contents, in sequence order.
fn survivors(live: &LiveIndex) -> Vec<Vec<u8>> {
    live.live_seqs()
        .iter()
        .map(|&s| live.get(s).unwrap())
        .collect()
}

/// A compaction that re-mines is the batch build over the live
/// documents. A dictionary mined from a first flush of 20 pages is a poor
/// sample: about a tenth of the next 180 pages' postings fall on keys
/// useless among them, so compaction re-mines into the file
/// `Engine::build_on_disk` writes for all 200 (the presuf-shell constant
/// `build_identity.rs` pins; with the multigram default this file was
/// 210 159 B, CRC 0x0f3fbf82). After deletes, pages from another
/// vocabulary drift again, and the re-mine writes the batch build over
/// the survivors.
#[test]
fn compaction_is_a_batch_build() {
    let dir = tmp_dir("compact-batch");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..20]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[20..]).unwrap();
    live.flush().unwrap();
    assert_eq!(live.num_segments(), 2);
    let drift = live.drift();
    assert!(drift.remines(), "{drift:?}");
    assert!(live.compact().unwrap());
    let bytes = std::fs::read(dir.join("segments/seg-2.idx")).unwrap();
    assert_eq!(bytes.len(), SHELL_LEN);
    assert_eq!(free_checksum::crc32(&bytes), SHELL_CRC);

    for seq in [3, 50, 120, 199] {
        live.delete(seq).unwrap();
    }
    live.add_batch(&other_vocabulary(60)).unwrap();
    let drift = live.drift();
    assert!(drift.remines(), "{drift:?}");
    assert!(live.compact().unwrap());
    let survivors = survivors(&live);
    assert_eq!(survivors.len(), 256);
    let batch = dir.join("batch.free");
    Engine::build_on_disk(MemCorpus::from_docs(survivors), config().engine, &batch).unwrap();
    assert_eq!(
        std::fs::read(dir.join("segments/seg-4.idx")).unwrap(),
        std::fs::read(&batch).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A live query and a batch query run one pipeline: once the index has
/// compacted into `seg-2`, `Engine::open` over the same pages and
/// that index file answers every pattern as `Snapshot::query` does, seq
/// for doc id, and counts the same work — plan class, scan, keys fetched,
/// candidates, documents examined and prefiltered, matches.
#[test]
fn batch_and_live_queries_run_one_pipeline() {
    use free_engine::PlanClass;
    let dir = tmp_dir("one-pipeline");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..20]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[20..]).unwrap();
    live.flush().unwrap();
    assert!(live.compact().unwrap());
    let engine = Engine::open(
        MemCorpus::from_docs(pages),
        config().engine,
        dir.join("segments/seg-2.idx"),
    )
    .unwrap();
    let mut classes = Vec::new();
    let mut index_rejects = 0;
    for pattern in [
        // INDEXED; the index's five `Clinton` candidates all fail the
        // prefilter (the pages hold the keys, not the literal).
        "Clinton",
        "(Bill|William).*Clinton",
        "Clinton.*zqxj",
        "sigmod.*200[0-9]",
        "ebay",
        r"\.mp3",
        // WEAK: six keys of 20 pages each, an estimate of 120 of 200.
        "zij|wos|uzu|pif|huh|caj",
        // SCAN; 167 pages fail `<script`'s prefilter.
        "<script",
        "[0-9]{5}",
        "<[^>]*<",
        "a*",
    ] {
        let got = live.snapshot().query(pattern).unwrap();
        let mut batch = engine.query(pattern).unwrap();
        let want = batch.all_matches().unwrap();
        let want: Vec<(DocId, usize)> = want.into_iter().map(|m| (m.doc, m.spans.len())).collect();
        let got_matches: Vec<(DocId, usize)> = (got.matches.iter())
            .map(|m| (m.seq, m.count as usize))
            .collect();
        assert_eq!(got_matches, want, "{pattern}");
        let (l, b) = (&got.stats.base, batch.stats());
        let counters = |s: &free_engine::QueryStats| {
            (
                s.plan_class,
                s.used_scan,
                s.keys_fetched,
                s.candidates,
                s.docs_examined,
                s.docs_prefiltered,
                s.matching_docs,
                s.match_count,
            )
        };
        assert_eq!(counters(l), counters(b), "{pattern}");
        classes.push(b.plan_class);
        if !b.used_scan {
            index_rejects += b.docs_prefiltered;
        }
    }
    for class in [PlanClass::Indexed, PlanClass::Weak, PlanClass::Scan] {
        assert!(classes.contains(&class), "no {class} pattern: {classes:?}");
    }
    assert!(index_rejects > 0, "no index candidate failed a prefilter");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The dictionary's keys with the number of `corpus` documents holding
/// each, counted by a matcher scan: the key set a flush or a merge
/// writes postings for.
fn counted_keys(
    keys: free_index::Keys<'_>,
    corpus: &impl free_corpus::Corpus,
) -> Vec<free_engine::select::SelectedGram> {
    let patterns: Vec<&[u8]> = keys.iter().collect();
    let mut matcher = free_engine::grams::GramMatcher::new(&patterns);
    let mut counts = vec![0u32; keys.len()];
    corpus
        .scan(&mut |doc, bytes| {
            matcher.match_distinct(bytes, u64::from(doc), &mut |k| counts[k as usize] += 1);
            true
        })
        .unwrap();
    (keys.iter().zip(counts))
        .map(|(gram, doc_count)| free_engine::select::SelectedGram {
            gram: gram.into(),
            doc_count,
        })
        .collect()
}

/// A compaction whose new documents fit the dictionary merges postings
/// under it, mining nothing. With deletes in the mix, the compacted index
/// holds exactly the dictionary's keys, each with the postings a batch
/// build over the survivors with those keys (counted by a matcher scan)
/// writes; a key whose only document was deleted keeps an empty entry.
/// The write buffer goes on indexing with the same dictionary.
#[test]
fn compaction_merges_under_the_dictionary() {
    use free_corpus::{Corpus, DiskCorpus};
    use free_index::{IndexRead, IndexReader, IndexWriter};
    let dir = tmp_dir("compact-merge");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..100]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[100..]).unwrap();
    live.flush().unwrap();
    let dict = IndexReader::open(dir.join("segments/seg-0.idx")).unwrap();
    let second = IndexReader::open(dir.join("segments/seg-1.idx")).unwrap();
    // A key only one document of the first flush holds.
    let lone = (dict.keys().iter())
        .find(|k| dict.doc_count(k) == Some(1) && !second.contains_key(k))
        .unwrap();
    let lone_seq = dict.postings(lone).unwrap().unwrap()[0];
    let mut deletes = vec![lone_seq, 50, 120, 199];
    deletes.sort_unstable();
    deletes.dedup();
    for &seq in &deletes {
        live.delete(seq).unwrap();
    }
    let drift = live.drift();
    assert!(!drift.remines(), "{drift:?}");
    assert!(live.compact().unwrap());

    let merged = IndexReader::open(dir.join("segments/seg-2.idx")).unwrap();
    assert_eq!(merged.keys(), dict.keys());
    assert_eq!(merged.doc_count(lone), Some(0));
    let survivors = DiskCorpus::open(dir.join("segments/seg-2.corpus")).unwrap();
    assert_eq!(survivors.len(), 200 - deletes.len());
    let built = dir.join("built.free");
    let built = free_engine::build_index(
        &survivors,
        &counted_keys(dict.keys(), &survivors),
        &built,
        usize::MAX,
    )
    .unwrap();
    // The batch build leaves the emptied key out; the merge keeps it.
    let want = dir.join("want.free");
    let mut writer = IndexWriter::create(&want).unwrap();
    for key in dict.keys().iter() {
        let postings = built.postings(key).unwrap().unwrap_or_default();
        writer.add_sorted(key, &postings).unwrap();
    }
    drop(writer.finish().unwrap());
    assert_eq!(
        std::fs::read(dir.join("segments/seg-2.idx")).unwrap(),
        std::fs::read(&want).unwrap()
    );
    assert_matches_rebuild(&live, SYNTH_PATTERNS);

    live.add_batch(&pages[..30]).unwrap();
    assert_matches_rebuild(&live, SYNTH_PATTERNS);
    live.flush().unwrap();
    let third = IndexReader::open(dir.join("segments/seg-3.idx")).unwrap();
    assert!(third.keys().iter().all(|k| dict.contains_key(k)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A manifest the parent format wrote carries a `baseline=` line, which
/// the drift rule no longer reads: the directory opens with unchanged
/// answers and the same drift, compacts (a merge here, as the new
/// documents fit the dictionary), and the rewritten manifest drops the
/// line.
#[test]
fn a_manifest_with_a_baseline_line_opens_and_compacts() {
    use free_live::Manifest;
    let dir = tmp_dir("baseline-line");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..100]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[100..]).unwrap();
    live.flush().unwrap();
    live.delete(7).unwrap();
    let answers = |live: &LiveIndex| -> Vec<Vec<DocId>> {
        (SYNTH_PATTERNS.iter())
            .map(|p| live.snapshot().query(p).unwrap().matching_seqs())
            .collect()
    };
    let before = answers(&live);
    let drift = live.drift();
    assert!(!drift.remines(), "{drift:?}");
    drop(live);
    let path = dir.join(free_live::manifest::MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let body = body.replacen("segment=", "baseline=70277 487394\nsegment=", 1);
    let header = format!(
        "{}{:08x}",
        header.trim_end_matches(|c: char| c.is_ascii_hexdigit()),
        free_checksum::crc32(body.as_bytes())
    );
    std::fs::write(&path, format!("{header}\n{body}")).unwrap();

    let mut live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(answers(&live), before);
    assert_eq!(live.drift(), drift);
    let keys = free_index::IndexReader::open(dir.join("segments/seg-0.idx"))
        .unwrap()
        .keys()
        .to_vec();
    assert!(live.compact().unwrap());
    let merged = free_index::IndexReader::open(dir.join("segments/seg-2.idx")).unwrap();
    assert_eq!(merged.keys().to_vec(), keys);
    assert_eq!(answers(&live), before);
    assert!(!std::fs::read_to_string(&path)
        .unwrap()
        .contains("baseline="));
    assert_eq!(Manifest::load(&dir).unwrap().segments.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `drift` is the decision compaction takes, so `free segments` flags
/// FA302 exactly when the next compaction re-mines: a first flush that
/// fits, one the rest drifts from, and one that mines no key at all.
#[test]
fn drift_predicts_the_remine() {
    let pages = synth_pages();
    for (first, remines) in [(100, false), (20, true), (5, true)] {
        let dir = tmp_dir(&format!("drift-predicts-{first}"));
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&pages[..first]).unwrap();
        live.flush().unwrap();
        // Buffered, not flushed: the drift counts what compaction's flush
        // will seal.
        live.add_batch(&pages[first..]).unwrap();
        let drift = live.drift();
        assert_eq!(drift.remines(), remines, "first flush {first}: {drift:?}");
        let dictionary = |name: &str| {
            let index = free_index::IndexReader::open(dir.join("segments").join(name)).unwrap();
            index.keys().to_vec()
        };
        let before = dictionary("seg-0.idx");
        assert!(live.compact().unwrap());
        let after = dictionary("seg-2.idx");
        assert_eq!(after != before, remines, "first flush {first}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A flipped byte in a source segment's postings section fails the
/// merge with `Error::Corrupt` before anything is committed, rather than
/// being re-checksummed into a segment that verifies clean.
#[test]
fn compaction_refuses_damaged_postings() {
    let dir = tmp_dir("compact-bad-postings");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..100]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[100..]).unwrap();
    live.flush().unwrap();
    live.delete(5).unwrap();
    assert!(!live.drift().remines());
    drop(live);
    let path = dir.join("segments/seg-1.idx");
    let postings_bytes = {
        let index = free_index::IndexReader::open(&path).unwrap();
        free_index::IndexRead::stats(&index).postings_bytes as usize
    };
    let mut bytes = std::fs::read(&path).unwrap();
    // The footer is 16 bytes; the postings section ends where it starts.
    let at = bytes.len() - 16 - postings_bytes / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let manifest = std::fs::read(dir.join("live.manifest")).unwrap();

    let mut live = LiveIndex::open(&dir, config()).unwrap();
    let err = live.compact().expect_err("damaged postings must not merge");
    assert!(
        matches!(&err, Error::Corrupt(m) if m.contains("segment 1 postings")),
        "{err}"
    );
    assert_eq!(std::fs::read(dir.join("live.manifest")).unwrap(), manifest);
    assert!(!dir.join("segments/seg-2.idx").exists());
    assert!(!dir.join("segments/seg-2.corpus").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction checks every document it copies against the CRC its store
/// recorded. A flipped byte fails it with `Error::Corrupt` and leaves the
/// committed directory as the flush left it, instead of laundering the
/// damage into a store that verifies clean.
#[test]
fn compaction_refuses_corrupt_documents() {
    use free_corpus::DiskCorpus;
    let dir = tmp_dir("compact-bad-doc");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()).unwrap();
    live.flush().unwrap();
    drop(live);
    let data = dir.join("segments/seg-0.corpus/corpus.dat");
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[3] ^= 0x20;
    std::fs::write(&data, &bytes).unwrap();

    let mut live = LiveIndex::open(&dir, config()).unwrap();
    live.add(b"a fresh document to flush").unwrap();
    live.flush().unwrap();
    let manifest = std::fs::read(dir.join("live.manifest")).unwrap();
    let err = live
        .compact()
        .expect_err("a corrupt document must not be copied");
    assert!(
        matches!(&err, Error::Corrupt(m) if m.contains("segment 0: data unit 0 fails its CRC")),
        "{err}"
    );
    assert_eq!(std::fs::read(dir.join("live.manifest")).unwrap(), manifest);
    assert!(!dir.join("segments/seg-2.corpus").exists());
    let store = DiskCorpus::open(dir.join("segments/seg-0.corpus")).unwrap();
    assert_eq!(store.verify_units().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every read of a segment document checks its CRC, however often the
/// document was read before: after a byte of a unit that `get` and an
/// INDEXED query have both fetched is flipped on disk, the next `get` and
/// the next query that fetches it fail with `Error::Corrupt` rather than
/// serving the bytes they read earlier.
#[test]
fn every_live_fetch_is_checked() {
    use free_engine::PlanClass;
    use std::os::unix::fs::FileExt;
    let dir = tmp_dir("fetch-checked");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages).unwrap();
    live.flush().unwrap();
    let snapshot = live.snapshot();
    let pattern = "ebay";
    let result = snapshot.query(pattern).unwrap();
    assert_eq!(result.stats.base.plan_class, PlanClass::Indexed);
    assert!(!result.stats.base.used_scan);
    let seq = result.matches.first().expect("a page mentions ebay").seq;
    assert_eq!(snapshot.get(seq).unwrap(), pages[seq as usize]);

    // The only segment holds every page, its local ids in sequence order.
    let at: usize = pages[..seq as usize].iter().map(Vec::len).sum();
    let data = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("segments/seg-0.corpus/corpus.dat"))
        .unwrap();
    let mut byte = [0u8];
    data.read_exact_at(&mut byte, at as u64).unwrap();
    data.write_all_at(&[byte[0] ^ 0x20], at as u64).unwrap();

    // A query's fetch fails inside the engine's confirmation.
    let corrupt = |e: &Error| {
        use free_corpus::Error::Corrupt;
        let unit = format!("data unit {seq} fails its CRC");
        matches!(e, Error::Corpus(Corrupt(m)) | Error::Engine(free_engine::Error::Corpus(Corrupt(m)))
            if m.contains(&unit))
    };
    let got = snapshot.get(seq);
    assert!(
        got.as_ref().is_err_and(corrupt),
        "{:?}",
        got.map(|d| d.len())
    );
    let got = snapshot.query(pattern);
    assert!(
        got.as_ref().is_err_and(corrupt),
        "{:?}",
        got.map(|r| r.matches.len())
    );
    drop(live);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flush into an index with a dictionary neither mines nor scans: the
/// segment holds exactly the postings a batch build over its documents
/// with the dictionary's keys (counted by a matcher scan) would, and the
/// write buffer answers through the same dictionary before the flush.
#[test]
fn later_flushes_index_the_dictionary() {
    use free_corpus::{Corpus, DiskCorpus};
    use free_engine::grams::GramMatcher;
    use free_index::{IndexReader, IndexWriter};
    let dir = tmp_dir("dictionary-flush");
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&pages[..100]).unwrap();
    live.flush().unwrap();
    let dict = IndexReader::open(dir.join("segments/seg-0.idx")).unwrap();
    // Dictionary keys as literal patterns, plus a conjunction of two.
    let words: Vec<String> = dict
        .keys()
        .iter()
        .filter(|k| k.len() >= 3 && k.iter().all(u8::is_ascii_alphanumeric))
        .step_by(97)
        .take(6)
        .map(|k| String::from_utf8(k.to_vec()).unwrap())
        .collect();
    let mut patterns: Vec<String> = words.clone();
    patterns.push(format!("{}.*{}", words[0], words[1]));
    let patterns: Vec<&str> = patterns.iter().map(String::as_str).collect();

    for batch in pages[100..].chunks(36) {
        live.add_batch(batch).unwrap();
    }
    live.delete(130).unwrap();
    live.delete(171).unwrap();
    assert_matches_rebuild(&live, &patterns);
    let buffered = live.snapshot().query(&words[0]).unwrap();
    assert!(!buffered.stats.grams.is_empty(), "the plan fetched no key");
    assert_eq!(buffered.stats.scanned_sources, 0);

    live.flush().unwrap();
    assert_eq!(live.num_segments(), 2);
    assert_matches_rebuild(&live, &patterns);
    // The adopted WAL keeps the two deleted documents (local ids 30 and
    // 71) until compaction; the index leaves them out.
    let second = DiskCorpus::open(dir.join("segments/seg-1.corpus")).unwrap();
    assert_eq!(second.len(), 100);
    let dead = [30, 71];
    let keys: Vec<&[u8]> = dict.keys().iter().collect();
    let mut matcher = GramMatcher::new(&keys);
    let mut postings: Vec<Vec<DocId>> = vec![Vec::new(); keys.len()];
    second
        .scan(&mut |doc, bytes| {
            if !dead.contains(&doc) {
                matcher.match_distinct(bytes, u64::from(doc), &mut |k| {
                    postings[k as usize].push(doc)
                });
            }
            true
        })
        .unwrap();
    let want = dir.join("second.free");
    let mut writer = IndexWriter::create(&want).unwrap();
    for (key, ids) in keys.iter().zip(&postings) {
        if !ids.is_empty() {
            writer.add_sorted(key, ids).unwrap();
        }
    }
    drop(writer.finish().unwrap());
    assert_eq!(
        std::fs::read(dir.join("segments/seg-1.idx")).unwrap(),
        std::fs::read(&want).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// How the buffer was batched leaves no trace in what it seals: the same
/// 300 pages added 1, 7 or 36 at a time flush to byte-identical second
/// segments.
#[test]
fn batch_sizes_flush_identical_segments() {
    let pages = tiny_pages(400, 7);
    let mut sealed = Vec::new();
    for size in [1, 7, 36] {
        let dir = tmp_dir(&format!("batch-size-{size}"));
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&pages[..100]).unwrap();
        live.flush().unwrap();
        for batch in pages[100..].chunks(size) {
            live.add_batch(batch).unwrap();
        }
        live.flush().unwrap();
        assert_eq!(live.num_segments(), 2);
        let segments = dir.join("segments");
        let files: Vec<Vec<u8>> = [
            "seg-1.idx",
            "seg-1.corpus/corpus.dat",
            "seg-1.corpus/corpus.idx",
        ]
        .iter()
        .map(|f| std::fs::read(segments.join(f)).unwrap())
        .collect();
        sealed.push(files);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(sealed[0] == sealed[1] && sealed[1] == sealed[2]);
}

/// A traced add attributes its time: the `ingest` span records the WAL
/// append, the dictionary match, the grouping into a chunk and the chunk
/// merges, which fit inside the span, and the postings the batch holds.
#[test]
fn a_traced_add_attributes_its_time() {
    use free_trace::{EventKind, Tracer, Value};
    let dir = tmp_dir("traced-add");
    let tracer = Tracer::enabled();
    let mut config = config();
    config.engine.tracer = tracer.clone();
    let pages = synth_pages();
    let mut live = LiveIndex::create(&dir, config).unwrap();
    live.add_batch(&pages[..100]).unwrap();
    live.flush().unwrap();
    live.add_batch(&pages[100..136]).unwrap();
    let events = tracer.events();
    let add = (events.iter().rev())
        .find(|e| e.name == "ingest" && matches!(e.kind, EventKind::SpanEnd { .. }))
        .unwrap();
    let EventKind::SpanEnd { elapsed_ns } = add.kind else {
        unreachable!()
    };
    let attr = |key| match add.attr(key) {
        Some(&Value::U64(v)) => v,
        other => panic!("{key}: {other:?}"),
    };
    let phases: u64 = ["wal_us", "match_us", "group_us", "merge_us"]
        .into_iter()
        .map(attr)
        .sum();
    assert!(
        phases * 1000 <= elapsed_ns,
        "{phases} us in {elapsed_ns} ns"
    );
    assert!(attr("postings") > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `FREELIVE 2` directory has a key set per segment, which the
/// one-dictionary planner would under-read: open refuses it.
#[test]
fn freelive_2_directories_are_refused() {
    let dir = tmp_dir("freelive-2");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..3]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[3..]).unwrap();
    live.flush().unwrap();
    assert_eq!(live.num_segments(), 2);
    drop(live);
    // The body and its CRC are untouched: only the version differs.
    let path = dir.join("live.manifest");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replacen("FREELIVE 3 ", "FREELIVE 2 ", 1)).unwrap();
    let err = LiveIndex::open(&dir, config())
        .err()
        .expect("a FREELIVE 2 directory must not open");
    assert!(
        matches!(&err, Error::Corrupt(m) if m.contains("unsupported format, rebuild")),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delete_hides_docs_everywhere() {
    let dir = tmp_dir("delete");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..4]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[4..]).unwrap();

    // One delete in the sealed segment, one in the write buffer.
    live.delete(0).unwrap();
    live.delete(4).unwrap();
    assert_eq!(live.live_docs(), 4);
    let result = live.snapshot().query("jump").unwrap();
    assert_eq!(result.matching_seqs(), vec![3]);
    assert_matches_rebuild(&live, &["quick", "jump", "sphinx"]);

    match live.delete(0) {
        Err(Error::AlreadyDeleted(0)) => {}
        other => panic!("expected AlreadyDeleted, got {other:?}"),
    }
    match live.delete(99) {
        Err(Error::UnknownDoc(99)) => {}
        other => panic!("expected UnknownDoc, got {other:?}"),
    }
    match live.get(0) {
        Err(Error::UnknownDoc(0)) => {}
        other => panic!("expected UnknownDoc on deleted get, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tombstones_survive_reopen() {
    let dir = tmp_dir("tombstone-reopen");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&docs()).unwrap();
        live.flush().unwrap();
        live.delete(1).unwrap();
        live.delete(5).unwrap();
    }
    let live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.live_docs(), 4);
    assert_eq!(live.stats().tombstones, 2);
    assert_matches_rebuild(&live, &["quartz", "box"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delete of seq 42 that tears after its first byte leaves a bare `4`
/// at the tail of the log. Opening must refuse that line rather than
/// tombstone document 4, which nobody deleted, and must not rewrite the
/// log.
#[test]
fn torn_tombstone_append_is_detected_not_misapplied() {
    let dir = tmp_dir("tombstone-torn");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        let docs: Vec<Vec<u8>> = (0..50)
            .map(|i| format!("document number {i}").into_bytes())
            .collect();
        let docs: Vec<&[u8]> = docs.iter().map(|d| &d[..]).collect();
        live.add_batch(&docs).unwrap();
        live.delete(7).unwrap();
    }
    let log = dir.join(free_live::TOMBSTONES_FILE);
    let mut torn = std::fs::read(&log).unwrap();
    torn.push(b'4');
    std::fs::write(&log, &torn).unwrap();
    let err = LiveIndex::open(&dir, config())
        .err()
        .expect("a torn tombstone log must not open");
    assert!(
        matches!(&err, Error::Corrupt(m) if m.contains("\"4\"")),
        "{err}"
    );
    assert_eq!(std::fs::read(&log).unwrap(), torn, "open must not repair");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_merges_segments_and_drops_tombstones() {
    let dir = tmp_dir("compact");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..2]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[2..4]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[4..]).unwrap();
    assert_eq!(live.num_segments(), 2);
    live.delete(1).unwrap();
    live.delete(4).unwrap();

    assert!(live.compact().unwrap());
    assert_eq!(live.num_segments(), 1);
    assert_eq!(live.stats().tombstones, 0);
    assert_eq!(live.live_docs(), 4);
    // Sequence numbers are stable across compaction.
    assert_eq!(live.live_seqs(), vec![0, 2, 3, 5]);
    assert_eq!(live.get(5).unwrap(), docs()[5].to_vec());
    assert_matches_rebuild(&live, &["quick", "sphinx", "ju[md]"]);

    // Compacting an already-compacted index is a no-op.
    assert!(!live.compact().unwrap());

    // New additions after compaction get fresh sequence numbers.
    let ids = live.add(b"fresh doc after compaction").unwrap();
    assert_eq!(ids, 6);
    assert_matches_rebuild(&live, &["fresh", "quick"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_all_tombstoned_empties_index() {
    let dir = tmp_dir("compact-empty");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..3]).unwrap();
    live.flush().unwrap();
    for seq in 0..3 {
        live.delete(seq).unwrap();
    }
    assert!(live.compact().unwrap());
    assert_eq!(live.num_segments(), 0);
    assert_eq!(live.live_docs(), 0);
    assert!(live.snapshot().query("quick").unwrap().matches.is_empty());

    // Sequence numbers are still never reused.
    let id = live.add(b"after the purge").unwrap();
    assert_eq!(id, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_survives_reopen() {
    let dir = tmp_dir("compact-reopen");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&docs()[..3]).unwrap();
        live.flush().unwrap();
        live.add_batch(&docs()[3..]).unwrap();
        live.delete(2).unwrap();
        live.compact().unwrap();
    }
    let live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.num_segments(), 1);
    assert_eq!(live.live_seqs(), vec![0, 1, 3, 4, 5]);
    assert_matches_rebuild(&live, &["quick", "wizard"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_flush_on_doc_threshold() {
    let dir = tmp_dir("auto-flush");
    let mut live = LiveIndex::create(
        &dir,
        LiveConfig {
            flush_threshold_docs: 4,
            ..config()
        },
    )
    .unwrap();
    live.add_batch(&docs()).unwrap();
    assert_eq!(live.num_segments(), 1, "batch crossing threshold flushes");
    assert_eq!(live.stats().memtable_docs, 0);
    assert_matches_rebuild(&live, &["quick"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_wal_is_discarded_after_simulated_crash() {
    let dir = tmp_dir("stale-wal");
    let wal_backup = tmp_dir("stale-wal-backup");
    {
        let mut live = LiveIndex::create(&dir, config()).unwrap();
        live.add_batch(&docs()[..3]).unwrap();
        // Simulate a crash between manifest commit and WAL reset: flush,
        // then put the pre-flush WAL (and its stale epoch stamp) back.
        copy_dir(&dir.join("wal"), &wal_backup);
        let epoch = std::fs::read_to_string(dir.join("wal.epoch")).unwrap();
        live.flush().unwrap();
        std::fs::remove_dir_all(dir.join("wal")).unwrap();
        copy_dir(&wal_backup, &dir.join("wal"));
        std::fs::write(dir.join("wal.epoch"), epoch).unwrap();
    }
    let live = LiveIndex::open(&dir, config()).unwrap();
    // The stale WAL's docs are already sealed in the segment; replaying
    // it would double-count them.
    assert_eq!(live.live_docs(), 3);
    assert_eq!(live.stats().memtable_docs, 0);
    assert_matches_rebuild(&live, &["quick", "box"]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal_backup);
}

/// Where a crash cuts off a flush that adopts the WAL: after the
/// manifest commit, before the WAL becomes the segment's store (with the
/// old stamp, or a garbled one); after that rename, before a fresh WAL
/// exists; and after the fresh WAL, before its stamp.
#[derive(Clone, Copy, Debug)]
enum FlushCut {
    Unrenamed,
    UnrenamedGarbledStamp,
    NoFreshWal,
    FreshWalOldStamp,
}

impl FlushCut {
    const ALL: [FlushCut; 4] = [
        FlushCut::Unrenamed,
        FlushCut::UnrenamedGarbledStamp,
        FlushCut::NoFreshWal,
        FlushCut::FreshWalOldStamp,
    ];
}

/// Builds in `dir` the state `cut` leaves: segments before the flush
/// when `sealed_before` (so the cut flush writes postings under the
/// dictionary; otherwise it mines the first one), a buffer with two
/// deleted documents and one deleted sealed document, and the flush cut
/// off. Returns the acknowledged live sequences with their documents.
fn cut_flush(dir: &Path, cut: FlushCut, sealed_before: bool) -> Vec<(DocId, Vec<u8>)> {
    let pages = tiny_pages(120, 11);
    let mut live = LiveIndex::create(dir, config()).unwrap();
    let mut deleted = vec![70, 95];
    if sealed_before {
        live.add_batch(&pages[..60]).unwrap();
        live.flush().unwrap();
        deleted.push(12);
    }
    for batch in pages[live.next_seq() as usize..].chunks(25) {
        live.add_batch(batch).unwrap();
    }
    for &seq in &deleted {
        live.delete(seq).unwrap();
    }
    let stamp = dir.join(free_live::WAL_EPOCH_FILE);
    let old_stamp = std::fs::read_to_string(&stamp).unwrap();
    live.flush().unwrap();
    drop(live);
    let manifest = free_live::Manifest::load(dir).unwrap();
    let id = manifest.segments.last().unwrap().id;
    let store = dir.join(format!("segments/seg-{id}.corpus"));
    let wal = dir.join(free_live::WAL_DIR);
    match cut {
        FlushCut::Unrenamed | FlushCut::UnrenamedGarbledStamp => {
            std::fs::remove_dir_all(&wal).unwrap();
            std::fs::rename(&store, &wal).unwrap();
        }
        FlushCut::NoFreshWal => std::fs::remove_dir_all(&wal).unwrap(),
        FlushCut::FreshWalOldStamp => {}
    }
    let stamp_text = match cut {
        FlushCut::UnrenamedGarbledStamp => "x\n".to_string(),
        _ => old_stamp,
    };
    std::fs::write(&stamp, stamp_text).unwrap();
    (0..pages.len() as DocId)
        .filter(|seq| !deleted.contains(seq))
        .map(|seq| (seq, pages[seq as usize].clone()))
        .collect()
}

/// Every state a crash inside an adopting flush can leave reopens to the
/// acknowledged history: the live documents are exactly the ones added
/// and not deleted, the answers are a rebuild's, the deleted buffered
/// documents stay deleted, and a second open changes no file.
#[test]
fn every_cut_flush_reopens_to_the_acknowledged_history() {
    for cut in FlushCut::ALL {
        for sealed_before in [false, true] {
            let dir = tmp_dir(&format!("cut-flush-{cut:?}-{sealed_before}"));
            let acknowledged = cut_flush(&dir, cut, sealed_before);
            let live = LiveIndex::open(&dir, config()).unwrap();
            let seqs: Vec<DocId> = acknowledged.iter().map(|(seq, _)| *seq).collect();
            assert_eq!(live.live_seqs(), seqs, "{cut:?} {sealed_before}");
            for (seq, doc) in &acknowledged {
                assert_eq!(&live.get(*seq).unwrap(), doc, "{cut:?} {sealed_before}");
            }
            assert_eq!(live.stats().memtable_docs, 0, "{cut:?} {sealed_before}");
            assert_eq!(live.next_seq(), 120);
            assert_matches_rebuild(&live, SYNTH_PATTERNS);
            drop(live);
            let settled = tree(&dir);
            let again = LiveIndex::open(&dir, config()).unwrap();
            assert_eq!(again.live_seqs(), seqs);
            drop(again);
            assert!(
                tree(&dir) == settled,
                "{cut:?} {sealed_before}: a second open wrote"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A flush writes no document byte: the segment's store is the WAL's
/// data file itself, the same inode at the same length, renamed.
#[test]
fn a_threshold_flush_renames_the_wal_data_file() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmp_dir("flush-inode");
    let pages = tiny_pages(100, 5);
    let mut live = LiveIndex::create(
        &dir,
        LiveConfig {
            flush_threshold_docs: 80,
            ..config()
        },
    )
    .unwrap();
    live.add_batch(&pages[..60]).unwrap();
    live.delete(7).unwrap();
    let before = std::fs::metadata(dir.join("wal/corpus.dat")).unwrap();
    live.add_batch(&pages[60..80]).unwrap();
    assert_eq!(live.num_segments(), 1, "the add crossed the threshold");
    let wal = std::fs::metadata(dir.join("wal/corpus.dat")).unwrap();
    let after = std::fs::metadata(dir.join("segments/seg-0.corpus/corpus.dat")).unwrap();
    assert_eq!(after.ino(), before.ino());
    let want: u64 = pages[..80].iter().map(|p| p.len() as u64).sum();
    assert_eq!(after.len(), want);
    assert_ne!(wal.ino(), before.ino());
    assert_eq!(wal.len(), 0);
    // The deleted document stays in the store until compaction.
    assert_eq!(live.stats().segments[0].num_docs, 80);
    assert_eq!(live.live_docs(), 79);
    live.compact().unwrap();
    assert_eq!(live.stats().segments[0].num_docs, 79);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An add that crashed mid-write leaves bytes past the WAL's last
/// committed document. A flush straight after the reopen adopts the WAL
/// without them.
#[test]
fn a_flush_adopts_no_torn_wal_tail() {
    let dir = tmp_dir("torn-wal-tail");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()).unwrap();
    drop(live);
    let data = dir.join("wal/corpus.dat");
    let mut bytes = std::fs::read(&data).unwrap();
    let committed = bytes.len() as u64;
    bytes.extend_from_slice(b"half of an uncommitted document");
    std::fs::write(&data, &bytes).unwrap();
    let mut live = LiveIndex::open(&dir, config()).unwrap();
    live.flush().unwrap();
    let store = std::fs::metadata(dir.join("segments/seg-0.corpus/corpus.dat")).unwrap();
    assert_eq!(store.len(), committed);
    assert_matches_rebuild(&live, &["quick", "jump"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_threads_agree() {
    let dir = tmp_dir("threads");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..4]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[4..]).unwrap();
    live.delete(2).unwrap();
    let snapshot = live.snapshot();
    for pattern in ["quick", "ju[md]", "o"] {
        let at = |threads| {
            let opts = QueryOpts {
                threads,
                ..QueryOpts::default()
            };
            snapshot.query_opts(pattern, &opts).unwrap()
        };
        let (one, four) = (at(1), at(4));
        assert_eq!(
            one.matches, four.matches,
            "pattern {pattern:?} diverged across thread counts"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// In pages from another vocabulary, the dictionary keys that still occur
/// are the ones common to every vocabulary: a third of their postings
/// fall on keys useless among them, so the next compaction re-mines (and
/// `free segments` flags FA302).
#[test]
fn key_set_drift_flags_novel_content() {
    let dir = tmp_dir("drift");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&synth_pages()[..100]).unwrap();
    assert_eq!(live.drift().fraction, 0.0, "no segments yet");
    live.flush().unwrap();
    assert_eq!(live.drift().fraction, 0.0, "nothing since the mining");

    live.add_batch(&other_vocabulary(100)).unwrap();
    let drift = live.drift();
    assert!(drift.share.unwrap() > 0.2, "{drift:?}");
    assert!(drift.fraction > free_live::DRIFT_TOLERANCE && drift.remines());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_bumps_on_every_mutation() {
    let dir = tmp_dir("generation");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    let g0 = live.generation();
    live.add(b"one doc").unwrap();
    let g1 = live.generation();
    assert!(g1 > g0);
    live.delete(0).unwrap();
    let g2 = live.generation();
    assert!(g2 > g1);
    live.add(b"two doc").unwrap();
    live.flush().unwrap();
    assert!(live.generation() > g2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_json_shape() {
    let dir = tmp_dir("stats-json");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..3]).unwrap();
    live.flush().unwrap();
    live.add_batch(&docs()[3..]).unwrap();
    live.delete(1).unwrap();
    let stats = live.stats();
    assert_eq!(stats.segments.len(), 1);
    assert_eq!(stats.memtable_docs, 3);
    assert_eq!(stats.tombstones, 1);
    assert_eq!(stats.live_docs, 5);
    let json = stats.to_json();
    assert!(json.contains("\"num_segments\":1"), "{json}");
    assert!(json.contains("\"tombstones\":1"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn stale_wal_epoch_discards_wal_and_keeps_sealed_docs() {
    // Simulate the crash window between a flush's manifest commit and
    // its WAL reset: the docs are already sealed in a segment, so the
    // stale WAL must be discarded on reopen — replaying it would
    // duplicate them under new sequence numbers.
    let dir = tmp_dir("stale-epoch");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..3]).unwrap();
    live.flush().unwrap();
    live.add(b"buffered only, not yet flushed").unwrap();
    let live_docs = live.live_docs();
    let next_seq = live.next_seq();
    drop(live);
    // Roll the epoch stamp back one flush: the WAL on disk now claims
    // to hold docs the manifest says are already sealed.
    std::fs::write(dir.join(free_live::WAL_EPOCH_FILE), "0\n").unwrap();
    let reopened = LiveIndex::open(&dir, config()).unwrap();
    // The buffered doc rode the stale WAL and is gone; the sealed ones
    // survive. Nothing is duplicated.
    assert_eq!(reopened.live_docs(), live_docs - 1);
    assert_eq!(reopened.next_seq(), next_seq - 1);
    let seqs = reopened.live_seqs();
    assert_eq!(seqs.len(), live_docs - 1);
    // The epoch stamp is repaired to match the manifest again.
    let stamp = std::fs::read_to_string(dir.join(free_live::WAL_EPOCH_FILE)).unwrap();
    assert_eq!(stamp.trim(), "1");
    // And a second reopen is a no-op: state is stable.
    let again = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(again.live_docs(), live_docs - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of the WAL, in name order.
fn wal_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir.join(free_live::WAL_DIR))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Every writer of the epoch stamp recreates the WAL empty first, so an
/// unreadable stamp over buffered documents is damage, not a crash
/// window: whether those documents are sealed already is unknowable.
/// Open refuses and leaves the WAL byte for byte as it was; restoring the
/// stamp brings every document back. Over an empty WAL the stamp is
/// simply rewritten.
#[test]
fn unreadable_wal_epoch_refuses_to_discard_buffered_docs() {
    let dir = tmp_dir("garbled-epoch");
    let stamp = dir.join(free_live::WAL_EPOCH_FILE);
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()[..3]).unwrap();
    live.compact().unwrap();
    live.add_batch(&docs()[3..]).unwrap();
    drop(live);
    let epoch = free_live::Manifest::load(&dir).unwrap().wal_epoch;
    assert!(epoch >= 1);
    let wal = wal_files(&dir);
    for damage in ["x\n", ""] {
        std::fs::write(&stamp, damage).unwrap();
        let err = LiveIndex::open(&dir, config())
            .err()
            .expect("an unreadable stamp over buffered docs must not open");
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("epoch stamp")),
            "{err}"
        );
        assert_eq!(wal_files(&dir), wal, "open must leave the WAL as found");
    }
    std::fs::remove_file(&stamp).unwrap();
    assert!(
        LiveIndex::open(&dir, config()).is_err(),
        "a missing stamp too"
    );
    assert_eq!(wal_files(&dir), wal);

    std::fs::write(&stamp, format!("{epoch}\n")).unwrap();
    let mut live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.live_docs(), 6);
    live.flush().unwrap();
    drop(live);
    // Nothing buffered: the stamp is rewritten and the directory opens.
    std::fs::write(&stamp, "x\n").unwrap();
    let live = LiveIndex::open(&dir, config()).unwrap();
    assert_eq!(live.live_docs(), 6);
    let want = free_live::Manifest::load(&dir).unwrap().wal_epoch;
    assert_eq!(
        std::fs::read_to_string(&stamp).unwrap(),
        format!("{want}\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphaned_segment_files_removed_on_reopen() {
    let dir = tmp_dir("orphan-cleanup");
    let mut live = LiveIndex::create(&dir, config()).unwrap();
    live.add_batch(&docs()).unwrap();
    live.flush().unwrap();
    drop(live);
    // Plant files for a segment id the manifest does not name, as a
    // crashed compaction would leave behind.
    let seg_root = dir.join(free_live::SEGMENTS_DIR);
    std::fs::write(seg_root.join("seg-99.idx"), b"junk").unwrap();
    std::fs::write(seg_root.join("seg-99.seqs"), b"junk").unwrap();
    let manifest = free_live::Manifest::load(&dir).unwrap();
    assert_eq!(
        free_live::orphan_segment_ids(&seg_root, &manifest),
        vec![99]
    );
    let reopened = LiveIndex::open(&dir, config()).unwrap();
    assert!(reopened.retired_segment_files().is_empty());
    assert!(!seg_root.join("seg-99.idx").exists());
    assert!(!seg_root.join("seg-99.seqs").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
