//! Everything a run is made of, derived from `--seed` alone: the sizes,
//! the corpus and the pattern pools.

use crate::prng::Rng;
use crate::sut::{Crc, DocId, Pages};

/// The seed `benchmark/expected/*.json` was blessed with.
pub const DEFAULT_SEED: u64 = 1;

/// PRNG stream ids, one per use, so draws never alias.
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const PATTERNS: u64 = 2;
    pub const SCHEDULE: u64 = 3;
    pub const DELETES: u64 = 4;
    pub const PROBE: u64 = 5;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every recorded number comes from.
    Full,
    /// Every size shrunk so that all four workloads finish in seconds;
    /// for CI and the package's own tests, never for a recorded number.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The constants that fix how much work a run does. They were chosen
/// on the 2-core reference host so that a run's set-up is 4 s of real
/// work or more and its measured phase 10 s or more, while the driver's
/// 4 + 22 × 4 runs and two builds fit its 3420 s cap (README, "Sizes").
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    // build_batch
    pub build_docs: u32,
    pub build_rounds: usize,
    pub build_probe: usize,
    // ingest_live
    pub ingest_base_docs: u32,
    pub ingest_round_batches: u32,
    pub ingest_batch_docs: u32,
    pub ingest_delete_every: u32,
    pub ingest_delete_group: u32,
    pub ingest_rounds: usize,
    pub ingest_verify_probe: usize,
    pub ingest_perf_probe: usize,
    // query_batch
    pub query_docs: u32,
    pub query_selective: usize,
    pub query_weak: usize,
    pub query_scan: usize,
    pub query_round_selective: usize,
    pub query_round_weak: usize,
    pub query_round_scan: usize,
    pub query_rounds: usize,
    // serve_mixed
    pub serve_base_docs: u32,
    pub serve_pool: usize,
    pub serve_requests: usize,
    pub serve_warmup: usize,
    pub serve_add_every: usize,
    pub serve_add_docs: u32,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                build_docs: 800,
                build_rounds: 5,
                build_probe: 20,
                ingest_base_docs: 540,
                ingest_round_batches: 54,
                ingest_batch_docs: 36,
                ingest_delete_every: 16,
                ingest_delete_group: 8,
                ingest_rounds: 3,
                ingest_verify_probe: 20,
                ingest_perf_probe: 50,
                query_docs: 2400,
                query_selective: 270,
                query_weak: 22,
                query_scan: 8,
                query_round_selective: 372,
                query_round_weak: 20,
                query_round_scan: 8,
                query_rounds: 9,
                serve_base_docs: 1968,
                serve_pool: 4096,
                serve_requests: 4000,
                serve_warmup: 200,
                serve_add_every: 40,
                serve_add_docs: 24,
            },
            Scale::Smoke => Sizes {
                build_docs: 240,
                build_rounds: 2,
                build_probe: 8,
                ingest_base_docs: 144,
                ingest_round_batches: 8,
                ingest_batch_docs: 24,
                ingest_delete_every: 4,
                ingest_delete_group: 4,
                ingest_rounds: 2,
                ingest_verify_probe: 8,
                ingest_perf_probe: 10,
                query_docs: 300,
                query_selective: 40,
                query_weak: 6,
                query_scan: 4,
                query_round_selective: 160,
                query_round_weak: 36,
                query_round_scan: 4,
                query_rounds: 2,
                serve_base_docs: 300,
                serve_pool: 256,
                serve_requests: 800,
                serve_warmup: 20,
                serve_add_every: 100,
                serve_add_docs: 12,
            },
        }
    }
}

/// The pages of a benchmark seed: a seeded window onto the shipped
/// generator's page sequence.
pub fn pages(seed: u64) -> Pages {
    Pages::new((Rng::new(seed, stream::CORPUS).next_u64() >> 33) as DocId)
}

/// What pins a generated corpus: how many documents, how many bytes,
/// and the CRC-32 of all bytes in order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub docs: u64,
    pub bytes: u64,
    pub crc: u32,
}

/// Generates pages `ids` one at a time into a reused buffer (the corpus
/// is never held whole in memory) and returns their fingerprint.
pub fn for_each_page(
    pages: &Pages,
    ids: std::ops::Range<DocId>,
    mut visit: impl FnMut(DocId, &[u8]) -> crate::sut::Result<()>,
) -> crate::sut::Result<Fingerprint> {
    let mut buf = Vec::new();
    let mut crc = Crc::default();
    let mut fp = Fingerprint::default();
    for id in ids {
        pages.page(id, &mut buf);
        crc.update(&buf);
        fp.docs += 1;
        fp.bytes += buf.len() as u64;
        visit(id, &buf)?;
    }
    fp.crc = crc.finish();
    Ok(fp)
}

/// The plan class a pattern was composed to get. The class the planner
/// actually gives it is measured, not assumed (`engine.indexed_share`,
/// `engine.scan_share`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intent {
    /// Rare literals: the index should narrow to a small slice.
    Selective,
    /// A wide alternation of useful grams: index-assisted, yet most of
    /// the corpus is a candidate.
    Weak,
    /// Classes only: no useful gram, a full scan.
    Scan,
}

/// Literals any match of a pattern must contain, known from how the
/// benchmark composed the pattern: every one of `all_of`, and (when it
/// is not empty) at least one of `any_of`. The default admits every
/// document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Guard {
    pub all_of: Vec<String>,
    pub any_of: Vec<String>,
}

impl Guard {
    fn all(literals: &[&str]) -> Guard {
        Guard {
            all_of: literals.iter().map(|s| s.to_string()).collect(),
            any_of: Vec::new(),
        }
    }

    fn any(literals: Vec<String>) -> Guard {
        Guard {
            all_of: Vec::new(),
            any_of: literals,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Pattern {
    pub text: String,
    pub intent: Intent,
    pub guard: Guard,
    /// The pattern is a plain literal or an alternation of plain
    /// literals, so the guard is the whole answer.
    pub guard_decides: bool,
}

impl Pattern {
    fn regex(text: String, intent: Intent, guard: Guard) -> Pattern {
        Pattern {
            text,
            intent,
            guard,
            guard_decides: false,
        }
    }
}

/// The ten queries of the paper's Figure 8 (copied, not imported: the
/// benchmark must not move when `crates/bench` does), each with the
/// literals any of its matches contains.
pub fn figure8() -> Vec<Pattern> {
    let all = Guard::all;
    let p = |text: &str, intent, guard| Pattern::regex(text.to_string(), intent, guard);
    vec![
        p(
            r#"<a href=("|')?.*\.mp3("|')?>"#,
            Intent::Selective,
            all(&["<a href=", ".mp3"]),
        ),
        p(r"\d\d\d\d\d(-\d\d\d\d)?", Intent::Scan, Guard::default()),
        p(r"<[^>]*<", Intent::Scan, Guard::default()),
        p(
            r"william\s+[a-z]+\s+clinton",
            Intent::Selective,
            all(&["william", "clinton"]),
        ),
        p(
            r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*",
            Intent::Selective,
            all(&["motorola"]),
        ),
        p(
            r"<script>.*</script>",
            Intent::Selective,
            all(&["<script>", "</script>"]),
        ),
        p(
            r"\(\d\d\d\) \d\d\d-\d\d\d\d|\d\d\d-\d\d\d-\d\d\d\d",
            Intent::Scan,
            Guard::default(),
        ),
        p(
            r#"<a\s+href\s*=\s*("|')?[^>]*(\.ps|\.pdf)("|')?>.{0,200}sigmod"#,
            Intent::Selective,
            all(&["sigmod"]),
        ),
        p(
            r"(\a|\d|-|_|\.)+@((\a|\d)+\.)*stanford\.edu",
            Intent::Selective,
            all(&["stanford.edu"]),
        ),
        p(
            r"cgi\.ebay\.com.*item=[0-9]+",
            Intent::Selective,
            all(&["cgi.ebay.com", "item="]),
        ),
    ]
}

/// Zipf ranks a template draws its words from. With 4000 words, about
/// 280 words a page and frequency ∝ 1/rank, a word of rank r is on
/// 1 − exp(−31.6 / r) of the pages: rank 300 is the usefulness
/// threshold c = 0.1, so words more frequent than that have no index
/// key at all. What a query costs is set by how many pages *match*
/// (each one is walked for its spans), so the selective templates stay
/// with words on 2.6 % of the pages or fewer.
const RARE: (usize, usize) = (1200, 4000);
const VERY_RARE: (usize, usize) = (2400, 4000);
const USEFUL_BUT_COMMON: (usize, usize) = (380, 760);
const COMMON: (usize, usize) = (40, 300);

/// A slice `[from, to)` of the unit interval: where in a rank range a
/// template draws from. Patterns are dealt slices in a fixed order, so
/// the *distribution* of word ranks — and with it of match counts and
/// query costs — is the same for every seed; only which words, and
/// which pages they are on, is the seed's choice.
#[derive(Clone, Copy)]
struct Slice(f64, f64);

const WHOLE: Slice = Slice(0.0, 1.0);

/// The `k`-th of `n` equal slices, visited in a scattered order so that
/// neighbouring patterns do not get neighbouring ranks, and widened by
/// `widen` slices on each side (a slice of a dozen ranks can run out of
/// unused words).
fn slice_of(k: usize, n: usize, widen: usize) -> Slice {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut step = n * 3 / 8 + 1;
    while gcd(step, n) != 1 {
        step += 1;
    }
    let k = (k * step) % n;
    Slice(
        k.saturating_sub(widen) as f64 / n as f64,
        (k + 1 + widen).min(n) as f64 / n as f64,
    )
}

fn word(
    pages: &Pages,
    rng: &mut Rng,
    ranks: (usize, usize),
    slice: Slice,
    min_len: usize,
) -> String {
    let hi = ranks.1.min(pages.vocab_len());
    let span = (hi - ranks.0) as f64;
    let lo = ranks.0 + (slice.0 * span) as usize;
    let hi = (ranks.0 + (slice.1 * span).ceil() as usize).clamp(lo + 1, hi);
    // Widen the slice rather than spin when it holds no long-enough word.
    for widen in 0..64 {
        let w = pages.word(rng.range(lo.saturating_sub(widen * 4).max(ranks.0), hi));
        if w.len() >= min_len {
            return w.to_string();
        }
    }
    pages.word(rng.range(lo, hi)).to_string()
}

fn distinct_words(
    pages: &Pages,
    rng: &mut Rng,
    n: usize,
    ranks: (usize, usize),
    min_len: usize,
) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let w = word(pages, rng, ranks, WHOLE, min_len);
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

/// The `k`-th of `n` selective patterns: the template by `k`'s place in
/// a cycle of twenty, the rare word's rank from the slice of `k`'s turn
/// of the cycle. Fifteen of the twenty are two-word patterns, which few
/// pages match and which all cost about the same; a rare word alone
/// matches a dozen pages and costs three or four times as much. With
/// the two kinds near even the median request sat in the gap between
/// them and moved ±10 % with the seed; three quarters puts it well
/// inside the two-word kind on every workload.
fn selective(pages: &Pages, rng: &mut Rng, k: usize, n: usize, widen: usize) -> Pattern {
    let slice = slice_of(k / 20, n.div_ceil(20), widen);
    match k % 20 {
        // A rare word.
        0..=3 => {
            let w = word(pages, rng, RARE, slice, 6);
            Pattern {
                text: w.clone(),
                intent: Intent::Selective,
                guard: Guard::all(&[&w]),
                guard_decides: true,
            }
        }
        // Two words within 40 bytes: the common one has no key.
        4..=10 => {
            let a = word(pages, rng, COMMON, WHOLE, 5);
            let b = word(pages, rng, RARE, slice, 6);
            Pattern::regex(
                format!("{a}.{{0,40}}{b}"),
                Intent::Selective,
                Guard::all(&[&a, &b]),
            )
        }
        // Either of two very rare words.
        11 => {
            let a = word(pages, rng, VERY_RARE, slice, 6);
            let mut b = word(pages, rng, VERY_RARE, WHOLE, 6);
            while b == a {
                b = word(pages, rng, VERY_RARE, WHOLE, 6);
            }
            let ws = vec![a, b];
            Pattern {
                text: format!("({})", ws.join("|")),
                intent: Intent::Selective,
                guard: Guard::any(ws),
                guard_decides: true,
            }
        }
        // Two adjacent words.
        _ => {
            let a = word(pages, rng, RARE, slice, 5);
            let b = word(pages, rng, COMMON, WHOLE, 4);
            Pattern::regex(
                format!(r"{a}\s+{b}"),
                Intent::Selective,
                Guard::all(&[&a, &b]),
            )
        }
    }
}

/// A wide alternation of words that each have an index key, followed by
/// a common word: the union of the postings is most of the corpus, the
/// common word is required of every match yet is no key (so only the
/// anchoring prefilter can use it), and few candidates match. How
/// common that word is decides how many candidates the prefilter turns
/// away, so its rank comes from the `k`-th of `n` slices.
fn weak(pages: &Pages, rng: &mut Rng, k: usize, n: usize, widen: usize) -> Pattern {
    let ws = distinct_words(pages, rng, 12, USEFUL_BUT_COMMON, 5);
    let c = word(pages, rng, COMMON, slice_of(k, n, widen), 4);
    Pattern::regex(
        format!(r"({})\s+{c}", ws.join("|")),
        Intent::Weak,
        Guard {
            all_of: vec![c],
            any_of: ws,
        },
    )
}

/// Class-only patterns, none with a useful gram. The first ones (after
/// Figure 8's three) are fixed, so that the scan population, where
/// `req_p99_ms` sits, is the same for every seed; a pool that needs
/// more gets digit runs with one concrete digit (a single digit is on
/// nearly every page, so it is no index key).
const FIXED_SCANS: [&str; 5] = [
    r"\d\d\d-\d\d\d\d",
    r"\d\d\d\d\d\d",
    r"\(\d\d\d\)",
    r"\d+\.\d+",
    r"\d\d-\d\d",
];

fn scan(rng: &mut Rng) -> Pattern {
    let mut text = String::new();
    let digits = rng.range(4, 8);
    let concrete = rng.below(digits);
    let dash = rng.range(1, digits);
    for i in 0..digits {
        if i == dash && rng.below(2) == 0 {
            text.push('-');
        }
        if i == concrete {
            text.push(char::from(b'0' + rng.below(10) as u8));
        } else {
            text.push_str(r"\d");
        }
    }
    Pattern::regex(text, Intent::Scan, Guard::default())
}

/// A pool of distinct patterns: `n_selective` selective ones (the
/// Figure 8 selective queries first), `n_weak` weak ones and `n_scan`
/// scans (the Figure 8 scans first), in that order.
pub fn pattern_pool(
    pages: &Pages,
    rng: &mut Rng,
    n_selective: usize,
    n_weak: usize,
    n_scan: usize,
) -> Vec<Pattern> {
    let mut seen = std::collections::BTreeSet::new();
    // (rng, k, n, widen) → the k-th of n patterns of an intent.
    type Make<'a> = &'a mut dyn FnMut(&mut Rng, usize, usize, usize) -> Pattern;
    let mut fill = |intent: Intent, n: usize, make: Make<'_>| {
        let mut out: Vec<Pattern> = figure8()
            .into_iter()
            .chain(
                FIXED_SCANS
                    .iter()
                    .map(|t| Pattern::regex(t.to_string(), Intent::Scan, Guard::default())),
            )
            .filter(|p| p.intent == intent)
            .take(n)
            .collect();
        for p in &out {
            seen.insert(p.text.clone());
        }
        // The k-th pattern keeps its template; each draw that gives a
        // text already used widens its slice a little.
        let mut widen = 0;
        while out.len() < n {
            let p = make(rng, out.len(), n, widen / 4);
            if seen.insert(p.text.clone()) {
                out.push(p);
                widen = 0;
            } else {
                widen += 1;
            }
        }
        out
    };
    let mut pool = fill(Intent::Selective, n_selective, &mut |r, k, n, w| {
        selective(pages, r, k, n, w)
    });
    pool.extend(fill(Intent::Weak, n_weak, &mut |r, k, n, w| {
        weak(pages, r, k, n, w)
    }));
    pool.extend(fill(Intent::Scan, n_scan, &mut |r, _, _, _| scan(r)));
    pool
}

/// A small pool for probing a finished index: three quarters selective,
/// the rest weak and scans (no scan when there are fewer than eight).
pub fn probe_pool(pages: &Pages, rng: &mut Rng, n: usize) -> Vec<Pattern> {
    let scans = n / 8;
    let weak = n / 4 - scans;
    pattern_pool(pages, rng, n - weak - scans, weak, scans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Matcher;

    #[test]
    fn pool_is_distinct_parseable_and_repeats_for_a_seed() {
        let pages = pages(7);
        let pool = pattern_pool(&pages, &mut Rng::new(7, stream::PATTERNS), 120, 12, 12);
        assert_eq!(pool.len(), 144);
        let texts: std::collections::BTreeSet<&str> =
            pool.iter().map(|p| p.text.as_str()).collect();
        assert_eq!(texts.len(), pool.len());
        for p in &pool {
            Matcher::new(&p.text).unwrap_or_else(|e| panic!("{}: {e}", p.text));
        }
        let again = pattern_pool(&pages, &mut Rng::new(7, stream::PATTERNS), 120, 12, 12);
        assert!(pool.iter().zip(&again).all(|(a, b)| a.text == b.text));
        let other = pattern_pool(&pages, &mut Rng::new(8, stream::PATTERNS), 120, 12, 12);
        assert!(pool.iter().zip(&other).any(|(a, b)| a.text != b.text));
    }

    #[test]
    fn a_pool_larger_than_the_vocabulary_still_fills() {
        // 1600 single-word patterns from 2800 ranks: slices run out of
        // unused words and must widen instead of spinning.
        let pages = pages(1);
        let pool = pattern_pool(&pages, &mut Rng::new(1, stream::PATTERNS), 3984, 100, 12);
        assert_eq!(pool.len(), 4096);
    }

    #[test]
    fn fingerprint_pins_the_bytes() {
        let a = for_each_page(&pages(3), 0..50, |_, _| Ok(())).unwrap();
        let b = for_each_page(&pages(3), 0..50, |_, _| Ok(())).unwrap();
        let c = for_each_page(&pages(4), 0..50, |_, _| Ok(())).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.crc, c.crc);
        assert_eq!(a.docs, 50);
    }
}
