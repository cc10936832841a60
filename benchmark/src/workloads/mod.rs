//! The four workloads and what they share: the run context, the shape
//! of a result, and the arithmetic that turns rounds into the seven
//! end-to-end metrics.

pub mod build_batch;
pub mod ingest_live;
pub mod query_batch;
pub mod serve_mixed;

use crate::inputs::{Fingerprint, Scale, Sizes};
use crate::measure::{iqr_share, median, percentile};
use crate::oracle::Answer;
use crate::sut;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a run is given.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub sizes: Sizes,
    pub traced: bool,
    /// A fresh directory on a real filesystem, removed when the run ends.
    pub scratch: PathBuf,
    /// Where a traced run writes its spans (kept after the run).
    pub trace_path: PathBuf,
    /// When this process started (the origin of `setup_s`).
    pub process_start: Instant,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// IQR ÷ median of the per-round values, where there are rounds.
    pub spread: Option<f64>,
    /// Sample count behind a percentile.
    pub n: Option<u64>,
}

impl Metric {
    pub fn plain(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            spread: None,
            n: None,
        }
    }
}

/// What a run gives back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Counts and digests that must repeat exactly for a seed and scale.
    pub exact: BTreeMap<&'static str, u64>,
    pub fingerprint: Fingerprint,
    /// `measured` when the RSS high-water mark was reset as set-up
    /// ended, `process` when the kernel refused.
    pub rss_scope: &'static str,
    /// The first few wrong answers, for stderr.
    pub failures: Vec<String>,
    /// Set when a traced run's child spans cover too little of their
    /// parent; the run then exits non-zero.
    pub reconciliation_error: Option<String>,
    /// Wall seconds of each measured round, in order.
    pub round_walls_s: Vec<f64>,
    /// Pattern → answers of this run's oracle, for `bless`.
    pub blessed: Vec<(String, Vec<Answer>)>,
}

impl Outcome {
    pub fn new(fingerprint: Fingerprint) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            exact: BTreeMap::new(),
            fingerprint,
            rss_scope: "measured",
            failures: Vec::new(),
            reconciliation_error: None,
            round_walls_s: Vec::new(),
            blessed: Vec::new(),
        }
    }

    /// Fills in the end-to-end metrics of an untraced run.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        rounds: &[Round],
        peak_rss_mib: f64,
        stored: f64,
    ) {
        self.round_walls_s = rounds.iter().map(|r| r.wall_s).collect();
        self.metrics = end_to_end(setup_s, rounds, peak_rss_mib, stored);
    }

    /// Counts one request and, when its reply is wrong, one failure.
    pub fn check(&mut self, what: impl FnOnce() -> String, got: Option<Answer>, want: Answer) {
        self.attempted += 1;
        if got != Some(want) {
            self.fail(format!("{}: got {got:?}, want {want:?}", what()));
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Per-layer rows from a name → value map, in catalogue order, with
    /// 0 for the rows of layers this workload rests.
    pub fn set_per_layer(&mut self, rows: &BTreeMap<&'static str, f64>) {
        for name in rows.keys() {
            assert!(
                crate::catalogue::PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not in the catalogue"
            );
        }
        self.metrics = crate::catalogue::PER_LAYER
            .iter()
            .map(|d| Metric::plain(d.name, rows.get(d.name).copied().unwrap_or(0.0)))
            .collect();
        for name in crate::catalogue::EXACT {
            if let Some(v) = rows.get(name) {
                self.exact.insert(name, v.to_bits());
            }
        }
    }
}

/// One round of a measured phase.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Units completed correctly.
    pub units: u64,
    pub latencies_ms: Vec<f64>,
}

/// The seven end-to-end metrics from a run's rounds: throughput and CPU
/// as the median over rounds of the per-round value, latencies pooled
/// over all rounds, each with the rounds' spread beside it.
fn end_to_end(
    setup_s: f64,
    rounds: &[Round],
    peak_rss_mib: f64,
    stored_bytes_per_doc_byte: f64,
) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let with_rounds = |name, values: Vec<f64>| Metric {
        name,
        value: median(&values),
        spread: (values.len() > 1).then(|| iqr_share(&values)),
        n: None,
    };
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let pooled_percentile = |name, p: f64| {
        let rounds_p = per_round(&|r| percentile(&r.latencies_ms, p));
        Metric {
            name,
            value: percentile(&pooled, p),
            spread: (rounds.len() > 1).then(|| iqr_share(&rounds_p)),
            n: Some(pooled.len() as u64),
        }
    };
    vec![
        Metric::plain("setup_s", setup_s),
        with_rounds(
            "throughput_per_s",
            per_round(&|r| r.units as f64 / r.wall_s),
        ),
        pooled_percentile("req_p50_ms", 0.5),
        pooled_percentile("req_p99_ms", 0.99),
        with_rounds(
            "cpu_ms_per_unit",
            per_round(&|r| r.cpu_s * 1e3 / r.units.max(1) as f64),
        ),
        Metric::plain("peak_rss_mib", peak_rss_mib),
        Metric::plain("stored_bytes_per_doc_byte", stored_bytes_per_doc_byte),
    ]
}

/// Generates pages `ids` and persists them as a corpus store in `dir`.
pub fn persist_corpus(
    pages: &sut::Pages,
    ids: std::ops::Range<sut::DocId>,
    dir: &std::path::Path,
) -> sut::Result<Fingerprint> {
    let mut sink = sut::CorpusSink::create(dir)?;
    let fp = crate::inputs::for_each_page(pages, ids, |_, bytes| sink.append(bytes))?;
    sink.finish()?;
    Ok(fp)
}

/// Folds answers into one digest (an *exact* value of the run).
pub fn fold_answers<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in answers {
        for word in [u64::from(a.docs), a.digest] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Median in milliseconds of durations given in seconds.
pub fn p50_ms(seconds: &[f64]) -> f64 {
    if seconds.is_empty() {
        0.0
    } else {
        percentile(seconds, 0.5) * 1e3
    }
}
