//! `build_batch` — the paper's Table 3: what it costs to build the index.
//!
//! A request is one `Engine::build_on_disk` of the persisted corpus into
//! a fresh path; a unit is one document. Rounds are identical: the same
//! corpus, a new index path. Only `select` (the a-priori mining
//! passes), `engine::generate_postings` and `index::IndexBuilder` work
//! here; `regex`, `live` and `cli` rest — a write-path kernel shows here
//! first.

use super::{fold_answers, persist_corpus, Ctx, Outcome, Round};
use crate::inputs::{self, stream, Pattern};
use crate::measure::{self, Interval};
use crate::oracle::{answer_of, Answer, Oracle};
use crate::prng::Rng;
use crate::sut;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Answers the probe patterns on a finished index.
fn probe(engine: &sut::BatchEngine, patterns: &[Pattern]) -> Vec<Option<Answer>> {
    patterns
        .iter()
        .map(|p| engine.query(&p.text).ok())
        .collect()
}

pub fn run(ctx: &Ctx) -> sut::Result<Outcome> {
    let docs = ctx.sizes.build_docs;
    let pages = inputs::pages(ctx.seed);
    // Everything the workload stores lives under `data`.
    let data = ctx.scratch.join("data");
    let corpus_dir = data.join("corpus");
    let fingerprint = persist_corpus(&pages, 0..docs, &corpus_dir)?;
    let patterns = inputs::probe_pool(
        &pages,
        &mut Rng::new(ctx.seed, stream::PROBE),
        ctx.sizes.build_probe,
    );

    // Warm-up: one whole build, unmeasured, so the page cache holds the
    // corpus and the allocator its arenas before round 1.
    let warm = data.join("warm.idx");
    drop(sut::build_on_disk(&corpus_dir, &warm)?);
    std::fs::remove_file(&warm)?;

    let mut out = Outcome::new(fingerprint);
    if !measure::reset_peak_rss() {
        out.rss_scope = "process";
    }
    let setup_s = ctx.process_start.elapsed().as_secs_f64();

    let mut probes: Vec<Vec<Option<Answer>>> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut index_path = data.join("unused.idx");
    if ctx.traced {
        traced_round(ctx, &corpus_dir, &patterns, &mut out, &mut probes)?;
    } else {
        for round in 0..ctx.sizes.build_rounds {
            let _ = std::fs::remove_file(&index_path);
            index_path = data.join(format!("round-{round}.idx"));
            let interval = Interval::start();
            let started = Instant::now();
            let (engine, info) = sut::build_on_disk(&corpus_dir, &index_path)?;
            let latency = measure::ms_since(started);
            let (wall_s, cpu_s) = interval.stop();
            rounds.push(Round {
                wall_s,
                cpu_s,
                units: u64::from(docs),
                latencies_ms: vec![latency],
            });
            out.exact.insert("index_keys", info.keys);
            out.exact.insert("index_postings", info.postings);
            probes.push(probe(&engine, &patterns));
        }
    }
    let peak = measure::peak_rss_mib();

    // The oracle: the same pages, generated again, never the stored ones.
    let mut oracle = Oracle::new(&patterns)?;
    inputs::for_each_page(&pages, 0..docs, |id, bytes| {
        oracle.push(id, bytes);
        Ok(())
    })?;
    let expected: Vec<Answer> = oracle.finish().into_iter().map(answer_of).collect();
    // A build is correct when the index it left answers the probe.
    for (round, answers) in probes.iter().enumerate() {
        let wrong = answers
            .iter()
            .zip(&expected)
            .position(|(got, want)| *got != Some(*want));
        out.attempted += 1;
        if let Some(i) = wrong {
            out.fail(format!(
                "build {round}: probe {:?} answered {:?}, want {:?}",
                patterns[i].text, answers[i], expected[i]
            ));
            // An index that answers wrongly completed no unit.
            if let Some(r) = rounds.get_mut(round) {
                r.units = 0;
                r.latencies_ms.clear();
            }
        }
    }
    if !ctx.traced {
        let stored = measure::dir_bytes(&data) as f64 / fingerprint.bytes as f64;
        out.set_end_to_end(setup_s, &rounds, peak, stored);
    }
    out.exact.insert("probe_answers", fold_answers(&expected));
    out.blessed = patterns
        .iter()
        .zip(&expected)
        .map(|(p, a)| (p.text.clone(), vec![*a]))
        .collect();
    Ok(out)
}

/// One untraced build for reference, then the same build in stages
/// through the public stage functions with a span around each, then
/// each layer's share of the work replayed against that layer alone.
fn traced_round(
    ctx: &Ctx,
    corpus_dir: &Path,
    patterns: &[Pattern],
    out: &mut Outcome,
    probes: &mut Vec<Vec<Option<Answer>>>,
) -> sut::Result<()> {
    let reference_path = ctx.scratch.join("reference.idx");
    let started = Instant::now();
    let (engine, _) = sut::build_on_disk(corpus_dir, &reference_path)?;
    let reference_s = started.elapsed().as_secs_f64();
    probes.push(probe(&engine, patterns));
    drop(engine);
    std::fs::remove_file(&reference_path)?;

    let mut tracer = Tracer::new(ctx.process_start);
    let index_path = ctx.scratch.join("staged.idx");
    let root = tracer.open("build", None, 0);
    let (corpus, _) = tracer.within("corpus.open", Some(root), 0, || {
        sut::StoredCorpus::open(corpus_dir)
    });
    let corpus = corpus?;
    let (selected, mine_s) = tracer.within("select.select_keys", Some(root), 0, || {
        sut::select_keys(&corpus)
    });
    let (keys, info) = selected?;
    let (sink, construct_s) = tracer.within("engine.generate_postings", Some(root), 0, || {
        sut::postings_into_index(&corpus, &keys, &index_path)
    });
    let (postings, finish_s) =
        tracer.within("index.finish", Some(root), 0, || sut::finish_index(sink?));
    let postings = postings?;
    let staged_s = tracer.close(root);
    let engine = sut::BatchEngine::open(corpus_dir, &index_path, false)?;
    probes.push(probe(&engine, patterns));

    // Replays: one layer at a time, outside the staged build's span.
    let mib = corpus.total_bytes() as f64 / (1 << 20) as f64;
    let (_, scan_s) = tracer.within("corpus.scan", None, 1, || {
        corpus.scan(&mut |id, bytes| {
            std::hint::black_box((id, bytes.len()));
        })
    });
    let (discarded, postings_scan_s) = tracer.within("engine.postings_discarded", None, 2, || {
        sut::postings_discarded(&corpus, &keys)
    });
    if discarded? != postings {
        out.fail(format!(
            "staged build wrote {postings} postings, the discarding scan produced another count"
        ));
    }
    let mut crc_s = 0.0;
    corpus.scan(&mut |_, bytes| {
        let t = Instant::now();
        std::hint::black_box(sut::crc32(bytes));
        crc_s += t.elapsed().as_secs_f64();
    })?;
    let open_ms = sut::index_open_ms(&index_path)?;
    let (_, index_bytes) = engine.index_size(&index_path);

    let unattributed = tracer.unattributed_share("build");
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    rows.insert("corpus.scan_mib_per_s", mib / scan_s);
    rows.insert("select.mine_s", mine_s);
    rows.insert("select.passes", info.mining_passes as f64);
    rows.insert("select.grams_counted", info.grams_counted as f64);
    rows.insert("select.keys_selected", info.keys_selected as f64);
    rows.insert(
        "select.keep_ratio",
        info.keys_selected as f64 / info.grams_counted.max(1) as f64,
    );
    rows.insert("engine.postings_scan_s", postings_scan_s);
    rows.insert("index.build_s", construct_s + finish_s - postings_scan_s);
    rows.insert(
        "index.bytes_per_posting",
        index_bytes as f64 / postings.max(1) as f64,
    );
    rows.insert("index.open_ms", open_ms);
    rows.insert("checksum.crc32_mib_per_s", mib / crc_s);
    rows.insert("engine.build_unattributed_share", unattributed);
    rows.insert(
        "trace.bench_overhead_share",
        (staged_s - reference_s) / reference_s,
    );
    out.set_per_layer(&rows);
    out.exact.insert("index_keys", info.keys);
    out.exact.insert("index_postings", postings);
    if unattributed >= 0.15 {
        out.reconciliation_error = Some(format!(
            "build: child spans leave {:.1} % of the build's wall unattributed (limit 15 %)",
            unattributed * 100.0
        ));
    }
    tracer.write_json(&ctx.trace_path)?;
    Ok(())
}
