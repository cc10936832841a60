//! `ingest_live` — the LSM write path.
//!
//! Set-up builds a base live directory (documents added in batches,
//! then flushed), so every round appends to a non-empty index. A request
//! is one `LiveIndex::add_batch` or one `delete`; a unit is one document
//! acknowledged. A round works on a fresh copy of the base: it adds its
//! batches (crossing the shipped 4 MiB flush threshold once), deletes
//! seeded earlier documents in groups, flushes the tail and compacts —
//! all inside the measured wall, so cost moved from flush to compaction
//! still shows. `req_p50_ms` is the plain add; `req_p99_ms` lands on a
//! flush-bearing add, the stall a median hides. WAL, memtable,
//! flush-time re-mining and `index::merge` dominate; `regex` and `cli`
//! rest.

use super::{fold_answers, p50_ms, Ctx, Outcome, Round};
use crate::inputs::{self, stream, Pattern};
use crate::measure::{self, Interval};
use crate::oracle::{answer_of, Answer, Oracle};
use crate::prng::Rng;
use crate::sut::{self, DocId};
use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The round's op schedule: which earlier documents each delete group
/// removes, keyed by the index of the batch it follows.
fn delete_schedule(ctx: &Ctx) -> BTreeMap<u32, Vec<DocId>> {
    let s = &ctx.sizes;
    let mut rng = Rng::new(ctx.seed, stream::DELETES);
    let mut gone = BTreeSet::new();
    let mut schedule = BTreeMap::new();
    for batch in 0..s.ingest_round_batches {
        if (batch + 1) % s.ingest_delete_every != 0 {
            continue;
        }
        let present = s.ingest_base_docs + (batch + 1) * s.ingest_batch_docs;
        let mut group = Vec::new();
        while group.len() < s.ingest_delete_group as usize {
            let seq = rng.below(present as usize) as DocId;
            if gone.insert(seq) {
                group.push(seq);
            }
        }
        schedule.insert(batch, group);
    }
    schedule
}

struct Probe {
    patterns: Vec<Pattern>,
}

impl Probe {
    fn new(ctx: &Ctx, pages: &sut::Pages, n: usize, stream_id: u64) -> Probe {
        Probe {
            patterns: inputs::probe_pool(pages, &mut Rng::new(ctx.seed, stream_id), n),
        }
    }

    /// Answers every pattern; returns them with each query's seconds.
    fn ask(&self, live: &sut::Live) -> (Vec<Option<Answer>>, Vec<f64>) {
        let mut seconds = Vec::with_capacity(self.patterns.len());
        let answers = self
            .patterns
            .iter()
            .map(|p| {
                let t = Instant::now();
                let a = live.query(&p.text).ok();
                seconds.push(t.elapsed().as_secs_f64());
                a
            })
            .collect();
        (answers, seconds)
    }
}

/// What one round produced, whichever way it was driven.
struct RoundResult {
    /// `units` counts the documents acknowledged in sequence.
    round: Round,
    final_answers: Vec<Option<Answer>>,
}

pub fn run(ctx: &Ctx) -> sut::Result<Outcome> {
    let s = &ctx.sizes;
    let pages = inputs::pages(ctx.seed);
    let base_dir = ctx.scratch.join("base");
    let data = ctx.scratch.join("data");
    let round_docs = s.ingest_round_batches * s.ingest_batch_docs;
    let total_docs = s.ingest_base_docs + round_docs;

    // One pass over the generated pages: the base goes in through
    // `add_batch` and one `flush`; the round's documents are kept,
    // batch by batch, because every round adds the same ones.
    let mut doc_bytes: Vec<u32> = Vec::with_capacity(total_docs as usize);
    let mut base = sut::Live::create(&base_dir)?;
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut batches: Vec<Vec<Vec<u8>>> = vec![Vec::new(); s.ingest_round_batches as usize];
    let fingerprint = inputs::for_each_page(&pages, 0..total_docs, |id, bytes| {
        doc_bytes.push(bytes.len() as u32);
        if id >= s.ingest_base_docs {
            let b = (id - s.ingest_base_docs) / s.ingest_batch_docs;
            batches[b as usize].push(bytes.to_vec());
            return Ok(());
        }
        batch.push(bytes.to_vec());
        if batch.len() == s.ingest_batch_docs as usize || id + 1 == s.ingest_base_docs {
            base.add_batch(&batch)?;
            batch.clear();
        }
        Ok(())
    })?;
    base.flush()?;
    drop(base);
    let deletes = delete_schedule(ctx);
    let verify = Probe::new(ctx, &pages, s.ingest_verify_probe, stream::PROBE);

    let mut out = Outcome::new(fingerprint);
    if !measure::reset_peak_rss() {
        out.rss_scope = "process";
    }
    let setup_s = ctx.process_start.elapsed().as_secs_f64();

    let fresh_copy = || -> sut::Result<sut::Live> {
        let _ = std::fs::remove_dir_all(&data);
        copy_dir(&base_dir, &data)?;
        sut::Live::open(&data)
    };
    let mut results: Vec<RoundResult> = Vec::new();
    if ctx.traced {
        results.push(round(
            ctx,
            fresh_copy()?,
            &batches,
            &deletes,
            &verify,
            None,
        )?);
        let mut trace = Trace {
            tracer: Tracer::new(ctx.process_start),
            perf: Probe::new(ctx, &pages, s.ingest_perf_probe, stream::PROBE + 100),
            reference_s: results[0].round.wall_s,
            out: &mut out,
        };
        let traced = round(
            ctx,
            fresh_copy()?,
            &batches,
            &deletes,
            &verify,
            Some(&mut trace),
        )?;
        trace.tracer.write_json(&ctx.trace_path)?;
        results.push(traced);
    } else {
        for _ in 0..s.ingest_rounds {
            results.push(round(
                ctx,
                fresh_copy()?,
                &batches,
                &deletes,
                &verify,
                None,
            )?);
        }
    }
    let peak = measure::peak_rss_mib();

    // What the finished index must answer: the generated pages, minus
    // the deleted ones.
    let deleted: BTreeSet<DocId> = deletes.values().flatten().copied().collect();
    let mut oracle = Oracle::new(&verify.patterns)?;
    inputs::for_each_page(&pages, 0..total_docs, |id, bytes| {
        if !deleted.contains(&id) {
            oracle.push(id, bytes);
        }
        Ok(())
    })?;
    let expected: Vec<Answer> = oracle.finish().into_iter().map(answer_of).collect();
    let requests_per_round =
        u64::from(s.ingest_round_batches) + deletes.values().map(|g| g.len() as u64).sum::<u64>();
    for (i, r) in results.iter_mut().enumerate() {
        out.attempted += requests_per_round;
        let units_wanted = u64::from(round_docs);
        if r.round.units != units_wanted {
            out.fail(format!(
                "round {i}: {} of {units_wanted} documents acknowledged in sequence",
                r.round.units
            ));
        }
        let wrong = r
            .final_answers
            .iter()
            .zip(&expected)
            .position(|(got, want)| *got != Some(*want));
        if let Some(p) = wrong {
            out.fail(format!(
                "round {i}: probe {:?} answered {:?}, want {:?}",
                verify.patterns[p].text, r.final_answers[p], expected[p]
            ));
            // An index that answers wrongly completed no unit.
            r.round.units = 0;
            r.round.latencies_ms.clear();
        }
    }
    if !ctx.traced {
        let live_bytes: u64 = (0..total_docs)
            .filter(|id| !deleted.contains(id))
            .map(|id| u64::from(doc_bytes[id as usize]))
            .sum();
        let stored = measure::dir_bytes(&data) as f64 / live_bytes as f64;
        let rounds: Vec<Round> = results.into_iter().map(|r| r.round).collect();
        out.set_end_to_end(setup_s, &rounds, peak, stored);
    }
    out.exact.insert("requests_per_round", requests_per_round);
    out.exact.insert("probe_answers", fold_answers(&expected));
    out.blessed = verify
        .patterns
        .iter()
        .zip(&expected)
        .map(|(p, a)| (p.text.clone(), vec![*a]))
        .collect();
    Ok(out)
}

/// Whether `add_batch` acknowledged exactly the sequence numbers the
/// schedule expects next.
fn in_sequence(seqs: &[DocId], first: DocId, n: usize) -> bool {
    seqs.len() == n
        && seqs
            .iter()
            .enumerate()
            .all(|(i, &s)| s == first + i as DocId)
}

/// What the traced round has beyond the plain one: a span around every
/// call into the live index, a fixed probe timed before and after the
/// compaction, and the directory read before it.
struct Trace<'a> {
    tracer: Tracer,
    perf: Probe,
    /// Wall of the untraced reference round.
    reference_s: f64,
    out: &'a mut Outcome,
}

/// Runs `f`, under a span when the round is traced; returns its seconds.
fn timed<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    request: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match trace {
        Some(t) => t.tracer.within(name, None, request, f),
        None => {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed().as_secs_f64())
        }
    }
}

/// One round on `live` (a fresh copy of the base). The traced round's
/// probes and directory listings are the benchmark's own work and are
/// taken out of its wall.
fn round(
    ctx: &Ctx,
    mut live: sut::Live,
    batches: &[Vec<Vec<u8>>],
    deletes: &BTreeMap<u32, Vec<DocId>>,
    verify: &Probe,
    mut trace: Option<&mut Trace>,
) -> sut::Result<RoundResult> {
    let data = ctx.scratch.join("data");
    let (mut plain_adds, mut flushes, mut delete_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut acknowledged = 0u64;
    let mut next_seq = ctx.sizes.ingest_base_docs;
    let mut request = 0u32;
    let written_before = measure::written_bytes();
    let interval = Interval::start();
    for (b, docs) in batches.iter().enumerate() {
        let segments = live.num_segments();
        let (seqs, secs) = timed(&mut trace, "live.add_batch", request, || {
            live.add_batch(docs)
        });
        request += 1;
        latencies.push(secs * 1e3);
        if live.num_segments() > segments {
            flushes.push(secs);
        } else {
            plain_adds.push(secs);
        }
        if seqs.is_ok_and(|s| in_sequence(&s, next_seq, docs.len())) {
            acknowledged += docs.len() as u64;
        }
        next_seq += docs.len() as DocId;
        for &seq in deletes.get(&(b as u32)).into_iter().flatten() {
            let (result, secs) = timed(&mut trace, "live.delete", request, || live.delete(seq));
            request += 1;
            result?;
            latencies.push(secs * 1e3);
            delete_s.push(secs);
        }
    }
    // The write buffer's tail is still in the WAL: a traced round reads
    // its size now, and the segments' after the flush.
    let mut paused_s = 0.0;
    let mut paused = |f: &mut dyn FnMut()| {
        let pause = Instant::now();
        f();
        paused_s += pause.elapsed().as_secs_f64();
    };
    let (mut wal_bytes, mut buffered_bytes) = (0, 0);
    if trace.is_some() {
        paused(&mut || {
            wal_bytes = measure::dir_bytes(&data.join(sut::LIVE_WAL_DIR));
            buffered_bytes = live.shape().buffered_bytes;
        });
    }
    let (flushed, secs) = timed(&mut trace, "live.flush", request, || live.flush());
    if flushed? {
        flushes.push(secs);
    }
    let (mut before, mut segment_bytes) = (sut::LiveShape::default(), 0);
    let mut fragmented = None;
    if let Some(t) = &trace {
        paused(&mut || {
            before = live.shape();
            segment_bytes = measure::dir_bytes(&data.join(sut::LIVE_SEGMENTS_DIR));
            fragmented = Some(t.perf.ask(&live));
        });
    }
    let (compacted, compact_s) = timed(&mut trace, "live.compact", request + 1, || live.compact());
    compacted?;
    let (wall_s, cpu_s) = interval.stop();
    let wall_s = wall_s - paused_s;
    let written = measure::written_bytes() - written_before;
    let (final_answers, _) = verify.ask(&live);
    let result = RoundResult {
        round: Round {
            wall_s,
            cpu_s,
            units: acknowledged,
            latencies_ms: latencies,
        },
        final_answers,
    };
    let (Some(trace), Some((fragmented_answers, fragmented_s))) = (trace, fragmented) else {
        return Ok(result);
    };

    let (compacted_answers, compacted_s) = trace.perf.ask(&live);
    if fragmented_answers != compacted_answers {
        trace
            .out
            .fail("compaction changed the answers of the fixed probe".to_string());
    }
    drop(live);
    let reopen = Instant::now();
    let reopened = sut::Live::open(&data)?;
    let reopen_ms = measure::ms_since(reopen);
    drop(reopened);

    let added_bytes: u64 = batches.iter().flatten().map(|d| d.len() as u64).sum();
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    rows.insert("live.add_batch_p50_ms", p50_ms(&plain_adds));
    rows.insert("live.flush_p50_ms", p50_ms(&flushes));
    rows.insert("live.flush_count", flushes.len() as f64);
    rows.insert("live.delete_p50_ms", p50_ms(&delete_s));
    rows.insert("live.compact_s", compact_s);
    rows.insert("live.compact_mib_per_s", mib(before.doc_bytes) / compact_s);
    rows.insert(
        "live.wal_bytes_per_doc_byte",
        wal_bytes as f64 / buffered_bytes.max(1) as f64,
    );
    rows.insert(
        "live.segment_bytes_per_doc_byte",
        segment_bytes as f64 / before.doc_bytes.max(1) as f64,
    );
    rows.insert("live.segments_before_compact", before.segments as f64);
    rows.insert(
        "live.written_bytes_per_doc_byte",
        written as f64 / added_bytes as f64,
    );
    rows.insert("live.reopen_ms", reopen_ms);
    rows.insert("live.probe_p50_ms_fragmented", p50_ms(&fragmented_s));
    rows.insert("live.probe_p50_ms_compacted", p50_ms(&compacted_s));
    rows.insert(
        "trace.bench_overhead_share",
        (wall_s - trace.reference_s) / trace.reference_s,
    );
    trace.out.set_per_layer(&rows);
    Ok(result)
}
