//! `serve_mixed` — the query service, reads beside writes.
//!
//! Set-up ingests the base corpus into a live directory (thresholds as
//! shipped, a final flush, no compaction: two segments or more) and
//! starts `serve` on an ephemeral port in this process. Client Q holds
//! one keep-alive HTTP connection and sends `POST /query` requests in a
//! closed loop (a caller that waits for each reply), drawn zipf(1.0)
//! from a pool four times the result cache's 1024 entries. Client W
//! holds one line-protocol connection and sends one add per
//! `serve_add_every` requests *completed by Q*: paced by reader
//! progress, so the total work is fixed while reads and writes overlap
//! in time. Every add publishes a generation and so empties the cache;
//! together the adds cross the 4 MiB threshold once, so exactly one
//! flush runs under the readers. A request, and a unit, is one query.
//! Only here do HTTP parsing, admission, the result cache, snapshot
//! publication and writer contention carry weight.

use super::{fold_answers, Ctx, Outcome, Round};
use crate::client::{HttpClient, LineClient};
use crate::inputs::{self, stream, Intent, Pattern};
use crate::measure::{self, percentile, Interval};
use crate::oracle::{answer_of, Answer, Oracle};
use crate::prng::{Rng, Zipf};
use crate::sut::{self, DocId};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The intent of the pattern at a Zipf rank. Fixed positions, not
/// draws: rank 0 alone receives a ninth of all requests, so a seeded
/// choice there would swing the mix from run to run. Scans sit at ranks
/// 24, 49, 99, 199, … (1 % of the request mass on a dozen patterns),
/// weak patterns at every eleventh rank below 1100 (6 %; the oracle
/// runs a wide alternation over a tenth of the corpus, so their number
/// is what its time depends on).
fn intent_at(rank: usize) -> Intent {
    if (rank + 1).is_multiple_of(25) && ((rank + 1) / 25).is_power_of_two() {
        Intent::Scan
    } else if rank % 11 == 5 && rank < 1100 {
        Intent::Weak
    } else {
        Intent::Selective
    }
}

/// The pool in rank order. Within an intent, pool order is rank order:
/// the pool deals templates and word ranks in a fixed cycle, and a
/// handful of top ranks receive a third of all requests, so a seeded
/// shuffle here would let the seed decide what the hot queries cost.
fn ranked_pool(ctx: &Ctx, pages: &sut::Pages) -> Vec<Pattern> {
    let n = ctx.sizes.serve_pool;
    let count = |intent| (0..n).filter(|&r| intent_at(r) == intent).count();
    let (selective, weak) = (count(Intent::Selective), count(Intent::Weak));
    let pool = inputs::pattern_pool(
        pages,
        &mut Rng::new(ctx.seed, stream::PATTERNS),
        selective,
        weak,
        n - selective - weak,
    );
    // The pool lists its selective patterns, then the weak, then the scans.
    let mut next = [0, selective, selective + weak];
    (0..n)
        .map(|r| {
            let at = &mut next[intent_at(r) as usize];
            *at += 1;
            pool[*at - 1].clone()
        })
        .collect()
}

/// One query as client Q saw it.
struct Read {
    rank: usize,
    start: Instant,
    end: Instant,
    /// Adds acknowledged before the request was sent, and adds started
    /// by the time its reply arrived: the reply must be the answer after
    /// some number of adds in that range.
    adds: (usize, usize),
    reply: Option<Answer>,
}

/// One add as client W saw it.
struct Write {
    start: Instant,
    end: Instant,
    ok: bool,
    /// How many requests Q had completed beyond the one this add was due at.
    lag_ops: usize,
}

struct Progress {
    completed: AtomicUsize,
    adds_started: AtomicUsize,
    adds_acked: AtomicUsize,
    gate: Mutex<()>,
    due: Condvar,
}

fn reader_loop(
    http: &mut HttpClient,
    pool: &[Pattern],
    requests: &[usize],
    every: usize,
    progress: &Progress,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Read> {
    let mut body = Vec::new();
    let mut reads = Vec::with_capacity(requests.len());
    for (i, &rank) in requests.iter().enumerate() {
        let payload = sut::query_body(&pool[rank].text);
        let span = tracer.as_mut().map(|t| t.open("cli.query", None, i as u32));
        let lo = progress.adds_acked.load(Ordering::SeqCst);
        let start = Instant::now();
        let status = http.request("POST", sut::HTTP_QUERY, &payload, &mut body);
        let end = Instant::now();
        let hi = progress.adds_started.load(Ordering::SeqCst);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        let reply = match status {
            Ok(200) => sut::parse_query_reply(&body),
            _ => None,
        };
        reads.push(Read {
            rank,
            start,
            end,
            adds: (lo, hi),
            reply,
        });
        let done = progress.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if done.is_multiple_of(every) || done == requests.len() {
            let _guard = progress.gate.lock().unwrap_or_else(|e| e.into_inner());
            progress.due.notify_all();
        }
    }
    reads
}

fn writer_loop(
    line: &mut LineClient,
    adds: &[String],
    every: usize,
    total_requests: usize,
    progress: &Progress,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Write> {
    let mut reply = String::new();
    let mut writes = Vec::with_capacity(adds.len());
    for (j, add) in adds.iter().enumerate() {
        let due = ((j + 1) * every).min(total_requests);
        {
            let mut guard = progress.gate.lock().unwrap_or_else(|e| e.into_inner());
            while progress.completed.load(Ordering::SeqCst) < due {
                guard = progress.due.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
        let lag_ops = progress.completed.load(Ordering::SeqCst) - due;
        let span = tracer.as_mut().map(|t| t.open("cli.add", None, j as u32));
        progress.adds_started.store(j + 1, Ordering::SeqCst);
        let start = Instant::now();
        let ok = line.request(add, &mut reply).is_ok() && sut::line_reply_ok(&reply);
        let end = Instant::now();
        progress.adds_acked.store(j + 1, Ordering::SeqCst);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        writes.push(Write {
            start,
            end,
            ok,
            lag_ops,
        });
    }
    writes
}

fn http_get(http: &mut HttpClient, path: &str) -> sut::Result<String> {
    let mut body = Vec::new();
    let status = http.request("GET", path, "", &mut body)?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}").into());
    }
    Ok(String::from_utf8_lossy(&body).into_owned())
}

pub fn run(ctx: &Ctx) -> sut::Result<Outcome> {
    let s = &ctx.sizes;
    let pages = inputs::pages(ctx.seed);
    let data = ctx.scratch.join("data");
    let num_adds = s.serve_requests / s.serve_add_every;
    let total_docs = s.serve_base_docs + num_adds as DocId * s.serve_add_docs;

    // Base ingest: batches of the add size, automatic threshold
    // flushes, one final flush, no compaction. Then the adds' request
    // lines, rendered once so client W only sends bytes.
    let mut live = sut::Live::create(&data)?;
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut adds: Vec<String> = Vec::with_capacity(num_adds);
    let mut raw_bytes = 0u64;
    let fingerprint = inputs::for_each_page(&pages, 0..total_docs, |id, bytes| {
        raw_bytes += bytes.len() as u64;
        batch.push(bytes.to_vec());
        if batch.len() == s.serve_add_docs as usize || id + 1 == s.serve_base_docs {
            if id < s.serve_base_docs {
                live.add_batch(&batch)?;
            } else {
                adds.push(sut::add_line(&batch));
            }
            batch.clear();
        }
        Ok(())
    })?;
    live.flush()?;
    let base_segments = live.num_segments();
    drop(live);

    let pool = ranked_pool(ctx, &pages);
    let zipf = Zipf::new(pool.len());
    let mut schedule_rng = Rng::new(ctx.seed, stream::SCHEDULE);
    let warmup = zipf.stratified(s.serve_warmup, &mut schedule_rng);
    // One stratified draw per add interval: every stretch between two
    // adds carries the same head-heavy mix, so the cache's hit share and
    // the share of expensive queries do not swing with the seed.
    let requests: Vec<usize> = (0..s.serve_requests.div_ceil(s.serve_add_every))
        .flat_map(|_| zipf.stratified(s.serve_add_every, &mut schedule_rng))
        .take(s.serve_requests)
        .collect();

    let server = sut::Server::start(data.clone())?;
    let mut http = HttpClient::connect(server.addr)?;
    http_get(&mut http, sut::HTTP_HEALTH)?;
    let mut body = Vec::new();
    for &rank in &warmup {
        http.request(
            "POST",
            sut::HTTP_QUERY,
            &sut::query_body(&pool[rank].text),
            &mut body,
        )?;
    }
    let mut floor_us = Vec::new();
    if ctx.traced {
        for _ in 0..200 {
            let t = Instant::now();
            http_get(&mut http, sut::HTTP_HEALTH)?;
            floor_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let counters_before = sut::parse_metrics(&http_get(&mut http, sut::HTTP_METRICS)?);
    let mut line = LineClient::connect(server.addr)?;

    let mut out = Outcome::new(fingerprint);
    if !measure::reset_peak_rss() {
        out.rss_scope = "process";
    }
    let setup_s = ctx.process_start.elapsed().as_secs_f64();

    let progress = Progress {
        completed: AtomicUsize::new(0),
        adds_started: AtomicUsize::new(0),
        adds_acked: AtomicUsize::new(0),
        gate: Mutex::new(()),
        due: Condvar::new(),
    };
    let mut q_tracer = ctx.traced.then(|| Tracer::new(ctx.process_start));
    let mut w_tracer = ctx.traced.then(|| Tracer::new(ctx.process_start));
    let interval = Interval::start();
    let (reads, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            writer_loop(
                &mut line,
                &adds,
                s.serve_add_every,
                requests.len(),
                &progress,
                w_tracer.as_mut(),
            )
        });
        let reads = reader_loop(
            &mut http,
            &pool,
            &requests,
            s.serve_add_every,
            &progress,
            q_tracer.as_mut(),
        );
        (reads, writer.join().expect("client W panicked"))
    });
    let (wall_s, cpu_s) = interval.stop();
    let peak = measure::peak_rss_mib();

    let counters_after = sut::parse_metrics(&http_get(&mut http, sut::HTTP_METRICS)?);
    drop(line);
    let status = http.request("POST", sut::HTTP_SHUTDOWN, "", &mut body)?;
    if status != 200 {
        out.fail(format!("POST /shutdown answered {status}"));
    }
    drop(http);
    server.join()?;
    let stored = measure::dir_bytes(&data) as f64 / raw_bytes as f64;

    // The oracle, over the base and every added document. A reply is
    // right when it is the answer after k adds, for a k the request's
    // window allows.
    let mut oracle = Oracle::new(&pool)?;
    inputs::for_each_page(&pages, 0..total_docs, |id, bytes| {
        oracle.push(id, bytes);
        Ok(())
    })?;
    let matches = oracle.finish();
    let after_adds = |rank: usize, k: usize| -> Answer {
        let bound = s.serve_base_docs + k as DocId * s.serve_add_docs;
        answer_of(matches[rank].iter().copied().take_while(|&id| id < bound))
    };
    let mut latencies = Vec::with_capacity(reads.len());
    for r in &reads {
        out.attempted += 1;
        let right = r
            .reply
            .is_some_and(|got| (r.adds.0..=r.adds.1).any(|k| after_adds(r.rank, k) == got));
        if right {
            latencies.push((r.end - r.start).as_secs_f64() * 1e3);
        } else {
            out.fail(format!(
                "query {:?} answered {:?} with {}..={} adds applied; want {:?} or {:?}",
                pool[r.rank].text,
                r.reply,
                r.adds.0,
                r.adds.1,
                after_adds(r.rank, r.adds.0),
                after_adds(r.rank, r.adds.1),
            ));
        }
    }
    for (j, w) in writes.iter().enumerate() {
        if !w.ok {
            out.fail(format!("add {j} was not acknowledged"));
        }
    }
    if base_segments < 2 && ctx.scale == inputs::Scale::Full {
        out.fail(format!(
            "the base has {base_segments} segment(s); the workload needs two or more"
        ));
    }

    let base_answers: Vec<Answer> = (0..pool.len()).map(|r| after_adds(r, 0)).collect();
    let full_answers: Vec<Answer> = (0..pool.len()).map(|r| after_adds(r, num_adds)).collect();
    out.exact.insert("requests", requests.len() as u64);
    out.exact.insert("adds", num_adds as u64);
    out.exact
        .insert("base_answers", fold_answers(&base_answers));
    out.exact
        .insert("full_answers", fold_answers(&full_answers));
    out.blessed = pool
        .iter()
        .zip(base_answers.iter().zip(&full_answers))
        .map(|(p, (b, f))| (p.text.clone(), vec![*b, *f]))
        .collect();

    if ctx.traced {
        let overlaps = |r: &Read| writes.iter().any(|w| r.start < w.end && w.start < r.end);
        let ms = |r: &Read| (r.end - r.start).as_secs_f64() * 1e3;
        let quiet: Vec<f64> = reads.iter().filter(|r| !overlaps(r)).map(ms).collect();
        let busy: Vec<f64> = reads.iter().filter(|r| overlaps(r)).map(ms).collect();
        let acks: Vec<f64> = writes
            .iter()
            .map(|w| (w.end - w.start).as_secs_f64() * 1e3)
            .collect();
        let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
        let delta =
            |f: &dyn Fn(&sut::ServiceCounters) -> f64| f(&counters_after) - f(&counters_before);
        let (hits, misses) = (delta(&|c| c.cache_hits), delta(&|c| c.cache_misses));
        let served =
            delta(&|c| c.requests_ok + c.requests_shed + c.requests_timeout + c.requests_error);
        let mut tracer = q_tracer.take().expect("traced run has a tracer");
        tracer.absorb(w_tracer.take().expect("traced run has a tracer"));
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        rows.insert("cli.http_floor_us", pct(&floor_us, 0.5));
        rows.insert("live.qcache_hit_share", hits / (hits + misses).max(1.0));
        rows.insert("cli.read_p50_ms_quiet", pct(&quiet, 0.5));
        rows.insert("cli.read_p50_ms_during_write", pct(&busy, 0.5));
        rows.insert("cli.read_p99_ms_during_write", pct(&busy, 0.99));
        rows.insert("cli.write_ack_p50_ms", pct(&acks, 0.5));
        rows.insert("cli.write_ack_max_ms", pct(&acks, 1.0));
        rows.insert(
            "cli.writer_lag_max_ops",
            writes.iter().map(|w| w.lag_ops).max().unwrap_or(0) as f64,
        );
        rows.insert(
            "cli.shed_share",
            delta(&|c| c.requests_shed) / served.max(1.0),
        );
        rows.insert(
            "cli.timeout_share",
            delta(&|c| c.requests_timeout) / served.max(1.0),
        );
        // The phase cannot be repeated in one process without a second
        // set-up, so the tracing cost is the calibrated cost of a span
        // times the spans recorded, over the phase's wall.
        rows.insert(
            "trace.bench_overhead_share",
            Tracer::calibrate_ns_per_span() * tracer.len() as f64 / (wall_s * 1e9),
        );
        out.set_per_layer(&rows);
        tracer.write_json(&ctx.trace_path)?;
    } else {
        let round = Round {
            wall_s,
            cpu_s,
            units: latencies.len() as u64,
            latencies_ms: latencies,
        };
        out.set_end_to_end(setup_s, &[round], peak, stored);
    }
    Ok(out)
}
