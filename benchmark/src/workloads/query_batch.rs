//! `query_batch` — the paper's Figures 9–11: one client, one query at a
//! time, against a built index.
//!
//! A request, and a unit, is one `Engine::query(p)` drained to its full
//! match list. A round is a seeded shuffle of a fixed multiset of
//! requests over the pattern pool (80 % selective, 18 % weak, 2 % scan
//! by intent), so each gated metric rests on one part of the read path:
//! `req_p50_ms` is an INDEXED query (compile, plan, cursors),
//! `throughput_per_s` is mostly WEAK confirmation and SCAN, and
//! `req_p99_ms` sits inside the SCAN population — the paper's "indexing
//! does not degrade" case. No write path, no cache, no sockets.

use super::{fold_answers, persist_corpus, Ctx, Outcome, Round};
use crate::inputs::{self, stream, Intent, Pattern};
use crate::measure::{self, percentile, Interval};
use crate::oracle::{answer_of, Answer, Oracle};
use crate::prng::Rng;
use crate::sut::{self, Class, QueryInfo};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// One round's requests, as indices into the pool: each intent's share
/// dealt round-robin over that intent's patterns, then shuffled.
fn schedule(ctx: &Ctx, pool: &[Pattern]) -> Vec<usize> {
    let s = &ctx.sizes;
    let mut requests = Vec::new();
    for (intent, n) in [
        (Intent::Selective, s.query_round_selective),
        (Intent::Weak, s.query_round_weak),
        (Intent::Scan, s.query_round_scan),
    ] {
        let members: Vec<usize> = (0..pool.len())
            .filter(|&i| pool[i].intent == intent)
            .collect();
        requests.extend((0..n).map(|k| members[k % members.len()]));
    }
    Rng::new(ctx.seed, stream::SCHEDULE).shuffle(&mut requests);
    requests
}

fn us_p50(ns: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = ns.map(|n| n as f64 / 1e3).collect();
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, 0.5)
    }
}

pub fn run(ctx: &Ctx) -> sut::Result<Outcome> {
    let s = &ctx.sizes;
    let pages = inputs::pages(ctx.seed);
    let data = ctx.scratch.join("data");
    let corpus_dir = data.join("corpus");
    let index_path = data.join("idx.free");
    let fingerprint = persist_corpus(&pages, 0..s.query_docs, &corpus_dir)?;
    drop(sut::build_on_disk(&corpus_dir, &index_path)?);
    let engine = sut::BatchEngine::open(&corpus_dir, &index_path, false)?;
    let pool = inputs::pattern_pool(
        &pages,
        &mut Rng::new(ctx.seed, stream::PATTERNS),
        s.query_selective,
        s.query_weak,
        s.query_scan,
    );
    let requests = schedule(ctx, &pool);
    // Warm-up: every distinct pattern once.
    for p in &pool {
        engine.query(&p.text)?;
    }

    let mut out = Outcome::new(fingerprint);
    if !measure::reset_peak_rss() {
        out.rss_scope = "process";
    }
    let setup_s = ctx.process_start.elapsed().as_secs_f64();

    // (pattern, reply) of every measured request, per round.
    let mut replies: Vec<Vec<Option<Answer>>> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    if ctx.traced {
        traced_round(ctx, &engine, &pool, &requests, &mut out, &mut replies)?;
    } else {
        for _ in 0..s.query_rounds {
            let mut latencies = Vec::with_capacity(requests.len());
            let mut answers = Vec::with_capacity(requests.len());
            let interval = Interval::start();
            for &p in &requests {
                let started = Instant::now();
                let answer = engine.query(&pool[p].text).ok();
                latencies.push(measure::ms_since(started));
                answers.push(answer);
            }
            let (wall_s, cpu_s) = interval.stop();
            rounds.push(Round {
                wall_s,
                cpu_s,
                units: 0,
                latencies_ms: latencies,
            });
            replies.push(answers);
        }
    }
    let peak = measure::peak_rss_mib();

    let mut oracle = Oracle::new(&pool)?;
    inputs::for_each_page(&pages, 0..s.query_docs, |id, bytes| {
        oracle.push(id, bytes);
        Ok(())
    })?;
    let expected: Vec<Answer> = oracle.finish().into_iter().map(answer_of).collect();
    for (round, answers) in replies.iter().enumerate() {
        let mut correct = Vec::with_capacity(answers.len());
        for (&p, got) in requests.iter().zip(answers) {
            correct.push(*got == Some(expected[p]));
            out.check(|| format!("query {:?}", pool[p].text), *got, expected[p]);
        }
        // A wrong reply completes no unit and misses every latency.
        if let Some(r) = rounds.get_mut(round) {
            r.units = correct.iter().filter(|&&c| c).count() as u64;
            let mut keep = correct.iter();
            r.latencies_ms.retain(|_| *keep.next().unwrap_or(&false));
        }
    }
    if !ctx.traced {
        let stored = measure::dir_bytes(&data) as f64 / fingerprint.bytes as f64;
        out.set_end_to_end(setup_s, &rounds, peak, stored);
    }
    out.exact
        .insert("requests_per_round", requests.len() as u64);
    out.exact
        .insert("expected_answers", fold_answers(&expected));
    out.blessed = pool
        .iter()
        .zip(&expected)
        .map(|(p, a)| (p.text.clone(), vec![*a]))
        .collect();
    Ok(out)
}

/// One untraced round for reference; the same round with every request
/// performed in stages under spans; a round on an engine whose own
/// tracer is on; then each layer's share replayed against it alone.
fn traced_round(
    ctx: &Ctx,
    engine: &sut::BatchEngine,
    pool: &[Pattern],
    requests: &[usize],
    out: &mut Outcome,
    replies: &mut Vec<Vec<Option<Answer>>>,
) -> sut::Result<()> {
    let data = ctx.scratch.join("data");
    let (corpus_dir, index_path) = (data.join("corpus"), data.join("idx.free"));
    let plain_round = |engine: &sut::BatchEngine| -> (f64, Vec<Option<Answer>>) {
        let started = Instant::now();
        let answers = requests
            .iter()
            .map(|&p| engine.query(&pool[p].text).ok())
            .collect();
        (started.elapsed().as_secs_f64(), answers)
    };
    let (reference_s, answers) = plain_round(engine);
    replies.push(answers);

    let mut tracer = Tracer::new(ctx.process_start);
    let mut infos: Vec<(QueryInfo, f64)> = Vec::with_capacity(requests.len());
    let mut compile_ns = Vec::with_capacity(requests.len());
    let mut plan_ns = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    let mut traced_s = 0.0;
    for (i, &p) in requests.iter().enumerate() {
        let text = &pool[p].text;
        let request = i as u32;
        let root = tracer.open("request", None, request);
        let staged = engine.plan(text)?;
        tracer.reported("regex.compile", root, request, 0, staged.compile_ns);
        tracer.reported(
            "engine.plan",
            root,
            request,
            staged.compile_ns,
            staged.plan_ns,
        );
        compile_ns.push(staged.compile_ns);
        plan_ns.push(staged.plan_ns);
        let query = tracer.open("engine.query", Some(root), request);
        let result = engine.query_with_info(text);
        let query_s = tracer.close(query);
        traced_s += tracer.close(root);
        match result {
            Ok((answer, info)) => {
                // The query's own account of where its wall went.
                let mut at = 0;
                for (name, ns) in [
                    ("query.plan", info.plan_ns),
                    ("query.index", info.index_ns),
                    ("query.confirm", info.confirm_ns),
                    ("query.scan", info.scan_ns),
                ] {
                    tracer.reported(name, query, request, at, ns);
                    at += ns;
                }
                infos.push((info, query_s * 1e3));
                answers.push(Some(answer));
            }
            Err(_) => answers.push(None),
        }
    }
    replies.push(answers);

    let traced_engine = sut::BatchEngine::open(&corpus_dir, &index_path, true)?;
    let (tracer_on_s, answers) = plain_round(&traced_engine);
    if traced_engine.engine_spans() == 0 {
        out.fail("the engine's own tracer recorded nothing while enabled".to_string());
    }
    replies.push(answers);
    drop(traced_engine);

    // Replays, over the distinct patterns in first-use order.
    let mut distinct: Vec<usize> = Vec::new();
    for &p in requests {
        if !distinct.contains(&p) {
            distinct.push(p);
        }
    }
    let corpus = sut::StoredCorpus::open(&corpus_dir)?;
    let (mut decoded, mut decode_s) = (0u64, 0.0);
    let (mut seeks, mut seek_s) = (0u64, 0.0);
    let mut get_us: Vec<f64> = Vec::new();
    let (mut prefilter_bytes, mut prefilter_s) = (0u64, 0.0);
    let (mut match_bytes, mut match_s) = (0u64, 0.0);
    for &p in &distinct {
        let text = &pool[p].text;
        let plan = engine.plan(text)?;
        for key in &plan.keys {
            let t = Instant::now();
            decoded += engine.decode_postings(key)? as u64;
            decode_s += t.elapsed().as_secs_f64();
        }
        for keys in &plan.conjunctions {
            let t = Instant::now();
            let (n, _) = engine.and_cursor(keys)?;
            seek_s += t.elapsed().as_secs_f64();
            seeks += n;
        }
        match engine.candidates(&plan)? {
            Some(candidates) => {
                let literals: Vec<sut::Literal> = plan
                    .prefilter_literals
                    .iter()
                    .map(|l| sut::Literal::new(l))
                    .collect();
                for id in candidates {
                    let t = Instant::now();
                    let doc = corpus.get(id)?;
                    get_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if plan.class == Class::Weak {
                        for literal in &literals {
                            let t = Instant::now();
                            std::hint::black_box(literal.find(&doc));
                            prefilter_s += t.elapsed().as_secs_f64();
                            prefilter_bytes += doc.len() as u64;
                        }
                    }
                }
            }
            None => {
                let matcher = sut::Matcher::new(text)?;
                let t = Instant::now();
                corpus.scan(&mut |_, bytes| {
                    std::hint::black_box(matcher.count(bytes));
                })?;
                match_s += t.elapsed().as_secs_f64();
                match_bytes += corpus.total_bytes();
            }
        }
    }
    let open_ms = sut::index_open_ms(&index_path)?;
    let (postings, index_bytes) = engine.index_size(&index_path);

    let n = infos.len().max(1) as f64;
    let of_class = |c: Class| -> Vec<f64> {
        infos
            .iter()
            .filter(|(i, _)| i.class == c)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let p50 = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5)
        }
    };
    let sum = |f: &dyn Fn(&QueryInfo) -> u64| -> f64 {
        infos.iter().map(|(i, _)| f(i)).sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let unattributed = tracer.unattributed_share("engine.query");

    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    rows.insert("regex.compile_us", us_p50(compile_ns.into_iter()));
    rows.insert("engine.plan_us", us_p50(plan_ns.into_iter()));
    rows.insert(
        "engine.index_us",
        us_p50(infos.iter().map(|(i, _)| i.index_ns)),
    );
    rows.insert(
        "engine.confirm_us",
        us_p50(
            infos
                .iter()
                .filter(|(i, _)| i.class != Class::Scan)
                .map(|(i, _)| i.confirm_ns),
        ),
    );
    rows.insert(
        "engine.scan_ms",
        us_p50(
            infos
                .iter()
                .filter(|(i, _)| i.class == Class::Scan)
                .map(|(i, _)| i.scan_ns),
        ) / 1e3,
    );
    rows.insert("engine.indexed_p50_ms", p50(of_class(Class::Indexed)));
    rows.insert("engine.weak_p50_ms", p50(of_class(Class::Weak)));
    rows.insert("engine.scan_p50_ms", p50(of_class(Class::Scan)));
    rows.insert(
        "engine.indexed_share",
        of_class(Class::Indexed).len() as f64 / n,
    );
    rows.insert("engine.scan_share", of_class(Class::Scan).len() as f64 / n);
    rows.insert(
        "engine.examined_per_match",
        ratio(sum(&|i| i.docs_examined), sum(&|i| i.matching_docs)),
    );
    rows.insert(
        "engine.prefilter_reject_share",
        ratio(sum(&|i| i.docs_prefiltered), sum(&|i| i.candidates)),
    );
    rows.insert(
        "index.postings_decoded_per_op",
        sum(&|i| i.postings_decoded) / n,
    );
    rows.insert("index.cursor_seeks_per_op", sum(&|i| i.cursor_seeks) / n);
    rows.insert(
        "index.blocks_decoded_per_op",
        sum(&|i| i.blocks_decoded) / n,
    );
    rows.insert(
        "index.postings_skipped_per_op",
        sum(&|i| i.postings_skipped) / n,
    );
    rows.insert(
        "index.decode_mpostings_per_s",
        ratio(decoded as f64 / 1e6, decode_s),
    );
    rows.insert("index.and_seek_ns", ratio(seek_s * 1e9, seeks as f64));
    rows.insert("corpus.get_us", p50(get_us));
    rows.insert(
        "corpus.cache_hit_share",
        corpus.cache_stats().map_or(0.0, |(hits, misses)| {
            ratio(hits as f64, (hits + misses) as f64)
        }),
    );
    rows.insert("regex.match_mib_per_s", ratio(mib(match_bytes), match_s));
    rows.insert(
        "regex.prefilter_mib_per_s",
        ratio(mib(prefilter_bytes), prefilter_s),
    );
    rows.insert(
        "trace.tracer_on_cost_share",
        (tracer_on_s - reference_s) / reference_s,
    );
    rows.insert("engine.query_unattributed_share", unattributed);
    rows.insert("index.open_ms", open_ms);
    rows.insert(
        "index.bytes_per_posting",
        ratio(index_bytes as f64, postings as f64),
    );
    rows.insert(
        "trace.bench_overhead_share",
        (traced_s - reference_s) / reference_s,
    );
    out.set_per_layer(&rows);
    if unattributed >= 0.15 {
        out.reconciliation_error = Some(format!(
            "query: the queries' own time split leaves {:.1} % of their wall unattributed (limit 15 %)",
            unattributed * 100.0
        ));
    }
    tracer.write_json(&ctx.trace_path)?;
    Ok(())
}
