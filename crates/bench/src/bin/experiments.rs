//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! experiments [OPTIONS] <COMMAND>...
//!
//! Commands:
//!   table3    Table 3  — index construction time / keys / postings
//!   fig9      Figure 9 — total execution time per query
//!   fig10     Figure 10 — result size vs improvement
//!   fig11     Figure 11 — response time for first 10 results
//!   fig12     Figure 12 — shortest suffix rule effect
//!   latency   per-mode latency percentiles (p50/p90/p99) over all repeats
//!   ablate    threshold & gram-length sweeps (design-choice ablations)
//!   disk      end-to-end on-disk pipeline demo (DiskCorpus + IndexReader)
//!   grams     mined-gram report: length histogram, most/least selective keys
//!   ingest    live-index sustained ingest: docs/sec plus query latency
//!             percentiles measured *while* ingesting (report also written
//!             to results/ingest.txt)
//!   serve-load  snapshot read-path scaling: QPS and latency percentiles at
//!               1/4/8 reader threads, with and without a concurrent
//!               writer running continuous flush + compaction (report also
//!               written to results/serve_load.txt)
//!   corpus-get  positioned-read micro-benchmark: ns/get for per-call
//!               open+seek+read vs. one shared handle (pread) vs. pread
//!               plus the sharded doc cache (report also written to
//!               results/corpus_get.txt)
//!   shard-scaling  sharded live-index scaling: ingest/build time and
//!               fan-out query QPS + latency percentiles at 1/2/4/8
//!               shards over the same synthetic corpus (report also
//!               written to results/shard_scaling.txt)
//!   replay    workload capture/replay round-trip: run a query schedule
//!             with the durable query log on, replay it closed-loop and
//!             open-loop against the same index, verify every recorded
//!             result count, and mine the log for FA6xx workload
//!             diagnostics (report also written to results/replay.txt)
//!   selection-shootout  gram-selection strategy shootout: build the same
//!             corpus under every GramSelector backend (a-priori,
//!             trigram, budgeted, workload-aware) and compare index
//!             size, build time, grams kept, plan-class mix, and query
//!             p50/p99 over the benchmark queries plus a replayed
//!             captured workload; asserts every strategy answers every
//!             query identically (report also written to
//!             results/selection_shootout.txt)
//!   all       everything above (except disk, grams, ingest, serve-load,
//!             corpus-get, shard-scaling, replay, and selection-shootout)
//!
//! Options:
//!   --docs N      number of synthetic pages (default 2000)
//!   --seed S      generator seed (default 0xF1EE2002)
//!   --c X         usefulness threshold (default 0.1)
//!   --repeats N   timed repetitions per query, median kept (default 3)
//!   --csv DIR     also write CSV files into DIR
//! ```

// Bench/bin code: aborting on setup failure is the correct behaviour;
// there is no caller to hand a Result to.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_bench::harness::{Experiment, ExperimentConfig};
use free_bench::report;
use free_engine::{Engine, EngineConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExperimentConfig::default();
    let mut commands: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--docs" => {
                config.num_docs = expect_value(&args, &mut i, "--docs");
            }
            "--seed" => {
                config.seed = expect_value(&args, &mut i, "--seed");
            }
            "--c" => {
                config.usefulness_threshold = expect_value(&args, &mut i, "--c");
            }
            "--repeats" => {
                config.repeats = expect_value(&args, &mut i, "--repeats");
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--csv needs a directory"))
                        .clone(),
                );
            }
            "--help" | "-h" => usage(""),
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if commands.is_empty() {
        usage("no command given");
    }
    if commands.iter().any(|c| c == "all") {
        commands = [
            "table3", "fig9", "fig10", "fig11", "fig12", "latency", "ablate",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // `disk`, `ingest`, `serve-load`, `corpus-get`, `shard-scaling`,
    // `replay` and `selection-shootout` build their own pipelines; only
    // the paper figures need the four prebuilt in-memory indexes.
    let needs_experiment = commands.iter().any(|c| {
        !matches!(
            c.as_str(),
            "disk"
                | "ingest"
                | "serve-load"
                | "corpus-get"
                | "shard-scaling"
                | "replay"
                | "selection-shootout"
        )
    });
    let experiment = if needs_experiment {
        eprintln!(
            "# building experiment: {} docs, seed {:#x}, c={}, repeats={}",
            config.num_docs, config.seed, config.usefulness_threshold, config.repeats
        );
        let build_start = Instant::now();
        let experiment = Experiment::build(config.clone());
        eprintln!(
            "# corpus: {} bytes; all indexes built in {:.1}s",
            free_corpus::Corpus::total_bytes(&experiment.corpus),
            build_start.elapsed().as_secs_f64()
        );
        Some(experiment)
    } else {
        None
    };
    let exp = || {
        experiment
            .as_ref()
            .expect("experiment built for this command")
    };

    let needs_queries = commands
        .iter()
        .any(|c| matches!(c.as_str(), "fig9" | "fig10" | "fig11" | "fig12" | "latency"));
    let (query_rows, query_latencies) = if needs_queries {
        eprintln!("# running the 10 benchmark queries in 4 modes ...");
        let (rows, latencies) = exp().run_queries_profiled();
        (rows, Some(latencies))
    } else {
        (Vec::new(), None)
    };

    for cmd in &commands {
        let rendered = match cmd.as_str() {
            "table3" => report::render_table3(
                &exp().table3(),
                config.num_docs,
                free_corpus::Corpus::total_bytes(&exp().corpus),
            ),
            "fig9" => report::render_fig9(&query_rows),
            "fig10" => report::render_fig10(&query_rows),
            "fig11" => report::render_fig11(&query_rows),
            "fig12" => report::render_fig12(&query_rows),
            "latency" => {
                report::render_latencies(query_latencies.as_ref().expect("queries were run"))
            }
            "ablate" => run_ablations(exp()),
            "disk" => run_disk_demo(&config),
            "grams" => run_gram_report(exp()),
            "ingest" => run_ingest_bench(&config),
            "serve-load" => run_serve_load(&config),
            "corpus-get" => run_corpus_get_bench(&config),
            "shard-scaling" => run_shard_scaling(&config),
            "replay" => run_replay(&config),
            "selection-shootout" => run_selection_shootout(&config),
            other => usage(&format!("unknown command {other}")),
        };
        println!("{rendered}");
    }

    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        std::fs::write(
            format!("{dir}/table3.csv"),
            report::table3_csv(&exp().table3()),
        )
        .expect("write table3.csv");
        if !query_rows.is_empty() {
            std::fs::write(
                format!("{dir}/queries.csv"),
                report::query_rows_csv(&query_rows),
            )
            .expect("write queries.csv");
        }
        eprintln!("# CSV written to {dir}/");
    }
}

/// Ablations for the design choices DESIGN.md calls out: the usefulness
/// threshold `c` and the maximum gram length.
fn run_ablations(experiment: &Experiment) -> String {
    use std::fmt::Write as _;
    let corpus = &experiment.corpus;
    let mut out = String::new();

    let _ = writeln!(out, "Ablation — usefulness threshold c (multigram index)");
    let _ = writeln!(
        out,
        "{:<8}{:>12}{:>16}{:>14}{:>16}",
        "c", "keys", "postings", "build", "powerpc time"
    );
    for c in [0.01, 0.05, 0.1, 0.2, 0.5] {
        let engine = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig {
                usefulness_threshold: c,
                ..EngineConfig::default()
            },
        )
        .expect("build");
        let stats = engine.build_stats();
        let t = Instant::now();
        let mut r = engine
            .query(r"motorola.*(xpc|mpc)[0-9]+[0-9a-z]*")
            .expect("query");
        let _ = r.count_matches().expect("count");
        let qt = t.elapsed();
        let _ = writeln!(
            out,
            "{:<8}{:>12}{:>16}{:>13.1}s{:>14.1}ms",
            c,
            stats.index_stats.num_keys,
            stats.index_stats.num_postings,
            stats.total_time().as_secs_f64(),
            qt.as_secs_f64() * 1e3,
        );
    }

    let _ = writeln!(out, "\nAblation — maximum gram length (multigram index)");
    let _ = writeln!(
        out,
        "{:<8}{:>12}{:>16}{:>10}{:>14}",
        "len", "keys", "postings", "scans", "build"
    );
    for max_len in [4, 6, 8, 10] {
        let engine = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig {
                max_gram_len: max_len,
                ..EngineConfig::default()
            },
        )
        .expect("build");
        let stats = engine.build_stats();
        let _ = writeln!(
            out,
            "{:<8}{:>12}{:>16}{:>10}{:>13.1}s",
            max_len,
            stats.index_stats.num_keys,
            stats.index_stats.num_postings,
            stats.select_passes + 1,
            stats.total_time().as_secs_f64(),
        );
    }

    let _ = writeln!(out, "\nAblation — gram lengths counted per mining pass");
    let _ = writeln!(out, "{:<8}{:>10}{:>14}", "per-pass", "scans", "select time");
    for lpp in [1, 2, 3, 5] {
        let engine = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig {
                lengths_per_pass: lpp,
                ..EngineConfig::default()
            },
        )
        .expect("build");
        let stats = engine.build_stats();
        let _ = writeln!(
            out,
            "{:<8}{:>10}{:>13.1}s",
            lpp,
            stats.select_passes,
            stats.select_time.as_secs_f64(),
        );
    }
    out
}

/// Report on the mined multigram key set: Definition 3.1-3.4 made
/// concrete — how many keys exist per length, and which keys sit at the
/// selectivity extremes.
fn run_gram_report(experiment: &Experiment) -> String {
    use free_index::IndexRead as _;
    use std::fmt::Write as _;
    let index = experiment.multigram.index();
    let n = experiment.multigram.num_docs() as f64;
    let mut keys: Vec<(Vec<u8>, usize)> = Vec::new();
    index.for_each_key(&mut |k| {
        keys.push((k.to_vec(), 0));
    });
    for entry in &mut keys {
        entry.1 = index.doc_count(&entry.0).unwrap_or(0);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Mined multigram keys: {} total (c = {})",
        keys.len(),
        experiment.config.usefulness_threshold
    );
    let _ = writeln!(out, "\nkeys per gram length:");
    let max_len = keys.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for len in 1..=max_len {
        let count = keys.iter().filter(|(k, _)| k.len() == len).count();
        if count > 0 {
            let bar = "#".repeat((count * 50 / keys.len().max(1)).max(1));
            let _ = writeln!(out, "  len {len:>2}: {count:>8}  {bar}");
        }
    }

    keys.sort_by_key(|&(_, c)| c);
    let show = |out: &mut String, items: &[(Vec<u8>, usize)]| {
        for (k, c) in items {
            let _ = writeln!(
                out,
                "  {:<24} sel = {:.4} ({} docs)",
                format!("{:?}", String::from_utf8_lossy(k)),
                *c as f64 / n,
                c
            );
        }
    };
    let _ = writeln!(out, "\nmost selective keys (rarest):");
    show(&mut out, &keys[..keys.len().min(8)]);
    let _ = writeln!(out, "\nleast selective keys (closest to the threshold):");
    let tail_start = keys.len().saturating_sub(8);
    show(&mut out, &keys[tail_start..]);
    out
}

/// End-to-end on-disk pipeline: stream the corpus to disk, build the
/// multigram index with the external run-merge builder, reopen cold, and
/// run the ten queries with real positioned reads.
fn run_disk_demo(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use std::fmt::Write as _;
    let dir = std::env::temp_dir().join(format!("free-disk-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let synth = free_corpus::synth::SynthConfig {
        num_docs: config.num_docs,
        seed: config.seed,
        ..free_corpus::synth::SynthConfig::default()
    };
    let t = Instant::now();
    let (corpus, _) = free_corpus::synth::Generator::new(synth)
        .build_disk(dir.join("corpus"))
        .expect("corpus to disk");
    let corpus_time = t.elapsed();

    let t = Instant::now();
    let engine_cfg = free_engine::EngineConfig {
        usefulness_threshold: config.usefulness_threshold,
        max_gram_len: config.max_gram_len,
        ..free_engine::EngineConfig::default()
    };
    let engine = Engine::build_on_disk(corpus, engine_cfg.clone(), dir.join("idx.free"))
        .expect("index to disk");
    let build_time = t.elapsed();

    // Reopen everything cold.
    drop(engine);
    let corpus = free_corpus::DiskCorpus::open(dir.join("corpus")).expect("reopen corpus");
    let engine = Engine::open(corpus, engine_cfg, dir.join("idx.free")).expect("reopen index");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "On-disk pipeline — {} docs (corpus written in {:.1?}, index built in {:.1?})",
        config.num_docs, corpus_time, build_time
    );
    let _ = writeln!(
        out,
        "index: {} keys, {} postings on disk",
        engine.build_stats().index_stats.num_keys,
        engine.build_stats().index_stats.num_postings
    );
    let _ = writeln!(
        out,
        "{:<10}{:>12}{:>12}{:>12}",
        "query", "time", "candidates", "matches"
    );
    for q in benchmark_queries() {
        let t = Instant::now();
        let mut r = engine.query(q.pattern).expect("query");
        let n = r.count_matches().expect("count");
        let elapsed = t.elapsed();
        let _ = writeln!(
            out,
            "{:<10}{:>11.2?}{:>12}{:>12}",
            q.name,
            elapsed,
            if r.used_scan() {
                "all".to_string()
            } else {
                r.num_candidates().expect("candidates").to_string()
            },
            n
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Live-index sustained-ingest benchmark: streams the synthetic corpus
/// into a [`free_live::LiveIndex`] in batches (letting the configured
/// thresholds flush segments along the way), measuring ingest throughput
/// and — after every batch — one query, so the latency percentiles
/// reflect queries running *while* the index is being written. Ends with
/// a timed compaction and a post-compaction query pass. The rendered
/// report is also written to `results/ingest.txt`.
fn run_ingest_bench(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use std::fmt::Write as _;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("free-ingest-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let synth = free_corpus::synth::SynthConfig {
        num_docs: config.num_docs,
        seed: config.seed,
        ..free_corpus::synth::SynthConfig::default()
    };
    let generator = free_corpus::synth::Generator::new(synth);

    const BATCH: usize = 64;
    let live_config = free_live::LiveConfig {
        engine: free_engine::EngineConfig {
            usefulness_threshold: config.usefulness_threshold,
            max_gram_len: config.max_gram_len,
            ..free_engine::EngineConfig::default()
        },
        // Aim for a handful of segment flushes over the run.
        flush_threshold_docs: (config.num_docs / 8).max(BATCH),
        ..free_live::LiveConfig::default()
    };
    let mut live = free_live::LiveIndex::create(&dir, live_config).expect("create live index");

    // Indexable benchmark queries only: the scan-class ones would time
    // corpus I/O, not the live read path under ingest.
    let queries: Vec<_> = benchmark_queries()
        .into_iter()
        .filter(|q| !q.expect_scan)
        .take(4)
        .collect();

    let mut latencies: Vec<Duration> = Vec::new();
    let mut ingest_time = Duration::ZERO;
    let mut total_bytes = 0u64;
    let mut page = Vec::new();
    let mut doc_id = 0u32;
    let mut batch_no = 0usize;
    while (doc_id as usize) < config.num_docs {
        let mut batch: Vec<Vec<u8>> = Vec::with_capacity(BATCH);
        while batch.len() < BATCH && (doc_id as usize) < config.num_docs {
            page.clear();
            generator.page(doc_id, &mut page);
            total_bytes += page.len() as u64;
            batch.push(page.clone());
            doc_id += 1;
        }
        let t = Instant::now();
        live.add_batch(&batch).expect("ingest batch");
        ingest_time += t.elapsed();

        let q = &queries[batch_no % queries.len()];
        let t = Instant::now();
        let result = live.query(q.pattern).expect("query under ingest");
        latencies.push(t.elapsed());
        std::hint::black_box(result.matches.len());
        batch_no += 1;
    }
    let docs_per_sec = config.num_docs as f64 / ingest_time.as_secs_f64();
    let mib_per_sec = total_bytes as f64 / (1 << 20) as f64 / ingest_time.as_secs_f64();
    let segments_before = live.num_segments();

    let t = Instant::now();
    live.compact().expect("compact");
    let compact_time = t.elapsed();

    let mut after: Vec<Duration> = Vec::new();
    for q in &queries {
        let t = Instant::now();
        let result = live.query(q.pattern).expect("query after compact");
        after.push(t.elapsed());
        std::hint::black_box(result.matches.len());
    }

    latencies.sort();
    after.sort();
    let pct = |v: &[Duration], p: f64| -> Duration {
        if v.is_empty() {
            return Duration::ZERO;
        }
        v[((v.len() - 1) as f64 * p).round() as usize]
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Live ingest — {} docs ({} bytes) in batches of {BATCH}",
        config.num_docs, total_bytes
    );
    let _ = writeln!(
        out,
        "sustained ingest: {docs_per_sec:.0} docs/s ({mib_per_sec:.1} MiB/s), \
         {segments_before} segment(s) + buffer at end of ingest"
    );
    let _ = writeln!(
        out,
        "query latency while ingesting ({} queries): p50 {:.2?}  p99 {:.2?}",
        latencies.len(),
        pct(&latencies, 0.50),
        pct(&latencies, 0.99),
    );
    let _ = writeln!(
        out,
        "compaction to 1 segment: {compact_time:.2?}; queries after compaction: \
         p50 {:.2?}  max {:.2?}",
        pct(&after, 0.50),
        pct(&after, 1.0),
    );

    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write("results/ingest.txt", &out))
    {
        eprintln!("# could not write results/ingest.txt: {e}");
    } else {
        eprintln!("# report written to results/ingest.txt");
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Snapshot read-path scaling benchmark (`serve-load`): fixed-duration
/// query loops at 1/4/8 reader threads over [`free_live::LiveReader`]
/// handles — the same lock-free path `free serve` uses — first against a
/// quiescent index, then with a writer thread continuously adding,
/// deleting, flushing and compacting. QPS should scale with readers in
/// both columns; if the churn column collapses, readers are blocking on
/// the writer. The report is also written to `results/serve_load.txt`.
fn run_serve_load(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    const RUN_FOR: Duration = Duration::from_millis(1200);

    let queries: Vec<_> = benchmark_queries()
        .into_iter()
        .filter(|q| !q.expect_scan)
        .take(4)
        .collect();

    // A fresh, identical index per configuration so later rows aren't
    // measured against state mutated by earlier churn.
    let build = |dir: &std::path::Path| -> free_live::LiveIndex {
        let _ = std::fs::remove_dir_all(dir);
        let synth = free_corpus::synth::SynthConfig {
            num_docs: config.num_docs,
            seed: config.seed,
            ..free_corpus::synth::SynthConfig::default()
        };
        let generator = free_corpus::synth::Generator::new(synth);
        let mut live = free_live::LiveIndex::create(
            dir,
            free_live::LiveConfig {
                engine: free_engine::EngineConfig {
                    usefulness_threshold: config.usefulness_threshold,
                    max_gram_len: config.max_gram_len,
                    ..free_engine::EngineConfig::default()
                },
                flush_threshold_docs: (config.num_docs / 4).max(32),
                ..free_live::LiveConfig::default()
            },
        )
        .expect("create live index");
        let mut page = Vec::new();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        for doc_id in 0..config.num_docs as u32 {
            page.clear();
            generator.page(doc_id, &mut page);
            batch.push(page.clone());
            if batch.len() == 64 {
                live.add_batch(&batch).expect("ingest");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            live.add_batch(&batch).expect("ingest");
        }
        live
    };

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Serve load — {} docs, {} queries round-robin, {RUN_FOR:?} per cell, {cores} core(s)",
        config.num_docs,
        queries.len()
    );
    if cores == 1 {
        let _ = writeln!(
            out,
            "(single-core host: expect flat QPS across reader counts — the \
             scaling signal here is that more readers and writer churn do \
             NOT collapse throughput, i.e. readers never block)"
        );
    }
    let _ = writeln!(
        out,
        "{:<9}{:<12}{:>10}{:>12}{:>12}{:>12}",
        "readers", "writer", "QPS", "p50", "p99", "writer ops"
    );
    for with_writer in [false, true] {
        for readers in [1usize, 4, 8] {
            let dir = std::env::temp_dir().join(format!(
                "free-serve-load-{}-{readers}-{with_writer}",
                std::process::id()
            ));
            let mut live = build(&dir);
            let reader = live.reader();
            let latency = free_trace::Histogram::new();
            let done = AtomicBool::new(false);
            let total = AtomicU64::new(0);
            let writer_ops = AtomicU64::new(0);
            let started = Instant::now();
            std::thread::scope(|scope| {
                for r in 0..readers {
                    let reader = reader.clone();
                    let latency = latency.clone();
                    let queries = &queries;
                    let (done, total) = (&done, &total);
                    scope.spawn(move || {
                        let mut i = r;
                        while !done.load(Ordering::Relaxed) {
                            let q = &queries[i % queries.len()];
                            i += 1;
                            let t = Instant::now();
                            let result = reader.snapshot().query_with(q.pattern, 1, false);
                            latency.observe_duration(t.elapsed());
                            std::hint::black_box(result.expect("query").matches.len());
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                if with_writer {
                    let (done, writer_ops) = (&done, &writer_ops);
                    let live = &mut live;
                    scope.spawn(move || {
                        // Continuous churn: add a few docs, delete one,
                        // flush, compact — each publish retires files the
                        // readers may still be streaming from.
                        let mut next_doc = 0u64;
                        while !done.load(Ordering::Relaxed) {
                            let docs: Vec<Vec<u8>> = (0..4)
                                .map(|i| format!("churn document {}", next_doc + i).into_bytes())
                                .collect();
                            next_doc += docs.len() as u64;
                            let ids = live.add_batch(&docs).expect("churn add");
                            live.delete(ids[0]).expect("churn delete");
                            live.flush().expect("churn flush");
                            live.compact().expect("churn compact");
                            writer_ops.fetch_add(4, Ordering::Relaxed);
                        }
                    });
                }
                std::thread::sleep(RUN_FOR);
                done.store(true, Ordering::Relaxed);
            });
            let elapsed = started.elapsed();
            let _ = writeln!(
                out,
                "{:<9}{:<12}{:>10.0}{:>12}{:>12}{:>12}",
                readers,
                if with_writer { "churning" } else { "idle" },
                total.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
                format!("{:.2?}", Duration::from_nanos(latency.quantile(0.50))),
                format!("{:.2?}", Duration::from_nanos(latency.quantile(0.99))),
                writer_ops.load(Ordering::Relaxed),
            );
            drop(live);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Sharded fan-out cell: the same read loop against a 4-shard
    // layout, then the per-shard RED series (`free_shard_*`, labelled
    // `{shard="K"}`) the fan-out recorded — the same series `free
    // metrics` exposes from a sharded `free serve`.
    const SHARDS: usize = 4;
    {
        let dir = std::env::temp_dir().join(format!("free-serve-load-sh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let synth = free_corpus::synth::SynthConfig {
            num_docs: config.num_docs,
            seed: config.seed,
            ..free_corpus::synth::SynthConfig::default()
        };
        let generator = free_corpus::synth::Generator::new(synth);
        let mut live = free_live::ShardedLiveIndex::create(
            &dir,
            free_live::LiveConfig {
                engine: free_engine::EngineConfig {
                    usefulness_threshold: config.usefulness_threshold,
                    max_gram_len: config.max_gram_len,
                    ..free_engine::EngineConfig::default()
                },
                flush_threshold_docs: (config.num_docs / 4).max(32),
                ..free_live::LiveConfig::default()
            },
            SHARDS,
        )
        .expect("create sharded live index");
        let mut page = Vec::new();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        for doc_id in 0..config.num_docs as u32 {
            page.clear();
            generator.page(doc_id, &mut page);
            batch.push(page.clone());
            if batch.len() == 64 {
                live.add_batch(&batch).expect("ingest");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            live.add_batch(&batch).expect("ingest");
        }
        live.flush().expect("flush");
        let reader = live.reader();
        let done = AtomicBool::new(false);
        let total = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for r in 0..4usize {
                let reader = reader.clone();
                let queries = &queries;
                let (done, total) = (&done, &total);
                scope.spawn(move || {
                    let mut i = r;
                    while !done.load(Ordering::Relaxed) {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        let result = reader.snapshot().query_with(q.pattern, 1, false);
                        std::hint::black_box(result.expect("query").matches.len());
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(RUN_FOR);
            done.store(true, Ordering::Relaxed);
        });
        let elapsed = started.elapsed();
        let _ = writeln!(
            out,
            "\nSharded fan-out ({SHARDS} shards, 4 readers): {:.0} QPS; per-shard RED series:",
            total.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "{:<7}{:>10}{:>8}{:>12}{:>12}",
            "shard", "queries", "errors", "p50", "p99"
        );
        let registry = free_trace::metrics::global();
        for s in 0..SHARDS {
            let label = s.to_string();
            let queries_total = registry
                .labeled_counter("free_shard_queries_total", "", "shard", &label)
                .get();
            let errors_total = registry
                .labeled_counter("free_shard_query_errors_total", "", "shard", &label)
                .get();
            let lat = registry.labeled_histogram("free_shard_query_ns", "", "shard", &label);
            let _ = writeln!(
                out,
                "{:<7}{:>10}{:>8}{:>12}{:>12}",
                s,
                queries_total,
                errors_total,
                format!("{:.2?}", Duration::from_nanos(lat.quantile(0.50))),
                format!("{:.2?}", Duration::from_nanos(lat.quantile(0.99))),
            );
        }
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Production-service cells: the full `free serve` stack in process —
    // HTTP front end, admission control, snapshot-keyed result cache —
    // driven over real loopback sockets.
    // ------------------------------------------------------------------
    {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        /// One HTTP/1.1 POST /query on a fresh connection; returns the
        /// status code.
        fn post_query(addr: std::net::SocketAddr, body: &str) -> u16 {
            let Ok(mut s) = TcpStream::connect(addr) else {
                return 0;
            };
            let _ = write!(
                s,
                "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let mut response = String::new();
            let _ = s.read_to_string(&mut response);
            response
                .split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .unwrap_or(0)
        }

        /// Scrapes one counter from GET /metrics.
        fn scrape(addr: std::net::SocketAddr, series: &str) -> u64 {
            let Ok(mut s) = TcpStream::connect(addr) else {
                return 0;
            };
            let _ = write!(
                s,
                "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            );
            let mut response = String::new();
            let _ = s.read_to_string(&mut response);
            response
                .lines()
                .find(|l| l.starts_with(series))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        }

        /// Boots `free serve` on an ephemeral port in a background
        /// thread, runs `drive(addr)`, then shuts the server down over
        /// the line protocol.
        fn with_server(
            options: freegrep::serve::ServeOptions,
            drive: impl FnOnce(std::net::SocketAddr),
        ) {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    freegrep::serve::serve(&options, |addr| {
                        let _ = tx.send(addr);
                    })
                    .expect("serve");
                });
                let addr = rx.recv().expect("server announces its address");
                drive(addr);
                let mut s = TcpStream::connect(addr).expect("shutdown connect");
                let _ = writeln!(s, "{{\"shutdown\":true}}");
                let mut line = String::new();
                let _ = std::io::BufRead::read_line(&mut std::io::BufReader::new(s), &mut line);
            });
        }

        // Overload: 8 closed-loop clients against a 2-permit admission
        // gate, result cache off so every admitted query pays for real
        // confirmation. Reports goodput (admitted QPS), shed rate, and
        // admitted-only latency — the RED view of a saturated server.
        {
            let dir =
                std::env::temp_dir().join(format!("free-serve-load-ov-{}", std::process::id()));
            drop(build(&dir));
            let mut options = freegrep::serve::ServeOptions::new(&dir);
            options.workers = 8;
            options.threads = 1;
            options.max_concurrent = 2;
            options.cache_entries = 0;
            let bodies: Vec<String> = queries
                .iter()
                .map(|q| format!("{{\"query\":\"{}\"}}", free_trace::json::escape(q.pattern)))
                .collect();
            let admitted = AtomicU64::new(0);
            let shed = AtomicU64::new(0);
            let failed = AtomicU64::new(0);
            let latency = free_trace::Histogram::new();
            let started = Instant::now();
            with_server(options, |addr| {
                let done = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    for c in 0..8usize {
                        let (done, admitted, shed, failed) = (&done, &admitted, &shed, &failed);
                        let (bodies, latency) = (&bodies, latency.clone());
                        scope.spawn(move || {
                            let mut i = c;
                            while !done.load(Ordering::Relaxed) {
                                let body = &bodies[i % bodies.len()];
                                i += 1;
                                let t = Instant::now();
                                match post_query(addr, body) {
                                    200 => {
                                        latency.observe_duration(t.elapsed());
                                        admitted.fetch_add(1, Ordering::Relaxed);
                                    }
                                    429 => {
                                        shed.fetch_add(1, Ordering::Relaxed);
                                    }
                                    _ => {
                                        failed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        });
                    }
                    std::thread::sleep(RUN_FOR);
                    done.store(true, Ordering::Relaxed);
                });
            });
            let elapsed = started.elapsed().as_secs_f64();
            let (adm, shd, fld) = (
                admitted.load(Ordering::Relaxed),
                shed.load(Ordering::Relaxed),
                failed.load(Ordering::Relaxed),
            );
            let offered = adm + shd + fld;
            let _ = writeln!(
                out,
                "\nOverload (HTTP, 8 clients, max-concurrent 2, cache off):"
            );
            let _ = writeln!(
                out,
                "  offered {:.0} req/s, goodput {:.0} req/s, shed {shd} ({:.1}%), \
                 other {fld}; admitted p50 {:.2?}, p99 {:.2?}",
                offered as f64 / elapsed,
                adm as f64 / elapsed,
                if offered == 0 {
                    0.0
                } else {
                    100.0 * shd as f64 / offered as f64
                },
                Duration::from_nanos(latency.quantile(0.50)),
                Duration::from_nanos(latency.quantile(0.99)),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Cache hit rate: 4 clients drawing from a 16-pattern pool with
        // zipfian popularity (weight 1/rank) against the snapshot-keyed
        // result cache. The hot head should live in the cache; the
        // counters come from the server's own /metrics endpoint.
        {
            use rand::{Rng as _, SeedableRng as _};
            let dir =
                std::env::temp_dir().join(format!("free-serve-load-zipf-{}", std::process::id()));
            drop(build(&dir));
            let mut options = freegrep::serve::ServeOptions::new(&dir);
            options.workers = 8;
            options.threads = 1;
            options.cache_entries = 1024;
            // 16 patterns, unique per rank (the `|zq…` arm never
            // matches the synthetic corpus) so each is its own cache
            // key with the same execution cost class.
            let pool: Vec<String> = (0..16)
                .map(|k| {
                    let q = &queries[k % queries.len()];
                    format!(
                        "{{\"query\":\"{}\"}}",
                        free_trace::json::escape(&format!("{}|zqx{k}", q.pattern))
                    )
                })
                .collect();
            // Cumulative zipf weights over ranks 1..=16.
            let weights: Vec<u64> = (1..=pool.len() as u64).map(|k| 1_000_000 / k).collect();
            let cumulative: Vec<u64> = weights
                .iter()
                .scan(0u64, |acc, w| {
                    *acc += w;
                    Some(*acc)
                })
                .collect();
            let total_weight = *cumulative.last().expect("non-empty pool");
            let served = AtomicU64::new(0);
            let latency = free_trace::Histogram::new();
            let started = Instant::now();
            let mut cache_stats = (0u64, 0u64);
            with_server(options, |addr| {
                let hits0 = scrape(addr, "free_qcache_hits_total");
                let misses0 = scrape(addr, "free_qcache_misses_total");
                let done = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    for c in 0..4usize {
                        let (done, served) = (&done, &served);
                        let (pool, cumulative, latency) = (&pool, &cumulative, latency.clone());
                        scope.spawn(move || {
                            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed ^ c as u64);
                            while !done.load(Ordering::Relaxed) {
                                let draw = rng.gen_range(0..total_weight);
                                let rank = cumulative.partition_point(|&cum| cum <= draw);
                                let t = Instant::now();
                                if post_query(addr, &pool[rank]) == 200 {
                                    latency.observe_duration(t.elapsed());
                                    served.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                    std::thread::sleep(RUN_FOR);
                    done.store(true, Ordering::Relaxed);
                });
                cache_stats = (
                    scrape(addr, "free_qcache_hits_total") - hits0,
                    scrape(addr, "free_qcache_misses_total") - misses0,
                );
            });
            let elapsed = started.elapsed().as_secs_f64();
            let (hits, misses) = cache_stats;
            let lookups = hits + misses;
            let _ = writeln!(
                out,
                "\nCache hit rate (HTTP, 4 clients, zipfian over 16 patterns):"
            );
            let _ = writeln!(
                out,
                "  {:.0} req/s; cache {hits} hits / {misses} misses ({:.1}% hit rate); \
                 p50 {:.2?}, p99 {:.2?}",
                served.load(Ordering::Relaxed) as f64 / elapsed,
                if lookups == 0 {
                    0.0
                } else {
                    100.0 * hits as f64 / lookups as f64
                },
                Duration::from_nanos(latency.quantile(0.50)),
                Duration::from_nanos(latency.quantile(0.99)),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/serve_load.txt", &out))
    {
        eprintln!("# could not write results/serve_load.txt: {e}");
    } else {
        eprintln!("# report written to results/serve_load.txt");
    }
    out
}

/// Workload capture/replay round-trip (`replay`): queries a live index
/// — one rooted shard and 2-way sharded — with the durable query log on, then
/// replays each captured log against its own directory, closed-loop and
/// open-loop, verifying every recorded per-query result count. The log
/// is finally mined for `FA6xx` workload diagnostics (what `free log
/// --stats` reports). The report is also written to results/replay.txt.
fn run_replay(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use std::fmt::Write as _;

    const ROUNDS: usize = 3;
    let queries = benchmark_queries();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Workload capture/replay — {} docs, {} queries x {ROUNDS} round(s) per layout",
        config.num_docs,
        queries.len()
    );
    let _ = writeln!(
        out,
        "{:<10}{:<12}{:>10}{:>12}{:>12}{:>8}{:>8}",
        "layout", "loop", "records", "replayed", "mismatch", "slow", "qps"
    );

    for shards in [1usize, 2] {
        let tag = if shards == 1 { "plain" } else { "sharded" };
        let dir = std::env::temp_dir().join(format!("free-replay-{tag}-{}", std::process::id()));
        let log_dir =
            std::env::temp_dir().join(format!("free-replay-{tag}-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&log_dir);

        // Build the index.
        let synth = free_corpus::synth::SynthConfig {
            num_docs: config.num_docs,
            seed: config.seed,
            ..free_corpus::synth::SynthConfig::default()
        };
        let generator = free_corpus::synth::Generator::new(synth);
        let live_config = free_live::LiveConfig {
            engine: free_engine::EngineConfig {
                usefulness_threshold: config.usefulness_threshold,
                max_gram_len: config.max_gram_len,
                ..free_engine::EngineConfig::default()
            },
            flush_threshold_docs: (config.num_docs / 4).max(32),
            ..free_live::LiveConfig::default()
        };
        let mut idx =
            free_live::ShardedLiveIndex::create(&dir, live_config, shards).expect("create");
        let mut page = Vec::new();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        for doc_id in 0..config.num_docs as u32 {
            page.clear();
            generator.page(doc_id, &mut page);
            batch.push(page.clone());
            if batch.len() == 64 {
                idx.add_batch(&batch).expect("ingest");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            idx.add_batch(&batch).expect("ingest");
        }

        // Capture: every query is recorded; a 2ms slow threshold gives
        // the flight recorder something to flag without tripping on
        // every cheap lookup.
        let writer = free_trace::LogWriter::create(&log_dir).expect("create query log");
        free_trace::qlog::install(writer);
        free_trace::qlog::set_slow_threshold_ns(Some(2_000_000));
        for _ in 0..ROUNDS {
            for q in &queries {
                idx.query(q.pattern).expect("query");
            }
        }
        free_trace::qlog::shutdown();
        free_trace::qlog::set_slow_threshold_ns(None);
        drop(idx);

        // Replay, closed-loop then open-loop at a deliberately
        // throttled rate, via the same code path as `free replay`.
        for (label, qps) in [("closed", 0u64), ("open", 200)] {
            let mut opts = freegrep::replay::ReplayOptions::new(&log_dir);
            opts.live_dir = Some(dir.clone());
            opts.qps = qps;
            opts.json = true;
            let (json, code) = freegrep::replay::replay(&opts).expect("replay");
            assert_eq!(code, 0, "replay found mismatches: {json}");
            let field = |name: &str| -> String {
                json.split(&format!("\"{name}\":"))
                    .nth(1)
                    .and_then(|rest| rest.split([',', '}']).next())
                    .unwrap_or("?")
                    .to_string()
            };
            let report =
                free_analyze::analyze_workload(&log_dir, &free_analyze::WorkloadOptions::default())
                    .expect("workload");
            let _ = writeln!(
                out,
                "{:<10}{:<12}{:>10}{:>12}{:>12}{:>8}{:>8.0}",
                tag,
                label,
                field("records"),
                field("replayed"),
                field("mismatches"),
                report.slow,
                field("qps_achieved").parse::<f64>().unwrap_or(0.0),
            );
        }

        // Mine the captured workload (what `free log --stats` shows).
        let report =
            free_analyze::analyze_workload(&log_dir, &free_analyze::WorkloadOptions::default())
                .expect("workload");
        let _ = writeln!(
            out,
            "{tag} workload: {} record(s) in {} segment(s), {} slow; {} FA6xx finding(s)",
            report.queries,
            report.segments,
            report.slow,
            report.diagnostics.len()
        );
        for d in &report.diagnostics {
            let _ = writeln!(out, "  {}[{}]: {}", d.severity, d.code, d.message);
        }

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write("results/replay.txt", &out))
    {
        eprintln!("# could not write results/replay.txt: {e}");
    } else {
        eprintln!("# report written to results/replay.txt");
    }
    out
}

/// Gram-selection strategy shootout (`selection-shootout`): builds the
/// same synthetic corpus under every [`free_engine::GramSelector`]
/// backend — the paper's a-priori miner (reference), the fixed-k trigram
/// baseline, the budgeted threshold sweep, and the workload-aware
/// selector mining from a captured query log — then compares index
/// size, build time, grams kept, plan-class mix, and query latency
/// percentiles over the ten benchmark queries plus every pattern
/// replayed from the captured log. Selectors compete on size and speed
/// only: the run asserts every strategy answers every query with
/// byte-identical document sets, and aborts otherwise. The report is
/// also written to `results/selection_shootout.txt`.
fn run_selection_shootout(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use free_engine::{PlanClass, SelectorSpec};
    use std::fmt::Write as _;

    const CAPTURE_ROUNDS: usize = 2;
    const TIMED_REPEATS: usize = 3;
    let log_dir = std::env::temp_dir().join(format!("free-shootout-qlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);

    let synth = free_corpus::synth::SynthConfig {
        num_docs: config.num_docs,
        seed: config.seed,
        ..free_corpus::synth::SynthConfig::default()
    };
    let (corpus, _) = free_corpus::synth::Generator::new(synth).build_mem();
    let base = EngineConfig {
        usefulness_threshold: config.usefulness_threshold,
        max_gram_len: config.max_gram_len,
        ..EngineConfig::default()
    };

    // Phase 1 — capture a workload against the reference (a-priori)
    // engine. The workload selector mines its gram candidates from this
    // very log; a 2ms slow threshold gives it slow-query weighting to
    // chew on.
    eprintln!("# selection-shootout: capturing workload against the a-priori reference ...");
    let reference = Engine::build_in_memory(corpus.clone(), base.clone()).expect("reference build");
    let apriori_bytes = reference.build_stats().index_stats.total_bytes();
    let writer = free_trace::LogWriter::create(&log_dir).expect("create query log");
    free_trace::qlog::install(writer);
    free_trace::qlog::set_slow_threshold_ns(Some(2_000_000));
    let queries = free_bench::queries::benchmark_queries();
    for _ in 0..CAPTURE_ROUNDS {
        for q in &queries {
            let mut r = reference.query(q.pattern).expect("capture query");
            let _ = r.matching_docs().expect("capture result");
        }
    }
    free_trace::qlog::shutdown();
    free_trace::qlog::set_slow_threshold_ns(None);
    drop(reference);

    // The query set: the ten benchmark queries plus every distinct
    // pattern replayed out of the captured log (here the same ten, which
    // proves the log round-trips; a production log would add more).
    let mut patterns: Vec<String> = benchmark_queries()
        .iter()
        .map(|q| q.pattern.to_string())
        .collect();
    let replayed = free_trace::qlog::read_dir(&log_dir).expect("read query log");
    for seg in &replayed {
        for line in seg.trusted_records() {
            if let Some(q) = free_analyze::workload::QueryRecord::parse(line) {
                if !patterns.contains(&q.pattern) {
                    patterns.push(q.pattern);
                }
            }
        }
    }

    // Phase 2 — build the same corpus under each strategy. The budgeted
    // sweep gets half the reference index's bytes, so it has to actually
    // trade grams for space rather than rubber-stamp the default.
    let strategies: Vec<(&str, SelectorSpec)> = vec![
        ("apriori", SelectorSpec::default()),
        ("trigram", SelectorSpec::Trigram { k: 3 }),
        (
            "budgeted",
            SelectorSpec::Budgeted {
                budget: (apriori_bytes / 2).max(1),
                c: None,
                steps: 8,
            },
        ),
        (
            "workload",
            SelectorSpec::Workload {
                qlog: log_dir.clone(),
                c: None,
                max_grams: 0,
            },
        ),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Gram-selection shootout — {} docs, {} queries x {TIMED_REPEATS} repeat(s) per strategy",
        config.num_docs,
        patterns.len()
    );
    let _ = writeln!(
        out,
        "{:<10}{:>8}{:>12}{:>12}{:>16}{:>10}{:>10}",
        "strategy", "grams", "index B", "build", "plan I/W/S", "p50", "p99"
    );

    // Reference answers: pattern -> sorted matching doc ids. Every other
    // strategy must reproduce these exactly.
    let mut reference_docs: Vec<Vec<u32>> = Vec::new();
    let mut spec_lines: Vec<String> = Vec::new();

    for (si, (name, spec)) in strategies.iter().enumerate() {
        let build_start = Instant::now();
        let engine = Engine::build_in_memory(
            corpus.clone(),
            EngineConfig {
                selector: spec.clone(),
                ..base.clone()
            },
        )
        .unwrap_or_else(|e| panic!("{name} build: {e}"));
        let build_time = build_start.elapsed();
        let stats = engine.build_stats();
        spec_lines.push(format!("{name}: --selector {spec}"));

        let mut nanos: Vec<u64> = Vec::with_capacity(patterns.len() * TIMED_REPEATS);
        let mut classes = [0usize; 3]; // INDEXED / WEAK / SCAN
        for (qi, pattern) in patterns.iter().enumerate() {
            let mut docs: Vec<u32> = Vec::new();
            for rep in 0..TIMED_REPEATS {
                let start = Instant::now();
                let mut r = engine.query(pattern).expect("shootout query");
                let d = r.matching_docs().expect("shootout result").to_vec();
                nanos.push(start.elapsed().as_nanos() as u64);
                if rep == 0 {
                    match r.stats().plan_class {
                        PlanClass::Indexed => classes[0] += 1,
                        PlanClass::Weak => classes[1] += 1,
                        PlanClass::Scan => classes[2] += 1,
                    }
                    docs = d;
                }
            }
            if si == 0 {
                reference_docs.push(docs);
            } else {
                assert_eq!(
                    docs, reference_docs[qi],
                    "{name} diverges from apriori on {pattern:?}"
                );
            }
        }
        nanos.sort_unstable();
        let pct = |q: f64| -> f64 {
            if nanos.is_empty() {
                return 0.0;
            }
            let i = ((nanos.len() - 1) as f64 * q).round() as usize;
            nanos[i] as f64 / 1_000.0
        };
        let _ = writeln!(
            out,
            "{:<10}{:>8}{:>12}{:>12}{:>16}{:>9.0}u{:>9.0}u",
            name,
            stats.index_stats.num_keys,
            stats.index_stats.total_bytes(),
            format!("{:.0?}", build_time),
            format!("{}/{}/{}", classes[0], classes[1], classes[2]),
            pct(0.50),
            pct(0.99),
        );
    }

    let _ = writeln!(
        out,
        "all {} strategies answered {} queries identically (doc sets byte-equal)",
        strategies.len(),
        patterns.len()
    );
    let _ = writeln!(out, "selector specs:");
    for line in &spec_lines {
        let _ = writeln!(out, "  {line}");
    }

    let _ = std::fs::remove_dir_all(&log_dir);
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/selection_shootout.txt", &out))
    {
        eprintln!("# could not write results/selection_shootout.txt: {e}");
    } else {
        eprintln!("# report written to results/selection_shootout.txt");
    }
    out
}

/// Positioned-read micro-benchmark (`corpus-get`): ns per `Corpus::get`
/// under three document read strategies — re-opening the data file per
/// call (what `DiskCorpus::get` once did), positioned reads on one shared
/// handle (what it does now), and the shared handle fronted by the
/// sharded [`free_corpus::DocCache`]. Random-access pattern over the
/// synthetic corpus. The report is also written to
/// `results/corpus_get.txt`.
fn run_corpus_get_bench(config: &ExperimentConfig) -> String {
    use free_corpus::Corpus as _;
    use std::fmt::Write as _;
    use std::io::{Read as _, Seek as _};

    let dir = std::env::temp_dir().join(format!("free-corpus-get-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let synth = free_corpus::synth::SynthConfig {
        num_docs: config.num_docs,
        seed: config.seed,
        ..free_corpus::synth::SynthConfig::default()
    };
    let (corpus, _) = free_corpus::synth::Generator::new(synth)
        .build_disk(&dir)
        .expect("corpus to disk");
    let num_docs = corpus.len() as u32;

    // Reconstruct the doc extents once, so the "legacy" strategy can
    // replay exactly the open+seek+read sequence the old `get` did.
    let mut offsets: Vec<(u64, usize)> = Vec::with_capacity(num_docs as usize);
    let mut start = 0u64;
    for id in 0..num_docs {
        let len = corpus.get(id).expect("doc").len();
        offsets.push((start, len));
        start += len as u64;
    }
    let data_path = dir.join("corpus.dat");

    // Fixed pseudo-random access pattern, shared by all strategies; a
    // skewed tail (80% of reads over 20% of docs) gives the cache
    // something realistic to hold.
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    use rand::{Rng as _, SeedableRng as _};
    let rounds = (config.num_docs * 8).max(4000);
    let pattern: Vec<u32> = (0..rounds)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..num_docs.div_ceil(5).max(1))
            } else {
                rng.gen_range(0..num_docs)
            }
        })
        .collect();

    let time = |f: &mut dyn FnMut(u32) -> usize| -> f64 {
        let t = Instant::now();
        let mut bytes = 0usize;
        for &id in &pattern {
            bytes += f(id);
        }
        std::hint::black_box(bytes);
        t.elapsed().as_nanos() as f64 / pattern.len() as f64
    };

    let reopen_ns = time(&mut |id| {
        let (start, len) = offsets[id as usize];
        let mut f = std::fs::File::open(&data_path).expect("open data file");
        f.seek(std::io::SeekFrom::Start(start)).expect("seek");
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).expect("read");
        buf.len()
    });
    let pread_ns = time(&mut |id| corpus.get(id).expect("doc").len());
    let cached = free_corpus::DiskCorpus::open(&dir)
        .expect("reopen")
        .with_cache(8 << 20);
    let cached_ns = time(&mut |id| cached.get(id).expect("doc").len());
    let (hits, misses) = cached.cache_stats().expect("cache enabled");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Corpus get — {} docs, {} random reads (80% over the hottest 20%)",
        num_docs,
        pattern.len()
    );
    let _ = writeln!(out, "{:<34}{:>12}", "strategy", "ns/get");
    let _ = writeln!(
        out,
        "{:<34}{:>12.0}",
        "open+seek+read per call (legacy)", reopen_ns
    );
    let _ = writeln!(out, "{:<34}{:>12.0}", "shared handle, pread", pread_ns);
    let _ = writeln!(
        out,
        "{:<34}{:>12.0}",
        "shared handle + sharded doc cache", cached_ns
    );
    let _ = writeln!(
        out,
        "cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0
    );

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/corpus_get.txt", &out))
    {
        eprintln!("# could not write results/corpus_get.txt: {e}");
    } else {
        eprintln!("# report written to results/corpus_get.txt");
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Sharded live-index scaling benchmark (`shard-scaling`): streams the
/// same synthetic corpus into sharded live indexes at 1/2/4/8 shards,
/// timing the full ingest (WAL append + memtable + threshold-triggered
/// segment flushes, which run across shards in parallel) and a final
/// compaction, then runs a fixed-duration query loop against composite
/// snapshots — the plan-once / fan-out / k-way-merge read path, with one
/// confirmation thread per shard. The report is also written to
/// `results/shard_scaling.txt`.
fn run_shard_scaling(config: &ExperimentConfig) -> String {
    use free_bench::queries::benchmark_queries;
    use std::fmt::Write as _;
    use std::time::Duration;

    const RUN_FOR: Duration = Duration::from_millis(1500);
    const BATCH: usize = 256;

    let queries: Vec<_> = benchmark_queries()
        .into_iter()
        .filter(|q| !q.expect_scan)
        .take(4)
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // One cheap generation pass up front so the report states the real
    // corpus size (generation is orders of magnitude cheaper than
    // indexing the same bytes).
    let corpus_bytes = {
        let synth = free_corpus::synth::SynthConfig {
            num_docs: config.num_docs,
            seed: config.seed,
            ..free_corpus::synth::SynthConfig::default()
        };
        let generator = free_corpus::synth::Generator::new(synth);
        let mut stream = generator.stream();
        while stream.next_page().is_some() {}
        stream.bytes_emitted()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Shard scaling — {} docs ({:.1} MiB) per build, batches of {BATCH}, \
         {RUN_FOR:?} query loop, {cores} core(s)",
        config.num_docs,
        corpus_bytes as f64 / (1 << 20) as f64
    );
    if cores == 1 {
        let _ = writeln!(
            out,
            "(single-core host: shard parallelism cannot beat wall-clock here; \
             the signal is that sharding adds no more than bounded overhead \
             on build and query while keeping results byte-identical)"
        );
    }
    let _ = writeln!(
        out,
        "{:<8}{:>10}{:>11}{:>10}{:>10}{:>10}{:>11}{:>11}",
        "shards", "build", "docs/s", "MiB/s", "compact", "QPS", "p50", "p99"
    );

    for shards in [1usize, 2, 4, 8] {
        let dir = std::env::temp_dir().join(format!(
            "free-shard-scaling-{}-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let synth = free_corpus::synth::SynthConfig {
            num_docs: config.num_docs,
            seed: config.seed,
            ..free_corpus::synth::SynthConfig::default()
        };
        let generator = free_corpus::synth::Generator::new(synth);
        let mut stream = generator.stream();
        let mut live = free_live::ShardedLiveIndex::create(
            &dir,
            free_live::LiveConfig {
                engine: free_engine::EngineConfig {
                    usefulness_threshold: config.usefulness_threshold,
                    max_gram_len: config.max_gram_len,
                    ..free_engine::EngineConfig::default()
                },
                // Per-shard threshold: aim for a handful of flushes per
                // shard over the run regardless of the shard count.
                flush_threshold_docs: (config.num_docs / 8 / shards).max(BATCH),
                ..free_live::LiveConfig::default()
            },
            shards,
        )
        .expect("create sharded index");

        let t = Instant::now();
        let mut batch: Vec<Vec<u8>> = Vec::new();
        while stream.next_batch(BATCH, &mut batch) > 0 {
            live.add_batch(&batch).expect("ingest batch");
        }
        live.flush().expect("final flush");
        let build = t.elapsed();
        let total_bytes = stream.bytes_emitted();
        let docs_per_sec = config.num_docs as f64 / build.as_secs_f64();
        let mib_per_sec = total_bytes as f64 / (1 << 20) as f64 / build.as_secs_f64();

        let t = Instant::now();
        live.compact().expect("compact");
        let compact_time = t.elapsed();

        // Fixed-duration fan-out query loop over one composite snapshot,
        // one confirmation thread per shard.
        let latency = free_trace::Histogram::new();
        let snapshot = live.snapshot();
        let started = Instant::now();
        let mut served = 0u64;
        let mut i = 0usize;
        while started.elapsed() < RUN_FOR {
            let q = &queries[i % queries.len()];
            i += 1;
            let qt = Instant::now();
            let result = snapshot
                .query_with(q.pattern, shards, false)
                .expect("fan-out query");
            latency.observe_duration(qt.elapsed());
            std::hint::black_box(result.matches.len());
            served += 1;
        }
        let qps = served as f64 / started.elapsed().as_secs_f64();

        let _ = writeln!(
            out,
            "{:<8}{:>10}{:>11.0}{:>10.1}{:>10}{:>10.0}{:>11}{:>11}",
            shards,
            format!("{build:.2?}"),
            docs_per_sec,
            mib_per_sec,
            format!("{compact_time:.2?}"),
            qps,
            format!("{:.2?}", Duration::from_nanos(latency.quantile(0.50))),
            format!("{:.2?}", Duration::from_nanos(latency.quantile(0.99))),
        );
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);

        // Hour-scale corpora at paper scale: persist after every row so
        // an interrupted run still leaves a usable partial report.
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/shard_scaling.txt", &out))
        {
            eprintln!("# could not write results/shard_scaling.txt: {e}");
        } else {
            eprintln!("# report written to results/shard_scaling.txt ({shards} shard row done)");
        }
    }
    out
}

fn expect_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    let raw = args
        .get(*i)
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    // Allow hex for seeds.
    if let Some(hex) = raw.strip_prefix("0x") {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            if let Ok(t) = v.to_string().parse::<T>() {
                return t;
            }
        }
    }
    raw.parse::<T>()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {raw}")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: experiments [--docs N] [--seed S] [--c X] [--repeats N] [--csv DIR] \
         <table3|fig9|fig10|fig11|fig12|latency|ablate|disk|grams|ingest|serve-load|\
         corpus-get|shard-scaling|replay|all>..."
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
