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
//!   replay    workload capture/replay round-trip: run a query schedule
//!             with the durable query log on, replay it closed-loop and
//!             open-loop against the same index, verify every recorded
//!             result count, and mine the log for FA6xx workload
//!             diagnostics (report also written to results/replay.txt)
//!   all       everything above (except disk, grams and replay)
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

    // `disk` and `replay` build their own pipelines;
    // only the paper figures need the four prebuilt in-memory indexes.
    let needs_experiment = commands
        .iter()
        .any(|c| !matches!(c.as_str(), "disk" | "replay"));
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
            "replay" => run_replay(&config),
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

/// Workload capture/replay round-trip (`replay`): queries a live index
/// with the durable query log on, then replays the captured log against
/// the same directory, closed-loop and open-loop, verifying every
/// recorded per-query result count. The log
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
        "Workload capture/replay — {} docs, {} queries x {ROUNDS} round(s)",
        config.num_docs,
        queries.len()
    );
    let _ = writeln!(
        out,
        "{:<12}{:>10}{:>12}{:>12}{:>8}{:>8}",
        "loop", "records", "replayed", "mismatch", "slow", "qps"
    );

    let dir = std::env::temp_dir().join(format!("free-replay-{}", std::process::id()));
    let log_dir = std::env::temp_dir().join(format!("free-replay-log-{}", std::process::id()));
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
    let mut idx = free_live::LiveIndex::create(&dir, live_config).expect("create");
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
            idx.snapshot().query(q.pattern).expect("query");
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
            "{:<12}{:>10}{:>12}{:>12}{:>8}{:>8.0}",
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
        "workload: {} record(s) in {} segment(s), {} slow; {} FA6xx finding(s)",
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

    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write("results/replay.txt", &out))
    {
        eprintln!("# could not write results/replay.txt: {e}");
    } else {
        eprintln!("# report written to results/replay.txt");
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
         <table3|fig9|fig10|fig11|fig12|latency|ablate|disk|grams|replay|all>..."
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
