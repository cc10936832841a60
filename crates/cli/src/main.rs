//! `freegrep` — grep with a prebuilt gram index (the paper's presuf shell).
//!
//! ```text
//! freegrep index|build [--out DIR] [--ext rs,toml] [--c 0.1] [--force] [--verbose] [--stats-json] <ROOT>
//! freegrep search [--index DIR] [--live DIR] [--limit N] [--threads N] [--files-only] [--stats-json] [--query-log DIR] [--slow-ms N] <PATTERN>
//! freegrep explain [--index DIR] [--analyze] [--json] <PATTERN>
//! freegrep analyze [--index DIR] [--json] <PATTERN>
//! freegrep stats  [--index DIR]
//! freegrep metrics [--index DIR] [PATTERN]
//! freegrep create [--dir DIR] [--shards N]
//! freegrep add [--dir DIR] <FILE>...
//! freegrep delete [--dir DIR] <SEQ>...
//! freegrep compact [--dir DIR]
//! freegrep segments [--dir DIR] [--json]
//! freegrep fsck [--json] [--deep] [--sample N] [PATH]
//! freegrep serve [--dir DIR] [--port N] [--workers N] [--threads N] [--query-log DIR] [--slow-ms N] [--max-concurrent N] [--queue N] [--timeout-ms N] [--cache N]
//! freegrep log <LOGDIR> [--tail N] [--filter SUBSTR] [--slow] [--stats] [--analyze] [--json]
//! freegrep replay <LOGDIR> (--index DIR | --dir LIVEDIR) [--qps N] [--threads N] [--json]
//! ```
//!
//! The same binary also installs as `free`, so the analyzer reads as
//! `free analyze <pattern>` and the observability commands as
//! `free explain --analyze <pattern>` / `free metrics`. The index
//! directory defaults to `./.freegrep`. `analyze` is fully static — it
//! needs no index — and exits 1 when the pattern itself is broken (parse
//! error or an unsound plan), 0 otherwise. `metrics` dumps the
//! process-wide metrics registry in Prometheus text format, optionally
//! after running one query to populate it.

use freegrep::{build_index_report, IndexOptions, SearchIndex};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok((output, code)) => {
            print!("{output}");
            code
        }
        Err(e) => {
            eprintln!("freegrep: {e}");
            2
        }
    };
    std::process::exit(code);
}

type CmdResult = Result<(String, i32), Box<dyn std::error::Error>>;

fn run(args: &[String]) -> CmdResult {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage().into());
    };
    match command.as_str() {
        "index" | "build" => {
            let mut out_dir: Option<PathBuf> = None;
            let mut extensions: Vec<String> = Vec::new();
            let mut threshold = 0.1f64;
            let mut force = false;
            let mut verbose = false;
            let mut stats_json = false;
            let mut root: Option<PathBuf> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--out" => {
                        i += 1;
                        out_dir = Some(value(rest, i, "--out")?.into());
                    }
                    "--ext" => {
                        i += 1;
                        extensions = value(rest, i, "--ext")?
                            .split(',')
                            .map(str::to_string)
                            .collect();
                    }
                    "--c" => {
                        i += 1;
                        let c = value(rest, i, "--c")?;
                        threshold = c
                            .parse()
                            .map_err(|_| format!("--c needs a number in (0,1], got {c:?}"))?;
                    }
                    "--force" => force = true,
                    "--verbose" => verbose = true,
                    "--stats-json" => stats_json = true,
                    arg if !arg.starts_with('-') => root = Some(arg.into()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            let root = root.ok_or_else(usage)?;
            let mut options = IndexOptions::new(root);
            options.extensions = extensions;
            options.threshold = threshold;
            options.verbose = verbose;
            options.force = force;
            if let Some(dir) = out_dir {
                options.index_dir = dir;
            }
            let (summary, stats) = build_index_report(&options)?;
            if stats_json {
                Ok((format!("{}\n", stats.to_json()), 0))
            } else {
                Ok((format!("{summary}\n"), 0))
            }
        }
        "analyze" => {
            let mut json = false;
            let mut index_dir: Option<PathBuf> = None;
            let mut pattern: Option<String> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => json = true,
                    "--index" => {
                        i += 1;
                        index_dir = Some(value(rest, i, "--index")?.into());
                    }
                    a if !a.starts_with('-') => pattern = Some(a.to_string()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            let pattern = pattern.ok_or("analyze needs a PATTERN")?;
            if let Some(dir) = index_dir {
                // With an index, refine the plan class against the gram
                // dictionary the index actually holds.
                let index = SearchIndex::open_with_threads(&dir, 0)?;
                return Ok(index.analyze(&pattern, json));
            }
            let report = free_analyze::analyze(&pattern, &free_analyze::AnalysisConfig::default());
            let output = if json {
                format!("{}\n", report.to_json())
            } else {
                report.render_human()
            };
            Ok((output, i32::from(report.has_errors())))
        }
        "search" | "explain" | "stats" | "metrics" => {
            let mut index_dir = PathBuf::from(".freegrep");
            let mut live_dir: Option<PathBuf> = None;
            let mut limit = 0usize;
            let mut threads = 0usize;
            let mut files_only = false;
            let mut stats_json = false;
            let mut analyze = false;
            let mut json = false;
            let mut query_log: Option<PathBuf> = None;
            let mut slow_ms: Option<u64> = None;
            let mut pattern: Option<String> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--index" => {
                        i += 1;
                        index_dir = value(rest, i, "--index")?.into();
                    }
                    "--live" => {
                        i += 1;
                        live_dir = Some(value(rest, i, "--live")?.into());
                    }
                    "--query-log" => {
                        i += 1;
                        query_log = Some(value(rest, i, "--query-log")?.into());
                    }
                    "--slow-ms" => {
                        i += 1;
                        slow_ms = Some(value(rest, i, "--slow-ms")?.parse()?);
                    }
                    "--limit" => {
                        i += 1;
                        limit = value(rest, i, "--limit")?.parse()?;
                    }
                    "--threads" => {
                        i += 1;
                        threads = value(rest, i, "--threads")?.parse()?;
                    }
                    "--files-only" => files_only = true,
                    "--stats-json" => stats_json = true,
                    "--analyze" => analyze = true,
                    "--json" => json = true,
                    arg if !arg.starts_with('-') => pattern = Some(arg.to_string()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            if query_log.is_some() && command != "search" {
                return Err("--query-log only applies to search".into());
            }
            if let Some(dir) = &query_log {
                // Capture this search into the durable query log; the
                // writer is sealed (CRC footer) on shutdown below.
                free_trace::qlog::install(free_trace::LogWriter::create(dir)?);
                if let Some(ms) = slow_ms {
                    free_trace::qlog::set_slow_threshold_ns(Some(ms.saturating_mul(1_000_000)));
                }
            }
            if command == "metrics" {
                // With a pattern, run one full query first so the registry
                // has something to show; bare `metrics` just dumps it.
                if let Some(p) = pattern {
                    let index = SearchIndex::open_with_threads(&index_dir, threads)?;
                    index.search(&p, 0, true, false)?;
                }
                return Ok((freegrep::metrics_text(), 0));
            }
            if let Some(dir) = live_dir {
                if command != "search" {
                    return Err("--live only applies to search".into());
                }
                let pattern = pattern.ok_or("search needs a PATTERN")?;
                let output = freegrep::live_search(&dir, &pattern, threads);
                free_trace::qlog::shutdown(); // seals the captured log
                return Ok((output?, 0));
            }
            let index = SearchIndex::open_with_threads(&index_dir, threads)?;
            match command.as_str() {
                "search" => {
                    let pattern = pattern.ok_or("search needs a PATTERN")?;
                    let output = index.search(&pattern, limit, files_only, stats_json);
                    free_trace::qlog::shutdown(); // seals the captured log
                    Ok((output?, 0))
                }
                "explain" => {
                    let pattern = pattern.ok_or("explain needs a PATTERN")?;
                    if analyze {
                        Ok((index.explain_analyze(&pattern, json)?, 0))
                    } else {
                        Ok((format!("{}\n", index.explain(&pattern)?), 0))
                    }
                }
                _ => Ok((format!("{}\n", index.stats()), 0)),
            }
        }
        "create" => {
            let mut dir = PathBuf::from(freegrep::DEFAULT_LIVE_DIR);
            let mut shards = 1usize;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--dir" => {
                        i += 1;
                        dir = value(rest, i, "--dir")?.into();
                    }
                    "--shards" => {
                        i += 1;
                        shards = value(rest, i, "--shards")?.parse()?;
                    }
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            Ok((freegrep::live_create(&dir, shards)?, 0))
        }
        "add" | "delete" | "compact" | "segments" => {
            let mut dir = PathBuf::from(freegrep::DEFAULT_LIVE_DIR);
            let mut json = false;
            let mut operands: Vec<String> = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--dir" => {
                        i += 1;
                        dir = value(rest, i, "--dir")?.into();
                    }
                    "--json" if command == "segments" => json = true,
                    arg if !arg.starts_with('-') => operands.push(arg.to_string()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            match command.as_str() {
                "add" => {
                    if operands.is_empty() {
                        return Err("add needs at least one FILE".into());
                    }
                    let files: Vec<PathBuf> = operands.iter().map(PathBuf::from).collect();
                    Ok((freegrep::live_add(&dir, &files)?, 0))
                }
                "delete" => {
                    if operands.is_empty() {
                        return Err("delete needs at least one SEQ".into());
                    }
                    let seqs = operands
                        .iter()
                        .map(|s| s.parse::<u32>())
                        .collect::<Result<Vec<u32>, _>>()
                        .map_err(|_| "delete takes numeric sequence numbers")?;
                    Ok((freegrep::live_delete(&dir, &seqs)?, 0))
                }
                "compact" => Ok((freegrep::live_compact(&dir)?, 0)),
                _ => Ok(freegrep::live_segments(&dir, json)?),
            }
        }
        "fsck" => {
            let mut json = false;
            let mut deep = false;
            let mut sample = 64usize;
            let mut path: Option<PathBuf> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => json = true,
                    "--deep" => deep = true,
                    "--sample" => {
                        i += 1;
                        sample = value(rest, i, "--sample")?.parse()?;
                    }
                    arg if !arg.starts_with('-') => path = Some(arg.into()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            let path = path.unwrap_or_else(|| PathBuf::from(freegrep::DEFAULT_LIVE_DIR));
            Ok(freegrep::fsck(&path, deep, sample, json)?)
        }
        "serve" => {
            let mut options = freegrep::serve::ServeOptions::new(freegrep::DEFAULT_LIVE_DIR);
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--dir" => {
                        i += 1;
                        options.dir = value(rest, i, "--dir")?.into();
                    }
                    "--port" => {
                        i += 1;
                        options.port = value(rest, i, "--port")?.parse()?;
                    }
                    "--workers" => {
                        i += 1;
                        options.workers = value(rest, i, "--workers")?.parse()?;
                    }
                    "--threads" => {
                        i += 1;
                        options.threads = value(rest, i, "--threads")?.parse()?;
                    }
                    "--query-log" => {
                        i += 1;
                        options.query_log = Some(value(rest, i, "--query-log")?.into());
                    }
                    "--slow-ms" => {
                        i += 1;
                        options.slow_ms = Some(value(rest, i, "--slow-ms")?.parse()?);
                    }
                    "--max-concurrent" => {
                        i += 1;
                        options.max_concurrent = value(rest, i, "--max-concurrent")?.parse()?;
                    }
                    "--queue" => {
                        i += 1;
                        options.queue_depth = value(rest, i, "--queue")?.parse()?;
                    }
                    "--timeout-ms" => {
                        i += 1;
                        options.timeout_ms = Some(value(rest, i, "--timeout-ms")?.parse()?);
                    }
                    "--cache" => {
                        i += 1;
                        options.cache_entries = value(rest, i, "--cache")?.parse()?;
                    }
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            // Announce the bound address immediately (and flushed), so a
            // caller that asked for an ephemeral port can read it from
            // the first line of stdout before sending requests.
            freegrep::serve::serve(&options, |addr| {
                println!("listening on {addr}");
                let _ = std::io::Write::flush(&mut std::io::stdout());
            })?;
            Ok(("shutdown complete\n".to_string(), 0))
        }
        "log" => {
            let mut dir: Option<PathBuf> = None;
            let mut tail = 0usize;
            let mut filter: Option<String> = None;
            let mut slow_only = false;
            let mut stats = false;
            let mut analyze = false;
            let mut json = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--tail" => {
                        i += 1;
                        tail = value(rest, i, "--tail")?.parse()?;
                    }
                    "--filter" => {
                        i += 1;
                        filter = Some(value(rest, i, "--filter")?.to_string());
                    }
                    "--slow" => slow_only = true,
                    "--stats" => stats = true,
                    "--analyze" => analyze = true,
                    "--json" => json = true,
                    arg if !arg.starts_with('-') => dir = Some(arg.into()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            let dir = dir.ok_or("log needs a LOGDIR")?;
            let mut options = freegrep::replay::LogOptions::new(dir);
            options.tail = tail;
            options.filter = filter;
            options.slow_only = slow_only;
            options.stats = stats;
            options.analyze = analyze;
            options.json = json;
            Ok(freegrep::replay::log_report(&options)?)
        }
        "replay" => {
            let mut log_dir: Option<PathBuf> = None;
            let mut index: Option<PathBuf> = None;
            let mut live_dir: Option<PathBuf> = None;
            let mut qps = 0u64;
            let mut threads = 0usize;
            let mut json = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--index" => {
                        i += 1;
                        index = Some(value(rest, i, "--index")?.into());
                    }
                    "--dir" => {
                        i += 1;
                        live_dir = Some(value(rest, i, "--dir")?.into());
                    }
                    "--qps" => {
                        i += 1;
                        qps = value(rest, i, "--qps")?.parse()?;
                    }
                    "--threads" => {
                        i += 1;
                        threads = value(rest, i, "--threads")?.parse()?;
                    }
                    "--json" => json = true,
                    arg if !arg.starts_with('-') => log_dir = Some(arg.into()),
                    other => return Err(format!("unknown option {other}\n{}", usage()).into()),
                }
                i += 1;
            }
            let log_dir = log_dir.ok_or("replay needs a LOGDIR")?;
            let mut options = freegrep::replay::ReplayOptions::new(log_dir);
            options.index = index;
            options.live_dir = live_dir;
            options.qps = qps;
            options.threads = threads;
            options.json = json;
            Ok(freegrep::replay::replay(&options)?)
        }
        "--help" | "-h" | "help" => Ok((format!("{}\n", usage()), 0)),
        other => Err(format!("unknown command {other}\n{}", usage()).into()),
    }
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn usage() -> String {
    "usage:\n  freegrep index|build [--out DIR] [--ext rs,toml] [--c 0.1] \
     [--force] [--verbose] [--stats-json] <ROOT>\n  \
     freegrep search [--index DIR] [--live DIR] [--limit N] [--threads N] \
     [--files-only] [--stats-json] [--query-log DIR] [--slow-ms N] <PATTERN>\n  \
     freegrep explain [--index DIR] [--analyze] [--json] <PATTERN>\n  \
     freegrep analyze [--index DIR] [--json] <PATTERN>\n  \
     freegrep stats  [--index DIR]\n  \
     freegrep metrics [--index DIR] [PATTERN]\n  \
     freegrep create [--dir DIR] [--shards N]\n  \
     freegrep add [--dir DIR] <FILE>...\n  \
     freegrep delete [--dir DIR] <SEQ>...\n  \
     freegrep compact [--dir DIR]\n  \
     freegrep segments [--dir DIR] [--json]\n  \
     freegrep fsck [--json] [--deep] [--sample N] [PATH]\n  \
     freegrep serve [--dir DIR] [--port N] [--workers N] [--threads N] \
     [--query-log DIR] [--slow-ms N] [--max-concurrent N] [--queue N] \
     [--timeout-ms N] [--cache N]\n  \
     freegrep log <LOGDIR> [--tail N] [--filter SUBSTR] [--slow] [--stats] \
     [--analyze] [--json]\n  \
     freegrep replay <LOGDIR> (--index DIR | --dir LIVEDIR) [--qps N] \
     [--threads N] [--json]\n\n\
     --threads N confirms candidates, or the ranges of a full scan, on \
     N threads (default 0 = one per CPU); results are identical for any N\n\
     explain --analyze executes the query with per-operator instrumentation \
     and renders estimated vs. actual work per plan node\n\
     metrics dumps the process metrics registry in Prometheus text format \
     (run with a PATTERN to populate it from one query first)\n\
     create initializes an empty live index of N >= 1 shards (default 1, \
     rooted at DIR; N > 1 go under DIR/shard-<s>/; fixed for the \
     directory's lifetime)\n\
     --c C is the usefulness threshold, 0 < C <= 1 (default 0.1): the \
     index keys are the shortest grams in at most a C share of the files \
     (paper Algorithm 3.1), cut to their presuf shell; analyze --index DIR \
     classifies the plan against that index's actual gram dictionary\n\
     add/delete/compact/segments operate a live (incrementally updatable) \
     index in DIR (default ./.freelive), whatever its shard count; \
     search --live DIR queries it\n\
     fsck verifies on-disk state (live dir, batch index dir, corpus store, \
     or bare index file; default ./.freelive) without mutating anything; \
     --deep re-mines --sample N docs per segment (default 64) to prove the \
     no-false-negative guarantee; exits 1 on any FA4xx error finding\n\
     serve answers line-delimited JSON requests AND HTTP/1.1 (POST /query, \
     GET /metrics, GET /healthz) on one TCP port on 127.0.0.1 \
     (send {\"shutdown\":true} to stop; --port 0 picks an ephemeral port, \
     announced on stdout); --max-concurrent N sheds queries past N in \
     flight with 429 + Retry-After, --queue N bounds the accept queue, \
     --timeout-ms N sets the default query deadline (per-request \
     timeout_ms overrides), --cache N sizes the snapshot-keyed result \
     cache (0 disables)\n\
     --query-log DIR captures one crash-safe JSONL record per query into \
     DIR; --slow-ms N additionally captures a full explain-analyze tree \
     for queries slower than N ms (0 = every query)\n\
     log tails/filters a captured query log (--stats mines it for FA6xx \
     workload diagnostics); replay re-executes a captured workload \
     against --index DIR or --dir LIVEDIR (--qps N paces it open-loop) \
     and exits 1 if any query's result counts diverge from the record"
        .to_string()
}
