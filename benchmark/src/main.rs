//! The repo's one benchmark: `run`, `all`, `bless`, `agree`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> [--seed S] [--trace [0|1]] [--scale full|smoke] [--scratch DIR]
//! ```
//!
//! A run generates its inputs from the seed, drives the system through
//! its public functions, checks every answer, and prints two lines on
//! standard output: a `{"report": …}` object with every detail, and,
//! last, the object the driver reads (`correct`, `attempted`, `failed`,
//! `metrics`). See `benchmark/README.md`.

mod agree;
mod catalogue;
mod client;
mod expected;
mod inputs;
mod measure;
mod oracle;
mod prng;
mod report;
#[cfg(test)]
mod selfcheck;
mod sut;
mod trace;
mod workloads;

use inputs::{Scale, Sizes, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line of `run`, `all`, `bless` and `agree`.
#[derive(Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub traced: bool,
    pub scale: Scale,
    pub scratch: Option<PathBuf>,
    pub sets: usize,
    pub runs: usize,
    pub derive_bounds: bool,
    pub out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        traced: false,
        scale: Scale::Full,
        scratch: None,
        sets: 2,
        runs: 5,
        derive_bounds: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => parsed.workload = Some(value(&mut i, flag)?),
            "--seed" => parsed.seed = number(value(&mut i, flag)?, flag)?,
            // The measured phase is fixed work, sized to last about
            // `run_seconds` of BENCHMARK.json on the reference host; the
            // flag is accepted so the driver's command line parses.
            "--seconds" => {
                number(value(&mut i, flag)?, flag)?;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.traced = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.traced = true;
                    i += 1;
                }
                _ => parsed.traced = true,
            },
            "--scale" => {
                parsed.scale = match value(&mut i, flag)?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale: {other:?} is neither full nor smoke")),
                }
            }
            "--scratch" => parsed.scratch = Some(PathBuf::from(value(&mut i, flag)?)),
            "--sets" => parsed.sets = number(value(&mut i, flag)?, flag)? as usize,
            "--runs" => parsed.runs = number(value(&mut i, flag)?, flag)? as usize,
            "--derive-bounds" => parsed.derive_bounds = true,
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// The directory run directories are made in: `--scratch`, or
/// `bench-scratch` inside the cargo target directory this executable
/// was built into (a real filesystem, inside the checkout, ignored by
/// git).
fn scratch_root(args: &Args) -> PathBuf {
    if let Some(dir) = &args.scratch {
        return dir.clone();
    }
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/x"));
    let target = exe.parent().and_then(|p| p.parent()).map(PathBuf::from);
    target
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("bench-scratch")
}

/// Removes the run directory when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in a fresh run directory, removed afterwards.
pub fn execute(
    args: &Args,
    workload: &str,
    process_start: Instant,
) -> Result<(workloads::Ctx, workloads::Outcome), String> {
    if !catalogue::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {}",
            catalogue::WORKLOADS.join(", ")
        ));
    }
    for var in sut::DEFAULT_OVERRIDING_ENV {
        std::env::remove_var(var);
    }
    let root = scratch_root(args);
    let dir = RunDir(root.join(format!("{workload}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("create {}: {e}", dir.0.display()))?;
    let ctx = workloads::Ctx {
        seed: args.seed,
        scale: args.scale,
        sizes: Sizes::of(args.scale),
        traced: args.traced,
        scratch: dir.0.clone(),
        trace_path: root.join(format!("{workload}.trace.json")),
        process_start,
    };
    let outcome = match workload {
        "build_batch" => workloads::build_batch::run(&ctx),
        "ingest_live" => workloads::ingest_live::run(&ctx),
        "query_batch" => workloads::query_batch::run(&ctx),
        _ => workloads::serve_mixed::run(&ctx),
    };
    let outcome = outcome.map_err(|e| format!("{workload}: {e}"))?;
    Ok((ctx, outcome))
}

fn run(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = args
        .workload
        .as_deref()
        .ok_or("run needs --workload <name>")?;
    let (ctx, mut outcome) = execute(args, workload, process_start)?;
    expected::check(workload, &ctx, &mut outcome);
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{}", report::detail_line(workload, &ctx, &outcome));
    println!("{}", report::driver_line(&outcome));
    if let Some(error) = &outcome.reconciliation_error {
        eprintln!("reconciliation: {error}");
        return Ok(ExitCode::from(3));
    }
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs this executable again with `args`, passing its output through.
fn child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| e.to_string())?;
    Ok(status.success())
}

/// `all`: every workload, each in a process of its own so that set-up
/// time and peak RSS belong to that workload alone.
fn all(args: &Args, raw: &[String]) -> Result<ExitCode, String> {
    let mut ok = true;
    for workload in catalogue::WORKLOADS {
        let mut child_args = vec![
            "run".to_string(),
            "--workload".to_string(),
            workload.to_string(),
        ];
        child_args.extend(raw.iter().cloned());
        eprintln!(
            "== {workload} (seed {}, scale {})",
            args.seed,
            args.scale.name()
        );
        ok &= child(&child_args)?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!("usage: free-benchmark run|all|bless|agree [options] (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let rest = &argv[1..];
    let result = parse_args(rest).and_then(|args| match command {
        "run" => run(&args, process_start),
        "all" => all(&args, rest),
        "bless" => expected::bless(&args),
        "agree" => agree::run(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
