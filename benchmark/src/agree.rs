//! `agree`: the A/A check. Two (or more) sets of runs of this same
//! executable, every set over the same seeds; per metric and workload,
//! the sets' medians, how far they disagree, the spread inside a set,
//! and the bound from `BENCHMARK.json`. Exits non-zero when a
//! disagreement exceeds its bound. With `--derive-bounds` it also
//! prints the bound the data support for each metric: three times the
//! larger of the sets' disagreement and the spread across seeds inside
//! a set (the driver rejects a benchmark whose spread exceeds its
//! bound), no less than a floor and no more than the 25 % a bound may
//! be.

use crate::catalogue::{END_TO_END, WORKLOADS};
use crate::measure::{iqr_share, median};
use crate::sut::{JsonObject, JsonValue};
use crate::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metrics that are ratios of exact byte counts: their floor is 1 %,
/// every other metric's 5 %.
const EXACT_RATIOS: [&str; 1] = ["stored_bytes_per_doc_byte"];

/// The largest bound `BENCHMARK.json` may carry.
const MAX_BOUND: f64 = 0.25;

/// Each end-to-end metric's regression bound, from `BENCHMARK.json`.
fn bounds_from_manifest() -> Result<BTreeMap<String, f64>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let name = m.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let bound = match m.get("bound") {
            Some(JsonValue::Number(b)) => *b,
            _ => 0.0,
        };
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

/// One child run: metric name → (value, rounds' spread).
fn one_run(args: &Args, workload: &str, seed: u64) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--scale", args.scale.name()]);
    if let Some(dir) = &args.scratch {
        command.arg("--scratch").arg(dir);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"report\""))
        .ok_or("the run printed no report line")?;
    let doc = JsonValue::parse(line)?;
    let Some(JsonValue::Object(fields)) = doc.get("report").and_then(|r| r.get("metrics")) else {
        return Err("the report has no metrics".to_string());
    };
    let number = |v: Option<&JsonValue>| match v {
        Some(JsonValue::Number(n)) => *n,
        _ => 0.0,
    };
    Ok(fields
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                (number(m.get("value")), number(m.get("rounds_spread"))),
            )
        })
        .collect())
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let bounds = bounds_from_manifest()?;
    // values[workload][metric][set] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut round_spreads: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for set in 0..args.sets {
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            for workload in WORKLOADS {
                if args.workload.as_deref().is_some_and(|w| w != workload) {
                    continue;
                }
                eprintln!("set {} run {} {workload} (seed {seed})", set + 1, run + 1);
                for (metric, (value, spread)) in one_run(args, workload, seed)? {
                    let sets = values
                        .entry(workload)
                        .or_default()
                        .entry(metric.clone())
                        .or_insert_with(|| vec![Vec::new(); args.sets]);
                    sets[set].push(value);
                    round_spreads
                        .entry((workload, metric))
                        .or_default()
                        .push(spread);
                }
            }
        }
    }

    let mut rows = Vec::new();
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    let mut exceeded = Vec::new();
    for (workload, metrics) in &values {
        for def in END_TO_END {
            let Some(sets) = metrics.get(def.name) else {
                continue;
            };
            let medians: Vec<f64> = sets.iter().map(|v| median(v)).collect();
            let spreads: Vec<f64> = sets.iter().map(|v| iqr_share(v)).collect();
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let higher = def.better == "higher";
            // How much worse the later set is than the first, in the
            // metric's own direction; and the plain distance.
            let last = medians[medians.len() - 1];
            let change = (last - medians[0]) / medians[0];
            let worse = if higher { -change } else { change };
            let disagreement = medians
                .iter()
                .map(|m| ((m - medians[0]) / medians[0]).abs())
                .fold(0.0, f64::max);
            let spread = spreads.iter().copied().fold(0.0, f64::max);
            let rounds = median(&round_spreads[&(*workload, def.name.to_string())]);
            if disagreement > bound {
                exceeded.push(format!("{}@{workload}", def.name));
            }
            let need = if EXACT_RATIOS.contains(&def.name) {
                (3.0 * disagreement.max(spread)).max(0.01)
            } else {
                (3.0 * disagreement.max(spread)).max(0.05)
            };
            let entry = derived.entry(def.name).or_insert(0.0);
            *entry = entry.max(need);
            let mut o = JsonObject::new();
            o.field_str("workload", workload)
                .field_str("metric", def.name)
                .field_str("unit", def.unit);
            for (i, m) in medians.iter().enumerate() {
                o.field_f64(&format!("median_set{}", i + 1), *m);
            }
            // Every run made, in seed order.
            for (i, set) in sets.iter().enumerate() {
                let mut values = crate::sut::JsonArray::new();
                for v in set {
                    values.push_raw(format!("{v}"));
                }
                o.field_raw(&format!("values_set{}", i + 1), values.finish());
            }
            o.field_f64("disagreement", disagreement)
                .field_f64("later_set_worse_by", worse)
                .field_f64("seed_spread", spread)
                .field_f64("rounds_spread", rounds)
                .field_f64("bound", bound)
                .field_bool("within_bound", disagreement <= bound);
            rows.push(o.finish());
        }
    }
    let mut doc = JsonObject::new();
    doc.field_u64("sets", args.sets as u64)
        .field_u64("runs_per_set", args.runs as u64)
        .field_u64("first_seed", args.seed)
        .field_str("scale", args.scale.name())
        .field_u64("nproc", crate::measure::nproc() as u64);
    if args.derive_bounds {
        let mut o = JsonObject::new();
        for (name, need) in &derived {
            o.field_f64(name, need.min(MAX_BOUND));
            if *need > MAX_BOUND {
                eprintln!(
                    "{name}: the data ask for a bound of {:.0} %, over the {:.0} % a bound may be",
                    need * 100.0,
                    MAX_BOUND * 100.0
                );
            }
        }
        doc.field_raw("derived_bounds", o.finish());
    }
    let text = crate::report::object_with_lines(&doc, "rows", &rows);
    match &args.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| e.to_string())?,
        None => print!("{text}"),
    }
    if exceeded.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("disagreement exceeds the bound on: {}", exceeded.join(", "));
        Ok(ExitCode::from(1))
    }
}
