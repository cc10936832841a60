//! The package's own checks: the catalogue and `BENCHMARK.json` say the
//! same thing, a run emits exactly the catalogue's names, and two runs
//! with one seed agree on every exact count and digest.

use crate::catalogue::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::inputs::Scale;
use crate::sut::JsonValue;
use crate::workloads::Outcome;
use crate::{execute, report, Args};
use std::time::Instant;

fn manifest() -> JsonValue {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn assert_same(listed: &[JsonValue], catalogue: &[Def], what: &str) {
    let listed: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let ours: Vec<(&str, &str, &str)> = catalogue
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    assert_eq!(
        listed, ours,
        "{what} of BENCHMARK.json and of the catalogue differ"
    );
}

#[test]
fn manifest_and_catalogue_agree() {
    let doc = manifest();
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    assert_same(&list("end_to_end"), END_TO_END, "end_to_end");
    assert_same(&list("per_layer"), PER_LAYER, "per_layer");
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "{}", d.name);
        assert!(valid_unit(d.unit), "{} has unit {:?}", d.name, d.unit);
        assert!(["higher", "lower"].contains(&d.better), "{}", d.name);
    }
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    names.extend(WORKLOADS);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for w in list("workloads") {
        let why = text(&w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for m in list("end_to_end") {
        match m.get("bound") {
            Some(JsonValue::Number(b)) => assert!(*b > 0.0 && *b <= 0.25, "{m:?}"),
            _ => panic!("{m:?} has no bound"),
        }
    }
    let setup = list("end_to_end")
        .into_iter()
        .find(|m| text(m, "name") == "setup_s");
    assert!(setup.is_some_and(|m| text(&m, "unit") == "s" && text(&m, "better") == "lower"));
}

fn smoke(workload: &str, traced: bool) -> Outcome {
    let args = Args {
        workload: Some(workload.to_string()),
        seed: 11,
        traced,
        scale: Scale::Smoke,
        scratch: None,
        sets: 0,
        runs: 0,
        derive_bounds: false,
        out: None,
    };
    let (_, outcome) = execute(&args, workload, Instant::now()).expect("the run completes");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    assert!(
        outcome.reconciliation_error.is_none(),
        "{:?}",
        outcome.reconciliation_error
    );
    outcome
}

/// The last line of a run, as the driver reads it.
fn assert_driver_line(outcome: &Outcome, catalogue: &[Def]) {
    let line = JsonValue::parse(&report::driver_line(outcome)).expect("the driver line parses");
    let JsonValue::Object(fields) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert!(line
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .is_some_and(|n| n >= 1));
    let Some(JsonValue::Object(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    assert_eq!(emitted, wanted);
    for ((name, m), def) in metrics.iter().zip(catalogue) {
        assert_eq!(text(m, "unit"), def.unit, "{name}");
        assert!(
            matches!(m.get("value"), Some(JsonValue::Number(v)) if v.is_finite()),
            "{name}"
        );
    }
}

fn check_workload(workload: &str) {
    for (traced, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
        let first = smoke(workload, traced);
        let second = smoke(workload, traced);
        assert_driver_line(&first, catalogue);
        assert_eq!(first.exact, second.exact, "{workload} traced={traced}");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.attempted, second.attempted);
        if !traced {
            for m in &first.metrics {
                assert!(
                    m.value > 0.0,
                    "{workload}: end-to-end {} is {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn build_batch_repeats_and_emits_every_name() {
    check_workload("build_batch");
}

#[test]
fn ingest_live_repeats_and_emits_every_name() {
    check_workload("ingest_live");
}

#[test]
fn query_batch_repeats_and_emits_every_name() {
    check_workload("query_batch");
}

#[test]
fn serve_mixed_repeats_and_emits_every_name() {
    check_workload("serve_mixed");
}

#[test]
fn oracle_agrees_with_brute_force_regex() {
    // The guard shortcut must give what running every regex over every
    // page gives.
    use crate::inputs::{self, stream};
    use crate::oracle::Oracle;
    use crate::prng::Rng;
    use crate::sut::Matcher;
    let pages = inputs::pages(5);
    let pool = inputs::pattern_pool(&pages, &mut Rng::new(5, stream::PATTERNS), 60, 6, 6);
    let matchers: Vec<Matcher> = pool
        .iter()
        .map(|p| Matcher::new(&p.text).unwrap())
        .collect();
    let mut brute: Vec<Vec<u32>> = vec![Vec::new(); pool.len()];
    let mut oracle = Oracle::new(&pool).unwrap();
    inputs::for_each_page(&pages, 0..400, |id, bytes| {
        oracle.push(id, bytes);
        for (m, out) in matchers.iter().zip(&mut brute) {
            if m.is_match(bytes) {
                out.push(id);
            }
        }
        Ok(())
    })
    .unwrap();
    let fast = oracle.finish();
    for (p, (a, b)) in pool.iter().zip(fast.iter().zip(&brute)) {
        assert_eq!(a, b, "{}", p.text);
    }
    assert!(brute.iter().any(|m| !m.is_empty()));
}
