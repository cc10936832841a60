//! What a run prints. The last line of standard output is the object
//! the driver reads; the line before it carries everything else.

use crate::catalogue::unit_of;
use crate::sut::JsonObject;
use crate::workloads::{Ctx, Outcome};

/// A measured value as JSON: all its digits, and never NaN or infinity
/// (a ratio over nothing is reported as 0).
fn number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `{name: {"value": …, "unit": …}}`, with the rounds' spread and the
/// sample count where `detail` is set and the metric has them.
fn metrics_object(outcome: &Outcome, detail: bool) -> String {
    let mut metrics = JsonObject::new();
    for m in &outcome.metrics {
        let mut o = JsonObject::new();
        o.field_f64("value", number(m.value))
            .field_str("unit", unit_of(m.name));
        if let (true, Some(spread)) = (detail, m.spread) {
            o.field_f64("rounds_spread", number(spread));
        }
        if let (true, Some(n)) = (detail, m.n) {
            o.field_u64("n", n);
        }
        metrics.field_raw(m.name, o.finish());
    }
    metrics.finish()
}

/// A JSON object whose last field, `key`, is an array written one
/// element a line (the checked-in files are meant to be diffed).
pub fn object_with_lines(head: &JsonObject, key: &str, lines: &[String]) -> String {
    let head = head.finish();
    format!(
        "{},\n\"{key}\":[\n{}\n]}}\n",
        &head[..head.len() - 1],
        lines.join(",\n")
    )
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
pub fn driver_line(outcome: &Outcome) -> String {
    let mut line = JsonObject::new();
    line.field_bool(
        "correct",
        outcome.failed == 0 && outcome.reconciliation_error.is_none(),
    )
    .field_u64("attempted", outcome.attempted.max(1))
    .field_u64("failed", outcome.failed)
    .field_raw("metrics", metrics_object(outcome, false));
    line.finish()
}

/// `{"report":{…}}`: the run's identity, the host, and every metric
/// with the rounds' spread and the sample count where it has them.
pub fn detail_line(workload: &str, ctx: &Ctx, outcome: &Outcome) -> String {
    let mut exact = JsonObject::new();
    for (name, value) in &outcome.exact {
        exact.field_str(name, &format!("{value:016x}"));
    }
    let mut fingerprint = JsonObject::new();
    fingerprint
        .field_u64("docs", outcome.fingerprint.docs)
        .field_u64("bytes", outcome.fingerprint.bytes)
        .field_str("crc", &format!("{:08x}", outcome.fingerprint.crc));
    let mut rounds = crate::sut::JsonArray::new();
    for wall in &outcome.round_walls_s {
        rounds.push_raw(format!("{wall}"));
    }
    let mut report = JsonObject::new();
    report
        .field_str("workload", workload)
        .field_u64("seed", ctx.seed)
        .field_str("scale", ctx.scale.name())
        .field_bool("traced", ctx.traced)
        .field_u64("nproc", crate::measure::nproc() as u64)
        .field_str("rss_scope", outcome.rss_scope)
        .field_u64("attempted", outcome.attempted)
        .field_u64("failed", outcome.failed)
        .field_raw("fingerprint", fingerprint.finish())
        .field_raw("round_walls_s", rounds.finish())
        .field_raw("exact", exact.finish())
        .field_raw("metrics", metrics_object(outcome, true));
    let mut line = JsonObject::new();
    line.field_raw("report", report.finish());
    line.finish()
}
