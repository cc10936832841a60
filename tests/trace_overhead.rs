//! Acceptance guard: tracing must be near-free when disabled.
//!
//! The criterion is relative, not absolute wall-clock: measure what one
//! disabled hook (span open + attribute record + drop) actually costs on
//! this machine, multiply by a generous bound on hooks per query, and
//! require the product to stay under 5% of a measured average query.
//! This keeps the test meaningful on fast and slow machines alike.

use free_corpus::MemCorpus;
use free_engine::{Engine, EngineConfig};
use free_trace::Tracer;
use std::time::Instant;

/// A generous upper bound on tracing hooks per query. The engine issues
/// on the order of ten (one query span, a few children, a handful of
/// records/events); 256 leaves two orders of magnitude of headroom.
const HOOKS_PER_QUERY: u32 = 256;

#[test]
fn disabled_tracing_is_under_five_percent_of_query_time() {
    let tracer = Tracer::disabled();

    // Warm up, then measure the disabled hook cost.
    for _ in 0..10_000u32 {
        let mut span = tracer.span("warmup");
        span.record("k", 1u64);
        std::hint::black_box(&span);
    }
    const HOOK_SAMPLES: u32 = 1_000_000;
    let start = Instant::now();
    for i in 0..HOOK_SAMPLES {
        let mut span = tracer.span("query");
        span.record("k", u64::from(i));
        span.event("tick", Vec::new());
        std::hint::black_box(&span);
    }
    let per_hook = start.elapsed() / HOOK_SAMPLES;

    // Measure an average query on a small corpus. The engine's default
    // tracer is disabled, so this is the production disabled path; one
    // confirmation thread, so the query it is measured against is not
    // shortened by however many cores the host lends it.
    let docs: Vec<Vec<u8>> = (0..200)
        .map(|i| {
            if i % 50 == 3 {
                format!("commongram rareneedle {i}").into_bytes()
            } else {
                format!("commongram filler {i}").into_bytes()
            }
        })
        .collect();
    let config = EngineConfig {
        num_threads: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::build_in_memory(MemCorpus::from_docs(docs), config).expect("build");
    let run = || {
        let mut r = engine.query("commongram.*rareneedle").expect("query");
        std::hint::black_box(r.count_matches().expect("count"));
    };
    run(); // warm up
    const QUERY_SAMPLES: u32 = 50;
    let start = Instant::now();
    for _ in 0..QUERY_SAMPLES {
        run();
    }
    let avg_query = start.elapsed() / QUERY_SAMPLES;

    let overhead = per_hook * HOOKS_PER_QUERY;
    assert!(
        overhead < avg_query / 20,
        "disabled tracing: {HOOKS_PER_QUERY} hooks x {per_hook:?}/hook = {overhead:?}, \
         which is not under 5% of the {avg_query:?} average query"
    );
}
