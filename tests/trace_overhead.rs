//! Acceptance guard: tracing must be near-free when disabled.
//!
//! The criterion is relative, not absolute wall-clock: measure what one
//! disabled hook (span open + attribute record + instant event + drop)
//! actually costs on this machine, multiply by the hooks the measured
//! query really issues, and require the product to stay under 5% of a
//! measured average query. This keeps the test meaningful on fast and
//! slow machines alike, in debug and in release builds.

use free_corpus::MemCorpus;
use free_engine::{Engine, EngineConfig};
use free_trace::{EventKind, Tracer};
use std::time::Instant;

const PATTERN: &str = "commongram.*rareneedle";

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
    let query = |engine: &Engine<_, _>| {
        let mut r = engine.query(PATTERN).expect("query");
        std::hint::black_box(r.count_matches().expect("count"));
    };

    // Count the hooks one such query issues: the same pattern on the same
    // corpus with an enabled tracer, every span start, instant event and
    // recorded attribute after the build's.
    let tracer = Tracer::enabled();
    let traced = Engine::build_in_memory(
        MemCorpus::from_docs(docs.clone()),
        EngineConfig {
            tracer: tracer.clone(),
            ..config.clone()
        },
    )
    .expect("traced build");
    let built = tracer.events().len();
    query(&traced);
    assert_eq!(tracer.dropped(), 0, "the trace ring held every event");
    let hooks: usize = tracer.events()[built..]
        .iter()
        .map(|e| {
            let opened = matches!(e.kind, EventKind::SpanStart | EventKind::Instant);
            usize::from(opened) + e.attrs.len()
        })
        .sum();
    assert!(hooks > 0, "the traced query recorded nothing");
    let hooks = u32::try_from(hooks).expect("hook count");

    let engine = Engine::build_in_memory(MemCorpus::from_docs(docs), config).expect("build");
    query(&engine); // warm up
    const QUERY_SAMPLES: u32 = 50;
    let start = Instant::now();
    for _ in 0..QUERY_SAMPLES {
        query(&engine);
    }
    let avg_query = start.elapsed() / QUERY_SAMPLES;

    let overhead = per_hook * hooks;
    assert!(
        overhead < avg_query / 20,
        "disabled tracing: {hooks} hooks x {per_hook:?}/hook = {overhead:?}, \
         which is not under 5% of the {avg_query:?} average query"
    );
}
