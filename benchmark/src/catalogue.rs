//! Every metric the benchmark emits, by name, with its unit and the
//! direction that is better. `BENCHMARK.json` lists exactly these (a
//! package test holds the two together); later issues refer to them by
//! these names.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees; every workload reports all seven.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("throughput_per_s", "units/s", "higher"),
    def("req_p50_ms", "ms", "lower"),
    def("req_p99_ms", "ms", "lower"),
    def("cpu_ms_per_unit", "ms", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("stored_bytes_per_doc_byte", "ratio", "lower"),
];

/// Single layers (the crates), from the traced run only. A workload
/// that rests a layer reports 0 for that layer's rows.
pub const PER_LAYER: &[Def] = &[
    // build_batch
    def("corpus.scan_mib_per_s", "MiB/s", "higher"),
    def("select.mine_s", "s", "lower"),
    def("select.passes", "count", "lower"),
    def("select.grams_counted", "count", "lower"),
    def("select.keys_selected", "count", "lower"),
    def("select.keep_ratio", "ratio", "higher"),
    def("engine.postings_scan_s", "s", "lower"),
    def("index.build_s", "s", "lower"),
    def("index.bytes_per_posting", "B", "lower"),
    def("index.open_ms", "ms", "lower"),
    def("checksum.crc32_mib_per_s", "MiB/s", "higher"),
    def("engine.build_unattributed_share", "ratio", "lower"),
    // query_batch
    def("regex.compile_us", "us", "lower"),
    def("engine.plan_us", "us", "lower"),
    def("engine.index_us", "us", "lower"),
    def("engine.confirm_us", "us", "lower"),
    def("engine.scan_ms", "ms", "lower"),
    def("engine.indexed_p50_ms", "ms", "lower"),
    def("engine.weak_p50_ms", "ms", "lower"),
    def("engine.scan_p50_ms", "ms", "lower"),
    def("engine.indexed_share", "ratio", "higher"),
    def("engine.scan_share", "ratio", "lower"),
    def("engine.examined_per_match", "ratio", "lower"),
    def("engine.prefilter_reject_share", "ratio", "higher"),
    def("index.postings_decoded_per_op", "count", "lower"),
    def("index.cursor_seeks_per_op", "count", "lower"),
    def("index.blocks_decoded_per_op", "count", "lower"),
    def("index.postings_skipped_per_op", "count", "higher"),
    def("index.decode_mpostings_per_s", "M/s", "higher"),
    def("index.and_seek_ns", "ns", "lower"),
    def("corpus.get_us", "us", "lower"),
    def("corpus.cache_hit_share", "ratio", "higher"),
    def("regex.match_mib_per_s", "MiB/s", "higher"),
    def("regex.prefilter_mib_per_s", "MiB/s", "higher"),
    def("trace.tracer_on_cost_share", "ratio", "lower"),
    def("engine.query_unattributed_share", "ratio", "lower"),
    // ingest_live
    def("live.add_batch_p50_ms", "ms", "lower"),
    def("live.flush_p50_ms", "ms", "lower"),
    def("live.flush_count", "count", "lower"),
    def("live.delete_p50_ms", "ms", "lower"),
    def("live.compact_s", "s", "lower"),
    def("live.compact_mib_per_s", "MiB/s", "higher"),
    def("live.wal_bytes_per_doc_byte", "ratio", "lower"),
    def("live.segment_bytes_per_doc_byte", "ratio", "lower"),
    def("live.segments_before_compact", "count", "lower"),
    def("live.written_bytes_per_doc_byte", "ratio", "lower"),
    def("live.reopen_ms", "ms", "lower"),
    def("live.probe_p50_ms_fragmented", "ms", "lower"),
    def("live.probe_p50_ms_compacted", "ms", "lower"),
    // serve_mixed
    def("cli.http_floor_us", "us", "lower"),
    def("live.qcache_hit_share", "ratio", "higher"),
    def("cli.read_p50_ms_quiet", "ms", "lower"),
    def("cli.read_p50_ms_during_write", "ms", "lower"),
    def("cli.read_p99_ms_during_write", "ms", "lower"),
    def("cli.write_ack_p50_ms", "ms", "lower"),
    def("cli.write_ack_max_ms", "ms", "lower"),
    def("cli.writer_lag_max_ops", "count", "lower"),
    def("cli.shed_share", "ratio", "lower"),
    def("cli.timeout_share", "ratio", "lower"),
    // every workload
    def("trace.bench_overhead_share", "ratio", "lower"),
];

/// Per-layer rows that are counts or ratios of counts: for one seed
/// they must repeat bit for bit.
pub const EXACT: &[&str] = &[
    "select.passes",
    "select.grams_counted",
    "select.keys_selected",
    "select.keep_ratio",
    "index.bytes_per_posting",
    "engine.indexed_share",
    "engine.scan_share",
    "engine.examined_per_match",
    "engine.prefilter_reject_share",
    "index.postings_decoded_per_op",
    "index.cursor_seeks_per_op",
    "index.blocks_decoded_per_op",
    "index.postings_skipped_per_op",
    "live.flush_count",
    "live.wal_bytes_per_doc_byte",
    "live.segment_bytes_per_doc_byte",
    "live.segments_before_compact",
];

pub const WORKLOADS: [&str; 4] = ["build_batch", "ingest_live", "query_batch", "serve_mixed"];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}
