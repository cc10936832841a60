//! `free serve` — a dependency-free query service over a live index.
//!
//! The server speaks **two framings on one port**, told apart by the
//! first request line of each connection, over **one request handler**.
//! Each framing parses a request into one of nine commands (`Command`)
//! and writes back the `Reply` that `handle` returns; everything in
//! between — the request id, the span, admission, the deadline, the
//! result cache, the writer lock, the RED counter and the access record —
//! is the handler's, whichever framing the request came in.
//!
//! **Line-delimited JSON**: each request is one JSON object on one line,
//! each reply one JSON object on one line.
//!
//! ```text
//! {"query":"ab.c","limit":10,"docs":true}   search the live index
//! {"add":["doc one","doc two"]}             ingest documents
//! {"delete":3}                              tombstone a document
//! {"flush":true}                            seal the write buffer
//! {"compact":true}                          merge segments, drop tombstones
//! {"stats":true}                            live-index shape
//! {"metrics":true}                          Prometheus registry text
//! {"ping":true}                             liveness probe
//! {"shutdown":true}                         graceful shutdown
//! ```
//!
//! **HTTP/1.1** (hand-rolled, keep-alive): `POST /query` takes the
//! `query` object above as its body, `GET /metrics` is `metrics` in the
//! Prometheus text format, `GET /healthz` is `ping` and `POST /shutdown`
//! is `shutdown`. A reply's outcome picks its status: 200, 400 (a
//! request that does not parse, or a query that fails), 404, 405, 429
//! with `Retry-After` (shed) or 504 (deadline). A connection whose first
//! bytes look like an HTTP method stays HTTP for its lifetime.
//!
//! **Admission control.** Two bounded layers shed load instead of
//! queueing unboundedly: the accept queue between the listener and the
//! worker pool is a bounded channel (overflow answers `429` with
//! `Retry-After` and closes), and in-flight queries take a permit from a
//! max-concurrency gate. A shed reply carries `"status":"shed"` and
//! `retry_after_s` in either framing. Writes and metadata commands
//! bypass the gate — they serialize on the writer lock anyway.
//!
//! **Deadlines.** A query's `timeout_ms` (or the server-wide
//! `--timeout-ms` default) becomes a [`free_engine::RequestBudget`]
//! threaded into confirmation; expiry stops the executor between batches
//! and the client gets a structured timeout error, never partial results.
//!
//! **Result cache.** Match lists (each document's sequence number and
//! match count) are memoized per pattern ([`free_live::QueryCache`]),
//! stamped with the `next_seq` and removal count of the snapshot they
//! were computed against. Flushes and compactions leave a cached answer
//! a hit; an add extends it by running the query over the appended
//! documents only; a delete makes the next lookup a miss. No write
//! invalidates anything explicitly.
//!
//! **Replies.** Every reply goes out in one write, a line-protocol
//! reply with its line end, on a stream with Nagle's algorithm off: a
//! reply split over two writes would hold its tail until the client's
//! delayed ACK, about 40 ms per request.
//!
//! Every admitted-or-shed request emits a qlog access record with a
//! `status` field (`ok|error|timeout|shed`) and bumps the RED series
//! `free_serve_requests_total{status=…}`.
//!
//! Concurrency model: queries are served from the snapshots a
//! [`free_live::LiveReader`] hands out and never take the writer lock,
//! so any number of connections can search while an
//! `add`/`delete`/`flush`/`compact` command holds the single writer (a
//! `Mutex<LiveIndex>`). Workers are a fixed thread pool fed by the
//! bounded channel; each worker owns one connection at a time.
//!
//! Shutdown is a protocol command rather than a signal handler (the
//! workspace forbids `unsafe`, which rules out `sigaction`): on
//! `shutdown` the handler raises the shutdown flag and self-connects to
//! unblock `accept`, and the client gets its reply. The accept loop stops
//! handing out new connections, the channel closes, and every worker
//! finishes the requests already in flight before the server returns.

use crate::{CliError, Result};
use free_engine::RequestBudget;
use free_live::{LiveIndex, LiveReader, QueryCache, QueryOpts};
use free_trace::json::{JsonArray, JsonObject};
use free_trace::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker blocks on a socket read before re-checking the
/// shutdown flag. Partial lines survive the timeout.
const READ_POLL: Duration = Duration::from_millis(200);

/// Upper bound on one HTTP request head (request line + headers); each
/// header line is read under what is left of it.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Upper bound on one HTTP request body, and on any other line the
/// server reads (a line-protocol request, the sniffed first line, an
/// HTTP request line).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// `Retry-After` seconds advertised on shed responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Options for `free serve`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Live-index directory (created on first use).
    pub dir: PathBuf,
    /// Port to bind on 127.0.0.1 (`0` = ephemeral, the chosen port is
    /// announced on stdout).
    pub port: u16,
    /// Worker threads serving connections (`0` = one per CPU, min 2).
    pub workers: usize,
    /// Confirmation threads per query (`0` = one per CPU).
    pub threads: usize,
    /// Directory for the durable query/access log (`None` = logging
    /// off). Installed process-wide for the server's lifetime; sealed
    /// on graceful shutdown.
    pub query_log: Option<PathBuf>,
    /// Slow-query threshold in milliseconds (`None` = flight recorder
    /// off; `0` captures every query).
    pub slow_ms: Option<u64>,
    /// Maximum queries confirmed concurrently; excess requests are shed
    /// with 429 + `Retry-After` (`0` = unlimited).
    pub max_concurrent: usize,
    /// Bound on connections queued between accept and the worker pool;
    /// overflow is shed at accept time (`0` = 1024).
    pub queue_depth: usize,
    /// Server-wide default query deadline in milliseconds, applied when
    /// a request does not carry its own `timeout_ms` (`None` = no
    /// deadline).
    pub timeout_ms: Option<u64>,
    /// Entries in the query result cache (`0` = cache disabled).
    pub cache_entries: usize,
}

impl ServeOptions {
    /// Defaults: ephemeral port, auto-sized pools, logging off, no
    /// concurrency cap, no deadline, 1024-entry result cache.
    pub fn new(dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            dir: dir.into(),
            port: 0,
            workers: 0,
            threads: 0,
            query_log: None,
            slow_ms: None,
            max_concurrent: 0,
            queue_depth: 0,
            timeout_ms: None,
            cache_entries: 1024,
        }
    }
}

/// Terminal outcome of one request, for the access log and RED metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RequestStatus {
    /// Answered successfully.
    Ok,
    /// Answered with an error (bad request, engine failure, …).
    Error,
    /// Deadline expired or the request was cancelled mid-confirmation.
    Timeout,
    /// Rejected by admission control without being executed.
    Shed,
}

impl RequestStatus {
    fn as_str(self) -> &'static str {
        match self {
            RequestStatus::Ok => "ok",
            RequestStatus::Error => "error",
            RequestStatus::Timeout => "timeout",
            RequestStatus::Shed => "shed",
        }
    }
}

/// The max-concurrency gate: a try-only semaphore. `max == 0` admits
/// everything (but still tracks the in-flight count for the gauge).
struct Gate {
    active: AtomicUsize,
    max: usize,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            active: AtomicUsize::new(0),
            max,
        }
    }

    /// Admits the request, or refuses immediately — admission control
    /// never queues.
    fn try_acquire(&self) -> Option<Permit<'_>> {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if self.max != 0 && cur >= self.max {
                return None;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit { gate: self }),
                Err(now) => cur = now,
            }
        }
    }
}

/// RAII admission permit.
struct Permit<'g> {
    gate: &'g Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared server state: the serialized writer, the lock-free read
/// handle, admission control, the result cache, and the observability
/// endpoints.
struct ServeCtx {
    writer: Mutex<LiveIndex>,
    reader: LiveReader,
    addr: SocketAddr,
    shutdown: AtomicBool,
    tracer: free_trace::Tracer,
    gate: Gate,
    cache: Option<QueryCache>,
    default_timeout: Option<Duration>,
    queries: free_trace::Counter,
    errors: free_trace::Counter,
    query_ns: free_trace::Histogram,
    connections: free_trace::Gauge,
    in_flight: free_trace::Gauge,
    /// Monotonic request-id source; ids are echoed in every response
    /// (`"request_id"`), recorded on the request span, and stamped on
    /// access-log records, so a client reply, a trace, and a log line
    /// are all correlatable.
    next_request_id: AtomicU64,
}

impl ServeCtx {
    fn new(options: &ServeOptions, live: LiveIndex, addr: SocketAddr) -> ServeCtx {
        let registry = free_trace::metrics::global();
        ServeCtx {
            reader: live.reader(),
            writer: Mutex::new(live),
            addr,
            shutdown: AtomicBool::new(false),
            tracer: free_trace::Tracer::with_capacity(1024),
            gate: Gate::new(options.max_concurrent),
            cache: (options.cache_entries > 0).then(|| QueryCache::new(options.cache_entries)),
            default_timeout: options.timeout_ms.map(Duration::from_millis),
            queries: registry.counter("free_serve_queries_total", "search requests handled"),
            errors: registry.counter("free_serve_errors_total", "requests answered with ok:false"),
            query_ns: registry.histogram("free_serve_query_ns", "per-query latency in nanoseconds"),
            connections: registry.gauge("free_serve_connections", "currently open connections"),
            in_flight: registry.gauge(
                "free_serve_queries_in_flight",
                "queries holding an admission permit",
            ),
            next_request_id: AtomicU64::new(0),
        }
    }

    /// Bumps `free_serve_requests_total{status=…}` for one finished (or
    /// shed) request and appends its access record to the durable query
    /// log (when one is installed): every admitted-or-shed request leaves
    /// a trace.
    fn log_access(
        &self,
        request_id: u64,
        proto: &str,
        cmd: &str,
        status: RequestStatus,
        started: Instant,
    ) {
        free_trace::metrics::global()
            .labeled_counter(
                "free_serve_requests_total",
                "requests handled by free serve, by outcome",
                "status",
                status.as_str(),
            )
            .inc();
        if free_trace::qlog::enabled() {
            let mut o = JsonObject::new();
            o.field_str("type", "access")
                .field_u64("ts_ms", free_engine::qlog::now_ms())
                .field_u64("request_id", request_id)
                .field_str("proto", proto)
                .field_str("cmd", cmd)
                .field_bool("ok", status == RequestStatus::Ok)
                .field_str("status", status.as_str())
                .field_u64(
                    "total_ns",
                    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                );
            free_trace::qlog::emit(o.finish());
        }
    }
}

/// Runs the server until a client sends `{"shutdown":true}`.
///
/// Binds `127.0.0.1:port`, announces the resolved address by calling
/// `announce` (the CLI prints it to stdout so scripts and tests can
/// discover an ephemeral port), then serves connections on a fixed
/// worker pool. Returns once every in-flight request has been answered.
pub fn serve(options: &ServeOptions, announce: impl FnOnce(SocketAddr)) -> Result<()> {
    if let Some(log_dir) = &options.query_log {
        free_trace::qlog::install(free_trace::LogWriter::create(log_dir)?);
    }
    if let Some(ms) = options.slow_ms {
        free_trace::qlog::set_slow_threshold_ns(Some(ms.saturating_mul(1_000_000)));
    }
    let live = LiveIndex::open_or_create(&options.dir, crate::live_config(options.threads))?;
    let listener = TcpListener::bind(("127.0.0.1", options.port))?;
    let addr = listener.local_addr()?;
    let ctx = Arc::new(ServeCtx::new(options, live, addr));
    announce(addr);
    run(listener, ctx, options);
    if options.query_log.is_some() {
        // Seal the current log segment so a stopped server leaves a
        // fully verifiable directory behind.
        free_trace::qlog::shutdown();
    }
    Ok(())
}

/// The accept loop and the worker pool, until shutdown is raised and
/// every queued connection is served.
fn run(listener: TcpListener, ctx: Arc<ServeCtx>, options: &ServeOptions) {
    let workers = if options.workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .max(2)
    } else {
        options.workers
    };
    let queue_depth = if options.queue_depth == 0 {
        1024
    } else {
        options.queue_depth
    };
    // Bounded handoff: when every worker is busy and the queue is full,
    // the accept loop sheds instead of queueing unboundedly.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let pool: Vec<_> = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || loop {
                // Hold the receiver lock only while waiting for work;
                // the connection itself is served lock-free.
                let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                match next {
                    Ok(stream) => handle_connection(stream, &ctx),
                    Err(_) => break, // channel closed: drain complete
                }
            })
        })
        .collect();

    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client) is dropped
            // unserved; everything already queued still completes.
            break;
        }
        let Ok(s) = stream else {
            continue; // transient accept failure
        };
        // Every reply is one write; with Nagle's algorithm on, the tail
        // of one past a segment would wait on the client's ACK.
        let _ = s.set_nodelay(true);
        match tx.try_send(s) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(s)) => shed_at_accept(s, &ctx),
            Err(mpsc::TrySendError::Disconnected(_)) => break,
        }
    }
    drop(tx);
    for worker in pool {
        let _ = worker.join();
    }
}

// ---------------------------------------------------------------------
// The request handler: one path for every command of both framings
// ---------------------------------------------------------------------

/// The command names, in the order a line-protocol object is matched
/// against them (the first key present wins).
const COMMANDS: [&str; 9] = [
    "query", "add", "delete", "flush", "compact", "stats", "metrics", "ping", "shutdown",
];

/// What a request asks for: both framings parse into this.
enum Command<'a> {
    Query(QueryParams<'a>),
    Add(Vec<&'a [u8]>),
    Delete(u32),
    Flush,
    Compact,
    Stats,
    /// The metrics registry; `text` answers in the Prometheus text
    /// format itself (`GET /metrics`) instead of as a JSON string field.
    Metrics {
        text: bool,
    },
    Ping,
    Shutdown,
}

impl Command<'_> {
    fn name(&self) -> &'static str {
        match self {
            Command::Query(_) => "query",
            Command::Add(_) => "add",
            Command::Delete(_) => "delete",
            Command::Flush => "flush",
            Command::Compact => "compact",
            Command::Stats => "stats",
            Command::Metrics { .. } => "metrics",
            Command::Ping => "ping",
            Command::Shutdown => "shutdown",
        }
    }
}

/// Parsed query parameters.
struct QueryParams<'a> {
    pattern: &'a str,
    limit: usize,
    want_docs: bool,
    timeout_ms: Option<u64>,
}

impl QueryParams<'_> {
    /// The effective budget: the request's own `timeout_ms` wins over
    /// the server default; neither means unlimited.
    fn budget(&self, ctx: &ServeCtx) -> RequestBudget {
        match self
            .timeout_ms
            .map(Duration::from_millis)
            .or(ctx.default_timeout)
        {
            Some(t) => RequestBudget::with_timeout(t),
            None => RequestBudget::unlimited(),
        }
    }
}

/// A request as a framing parsed it: a command, or why there is none.
type Parsed<'a> = std::result::Result<Command<'a>, Refused>;

/// Why a request is not answered `ok`: the outcome it counts as, the
/// HTTP status that frames it, and the message its reply carries.
struct Failure {
    status: RequestStatus,
    code: u16,
    message: String,
}

impl Failure {
    fn bad_request(message: String) -> Failure {
        Failure {
            status: RequestStatus::Error,
            code: 400,
            message,
        }
    }

    fn shed(reason: &str) -> Failure {
        Failure {
            status: RequestStatus::Shed,
            code: 429,
            message: format!("server overloaded: {reason}"),
        }
    }
}

impl From<CliError> for Failure {
    fn from(e: CliError) -> Failure {
        let timed_out = matches!(
            e,
            CliError::Live(free_live::Error::Timeout { .. } | free_live::Error::Cancelled)
                | CliError::Engine(
                    free_engine::Error::Timeout { .. } | free_engine::Error::Cancelled
                )
        );
        Failure {
            status: if timed_out {
                RequestStatus::Timeout
            } else {
                RequestStatus::Error
            },
            code: if timed_out { 504 } else { 400 },
            message: e.to_string(),
        }
    }
}

impl From<free_live::Error> for Failure {
    fn from(e: free_live::Error) -> Failure {
        CliError::from(e).into()
    }
}

/// A request refused before it ran: the command name its access record
/// carries (`unparsed` when it named none) and why.
struct Refused {
    cmd: &'static str,
    failure: Failure,
}

impl Refused {
    fn bad_request(cmd: &'static str, message: String) -> Refused {
        Refused {
            cmd,
            failure: Failure::bad_request(message),
        }
    }
}

/// One answered request, ready for either framing.
struct Reply {
    /// The HTTP status that frames it.
    code: u16,
    status: RequestStatus,
    /// A JSON object, or Prometheus text for `Metrics { text: true }`.
    body: String,
    text: bool,
    /// The server is shutting down; the connection closes after this.
    stop: bool,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            code: 200,
            status: RequestStatus::Ok,
            body,
            text: false,
            stop: false,
        }
    }
}

/// Answers one request in either framing (`proto`, `tcp` or `http`, as
/// the access record names it). Every request gets a fresh id, echoed in
/// its reply, recorded on its span and — when a query log is installed —
/// written to the access log with its command, outcome and latency.
fn handle(ctx: &ServeCtx, proto: &str, request: Parsed<'_>) -> Reply {
    let request_id = ctx.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    let mut span = ctx.tracer.span("serve.request");
    span.record("request_id", request_id);
    let (cmd, result) = match request {
        Ok(command) => (command.name(), execute(ctx, command, request_id)),
        Err(refused) => (refused.cmd, Err(refused.failure)),
    };
    span.record("kind", cmd);
    let reply = result.unwrap_or_else(|failure| {
        ctx.errors.inc();
        let mut o = JsonObject::new();
        o.field_bool("ok", false)
            .field_u64("request_id", request_id)
            .field_str("status", failure.status.as_str());
        if failure.status == RequestStatus::Shed {
            o.field_u64("retry_after_s", RETRY_AFTER_SECS);
        }
        o.field_str("error", &failure.message);
        Reply {
            code: failure.code,
            status: failure.status,
            ..Reply::ok(o.finish())
        }
    });
    ctx.log_access(request_id, proto, cmd, reply.status, started);
    reply
}

/// Runs one command: a query under an admission permit, a write under
/// the writer lock, the rest inline.
fn execute(
    ctx: &ServeCtx,
    command: Command<'_>,
    request_id: u64,
) -> std::result::Result<Reply, Failure> {
    let mut o = JsonObject::new();
    o.field_bool("ok", true).field_u64("request_id", request_id);
    match command {
        Command::Query(params) => {
            let Some(permit) = ctx.gate.try_acquire() else {
                return Err(Failure::shed("concurrency limit reached"));
            };
            ctx.in_flight.add(1);
            let result = run_query(&params, ctx, &mut o);
            ctx.in_flight.add(-1);
            drop(permit);
            result?;
        }
        Command::Add(docs) => {
            let seqs = lock_writer(ctx).add_batch(&docs)?;
            let mut rendered = JsonArray::new();
            for seq in seqs {
                rendered.push_u64(u64::from(seq));
            }
            o.field_raw("seqs", rendered.finish());
        }
        Command::Delete(seq) => {
            lock_writer(ctx).delete(seq)?;
            o.field_u64("deleted", u64::from(seq));
        }
        Command::Flush => {
            o.field_bool("changed", lock_writer(ctx).flush()?);
        }
        Command::Compact => {
            o.field_bool("changed", lock_writer(ctx).compact()?);
        }
        Command::Stats => {
            o.field_raw("stats", lock_writer(ctx).stats().to_json());
        }
        Command::Metrics { text: true } => {
            let mut reply = Reply::ok(crate::metrics_text());
            reply.text = true;
            return Ok(reply);
        }
        Command::Metrics { text: false } => {
            o.field_str("metrics", &crate::metrics_text());
        }
        Command::Ping => {
            o.field_bool("pong", true)
                .field_u64("generation", ctx.reader.generation());
        }
        Command::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag; a failure
            // here just means the next real connection triggers the exit.
            let _ = TcpStream::connect(ctx.addr);
            o.field_bool("shutting_down", true);
            let mut reply = Reply::ok(o.finish());
            reply.stop = true;
            return Ok(reply);
        }
    }
    Ok(Reply::ok(o.finish()))
}

/// Runs one search against the freshest published snapshot (never
/// touching the writer lock) and renders its answer into `o`, through
/// the result cache when there is one: a hit skips planning and
/// confirmation, an extension confirms only the documents appended
/// since the cached answer.
fn run_query(params: &QueryParams<'_>, ctx: &ServeCtx, o: &mut JsonObject) -> Result<()> {
    ctx.queries.inc();
    let started = Instant::now();
    let snapshot = ctx.reader.snapshot();
    let generation = snapshot.generation();
    let budget = params.budget(ctx);
    let matches = match &ctx.cache {
        Some(cache) => cache.query(&snapshot, params.pattern, &budget)?.0,
        None => {
            let opts = QueryOpts {
                budget,
                ..QueryOpts::default()
            };
            Arc::new(snapshot.query_opts(params.pattern, &opts)?.matches)
        }
    };
    ctx.query_ns.observe_duration(started.elapsed());

    let mut rendered = JsonArray::new();
    for m in matches.iter().take(params.limit) {
        let mut doc = JsonObject::new();
        // `spans` carries the match count: the name is part of the wire
        // format.
        doc.field_u64("seq", u64::from(m.seq))
            .field_u64("spans", u64::from(m.count));
        if params.want_docs {
            let bytes = snapshot.get(m.seq)?;
            doc.field_str("doc", &String::from_utf8_lossy(&bytes));
        }
        rendered.push_raw(doc.finish());
    }
    o.field_u64("generation", generation)
        .field_u64("total", matches.len() as u64)
        .field_raw("matches", rendered.finish());
    Ok(())
}

/// The serialized writer: one command at a time, queries unaffected.
fn lock_writer(ctx: &ServeCtx) -> std::sync::MutexGuard<'_, LiveIndex> {
    ctx.writer.lock().unwrap_or_else(|e| e.into_inner())
}

/// Parses a JSON request (a line, or a `POST /query` body).
fn parse_json(bytes: &[u8]) -> std::result::Result<JsonValue, Refused> {
    std::str::from_utf8(bytes)
        .map_err(|_| "request is not UTF-8".to_string())
        .and_then(|s| JsonValue::parse(s.trim()))
        .map_err(|e| Refused::bad_request("unparsed", format!("bad request: {e}")))
}

/// The command a line-protocol request names: the first key of
/// [`COMMANDS`] its object holds. `json` holds the parsed object while
/// the command borrows it.
fn line_command<'a>(line: &[u8], json: &'a mut Option<JsonValue>) -> Parsed<'a> {
    let request = &*json.insert(parse_json(line)?);
    let Some(&name) = COMMANDS.iter().find(|k| request.get(k).is_some()) else {
        let message = format!(
            "bad request: unknown command: expected one of {}",
            COMMANDS.join("/")
        );
        return Err(Refused::bad_request("unknown", message));
    };
    let bad = |what: &str| Refused::bad_request(name, format!("bad request: {what}"));
    Ok(match name {
        "query" => return query_command(request),
        "add" => {
            let items = request.get(name).and_then(JsonValue::as_array);
            let docs = items.and_then(|items| {
                (items.iter())
                    .map(|item| item.as_str().map(str::as_bytes))
                    .collect()
            });
            Command::Add(docs.ok_or_else(|| bad("\"add\" must be an array of strings"))?)
        }
        "delete" => Command::Delete(
            (request.get(name).and_then(JsonValue::as_u64))
                .and_then(|s| u32::try_from(s).ok())
                .ok_or_else(|| bad("\"delete\" must be a sequence number"))?,
        ),
        "flush" => Command::Flush,
        "compact" => Command::Compact,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics { text: false },
        "ping" => Command::Ping,
        _ => Command::Shutdown,
    })
}

/// A `query` object: a line-protocol request or a `POST /query` body.
fn query_command(request: &JsonValue) -> Parsed<'_> {
    let Some(pattern) = request.get("query").and_then(JsonValue::as_str) else {
        return Err(Refused::bad_request(
            "query",
            "bad request: \"query\" must be a string".to_string(),
        ));
    };
    Ok(Command::Query(QueryParams {
        pattern,
        limit: (request.get("limit").and_then(JsonValue::as_u64))
            .map_or(usize::MAX, |n| n as usize),
        want_docs: (request.get("docs").and_then(JsonValue::as_bool)).unwrap_or(false),
        timeout_ms: request.get("timeout_ms").and_then(JsonValue::as_u64),
    }))
}

// ---------------------------------------------------------------------
// Framing: reading requests and writing replies
// ---------------------------------------------------------------------

/// What one polled line read produced.
#[derive(Clone, Copy)]
enum LineRead {
    /// A complete line (separator included) is in the buffer.
    Line,
    /// Clean end of stream.
    Eof,
    /// Shutdown was observed while idle.
    Shutdown,
    /// Unrecoverable socket error.
    Failed,
    /// More than the cap arrived without a line end; the buffer holds
    /// the first cap + 1 of them.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf`, polling the shutdown flag
/// on read timeouts. Partial data survives each poll. Never buffers
/// more than one byte past `cap`.
fn read_line_poll(
    reader: &mut BufReader<TcpStream>,
    ctx: &ServeCtx,
    buf: &mut Vec<u8>,
    cap: usize,
) -> LineRead {
    loop {
        let room = (cap + 1).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(0) => return LineRead::Eof,
            Ok(_) if buf.last() == Some(&b'\n') => return LineRead::Line,
            Ok(_) if buf.len() > cap => return LineRead::TooLong,
            Ok(_) => continue, // partial read
            Err(e) if is_poll_timeout(&e) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Shutdown;
                }
            }
            Err(_) => return LineRead::Failed,
        }
    }
}

/// Whether a socket read ended on the [`READ_POLL`] timeout: the caller
/// re-checks the shutdown flag and reads on.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one connection. The first request line decides the framing:
/// an HTTP method keeps the whole connection on HTTP/1.1, anything else
/// is the line-delimited JSON protocol.
fn handle_connection(stream: TcpStream, ctx: &ServeCtx) {
    ctx.connections.add(1);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    if let Ok(clone) = stream.try_clone() {
        let (mut reader, mut out) = (BufReader::new(clone), stream);
        let mut line = Vec::new();
        let read = read_line_poll(&mut reader, ctx, &mut line, MAX_BODY_BYTES);
        if matches!(read, LineRead::Line | LineRead::Eof) && looks_like_http(&line) {
            serve_http(&mut reader, &mut out, line, ctx);
        } else {
            serve_lines(&mut reader, &mut out, line, read, ctx);
        }
    }
    ctx.connections.add(-1);
}

/// Whether a first request line is an HTTP/1.x request line.
fn looks_like_http(line: &[u8]) -> bool {
    [
        b"GET ".as_slice(),
        b"POST ".as_slice(),
        b"HEAD ".as_slice(),
        b"PUT ".as_slice(),
        b"DELETE ".as_slice(),
        b"OPTIONS ".as_slice(),
    ]
    .iter()
    .any(|m| line.starts_with(m))
}

/// Sheds a connection the worker pool has no room for: one `429` with
/// `Retry-After`, then close. The reply is HTTP-framed (the production
/// front end); line-protocol clients treat the closed connection as the
/// backpressure signal. Even shed connections leave an access record
/// and bump the `shed` RED counter.
fn shed_at_accept(mut stream: TcpStream, ctx: &ServeCtx) {
    let refused = Refused {
        cmd: "accept",
        failure: Failure::shed("accept queue full"),
    };
    let reply = handle(ctx, "http", Err(refused));
    let _ = send_http(&mut stream, reply, true, false);
}

/// Answers a line longer than `cap` bytes once, in the framing its first
/// bytes name; the caller then closes the connection.
fn refuse_long_line(out: &mut TcpStream, prefix: &[u8], cap: usize, ctx: &ServeCtx) {
    let message = format!("request line exceeds {cap} bytes");
    let refused = Refused::bad_request("unparsed", message);
    if looks_like_http(prefix) {
        let _ = send_http(out, handle(ctx, "http", Err(refused)), true, false);
    } else {
        let _ = send_line(out, handle(ctx, "tcp", Err(refused)));
    }
}

/// The line-delimited JSON loop. `line` and `read` are the first line
/// and how its read ended; an unterminated last line is served too.
fn serve_lines(
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    mut line: Vec<u8>,
    mut read: LineRead,
    ctx: &ServeCtx,
) {
    loop {
        match read {
            LineRead::Line | LineRead::Eof => {
                if !line.iter().all(u8::is_ascii_whitespace) {
                    let mut json = None;
                    let reply = handle(ctx, "tcp", line_command(&line, &mut json));
                    let stop = reply.stop;
                    if send_line(out, reply).is_err() || stop {
                        return;
                    }
                }
                if matches!(read, LineRead::Eof) {
                    return;
                }
            }
            LineRead::TooLong => return refuse_long_line(out, &line, MAX_BODY_BYTES, ctx),
            LineRead::Shutdown | LineRead::Failed => return,
        }
        line.clear();
        read = read_line_poll(reader, ctx, &mut line, MAX_BODY_BYTES);
    }
}

/// Sends one line-protocol reply and its line end in one write.
fn send_line(out: &mut TcpStream, reply: Reply) -> std::io::Result<()> {
    let mut bytes = reply.body.into_bytes();
    bytes.push(b'\n');
    out.write_all(&bytes)
}

/// One parsed HTTP request head.
struct HttpRequest {
    method: String,
    path: String,
    content_length: usize,
    close: bool,
}

/// Parses the request line plus headers. `first` is the already-read
/// request line; header lines are read from `reader`. Returns `None`
/// on malformed input or shutdown.
fn read_http_head(
    reader: &mut BufReader<TcpStream>,
    first: Vec<u8>,
    ctx: &ServeCtx,
) -> Option<HttpRequest> {
    let line = String::from_utf8(first).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let mut content_length = 0usize;
    let mut close = false;
    let mut head_bytes = line.len();
    let mut header: Vec<u8> = Vec::new();
    loop {
        header.clear();
        // A header line gets what is left of the head's cap, so an
        // endless one is refused once the head passes it.
        let room = MAX_HEAD_BYTES.saturating_sub(head_bytes);
        match read_line_poll(reader, ctx, &mut header, room) {
            LineRead::Line => {}
            _ => return None,
        }
        head_bytes += header.len();
        let h = std::str::from_utf8(&header).ok()?.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':')?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    Some(HttpRequest {
        method,
        path,
        content_length,
        close,
    })
}

/// Reads exactly `n` body bytes, polling the shutdown flag on timeouts.
fn read_http_body(reader: &mut BufReader<TcpStream>, ctx: &ServeCtx, n: usize) -> Option<Vec<u8>> {
    let mut body = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return None,
            Ok(k) => filled += k,
            Err(e) if is_poll_timeout(&e) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(body)
}

/// The command an HTTP request names: its route, and for `POST /query`
/// its body. `json` holds the parsed body while the command borrows it.
fn http_command<'a>(
    head: &HttpRequest,
    body: &[u8],
    json: &'a mut Option<JsonValue>,
) -> Parsed<'a> {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET" | "HEAD", "/healthz") => Ok(Command::Ping),
        ("GET" | "HEAD", "/metrics") => Ok(Command::Metrics { text: true }),
        ("POST", "/query") => query_command(json.insert(parse_json(body)?)),
        ("POST", "/shutdown") => Ok(Command::Shutdown),
        (_, "/query" | "/metrics" | "/healthz" | "/shutdown") => Err(Refused {
            cmd: "bad-method",
            failure: Failure {
                code: 405,
                ..Failure::bad_request("method not allowed".to_string())
            },
        }),
        _ => Err(Refused {
            cmd: "not-found",
            failure: Failure {
                code: 404,
                ..Failure::bad_request(
                    "not found: try POST /query, GET /metrics, GET /healthz".to_string(),
                )
            },
        }),
    }
}

/// The HTTP/1.1 keep-alive loop. `line` is the sniffed request line.
fn serve_http(
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    mut line: Vec<u8>,
    ctx: &ServeCtx,
) {
    loop {
        let Some(head) = read_http_head(reader, line, ctx) else {
            let refused = Refused::bad_request("unparsed", "malformed HTTP request".to_string());
            let _ = send_http(out, handle(ctx, "http", Err(refused)), true, false);
            return;
        };
        let body = match head.content_length {
            0 => Vec::new(),
            n => match read_http_body(reader, ctx, n) {
                Some(b) => b,
                None => return,
            },
        };
        let mut json = None;
        let reply = handle(ctx, "http", http_command(&head, &body, &mut json));
        let close = head.close || reply.stop;
        if send_http(out, reply, close, head.method == "HEAD").is_err() || close {
            return;
        }
        // Next request line (keep-alive): part of the head, so under the
        // head's cap.
        line = Vec::new();
        match read_line_poll(reader, ctx, &mut line, MAX_HEAD_BYTES) {
            LineRead::Line => {}
            LineRead::TooLong => return refuse_long_line(out, &line, MAX_HEAD_BYTES, ctx),
            LineRead::Eof | LineRead::Shutdown | LineRead::Failed => return,
        }
    }
}

/// Sends one HTTP/1.1 response in one write: the status the reply's
/// outcome picks, its headers and (unless `head_only`) its body.
fn send_http(
    out: &mut TcpStream,
    reply: Reply,
    close: bool,
    head_only: bool,
) -> std::io::Result<()> {
    let reason = match reply.code {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        504 => "Gateway Timeout",
        _ => "OK",
    };
    let content_type = if reply.text {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let mut head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reply.code,
        reply.body.len()
    );
    if reply.code == 429 {
        head.push_str(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    let mut bytes = head.into_bytes();
    if !head_only {
        bytes.extend_from_slice(reply.body.as_bytes());
    }
    out.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_server(dir: &std::path::Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let options = ServeOptions {
            workers: 2,
            threads: 1,
            ..ServeOptions::new(dir)
        };
        start_with(options)
    }

    fn start_with(options: ServeOptions) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve(&options, move |addr| tx.send(addr).unwrap()).unwrap();
        });
        (rx.recv().unwrap(), handle)
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> JsonValue {
        let mut s = TcpStream::connect(addr).unwrap();
        writeln!(s, "{request}").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        JsonValue::parse(line.trim()).unwrap()
    }

    /// One HTTP request over a fresh connection; returns (status, body).
    fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = body.unwrap_or("");
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        BufReader::new(s).read_to_string(&mut response).unwrap();
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap();
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, payload)
    }

    #[test]
    fn add_query_delete_shutdown() {
        let dir = std::env::temp_dir().join(format!("free-serve-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);

        let added = roundtrip(addr, r#"{"add":["needle one","hay","needle two"]}"#);
        assert_eq!(added.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            added
                .get("seqs")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        // Every response carries a request id; ids increase.
        let first_id = added.get("request_id").and_then(JsonValue::as_u64).unwrap();
        assert!(first_id >= 1);

        let found = roundtrip(addr, r#"{"query":"needle","docs":true}"#);
        assert_eq!(found.get("total").and_then(JsonValue::as_u64), Some(2));
        assert!(found.get("request_id").and_then(JsonValue::as_u64).unwrap() > first_id);
        let first = &found.get("matches").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(
            first.get("doc").and_then(JsonValue::as_str),
            Some("needle one")
        );

        let deleted = roundtrip(addr, r#"{"delete":0}"#);
        assert_eq!(deleted.get("ok").and_then(JsonValue::as_bool), Some(true));
        let after = roundtrip(addr, r#"{"query":"needle"}"#);
        assert_eq!(after.get("total").and_then(JsonValue::as_u64), Some(1));

        let bad = roundtrip(addr, "not json");
        assert_eq!(bad.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(bad.get("error").and_then(JsonValue::as_str).is_some());
        assert_eq!(bad.get("status").and_then(JsonValue::as_str), Some("error"));
        // Errors are correlatable too.
        assert!(bad.get("request_id").and_then(JsonValue::as_u64).is_some());

        let bye = roundtrip(addr, r#"{"shutdown":true}"#);
        assert_eq!(
            bye.get("shutting_down").and_then(JsonValue::as_bool),
            Some(true)
        );
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_in_sequence_order_and_reports_stats() {
        let dir = std::env::temp_dir().join(format!("free-serve-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::live_create(&dir).unwrap();
        let (addr, handle) = start_server(&dir);

        let added = roundtrip(
            addr,
            r#"{"add":["needle one","hay","needle two","more hay"]}"#,
        );
        assert_eq!(added.get("ok").and_then(JsonValue::as_bool), Some(true));

        let found = roundtrip(addr, r#"{"query":"needle"}"#);
        assert_eq!(found.get("total").and_then(JsonValue::as_u64), Some(2));
        let seqs: Vec<u64> = found
            .get("matches")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("seq").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 2]);

        roundtrip(addr, r#"{"flush":true}"#);
        let stats = roundtrip(addr, r#"{"stats":true}"#);
        let shape = stats.get("stats").unwrap();
        assert_eq!(shape.get("live_docs").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(
            shape.get("num_segments").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert!(shape.get("shards").is_none());

        let bye = roundtrip(addr, r#"{"shutdown":true}"#);
        assert_eq!(
            bye.get("shutting_down").and_then(JsonValue::as_bool),
            Some(true)
        );
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_captures_query_and_access_log() {
        let dir = std::env::temp_dir().join(format!("free-serve-qlog-{}", std::process::id()));
        let log_dir = dir.join("qlog");
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            workers: 2,
            threads: 1,
            query_log: Some(log_dir.clone()),
            slow_ms: Some(0), // every query trips the flight recorder
            ..ServeOptions::new(dir.join("idx"))
        };
        let (addr, handle) = start_with(options);

        roundtrip(addr, r#"{"add":["qlog needle","qlog hay"]}"#);
        let found = roundtrip(addr, r#"{"query":"qlog.needle"}"#);
        assert_eq!(found.get("total").and_then(JsonValue::as_u64), Some(1));
        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();

        // Shutdown sealed the log; it must contain this server's access
        // records and the query record, flagged slow. (Other tests in
        // this process may interleave records — filter, don't count.)
        let segments = free_trace::qlog::read_dir(&log_dir).unwrap();
        assert!(!segments.is_empty());
        let records: Vec<JsonValue> = segments
            .iter()
            .flat_map(|s| s.trusted_records().iter())
            .map(|line| JsonValue::parse(line).unwrap())
            .collect();
        let query = records
            .iter()
            .find(|r| {
                r.get("type").and_then(JsonValue::as_str) == Some("query")
                    && r.get("pattern").and_then(JsonValue::as_str) == Some("qlog.needle")
            })
            .expect("query record captured");
        assert_eq!(
            query.get("source").and_then(JsonValue::as_str),
            Some("live")
        );
        assert_eq!(query.get("slow").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            query
                .get("stats")
                .and_then(|s| s.get("matching_docs"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        let access_query = records.iter().find(|r| {
            r.get("type").and_then(JsonValue::as_str) == Some("access")
                && r.get("cmd").and_then(JsonValue::as_str) == Some("query")
                && r.get("request_id").and_then(JsonValue::as_u64).is_some()
        });
        let access_query = access_query.expect("access record for the query is present");
        // PR 10: access records carry the outcome status.
        assert_eq!(
            access_query.get("status").and_then(JsonValue::as_str),
            Some("ok")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_endpoints_roundtrip() {
        let dir = std::env::temp_dir().join(format!("free-serve-http-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);

        // Mixed protocols on one port: seed over the line protocol.
        roundtrip(addr, r#"{"add":["http needle","http hay"]}"#);

        let (code, body) = http(addr, "GET", "/healthz", None);
        assert_eq!(code, 200);
        let v = JsonValue::parse(body.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));

        let (code, body) = http(
            addr,
            "POST",
            "/query",
            Some(r#"{"query":"needle","docs":true}"#),
        );
        assert_eq!(code, 200);
        let v = JsonValue::parse(body.trim()).unwrap();
        assert_eq!(v.get("total").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("matches").and_then(JsonValue::as_array).unwrap()[0]
                .get("doc")
                .and_then(JsonValue::as_str),
            Some("http needle")
        );

        let (code, body) = http(addr, "GET", "/metrics", None);
        assert_eq!(code, 200);
        assert!(body.contains("free_serve_requests_total"), "{body}");

        let (code, _) = http(addr, "GET", "/nope", None);
        assert_eq!(code, 404);
        let (code, _) = http(addr, "GET", "/query", None);
        assert_eq!(code, 405);

        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_keep_alive_serves_multiple_requests() {
        let dir = std::env::temp_dir().join(format!("free-serve-ka-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);

        let mut s = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        for i in 0..3 {
            write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            // Read the status line, headers, then the exact body.
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "request {i}: {line}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            let v = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        }
        drop(s);

        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line that runs past the cap with no end gets one error, in the
    /// protocol its first bytes name, as soon as the cap is reached; the
    /// server keeps serving.
    #[test]
    fn an_endless_line_is_refused_once() {
        let dir = std::env::temp_dir().join(format!("free-serve-long-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);
        for prefix in [&b"{\"query\":\""[..], b"GET /"] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut line = prefix.to_vec();
            line.resize(MAX_BODY_BYTES + 1, b'a');
            s.write_all(&line).unwrap();
            let mut reply = String::new();
            BufReader::new(s).read_to_string(&mut reply).unwrap();
            let body = if prefix.starts_with(b"GET") {
                assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
                reply.split_once("\r\n\r\n").unwrap().1
            } else {
                assert_eq!(reply.lines().count(), 1, "{reply}");
                &reply
            };
            let v = JsonValue::parse(body.trim()).unwrap();
            assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
            let error = v.get("error").and_then(JsonValue::as_str).unwrap();
            assert!(error.contains("exceeds"), "{error}");
        }
        assert_eq!(http(addr, "GET", "/healthz", None).0, 200);
        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A header line with no end is refused as soon as the head passes
    /// its cap, while the client still holds the connection open and
    /// keeps sending.
    #[test]
    fn an_endless_header_is_refused_at_the_head_cap() {
        let dir = std::env::temp_dir().join(format!("free-serve-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(1 << 20, b'a');
        let mut sender = s.try_clone().unwrap();
        // The server stops reading at the cap, so the rest of the pad
        // may never be taken: send it beside the read, ignoring errors.
        let pad = std::thread::spawn(move || {
            let _ = sender.write_all(&head);
        });
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        while !reply.windows(4).any(|w| w == b"\r\n\r\n") {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("no reply within the read timeout: {e}"),
            }
        }
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
        pad.join().unwrap();
        assert_eq!(http(addr, "GET", "/healthz", None).0, 200);
        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_timeout_returns_structured_timeout() {
        let dir = std::env::temp_dir().join(format!("free-serve-to-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr, handle) = start_server(&dir);

        roundtrip(addr, r#"{"add":["timeout needle","timeout hay"]}"#);
        // timeout_ms 0: the budget is expired before the first
        // confirmation batch — structured timeout, no partial results.
        // The pattern must miss the cache, so use a unique one.
        let (code, body) = http(
            addr,
            "POST",
            "/query",
            Some(r#"{"query":"timeout.needle","timeout_ms":0}"#),
        );
        assert_eq!(code, 504, "{body}");
        let v = JsonValue::parse(body.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("timeout"));
        assert!(v.get("matches").is_none(), "no partial results: {body}");

        // The same pattern without a deadline still works (the timeout
        // was not cached).
        let (code, body) = http(
            addr,
            "POST",
            "/query",
            Some(r#"{"query":"timeout.needle"}"#),
        );
        assert_eq!(code, 200);
        let v = JsonValue::parse(body.trim()).unwrap();
        assert_eq!(v.get("total").and_then(JsonValue::as_u64), Some(1));

        // Line protocol: same structured status.
        let to = roundtrip(addr, r#"{"query":"timeout.hay","timeout_ms":0}"#);
        assert_eq!(
            to.get("status").and_then(JsonValue::as_str),
            Some("timeout")
        );

        roundtrip(addr, r#"{"shutdown":true}"#);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One line-protocol request over a fresh connection: the reply line
    /// without its line end.
    fn line_reply(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert_eq!(line.pop(), Some('\n'), "{line}");
        line
    }

    /// A reply body with its request id zeroed.
    fn without_id(body: &str) -> String {
        let key = "\"request_id\":";
        let at = body.find(key).map_or(body.len(), |i| i + key.len());
        let digits = body[at..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}0{}", &body[..at], &body[at + digits..])
    }

    /// The same request gets the same JSON body from both framings, but
    /// for its request id: a query miss, hit and extension, a ping, a
    /// malformed request, a pattern that does not parse, a query shed
    /// while another holds the one permit, and a timeout.
    #[test]
    fn both_framings_answer_alike() {
        let dir = std::env::temp_dir().join(format!("free-serve-alike-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            workers: 2,
            threads: 1,
            max_concurrent: 1,
            ..ServeOptions::new(&dir)
        };
        let live = LiveIndex::open_or_create(&dir, crate::live_config(1)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let ctx = Arc::new(ServeCtx::new(&options, live, addr));
        let server = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || run(listener, ctx, &options))
        };
        // The line reply, then the HTTP status and body, or the other
        // way round when `http_first`.
        let both = |request: &str, http_first: bool| {
            let post = || http(addr, "POST", "/query", Some(request));
            let (line, (code, body)) = if http_first {
                let http = post();
                (line_reply(addr, request), http)
            } else {
                (line_reply(addr, request), post())
            };
            (line, code, body)
        };
        let alike = |request: &str, http_first: bool| {
            let (line, code, body) = both(request, http_first);
            assert_eq!(without_id(&line), without_id(&body), "{request}");
            (code, JsonValue::parse(&body).unwrap())
        };
        let field = |v: &JsonValue, key: &str| v.get(key).cloned();
        let total = |v: &JsonValue| v.get("total").and_then(JsonValue::as_u64);

        roundtrip(addr, r#"{"add":["one needle","hay","two needle"]}"#);
        // Each pattern misses in the framing that asks first and hits in
        // the other; after the add, the first asker extends the answer.
        let needle = r#"{"query":"needle","docs":true}"#;
        let (code, v) = alike(needle, false);
        assert_eq!((code, total(&v)), (200, Some(2)));
        let (code, v) = alike(r#"{"query":"two|hay"}"#, true);
        assert_eq!((code, total(&v)), (200, Some(2)));
        roundtrip(addr, r#"{"add":["three needle"]}"#);
        let (code, v) = alike(needle, false);
        assert_eq!((code, total(&v)), (200, Some(3)));
        let (code, v) = alike(r#"{"query":"two|hay"}"#, true);
        assert_eq!((code, total(&v)), (200, Some(2)));

        let (code, body) = http(addr, "GET", "/healthz", None);
        assert_eq!(code, 200);
        assert_eq!(
            without_id(&line_reply(addr, r#"{"ping":true}"#)),
            without_id(&body)
        );

        for request in [r#"{"query":"#, r#"{"query":"(unclosed"}"#] {
            let (code, v) = alike(request, false);
            assert_eq!(code, 400, "{request}");
            let status = field(&v, "status");
            assert_eq!(status.as_ref().and_then(JsonValue::as_str), Some("error"));
        }

        // An admitted query holds the one permit while it runs.
        let in_flight = ctx.gate.try_acquire().unwrap();
        let (code, v) = alike(needle, false);
        assert_eq!(code, 429);
        assert_eq!(
            field(&v, "status").as_ref().and_then(JsonValue::as_str),
            Some("shed")
        );
        assert_eq!(
            field(&v, "retry_after_s")
                .as_ref()
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        drop(in_flight);

        // A timeout is never cached, so both framings time out; the error
        // says how far past the deadline each noticed, so digits go.
        let (line, code, body) = both(r#"{"query":"n.edle","timeout_ms":0}"#, false);
        assert_eq!(code, 504, "{body}");
        let digitless = |s: &str| without_id(s).replace(|c: char| c.is_ascii_digit(), "");
        assert_eq!(digitless(&line), digitless(&body));
        assert!(body.contains(r#""status":"timeout""#), "{body}");

        roundtrip(addr, r#"{"shutdown":true}"#);
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_sheds_above_max_concurrency() {
        let gate = Gate::new(2);
        let p1 = gate.try_acquire().expect("first");
        let _p2 = gate.try_acquire().expect("second");
        assert!(gate.try_acquire().is_none(), "third must shed");
        drop(p1);
        assert!(gate.try_acquire().is_some(), "freed permit readmits");
    }

    #[test]
    fn unlimited_gate_always_admits() {
        let gate = Gate::new(0);
        let permits: Vec<_> = (0..64).map(|_| gate.try_acquire().unwrap()).collect();
        assert_eq!(permits.len(), 64);
    }
}
