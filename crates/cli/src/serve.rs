//! `free serve` — a dependency-free query service over a live index.
//!
//! The server speaks **two protocols on one port**, distinguished by
//! sniffing the first request line of each connection:
//!
//! **Line-delimited JSON** (the original protocol): each request is one
//! JSON object on one line, each response one JSON object on one line.
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
//! **HTTP/1.1** (hand-rolled, keep-alive): `POST /query` takes the same
//! JSON body as the line protocol's `query` command (plus `timeout_ms`),
//! `GET /metrics` exposes the Prometheus registry, `GET /healthz` is the
//! liveness probe. A connection whose first bytes look like an HTTP
//! method stays HTTP for its lifetime.
//!
//! **Admission control.** Two bounded layers shed load instead of
//! queueing unboundedly: the accept queue between the listener and the
//! worker pool is a bounded channel (overflow answers `429` with
//! `Retry-After` and closes), and in-flight queries take a permit from a
//! max-concurrency gate (exhaustion answers `429 Retry-After` on HTTP,
//! `"status":"shed"` on the line protocol). Writes and metadata commands
//! bypass the gate — they serialize on the writer lock anyway.
//!
//! **Deadlines.** A query's `timeout_ms` (or the server-wide
//! `--timeout-ms` default) becomes a [`free_engine::RequestBudget`]
//! threaded into confirmation; expiry stops the executor between batches
//! and the client gets a structured timeout error, never partial results.
//!
//! **Result cache.** Full match lists are memoized per pattern
//! ([`free_live::QueryCache`]), stamped with the `next_seq` and removal
//! count of the snapshot they were computed against. Flushes and
//! compactions leave a cached answer a hit; an add extends it by
//! running the query over the appended documents only; a delete makes
//! the next lookup a miss. No write invalidates anything explicitly.
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
//! `{"shutdown":true}` the handler answers the client, raises the
//! shutdown flag, and self-connects to unblock `accept`. The accept
//! loop stops handing out new connections, the channel closes, and
//! every worker finishes the requests already in flight before the
//! server returns.

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

/// Maps an execution failure to the status it should be reported as.
fn status_of_error(e: &CliError) -> RequestStatus {
    match e {
        CliError::Live(free_live::Error::Timeout { .. })
        | CliError::Live(free_live::Error::Cancelled)
        | CliError::Engine(free_engine::Error::Timeout { .. })
        | CliError::Engine(free_engine::Error::Cancelled) => RequestStatus::Timeout,
        _ => RequestStatus::Error,
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
    /// Bumps `free_serve_requests_total{status=…}` for one finished (or
    /// shed) request.
    fn record_request(&self, status: RequestStatus) {
        free_trace::metrics::global()
            .labeled_counter(
                "free_serve_requests_total",
                "requests handled by free serve, by outcome",
                "status",
                status.as_str(),
            )
            .inc();
    }

    /// Appends one access record to the durable query log (no-op when
    /// none is installed). Shed and timed-out requests flow through
    /// here too — every admitted-or-shed request leaves a trace.
    fn log_access(
        &self,
        request_id: u64,
        proto: &str,
        cmd: &str,
        status: RequestStatus,
        started: Instant,
    ) {
        self.record_request(status);
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

    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
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

    let registry = free_trace::metrics::global();
    let ctx = Arc::new(ServeCtx {
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
    });
    announce(addr);

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
    if options.query_log.is_some() {
        // Seal the current log segment so a stopped server leaves a
        // fully verifiable directory behind.
        free_trace::qlog::shutdown();
    }
    Ok(())
}

/// Sheds a connection the worker pool has no room for: one `429` with
/// `Retry-After`, then close. The response is HTTP-shaped (the
/// production front end); line-protocol clients treat the closed
/// connection as the backpressure signal. Even shed connections leave
/// an access record and bump the `shed` RED counter.
fn shed_at_accept(mut stream: TcpStream, ctx: &ServeCtx) {
    let started = Instant::now();
    let request_id = ctx.next_id();
    let mut body = JsonObject::new();
    body.field_bool("ok", false)
        .field_u64("request_id", request_id)
        .field_str("status", "shed")
        .field_str("error", "server overloaded: accept queue full");
    let _ = stream.write_all(
        http_response_bytes(
            429,
            "Too Many Requests",
            "application/json",
            &body.finish(),
            true,
            true,
        )
        .as_slice(),
    );
    ctx.log_access(request_id, "http", "accept", RequestStatus::Shed, started);
}

/// What one polled line read produced.
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
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Shutdown;
                }
            }
            Err(_) => return LineRead::Failed,
        }
    }
}

/// Serves one connection. The first request line decides the protocol:
/// an HTTP method keeps the whole connection on the HTTP/1.1 path,
/// anything else is the line-delimited JSON protocol.
fn handle_connection(stream: TcpStream, ctx: &ServeCtx) {
    ctx.connections.add(1);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            ctx.connections.add(-1);
            return;
        }
    });
    let mut out = stream;
    let mut line: Vec<u8> = Vec::new();
    match read_line_poll(&mut reader, ctx, &mut line, MAX_BODY_BYTES) {
        LineRead::Line => {
            if looks_like_http(&line) {
                serve_http(&mut reader, &mut out, line, ctx);
            } else {
                serve_lines(&mut reader, &mut out, line, ctx);
            }
        }
        LineRead::Eof => {
            // EOF; an unterminated final request is still served.
            if !line.iter().all(u8::is_ascii_whitespace) {
                if looks_like_http(&line) {
                    serve_http(&mut reader, &mut out, line, ctx);
                } else {
                    let (response, _) = dispatch(&line, ctx);
                    let _ = send_line(&mut out, response);
                }
            }
        }
        LineRead::TooLong => refuse_long_line(&mut out, &line, MAX_BODY_BYTES, ctx),
        LineRead::Shutdown | LineRead::Failed => {}
    }
    ctx.connections.add(-1);
}

/// Answers a line longer than `cap` bytes once, in the protocol its first
/// bytes name; the caller then closes the connection.
fn refuse_long_line(out: &mut TcpStream, prefix: &[u8], cap: usize, ctx: &ServeCtx) {
    let (request_id, started) = (ctx.next_id(), Instant::now());
    let message = format!("request line exceeds {cap} bytes");
    let body = error_response(ctx, request_id, RequestStatus::Error, &message);
    let proto = if looks_like_http(prefix) {
        let reply = http_response_bytes(400, "Bad Request", "application/json", &body, true, false);
        let _ = out.write_all(&reply);
        "http"
    } else {
        let _ = send_line(out, body);
        "tcp"
    };
    ctx.log_access(request_id, proto, "unparsed", RequestStatus::Error, started);
}

/// Sends one line-protocol reply and its line end in one write.
fn send_line(out: &mut TcpStream, reply: String) -> std::io::Result<()> {
    let mut bytes = reply.into_bytes();
    bytes.push(b'\n');
    out.write_all(&bytes)
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

/// The line-delimited JSON protocol loop. `first` holds the line that
/// was already read for protocol sniffing.
fn serve_lines(
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    first: Vec<u8>,
    ctx: &ServeCtx,
) {
    let mut line = first;
    loop {
        let stop = if line.iter().all(u8::is_ascii_whitespace) {
            false
        } else {
            let (response, stop) = dispatch(&line, ctx);
            if send_line(out, response).is_err() {
                return;
            }
            stop
        };
        line.clear();
        if stop {
            return;
        }
        match read_line_poll(reader, ctx, &mut line, MAX_BODY_BYTES) {
            LineRead::Line => {}
            LineRead::Eof => {
                if !line.iter().all(u8::is_ascii_whitespace) {
                    let (response, _) = dispatch(&line, ctx);
                    let _ = send_line(out, response);
                }
                return;
            }
            LineRead::TooLong => return refuse_long_line(out, &line, MAX_BODY_BYTES, ctx),
            LineRead::Shutdown | LineRead::Failed => return,
        }
    }
}

/// The keys that name protocol commands, in dispatch order.
const COMMANDS: [&str; 9] = [
    "query", "add", "delete", "flush", "compact", "stats", "metrics", "ping", "shutdown",
];

/// Which command a parsed request names (for spans and the access log).
fn command_name(request: &JsonValue) -> &'static str {
    COMMANDS
        .iter()
        .find(|k| request.get(k).is_some())
        .copied()
        .unwrap_or("unknown")
}

/// Parses and executes one request line, returning the response line
/// and whether this connection should close (shutdown acknowledged).
/// Every request gets a fresh id, echoed in the response, recorded on
/// the span, and — when a query log is installed — written to the
/// access log with the command, outcome status, and latency.
fn dispatch(line: &[u8], ctx: &ServeCtx) -> (String, bool) {
    let request_id = ctx.next_id();
    let started = Instant::now();
    let mut span = ctx.tracer.span("serve.request");
    span.record("request_id", request_id);
    let parsed = std::str::from_utf8(line)
        .map_err(|_| "request is not UTF-8".to_string())
        .and_then(|s| JsonValue::parse(s.trim()));
    let (response, stop, cmd, status) = match parsed {
        Ok(request) => {
            let cmd = command_name(&request);
            span.record("kind", cmd);
            match execute_request(&request, ctx, request_id) {
                Ok(Executed::Response { body, stop }) => (body, stop, cmd, RequestStatus::Ok),
                Ok(Executed::Shed) => (
                    shed_response(ctx, request_id),
                    false,
                    cmd,
                    RequestStatus::Shed,
                ),
                Err(e) => {
                    let status = status_of_error(&e);
                    (
                        error_response(ctx, request_id, status, &e.to_string()),
                        false,
                        cmd,
                        status,
                    )
                }
            }
        }
        Err(e) => (
            error_response(
                ctx,
                request_id,
                RequestStatus::Error,
                &format!("bad request: {e}"),
            ),
            false,
            "unparsed",
            RequestStatus::Error,
        ),
    };
    ctx.log_access(request_id, "tcp", cmd, status, started);
    (response, stop)
}

/// Renders an `ok:false` response with its status and counts it.
fn error_response(ctx: &ServeCtx, request_id: u64, status: RequestStatus, message: &str) -> String {
    ctx.errors.inc();
    let mut o = JsonObject::new();
    o.field_bool("ok", false)
        .field_u64("request_id", request_id)
        .field_str("status", status.as_str())
        .field_str("error", message);
    o.finish()
}

/// Renders the line-protocol shed response (the `429` analogue).
fn shed_response(ctx: &ServeCtx, request_id: u64) -> String {
    ctx.errors.inc();
    let mut o = JsonObject::new();
    o.field_bool("ok", false)
        .field_u64("request_id", request_id)
        .field_str("status", "shed")
        .field_u64("retry_after_s", RETRY_AFTER_SECS)
        .field_str("error", "server overloaded: concurrency limit reached");
    o.finish()
}

/// Outcome of executing an admitted request.
enum Executed {
    /// A response body (and whether the connection should close).
    Response { body: String, stop: bool },
    /// Admission control refused the query.
    Shed,
}

/// Executes a parsed request against the index. Every response object
/// echoes the request's id.
fn execute_request(request: &JsonValue, ctx: &ServeCtx, request_id: u64) -> Result<Executed> {
    let mut o = JsonObject::new();
    o.field_bool("ok", true).field_u64("request_id", request_id);
    if let Some(pattern) = request.get("query") {
        let pattern = pattern
            .as_str()
            .ok_or_else(|| CliError::Manifest("\"query\" must be a string".into()))?;
        let Some(permit) = ctx.gate.try_acquire() else {
            return Ok(Executed::Shed);
        };
        ctx.in_flight.add(1);
        let params = QueryParams::from_request(pattern, request);
        let result = run_query(&params, ctx, request_id);
        ctx.in_flight.add(-1);
        drop(permit);
        return Ok(Executed::Response {
            body: result?,
            stop: false,
        });
    }
    if let Some(docs) = request.get("add") {
        let items = docs
            .as_array()
            .ok_or_else(|| CliError::Manifest("\"add\" must be an array of strings".into()))?;
        let mut bytes: Vec<&[u8]> = Vec::with_capacity(items.len());
        for item in items {
            bytes.push(
                item.as_str()
                    .ok_or_else(|| {
                        CliError::Manifest("\"add\" must be an array of strings".into())
                    })?
                    .as_bytes(),
            );
        }
        let seqs = lock_writer(ctx).add_batch(&bytes)?;
        let mut arr = JsonArray::new();
        for s in &seqs {
            arr.push_u64(u64::from(*s));
        }
        o.field_raw("seqs", arr.finish());
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if let Some(seq) = request.get("delete") {
        let seq = seq
            .as_u64()
            .and_then(|s| u32::try_from(s).ok())
            .ok_or_else(|| CliError::Manifest("\"delete\" must be a sequence number".into()))?;
        lock_writer(ctx).delete(seq)?;
        o.field_u64("deleted", u64::from(seq));
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("flush").is_some() {
        let changed = lock_writer(ctx).flush()?;
        o.field_bool("changed", changed);
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("compact").is_some() {
        let changed = lock_writer(ctx).compact()?;
        o.field_bool("changed", changed);
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("stats").is_some() {
        let stats = lock_writer(ctx).stats().to_json();
        o.field_raw("stats", stats);
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("metrics").is_some() {
        o.field_str("metrics", &crate::metrics_text());
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("ping").is_some() {
        o.field_bool("pong", true)
            .field_u64("generation", ctx.reader.generation());
        return Ok(Executed::Response {
            body: o.finish(),
            stop: false,
        });
    }
    if request.get("shutdown").is_some() {
        ctx.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag; a failure
        // here just means the next real connection triggers the exit.
        let _ = TcpStream::connect(ctx.addr);
        o.field_bool("shutting_down", true);
        return Ok(Executed::Response {
            body: o.finish(),
            stop: true,
        });
    }
    Err(CliError::Manifest(
        "unknown command: expected one of query/add/delete/flush/compact/stats/metrics/ping/shutdown"
            .into(),
    ))
}

/// Parsed query parameters, shared by both protocols.
struct QueryParams<'a> {
    pattern: &'a str,
    limit: usize,
    want_docs: bool,
    timeout_ms: Option<u64>,
}

impl<'a> QueryParams<'a> {
    fn from_request(pattern: &'a str, request: &JsonValue) -> QueryParams<'a> {
        QueryParams {
            pattern,
            limit: request
                .get("limit")
                .and_then(JsonValue::as_u64)
                .map_or(usize::MAX, |n| n as usize),
            want_docs: request
                .get("docs")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            timeout_ms: request.get("timeout_ms").and_then(JsonValue::as_u64),
        }
    }

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

/// Runs one search against the freshest published snapshot (never
/// touching the writer lock) and renders the response, through the
/// result cache when there is one: a hit skips planning and
/// confirmation, an extension confirms only the documents appended
/// since the cached answer.
fn run_query(params: &QueryParams<'_>, ctx: &ServeCtx, request_id: u64) -> Result<String> {
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
        let mut o = JsonObject::new();
        o.field_u64("seq", u64::from(m.seq))
            .field_u64("spans", m.spans.len() as u64);
        if params.want_docs {
            let doc = snapshot.get(m.seq)?;
            o.field_str("doc", &String::from_utf8_lossy(&doc));
        }
        rendered.push_raw(o.finish());
    }
    let mut o = JsonObject::new();
    o.field_bool("ok", true)
        .field_u64("request_id", request_id)
        .field_u64("generation", generation)
        .field_u64("total", matches.len() as u64)
        .field_raw("matches", rendered.finish());
    Ok(o.finish())
}

/// The serialized writer: one command at a time, queries unaffected.
fn lock_writer(ctx: &ServeCtx) -> std::sync::MutexGuard<'_, LiveIndex> {
    ctx.writer.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// HTTP/1.1 front end
// ---------------------------------------------------------------------

/// One parsed HTTP request head.
struct HttpRequest {
    method: String,
    path: String,
    content_length: usize,
    close: bool,
}

/// Renders a full HTTP/1.1 response.
fn http_response_bytes(
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    close: bool,
    retry_after: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if retry_after {
        head.push_str(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
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
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(body)
}

/// The HTTP/1.1 keep-alive loop. `first` is the sniffed request line.
fn serve_http(
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    first: Vec<u8>,
    ctx: &ServeCtx,
) {
    let mut next_line = Some(first);
    loop {
        let Some(line) = next_line.take() else { return };
        let Some(head) = read_http_head(reader, line, ctx) else {
            let body = r#"{"ok":false,"status":"error","error":"malformed HTTP request"}"#;
            let _ = out.write_all(&http_response_bytes(
                400,
                "Bad Request",
                "application/json",
                body,
                true,
                false,
            ));
            return;
        };
        let body = if head.content_length > 0 {
            match read_http_body(reader, ctx, head.content_length) {
                Some(b) => b,
                None => return,
            }
        } else {
            Vec::new()
        };
        let (response, stop) = http_dispatch(&head, &body, ctx);
        let close = head.close || stop;
        let mut rendered = http_response_bytes(
            response.code,
            response.reason,
            response.content_type,
            &response.body,
            close,
            response.retry_after,
        );
        if head.method == "HEAD" {
            rendered.truncate(rendered.len() - response.body.len());
        }
        if out.write_all(&rendered).is_err() || out.flush().is_err() || close {
            return;
        }
        // Next request line (keep-alive): part of the head, so under the
        // head's cap.
        let mut line = Vec::new();
        match read_line_poll(reader, ctx, &mut line, MAX_HEAD_BYTES) {
            LineRead::Line => next_line = Some(line),
            LineRead::TooLong => return refuse_long_line(out, &line, MAX_HEAD_BYTES, ctx),
            LineRead::Eof | LineRead::Shutdown | LineRead::Failed => return,
        }
    }
}

/// One rendered HTTP response, pre-serialization.
struct HttpResponse {
    code: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    retry_after: bool,
}

impl HttpResponse {
    fn json(code: u16, reason: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            code,
            reason,
            content_type: "application/json",
            body,
            retry_after: false,
        }
    }
}

/// Routes one HTTP request, emitting the access record and RED metric.
/// Returns the response and whether the server is shutting down.
fn http_dispatch(head: &HttpRequest, body: &[u8], ctx: &ServeCtx) -> (HttpResponse, bool) {
    let request_id = ctx.next_id();
    let started = Instant::now();
    let mut span = ctx.tracer.span("serve.request");
    span.record("request_id", request_id);
    span.record(
        "kind",
        format!("http {} {}", head.method, head.path).as_str(),
    );
    let (response, cmd, status, stop) = match (head.method.as_str(), head.path.as_str()) {
        ("GET" | "HEAD", "/healthz") => {
            let mut o = JsonObject::new();
            o.field_bool("ok", true)
                .field_u64("request_id", request_id)
                .field_u64("generation", ctx.reader.generation());
            (
                HttpResponse::json(200, "OK", o.finish()),
                "healthz",
                RequestStatus::Ok,
                false,
            )
        }
        ("GET" | "HEAD", "/metrics") => (
            HttpResponse {
                code: 200,
                reason: "OK",
                content_type: "text/plain; version=0.0.4",
                body: crate::metrics_text(),
                retry_after: false,
            },
            "metrics",
            RequestStatus::Ok,
            false,
        ),
        ("POST", "/query") => {
            let (resp, status) = http_query(body, ctx, request_id);
            (resp, "query", status, false)
        }
        ("POST", "/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(ctx.addr);
            let mut o = JsonObject::new();
            o.field_bool("ok", true)
                .field_u64("request_id", request_id)
                .field_bool("shutting_down", true);
            (
                HttpResponse::json(200, "OK", o.finish()),
                "shutdown",
                RequestStatus::Ok,
                true,
            )
        }
        (_, "/query" | "/metrics" | "/healthz" | "/shutdown") => (
            HttpResponse::json(
                405,
                "Method Not Allowed",
                error_response(ctx, request_id, RequestStatus::Error, "method not allowed"),
            ),
            "bad-method",
            RequestStatus::Error,
            false,
        ),
        _ => (
            HttpResponse::json(
                404,
                "Not Found",
                error_response(
                    ctx,
                    request_id,
                    RequestStatus::Error,
                    "not found: try POST /query, GET /metrics, GET /healthz",
                ),
            ),
            "not-found",
            RequestStatus::Error,
            false,
        ),
    };
    ctx.log_access(request_id, "http", cmd, status, started);
    (response, stop)
}

/// `POST /query`: same body schema as the line protocol's `query`
/// command plus `timeout_ms`. Admission and deadline failures map to
/// distinct HTTP statuses (429 shed, 504 timeout).
fn http_query(body: &[u8], ctx: &ServeCtx, request_id: u64) -> (HttpResponse, RequestStatus) {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|s| JsonValue::parse(s.trim()));
    let request = match parsed {
        Ok(r) => r,
        Err(e) => {
            return (
                HttpResponse::json(
                    400,
                    "Bad Request",
                    error_response(
                        ctx,
                        request_id,
                        RequestStatus::Error,
                        &format!("bad request: {e}"),
                    ),
                ),
                RequestStatus::Error,
            )
        }
    };
    let Some(pattern) = request.get("query").and_then(JsonValue::as_str) else {
        return (
            HttpResponse::json(
                400,
                "Bad Request",
                error_response(
                    ctx,
                    request_id,
                    RequestStatus::Error,
                    "\"query\" must be a string",
                ),
            ),
            RequestStatus::Error,
        );
    };
    let Some(permit) = ctx.gate.try_acquire() else {
        ctx.errors.inc();
        let mut o = JsonObject::new();
        o.field_bool("ok", false)
            .field_u64("request_id", request_id)
            .field_str("status", "shed")
            .field_str("error", "server overloaded: concurrency limit reached");
        let mut resp = HttpResponse::json(429, "Too Many Requests", o.finish());
        resp.retry_after = true;
        return (resp, RequestStatus::Shed);
    };
    ctx.in_flight.add(1);
    let params = QueryParams::from_request(pattern, &request);
    let result = run_query(&params, ctx, request_id);
    ctx.in_flight.add(-1);
    drop(permit);
    match result {
        Ok(body) => (HttpResponse::json(200, "OK", body), RequestStatus::Ok),
        Err(e) => {
            let status = status_of_error(&e);
            let (code, reason) = match status {
                RequestStatus::Timeout => (504, "Gateway Timeout"),
                _ => (400, "Bad Request"),
            };
            (
                HttpResponse::json(
                    code,
                    reason,
                    error_response(ctx, request_id, status, &e.to_string()),
                ),
                status,
            )
        }
    }
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
