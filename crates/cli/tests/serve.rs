//! End-to-end test of `free serve`: spawn the real binary on an
//! ephemeral port, talk line-delimited JSON over TCP from several
//! concurrent clients, and verify graceful shutdown.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use free_trace::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Server {
    child: Child,
    addr: SocketAddr,
    // Keep the stdout pipe open for the server's lifetime: dropping it
    // would make the server's final status line hit a broken pipe.
    stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    /// Starts `free serve --port 0` on a fresh live dir and reads the
    /// announced address from the first line of stdout.
    fn start(dir: &std::path::Path) -> Server {
        Server::start_with(dir, &[])
    }

    /// Like [`Server::start`], with extra CLI flags appended.
    fn start_with(dir: &std::path::Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_free"))
            .args(["serve", "--port", "0", "--workers", "8", "--threads", "1"])
            .arg("--dir")
            .arg(dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn free serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .parse()
            .unwrap();
        Server {
            child,
            addr,
            stdout,
        }
    }

    /// One request, one parsed response, on a fresh connection.
    fn request(&self, body: &str) -> JsonValue {
        let mut s = TcpStream::connect(self.addr).unwrap();
        writeln!(s, "{body}").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "response must be one full line");
        JsonValue::parse(line.trim()).expect("response must be well-formed JSON")
    }
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// One HTTP/1.1 request on a fresh connection; returns (status code,
/// raw headers, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut BufReader::new(s), &mut response).unwrap();
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {response:?}"));
    (code, head.to_string(), payload.to_string())
}

/// POSTs a query, honoring 429 + Retry-After the way a real client
/// does: back off briefly and resend until admitted (bounded retries).
fn http_retry(addr: SocketAddr, body: &str) -> (u16, String, String) {
    for _ in 0..200 {
        let (code, head, payload) = http(addr, "POST", "/query", body);
        if code != 429 {
            return (code, head, payload);
        }
        assert!(
            head.lines()
                .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
            "429 without Retry-After: {head}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("query never admitted after 200 retries: {body}");
}

/// Reads one counter value (optionally labeled) out of Prometheus text.
fn metric_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn serve_end_to_end() {
    let dir = std::env::temp_dir().join(format!("free-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(&dir);

    // Ingest over the wire.
    let added = server.request(r#"{"add":["needle alpha","plain hay","needle beta"]}"#);
    assert!(ok(&added), "{added:?}");
    let seqs = added.get("seqs").and_then(JsonValue::as_array).unwrap();
    assert_eq!(seqs.len(), 3);

    // Concurrent clients: every response is well-formed JSON and every
    // query sees a consistent snapshot (2 or fewer matches never occurs
    // before the delete below; exactly 2 here).
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..10 {
                    let found = server.request(r#"{"query":"needle","docs":true}"#);
                    assert!(ok(&found), "{found:?}");
                    assert_eq!(found.get("total").and_then(JsonValue::as_u64), Some(2));
                }
            });
        }
        scope.spawn(|| {
            // Writer commands interleave with the queries above; flush
            // reshapes the index without changing any result.
            assert!(ok(&server.request(r#"{"flush":true}"#)));
            assert!(ok(&server.request(r#"{"stats":true}"#)));
        });
    });

    // Several requests on ONE connection, then a delete drops the doc
    // from subsequent queries.
    {
        let mut s = TcpStream::connect(server.addr).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        for body in [
            r#"{"ping":true}"#,
            r#"{"delete":0}"#,
            r#"{"query":"needle"}"#,
        ] {
            writeln!(s, "{body}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let v = JsonValue::parse(line.trim()).unwrap();
            assert!(ok(&v), "{body} -> {line}");
        }
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(
            v.get("total").and_then(JsonValue::as_u64),
            Some(1),
            "post-delete query must drop the tombstoned doc: {line}"
        );
    }

    // A malformed line gets an error response, not a dropped connection.
    let bad = server.request("this is not json");
    assert_eq!(bad.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert!(bad.get("error").and_then(JsonValue::as_str).is_some());

    // Metrics are exposed over the wire, with the serve counters in them.
    let metrics = server.request(r#"{"metrics":true}"#);
    let text = metrics.get("metrics").and_then(JsonValue::as_str).unwrap();
    assert!(text.contains("free_serve_requests_total"), "{text}");
    assert!(text.contains("free_serve_queries_total"), "{text}");

    // Graceful shutdown: the server acknowledges, then the process
    // exits cleanly.
    let bye = server.request(r#"{"shutdown":true}"#);
    assert_eq!(
        bye.get("shutting_down").and_then(JsonValue::as_bool),
        Some(true)
    );
    let Server {
        mut child,
        mut stdout,
        ..
    } = server;
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("shutdown complete"), "{rest:?}");
    let status = child.wait().unwrap();
    assert!(status.success(), "server exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The production-service path end to end: HTTP front end, deadlines
/// that return structured timeouts while concurrent fast queries keep
/// succeeding, admission control shedding with 429 + Retry-After and
/// recovering, the snapshot-keyed cache hitting until a write
/// invalidates — all visible in /metrics and the qlog access records.
#[test]
fn production_service_end_to_end() {
    let root = std::env::temp_dir().join(format!("free-serve-prod-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let log_dir = root.join("qlog");
    let server = Server::start_with(
        &root.join("idx"),
        &[
            "--max-concurrent",
            "1",
            "--cache",
            "256",
            "--query-log",
            log_dir.to_str().unwrap(),
        ],
    );

    // Seed over the line protocol (both protocols share one port).
    let docs: Vec<String> = (0..50)
        .map(|i| format!("\"document {i} with needle grain\""))
        .collect();
    let added = server.request(&format!(r#"{{"add":[{}]}}"#, docs.join(",")));
    assert!(ok(&added), "{added:?}");

    // Liveness probe.
    let (code, _, body) = http(server.addr, "GET", "/healthz", "");
    assert_eq!(code, 200, "{body}");

    // A zero deadline expires before the first confirmation batch: a
    // structured timeout (504, status "timeout", no matches array) —
    // while concurrent queries without a deadline keep succeeding. The
    // 1-permit gate sheds colliding requests, so clients do what a real
    // client does with a 429: honor Retry-After and try again.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let (code, _, body) = http_retry(server.addr, r#"{"query":"grain"}"#);
                assert_eq!(code, 200, "fast query must succeed: {body}");
                let v = JsonValue::parse(body.trim()).unwrap();
                assert_eq!(v.get("total").and_then(JsonValue::as_u64), Some(50));
            });
        }
        scope.spawn(|| {
            let (code, _, body) =
                http_retry(server.addr, r#"{"query":"needle.grain","timeout_ms":0}"#);
            assert_eq!(code, 504, "{body}");
            let v = JsonValue::parse(body.trim()).unwrap();
            assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("timeout"));
            assert!(v.get("matches").is_none(), "no partial results: {body}");
        });
    });

    // Saturation: with --max-concurrent 1, volleys of simultaneous
    // queries must shed some requests with 429 + Retry-After while at
    // least one query per volley is admitted and answered.
    let mut shed = 0usize;
    let mut served = 0usize;
    for round in 0..5 {
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let barrier = &barrier;
                    let addr = server.addr;
                    scope.spawn(move || {
                        barrier.wait();
                        // Unique patterns so volleys measure execution,
                        // not cache hits (either would hold the permit,
                        // but misses hold it longer).
                        let body = format!(r#"{{"query":"needle.gr{round}x{i}|grain"}}"#);
                        let (code, head, _) = http(addr, "POST", "/query", &body);
                        (code, head)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (code, head) in results {
            match code {
                200 => served += 1,
                429 => {
                    shed += 1;
                    assert!(
                        head.lines().any(|l| l.starts_with("Retry-After:")),
                        "429 must advertise Retry-After: {head}"
                    );
                }
                other => panic!("unexpected status {other}"),
            }
        }
    }
    assert!(served >= 5, "every volley admits at least one query");
    assert!(shed > 0, "8-way volleys against a 1-permit gate must shed");

    // Recovery: with the volleys done, a plain query is admitted again.
    let (code, _, body) = http(server.addr, "POST", "/query", r#"{"query":"grain"}"#);
    assert_eq!(code, 200, "post-overload recovery: {body}");

    // Cache: a repeated query hits (visible in the hit counter), and a
    // write publishes a new generation whose answer reflects the write.
    let (_, _, metrics) = http(server.addr, "GET", "/metrics", "");
    let hits_before = metric_value(&metrics, "free_qcache_hits_total");
    for _ in 0..2 {
        let (code, _, _) = http(server.addr, "POST", "/query", r#"{"query":"grain"}"#);
        assert_eq!(code, 200);
    }
    let (_, _, metrics) = http(server.addr, "GET", "/metrics", "");
    assert!(
        metric_value(&metrics, "free_qcache_hits_total") > hits_before,
        "repeated query must hit the cache: {metrics}"
    );
    assert!(ok(&server.request(r#"{"add":["one more needle grain"]}"#)));
    let (code, _, body) = http(server.addr, "POST", "/query", r#"{"query":"grain"}"#);
    assert_eq!(code, 200);
    let v = JsonValue::parse(body.trim()).unwrap();
    assert_eq!(
        v.get("total").and_then(JsonValue::as_u64),
        Some(51),
        "a write must invalidate the cached answer: {body}"
    );

    // Every outcome is on the RED series.
    let (_, _, metrics) = http(server.addr, "GET", "/metrics", "");
    for status in ["ok", "timeout", "shed"] {
        assert!(
            metric_value(
                &metrics,
                &format!("free_serve_requests_total{{status=\"{status}\"}}")
            ) > 0,
            "missing status={status} in: {metrics}"
        );
    }

    // Graceful shutdown, then the sealed qlog must carry status-tagged
    // access records for the sheds and timeouts too.
    let bye = server.request(r#"{"shutdown":true}"#);
    assert!(ok(&bye), "{bye:?}");
    let Server { mut child, .. } = server;
    assert!(child.wait().unwrap().success());

    let stats = Command::new(env!("CARGO_BIN_EXE_free"))
        .args(["log", log_dir.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&stats.stdout);
    assert!(
        report.contains("access records:"),
        "log --stats must break down accesses: {report}"
    );
    assert!(report.contains("shed"), "{report}");
    assert!(report.contains("timeout"), "{report}");
    let _ = std::fs::remove_dir_all(&root);
}

/// `free_live_segments` counts the sealed segments of every shard: after
/// a flush of a 4-shard index holding 3 documents, three shards hold one
/// segment each. The server is a process of its own, so the gauge is this
/// index's alone.
#[test]
fn live_segments_gauge_sums_every_shard() {
    let dir = std::env::temp_dir().join(format!("free-serve-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let created = Command::new(env!("CARGO_BIN_EXE_free"))
        .args(["create", "--shards", "4", "--dir"])
        .arg(&dir)
        .status()
        .unwrap();
    assert!(created.success());
    let server = Server::start(&dir);
    assert!(ok(
        &server.request(r#"{"add":["one doc","two doc","three doc"]}"#)
    ));
    assert!(ok(&server.request(r#"{"flush":true}"#)));
    let metrics = server.request(r#"{"metrics":true}"#);
    let text = metrics.get("metrics").and_then(JsonValue::as_str).unwrap();
    assert_eq!(metric_value(text, "free_live_segments "), 3, "{text}");
    assert!(ok(&server.request(r#"{"shutdown":true}"#)));
    let Server {
        mut child,
        mut stdout,
        ..
    } = server;
    std::io::Read::read_to_string(&mut stdout, &mut String::new()).unwrap();
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
