//! End-to-end tests driving the compiled `free` binary.

// Integration tests: unwraps in helper functions are assertions, the
// same as inside #[test] bodies (clippy.toml only exempts the latter).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::path::PathBuf;
use std::process::Command;

fn free() -> Command {
    Command::new(env!("CARGO_BIN_EXE_free"))
}

fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("freegrep-bin-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("src/main.rs"),
        b"fn main() {\n    let magic_token = 42;\n    println!(\"{magic_token}\");\n}\n",
    )
    .unwrap();
    std::fs::write(dir.join("src/lib.rs"), b"pub fn quiet() {}\n").unwrap();
    dir
}

/// A minimal JSON well-formedness checker (the workspace carries no JSON
/// parser dependency): validates one value and returns the rest of the
/// input. Enough to assert `--stats-json` / `--json` output is parseable.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let Some(first) = s.chars().next() else {
        return Err("unexpected end of input".into());
    };
    match first {
        '{' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Ok(r);
            }
            loop {
                rest = json_string_lit(rest)?.trim_start();
                rest = rest
                    .strip_prefix(':')
                    .ok_or_else(|| format!("expected ':' at {rest:.20?}"))?;
                rest = json_value(rest)?.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else {
                    return rest
                        .strip_prefix('}')
                        .ok_or_else(|| format!("expected '}}' at {rest:.20?}"));
                }
            }
        }
        '[' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Ok(r);
            }
            loop {
                rest = json_value(rest)?.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else {
                    return rest
                        .strip_prefix(']')
                        .ok_or_else(|| format!("expected ']' at {rest:.20?}"));
                }
            }
        }
        '"' => json_string_lit(s),
        _ => {
            for lit in ["true", "false", "null"] {
                if let Some(r) = s.strip_prefix(lit) {
                    return Ok(r);
                }
            }
            let end = s
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(s.len());
            if end == 0 {
                return Err(format!("unexpected character at {s:.20?}"));
            }
            s[..end]
                .parse::<f64>()
                .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
            Ok(&s[end..])
        }
    }
}

fn json_string_lit(s: &str) -> Result<&str, String> {
    let mut chars = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected string at {s:.20?}"))?
        .char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => {
                chars.next();
            }
            '"' => return Ok(&s[i + 2..]),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

/// Asserts `s` is exactly one well-formed JSON value.
fn assert_json(s: &str) {
    match json_value(s) {
        Ok(rest) => assert!(rest.trim().is_empty(), "trailing garbage: {rest:.40?}"),
        Err(e) => panic!("invalid JSON ({e}): {s}"),
    }
}

#[test]
fn index_then_search() {
    let dir = setup("search");
    let index_dir = dir.join("idx");
    let out = free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("indexed 2 files"));

    let out = free()
        .args(["search", "--index"])
        .arg(&index_dir)
        .arg(r"magic_\a+ = \d+")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("main.rs:2:"), "{stdout}");
    assert!(stdout.contains("1 match(es)"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn search_threads_flag_gives_identical_output() {
    let dir = setup("threads");
    let index_dir = dir.join("idx");
    // A few extra files so the parallel path has real fan-out.
    for i in 0..20 {
        std::fs::write(
            dir.join(format!("src/extra{i}.rs")),
            format!("// filler {i}\nfn magic_token_{i}() {{}}\n"),
        )
        .unwrap();
    }
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    let run = |threads: &str| {
        let out = free()
            .args(["search", "--index"])
            .arg(&index_dir)
            .args(["--threads", threads, "magic_token"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let one = run("1");
    assert!(one.contains("match(es)"), "{one}");
    assert_eq!(run("4"), one, "thread count must not change output");
    assert_eq!(run("0"), one, "auto thread count must not change output");

    // The flag is in --help.
    let out = free().arg("--help").output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("--threads N"));

    // A malformed value is rejected cleanly.
    let out = free()
        .args(["search", "--index"])
        .arg(&index_dir)
        .args(["--threads", "lots", "magic_token"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_and_stats() {
    let dir = setup("explain");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    let out = free()
        .args(["explain", "--index"])
        .arg(&index_dir)
        .arg("magic_token")
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("physical:"));
    let out = free()
        .args(["stats", "--index"])
        .arg(&index_dir)
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("files indexed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn build_verbose_and_stats_json() {
    let dir = setup("buildjson");
    let index_dir = dir.join("idx");
    // `build` is an alias of `index`; --verbose streams per-pass mining
    // progress to stderr; --stats-json replaces the summary with JSON.
    let out = free()
        .args(["build", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9", "--verbose", "--stats-json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pass 1:"), "{stderr}");
    assert!(stderr.contains("considered"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(stdout.trim());
    assert!(stdout.contains("\"passes\":["), "{stdout}");
    assert!(stdout.contains("\"num_keys\":"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn search_stats_json_is_parseable() {
    let dir = setup("searchjson");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    let out = free()
        .args(["search", "--index"])
        .arg(&index_dir)
        .args(["--files-only", "--stats-json", "magic_token"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.lines().last().unwrap();
    assert_json(json);
    assert!(json.contains("\"matching_docs\":1"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_analyze_text_and_json() {
    let dir = setup("expanalyze");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    let out = free()
        .args(["explain", "--index"])
        .arg(&index_dir)
        .args(["--analyze", "magic_token"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("est ~"), "{text}");
    assert!(text.contains("actual"), "{text}");
    let out = free()
        .args(["explain", "--index"])
        .arg(&index_dir)
        .args(["--analyze", "--json", "magic_token"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(stdout.trim());
    assert!(stdout.contains("\"actual_docs\":"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_dump_is_prometheus_text() {
    let dir = setup("metricsdump");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    // With a pattern the command runs one query first, so the registry
    // has query-path metrics to show.
    let out = free()
        .args(["metrics", "--index"])
        .arg(&index_dir)
        .arg("magic_token")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# TYPE free_queries_total counter"), "{text}");
    assert!(text.contains("free_queries_total 1"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    // Bare `metrics` (fresh process, nothing recorded) still succeeds.
    let out = free().arg("metrics").output().unwrap();
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_pattern_fails_cleanly() {
    let dir = setup("badpat");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());
    let out = free()
        .args(["search", "--index"])
        .arg(&index_dir)
        .arg("(unclosed")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("freegrep:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_index_is_an_error() {
    let out = free()
        .args(["search", "--index", "/nonexistent/fg", "pattern"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = free().arg("--help").output().unwrap();
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("usage:"), "{usage}");
    assert!(usage.contains("analyze [--index DIR] [--json]"), "{usage}");
    assert!(
        usage.contains("--c C is the usefulness threshold"),
        "{usage}"
    );
}

#[test]
fn analyze_indexable_pattern_is_quiet() {
    let out = free().args(["analyze", "Clinton"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("note[FA201]"), "{stdout}");
    assert!(stdout.contains("class: INDEXED"), "{stdout}");
    assert!(stdout.contains("plan: \"Clinton\""), "{stdout}");
    assert!(!stdout.contains("warning["), "{stdout}");
}

#[test]
fn analyze_reports_null_plan_with_stable_code() {
    let out = free().args(["analyze", "a*"]).output().unwrap();
    // Pathological but legal: exit 0, with warnings in the report.
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[FA001]"), "{stdout}");
    assert!(stdout.contains("warning[FA203]"), "{stdout}");
    assert!(stdout.contains("plan: NULL"), "{stdout}");
    assert!(stdout.contains("class: SCAN"), "{stdout}");
    // The caret line points at the whole pattern.
    assert!(stdout.contains("\n  a*\n  ^^\n"), "{stdout}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let out = free().args(["analyze", "--json", "a*"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with('{') && stdout.trim_end().ends_with('}'),
        "{stdout}"
    );
    assert!(stdout.contains("\"pattern\":\"a*\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"FA001\""), "{stdout}");
    assert!(stdout.contains("\"class\":\"SCAN\""), "{stdout}");
    assert!(
        stdout.contains("\"span\":{\"start\":0,\"end\":2}"),
        "{stdout}"
    );
}

#[test]
fn analyze_parse_error_exits_nonzero_with_diagnostic() {
    let out = free().args(["analyze", "(unclosed"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[FA000]"), "{stdout}");
    assert!(stdout.contains("unclosed group"), "{stdout}");
    // JSON mode carries the same code.
    let out = free()
        .args(["analyze", "--json", "(unclosed"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"code\":\"FA000\""), "{stdout}");
    assert!(stdout.contains("\"plan\":null"), "{stdout}");
}

#[test]
fn analyze_via_freegrep_name_too() {
    let out = free().args(["analyze", "a*"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("FA001"));
}

/// The full live-index CLI cycle: add → search → delete → compact →
/// search, asserting the result set tracks every mutation.
#[test]
fn live_cycle_add_search_delete_compact() {
    let dir = setup("live-cycle");
    let live_dir = dir.join("live");
    std::fs::write(dir.join("a.txt"), b"the quick brown fox\n").unwrap();
    std::fs::write(dir.join("b.txt"), b"jumps over the lazy dog\n").unwrap();
    std::fs::write(dir.join("c.txt"), b"quick quartz quick wizards\n").unwrap();

    let out = free()
        .args(["add", "--dir"])
        .arg(&live_dir)
        .args([dir.join("a.txt"), dir.join("b.txt"), dir.join("c.txt")])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("as doc 0"), "{stdout}");
    assert!(stdout.contains("as doc 2"), "{stdout}");
    assert!(stdout.contains("3 live doc(s)"), "{stdout}");

    let search = |pattern: &str| {
        let out = free()
            .args(["search", "--live"])
            .arg(&live_dir)
            .arg(pattern)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let stdout = search("quick");
    assert!(stdout.contains("doc 0: 1 match(es)"), "{stdout}");
    assert!(stdout.contains("doc 2: 2 match(es)"), "{stdout}");
    assert!(stdout.contains("2 matching doc(s) of 3 live"), "{stdout}");

    let out = free()
        .args(["delete", "--dir"])
        .arg(&live_dir)
        .arg("0")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("deleted doc 0"));

    let stdout = search("quick");
    assert!(!stdout.contains("doc 0:"), "{stdout}");
    assert!(stdout.contains("doc 2: 2 match(es)"), "{stdout}");

    let out = free()
        .args(["compact", "--dir"])
        .arg(&live_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compacted"), "{stdout}");
    assert!(stdout.contains("2 live doc(s)"), "{stdout}");

    // Sequence numbers survive compaction; the deleted doc stays gone.
    let stdout = search("quick");
    assert!(stdout.contains("doc 2: 2 match(es)"), "{stdout}");
    assert!(stdout.contains("1 matching doc(s) of 2 live"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_segments_json_is_parseable() {
    let dir = setup("live-segments");
    let live_dir = dir.join("live");
    std::fs::write(dir.join("a.txt"), b"alpha beta gamma\n").unwrap();
    let out = free()
        .args(["add", "--dir"])
        .arg(&live_dir)
        .arg(dir.join("a.txt"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = free()
        .args(["segments", "--dir"])
        .arg(&live_dir)
        .arg("--json")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(&stdout);
    assert!(stdout.contains("\"stats\":{"), "{stdout}");
    assert!(stdout.contains("\"diagnostics\":["), "{stdout}");

    // Human rendering works too.
    let out = free()
        .args(["segments", "--dir"])
        .arg(&live_dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("write buffer"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file under `root` with its bytes, sorted by path.
fn tree(root: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    fn walk(dir: &std::path::Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

/// A directory of the N-shard layout: `sharded.manifest` over two
/// `shard-<s>/` live directories, as earlier versions wrote it.
fn sharded_layout(dir: &std::path::Path) -> PathBuf {
    let root = dir.join("sharded");
    for s in 0..2 {
        let shard = root.join(format!("shard-{s}"));
        let out = free()
            .args(["add", "--dir"])
            .arg(&shard)
            .arg(dir.join("src/main.rs"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::write(root.join("sharded.manifest"), "FREESHRD 1 0\nshards=2\n").unwrap();
    root
}

/// A second `free create` over an existing live directory is refused,
/// and so is one over a directory of the sharded layout; neither writes
/// a byte.
#[test]
fn create_refuses_a_second_layout() {
    let dir = setup("double-create");
    let live_dir = dir.join("live");
    let sharded = sharded_layout(&dir);
    let create = |at: &std::path::Path| free().args(["create", "--dir"]).arg(at).output().unwrap();
    let out = create(&live_dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (existing, why) in [
        (&live_dir, "already exists"),
        (&sharded, "sharded.manifest"),
    ] {
        let before = tree(existing);
        let out = create(existing);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{existing:?}: second create must fail"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{stderr}");
        assert_eq!(
            tree(existing),
            before,
            "{existing:?}: refused create wrote files"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every verb refuses a directory of the sharded layout with an error
/// naming its `sharded.manifest` (`serve` before it listens), `fsck`
/// reports it as one `FA401` error and exits 1, and not a byte under the
/// directory changes.
#[test]
fn a_sharded_directory_is_refused_untouched() {
    let dir = setup("sharded-refusal");
    let sharded = sharded_layout(&dir);
    let before = tree(&sharded);
    let doc = dir.join("src/lib.rs");
    let refusals: [&[&str]; 6] = [
        &["add", "--dir"],
        &["delete", "--dir"],
        &["compact", "--dir"],
        &["segments", "--dir"],
        &["search", "quiet", "--live"],
        &["serve", "--port", "0", "--dir"],
    ];
    for args in refusals {
        let mut cmd = free();
        cmd.args(args).arg(&sharded);
        match args[0] {
            "add" => cmd.arg(&doc),
            "delete" => cmd.arg("0"),
            _ => &mut cmd,
        };
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("sharded.manifest"), "{args:?}: {stderr}");
        assert_eq!(tree(&sharded), before, "{args:?} changed the directory");
    }
    let out = free()
        .args(["fsck", "--json"])
        .arg(&sharded)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\"code\":").count(), 1, "{stdout}");
    assert!(stdout.contains("\"code\":\"FA401\""), "{stdout}");
    assert!(stdout.contains("sharded.manifest"), "{stdout}");
    assert_eq!(tree(&sharded), before, "fsck changed the directory");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn build_refuses_overwrite_without_force() {
    let dir = setup("force");
    let index_dir = dir.join("idx");
    let build = |extra: &[&str]| {
        let mut cmd = free();
        cmd.args(["index", "--out"])
            .arg(&index_dir)
            .args(["--ext", "rs", "--c", "0.9"]);
        cmd.args(extra);
        cmd.arg(&dir).output().unwrap()
    };
    assert!(build(&[]).status.success());
    let out = build(&[]);
    assert_eq!(out.status.code(), Some(2), "rebuild must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--force"), "{stderr}");
    let out = build(&["--force"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--c` must satisfy 0 < c <= 1: anything else is a usage error (exit 2)
/// refused before `--out` is created. At `c = 0` no gram is useful, so the
/// index would hold no key and every query would scan.
#[test]
fn degenerate_c_is_a_usage_error_that_writes_nothing() {
    let dir = setup("bad-c");
    let index_dir = dir.join("idx");
    for c in ["0", "1.5", "abc"] {
        let out = free()
            .args(["build", "--out"])
            .arg(&index_dir)
            .args(["--ext", "rs", "--c", c])
            .arg(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--c {c}: {stderr}");
        assert!(
            stderr.contains("usefulness threshold") || stderr.contains("--c"),
            "--c {c}: {stderr}"
        );
        assert!(
            !index_dir.exists(),
            "--c {c} created {}",
            index_dir.display()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch index whose manifest still names a key selector (a line older
/// builds wrote) opens, answers and verifies exactly as without it: every
/// manifest reader ignores keys it does not know.
#[test]
fn a_manifest_selector_line_is_ignored() {
    let dir = setup("old-selector");
    let index_dir = dir.join("idx");
    let out = free()
        .args(["build", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let search = || {
        let out = free()
            .args(["search", "--files-only", "--index"])
            .arg(&index_dir)
            .arg(r"magic_\w+|quiet")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let before = search();
    assert!(
        before.contains("main.rs") && before.contains("lib.rs"),
        "{before}"
    );

    let manifest = index_dir.join("manifest.txt");
    let mut text = std::fs::read_to_string(&manifest).unwrap();
    text.push_str("selector=trigram:k=3\n");
    std::fs::write(&manifest, text).unwrap();

    assert_eq!(search(), before);
    let out = free()
        .args(["fsck", "--deep"])
        .arg(&index_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("no integrity errors"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `free fsck` over a fresh batch index: clean, deep-clean, and one
/// flipped byte detected with a structured FA4xx finding and exit 1.
#[test]
fn fsck_batch_index_clean_and_corrupted() {
    let dir = setup("fsck-batch");
    let index_dir = dir.join("idx");
    assert!(free()
        .args(["index", "--out"])
        .arg(&index_dir)
        .args(["--ext", "rs", "--c", "0.9"])
        .arg(&dir)
        .status()
        .unwrap()
        .success());

    // A freshly built index verifies clean, even with --deep.
    let out = free()
        .args(["fsck", "--deep", "--json"])
        .arg(&index_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(stdout.trim());
    assert!(stdout.contains("\"kind\":\"batch\""), "{stdout}");
    assert!(stdout.contains("\"errors\":false"), "{stdout}");
    assert!(stdout.contains("\"diagnostics\":[]"), "{stdout}");

    // Flip one byte in the postings section: exit 1, FA4xx error finding.
    let idx_path = index_dir.join("idx.free");
    let mut bytes = std::fs::read(&idx_path).unwrap();
    let mid = bytes.len() - 40;
    bytes[mid] ^= 0x04;
    std::fs::write(&idx_path, &bytes).unwrap();
    let out = free()
        .args(["fsck", "--json"])
        .arg(&index_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(stdout.trim());
    assert!(stdout.contains("\"errors\":true"), "{stdout}");
    assert!(stdout.contains("\"code\":\"FA4"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `free fsck` over a live index directory: clean after adds, and a
/// corrupted segment sequence map is flagged without repairing anything.
#[test]
fn fsck_live_directory() {
    let dir = setup("fsck-live");
    let live_dir = dir.join("live");
    std::fs::write(dir.join("a.txt"), b"the quick brown fox jumps\n").unwrap();
    std::fs::write(dir.join("b.txt"), b"pack my box with five dozen jugs\n").unwrap();
    assert!(free()
        .args(["add", "--dir"])
        .arg(&live_dir)
        .args([dir.join("a.txt"), dir.join("b.txt")])
        .status()
        .unwrap()
        .success());
    // Seal the buffer into a segment so fsck has on-disk artifacts.
    assert!(free()
        .args(["compact", "--dir"])
        .arg(&live_dir)
        .status()
        .unwrap()
        .success());

    let out = free()
        .args(["fsck", "--deep"])
        .arg(&live_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("ok: no integrity errors"), "{stdout}");

    // A tombstone append torn after its first digit is an error, not a
    // delete of whatever document that digit names.
    let log = live_dir.join("tombstones.log");
    let intact = std::fs::read(&log).unwrap();
    std::fs::write(&log, [&intact[..], b"1"].concat()).unwrap();
    let out = free().args(["fsck"]).arg(&live_dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[FA401]: tombstone log"), "{stdout}");
    std::fs::write(&log, &intact).unwrap();

    // Damage a segment's sequence map; fsck must flag it, not fix it.
    let seg_dir = live_dir.join("segments");
    let seqs = std::fs::read_dir(&seg_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "seqs"))
        .expect("a sealed segment with a .seqs file");
    let mut bytes = std::fs::read(&seqs).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&seqs, &bytes).unwrap();
    let before = std::fs::read(&seqs).unwrap();

    let out = free()
        .args(["fsck", "--json"])
        .arg(&live_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_json(stdout.trim());
    assert!(stdout.contains("\"kind\":\"live\""), "{stdout}");
    assert!(stdout.contains("\"errors\":true"), "{stdout}");
    assert_eq!(
        std::fs::read(&seqs).unwrap(),
        before,
        "fsck must never mutate the index"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `FREELIVE 2` manifest (one key set per segment) is another format:
/// fsck reports FA401 and exits non-zero, and search refuses to open it.
#[test]
fn fsck_refuses_a_freelive_2_directory() {
    let dir = setup("fsck-freelive-2");
    let live_dir = dir.join("live");
    std::fs::write(dir.join("a.txt"), b"the quick brown fox jumps\n").unwrap();
    for verb in ["add", "compact"] {
        let mut cmd = free();
        cmd.args([verb, "--dir"]).arg(&live_dir);
        if verb == "add" {
            cmd.arg(dir.join("a.txt"));
        }
        assert!(cmd.status().unwrap().success(), "{verb}");
    }
    let manifest = live_dir.join("live.manifest");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replacen("FREELIVE 3 ", "FREELIVE 2 ", 1)).unwrap();

    let out = free()
        .args(["fsck", "--json"])
        .arg(&live_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\"code\":\"FA401\""), "{stdout}");
    assert!(stdout.contains("unsupported format, rebuild"), "{stdout}");
    let out = free()
        .args(["search", "--live"])
        .arg(&live_dir)
        .arg("quick")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A garbled `wal.epoch` over buffered documents: fsck reports that open
/// refuses, and a search does refuse, leaving the WAL byte for byte as
/// it was instead of discarding acknowledged documents.
#[test]
fn a_garbled_wal_epoch_keeps_buffered_docs() {
    let dir = setup("garbled-epoch");
    let live_dir = dir.join("live");
    std::fs::write(dir.join("a.txt"), b"the quick brown fox jumps\n").unwrap();
    std::fs::write(dir.join("b.txt"), b"the lazy dog sleeps\n").unwrap();
    for verb in ["add", "compact", "add"] {
        let mut cmd = free();
        cmd.args([verb, "--dir"]).arg(&live_dir);
        if verb == "add" {
            cmd.arg(dir.join("a.txt")).arg(dir.join("b.txt"));
        }
        assert!(cmd.status().unwrap().success(), "{verb}");
    }
    std::fs::write(live_dir.join("wal.epoch"), "x\n").unwrap();
    let wal = |name: &str| std::fs::read(live_dir.join("wal").join(name)).unwrap();
    let before = (wal("corpus.dat"), wal("corpus.idx"));

    let out = free().args(["fsck"]).arg(&live_dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("open refuses the directory while the WAL holds 2 buffered doc(s)"),
        "{stdout}"
    );
    let out = free()
        .args(["search", "--live"])
        .arg(&live_dir)
        .arg("quick")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!((wal("corpus.dat"), wal("corpus.idx")), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `free fsck --deep --json` on every state a crash inside a flush can
/// leave, before and after the open a search makes. The segment's store
/// still at `wal/` is one FA422 warning (the open completes the flush),
/// not FA420 errors. The cuts after the rename leave a stale stamp over
/// no WAL or an empty one, which discards nothing: one FA422 warning
/// each, as the open starts an empty WAL. After the open every
/// directory is clean: a segment store holding documents the tombstone
/// log marks deleted is valid.
#[test]
fn fsck_reads_a_cut_flush_and_the_open_completes_it() {
    use free_live::{LiveConfig, LiveIndex};
    let fsck = |dir: &std::path::Path| {
        let out = free()
            .args(["fsck", "--deep", "--json"])
            .arg(dir)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        (out.status.code(), stdout)
    };
    let cuts: [(&str, Option<i32>, &[&str]); 4] = [
        ("unrenamed", Some(0), &["FA422 warning"]),
        ("unrenamed-garbled", Some(0), &["FA422 warning"]),
        ("no-fresh-wal", Some(0), &["FA422 warning"]),
        ("fresh-wal-old-stamp", Some(0), &["FA422 warning"]),
    ];
    for (cut, code, want) in cuts {
        let dir = setup(&format!("cut-flush-{cut}"));
        let live_dir = dir.join("live");
        let docs: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "record {i} of the ledger holds item{} and lot{}",
                    i % 7,
                    i % 3
                )
            })
            .collect();
        let mut live = LiveIndex::create(&live_dir, LiveConfig::default()).unwrap();
        live.add_batch(&docs[..20]).unwrap();
        live.flush().unwrap();
        live.add_batch(&docs[20..]).unwrap();
        for seq in [3, 25, 31] {
            live.delete(seq).unwrap();
        }
        let stamp = live_dir.join("wal.epoch");
        let old_stamp = std::fs::read_to_string(&stamp).unwrap();
        live.flush().unwrap();
        drop(live);
        let (wal, store) = (live_dir.join("wal"), live_dir.join("segments/seg-1.corpus"));
        match cut {
            "unrenamed" | "unrenamed-garbled" => {
                std::fs::remove_dir_all(&wal).unwrap();
                std::fs::rename(&store, &wal).unwrap();
            }
            "no-fresh-wal" => std::fs::remove_dir_all(&wal).unwrap(),
            _ => {}
        }
        let garbled = cut == "unrenamed-garbled";
        std::fs::write(&stamp, if garbled { "x\n" } else { &old_stamp }).unwrap();

        let (status, json) = fsck(&live_dir);
        assert!(json_value(&json).is_ok(), "{json}");
        assert_eq!(status, code, "{cut}: {json}");
        assert_eq!(
            json.matches("\"code\":").count(),
            want.len(),
            "{cut}: {json}"
        );
        for finding in want {
            let (code, severity) = finding.split_once(' ').unwrap();
            let shape = format!("{{\"code\":\"{code}\",\"severity\":\"{severity}\"");
            assert!(json.contains(&shape), "{cut}: {json}");
        }
        if cut.starts_with("unrenamed") {
            assert!(json.contains("the next open completes it"), "{json}");
        } else {
            assert!(json.contains("the next open starts an empty WAL"), "{json}");
        }

        let out = free()
            .args(["search", "--live"])
            .arg(&live_dir)
            .arg("item3")
            .output()
            .unwrap();
        assert!(out.status.success(), "{cut}");
        let found = String::from_utf8(out.stdout).unwrap();
        // Records 3, 10, 17, 24, 31 and 38 hold item3; 3 and 31 are
        // deleted.
        assert!(
            found.contains("4 matching doc(s) of 37 live"),
            "{cut}: {found}"
        );
        let (status, json) = fsck(&live_dir);
        assert_eq!(status, Some(0), "{cut}: {json}");
        assert!(json.contains("\"diagnostics\":[]"), "{cut}: {json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `free fsck` with no PATH checks ./.freelive; a missing target is a
/// usage-style failure (exit 2), not a crash.
#[test]
fn fsck_missing_target_exits_two() {
    let out = free()
        .args(["fsck", "/nonexistent/free-fsck-target"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("freegrep:"));
}
