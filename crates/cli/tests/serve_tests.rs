//! In-process integration tests for `bfhrf index` / `bfhrf serve` /
//! `bfhrf query`: a real TCP server on a loopback port, driven both
//! through raw sockets and through the `query` subcommand.

use bfhrf_cli::server::{ServeConfig, Server};
use bfhrf_cli::{json, run_full, EXIT_BUDGET, EXIT_OK};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

const REFS: &str = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n";
const QUERIES: &str = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));\n";
const EXTRA: &str = "((A,B),((C,E),(D,F)));\n";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfhrf-serve-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p.to_str().unwrap().to_string()
}

fn runv(parts: &[&str]) -> Result<bfhrf_cli::CmdOutcome, bfhrf_cli::CliError> {
    run_full(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// Build an index directory from `refs` and return its path.
fn build_index(dir: &std::path::Path, refs: &str) -> String {
    let refs_path = write(dir, "refs.nwk", refs);
    let index_dir = dir.join("index");
    let out = runv(&[
        "index",
        "build",
        "--refs",
        &refs_path,
        "--out",
        index_dir.to_str().unwrap(),
    ])
    .unwrap();
    assert_eq!(out.code, EXIT_OK);
    assert!(out.stdout.contains("generation\t0"), "{}", out.stdout);
    index_dir.to_str().unwrap().to_string()
}

/// Start a server over `index_dir` on a free loopback port; returns the
/// address and the join handle for `run()`.
fn start_server(
    index_dir: &str,
    timeout_ms: Option<u64>,
) -> (String, std::thread::JoinHandle<u64>) {
    let srv = Server::bind(&ServeConfig {
        index_dir: PathBuf::from(index_dir),
        addr: "127.0.0.1:0".into(),
        threads: 3,
        mem_budget: None,
        timeout_ms,
        catalog_dir: None,
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    let handle = std::thread::spawn(move || srv.run().unwrap());
    (addr, handle)
}

/// Start a catalog-hosting server: default index from `index_dir`, named
/// collections out of `catalog_dir`, all under `mem_budget` bytes.
fn start_catalog_server(
    index_dir: &str,
    catalog_dir: &str,
    mem_budget: Option<usize>,
) -> (String, std::thread::JoinHandle<u64>) {
    let srv = Server::bind(&ServeConfig {
        index_dir: PathBuf::from(index_dir),
        addr: "127.0.0.1:0".into(),
        threads: 4,
        mem_budget,
        timeout_ms: None,
        catalog_dir: Some(PathBuf::from(catalog_dir)),
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    let handle = std::thread::spawn(move || srv.run().unwrap());
    (addr, handle)
}

fn raw_request(addr: &str, request: &str) -> json::Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    json::parse(line.trim()).unwrap()
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<u64>) -> u64 {
    let resp = raw_request(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    handle.join().unwrap()
}

/// The acceptance round trip: a served `avgrf` answer must be
/// byte-identical to the offline `bfhrf avgrf` report on the same data.
#[test]
fn served_avgrf_matches_offline() {
    let dir = scratch("match");
    let refs_path = write(&dir, "refs.nwk", REFS);
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let offline = runv(&["avgrf", "--refs", &refs_path, "--queries", &queries_path]).unwrap();
    let served = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    assert_eq!(served.code, EXIT_OK);
    assert_eq!(served.stdout, offline.stdout);

    // The flag variants agree too.
    for flag in ["--normalized", "--halved"] {
        let offline = runv(&[
            "avgrf",
            "--refs",
            &refs_path,
            "--queries",
            &queries_path,
            flag,
        ])
        .unwrap();
        let served = runv(&["query", "--addr", &addr, "--queries", &queries_path, flag]).unwrap();
        assert_eq!(served.stdout, offline.stdout, "with {flag}");
    }

    // best-query matches the offline `best` subcommand.
    let offline = runv(&["best", "--refs", &refs_path, "--queries", &queries_path]).unwrap();
    let served = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "best-query",
        "--queries",
        &queries_path,
    ])
    .unwrap();
    assert_eq!(served.stdout, offline.stdout);

    let served_total = shutdown(&addr, handle);
    assert!(served_total >= 5, "served {served_total}");
}

/// Admin ops over the wire: add/remove/compact mutate the served hash and
/// persist across a server restart.
#[test]
fn admin_ops_mutate_and_persist() {
    let dir = scratch("admin");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let before = raw_request(&addr, r#"{"op":"stats"}"#);
    assert_eq!(before.get("n_trees").unwrap().as_u64(), Some(3));
    assert_eq!(before.get("generation").unwrap().as_u64(), Some(0));

    // Add a tree over the wire; stats and answers change immediately.
    let add = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert!(add.stdout.contains("applied\t1"), "{}", add.stdout);
    assert!(add.stdout.contains("n_trees\t4"), "{}", add.stdout);
    let stats = raw_request(&addr, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("n_trees").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("wal_pending").unwrap().as_u64(), Some(1));

    // The served answer now reflects 4 reference trees.
    let served = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    let offline_refs = write(&dir, "refs4.nwk", &format!("{REFS}{EXTRA}"));
    let offline = runv(&["avgrf", "--refs", &offline_refs, "--queries", &queries_path]).unwrap();
    assert_eq!(served.stdout, offline.stdout);

    // Remove it again, then compact: generation bumps, WAL drains.
    let rm = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "remove",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert!(rm.stdout.contains("n_trees\t3"), "{}", rm.stdout);
    let compacted = runv(&["query", "--addr", &addr, "--op", "compact"]).unwrap();
    assert!(
        compacted.stdout.contains("generation\t1"),
        "{}",
        compacted.stdout
    );
    let stats = runv(&["query", "--addr", &addr, "--op", "stats"]).unwrap();
    assert!(stats.stdout.contains("wal_pending\t0"), "{}", stats.stdout);

    shutdown(&addr, handle);

    // Restart over the same directory: the compacted state survived.
    let (addr, handle) = start_server(&index_dir, None);
    let stats = raw_request(&addr, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("generation").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("n_trees").unwrap().as_u64(), Some(3));
    shutdown(&addr, handle);
}

/// Malformed requests are answered (not dropped), the connection stays
/// usable, and removing an unknown tree fails without mutating anything.
#[test]
fn protocol_errors_are_answered_and_recoverable() {
    let dir = scratch("errors");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |req: &str| -> json::Json {
        stream.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        json::parse(line.trim()).unwrap()
    };

    for bad in [
        "this is not json",
        r#"{"no_op":1}"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"avgrf"}"#,
        r#"{"op":"avgrf","queries":[42]}"#,
        r#"{"op":"avgrf","queries":["((A,Zed),B);"]}"#,
        r#"{"op":"remove","trees":["((A,B),((C,E),(D,F)));"]}"#,
    ] {
        let resp = ask(bad);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        assert!(resp.get("error").unwrap().as_str().is_some(), "{bad}");
    }
    // Same connection still answers good requests.
    let resp = ask(r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("n_trees").unwrap().as_u64(), Some(3));
    // Shut down while the connection is still open: the polling read loop
    // must notice the flag instead of blocking until the idle timeout.
    shutdown(&addr, handle);
    drop(reader);
    drop(stream);
}

/// Per-request budgets surface as the protocol's `budget` code, which the
/// query client maps to exit code 3 — and the server keeps serving. A
/// zero-millisecond deadline means every scoring request is already over
/// budget when its guard is armed.
#[test]
fn budget_refusal_is_exit_3_and_recoverable() {
    let dir = scratch("budget");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, Some(0));

    let err = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap_err();
    assert_eq!(err.code, EXIT_BUDGET, "{}", err.message);
    assert!(err.message.contains("server:"), "{}", err.message);

    // stats carries no per-request guard, so the daemon still answers.
    let stats = runv(&["query", "--addr", &addr, "--op", "stats"]).unwrap();
    assert!(stats.stdout.contains("n_trees\t3"), "{}", stats.stdout);
    shutdown(&addr, handle);
}

/// Concurrent clients hammering avgrf all get byte-identical answers.
/// With 8 clients against 3 connection slots some connections get shed
/// with a typed `busy` frame; `--retries` absorbs the sheds, so every
/// client still converges on the same bytes.
#[test]
fn concurrent_queries_agree() {
    let dir = scratch("concurrent");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let want = runv(&["query", "--addr", &addr, "--queries", &queries_path])
        .unwrap()
        .stdout;
    let answers: Vec<String> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let addr = addr.clone();
                let queries_path = queries_path.clone();
                scope.spawn(move || {
                    (0..5)
                        .map(|_| {
                            runv(&[
                                "query",
                                "--addr",
                                &addr,
                                "--queries",
                                &queries_path,
                                "--retries",
                                "20",
                                "--backoff-ms",
                                "10",
                            ])
                            .unwrap()
                            .stdout
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(answers.len(), 40);
    for a in &answers {
        assert_eq!(a, &want);
    }
    let served = shutdown(&addr, handle);
    assert!(served >= 41, "served {served}");
}

/// `serve --port-file` + `query --port-file` close the loop without the
/// caller ever knowing the port; `index inspect` reads the same state.
#[test]
fn port_file_and_inspect() {
    let dir = scratch("portfile");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);

    let inspect = runv(&["index", "inspect", "--index", &index_dir, "--check"]).unwrap();
    assert!(inspect.stdout.contains("n_trees\t3"), "{}", inspect.stdout);
    assert!(inspect.stdout.contains("check\tok"), "{}", inspect.stdout);

    // Drive serve through the real subcommand in a thread; sync on the
    // port file like the CI smoke script does.
    let port_file = dir.join("port");
    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &index_dir,
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--port-file",
        port_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let handle = std::thread::spawn(move || run_full(&serve_args).unwrap());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !port_file.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "port file never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let out = runv(&[
        "query",
        "--port-file",
        port_file.to_str().unwrap(),
        "--queries",
        &queries_path,
    ])
    .unwrap();
    assert!(out.stdout.starts_with("query\tavg_rf\n"), "{}", out.stdout);

    let bye = runv(&[
        "query",
        "--port-file",
        port_file.to_str().unwrap(),
        "--op",
        "shutdown",
    ])
    .unwrap();
    assert_eq!(bye.stdout, "shutdown\tok\n");
    let outcome = handle.join().unwrap();
    assert!(outcome.stdout.starts_with("served\t"), "{}", outcome.stdout);
}

/// Find one exposition series by name and exact label set.
fn find_series<'a>(
    metrics: &'a json::Json,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a json::Json> {
    metrics.get("series")?.as_arr()?.iter().find(|s| {
        let n_labels = match s.get("labels") {
            Some(json::Json::Obj(pairs)) => pairs.len(),
            _ => return false,
        };
        s.get("name").and_then(|n| n.as_str()) == Some(name)
            && n_labels == labels.len()
            && labels.iter().all(|(k, v)| {
                s.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(|x| x.as_str())
                    == Some(*v)
            })
    })
}

/// The `stats` response carries a `metrics` payload of exposition JSON
/// that round-trips through the shared json module, holds the full
/// pre-registered series set (every op x outcome cell exists before any
/// request of that kind arrives), and keeps counting across a
/// snapshot-generation swap mid-stream.
///
/// The registry is process-global and tests share one binary, so every
/// numeric assertion is `>=` or a delta — parallel tests may also count.
#[test]
fn stats_metrics_schema_and_snapshot_swap() {
    let dir = scratch("metrics");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    for _ in 0..3 {
        runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    }
    let resp = raw_request(&addr, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    let metrics = resp.get("metrics").expect("stats carries metrics");

    // Round trip: exposition output is exactly what the parser reads back.
    assert_eq!(json::parse(&metrics.to_string()).unwrap(), *metrics);

    // Schema stability: every op x outcome cell pre-registered at bind.
    for op in [
        "hello",
        "avgrf",
        "best-query",
        "batch",
        "ping",
        "stats",
        "add",
        "remove",
        "compact",
        "xavgrf",
        "catalog-create",
        "catalog-drop",
        "catalog-list",
        "shutdown",
        "unknown",
    ] {
        for outcome in ["ok", "error", "budget", "cancelled", "busy"] {
            let s = find_series(
                metrics,
                "serve_requests_total",
                &[("op", op), ("outcome", outcome)],
            )
            .unwrap_or_else(|| panic!("missing series op={op} outcome={outcome}"));
            assert_eq!(s.get("kind").unwrap().as_str(), Some("counter"));
        }
    }

    // The burst above was counted and timed.
    let ok = find_series(
        metrics,
        "serve_requests_total",
        &[("op", "avgrf"), ("outcome", "ok")],
    )
    .unwrap();
    let ok_before = ok.get("value").unwrap().as_u64().unwrap();
    assert!(ok_before >= 3, "avgrf ok = {ok_before}");
    let lat = find_series(metrics, "serve_request_ns", &[("op", "avgrf")]).unwrap();
    assert_eq!(lat.get("kind").unwrap().as_str(), Some("histogram"));
    assert!(lat.get("count").unwrap().as_u64().unwrap() >= 3);
    for key in ["sum", "max", "mean", "p50", "p90", "p99"] {
        assert!(
            lat.get(key).unwrap().as_f64().unwrap() > 0.0,
            "{key} not positive"
        );
    }
    assert!(!lat.get("buckets").unwrap().as_arr().unwrap().is_empty());
    let swaps_before = find_series(metrics, "serve_snapshot_swaps_total", &[])
        .unwrap()
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();

    // Swap the snapshot generation mid-stream (add publishes a new Arc),
    // keep querying, and the same counters keep counting.
    runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    let resp = raw_request(&addr, r#"{"op":"stats"}"#);
    let metrics = resp.get("metrics").unwrap();
    assert_eq!(json::parse(&metrics.to_string()).unwrap(), *metrics);
    let swaps_after = find_series(metrics, "serve_snapshot_swaps_total", &[])
        .unwrap()
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        swaps_after > swaps_before,
        "{swaps_before} -> {swaps_after}"
    );
    let ok_after = find_series(
        metrics,
        "serve_requests_total",
        &[("op", "avgrf"), ("outcome", "ok")],
    )
    .unwrap()
    .get("value")
    .unwrap()
    .as_u64()
    .unwrap();
    assert!(ok_after > ok_before, "{ok_before} -> {ok_after}");
    let adds = find_series(metrics, "wal_appends_total", &[("op", "add")])
        .unwrap()
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(adds >= 1);

    // The human renderer exposes the same numbers without --json.
    let human = runv(&["stats", "--addr", &addr]).unwrap();
    assert!(
        human
            .stdout
            .contains("serve_requests_total{op=avgrf,outcome=ok}"),
        "{}",
        human.stdout
    );
    assert!(human.stdout.contains("serve_request_ns{op=avgrf}"));
    shutdown(&addr, handle);
}

/// A budget-refused request is visible in the metrics under its own
/// outcome label, and the client surfaces the server's outcome code.
#[test]
fn budget_outcome_is_counted_and_surfaced() {
    let dir = scratch("metrics-budget");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, Some(0));

    let err = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap_err();
    assert_eq!(err.code, EXIT_BUDGET);
    assert!(err.message.contains("server: ["), "{}", err.message);

    let resp = raw_request(&addr, r#"{"op":"stats"}"#);
    let metrics = resp.get("metrics").unwrap();
    let refused: u64 = ["budget", "cancelled"]
        .iter()
        .map(|outcome| {
            find_series(
                metrics,
                "serve_requests_total",
                &[("op", "avgrf"), ("outcome", outcome)],
            )
            .unwrap()
            .get("value")
            .unwrap()
            .as_u64()
            .unwrap()
        })
        .sum();
    assert!(refused >= 1, "no refused avgrf counted");
    shutdown(&addr, handle);
}

/// Shutdown must wake a worker blocked in `read` on an idle connection at
/// once. The socket read timeout is the 300 s idle window — without the
/// connection-registry interrupt the join below would hang for minutes,
/// not finish in moments.
#[test]
fn shutdown_interrupts_idle_connections_immediately() {
    let dir = scratch("serve-idle-shutdown");
    let index_dir = build_index(&dir, "((A,B),(C,D));\n((A,C),(B,D));\n");
    let (addr, handle) = start_server(&index_dir, None);

    // Park a connection that never sends a byte: a worker blocks reading it.
    let idle = TcpStream::connect(&addr).unwrap();
    // Let the worker reach the blocking read before shutdown fires.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let begin = std::time::Instant::now();
    shutdown(&addr, handle);
    assert!(
        begin.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?} with an idle connection parked",
        begin.elapsed()
    );
    drop(idle);
}

// ---------------------------------------------------------------------------
// Wire protocol v2: hello, batch, pipelining
// ---------------------------------------------------------------------------

/// A persistent raw connection with split read/write halves, for tests
/// that pipeline frames or deliver partial ones.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        RawConn { stream, reader }
    }

    fn send(&mut self, frame: &str) {
        self.stream
            .write_all(format!("{frame}\n").as_bytes())
            .unwrap();
    }

    fn recv(&mut self) -> json::Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        json::parse(line.trim()).unwrap()
    }
}

/// The v2 handshake answers the protocol version and batch ceiling, and
/// the same connection keeps serving v1 frames afterwards (dialects mix
/// freely on one connection).
#[test]
fn hello_handshake_reports_version_and_ceiling() {
    let dir = scratch("hello");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let mut conn = RawConn::open(&addr);
    conn.send(r#"{"v":2,"op":"hello"}"#);
    let resp = conn.recv();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("v").unwrap().as_u64(), Some(2));
    assert_eq!(
        resp.get("max_batch").unwrap().as_u64(),
        Some(bfhrf_cli::proto::MAX_BATCH as u64)
    );
    // A v1 frame on the same connection still answers.
    conn.send(r#"{"op":"stats"}"#);
    assert_eq!(conn.recv().get("ok").unwrap().as_bool(), Some(true));
    // Frames claiming a future protocol version fail loudly, typed.
    conn.send(r#"{"v":9,"op":"stats"}"#);
    let resp = conn.recv();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        resp.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unsupported protocol version"),
        "{resp}"
    );
    shutdown(&addr, handle);
}

/// Pipelined frames — including one delivered in two partial writes — are
/// answered strictly in request order with their ids echoed.
#[test]
fn pipelined_partial_frames_answer_in_order() {
    let dir = scratch("pipeline");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let mut conn = RawConn::open(&addr);
    let frame = |id: u64| {
        format!(r#"{{"v":2,"op":"batch","id":{id},"queries":["((A,B),((C,D),(E,F)));"]}}"#)
    };
    // Burst of three frames in one write...
    let burst = format!("{}\n{}\n{}\n", frame(10), frame(11), frame(12));
    conn.stream.write_all(burst.as_bytes()).unwrap();
    // ...then a fourth delivered in two halves with a pause in between:
    // the reassembly path must treat it exactly like a whole frame.
    let late = format!("{}\n", frame(13));
    let (a, b) = late.as_bytes().split_at(late.len() / 2);
    conn.stream.write_all(a).unwrap();
    conn.stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    conn.stream.write_all(b).unwrap();

    for expect in [10u64, 11, 12, 13] {
        let resp = conn.recv();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(resp.get("id").unwrap().as_u64(), Some(expect), "{resp}");
        assert_eq!(resp.get("scores").unwrap().as_arr().unwrap().len(), 1);
    }
    shutdown(&addr, handle);
}

/// Admin and query ops interleaved on one pipelined connection answer in
/// order, and each batch reports the snapshot that answered it: the batch
/// before the `add` sees the old hash, the one after sees the new one.
#[test]
fn interleaved_admin_and_query_frames_pin_their_snapshots() {
    let dir = scratch("interleave");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let mut conn = RawConn::open(&addr);
    let batch = |id: u64| {
        format!(r#"{{"v":2,"op":"batch","id":{id},"queries":["((A,B),((C,D),(E,F)));"]}}"#)
    };
    let add = format!(r#"{{"op":"add","trees":["{}"]}}"#, EXTRA.trim());
    let burst = format!(
        "{}\n{add}\n{}\n{}\n",
        batch(1),
        batch(2),
        r#"{"op":"stats"}"#
    );
    conn.stream.write_all(burst.as_bytes()).unwrap();

    let before = conn.recv();
    assert_eq!(before.get("id").unwrap().as_u64(), Some(1));
    let applied = conn.recv();
    assert_eq!(applied.get("applied").unwrap().as_u64(), Some(1));
    let after = conn.recv();
    assert_eq!(after.get("id").unwrap().as_u64(), Some(2));
    let stats = conn.recv();
    assert_eq!(stats.get("n_trees").unwrap().as_u64(), Some(4));

    let n_refs = |resp: &json::Json| {
        resp.get("scores").unwrap().as_arr().unwrap()[0]
            .get("n_refs")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(n_refs(&before), 3, "{before}");
    assert_eq!(n_refs(&after), 4, "{after}");
    let snap = |resp: &json::Json| resp.get("snap").unwrap().as_u64().unwrap();
    assert!(
        snap(&after) > snap(&before),
        "snap did not advance: {} -> {}",
        snap(&before),
        snap(&after)
    );
    shutdown(&addr, handle);
}

/// A batch above the server's ceiling is refused with a typed error and
/// the connection keeps serving.
#[test]
fn oversized_batch_is_rejected_and_connection_survives() {
    let dir = scratch("oversize");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let tree = "\"((A,B),((C,D),(E,F)));\"";
    let queries = vec![tree; bfhrf_cli::proto::MAX_BATCH + 1].join(",");
    let mut conn = RawConn::open(&addr);
    conn.send(&format!(r#"{{"v":2,"op":"batch","queries":[{queries}]}}"#));
    let resp = conn.recv();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(resp.get("code").unwrap().as_str(), Some("error"));
    assert!(
        resp.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("max_batch"),
        "{resp}"
    );
    // Same connection, conforming batch: answers fine.
    conn.send(r#"{"v":2,"op":"batch","queries":["((A,B),((C,D),(E,F)));"]}"#);
    assert_eq!(conn.recv().get("ok").unwrap().as_bool(), Some(true));
    shutdown(&addr, handle);
}

/// Batches racing concurrent admin mutations: every row of a batch must
/// come from one snapshot (uniform `n_refs`), and the `snap` ids a
/// connection observes never go backwards.
#[test]
fn mid_batch_snapshot_swaps_keep_batches_single_generation() {
    let dir = scratch("swap-race");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mutator = {
        let addr = addr.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let add = format!(r#"{{"op":"add","trees":["{}"]}}"#, EXTRA.trim());
            let remove = format!(r#"{{"op":"remove","trees":["{}"]}}"#, EXTRA.trim());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                assert_eq!(
                    raw_request(&addr, &add).get("ok").unwrap().as_bool(),
                    Some(true)
                );
                assert_eq!(
                    raw_request(&addr, &remove).get("ok").unwrap().as_bool(),
                    Some(true)
                );
            }
        })
    };

    let mut conn = RawConn::open(&addr);
    // Two queries per batch so a torn snapshot would show as mixed n_refs
    // within one frame.
    let frame = |id: u64| {
        format!(
            r#"{{"v":2,"op":"batch","id":{id},"queries":["((A,B),((C,D),(E,F)));","((A,E),((C,D),(B,F)));"]}}"#
        )
    };
    let mut last_snap = 0u64;
    for round in 0..30u64 {
        conn.send(&frame(round));
        let resp = conn.recv();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let rows = resp.get("scores").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        let refs: Vec<u64> = rows
            .iter()
            .map(|r| r.get("n_refs").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(refs[0], refs[1], "torn batch in round {round}: {resp}");
        assert!(refs[0] == 3 || refs[0] == 4, "{resp}");
        let snap = resp.get("snap").unwrap().as_u64().unwrap();
        assert!(
            snap >= last_snap,
            "snap went backwards: {last_snap} -> {snap}"
        );
        last_snap = snap;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    mutator.join().unwrap();
    shutdown(&addr, handle);
}

/// `bfhrf query --batch N` output is byte-identical to the offline
/// `avgrf` table regardless of frame size, and flags ride along.
#[test]
fn client_batch_mode_matches_offline_avgrf() {
    let dir = scratch("client-batch");
    let refs_path = write(&dir, "refs.nwk", REFS);
    // Enough queries to span several frames at --batch 2.
    let many: String = QUERIES.repeat(4);
    let queries_path = write(&dir, "queries.nwk", &many);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let offline = runv(&["avgrf", "--refs", &refs_path, "--queries", &queries_path]).unwrap();
    for batch in ["1", "2", "64"] {
        let served = runv(&[
            "query",
            "--addr",
            &addr,
            "--queries",
            &queries_path,
            "--batch",
            batch,
        ])
        .unwrap();
        assert_eq!(served.code, EXIT_OK, "--batch {batch}");
        assert_eq!(served.stdout, offline.stdout, "--batch {batch}");
    }
    // Flags flow through batch frames too.
    let offline = runv(&[
        "avgrf",
        "--refs",
        &refs_path,
        "--queries",
        &queries_path,
        "--normalized",
    ])
    .unwrap();
    let served = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        &queries_path,
        "--batch",
        "3",
        "--normalized",
    ])
    .unwrap();
    assert_eq!(served.stdout, offline.stdout);
    // --batch outside avgrf is a client-side error.
    let err = runv(&["query", "--addr", &addr, "--op", "stats", "--batch", "2"]).unwrap_err();
    assert!(err.message.contains("--batch"), "{}", err.message);
    shutdown(&addr, handle);
}

// ---------------------------------------------------------------------------
// Failure handling: ping, busy shedding, graceful drain, retries
// ---------------------------------------------------------------------------

/// The v2 `ping` op answers a health summary — generation, WAL depth,
/// uptime — through both the raw wire and the `query` client, and the
/// mirrored WAL depth tracks mutations and compactions.
#[test]
fn ping_reports_generation_wal_depth_and_uptime() {
    let dir = scratch("ping");
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let pong = raw_request(&addr, r#"{"v":2,"op":"ping"}"#);
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true), "{pong}");
    assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true), "{pong}");
    assert_eq!(pong.get("generation").unwrap().as_u64(), Some(0));
    assert_eq!(pong.get("wal_pending").unwrap().as_u64(), Some(0));
    assert!(pong.get("uptime_ms").unwrap().as_u64().is_some(), "{pong}");

    // A mutation shows up in the mirrored WAL depth without the ping
    // touching the admin lock.
    runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    let pong = raw_request(&addr, r#"{"v":2,"op":"ping"}"#);
    assert_eq!(pong.get("wal_pending").unwrap().as_u64(), Some(1), "{pong}");

    // Compaction drains it and bumps the generation.
    runv(&["query", "--addr", &addr, "--op", "compact"]).unwrap();
    let pong = raw_request(&addr, r#"{"v":2,"op":"ping"}"#);
    assert_eq!(pong.get("generation").unwrap().as_u64(), Some(1), "{pong}");
    assert_eq!(pong.get("wal_pending").unwrap().as_u64(), Some(0), "{pong}");

    // The query client renders the same numbers as a table.
    let out = runv(&["query", "--addr", &addr, "--op", "ping"]).unwrap();
    assert!(out.stdout.contains("generation\t1"), "{}", out.stdout);
    assert!(out.stdout.contains("wal_pending\t0"), "{}", out.stdout);
    assert!(out.stdout.contains("uptime_ms\t"), "{}", out.stdout);
    shutdown(&addr, handle);
}

/// At the connection ceiling the daemon sheds new connections with a
/// typed `busy` frame instead of queueing them: a plain client surfaces
/// it as exit 1, a retrying client rides it out once a slot frees up.
#[test]
fn busy_shed_is_typed_and_absorbed_by_retries() {
    let dir = scratch("busy");
    let index_dir = build_index(&dir, REFS);
    let srv = Server::bind(&ServeConfig {
        index_dir: PathBuf::from(&index_dir),
        addr: "127.0.0.1:0".into(),
        threads: 1,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    let handle = std::thread::spawn(move || srv.run().unwrap());

    // Occupy the single slot with a connection that never speaks.
    let hog = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Raw connection: one typed busy frame, then close.
    let mut shed = BufReader::new(TcpStream::connect(&addr).unwrap());
    let mut line = String::new();
    shed.read_line(&mut line).unwrap();
    let resp = json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp}");
    assert_eq!(resp.get("code").unwrap().as_str(), Some("busy"), "{resp}");
    assert_eq!(
        resp.get("outcome").unwrap().as_str(),
        Some("busy"),
        "{resp}"
    );
    line.clear();
    assert_eq!(
        shed.read_line(&mut line).unwrap(),
        0,
        "shed conn not closed"
    );

    // A client without retries maps busy to exit 1.
    let err = runv(&["query", "--addr", &addr, "--op", "ping"]).unwrap_err();
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(err.message.contains("busy"), "{}", err.message);

    // Free the slot shortly; a retrying client succeeds through the sheds.
    let freer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(300));
        drop(hog);
    });
    let out = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "ping",
        "--retries",
        "10",
        "--backoff-ms",
        "50",
    ])
    .unwrap();
    assert!(out.stdout.contains("generation\t0"), "{}", out.stdout);
    freer.join().unwrap();

    // The single slot may still be draining the previous client's
    // connection, so raw requests here can themselves get shed; retry
    // past any busy frame.
    let retry_ok = |req: &str| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let resp = raw_request(&addr, req);
            if resp.get("ok").unwrap().as_bool() == Some(true) {
                return resp;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "request kept getting shed: {resp}"
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    };

    // The sheds were counted.
    let stats = retry_ok(r#"{"op":"stats"}"#);
    let metrics = stats.get("metrics").unwrap();
    let sheds = find_series(metrics, "serve_busy_rejections_total", &[])
        .unwrap()
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(sheds >= 2, "busy sheds = {sheds}");
    retry_ok(r#"{"op":"shutdown"}"#);
    handle.join().unwrap();
}

/// Shutdown drains gracefully: a pipelined connection with frames already
/// buffered server-side gets an answer for every one of them before the
/// close, even though another connection triggered the shutdown.
#[test]
fn shutdown_drains_buffered_pipelined_frames() {
    let dir = scratch("drain");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let mut conn = RawConn::open(&addr);
    let frame = |id: u64| {
        format!(r#"{{"v":2,"op":"batch","id":{id},"queries":["((A,B),((C,D),(E,F)));"]}}"#)
    };
    let burst: String = (0..6).map(|i| format!("{}\n", frame(i))).collect();
    conn.stream.write_all(burst.as_bytes()).unwrap();
    conn.stream.flush().unwrap();
    // Let the burst land in the handler's read buffer before shutdown.
    std::thread::sleep(std::time::Duration::from_millis(150));

    let served = shutdown(&addr, handle);
    // Every buffered frame was answered, in order, before the half-close.
    for expect in 0..6u64 {
        let resp = conn.recv();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(resp.get("id").unwrap().as_u64(), Some(expect), "{resp}");
    }
    // Then a clean EOF.
    let mut line = String::new();
    assert_eq!(conn.reader.read_line(&mut line).unwrap(), 0);
    assert!(served >= 7, "served {served}");
}

/// A daemon restart in the middle of a pipelined batch session: the
/// retrying client reconnects, re-handshakes, resends every unanswered
/// frame, and the final table is byte-identical to an offline run. This
/// is the in-process version of the chaos smoke's kill-and-restart.
#[test]
fn mid_batch_restart_with_retries_is_byte_identical() {
    let dir = scratch("restart");
    let refs_path = write(&dir, "refs.nwk", REFS);
    // Enough single-query frames that the restart lands mid-session.
    let many: String = QUERIES.repeat(40);
    let queries_path = write(&dir, "queries.nwk", &many);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let offline = runv(&["avgrf", "--refs", &refs_path, "--queries", &queries_path]).unwrap();

    let client = {
        let addr = addr.clone();
        let queries_path = queries_path.clone();
        std::thread::spawn(move || {
            runv(&[
                "query",
                "--addr",
                &addr,
                "--queries",
                &queries_path,
                "--batch",
                "1",
                "--retries",
                "15",
                "--backoff-ms",
                "50",
            ])
        })
    };

    // Stop the daemon mid-session, then rebind on the SAME port — the
    // dead listener's port may linger, so retry the bind briefly.
    std::thread::sleep(std::time::Duration::from_millis(40));
    shutdown(&addr, handle);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let srv = loop {
        match Server::bind(&ServeConfig {
            index_dir: PathBuf::from(&index_dir),
            addr: addr.clone(),
            threads: 3,
            mem_budget: None,
            timeout_ms: None,
            catalog_dir: None,
        }) {
            Ok(srv) => break srv,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "could not rebind {addr}: {}",
                    e.message
                );
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    };
    let handle = std::thread::spawn(move || srv.run().unwrap());

    let out = client.join().unwrap().expect("retrying client failed");
    assert_eq!(out.code, EXIT_OK);
    assert_eq!(out.stdout, offline.stdout, "restart changed the answer");
    shutdown(&addr, handle);
}

// ---------------------------------------------------------------------------
// Multi-collection catalog
// ---------------------------------------------------------------------------

/// Three distinct reference sets on the same six taxa, one per collection.
const C1: &str = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n";
const C2: &str = "((A,C),((B,D),(E,F)));\n((A,B),((C,E),(D,F)));\n((A,D),((B,C),(E,F)));\n";
const C3: &str = "((A,E),((B,F),(C,D)));\n((A,F),((B,E),(C,D)));\n((A,B),((C,F),(D,E)));\n";

/// Parse a `catalog-list` rendered table into (name, open, resident) rows.
fn parse_catalog_table(stdout: &str) -> Vec<(String, bool, usize)> {
    stdout
        .lines()
        .skip(1) // header
        .map(|l| {
            let mut parts = l.split('\t');
            (
                parts.next().unwrap().to_string(),
                parts.next().unwrap() == "true",
                parts.next().unwrap().parse().unwrap(),
            )
        })
        .collect()
}

/// The tentpole acceptance path: one daemon hosts the default index plus
/// three catalog collections under a byte budget smaller than their
/// combined frozen size, answers an interleaved workload correctly, and
/// the evictions are observable.
#[test]
fn catalog_daemon_hosts_many_collections_under_budget() {
    let dir = scratch("catalog-accept");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let c1_path = write(&dir, "c1.nwk", C1);
    let c2_path = write(&dir, "c2.nwk", C2);
    let c3_path = write(&dir, "c3.nwk", C3);
    let index_dir = build_index(&dir, REFS);
    let catalog_dir = dir.join("catalog");
    let catalog_dir = catalog_dir.to_str().unwrap();

    // Phase 1: no budget. Create the collections and measure their frozen
    // footprints through catalog-list.
    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir, None);
    for (name, path) in [("m1", &c1_path), ("m2", &c2_path), ("m3", &c3_path)] {
        let out = runv(&[
            "catalog", "create", "--addr", &addr, "--name", name, "--trees", path,
        ])
        .unwrap();
        assert!(
            out.stdout.contains(&format!("created\t{name}")),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("n_trees\t3"), "{}", out.stdout);
    }
    // Open all three by touching them once.
    for name in ["m1", "m2", "m3"] {
        runv(&[
            "query",
            "--addr",
            &addr,
            "--collection",
            name,
            "--queries",
            &queries_path,
        ])
        .unwrap();
    }
    let list = runv(&["catalog", "list", "--addr", &addr]).unwrap();
    let rows = parse_catalog_table(&list.stdout);
    assert_eq!(rows.len(), 3, "{}", list.stdout);
    assert!(rows.iter().all(|(_, open, _)| *open), "{}", list.stdout);
    let sizes: Vec<usize> = rows.iter().map(|&(_, _, b)| b).collect();
    assert!(sizes.iter().all(|&b| b > 0), "{}", list.stdout);
    let combined: usize = sizes.iter().sum();

    // The v2 pong counts the default index plus the three collections.
    let pong = raw_request(&addr, r#"{"v":2,"op":"ping"}"#);
    assert_eq!(pong.get("collections").unwrap().as_u64(), Some(4), "{pong}");
    assert_eq!(
        pong.get("open_collections").unwrap().as_u64(),
        Some(4),
        "{pong}"
    );
    shutdown(&addr, handle);

    // Phase 2: restart over the same catalog with a budget one byte short
    // of the combined footprint — the third open must evict the LRU.
    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir, Some(combined - 1));
    let list = runv(&["catalog", "list", "--addr", &addr]).unwrap();
    let rows = parse_catalog_table(&list.stdout);
    assert_eq!(rows.len(), 3, "collections survive the restart");
    assert!(
        rows.iter().all(|(_, open, _)| !*open),
        "all start lazy-closed: {}",
        list.stdout
    );

    // Interleaved workload: every routed answer must match the offline run
    // on the collection's own references, before and after evictions.
    let expected: Vec<String> = [&c1_path, &c2_path, &c3_path]
        .iter()
        .map(|refs| {
            runv(&["avgrf", "--refs", refs, "--queries", &queries_path])
                .unwrap()
                .stdout
        })
        .collect();
    let routed = |name: &str| {
        runv(&[
            "query",
            "--addr",
            &addr,
            "--collection",
            name,
            "--queries",
            &queries_path,
        ])
        .unwrap()
        .stdout
    };
    assert_eq!(routed("m1"), expected[0]);
    assert_eq!(routed("m2"), expected[1]);
    // Opening m3 pushes the pool past the budget: m1 (LRU) is evicted.
    assert_eq!(routed("m3"), expected[2]);
    let rows = parse_catalog_table(&runv(&["catalog", "list", "--addr", &addr]).unwrap().stdout);
    let open_of = |rows: &[(String, bool, usize)], name: &str| {
        rows.iter().find(|(n, _, _)| n == name).unwrap().1
    };
    assert!(!open_of(&rows, "m1"), "m1 should be evicted: {rows:?}");
    assert!(open_of(&rows, "m2"), "{rows:?}");
    assert!(open_of(&rows, "m3"), "{rows:?}");

    // Touching the evicted collection reopens it (evicting m2) and the
    // answer is still byte-identical to the offline run.
    assert_eq!(routed("m1"), expected[0]);
    let rows = parse_catalog_table(&runv(&["catalog", "list", "--addr", &addr]).unwrap().stdout);
    assert!(open_of(&rows, "m1"), "{rows:?}");
    assert!(!open_of(&rows, "m2"), "m2 should be evicted: {rows:?}");

    // The evictions are visible in the metrics, per collection.
    let resp = raw_request(&addr, r#"{"op":"stats"}"#);
    let metrics = resp.get("metrics").unwrap();
    for victim in ["m1", "m2"] {
        let evictions = find_series(
            metrics,
            "catalog_evictions_total",
            &[("collection", victim)],
        )
        .unwrap_or_else(|| panic!("missing catalog_evictions_total for {victim}"))
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
        assert!(evictions >= 1, "{victim} evictions = {evictions}");
    }

    // The default index answers unrouted queries throughout.
    let refs_path = write(&dir, "refs-again.nwk", REFS);
    let offline = runv(&["avgrf", "--refs", &refs_path, "--queries", &queries_path]).unwrap();
    let unrouted = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    assert_eq!(unrouted.stdout, offline.stdout);
    shutdown(&addr, handle);
}

/// Collection-less clients see the same bytes whether or not the daemon
/// hosts a catalog, and v1 pongs never grow the new members.
#[test]
fn collectionless_clients_are_unchanged_by_the_catalog() {
    let dir = scratch("catalog-legacy");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let catalog_dir = dir.join("catalog");

    let (plain_addr, plain_handle) = start_server(&index_dir, None);
    let (cat_addr, cat_handle) =
        start_catalog_server(&index_dir, catalog_dir.to_str().unwrap(), None);

    for args in [
        vec!["--queries", queries_path.as_str()],
        vec!["--op", "best-query", "--queries", queries_path.as_str()],
        vec!["--op", "stats"],
    ] {
        let mut plain = vec!["query", "--addr", &plain_addr];
        plain.extend(&args);
        let mut cat = vec!["query", "--addr", &cat_addr];
        cat.extend(&args);
        assert_eq!(
            runv(&plain).unwrap().stdout,
            runv(&cat).unwrap().stdout,
            "{args:?}"
        );
    }

    // v1 pings carry no catalog members from either daemon.
    for addr in [&plain_addr, &cat_addr] {
        let pong = raw_request(addr, r#"{"op":"ping"}"#);
        assert!(pong.get("collections").is_none(), "{pong}");
        assert!(pong.get("open_collections").is_none(), "{pong}");
    }
    // v2 pings always carry them; without a catalog both count only the
    // default index.
    let pong = raw_request(&plain_addr, r#"{"v":2,"op":"ping"}"#);
    assert_eq!(pong.get("collections").unwrap().as_u64(), Some(1), "{pong}");
    assert_eq!(
        pong.get("open_collections").unwrap().as_u64(),
        Some(1),
        "{pong}"
    );

    shutdown(&plain_addr, plain_handle);
    shutdown(&cat_addr, cat_handle);
}

/// Routed mutations land in the named collection's own WAL and leave the
/// default index untouched; the mutation survives eviction because the
/// collection reopens from its own durable state.
#[test]
fn routed_mutations_are_isolated_and_survive_eviction() {
    let dir = scratch("catalog-mutate");
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let catalog_dir = dir.join("catalog");
    let catalog_dir = catalog_dir.to_str().unwrap();

    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir, None);
    let c1_path = write(&dir, "c1.nwk", C1);
    runv(&[
        "catalog", "create", "--addr", &addr, "--name", "mut1", "--trees", &c1_path,
    ])
    .unwrap();

    // Routed add: the collection's stats move, the default's do not.
    let out = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "mut1",
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert!(out.stdout.contains("applied\t1"), "{}", out.stdout);
    assert!(out.stdout.contains("n_trees\t4"), "{}", out.stdout);
    let col_stats = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "mut1",
        "--op",
        "stats",
    ])
    .unwrap();
    assert!(
        col_stats.stdout.contains("n_trees\t4"),
        "{}",
        col_stats.stdout
    );
    assert!(
        col_stats.stdout.contains("wal_pending\t1"),
        "{}",
        col_stats.stdout
    );
    let def_stats = runv(&["query", "--addr", &addr, "--op", "stats"]).unwrap();
    assert!(
        def_stats.stdout.contains("n_trees\t3"),
        "{}",
        def_stats.stdout
    );
    assert!(
        def_stats.stdout.contains("wal_pending\t0"),
        "{}",
        def_stats.stdout
    );

    // Routed compact folds the collection's WAL.
    let out = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "mut1",
        "--op",
        "compact",
    ])
    .unwrap();
    assert!(out.stdout.contains("generation\t1"), "{}", out.stdout);
    shutdown(&addr, handle);

    // Restart with a budget too small to keep the collection resident:
    // every touch is a cold open from durable state, with the add applied.
    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir, Some(1));
    let col_stats = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "mut1",
        "--op",
        "stats",
    ])
    .unwrap();
    assert!(
        col_stats.stdout.contains("n_trees\t4"),
        "{}",
        col_stats.stdout
    );
    assert!(
        col_stats.stdout.contains("generation\t1"),
        "{}",
        col_stats.stdout
    );
    // Scores against the mutated collection match the offline run over the
    // same four trees.
    let c1_plus = write(&dir, "c1-plus.nwk", &format!("{C1}{EXTRA}"));
    let offline = runv(&["avgrf", "--refs", &c1_plus, "--queries", &queries_path]).unwrap();
    let routed = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "mut1",
        "--queries",
        &queries_path,
    ])
    .unwrap();
    assert_eq!(routed.stdout, offline.stdout);
    shutdown(&addr, handle);
}

/// Cross-collection `xavgrf`: scores computed over the two collections'
/// common taxa, with typed refusals for the default index and missing
/// catalogs.
#[test]
fn xavgrf_scores_across_collections_on_common_taxa() {
    let dir = scratch("catalog-xavgrf");
    let index_dir = build_index(&dir, REFS);
    let catalog_dir = dir.join("catalog");

    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir.to_str().unwrap(), None);
    // Six taxa each, four shared (A-D): the cross-collection comparison
    // restricts to the shared four.
    let left = write(&dir, "left.nwk", C1);
    let right = write(
        &dir,
        "right.nwk",
        "((A,G),((C,D),(B,H)));\n((A,B),((C,G),(D,H)));\n",
    );
    runv(&[
        "catalog", "create", "--addr", &addr, "--name", "xl", "--trees", &left,
    ])
    .unwrap();
    runv(&[
        "catalog", "create", "--addr", &addr, "--name", "xr", "--trees", &right,
    ])
    .unwrap();

    let out = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "xavgrf",
        "--refs-collection",
        "xl",
        "--queries-collection",
        "xr",
    ])
    .unwrap();
    assert!(out.stdout.contains("common_taxa\t4"), "{}", out.stdout);
    // One row per tree of the query collection, each a parseable average.
    let rows: Vec<&str> = out.stdout.lines().skip(2).collect();
    assert_eq!(rows.len(), 2, "{}", out.stdout);
    for row in rows {
        let avg: f64 = row.split('\t').nth(1).unwrap().parse().unwrap();
        assert!(avg.is_finite() && avg >= 0.0, "{row}");
    }

    // A collection against itself over identical taxa: the self-pairing
    // rows exist and index 0's average reflects distances to the other
    // trees (sanity anchor, not a full recomputation).
    let self_out = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "xavgrf",
        "--refs-collection",
        "xl",
        "--queries-collection",
        "xl",
    ])
    .unwrap();
    assert!(
        self_out.stdout.contains("common_taxa\t6"),
        "{}",
        self_out.stdout
    );

    // The default index keeps no tree list: xavgrf refuses it, typed.
    let err = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "xavgrf",
        "--refs-collection",
        "default",
        "--queries-collection",
        "xr",
    ])
    .unwrap_err();
    assert!(err.message.contains("default"), "{}", err.message);
    shutdown(&addr, handle);

    // A daemon without a catalog refuses catalog ops with a pointer to the
    // missing flag.
    let (addr, handle) = start_server(&index_dir, None);
    let err = runv(&["catalog", "list", "--addr", &addr]).unwrap_err();
    assert!(err.message.contains("--catalog"), "{}", err.message);
    shutdown(&addr, handle);
}

/// Catalog admin ops: duplicate and invalid names are typed errors, drop
/// makes a collection unroutable, and the reserved default name is
/// protected.
#[test]
fn catalog_admin_errors_are_typed() {
    let dir = scratch("catalog-admin");
    let index_dir = build_index(&dir, REFS);
    let catalog_dir = dir.join("catalog");
    let (addr, handle) = start_catalog_server(&index_dir, catalog_dir.to_str().unwrap(), None);
    let c1_path = write(&dir, "c1.nwk", C1);

    runv(&[
        "catalog", "create", "--addr", &addr, "--name", "dup", "--trees", &c1_path,
    ])
    .unwrap();
    let err = runv(&[
        "catalog", "create", "--addr", &addr, "--name", "dup", "--trees", &c1_path,
    ])
    .unwrap_err();
    assert!(err.message.contains("exists"), "{}", err.message);

    for bad in ["default", "", "a/b", ".hidden"] {
        let err = runv(&[
            "catalog", "create", "--addr", &addr, "--name", bad, "--trees", &c1_path,
        ])
        .unwrap_err();
        assert!(
            err.message.contains("server: ") || err.message.contains("needs"),
            "{bad}: {}",
            err.message
        );
    }

    runv(&["catalog", "drop", "--addr", &addr, "--name", "dup"]).unwrap();
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let err = runv(&[
        "query",
        "--addr",
        &addr,
        "--collection",
        "dup",
        "--queries",
        &queries_path,
    ])
    .unwrap_err();
    assert!(err.message.contains("dup"), "{}", err.message);

    let err = runv(&["catalog", "drop", "--addr", &addr, "--name", "gone"]).unwrap_err();
    assert!(err.message.contains("gone"), "{}", err.message);
    shutdown(&addr, handle);
}

/// The binary wire encoding is negotiated, never assumed: a plain hello
/// answer carries no `encoding` member (byte-compatible with pre-binary
/// servers), a `bin` hello echoes it, and an unknown name is a typed
/// error that leaves the connection usable.
#[test]
fn hello_encoding_negotiation_wire_shapes() {
    let dir = scratch("hello-enc");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let plain = raw_request(&addr, r#"{"v":2,"op":"hello"}"#);
    assert_eq!(plain.get("ok").unwrap().as_bool(), Some(true));
    assert!(plain.get("encoding").is_none(), "{plain}");

    let bin = raw_request(&addr, r#"{"v":2,"op":"hello","encoding":"bin"}"#);
    assert_eq!(bin.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        bin.get("encoding").and_then(json::Json::as_str),
        Some("bin")
    );

    let bad = raw_request(&addr, r#"{"v":2,"op":"hello","encoding":"xml"}"#);
    assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        bad.get("error")
            .and_then(json::Json::as_str)
            .unwrap()
            .contains("encoding"),
        "{bad}"
    );

    shutdown(&addr, handle);
}

/// Tentpole acceptance: `--format bin` sessions (single-op, from a binary
/// query file, best-query, and pipelined batch mode) answer byte-identical
/// to their Newick twins, and the daemon's per-encoding wire metrics show
/// up in `bfhrf stats`.
#[test]
fn binary_wire_sessions_match_newick_byte_for_byte() {
    let dir = scratch("bin-wire");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let newick = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    let bin = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        &queries_path,
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(bin.code, EXIT_OK);
    assert_eq!(bin.stdout, newick.stdout);

    // The same queries converted to a binary file: sniffed on load,
    // re-encoded on the wire, identical answers.
    let bin_queries = dir.join("queries.phw");
    let conv = runv(&[
        "convert",
        "--in",
        &queries_path,
        "--out",
        bin_queries.to_str().unwrap(),
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(conv.code, EXIT_OK);
    let from_bin_file = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        bin_queries.to_str().unwrap(),
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(from_bin_file.stdout, newick.stdout);

    // Pipelined batch mode under both encodings.
    let many: String = QUERIES.repeat(4);
    let many_path = write(&dir, "many.nwk", &many);
    let newick_batch = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        &many_path,
        "--batch",
        "2",
    ])
    .unwrap();
    let bin_batch = runv(&[
        "query",
        "--addr",
        &addr,
        "--queries",
        &many_path,
        "--batch",
        "2",
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(bin_batch.stdout, newick_batch.stdout);

    // best-query agrees as well.
    let newick_best = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "best-query",
        "--queries",
        &queries_path,
    ])
    .unwrap();
    let bin_best = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "best-query",
        "--queries",
        &queries_path,
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(bin_best.stdout, newick_best.stdout);

    // The daemon counted and timed the binary frames.
    let stats = runv(&["stats", "--addr", &addr]).unwrap();
    assert!(
        stats.stdout.contains("wire_frames_total"),
        "{}",
        stats.stdout
    );
    assert!(stats.stdout.contains("wire_decode_ns"), "{}", stats.stdout);

    shutdown(&addr, handle);
}

/// `--op taxa` lists the server's namespace (the contract binary payloads
/// encode against), and a `--format bin` mutation lands in the WAL as a
/// binary record that replays on the next offline open.
#[test]
fn taxa_op_and_binary_mutations_replay() {
    let dir = scratch("bin-mutate");
    let index_dir = build_index(&dir, REFS);
    let (addr, handle) = start_server(&index_dir, None);

    let taxa = runv(&["query", "--addr", &addr, "--op", "taxa"]).unwrap();
    assert!(
        taxa.stdout.starts_with("generation\t0\ntaxon\tlabel\n"),
        "{}",
        taxa.stdout
    );
    for label in ["A", "B", "C", "D", "E", "F"] {
        assert!(
            taxa.stdout.contains(&format!("\t{label}\n")),
            "{}",
            taxa.stdout
        );
    }

    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let added = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
        "--format",
        "bin",
    ])
    .unwrap();
    assert_eq!(added.stdout, "applied\t1\nn_trees\t4\n");
    shutdown(&addr, handle);

    // The binary WAL record replays on a cold open.
    let inspect = runv(&["index", "inspect", "--index", &index_dir, "--check"]).unwrap();
    assert!(
        inspect.stdout.contains("wal_pending\t1"),
        "{}",
        inspect.stdout
    );
    assert!(
        inspect.stdout.contains("check\tok (4 trees"),
        "{}",
        inspect.stdout
    );
}

// ---------------------------------------------------------------------------
// Read-only bind: the default index is served from its frozen sidecar and
// opened by the first write
// ---------------------------------------------------------------------------

/// Build an index from `REFS` under `root/<name>` and return its path.
fn build_index_in(root: &std::path::Path, name: &str) -> String {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).unwrap();
    build_index(&dir, REFS)
}

/// Drop the named members of a JSON object response.
fn without(resp: json::Json, drop: &[&str]) -> json::Json {
    match resp {
        json::Json::Obj(pairs) => json::Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| !drop.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

/// One fixed read session: Newick `avgrf`, Newick and `bin` batches and
/// `best-query` through the `query` client (their output as a string),
/// then raw `taxa`, `stats` and `ping` frames, without the members that
/// differ between any two daemons (the process-wide `metrics`, the
/// `uptime_ms`).
fn read_session(addr: &str, queries_path: &str) -> Vec<json::Json> {
    let mut out = Vec::new();
    for extra in [
        &[][..],
        &["--batch", "2"],
        &["--batch", "2", "--format", "bin"],
        &["--op", "best-query"],
    ] {
        let mut args = vec!["query", "--addr", addr, "--queries", queries_path];
        args.extend_from_slice(extra);
        out.push(json::Json::Str(runv(&args).unwrap().stdout));
    }
    for frame in [
        r#"{"v":2,"op":"taxa"}"#,
        r#"{"op":"stats"}"#,
        r#"{"v":2,"op":"ping"}"#,
    ] {
        out.push(without(raw_request(addr, frame), &["metrics", "uptime_ms"]));
    }
    out
}

/// What an index holds, independent of hash layout: tree count, sum, and
/// every split with its frequency.
fn index_content(index_dir: &str) -> (usize, u64, Vec<(String, u32)>) {
    let index = phylo_index::Index::open(std::path::Path::new(index_dir)).unwrap();
    let bfh = index.bfh();
    let mut splits: Vec<_> = bfh.iter().map(|(b, f)| (b.to_string(), f)).collect();
    splits.sort();
    (bfh.n_trees(), bfh.sum(), splits)
}

/// A daemon bound read-only from the frozen sidecar answers every read op
/// like one that opened the index eagerly — client output byte for byte,
/// raw frames member for member — whether the eager open was forced by a
/// missing sidecar or by pending WAL records.
#[test]
fn lazy_and_eager_binds_answer_byte_identically() {
    let dir = scratch("lazy-eager");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let lazy = build_index_in(&dir, "lazy");
    let no_sidecar = build_index_in(&dir, "no-sidecar");
    std::fs::remove_file(std::path::Path::new(&no_sidecar).join("frozen.bfh")).unwrap();
    // Add and remove the same tree: the hash is unchanged, two records
    // await replay.
    let pending = build_index_in(&dir, "pending");
    for op in ["add", "remove"] {
        runv(&["index", op, "--index", &pending, "--trees", &extra_path]).unwrap();
    }
    assert!(phylo_index::Index::open_frozen(std::path::Path::new(&lazy)).is_ok());
    for eager in [&no_sidecar, &pending] {
        assert!(phylo_index::Index::open_frozen(std::path::Path::new(eager)).is_err());
    }

    let session = |index_dir: &str| {
        let (addr, handle) = start_server(index_dir, None);
        let answers = read_session(&addr, &queries_path);
        shutdown(&addr, handle);
        answers
    };
    let want = session(&lazy);
    assert_eq!(
        want[0].as_str().map(|s| s.starts_with("query\tavg_rf\n")),
        Some(true),
        "{}",
        want[0]
    );
    assert_eq!(session(&no_sidecar), want);

    // Pending records show in the WAL depth of `stats` and `ping`, and
    // nowhere else.
    let got = session(&pending);
    let depth = |answers: &[json::Json]| -> Vec<u64> {
        answers
            .iter()
            .filter_map(|a| a.get("wal_pending")?.as_u64())
            .collect()
    };
    assert_eq!((depth(&want), depth(&got)), (vec![0, 0], vec![2, 2]));
    let strip = |answers: Vec<json::Json>| -> Vec<json::Json> {
        answers
            .into_iter()
            .map(|a| without(a, &["wal_pending"]))
            .collect()
    };
    assert_eq!(strip(got), strip(want));
}

/// On a lazily bound daemon the first write opens the index: add, remove
/// and compact land exactly as on an eagerly bound one, reads follow them,
/// and the reopened index holds what it started with.
#[test]
fn lazy_daemon_writes_match_offline_and_keep_the_index() {
    let dir = scratch("lazy-writes");
    let refs_path = write(&dir, "refs.nwk", REFS);
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let refs4 = write(&dir, "refs4.nwk", &format!("{REFS}{EXTRA}"));
    let index_dir = build_index_in(&dir, "idx");
    let before = index_content(&index_dir);
    let (addr, handle) = start_server(&index_dir, None);

    let served = |addr: &str| {
        runv(&["query", "--addr", addr, "--queries", &queries_path])
            .unwrap()
            .stdout
    };
    let offline = |refs: &str| {
        runv(&["avgrf", "--refs", refs, "--queries", &queries_path])
            .unwrap()
            .stdout
    };
    assert_eq!(served(&addr), offline(&refs_path));
    let add = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert_eq!(add.stdout, "applied\t1\nn_trees\t4\n");
    assert_eq!(served(&addr), offline(&refs4));
    let rm = runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "remove",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert_eq!(rm.stdout, "applied\t1\nn_trees\t3\n");
    let compacted = runv(&["query", "--addr", &addr, "--op", "compact"]).unwrap();
    assert!(
        compacted.stdout.contains("generation\t1"),
        "{}",
        compacted.stdout
    );
    assert_eq!(served(&addr), offline(&refs_path));
    shutdown(&addr, handle);
    assert_eq!(index_content(&index_dir), before);
}

/// An index changed behind a lazily bound daemon — here by `bfhrf index
/// add` from outside — no longer matches the header the daemon published.
/// The daemon's first write is refused with a typed error naming the
/// change, and reads keep serving the bound snapshot.
#[test]
fn index_changed_behind_a_lazy_daemon_refuses_writes() {
    let dir = scratch("lazy-changed");
    let refs_path = write(&dir, "refs.nwk", REFS);
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let index_dir = build_index_in(&dir, "idx");
    let (addr, handle) = start_server(&index_dir, None);
    let stats_before = raw_request(&addr, r#"{"op":"stats"}"#);

    runv(&[
        "index",
        "add",
        "--index",
        &index_dir,
        "--trees",
        &extra_path,
    ])
    .unwrap();
    for op in [
        r#"{"op":"add","trees":["((A,B),((C,E),(D,F)));"]}"#,
        r#"{"op":"compact"}"#,
    ] {
        let resp = raw_request(&addr, op);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp}");
        assert_eq!(resp.get("code").unwrap().as_str(), Some("error"), "{resp}");
        let msg = resp.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("changed since the daemon bound it"), "{msg}");
    }

    let served = runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    let offline = runv(&["avgrf", "--refs", &refs_path, "--queries", &queries_path]).unwrap();
    assert_eq!(served.stdout, offline.stdout);
    let stats = raw_request(&addr, r#"{"op":"stats"}"#);
    for key in ["generation", "n_trees", "distinct", "sum", "wal_pending"] {
        assert_eq!(stats.get(key), stats_before.get(key), "{key}");
    }
    shutdown(&addr, handle);
}

/// The sidecar path never loads the splits, so bind streams the snapshot
/// through the same checks: a flipped byte in the splits section fails
/// bind with the very message `Index::open` gives.
#[test]
fn bind_refuses_a_corrupt_snapshot_like_index_open() {
    let dir = scratch("lazy-corrupt");
    let index_dir = build_index_in(&dir, "idx");
    let path = std::path::Path::new(&index_dir);
    let snap = path.join("snapshot.bfh");
    let mut bytes = std::fs::read(&snap).unwrap();
    // The last record's mask (a record is 8 mask bytes + a 4-byte
    // frequency, and the section ends with an 8-byte seal).
    let at = bytes.len() - 8 - 12 + 4;
    bytes[at] ^= 0x5a;
    std::fs::write(&snap, &bytes).unwrap();

    // The sidecar path alone would accept the directory.
    assert!(phylo_index::Index::open_frozen(path).is_ok());
    let want = phylo_index::Index::open(path).err().unwrap().to_string();
    let err = Server::bind(&ServeConfig {
        index_dir: path.to_path_buf(),
        addr: "127.0.0.1:0".into(),
        threads: 1,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .err()
    .expect("bind must refuse a corrupt snapshot");
    assert_eq!(err.message, want);
    assert!(want.contains("splits"), "{want}");
}

/// Append half a WAL record, as a crash mid-append leaves it.
fn tear_wal(index_dir: &str) {
    let wal = std::path::Path::new(index_dir).join("wal.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(wal).unwrap();
    f.write_all(&[1, 9, 0]).unwrap();
}

/// Bind on a torn WAL tail opens eagerly, repairs the log, and reports
/// the repair in `Server::notes`.
#[test]
fn bind_reports_wal_recovery_notes() {
    let dir = scratch("bind-notes");
    let index_dir = build_index_in(&dir, "idx");
    tear_wal(&index_dir);
    let srv = Server::bind(&ServeConfig {
        index_dir: PathBuf::from(&index_dir),
        addr: "127.0.0.1:0".into(),
        threads: 1,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .unwrap();
    assert!(
        srv.notes().iter().any(|n| n.contains("torn")),
        "{:?}",
        srv.notes()
    );
}

/// `bfhrf serve` run as a child process, so its metrics registry is its
/// own and counts are exact. Dropping it kills and reaps the child, so a
/// failing test leaves no daemon behind.
struct ChildDaemon {
    child: Option<std::process::Child>,
    addr: String,
}

impl ChildDaemon {
    /// Start the daemon on `index_dir` and wait for its port file.
    fn spawn(index_dir: &str, dir: &std::path::Path) -> ChildDaemon {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_bfhrf"))
            .args(["serve", "--index", index_dir, "--addr", "127.0.0.1:0"])
            .args(["--threads", "2", "--port-file", port_file.to_str().unwrap()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn();
        let mut daemon = ChildDaemon {
            child: Some(child.unwrap()),
            addr: String::new(),
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !daemon.addr.ends_with('\n') {
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
            daemon.addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        }
        daemon.addr.truncate(daemon.addr.trim_end().len());
        daemon
    }

    /// Shut the daemon down and return what it wrote to stderr.
    fn stop(mut self) -> String {
        let resp = raw_request(&self.addr, r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        let out = self.child.take().unwrap().wait_with_output().unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stderr).unwrap()
    }
}

impl Drop for ChildDaemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `field` (a histogram's `count`, a counter's or gauge's `value`) of the
/// daemon's pre-registered, unlabelled series `name`.
fn metric(addr: &str, name: &str, field: &str) -> u64 {
    let resp = raw_request(addr, r#"{"op":"stats"}"#);
    find_series(resp.get("metrics").unwrap(), name, &[])
        .unwrap_or_else(|| panic!("{name} is pre-registered at bind"))
        .get(field)
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Samples in the daemon's `serve_index_load_ns`.
fn index_loads(addr: &str) -> u64 {
    metric(addr, "serve_index_load_ns", "count")
}

/// `serve_index_load_ns` counts the deferred open: none while a lazily
/// bound daemon only reads, one at its first write, none more after. The
/// deferred open's recovery notes reach stderr, and so do the notes of an
/// eager open at bind.
#[test]
fn deferred_open_is_timed_once_and_notes_reach_stderr() {
    let dir = scratch("index-load");
    let queries_path = write(&dir, "queries.nwk", QUERIES);
    let extra_path = write(&dir, "extra.nwk", EXTRA);
    let index_dir = build_index_in(&dir, "lazy");
    // Left by a crash mid-compaction; the read-write open removes it.
    write(
        std::path::Path::new(&index_dir),
        "snapshot.bfh.tmp",
        "scratch",
    );
    let daemon = ChildDaemon::spawn(&index_dir, &dir);
    let addr = daemon.addr.clone();
    runv(&["query", "--addr", &addr, "--queries", &queries_path]).unwrap();
    assert_eq!(index_loads(&addr), 0);
    for op in ["add", "remove"] {
        runv(&["query", "--addr", &addr, "--op", op, "--trees", &extra_path]).unwrap();
        assert_eq!(index_loads(&addr), 1, "after {op}");
    }
    let stderr = daemon.stop();
    assert!(
        stderr.contains("bfhrf: removed stale compaction scratch"),
        "{stderr}"
    );

    let torn = build_index_in(&dir, "torn");
    tear_wal(&torn);
    let daemon = ChildDaemon::spawn(&torn, &dir);
    let addr = daemon.addr.clone();
    runv(&[
        "query",
        "--addr",
        &addr,
        "--op",
        "add",
        "--trees",
        &extra_path,
    ])
    .unwrap();
    assert_eq!(index_loads(&addr), 0, "an eager bind defers nothing");
    let stderr = daemon.stop();
    assert!(stderr.contains("bfhrf: wal: dropped a torn"), "{stderr}");
}

/// Writes publish a delta over the frozen table instead of refreezing it:
/// across an add/remove pair the daemon's `index_freeze_ns` count stays 0,
/// `index_delta_splits` rises with the add and is back to 0 after the
/// matching remove, and reads match offline `avgrf` at every step. A batch
/// removal that would fail partway is refused whole, without changing the
/// index.
#[test]
fn writes_publish_a_delta_without_refreezing() {
    let dir = scratch("delta-writes");
    let refs_path = dir.join("refs.nwk").to_str().unwrap().to_string();
    let extra_path = dir.join("extra.nwk").to_str().unwrap().to_string();
    for (out, trees, seed) in [(&refs_path, "40", "4077"), (&extra_path, "1", "99")] {
        runv(&[
            "simulate", "--taxa", "24", "--trees", trees, "--seed", seed, "--out", out,
        ])
        .unwrap();
    }
    let extra = std::fs::read_to_string(&extra_path).unwrap();
    let both_path = write(
        &dir,
        "both.nwk",
        &(std::fs::read_to_string(&refs_path).unwrap() + &extra),
    );
    let queries_path = write(&dir, "queries.nwk", &extra);
    let index_dir = dir.join("index").to_str().unwrap().to_string();
    runv(&["index", "build", "--refs", &refs_path, "--out", &index_dir]).unwrap();

    let daemon = ChildDaemon::spawn(&index_dir, &dir);
    let addr = daemon.addr.clone();
    let served = || {
        runv(&["query", "--addr", &addr, "--queries", &queries_path])
            .unwrap()
            .stdout
    };
    let offline = |refs: &str| {
        runv(&["avgrf", "--refs", refs, "--queries", &queries_path])
            .unwrap()
            .stdout
    };
    let write_op = |op: &str| {
        runv(&["query", "--addr", &addr, "--op", op, "--trees", &extra_path]).unwrap();
    };
    let freezes = || metric(&addr, "index_freeze_ns", "count");
    let delta = || metric(&addr, "index_delta_splits", "value");
    assert_eq!((freezes(), delta()), (0, 0));

    write_op("add");
    assert_eq!(served(), offline(&both_path));
    assert!(delta() > 0, "the add is published as a delta");
    write_op("remove");
    assert_eq!(served(), offline(&refs_path));
    assert_eq!((freezes(), delta()), (0, 0), "no refreeze, delta drained");
    assert_eq!(metric(&addr, "index_folds_total", "value"), 0);

    // Fifty copies of a tree the index holds once: the batch fails partway
    // and is refused whole.
    write_op("add");
    let tree = format!("\"{}\"", extra.trim());
    let frame = format!(
        r#"{{"op":"remove","trees":[{}]}}"#,
        vec![tree; 50].join(",")
    );
    let resp = raw_request(&addr, &frame);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    let error = resp.get("error").unwrap().as_str().unwrap().to_string();
    assert!(
        error.starts_with("tree ") && error.contains("remove_tree"),
        "{error}"
    );
    assert_eq!(served(), offline(&both_path));
    write_op("remove");
    assert_eq!((freezes(), delta()), (0, 0));
    daemon.stop();
}
