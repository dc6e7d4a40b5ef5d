//! The `bfhrf query` client's failure paths against a scripted fake
//! server: a loopback `TcpListener` in a test thread that answers canned
//! lines, one scripted behaviour per accepted connection. Each case pins
//! the client's message, its exit code, and whether `--retries` spends a
//! reconnect on it (counted as accepted connections).

use bfhrf_cli::{json, run_full, CliError, CmdOutcome};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const QUERIES: &str = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));\n\
                       ((A,C),((B,D),(E,F)));\n((A,D),((B,C),(E,F)));\n";
const TAXA: &str = r#"{"ok":true,"generation":0,"taxa":["A","B","C","D","E","F"]}"#;
const PONG: &str = r#"{"ok":true,"pong":true,"generation":4,"wal_pending":2,"uptime_ms":9}"#;
const BUSY: &str = r#"{"ok":false,"code":"busy","outcome":"busy","error":"server is at its connection ceiling (1 slots)"}"#;
const CANCELLED: &str =
    r#"{"ok":false,"code":"budget","outcome":"cancelled","error":"deadline exceeded"}"#;

/// One accepted connection's scripted behaviour.
type Script = Box<dyn FnOnce(&mut Conn) + Send>;

/// The server side of one accepted connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// The next request frame, or `None` at EOF.
    fn recv(&mut self) -> Option<json::Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(json::parse(line.trim()).expect("client sent bad JSON")),
            _ => None,
        }
    }

    fn send(&mut self, line: &str) {
        let _ = self.writer.write_all(format!("{line}\n").as_bytes());
        let _ = self.writer.flush();
    }

    /// Answer a `hello` frame with `max_batch`, echoing the encoding the
    /// client asked for when `echo` is set.
    fn hello(&mut self, max_batch: usize, echo: bool) {
        let hello = self.recv().expect("client sent no hello");
        assert_eq!(op(&hello), "hello", "{hello}");
        match hello.get("encoding").and_then(json::Json::as_str) {
            Some(enc) if echo => self.send(&format!(
                r#"{{"ok":true,"v":2,"max_batch":{max_batch},"encoding":"{enc}"}}"#
            )),
            _ => self.send(&format!(r#"{{"ok":true,"v":2,"max_batch":{max_batch}}}"#)),
        }
    }

    /// Answer `frames` batch frames with one score row per query (avg 1.5),
    /// echoing each frame's id.
    fn answer_batches(&mut self, frames: usize) {
        for _ in 0..frames {
            let Some(frame) = self.recv() else { return };
            let id = frame.get("id").and_then(json::Json::as_u64).unwrap();
            self.send(&scores(n_queries(&frame), Some(id)));
        }
    }

    /// Serve a well-behaved batch session to the end.
    fn serve_batches(&mut self) {
        self.answer_batches(usize::MAX);
    }
}

fn op(frame: &json::Json) -> &str {
    frame.get("op").and_then(json::Json::as_str).unwrap()
}

fn n_queries(frame: &json::Json) -> usize {
    frame
        .get("queries")
        .and_then(json::Json::as_arr)
        .unwrap()
        .len()
}

/// A scores frame of `n` rows (avg 1.5 each).
fn scores(n: usize, id: Option<u64>) -> String {
    let rows: Vec<String> = (0..n)
        .map(|i| format!(r#"{{"index":{i},"left":3,"right":3,"n_refs":4,"avg":1.5}}"#))
        .collect();
    let id = id.map(|id| format!(r#""id":{id},"#)).unwrap_or_default();
    format!(
        r#"{{"ok":true,{id}"n_taxa":6,"generation":0,"snap":0,"scores":[{}],"notes":[]}}"#,
        rows.join(",")
    )
}

/// A fake server running `scripts` on its connections in accept order;
/// connections past the script are closed unanswered.
struct FakeServer {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl FakeServer {
    fn start(scripts: Vec<Script>) -> FakeServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut scripts = scripts.into_iter();
            let mut accepted = 0;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    // Stop only once the backlog is empty, so a connection
                    // the client opened last is still counted.
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                accepted += 1;
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut conn = Conn {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                };
                if let Some(script) = scripts.next() {
                    script(&mut conn);
                }
                // Half-close and drain before dropping: closing with unread
                // bytes makes the kernel send RST, which can discard the
                // last canned line before the client reads it.
                let _ = conn.writer.shutdown(Shutdown::Write);
                let _ = conn
                    .writer
                    .set_read_timeout(Some(Duration::from_millis(200)));
                let mut sink = [0u8; 4096];
                while matches!(conn.writer.read(&mut sink), Ok(n) if n > 0) {}
            }
            accepted
        });
        FakeServer { addr, stop, handle }
    }

    /// Stop accepting and return how many connections the client made.
    fn connections(self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap()
    }
}

fn queries_file(name: &str) -> String {
    let path: PathBuf =
        std::env::temp_dir().join(format!("bfhrf-client-{}-{name}.nwk", std::process::id()));
    std::fs::write(&path, QUERIES).unwrap();
    path.to_str().unwrap().to_string()
}

/// Run `bfhrf query --addr <fake> <args>` against `scripts`; returns the
/// outcome and the number of connections the client opened.
fn query(scripts: Vec<Script>, args: &[&str]) -> (Result<CmdOutcome, CliError>, usize) {
    let server = FakeServer::start(scripts);
    let mut argv = vec!["query".to_string(), "--addr".into(), server.addr.clone()];
    argv.extend(args.iter().map(|s| s.to_string()));
    if args.contains(&"--retries") {
        argv.extend(["--backoff-ms".into(), "1".into()]);
    }
    let out = run_full(&argv);
    (out, server.connections())
}

fn err_of(out: Result<CmdOutcome, CliError>) -> CliError {
    match out {
        Ok(o) => panic!("expected a failure, got stdout {:?}", o.stdout),
        Err(e) => e,
    }
}

#[test]
fn hello_without_the_bin_echo_is_fatal_and_not_retried() {
    let q = queries_file("noecho");
    for batch in [None, Some("2")] {
        let script: Script = Box::new(|c: &mut Conn| c.hello(4096, false));
        let mut args = vec!["--queries", &q, "--format", "bin", "--retries", "3"];
        if let Some(b) = batch {
            args.extend(["--batch", b]);
        }
        let (out, conns) = query(vec![script], &args);
        let err = err_of(out);
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(
            err.message
                .contains("did not accept the \"bin\" tree encoding (no echo in its hello answer)"),
            "{}",
            err.message
        );
        assert_eq!(conns, 1, "a missing echo is not retried ({batch:?})");
    }
}

#[test]
fn busy_hello_is_retried() {
    let q = queries_file("busyhello");
    // Retried into a healthy session.
    let scripts: Vec<Script> = vec![
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send(BUSY);
        }),
        Box::new(|c: &mut Conn| {
            c.hello(4096, false);
            c.serve_batches();
        }),
    ];
    let (out, conns) = query(
        scripts,
        &["--queries", &q, "--batch", "2", "--retries", "2"],
    );
    let out = out.unwrap();
    assert_eq!(
        out.stdout,
        "query\tavg_rf\n0\t1.500000\n1\t1.500000\n2\t1.500000\n3\t1.500000\n"
    );
    assert_eq!(conns, 2);

    // Exhausted: the hello rejection, exit 1, after 1 + 2 connections.
    let busy = || -> Script {
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send(BUSY);
        })
    };
    let (out, conns) = query(
        vec![busy(), busy(), busy()],
        &["--queries", &q, "--batch", "2", "--retries", "2"],
    );
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert_eq!(
        err.message,
        "server rejected the hello handshake: server is at its connection ceiling (1 slots)"
    );
    assert_eq!(conns, 3);
}

#[test]
fn busy_single_op_is_retried_and_exhausts_to_exit_1() {
    let busy = || -> Script {
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send(BUSY);
        })
    };
    let pong: Script = Box::new(|c: &mut Conn| {
        c.recv();
        c.send(PONG);
    });
    let (out, conns) = query(vec![busy(), pong], &["--op", "ping", "--retries", "1"]);
    assert_eq!(
        out.unwrap().stdout,
        "generation\t4\nwal_pending\t2\nuptime_ms\t9\n"
    );
    assert_eq!(conns, 2);

    let (out, conns) = query(vec![busy(), busy()], &["--op", "ping", "--retries", "1"]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert_eq!(
        err.message,
        "server: [busy] server is at its connection ceiling (1 slots)"
    );
    assert_eq!(conns, 2);
}

#[test]
fn restart_with_a_smaller_batch_ceiling_is_fatal() {
    let q = queries_file("ceiling");
    let scripts: Vec<Script> = vec![
        // Answers frame 0 of 2, then "crashes".
        Box::new(|c: &mut Conn| {
            c.hello(4096, false);
            c.answer_batches(1);
        }),
        // The replacement advertises a ceiling below the frame size.
        Box::new(|c: &mut Conn| c.hello(1, false)),
    ];
    let (out, conns) = query(
        scripts,
        &["--queries", &q, "--batch", "2", "--retries", "5"],
    );
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert!(
        err.message
            .ends_with("restarted with a smaller batch ceiling (1 < 2); rerun the query"),
        "{}",
        err.message
    );
    assert_eq!(conns, 2, "the shrunken ceiling is not retried");
}

#[test]
fn a_batch_answer_for_the_wrong_frame_is_retried() {
    let q = queries_file("wrongid");
    let wrong = || -> Script {
        Box::new(|c: &mut Conn| {
            c.hello(4096, false);
            let frame = c.recv().unwrap();
            c.send(&scores(n_queries(&frame), Some(5)));
        })
    };
    let (out, conns) = query(vec![wrong()], &["--queries", &q, "--batch", "2"]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert_eq!(
        err.message,
        "server answered frame Some(5) where frame 0 was expected"
    );
    assert_eq!(conns, 1);

    let good: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, false);
        c.serve_batches();
    });
    let (out, conns) = query(
        vec![wrong(), good],
        &["--queries", &q, "--batch", "2", "--retries", "1"],
    );
    assert_eq!(
        out.unwrap().stdout,
        "query\tavg_rf\n0\t1.500000\n1\t1.500000\n2\t1.500000\n3\t1.500000\n"
    );
    assert_eq!(conns, 2);
}

#[test]
fn eof_mid_session_is_retried_and_rows_land_once() {
    let q = queries_file("eof");
    let cut = || -> Script {
        Box::new(|c: &mut Conn| {
            c.hello(4096, false);
            c.answer_batches(1);
        })
    };
    let good: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, false);
        c.serve_batches();
    });
    let (out, conns) = query(
        vec![cut(), good],
        &["--queries", &q, "--batch", "1", "--retries", "1"],
    );
    assert_eq!(
        out.unwrap().stdout,
        "query\tavg_rf\n0\t1.500000\n1\t1.500000\n2\t1.500000\n3\t1.500000\n"
    );
    assert_eq!(conns, 2);

    let (out, conns) = query(vec![cut()], &["--queries", &q, "--batch", "1"]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert!(
        err.message.ends_with("closed the connection mid-session"),
        "{}",
        err.message
    );
    assert_eq!(conns, 1);

    // A single op whose server hangs up unanswered is retried too.
    let hangup = || -> Script {
        Box::new(|c: &mut Conn| {
            c.recv();
        })
    };
    let (out, conns) = query(
        vec![hangup(), hangup()],
        &["--op", "ping", "--retries", "1"],
    );
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert!(
        err.message
            .ends_with("closed the connection without answering"),
        "{}",
        err.message
    );
    assert_eq!(conns, 2);
}

#[test]
fn a_typed_budget_error_exits_3_and_is_not_retried() {
    let q = queries_file("budget");
    let single: Script = Box::new(|c: &mut Conn| {
        c.recv();
        c.send(CANCELLED);
    });
    let (out, conns) = query(vec![single], &["--queries", &q, "--retries", "3"]);
    let err = err_of(out);
    assert_eq!(err.code, 3);
    assert_eq!(err.message, "server: [cancelled] deadline exceeded");
    assert_eq!(conns, 1);

    let batch: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, false);
        c.recv();
        c.send(CANCELLED);
    });
    let (out, conns) = query(
        vec![batch],
        &["--queries", &q, "--batch", "2", "--retries", "3"],
    );
    let err = err_of(out);
    assert_eq!(err.code, 3);
    assert_eq!(err.message, "server: [cancelled] deadline exceeded");
    assert_eq!(conns, 1);

    let bin: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, true);
        c.recv();
        c.send(TAXA);
        c.recv();
        c.send(CANCELLED);
    });
    let (out, conns) = query(
        vec![bin],
        &["--queries", &q, "--format", "bin", "--retries", "3"],
    );
    let err = err_of(out);
    assert_eq!(err.code, 3);
    assert_eq!(err.message, "server: [cancelled] deadline exceeded");
    assert_eq!(conns, 1);
}

#[test]
fn malformed_and_shapeless_responses_are_retried_as_transport() {
    let q = queries_file("malformed");
    // Unparseable JSON on a single op.
    let garbage = || -> Script {
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send("not json");
        })
    };
    let pong: Script = Box::new(|c: &mut Conn| {
        c.recv();
        c.send(PONG);
    });
    let (out, conns) = query(vec![garbage(), pong], &["--op", "ping", "--retries", "1"]);
    assert!(out.unwrap().stdout.starts_with("generation\t4\n"));
    assert_eq!(conns, 2);
    let (out, conns) = query(vec![garbage()], &["--op", "ping"]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert!(
        err.message.starts_with("malformed response: "),
        "{}",
        err.message
    );
    assert_eq!(conns, 1);

    // A well-formed document of no known response shape in a batch.
    let shapeless = || -> Script {
        Box::new(|c: &mut Conn| {
            c.hello(4096, false);
            c.recv();
            c.send(r#"{"ok":true}"#);
        })
    };
    let good: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, false);
        c.serve_batches();
    });
    let (out, conns) = query(
        vec![shapeless(), good],
        &["--queries", &q, "--batch", "4", "--retries", "1"],
    );
    assert_eq!(
        out.unwrap().stdout,
        "query\tavg_rf\n0\t1.500000\n1\t1.500000\n2\t1.500000\n3\t1.500000\n"
    );
    assert_eq!(conns, 2);
    let (out, conns) = query(vec![shapeless()], &["--queries", &q, "--batch", "4"]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert_eq!(
        err.message,
        "malformed response: response matches no known shape"
    );
    assert_eq!(conns, 1);
}

#[test]
fn bin_single_op_reencodes_after_a_reconnect() {
    let q = queries_file("binretry");
    let cut: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, true);
        c.recv();
        c.send(TAXA);
    });
    let good: Script = Box::new(|c: &mut Conn| {
        c.hello(4096, true);
        let taxa = c.recv().unwrap();
        assert_eq!(op(&taxa), "taxa");
        c.send(TAXA);
        let req = c.recv().unwrap();
        assert_eq!(op(&req), "avgrf");
        c.send(&scores(n_queries(&req), None));
    });
    let (out, conns) = query(
        vec![cut, good],
        &["--queries", &q, "--format", "bin", "--retries", "1"],
    );
    assert_eq!(
        out.unwrap().stdout,
        "query\tavg_rf\n0\t1.500000\n1\t1.500000\n2\t1.500000\n3\t1.500000\n"
    );
    assert_eq!(conns, 2);
}

#[test]
fn a_single_op_answer_of_the_wrong_shape_is_retried() {
    let q = queries_file("wrongshape");
    // No known shape at all, then a pong where scores were asked for.
    let scripts: Vec<Script> = vec![
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send(r#"{"ok":true}"#);
        }),
        Box::new(|c: &mut Conn| {
            c.recv();
            c.send(PONG);
        }),
        Box::new(|c: &mut Conn| {
            let req = c.recv().unwrap();
            c.send(&scores(n_queries(&req), None));
        }),
    ];
    let (out, conns) = query(scripts, &["--queries", &q, "--retries", "2"]);
    assert!(out
        .unwrap()
        .stdout
        .starts_with("query\tavg_rf\n0\t1.500000\n"));
    assert_eq!(conns, 3);

    let pong: Script = Box::new(|c: &mut Conn| {
        c.recv();
        c.send(PONG);
    });
    let (out, conns) = query(vec![pong], &["--queries", &q]);
    let err = err_of(out);
    assert_eq!(err.code, 1);
    assert_eq!(
        err.message,
        "server answered the avgrf request with an unexpected shape"
    );
    assert_eq!(conns, 1);
}

#[test]
fn stats_json_prints_the_server_frame() {
    use bfhrf_cli::proto::{Response, StatsBody};
    let metrics = json::parse(
        r#"{"series":[{"name":"serve_request_ns","labels":{"op":"avgrf"},"kind":"histogram","count":2,"mean":1500.5,"p50":1000},{"name":"serve_busy_rejections_total","labels":{},"kind":"counter","value":0}]}"#,
    )
    .unwrap();
    let frame = Response::Stats {
        body: StatsBody {
            generation: 1,
            n_trees: 3,
            n_taxa: 6,
            distinct: 9,
            sum: 12,
            wal_pending: 0,
            served: 5,
        },
        metrics,
    }
    .to_json(None)
    .to_string();
    let answer = frame.clone();
    let server = FakeServer::start(vec![Box::new(move |c: &mut Conn| {
        c.recv();
        c.send(&answer);
    })]);
    let argv: Vec<String> = ["stats", "--addr", &server.addr, "--json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let out = run_full(&argv).unwrap();
    assert_eq!(out.stdout, format!("{frame}\n"));
    assert_eq!(server.connections(), 1);
}
