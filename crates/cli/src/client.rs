//! The daemon client behind `bfhrf query`, `bfhrf catalog` and `bfhrf stats`.
//!
//! Every invocation builds one typed [`Envelope`] from argv before it
//! connects ([`build_request`]) and renders its output from the typed
//! [`Response`] it gets back. A [`Session`] is one connection:
//! [`Session::connect`], then optionally [`Session::hello`] (the server's
//! batch ceiling, plus the echo check when asking for the `bin` encoding)
//! and [`Session::taxa`] (the server's namespace, which `bin` payloads are
//! encoded in), then [`Session::queue`]d frames, a [`Session::flush`] and
//! one [`Session::recv`] per answer. Three modes share it:
//!
//! - single Newick ops: connect, one frame, one answer, and no hello, so
//!   the frames are the exact v1/v2 frames older clients sent;
//! - `--format bin` single ops: hello negotiating `bin`, taxa, one frame;
//! - `--batch N`: hello (and taxa for `bin`), then pipelined `batch` frames.
//!
//! Each mode is one attempt closure run by [`Retry::run`], the only retry
//! loop. A [`SessionError`] that a fresh connection may cure (a transport
//! failure, a malformed answer, a `busy` shed) backs off and reruns the
//! attempt on a new connection; typed server errors, a missing `bin` echo
//! and a shrunken batch ceiling fail at once.

use crate::args::Args;
use crate::proto::{Envelope, ErrorCode, Op, Outcome, QueryFlags, Request, Response, WireEncoding};
use crate::{json, payload_collection, payload_from_file, server, CliError, CmdOutcome, EXIT_OK};
use phylo::TreeCollection;
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Ops a retry budget may apply to: pure reads, where re-sending after an
/// ambiguous failure cannot double-apply anything.
const IDEMPOTENT_OPS: [&str; 7] = [
    "avgrf",
    "best-query",
    "stats",
    "ping",
    "taxa",
    "xavgrf",
    "catalog-list",
];

/// Ops that accept a `--collection` routing field.
const ROUTED_OPS: [&str; 8] = [
    "avgrf",
    "best-query",
    "ping",
    "stats",
    "taxa",
    "add",
    "remove",
    "compact",
];

/// Ops whose payload is a list of trees — the only ones `--format bin`
/// can re-encode.
const TREE_PAYLOAD_OPS: [&str; 4] = ["avgrf", "best-query", "add", "remove"];

/// Batch frames in flight at once: deep enough to hide a round trip,
/// shallow enough that neither side buffers unboundedly.
const PIPELINE_WINDOW: usize = 32;

/// `bfhrf query`: one op against a running server.
pub(crate) fn cmd_query(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["normalized", "halved"])?;
    a.reject_unknown(
        &[
            "addr",
            "port-file",
            "op",
            "format",
            "queries",
            "trees",
            "batch",
            "retries",
            "backoff-ms",
            "collection",
            "refs-collection",
            "queries-collection",
            "name",
        ],
        &["normalized", "halved"],
    )?;
    let addr = query_addr(&a)?;
    let op = a.get("op").unwrap_or("avgrf");
    if a.get("collection").is_some() && !ROUTED_OPS.contains(&op) {
        return Err(format!(
            "--collection only applies to collection-routed ops ({}); got {op:?}",
            ROUTED_OPS.join(", ")
        )
        .into());
    }
    let bin = match a.get("format") {
        None => false,
        Some(s) => {
            phylo_wire::WireFormat::parse(s)
                .ok_or_else(|| format!("unknown format {s:?} (expected newick or bin)"))?
                == phylo_wire::WireFormat::Bin
        }
    };
    if bin && !TREE_PAYLOAD_OPS.contains(&op) {
        return Err(format!(
            "--format bin only applies to ops that carry trees ({}); got {op:?}",
            TREE_PAYLOAD_OPS.join(", ")
        )
        .into());
    }

    let retries: u32 = a.get_parsed("retries")?.unwrap_or(0);
    let backoff_ms: u64 = a.get_parsed("backoff-ms")?.unwrap_or(100);
    if a.get("backoff-ms").is_some() && a.get("retries").is_none() {
        return Err("--backoff-ms only applies together with --retries"
            .to_string()
            .into());
    }
    if retries > 0 && !IDEMPOTENT_OPS.contains(&op) {
        return Err(format!(
            "--retries only applies to idempotent ops ({}); a resent {op:?} could apply twice",
            IDEMPOTENT_OPS.join(", ")
        )
        .into());
    }
    let retry = Retry::new(retries, backoff_ms);
    let batch = a.get_parsed::<usize>("batch")?;
    if batch.is_some() && op != "avgrf" {
        return Err(format!("--batch only applies to --op avgrf (got {op:?})").into());
    }
    if batch == Some(0) {
        return Err("--batch must be at least 1".to_string().into());
    }

    // Newick payloads render once; binary ones are encoded per session,
    // in the namespace the server reports on that connection.
    let mut source: Option<TreeCollection> = None;
    let env = build_request(op, &a, |path| {
        if bin {
            source = Some(payload_collection(path)?);
            Ok(Vec::new())
        } else {
            payload_from_file(path)
        }
    })?;
    if let Some(batch) = batch {
        let Request::AvgRf {
            queries,
            flags,
            collection,
        } = env.request
        else {
            unreachable!("--batch is refused for every op but avgrf")
        };
        let bin = source.as_ref();
        return batched_avgrf(&addr, retry, batch, queries, bin, flags, collection);
    }
    let op = env.request.op();
    exchange(&addr, retry, env, source.as_ref(), |resp| render(op, resp))
}

/// `bfhrf catalog <create|drop|list>`: administer a running daemon's
/// collection catalog over the v2 wire ops — verb-shaped sugar over
/// `query --op catalog-*` so scripts read like the operations they
/// perform.
pub(crate) fn cmd_catalog(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let Some(verb) = raw.first() else {
        return Err("catalog needs a verb: create, drop, list"
            .to_string()
            .into());
    };
    let (op, knowns): (&str, &[&str]) = match verb.as_str() {
        "create" => ("catalog-create", &["addr", "port-file", "name", "trees"]),
        "drop" => ("catalog-drop", &["addr", "port-file", "name"]),
        "list" => ("catalog-list", &["addr", "port-file"]),
        other => {
            return Err(
                format!("unknown catalog verb {other:?} (expected create, drop, list)").into(),
            )
        }
    };
    let a = Args::parse(&raw[1..], &[])?;
    a.reject_unknown(knowns, &[])?;
    let addr = query_addr(&a)?;
    let env = build_request(op, &a, payload_from_file)?;
    let op = env.request.op();
    exchange(&addr, Retry::new(0, 0), env, None, |resp| render(op, resp))
}

/// `bfhrf stats`: fetch one `stats` snapshot from a running daemon and
/// render it for operators — the index header, then every metric series
/// (with scaled latency quantiles). `--json` prints the wire response for
/// scripts instead.
pub(crate) fn cmd_stats(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["json"])?;
    a.reject_unknown(&["addr", "port-file"], &["json"])?;
    let addr = query_addr(&a)?;
    let env = build_request("stats", &a, payload_from_file)?;
    exchange(&addr, Retry::new(0, 0), env, None, |resp| {
        let Response::Stats { metrics, .. } = &resp else {
            return None;
        };
        if a.flag("json") {
            return Some(CmdOutcome::clean(format!("{}\n", resp.to_json(None))));
        }
        let metrics = render_metrics_text(metrics);
        let mut out = render(Op::Stats, resp)?;
        out.stdout.push('\n');
        out.stdout.push_str(&metrics);
        Some(out)
    })
}

/// Resolve `--addr` / `--port-file` to the server address.
fn query_addr(a: &Args) -> Result<String, CliError> {
    if let Some(addr) = a.get("addr") {
        return Ok(addr.to_string());
    }
    if let Some(pf) = a.get("port-file") {
        let text = std::fs::read_to_string(pf)
            .map_err(|e| CliError::from(format!("cannot read {pf}: {e}")))?;
        return Ok(text.trim().to_string());
    }
    Err("query needs --addr HOST:PORT or --port-file FILE"
        .to_string()
        .into())
}

/// The request one `query`, `catalog` or `stats` invocation sends, built
/// from argv alone: `trees` turns the file named by `--queries`/`--trees`
/// into the tree payload. Collection-less legacy ops keep their exact v1
/// frames; collection routing, `--format bin`, `ping` and the
/// catalog-era ops are framed v2, so an old server fails them loudly
/// instead of guessing.
fn build_request(
    op: &str,
    a: &Args,
    mut trees: impl FnMut(&str) -> Result<Vec<String>, CliError>,
) -> Result<Envelope, CliError> {
    let collection = a.get("collection").map(str::to_string);
    let flags = QueryFlags {
        normalized: a.flag("normalized"),
        halved: a.flag("halved"),
    };
    let request = match op {
        "avgrf" => Request::AvgRf {
            queries: trees(a.require("queries")?)?,
            flags,
            collection,
        },
        "best-query" => Request::BestQuery {
            queries: trees(a.require("queries")?)?,
            collection,
        },
        "add" => Request::Add {
            trees: trees(a.require("trees")?)?,
            collection,
        },
        "remove" => Request::Remove {
            trees: trees(a.require("trees")?)?,
            collection,
        },
        "ping" => Request::Ping { collection },
        "stats" => Request::Stats { collection },
        "compact" => Request::Compact { collection },
        "taxa" => Request::Taxa { collection },
        "shutdown" => Request::Shutdown,
        "xavgrf" => Request::Xavgrf {
            refs: a.require("refs-collection")?.to_string(),
            queries: a.require("queries-collection")?.to_string(),
            flags,
        },
        "catalog-create" => Request::CatalogCreate {
            name: a.require("name")?.to_string(),
            trees: a.get("trees").map(trees).transpose()?.unwrap_or_default(),
        },
        "catalog-drop" => Request::CatalogDrop {
            name: a.require("name")?.to_string(),
        },
        "catalog-list" => Request::CatalogList,
        other => {
            return Err(format!(
                "unknown op {other:?} (expected avgrf, best-query, ping, stats, taxa, add, \
                 remove, compact, xavgrf, catalog-create, catalog-drop, catalog-list, shutdown)"
            )
            .into())
        }
    };
    if flags != QueryFlags::default()
        && !matches!(request, Request::AvgRf { .. } | Request::Xavgrf { .. })
    {
        return Err(format!(
            "--normalized and --halved only apply to the ops that take them \
             (avgrf, also with --batch, and xavgrf); got {op:?}"
        )
        .into());
    }
    let bin = a.get("format").and_then(phylo_wire::WireFormat::parse)
        == Some(phylo_wire::WireFormat::Bin);
    let v1 = !bin
        && request.collection().is_none()
        && matches!(
            request,
            Request::AvgRf { .. }
                | Request::BestQuery { .. }
                | Request::Add { .. }
                | Request::Remove { .. }
                | Request::Stats { .. }
                | Request::Compact { .. }
                | Request::Shutdown
        );
    Ok(if v1 {
        Envelope::v1(request)
    } else {
        Envelope::v2(request, None)
    })
}

/// Render a single op's answer in the same tab-separated shapes the
/// offline subcommands print, so outputs diff cleanly against
/// `bfhrf avgrf` / `bfhrf best`; server notes go to stderr. `None` when
/// the answer is not the shape `op` is answered with.
fn render(op: Op, resp: Response) -> Option<CmdOutcome> {
    let mut out = String::new();
    let mut notes = Vec::new();
    match (op, resp) {
        (
            Op::AvgRf,
            Response::Scores {
                scores, notes: n, ..
            },
        ) => {
            out.push_str("query\tavg_rf\n");
            for row in &scores {
                let _ = writeln!(out, "{}\t{:.6}", row.index, row.avg);
            }
            notes = n;
        }
        (
            Op::BestQuery,
            Response::Best {
                best_index,
                avg,
                total,
                notes: n,
            },
        ) => {
            out = format!("best_query\t{best_index}\navg_rf\t{avg:.6}\ntotal_rf\t{total}\n");
            notes = n;
        }
        (Op::Stats, Response::Stats { body, .. }) => {
            for (key, value) in [
                ("generation", body.generation),
                ("n_trees", body.n_trees as u64),
                ("n_taxa", body.n_taxa as u64),
                ("distinct", body.distinct as u64),
                ("sum", body.sum),
                ("wal_pending", body.wal_pending as u64),
                ("served", body.served),
            ] {
                let _ = writeln!(out, "{key}\t{value}");
            }
        }
        (Op::Add | Op::Remove, Response::Applied { applied, n_trees }) => {
            out = format!("applied\t{applied}\nn_trees\t{n_trees}\n");
        }
        (
            Op::Compact,
            Response::Compacted {
                generation,
                distinct,
                ..
            },
        ) => out = format!("generation\t{generation}\ndistinct\t{distinct}\n"),
        (
            Op::Ping,
            Response::Pong {
                generation,
                wal_pending,
                uptime_ms,
                collections,
                open_collections,
            },
        ) => {
            out = format!(
                "generation\t{generation}\nwal_pending\t{wal_pending}\nuptime_ms\t{uptime_ms}\n"
            );
            // Catalog-aware daemons add the collection counts on v2 pongs;
            // the rows appear only when present.
            for (key, value) in [
                ("collections", collections),
                ("open_collections", open_collections),
            ] {
                if let Some(v) = value {
                    let _ = writeln!(out, "{key}\t{v}");
                }
            }
        }
        (
            Op::Xavgrf,
            Response::XScores {
                common_taxa,
                scores,
                notes: n,
            },
        ) => {
            out = format!("common_taxa\t{common_taxa}\nquery\tavg_rf\n");
            for row in &scores {
                let _ = writeln!(out, "{}\t{:.6}", row.index, row.avg);
            }
            notes = n;
        }
        (Op::CatalogCreate, Response::Created { name, n_trees }) => {
            out = format!("created\t{name}\nn_trees\t{n_trees}\n");
        }
        (Op::CatalogDrop, Response::Dropped { name }) => out = format!("dropped\t{name}\n"),
        (Op::CatalogList, Response::Catalog { collections }) => {
            out.push_str("name\topen\tresident_bytes\n");
            for c in &collections {
                let _ = writeln!(out, "{}\t{}\t{}", c.name, c.open, c.resident_bytes);
            }
        }
        (Op::Taxa, Response::Taxa { generation, labels }) => {
            out = format!("generation\t{generation}\ntaxon\tlabel\n");
            for (i, label) in labels.iter().enumerate() {
                let _ = writeln!(out, "{i}\t{label}");
            }
        }
        (Op::Shutdown, Response::Shutdown) => out.push_str("shutdown\tok\n"),
        _ => return None,
    }
    Some(CmdOutcome {
        stdout: out,
        notes: notes.into_iter().map(|n| format!("server: {n}")).collect(),
        code: EXIT_OK,
    })
}

/// Render the `metrics` member of a `stats` response as the aligned text
/// table `phylo_obs::expose::to_text` produces server-side — recomputed
/// here from the wire JSON because the client only has the document.
fn render_metrics_text(metrics: &json::Json) -> String {
    let series = metrics
        .get("series")
        .and_then(json::Json::as_arr)
        .unwrap_or(&[]);
    let mut rows: Vec<(String, String)> = Vec::with_capacity(series.len());
    for s in series {
        let name = s.get("name").and_then(json::Json::as_str).unwrap_or("?");
        let mut key = name.to_string();
        if let Some(json::Json::Obj(pairs)) = s.get("labels") {
            if !pairs.is_empty() {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                key.push_str(&format!("{{{}}}", inner.join(",")));
            }
        }
        let num = |field: &str| s.get(field).and_then(json::Json::as_f64).unwrap_or(0.0);
        let value = match s.get("kind").and_then(json::Json::as_str) {
            Some("histogram") => {
                let count = num("count");
                if count == 0.0 {
                    "count=0".to_string()
                } else {
                    let show: fn(f64) -> String = if name.ends_with("_ns") {
                        phylo_obs::expose::fmt_ns
                    } else {
                        |v: f64| format!("{v:.0}")
                    };
                    format!(
                        "count={count} mean={} p50={} p90={} p99={} max={}",
                        show(num("mean")),
                        show(num("p50")),
                        show(num("p90")),
                        show(num("p99")),
                        show(num("max")),
                    )
                }
            }
            _ => format!("{}", num("value")),
        };
        rows.push((key, value));
    }
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (key, value) in rows {
        let _ = writeln!(out, "{key:width$}  {value}");
    }
    out
}

/// Encode trees as base64 binary records in the *server's* taxon
/// namespace: map every local taxon id to the server id with the same
/// label (from the `taxa` exchange), remap, encode. A label the server
/// has never seen is a client-side error — the server's Newick parser
/// would have rejected the same tree, just later and per record.
fn encode_payload_bin(coll: &TreeCollection, labels: &[String]) -> Result<Vec<String>, CliError> {
    let mut server_ids: std::collections::HashMap<&str, phylo::TaxonId> =
        std::collections::HashMap::with_capacity(labels.len());
    for (i, label) in labels.iter().enumerate() {
        server_ids.insert(label.as_str(), phylo::TaxonId(i as u32));
    }
    let map: Vec<phylo::TaxonId> = (0..coll.taxa.len())
        .map(|i| {
            let label = coll.taxa.label(phylo::TaxonId(i as u32));
            server_ids.get(label).copied().ok_or_else(|| {
                CliError::from(format!(
                    "taxon {label:?} is not in the server's namespace; \
                     binary payloads cannot introduce new taxa"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let payload = coll
        .trees
        .iter()
        .enumerate()
        .map(|(i, tree)| {
            let mut tree = tree.clone();
            phylo_wire::remap_leaf_taxa(&mut tree, &map);
            phylo_wire::encode_tree_vec(&tree)
                .map(|bytes| phylo_wire::b64::encode(&bytes))
                .map_err(|e| CliError::from(format!("tree {i}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    phylo_obs::global()
        .histogram("wire_encode_ns", &[("encoding", "bin")])
        .record_duration(start.elapsed());
    Ok(payload)
}

/// A failed session step, with what [`Retry::run`] should do about it.
struct SessionError {
    err: CliError,
    /// The stderr note for a failure a fresh connection may cure; `None`
    /// when a resend would fail the same way.
    retry: Option<String>,
}

impl SessionError {
    /// A transport failure (connect, send, read, a truncated or malformed
    /// answer): retryable, noted as its own message.
    fn transport(message: String) -> SessionError {
        SessionError {
            retry: Some(message.clone()),
            err: message.into(),
        }
    }

    /// A typed refusal: retryable (noted as `note`) only for a `busy`
    /// shed, which the server sends before running anything.
    fn refused(code: ErrorCode, note: &str, err: CliError) -> SessionError {
        SessionError {
            retry: (code == ErrorCode::Busy).then(|| note.to_string()),
            err,
        }
    }
}

/// Client-side failures (a payload the server's namespace cannot encode)
/// would fail the same way on every connection.
impl From<CliError> for SessionError {
    fn from(err: CliError) -> SessionError {
        SessionError { err, retry: None }
    }
}

/// A typed server failure as the client reports it: `server: [outcome]
/// message`, exit 3 for the `budget` code and 1 otherwise. Only a `busy`
/// shed is retryable.
fn server_error(code: ErrorCode, outcome: Outcome, message: &str) -> SessionError {
    let err = CliError {
        message: format!("server: [{}] {message}", outcome.as_str()),
        code: server::protocol_code_to_exit(code.as_str()),
    };
    SessionError::refused(code, "server is busy", err)
}

/// One connection to a running server.
struct Session {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Whether the session ran a `hello`; only names the failure when the
    /// server hangs up.
    handshaken: bool,
}

impl Session {
    /// Connect to `addr`. No frame is sent yet.
    fn connect(addr: &str) -> Result<Session, SessionError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| SessionError::transport(format!("cannot connect to {addr}: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| {
            SessionError::transport(format!("cannot clone connection to {addr}: {e}"))
        })?;
        Ok(Session {
            addr: addr.to_string(),
            reader: BufReader::with_capacity(64 << 10, stream),
            // Batch frames run large (a 64-query frame on real trees is
            // hundreds of kilobytes); a roomy write buffer keeps each
            // frame to a few syscalls instead of dozens of 8 KB slices.
            writer: BufWriter::with_capacity(128 << 10, writer),
            handshaken: false,
        })
    }

    /// Buffer one frame; it goes out at the next [`Session::flush`] (or
    /// when the buffer fills).
    fn queue(&mut self, env: &Envelope) -> Result<(), SessionError> {
        writeln!(self.writer, "{}", env.to_json()).map_err(|e| self.send_failed(e))
    }

    /// Push every queued frame onto the wire.
    fn flush(&mut self) -> Result<(), SessionError> {
        self.writer.flush().map_err(|e| self.send_failed(e))
    }

    fn send_failed(&self, e: std::io::Error) -> SessionError {
        SessionError::transport(format!("cannot send request to {}: {e}", self.addr))
    }

    /// Read the next answer, with the id it echoes. A hang-up or an
    /// answer of no known shape is a transport failure.
    fn recv(&mut self) -> Result<(Response, Option<u64>), SessionError> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| SessionError::transport(format!("no response from {}: {e}", self.addr)))?;
        if line.trim().is_empty() {
            let when = if self.handshaken {
                "mid-session"
            } else {
                "without answering"
            };
            return Err(SessionError::transport(format!(
                "server at {} closed the connection {when}",
                self.addr
            )));
        }
        let malformed = |e: String| SessionError::transport(format!("malformed response: {e}"));
        let doc = json::parse(line.trim()).map_err(malformed)?;
        Response::from_json(&doc).map_err(malformed)
    }

    /// Send one frame and read its answer as is.
    fn ask(&mut self, env: &Envelope) -> Result<Response, SessionError> {
        self.queue(env)?;
        self.flush()?;
        Ok(self.recv()?.0)
    }

    /// Run the `hello` handshake and return the server's batch ceiling.
    /// When `encoding` asks for a non-default tree encoding the server
    /// must echo it back: an answer without the echo means the server
    /// does not speak it, and the session fails instead of sending
    /// payloads the server would mis-read as Newick.
    fn hello(&mut self, encoding: Option<WireEncoding>) -> Result<usize, SessionError> {
        self.handshaken = true;
        match self.ask(&Envelope::v2(Request::Hello { encoding }, None))? {
            Response::Hello {
                max_batch,
                encoding: echoed,
                ..
            } => match encoding {
                Some(wanted) if echoed != Some(wanted) => Err(CliError::from(format!(
                    "server at {} did not accept the {:?} tree encoding (no echo in its \
                     hello answer); upgrade the server or drop --format {}",
                    self.addr,
                    wanted.as_str(),
                    wanted.as_str()
                ))
                .into()),
                _ => Ok(max_batch),
            },
            Response::Error { code, message, .. } => {
                let m = format!("server rejected the hello handshake: {message}");
                Err(SessionError::refused(code, &m, m.clone().into()))
            }
            _ => Err(CliError::from(format!(
                "server at {} answered the hello handshake with an unexpected shape \
                 (not a v2 server?)",
                self.addr
            ))
            .into()),
        }
    }

    /// Fetch the server's taxon labels — the namespace binary payloads
    /// must be encoded in. Label order *is* id order.
    fn taxa(&mut self, collection: Option<&str>) -> Result<Vec<String>, SessionError> {
        let collection = collection.map(str::to_string);
        match self.ask(&Envelope::v2(Request::Taxa { collection }, None))? {
            Response::Taxa { labels, .. } => Ok(labels),
            Response::Error { code, message, .. } => {
                let m = format!("server cannot list its taxa: {message}");
                Err(SessionError::refused(code, &m, m.clone().into()))
            }
            _ => Err(CliError::from(format!(
                "server at {} answered the taxa request with an unexpected shape",
                self.addr
            ))
            .into()),
        }
    }
}

/// Client-side retry budget for idempotent ops: exponential backoff with
/// jitter between attempts, reset whenever a batch frame is answered (so
/// a long batch session is allowed `retries` consecutive failures, not
/// `retries` over its whole life).
///
/// Only reads (see `IDEMPOTENT_OPS`) may carry a retry budget —
/// re-sending an `add` after an ambiguous failure could apply it twice,
/// so mutations keep the fail-fast contract.
struct Retry {
    /// Remaining consecutive failures before giving up.
    left: u32,
    /// Configured budget (for the reset).
    budget: u32,
    /// Base delay; doubles per consecutive failure.
    backoff_ms: u64,
    /// Consecutive failures so far (drives the exponent).
    streak: u32,
    /// xorshift64 state for jitter.
    rng: u64,
}

impl Retry {
    fn new(retries: u32, backoff_ms: u64) -> Retry {
        Retry {
            left: retries,
            budget: retries,
            backoff_ms: backoff_ms.max(1),
            streak: 0,
            rng: u64::from(std::process::id()) | 1,
        }
    }

    /// Run `attempt` until it succeeds or fails for good. Each attempt
    /// opens its own session; a retryable failure backs off and reruns
    /// it, and an exhausted budget surfaces the failure with its usual
    /// exit code. The attempt gets the budget to [`Retry::reset`] it on
    /// progress.
    fn run<T>(
        mut self,
        mut attempt: impl FnMut(&mut Retry) -> Result<T, SessionError>,
    ) -> Result<T, CliError> {
        loop {
            match attempt(&mut self) {
                Ok(v) => return Ok(v),
                Err(SessionError {
                    retry: Some(note),
                    err,
                }) => {
                    if !self.pause(&note) {
                        return Err(err);
                    }
                }
                Err(e) => return Err(e.err),
            }
        }
    }

    /// Account one failure. When budget remains: sleep the backoff (with
    /// jitter), report the retry on stderr, and return `true`. When
    /// exhausted: return `false`.
    fn pause(&mut self, why: &str) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        // Exponential backoff, capped at 10 s per wait.
        let base = self
            .backoff_ms
            .saturating_mul(1u64 << self.streak.min(16))
            .min(10_000);
        self.streak += 1;
        // xorshift64 jitter in [0, base/2]: concurrent clients retrying
        // the same outage spread out instead of reconnecting in lockstep.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = if base >= 2 {
            self.rng % (base / 2 + 1)
        } else {
            0
        };
        let wait = base + jitter;
        eprintln!(
            "bfhrf: {why}; retrying in {wait} ms ({} retr{} left)",
            self.left,
            if self.left == 1 { "y" } else { "ies" }
        );
        std::thread::sleep(Duration::from_millis(wait));
        true
    }

    /// A request went through: restore the budget for the next failure.
    fn reset(&mut self) {
        self.left = self.budget;
        self.streak = 0;
    }
}

/// One request, one typed answer, on a fresh session per attempt. With a
/// `bin` source the session negotiates the binary encoding and re-encodes
/// the tree payload in the namespace that server reports, so a reconnect
/// re-learns it. `take` turns the answer into output; an answer it
/// refuses (`None`, the wrong shape for the op) is retried like a
/// transport failure.
fn exchange<T>(
    addr: &str,
    retry: Retry,
    mut env: Envelope,
    bin: Option<&TreeCollection>,
    take: impl Fn(Response) -> Option<T>,
) -> Result<T, CliError> {
    retry.run(|_| {
        let mut session = Session::connect(addr)?;
        if let Some(coll) = bin {
            session.hello(Some(WireEncoding::Bin))?;
            let labels = session.taxa(env.request.collection())?;
            let payload = encode_payload_bin(coll, &labels)?;
            match &mut env.request {
                Request::AvgRf { queries, .. } | Request::BestQuery { queries, .. } => {
                    *queries = payload;
                }
                Request::Add { trees, .. } | Request::Remove { trees, .. } => *trees = payload,
                _ => unreachable!("--format bin is refused for ops without trees"),
            }
        }
        let resp = match session.ask(&env)? {
            Response::Error {
                code,
                outcome,
                message,
            } => return Err(server_error(code, outcome, &message)),
            resp => resp,
        };
        take(resp).ok_or_else(|| {
            SessionError::transport(format!(
                "server answered the {} request with an unexpected shape",
                env.request.op().name()
            ))
        })
    })
}

/// `bfhrf query --batch N`: one persistent session that packs the query
/// file into `N`-query `batch` frames and keeps up to [`PIPELINE_WINDOW`]
/// frames in flight. The frames carry the `newick` payload or, with a
/// `bin` source, that source encoded in each session's namespace. The output is the same `query\tavg_rf` table
/// single-query mode prints (indices renumbered across frames), so it
/// diffs cleanly against offline `bfhrf avgrf`; the first failing frame
/// aborts the session.
///
/// With a retry budget, a dropped connection or a `busy` shed reconnects,
/// re-runs the handshake, and resends every unanswered frame. The frame
/// size is fixed by the **first** handshake, so rows land in the output
/// exactly once and the final table is byte-identical to an
/// uninterrupted run; a server that comes back with a smaller ceiling
/// fails the run instead of renumbering rows. Each answered frame
/// restores the budget.
fn batched_avgrf(
    addr: &str,
    retry: Retry,
    batch: usize,
    newick: Vec<String>,
    bin: Option<&TreeCollection>,
    flags: QueryFlags,
    collection: Option<String>,
) -> Result<CmdOutcome, CliError> {
    let total = bin.map_or(newick.len(), |c| c.trees.len());
    let mut out = String::from("query\tavg_rf\n");
    let mut notes: Vec<String> = Vec::new();
    let mut size: Option<usize> = None; // fixed by the first handshake
    let mut read = 0usize; // frames answered and rendered
    retry.run(|retry| {
        let mut session = Session::connect(addr)?;
        let max_batch = session.hello(bin.map(|_| WireEncoding::Bin))?;
        let encoded: Vec<String>;
        let items: &[String] = match bin {
            Some(coll) => {
                let labels = session.taxa(collection.as_deref())?;
                encoded = encode_payload_bin(coll, &labels)?;
                &encoded
            }
            None => &newick,
        };
        let size = *size.get_or_insert(batch.min(max_batch).max(1));
        if size > max_batch.max(1) {
            return Err(CliError::from(format!(
                "server at {addr} restarted with a smaller batch ceiling ({max_batch} < \
                 {size}); rerun the query"
            ))
            .into());
        }
        let n_frames = total.div_ceil(size);
        let mut sent = read; // everything past `read` is unanswered: resend
        while read < n_frames {
            while sent < n_frames && sent - read < PIPELINE_WINDOW {
                let lo = sent * size;
                let request = Request::Batch {
                    queries: items[lo..total.min(lo + size)].to_vec(),
                    flags,
                    collection: collection.clone(),
                };
                session.queue(&Envelope::v2(request, Some(sent as u64)))?;
                sent += 1;
            }
            session.flush()?;
            match session.recv()? {
                (
                    Response::Scores {
                        scores,
                        notes: frame_notes,
                        ..
                    },
                    Some(id),
                ) if id == read as u64 => {
                    for row in &scores {
                        let _ = writeln!(out, "{}\t{:.6}", read * size + row.index, row.avg);
                    }
                    for n in frame_notes {
                        let n = format!("server: {n}");
                        if !notes.contains(&n) {
                            notes.push(n);
                        }
                    }
                    read += 1;
                    retry.reset();
                }
                (Response::Scores { .. }, id) => {
                    return Err(SessionError::transport(format!(
                        "server answered frame {id:?} where frame {read} was expected"
                    )))
                }
                (
                    Response::Error {
                        code,
                        outcome,
                        message,
                    },
                    _,
                ) => return Err(server_error(code, outcome, &message)),
                _ => {
                    return Err(SessionError::transport(
                        "server answered a batch frame with an unexpected shape".to_string(),
                    ))
                }
            }
        }
        Ok(())
    })?;
    Ok(CmdOutcome {
        stdout: out,
        notes,
        code: EXIT_OK,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame `bfhrf query <argv>` sends, tree payloads rendered as
    /// one fixed tree.
    fn frame(argv: &[&str]) -> String {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&raw, &["normalized", "halved"]).unwrap();
        let op = a.get("op").unwrap_or("avgrf");
        let env = build_request(op, &a, |_| Ok(vec!["((A,B),(C,D));".to_string()]))
            .unwrap_or_else(|e| panic!("{argv:?}: {}", e.message));
        env.to_json().to_string()
    }

    #[test]
    fn every_op_frames_exactly_as_older_clients_did() {
        const P: &str = r#"["((A,B),(C,D));"]"#;
        let f = |s: &str| s.replace("P", P);
        let q = ["--queries", "q.nwk"];
        let t = ["--trees", "t.nwk"];
        let c = ["--collection", "c1"];
        let b = ["--format", "bin"];
        let flags = ["--normalized", "--halved"];
        let cases: Vec<(Vec<&str>, String)> = vec![
            (q.to_vec(), f(r#"{"op":"avgrf","queries":P}"#)),
            (
                [&q[..], &flags].concat(),
                f(r#"{"op":"avgrf","queries":P,"normalized":true,"halved":true}"#),
            ),
            ([&q[..], &["--halved"]].concat(), f(r#"{"op":"avgrf","queries":P,"halved":true}"#)),
            ([&q[..], &c].concat(), f(r#"{"v":2,"op":"avgrf","queries":P,"collection":"c1"}"#)),
            ([&q[..], &b].concat(), f(r#"{"v":2,"op":"avgrf","queries":P}"#)),
            (
                [&q[..], &b, &c, &flags].concat(),
                f(r#"{"v":2,"op":"avgrf","queries":P,"normalized":true,"halved":true,"collection":"c1"}"#),
            ),
            ([&["--op", "best-query"], &q[..]].concat(), f(r#"{"op":"best-query","queries":P}"#)),
            (
                [&["--op", "best-query"], &q[..], &c].concat(),
                f(r#"{"v":2,"op":"best-query","queries":P,"collection":"c1"}"#),
            ),
            (
                [&["--op", "best-query"], &q[..], &b].concat(),
                f(r#"{"v":2,"op":"best-query","queries":P}"#),
            ),
            (vec!["--op", "ping"], r#"{"v":2,"op":"ping"}"#.into()),
            ([&["--op", "ping"], &c[..]].concat(), r#"{"v":2,"op":"ping","collection":"c1"}"#.into()),
            (vec!["--op", "stats"], r#"{"op":"stats"}"#.into()),
            ([&["--op", "stats"], &c[..]].concat(), r#"{"v":2,"op":"stats","collection":"c1"}"#.into()),
            (vec!["--op", "taxa"], r#"{"v":2,"op":"taxa"}"#.into()),
            ([&["--op", "taxa"], &c[..]].concat(), r#"{"v":2,"op":"taxa","collection":"c1"}"#.into()),
            (vec!["--op", "compact"], r#"{"op":"compact"}"#.into()),
            ([&["--op", "compact"], &c[..]].concat(), r#"{"v":2,"op":"compact","collection":"c1"}"#.into()),
            (vec!["--op", "shutdown"], r#"{"op":"shutdown"}"#.into()),
            ([&["--op", "add"], &t[..]].concat(), f(r#"{"op":"add","trees":P}"#)),
            ([&["--op", "add"], &t[..], &c].concat(), f(r#"{"v":2,"op":"add","trees":P,"collection":"c1"}"#)),
            ([&["--op", "add"], &t[..], &b].concat(), f(r#"{"v":2,"op":"add","trees":P}"#)),
            ([&["--op", "remove"], &t[..]].concat(), f(r#"{"op":"remove","trees":P}"#)),
            (
                [&["--op", "remove"], &t[..], &c].concat(),
                f(r#"{"v":2,"op":"remove","trees":P,"collection":"c1"}"#),
            ),
            ([&["--op", "remove"], &t[..], &b].concat(), f(r#"{"v":2,"op":"remove","trees":P}"#)),
            (
                vec!["--op", "xavgrf", "--refs-collection", "c1", "--queries-collection", "c2"],
                r#"{"v":2,"op":"xavgrf","refs":"c1","queries":"c2"}"#.into(),
            ),
            (
                [&["--op", "xavgrf", "--refs-collection", "c1", "--queries-collection", "c2"], &flags[..]].concat(),
                r#"{"v":2,"op":"xavgrf","refs":"c1","queries":"c2","normalized":true,"halved":true}"#.into(),
            ),
            (
                vec!["--op", "catalog-create", "--name", "c9"],
                r#"{"v":2,"op":"catalog-create","name":"c9"}"#.into(),
            ),
            (
                [&["--op", "catalog-create", "--name", "c9"], &t[..]].concat(),
                f(r#"{"v":2,"op":"catalog-create","name":"c9","trees":P}"#),
            ),
            (
                vec!["--op", "catalog-drop", "--name", "c9"],
                r#"{"v":2,"op":"catalog-drop","name":"c9"}"#.into(),
            ),
            (vec!["--op", "catalog-list"], r#"{"v":2,"op":"catalog-list"}"#.into()),
        ];
        for (argv, want) in cases {
            assert_eq!(frame(&argv), want, "{argv:?}");
        }
    }
}
