//! The served workloads. Each builds a persistent index from seeded
//! reference trees, runs the daemon in-process on `127.0.0.1:0`
//! (`bfhrf_cli::server::Server`), and drives it over TCP with `proto`
//! frames from [`crate::load`].
//!
//! * `serve-newick`: single-query Newick `avgrf` frames against a small,
//!   cache-resident table. Per-frame cost dominates: JSON framing, Newick
//!   parse and socket I/O.
//! * `serve-bin-batch`: `batch` frames of 64 binary-encoded queries after
//!   `hello{"encoding":"bin"}` and `taxa`, against a large table. Parse is
//!   bypassed and framing amortized; extraction and cache-missing probes
//!   dominate.
//! * `serve-mixed`: single-query Newick reads on one connection while the
//!   other adds a held-out tree and removes it again, four writes a
//!   second, so `r` stays stationary. Every write republishes (freezes)
//!   the whole table and every remove clones the live hash for its dry run.

use crate::inputs::{self, shared, split_hashes};
use crate::layers::{self, Sweep};
use crate::load::{self, Conn, OpenLoop, Side};
use crate::stats::{self, median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{Config, Metric, Outcome, Scale};
use bfhrf::{Bfh, FrozenBfh};
use bfhrf_cli::proto::{Envelope, QueryFlags, Request, Response, ScoreRow, WireEncoding};
use bfhrf_cli::server::{ServeConfig, Server};
use phylo::{BipartitionScratch, TaxonSet};
use phylo_index::Index;
use phylo_obs::json::Json;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Newick,
    BinBatch,
    Mixed,
}

/// Offered rate `lo`, in queries per second, for the Newick reads
/// (`serve-newick` and the reads of `serve-mixed`) and for
/// `serve-bin-batch`: about a quarter of the capacity the closed-loop
/// passes measured at seed 1 (see README.md). Fixed here, never derived
/// per run, so a parent commit and a change see the same load.
pub const LO_QPS_NEWICK: f64 = 3_000.0;
pub const LO_QPS_BIN: f64 = 3_500.0;

/// Queries per `batch` frame.
const BATCH: usize = 64;
/// Writes per second on `serve-mixed`'s second connection.
const MUTATIONS_PER_S: f64 = 4.0;
/// In the traced run, every this-many-th served frame is replayed
/// in-process through the layer functions.
const REPLAY_EVERY: usize = 16;
/// A run is a fixed number of cycles (one per measured second). On
/// `serve-newick` and `serve-bin-batch` each is a window at rate `lo`
/// followed by a fixed number of closed-loop passes over the query pool,
/// so the passes sample the whole run and every run times as many.
const LO_WINDOW_S: f64 = 0.3;
const PASSES_PER_CYCLE: usize = 15;
/// Reference trees kept in a small file for the ingest/build layer sample.
const LAYER_SAMPLE: usize = 2_000;

struct Sizes {
    r: usize,
    pool: usize,
    holdout: usize,
    /// Daemon start-ups timed for `setup_s`.
    setups: usize,
}

fn sizes(kind: Kind, scale: Scale) -> Sizes {
    let (r, pool, holdout, setups) = match (kind, scale) {
        (Kind::Newick, Scale::Full) => (2_000, 512, 1, 5),
        (Kind::BinBatch, Scale::Full) => (50_000, 512, 1, 3),
        (Kind::Mixed, Scale::Full) => (16_000, 512, 32, 3),
        (Kind::Newick, Scale::Quick) => (500, 128, 1, 3),
        (Kind::BinBatch, Scale::Quick) => (2_000, 128, 1, 2),
        (Kind::Mixed, Scale::Quick) => (1_000, 128, 8, 2),
        (Kind::BinBatch, Scale::Tiny) => (50, 64, 1, 2),
        (_, Scale::Tiny) => (50, 16, 4, 2),
    };
    Sizes {
        r,
        pool,
        holdout,
        setups,
    }
}

fn frame(request: Request, id: Option<u64>) -> String {
    let env = match id {
        None => Envelope::v1(request),
        Some(_) => Envelope::v2(request, id),
    };
    env.to_json().to_string()
}

/// A daemon serving `dir` on a thread of this process.
struct Daemon {
    handle: JoinHandle<Result<u64, bfhrf_cli::CliError>>,
    addr: SocketAddr,
}

impl Daemon {
    /// Bind (index open + freeze + listen), then wait for the first `ping`.
    fn start(dir: &Path) -> Result<(Daemon, Conn), String> {
        let server = Server::bind(&ServeConfig {
            index_dir: dir.to_path_buf(),
            addr: "127.0.0.1:0".into(),
            threads: 4,
            mem_budget: None,
            timeout_ms: None,
            catalog_dir: None,
        })
        .map_err(|e| format!("serve: {}", e.message))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut conn = Conn::connect(addr)?;
        match conn.request(&frame(Request::Ping { collection: None }, Some(0)))? {
            Response::Pong { .. } => Ok((Daemon { handle, addr }, conn)),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    fn stop(self, conn: &mut Conn) -> Result<(), String> {
        match conn.request(&frame(Request::Shutdown, None))? {
            Response::Shutdown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {}", e.message)),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Start the daemon `reps` times, timing each start-up; keep the last one.
fn setup(dir: &Path, reps: usize) -> Result<(Daemon, Conn, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    loop {
        let t = Instant::now();
        let (daemon, mut conn) = Daemon::start(dir)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return Ok((daemon, conn, times));
        }
        daemon.stop(&mut conn)?;
    }
}

fn stats_doc(conn: &mut Conn) -> Result<Json, String> {
    match conn.request(&frame(Request::Stats { collection: None }, Some(0)))? {
        Response::Stats { metrics, .. } => Ok(metrics),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// Switch a connection to binary tree payloads and confirm the daemon's
/// namespace is the one the pool was encoded in.
fn negotiate_bin(conn: &mut Conn, taxa: &TaxonSet) -> Result<(), String> {
    let hello = Request::Hello {
        encoding: Some(WireEncoding::Bin),
    };
    match conn.request(&frame(hello, Some(0)))? {
        Response::Hello {
            encoding: Some(WireEncoding::Bin),
            ..
        } => {}
        other => return Err(format!("hello answered {other:?}")),
    }
    match conn.request(&frame(Request::Taxa { collection: None }, Some(0)))? {
        Response::Taxa { labels, .. } if labels.iter().map(String::as_str).eq(labels_of(taxa)) => {
            Ok(())
        }
        other => Err(format!("taxa answered {other:?}")),
    }
}

fn labels_of(taxa: &TaxonSet) -> impl Iterator<Item = &str> {
    taxa.iter().map(|(_, label)| label)
}

/// The index, the query pool in both encodings, and the answers the
/// daemon must give, computed in-process before it starts.
struct Prepared {
    held: inputs::Heldout,
    /// The daemon's table, opened zero-copy from the index's frozen
    /// sidecar: the reference answers, the replay and the sweep read it.
    frozen: std::sync::Arc<FrozenBfh>,
    taxa: std::sync::Arc<TaxonSet>,
    /// Content digest of the hash the index was created from.
    digest: u64,
    newick: Vec<String>,
    bin: Vec<String>,
    /// Per pool query, and per held-out tree: sorted split hashes.
    hashes: Vec<Vec<u128>>,
    holdout_hashes: Vec<Vec<u128>>,
    /// Per pool query: the daemon's answer for it alone.
    rows: Vec<ScoreRow>,
}

fn prepare(kind: Kind, cfg: &Config, dir: &Path, sample: &Path) -> Result<Prepared, String> {
    let sz = sizes(kind, cfg.scale);
    let mut bfh: Option<Bfh> = None;
    let mut scratch = BipartitionScratch::new();
    let mut sample_text = String::new();
    let shards = crate::shards();
    let held = inputs::generate(cfg.seed, sz.r, sz.pool, sz.holdout, |i, tree, taxa| {
        bfh.get_or_insert_with(|| Bfh::empty_sharded(taxa.len(), shards))
            .add_tree_with(tree, taxa, &mut scratch);
        if cfg.trace && i < LAYER_SAMPLE {
            sample_text.push_str(&phylo::write_newick(tree, taxa));
            sample_text.push('\n');
        }
    });
    if cfg.trace {
        std::fs::write(sample, sample_text).map_err(|e| format!("{}: {e}", sample.display()))?;
    }
    let bfh = bfh.ok_or("no reference trees")?;
    let digest = layers::content_digest(&bfh);
    Index::create(dir, bfh, held.taxa.clone()).map_err(|e| format!("index create: {e}"))?;
    let open = Index::open_frozen(dir).map_err(|e| format!("index open: {e}"))?;
    if !labels_of(&open.taxa).eq(labels_of(&held.taxa)) {
        return Err("the index namespace differs from the generated one".into());
    }
    let newick: Vec<String> = held
        .pool
        .iter()
        .map(|q| phylo::write_newick(q, &held.taxa))
        .collect();
    let bin: Vec<String> = held
        .pool
        .iter()
        .map(layers::encode_bin)
        .collect::<Result<_, _>>()?;
    let mut splits = |trees: &[phylo::Tree]| -> Vec<Vec<u128>> {
        trees
            .iter()
            .map(|t| split_hashes(t, &open.taxa, &mut scratch))
            .collect()
    };
    let hashes = splits(&held.pool);
    let holdout_hashes = splits(&held.holdout);
    let rows = held
        .pool
        .iter()
        .map(|q| layers::row(0, open.frozen.average_scratch(q, &open.taxa, &mut scratch)))
        .collect();
    Ok(Prepared {
        held,
        frozen: open.frozen,
        taxa: open.taxa,
        digest,
        newick,
        bin,
        hashes,
        holdout_hashes,
        rows,
    })
}

/// The workload's read frames and, per frame, the rows it must be
/// answered with.
fn read_frames(kind: Kind, p: &Prepared) -> (Vec<String>, Vec<Vec<ScoreRow>>) {
    if kind == Kind::BinBatch {
        p.bin
            .chunks(BATCH)
            .enumerate()
            .map(|(j, chunk)| {
                let request = Request::Batch {
                    queries: chunk.to_vec(),
                    flags: QueryFlags::default(),
                    collection: None,
                };
                let rows = p.rows[j * BATCH..j * BATCH + chunk.len()]
                    .iter()
                    .enumerate()
                    .map(|(k, row)| ScoreRow {
                        index: k,
                        ..row.clone()
                    })
                    .collect();
                (frame(request, Some(j as u64)), rows)
            })
            .unzip()
    } else {
        p.newick
            .iter()
            .zip(&p.rows)
            .map(|(q, row)| (layers::avgrf_frame(q), vec![row.clone()]))
            .unzip()
    }
}

/// `add`/`remove` frames for mutations `from..from + n`: mutation `m`
/// adds held-out tree `m / 2` when even and removes it again when odd.
fn mutation_frames(p: &Prepared, from: usize, n: usize) -> Vec<String> {
    (from..from + n)
        .map(|m| {
            let tree = phylo::write_newick(
                &p.held.holdout[(m / 2) % p.held.holdout.len()],
                &p.held.taxa,
            );
            let trees = vec![tree];
            frame(
                if m % 2 == 0 {
                    Request::Add {
                        trees,
                        collection: None,
                    }
                } else {
                    Request::Remove {
                        trees,
                        collection: None,
                    }
                },
                None,
            )
        })
        .collect()
}

/// The answer to pool query `q` from the snapshot a mutation stream has
/// published as `snap`: even snapshots hold the reference set, odd ones
/// also the held-out tree the latest `add` inserted.
fn answer_at(p: &Prepared, q: usize, snap: u64) -> ScoreRow {
    let base = &p.rows[q];
    if snap.is_multiple_of(2) {
        return base.clone();
    }
    // One more reference tree h: its splits add to the table's sum, and
    // the splits q shares with h each gain one occurrence.
    let h = &p.holdout_hashes[((snap as usize - 1) / 2) % p.holdout_hashes.len()];
    let common = shared(&p.hashes[q], h);
    layers::row(
        0,
        bfhrf::RfAverage {
            left: base.left + h.len() as u64 - common,
            right: base.right + p.hashes[q].len() as u64 - common,
            n_refs: base.n_refs + 1,
        },
    )
}

fn expect_rows(resp: &Response, want: &[ScoreRow]) -> Result<(), String> {
    match resp {
        Response::Scores { scores, .. } if scores == want => Ok(()),
        other => Err(format!("wrong answer {other:?}, expected rows {want:?}")),
    }
}

/// Checks reads; on `serve-mixed` the expected rows follow the snapshot
/// the answer reports.
fn read_check<'a>(
    kind: Kind,
    p: &'a Prepared,
    answers: &'a [Vec<ScoreRow>],
) -> impl Fn(usize, &Response) -> Result<(), String> + Sync + 'a {
    move |i, resp| {
        let j = i % answers.len();
        match (kind, resp) {
            (Kind::Mixed, Response::Scores { snap, .. }) => {
                expect_rows(resp, &[answer_at(p, j, *snap)])
            }
            _ => expect_rows(resp, &answers[j]),
        }
    }
}

/// Checks the `applied` answers of mutations `from..`.
fn side_check(r: usize, from: usize) -> impl Fn(usize, &Response) -> Result<(), String> + Sync {
    move |k, resp| {
        let want = r + usize::from((from + k).is_multiple_of(2));
        match resp {
            Response::Applied {
                applied: 1,
                n_trees,
            } if *n_trees == want => Ok(()),
            other => Err(format!(
                "mutation {} answered {other:?}, expected {want} trees",
                from + k
            )),
        }
    }
}

/// An even number of mutations for `secs` at the write rate, at least one
/// add/remove pair, so every stream leaves the table as it found it.
fn mutation_count(secs: f64) -> usize {
    2 * ((MUTATIONS_PER_S * secs / 2.0).round() as usize).max(1)
}

pub fn run(kind: Kind, cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.work.join("index");
    let sample = cfg.work.join("sample.nwk");
    let p = prepare(kind, cfg, &dir, &sample)?;
    let (frames, answers) = read_frames(kind, &p);
    let qpf = if kind == Kind::BinBatch { BATCH } else { 1 };
    let lo_qps = if kind == Kind::BinBatch {
        LO_QPS_BIN
    } else {
        LO_QPS_NEWICK
    };
    let rate = lo_qps / qpf as f64;
    let lines: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| format!("{f}\n").into_bytes())
        .collect();
    let check = read_check(kind, &p, &answers);
    let r = sizes(kind, cfg.scale).r;
    let mut notes = vec![format!(
        "r={r} distinct={} table={:.1} MB pool={} frames={} x {qpf} queries, lo={lo_qps} q/s",
        p.frozen.distinct(),
        p.frozen.approx_bytes() as f64 / 1e6,
        p.newick.len(),
        frames.len()
    )];

    let baseline = crate::heap_baseline();
    let reps = if cfg.trace {
        1
    } else {
        sizes(kind, cfg.scale).setups
    };
    let (daemon, mut a, setups) = setup(&dir, reps)?;
    if kind == Kind::BinBatch {
        negotiate_bin(&mut a, &p.taxa)?;
    }
    // Warm-up: one closed-loop pass (a slice of the pool on serve-mixed,
    // whose reads must stay at snapshot 0 until the writes start).
    let warm = if kind == Kind::Mixed {
        &lines[..lines.len().min(64)]
    } else {
        &lines[..]
    };
    load::pass(&mut a, warm, &check)?;
    let addr = daemon.addr;
    let lo_phase = |a: &mut Conn,
                    secs: f64,
                    first_mutation: usize,
                    replay: Option<(load::Replay<'_>, usize, Instant)>|
     -> Result<OpenLoop, String> {
        if kind != Kind::Mixed {
            return load::open_loop(a, &frames, rate, secs, &check, replay, None);
        }
        let n = mutation_count(secs);
        let muts = mutation_frames(&p, first_mutation, n);
        let side = Side {
            conn: Conn::connect(addr)?,
            frames: &muts,
            rate: MUTATIONS_PER_S,
            n,
            check: &side_check(r, first_mutation),
        };
        load::open_loop(a, &frames, rate, secs, &check, replay, Some(side))
    };

    // Each cycle: reads at `lo`, in a traced run followed by a second
    // window whose every REPLAY_EVERY-th answered frame is replayed
    // in-process under spans (so traced and untraced windows see the same
    // host conditions); then, except on serve-mixed, closed-loop passes
    // over the query pool. On serve-mixed the writes run beside every read
    // window and there are no passes. The job behind `wall_s`: on
    // serve-mixed one add/remove pair (r one step up and back again),
    // otherwise one pass.
    let cycles = crate::jobs(cfg.seconds, 1.0);
    let window = match (kind, cfg.trace) {
        (Kind::Mixed, false) => cfg.seconds / cycles as f64,
        (Kind::Mixed, true) => cfg.seconds / cycles as f64 / 2.0,
        _ => LO_WINDOW_S,
    };
    let writes = if kind == Kind::Mixed {
        mutation_count(window)
    } else {
        0
    };
    let origin = Instant::now();
    let mut runs = TracedRuns {
        untraced: OpenLoop::default(),
        traced: OpenLoop::default(),
        stats: [Json::Null, Json::Null],
        spans: Vec::new(),
        origin,
    };
    if cfg.trace {
        runs.stats[0] = stats_doc(&mut a)?;
    }
    let mut floors = Vec::new();
    let mut jobs = Vec::new();
    let mut scratch = BipartitionScratch::new();
    let bin = kind == Kind::BinBatch;
    let mut first = 0;
    for c in 0..cycles {
        let w = lo_phase(&mut a, window, first, None)?;
        first += writes;
        for pair in w.side_lat_ms.chunks_exact(2) {
            let secs = [pair[0] / 1e3, pair[1] / 1e3];
            crate::lower_floors(&mut floors, &secs);
            jobs.push(secs.iter().sum());
        }
        runs.untraced.absorb(w);
        if cfg.trace {
            let mut replay = |i: usize, t: &mut Tracer| {
                let req = (c as u64) << 32 | i as u64;
                let f = &frames[i % frames.len()];
                layers::replay_frame(t, req, f, bin, &p.frozen, &p.taxa, &mut scratch);
            };
            let replay: load::Replay<'_> = &mut replay;
            let mut w = lo_phase(&mut a, window, first, Some((replay, REPLAY_EVERY, origin)))?;
            first += writes;
            runs.spans.extend(w.tracer.take().map(|t| t.spans));
            runs.traced.absorb(w);
        }
        if kind != Kind::Mixed {
            for _ in 0..PASSES_PER_CYCLE {
                let rtts = load::pass(&mut a, &lines, &check)?;
                crate::lower_floors(&mut floors, &rtts);
                jobs.push(rtts.iter().sum());
            }
        }
    }
    let wall = Metric::new("wall_s", "s", floors.iter().sum(), jobs.len());
    let pass_frames = if kind == Kind::Mixed {
        0
    } else {
        (jobs.len() * lines.len()) as u64
    };
    if kind == Kind::Mixed {
        let muts = sorted(runs.untraced.side_lat_ms.clone());
        let tail = stats::tail_percentile(muts.len()).unwrap_or(50.0);
        notes.push(format!(
            "writes: n={} p50={:.1} ms p{tail}={:.1} ms (one admin client, {MUTATIONS_PER_S}/s)",
            muts.len(),
            percentile(&muts, 50.0),
            percentile(&muts, tail)
        ));
        notes.push(crate::spread_note("add/remove pairs", &jobs));
    } else {
        notes.push(format!(
            "capacity: {:.0} q/s at wall_s, {:.0} q/s at the median pass",
            p.newick.len() as f64 / wall.value,
            p.newick.len() as f64 / median(&jobs)
        ));
        notes.push(crate::spread_note("passes", &jobs));
    }
    if cfg.trace {
        runs.stats[1] = stats_doc(&mut a)?;
        daemon.stop(&mut a)?;
        let mut out = traced(kind, cfg, &p, &frames, &answers, runs, &dir, &sample, notes)?;
        out.metrics.push(wall);
        out.attempted += pass_frames;
        return Ok(out);
    }
    daemon.stop(&mut a)?;
    let peak = crate::peak_heap_mb(baseline);
    if kind == Kind::Mixed {
        check_digest(&dir, p.digest)?;
    }
    let lo = runs.untraced;
    notes.push(format!("wall_s={:.6} s (n={})", wall.value, wall.samples));
    notes.push(crate::spread_note("set-ups", &setups));
    notes.push(client_note(&lo));
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", "s", median(&setups), setups.len()),
            Metric::new("peak_heap_mb", "MB", peak, 1),
        ],
        attempted: lo.attempted + pass_frames,
        failed: lo.failed,
        notes,
        trace: None,
    })
}

fn client_note(lo: &OpenLoop) -> String {
    let lat = sorted(lo.lat_ms.clone());
    let late = sorted(lo.late_ms.clone());
    let tail = stats::tail_percentile(lat.len()).unwrap_or(50.0);
    format!(
        "open loop: n={} p50={:.3} ms p{tail}={:.3} ms; client.gen_late_p99_ms={:.3}",
        lat.len(),
        percentile(&lat, 50.0),
        percentile(&lat, tail),
        percentile(&late, 99.0)
    )
}

/// After `serve-mixed`, the index must hold exactly what it started with.
fn check_digest(dir: &Path, want: u64) -> Result<(), String> {
    let index = Index::open(dir).map_err(|e| format!("reopen: {e}"))?;
    same_digest(&index, want)
}

fn same_digest(index: &Index, want: u64) -> Result<(), String> {
    let got = layers::content_digest(index.bfh());
    if got != want {
        return Err(format!(
            "index digest {got:#x} after the run, {want:#x} before"
        ));
    }
    Ok(())
}

/// The untraced and traced windows of a traced run, the replay spans of
/// each traced window, and the daemon's metrics before and after.
struct TracedRuns {
    untraced: OpenLoop,
    traced: OpenLoop,
    stats: [Json; 2],
    spans: Vec<Vec<trace::Span>>,
    origin: Instant,
}

/// The daemon's own view of a run, from its `stats` histograms.
fn server_view(before: &Json, after: &Json, op: &str, enc: &str) -> Vec<(String, f64)> {
    let hist = |name: &str, labels: &[(&str, &str)]| {
        let of = |doc: &Json| {
            stats::find_series(doc, name, labels)
                .map(stats::histogram_of)
                .unwrap_or(phylo_obs::HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    max: 0,
                    buckets: [0; phylo_obs::N_BUCKETS],
                })
        };
        stats::histogram_delta(&of(before), &of(after))
    };
    let counter = |name: &str| {
        let of = |doc: &Json| {
            stats::find_series(doc, name, &[])
                .and_then(|s| s.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        of(after) - of(before)
    };
    let us = |h: phylo_obs::HistogramSnapshot, q: f64| h.quantile(q) / 1e3;
    vec![
        (
            format!("server.request_p50_us.{op}"),
            us(hist("serve_request_ns", &[("op", op)]), 0.5),
        ),
        (
            format!("server.request_p99_us.{op}"),
            us(hist("serve_request_ns", &[("op", op)]), 0.99),
        ),
        (
            format!("server.decode_p50_us.{enc}"),
            us(hist("wire_decode_ns", &[("encoding", enc)]), 0.5),
        ),
        (
            "server.snapshot_wait_p99_us".into(),
            us(hist("serve_queue_wait_ns", &[("lock", "snapshot")]), 0.99),
        ),
        (
            "server.admin_wait_p99_us".into(),
            us(hist("serve_queue_wait_ns", &[("lock", "admin")]), 0.99),
        ),
        (
            "server.pipeline_depth_p50".into(),
            hist("serve_pipeline_depth", &[]).quantile(0.5),
        ),
        ("server.swaps".into(), counter("serve_snapshot_swaps_total")),
        (
            "index.freeze_p50_ms".into(),
            hist("index_freeze_ns", &[]).quantile(0.5) / 1e6,
        ),
    ]
}

/// The per-layer report of a traced serve run.
#[allow(clippy::too_many_arguments)]
fn traced(
    kind: Kind,
    cfg: &Config,
    p: &Prepared,
    frames: &[String],
    answers: &[Vec<ScoreRow>],
    runs: TracedRuns,
    dir: &Path,
    sample: &Path,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    let mut t = Tracer::new(runs.origin);
    let (mut index, open) = layers::open_index(dir, &mut t)?;
    if kind == Kind::Mixed {
        same_digest(&index, p.digest)?;
    }
    let mut metrics = layers::mutation_layers(&mut index, &p.held.holdout[0], &mut t)?;
    metrics.push(open);
    drop(index);
    metrics.extend(layers::ingest_and_build(sample, &mut t)?);
    let sweep = Sweep {
        frozen: &p.frozen,
        taxa: &p.taxa,
        newick: &p.newick,
        bin: &p.bin,
        frames,
        answers,
    };
    metrics.extend(layers::sweep(&sweep, &mut t, cfg.seconds * 0.1));

    let replay_spans = trace::merge(runs.spans);
    let coverage = trace::coverage(&replay_spans, "request");
    let replays = replay_spans.iter().filter(|s| s.name == "request").count();
    let p50 = |lo: &OpenLoop| percentile(&sorted(lo.lat_ms.clone()), 50.0);
    let overhead = p50(&runs.traced) / p50(&runs.untraced) - 1.0;
    let (op, enc) = match kind {
        Kind::BinBatch => ("batch", "bin"),
        _ => ("avgrf", "newick"),
    };
    let view = server_view(&runs.stats[0], &runs.stats[1], op, enc);
    let residual = p50(&runs.untraced) * 1e3 - view[0].1;
    notes.push(client_note(&runs.untraced));
    notes.push(format!(
        "daemon: {}; net.residual_us={residual:.1}",
        view.iter()
            .map(|(k, v)| format!("{k}={v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let lat = sorted(runs.untraced.lat_ms.clone());
    metrics.extend([
        Metric::new("lat.p50_ms.lo", "ms", percentile(&lat, 50.0), lat.len()),
        Metric::new("lat.p99_ms.lo", "ms", percentile(&lat, 99.0), lat.len()),
        Metric::new("trace.coverage", "ratio", coverage, replays),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            overhead,
            runs.traced.lat_ms.len(),
        ),
    ]);
    let spans = trace::merge(vec![replay_spans, t.spans]);
    let doc = Json::obj(vec![
        ("workload", kind_name(kind).into()),
        ("seed", cfg.seed.into()),
        (
            "server",
            Json::Obj(view.into_iter().map(|(k, x)| (k, x.into())).collect()),
        ),
        (
            "client",
            Json::obj(vec![
                ("untraced_p50_ms", p50(&runs.untraced).into()),
                ("traced_p50_ms", p50(&runs.traced).into()),
                ("net.residual_us", residual.into()),
                (
                    "gen_late_p99_ms",
                    percentile(&sorted(runs.untraced.late_ms.clone()), 99.0).into(),
                ),
            ]),
        ),
        ("spans", trace::to_json(&spans)),
    ]);
    Ok(Outcome {
        metrics,
        attempted: runs.untraced.attempted + runs.traced.attempted,
        failed: runs.untraced.failed + runs.traced.failed,
        notes,
        trace: Some(doc),
    })
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Newick => "serve-newick",
        Kind::BinBatch => "serve-bin-batch",
        Kind::Mixed => "serve-mixed",
    }
}
