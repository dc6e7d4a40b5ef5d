//! The `bfhrf serve` daemon: newline-delimited JSON over TCP, wire
//! protocol v2.
//!
//! # Protocol
//!
//! One request per line, one response per line, UTF-8 JSON both ways; the
//! typed surface (ops, payloads, error codes, versions) lives in
//! [`crate::proto`] and is shared with the `bfhrf query` client. A
//! connection may carry any number of requests, and any number may be in
//! flight at once (pipelining) — responses always come back in request
//! order. Version-1 frames (no `"v"` member) are the exact dialect the
//! pre-v2 daemon spoke and keep working unchanged; v2 adds the `hello`
//! handshake, the `batch` op, and optional `id` correlation:
//!
//! ```text
//! → {"v":2,"op":"hello"}
//! ← {"ok":true,"v":2,"max_batch":4096}
//! → {"v":2,"op":"batch","id":1,"queries":["((A,B),(C,D));",...]}
//! ← {"ok":true,"id":1,"n_taxa":4,"generation":0,"snap":0,"scores":[...],"notes":[]}
//! → {"op":"avgrf","queries":["((A,B),(C,D));"]}              (v1 dialect)
//! ← {"ok":true,"n_taxa":4,"generation":0,"snap":0,"scores":[...],"notes":[]}
//! → {"op":"stats"}  /  {"op":"add","trees":[...]}  /  {"op":"compact"}
//! → {"op":"shutdown"}
//! ← {"ok":true,"shutdown":true}
//! ```
//!
//! Failures: `{"ok":false,"code":"error"|"budget"|"busy","outcome":
//! "error"|"budget"|"cancelled"|"busy","error":"..."}` — the `budget`
//! code marks per-request resource refusals (`--mem-budget`,
//! `--timeout-ms`), which clients map to exit code 3; `busy` marks a
//! connection shed at the slot ceiling and is safe to retry after a
//! backoff. Score responses carry the `generation` and `snap` of the
//! snapshot that answered: every row of a `batch` comes from **one**
//! snapshot, even if an admin mutation lands mid-batch. The v2 `ping` op
//! answers a health summary (generation, WAL depth, uptime) without ever
//! taking the admin lock, so it stays responsive under mutation load.
//!
//! # Connection engine
//!
//! One acceptor thread owns the listener and hands each accepted socket to
//! its own scoped handler thread, bounded by a slot count (`--threads`).
//! When every slot is taken the daemon **sheds** the excess connection
//! with a typed `busy` frame and closes it — overload is a loud, typed,
//! retryable signal instead of unbounded queueing behind a parked
//! acceptor. Each handler owns a per-connection arena — read
//! buffer, write buffer, and a reusable [`BipartitionScratch`] that each
//! Newick query is lexed into, straight to its split masks, with no tree
//! built. Responses are buffered and only flushed when the connection
//! has no further complete frame already readable, which collapses a
//! pipelined burst of N requests into ~one write syscall (depth is
//! recorded in `serve_pipeline_depth`).
//!
//! Queries run on an immutable `Arc` snapshot of the probe-optimized
//! [`bfhrf::FrozenBfh`]: a reader takes the snapshot lock only long enough
//! to clone the `Arc`, so queries never block behind an admin mutation —
//! writers (`add`/`remove`/`compact`) mutate the [`Index`] under its own
//! mutex, then publish a fresh [`QueryView`]: the same frozen lanes with
//! the writes since they froze as a small delta ([`Index::frozen`]), not a
//! refreeze. In-flight requests keep answering from the view they started
//! with.
//!
//! On a clean index, bind publishes the memory-mapped frozen sidecar as the
//! first snapshot and leaves the [`Index`] unopened, so a daemon that only
//! reads never reads the splits into its heap. The first write opens it,
//! timed in `serve_index_load_ns`; that open cross-checks the snapshot
//! against the same sidecar and keeps it as its only table, so a daemon
//! that writes builds no hash either.
//!
//! Shutdown does not poll and does not need the old
//! one-connection-per-worker unpark hack: the shutdown path half-closes
//! every registered connection (blocked readers wake with EOF), notifies
//! the slot condvar, and makes a single wake connection to unpark the
//! acceptor. The drain is graceful: a half-closed reader first exhausts
//! the complete frames already buffered in its `BufReader`, so a
//! pipelined client gets an answer for every frame the server had
//! received before the half-close, then a clean EOF.
//!
//! A poisoned lock (a handler thread panicked while holding it) is
//! recovered, not propagated: the guarded structures stay consistent
//! across panics (mutations roll back; publications are whole-`Arc`
//! swaps), so the daemon counts the event in
//! `serve_lock_recoveries_total` and keeps serving instead of cascading
//! the panic into every other connection.

use crate::json::Json;
use crate::proto::{
    self, CatalogRow, Envelope, ErrorCode, Op, Outcome, Request, Response, ScoreRow, StatsBody,
    WireEncoding, MAX_BATCH, PROTO_VERSION,
};
use crate::{CliError, EXIT_BUDGET, EXIT_ERROR};
use bfhrf::{Comparator, CoreError, FrozenComparator, RunBudget, RunGuard, SplitChunk};
use phylo::{parse_newick_readonly, BipartitionScratch, TaxonSet, Tree};
use phylo_index::{
    Catalog, Index, IndexError, IndexStats, PinnedCollection, QueryView, DEFAULT_COLLECTION,
};
use phylo_obs::{expose, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Longest accepted request line (bytes) — bounds what a hostile client
/// can make a handler buffer.
const MAX_REQUEST_BYTES: usize = 32 << 20;
/// A connection that sends nothing for this long is dropped, so an idle
/// client cannot pin a connection slot forever. Also the socket read
/// timeout — reads block the full window (shutdown interrupts them through
/// the connection registry, not by polling).
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
/// Requests with at most this many queries score sequentially on the
/// handler thread through the connection arena; larger ones fan out on the
/// shared rayon pool. Small enough that concurrent connections don't fight
/// over the pool for everyday requests.
const PARALLEL_QUERY_THRESHOLD: usize = 8;
/// Per-connection socket buffer sizes. Batch frames run to hundreds of
/// kilobytes (64 insect-preset queries ≈ 430 KB), so the stock 8 KB
/// `BufReader` would cost ~50 read syscalls per frame; 128 KB keeps that
/// in the single digits. The write side carries ~5 KB score frames —
/// 64 KB lets a pipelined burst of responses coalesce into one flush.
const CONN_READ_BUF: usize = 128 << 10;
const CONN_WRITE_BUF: usize = 64 << 10;

/// Everything `bfhrf serve` needs to come up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Index directory (created by `bfhrf index build`).
    pub index_dir: PathBuf,
    /// Bind address, e.g. `127.0.0.1:4077` (`:0` picks a free port).
    pub addr: String,
    /// Maximum concurrent connections (each gets its own handler thread).
    pub threads: usize,
    /// Per-request allocation budget in bytes. Doubles as the catalog's
    /// open-collection pool budget when `catalog_dir` is set.
    pub mem_budget: Option<usize>,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Catalog root for multi-collection serving (`--catalog`). `None`
    /// hosts only the default index, exactly like the pre-catalog daemon.
    pub catalog_dir: Option<PathBuf>,
}

/// The immutable state queries read: a [`QueryView`] (frozen hash + taxa +
/// generation) plus this daemon's monotone swap id, published atomically
/// as a unit. `generation` only moves on compaction; `snap` bumps on every
/// publication, so a batch can prove "one snapshot" even across
/// non-compacting mutations.
struct SnapView {
    view: QueryView,
    snap: u64,
}

/// Metric handles the daemon touches per request, resolved once at bind
/// time so the request path never takes the registry lock. Every
/// op × outcome series is pre-registered, which also pins the `stats`
/// schema: all combinations appear (zero-valued) from the first snapshot.
struct ServeMetrics {
    latency: [Histogram; Op::ALL.len()],
    outcomes: [[Counter; Outcome::ALL.len()]; Op::ALL.len()],
    admin_wait: Histogram,
    snap_wait: Histogram,
    batch_size: Histogram,
    pipeline_depth: Histogram,
    conns_active: Gauge,
    conns_total: Counter,
    swaps: Counter,
    busy_rejections: Counter,
    lock_recoveries: Counter,
    /// Tree-payload frames by negotiated encoding.
    wire_frames: [Counter; WireEncoding::ALL.len()],
    /// Time turning one frame's tree payloads into [`Tree`]s (Newick parse
    /// or binary decode), by encoding.
    wire_decode: [Histogram; WireEncoding::ALL.len()],
    /// Time encoding trees for the wire, by encoding. The daemon never
    /// encodes tree payloads itself — the series is pre-registered so the
    /// `stats` schema is the same one the client-side tooling records into.
    #[allow(dead_code)]
    wire_encode: [Histogram; WireEncoding::ALL.len()],
    /// Time the first write spent opening the index a read-only bind left
    /// unopened — why that one write was slow.
    index_load: Histogram,
}

impl ServeMetrics {
    fn resolve() -> ServeMetrics {
        phylo_index::register_index_metrics();
        let reg = phylo_obs::global();
        ServeMetrics {
            latency: std::array::from_fn(|i| {
                reg.histogram("serve_request_ns", &[("op", Op::ALL[i].name())])
            }),
            outcomes: std::array::from_fn(|i| {
                std::array::from_fn(|j| {
                    reg.counter(
                        "serve_requests_total",
                        &[
                            ("op", Op::ALL[i].name()),
                            ("outcome", Outcome::ALL[j].as_str()),
                        ],
                    )
                })
            }),
            admin_wait: reg.histogram("serve_queue_wait_ns", &[("lock", "admin")]),
            snap_wait: reg.histogram("serve_queue_wait_ns", &[("lock", "snapshot")]),
            batch_size: reg.histogram("serve_batch_size", &[]),
            pipeline_depth: reg.histogram("serve_pipeline_depth", &[]),
            conns_active: reg.gauge("serve_connections_active", &[]),
            conns_total: reg.counter("serve_connections_total", &[]),
            swaps: reg.counter("serve_snapshot_swaps_total", &[]),
            busy_rejections: reg.counter("serve_busy_rejections_total", &[]),
            lock_recoveries: reg.counter("serve_lock_recoveries_total", &[]),
            wire_frames: std::array::from_fn(|i| {
                reg.counter(
                    "wire_frames_total",
                    &[("encoding", WireEncoding::ALL[i].as_str())],
                )
            }),
            wire_decode: std::array::from_fn(|i| {
                reg.histogram(
                    "wire_decode_ns",
                    &[("encoding", WireEncoding::ALL[i].as_str())],
                )
            }),
            wire_encode: std::array::from_fn(|i| {
                reg.histogram(
                    "wire_encode_ns",
                    &[("encoding", WireEncoding::ALL[i].as_str())],
                )
            }),
            index_load: reg.histogram("serve_index_load_ns", &[]),
        }
    }

    fn count(&self, op: Op, outcome: Outcome) {
        self.outcomes[op.index()][Outcome::ALL.iter().position(|&o| o == outcome).unwrap_or(1)]
            .inc();
    }
}

/// Connection-slot bookkeeping. The acceptor claims a slot per accepted
/// socket and sheds the connection with a typed `busy` frame when none is
/// free; handlers return their slot (and notify) on exit. The condvar
/// remains for anything parked on slot availability (tests, future
/// waiters) and is notified by the shutdown path.
struct ConnSlots {
    free: Mutex<usize>,
    freed: Condvar,
}

/// The default index's write state, behind the admin mutex. A daemon bound
/// through the frozen sidecar serves reads from the mapped table and opens
/// the index only when a write needs it.
enum Admin {
    /// Bound read-only: `stats` answers from the snapshot header, and the
    /// first `add`/`remove`/`compact` opens the index (see [`open_index`]).
    Unopened {
        dir: PathBuf,
        stats: IndexStats,
    },
    Open(Index),
}

impl Admin {
    /// The counters `stats` reports; refreshes the index gauges either way.
    fn stats(&self) -> IndexStats {
        match self {
            Admin::Open(index) => index.stats(),
            Admin::Unopened { stats, .. } => {
                stats.publish_gauges();
                *stats
            }
        }
    }
}

struct ServeState {
    snap: RwLock<Arc<SnapView>>,
    admin: Mutex<Admin>,
    shutdown: AtomicBool,
    served: AtomicU64,
    /// When the listener came up, for `ping` uptime.
    started: Instant,
    /// WAL records since the last compaction, mirrored out of the admin
    /// index on every mutation so `ping` never queues behind admin work.
    wal_pending: AtomicU64,
    mem_budget: Option<usize>,
    timeout_ms: Option<u64>,
    /// Live connections by id; shutdown walks this and half-closes each
    /// socket so blocked readers wake immediately.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Monotone snapshot-publication counter (`snap` in score responses).
    snap_seq: AtomicU64,
    slots: ConnSlots,
    /// Configured slot ceiling (`--threads`), reported in `busy` frames.
    max_conns: usize,
    /// The multi-collection catalog, when the daemon was started with
    /// `--catalog`. Resolution and admin run under this mutex; scoring
    /// runs against per-collection cells after it is released.
    catalog: Option<Mutex<Catalog>>,
    /// Catalog size and open-pool size, mirrored out of the catalog on
    /// every catalog-touching op so v2 `ping` stays lock-free.
    catalog_size: AtomicU64,
    catalog_open: AtomicU64,
    metrics: ServeMetrics,
}

/// Where a request's index ops land: the daemon's default index (the
/// legacy single-index paths, byte-for-byte unchanged) or a pinned
/// catalog collection. The pin lives as long as the target, so a
/// collection serving an in-flight request is never evicted.
enum Target {
    Default,
    Named(PinnedCollection),
}

/// Recover a possibly-poisoned lock guard. Poison means some handler
/// panicked while holding the lock; every structure we guard stays
/// consistent across a panic (index mutations validate up front and roll
/// back on failure, snapshot publication is a whole-`Arc` swap, the slot
/// count and connection registry are single-statement updates), so the
/// right move is to count the event and keep the daemon serving — one
/// connection dies with the panic, not all of them.
fn recover_lock<G>(state: &ServeState, result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(|poisoned| {
        state.metrics.lock_recoveries.inc();
        poisoned.into_inner()
    })
}

/// Lock the admin mutex, recording how long the request queued behind
/// other admin work.
fn lock_admin(state: &ServeState) -> MutexGuard<'_, Admin> {
    let start = Instant::now();
    let guard = recover_lock(state, state.admin.lock());
    state.metrics.admin_wait.record_duration(start.elapsed());
    guard
}

/// The live index for a write, opened on first use. The open is timed
/// into `serve_index_load_ns` and its recovery notes go to stderr. If the
/// directory no longer holds the index bind published — changed behind
/// the daemon — the write is refused, the slot stays unopened, and reads
/// keep serving the bound snapshot.
fn open_index<'a>(state: &ServeState, admin: &'a mut Admin) -> Result<&'a mut Index, ReqError> {
    if let Admin::Unopened { dir, stats } = &*admin {
        let start = Instant::now();
        let index = Index::open(dir).map_err(ReqError::from_index)?;
        state.metrics.index_load.record_duration(start.elapsed());
        for note in index.notes() {
            eprintln!("bfhrf: {note}");
        }
        let found = index.stats();
        if found != *stats {
            // index.stats() just pointed the gauges at the on-disk state;
            // point them back at the state this daemon still serves.
            stats.publish_gauges();
            return Err(ReqError::new(format!(
                "the index at {} changed since the daemon bound it (bound generation {} with \
                 {} trees and {} pending WAL records, found generation {} with {} trees and {} \
                 pending); restart the daemon to serve it",
                dir.display(),
                stats.generation,
                stats.n_trees,
                stats.wal_pending,
                found.generation,
                found.n_trees,
                found.wal_pending
            )));
        }
        *admin = Admin::Open(index);
    }
    match admin {
        Admin::Open(index) => Ok(index),
        Admin::Unopened { .. } => unreachable!("opened above"),
    }
}

/// Registry entry for one connection, deregistered on drop (any exit path
/// from `handle_connection`).
struct ConnGuard<'a> {
    state: &'a ServeState,
    id: u64,
}

impl<'a> ConnGuard<'a> {
    fn register(state: &'a ServeState, stream: &TcpStream) -> Option<ConnGuard<'a>> {
        let handle = stream.try_clone().ok()?;
        let id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        recover_lock(state, state.conns.lock()).insert(id, handle);
        state.metrics.conns_total.inc();
        state.metrics.conns_active.add(1);
        Some(ConnGuard { state, id })
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.state.metrics.conns_active.sub(1);
        recover_lock(self.state, self.state.conns.lock()).remove(&self.id);
    }
}

/// Half-close every registered connection: readers parked in `read` get
/// EOF at once instead of waiting out a poll interval.
fn interrupt_connections(state: &ServeState) {
    let conns = recover_lock(state, state.conns.lock());
    for stream in conns.values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

/// Flip the shutdown flag and wake everything that might be parked: blocked
/// connection readers (half-close → EOF), the acceptor waiting on a free
/// slot (condvar), and the acceptor parked in `accept` (one wake
/// connection — the single replacement for the old 64-connection hack).
fn begin_shutdown(state: &ServeState, addr: SocketAddr) {
    state.shutdown.store(true, Ordering::SeqCst);
    interrupt_connections(state);
    // Lock-then-notify so the acceptor cannot check the flag and park
    // between our store and our notify.
    drop(state.slots.free.lock());
    state.slots.freed.notify_all();
    drop(TcpStream::connect_timeout(
        &addr,
        Duration::from_millis(200),
    ));
}

/// A typed request failure on the server side: the outcome label metrics
/// use, plus the message. The wire code derives from the outcome
/// (`cancelled`/`budget` → `budget`).
struct ReqError {
    outcome: Outcome,
    message: String,
}

impl ReqError {
    fn new(message: impl Into<String>) -> Self {
        ReqError {
            outcome: Outcome::Error,
            message: message.into(),
        }
    }

    fn from_core(e: CoreError) -> Self {
        let outcome = match e {
            CoreError::Cancelled(_) => Outcome::Cancelled,
            CoreError::ResourceLimit(_) => Outcome::Budget,
            _ => Outcome::Error,
        };
        ReqError {
            outcome,
            message: e.to_string(),
        }
    }

    fn from_index(e: phylo_index::IndexError) -> Self {
        match e {
            phylo_index::IndexError::Core(c) => ReqError::from_core(c),
            other => ReqError::new(other.to_string()),
        }
    }

    fn into_response(self) -> Response {
        Response::Error {
            code: self.outcome.code(),
            outcome: self.outcome,
            message: self.message,
        }
    }
}

enum Action {
    Continue,
    Shutdown,
}

/// A bound, not-yet-running daemon: lets callers learn the OS-assigned
/// port (and write a `--port-file`) before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    addr: SocketAddr,
    notes: Vec<String>,
}

/// Open the default index for serving: the query view to publish as
/// snapshot 0, the admin slot, and the open's recovery notes.
///
/// A clean index — no pending or torn WAL records, a current sidecar — is
/// served straight from its memory-mapped `frozen.bfh`, and the index
/// stays unopened until the first write. That path reads only the snapshot
/// header and taxa to serve, so [`Index::open_frozen_verified`] streams
/// the whole snapshot through every check beside the sidecar's lane
/// checks, one on each core, to keep bind's corruption check: a corrupt
/// snapshot behind a good sidecar is bind's error. Whenever the sidecar
/// path declines or fails, bind opens eagerly with [`Index::open`]: that
/// repairs what it can and fails with exactly the error it always did.
fn open_default(dir: &Path) -> Result<(QueryView, Admin, Vec<String>), IndexError> {
    if let Some(open) = Index::open_frozen_verified(dir)? {
        let admin = Admin::Unopened {
            dir: dir.to_path_buf(),
            stats: open.stats(),
        };
        return Ok((open.view(), admin, Vec::new()));
    }
    let mut index = Index::open(dir)?;
    let notes = index.notes().to_vec();
    Ok((index.view(), Admin::Open(index), notes))
}

impl Server {
    /// Open the index and bind the listener.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, CliError> {
        let (view, admin, notes) = open_default(&cfg.index_dir).map_err(crate::index_fail)?;
        let wal_pending = admin.stats().wal_pending as u64;
        let snap = Arc::new(SnapView { view, snap: 0 });
        // Opening the catalog at bind also pre-registers every
        // per-collection obs cell, so the full metrics matrix is visible
        // from the first scrape.
        let catalog = match &cfg.catalog_dir {
            None => None,
            Some(dir) => Some(Catalog::open(dir, cfg.mem_budget).map_err(crate::index_fail)?),
        };
        let catalog_size = catalog.as_ref().map_or(0, Catalog::len) as u64;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| CliError::from(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CliError::from(format!("cannot resolve bound address: {e}")))?;
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                snap: RwLock::new(snap),
                admin: Mutex::new(admin),
                shutdown: AtomicBool::new(false),
                served: AtomicU64::new(0),
                started: Instant::now(),
                wal_pending: AtomicU64::new(wal_pending),
                mem_budget: cfg.mem_budget,
                timeout_ms: cfg.timeout_ms,
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
                snap_seq: AtomicU64::new(0),
                slots: ConnSlots {
                    free: Mutex::new(cfg.threads.max(1)),
                    freed: Condvar::new(),
                },
                max_conns: cfg.threads.max(1),
                catalog: catalog.map(Mutex::new),
                catalog_size: AtomicU64::new(catalog_size),
                catalog_open: AtomicU64::new(0),
                metrics: ServeMetrics::resolve(),
            }),
            addr,
            notes,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Recovery notes from opening the default index at bind (torn WAL
    /// tail truncated, stale log discarded, sidecar ignored, ...); empty
    /// on a clean open. An index opened later, by the first write, logs
    /// its notes to stderr instead.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Run the accept loop until a `shutdown` request lands. Returns the
    /// number of requests served.
    pub fn run(self) -> Result<u64, CliError> {
        let Server {
            listener,
            state,
            addr,
            ..
        } = self;
        std::thread::scope(|scope| {
            let mut conn_seq = 0u64;
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if !try_take_slot(&state) {
                            shed_busy(&state, stream);
                            continue;
                        }
                        conn_seq += 1;
                        let spawned = std::thread::Builder::new()
                            .name(format!("bfhrf-conn-{conn_seq}"))
                            .spawn_scoped(scope, {
                                let state = Arc::clone(&state);
                                move || {
                                    handle_connection(stream, &state, addr);
                                    release_slot(&state);
                                }
                            });
                        if spawned.is_err() {
                            // Thread exhaustion is an overload signal like a
                            // full slot table: shed loudly, keep accepting.
                            release_slot(&state);
                            shed_busy_unregistered(&state);
                        }
                    }
                    Err(_) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
            // The scope join waits for live handlers; they have all been
            // interrupted by begin_shutdown and exit once they drain the
            // frames already buffered on their connection.
        });
        Ok(state.served.load(Ordering::Relaxed))
    }
}

/// Claim a connection slot without blocking. `false` means every slot is
/// taken and the caller should shed the connection.
fn try_take_slot(state: &ServeState) -> bool {
    let mut free = recover_lock(state, state.slots.free.lock());
    if *free == 0 {
        return false;
    }
    *free -= 1;
    true
}

fn release_slot(state: &ServeState) {
    let mut free = recover_lock(state, state.slots.free.lock());
    *free += 1;
    drop(free);
    state.slots.freed.notify_one();
}

/// Refuse a connection at the slot ceiling: answer one typed `busy` frame
/// (bounded write so a stalled peer cannot wedge the acceptor) and close.
/// A retrying client backs off and reconnects; an old client reports the
/// error and exits 1.
fn shed_busy(state: &ServeState, stream: TcpStream) {
    state.metrics.busy_rejections.inc();
    state.metrics.count(Op::Unknown, Outcome::Busy);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let resp = Response::Error {
        code: ErrorCode::Busy,
        outcome: Outcome::Busy,
        message: format!(
            "server is at its connection ceiling ({} slots); retry after a backoff",
            state.max_conns
        ),
    };
    let mut stream = stream;
    let _ = writeln!(stream, "{}", resp.to_json(None));
    // Half-close and drain what the peer already sent instead of closing
    // outright: closing with unread request bytes in the receive buffer
    // makes the kernel send RST, which can discard the busy frame before
    // the client reads it. The read timeout bounds a peer that never
    // closes.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Count a shed that happened before we had a socket worth answering on
/// (handler-thread spawn failure).
fn shed_busy_unregistered(state: &ServeState) {
    state.metrics.busy_rejections.inc();
    state.metrics.count(Op::Unknown, Outcome::Busy);
}

enum LineRead {
    /// `buf` holds one complete request line (newline stripped).
    Line,
    /// The peer closed the connection cleanly.
    Eof,
    /// Shutdown, idle timeout, oversize line, or a socket error.
    Close,
}

/// Read one newline-terminated request. The read blocks up to
/// [`IDLE_TIMEOUT`]; shutdown interrupts it through the connection
/// registry (the socket half-closes and the read returns EOF), so there is
/// no polling interval to wait out. Partial bytes accumulate in `buf`
/// across reads — a slow sender loses nothing, and a frame split across
/// TCP segments is reassembled transparently.
///
/// Shutdown drains gracefully: complete frames already sitting in the
/// `BufReader` are still returned (a pipelined client gets an answer for
/// everything the server had received), and only then does the
/// connection close.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    state: &ServeState,
) -> LineRead {
    buf.clear();
    let start = Instant::now();
    loop {
        if state.shutdown.load(Ordering::SeqCst) && !reader.buffer().contains(&b'\n') {
            return LineRead::Close;
        }
        match reader.fill_buf() {
            Ok([]) => return LineRead::Eof,
            Ok(avail) => {
                if let Some(pos) = avail.iter().position(|&b| b == b'\n') {
                    buf.extend_from_slice(&avail[..pos]);
                    reader.consume(pos + 1);
                    return LineRead::Line;
                }
                let n = avail.len();
                buf.extend_from_slice(avail);
                reader.consume(n);
                if buf.len() > MAX_REQUEST_BYTES {
                    return LineRead::Close;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if start.elapsed() > IDLE_TIMEOUT {
                    return LineRead::Close;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Close,
        }
    }
}

/// The per-connection loop: read frames, dispatch, write responses in
/// order, deferring the socket flush while more complete frames are
/// already buffered (pipelining).
fn handle_connection(stream: TcpStream, state: &ServeState, addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => BufWriter::with_capacity(CONN_WRITE_BUF, w),
        Err(_) => return,
    };
    let Some(_conn_guard) = ConnGuard::register(state, &stream) else {
        return;
    };
    let mut reader = BufReader::with_capacity(CONN_READ_BUF, stream);
    // The connection arena: request-line buffer and bipartition extraction
    // scratch, reused for every request this connection ever sends.
    let mut buf = Vec::new();
    let mut scratch = BipartitionScratch::new();
    // Tree-payload encoding for this connection, switched by a `hello`
    // carrying an `encoding` member. Frames are handled strictly in
    // order, so the switch cleanly splits the stream: everything after
    // the hello is read under the new encoding.
    let mut encoding = WireEncoding::Newick;
    let mut depth = 0u64; // responses written since the last flush
    loop {
        match read_request_line(&mut reader, &mut buf, state) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Close => return,
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (response, action) = handle_request(line, state, &mut scratch, &mut encoding);
        state.served.fetch_add(1, Ordering::Relaxed);
        if writeln!(writer, "{response}").is_err() {
            return;
        }
        depth += 1;
        let shutting_down = matches!(action, Action::Shutdown);
        // Flush only when no further complete frame is already buffered:
        // a pipelined burst of N requests costs ~one flush, a lone
        // request-response exchange flushes immediately as before.
        if shutting_down || !reader.buffer().contains(&b'\n') {
            state.metrics.pipeline_depth.record(depth);
            depth = 0;
            if writer.flush().is_err() {
                return;
            }
        }
        if shutting_down {
            begin_shutdown(state, addr);
            return;
        }
    }
}

fn request_guard(state: &ServeState) -> RunGuard {
    RunGuard::with_budget(RunBudget {
        max_bytes: state.mem_budget,
        deadline: state
            .timeout_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
    })
}

/// Parse the request's Newick payloads against a frozen namespace (unknown
/// labels are request errors, not namespace growth). Read-only resolution:
/// no per-request namespace clone. `base` offsets the tree index in error
/// messages when parsing a chunk of a larger batch.
fn parse_payload_trees_from(
    taxa: &TaxonSet,
    items: &[String],
    base: usize,
) -> Result<Vec<Tree>, ReqError> {
    items
        .iter()
        .enumerate()
        .map(|(i, text)| {
            parse_newick_readonly(text, taxa)
                .map_err(|e| ReqError::new(format!("tree {}: {e}", base + i)))
        })
        .collect()
}

/// Decode the request's base64-wrapped binary tree records against a
/// frozen namespace. The records carry server-namespace taxon ids (the
/// client fetched them with the `taxa` op), so decode is a pure structural
/// check — no label resolution at all.
fn decode_payload_trees_from(
    taxa: &TaxonSet,
    items: &[String],
    base: usize,
) -> Result<Vec<Tree>, ReqError> {
    items
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let bytes = phylo_wire::b64::decode(text)
                .map_err(|e| ReqError::new(format!("tree {}: {e}", base + i)))?;
            phylo_wire::decode_tree_exact(&bytes, taxa.len())
                .map_err(|e| ReqError::new(format!("tree {}: {e}", base + i)))
        })
        .collect()
}

/// Turn one chunk of tree payloads into [`Tree`]s under the connection's
/// negotiated encoding, recording the decode time under
/// `wire_decode_ns{encoding}`.
fn payload_trees_chunk(
    state: &ServeState,
    enc: WireEncoding,
    taxa: &TaxonSet,
    items: &[String],
    base: usize,
) -> Result<Vec<Tree>, ReqError> {
    let start = Instant::now();
    let trees = match enc {
        WireEncoding::Newick => parse_payload_trees_from(taxa, items, base),
        WireEncoding::Bin => decode_payload_trees_from(taxa, items, base),
    }?;
    state.metrics.wire_decode[enc.index()].record_duration(start.elapsed());
    Ok(trees)
}

fn payload_trees(
    state: &ServeState,
    enc: WireEncoding,
    taxa: &TaxonSet,
    items: &[String],
) -> Result<Vec<Tree>, ReqError> {
    payload_trees_chunk(state, enc, taxa, items, 0)
}

/// Dispatch one request, recording its latency and outcome under the op
/// label (`unknown` for unparseable requests). This wrapper is the whole
/// query-path instrumentation: one clock pair, one histogram record, one
/// counter bump per request.
fn handle_request(
    line: &str,
    state: &ServeState,
    scratch: &mut BipartitionScratch,
    encoding: &mut WireEncoding,
) -> (Json, Action) {
    let start = Instant::now();
    let (op, id, result) = dispatch(line, state, scratch, encoding);
    state.metrics.latency[op.index()].record_duration(start.elapsed());
    match result {
        Ok((response, action)) => {
            state.metrics.count(op, Outcome::Ok);
            (response.to_json(id), action)
        }
        Err(e) => {
            state.metrics.count(op, e.outcome);
            (e.into_response().to_json(id), Action::Continue)
        }
    }
}

/// Parse the frame through the typed protocol layer and route it to its op
/// handler — the only dispatch point; there is no string matching past
/// [`proto::parse_request`].
fn dispatch(
    line: &str,
    state: &ServeState,
    scratch: &mut BipartitionScratch,
    encoding: &mut WireEncoding,
) -> (Op, Option<u64>, Result<(Response, Action), ReqError>) {
    let env = match proto::parse_request(line) {
        Ok(env) => env,
        Err(e) => return (e.op, None, Err(ReqError::new(e.message))),
    };
    let Envelope {
        version,
        id,
        request,
    } = env;
    let op = request.op();
    // Frames carrying tree payloads count under the encoding they arrive
    // in; the handlers below time their conversion into trees.
    let enc = *encoding;
    if matches!(
        request,
        Request::AvgRf { .. }
            | Request::Batch { .. }
            | Request::BestQuery { .. }
            | Request::Add { .. }
            | Request::Remove { .. }
    ) {
        state.metrics.wire_frames[enc.index()].inc();
    }
    let cont = |r: Result<Response, ReqError>| r.map(|resp| (resp, Action::Continue));
    let result = match request {
        Request::Hello { encoding: wanted } => {
            // The switch takes effect for every later frame on this
            // connection; frames are handled strictly in order, so a
            // pipelined hello splits the stream cleanly. A hello without
            // the member leaves the current encoding alone (and its
            // response stays byte-identical to the pre-encoding frame).
            let echo = wanted.inspect(|e| *encoding = *e);
            Ok((
                Response::Hello {
                    version: PROTO_VERSION,
                    max_batch: MAX_BATCH,
                    encoding: echo,
                },
                Action::Continue,
            ))
        }
        Request::AvgRf {
            queries,
            flags,
            collection,
        } => cont(
            resolve(state, collection.as_deref())
                .and_then(|t| op_scores(state, scratch, enc, &t, &queries, flags)),
        ),
        Request::Batch {
            queries,
            flags,
            collection,
        } => {
            state.metrics.batch_size.record(queries.len() as u64);
            if queries.len() > MAX_BATCH {
                Err(ReqError::new(format!(
                    "batch of {} queries exceeds max_batch {MAX_BATCH} (split it, or ask \
                     \"hello\" for the ceiling)",
                    queries.len()
                )))
            } else {
                cont(
                    resolve(state, collection.as_deref())
                        .and_then(|t| op_scores(state, scratch, enc, &t, &queries, flags)),
                )
            }
        }
        Request::BestQuery {
            queries,
            collection,
        } => cont(
            resolve(state, collection.as_deref())
                .and_then(|t| op_best(state, scratch, enc, &t, &queries)),
        ),
        Request::Ping { collection } => {
            cont(resolve(state, collection.as_deref()).and_then(|t| op_ping(state, version, &t)))
        }
        Request::Stats { collection } => {
            cont(resolve(state, collection.as_deref()).and_then(|t| op_stats(state, &t)))
        }
        Request::Add { trees, collection } => cont(
            resolve(state, collection.as_deref())
                .and_then(|t| op_mutate(state, enc, &t, &trees, true)),
        ),
        Request::Remove { trees, collection } => cont(
            resolve(state, collection.as_deref())
                .and_then(|t| op_mutate(state, enc, &t, &trees, false)),
        ),
        Request::Compact { collection } => {
            cont(resolve(state, collection.as_deref()).and_then(|t| op_compact(state, &t)))
        }
        Request::Taxa { collection } => {
            cont(resolve(state, collection.as_deref()).and_then(|t| op_taxa(state, &t)))
        }
        Request::Xavgrf {
            refs,
            queries,
            flags,
        } => cont(op_xavgrf(state, &refs, &queries, flags)),
        Request::CatalogCreate { name, trees } => cont(op_catalog_create(state, &name, &trees)),
        Request::CatalogDrop { name } => cont(op_catalog_drop(state, &name)),
        Request::CatalogList => cont(op_catalog_list(state)),
        Request::Shutdown => Ok((Response::Shutdown, Action::Shutdown)),
    };
    (op, id, result)
}

/// Lock the daemon's catalog, or explain that it has none.
fn lock_catalog<'a>(
    state: &'a ServeState,
    wanted: &str,
) -> Result<MutexGuard<'a, Catalog>, ReqError> {
    let Some(catalog) = &state.catalog else {
        return Err(ReqError::new(format!(
            "this daemon hosts no catalog (start serve with --catalog to use {wanted})"
        )));
    };
    Ok(recover_lock(state, catalog.lock()))
}

/// Refresh the lock-free catalog mirrors `ping` reads.
fn mirror_catalog(state: &ServeState, cat: &Catalog) {
    state
        .catalog_size
        .store(cat.len() as u64, Ordering::Relaxed);
    state
        .catalog_open
        .store(cat.open_count() as u64, Ordering::Relaxed);
}

/// Resolve a request's routing field: absent or `"default"` is the
/// daemon's default index (the legacy paths, untouched); anything else
/// resolves through the catalog and comes back pinned — the collection
/// stays resident for as long as the returned [`Target`] lives.
fn resolve(state: &ServeState, name: Option<&str>) -> Result<Target, ReqError> {
    match name {
        None => Ok(Target::Default),
        Some(n) if n == DEFAULT_COLLECTION => Ok(Target::Default),
        Some(n) => {
            let mut cat = lock_catalog(state, &format!("collection {n:?}"))?;
            let pin = cat.acquire(n).map_err(ReqError::from_index)?;
            mirror_catalog(state, &cat);
            Ok(Target::Named(pin))
        }
    }
}

/// The scoring view (and snapshot id) a target answers from. The default
/// path clones the published `Arc` exactly as before; a named collection
/// takes its cell lock only long enough to freeze and clone out the view,
/// then scores lock-free — mutations to the same collection publish a new
/// generation, and in-flight scoring keeps the view it started with.
fn target_view(state: &ServeState, target: &Target) -> (QueryView, u64) {
    match target {
        Target::Default => {
            let snap = current_snap(state);
            let view = QueryView {
                frozen: Arc::clone(&snap.view.frozen),
                taxa: Arc::clone(&snap.view.taxa),
                generation: snap.view.generation,
            };
            (view, snap.snap)
        }
        Target::Named(pin) => {
            let mut col = pin.lock();
            let view = col.view();
            let snap = view.generation;
            (view, snap)
        }
    }
}

/// Clone the current snapshot `Arc` out of the cell — the only moment a
/// query touches a lock. The wait is recorded so contention behind
/// publishing writers shows up as `serve_queue_wait_ns{lock=snapshot}`.
fn current_snap(state: &ServeState) -> Arc<SnapView> {
    let start = Instant::now();
    let guard = recover_lock(state, state.snap.read());
    let snap = Arc::clone(&*guard);
    drop(guard);
    state.metrics.snap_wait.record_duration(start.elapsed());
    snap
}

/// Publish the admin index's current state as the new query snapshot.
/// Call with the admin lock held so publications serialize.
fn publish_snap(state: &ServeState, index: &mut Index) {
    let snap = state.snap_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let published = Arc::new(SnapView {
        view: index.view(),
        snap,
    });
    *recover_lock(state, state.snap.write()) = published;
    state.metrics.swaps.inc();
}

/// Degradation notes recorded while serving one request (empty when the
/// run was clean — the array is always present so clients need no
/// existence check).
fn notes_vec(guard: &RunGuard) -> Vec<String> {
    guard.degradations().iter().map(|d| d.to_string()).collect()
}

/// Score `queries` against one snapshot. Small requests run sequentially
/// through the connection arena; large batches fan out on the shared rayon
/// pool (fresh scratch per chunk inside the comparator) — unless the box
/// has a single core, where fan-out is pure overhead on top of the
/// handler threads already competing for it.
fn parallel_scoring(n_queries: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    n_queries > PARALLEL_QUERY_THRESHOLD && cores > 1
}

/// Score one run of tree payloads, the first numbered `base` in errors.
/// Newick payloads are read straight to their shapes in the connection's
/// `scratch`, with no tree built, and canonicalised where they are scored;
/// `bin` records are decoded to trees.
/// Either way the whole run is read before any of it is scored.
fn score_payloads(
    state: &ServeState,
    enc: WireEncoding,
    view: &QueryView,
    items: &[String],
    base: usize,
    guard: &RunGuard,
    scratch: &mut BipartitionScratch,
) -> Result<Vec<bfhrf::QueryScore>, ReqError> {
    match enc {
        WireEncoding::Newick => {
            let start = Instant::now();
            let mut queries = SplitChunk::new(view.taxa.len());
            for (i, text) in items.iter().enumerate() {
                queries
                    .push_newick(text, &view.taxa, scratch)
                    .map_err(|e| ReqError::new(format!("tree {}: {e}", base + i)))?;
            }
            state.metrics.wire_decode[enc.index()].record_duration(start.elapsed());
            FrozenComparator::new(&view.frozen, &view.taxa)
                .parallel(parallel_scoring(items.len()))
                .average_chunk_guarded(&queries, guard)
                .map_err(ReqError::from_core)
        }
        WireEncoding::Bin => {
            let trees = payload_trees_chunk(state, enc, &view.taxa, items, base)?;
            scored(view, &trees, guard, scratch)
        }
    }
}

fn scored(
    view: &QueryView,
    queries: &[Tree],
    guard: &RunGuard,
    scratch: &mut BipartitionScratch,
) -> Result<Vec<bfhrf::QueryScore>, ReqError> {
    let cmp = FrozenComparator::new(&view.frozen, &view.taxa);
    if parallel_scoring(queries.len()) {
        cmp.parallel(true)
            .average_all_guarded(queries, guard)
            .map_err(ReqError::from_core)
    } else {
        cmp.average_all_scratch_guarded(queries, guard, scratch)
            .map_err(ReqError::from_core)
    }
}

/// `avgrf` and `batch` share this: same scoring, same response shape; the
/// batch op is the explicitly versioned, ceiling-checked form.
fn op_scores(
    state: &ServeState,
    scratch: &mut BipartitionScratch,
    enc: WireEncoding,
    target: &Target,
    queries: &[String],
    flags: proto::QueryFlags,
) -> Result<Response, ReqError> {
    // Zero chunks would never reach the comparator's empty-query check:
    // refuse with it here, as `best-query` does for the same array.
    if queries.is_empty() {
        return Err(ReqError::from_core(CoreError::EmptyQuery));
    }
    let (view, snap_id) = target_view(state, target);
    let guard = request_guard(state);
    // Sequential scoring walks the batch in small chunks — read a few
    // queries, score them, reuse the arena — so a 4096-query frame never
    // holds thousands of queries live at once (with many concurrent
    // connections that footprint is real cache pressure). The parallel
    // path keeps the whole batch: rayon wants it all to fan out.
    let scores = if parallel_scoring(queries.len()) {
        score_payloads(state, enc, &view, queries, 0, &guard, scratch)?
    } else {
        let mut scores = Vec::with_capacity(queries.len());
        for (chunk_idx, chunk) in queries.chunks(PARALLEL_QUERY_THRESHOLD).enumerate() {
            let base = chunk_idx * PARALLEL_QUERY_THRESHOLD;
            let part = score_payloads(state, enc, &view, chunk, base, &guard, scratch)?;
            scores.extend(part.into_iter().map(|mut s| {
                s.index += base;
                s
            }));
        }
        scores
    };
    let n_taxa = view.taxa.len();
    let rows = scores
        .iter()
        .map(|s| {
            let mut avg = if flags.normalized {
                bfhrf::variants::normalized_average(&s.rf, n_taxa)
            } else {
                s.rf.average()
            };
            if flags.halved {
                avg /= 2.0;
            }
            ScoreRow {
                index: s.index,
                left: s.rf.left,
                right: s.rf.right,
                n_refs: s.rf.n_refs,
                avg,
            }
        })
        .collect();
    Ok(Response::Scores {
        n_taxa,
        generation: view.generation,
        snap: snap_id,
        scores: rows,
        notes: notes_vec(&guard),
    })
}

fn op_best(
    state: &ServeState,
    scratch: &mut BipartitionScratch,
    enc: WireEncoding,
    target: &Target,
    queries: &[String],
) -> Result<Response, ReqError> {
    let (view, _snap_id) = target_view(state, target);
    let guard = request_guard(state);
    let scores = score_payloads(state, enc, &view, queries, 0, &guard, scratch)?;
    let best =
        bfhrf::best_query(&scores).ok_or_else(|| ReqError::from_core(CoreError::EmptyQuery))?;
    Ok(Response::Best {
        best_index: best.index,
        avg: best.rf.average(),
        total: best.rf.total(),
        notes: notes_vec(&guard),
    })
}

/// The catalog members of a v2 `pong`. The default index always counts as
/// one hosted, one open collection; the catalog adds its mirrors on top.
/// v1 frames get `None` — the v1 pong shape is byte-identical.
fn pong_catalog_fields(state: &ServeState, version: u32) -> (Option<u64>, Option<u64>) {
    if version < 2 {
        return (None, None);
    }
    match &state.catalog {
        None => (Some(1), Some(1)),
        Some(_) => (
            Some(1 + state.catalog_size.load(Ordering::Relaxed)),
            Some(1 + state.catalog_open.load(Ordering::Relaxed)),
        ),
    }
}

/// Health probe: the default path is answered from the published snapshot
/// and mirrored atomics only, so it never queues behind admin mutations —
/// a load balancer polling `ping` sees liveness, not lock contention. A
/// collection-routed ping reports that collection's generation and WAL
/// depth instead (its cell lock, never the admin lock).
fn op_ping(state: &ServeState, version: u32, target: &Target) -> Result<Response, ReqError> {
    let (generation, wal_pending) = match target {
        Target::Default => {
            let snap = current_snap(state);
            (
                snap.view.generation,
                state.wal_pending.load(Ordering::Relaxed),
            )
        }
        Target::Named(pin) => {
            let col = pin.lock();
            (col.generation(), col.wal_pending() as u64)
        }
    };
    let (collections, open_collections) = pong_catalog_fields(state, version);
    Ok(Response::Pong {
        generation,
        wal_pending,
        uptime_ms: state.started.elapsed().as_millis() as u64,
        collections,
        open_collections,
    })
}

/// The collection's taxon labels in intern order — the id namespace a
/// binary-encoding client must remap into before encoding tree records.
/// Answered from the published snapshot, so it never queues behind admin
/// work; the generation lets a client detect that its cached mapping and a
/// later frame straddled a rebuild.
fn op_taxa(state: &ServeState, target: &Target) -> Result<Response, ReqError> {
    let (view, _snap_id) = target_view(state, target);
    let labels = (0..view.taxa.len())
        .map(|i| view.taxa.label(phylo::TaxonId(i as u32)).to_string())
        .collect();
    Ok(Response::Taxa {
        generation: view.generation,
        labels,
    })
}

fn op_stats(state: &ServeState, target: &Target) -> Result<Response, ReqError> {
    let stats = match target {
        Target::Default => {
            // Admin::stats also refreshes the index_generation /
            // index_wal_pending gauges, so the metrics snapshot below
            // reflects this very answer.
            let stats = lock_admin(state).stats();
            state
                .wal_pending
                .store(stats.wal_pending as u64, Ordering::Relaxed);
            stats
        }
        Target::Named(pin) => pin.lock().stats(),
    };
    let metrics = expose::to_json(&phylo_obs::global().snapshot());
    Ok(Response::Stats {
        body: StatsBody {
            generation: stats.generation,
            n_trees: stats.n_trees,
            n_taxa: stats.n_taxa,
            distinct: stats.distinct,
            sum: stats.sum,
            wal_pending: stats.wal_pending,
            served: state.served.load(Ordering::Relaxed),
        },
        metrics,
    })
}

fn op_mutate(
    state: &ServeState,
    enc: WireEncoding,
    target: &Target,
    items: &[String],
    add: bool,
) -> Result<Response, ReqError> {
    if let Target::Named(pin) = target {
        // Per-collection mutations go through the Collection wrapper so the
        // hash and the tree-list sidecar move in lockstep (same up-front
        // validation and remove dry-run as the default path). The wrapper
        // keeps a Newick tree-list sidecar, so binary payloads are decoded
        // and re-rendered as Newick before entering it.
        let mut col = pin.lock();
        let rendered;
        let items: &[String] = match enc {
            WireEncoding::Newick => items,
            WireEncoding::Bin => {
                let view = col.view();
                let trees = payload_trees(state, enc, &view.taxa, items)?;
                rendered = trees
                    .iter()
                    .map(|t| phylo::write_newick(t, &view.taxa))
                    .collect::<Vec<_>>();
                &rendered
            }
        };
        let applied = if add {
            col.add_batch(items)
        } else {
            col.remove_batch(items)
        }
        .map_err(ReqError::from_index)?;
        let n_trees = col.stats().n_trees;
        pin.cell().publish_obs(&mut col);
        return Ok(Response::Applied { applied, n_trees });
    }
    let mut admin = lock_admin(state);
    let index = open_index(state, &mut admin)?;
    // Validate the whole batch against the namespace up front so a typo in
    // tree k does not leave trees 0..k applied.
    let trees = payload_trees(state, enc, index.taxa(), items)?;
    if !add {
        // Each removal is verify-then-log, but a batch can still fail
        // halfway; dry-run the whole batch against the published table
        // first.
        let view = index.view();
        bfhrf::check_remove_batch(&*view.frozen, &trees, index.taxa())
            .map_err(|(i, e)| ReqError::new(format!("tree {i}: {e}")))?;
    }
    let mut applied = 0usize;
    for tree in &trees {
        // A binary session's mutations land in the WAL as binary records
        // too — no Newick re-rendering on the hot admin path.
        let r = match (add, enc) {
            (true, WireEncoding::Newick) => index.append_add(tree),
            (false, WireEncoding::Newick) => index.append_remove(tree),
            (true, WireEncoding::Bin) => index.append_add_bin(tree),
            (false, WireEncoding::Bin) => index.append_remove_bin(tree),
        };
        r.map_err(ReqError::from_index)?;
        applied += 1;
    }
    // Publish the mutated hash for queries; in-flight readers keep their
    // old view alive, so every batch still answers from a single snapshot.
    publish_snap(state, index);
    let stats = index.stats();
    state
        .wal_pending
        .store(stats.wal_pending as u64, Ordering::Relaxed);
    Ok(Response::Applied {
        applied,
        n_trees: stats.n_trees,
    })
}

fn op_compact(state: &ServeState, target: &Target) -> Result<Response, ReqError> {
    if let Target::Named(pin) = target {
        let mut col = pin.lock();
        let meta = col.compact().map_err(ReqError::from_index)?;
        pin.cell().publish_obs(&mut col);
        return Ok(Response::Compacted {
            generation: meta.generation,
            distinct: meta.distinct,
            wal_pending: 0,
        });
    }
    let mut admin = lock_admin(state);
    let index = open_index(state, &mut admin)?;
    let meta = index.compact().map_err(ReqError::from_index)?;
    // The hash contents are unchanged, but the generation moved; publish
    // so score responses report the new generation.
    publish_snap(state, index);
    state.wal_pending.store(0, Ordering::Relaxed);
    Ok(Response::Compacted {
        generation: meta.generation,
        distinct: meta.distinct,
        wal_pending: 0,
    })
}

/// Cross-collection RF: score collection `queries`' trees against
/// collection `refs` via restriction to their common taxa
/// ([`bfhrf::variable_taxa::common_taxa_rf`]). Both collections must come
/// from the catalog — the default index keeps only its hash, not its
/// trees. Both are pinned for the duration, so neither can be evicted
/// mid-computation; their cell locks are taken one at a time (extract the
/// tree list, release), never nested. The request's deadline is checked
/// before the tree lists are read and again before scoring; the
/// restriction itself runs unbudgeted.
fn op_xavgrf(
    state: &ServeState,
    refs_name: &str,
    queries_name: &str,
    flags: proto::QueryFlags,
) -> Result<Response, ReqError> {
    let named = |name: &str| -> Result<Target, ReqError> {
        if name == DEFAULT_COLLECTION {
            return Err(ReqError::new(
                "xavgrf needs catalog collections on both sides: the default index does not \
                 retain its trees",
            ));
        }
        resolve(state, Some(name))
    };
    let refs_pin = named(refs_name)?;
    let queries_pin = named(queries_name)?;
    let guard = request_guard(state);
    let tree_list = |t: &Target| match t {
        Target::Named(pin) => pin.lock().tree_collection().map_err(ReqError::from_index),
        Target::Default => unreachable!("named() refuses the default collection"),
    };
    guard
        .checkpoint("xavgrf tree lists")
        .map_err(ReqError::from_core)?;
    let refs_tc = tree_list(&refs_pin)?;
    let queries_tc = tree_list(&queries_pin)?;
    guard
        .checkpoint("xavgrf scoring")
        .map_err(ReqError::from_core)?;
    let out =
        bfhrf::variable_taxa::common_taxa_rf(&refs_tc, &queries_tc).map_err(ReqError::from_core)?;
    let n_taxa = out.taxa.len();
    let rows = out
        .scores
        .iter()
        .map(|s| {
            let mut avg = if flags.normalized {
                bfhrf::variants::normalized_average(&s.rf, n_taxa)
            } else {
                s.rf.average()
            };
            if flags.halved {
                avg /= 2.0;
            }
            ScoreRow {
                index: s.index,
                left: s.rf.left,
                right: s.rf.right,
                n_refs: s.rf.n_refs,
                avg,
            }
        })
        .collect();
    Ok(Response::XScores {
        common_taxa: n_taxa,
        scores: rows,
        notes: Vec::new(),
    })
}

fn op_catalog_create(
    state: &ServeState,
    name: &str,
    trees: &[String],
) -> Result<Response, ReqError> {
    let mut cat = lock_catalog(state, "catalog-create")?;
    let n_trees = cat
        .create(name, &trees.join("\n"))
        .map_err(ReqError::from_index)?;
    mirror_catalog(state, &cat);
    Ok(Response::Created {
        name: name.to_string(),
        n_trees,
    })
}

fn op_catalog_drop(state: &ServeState, name: &str) -> Result<Response, ReqError> {
    let mut cat = lock_catalog(state, "catalog-drop")?;
    cat.drop_collection(name).map_err(ReqError::from_index)?;
    mirror_catalog(state, &cat);
    Ok(Response::Dropped {
        name: name.to_string(),
    })
}

fn op_catalog_list(state: &ServeState) -> Result<Response, ReqError> {
    let cat = lock_catalog(state, "catalog-list")?;
    let collections = cat
        .list()
        .into_iter()
        .map(|c| CatalogRow {
            name: c.name,
            open: c.open,
            resident_bytes: c.resident_bytes,
        })
        .collect();
    Ok(Response::Catalog { collections })
}

/// Map a protocol failure code to the process exit code clients use.
pub fn protocol_code_to_exit(code: &str) -> u8 {
    if code == "budget" {
        EXIT_BUDGET
    } else {
        EXIT_ERROR
    }
}
