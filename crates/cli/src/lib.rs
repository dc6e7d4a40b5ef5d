//! Command implementations for the `bfhrf` command-line tool.
//!
//! The paper emphasizes an "easy to use installation and interface for
//! calculating the average RF of query trees against a collection of
//! reference trees"; this crate is that interface. Each subcommand is a
//! function from parsed [`args::Args`] to a printable report, so the whole
//! surface is unit-testable without spawning processes.
//!
//! ```text
//! bfhrf avgrf     --refs refs.nwk [--queries q.nwk]
//!                 [--algorithm bfhrf|bfhrf-seq|ds|dsmp|hashrf|day]
//!                 [--build-mode seq|parallel|sharded] [--shards K]
//!                 [--threads N] [--halved] [--normalized] [--common-taxa]
//! bfhrf best      --refs refs.nwk --queries q.nwk
//! bfhrf consensus --refs refs.nwk [--threshold 0.5 | --strict | --greedy]
//! bfhrf matrix    --refs refs.nwk [--budget-mb M]
//! bfhrf simulate  --taxa N --trees R --out file.nwk [--seed S] [--pop-scale P]
//! bfhrf index     build|inspect|compact|add|remove   (persistent BFH index)
//! bfhrf serve     --index DIR [--addr HOST:PORT] [--threads MAX_CONNS] [--port-file F]
//! bfhrf query     --addr HOST:PORT --op avgrf|best-query|stats|... [--queries F]
//!                 [--batch N]   (pipelined wire-protocol-v2 batch frames)
//! ```
//!
//! The daemon's clients (`query`, `catalog`, `stats`) live in the
//! `client` module: each builds one typed [`proto::Envelope`] from argv,
//! sends it over a `Session` (one connection, with the optional `hello`
//! and `taxa` exchanges) and renders the typed [`proto::Response`];
//! `Retry::run` is their one reconnect loop.

pub mod args;
mod client;
pub mod proto;
pub mod server;

// The hand-rolled JSON value/parser used to live here; it moved to
// `phylo-obs` so the serve protocol, the metrics exposition, and the bench
// emitters share one escaping implementation. Re-exported under the old
// path for existing users.
pub use phylo_obs::json;

use args::Args;
use bfhrf::{
    best_query, hashrf_or_degrade, BfhBuilder, Comparator, CoreError, DayComparator, HashRfConfig,
    RunBudget, RunGuard, SetComparator,
};
use phylo::{IngestPolicy, IngestReport, SplitReader, TaxaPolicy, TreeCollection};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Clean success: every record parsed, the requested algorithm ran.
pub const EXIT_OK: u8 = 0;
/// Generic failure: bad arguments, unreadable input, a strict parse error.
pub const EXIT_ERROR: u8 = 1;
/// Partial success: output was produced, but `--lenient` skipped records
/// (details on stderr).
pub const EXIT_PARTIAL: u8 = 2;
/// Budget failure: the run was refused or cancelled by `--mem-budget` /
/// `--timeout` before producing output.
pub const EXIT_BUDGET: u8 = 3;

/// Everything one subcommand run produces: the report for stdout,
/// diagnostics for stderr, and the process exit code.
#[derive(Debug)]
pub struct CmdOutcome {
    /// The report, printed to stdout.
    pub stdout: String,
    /// Diagnostics (ingest summaries, skipped records, degradations),
    /// printed to stderr one per line.
    pub notes: Vec<String>,
    /// [`EXIT_OK`] or [`EXIT_PARTIAL`]; failures travel as [`CliError`].
    pub code: u8,
}

impl CmdOutcome {
    fn clean(stdout: String) -> Self {
        CmdOutcome {
            stdout,
            notes: Vec::new(),
            code: EXIT_OK,
        }
    }
}

/// A failed run: the message for stderr plus the exit code
/// ([`EXIT_ERROR`] or [`EXIT_BUDGET`]).
#[derive(Debug)]
pub struct CliError {
    /// Human-readable failure description.
    pub message: String,
    /// Process exit code.
    pub code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            code: EXIT_ERROR,
        }
    }
}

/// Map a core failure to its exit code: budget refusals and cancellations
/// are [`EXIT_BUDGET`], everything else is a generic error.
fn core_fail(e: CoreError) -> CliError {
    let code = match e {
        CoreError::Cancelled(_) | CoreError::ResourceLimit(_) => EXIT_BUDGET,
        _ => EXIT_ERROR,
    };
    CliError {
        message: e.to_string(),
        code,
    }
}

/// Top-level dispatch: `argv[0]` is the subcommand.
pub fn run_full(argv: &[String]) -> Result<CmdOutcome, CliError> {
    let Some(cmd) = argv.first() else {
        return Err(usage().into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "avgrf" => cmd_avgrf(rest),
        "best" => cmd_best(rest),
        "consensus" => cmd_consensus(rest),
        "matrix" => cmd_matrix(rest),
        "simulate" => cmd_simulate(rest),
        "support" => cmd_support(rest),
        "cluster" => cmd_cluster(rest),
        "index" => cmd_index(rest),
        "convert" => cmd_convert(rest),
        "serve" => cmd_serve(rest),
        "query" => client::cmd_query(rest),
        "stats" => client::cmd_stats(rest),
        "catalog" => client::cmd_catalog(rest),
        "help" | "--help" | "-h" => Ok(CmdOutcome::clean(usage())),
        other => Err(format!("unknown subcommand {other:?}\n\n{}", usage()).into()),
    }
}

/// [`run_full`] reduced to the stdout report — the stable entry point for
/// callers that predate exit codes and stderr notes.
pub fn run(argv: &[String]) -> Result<String, String> {
    run_full(argv).map(|o| o.stdout).map_err(|e| e.message)
}

/// The help text.
pub fn usage() -> String {
    "bfhrf — scalable average Robinson-Foulds for tree collections\n\
     \n\
     USAGE: bfhrf <subcommand> [options]\n\
     \n\
     avgrf      average RF of each query tree against the references\n\
     \x20          --refs FILE          reference trees (Newick, ';' separated)\n\
     \x20          --queries FILE       query trees (default: the references)\n\
     \x20          --algorithm NAME     bfhrf (default) | bfhrf-seq | ds | dsmp | hashrf | day\n\
     \x20          --build-mode MODE    seq | parallel | sharded: seq folds\n\
     \x20                               the table on one thread, the others\n\
     \x20                               on a worker while trees are read\n\
     \x20          --shards K           K > 1 also means a parallel fold\n\
     \x20                               (default: thread count, min 2)\n\
     \x20          --threads N          rayon thread count (default: all cores)\n\
     \x20          --halved             report the divide-by-2 RF convention\n\
     \x20          --normalized         divide by the maximum 2(n-3)\n\
     \x20          --common-taxa        restrict to taxa common to all trees\n\
     best       index + score of the lowest-average query tree\n\
     \x20          --refs FILE --queries FILE [--threads N]\n\
     consensus  majority-rule, strict, or greedy consensus of the references\n\
     \x20          --refs FILE [--threshold T] [--strict | --greedy]\n\
     matrix     all-vs-all RF matrix (tab-separated)\n\
     \x20          --refs FILE [--budget-mb M]\n\
     \n\
     avgrf, consensus, and matrix also accept the hardening options:\n\
     \x20          --lenient            skip malformed Newick records instead\n\
     \x20                               of aborting (report on stderr)\n\
     \x20          --max-errors N       abort a --lenient run after N skips\n\
     \x20          --mem-budget BYTES   refuse allocations over the budget;\n\
     \x20                               a bfhrf build counts its two chunk\n\
     \x20                               buffers of tree shapes, kept ranks\n\
     \x20                               and table;\n\
     \x20                               hashrf degrades to bfhrf when over\n\
     \x20          --timeout SECS       cancel the run at the deadline\n\
     \n\
     avgrf, matrix, and index build also accept:\n\
     \x20          --profile            print a per-phase timing table on\n\
     \x20                               stderr when the run finishes\n\
     \n\
     exit codes: 0 clean success | 1 error | 2 partial success\n\
     \x20            (records skipped under --lenient) | 3 over budget or\n\
     \x20            timed out\n\
     simulate   coalescent gene-tree collection\n\
     \x20          --taxa N --trees R --out FILE [--seed S] [--pop-scale P]\n\
     support    annotate a focal tree with split support from the references\n\
     \x20          --refs FILE --tree FILE\n\
     cluster    k-medoids clustering of the collection by RF distance\n\
     \x20          --refs FILE --k K [--budget-mb M]\n\
     index      persistent on-disk BFH index (snapshot + WAL)\n\
     \x20          build    --refs FILE --out DIR [--shards K] [--lenient]\n\
     \x20                   (--shards as for avgrf; K is recorded in\n\
     \x20                   the snapshot header)\n\
     \x20                   [--format newick|bin]  pin the expected input\n\
     \x20                   encoding (the file is sniffed either way)\n\
     \x20                   or --refs FILE --catalog DIR --collection NAME\n\
     \x20                   to create a collection in a local catalog\n\
     \x20          inspect  --index DIR [--check]  also reports the snapshot\n\
     \x20                   and zero-copy frozen-sidecar formats + sizes\n\
     \x20                   or --catalog DIR --collection NAME\n\
     \x20          compact  --index DIR\n\
     \x20          add      --index DIR --trees FILE\n\
     \x20          remove   --index DIR --trees FILE\n\
     convert    re-encode a tree file (input encoding is sniffed)\n\
     \x20          --in FILE --out FILE --format newick|bin [--lenient]\n\
     serve      answer queries from an index over TCP (NDJSON protocol v2)\n\
     \x20          --index DIR [--addr HOST:PORT] [--threads MAX_CONNS]\n\
     \x20          [--port-file FILE] [--mem-budget BYTES] [--timeout-ms MS]\n\
     \x20          [--catalog DIR]  host named collections next to the\n\
     \x20                           default index, LRU-evicted under the\n\
     \x20                           shared --mem-budget\n\
     query      request(s) against a running server\n\
     \x20          --addr HOST:PORT | --port-file FILE\n\
     \x20          --op avgrf|best-query|ping|stats|taxa|add|remove|compact|\n\
     \x20               xavgrf|catalog-create|catalog-drop|catalog-list|\n\
     \x20               shutdown\n\
     \x20          [--queries FILE] [--trees FILE] [--normalized] [--halved]\n\
     \x20          [--format newick|bin]  tree encoding on the wire; bin\n\
     \x20                               negotiates the binary encoding in\n\
     \x20                               the hello and sends compact base64\n\
     \x20                               records (tree-payload ops only)\n\
     \x20          [--collection NAME]  route the op at a named catalog\n\
     \x20                               collection (v2 framing)\n\
     \x20          [--refs-collection A --queries-collection B]  xavgrf\n\
     \x20                               operands: cross-collection average\n\
     \x20                               RF over the common taxa\n\
     \x20          [--name NAME]        catalog-create / catalog-drop target\n\
     \x20          [--batch N]   pipelined v2 batch frames of N queries each\n\
     \x20          [--retries N] [--backoff-ms MS]\n\
     \x20                        reconnect + resend on connection loss or a\n\
     \x20                        busy shed (idempotent read ops only);\n\
     \x20                        exponential backoff with jitter. Exhausted\n\
     \x20                        retries keep the 0/1/3 exit contract.\n\
     catalog    administer a serving daemon's collection catalog\n\
     \x20          create   --addr|--port-file --name NAME [--trees FILE]\n\
     \x20          drop     --addr|--port-file --name NAME\n\
     \x20          list     --addr|--port-file\n\
     stats      fetch and render a running server's metrics\n\
     \x20          --addr HOST:PORT | --port-file FILE [--json]\n"
        .to_string()
}

/// Resolve `--lenient` / `--max-errors` into an [`IngestPolicy`].
fn ingest_policy(a: &Args) -> Result<IngestPolicy, String> {
    let max_errors: Option<usize> = a.get_parsed("max-errors")?;
    if a.flag("lenient") {
        Ok(IngestPolicy::Lenient {
            max_errors: max_errors.unwrap_or(usize::MAX),
        })
    } else if max_errors.is_some() {
        Err("--max-errors only applies together with --lenient".into())
    } else {
        Ok(IngestPolicy::Strict)
    }
}

/// Resolve `--mem-budget` / `--timeout` into a [`RunGuard`].
fn run_guard(a: &Args) -> Result<RunGuard, String> {
    let max_bytes: Option<usize> = a.get_parsed("mem-budget")?;
    let timeout: Option<u64> = a.get_parsed("timeout")?;
    Ok(RunGuard::with_budget(RunBudget {
        max_bytes,
        deadline: timeout.map(|s| Instant::now() + Duration::from_secs(s)),
    }))
}

/// Append the ingest report for `path` to the stderr notes; returns whether
/// the run is partial (any record skipped).
fn note_ingest(notes: &mut Vec<String>, path: &str, report: &IngestReport) -> bool {
    if !report.is_partial() {
        return false;
    }
    phylo_obs::global()
        .counter("ingest_recovered_total", &[])
        .add(report.skipped.len() as u64);
    notes.push(format!("{path}: {}", report.summary()));
    for rec in &report.skipped {
        notes.push(format!("{path}: skipped {rec}"));
    }
    true
}

/// Open `path` and read its trees in whichever encoding the file carries:
/// Newick text or a `PHYLOWIR` binary container, sniffed on the first
/// eight bytes. Newick files take the exact pre-sniffing code path, so
/// text-only workflows are byte-identical; binary input is detected,
/// never assumed. Also reports which format was found (for `--format`
/// validation and `convert`).
fn load_sniffed_with(
    path: &str,
    policy: IngestPolicy,
) -> Result<(TreeCollection, IngestReport, phylo_wire::WireFormat), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut taxa = phylo::TaxonSet::new();
    let mut stream = phylo_wire::SniffedReader::open(
        std::io::BufReader::new(file),
        &mut taxa,
        TaxaPolicy::Grow,
        policy,
    )
    .map_err(|e| format!("{path}: {e}"))?;
    let format = stream.format();
    let mut trees = Vec::new();
    loop {
        match stream.next_tree(&mut taxa) {
            Ok(Some(t)) => trees.push(t),
            Ok(None) => break,
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    Ok((TreeCollection { taxa, trees }, stream.into_report(), format))
}

fn load_with(path: &str, policy: IngestPolicy) -> Result<(TreeCollection, IngestReport), String> {
    load_sniffed_with(path, policy).map(|(coll, report, _)| (coll, report))
}

fn load(path: &str) -> Result<TreeCollection, String> {
    load_with(path, IngestPolicy::Strict).map(|(coll, _)| coll)
}

fn load_queries_with(
    path: &str,
    refs: &mut TreeCollection,
    policy: IngestPolicy,
) -> Result<(Vec<phylo::Tree>, IngestReport), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    phylo_wire::read_trees_sniffed(
        std::io::BufReader::new(file),
        &mut refs.taxa,
        TaxaPolicy::Require,
        policy,
    )
    .map_err(|e| format!("{path}: {e}"))
}

fn load_queries_against(path: &str, refs: &mut TreeCollection) -> Result<Vec<phylo::Tree>, String> {
    load_queries_with(path, refs, IngestPolicy::Strict).map(|(trees, _)| trees)
}

/// Run `f` on a rayon pool with `threads` workers (or the global pool).
fn with_threads<T: Send>(
    threads: Option<usize>,
    f: impl FnOnce() -> T + Send,
) -> Result<T, String> {
    match threads {
        None => Ok(f()),
        Some(k) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(k)
                .build()
                .map_err(|e| format!("cannot build thread pool: {e}"))?;
            Ok(pool.install(f))
        }
    }
}

/// Resolve `--build-mode` / `--shards` into a configured [`BfhBuilder`]
/// and the shard count `index build` records in its snapshot header.
///
/// Both flags only choose a sequential or a parallel fold: the build folds
/// in parallel unless the mode is `seq` and the shard count is 1. Defaults
/// are per-algorithm: `bfhrf` builds `sharded` (the shard count defaults to
/// the thread count, at least 2), `bfhrf-seq` builds `seq`. An explicit
/// `--build-mode` or `--shards` overrides either.
fn resolve_builder(
    mode: Option<&str>,
    shards: Option<usize>,
    default_mode: &str,
) -> Result<(BfhBuilder, usize), String> {
    let mode = mode.unwrap_or(default_mode);
    let default_shards = match mode {
        "seq" | "parallel" => 1,
        "sharded" => rayon::current_num_threads().max(2),
        other => {
            return Err(format!(
                "unknown build mode {other:?} (expected seq, parallel, sharded)"
            ))
        }
    };
    let shards = shards.unwrap_or(default_shards);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let parallel = mode != "seq" || shards > 1;
    Ok((BfhBuilder::new().parallel(parallel), shards))
}

fn cmd_avgrf(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(
        raw,
        &["halved", "normalized", "common-taxa", "lenient", "profile"],
    )?;
    a.reject_unknown(
        &[
            "refs",
            "queries",
            "algorithm",
            "build-mode",
            "shards",
            "threads",
            "max-errors",
            "mem-budget",
            "timeout",
        ],
        &["halved", "normalized", "common-taxa", "lenient", "profile"],
    )?;
    let policy = ingest_policy(&a)?;
    let guard = run_guard(&a)?;
    let mut prof = phylo_obs::Profiler::new(a.flag("profile"));
    let mut notes = Vec::new();
    prof.phase("load");
    let refs_path = a.require("refs")?;
    let algorithm = a.get("algorithm").unwrap_or("bfhrf");
    if matches!(algorithm, "bfhrf" | "bfhrf-seq") && !a.flag("common-taxa") {
        // The BFHRF engines never need the parsed trees: stream them.
        let run = Streamed {
            refs: refs_path,
            queries: a.get("queries"),
            policy,
            sequential: algorithm == "bfhrf-seq",
        };
        let (scores, n, partial) = run.scores(&a, &guard, &mut prof, &mut notes)?;
        prof.phase("render");
        let mut report = String::new();
        render_scores(&mut report, &scores, n, &a);
        notes.extend(prof.render().lines().map(String::from));
        return Ok(CmdOutcome {
            stdout: report,
            notes,
            code: if partial { EXIT_PARTIAL } else { EXIT_OK },
        });
    }
    let (mut refs, refs_report) = load_with(refs_path, policy)?;
    let mut partial = note_ingest(&mut notes, refs_path, &refs_report);
    let threads: Option<usize> = a.get_parsed("threads")?;
    let build_mode = a.get("build-mode");
    let shards: Option<usize> = a.get_parsed("shards")?;

    if a.flag("common-taxa") {
        // Without --queries, Q = R: the references are scored in place.
        let loaded = match a.get("queries") {
            Some(p) => {
                let (coll, report) = load_with(p, policy)?;
                partial |= note_ingest(&mut notes, p, &report);
                Some(coll)
            }
            None => None,
        };
        let queries = loaded.as_ref().unwrap_or(&refs);
        prof.phase("score");
        let out = bfhrf::variable_taxa::common_taxa_rf(&refs, queries).map_err(core_fail)?;
        prof.phase("render");
        let mut report = format!(
            "# common taxa: {} of {} reference labels\n",
            out.taxa.len(),
            refs.taxa.len()
        );
        render_scores(&mut report, &out.scores, out.taxa.len(), &a);
        notes.extend(prof.render().lines().map(String::from));
        return Ok(CmdOutcome {
            stdout: report,
            notes,
            code: if partial { EXIT_PARTIAL } else { EXIT_OK },
        });
    }

    let loaded = match a.get("queries") {
        Some(p) => {
            let (trees, report) = load_queries_with(p, &mut refs, policy)?;
            partial |= note_ingest(&mut notes, p, &report);
            Some(trees)
        }
        None => None,
    };
    let queries = loaded.as_deref().unwrap_or(&refs.trees);
    let n = refs.taxa.len();
    if build_mode.is_some() || shards.is_some() {
        return Err(format!(
            "--build-mode/--shards only apply to the bfhrf algorithms, not {algorithm:?}"
        )
        .into());
    }
    let prof = &mut prof;
    prof.phase("score");
    let scores = with_threads(threads, || -> Result<Vec<bfhrf::QueryScore>, CliError> {
        match algorithm {
            "ds" => SetComparator::new(&refs.trees, &refs.taxa)
                .average_all_guarded(queries, &guard)
                .map_err(core_fail),
            "dsmp" => SetComparator::new(&refs.trees, &refs.taxa)
                .parallel(true)
                .average_all_guarded(queries, &guard)
                .map_err(core_fail),
            "hashrf" => {
                // Over the memory budget, HashRF falls back to BFHRF (same
                // averages, collision-free) instead of being refused — the
                // decision lands in the degradation notes below.
                let cmp =
                    hashrf_or_degrade(&refs.trees, &refs.taxa, HashRfConfig::default(), &guard)
                        .map_err(core_fail)?;
                cmp.average_all_guarded(queries, &guard).map_err(core_fail)
            }
            "day" => DayComparator::new(&refs.trees, &refs.taxa)
                .average_all_guarded(queries, &guard)
                .map_err(core_fail),
            other => Err(format!(
                "unknown algorithm {other:?} (expected bfhrf, bfhrf-seq, ds, dsmp, hashrf, day)"
            )
            .into()),
        }
    })??;
    for d in guard.degradations() {
        notes.push(d.to_string());
    }
    prof.phase("render");
    let mut report = String::new();
    render_scores(&mut report, &scores, n, &a);
    notes.extend(prof.render().lines().map(String::from));
    Ok(CmdOutcome {
        stdout: report,
        notes,
        code: if partial { EXIT_PARTIAL } else { EXIT_OK },
    })
}

fn render_scores(out: &mut String, scores: &[bfhrf::QueryScore], n_taxa: usize, a: &Args) {
    let _ = writeln!(out, "query\tavg_rf");
    for s in scores {
        let mut v = if a.flag("normalized") {
            bfhrf::variants::normalized_average(&s.rf, n_taxa)
        } else {
            s.rf.average()
        };
        if a.flag("halved") {
            v /= 2.0;
        }
        let _ = writeln!(out, "{}\t{v:.6}", s.index);
    }
}

fn cmd_best(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["refs", "queries", "threads"], &[])?;
    let run = Streamed {
        refs: a.require("refs")?,
        queries: Some(a.require("queries")?),
        policy: IngestPolicy::Strict,
        sequential: false,
    };
    let mut prof = phylo_obs::Profiler::new(false);
    let (scores, _, _) = run.scores(&a, &RunGuard::default(), &mut prof, &mut Vec::new())?;
    let best = best_query(&scores)
        .ok_or_else(|| CliError::from("the --queries file contains no trees".to_string()))?;
    Ok(CmdOutcome::clean(format!(
        "best_query\t{}\navg_rf\t{:.6}\ntotal_rf\t{}\n",
        best.index,
        best.rf.average(),
        best.rf.total()
    )))
}

/// A BFHRF run that never holds the parsed trees: each reference tree is
/// folded into the frozen table as it is read, then either the kept pool
/// ranks of its splits are scored against that table (Q = R) or the query
/// file streams through it.
struct Streamed<'a> {
    refs: &'a str,
    queries: Option<&'a str>,
    policy: IngestPolicy,
    /// `bfhrf-seq`: build sequentially unless `--build-mode`/`--shards` say
    /// otherwise, and score on one thread. Otherwise both the fold and the
    /// scoring are parallel.
    sequential: bool,
}

impl Streamed<'_> {
    /// The scores in input order, the namespace width, and whether any
    /// record was skipped. Ingest reports land in `notes`.
    fn scores(
        &self,
        a: &Args,
        guard: &RunGuard,
        prof: &mut phylo_obs::Profiler,
        notes: &mut Vec<String>,
    ) -> Result<(Vec<bfhrf::QueryScore>, usize, bool), CliError> {
        let refs_path = self.refs;
        let refs_file = open_input(refs_path)?;
        let threads: Option<usize> = a.get_parsed("threads")?;
        let build_mode = a.get("build-mode");
        let shards: Option<usize> = a.get_parsed("shards")?;
        let (default_mode, parallel) = if self.sequential {
            ("seq", false)
        } else {
            ("sharded", true)
        };
        with_threads(threads, || {
            let mut taxa = phylo::TaxonSet::new();
            let mut refs = phylo_wire::SniffedReader::open(
                refs_file,
                &mut taxa,
                TaxaPolicy::Grow,
                self.policy,
            )
            .map_err(|e| format!("{refs_path}: {e}"))?;
            let mut builder = resolve_builder(build_mode, shards, default_mode)?
                .0
                .guard(guard.clone());
            // The build splits into `ingest`, the calling thread's time
            // cutting records and lexing them into shapes, and `fold`, the
            // rest of it: the wait on the fold, and the last fold. The
            // fold's own time, canonicalising each shape and counting its
            // splits, is listed beside them as `fold busy`; in a parallel
            // build, the longer of `ingest` and `fold busy` bounds it.
            let busy = Arc::new(AtomicU64::new(0));
            if prof.enabled() {
                builder = builder.fold_clock(Arc::clone(&busy));
            }
            prof.phase("fold");
            let mut timed = Timed {
                reader: &mut refs,
                ns: prof.enabled().then_some(0),
            };
            let (frozen, kept) = match self.queries {
                None => builder
                    .freeze_stream_kept(&mut taxa, &mut timed)
                    .map(|(table, kept)| (table, Some(kept))),
                Some(_) => builder
                    .freeze_stream(&mut taxa, &mut timed)
                    .map(|table| (table, None)),
            }
            .map_err(|e| stream_fail(refs_path, e))?;
            if let Some(ns) = timed.ns {
                prof.carve("ingest", ns);
                prof.beside("fold busy", busy.load(Ordering::Relaxed));
            }
            let mut partial = note_ingest(notes, refs_path, &refs.into_report());
            prof.phase("query");
            let scores = match self.queries {
                None => kept
                    .expect("Q = R keeps the reference splits")
                    .score(&frozen, parallel, guard)
                    .map_err(core_fail)?,
                Some(path) => {
                    let mut queries = phylo_wire::SniffedReader::open(
                        open_input(path)?,
                        &mut taxa,
                        TaxaPolicy::Require,
                        self.policy,
                    )
                    .map_err(|e| format!("{path}: {e}"))?;
                    let scores = bfhrf::rf::bfhrf_streaming(
                        &frozen,
                        &mut taxa,
                        parallel,
                        guard,
                        &mut queries,
                    )
                    .map_err(|e| stream_fail(path, e))?;
                    partial |= note_ingest(notes, path, &queries.into_report());
                    scores
                }
            };
            Ok((scores, taxa.len(), partial))
        })?
    }
}

/// A reader that, when `ns` is `Some`, adds up the time each record
/// takes to cut and read into its shape.
struct Timed<'r, S> {
    reader: &'r mut S,
    ns: Option<u64>,
}

impl<S: SplitReader> SplitReader for Timed<'_, S> {
    fn next_shape(
        &mut self,
        taxa: &mut phylo::TaxonSet,
        scratch: &mut phylo::BipartitionScratch,
        shapes: &mut phylo::Shapes,
    ) -> Result<bool, phylo::PhyloError> {
        let Some(ns) = &mut self.ns else {
            return self.reader.next_shape(taxa, scratch, shapes);
        };
        let start = Instant::now();
        let read = self.reader.next_shape(taxa, scratch, shapes);
        *ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        read
    }
}

/// Open a tree file for streaming.
fn open_input(path: &str) -> Result<std::io::BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(std::io::BufReader::new)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

/// A streamed pass's failure: a parse error names the file, as a loaded
/// file's does; anything else is a core failure.
fn stream_fail(path: &str, e: CoreError) -> CliError {
    match e {
        CoreError::Phylo(e) => format!("{path}: {e}").into(),
        other => core_fail(other),
    }
}

/// `bfhrf consensus`: the references stream into the frozen table, one
/// parsed tree at a time, and the consensus is read from that table.
fn cmd_consensus(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["strict", "greedy", "lenient"])?;
    a.reject_unknown(
        &["refs", "threshold", "max-errors", "mem-budget", "timeout"],
        &["strict", "greedy", "lenient"],
    )?;
    if a.flag("strict") && a.flag("greedy") {
        return Err("--strict and --greedy are mutually exclusive"
            .to_string()
            .into());
    }
    let threshold: Option<f64> = a.get_parsed("threshold")?;
    if let Some(other) = ["strict", "greedy"].into_iter().find(|&f| a.flag(f)) {
        if threshold.is_some() {
            return Err(format!("--threshold and --{other} are mutually exclusive").into());
        }
    }
    let threshold = threshold.unwrap_or(0.5);
    if !(0.5..1.0).contains(&threshold) {
        return Err(format!("--threshold must be in [0.5, 1.0), got {threshold}").into());
    }
    let policy = ingest_policy(&a)?;
    let guard = run_guard(&a)?;
    let mut notes = Vec::new();
    let refs_path = a.require("refs")?;
    let mut taxa = phylo::TaxonSet::new();
    let mut refs = phylo_wire::SniffedReader::open(
        open_input(refs_path)?,
        &mut taxa,
        TaxaPolicy::Grow,
        policy,
    )
    .map_err(|e| format!("{refs_path}: {e}"))?;
    let table = BfhBuilder::new()
        .guard(guard)
        .freeze_stream(&mut taxa, &mut refs)
        .map_err(|e| stream_fail(refs_path, e))?;
    let partial = note_ingest(&mut notes, refs_path, &refs.into_report());
    let tree = if a.flag("strict") {
        bfhrf::consensus::strict_consensus(&table, &taxa)
    } else if a.flag("greedy") {
        bfhrf::consensus::greedy_consensus(&table, &taxa)
    } else {
        bfhrf::consensus::majority_consensus(&table, &taxa, threshold)
    }
    .map_err(core_fail)?;
    Ok(CmdOutcome {
        stdout: format!("{}\n", phylo::write_newick(&tree, &taxa)),
        notes,
        code: if partial { EXIT_PARTIAL } else { EXIT_OK },
    })
}

fn cmd_matrix(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["lenient", "profile"])?;
    a.reject_unknown(
        &["refs", "budget-mb", "max-errors", "mem-budget", "timeout"],
        &["lenient", "profile"],
    )?;
    let policy = ingest_policy(&a)?;
    let mut guard = run_guard(&a)?;
    let mut prof = phylo_obs::Profiler::new(a.flag("profile"));
    // --budget-mb is the pre-existing coarse knob; --mem-budget (bytes)
    // takes precedence when both are given.
    if guard.budget.max_bytes.is_none() {
        let budget_mb: usize = a.get_parsed("budget-mb")?.unwrap_or(4096);
        guard.budget.max_bytes = Some(budget_mb << 20);
    }
    let mut notes = Vec::new();
    let refs_path = a.require("refs")?;
    prof.phase("load");
    let (refs, report) = load_with(refs_path, policy)?;
    let partial = note_ingest(&mut notes, refs_path, &report);
    prof.phase("matrix");
    let m = bfhrf::matrix::rf_matrix_exact_parallel_guarded(&refs.trees, &refs.taxa, &guard)
        .map_err(core_fail)?;
    prof.phase("render");
    let mut out = String::new();
    for i in 0..m.size() {
        for j in 0..m.size() {
            if j > 0 {
                out.push('\t');
            }
            let _ = write!(out, "{}", m.get(i, j));
        }
        out.push('\n');
    }
    notes.extend(prof.render().lines().map(String::from));
    Ok(CmdOutcome {
        stdout: out,
        notes,
        code: if partial { EXIT_PARTIAL } else { EXIT_OK },
    })
}

fn cmd_support(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["refs", "tree"], &[])?;
    let mut refs = load(a.require("refs")?)?;
    let focal_trees = load_queries_against(a.require("tree")?, &mut refs)?;
    let Some(focal) = focal_trees.first() else {
        return Err("the --tree file contains no tree".to_string().into());
    };
    let table = bfhrf::BfhBuilder::new()
        .freeze_trees(&refs.trees, &refs.taxa)
        .map_err(core_fail)?;
    let annotated = bfhrf::support::write_newick_with_support(focal, &refs.taxa, &table);
    let supports = bfhrf::support::edge_support(focal, &refs.taxa, &table);
    let mut out = format!("{annotated}\n");
    let _ = writeln!(out, "edge\tcount\tfraction");
    for (i, s) in supports.iter().enumerate() {
        let _ = writeln!(out, "{i}\t{}\t{:.4}", s.count, s.fraction);
    }
    Ok(CmdOutcome::clean(out))
}

fn cmd_cluster(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["refs", "k", "budget-mb"], &[])?;
    let refs = load(a.require("refs")?)?;
    let k: usize = a
        .get_parsed("k")?
        .ok_or_else(|| "missing required option --k".to_string())?;
    if k == 0 || k > refs.len() {
        return Err(format!("--k must be in 1..={}", refs.len()).into());
    }
    let budget_mb: usize = a.get_parsed("budget-mb")?.unwrap_or(4096);
    let m = bfhrf::matrix::rf_matrix_exact(&refs.trees, &refs.taxa, budget_mb << 20)
        .map_err(core_fail)?;
    let c = bfhrf::cluster::k_medoids(&m, k);
    let sil = bfhrf::cluster::silhouette(&m, &c.assignment, k);
    let mut out = format!(
        "k\t{k}\ncost\t{}\nsilhouette\t{sil:.4}\nmedoids\t{:?}\n",
        c.cost, c.medoids
    );
    let _ = writeln!(out, "tree\tcluster");
    for (i, &cl) in c.assignment.iter().enumerate() {
        let _ = writeln!(out, "{i}\t{cl}");
    }
    Ok(CmdOutcome::clean(out))
}

fn cmd_simulate(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["taxa", "trees", "out", "seed", "pop-scale"], &[])?;
    let n: usize = a
        .get_parsed("taxa")?
        .ok_or_else(|| "missing required option --taxa".to_string())?;
    let r: usize = a
        .get_parsed("trees")?
        .ok_or_else(|| "missing required option --trees".to_string())?;
    let out_path = a.require("out")?;
    let seed: u64 = a.get_parsed("seed")?.unwrap_or(42);
    let pop_scale: f64 = a.get_parsed("pop-scale")?.unwrap_or(0.5);
    if n < 4 {
        return Err("--taxa must be at least 4".to_string().into());
    }
    let mut spec = phylo_sim::DatasetSpec::new("cli", n, r, seed);
    spec.pop_scale = pop_scale;
    let coll = phylo_sim::generate(&spec);
    phylo_sim::datasets::write_collection(Path::new(out_path), &coll)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(CmdOutcome::clean(format!(
        "wrote {r} trees on {n} taxa to {out_path} (seed {seed}, pop-scale {pop_scale})\n"
    )))
}

/// Map an index failure to its exit code: budget refusals travelling
/// inside [`phylo_index::IndexError::Core`] keep [`EXIT_BUDGET`],
/// everything else (corruption, IO, bad Newick) is a generic error.
pub(crate) fn index_fail(e: phylo_index::IndexError) -> CliError {
    match e {
        phylo_index::IndexError::Core(c) => core_fail(c),
        other => CliError {
            message: other.to_string(),
            code: EXIT_ERROR,
        },
    }
}

/// Load a tree file (Newick or binary, sniffed) for a wire payload,
/// validating each record client-side before it goes on the wire.
fn payload_collection(path: &str) -> Result<TreeCollection, CliError> {
    let coll = load(path)?;
    if coll.trees.is_empty() {
        return Err(format!("{path}: contains no trees").into());
    }
    Ok(coll)
}

/// Parse a tree file into Newick protocol payload strings.
fn payload_from_file(path: &str) -> Result<Vec<String>, CliError> {
    let coll = payload_collection(path)?;
    Ok(coll
        .trees
        .iter()
        .map(|t| phylo::write_newick(t, &coll.taxa))
        .collect())
}

/// `bfhrf convert`: re-encode a tree file between Newick text and the
/// `phylo-wire` binary container. The input encoding is sniffed, so
/// converting a file to the format it already carries is a (lossy-free)
/// normalization pass, and round trips are exact: Newick → bin → Newick
/// reproduces the canonical rendering byte for byte.
fn cmd_convert(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["lenient"])?;
    a.reject_unknown(&["in", "out", "format", "max-errors"], &["lenient"])?;
    let policy = ingest_policy(&a)?;
    let in_path = a.require("in")?;
    let out_path = a.require("out")?;
    let target = a.require("format")?;
    let target = phylo_wire::WireFormat::parse(target)
        .ok_or_else(|| format!("unknown format {target:?} (expected newick or bin)"))?;
    let mut notes = Vec::new();
    let (coll, report, found) = load_sniffed_with(in_path, policy)?;
    let partial = note_ingest(&mut notes, in_path, &report);
    let write_fail =
        |e: &dyn std::fmt::Display| CliError::from(format!("cannot write {out_path}: {e}"));
    match target {
        phylo_wire::WireFormat::Bin => {
            let bytes = phylo_wire::collection_to_vec(&coll).map_err(|e| write_fail(&e))?;
            std::fs::write(out_path, bytes).map_err(|e| write_fail(&e))?;
        }
        phylo_wire::WireFormat::Newick => {
            let text: String = coll
                .trees
                .iter()
                .map(|t| format!("{}\n", phylo::write_newick(t, &coll.taxa)))
                .collect();
            std::fs::write(out_path, text).map_err(|e| write_fail(&e))?;
        }
    }
    Ok(CmdOutcome {
        stdout: format!(
            "in\t{in_path}\nin_format\t{found}\nout\t{out_path}\nout_format\t{target}\n\
             n_trees\t{}\nn_taxa\t{}\n",
            coll.trees.len(),
            coll.taxa.len()
        ),
        notes,
        code: if partial { EXIT_PARTIAL } else { EXIT_OK },
    })
}

fn cmd_index(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let Some(verb) = raw.first() else {
        return Err("index needs a verb: build, inspect, compact, add, remove"
            .to_string()
            .into());
    };
    let rest = &raw[1..];
    match verb.as_str() {
        "build" => cmd_index_build(rest),
        "inspect" => cmd_index_inspect(rest),
        "compact" => cmd_index_compact(rest),
        "add" => cmd_index_mutate(rest, true),
        "remove" => cmd_index_mutate(rest, false),
        other => Err(format!(
            "unknown index verb {other:?} (expected build, inspect, compact, add, remove)"
        )
        .into()),
    }
}

fn cmd_index_build(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["lenient", "profile"])?;
    a.reject_unknown(
        &[
            "refs",
            "out",
            "format",
            "shards",
            "build-mode",
            "threads",
            "max-errors",
            "mem-budget",
            "timeout",
            "catalog",
            "collection",
        ],
        &["lenient", "profile"],
    )?;
    let policy = ingest_policy(&a)?;
    let guard = run_guard(&a)?;
    let mut prof = phylo_obs::Profiler::new(a.flag("profile"));
    let mut notes = Vec::new();
    let refs_path = a.require("refs")?;
    // `--format` pins the expected input encoding: the sniffer decides
    // what the file actually carries, and a mismatch is an error instead
    // of a silent fallback (a truncated binary header would otherwise be
    // "parsed" as garbage Newick).
    let expected_format = match a.get("format") {
        None => None,
        Some(s) => Some(
            phylo_wire::WireFormat::parse(s)
                .ok_or_else(|| format!("unknown format {s:?} (expected newick or bin)"))?,
        ),
    };
    let check_format = |found: phylo_wire::WireFormat| -> Result<(), CliError> {
        match expected_format {
            Some(want) if want != found => Err(format!(
                "{refs_path}: --format {want} was requested but the file carries {found}"
            )
            .into()),
            _ => Ok(()),
        }
    };
    if let Some(cat_dir) = a.get("catalog") {
        // Catalog mode: fold the references into a named collection of a
        // local catalog instead of a standalone --out directory.
        let name = a.require("collection")?;
        if a.get("out").is_some() {
            return Err("--catalog/--collection and --out are mutually exclusive"
                .to_string()
                .into());
        }
        let (refs, report, found) = load_sniffed_with(refs_path, policy)?;
        check_format(found)?;
        let partial = note_ingest(&mut notes, refs_path, &report);
        let text: String = refs
            .trees
            .iter()
            .map(|t| format!("{}\n", phylo::write_newick(t, &refs.taxa)))
            .collect();
        let mut cat = phylo_index::Catalog::open(Path::new(cat_dir), None).map_err(index_fail)?;
        let n_trees = cat.create(name, &text).map_err(index_fail)?;
        return Ok(CmdOutcome {
            stdout: format!("catalog\t{cat_dir}\ncollection\t{name}\nn_trees\t{n_trees}\n"),
            notes,
            code: if partial { EXIT_PARTIAL } else { EXIT_OK },
        });
    }
    let out_dir = a.require("out")?;
    prof.phase("load");
    let refs_file = open_input(refs_path)?;
    let threads: Option<usize> = a.get_parsed("threads")?;
    let shards: Option<usize> = a.get_parsed("shards")?;
    let build_mode = a.get("build-mode");
    let mut taxa = phylo::TaxonSet::new();
    let mut refs = phylo_wire::SniffedReader::open(refs_file, &mut taxa, TaxaPolicy::Grow, policy)
        .map_err(|e| format!("{refs_path}: {e}"))?;
    let found = refs.format();
    check_format(found)?;
    prof.phase("build");
    // The references stream into the builder; no parsed tree outlives
    // its chunk, and the folded table is the index's table. The snapshot
    // header records the shard count the flags resolve to.
    let (table, n_shards) = with_threads(threads, || -> Result<_, CliError> {
        let (builder, n_shards) = resolve_builder(build_mode, shards, "sharded")?;
        let table = builder
            .guard(guard.clone())
            .freeze_stream(&mut taxa, &mut refs)
            .map_err(|e| stream_fail(refs_path, e))?;
        Ok((table, n_shards))
    })??;
    let partial = note_ingest(&mut notes, refs_path, &refs.into_report());
    prof.phase("write");
    let index = phylo_index::Index::create_table(Path::new(out_dir), table, n_shards, taxa)
        .map_err(index_fail)?;
    let stats = index.stats();
    notes.extend(prof.render().lines().map(String::from));
    let mut stdout = format!(
        "index\t{out_dir}\ngeneration\t{}\nn_trees\t{}\nn_taxa\t{}\ndistinct\t{}\nsum\t{}\n",
        stats.generation, stats.n_trees, stats.n_taxa, stats.distinct, stats.sum
    );
    // The format row appears only when --format was given, so scripted
    // diffs of the historical output stay byte-identical.
    if expected_format.is_some() {
        let _ = writeln!(stdout, "format\t{found}");
    }
    Ok(CmdOutcome {
        stdout,
        notes,
        code: if partial { EXIT_PARTIAL } else { EXIT_OK },
    })
}

fn cmd_index_inspect(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["check"])?;
    a.reject_unknown(&["index", "catalog", "collection"], &["check"])?;
    if let Some(cat_dir) = a.get("catalog") {
        // Catalog mode: open the named collection (replaying its WAL and
        // healing the tree-list sidecar exactly as the daemon would) and
        // report its stats.
        let name = a.require("collection")?;
        let mut cat = phylo_index::Catalog::open(Path::new(cat_dir), None).map_err(index_fail)?;
        let pin = cat.acquire(name).map_err(index_fail)?;
        let stats = pin.lock().stats();
        return Ok(CmdOutcome::clean(format!(
            "collection\t{name}\ngeneration\t{}\nn_taxa\t{}\nn_trees\t{}\nsum\t{}\ndistinct\t{}\nwal_pending\t{}\n",
            stats.generation, stats.n_taxa, stats.n_trees, stats.sum, stats.distinct, stats.wal_pending
        )));
    }
    let dir = Path::new(a.require("index")?);
    let meta = phylo_index::read_meta(&dir.join(phylo_index::SNAPSHOT_FILE)).map_err(index_fail)?;
    let wal_path = dir.join(phylo_index::WAL_FILE);
    let wal_pending = if wal_path.exists() {
        let (wal_gen, records) = phylo_index::read_wal(&wal_path).map_err(index_fail)?;
        if wal_gen == meta.generation {
            records.len()
        } else {
            0 // stale log, discarded on the next open
        }
    } else {
        0
    };
    let mut out = format!(
        "generation\t{}\nn_taxa\t{}\nn_trees\t{}\nn_shards\t{}\nsum\t{}\ndistinct\t{}\nwal_pending\t{wal_pending}\n",
        meta.generation, meta.n_taxa, meta.n_trees, meta.n_shards, meta.sum, meta.distinct
    );
    // Both on-disk encodings of the table, with format, version, and
    // section sizes: the replay snapshot (authoritative) and the
    // zero-copy frozen sidecar (a cache `open-frozen` consumers map).
    let snap_path = dir.join(phylo_index::SNAPSHOT_FILE);
    let snap_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    let _ = writeln!(
        out,
        "snapshot_format\t{}/v{}\nsnapshot_bytes\t{snap_bytes}",
        String::from_utf8_lossy(phylo_index::SNAPSHOT_MAGIC).trim_end_matches('\0'),
        phylo_index::FORMAT_VERSION
    );
    let frozen_path = dir.join(phylo_index::FROZEN_FILE);
    let frozen_meta = if frozen_path.exists() {
        let fm = phylo_index::read_frozen_meta(&frozen_path).map_err(index_fail)?;
        let _ = writeln!(
            out,
            "frozen_format\t{}/v{}\nfrozen_generation\t{}\nfrozen_bytes\t{}\n\
             frozen_ctrl_bytes\t{}\nfrozen_entries_bytes\t{}\nfrozen_pool_bytes\t{}",
            String::from_utf8_lossy(phylo_index::FROZEN_MAGIC).trim_end_matches('\0'),
            fm.version,
            fm.generation,
            fm.file_len(),
            fm.ctrl.len,
            fm.entries.len,
            fm.pool.len
        );
        Some(fm)
    } else {
        let _ = writeln!(out, "frozen_sidecar\tabsent (compact once to write it)");
        None
    };
    if a.flag("check") {
        // Full validation: load the snapshot, replay the WAL, cross-check.
        let index = phylo_index::Index::open(dir).map_err(index_fail)?;
        let stats = index.stats();
        let _ = writeln!(
            out,
            "check\tok ({} trees, {} splits after WAL replay)",
            stats.n_trees, stats.distinct
        );
        // And the sidecar: recompute every lane checksum and the digest.
        if frozen_meta.is_some() {
            let fm = phylo_index::verify_frozen_with(&phylo_index::RealVfs, &frozen_path)
                .map_err(index_fail)?;
            let _ = writeln!(
                out,
                "frozen_check\tok ({} distinct splits, digest {:016x})",
                fm.layout.distinct, fm.digest
            );
        }
    }
    Ok(CmdOutcome::clean(out))
}

fn cmd_index_compact(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["index"], &[])?;
    let dir = Path::new(a.require("index")?);
    let mut index = phylo_index::Index::open(dir).map_err(index_fail)?;
    let folded = index.stats().wal_pending;
    let meta = index.compact().map_err(index_fail)?;
    Ok(CmdOutcome::clean(format!(
        "generation\t{}\nfolded\t{folded}\nn_trees\t{}\ndistinct\t{}\n",
        meta.generation, meta.n_trees, meta.distinct
    )))
}

fn cmd_index_mutate(raw: &[String], add: bool) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(&["index", "trees"], &[])?;
    let dir = Path::new(a.require("index")?);
    let trees_path = a.require("trees")?;
    let mut index = phylo_index::Index::open(dir).map_err(index_fail)?;
    let payload = payload_from_file(trees_path)?;
    let mut applied = 0usize;
    for newick in &payload {
        let r = if add {
            index.append_add_newick(newick)
        } else {
            index.append_remove_newick(newick)
        };
        r.map_err(|e| CliError {
            message: format!("after {applied} applied: {}", index_fail(e).message),
            code: EXIT_ERROR,
        })?;
        applied += 1;
    }
    let stats = index.stats();
    Ok(CmdOutcome::clean(format!(
        "applied\t{applied}\nn_trees\t{}\nwal_pending\t{}\n",
        stats.n_trees, stats.wal_pending
    )))
}

fn cmd_serve(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &[])?;
    a.reject_unknown(
        &[
            "index",
            "addr",
            "threads",
            "port-file",
            "mem-budget",
            "timeout-ms",
            "catalog",
        ],
        &[],
    )?;
    let cfg = server::ServeConfig {
        index_dir: Path::new(a.require("index")?).to_path_buf(),
        addr: a.get("addr").unwrap_or("127.0.0.1:4077").to_string(),
        // Connections are cheap under the per-connection engine (a parked
        // thread each); the cap only guards against floods.
        threads: a.get_parsed("threads")?.unwrap_or(64),
        mem_budget: a.get_parsed("mem-budget")?,
        timeout_ms: a.get_parsed("timeout-ms")?,
        catalog_dir: a.get("catalog").map(|s| Path::new(s).to_path_buf()),
    };
    let srv = server::Server::bind(&cfg)?;
    for note in srv.notes() {
        eprintln!("bfhrf: {note}");
    }
    let addr = srv.local_addr();
    if let Some(port_file) = a.get("port-file") {
        std::fs::write(port_file, format!("{addr}\n"))
            .map_err(|e| CliError::from(format!("cannot write {port_file}: {e}")))?;
    }
    // The daemon's only immediate signal (stdout is buffered until exit):
    // humans see the address, scripts read the --port-file.
    eprintln!("bfhrf: serving {} on {addr}", cfg.index_dir.display());
    if let Some(cat) = &cfg.catalog_dir {
        eprintln!("bfhrf: catalog at {}", cat.display());
    }
    let served = srv.run()?;
    Ok(CmdOutcome::clean(format!("served\t{served}\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bfhrf-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    fn runv(parts: &[&str]) -> Result<String, String> {
        run(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn runf(parts: &[&str]) -> Result<CmdOutcome, CliError> {
        run_full(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn avgrf_end_to_end() {
        let refs = tmp(
            "refs.nwk",
            "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));\n",
        );
        let queries = tmp("queries.nwk", "((A,B),(C,D));\n");
        let out = runv(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("0\t0.666667"), "got: {out}");
    }

    #[test]
    fn algorithms_agree_via_cli() {
        let refs = tmp(
            "refs2.nwk",
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n",
        );
        let path = refs.to_str().unwrap();
        let base = ["--refs", path, "--threads", "2"];
        let mut outs = Vec::new();
        for alg in ["bfhrf", "bfhrf-seq", "ds", "dsmp", "hashrf", "day"] {
            let mut argv = vec!["avgrf"];
            argv.extend_from_slice(&base);
            argv.extend_from_slice(&["--algorithm", alg]);
            let default = runv(&argv).unwrap();
            // Q = R scores the references in place; naming the same file
            // as --queries must give the same bytes.
            argv.extend_from_slice(&["--queries", path]);
            assert_eq!(runv(&argv).unwrap(), default, "{alg} with --queries");
            outs.push(default);
        }
        for out in &outs[1..] {
            assert_eq!(&outs[0], out);
        }
        let common = runv(&["avgrf", "--refs", path, "--common-taxa"]).unwrap();
        assert!(common.starts_with("# common taxa: 6 of 6"), "{common}");
        assert_eq!(
            runv(&["avgrf", "--refs", path, "--common-taxa", "--queries", path]).unwrap(),
            common
        );
    }

    #[test]
    fn build_modes_and_shards_agree() {
        let refs = tmp(
            "refs10.nwk",
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n",
        );
        let base = runv(&["avgrf", "--refs", refs.to_str().unwrap()]).unwrap();
        for extra in [
            &["--build-mode", "seq"][..],
            &["--build-mode", "parallel"][..],
            &["--build-mode", "sharded", "--shards", "4"][..],
            &["--shards", "7"][..],
        ] {
            let mut argv = vec!["avgrf", "--refs", refs.to_str().unwrap()];
            argv.extend_from_slice(extra);
            assert_eq!(base, runv(&argv).unwrap(), "with {extra:?}");
        }
        // build options are rejected outside the bfhrf algorithms, and
        // nonsense modes/shard counts are typed errors, not panics
        assert!(runv(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--algorithm",
            "ds",
            "--shards",
            "2"
        ])
        .unwrap_err()
        .contains("only apply"));
        assert!(runv(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--build-mode",
            "quantum"
        ])
        .unwrap_err()
        .contains("unknown build mode"));
        assert!(
            runv(&["avgrf", "--refs", refs.to_str().unwrap(), "--shards", "0"])
                .unwrap_err()
                .contains("at least 1")
        );
    }

    #[test]
    fn best_and_consensus() {
        let refs = tmp(
            "refs3.nwk",
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));\n",
        );
        let queries = tmp(
            "queries3.nwk",
            "((A,E),((C,D),(B,F)));\n((A,B),((C,D),(E,F)));\n",
        );
        let best = runv(&[
            "best",
            "--refs",
            refs.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
        ])
        .unwrap();
        assert!(best.contains("best_query\t1"), "got: {best}");

        let cons = runv(&["consensus", "--refs", refs.to_str().unwrap()]).unwrap();
        assert!(cons.ends_with(";\n"));
        assert!(cons.contains('A') && cons.contains('F'));
        let strict = runv(&["consensus", "--refs", refs.to_str().unwrap(), "--strict"]).unwrap();
        assert!(strict.ends_with(";\n"));
    }

    #[test]
    fn matrix_output_shape() {
        let refs = tmp("refs4.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let out = runv(&["matrix", "--refs", refs.to_str().unwrap()]).unwrap();
        let rows: Vec<&str> = out.lines().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], "0\t2");
        assert_eq!(rows[1], "2\t0");
    }

    #[test]
    fn simulate_writes_parseable_file() {
        let dir = std::env::temp_dir().join("bfhrf-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("sim.nwk");
        let msg = runv(&[
            "simulate",
            "--taxa",
            "10",
            "--trees",
            "6",
            "--out",
            out_path.to_str().unwrap(),
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(msg.contains("wrote 6 trees"));
        let coll = phylo_sim::datasets::read_collection(&out_path).unwrap();
        assert_eq!(coll.len(), 6);
        assert_eq!(coll.taxa.len(), 10);
    }

    #[test]
    fn error_paths_are_reported() {
        assert!(runv(&[]).is_err());
        assert!(runv(&["frobnicate"])
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(runv(&["avgrf"]).unwrap_err().contains("--refs"));
        assert!(runv(&["avgrf", "--refs", "/no/such/file.nwk"])
            .unwrap_err()
            .contains("cannot read"));
        let refs = tmp("refs5.nwk", "((A,B),(C,D));\n");
        assert!(runv(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--algorithm",
            "quantum"
        ])
        .unwrap_err()
        .contains("unknown algorithm"));
        assert!(runv(&[
            "consensus",
            "--refs",
            refs.to_str().unwrap(),
            "--threshold",
            "0.2"
        ])
        .is_err());
        // --threshold is checked before the references are opened: a
        // missing file is never reached.
        let missing = "/no/such/refs.nwk";
        for (flags, want) in [
            (
                &["--threshold", "0.3"][..],
                "--threshold must be in [0.5, 1.0), got 0.3",
            ),
            (
                &["--threshold", "1"][..],
                "--threshold must be in [0.5, 1.0), got 1",
            ),
            (
                &["--threshold", "0.6", "--strict"][..],
                "--threshold and --strict are mutually exclusive",
            ),
            (
                &["--greedy", "--threshold", "0.6"][..],
                "--threshold and --greedy are mutually exclusive",
            ),
        ] {
            let mut argv = vec!["consensus", "--refs", missing];
            argv.extend_from_slice(flags);
            let err = runf(&argv).unwrap_err();
            assert_eq!(err.message, want, "{flags:?}");
            assert_eq!(err.code, EXIT_ERROR);
        }
        assert!(
            runv(&["consensus", "--refs", missing, "--threshold", "0.6"])
                .unwrap_err()
                .contains("cannot read")
        );
        assert!(
            runv(&["simulate", "--taxa", "3", "--trees", "5", "--out", "/tmp/x"])
                .unwrap_err()
                .contains("at least 4")
        );
    }

    #[test]
    fn normalized_and_halved_flags() {
        let refs = tmp("refs6.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let plain = runv(&["avgrf", "--refs", refs.to_str().unwrap()]).unwrap();
        assert!(
            plain.contains("0\t1.000000"),
            "each tree: avg (0+2)/2: {plain}"
        );
        let halved = runv(&["avgrf", "--refs", refs.to_str().unwrap(), "--halved"]).unwrap();
        assert!(halved.contains("0\t0.500000"), "{halved}");
        let norm = runv(&["avgrf", "--refs", refs.to_str().unwrap(), "--normalized"]).unwrap();
        assert!(norm.contains("0\t0.500000"), "1 / (2·(4−3)) = 0.5: {norm}");
    }

    #[test]
    fn common_taxa_flag() {
        let refs = tmp(
            "refs7.nwk",
            "(((A,B),G),((C,D),(E,F)));\n(((A,C),B),((D,G),(E,F)));\n",
        );
        let queries = tmp("queries7.nwk", "(((A,B),H),((C,D),(E,F)));\n");
        let out = runv(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--common-taxa",
        ])
        .unwrap();
        assert!(out.contains("# common taxa: 6 of 7"), "got: {out}");
    }

    #[test]
    fn lenient_run_is_partial_with_identical_output() {
        let clean = tmp(
            "clean_h.nwk",
            "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));\n",
        );
        let dirty = tmp(
            "dirty_h.nwk",
            "((A,B),(C,D));\n(Zed,;\n((A,B),(C,D));\n((A,C),(B,D);\n((A,C),(B,D));\n",
        );
        let want = runf(&["avgrf", "--refs", clean.to_str().unwrap()]).unwrap();
        assert_eq!(want.code, EXIT_OK);
        assert!(want.notes.is_empty());
        // strict run on the dirty file fails with the generic error code
        let strict = runf(&["avgrf", "--refs", dirty.to_str().unwrap()]).unwrap_err();
        assert_eq!(strict.code, EXIT_ERROR);
        // lenient run: same stdout as the pre-cleaned file, partial exit
        // code, every skip reported
        let got = runf(&["avgrf", "--refs", dirty.to_str().unwrap(), "--lenient"]).unwrap();
        assert_eq!(got.code, EXIT_PARTIAL);
        assert_eq!(got.stdout, want.stdout);
        assert!(
            got.notes
                .iter()
                .any(|n| n.contains("5 records, 3 accepted, 2 skipped")),
            "{:?}",
            got.notes
        );
        assert_eq!(
            got.notes
                .iter()
                .filter(|n| n.contains("skipped record"))
                .count(),
            2
        );
    }

    #[test]
    fn max_errors_limits_lenient_runs() {
        let dirty = tmp("dirty_lim.nwk", "(A,;\n(B,;\n((A,B),(C,D));\n");
        let err = runf(&[
            "avgrf",
            "--refs",
            dirty.to_str().unwrap(),
            "--lenient",
            "--max-errors",
            "1",
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_ERROR);
        assert!(err.message.contains("exceed the limit"), "{}", err.message);
        let err = runf(&[
            "avgrf",
            "--refs",
            dirty.to_str().unwrap(),
            "--max-errors",
            "1",
        ])
        .unwrap_err();
        assert!(err.message.contains("--lenient"), "{}", err.message);
    }

    #[test]
    fn matrix_budget_failure_exits_3() {
        let refs = tmp("refs_budget.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let err = runf(&[
            "matrix",
            "--refs",
            refs.to_str().unwrap(),
            "--mem-budget",
            "1",
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_BUDGET);
        assert!(err.message.contains("budget"), "{}", err.message);
    }

    #[test]
    fn sequential_builds_are_budgeted_with_exit_3() {
        let refs = tmp("refs_seq_budget.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let refs = refs.to_str().unwrap();
        for argv in [
            &["consensus", "--refs", refs][..],
            &["avgrf", "--refs", refs, "--algorithm", "bfhrf-seq"][..],
        ] {
            let mut argv = argv.to_vec();
            argv.extend(["--mem-budget", "100"]);
            let err = runf(&argv).unwrap_err();
            assert_eq!(err.code, EXIT_BUDGET, "{argv:?}");
            assert!(err.message.contains("resource limit"), "{}", err.message);
            assert!(err.message.contains("BFH build"), "{}", err.message);
        }
    }

    #[test]
    fn unary_chains_past_the_shape_bound_are_budgeted_with_exit_3() {
        // 600 trees on 12 taxa, and the same trees with 30 unary nodes
        // above each one's first leaf: the same splits from 53 shape nodes
        // a tree, where the chunk buffers make room for 2n - 1 = 23.
        let c = phylo_sim::perturb::random_collection(12, 600, 7);
        let plain: String = c
            .trees
            .iter()
            .map(|t| phylo::write_newick(t, &c.taxa) + "\n")
            .collect();
        let chained: String = plain
            .lines()
            .map(|l| {
                let at = l.find('t').unwrap();
                let end = at + 1 + l[at + 1..].find(|c: char| !c.is_ascii_digit()).unwrap();
                let (open, close) = ("(".repeat(30), ")".repeat(30));
                format!("{}{open}{}{close}{}\n", &l[..at], &l[at..end], &l[end..])
            })
            .collect();
        let plain = tmp("refs_plain_shapes.nwk", &plain);
        let chained = tmp("refs_chained_shapes.nwk", &chained);
        let avgrf = |refs: &std::path::Path, budget: Option<usize>| {
            let budget = budget.map(|b| b.to_string());
            let mut argv = vec!["avgrf", "--refs", refs.to_str().unwrap(), "--threads", "2"];
            if let Some(b) = &budget {
                argv.extend(["--mem-budget", b]);
            }
            runf(&argv)
        };
        let want = avgrf(&plain, None).unwrap().stdout;
        assert_eq!(avgrf(&chained, None).unwrap().stdout, want);
        // The smallest budget the plain file builds under.
        let (mut lo, mut hi) = (0usize, 1 << 24);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            match avgrf(&plain, Some(mid)) {
                Ok(_) => hi = mid,
                Err(_) => lo = mid,
            }
        }
        assert_eq!(avgrf(&plain, Some(hi)).unwrap().stdout, want);
        let err = avgrf(&chained, Some(hi)).unwrap_err();
        assert_eq!(err.code, EXIT_BUDGET);
        assert!(err.message.contains("BFH build"), "{}", err.message);
        // Room for the 30 more nodes a tree in both buffers suffices.
        let more = 2 * bfhrf::CHUNK * 30 * phylo::Shapes::NODE_BYTES;
        assert_eq!(avgrf(&chained, Some(hi + more)).unwrap().stdout, want);
    }

    #[test]
    fn timeout_zero_cancels_with_exit_3() {
        let refs = tmp("refs_timeout.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n");
        let err = runf(&["avgrf", "--refs", refs.to_str().unwrap(), "--timeout", "0"]).unwrap_err();
        assert_eq!(err.code, EXIT_BUDGET);
        assert!(err.message.contains("deadline"), "{}", err.message);
    }

    #[test]
    fn streamed_runs_keep_their_guards_and_typed_errors() {
        // 600 trees: the references stream in three chunks.
        let c = phylo_sim::perturb::random_collection(12, 600, 7);
        let text: String = c
            .trees
            .iter()
            .map(|t| phylo::write_newick(t, &c.taxa) + "\n")
            .collect();
        let refs = tmp("refs_streamed.nwk", &text);
        let refs = refs.to_str().unwrap();
        let queries = tmp("queries_streamed.nwk", &text[..text.len() / 3]);
        let queries = queries.to_str().unwrap();
        let empty = tmp("streamed_empty.nwk", "");
        let empty = empty.to_str().unwrap();
        // Before the second chunk is read: both chunk buffers, room for
        // CHUNK trees of 2n − 1 shape nodes and one end each, and the
        // lanes' first group. Q = R also holds room for the first chunk's
        // ranks (one per internal node at most) and split counts.
        let buffers =
            2 * bfhrf::CHUNK * (23 * phylo::Shapes::NODE_BYTES + phylo::Shapes::TREE_BYTES);
        let lanes = 16 + 16 + 16 * 16 + 8 * 8;
        let ranks = bfhrf::CHUNK * (11 + 1) * 4;
        let mut taxa = phylo::TaxonSet::new();
        let mut stream =
            phylo::NewickReader::new(text.as_bytes(), TaxaPolicy::Grow, IngestPolicy::Strict);
        let table = BfhBuilder::new()
            .freeze_stream(&mut taxa, &mut stream)
            .unwrap();
        // The table is checked on top of the buffers and ranks before it
        // doubles; its last doubling needs under twice the finished table's
        // bytes.
        let under = (buffers + lanes - 1).to_string();
        for (extra, need) in [
            (&[][..], buffers + ranks + lanes),
            (&["--queries", queries][..], buffers + lanes),
        ] {
            let argv = |budget: usize| {
                let budget = budget.to_string();
                let mut v = vec!["avgrf", "--refs", refs, "--mem-budget", &budget];
                v.extend_from_slice(extra);
                runf(&v)
            };
            let fits = need + 2 * table.approx_bytes();
            assert_eq!(argv(fits).unwrap().code, EXIT_OK, "{extra:?}");
            for (budget, what) in [
                (
                    need - 1,
                    format!("BFH build chunk buffers needs {need} bytes"),
                ),
                (need, "BFH build table".to_string()),
            ] {
                let err = argv(budget).unwrap_err();
                assert_eq!(err.code, EXIT_BUDGET, "{extra:?}");
                assert!(err.message.contains("resource limit"), "{}", err.message);
                assert!(err.message.contains(&what), "{}", err.message);
            }

            let mut v = vec!["avgrf", "--refs", refs, "--timeout", "0"];
            v.extend_from_slice(extra);
            let err = runf(&v).unwrap_err();
            assert_eq!(err.code, EXIT_BUDGET);
            assert!(err.message.contains("deadline"), "{}", err.message);
        }
        let dir = std::env::temp_dir().join("bfhrf-cli-tests/streamed_idx");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap();
        let err = runf(&[
            "index",
            "build",
            "--refs",
            refs,
            "--out",
            dir,
            "--mem-budget",
            &under,
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_BUDGET);

        // Empty inputs keep their typed errors; a namespace with no taxa
        // rejects any labelled query first.
        let err = runf(&["avgrf", "--refs", empty]).unwrap_err();
        assert_eq!(err.code, EXIT_ERROR);
        assert!(
            err.message.contains("reference collection is empty"),
            "{}",
            err.message
        );
        let err = runf(&["avgrf", "--refs", empty, "--queries", queries]).unwrap_err();
        assert!(err.message.contains("unknown taxon"), "{}", err.message);
        let err = runf(&["avgrf", "--refs", refs, "--queries", empty]).unwrap_err();
        assert_eq!(err.code, EXIT_ERROR);
        assert!(
            err.message.contains("query collection is empty"),
            "{}",
            err.message
        );
        let err = runf(&["best", "--refs", refs, "--queries", empty]).unwrap_err();
        assert!(
            err.message.contains("query collection is empty"),
            "{}",
            err.message
        );
        let bad = tmp("streamed_all_bad.nwk", "(A,;\n(B,(;\n");
        let err = runf(&["avgrf", "--refs", bad.to_str().unwrap(), "--lenient"]).unwrap_err();
        assert_eq!(err.code, EXIT_ERROR);
        assert!(
            err.message.contains("reference collection is empty"),
            "{}",
            err.message
        );
    }

    #[test]
    fn hashrf_degrades_under_budget_with_note() {
        let refs = tmp(
            "refs_degrade.nwk",
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n",
        );
        let want = runf(&["avgrf", "--refs", refs.to_str().unwrap()]).unwrap();
        // A budget below HashRF's bucket-table estimate but comfortably
        // above the fallback BFH build: hashrf degrades, answers match.
        let got = runf(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--algorithm",
            "hashrf",
            "--mem-budget",
            "2000",
        ])
        .unwrap();
        assert_eq!(got.code, EXIT_OK);
        assert_eq!(got.stdout, want.stdout);
        assert!(
            got.notes
                .iter()
                .any(|n| n.contains("degraded hashrf -> bfhrf")),
            "{:?}",
            got.notes
        );
        // With a generous budget hashrf runs as requested, no notes.
        let plain = runf(&[
            "avgrf",
            "--refs",
            refs.to_str().unwrap(),
            "--algorithm",
            "hashrf",
            "--mem-budget",
            "100000000",
        ])
        .unwrap();
        assert!(plain.notes.is_empty());
        assert_eq!(plain.stdout, want.stdout);
    }

    #[test]
    fn consensus_and_matrix_accept_lenient() {
        let dirty = tmp(
            "cons_dirty.nwk",
            "((A,B),(C,D));\n(Broken,;\n((A,B),(C,D));\n",
        );
        let cons = runf(&["consensus", "--refs", dirty.to_str().unwrap(), "--lenient"]).unwrap();
        assert_eq!(cons.code, EXIT_PARTIAL);
        assert!(cons.stdout.ends_with(";\n"));
        assert!(cons.notes[0].contains("1 skipped"), "{:?}", cons.notes);
        let m = runf(&["matrix", "--refs", dirty.to_str().unwrap(), "--lenient"]).unwrap();
        assert_eq!(m.code, EXIT_PARTIAL);
        assert_eq!(m.stdout.lines().count(), 2, "two accepted trees");
    }

    #[test]
    fn best_with_no_queries_is_a_typed_error() {
        let refs = tmp("refs_best_empty.nwk", "((A,B),(C,D));\n");
        let empty = tmp("queries_empty.nwk", "");
        let err = runf(&[
            "best",
            "--refs",
            refs.to_str().unwrap(),
            "--queries",
            empty.to_str().unwrap(),
        ])
        .unwrap_err();
        // surfaced upstream as CoreError::EmptyQuery; the best_query
        // fallback path is a typed error either way, never a panic
        assert_eq!(err.code, EXIT_ERROR);
        assert!(err.message.contains("empty"), "{}", err.message);
    }

    #[test]
    fn help_lists_subcommands() {
        let h = runv(&["help"]).unwrap();
        for cmd in [
            "avgrf",
            "best",
            "consensus",
            "matrix",
            "simulate",
            "support",
            "cluster",
        ] {
            assert!(h.contains(cmd));
        }
        for opt in ["--lenient", "--max-errors", "--mem-budget", "--timeout"] {
            assert!(h.contains(opt), "usage must document {opt}");
        }
        assert!(h.contains("exit codes"));
    }

    #[test]
    fn support_subcommand() {
        let refs = tmp(
            "refs8.nwk",
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),(C,(D,(E,F))));\n((A,C),((B,D),(E,F)));\n",
        );
        let focal = tmp("focal8.nwk", "((A,B),((C,D),(E,F)));\n");
        let out = runv(&[
            "support",
            "--refs",
            refs.to_str().unwrap(),
            "--tree",
            focal.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("0.75"), "{out}");
        assert!(out.lines().next().unwrap().ends_with(';'), "{out}");
        assert!(out.contains("fraction"));
    }

    #[test]
    fn cluster_subcommand() {
        let refs = tmp(
            "refs9.nwk",
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,E),((B,F),(C,D)));\n((A,E),((B,F),(C,D)));\n",
        );
        let out = runv(&["cluster", "--refs", refs.to_str().unwrap(), "--k", "2"]).unwrap();
        assert!(out.contains("k\t2"), "{out}");
        assert!(out.contains("silhouette"), "{out}");
        // trees 0,1 together and 2,3 together
        let rows: Vec<(usize, usize)> = out
            .lines()
            .skip_while(|l| !l.starts_with("tree"))
            .skip(1)
            .map(|l| {
                let mut parts = l.split('\t');
                (
                    parts.next().unwrap().parse().unwrap(),
                    parts.next().unwrap().parse().unwrap(),
                )
            })
            .collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, rows[1].1);
        assert_eq!(rows[2].1, rows[3].1);
        assert_ne!(rows[0].1, rows[2].1);
        // bad k is rejected
        assert!(runv(&["cluster", "--refs", refs.to_str().unwrap(), "--k", "9"]).is_err());
    }

    #[test]
    fn convert_round_trips_between_encodings() {
        let newick = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n";
        let src = tmp("convert-src.nwk", newick);
        let dir = src.parent().unwrap().to_path_buf();
        let bin = dir.join("convert-out.phw");
        let back = dir.join("convert-back.nwk");

        let report = runv(&[
            "convert",
            "--in",
            src.to_str().unwrap(),
            "--out",
            bin.to_str().unwrap(),
            "--format",
            "bin",
        ])
        .unwrap();
        assert!(report.contains("in_format\tnewick"), "{report}");
        assert!(report.contains("out_format\tbin"), "{report}");
        assert!(report.contains("n_trees\t3"), "{report}");
        let bytes = std::fs::read(&bin).unwrap();
        assert_eq!(&bytes[..8], b"PHYLOWIR");

        // bin → Newick reproduces the canonical rendering byte for byte.
        let report = runv(&[
            "convert",
            "--in",
            bin.to_str().unwrap(),
            "--out",
            back.to_str().unwrap(),
            "--format",
            "newick",
        ])
        .unwrap();
        assert!(report.contains("in_format\tbin"), "{report}");
        assert_eq!(std::fs::read_to_string(&back).unwrap(), newick);

        // Every offline consumer sniffs: avgrf over the binary file
        // answers byte-identically to the Newick original.
        let a = runv(&["avgrf", "--refs", src.to_str().unwrap()]).unwrap();
        let b = runv(&["avgrf", "--refs", bin.to_str().unwrap()]).unwrap();
        assert_eq!(a, b);

        // Unknown target format is a typed error.
        let err = runf(&[
            "convert",
            "--in",
            src.to_str().unwrap(),
            "--out",
            back.to_str().unwrap(),
            "--format",
            "xml",
        ])
        .expect_err("xml must be rejected");
        assert!(err.message.contains("unknown format"), "{}", err.message);
    }

    #[test]
    fn index_build_format_pin_and_inspect_sections() {
        let newick = "((A,B),(C,D));\n((A,C),(B,D));\n";
        let src = tmp("buildfmt.nwk", newick);
        let dir = src.parent().unwrap().to_path_buf();
        let bin = dir.join("buildfmt.phw");
        runv(&[
            "convert",
            "--in",
            src.to_str().unwrap(),
            "--out",
            bin.to_str().unwrap(),
            "--format",
            "bin",
        ])
        .unwrap();

        // A mismatched pin fails before any index is written…
        let idx = dir.join("buildfmt-index");
        let _ = std::fs::remove_dir_all(&idx);
        let err = runf(&[
            "index",
            "build",
            "--refs",
            bin.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--format",
            "newick",
        ])
        .expect_err("format mismatch must fail");
        assert!(err.message.contains("carries bin"), "{}", err.message);
        assert!(!idx.exists());

        // …while the matching pin builds and reports the format row.
        let out = runv(&[
            "index",
            "build",
            "--refs",
            bin.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--format",
            "bin",
        ])
        .unwrap();
        assert!(out.contains("format\tbin"), "{out}");
        assert!(out.contains("n_trees\t2"), "{out}");

        // inspect reports both on-disk encodings with versions and sizes;
        // a fresh build writes the frozen sidecar alongside the snapshot.
        let out = runv(&[
            "index",
            "inspect",
            "--index",
            idx.to_str().unwrap(),
            "--check",
        ])
        .unwrap();
        assert!(out.contains("snapshot_format\tBFHSNAP/v"), "{out}");
        assert!(out.contains("snapshot_bytes\t"), "{out}");
        assert!(out.contains("check\tok"), "{out}");
        if out.contains("frozen_format") {
            assert!(out.contains("frozen_format\tBFHFROZ/v"), "{out}");
            assert!(out.contains("frozen_pool_bytes\t"), "{out}");
            assert!(out.contains("frozen_check\tok"), "{out}");
        } else {
            assert!(out.contains("frozen_sidecar\tabsent"), "{out}");
        }
    }

    #[test]
    fn index_build_writes_the_hash_snapshot_and_a_sidecar_open_accepts() {
        // 300 trees on 70 taxa: two chunks, two-word masks.
        let c = phylo_sim::perturb::random_collection(70, 300, 0x1d8);
        let text: String = c
            .trees
            .iter()
            .map(|t| phylo::write_newick(t, &c.taxa) + "\n")
            .collect();
        let refs = tmp("refs_index_table.nwk", &text);
        let refs = refs.to_str().unwrap();
        let root = std::env::temp_dir().join("bfhrf-cli-tests/index_table");
        let _ = std::fs::remove_dir_all(&root);
        let mut taxa = phylo::TaxonSet::new();
        let trees = phylo::read_trees_from_str(&text, &mut taxa, TaxaPolicy::Grow).unwrap();
        let mut digest = None;
        for (flags, shards) in [
            (&["--shards", "3"][..], 3usize),
            (&["--build-mode", "seq"][..], 1),
            (
                &[
                    "--build-mode",
                    "parallel",
                    "--shards",
                    "5",
                    "--threads",
                    "2",
                ][..],
                5,
            ),
        ] {
            let built = root.join(format!("built-{shards}"));
            let mut argv = vec!["index", "build", "--refs", refs, "--out"];
            argv.push(built.to_str().unwrap());
            argv.extend_from_slice(flags);
            runf(&argv).unwrap();
            let table = BfhBuilder::new().freeze_trees(&trees, &taxa).unwrap();
            let hashed = root.join(format!("hashed-{shards}"));
            let index = phylo_index::Index::create_table(&hashed, table, shards, taxa.clone());
            drop(index.unwrap());
            let snapshot = |dir: &std::path::Path| std::fs::read(dir.join("snapshot.bfh")).unwrap();
            assert_eq!(snapshot(&built), snapshot(&hashed), "{flags:?}");

            // The table is the sidecar, and a read-write open takes it as
            // its base after the cross-check, without a note.
            let mut index = phylo_index::Index::open(&built).unwrap();
            assert!(index.notes().is_empty(), "{:?}", index.notes());
            let d = index.view().frozen.digest();
            assert_eq!(*digest.get_or_insert(d), d, "{flags:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn query_format_validation_is_client_side() {
        // Bad format name and non-tree ops fail before any connection is
        // attempted (the addr below is never dialed).
        let err = runf(&[
            "query",
            "--addr",
            "127.0.0.1:1",
            "--op",
            "stats",
            "--format",
            "bin",
        ])
        .expect_err("stats cannot ride the bin encoding");
        assert!(
            err.message.contains("--format bin only applies"),
            "{}",
            err.message
        );
        let err = runf(&["query", "--addr", "127.0.0.1:1", "--format", "tsv"])
            .expect_err("unknown format must fail");
        assert!(err.message.contains("unknown format"), "{}", err.message);
    }

    #[test]
    fn query_flags_are_refused_on_ops_that_ignore_them() {
        // best-query, ping, stats, add, ... carry no presentation flags on
        // the wire, so --normalized/--halved would be dropped silently; the
        // client refuses them before dialing (the addr is never dialed).
        let q = tmp("flags_q.nwk", "((A,B),(C,D));\n");
        let q = q.to_str().unwrap();
        for (op, flag) in [
            ("best-query", "--normalized"),
            ("best-query", "--halved"),
            ("ping", "--normalized"),
            ("stats", "--halved"),
            ("add", "--normalized"),
        ] {
            let mut argv = vec!["query", "--addr", "127.0.0.1:1", "--op", op, flag];
            argv.extend(["--queries", q, "--trees", q]);
            let err = runf(&argv).expect_err("flag must be refused");
            assert_eq!(err.code, EXIT_ERROR);
            assert!(
                err.message.contains("only apply to the ops that take them")
                    && err.message.contains("avgrf, also with --batch, and xavgrf")
                    && err.message.contains(&format!("{op:?}")),
                "{op}: {}",
                err.message
            );
        }
        // The scoring ops take them: they get as far as dialing.
        for argv in [
            vec!["--queries", q],
            vec!["--queries", q, "--batch", "2"],
            vec![
                "--op",
                "xavgrf",
                "--refs-collection",
                "a",
                "--queries-collection",
                "b",
            ],
        ] {
            let mut full = vec!["query", "--addr", "127.0.0.1:1", "--normalized", "--halved"];
            full.extend(argv);
            let err = runf(&full).expect_err("nothing listens on port 1");
            assert!(err.message.contains("cannot connect"), "{}", err.message);
        }
    }
}
