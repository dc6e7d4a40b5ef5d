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
//! bfhrf consensus --refs refs.nwk [--threshold 0.5 | --strict]
//! bfhrf matrix    --refs refs.nwk [--budget-mb M]
//! bfhrf simulate  --taxa N --trees R --out file.nwk [--seed S] [--pop-scale P]
//! bfhrf index     build|inspect|compact|add|remove   (persistent BFH index)
//! bfhrf serve     --index DIR [--addr HOST:PORT] [--threads MAX_CONNS] [--port-file F]
//! bfhrf query     --addr HOST:PORT --op avgrf|best-query|stats|... [--queries F]
//!                 [--batch N]   (pipelined wire-protocol-v2 batch frames)
//! ```

pub mod args;
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
use phylo::{IngestPolicy, IngestReport, TaxaPolicy, TreeCollection};
use std::fmt::Write as _;
use std::path::Path;
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
        "query" => cmd_query(rest),
        "stats" => cmd_stats(rest),
        "catalog" => cmd_catalog(rest),
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
     \x20          --build-mode MODE    hash build: seq | parallel | sharded\n\
     \x20          --shards K           shard count for the sharded build\n\
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

/// Resolve `--build-mode` / `--shards` into a configured [`BfhBuilder`].
///
/// Defaults are per-algorithm: `bfhrf` builds sharded (the fast path),
/// `bfhrf-seq` builds sequentially. An explicit `--build-mode` or
/// `--shards` overrides either.
fn resolve_builder(
    mode: Option<&str>,
    shards: Option<usize>,
    default_mode: &str,
) -> Result<BfhBuilder, String> {
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
    Ok(BfhBuilder::new()
        .parallel(mode != "seq")
        .shards(shards.unwrap_or(default_shards)))
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

/// A BFHRF run that never holds the parsed trees: the references stream
/// into the builder a chunk at a time, then either their kept split masks
/// are scored against the frozen table (Q = R) or the query file streams
/// through it.
struct Streamed<'a> {
    refs: &'a str,
    queries: Option<&'a str>,
    policy: IngestPolicy,
    /// `bfhrf-seq`: build sequentially unless `--build-mode` says
    /// otherwise, and score on one thread. Otherwise the build is sharded
    /// and scoring parallel.
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
            let builder = resolve_builder(build_mode, shards, default_mode)?.guard(guard.clone());
            prof.phase("build");
            let (frozen, kept) = match self.queries {
                None => builder
                    .freeze_stream_kept(&mut taxa, |t| refs.next_tree(t))
                    .map(|(table, kept)| (table, Some(kept))),
                Some(_) => builder
                    .freeze_stream(&mut taxa, |t| refs.next_tree(t))
                    .map(|table| (table, None)),
            }
            .map_err(|e| stream_fail(refs_path, e))?;
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
                    let scores =
                        bfhrf::rf::bfhrf_streaming(&frozen, &mut taxa, parallel, guard, |t| {
                            queries.next_tree(t)
                        })
                        .map_err(|e| stream_fail(path, e))?;
                    partial |= note_ingest(notes, path, &queries.into_report());
                    scores
                }
            };
            Ok((scores, taxa.len(), partial))
        })?
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
    let policy = ingest_policy(&a)?;
    let guard = run_guard(&a)?;
    let mut notes = Vec::new();
    let refs_path = a.require("refs")?;
    let (refs, report) = load_with(refs_path, policy)?;
    let partial = note_ingest(&mut notes, refs_path, &report);
    let bfh = BfhBuilder::new()
        .guard(guard.clone())
        .from_trees(&refs.trees, &refs.taxa)
        .map_err(core_fail)?;
    let tree = if a.flag("strict") {
        bfhrf::consensus::strict_consensus(&bfh, &refs.taxa)
    } else if a.flag("greedy") {
        bfhrf::consensus::greedy_consensus(&bfh, &refs.taxa)
    } else {
        let threshold: f64 = a.get_parsed("threshold")?.unwrap_or(0.5);
        bfhrf::consensus::majority_consensus(&bfh, &refs.taxa, threshold)
    }
    .map_err(core_fail)?;
    Ok(CmdOutcome {
        stdout: format!("{}\n", phylo::write_newick(&tree, &refs.taxa)),
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
    let bfh = bfhrf::Bfh::build(&refs.trees, &refs.taxa);
    let annotated = bfhrf::support::write_newick_with_support(focal, &refs.taxa, &bfh);
    let supports = bfhrf::support::edge_support(focal, &refs.taxa, &bfh);
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
        let builder = resolve_builder(build_mode, shards, "sharded")?.guard(guard.clone());
        let table = builder
            .freeze_stream(&mut taxa, |t| refs.next_tree(t))
            .map_err(|e| stream_fail(refs_path, e))?;
        Ok((table, builder.shard_count()))
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
            phylo_index::FROZEN_VERSION,
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

/// Client-side retry budget for idempotent query ops: exponential backoff
/// with jitter between attempts, reset whenever a request actually
/// succeeds (so a long batch session is allowed `retries` consecutive
/// failures, not `retries` over its whole life).
///
/// Only reads (`avgrf`, `best-query`, `stats`, `ping`) may carry a retry
/// budget — re-sending an `add` after an ambiguous failure could apply it
/// twice, so mutations keep the old fail-fast contract.
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

    /// Account one failure. When budget remains: sleep the backoff (with
    /// jitter), report the retry on stderr, and return `true` so the
    /// caller loops. When exhausted: return `false` — the caller surfaces
    /// the underlying error with its usual exit code.
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

/// Whether a failed *response* (ok=false) is safe to retry: only the
/// `busy` shed, which the server sends before running anything.
fn is_busy_response(resp: &json::Json) -> bool {
    resp.get("ok").and_then(json::Json::as_bool) == Some(false)
        && resp.get("code").and_then(json::Json::as_str) == Some("busy")
}

/// One request/response round trip with a retry budget: transport
/// failures (connect, send, read, malformed or truncated response) and
/// `busy` sheds back off and reconnect; typed server failures other than
/// `busy` return immediately — they would fail identically on a resend.
fn send_request_retry(
    addr: &str,
    request: &json::Json,
    retry: &mut Retry,
) -> Result<json::Json, CliError> {
    loop {
        match send_request(addr, request) {
            Ok(resp) if is_busy_response(&resp) => {
                if retry.pause("server is busy") {
                    continue;
                }
                return Ok(resp); // exhausted: caller maps busy → exit 1
            }
            Ok(resp) => {
                retry.reset();
                return Ok(resp);
            }
            Err(e) => {
                if retry.pause(&e.message) {
                    continue;
                }
                return Err(e);
            }
        }
    }
}

/// One request/response round trip against a running server.
fn send_request(addr: &str, request: &json::Json) -> Result<json::Json, CliError> {
    use std::io::{BufRead as _, Write as _};

    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::from(format!("cannot connect to {addr}: {e}")))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
    stream
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| CliError::from(format!("cannot send request to {addr}: {e}")))?;
    let mut line = String::new();
    std::io::BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| CliError::from(format!("no response from {addr}: {e}")))?;
    if line.trim().is_empty() {
        return Err(format!("server at {addr} closed the connection without answering").into());
    }
    json::parse(line.trim()).map_err(|e| format!("malformed response: {e}").into())
}

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

fn cmd_query(raw: &[String]) -> Result<CmdOutcome, CliError> {
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
    let collection = a.get("collection").map(str::to_string);
    if collection.is_some() && !ROUTED_OPS.contains(&op) {
        return Err(format!(
            "--collection only applies to collection-routed ops ({}); got {op:?}",
            ROUTED_OPS.join(", ")
        )
        .into());
    }
    let format = match a.get("format") {
        None => phylo_wire::WireFormat::Newick,
        Some(s) => phylo_wire::WireFormat::parse(s)
            .ok_or_else(|| format!("unknown format {s:?} (expected newick or bin)"))?,
    };
    if format == phylo_wire::WireFormat::Bin && !TREE_PAYLOAD_OPS.contains(&op) {
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
    let mut retry = Retry::new(retries, backoff_ms);

    if let Some(batch) = a.get_parsed::<usize>("batch")? {
        if op != "avgrf" {
            return Err(format!("--batch only applies to --op avgrf (got {op:?})").into());
        }
        if batch == 0 {
            return Err("--batch must be at least 1".to_string().into());
        }
        let coll = payload_collection(a.require("queries")?)?;
        let flags = proto::QueryFlags {
            normalized: a.flag("normalized"),
            halved: a.flag("halved"),
        };
        return batched_avgrf(&addr, batch, &coll, format, flags, collection, retry);
    }

    if format == phylo_wire::WireFormat::Bin {
        // Binary payloads need one persistent session: negotiate the
        // encoding in the hello, learn the server's taxon namespace, then
        // send the op on the same connection.
        let payload_key: &'static str = if matches!(op, "avgrf" | "best-query") {
            "queries"
        } else {
            "trees"
        };
        let coll = payload_collection(a.require(payload_key)?)?;
        let mut extra: Vec<(&'static str, json::Json)> = Vec::new();
        if matches!(op, "avgrf" | "best-query") {
            if a.flag("normalized") {
                extra.push(("normalized", true.into()));
            }
            if a.flag("halved") {
                extra.push(("halved", true.into()));
            }
        }
        let resp = send_request_bin_retry(
            &addr,
            op,
            &coll,
            payload_key,
            &extra,
            collection.as_deref(),
            &mut retry,
        )?;
        return finish_query_response(op, &resp);
    }

    let mut fields: Vec<(&str, json::Json)> = vec![("op", op.into())];
    match op {
        "avgrf" | "best-query" => {
            let payload = payload_from_file(a.require("queries")?)?;
            fields.push((
                "queries",
                json::Json::Arr(payload.into_iter().map(Into::into).collect()),
            ));
            if a.flag("normalized") {
                fields.push(("normalized", true.into()));
            }
            if a.flag("halved") {
                fields.push(("halved", true.into()));
            }
        }
        "add" | "remove" => {
            let payload = payload_from_file(a.require("trees")?)?;
            fields.push((
                "trees",
                json::Json::Arr(payload.into_iter().map(Into::into).collect()),
            ));
        }
        "ping" => fields.insert(0, ("v", 2u64.into())),
        "stats" | "compact" | "taxa" | "shutdown" => {}
        "xavgrf" => {
            fields.push(("refs", a.require("refs-collection")?.into()));
            fields.push(("queries", a.require("queries-collection")?.into()));
            if a.flag("normalized") {
                fields.push(("normalized", true.into()));
            }
            if a.flag("halved") {
                fields.push(("halved", true.into()));
            }
        }
        "catalog-create" => {
            fields.push(("name", a.require("name")?.into()));
            if let Some(trees_path) = a.get("trees") {
                let payload = payload_from_file(trees_path)?;
                fields.push((
                    "trees",
                    json::Json::Arr(payload.into_iter().map(Into::into).collect()),
                ));
            }
        }
        "catalog-drop" => fields.push(("name", a.require("name")?.into())),
        "catalog-list" => {}
        other => {
            return Err(format!(
                "unknown op {other:?} (expected avgrf, best-query, ping, stats, taxa, add, \
                 remove, compact, xavgrf, catalog-create, catalog-drop, catalog-list, shutdown)"
            )
            .into())
        }
    }
    // Collection routing and the catalog/cross-collection ops are a v2
    // vocabulary: frame them explicitly so an old server fails loudly
    // instead of guessing. Collection-less legacy ops keep their exact
    // pre-catalog frames.
    if let Some(name) = &collection {
        fields.push(("collection", name.as_str().into()));
    }
    let needs_v2 = collection.is_some()
        || matches!(
            op,
            "taxa" | "xavgrf" | "catalog-create" | "catalog-drop" | "catalog-list"
        );
    if needs_v2 && op != "ping" {
        fields.insert(0, ("v", 2u64.into()));
    }
    let request = json::Json::obj(fields);
    let resp = send_request_retry(&addr, &request, &mut retry)?;
    finish_query_response(op, &resp)
}

/// Shared tail of `query`: map a failed response to its exit code, relay
/// server notes to stderr, render the table.
fn finish_query_response(op: &str, resp: &json::Json) -> Result<CmdOutcome, CliError> {
    if resp.get("ok").and_then(json::Json::as_bool) != Some(true) {
        let code = resp
            .get("code")
            .and_then(json::Json::as_str)
            .unwrap_or("error");
        // The finer outcome label (budget vs cancelled) when the server
        // sends one; older servers only send the code.
        let outcome = resp
            .get("outcome")
            .and_then(json::Json::as_str)
            .unwrap_or(code);
        let message = resp
            .get("error")
            .and_then(json::Json::as_str)
            .unwrap_or("server reported an unspecified failure");
        return Err(CliError {
            message: format!("server: [{outcome}] {message}"),
            code: server::protocol_code_to_exit(code),
        });
    }
    // Degradation notes travel with successful responses; relay them to
    // stderr so `query` matches the offline commands' reporting.
    let notes: Vec<String> = resp
        .get("notes")
        .and_then(json::Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|n| n.as_str().map(|s| format!("server: {s}")))
        .collect();
    let stdout = render_response(op, resp)?;
    Ok(CmdOutcome {
        stdout,
        notes,
        code: EXIT_OK,
    })
}

/// A batch-session failure, tagged with whether an idempotent retry can
/// absorb it. Transport failures (connect, send, read, truncated or
/// malformed lines) and `busy` sheds are retryable; typed server errors
/// are not — resending the same frame would fail the same way.
struct SessionError {
    retryable: bool,
    err: CliError,
}

impl SessionError {
    fn transport(err: CliError) -> SessionError {
        SessionError {
            retryable: true,
            err,
        }
    }

    fn fatal(err: CliError) -> SessionError {
        SessionError {
            retryable: false,
            err,
        }
    }
}

/// One connected, hello-handshaken batch session.
struct BatchSession {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::io::BufWriter<std::net::TcpStream>,
    max_batch: usize,
}

/// Connect and run the `hello` handshake: learn the server's batch
/// ceiling before committing to a frame size (an old server that cannot
/// answer `hello` fails loudly here instead of mis-parsing v2 frames
/// later). When `encoding` asks for a non-default tree encoding, the
/// server must echo it back — a hello answer without the echo means the
/// server does not speak that encoding, and the session fails instead of
/// sending payloads the server would mis-read as Newick.
fn open_batch_session(
    addr: &str,
    encoding: Option<proto::WireEncoding>,
) -> Result<BatchSession, SessionError> {
    use proto::{Envelope, Request, Response};
    use std::io::Write as _;

    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| SessionError::transport(format!("cannot connect to {addr}: {e}").into()))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
    stream.set_nodelay(true).ok();
    let writer_stream = stream.try_clone().map_err(|e| {
        SessionError::transport(format!("cannot clone connection to {addr}: {e}").into())
    })?;
    // Batch frames run large (a 64-query frame on real trees is hundreds
    // of kilobytes); a roomy write buffer keeps each frame to a few
    // syscalls instead of dozens of 8 KB slices.
    let mut writer = std::io::BufWriter::with_capacity(128 << 10, writer_stream);
    let mut reader = std::io::BufReader::with_capacity(64 << 10, stream);
    let hello = Envelope::v2(Request::Hello { encoding }, None);
    writer
        .write_all(format!("{}\n", hello.to_json()).as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| {
            SessionError::transport(format!("cannot send request to {addr}: {e}").into())
        })?;
    let max_batch = match read_batch_response(&mut reader, addr)?.0 {
        Response::Hello {
            max_batch,
            encoding: echoed,
            ..
        } => {
            if let Some(wanted) = encoding {
                if echoed != Some(wanted) {
                    return Err(SessionError::fatal(
                        format!(
                            "server at {addr} did not accept the {:?} tree encoding \
                             (no echo in its hello answer); upgrade the server or \
                             drop --format {}",
                            wanted.as_str(),
                            wanted.as_str()
                        )
                        .into(),
                    ));
                }
            }
            max_batch
        }
        Response::Error { code, message, .. } => {
            let err = CliError::from(format!("server rejected the hello handshake: {message}"));
            return Err(if code == proto::ErrorCode::Busy {
                SessionError::transport(err)
            } else {
                SessionError::fatal(err)
            });
        }
        _ => {
            return Err(SessionError::fatal(
                format!(
                    "server at {addr} answered the hello handshake with an unexpected shape \
                     (not a v2 server?)"
                )
                .into(),
            ))
        }
    };
    Ok(BatchSession {
        reader,
        writer,
        max_batch,
    })
}

fn read_batch_response(
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    addr: &str,
) -> Result<(proto::Response, Option<u64>), SessionError> {
    use std::io::BufRead as _;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| SessionError::transport(format!("no response from {addr}: {e}").into()))?;
    if line.trim().is_empty() {
        return Err(SessionError::transport(
            format!("server at {addr} closed the connection mid-session").into(),
        ));
    }
    let doc = json::parse(line.trim())
        .map_err(|e| SessionError::transport(format!("malformed response: {e}").into()))?;
    proto::Response::from_json(&doc)
        .map_err(|e| SessionError::transport(format!("malformed response: {e}").into()))
}

/// Fetch the server's taxon labels over an open session — the namespace
/// binary payloads must be encoded in. Label order *is* id order.
fn fetch_server_taxa(
    session: &mut BatchSession,
    addr: &str,
    collection: Option<&str>,
) -> Result<Vec<String>, SessionError> {
    use proto::{Envelope, Request, Response};
    use std::io::Write as _;

    let env = Envelope::v2(
        Request::Taxa {
            collection: collection.map(str::to_string),
        },
        None,
    );
    session
        .writer
        .write_all(format!("{}\n", env.to_json()).as_bytes())
        .and_then(|()| session.writer.flush())
        .map_err(|e| {
            SessionError::transport(format!("cannot send request to {addr}: {e}").into())
        })?;
    match read_batch_response(&mut session.reader, addr)?.0 {
        Response::Taxa { labels, .. } => Ok(labels),
        Response::Error { code, message, .. } => {
            let err = CliError::from(format!("server cannot list its taxa: {message}"));
            Err(if code == proto::ErrorCode::Busy {
                SessionError::transport(err)
            } else {
                SessionError::fatal(err)
            })
        }
        _ => Err(SessionError::fatal(
            format!("server at {addr} answered the taxa request with an unexpected shape").into(),
        )),
    }
}

/// Send one raw-JSON request over an open session and read the raw
/// response document (the single-op path renders raw documents, not
/// typed [`proto::Response`] values).
fn session_round_trip(
    session: &mut BatchSession,
    addr: &str,
    request: &json::Json,
) -> Result<json::Json, SessionError> {
    use std::io::{BufRead as _, Write as _};

    session
        .writer
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| session.writer.flush())
        .map_err(|e| {
            SessionError::transport(format!("cannot send request to {addr}: {e}").into())
        })?;
    let mut line = String::new();
    session
        .reader
        .read_line(&mut line)
        .map_err(|e| SessionError::transport(format!("no response from {addr}: {e}").into()))?;
    if line.trim().is_empty() {
        return Err(SessionError::transport(
            format!("server at {addr} closed the connection mid-session").into(),
        ));
    }
    json::parse(line.trim())
        .map_err(|e| SessionError::transport(format!("malformed response: {e}").into()))
}

/// One binary-encoded request with a retry budget: each attempt opens a
/// fresh session (hello negotiating `bin`, then the taxa exchange), so a
/// reconnect re-learns the namespace before re-encoding the payload.
fn send_request_bin_retry(
    addr: &str,
    op: &str,
    coll: &TreeCollection,
    payload_key: &'static str,
    extra: &[(&'static str, json::Json)],
    collection: Option<&str>,
    retry: &mut Retry,
) -> Result<json::Json, CliError> {
    let attempt = |addr: &str| -> Result<json::Json, SessionError> {
        let mut session = open_batch_session(addr, Some(proto::WireEncoding::Bin))?;
        let labels = fetch_server_taxa(&mut session, addr, collection)?;
        let payload = encode_payload_bin(coll, &labels).map_err(SessionError::fatal)?;
        let mut fields: Vec<(&str, json::Json)> = vec![("v", 2u64.into()), ("op", op.into())];
        fields.push((
            payload_key,
            json::Json::Arr(payload.into_iter().map(Into::into).collect()),
        ));
        for (key, value) in extra {
            fields.push((key, value.clone()));
        }
        if let Some(name) = collection {
            fields.push(("collection", name.into()));
        }
        session_round_trip(&mut session, addr, &json::Json::obj(fields))
    };
    loop {
        match attempt(addr) {
            Ok(resp) if is_busy_response(&resp) => {
                if retry.pause("server is busy") {
                    continue;
                }
                return Ok(resp); // exhausted: caller maps busy → exit 1
            }
            Ok(resp) => {
                retry.reset();
                return Ok(resp);
            }
            Err(e) => {
                if e.retryable && retry.pause(&e.err.message) {
                    continue;
                }
                return Err(e.err);
            }
        }
    }
}

/// `bfhrf query --batch N`: one persistent wire-protocol-v2 session that
/// packs the query file into `batch`-sized frames and keeps up to
/// [`PIPELINE_WINDOW`] frames in flight. The output is the same
/// `query\tavg_rf` table single-query mode prints (indices renumbered
/// across frames), so it diffs cleanly against offline `bfhrf avgrf`; the
/// 0/1/3 exit-code contract is unchanged, with the first failing frame
/// aborting the session.
///
/// With a retry budget, a dropped connection (daemon restart, network
/// blip) or a `busy` shed reconnects after a backoff, re-runs the
/// handshake, and resends every unanswered frame. Frame sizing is fixed
/// by the **first** handshake, so rows land in the output exactly once
/// and the final table is byte-identical to an uninterrupted run. Each
/// answered frame restores the budget.
///
/// `--format bin` sessions negotiate the binary tree encoding in the
/// hello and run the taxa exchange before the first frame; the payload is
/// re-encoded per session because the server's namespace is only known
/// once connected (and could differ after a restart).
fn batched_avgrf(
    addr: &str,
    batch: usize,
    source: &TreeCollection,
    format: phylo_wire::WireFormat,
    flags: proto::QueryFlags,
    collection: Option<String>,
    mut retry: Retry,
) -> Result<CmdOutcome, CliError> {
    use phylo_wire::WireFormat;
    use proto::{Envelope, Request, Response, WireEncoding};
    use std::io::Write as _;

    /// Frames in flight at once: deep enough to hide a round trip, shallow
    /// enough that neither side buffers unboundedly.
    const PIPELINE_WINDOW: usize = 32;

    // Newick payloads never change between sessions; render them once.
    let newick_payload: Vec<String> = match format {
        WireFormat::Newick => source
            .trees
            .iter()
            .map(|t| phylo::write_newick(t, &source.taxa))
            .collect(),
        WireFormat::Bin => Vec::new(),
    };
    let encoding = match format {
        WireFormat::Newick => None,
        WireFormat::Bin => Some(WireEncoding::Bin),
    };
    let total = source.trees.len();

    let mut out = String::from("query\tavg_rf\n");
    let mut notes: Vec<String> = Vec::new();
    // Fixed after the first handshake; `None` until then.
    let mut plan: Option<(usize, usize)> = None; // (frame_size, n_frames)
    let mut read = 0usize; // frames fully answered and rendered

    'session: loop {
        let mut session = match open_batch_session(addr, encoding) {
            Ok(s) => s,
            Err(e) => {
                if e.retryable && retry.pause(&e.err.message) {
                    continue 'session;
                }
                return Err(e.err);
            }
        };
        let bin_payload: Vec<String>;
        let items: &[String] = match format {
            WireFormat::Newick => &newick_payload,
            WireFormat::Bin => {
                let labels = match fetch_server_taxa(&mut session, addr, collection.as_deref()) {
                    Ok(labels) => labels,
                    Err(e) => {
                        if e.retryable && retry.pause(&e.err.message) {
                            continue 'session;
                        }
                        return Err(e.err);
                    }
                };
                bin_payload = encode_payload_bin(source, &labels)?;
                &bin_payload
            }
        };
        let BatchSession {
            mut reader,
            mut writer,
            max_batch,
        } = session;
        let (frame_size, n_frames) = match plan {
            None => {
                let fs = batch.min(max_batch).max(1);
                let p = (fs, total.div_ceil(fs));
                plan = Some(p);
                p
            }
            Some((fs, _)) if fs > max_batch.max(1) => {
                // The replacement server advertises a smaller ceiling than
                // the frames we already rendered rows from; re-chunking
                // would renumber rows, so fail instead of emitting a table
                // that no uninterrupted run could produce.
                return Err(format!(
                    "server at {addr} restarted with a smaller batch ceiling ({max_batch} < \
                     {fs}); rerun the query"
                )
                .into());
            }
            Some(p) => p,
        };
        if read >= n_frames {
            break 'session;
        }
        let mut sent = read; // everything past `read` is unanswered: resend
        let failure: SessionError = loop {
            let mut send_err: Option<std::io::Error> = None;
            while sent < n_frames && sent - read < PIPELINE_WINDOW {
                let lo = sent * frame_size;
                let hi = total.min(lo + frame_size);
                let env = Envelope::v2(
                    Request::Batch {
                        queries: items[lo..hi].to_vec(),
                        flags,
                        collection: collection.clone(),
                    },
                    Some(sent as u64),
                );
                if let Err(e) = writer.write_all(format!("{}\n", env.to_json()).as_bytes()) {
                    send_err = Some(e);
                    break;
                }
                sent += 1;
            }
            if let Some(e) = send_err.or_else(|| writer.flush().err()) {
                break SessionError::transport(
                    format!("cannot send request to {addr}: {e}").into(),
                );
            }
            let (resp, id) = match read_batch_response(&mut reader, addr) {
                Ok(r) => r,
                Err(e) => break e,
            };
            match resp {
                Response::Scores {
                    scores,
                    notes: frame_notes,
                    ..
                } => {
                    if id != Some(read as u64) {
                        break SessionError::transport(
                            format!("server answered frame {id:?} where frame {read} was expected")
                                .into(),
                        );
                    }
                    let base = read * frame_size;
                    for row in &scores {
                        let _ = writeln!(out, "{}\t{:.6}", base + row.index, row.avg);
                    }
                    for n in frame_notes {
                        let n = format!("server: {n}");
                        if !notes.contains(&n) {
                            notes.push(n);
                        }
                    }
                    read += 1;
                    retry.reset();
                    if read >= n_frames {
                        break 'session;
                    }
                }
                Response::Error {
                    code,
                    outcome,
                    message,
                } => {
                    let err = CliError {
                        message: format!("server: [{}] {message}", outcome.as_str()),
                        code: server::protocol_code_to_exit(code.as_str()),
                    };
                    break if code == proto::ErrorCode::Busy {
                        SessionError::transport(err)
                    } else {
                        SessionError::fatal(err)
                    };
                }
                _ => {
                    break SessionError::transport(
                        "server answered a batch frame with an unexpected shape"
                            .to_string()
                            .into(),
                    )
                }
            }
        };
        if failure.retryable && retry.pause(&failure.err.message) {
            continue 'session;
        }
        return Err(failure.err);
    }
    Ok(CmdOutcome {
        stdout: out,
        notes,
        code: EXIT_OK,
    })
}

/// Render a successful server response in the same tab-separated shapes
/// the offline subcommands print, so outputs diff cleanly against
/// `bfhrf avgrf` / `bfhrf best`.
fn render_response(op: &str, resp: &json::Json) -> Result<String, CliError> {
    let field = |key: &str| -> Result<&json::Json, CliError> {
        resp.get(key)
            .ok_or_else(|| CliError::from(format!("response is missing {key:?}")))
    };
    match op {
        "avgrf" => {
            let mut out = String::from("query\tavg_rf\n");
            for row in field("scores")?.as_arr().unwrap_or(&[]) {
                let idx = row.get("index").and_then(json::Json::as_u64).unwrap_or(0);
                let avg = row
                    .get("avg")
                    .and_then(json::Json::as_f64)
                    .unwrap_or(f64::NAN);
                let _ = writeln!(out, "{idx}\t{avg:.6}");
            }
            Ok(out)
        }
        "best-query" => Ok(format!(
            "best_query\t{}\navg_rf\t{:.6}\ntotal_rf\t{}\n",
            field("best_index")?.as_u64().unwrap_or(0),
            field("avg")?.as_f64().unwrap_or(f64::NAN),
            field("total")?.as_u64().unwrap_or(0),
        )),
        "stats" => {
            let mut out = String::new();
            for key in [
                "generation",
                "n_trees",
                "n_taxa",
                "distinct",
                "sum",
                "wal_pending",
                "served",
            ] {
                let _ = writeln!(out, "{key}\t{}", field(key)?.as_u64().unwrap_or(0));
            }
            Ok(out)
        }
        "add" | "remove" => Ok(format!(
            "applied\t{}\nn_trees\t{}\n",
            field("applied")?.as_u64().unwrap_or(0),
            field("n_trees")?.as_u64().unwrap_or(0),
        )),
        "compact" => Ok(format!(
            "generation\t{}\ndistinct\t{}\n",
            field("generation")?.as_u64().unwrap_or(0),
            field("distinct")?.as_u64().unwrap_or(0),
        )),
        "ping" => {
            let mut out = String::new();
            for key in ["generation", "wal_pending", "uptime_ms"] {
                let _ = writeln!(out, "{key}\t{}", field(key)?.as_u64().unwrap_or(0));
            }
            // Catalog-aware daemons add the collection counts on v2 pongs;
            // rows appear only when present so pre-catalog servers render
            // byte-identically.
            for key in ["collections", "open_collections"] {
                if let Some(v) = resp.get(key).and_then(json::Json::as_u64) {
                    let _ = writeln!(out, "{key}\t{v}");
                }
            }
            Ok(out)
        }
        "xavgrf" => {
            let mut out = format!(
                "common_taxa\t{}\nquery\tavg_rf\n",
                field("common_taxa")?.as_u64().unwrap_or(0)
            );
            for row in field("scores")?.as_arr().unwrap_or(&[]) {
                let idx = row.get("index").and_then(json::Json::as_u64).unwrap_or(0);
                let avg = row
                    .get("avg")
                    .and_then(json::Json::as_f64)
                    .unwrap_or(f64::NAN);
                let _ = writeln!(out, "{idx}\t{avg:.6}");
            }
            Ok(out)
        }
        "catalog-create" => Ok(format!(
            "created\t{}\nn_trees\t{}\n",
            field("created")?.as_str().unwrap_or("?"),
            field("n_trees")?.as_u64().unwrap_or(0),
        )),
        "catalog-drop" => Ok(format!(
            "dropped\t{}\n",
            field("dropped")?.as_str().unwrap_or("?"),
        )),
        "catalog-list" => {
            let mut out = String::from("name\topen\tresident_bytes\n");
            for row in field("catalog")?.as_arr().unwrap_or(&[]) {
                let _ = writeln!(
                    out,
                    "{}\t{}\t{}",
                    row.get("name").and_then(json::Json::as_str).unwrap_or("?"),
                    row.get("open")
                        .and_then(json::Json::as_bool)
                        .unwrap_or(false),
                    row.get("resident_bytes")
                        .and_then(json::Json::as_u64)
                        .unwrap_or(0),
                );
            }
            Ok(out)
        }
        "taxa" => {
            let mut out = format!(
                "generation\t{}\ntaxon\tlabel\n",
                field("generation")?.as_u64().unwrap_or(0)
            );
            for (i, label) in field("taxa")?.as_arr().unwrap_or(&[]).iter().enumerate() {
                let _ = writeln!(out, "{i}\t{}", label.as_str().unwrap_or("?"));
            }
            Ok(out)
        }
        "shutdown" => Ok("shutdown\tok\n".to_string()),
        _ => unreachable!("ops are validated before the request is sent"),
    }
}

/// `bfhrf catalog <create|drop|list>`: administer a running daemon's
/// collection catalog over the v2 wire ops — verb-shaped sugar over
/// `query --op catalog-*` so scripts read like the operations they
/// perform.
fn cmd_catalog(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let Some(verb) = raw.first() else {
        return Err("catalog needs a verb: create, drop, list"
            .to_string()
            .into());
    };
    let rest = &raw[1..];
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
    let a = Args::parse(rest, &[])?;
    a.reject_unknown(knowns, &[])?;
    let addr = query_addr(&a)?;
    let mut fields: Vec<(&str, json::Json)> = vec![("v", 2u64.into()), ("op", op.into())];
    match verb.as_str() {
        "create" => {
            fields.push(("name", a.require("name")?.into()));
            if let Some(trees_path) = a.get("trees") {
                let payload = payload_from_file(trees_path)?;
                fields.push((
                    "trees",
                    json::Json::Arr(payload.into_iter().map(Into::into).collect()),
                ));
            }
        }
        "drop" => fields.push(("name", a.require("name")?.into())),
        _ => {}
    }
    let request = json::Json::obj(fields);
    let resp = send_request(&addr, &request)?;
    if resp.get("ok").and_then(json::Json::as_bool) != Some(true) {
        let code = resp
            .get("code")
            .and_then(json::Json::as_str)
            .unwrap_or("error");
        let outcome = resp
            .get("outcome")
            .and_then(json::Json::as_str)
            .unwrap_or(code);
        let message = resp
            .get("error")
            .and_then(json::Json::as_str)
            .unwrap_or("server reported an unspecified failure");
        return Err(CliError {
            message: format!("server: [{outcome}] {message}"),
            code: server::protocol_code_to_exit(code),
        });
    }
    let notes: Vec<String> = resp
        .get("notes")
        .and_then(json::Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|n| n.as_str().map(|s| format!("server: {s}")))
        .collect();
    let stdout = render_response(op, &resp)?;
    Ok(CmdOutcome {
        stdout,
        notes,
        code: EXIT_OK,
    })
}

/// `bfhrf stats`: fetch one `stats` snapshot from a running daemon and
/// render it for operators — the index header, then every metric series
/// (with scaled latency quantiles). `--json` prints the raw wire response
/// for scripts instead.
fn cmd_stats(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["json"])?;
    a.reject_unknown(&["addr", "port-file"], &["json"])?;
    let addr = query_addr(&a)?;
    let request = json::Json::obj(vec![("op", "stats".into())]);
    let resp = send_request(&addr, &request)?;
    if resp.get("ok").and_then(json::Json::as_bool) != Some(true) {
        let message = resp
            .get("error")
            .and_then(json::Json::as_str)
            .unwrap_or("server reported an unspecified failure");
        return Err(format!("server: {message}").into());
    }
    if a.flag("json") {
        return Ok(CmdOutcome::clean(format!("{resp}\n")));
    }
    let mut out = render_response("stats", &resp)?;
    if let Some(metrics) = resp.get("metrics") {
        out.push('\n');
        out.push_str(&render_metrics_text(metrics));
    }
    Ok(CmdOutcome::clean(out))
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
        // r × (n − 3) × words × 8 for the whole file: the spill alone.
        let spill = 600 * (12 - 3) * 8;
        let mut taxa = phylo::TaxonSet::new();
        let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
        let table = BfhBuilder::new()
            .freeze_stream(&mut taxa, |t| stream.next_tree(t))
            .unwrap();
        // The table is checked on top of the spill before it doubles; its
        // last doubling needs under twice the finished table's bytes.
        let fits = (spill + 2 * table.approx_bytes()).to_string();
        let under = (spill - 1).to_string();
        for extra in [&[][..], &["--queries", queries][..]] {
            let argv = |budget: &str| {
                let mut v = vec!["avgrf", "--refs", refs, "--mem-budget"];
                v.push(budget);
                v.extend_from_slice(extra);
                runf(&v)
            };
            assert_eq!(argv(&fits).unwrap().code, EXIT_OK, "{extra:?}");
            for (budget, what) in [
                (under.clone(), "BFH build spill buffers"),
                (spill.to_string(), "BFH build table"),
            ] {
                let err = argv(&budget).unwrap_err();
                assert_eq!(err.code, EXIT_BUDGET, "{extra:?}");
                assert!(err.message.contains("resource limit"), "{}", err.message);
                assert!(err.message.contains(what), "{}", err.message);
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
        // above the fallback BFH spill: hashrf degrades, answers match.
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
            let bfh = BfhBuilder::new()
                .shards(shards)
                .from_trees(&trees, &taxa)
                .unwrap();
            let hashed = root.join(format!("hashed-{shards}"));
            drop(phylo_index::Index::create(&hashed, bfh, taxa.clone()).unwrap());
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
}
