//! `offline-avgrf`: the paper's own protocol. A Newick reference file goes
//! in, `bfhrf avgrf` (through `bfhrf_cli::run_full`) scores every reference
//! tree against all of them (Q = R), and the rendered report comes out.
//! Ingest, Newick parse and the sharded build do most of the work; the
//! serving layers none.

use crate::inputs::{self, SplitMix};
use crate::layers::{self, Sweep};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{Config, Metric, Outcome, Scale};
use bfhrf::{Bfh, Comparator, DayComparator, FrozenComparator};
use phylo::{BipartitionScratch, TaxonSet, Tree};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Reference trees and query-pool trees (for the layer sweep) per scale.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (2_000, 512),
        Scale::Quick => (1_000, 128),
        Scale::Tiny => (50, 16),
    }
}

/// Reference trees kept in a small file for the ingest/build layer sample.
const LAYER_SAMPLE: usize = 2_000;

/// Report rows recomputed by the independent comparator.
const CHECKED_ROWS: usize = 3;

/// Set-up repetitions (`setup_s` is their median).
const SETUPS: usize = 5;

/// Timed `avgrf` runs per measured second. The count depends only on
/// `--seconds`, never on how fast the runs go, so the fastest of them is
/// always taken over the same number of draws. At r = 2 000 one run takes
/// 0.25–0.3 s on an uncontended 2-vCPU host.
const RUNS_PER_S: f64 = 3.0;

fn run_avgrf(argv: &[String]) -> Result<(f64, String), String> {
    let t = Instant::now();
    let out = bfhrf_cli::run_full(argv).map_err(|e| format!("avgrf failed: {}", e.message))?;
    let secs = t.elapsed().as_secs_f64();
    if out.code != bfhrf_cli::EXIT_OK {
        return Err(format!("avgrf exited {}: {:?}", out.code, out.notes));
    }
    Ok((secs, out.stdout))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (r, n_pool) = sizes(cfg.scale);
    let refs = cfg.work.join("refs.nwk");
    let one = cfg.work.join("query.nwk");
    let sample = cfg.work.join("sample.nwk");
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let mut w = std::io::BufWriter::new(std::fs::File::create(&refs).map_err(|e| io(&refs, e))?);
    let mut s =
        std::io::BufWriter::new(std::fs::File::create(&sample).map_err(|e| io(&sample, e))?);
    let mut failure = None;
    let held = inputs::generate(cfg.seed, r, n_pool, 1, |i, tree, taxa| {
        let line = phylo::write_newick(tree, taxa);
        let mut put = || -> std::io::Result<()> {
            writeln!(w, "{line}")?;
            if i < LAYER_SAMPLE {
                writeln!(s, "{line}")?;
            }
            Ok(())
        };
        if let Err(e) = put() {
            failure.get_or_insert(e);
        }
    });
    if let Some(e) = failure {
        return Err(io(&refs, e));
    }
    w.flush().map_err(|e| io(&refs, e))?;
    s.flush().map_err(|e| io(&sample, e))?;
    drop((w, s));
    let q0 = phylo::write_newick(&held.pool[0], &held.taxa);
    std::fs::write(&one, format!("{q0}\n")).map_err(|e| io(&one, e))?;

    let path = |p: &Path| p.to_string_lossy().into_owned();
    let threads = crate::threads().to_string();
    let full: Vec<String> = ["avgrf", "--refs", &path(&refs), "--threads", &threads]
        .map(String::from)
        .to_vec();
    let mut single = full.clone();
    single.extend(["--queries".to_string(), path(&one)]);
    if cfg.trace {
        return traced(cfg, &full, &refs, &sample, &held, r);
    }

    // Set-up: refs file to the first answer, several times.
    let baseline = crate::heap_baseline();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut one_report = None;
    for _ in 0..SETUPS {
        let (secs, report) = run_avgrf(&single)?;
        if one_report.get_or_insert_with(|| report.clone()) != &report {
            return Err("the one-query report changed between runs".into());
        }
        setups.push(secs);
    }
    // The timed runs (the set-up runs warmed the page cache and the
    // allocator).
    let (walls, report) = timed_runs(&full, cfg.seconds)?;
    let peak = crate::peak_heap_mb(baseline);
    verify(&report, one_report.as_deref(), &refs, &q0, r, cfg.seed)?;
    let wall = fastest(&walls);
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", "s", median(&setups), setups.len()),
            Metric::new("peak_heap_mb", "MB", peak, 1),
        ],
        attempted: (SETUPS + walls.len()) as u64,
        failed: 0,
        notes: vec![
            format!(
                "r={r} threads={threads}: wall_s={wall:.6} s (n={}), {:.0} queries/s at wall_s",
                walls.len(),
                r as f64 / wall
            ),
            crate::spread_note("avgrf runs", &walls),
            crate::spread_note("set-ups", &setups),
        ],
        trace: None,
    })
}

/// The timed `avgrf` runs: each one's wall time, and the report they all
/// gave.
fn timed_runs(full: &[String], seconds: f64) -> Result<(Vec<f64>, String), String> {
    let mut report: Option<String> = None;
    let mut walls = Vec::new();
    for _ in 0..crate::jobs(seconds, RUNS_PER_S) {
        let (secs, again) = run_avgrf(full)?;
        if report.get_or_insert_with(|| again.clone()) != &again {
            return Err("the avgrf report changed between runs".into());
        }
        walls.push(secs);
    }
    Ok((walls, report.expect("a run times at least three jobs")))
}

/// `wall_s` offline: a job has one part, the whole `avgrf` run, so its
/// floor is the fastest run.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Check the report before any number is printed: the right shape, and
/// sampled rows (plus the one-query run's row) equal to Day's algorithm
/// over every reference tree, an RF implementation that shares no code
/// with the split extractor.
fn verify(
    report: &str,
    one: Option<&str>,
    refs: &Path,
    q0: &str,
    r: usize,
    seed: u64,
) -> Result<(), String> {
    let lines: Vec<&str> = report.lines().collect();
    if lines.len() != r + 1 || lines[0] != "query\tavg_rf" {
        return Err(format!(
            "report has {} lines, expected a header and {r} rows",
            lines.len()
        ));
    }
    let (trees, taxa) = layers::read_trees(refs)?;
    let mut pick = SplitMix::new(seed ^ 0xC4EC_4ED0_0000_0001);
    let rows: Vec<usize> = (0..CHECKED_ROWS).map(|_| pick.below(r)).collect();
    let mut queries: Vec<Tree> = rows.iter().map(|&k| trees[k].clone()).collect();
    queries.push(phylo::parse_newick_readonly(q0, &taxa).map_err(|e| e.to_string())?);
    let day = DayComparator::new(&trees, &taxa)
        .average_all(&queries)
        .map_err(|e| e.to_string())?;
    for (&k, score) in rows.iter().zip(&day) {
        let want = format!("{k}\t{:.6}", score.rf.average());
        if lines[k + 1] != want {
            return Err(format!(
                "report row {k} is {:?}, Day's algorithm gives {want:?}",
                lines[k + 1]
            ));
        }
    }
    if let Some(one) = one {
        let want = format!("query\tavg_rf\n0\t{:.6}\n", day[CHECKED_ROWS].rf.average());
        if one != want {
            return Err(format!(
                "one-query report {one:?}, Day's algorithm gives {want:?}"
            ));
        }
    }
    Ok(())
}

/// The traced run: one untraced `run_full`, then the same pipeline phase
/// by phase through the layer functions (ingest → build → freeze → score
/// → render) under spans, whose report must match byte for byte; then the
/// layer sweep and the index and mutation layers.
fn traced(
    cfg: &Config,
    full: &[String],
    refs: &Path,
    sample: &Path,
    held: &inputs::Heldout,
    r: usize,
) -> Result<Outcome, String> {
    let (walls, report) = timed_runs(full, cfg.seconds)?;
    let untraced_s = median(&walls);
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let shards = crate::shards();
    let root = t.open("avgrf", None, 0);
    let (trees, taxa) = t.time("ingest", Some(root), 0, || layers::read_trees(refs))?;
    let bfh = t.time("build", Some(root), 0, || {
        Bfh::build_sharded(&trees, &taxa, shards)
    });
    let frozen = t.time("freeze", Some(root), 0, || bfh.freeze());
    let scores = t
        .time("score", Some(root), 0, || {
            FrozenComparator::new(&frozen, &taxa)
                .parallel(true)
                .average_all(&trees)
        })
        .map_err(|e| e.to_string())?;
    let rendered = t.time("render", Some(root), 0, || {
        let mut out = String::from("query\tavg_rf\n");
        for s in &scores {
            out.push_str(&format!("{}\t{:.6}\n", s.index, s.rf.average()));
        }
        out
    });
    t.close(root);
    if rendered != report {
        return Err("the phase-by-phase pipeline disagrees with run_full's report".into());
    }
    drop(trees);
    let traced_s = t.spans[root].dur_ns() as f64 / 1e9;
    let coverage = trace::coverage(&t.spans, "avgrf");

    // The pool in this file's namespace (ids follow first appearance).
    let pool: Vec<Tree> = held
        .pool
        .iter()
        .map(|q| phylo::parse_newick_readonly(&phylo::write_newick(q, &held.taxa), &taxa))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut metrics = pool_sweep(&frozen, &taxa, &pool, &mut t, cfg.seconds * 0.1)?;
    drop(frozen);
    metrics.extend(layers::ingest_and_build(sample, &mut t)?);
    let dir = cfg.work.join("index");
    let mutation =
        phylo::parse_newick_readonly(&phylo::write_newick(&held.holdout[0], &held.taxa), &taxa)
            .map_err(|e| e.to_string())?;
    phylo_index::Index::create(&dir, bfh, taxa.clone()).map_err(|e| e.to_string())?;
    let (mut index, open) = layers::open_index(&dir, &mut t)?;
    metrics.push(open);
    metrics.extend(layers::mutation_layers(&mut index, &mutation, &mut t)?);
    drop(index);
    verify(
        &report,
        None,
        refs,
        &phylo::write_newick(&held.pool[0], &held.taxa),
        r,
        cfg.seed,
    )?;
    // The offline workload has no request stream: each request is a whole
    // untraced run.
    let runs = crate::stats::sorted(walls.clone());
    let ms = |p: f64| crate::stats::percentile(&runs, p) * 1e3;
    metrics.extend([
        Metric::new("wall_s", "s", fastest(&walls), walls.len()),
        Metric::new("lat.p50_ms.lo", "ms", ms(50.0), walls.len()),
        Metric::new("lat.p99_ms.lo", "ms", ms(99.0), walls.len()),
        Metric::new("trace.coverage", "ratio", coverage, 1),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            traced_s / untraced_s - 1.0,
            1,
        ),
    ]);
    let phases = ["ingest", "build", "freeze", "score", "render"]
        .map(|p| format!("{p} {:.3}s", trace::total_ns(&t.spans, p).0 as f64 / 1e9))
        .join(", ");
    Ok(Outcome {
        metrics,
        attempted: walls.len() as u64 + 1,
        failed: 0,
        notes: vec![format!(
            "phases: {phases}; traced {traced_s:.3}s vs run_full median {untraced_s:.3}s"
        )],
        trace: Some(phylo_obs::json::Json::obj(vec![
            ("workload", "offline-avgrf".into()),
            ("seed", cfg.seed.into()),
            ("spans", trace::to_json(&t.spans)),
        ])),
    })
}

/// The layer sweep over the query pool, with single-query Newick frames
/// standing in for the frames this workload never sends.
fn pool_sweep(
    frozen: &bfhrf::FrozenBfh,
    taxa: &TaxonSet,
    pool: &[Tree],
    t: &mut Tracer,
    secs: f64,
) -> Result<Vec<Metric>, String> {
    let newick: Vec<String> = pool.iter().map(|q| phylo::write_newick(q, taxa)).collect();
    let bin: Vec<String> = pool
        .iter()
        .map(layers::encode_bin)
        .collect::<Result<_, _>>()?;
    let frames: Vec<String> = newick.iter().map(|q| layers::avgrf_frame(q)).collect();
    let mut scratch = BipartitionScratch::new();
    let answers: Vec<_> = pool
        .iter()
        .map(|q| {
            let batch = scratch.batch_splits(q, taxa);
            vec![layers::score_row(
                0,
                frozen,
                batch.len(),
                frozen.frequency_sum_batch(&batch),
            )]
        })
        .collect();
    Ok(layers::sweep(
        &Sweep {
            frozen,
            taxa,
            newick: &newick,
            bin: &bin,
            frames: &frames,
            answers: &answers,
        },
        t,
        secs,
    ))
}
