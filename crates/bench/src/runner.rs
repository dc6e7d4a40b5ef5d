//! Experiment runners — one per table/figure of the paper.
//!
//! Every algorithm is measured **from Newick text to result**, because
//! that is what the paper timed and because the memory story depends on
//! it: DS must materialize all reference bipartition sets, HashRF its
//! `r × r` matrix, while BFHRF streams both collections and only ever
//! holds the hash. `Q` is `R` throughout, as in the paper's runs.

use crate::datasets::{prefix, prepare, PreparedDataset};
use crate::measure::{measured, Measurement};
use crate::stats;
use bfhrf::{bfhrf_average, Bfh, HashRf, HashRfConfig};
use phylo::newick::NewickStream;
use phylo::{BipartitionSet, TaxaPolicy, TaxonSet, Tree};
use phylo_sim::DatasetSpec;
use rayon::prelude::*;
use std::fmt::Write as _;

/// Experiment sizing: `Default` finishes on a laptop in minutes, `Full`
/// uses the paper's exact `n`/`r` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale points (minutes end-to-end).
    Default,
    /// The paper's exact dataset sizes (can take hours for the baselines).
    Full,
}

/// Outcome of one (algorithm, dataset) cell.
enum Outcome {
    /// Measured (possibly rate-extrapolated) run with its mean average-RF
    /// checksum.
    Ran(Measurement, f64),
    /// Deliberately refused (memory guard) — the paper renders these `-`.
    Refused(String),
}

/// One table row.
struct Row {
    algorithm: String,
    n: usize,
    r: usize,
    outcome: Outcome,
}

/// Sequential-baseline budget: maximum number of tree-vs-tree comparisons
/// actually performed before switching to rate extrapolation.
const PAIR_BUDGET: u64 = 1_500_000;
/// Sequential-baseline budget on the reference-preprocessing phase: at
/// most this many reference trees are parsed into bipartition sets; the
/// (linear) setup time and memory are scaled up beyond it. The paper's DS
/// cells at large `r` are rate estimates of exactly this kind.
const SETUP_TREE_BUDGET: usize = 20_000;
/// Chunk size for streamed parallel processing.
const CHUNK: usize = 512;

fn numbered_taxa(n: usize) -> TaxonSet {
    TaxonSet::with_numbered("t", n)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// Parse up to `limit` reference bipartition sets (the DS preprocessing
/// step).
fn parse_ref_sets(text: &str, taxa: &mut TaxonSet, limit: usize) -> Vec<BipartitionSet> {
    let mut stream = NewickStream::new(text.as_bytes(), TaxaPolicy::Require);
    let mut sets = Vec::new();
    while sets.len() < limit {
        match stream.next_tree(taxa).expect("harness data parses") {
            Some(tree) => sets.push(BipartitionSet::from_tree(&tree, taxa)),
            None => break,
        }
    }
    sets
}

/// DS / DSMP (Algorithm 1): `threads = None` is the sequential DS;
/// `Some(k)` parallelizes the query loop on a `k`-thread pool.
///
/// If the full `r × r` comparison count exceeds [`PAIR_BUDGET`], only a
/// query prefix is computed and the query-phase runtime is scaled, exactly
/// the paper's trees-per-minute estimation for DS on large inputs.
fn run_ds(ds: &PreparedDataset, threads: Option<usize>) -> Outcome {
    let full_queries = ds.n_trees;
    // Setup sampling: parse at most SETUP_TREE_BUDGET reference trees;
    // time and memory of this linear phase scale with r.
    let r_parsed = full_queries.min(SETUP_TREE_BUDGET);
    let setup_factor = full_queries as f64 / r_parsed as f64;
    let budget_queries = ((PAIR_BUDGET / r_parsed.max(1) as u64) as usize).clamp(1, full_queries);
    let mut taxa = numbered_taxa(ds.n_taxa);

    let (ref_sets, setup) = measured(|| parse_ref_sets(&ds.newick, &mut taxa, r_parsed));

    let query_phase = |limit: usize| -> (f64, Measurement) {
        let mut taxa_q = taxa.clone();
        let (total, m) = measured(|| {
            let mut stream = NewickStream::new(ds.newick.as_bytes(), TaxaPolicy::Require);
            let mut processed = 0usize;
            let mut total_avg = 0.0f64;
            let mut chunk: Vec<Tree> = Vec::with_capacity(CHUNK);
            let score = |q: &Tree| -> f64 {
                let q_set = BipartitionSet::from_tree(q, &taxa);
                let sum: u64 = ref_sets
                    .iter()
                    .map(|rs| {
                        let shared = q_set.iter().filter(|b| rs.contains_bits(b)).count();
                        (rs.len() + q_set.len() - 2 * shared) as u64
                    })
                    .sum();
                sum as f64 / ref_sets.len() as f64
            };
            while processed < limit {
                chunk.clear();
                while chunk.len() < CHUNK && processed + chunk.len() < limit {
                    match stream.next_tree(&mut taxa_q).expect("parses") {
                        Some(t) => chunk.push(t),
                        None => break,
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                total_avg += match threads {
                    None => chunk.iter().map(score).sum::<f64>(),
                    Some(_) => chunk.par_iter().map(score).sum::<f64>(),
                };
                processed += chunk.len();
            }
            total_avg
        });
        (total, m)
    };

    let run = |limit: usize| match threads {
        None => query_phase(limit),
        Some(k) => pool(k).install(|| query_phase(limit)),
    };

    let (total, q) = run(budget_queries);
    let mean = total / budget_queries as f64;
    // full work = q_full · r_full comparisons; measured = q' · r_parsed
    let query_factor =
        (full_queries as f64 * full_queries as f64) / (budget_queries as f64 * r_parsed as f64);
    Outcome::Ran(combine(setup, setup_factor, q, query_factor), mean)
}

/// Combine (scaled) setup + (scaled) query measurements into one cell.
/// Setup memory scales too: the DS footprint is the `O(n²r)` reference
/// sets, which grow linearly with the unparsed remainder.
fn combine(
    setup: Measurement,
    setup_factor: f64,
    query: Measurement,
    query_factor: f64,
) -> Measurement {
    let setup_scaled = if setup_factor > 1.0 {
        let mut s = setup.extrapolated(setup_factor);
        s.peak_bytes = (setup.peak_bytes as f64 * setup_factor) as usize;
        s
    } else {
        setup
    };
    let query_scaled = if query_factor > 1.0 {
        query.extrapolated(query_factor)
    } else {
        query
    };
    Measurement {
        elapsed: setup_scaled.elapsed + query_scaled.elapsed,
        peak_bytes: setup_scaled.peak_bytes.max(query_scaled.peak_bytes),
        estimated: setup_scaled.estimated || query_scaled.estimated,
    }
}

/// BFHRF: stream references into the hash, stream queries against it.
/// `threads = None` is the fully sequential variant; `Some(k)` processes
/// parsed chunks on a `k`-thread pool (the paper's tree-level
/// parallelism).
fn run_bfhrf(ds: &PreparedDataset, threads: Option<usize>) -> Outcome {
    let body = || {
        let mut taxa = numbered_taxa(ds.n_taxa);
        let (result, m) = measured(|| {
            // Phase 1: build the hash from the reference stream.
            let mut bfh = Bfh::empty(taxa.len());
            let mut stream = NewickStream::new(ds.newick.as_bytes(), TaxaPolicy::Require);
            let mut chunk: Vec<Tree> = Vec::with_capacity(CHUNK);
            loop {
                chunk.clear();
                while chunk.len() < CHUNK {
                    match stream.next_tree(&mut taxa).expect("parses") {
                        Some(t) => chunk.push(t),
                        None => break,
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                match threads {
                    None => {
                        for t in &chunk {
                            bfh.add_tree(t, &taxa);
                        }
                    }
                    Some(_) => {
                        // extract split lists in parallel, fold sequentially
                        let split_lists: Vec<Vec<phylo::Bipartition>> =
                            chunk.par_iter().map(|t| t.bipartitions(&taxa)).collect();
                        for splits in split_lists {
                            bfh.add_splits(splits);
                        }
                    }
                }
            }
            // Phase 2: stream queries against the hash.
            let mut stream = NewickStream::new(ds.newick.as_bytes(), TaxaPolicy::Require);
            let mut total_avg = 0.0f64;
            let mut q_count = 0usize;
            loop {
                chunk.clear();
                while chunk.len() < CHUNK {
                    match stream.next_tree(&mut taxa).expect("parses") {
                        Some(t) => chunk.push(t),
                        None => break,
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                total_avg += match threads {
                    None => chunk
                        .iter()
                        .map(|q| bfhrf_average(q, &taxa, &bfh).average())
                        .sum::<f64>(),
                    Some(_) => chunk
                        .par_iter()
                        .map(|q| bfhrf_average(q, &taxa, &bfh).average())
                        .sum::<f64>(),
                };
                q_count += chunk.len();
            }
            total_avg / q_count as f64
        });
        Outcome::Ran(m, result)
    };
    match threads {
        None => body(),
        Some(k) => pool(k).install(body),
    }
}

/// HashRF: materialize the collection (it computes all-vs-all) and run the
/// two-level-hash matrix algorithm. Refuses — like the paper's `-`
/// entries — when the matrix would exceed `mem_budget` bytes.
fn run_hashrf(ds: &PreparedDataset, mem_budget: usize) -> Outcome {
    // The footprint is known from (n, r) alone — refuse before wasting
    // minutes parsing a collection the computation cannot hold.
    let cfg = HashRfConfig {
        memory_budget_bytes: mem_budget,
        ..HashRfConfig::default()
    };
    let cell = crate::budget::CellBudget::with_max_bytes(mem_budget);
    if let Err(e) = cell.guard.check_alloc(
        &format!("HashRF run for r={}", ds.n_trees),
        HashRf::estimate_bytes(ds.n_trees, ds.n_taxa, &cfg),
    ) {
        return Outcome::Refused(e.to_string());
    }
    let mut taxa = numbered_taxa(ds.n_taxa);
    let (out, m) = measured(|| {
        let mut stream = NewickStream::new(ds.newick.as_bytes(), TaxaPolicy::Require);
        let mut trees = Vec::new();
        while let Some(t) = stream.next_tree(&mut taxa).expect("parses") {
            trees.push(t);
        }
        HashRf::compute(&trees, &taxa, &cfg).map(|h| {
            let avgs = h.averages();
            avgs.iter().sum::<f64>() / avgs.len() as f64
        })
    });
    match out {
        Ok(mean) => Outcome::Ran(m, mean),
        Err(e) => Outcome::Refused(e.to_string()),
    }
}

/// Run the full algorithm roster on one dataset.
fn roster(ds: &PreparedDataset, hashrf_budget: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut push = |name: &str, outcome: Outcome| {
        rows.push(Row {
            algorithm: name.to_string(),
            n: ds.n_taxa,
            r: ds.n_trees,
            outcome,
        });
    };
    push("DS", run_ds(ds, None));
    push("DSMP8", run_ds(ds, Some(8)));
    push("DSMP16", run_ds(ds, Some(16)));
    push("HashRF", run_hashrf(ds, hashrf_budget));
    push("BFHRF1", run_bfhrf(ds, None));
    push("BFHRF8", run_bfhrf(ds, Some(8)));
    push("BFHRF16", run_bfhrf(ds, Some(16)));
    rows
}

fn render(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>8} {:>14} {:>12} {:>12}",
        "Algorithm", "n", "R", "Time(m)", "Memory(MB)", "MeanAvgRF"
    );
    for row in rows {
        match &row.outcome {
            Outcome::Ran(m, mean) => {
                let _ = writeln!(
                    out,
                    "{:<10} {:>6} {:>8} {:>14} {:>12.1} {:>12.4}",
                    row.algorithm,
                    row.n,
                    row.r,
                    m.format_minutes(),
                    m.memory_mb(),
                    mean
                );
            }
            Outcome::Refused(why) => {
                let _ = writeln!(
                    out,
                    "{:<10} {:>6} {:>8} {:>14} {:>12} {:>12}    # {}",
                    row.algorithm, row.n, row.r, "-", "-", "-", why
                );
            }
        }
    }
    out.push('\n');
    out
}

/// The experiment driver.
pub struct Experiment {
    /// Sizing of every dataset.
    pub scale: Scale,
    /// Memory guard for HashRF matrices (bytes).
    pub hashrf_budget: usize,
}

impl Experiment {
    /// Create a driver at the given scale with the default 2 GiB (Default)
    /// / 6 GiB (Full) HashRF budget.
    pub fn new(scale: Scale) -> Self {
        Experiment {
            scale,
            hashrf_budget: match scale {
                Scale::Default => 2 << 30,
                Scale::Full => 6 << 30,
            },
        }
    }

    fn avian_points(&self) -> Vec<usize> {
        match self.scale {
            Scale::Default => vec![1000, 2500, 5000],
            Scale::Full => vec![1000, 5000, 10000, 14446],
        }
    }

    fn insect_points(&self) -> Vec<usize> {
        match self.scale {
            Scale::Default => vec![1000, 5000, 10000],
            Scale::Full => vec![1000, 50000, 100000, 149278],
        }
    }

    fn taxa_points(&self) -> (usize, Vec<usize>) {
        match self.scale {
            Scale::Default => (200, vec![100, 250, 500]),
            Scale::Full => (1000, vec![100, 250, 500, 750, 1000]),
        }
    }

    fn tree_points(&self) -> Vec<usize> {
        match self.scale {
            Scale::Default => vec![1000, 5000, 10000],
            Scale::Full => vec![1000, 25000, 50000, 75000, 100000],
        }
    }

    /// Table II: the dataset inventory actually used at this scale.
    pub fn datasets(&self) -> String {
        let mut out = String::from("## Table II — datasets\n");
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:<6} Source substitute",
            "Name", "Taxa n", "Trees R", "Type"
        );
        let avian = self.avian_points();
        let insect = self.insect_points();
        let (taxa_r, taxa_ns) = self.taxa_points();
        let trees = self.tree_points();
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:<6} MSC stand-in for Jarvis et al. 2014",
            "avian",
            48,
            avian.last().unwrap(),
            "Sim"
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:<6} MSC stand-in for Sayyari et al. 2017",
            "insect",
            144,
            insect.last().unwrap(),
            "Sim"
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:<6} MSC (SimPhy/ASTRAL-II S100 protocol)",
            "var-trees",
            100,
            format!("{}:{}", trees.first().unwrap(), trees.last().unwrap()),
            "Sim"
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:<6} MSC (SimPhy/ASTRAL-II S100 protocol)",
            "var-taxa",
            format!("{}:{}", taxa_ns.first().unwrap(), taxa_ns.last().unwrap()),
            taxa_r,
            "Sim"
        );
        out.push('\n');
        out
    }

    /// Figure 1: Avian runtime & memory over prefixes of the collection.
    pub fn fig1(&self) -> String {
        let points = self.avian_points();
        let full = prepare(&DatasetSpec::avian().with_trees(*points.last().unwrap()));
        let mut rows = Vec::new();
        for &r in &points {
            let ds = prefix(&full, r);
            rows.extend(roster(&ds, self.hashrf_budget));
        }
        render("Figure 1 — Avian (n=48) runtime and memory vs r", &rows)
    }

    /// Table III: the Insect-shaped dataset across all algorithms.
    pub fn tbl3(&self) -> String {
        let points = self.insect_points();
        let full = prepare(&DatasetSpec::insect().with_trees(*points.last().unwrap()));
        let mut rows = Vec::new();
        for &r in &points {
            let ds = prefix(&full, r);
            rows.extend(roster(&ds, self.hashrf_budget));
        }
        render("Table III — Insect (n=144)", &rows)
    }

    /// Table IV: variable taxa at fixed r, plus the §VI.C linearity fit of
    /// the BFHRF series.
    pub fn tbl4(&self) -> String {
        let (r, ns) = self.taxa_points();
        let mut rows = Vec::new();
        let mut bfhrf_times: Vec<(f64, f64)> = Vec::new();
        for &n in &ns {
            let ds = prepare(&DatasetSpec::variable_taxa(n).with_trees(r));
            let batch = roster(&ds, self.hashrf_budget);
            for row in &batch {
                if row.algorithm == "BFHRF16" {
                    if let Outcome::Ran(m, _) = &row.outcome {
                        bfhrf_times.push((n as f64, m.minutes()));
                    }
                }
            }
            rows.extend(batch);
        }
        let mut out = render("Table IV — variable taxa (R=1000 shape)", &rows);
        if bfhrf_times.len() >= 2 {
            let xs: Vec<f64> = bfhrf_times.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = bfhrf_times.iter().map(|p| p.1).collect();
            let (_, _, r2) = stats::linear_fit(&xs, &ys);
            let rho = stats::pearson(&xs, &ys);
            let _ = writeln!(
                out,
                "BFHRF16 runtime vs n: R-squared = {r2:.3}, Pearson = {rho:.3} (paper: 0.997 / 0.999)\n"
            );
        }
        out
    }

    /// Table V / Figure 2: variable number of trees at n=100.
    pub fn tbl5(&self) -> String {
        let points = self.tree_points();
        let full = prepare(&DatasetSpec::variable_trees(*points.last().unwrap()));
        let mut rows = Vec::new();
        for &r in &points {
            let ds = prefix(&full, r);
            rows.extend(roster(&ds, self.hashrf_budget));
        }
        render("Table V / Figure 2 — variable trees (n=100)", &rows)
    }

    /// Ablations on the design choices: parallel hash build, thread
    /// scaling, HashRF ID width vs error, size-filter overhead.
    pub fn ablations(&self) -> String {
        let mut out = String::from("## Ablations\n");
        let (n, r) = match self.scale {
            Scale::Default => (100usize, 2000usize),
            Scale::Full => (100, 10000),
        };
        let ds = prepare(&DatasetSpec::new("ablation", n, r, 99));
        let coll = phylo::TreeCollection::parse(&ds.newick).unwrap();

        // 1. hash build: sequential vs fold-merge vs sharded, across pool
        // sizes (the build_bench binary runs the same grid on the Insect
        // preset and emits BENCH_build.json)
        for cell in build_ablation(&coll, &[1, 2, 4, 8]) {
            let _ = writeln!(
                out,
                "hash build (n={n}, r={r}): {:<10} threads={:<2} shards={:<2} {:.3}s (distinct {})",
                cell.mode, cell.threads, cell.shards, cell.seconds, cell.distinct
            );
        }

        // 2. thread scaling of the query phase
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        for threads in [1usize, 2, 4, 8, 16] {
            let (_, m) = pool(threads).install(|| {
                measured(|| {
                    coll.trees
                        .par_iter()
                        .map(|q| bfhrf_average(q, &coll.taxa, &bfh).average())
                        .sum::<f64>()
                })
            });
            let _ = writeln!(
                out,
                "query phase, {threads:>2} threads: {:.3}s",
                m.elapsed.as_secs_f64()
            );
        }

        // 3. HashRF ID width vs collision error rate
        let small = phylo::TreeCollection::parse(
            &crate::datasets::prepare(&DatasetSpec::new("idw", 32, 200, 5)).newick,
        )
        .unwrap();
        let exact = bfhrf::matrix::rf_matrix_exact(&small.trees, &small.taxa, usize::MAX).unwrap();
        for id_bits in [8u32, 12, 16, 24, 32, 64] {
            let cfg = HashRfConfig {
                id_bits,
                ..HashRfConfig::default()
            };
            let h = HashRf::compute(&small.trees, &small.taxa, &cfg).unwrap();
            let _ = writeln!(
                out,
                "HashRF id width {id_bits:>2} bits: matrix error rate {:.4}",
                h.error_rate_against(&exact)
            );
        }

        // 4. compressed-key hash: memory vs the plain hash (§IX extension)
        let wide = prepare(&DatasetSpec::new("compact", 500, 200, 12));
        let wide_coll = phylo::TreeCollection::parse(&wide.newick).unwrap();
        let (plain, plain_m) = measured(|| Bfh::build(&wide_coll.trees, &wide_coll.taxa));
        let (compact, compact_m) = measured(|| bfhrf::CompactBfh::from_bfh(&plain));
        let _ = writeln!(
            out,
            "compact hash (n=500, r=200): plain build {:.1} MB peak, compact conversion {:.1} MB peak, key bytes {:.2} MB compressed",
            plain_m.memory_mb(),
            compact_m.memory_mb(),
            compact.key_bytes() as f64 / 1e6,
        );
        let checks: Vec<_> = wide_coll.trees.iter().take(3).collect();
        for q in checks {
            assert_eq!(
                bfhrf_average(q, &wide_coll.taxa, &plain),
                compact.average_rf(q, &wide_coll.taxa),
                "compact hash must answer identically"
            );
        }

        // 5. bipartition-size filter overhead
        let (_, unfiltered) = measured(|| {
            coll.trees
                .iter()
                .map(|q| bfhrf_average(q, &coll.taxa, &bfh).average())
                .sum::<f64>()
        });
        let filt = bfhrf::variants::SizeFilteredRf::new(&coll.trees, &coll.taxa, 2, 10);
        let (_, filtered) = measured(|| {
            coll.trees
                .iter()
                .map(|q| filt.average(q, &coll.taxa).average())
                .sum::<f64>()
        });
        let _ = writeln!(
            out,
            "size filter (2..=10) query overhead: {:.3}s vs {:.3}s unfiltered",
            filtered.elapsed.as_secs_f64(),
            unfiltered.elapsed.as_secs_f64()
        );
        out.push('\n');
        out
    }
}

/// One cell of the hash-build ablation grid (see [`build_ablation`]).
#[derive(Debug, Clone)]
pub struct BuildCell {
    /// `"sequential"`, `"fold-merge"`, or `"sharded"`.
    pub mode: &'static str,
    /// Pool size the build ran on.
    pub threads: usize,
    /// Shard count (1 unless sharded).
    pub shards: usize,
    /// Wall-clock build time.
    pub seconds: f64,
    /// Distinct bipartitions in the resulting hash — identical across
    /// modes by construction, recorded as the correctness checksum.
    pub distinct: usize,
    /// `Bfh::sum` — second checksum (total split occurrences).
    pub sum: u64,
}

/// The rayon fold/merge baseline under measurement: per-worker hashes
/// folded over disjoint tree chunks, then merged pairwise. This WAS
/// `Bfh::build_parallel` before the sharded pipeline replaced it; the
/// bench keeps a local copy because the strategy itself is the thing
/// being compared against.
pub fn fold_merge_build(coll: &phylo::TreeCollection) -> Bfh {
    coll.trees
        .par_iter()
        .fold(
            || Bfh::empty(coll.taxa.len()),
            |mut acc, tree| {
                acc.add_tree(tree, &coll.taxa);
                acc
            },
        )
        .reduce(|| Bfh::empty(coll.taxa.len()), |a, b| a.merged(b))
}

/// The tentpole ablation: build the same hash three ways — sequential,
/// rayon fold/merge ([`fold_merge_build`]), and the sharded two-phase
/// pipeline ([`Bfh::build_sharded`]) — across pool sizes. The fold-merge
/// baseline allocates one map per worker and pays an `O(distinct)` merge;
/// the sharded build spills raw mask words, folds them once into a frozen
/// table, and routes its entries into the shard maps, with no merge.
pub fn build_ablation(coll: &phylo::TreeCollection, thread_counts: &[usize]) -> Vec<BuildCell> {
    let mut cells = Vec::new();
    let mut push = |mode, threads, shards, m: &Measurement, bfh: &Bfh| {
        cells.push(BuildCell {
            mode,
            threads,
            shards,
            seconds: m.elapsed.as_secs_f64(),
            distinct: bfh.distinct(),
            sum: bfh.sum(),
        });
    };
    let (bfh, m) = measured(|| Bfh::build(&coll.trees, &coll.taxa));
    push("sequential", 1, 1, &m, &bfh);
    for &t in thread_counts {
        let p = pool(t);
        let (bfh, m) = p.install(|| measured(|| fold_merge_build(coll)));
        push("fold-merge", t, 1, &m, &bfh);
        let shards = t.max(2);
        let (bfh, m) =
            p.install(|| measured(|| Bfh::build_sharded(&coll.trees, &coll.taxa, shards)));
        push("sharded", t, shards, &m, &bfh);
    }
    cells
}

/// Expose the per-algorithm runners for the criterion benches: each bench
/// wants one algorithm on one prepared dataset without the table plumbing.
pub mod algorithms {
    use super::*;

    /// BFHRF text-to-result; returns the mean average RF.
    pub fn bfhrf_mean(ds: &PreparedDataset, threads: Option<usize>) -> f64 {
        match run_bfhrf(ds, threads) {
            Outcome::Ran(_, mean) => mean,
            Outcome::Refused(w) => panic!("bfhrf refused: {w}"),
        }
    }

    /// DS/DSMP text-to-result (no extrapolation guard — keep datasets
    /// small in benches); returns the mean average RF of the measured
    /// prefix.
    pub fn ds_mean(ds: &PreparedDataset, threads: Option<usize>) -> f64 {
        match run_ds(ds, threads) {
            Outcome::Ran(_, mean) => mean,
            Outcome::Refused(w) => panic!("ds refused: {w}"),
        }
    }

    /// HashRF text-to-result; returns the mean of the matrix row averages.
    pub fn hashrf_mean(ds: &PreparedDataset, mem_budget: usize) -> f64 {
        match run_hashrf(ds, mem_budget) {
            Outcome::Ran(_, mean) => mean,
            Outcome::Refused(w) => panic!("hashrf refused: {w}"),
        }
    }

    /// Day's algorithm summed over all pairs of the first `k` trees
    /// (pairwise-oracle bench).
    pub fn day_pairs(ds: &PreparedDataset, k: usize) -> u64 {
        let coll = phylo::TreeCollection::parse(&ds.newick).unwrap();
        let k = k.min(coll.len());
        let mut total = 0u64;
        for i in 0..k {
            for j in (i + 1)..k {
                total += bfhrf::day_rf(&coll.trees[i], &coll.trees[j], &coll.taxa) as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PreparedDataset {
        prepare(&DatasetSpec::new("tiny", 10, 40, 7))
    }

    #[test]
    fn all_runners_agree_on_checksum() {
        let ds = tiny();
        let a = algorithms::bfhrf_mean(&ds, None);
        let b = algorithms::bfhrf_mean(&ds, Some(2));
        let c = algorithms::ds_mean(&ds, None);
        let d = algorithms::ds_mean(&ds, Some(2));
        let e = algorithms::hashrf_mean(&ds, usize::MAX);
        assert!((a - b).abs() < 1e-9);
        assert!((a - c).abs() < 1e-9, "bfhrf {a} vs ds {c}");
        assert!((a - d).abs() < 1e-9);
        assert!((a - e).abs() < 1e-9, "bfhrf {a} vs hashrf {e}");
    }

    #[test]
    fn ds_extrapolates_past_budget() {
        // r² = 640000 > tiny budget once r = 800+... use a small custom
        // budget by shrinking the dataset instead: 40² = 1600 pairs is
        // under PAIR_BUDGET so this runs fully; check non-estimated.
        let ds = tiny();
        match run_ds(&ds, None) {
            Outcome::Ran(m, _) => assert!(!m.estimated),
            Outcome::Refused(w) => panic!("{w}"),
        }
    }

    #[test]
    fn hashrf_refusal_renders_as_dash() {
        let ds = tiny();
        let rows = vec![Row {
            algorithm: "HashRF".into(),
            n: ds.n_taxa,
            r: ds.n_trees,
            outcome: run_hashrf(&ds, 1),
        }];
        let table = render("refusal", &rows);
        assert!(table.contains('-'), "{table}");
        assert!(table.contains("resource limit"), "{table}");
    }

    #[test]
    fn datasets_table_mentions_all_shapes() {
        let e = Experiment::new(Scale::Default);
        let t = e.datasets();
        for name in ["avian", "insect", "var-trees", "var-taxa"] {
            assert!(t.contains(name), "{t}");
        }
    }

    #[test]
    fn day_pairs_runs() {
        let ds = tiny();
        let total = algorithms::day_pairs(&ds, 5);
        // 10-leaf random coalescent trees: some pairs must differ
        assert!(total > 0);
    }
}
