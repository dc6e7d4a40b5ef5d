//! Experiment runners — one per table/figure of the paper.
//!
//! Every algorithm is measured **from Newick text to result**, because
//! that is what the paper timed and because the memory story depends on
//! it: DS must materialize all reference bipartition sets, HashRF its
//! `r × r` matrix, while BFHRF is `bfhrf avgrf` itself, which streams the
//! references into the frozen table and scores their kept splits against
//! it. `Q` is `R` throughout, as in the paper's runs.

use crate::datasets::{prefix, prepare, PreparedDataset};
use crate::measure::{measured, Measurement};
use crate::stats;
use bfhrf::{BfhBuilder, Comparator, FrozenComparator, HashRf, HashRfConfig};
use phylo::{
    BipartitionScratch, BipartitionSet, IngestPolicy, NewickReader, TaxaPolicy, TaxonSet, Tree,
};
use phylo_sim::DatasetSpec;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A strict reader over harness data, against a fixed namespace.
fn strict(bytes: &[u8]) -> NewickReader<&[u8]> {
    NewickReader::new(bytes, TaxaPolicy::Require, IngestPolicy::Strict)
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
    let mut stream = strict(text.as_bytes());
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
            let mut stream = strict(ds.newick.as_bytes());
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

/// BFHRF: the call a user makes, `bfhrf avgrf --refs F` with Q = R,
/// through [`bfhrf_cli::run_full`]. `threads = None` is `--algorithm
/// bfhrf-seq`; `Some(k)` is the default engine on `--threads k`. The refs
/// file is written before the cell starts, so reading it, the build, the
/// scoring and the report all fall inside the measurement.
fn run_bfhrf(ds: &PreparedDataset, threads: Option<usize>) -> Outcome {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "repro-{}-{}.nwk",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &ds.newick).expect("write the refs file");
    let mut argv = vec![
        "avgrf".to_string(),
        "--refs".into(),
        path.display().to_string(),
    ];
    match threads {
        None => argv.extend(["--algorithm".into(), "bfhrf-seq".into()]),
        Some(k) => argv.extend(["--threads".into(), k.to_string()]),
    }
    let (out, m) = measured(|| bfhrf_cli::run_full(&argv));
    std::fs::remove_file(&path).ok();
    let out = out.unwrap_or_else(|e| panic!("bfhrf avgrf failed: {}", e.message));
    Outcome::Ran(m, exact_mean(report_averages(&out.stdout), ds.n_trees))
}

/// The mean of per-query average RFs over `r` references, computed from
/// their integer sums. Each average is `sum_i / r`, possibly printed to six
/// decimals, so `round(avg × r)` recovers `sum_i` exactly for `r < 10⁶`:
/// the mean is exact, not a mean of rounded values, and engines that agree
/// on every sum print the same checksum.
fn exact_mean(averages: impl Iterator<Item = f64>, r: usize) -> f64 {
    let (total, q) = averages.fold((0u64, 0usize), |(total, q), avg| {
        (total + (avg * r as f64).round() as u64, q + 1)
    });
    total as f64 / (q * r) as f64
}

/// The averages of an `avgrf` report, one per row.
fn report_averages(report: &str) -> impl Iterator<Item = f64> + '_ {
    report.lines().skip(1).map(|row| {
        row.split('\t')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("not an avgrf row: {row:?}"))
    })
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
        let mut stream = strict(ds.newick.as_bytes());
        let mut trees = Vec::new();
        while let Some(t) = stream.next_tree(&mut taxa).expect("parses") {
            trees.push(t);
        }
        HashRf::compute(&trees, &taxa, &cfg)
            .map(|h| exact_mean(h.averages().into_iter(), trees.len()))
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

    /// Ablations on the design choices: thread scaling, HashRF ID width
    /// vs error, the compressed-key hash, size-filter overhead.
    pub fn ablations(&self) -> String {
        let mut out = String::from("## Ablations\n");
        let (n, r) = match self.scale {
            Scale::Default => (100usize, 2000usize),
            Scale::Full => (100, 10000),
        };
        let ds = prepare(&DatasetSpec::new("ablation", n, r, 99));
        let coll = phylo::TreeCollection::parse(&ds.newick).unwrap();
        let table = BfhBuilder::new()
            .freeze_trees(&coll.trees, &coll.taxa)
            .expect("ablation table builds");

        // 1. thread scaling of the query phase
        for threads in [1usize, 2, 4, 8, 16] {
            let cmp = FrozenComparator::new(&table, &coll.taxa).parallel(true);
            let (_, m) = pool(threads).install(|| measured(|| cmp.average_all(&coll.trees)));
            let _ = writeln!(
                out,
                "query phase, {threads:>2} threads: {:.3}s",
                m.elapsed.as_secs_f64()
            );
        }

        // 2. HashRF ID width vs collision error rate
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

        // 3. compressed-key hash: memory vs the frozen table (§IX extension)
        let wide = prepare(&DatasetSpec::new("compact", 500, 200, 12));
        let wide_coll = phylo::TreeCollection::parse(&wide.newick).unwrap();
        let (frozen, frozen_m) = measured(|| {
            BfhBuilder::new()
                .freeze_trees(&wide_coll.trees, &wide_coll.taxa)
                .expect("wide table builds")
        });
        let (compact, compact_m) =
            measured(|| bfhrf::CompactBfh::build(&wide_coll.trees, &wide_coll.taxa));
        let _ = writeln!(
            out,
            "compact hash (n=500, r=200): frozen table {:.1} MB peak, compact build {:.1} MB peak, key bytes {:.2} MB compressed",
            frozen_m.memory_mb(),
            compact_m.memory_mb(),
            compact.key_bytes() as f64 / 1e6,
        );
        let mut scratch = BipartitionScratch::new();
        for q in &wide_coll.trees {
            assert_eq!(
                frozen.average_scratch(q, &wide_coll.taxa, &mut scratch),
                compact.average_rf(q, &wide_coll.taxa),
                "compact hash must answer like the frozen table"
            );
        }

        // 4. bipartition-size filter overhead
        let cmp = FrozenComparator::new(&table, &coll.taxa);
        let (_, unfiltered) = measured(|| cmp.average_all(&coll.trees).expect("scores"));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PreparedDataset {
        prepare(&DatasetSpec::new("tiny", 10, 40, 7))
    }

    fn mean(outcome: Outcome) -> f64 {
        match outcome {
            Outcome::Ran(_, mean) => mean,
            Outcome::Refused(w) => panic!("refused: {w}"),
        }
    }

    #[test]
    fn all_runners_agree_on_checksum() {
        let ds = tiny();
        let a = mean(run_bfhrf(&ds, None));
        let b = mean(run_bfhrf(&ds, Some(2)));
        let c = mean(run_ds(&ds, None));
        let d = mean(run_ds(&ds, Some(2)));
        let e = mean(run_hashrf(&ds, usize::MAX));
        assert_eq!(a, b);
        assert!((a - c).abs() < 1e-9, "bfhrf {a} vs ds {c}");
        assert!((a - d).abs() < 1e-9);
        assert_eq!(a, e, "bfhrf vs hashrf");
        // 70 taxa: every split mask spans two 64-bit words.
        let wide = prepare(&DatasetSpec::new("wide", 70, 30, 11));
        let a = mean(run_bfhrf(&wide, None));
        assert_eq!(a, mean(run_bfhrf(&wide, Some(2))));
        assert_eq!(a, mean(run_hashrf(&wide, usize::MAX)));
    }

    #[test]
    fn report_mean_is_exact() {
        // Three queries against r = 3: sums 2, 3 and 4 print rounded.
        let report = "query\tavg_rf\n0\t0.666667\n1\t1.000000\n2\t1.333333\n";
        assert_eq!(exact_mean(report_averages(report), 3), 1.0);
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
}
