//! A streamed build sees the namespace grow while it reads. These files
//! start with trees on 60 taxa (one mask word) and then add trees whose
//! labels push the namespace past 64 (two words) and past 128 (three
//! words). The crossing past 64 falls just before, exactly at, or just
//! after the first chunk boundary, or inside a chunk while the chunk
//! before it folds, so the chunk buffer being filled is zero-extended and
//! lanes already holding masks are re-laid wider. Every case must give,
//! digest for digest, the table a build over the whole collection parsed
//! up front gives, for any thread count or build mode; that table must
//! answer like a freeze of the hash built sequentially; the kept Q = R
//! scores must equal the streamed query scorer's; `avgrf` must give the
//! all-pairs set comparator's (`ds`) report; and every consensus read
//! from the streamed table must be the one read from either of the
//! others, at final widths on both sides of each word boundary. The leafsets
//! differ from tree to tree, which is what lets a namespace grow, so
//! Day's algorithm, which needs one leafset, cannot be the oracle here.

use bfhrf::{Bfh, BfhBuilder, FrozenBfh, RunGuard, CHUNK};
use phylo::{
    BipartitionScratch, IngestPolicy, NewickReader, PhyloError, Shapes, SplitReader, TaxaPolicy,
    TaxonSet, TreeCollection,
};
use phylo_sim::perturb::random_binary_tree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Append `count` random binary trees, each on a random subset of most of
/// the labels `t0 .. t{pool-1}`, so leafsets (and their lowest taxon)
/// vary from tree to tree.
fn segment(out: &mut String, count: usize, pool: usize, rng: &mut StdRng) {
    for _ in 0..count {
        let k = rng.random_range(pool - 6..=pool);
        let mut ids: Vec<usize> = (0..pool).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        let mut labels = TaxonSet::new();
        for &i in &ids[..k] {
            labels.intern(&format!("t{i}"));
        }
        out.push_str(&phylo::write_newick(&random_binary_tree(k, rng), &labels));
        out.push('\n');
    }
}

/// A file whose namespace crosses 64 taxa at tree `at` and 128 taxa at
/// tree `at + wide`.
fn widening_file(at: usize, wide: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    segment(&mut text, at, 60, &mut rng);
    segment(&mut text, wide, 100, &mut rng);
    segment(&mut text, 30, 140, &mut rng);
    text
}

/// The same trees with malformed records between them, for lenient ingest.
fn with_bad_records(text: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 97 == 5 {
            out.push_str("(t3,(t200,;\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Where the namespace crosses 64 taxa, as parsed.
fn crossing(coll: &TreeCollection, from: usize) -> usize {
    let mut taxa = TaxonSet::new();
    for (i, tree) in coll.trees.iter().enumerate() {
        for leaf in tree.leaves() {
            if let Some(t) = tree.taxon(leaf) {
                taxa.intern(coll.taxa.label(t));
            }
        }
        if taxa.len() > from {
            return i;
        }
    }
    usize::MAX
}

/// A strict reader over `text`.
fn strict(text: &str, policy: TaxaPolicy) -> NewickReader<&[u8]> {
    NewickReader::new(text.as_bytes(), policy, IngestPolicy::Strict)
}

/// A reader that interns `late` more labels once its records run out.
struct Late<R> {
    inner: R,
    late: usize,
}

impl<R: SplitReader> SplitReader for Late<R> {
    fn next_shape(
        &mut self,
        taxa: &mut TaxonSet,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, PhyloError> {
        let read = self.inner.next_shape(taxa, scratch, shapes)?;
        if !read {
            for i in 0..self.late {
                taxa.intern(&format!("late{i}"));
            }
        }
        Ok(read)
    }
}

fn read(bytes: &[u8], policy: IngestPolicy) -> TreeCollection {
    phylo_wire::read_collection_sniffed(bytes, policy)
        .unwrap()
        .0
}

fn streamed(bytes: &[u8], policy: IngestPolicy, builder: &BfhBuilder) -> (FrozenBfh, TaxonSet) {
    let mut taxa = TaxonSet::new();
    let mut stream =
        phylo_wire::SniffedReader::open(bytes, &mut taxa, TaxaPolicy::Grow, policy).unwrap();
    let table = builder.freeze_stream(&mut taxa, &mut stream).unwrap();
    (table, taxa)
}

/// `table` answers every question a freeze of `bfh` answers, alike.
fn assert_answers_like(table: &FrozenBfh, bfh: &Bfh, what: &str) {
    let want = bfh.freeze();
    assert_eq!(
        (table.n_trees(), table.sum(), table.distinct()),
        (want.n_trees(), want.sum(), want.distinct()),
        "{what}"
    );
    assert_eq!(table.capacity(), want.capacity(), "{what}");
    assert_eq!(table.approx_bytes(), want.approx_bytes(), "{what}");
    for (bits, count) in bfh.iter() {
        assert_eq!(table.frequency(bits), count, "{what}: {bits}");
    }
}

fn avgrf(path: &std::path::Path, extra: &[&str]) -> (String, u8) {
    let mut argv = vec![
        "avgrf".to_string(),
        "--refs".into(),
        path.display().to_string(),
    ];
    argv.extend(extra.iter().map(|s| s.to_string()));
    let out = bfhrf_cli::run_full(&argv).unwrap();
    (out.stdout, out.code)
}

#[test]
fn widening_mid_stream_matches_the_materialized_build() {
    let dir = std::env::temp_dir().join(format!("bfhrf-widening-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // (crossing past 64, trees before the crossing past 128): the last
    // case crosses 128 in the third chunk, so the first chunk widens twice.
    for (at, wide, seed) in [
        (CHUNK - 1, 40, 1),
        (CHUNK, 40, 2),
        (CHUNK + 1, CHUNK + 40, 3),
    ] {
        let text = widening_file(at, wide, seed);
        let clean = read(text.as_bytes(), IngestPolicy::Strict);
        assert_eq!(
            crossing(&clean, 64),
            at,
            "the file crosses 64 taxa at tree {at}"
        );
        assert_eq!(crossing(&clean, 128), at + wide);
        assert!(clean.taxa.len() > 128);
        let binary = phylo_wire::collection_to_vec(&clean).unwrap();
        let dirty = with_bad_records(&text);
        let oracle_path = dir.join(format!("clean-{at}.nwk"));
        std::fs::write(&oracle_path, &text).unwrap();
        let (oracle, code) = avgrf(&oracle_path, &["--algorithm", "ds"]);
        assert_eq!(code, bfhrf_cli::EXIT_OK);

        let inputs: [(&str, &[u8], IngestPolicy); 3] = [
            ("newick", text.as_bytes(), IngestPolicy::Strict),
            ("lenient", dirty.as_bytes(), IngestPolicy::lenient()),
            ("bin", &binary, IngestPolicy::Strict),
        ];
        for (name, bytes, policy) in inputs {
            let whole = read(bytes, policy);
            assert_eq!(whole.trees.len(), clean.trees.len(), "{name}");
            let path = dir.join(format!("{name}-{at}"));
            std::fs::write(&path, bytes).unwrap();
            let lenient: &[&str] = match policy {
                IngestPolicy::Strict => &[],
                _ => &["--lenient"],
            };
            let first = BfhBuilder::new()
                .freeze_trees(&whole.trees, &whole.taxa)
                .unwrap();
            let oracle_table = Bfh::build(&whole.trees, &whole.taxa);
            assert_answers_like(&first, &oracle_table, &format!("{name}: crossing at {at}"));
            let consensus = consensus_newicks(&first, &whole.taxa);
            assert_eq!(
                consensus_newicks(&oracle_table.freeze(), &whole.taxa),
                consensus,
                "{name}: crossing at {at}"
            );
            for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
                let (table, taxa) = streamed(bytes, policy, &builder);
                assert_eq!(taxa.len(), whole.taxa.len());
                assert_eq!(
                    table.digest(),
                    first.digest(),
                    "{name}: crossing at {at}, {builder:?}"
                );
                assert_eq!(consensus_newicks(&table, &taxa), consensus, "{name}: {at}");
            }
            for shards in [1usize, 2, 3] {
                let k = shards.to_string();
                let (report, code) = avgrf(&path, &[&["--shards", &k][..], lenient].concat());
                assert_eq!(report, oracle, "{name}: crossing at {at}, {shards} shards");
                let want_code = if name == "lenient" {
                    bfhrf_cli::EXIT_PARTIAL
                } else {
                    bfhrf_cli::EXIT_OK
                };
                assert_eq!(code, want_code);
            }
            // Streamed queries over the widened namespace, sequentially.
            let q = path.display().to_string();
            let (report, _) = avgrf(
                &path,
                &[&["--algorithm", "bfhrf-seq", "--queries", &q][..], lenient].concat(),
            );
            assert_eq!(report, oracle, "{name}: --queries, crossing at {at}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A file whose namespace crosses 64 taxa at tree `at64` and 128 taxa at
/// tree `at128`, then stays at 140 taxa for `tail` trees.
fn crossing_file(at64: usize, at128: usize, tail: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    segment(&mut text, at64, 60, &mut rng);
    segment(&mut text, at128 - at64, 100, &mut rng);
    segment(&mut text, tail, 140, &mut rng);
    text
}

/// Labels a source interns after its last tree: enough to take a
/// namespace of at most 60 taxa past 64 and past 128.
const LATE: usize = 80;

#[test]
fn widening_inside_a_pipelined_chunk_matches_the_whole_build_and_its_scores() {
    // (crossing past 64, crossing past 128, trees after): both crossings
    // inside the first chunk, both inside the second, and one in each;
    // none on a chunk edge.
    let cases = [
        (30, 90, 200, 11),
        (CHUNK + 100, CHUNK + 180, 150, 12),
        (CHUNK - 50, 2 * CHUNK + 20, 60, 13),
    ];
    let modes = [
        ("seq", BfhBuilder::new()),
        ("parallel", BfhBuilder::new().parallel(true)),
    ];
    let guard = RunGuard::default();
    for (at64, at128, tail, seed) in cases {
        let text = crossing_file(at64, at128, tail, seed);
        let whole = read(text.as_bytes(), IngestPolicy::Strict);
        assert_eq!(crossing(&whole, 64), at64);
        assert_eq!(crossing(&whole, 128), at128);
        assert!(at64 % CHUNK != 0 && at128 % CHUNK != 0);
        // Also only the first segment, from a source that interns labels
        // after its last tree: the late labels alone cross 64 and 128.
        let head: String = text
            .lines()
            .take(at64)
            .map(|l| l.to_owned() + "\n")
            .collect();
        for (label, body, late) in [("whole", &text, 0), ("late", &head, LATE)] {
            let mut all = TaxonSet::new();
            let trees = phylo::read_trees_from_str(body, &mut all, TaxaPolicy::Grow).unwrap();
            for i in 0..late {
                all.intern(&format!("late{i}"));
            }
            let want = BfhBuilder::new().freeze_trees(&trees, &all).unwrap();
            for threads in [1, 2] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for (mode, builder) in &modes {
                    let what = format!("{label} {at64}/{at128}, {threads} threads, {mode}");
                    let (table, kept, taxa) = pool.install(|| {
                        let mut taxa = TaxonSet::new();
                        let mut stream = Late {
                            inner: strict(body, TaxaPolicy::Grow),
                            late,
                        };
                        let (table, kept) =
                            builder.freeze_stream_kept(&mut taxa, &mut stream).unwrap();
                        (table, kept, taxa)
                    });
                    assert_eq!(taxa.len(), all.len(), "{what}");
                    assert_eq!(table.digest(), want.digest(), "{what}");
                    let parallel = threads > 1;
                    let got = pool.install(|| kept.score(&table, parallel, &guard).unwrap());
                    let mut again = taxa.clone();
                    let mut queries = strict(body, TaxaPolicy::Require);
                    let streamed = bfhrf::rf::bfhrf_streaming(
                        &table,
                        &mut again,
                        parallel,
                        &guard,
                        &mut queries,
                    )
                    .unwrap();
                    assert_eq!(got, streamed, "{what}");
                }
            }
        }
    }
}

/// Every consensus of `table` over `taxa`, as Newick: majority at 0.5 and
/// 0.75, strict and greedy.
fn consensus_newicks(table: &FrozenBfh, taxa: &TaxonSet) -> [String; 4] {
    use bfhrf::consensus::{greedy_consensus, majority_consensus, strict_consensus};
    [
        majority_consensus(table, taxa, 0.5),
        majority_consensus(table, taxa, 0.75),
        strict_consensus(table, taxa),
        greedy_consensus(table, taxa),
    ]
    .map(|tree| phylo::write_newick(&tree.unwrap(), taxa))
}

#[test]
fn consensus_of_a_widening_stream_matches_the_whole_build() {
    // The first trees see at most 40 labels; from tree 20 on, one fixed
    // tree on all `width` labels makes up seven eighths of the rest, so
    // the majority consensus is resolved at both thresholds while the
    // namespace widens mid-stream to its final width.
    let dir = std::env::temp_dir().join(format!("bfhrf-consensus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (width, seed) in [(63usize, 21u64), (64, 22), (65, 23), (128, 24), (129, 25)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::new();
        segment(&mut text, 20, 40, &mut rng);
        let mut labels = TaxonSet::new();
        for i in 0..width {
            labels.intern(&format!("t{i}"));
        }
        let fixed = phylo::write_newick(&random_binary_tree(width, &mut rng), &labels);
        for i in 0..300 {
            if i % 8 == 0 {
                segment(&mut text, 1, width, &mut rng);
            } else {
                text.push_str(&fixed);
                text.push('\n');
            }
        }
        let whole = read(text.as_bytes(), IngestPolicy::Strict);
        assert_eq!(whole.taxa.len(), width);
        let sliced = BfhBuilder::new()
            .freeze_trees(&whole.trees, &whole.taxa)
            .unwrap();
        let want = consensus_newicks(&sliced, &whole.taxa);
        let oracle = Bfh::build(&whole.trees, &whole.taxa).freeze();
        assert_eq!(
            consensus_newicks(&oracle, &whole.taxa),
            want,
            "width {width}"
        );
        let resolved = |newick: &str| newick.matches('(').count();
        assert!(resolved(&want[1]) > 1, "width {width}: {}", want[1]);
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
                let (table, taxa) =
                    pool.install(|| streamed(text.as_bytes(), IngestPolicy::Strict, &builder));
                assert_eq!(
                    consensus_newicks(&table, &taxa),
                    want,
                    "width {width}, {threads} threads, {builder:?}"
                );
            }
        }
        // The CLI streams the file into the same table.
        let path = dir.join(format!("consensus-{width}.nwk"));
        std::fs::write(&path, &text).unwrap();
        let refs = path.display().to_string();
        for (flags, newick) in [
            (&[][..], &want[0]),
            (&["--threshold", "0.75"][..], &want[1]),
            (&["--strict"][..], &want[2]),
            (&["--greedy"][..], &want[3]),
        ] {
            let mut argv = vec!["consensus".to_string(), "--refs".into(), refs.clone()];
            argv.extend(flags.iter().map(|f| f.to_string()));
            let out = bfhrf_cli::run_full(&argv).unwrap();
            assert_eq!(
                out.stdout,
                format!("{newick}\n"),
                "width {width}, {flags:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
