//! The BFHRF query computation — the paper's Algorithm 2, second loop.
//!
//! Each query tree is compared against the frequency table once, in `O(n²)`,
//! independently of `r` and of every other query. Totals are accumulated
//! in integers; division by `r` happens only in [`RfAverage::average`], so
//! results are exact and deterministic regardless of parallel scheduling.

use crate::bfh::Bfh;
use crate::builder::{SplitChunk, CHUNK};
use crate::comparator::check_tree_taxa;
use crate::guard::{isolate, RunGuard};
use crate::CoreError;
use phylo::{BipartitionScratch, SplitBatch, SplitReader, TaxonSet, Tree};
use phylo_bitset::{bits_map_with_capacity, map_get_words, map_get_words_mut, Bits, BitsMap};
use rayon::prelude::*;

/// Exact average-RF result for one query tree against a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfAverage {
    /// Σ_T |B(T) \ B(T′)| — reference splits absent from the query
    /// (the paper's `RF_left`).
    pub left: u64,
    /// Σ_T |B(T′) \ B(T)| — query splits absent from each reference
    /// (the paper's `RF_right`).
    pub right: u64,
    /// Number of reference trees `r`.
    pub n_refs: usize,
}

impl RfAverage {
    /// Total RF distance summed over all reference trees.
    #[inline]
    pub fn total(&self) -> u64 {
        self.left + self.right
    }

    /// The average RF distance, `total / r`.
    #[inline]
    pub fn average(&self) -> f64 {
        self.total() as f64 / self.n_refs as f64
    }

    /// The average of the "divide by 2" RF convention some tools report
    /// (paper §II.C: "often defined with a divide by 2").
    #[inline]
    pub fn average_halved(&self) -> f64 {
        self.average() / 2.0
    }
}

/// Anything that can answer "how many reference trees contain this
/// split?" — the interface Algorithm 2 actually needs. Implemented by
/// [`crate::FrozenBfh`], the live [`Bfh`] and [`crate::CompactBfh`];
/// alternative stores (mmap-backed, GPU-resident, ...) plug in here.
pub trait SplitFrequency {
    /// Frequency of a canonical split bitmask (0 if absent).
    fn split_frequency(&self, bits: &phylo_bitset::Bits) -> u32;
    /// Total split occurrences (`sumBFHR`).
    fn occurrence_sum(&self) -> u64;
    /// Number of reference trees (`r`).
    fn reference_count(&self) -> usize;
    /// Frequency of a canonical mask given as raw words over an
    /// `n_bits`-wide namespace. The default materializes a key; stores with
    /// a borrowed-key probe override it so scratch-driven queries never
    /// allocate.
    fn split_frequency_words(&self, n_bits: usize, words: &[u64]) -> u32 {
        self.split_frequency(&phylo_bitset::Bits::from_words(n_bits, words))
    }
    /// Σ frequency over one tree's extracted splits. The default probes
    /// mask by mask; [`crate::FrozenBfh`] overrides it with its pipelined
    /// batch probe, which uses the batch's precomputed hashes.
    fn batch_frequency_sum(&self, n_bits: usize, batch: &SplitBatch<'_>) -> u64 {
        (0..batch.len())
            .map(|i| u64::from(self.split_frequency_words(n_bits, batch.mask(i))))
            .sum()
    }
}

/// Algorithm 2's arithmetic for one tree whose splits are `batch`.
pub(crate) fn score_batch<H: SplitFrequency + ?Sized>(
    hash: &H,
    n_bits: usize,
    batch: &SplitBatch<'_>,
) -> RfAverage {
    rf_average(hash, hash.batch_frequency_sum(n_bits, batch), batch.len())
}

/// Algorithm 2's arithmetic for one tree of `splits` splits whose
/// frequencies in `hash` sum to `freq_sum`.
fn rf_average<H: SplitFrequency + ?Sized>(hash: &H, freq_sum: u64, splits: usize) -> RfAverage {
    let r = hash.reference_count() as u64;
    RfAverage {
        left: hash.occurrence_sum() - freq_sum,
        right: splits as u64 * r - freq_sum,
        n_refs: hash.reference_count(),
    }
}

/// Whether removing the tree whose splits are `batch` from `table` would
/// succeed after earlier removals took `taken` trees and `used(mask)`
/// occurrences of each split — with a "never added" structure error when
/// it would not.
pub(crate) fn check_removal<F: SplitFrequency + ?Sized>(
    table: &F,
    n_taxa: usize,
    batch: &SplitBatch<'_>,
    taken: usize,
    used: impl Fn(&[u64]) -> u32,
) -> Result<(), CoreError> {
    for i in 0..batch.len() {
        let w = batch.mask(i);
        if table.split_frequency_words(n_taxa, w) <= used(w) {
            return Err(CoreError::Structure(format!(
                "remove_tree: bipartition {} was never added",
                Bits::from_words(n_taxa, w)
            )));
        }
    }
    if table.reference_count() <= taken {
        return Err(CoreError::Structure(
            "remove_tree: hash holds no trees".into(),
        ));
    }
    Ok(())
}

/// Dry-run removing `trees` in order from `table` without touching it.
/// `Ok` exactly when removing each tree in turn from a copy of the table
/// would succeed; otherwise the index of the first tree that
/// would fail and the error it would fail with. Costs one map entry per
/// distinct split the batch touches instead of a copy of the table, so a
/// frozen table with its delta ([`crate::FrozenBfh::overlay`]) is checked
/// as cheaply as an unpatched one.
pub fn check_remove_batch<F: SplitFrequency + ?Sized>(
    table: &F,
    trees: &[Tree],
    taxa: &TaxonSet,
) -> Result<(), (usize, CoreError)> {
    let mut scratch = BipartitionScratch::new();
    // How many times the batch so far has removed each split.
    let mut used: BitsMap<u32> = bits_map_with_capacity(0);
    for (i, tree) in trees.iter().enumerate() {
        let batch = scratch.batch_splits(tree, taxa);
        check_removal(table, taxa.len(), &batch, i, |w| {
            map_get_words(&used, w).copied().unwrap_or(0)
        })
        .map_err(|e| (i, e))?;
        if i + 1 == trees.len() {
            break;
        }
        for k in 0..batch.len() {
            let w = batch.mask(k);
            match map_get_words_mut(&mut used, w) {
                Some(c) => *c += 1,
                None => {
                    used.insert(Bits::from_words(taxa.len(), w), 1);
                }
            }
        }
    }
    Ok(())
}

impl SplitFrequency for Bfh {
    fn split_frequency(&self, bits: &phylo_bitset::Bits) -> u32 {
        self.frequency(bits)
    }

    fn occurrence_sum(&self) -> u64 {
        self.sum()
    }

    fn reference_count(&self) -> usize {
        self.n_trees()
    }

    fn split_frequency_words(&self, _n_bits: usize, words: &[u64]) -> u32 {
        self.frequency_words(words)
    }
}

impl SplitFrequency for crate::CompactBfh {
    fn split_frequency(&self, bits: &phylo_bitset::Bits) -> u32 {
        self.frequency(bits)
    }

    fn occurrence_sum(&self) -> u64 {
        self.sum()
    }

    fn reference_count(&self) -> usize {
        self.n_trees()
    }

    fn split_frequency_words(&self, n_bits: usize, words: &[u64]) -> u32 {
        self.frequency_words(n_bits, words)
    }
}

/// Average RF of one query tree against any split-frequency store —
/// Algorithm 2's arithmetic, generic over the table representation.
///
/// # Panics
/// Panics if the store holds no trees (average undefined).
pub fn bfhrf_average<H: SplitFrequency>(query: &Tree, taxa: &TaxonSet, table: &H) -> RfAverage {
    bfhrf_average_scratch(query, taxa, table, &mut BipartitionScratch::new())
}

/// [`bfhrf_average`] through a caller-owned extraction arena: the
/// query's splits are extracted with their hashes into `scratch` and
/// scored as one batch, so batched callers reuse one arena across all
/// queries and the per-query loop allocates nothing.
///
/// # Panics
/// Panics if the store holds no trees (average undefined).
pub fn bfhrf_average_scratch<H: SplitFrequency + ?Sized>(
    query: &Tree,
    taxa: &TaxonSet,
    hash: &H,
    scratch: &mut BipartitionScratch,
) -> RfAverage {
    assert!(
        hash.reference_count() > 0,
        "average RF over an empty reference collection"
    );
    score_batch(hash, taxa.len(), &scratch.batch_splits(query, taxa))
}

/// One query's index and score, as produced by the batch entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryScore {
    /// Position of the query tree in its collection.
    pub index: usize,
    /// Exact average-RF result.
    pub rf: RfAverage,
}

/// Average RF of every query tree, sequentially, through one reused
/// extraction arena: [`crate::Comparator::average_all`] over a
/// [`crate::BfhrfComparator`].
pub fn bfhrf_all<H: SplitFrequency + Clone + Sync>(
    queries: &[Tree],
    taxa: &TaxonSet,
    table: &H,
) -> Result<Vec<QueryScore>, CoreError> {
    crate::Comparator::average_all(&crate::BfhrfComparator::new(table, taxa), queries)
}

/// Average RF of every query tree read from `queries`, in input order,
/// holding at most [`CHUNK`] queries' shapes at a time and never a parsed
/// tree: the streamed twin of
/// [`crate::Comparator::average_all_guarded`], for any split-frequency
/// store. `queries` resolves labels against `taxa`, the namespace the
/// table was built over; a read failure surfaces as [`CoreError::Phylo`].
/// `parallel` scores each chunk on rayon workers. The guard is polled per
/// query.
///
/// The whole stream is read even when the table holds no trees, so a
/// malformed query file is reported before [`CoreError::EmptyReference`].
pub fn bfhrf_streaming<H, S>(
    hash: &H,
    taxa: &mut TaxonSet,
    parallel: bool,
    guard: &RunGuard,
    queries: &mut S,
) -> Result<Vec<QueryScore>, CoreError>
where
    H: SplitFrequency + Sync,
    S: SplitReader + ?Sized,
{
    let empty = hash.reference_count() == 0;
    let mut out = Vec::new();
    // The chunk reserves nothing up front: it grows to the queries it holds.
    let mut chunk = SplitChunk::new(taxa.len());
    let mut scratch = BipartitionScratch::new();
    loop {
        chunk.clear();
        while chunk.len() < CHUNK && chunk.read(taxa, queries, &mut scratch)? {}
        if !empty {
            score_shapes(hash, &chunk, parallel, guard, &mut scratch, &mut out)?;
        }
        if chunk.len() < CHUNK {
            break;
        }
    }
    if empty {
        return Err(CoreError::EmptyReference);
    }
    if out.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    Ok(out)
}

/// Score a chunk of queries read as shapes, appending to `out` (the
/// chunk's first query gets index `out.len()`): sequentially through the
/// caller's `scratch`, or, with `parallel`, split evenly over rayon
/// workers. Each query is canonicalised where it is scored.
pub(crate) fn score_shapes<H: SplitFrequency + Sync + ?Sized>(
    hash: &H,
    chunk: &SplitChunk,
    parallel: bool,
    guard: &RunGuard,
    scratch: &mut BipartitionScratch,
    out: &mut Vec<QueryScore>,
) -> Result<(), CoreError> {
    let first = out.len();
    let per = if parallel {
        chunk.len().div_ceil(rayon::current_num_threads())
    } else {
        chunk.len()
    }
    .max(1);
    let runs: Vec<ShapeRun<'_>> = (0..chunk.len())
        .step_by(per)
        .map(|from| ShapeRun {
            first: first + from,
            from,
            len: per.min(chunk.len() - from),
            chunk,
        })
        .collect();
    score_chunk(hash, chunk.n_taxa(), &runs, parallel, guard, scratch, out)
}

/// Queries read as shapes: trees `from..from + len` of a chunk, the first
/// numbered `first`. Each tree's shape is canonicalised, with its hashes,
/// into the arena and probed as one batch.
struct ShapeRun<'a> {
    first: usize,
    from: usize,
    len: usize,
    chunk: &'a SplitChunk,
}

impl SplitRun for ShapeRun<'_> {
    type Arena = BipartitionScratch;

    fn first(&self) -> usize {
        self.first
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tally<H: SplitFrequency + ?Sized>(
        &self,
        i: usize,
        hash: &H,
        n_bits: usize,
        scratch: &mut BipartitionScratch,
    ) -> (u64, usize) {
        let batch = scratch.shape_batch(self.chunk.shapes(), self.from + i, n_bits);
        (hash.batch_frequency_sum(n_bits, &batch), batch.len())
    }
}

/// One worker's share of a scoring pass: a run of trees scored in order,
/// the first numbered [`SplitRun::first`]. Parsed queries ([`TreeRun`])
/// extract each tree's split batch into a [`BipartitionScratch`] and probe
/// it; kept reference splits read their frequencies by pool rank.
pub(crate) trait SplitRun: Sync {
    /// The reusable buffers a tree is tallied in.
    type Arena: Default;
    /// Global index of the run's first tree.
    fn first(&self) -> usize;
    /// Trees in the run.
    fn len(&self) -> usize;
    /// Tree `i`'s frequency sum in `hash` and its split count, made in
    /// `arena`.
    fn tally<H: SplitFrequency + ?Sized>(
        &self,
        i: usize,
        hash: &H,
        n_bits: usize,
        arena: &mut Self::Arena,
    ) -> (u64, usize);
}

/// Parsed query trees over `taxa`, the first numbered `first`.
struct TreeRun<'a> {
    first: usize,
    trees: &'a [Tree],
    taxa: &'a TaxonSet,
}

impl SplitRun for TreeRun<'_> {
    type Arena = BipartitionScratch;

    fn first(&self) -> usize {
        self.first
    }

    fn len(&self) -> usize {
        self.trees.len()
    }

    fn tally<H: SplitFrequency + ?Sized>(
        &self,
        i: usize,
        hash: &H,
        n_bits: usize,
        scratch: &mut BipartitionScratch,
    ) -> (u64, usize) {
        let batch = scratch.batch_splits(&self.trees[i], self.taxa);
        (hash.batch_frequency_sum(n_bits, &batch), batch.len())
    }
}

/// Score a chunk of parsed queries, appending to `out` (the chunk's first
/// query gets index `out.len()`): sequentially through the caller's
/// `scratch`, or, with `parallel`, split evenly over rayon workers.
pub(crate) fn score_trees<H: SplitFrequency + Sync + ?Sized>(
    hash: &H,
    chunk: &[Tree],
    taxa: &TaxonSet,
    parallel: bool,
    guard: &RunGuard,
    scratch: &mut BipartitionScratch,
    out: &mut Vec<QueryScore>,
) -> Result<(), CoreError> {
    for q in chunk {
        check_tree_taxa(q, taxa)?;
    }
    let first = out.len();
    let per = if parallel {
        chunk.len().div_ceil(rayon::current_num_threads())
    } else {
        chunk.len()
    };
    let runs: Vec<TreeRun<'_>> = chunk
        .chunks(per.max(1))
        .enumerate()
        .map(|(ci, trees)| TreeRun {
            first: first + ci * per,
            trees,
            taxa,
        })
        .collect();
    score_chunk(hash, taxa.len(), &runs, parallel, guard, scratch, out)
}

/// Score every run's trees ([`rf_average`]), appending to `out`
/// in run order. Sequentially every run goes through the caller's
/// `arena`; `parallel` scores one run per rayon task, each with its own.
/// Either way the work is panic-isolated and the guard is polled per tree.
pub(crate) fn score_chunk<H, R>(
    hash: &H,
    n_bits: usize,
    runs: &[R],
    parallel: bool,
    guard: &RunGuard,
    arena: &mut R::Arena,
    out: &mut Vec<QueryScore>,
) -> Result<(), CoreError>
where
    H: SplitFrequency + Sync + ?Sized,
    R: SplitRun,
{
    if !parallel {
        return isolate("bfhrf query worker", || {
            runs.iter()
                .try_for_each(|run| score_run(hash, n_bits, run, guard, arena, out))
        });
    }
    let scored: Vec<Vec<QueryScore>> = runs
        .par_iter()
        .map(|run| {
            isolate("bfhrf query worker", || {
                let mut part = Vec::with_capacity(run.len());
                score_run(
                    hash,
                    n_bits,
                    run,
                    guard,
                    &mut R::Arena::default(),
                    &mut part,
                )?;
                Ok(part)
            })
        })
        .collect::<Result<_, CoreError>>()?;
    out.extend(scored.into_iter().flatten());
    Ok(())
}

/// [`score_chunk`]'s loop over one run.
fn score_run<H: SplitFrequency + ?Sized, R: SplitRun>(
    hash: &H,
    n_bits: usize,
    run: &R,
    guard: &RunGuard,
    arena: &mut R::Arena,
    out: &mut Vec<QueryScore>,
) -> Result<(), CoreError> {
    for i in 0..run.len() {
        let index = run.first() + i;
        guard.checkpoint("bfhrf average_all")?;
        guard.panic_if_injected(index);
        let (freq_sum, splits) = run.tally(i, hash, n_bits, arena);
        out.push(QueryScore {
            index,
            rf: rf_average(hash, freq_sum, splits),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::{TaxaPolicy, TreeCollection};

    fn setup(refs: &str, queries: &str) -> (TreeCollection, Vec<Tree>, Bfh) {
        // Parse refs growing the namespace, then queries against it so the
        // bit layout is shared.
        let mut refs_coll = TreeCollection::parse(refs).unwrap();
        let queries =
            phylo::read_trees_from_str(queries, &mut refs_coll.taxa, TaxaPolicy::Require).unwrap();
        let bfh = Bfh::build(&refs_coll.trees, &refs_coll.taxa);
        (refs_coll, queries, bfh)
    }

    #[test]
    fn paper_worked_example() {
        // R = {((A,B),(C,D)) ×2, ((A,C),(B,D))}; query ((A,B),(C,D)):
        // distances 0, 0, 2 → left 1, right 1, avg 2/3.
        let (refs, queries, bfh) = setup(
            "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));",
            "((A,B),(C,D));",
        );
        let avg = bfhrf_average(&queries[0], &refs.taxa, &bfh);
        assert_eq!(avg.left, 1);
        assert_eq!(avg.right, 1);
        assert_eq!(avg.total(), 2);
        assert!((avg.average() - 2.0 / 3.0).abs() < 1e-15);
        assert!((avg.average_halved() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn identical_collection_gives_zero() {
        let (refs, queries, bfh) = setup("((A,B),(C,D));", "((A,B),(C,D));");
        let avg = bfhrf_average(&queries[0], &refs.taxa, &bfh);
        assert_eq!(avg.total(), 0);
        assert_eq!(avg.average(), 0.0);
    }

    #[test]
    fn disjoint_splits_give_maximum() {
        // 4-taxa trees with different internal splits: RF = 2 each.
        let (refs, queries, bfh) = setup("((A,B),(C,D));\n((A,B),(C,D));", "((A,C),(B,D));");
        let avg = bfhrf_average(&queries[0], &refs.taxa, &bfh);
        assert_eq!(avg.total(), 4);
        assert_eq!(avg.average(), 2.0);
    }

    #[test]
    fn all_and_parallel_comparator_agree() {
        let refs = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));";
        let queries = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));";
        let (refs_coll, qs, bfh) = setup(refs, queries);
        let seq = bfhrf_all(&qs, &refs_coll.taxa, &bfh).unwrap();
        use crate::Comparator as _;
        let par = crate::BfhrfComparator::new(&bfh, &refs_coll.taxa)
            .parallel(true)
            .average_all(&qs)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].index, 0);
        assert_eq!(seq[1].index, 1);
    }

    #[test]
    fn streaming_matches_batch() {
        let refs = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));";
        let queries = "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));";
        let (mut refs_coll, qs, bfh) = setup(refs, queries);
        let batch = bfhrf_all(&qs, &refs_coll.taxa, &bfh).unwrap();
        for parallel in [false, true] {
            let mut stream = phylo::NewickReader::new(
                queries.as_bytes(),
                TaxaPolicy::Require,
                phylo::IngestPolicy::Strict,
            );
            let streamed = bfhrf_streaming(
                &bfh.freeze(),
                &mut refs_coll.taxa,
                parallel,
                &RunGuard::default(),
                &mut stream,
            )
            .unwrap();
            assert_eq!(batch, streamed);
        }
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let (refs, qs, bfh) = setup("((A,B),(C,D));", "((A,C),(B,D));");
        assert_eq!(
            bfhrf_all(&[], &refs.taxa, &bfh).unwrap_err(),
            CoreError::EmptyQuery
        );
        let empty = Bfh::empty(refs.taxa.len());
        assert_eq!(
            bfhrf_all(&qs, &refs.taxa, &empty).unwrap_err(),
            CoreError::EmptyReference
        );
    }

    #[test]
    fn q_equals_r_self_average() {
        // When Q is R (the paper's experimental setting), each tree's
        // average includes its own zero distance.
        let text = "((A,B),(C,D));\n((A,C),(B,D));";
        let refs = TreeCollection::parse(text).unwrap();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let scores = bfhrf_all(&refs.trees, &refs.taxa, &bfh).unwrap();
        // each tree: distance 0 to itself, 2 to the other → avg 1
        for s in &scores {
            assert_eq!(s.rf.total(), 2);
            assert_eq!(s.rf.average(), 1.0);
        }
    }

    #[test]
    fn generic_entry_point_accepts_both_hash_types() {
        let (refs, qs, bfh) = setup(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));",
            "((A,B),((C,D),(E,F)));",
        );
        let compact = crate::CompactBfh::build(&refs.trees, &refs.taxa);
        let a = bfhrf_average(&qs[0], &refs.taxa, &bfh);
        let b = bfhrf_average(&qs[0], &refs.taxa, &compact);
        assert_eq!(a, b);
        assert_eq!(a, bfhrf_average(&qs[0], &refs.taxa, &bfh.freeze()));
    }

    #[test]
    fn multifurcating_queries_are_supported() {
        // A star query has no internal splits: left = sumBFHR, right = 0.
        let (refs, qs, bfh) = setup("((A,B),(C,D));\n((A,C),(B,D));", "(A,B,C,D);");
        let avg = bfhrf_average(&qs[0], &refs.taxa, &bfh);
        assert_eq!(avg.left, bfh.sum());
        assert_eq!(avg.right, 0);
    }
}
