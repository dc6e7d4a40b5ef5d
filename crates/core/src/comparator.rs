//! The [`Comparator`] trait — one interface over every average-RF engine.
//!
//! The paper compares BFHRF against DS/DSMP (Algorithm 1), HashRF, and
//! exact pairwise baselines; the workspace grew one free-function entry
//! point per engine, each with its own argument shape. `Comparator`
//! unifies them: construct an engine over a reference collection once,
//! then ask it `average(query)` — the CLI and bench harness dispatch on
//! the trait and never mention a concrete algorithm again.
//!
//! ```
//! use bfhrf::{Bfh, BfhrfComparator, Comparator};
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse(
//!     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let bfh = Bfh::build(&refs.trees, &refs.taxa);
//! let cmp = BfhrfComparator::new(&bfh, &refs.taxa);
//! let avg = cmp.average(&refs.trees[0]).unwrap();
//! assert!((avg.average() - 2.0 / 3.0).abs() < 1e-12);
//! ```

use crate::bfh::Bfh;
use crate::error::CoreError;
use crate::guard::{isolate, RunGuard};
use crate::hashrf::{HashRf, HashRfConfig};
use crate::rf::{bfhrf_average_scratch, score_chunk, QueryScore, RfAverage};
use phylo::{BipartitionScratch, BipartitionSet, TaxonSet, Tree};
use phylo_bitset::Bits;
use rayon::prelude::*;
use std::borrow::Cow;

/// An engine answering "what is this query tree's average RF against the
/// reference collection?".
///
/// Implementations hold whatever preprocessed state they need (frequency
/// hash, reference split sets, ...), so repeated queries amortize setup.
pub trait Comparator {
    /// Short identifier for reports ("bfhrf", "ds", ...).
    fn name(&self) -> &'static str;

    /// Exact average RF of one query against the references.
    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError>;

    /// Average RF of every query, in input order. Delegates to
    /// [`Comparator::average_all_guarded`] with a permissive guard.
    fn average_all(&self, queries: &[Tree]) -> Result<Vec<QueryScore>, CoreError> {
        self.average_all_guarded(queries, &RunGuard::default())
    }

    /// [`Comparator::average_all`] under a [`RunGuard`]: cancellation and
    /// deadline are polled per query, so a long batch stops within one
    /// tree comparison of the request. The default loops
    /// [`Comparator::average`]; engines with cheaper batched paths
    /// (scratch reuse, parallel chunks) override it with identical
    /// results.
    fn average_all_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        queries
            .iter()
            .enumerate()
            .map(|(index, q)| {
                guard.checkpoint("average_all")?;
                Ok(QueryScore {
                    index,
                    rf: self.average(q)?,
                })
            })
            .collect()
    }
}

/// Typed-error guard replacing the extraction assert: every leaf taxon of
/// `tree` must fit the namespace.
pub(crate) fn check_tree_taxa(tree: &Tree, taxa: &TaxonSet) -> Result<(), CoreError> {
    for leaf in tree.leaves() {
        if let Some(t) = tree.taxon(leaf) {
            if t.index() >= taxa.len() {
                return Err(CoreError::TaxaMismatch(format!(
                    "query references taxon id {} but the namespace has {} taxa",
                    t.index(),
                    taxa.len()
                )));
            }
        }
    }
    Ok(())
}

/// BFHRF (Algorithm 2): one tree-vs-hash comparison per query.
#[derive(Debug, Clone)]
pub struct BfhrfComparator<'a> {
    bfh: Cow<'a, Bfh>,
    taxa: &'a TaxonSet,
    parallel: bool,
}

impl<'a> BfhrfComparator<'a> {
    /// Compare against an already-built frequency hash.
    pub fn new(bfh: &'a Bfh, taxa: &'a TaxonSet) -> Self {
        BfhrfComparator {
            bfh: Cow::Borrowed(bfh),
            taxa,
            parallel: false,
        }
    }

    /// Compare against a hash the comparator owns — what degradation paths
    /// use when they build the fallback hash themselves and have nowhere
    /// to park a borrow.
    pub fn from_owned(bfh: Bfh, taxa: &'a TaxonSet) -> Self {
        BfhrfComparator {
            bfh: Cow::Owned(bfh),
            taxa,
            parallel: false,
        }
    }

    /// Parallelize [`Comparator::average_all`] over query chunks.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }
}

impl Comparator for BfhrfComparator<'_> {
    fn name(&self) -> &'static str {
        "bfhrf"
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.bfh.n_trees() == 0 {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        let mut scratch = BipartitionScratch::new();
        Ok(bfhrf_average_scratch(
            query,
            self.taxa,
            &*self.bfh,
            &mut scratch,
        ))
    }

    fn average_all_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.bfh.n_trees() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for q in queries {
            check_tree_taxa(q, self.taxa)?;
        }
        if !self.parallel {
            let mut scratch = BipartitionScratch::new();
            return queries
                .iter()
                .enumerate()
                .map(|(index, q)| {
                    guard.checkpoint("bfhrf average_all")?;
                    Ok(QueryScore {
                        index,
                        rf: bfhrf_average_scratch(q, self.taxa, &*self.bfh, &mut scratch),
                    })
                })
                .collect();
        }
        // Chunked so each worker reuses one extraction arena; each worker
        // body is panic-isolated and polls the guard per query.
        let chunk = queries.len().div_ceil(rayon::current_num_threads()).max(1);
        let chunks: Vec<Vec<QueryScore>> = queries
            .par_chunks(chunk)
            .enumerate()
            .map(|(ci, qs)| {
                isolate("bfhrf query worker", || {
                    let mut scratch = BipartitionScratch::new();
                    qs.iter()
                        .enumerate()
                        .map(|(i, q)| {
                            guard.checkpoint("bfhrf average_all")?;
                            guard.panic_if_injected(ci * chunk + i);
                            Ok(QueryScore {
                                index: ci * chunk + i,
                                rf: bfhrf_average_scratch(q, self.taxa, &*self.bfh, &mut scratch),
                            })
                        })
                        .collect::<Result<Vec<_>, CoreError>>()
                })
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(chunks.into_iter().flatten().collect())
    }
}

/// BFHRF over a [`FrozenBfh`](crate::FrozenBfh): the same Algorithm 2
/// arithmetic, probing the frozen struct-of-arrays table through the
/// batched split-hashing path. Answers are bitwise-identical to
/// [`BfhrfComparator`] over the source hash; `name()` stays `"bfhrf"` so
/// reports don't fork on an internal layout choice.
#[derive(Debug, Clone)]
pub struct FrozenComparator<'a> {
    frozen: Cow<'a, crate::FrozenBfh>,
    taxa: &'a TaxonSet,
    parallel: bool,
}

impl<'a> FrozenComparator<'a> {
    /// Compare against an already-frozen hash.
    pub fn new(frozen: &'a crate::FrozenBfh, taxa: &'a TaxonSet) -> Self {
        FrozenComparator {
            frozen: Cow::Borrowed(frozen),
            taxa,
            parallel: false,
        }
    }

    /// Compare against a frozen hash the comparator owns.
    pub fn from_owned(frozen: crate::FrozenBfh, taxa: &'a TaxonSet) -> Self {
        FrozenComparator {
            frozen: Cow::Owned(frozen),
            taxa,
            parallel: false,
        }
    }

    /// Parallelize [`Comparator::average_all`] over query chunks.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// The frozen table being probed.
    pub fn frozen(&self) -> &crate::FrozenBfh {
        &self.frozen
    }

    /// [`Comparator::average_all_guarded`], sequential, through a
    /// caller-owned extraction arena. For callers that score many small
    /// requests over time (the serve daemon keeps one arena per
    /// connection) — identical results to the trait path, zero per-request
    /// arena allocation.
    pub fn average_all_scratch_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
        scratch: &mut BipartitionScratch,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.frozen.n_trees() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for q in queries {
            check_tree_taxa(q, self.taxa)?;
        }
        queries
            .iter()
            .enumerate()
            .map(|(index, q)| {
                guard.checkpoint("bfhrf average_all")?;
                Ok(QueryScore {
                    index,
                    rf: self.frozen.average_scratch(q, self.taxa, scratch),
                })
            })
            .collect()
    }
}

impl Comparator for FrozenComparator<'_> {
    fn name(&self) -> &'static str {
        "bfhrf"
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.frozen.n_trees() == 0 {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        let mut scratch = BipartitionScratch::new();
        Ok(self.frozen.average_scratch(query, self.taxa, &mut scratch))
    }

    fn average_all_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.frozen.n_trees() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let mut out = Vec::with_capacity(queries.len());
        score_chunk(
            &*self.frozen,
            queries,
            self.taxa,
            0,
            self.parallel,
            guard,
            &mut out,
        )?;
        Ok(out)
    }
}

/// Algorithm 1 (DS / DSMP): precomputed reference split sets, symmetric
/// set differences per query. `parallel(true)` is the paper's DSMP.
#[derive(Debug, Clone)]
pub struct SetComparator<'a> {
    ref_sets: Vec<BipartitionSet>,
    taxa: &'a TaxonSet,
    parallel: bool,
}

impl<'a> SetComparator<'a> {
    /// Precompute the split set of every reference tree.
    pub fn new(refs: &[Tree], taxa: &'a TaxonSet) -> Self {
        SetComparator {
            ref_sets: refs
                .iter()
                .map(|t| BipartitionSet::from_tree(t, taxa))
                .collect(),
            taxa,
            parallel: false,
        }
    }

    /// Parallelize [`Comparator::average_all`] over queries (DSMP).
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    fn score(&self, query: &Tree) -> RfAverage {
        let q_set = BipartitionSet::from_tree(query, self.taxa);
        let mut left = 0u64;
        let mut right = 0u64;
        for r_set in &self.ref_sets {
            let shared = if q_set.len() <= r_set.len() {
                q_set.iter().filter(|b| r_set.contains_bits(b)).count()
            } else {
                r_set.iter().filter(|b| q_set.contains_bits(b)).count()
            };
            left += (r_set.len() - shared) as u64;
            right += (q_set.len() - shared) as u64;
        }
        RfAverage {
            left,
            right,
            n_refs: self.ref_sets.len(),
        }
    }
}

impl Comparator for SetComparator<'_> {
    fn name(&self) -> &'static str {
        if self.parallel {
            "dsmp"
        } else {
            "ds"
        }
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.ref_sets.is_empty() {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        Ok(self.score(query))
    }

    fn average_all_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.ref_sets.is_empty() {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for q in queries {
            check_tree_taxa(q, self.taxa)?;
        }
        if !self.parallel {
            return queries
                .iter()
                .enumerate()
                .map(|(index, q)| {
                    guard.checkpoint("ds average_all")?;
                    Ok(QueryScore {
                        index,
                        rf: self.score(q),
                    })
                })
                .collect();
        }
        queries
            .par_iter()
            .enumerate()
            .map(|(index, q)| {
                isolate("dsmp query worker", || {
                    guard.checkpoint("dsmp average_all")?;
                    guard.panic_if_injected(index);
                    Ok(QueryScore {
                        index,
                        rf: self.score(q),
                    })
                })
            })
            .collect()
    }
}

/// HashRF: compressed-ID hashing with configurable ID width. Inherits
/// HashRF's collision behavior — averages may deviate from exact values
/// when `id_bits` is small (that inaccuracy is the point of the baseline).
/// Each query recomputes the hash over `refs + query`, so per-query cost
/// is `O(r)`; use this for parity experiments, not throughput.
#[derive(Debug, Clone)]
pub struct HashRfComparator<'a> {
    refs: &'a [Tree],
    taxa: &'a TaxonSet,
    config: HashRfConfig,
}

impl<'a> HashRfComparator<'a> {
    /// Compare against `refs` with the given HashRF configuration.
    pub fn new(refs: &'a [Tree], taxa: &'a TaxonSet, config: HashRfConfig) -> Self {
        HashRfComparator { refs, taxa, config }
    }
}

impl Comparator for HashRfComparator<'_> {
    fn name(&self) -> &'static str {
        "hashrf"
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.refs.is_empty() {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        let mut all: Vec<Tree> = self.refs.to_vec();
        all.push(query.clone());
        let hashrf = HashRf::compute(&all, self.taxa, &self.config)?;
        let qi = self.refs.len();
        let splits = hashrf.splits_per_tree();
        let (mut left, mut right) = (0u64, 0u64);
        for i in 0..qi {
            // Decompose the symmetric distance into the paper's two terms:
            // shared = (|B(q)| + |B(r_i)| − d_i) / 2.
            let d = u64::from(hashrf.rf(qi, i));
            let q_splits = u64::from(splits[qi]);
            let r_splits = u64::from(splits[i]);
            let shared = (q_splits + r_splits - d) / 2;
            left += r_splits - shared;
            right += q_splits - shared;
        }
        Ok(RfAverage {
            left,
            right,
            n_refs: self.refs.len(),
        })
    }
}

/// Day's O(n) pairwise algorithm as a comparator — the independent
/// correctness oracle, `O(n r)` per query.
#[derive(Debug, Clone)]
pub struct DayComparator<'a> {
    refs: &'a [Tree],
    taxa: &'a TaxonSet,
    /// Leafset and |B(r_i)| of each reference, precomputed.
    ref_info: Vec<(Bits, u64)>,
}

impl<'a> DayComparator<'a> {
    /// Precompute each reference's leafset and split count.
    pub fn new(refs: &'a [Tree], taxa: &'a TaxonSet) -> Self {
        let mut scratch = BipartitionScratch::new();
        let ref_info = refs
            .iter()
            .map(|t| (t.leafset(taxa.len()), scratch.split_count(t, taxa) as u64))
            .collect();
        DayComparator {
            refs,
            taxa,
            ref_info,
        }
    }
}

impl Comparator for DayComparator<'_> {
    fn name(&self) -> &'static str {
        "day"
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.refs.is_empty() {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        let q_leafset = query.leafset(self.taxa.len());
        let mut scratch = BipartitionScratch::new();
        let q_splits = scratch.split_count(query, self.taxa) as u64;
        let (mut left, mut right) = (0u64, 0u64);
        for (tree, (leafset, r_splits)) in self.refs.iter().zip(&self.ref_info) {
            if *leafset != q_leafset {
                return Err(CoreError::TaxaMismatch(
                    "Day's algorithm requires identical leaf sets".into(),
                ));
            }
            let d = crate::day::day_rf(query, tree, self.taxa) as u64;
            let shared = (q_splits + r_splits - d) / 2;
            left += r_splits - shared;
            right += q_splits - shared;
        }
        Ok(RfAverage {
            left,
            right,
            n_refs: self.refs.len(),
        })
    }
}

/// Construct a HashRF comparator — or, when its estimated allocation
/// exceeds the guard's byte budget, degrade to an owned-hash BFHRF
/// comparator and record the [`Degradation`](crate::guard::Degradation)
/// on the guard instead of letting the kernel OOM-kill the run (the fate
/// of the paper's r = 100k HashRF experiments).
///
/// The returned engine's `name()` says which algorithm actually ran.
pub fn hashrf_or_degrade<'a>(
    refs: &'a [Tree],
    taxa: &'a TaxonSet,
    config: HashRfConfig,
    guard: &RunGuard,
) -> Result<Box<dyn Comparator + 'a>, CoreError> {
    if refs.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    // +1: HashRfComparator recomputes the hash over refs + query.
    let estimate = HashRf::estimate_bytes(refs.len() + 1, taxa.len(), &config);
    if guard.budget.fits(estimate) {
        return Ok(Box::new(HashRfComparator::new(refs, taxa, config)));
    }
    guard.record_degradation(
        "hashrf",
        "bfhrf",
        format!(
            "estimated {estimate} bytes for r={} exceeds the {} byte budget",
            refs.len(),
            guard
                .budget
                .max_bytes
                .map_or_else(|| "unlimited".into(), |b| b.to_string()),
        ),
    );
    let bfh = Bfh::try_build_sharded(refs, taxa, 1, guard)?;
    Ok(Box::new(BfhrfComparator::from_owned(bfh, taxa)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::{read_trees_from_str, TaxaPolicy, TreeCollection};

    fn setup() -> (TreeCollection, Vec<Tree>) {
        let mut refs = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,E),(D,F)));",
        )
        .unwrap();
        let queries = read_trees_from_str(
            "((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));\n(((A,B),C),((D,E),F));",
            &mut refs.taxa,
            TaxaPolicy::Require,
        )
        .unwrap();
        (refs, queries)
    }

    #[test]
    fn all_exact_comparators_agree_field_by_field() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let frozen = bfh.freeze();
        let engines: Vec<Box<dyn Comparator>> = vec![
            Box::new(BfhrfComparator::new(&bfh, &refs.taxa)),
            Box::new(BfhrfComparator::new(&bfh, &refs.taxa).parallel(true)),
            Box::new(FrozenComparator::new(&frozen, &refs.taxa)),
            Box::new(FrozenComparator::new(&frozen, &refs.taxa).parallel(true)),
            Box::new(SetComparator::new(&refs.trees, &refs.taxa)),
            Box::new(SetComparator::new(&refs.trees, &refs.taxa).parallel(true)),
            Box::new(DayComparator::new(&refs.trees, &refs.taxa)),
        ];
        let baseline = engines[0].average_all(&queries).unwrap();
        for engine in &engines[1..] {
            assert_eq!(
                engine.average_all(&queries).unwrap(),
                baseline,
                "{} disagrees with bfhrf",
                engine.name()
            );
        }
        // per-query entry point agrees with the batch
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(engines[0].average(q).unwrap(), baseline[i].rf);
        }
    }

    #[test]
    fn hashrf_with_wide_ids_matches_exact() {
        // 64-bit IDs make collisions (practically) impossible, so HashRF
        // must reproduce the exact averages.
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let exact = BfhrfComparator::new(&bfh, &refs.taxa);
        let config = HashRfConfig {
            id_bits: 64,
            ..HashRfConfig::default()
        };
        let hashrf = HashRfComparator::new(&refs.trees, &refs.taxa, config);
        for q in &queries {
            assert_eq!(hashrf.average(q).unwrap(), exact.average(q).unwrap());
        }
    }

    #[test]
    fn empty_collections_are_typed_errors() {
        let (refs, queries) = setup();
        let empty = Bfh::empty(refs.taxa.len());
        let cmp = BfhrfComparator::new(&empty, &refs.taxa);
        assert_eq!(
            cmp.average(&queries[0]).unwrap_err(),
            CoreError::EmptyReference
        );
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let cmp = BfhrfComparator::new(&bfh, &refs.taxa);
        assert_eq!(cmp.average_all(&[]).unwrap_err(), CoreError::EmptyQuery);
    }

    #[test]
    fn day_comparator_rejects_leafset_mismatch() {
        let (refs, _) = setup();
        let mut taxa = refs.taxa.clone();
        let partial =
            read_trees_from_str("((A,B),(C,D));", &mut taxa, TaxaPolicy::Require).unwrap();
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        assert!(matches!(
            day.average(&partial[0]).unwrap_err(),
            CoreError::TaxaMismatch(_)
        ));
    }

    #[test]
    fn guarded_batch_stops_on_cancel() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let frozen = bfh.freeze();
        let cmps: Vec<Box<dyn Comparator>> = vec![
            Box::new(BfhrfComparator::new(&bfh, &refs.taxa)),
            Box::new(BfhrfComparator::new(&bfh, &refs.taxa).parallel(true)),
            Box::new(FrozenComparator::new(&frozen, &refs.taxa)),
            Box::new(FrozenComparator::new(&frozen, &refs.taxa).parallel(true)),
        ];
        for cmp in cmps {
            let guard = RunGuard::default();
            guard.cancel.cancel();
            let err = cmp.average_all_guarded(&queries, &guard).unwrap_err();
            assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
        }
    }

    #[test]
    fn injected_query_worker_panic_is_isolated() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let cmp = BfhrfComparator::new(&bfh, &refs.taxa).parallel(true);
        let mut guard = RunGuard::default();
        guard.inject_panic_at(1);
        let err = cmp.average_all_guarded(&queries, &guard).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)), "{err:?}");
        // Frozen path too
        let frozen = bfh.freeze();
        let fz = FrozenComparator::new(&frozen, &refs.taxa).parallel(true);
        let err = fz.average_all_guarded(&queries, &guard).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)), "{err:?}");
        // DSMP path too
        let ds = SetComparator::new(&refs.trees, &refs.taxa).parallel(true);
        let err = ds.average_all_guarded(&queries, &guard).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)), "{err:?}");
    }

    #[test]
    fn owned_hash_comparator_matches_borrowed() {
        let (refs, queries) = setup();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let borrowed = BfhrfComparator::new(&bfh, &refs.taxa);
        let owned = BfhrfComparator::from_owned(bfh.clone(), &refs.taxa);
        assert_eq!(
            borrowed.average_all(&queries).unwrap(),
            owned.average_all(&queries).unwrap()
        );
    }

    #[test]
    fn hashrf_degrades_to_bfhrf_when_over_budget() {
        let (refs, queries) = setup();
        // A budget below HashRF's ~24 KB bucket-table estimate but above
        // the fallback BFH's ~100-byte spill footprint: HashRF is refused,
        // BFHRF builds fine under the same guard.
        let guard = RunGuard::with_budget(crate::guard::RunBudget::with_max_bytes(1000));
        let engine =
            hashrf_or_degrade(&refs.trees, &refs.taxa, HashRfConfig::default(), &guard).unwrap();
        assert_eq!(engine.name(), "bfhrf");
        let events = guard.degradations();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].from, "hashrf");
        assert_eq!(events[0].to, "bfhrf");
        // Degraded answers are the exact ones.
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let exact = BfhrfComparator::new(&bfh, &refs.taxa);
        assert_eq!(
            engine.average_all(&queries).unwrap(),
            exact.average_all(&queries).unwrap()
        );
    }

    #[test]
    fn hashrf_runs_as_requested_when_budget_fits() {
        let (refs, _) = setup();
        let guard = RunGuard::default(); // unlimited
        let engine =
            hashrf_or_degrade(&refs.trees, &refs.taxa, HashRfConfig::default(), &guard).unwrap();
        assert_eq!(engine.name(), "hashrf");
        assert!(guard.degradations().is_empty());
    }

    #[test]
    fn out_of_namespace_query_is_a_typed_error() {
        let (refs, _) = setup();
        let mut wider = refs.taxa.clone();
        let alien =
            read_trees_from_str("((A,B),((C,Z1),(Z2,Z3)));", &mut wider, TaxaPolicy::Grow).unwrap();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let cmp = BfhrfComparator::new(&bfh, &refs.taxa);
        assert!(matches!(
            cmp.average(&alien[0]).unwrap_err(),
            CoreError::TaxaMismatch(_)
        ));
    }
}
