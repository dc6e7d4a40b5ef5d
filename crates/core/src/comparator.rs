//! The [`Comparator`] trait — one interface over every average-RF engine.
//!
//! The paper compares BFHRF against DS/DSMP (Algorithm 1), HashRF, and
//! exact pairwise baselines; the workspace grew one free-function entry
//! point per engine, each with its own argument shape. `Comparator`
//! unifies them: construct an engine over a reference collection once,
//! then ask it `average(query)` — the CLI and bench harness dispatch on
//! the trait and never mention a concrete algorithm again.
//!
//! BFHRF has one comparator, [`BfhrfComparator`], generic over the
//! [`SplitFrequency`] store it scores against; [`FrozenComparator`] is its
//! alias over a [`FrozenBfh`]. Every one of its entry points runs the same
//! extract-then-score Algorithm 2 kernel, so the store changes only the
//! speed of a probe, never an answer.
//!
//! ```
//! use bfhrf::{BfhBuilder, Comparator, FrozenComparator};
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse(
//!     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let table = BfhBuilder::new().freeze_trees(&refs.trees, &refs.taxa).unwrap();
//! let cmp = FrozenComparator::new(&table, &refs.taxa);
//! let avg = cmp.average(&refs.trees[0]).unwrap();
//! assert!((avg.average() - 2.0 / 3.0).abs() < 1e-12);
//! ```

use crate::builder::BfhBuilder;
use crate::error::CoreError;
use crate::frozen::FrozenBfh;
use crate::guard::{isolate, RunGuard};
use crate::hashrf::{HashRf, HashRfConfig};
use crate::rf::{
    bfhrf_average_scratch, score_shapes, score_trees, QueryScore, RfAverage, SplitFrequency,
};
use crate::SplitChunk;
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

/// BFHRF (Algorithm 2) over any split-frequency store: one tree-vs-hash
/// comparison per query. Every entry point extracts a query's splits with
/// their hashes into an arena and scores them through one kernel, so
/// answers are bitwise-identical whatever the store — a [`FrozenBfh`]
/// ([`FrozenComparator`]), one patched by a delta, a
/// [`crate::CompactBfh`] or any other [`SplitFrequency`]. `name()` is
/// `"bfhrf"` for all of them.
#[derive(Debug, Clone)]
pub struct BfhrfComparator<'a, H: SplitFrequency + Clone> {
    table: Cow<'a, H>,
    taxa: &'a TaxonSet,
    parallel: bool,
}

/// BFHRF over a [`FrozenBfh`]: what the CLI, the serve daemon and the
/// benchmark score with.
pub type FrozenComparator<'a> = BfhrfComparator<'a, FrozenBfh>;

impl<'a, H: SplitFrequency + Clone + Sync> BfhrfComparator<'a, H> {
    /// Compare against an already-built table.
    pub fn new(table: &'a H, taxa: &'a TaxonSet) -> Self {
        BfhrfComparator {
            table: Cow::Borrowed(table),
            taxa,
            parallel: false,
        }
    }

    /// Compare against a table the comparator owns — what degradation
    /// paths use when they build the fallback table themselves and have
    /// nowhere to park a borrow.
    pub fn from_owned(table: H, taxa: &'a TaxonSet) -> Self {
        BfhrfComparator {
            table: Cow::Owned(table),
            taxa,
            parallel: false,
        }
    }

    /// Parallelize [`Comparator::average_all`] over query chunks.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
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
        self.score(queries, false, guard, scratch)
    }

    /// [`Comparator::average_all_guarded`] over queries read straight to
    /// their shapes, with no tree built: the same scores, refusals and
    /// guard polling, in parallel when [`parallel`](Self::parallel) is
    /// set, each query canonicalised in its run's own scratch. The chunk
    /// must be over the comparator's namespace.
    pub fn average_chunk_guarded(
        &self,
        queries: &SplitChunk,
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.table.reference_count() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        if queries.n_taxa() != self.taxa.len() {
            return Err(CoreError::TaxaMismatch(format!(
                "queries are over {} taxa but the namespace has {}",
                queries.n_taxa(),
                self.taxa.len()
            )));
        }
        let mut out = Vec::with_capacity(queries.len());
        score_shapes(
            &*self.table,
            queries,
            self.parallel,
            guard,
            &mut BipartitionScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    fn score(
        &self,
        queries: &[Tree],
        parallel: bool,
        guard: &RunGuard,
        scratch: &mut BipartitionScratch,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if self.table.reference_count() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if queries.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let mut out = Vec::with_capacity(queries.len());
        score_trees(
            &*self.table,
            queries,
            self.taxa,
            parallel,
            guard,
            scratch,
            &mut out,
        )?;
        Ok(out)
    }
}

impl<H: SplitFrequency + Clone + Sync> Comparator for BfhrfComparator<'_, H> {
    fn name(&self) -> &'static str {
        "bfhrf"
    }

    fn average(&self, query: &Tree) -> Result<RfAverage, CoreError> {
        if self.table.reference_count() == 0 {
            return Err(CoreError::EmptyReference);
        }
        check_tree_taxa(query, self.taxa)?;
        let mut scratch = BipartitionScratch::new();
        Ok(bfhrf_average_scratch(
            query,
            self.taxa,
            &*self.table,
            &mut scratch,
        ))
    }

    fn average_all_guarded(
        &self,
        queries: &[Tree],
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        self.score(
            queries,
            self.parallel,
            guard,
            &mut BipartitionScratch::new(),
        )
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
/// exceeds the guard's byte budget, degrade to a BFHRF comparator over a
/// frozen table it owns and record the [`Degradation`](crate::guard::Degradation)
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
    // A parallel build, so the fallback is budgeted under the same guard.
    let table = BfhBuilder::new()
        .parallel(true)
        .guard(guard.clone())
        .freeze_trees(refs, taxa)?;
    Ok(Box::new(BfhrfComparator::from_owned(table, taxa)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfh, CompactBfh, SplitDelta};
    use phylo::{read_trees_from_str, TaxaPolicy, TreeCollection};
    use std::sync::Arc;

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

    /// Every store the BFHRF comparator scores against, each holding the
    /// references: the live hash, its freeze, a frozen table patched by a
    /// delta that adds and removes trees, and the compact hash.
    struct Stores {
        bfh: Bfh,
        frozen: FrozenBfh,
        patched: FrozenBfh,
        compact: CompactBfh,
    }

    impl Stores {
        fn new(refs: &TreeCollection, extra: &Tree) -> Stores {
            let bfh = Bfh::build(&refs.trees, &refs.taxa);
            let (head, tail) = refs.trees.split_at(refs.trees.len() / 2);
            let mut base_trees = head.to_vec();
            base_trees.push(extra.clone());
            let mut delta = SplitDelta::new(refs.taxa.len());
            let mut scratch = BipartitionScratch::new();
            for t in tail {
                delta.record(&scratch.batch_splits(t, &refs.taxa), 1);
            }
            delta.record(&scratch.batch_splits(extra, &refs.taxa), -1);
            let patched = Bfh::build(&base_trees, &refs.taxa)
                .freeze()
                .with_delta(Arc::new(delta));
            Stores {
                frozen: bfh.freeze(),
                patched,
                compact: CompactBfh::build(&refs.trees, &refs.taxa),
                bfh,
            }
        }

        /// One BFHRF comparator per store, sequential then parallel.
        fn comparators<'a>(&'a self, taxa: &'a TaxonSet) -> Vec<Box<dyn Comparator + 'a>> {
            let mut out: Vec<Box<dyn Comparator + 'a>> = Vec::new();
            for par in [false, true] {
                out.push(Box::new(
                    BfhrfComparator::new(&self.bfh, taxa).parallel(par),
                ));
                out.push(Box::new(
                    FrozenComparator::new(&self.frozen, taxa).parallel(par),
                ));
                out.push(Box::new(
                    FrozenComparator::new(&self.patched, taxa).parallel(par),
                ));
                out.push(Box::new(
                    BfhrfComparator::new(&self.compact, taxa).parallel(par),
                ));
            }
            out
        }
    }

    #[test]
    fn all_exact_comparators_agree_field_by_field() {
        let (refs, queries) = setup();
        let stores = Stores::new(&refs, &queries[1]);
        let mut engines = stores.comparators(&refs.taxa);
        engines.push(Box::new(SetComparator::new(&refs.trees, &refs.taxa)));
        engines.push(Box::new(
            SetComparator::new(&refs.trees, &refs.taxa).parallel(true),
        ));
        engines.push(Box::new(DayComparator::new(&refs.trees, &refs.taxa)));
        let baseline = engines[0].average_all(&queries).unwrap();
        for engine in &engines[1..] {
            assert_eq!(
                engine.average_all(&queries).unwrap(),
                baseline,
                "{} disagrees with bfhrf",
                engine.name()
            );
        }
        // per-query entry points agree with the batch
        for engine in &engines {
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(engine.average(q).unwrap(), baseline[i].rf);
            }
        }
        // and so does the caller-arena path the serve daemon takes
        let mut scratch = BipartitionScratch::new();
        for table in [&stores.frozen, &stores.patched] {
            let got = FrozenComparator::new(table, &refs.taxa)
                .average_all_scratch_guarded(&queries, &RunGuard::default(), &mut scratch)
                .unwrap();
            assert_eq!(got, baseline);
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
        let stores = Stores::new(&refs, &queries[1]);
        for cmp in stores.comparators(&refs.taxa) {
            let guard = RunGuard::default();
            guard.cancel.cancel();
            let err = cmp.average_all_guarded(&queries, &guard).unwrap_err();
            assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
        }
    }

    #[test]
    fn injected_query_worker_panic_is_isolated() {
        let (refs, queries) = setup();
        let stores = Stores::new(&refs, &queries[1]);
        let mut guard = RunGuard::default();
        guard.inject_panic_at(1);
        for cmp in stores.comparators(&refs.taxa) {
            let err = cmp.average_all_guarded(&queries, &guard).unwrap_err();
            assert!(matches!(err, CoreError::WorkerPanic(_)), "{err:?}");
        }
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
        // the fallback BFH build's ~1.1 KB footprint (its chunk buffer of
        // shapes and its lanes): HashRF is refused, BFHRF builds fine under
        // the same guard.
        let guard = RunGuard::with_budget(crate::guard::RunBudget::with_max_bytes(2000));
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
