//! The bipartition frequency hash (BFH) — the paper's central data
//! structure.
//!
//! Keys are **full canonical bitmasks**, so lookups are collision-free:
//! unlike HashRF's compressed IDs, two distinct bipartitions can never
//! merge, which is what makes the structure "non-transformative" and every
//! RF variant implementable on top of it (paper §VII.F). Values are the
//! number of reference trees containing the split; the running total
//! `sum()` is the paper's `sumBFHR`.
//!
//! # Where it is used
//!
//! No production path builds one: every build, load, query and write
//! path, consensus and the RF variants run on the frozen table
//! ([`FrozenBfh`]), which holds the same splits in flat lanes. The live
//! hash stays as one plain map: tests use it for incremental add/remove
//! and as the oracle frozen tables are checked against, and the benchmark
//! still compiles against it.

use crate::builder::freeze_slice;
use crate::error::CoreError;
use crate::frozen::FrozenBfh;
use crate::guard::RunGuard;
use phylo::{BipartitionScratch, TaxonSet, Tree};
use phylo_bitset::{
    bits_map_with_capacity, map_get_words, map_get_words_mut, Bits, BitsMap, WordsKey,
};

/// Bipartition frequency hash over a reference collection.
///
/// ```
/// use bfhrf::Bfh;
/// use phylo::TreeCollection;
/// use phylo_bitset::Bits;
///
/// let coll = TreeCollection::parse(
///     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
/// let bfh = Bfh::build(&coll.trees, &coll.taxa);
/// assert_eq!(bfh.n_trees(), 3);
/// assert_eq!(bfh.sum(), 3);                  // one non-trivial split per tree
/// assert_eq!(bfh.distinct(), 2);             // {A,B} and {A,C}
/// let ab = Bits::from_bitstring("0011").unwrap();
/// assert_eq!(bfh.frequency(&ab), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Bfh {
    map: BitsMap<u32>,
    sum: u64,
    n_trees: usize,
    n_taxa: usize,
}

impl Bfh {
    /// An empty hash over an `n_taxa`-wide namespace.
    pub fn empty(n_taxa: usize) -> Self {
        Bfh {
            map: bits_map_with_capacity(0),
            sum: 0,
            n_trees: 0,
            n_taxa,
        }
    }

    /// [`Bfh::empty`]. The hash is one map: `shards` is checked and
    /// otherwise unused. The signature stays because the benchmark calls
    /// it; it goes with the live hash (ROADMAP item 2).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn empty_sharded(n_taxa: usize, shards: usize) -> Self {
        assert!(shards > 0, "a Bfh needs at least one shard");
        Bfh::empty(n_taxa)
    }

    /// Count one occurrence of a borrowed canonical mask, materializing a
    /// key only on first sighting.
    #[inline]
    fn bump_words(&mut self, words: &[u64]) {
        match map_get_words_mut(&mut self.map, words) {
            Some(c) => *c += 1,
            None => {
                self.map.insert(Bits::from_words(self.n_taxa, words), 1);
            }
        }
        self.sum += 1;
    }

    /// Build sequentially from a reference collection (first loop of the
    /// paper's Algorithm 2). Extraction runs through a reused
    /// [`BipartitionScratch`], so per-tree work allocates only on novel
    /// splits.
    pub fn build(trees: &[Tree], taxa: &TaxonSet) -> Self {
        let mut bfh = Bfh::empty(taxa.len());
        let mut scratch = BipartitionScratch::new();
        for tree in trees {
            bfh.add_tree_with(tree, taxa, &mut scratch);
        }
        bfh
    }

    /// The frozen table a parallel [`crate::BfhBuilder`] folds from
    /// `trees`, copied into a hash. Frequencies are bitwise-identical to
    /// [`Bfh::build`]. `shards` is checked and otherwise unused: the
    /// signature stays because the benchmark calls it, and goes with the
    /// live hash (ROADMAP item 2).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn build_sharded(trees: &[Tree], taxa: &TaxonSet, shards: usize) -> Self {
        assert!(shards > 0, "a Bfh needs at least one shard");
        match freeze_slice(true, &RunGuard::default(), None, trees, taxa) {
            Ok(table) => Bfh::from_table(&table),
            // A default guard never cancels, never refuses an allocation,
            // and never injects a panic — this arm is unreachable, but the
            // compat contract of this entry point is infallible.
            Err(e) => panic!("build_sharded failed under a permissive guard: {e}"),
        }
    }

    /// The splits `table` answers (its lanes with any delta applied) as a
    /// hash. The table holds each split once, so its entries go straight
    /// into a map sized up front.
    pub fn from_table(table: &FrozenBfh) -> Self {
        let n_taxa = table.n_taxa();
        let mut map = bits_map_with_capacity(table.distinct());
        for (words, freq) in table.iter() {
            map.insert(Bits::from_words(n_taxa, words), freq);
        }
        Bfh {
            map,
            sum: table.sum(),
            n_trees: table.n_trees(),
            n_taxa,
        }
    }
    /// Add one reference tree's bipartitions (incremental update).
    pub fn add_tree(&mut self, tree: &Tree, taxa: &TaxonSet) {
        let mut scratch = BipartitionScratch::new();
        self.add_tree_with(tree, taxa, &mut scratch);
    }

    /// Add one reference tree's bipartitions through a caller-owned
    /// extraction arena — the allocation-free path the batch builders use.
    pub fn add_tree_with(
        &mut self,
        tree: &Tree,
        taxa: &TaxonSet,
        scratch: &mut BipartitionScratch,
    ) {
        debug_assert_eq!(taxa.len(), self.n_taxa, "namespace changed under the hash");
        scratch.for_each_split(tree, taxa, |w| self.bump_words(w));
        self.n_trees += 1;
    }

    /// Remove a previously added reference tree (incremental downdate).
    ///
    /// Counts reaching zero are evicted so memory tracks the live
    /// collection. Removing a tree that was never added returns
    /// [`CoreError::Structure`] and leaves the hash **unchanged** — the
    /// bipartitions are verified before any counter is touched, so dynamic
    /// maintenance can treat the error as fully recoverable.
    pub fn remove_tree(&mut self, tree: &Tree, taxa: &TaxonSet) -> Result<(), CoreError> {
        let mut scratch = BipartitionScratch::new();
        let batch = scratch.batch_splits(tree, taxa);
        // Verify-then-mutate: a failure after partial decrements would
        // corrupt frequencies silently.
        crate::rf::check_removal(self, self.n_taxa, &batch, 0, |_| 0)?;
        for i in 0..batch.len() {
            let w = batch.mask(i);
            match map_get_words_mut(&mut self.map, w) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.map.remove(WordsKey::new(w));
                }
            }
            self.sum -= 1;
        }
        self.n_trees -= 1;
        // Long add/remove churn evicts entries but hashbrown never returns
        // bucket memory on its own; give it back once occupancy falls below
        // a quarter so the footprint tracks the live collection.
        if self.map.capacity() > 64 && self.map.len() < self.map.capacity() / 4 {
            self.map.shrink_to_fit();
        }
        Ok(())
    }

    /// Frequency of a canonical bipartition (0 if absent) — the paper's
    /// `BFHR[b]`.
    #[inline]
    pub fn frequency(&self, bits: &Bits) -> u32 {
        self.map.get(bits).copied().unwrap_or(0)
    }

    /// Frequency of a canonical mask given as raw words — the borrowed-key
    /// probe used by scratch-driven queries; no `Bits` is materialized.
    #[inline]
    pub fn frequency_words(&self, words: &[u64]) -> u32 {
        map_get_words(&self.map, words).copied().unwrap_or(0)
    }

    /// Total bipartition occurrences — the paper's `sumBFHR`.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of reference trees folded in — the paper's `r`.
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Width of the taxon namespace — the paper's `n`.
    #[inline]
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of **distinct** bipartitions stored. The paper's memory
    /// argument (§VII.C): this saturates as `r` grows because repeat
    /// splits only bump counters.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Iterate `(bitmask, frequency)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bits, u32)> {
        self.map.iter().map(|(b, &c)| (b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::TreeCollection;

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
    }

    /// Frequency-level equality.
    fn assert_same_counts(a: &Bfh, b: &Bfh) {
        assert_eq!(a.n_trees(), b.n_trees());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.distinct(), b.distinct());
        for (bits, count) in a.iter() {
            assert_eq!(b.frequency(bits), count, "mismatch at {bits}");
        }
    }

    #[test]
    fn build_counts_frequencies() {
        let c = coll("((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));");
        let bfh = Bfh::build(&c.trees, &c.taxa);
        assert_eq!(bfh.n_trees(), 3);
        assert_eq!(bfh.sum(), 3, "each 4-leaf tree has one non-trivial split");
        assert_eq!(bfh.distinct(), 2);
        let ab = Bits::from_bitstring("0011").unwrap();
        let ac = Bits::from_bitstring("0101").unwrap();
        assert_eq!(bfh.frequency(&ab), 2);
        assert_eq!(bfh.frequency(&ac), 1);
        assert_eq!(bfh.frequency(&Bits::from_bitstring("1001").unwrap()), 0);
        assert_eq!(bfh.frequency_words(ab.words()), 2);
        assert_eq!(bfh.frequency_words(ac.words()), 1);
    }

    #[test]
    fn from_table_holds_the_tables_splits() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(10));
        let built = Bfh::build(&c.trees, &c.taxa);
        assert_same_counts(&built, &Bfh::from_table(&built.freeze()));
        let empty = Bfh::from_table(&Bfh::empty(6).freeze());
        assert_eq!((empty.n_trees(), empty.sum(), empty.distinct()), (0, 0, 0));
    }

    #[test]
    fn sharded_build_matches_sequential_for_any_shard_count() {
        let c = coll(
            &"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n".repeat(25),
        );
        let seq = Bfh::build(&c.trees, &c.taxa);
        for k in [1usize, 2, 3, 8, 64] {
            let sharded = Bfh::build_sharded(&c.trees, &c.taxa, k);
            assert_same_counts(&seq, &sharded);
            // and the reverse direction: nothing extra in the hash
            for (bits, count) in sharded.iter() {
                assert_eq!(seq.frequency(bits), count);
            }
        }
    }

    #[test]
    fn sharded_probes_route_consistently() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(10));
        let sharded = Bfh::build_sharded(&c.trees, &c.taxa, 4);
        for (bits, count) in Bfh::build(&c.trees, &c.taxa).iter() {
            assert_eq!(sharded.frequency(bits), count);
            assert_eq!(sharded.frequency_words(bits.words()), count);
        }
    }

    #[test]
    fn sharded_empty_and_zero_taxa() {
        let empty = Bfh::build_sharded(&[], &phylo::TaxonSet::new(), 4);
        assert_eq!(empty.n_trees(), 0);
        assert_eq!(empty.sum(), 0);
        assert_eq!(empty.distinct(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let c = coll("((A,B),(C,D));");
        Bfh::build_sharded(&c.trees, &c.taxa, 0);
    }

    #[test]
    fn churn_shrinks_capacity_back_down() {
        // Add a large batch of near-disjoint-split trees, then remove them
        // all: the hash must end empty AND give bucket memory back, not
        // hold the high-water capacity forever.
        let c = phylo_sim::perturb::random_collection(24, 150, 0x5eed);
        let mut bfh = Bfh::empty(c.taxa.len());
        for t in &c.trees {
            bfh.add_tree(t, &c.taxa);
        }
        let peak = bfh.map.capacity();
        for t in &c.trees {
            bfh.remove_tree(t, &c.taxa).unwrap();
        }
        assert_eq!(bfh.n_trees(), 0);
        assert_eq!(bfh.sum(), 0);
        assert_eq!(bfh.distinct(), 0);
        assert!(
            bfh.map.capacity() <= 64,
            "capacity {} did not shrink from peak {peak}",
            bfh.map.capacity()
        );
        assert!(peak > 64, "test needs enough distinct splits to matter");
    }

    #[test]
    fn incremental_add_remove_is_inverse() {
        let c = coll("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        let mut bfh = Bfh::build(&c.trees[..2], &c.taxa);
        let snapshot: Vec<(Bits, u32)> = bfh.iter().map(|(b, c)| (b.clone(), c)).collect();
        bfh.add_tree(&c.trees[2], &c.taxa);
        assert_eq!(bfh.n_trees(), 3);
        bfh.remove_tree(&c.trees[2], &c.taxa).unwrap();
        assert_eq!(bfh.n_trees(), 2);
        assert_eq!(bfh.distinct(), snapshot.len());
        for (bits, count) in snapshot {
            assert_eq!(bfh.frequency(&bits), count);
        }
    }

    #[test]
    fn incremental_updates_respect_sharding() {
        // `empty_sharded` is `empty` whatever the shard count.
        let c = coll("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        let mut sharded = Bfh::empty_sharded(c.taxa.len(), 4);
        for t in &c.trees {
            sharded.add_tree(t, &c.taxa);
        }
        assert_same_counts(&Bfh::build(&c.trees, &c.taxa), &sharded);
        sharded.remove_tree(&c.trees[1], &c.taxa).unwrap();
        let mut rest = c.trees.clone();
        rest.remove(1);
        assert_same_counts(&Bfh::build(&rest, &c.taxa), &sharded);
    }

    #[test]
    fn removing_unknown_tree_errors_and_preserves_hash() {
        let c = coll("((A,B),(C,D));\n((A,C),(B,D));");
        let mut bfh = Bfh::build(&c.trees[..1], &c.taxa);
        let before: Vec<(Bits, u32)> = bfh.iter().map(|(b, c)| (b.clone(), c)).collect();
        let err = bfh.remove_tree(&c.trees[1], &c.taxa).unwrap_err();
        assert!(matches!(err, CoreError::Structure(_)), "{err:?}");
        assert!(err.to_string().contains("never added"));
        // verify-then-mutate: nothing was decremented
        assert_eq!(bfh.n_trees(), 1);
        for (bits, count) in before {
            assert_eq!(bfh.frequency(&bits), count);
        }
    }

    /// `Bfh::build_sharded` copies the table `freeze_slice` folds under a
    /// default guard; the guarded builds below run that pipeline under
    /// other guards.
    #[test]
    fn guarded_build_matches_unguarded() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(20));
        let plain = Bfh::build(&c.trees, &c.taxa);
        let guarded = freeze_slice(true, &RunGuard::default(), None, &c.trees, &c.taxa).unwrap();
        assert_same_counts(&plain, &Bfh::from_table(&guarded));
    }

    #[test]
    fn guarded_build_refuses_over_budget_spill() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n".repeat(50));
        let guard = RunGuard::with_budget(crate::guard::RunBudget::with_max_bytes(16));
        let err = freeze_slice(true, &guard, None, &c.trees, &c.taxa).unwrap_err();
        assert!(matches!(err, CoreError::ResourceLimit(_)), "{err:?}");
    }

    #[test]
    fn guarded_build_stops_on_cancel() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n".repeat(10));
        let guard = RunGuard::default();
        guard.cancel.cancel();
        let err = freeze_slice(true, &guard, None, &c.trees, &c.taxa).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
    }

    #[test]
    fn injected_worker_panic_becomes_error_not_abort() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(25));
        let mut guard = RunGuard::default();
        guard.inject_panic_at(17);
        let err = freeze_slice(true, &guard, None, &c.trees, &c.taxa).unwrap_err();
        let CoreError::WorkerPanic(msg) = err else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert!(msg.contains("injected panic"));
        // The process survived; an un-injected build still works fine.
        assert_eq!(Bfh::build_sharded(&c.trees, &c.taxa, 4).n_trees(), 50);
    }

    #[test]
    fn empty_hash_behaviour() {
        let bfh = Bfh::empty(10);
        assert_eq!(bfh.sum(), 0);
        assert_eq!(bfh.n_trees(), 0);
        assert_eq!(bfh.distinct(), 0);
        assert_eq!(bfh.frequency(&Bits::zeros(10)), 0);
    }

    #[test]
    fn distinct_saturates_with_duplicate_trees() {
        // paper §VII.C: repeats don't grow the hash
        let one = "((A,B),((C,D),(E,F)));\n";
        let c5 = coll(&one.repeat(5));
        let c50 = coll(&one.repeat(50));
        let b5 = Bfh::build(&c5.trees, &c5.taxa);
        let b50 = Bfh::build(&c50.trees, &c50.taxa);
        assert_eq!(b5.distinct(), b50.distinct());
        assert_eq!(b50.sum(), 10 * b5.sum());
    }
}
