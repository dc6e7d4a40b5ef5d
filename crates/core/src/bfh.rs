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
//! # Sharding
//!
//! Internally the hash is `k ≥ 1` independent maps ("shards"); a split
//! lives in shard [`shard_of`]`(`[`split_hash128`]`(mask), k)`. With `k =
//! 1` (the default for [`Bfh::build`]) there is a single map and routing
//! is skipped entirely. [`Bfh::build_sharded`] runs the
//! [`crate::builder`] pipeline: each tree's splits are extracted into a
//! chunk buffer, each full buffer is folded in tree order into one frozen
//! table on a rayon worker while the next fills, and that table's entries
//! are routed into the `k` maps.
//! Because the router is a pure function of the mask words, the shard
//! decomposition is deterministic and the resulting frequencies are
//! bitwise-identical to a sequential build.

use crate::builder::freeze_slice;
use crate::error::CoreError;
use crate::frozen::FrozenBfh;
use crate::guard::RunGuard;
use phylo::{Bipartition, BipartitionScratch, TaxonSet, Tree};
use phylo_bitset::{
    bits_map_with_capacity, map_get_words, map_get_words_mut, shard_of, split_hash128, Bits,
    BitsMap, WordsKey,
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
    /// Shard maps; a split's home is `shard_of(split_hash128(words), k)`.
    /// Always at least one entry.
    shards: Vec<BitsMap<u32>>,
    sum: u64,
    n_trees: usize,
    n_taxa: usize,
}

impl Bfh {
    /// An empty single-shard hash over an `n_taxa`-wide namespace.
    pub fn empty(n_taxa: usize) -> Self {
        Bfh::empty_sharded(n_taxa, 1)
    }

    /// An empty hash partitioned into `shards` maps.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn empty_sharded(n_taxa: usize, shards: usize) -> Self {
        assert!(shards > 0, "a Bfh needs at least one shard");
        Bfh {
            shards: (0..shards).map(|_| bits_map_with_capacity(0)).collect(),
            sum: 0,
            n_trees: 0,
            n_taxa,
        }
    }

    /// Shard housing the split with these mask words.
    #[inline]
    fn shard_index(&self, words: &[u64]) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            shard_of(split_hash128(words), self.shards.len())
        }
    }

    /// Count one occurrence of an owned canonical mask.
    #[inline]
    fn bump(&mut self, bits: Bits) {
        let si = self.shard_index(bits.words());
        *self.shards[si].entry(bits).or_insert(0) += 1;
        self.sum += 1;
    }

    /// Count one occurrence of a borrowed canonical mask, materializing a
    /// key only on first sighting.
    #[inline]
    fn bump_words(&mut self, words: &[u64]) {
        let si = self.shard_index(words);
        match map_get_words_mut(&mut self.shards[si], words) {
            Some(c) => *c += 1,
            None => {
                self.shards[si].insert(Bits::from_words(self.n_taxa, words), 1);
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

    /// Build a `shards`-way partitioned hash in two phases:
    ///
    /// 1. each tree's splits are extracted into a chunk buffer, and each
    ///    full buffer is folded, in tree order, into the lanes of one
    ///    frozen table while the next buffer fills;
    /// 2. the table's entries are routed into the `shards` maps by
    ///    [`split_hash128`].
    ///
    /// Frequencies are bitwise-identical to [`Bfh::build`] for any shard or
    /// thread count: routing is a pure function of the mask and counting is
    /// additive.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn build_sharded(trees: &[Tree], taxa: &TaxonSet, shards: usize) -> Self {
        assert!(shards > 0, "a Bfh needs at least one shard");
        match Bfh::try_build_sharded(trees, taxa, shards, &RunGuard::default()) {
            Ok(bfh) => bfh,
            // A default guard never cancels, never refuses an allocation,
            // and never injects a panic — this arm is unreachable, but the
            // compat contract of this entry point is infallible.
            Err(e) => panic!("build_sharded failed under a permissive guard: {e}"),
        }
    }

    /// [`Bfh::build_sharded`] under a [`RunGuard`]: cancellation and
    /// deadline are polled at tree granularity, the chunk buffers and the
    /// lanes are checked against the byte budget *before* each chunk is
    /// read (and with the grown lanes before each time the table doubles),
    /// and every extraction and fold is panic-isolated — a poisoned tree yields
    /// [`CoreError::WorkerPanic`] instead of aborting the process. This is
    /// [`crate::BfhBuilder`]'s pipeline over a slice.
    ///
    /// With `RunGuard::default()` this is exactly `build_sharded`.
    pub fn try_build_sharded(
        trees: &[Tree],
        taxa: &TaxonSet,
        shards: usize,
        guard: &RunGuard,
    ) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::Structure(
                "a Bfh needs at least one shard".into(),
            ));
        }
        let table = freeze_slice(true, guard, trees, taxa)?;
        Bfh::from_table(&table, shards)
    }

    /// The splits `table` answers (its lanes with any delta applied) as a
    /// `shards`-way hash. The table holds each split once, so its entries
    /// go straight into maps sized up front: multi-shard maps get four
    /// standard deviations of headroom over an even split, so uneven
    /// routing regrows none of them.
    pub fn from_table(table: &FrozenBfh, shards: usize) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::Structure(
                "a Bfh needs at least one shard".into(),
            ));
        }
        let (n_taxa, distinct) = (table.n_taxa(), table.distinct());
        let per_shard = if shards == 1 {
            distinct
        } else {
            let mean = distinct / shards;
            mean + 4 * mean.isqrt()
        };
        let mut bfh = Bfh {
            shards: (0..shards)
                .map(|_| bits_map_with_capacity(per_shard))
                .collect(),
            sum: table.sum(),
            n_trees: table.n_trees(),
            n_taxa,
        };
        for (words, freq) in table.iter() {
            let si = bfh.shard_index(words);
            bfh.shards[si].insert(Bits::from_words(n_taxa, words), freq);
        }
        Ok(bfh)
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

    /// Add one tree's pre-extracted splits. Useful when extraction runs on
    /// another thread (pipelined builds): extraction parallelizes, the
    /// fold stays sequential and deterministic.
    pub fn add_splits<I: IntoIterator<Item = Bipartition>>(&mut self, splits: I) {
        for bp in splits {
            self.bump(bp.into_bits());
        }
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
            let si = self.shard_index(w);
            let shard = &mut self.shards[si];
            match map_get_words_mut(shard, w) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    shard.remove(WordsKey::new(w));
                }
            }
            self.sum -= 1;
        }
        self.n_trees -= 1;
        // Long add/remove churn evicts entries but hashbrown never returns
        // bucket memory on its own; give it back once occupancy falls below
        // a quarter so the footprint tracks the live collection.
        for shard in &mut self.shards {
            if shard.capacity() > 64 && shard.len() < shard.capacity() / 4 {
                shard.shrink_to_fit();
            }
        }
        Ok(())
    }

    /// Merge another hash built over the same namespace into this one.
    /// Entries are re-routed into this hash's shard layout, so the operands
    /// may use different shard counts.
    pub fn merged(self, other: Bfh) -> Bfh {
        assert_eq!(
            self.n_taxa, other.n_taxa,
            "merging hashes over different taxa"
        );
        // Fold the smaller hash into the larger one.
        let (mut big, small) = if self.distinct() >= other.distinct() {
            (self, other)
        } else {
            (other, self)
        };
        let Bfh {
            shards,
            sum,
            n_trees,
            ..
        } = small;
        for shard in shards {
            for (bits, c) in shard {
                let si = big.shard_index(bits.words());
                *big.shards[si].entry(bits).or_insert(0) += c;
            }
        }
        big.sum += sum;
        big.n_trees += n_trees;
        big
    }

    /// Frequency of a canonical bipartition (0 if absent) — the paper's
    /// `BFHR[b]`.
    #[inline]
    pub fn frequency(&self, bits: &Bits) -> u32 {
        self.shards[self.shard_index(bits.words())]
            .get(bits)
            .copied()
            .unwrap_or(0)
    }

    /// Frequency of a canonical mask given as raw words — the borrowed-key
    /// probe used by scratch-driven queries; no `Bits` is materialized.
    #[inline]
    pub fn frequency_words(&self, words: &[u64]) -> u32 {
        map_get_words(&self.shards[self.shard_index(words)], words)
            .copied()
            .unwrap_or(0)
    }

    /// Frequency of a [`Bipartition`].
    #[inline]
    pub fn frequency_of(&self, bp: &Bipartition) -> u32 {
        self.frequency(bp.bits())
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

    /// Number of shard maps (`k`). 1 for hashes from [`Bfh::build`].
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of **distinct** bipartitions stored. The paper's memory
    /// argument (§VII.C): this saturates as `r` grows because repeat
    /// splits only bump counters.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.shards.iter().map(|m| m.len()).sum()
    }

    /// Distinct-entry count of each shard map, in shard order. The spread
    /// across shards is the routing-balance signal the build pipeline
    /// reports as `build_shard_skew_permille`.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|m| m.len()).collect()
    }

    /// Iterate `(bitmask, frequency)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bits, u32)> {
        self.shards
            .iter()
            .flat_map(|m| m.iter().map(|(b, &c)| (b, c)))
    }

    /// Preprocessing hook (paper §III.A: the hash "can still be
    /// pre-processed according to generalized or variant RF algorithms"):
    /// drop entries failing the predicate, updating `sum` accordingly.
    pub fn retain<F: FnMut(&Bits, u32) -> bool>(&mut self, mut keep: F) {
        let mut removed = 0u64;
        for shard in &mut self.shards {
            shard.retain(|bits, count| {
                let k = keep(bits, *count);
                if !k {
                    removed += u64::from(*count);
                }
                k
            });
        }
        self.sum -= removed;
    }

    /// Rough heap footprint in bytes: map buckets plus key payloads. Used
    /// by the bench harness memory reports.
    pub fn approx_bytes(&self) -> usize {
        let key_words = phylo_bitset::words_for(self.n_taxa);
        // Bits: boxed words + (ptr, len-of-box, bitlen) inline; entry adds
        // the u32 count and hashbrown's control byte + padding.
        let per_entry = key_words * 8 + std::mem::size_of::<Bits>() + 8;
        self.shards.iter().map(|m| m.capacity()).sum::<usize>() * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::TreeCollection;

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
    }

    /// Frequency-level equality, independent of shard layout.
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
        assert_eq!(bfh.n_shards(), 1);
        let ab = Bits::from_bitstring("0011").unwrap();
        let ac = Bits::from_bitstring("0101").unwrap();
        assert_eq!(bfh.frequency(&ab), 2);
        assert_eq!(bfh.frequency(&ac), 1);
        assert_eq!(bfh.frequency(&Bits::from_bitstring("1001").unwrap()), 0);
        assert_eq!(bfh.frequency_words(ab.words()), 2);
        assert_eq!(bfh.frequency_words(ac.words()), 1);
    }

    #[test]
    fn from_table_routes_into_any_shard_layout() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(10));
        let built = Bfh::build_sharded(&c.trees, &c.taxa, 3);
        let table = built.freeze();
        for shards in [1usize, 2, 8] {
            let back = Bfh::from_table(&table, shards).unwrap();
            assert_eq!(back.n_shards(), shards);
            assert_same_counts(&built, &back);
        }
        assert!(matches!(
            Bfh::from_table(&table, 0),
            Err(CoreError::Structure(_))
        ));
    }

    #[test]
    fn sharded_build_matches_sequential_for_any_shard_count() {
        let c = coll(
            &"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n".repeat(25),
        );
        let seq = Bfh::build(&c.trees, &c.taxa);
        // k = 1, small, larger-than-distinct: all identical frequencies.
        for k in [1usize, 2, 3, 8, 64] {
            let sharded = Bfh::build_sharded(&c.trees, &c.taxa, k);
            assert_eq!(sharded.n_shards(), k);
            assert_same_counts(&seq, &sharded);
            // and the reverse direction: nothing extra in the shards
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
        assert_eq!(empty.n_shards(), 4);
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
        let peak = bfh.shards[0].capacity();
        for t in &c.trees {
            bfh.remove_tree(t, &c.taxa).unwrap();
        }
        assert_eq!(bfh.n_trees(), 0);
        assert_eq!(bfh.sum(), 0);
        assert_eq!(bfh.distinct(), 0);
        assert!(
            bfh.shards[0].capacity() <= 64,
            "capacity {} did not shrink from peak {peak}",
            bfh.shards[0].capacity()
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

    #[test]
    fn guarded_build_matches_unguarded() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(20));
        let plain = Bfh::build(&c.trees, &c.taxa);
        let guarded = Bfh::try_build_sharded(&c.trees, &c.taxa, 4, &RunGuard::default()).unwrap();
        assert_same_counts(&plain, &guarded);
    }

    #[test]
    fn guarded_build_refuses_over_budget_spill() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n".repeat(50));
        let guard = RunGuard::with_budget(crate::guard::RunBudget::with_max_bytes(16));
        let err = Bfh::try_build_sharded(&c.trees, &c.taxa, 2, &guard).unwrap_err();
        assert!(matches!(err, CoreError::ResourceLimit(_)), "{err:?}");
    }

    #[test]
    fn guarded_build_stops_on_cancel() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n".repeat(10));
        let guard = RunGuard::default();
        guard.cancel.cancel();
        let err = Bfh::try_build_sharded(&c.trees, &c.taxa, 1, &guard).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
    }

    #[test]
    fn injected_worker_panic_becomes_error_not_abort() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(25));
        let mut guard = RunGuard::default();
        guard.inject_panic_at(17);
        let err = Bfh::try_build_sharded(&c.trees, &c.taxa, 4, &guard).unwrap_err();
        let CoreError::WorkerPanic(msg) = err else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert!(msg.contains("injected panic"));
        // The process survived; an un-injected guard still works fine.
        let ok = Bfh::try_build_sharded(&c.trees, &c.taxa, 4, &RunGuard::default()).unwrap();
        assert_eq!(ok.n_trees(), 50);
    }

    #[test]
    fn retain_filters_and_fixes_sum() {
        let c = coll("((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));");
        let mut bfh = Bfh::build(&c.trees, &c.taxa);
        let before = bfh.sum();
        // keep only splits present in every tree
        bfh.retain(|_, count| count as usize == 2);
        assert!(bfh.sum() < before);
        assert!(bfh.iter().all(|(_, c)| c == 2));
        let expected_sum: u64 = bfh.iter().map(|(_, c)| u64::from(c)).sum();
        assert_eq!(bfh.sum(), expected_sum);
    }

    #[test]
    fn merged_is_commutative_across_shard_layouts() {
        let c = coll("((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));\n((A,B),(C,D));");
        let x = Bfh::build_sharded(&c.trees[..2], &c.taxa, 3);
        let y = Bfh::build(&c.trees[2..], &c.taxa);
        let xy = x.clone().merged(y.clone());
        let yx = y.merged(x);
        assert_eq!(xy.sum(), yx.sum());
        assert_eq!(xy.n_trees(), 4);
        for (bits, count) in xy.iter() {
            assert_eq!(yx.frequency(bits), count);
        }
        assert_same_counts(&xy, &Bfh::build(&c.trees, &c.taxa));
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
