//! Cross-implementation property tests.
//!
//! Four unrelated RF implementations live in this crate: the naive
//! set-difference double loop (Algorithm 1), the frequency-hash arithmetic
//! (Algorithm 2), the HashRF two-level hashing, and Day's interval
//! algorithm. On arbitrary coalescent and uniform-random inputs they must
//! agree **exactly** — integer for integer — which is a far stronger check
//! than any fixed example.

use bfhrf::matrix::rf_matrix_exact;
use bfhrf::{
    bfhrf_all, day_rf, sequential_rf, Bfh, BfhBuilder, BfhrfComparator, Comparator, DayComparator,
    FrozenComparator, HashRf, HashRfConfig, SetComparator, SplitDelta, SplitFrequency,
};
use bfhrf::{FrozenBfh, CHUNK};
use phylo::{BipartitionScratch, IngestPolicy, NewickReader, TaxaPolicy, TaxonSet, TreeCollection};
use phylo_sim::datasets::DatasetSpec;
use phylo_sim::perturb::{random_binary_tree, random_collection};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A strict reader over `text`.
fn strict(text: &str, policy: TaxaPolicy) -> NewickReader<&[u8]> {
    NewickReader::new(text.as_bytes(), policy, IngestPolicy::Strict)
}

/// Random collections: either coalescent (correlated splits) or uniform
/// (near-disjoint splits) — the two regimes stress the hash differently.
fn collection(n: usize, r: usize, seed: u64, coalescent: bool) -> TreeCollection {
    if coalescent {
        let mut spec = DatasetSpec::new("prop", n, r, seed);
        spec.pop_scale = 0.5;
        phylo_sim::generate(&spec)
    } else {
        random_collection(n, r, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn four_implementations_agree(
        n in 5usize..24,
        r in 2usize..12,
        q in 1usize..6,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        let refs = collection(n, r, seed, coalescent);
        let queries = collection(n, q, seed.wrapping_add(1), coalescent);
        // same namespace by construction (t0..t{n-1} interned in order)
        prop_assert_eq!(refs.taxa.len(), queries.taxa.len());

        // 1. Algorithm 1 (DS)
        let ds = sequential_rf(&queries.trees, &refs.trees, &refs.taxa).unwrap();
        // 2. Algorithm 2 (BFHRF)
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let fast = bfhrf_all(&queries.trees, &refs.taxa, &bfh).unwrap();
        prop_assert_eq!(&ds, &fast, "DS vs BFHRF");

        // 3. Day's algorithm, pairwise, summed
        for (qi, qtree) in queries.trees.iter().enumerate() {
            let total: u64 = refs
                .trees
                .iter()
                .map(|rt| day_rf(qtree, rt, &refs.taxa) as u64)
                .sum();
            prop_assert_eq!(total, fast[qi].rf.total(), "Day vs BFHRF, query {}", qi);
        }

        // 4. HashRF (wide IDs) on Q == R gives the same self-averages
        let h = HashRf::compute(&refs.trees, &refs.taxa, &HashRfConfig::default()).unwrap();
        let self_scores = bfhrf_all(&refs.trees, &refs.taxa, &bfh).unwrap();
        for s in &self_scores {
            prop_assert!(
                (h.averages()[s.index] - s.rf.average()).abs() < 1e-9,
                "HashRF vs BFHRF self-average, tree {}",
                s.index
            );
        }
    }

    #[test]
    fn parallel_variants_match_sequential(
        n in 5usize..20,
        r in 2usize..10,
        seed in any::<u64>(),
    ) {
        let refs = collection(n, r, seed, true);
        let queries = collection(n, 3, seed ^ 7, true);
        let bfh_seq = Bfh::build(&refs.trees, &refs.taxa);
        let bfh_par = BfhBuilder::new()
            .parallel(true)
            .freeze_trees(&refs.trees, &refs.taxa)
            .unwrap();
        prop_assert_eq!(bfh_seq.sum(), bfh_par.sum());
        prop_assert_eq!(bfh_seq.distinct(), bfh_par.distinct());

        let a = bfhrf_all(&queries.trees, &refs.taxa, &bfh_seq).unwrap();
        let b = BfhrfComparator::new(&bfh_par, &refs.taxa)
            .parallel(true)
            .average_all(&queries.trees)
            .unwrap();
        prop_assert_eq!(a, b);

        let ds = sequential_rf(&queries.trees, &refs.trees, &refs.taxa).unwrap();
        let dsmp = SetComparator::new(&refs.trees, &refs.taxa)
            .parallel(true)
            .average_all(&queries.trees)
            .unwrap();
        prop_assert_eq!(ds, dsmp);
    }

    #[test]
    fn sharded_and_builder_builds_are_count_identical(
        n in 5usize..24,
        r in 2usize..14,
        shards in 1usize..9,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // Yule/coalescent or uniform collections: every build strategy must
        // produce the same multiset of (mask, frequency) pairs.
        let refs = collection(n, r, seed, coalescent);
        let seq = Bfh::build(&refs.trees, &refs.taxa);
        let sharded = Bfh::build_sharded(&refs.trees, &refs.taxa, shards);
        let built = BfhBuilder::new()
            .parallel(seed.is_multiple_of(2))
            .freeze_trees(&refs.trees, &refs.taxa)
            .unwrap();
        let counts = |t: &FrozenBfh| (t.sum(), t.n_trees(), t.distinct());
        for other in [&sharded.freeze(), &built] {
            prop_assert_eq!(counts(other), (seq.sum(), seq.n_trees(), seq.distinct()));
            for (bits, count) in seq.iter() {
                prop_assert_eq!(other.frequency(bits), count);
            }
            for (words, count) in other.iter() {
                prop_assert_eq!(seq.frequency_words(words), count);
            }
        }
    }

    #[test]
    fn comparators_agree_with_day_oracle(
        n in 5usize..20,
        r in 2usize..10,
        q in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Through the unified Comparator API: BFHRF and DS against the
        // independent Day oracle, field for field (left/right, not just
        // the total).
        let refs = collection(n, r, seed, true);
        let queries = collection(n, q, seed ^ 13, false);
        let bfh = BfhBuilder::new().parallel(true).freeze_trees(&refs.trees, &refs.taxa).unwrap();
        let bfhrf = BfhrfComparator::new(&bfh, &refs.taxa);
        let ds = SetComparator::new(&refs.trees, &refs.taxa);
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        for qt in &queries.trees {
            let oracle = day.average(qt).unwrap();
            prop_assert_eq!(bfhrf.average(qt).unwrap(), oracle);
            prop_assert_eq!(ds.average(qt).unwrap(), oracle);
        }
        let batch = bfhrf.average_all(&queries.trees).unwrap();
        let oracle_batch = day.average_all(&queries.trees).unwrap();
        prop_assert_eq!(batch, oracle_batch);
    }

    #[test]
    fn scratch_extraction_matches_reference_extractor(
        n in 4usize..40,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // The zero-allocation arena must visit exactly the canonical masks
        // Tree::bipartitions returns, in the same order.
        let coll = collection(n, 2, seed, coalescent);
        let mut scratch = BipartitionScratch::new();
        for tree in &coll.trees {
            let reference: Vec<_> = tree
                .bipartitions(&coll.taxa)
                .into_iter()
                .map(|b| b.into_bits())
                .collect();
            let got = scratch.splits(tree, &coll.taxa);
            prop_assert_eq!(&got, &reference);
        }
    }

    #[test]
    fn hashrf_wide_ids_equal_exact_matrix(
        n in 5usize..18,
        r in 2usize..10,
        seed in any::<u64>(),
    ) {
        let coll = collection(n, r, seed, false);
        let exact = rf_matrix_exact(&coll.trees, &coll.taxa, usize::MAX).unwrap();
        let h = HashRf::compute(&coll.trees, &coll.taxa, &HashRfConfig::default()).unwrap();
        prop_assert_eq!(h.error_rate_against(&exact), 0.0);
    }

    #[test]
    fn churned_hash_equals_fresh_build(
        n in 5usize..16,
        r in 4usize..12,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // Long add/remove churn: add everything, remove a prefix, re-add it,
        // remove a suffix. The survivor hash must be indistinguishable from
        // a fresh build over the surviving trees — same distinct count in
        // BOTH directions (no leaked zero-frequency entries), same sum,
        // same n_trees.
        let coll = collection(n, r, seed, coalescent);
        let cut = r / 2;
        let mut churned = Bfh::empty(coll.taxa.len());
        for t in &coll.trees {
            churned.add_tree(t, &coll.taxa);
        }
        for t in &coll.trees[..cut] {
            churned.remove_tree(t, &coll.taxa).unwrap();
        }
        for t in &coll.trees[..cut] {
            churned.add_tree(t, &coll.taxa);
        }
        for t in &coll.trees[cut..] {
            churned.remove_tree(t, &coll.taxa).unwrap();
        }
        let fresh = Bfh::build(&coll.trees[..cut], &coll.taxa);
        prop_assert_eq!(churned.n_trees(), fresh.n_trees());
        prop_assert_eq!(churned.sum(), fresh.sum());
        prop_assert_eq!(churned.distinct(), fresh.distinct());
        for (bits, count) in fresh.iter() {
            prop_assert_eq!(churned.frequency(bits), count);
        }
        for (bits, count) in churned.iter() {
            prop_assert_eq!(fresh.frequency(bits), count);
        }
    }

    #[test]
    fn incremental_hash_equals_batch(
        n in 5usize..16,
        r in 3usize..10,
        seed in any::<u64>(),
    ) {
        let coll = collection(n, r, seed, true);
        let batch = Bfh::build(&coll.trees, &coll.taxa);
        // add everything, remove the first two, re-add them
        let mut inc = Bfh::empty(coll.taxa.len());
        for t in &coll.trees {
            inc.add_tree(t, &coll.taxa);
        }
        inc.remove_tree(&coll.trees[0], &coll.taxa).unwrap();
        inc.remove_tree(&coll.trees[1], &coll.taxa).unwrap();
        inc.add_tree(&coll.trees[1], &coll.taxa);
        inc.add_tree(&coll.trees[0], &coll.taxa);
        prop_assert_eq!(batch.sum(), inc.sum());
        prop_assert_eq!(batch.n_trees(), inc.n_trees());
        prop_assert_eq!(batch.distinct(), inc.distinct());
        for (bits, count) in batch.iter() {
            prop_assert_eq!(inc.frequency(bits), count);
        }
    }

    #[test]
    fn batch_remove_check_matches_a_clone_dry_run(
        n in 5usize..16,
        r in 1usize..6,
        picks in proptest::collection::vec(0usize..12, 0..10),
        seed in any::<u64>(),
    ) {
        // The hash holds trees 0..r and one star tree (no splits, so only
        // the tree count can refuse its removal). Picks index a pool of
        // those, their repeats, and trees the hash never held; a batch that
        // removes every held tree and then the star sees the hash empty.
        let coll = random_collection(n, 2 * r + 2, seed);
        let (mut star, root) = phylo::Tree::with_root();
        for i in 0..n {
            star.add_leaf(root, phylo::TaxonId(i as u32));
        }
        let mut bfh = Bfh::build(&coll.trees[..r], &coll.taxa);
        bfh.add_tree(&star, &coll.taxa);
        let star_held = star.clone();
        let mut pool: Vec<phylo::Tree> = coll.trees.clone();
        pool.push(star.clone());
        let mut batch: Vec<phylo::Tree> = picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();
        if picks.len() % 3 == 0 {
            batch = coll.trees[..r].to_vec();
            batch.extend([star.clone(), star]);
        }
        let mut clone = bfh.clone();
        let dry_run = batch
            .iter()
            .enumerate()
            .try_for_each(|(i, t)| clone.remove_tree(t, &coll.taxa).map_err(|e| (i, e.to_string())));
        let check = |table: &dyn SplitFrequency| {
            bfhrf::check_remove_batch(table, &batch, &coll.taxa).map_err(|(i, e)| (i, e.to_string()))
        };
        prop_assert_eq!(check(&bfh), dry_run.clone());

        // The same holdings as a frozen base plus a delta: the base holds
        // the first half of the trees and one tree the hash does not, and
        // the delta adds the rest and the star and takes that tree out.
        let half = r / 2;
        let mut base_trees = coll.trees[..half].to_vec();
        base_trees.push(coll.trees[r].clone());
        let base = Bfh::build(&base_trees, &coll.taxa).freeze();
        let mut delta = SplitDelta::new(coll.taxa.len());
        let mut scratch = BipartitionScratch::new();
        for (t, sign) in coll.trees[half..r]
            .iter()
            .chain([&star_held])
            .map(|t| (t, 1))
            .chain([(&coll.trees[r], -1)])
        {
            delta.record(&scratch.batch_splits(t, &coll.taxa), sign);
        }
        prop_assert_eq!(check(&base.overlay(&delta)), dry_run.clone());
        let patched = base.with_delta(std::sync::Arc::new(delta));
        prop_assert_eq!(check(&patched), dry_run);
    }

    #[test]
    fn day_is_a_metric(
        n in 5usize..20,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        let a = collection(n, 1, s1, false).trees.remove(0);
        let b = collection(n, 1, s2, false).trees.remove(0);
        let c = collection(n, 1, s3, false).trees.remove(0);
        let taxa = phylo::TaxonSet::with_numbered("t", n);
        let dab = day_rf(&a, &b, &taxa);
        let dba = day_rf(&b, &a, &taxa);
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(day_rf(&a, &a, &taxa), 0);
        let dac = day_rf(&a, &c, &taxa);
        let dbc = day_rf(&b, &c, &taxa);
        prop_assert!(dac <= dab + dbc);
        prop_assert!(dab <= 2 * (n - 3));
    }

    #[test]
    fn consensus_is_valid_and_monotone(
        n in 6usize..16,
        r in 2usize..10,
        seed in any::<u64>(),
    ) {
        use bfhrf::consensus::{majority_consensus, strict_consensus};
        let coll = collection(n, r, seed, true);
        let bfh = BfhBuilder::new().freeze_trees(&coll.trees, &coll.taxa).unwrap();
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let strict = strict_consensus(&bfh, &coll.taxa).unwrap();
        prop_assert!(maj.validate(&coll.taxa).is_ok());
        prop_assert!(strict.validate(&coll.taxa).is_ok());
        // strict splits ⊆ majority splits
        let maj_set: std::collections::HashSet<String> =
            maj.bipartitions(&coll.taxa).iter().map(|b| b.to_string()).collect();
        for bp in strict.bipartitions(&coll.taxa) {
            prop_assert!(maj_set.contains(&bp.to_string()));
        }
        // every majority split really is majority-frequent
        let half = bfh.n_trees() as f64 / 2.0;
        for bp in maj.bipartitions(&coll.taxa) {
            prop_assert!(f64::from(bfh.frequency(bp.bits())) > half);
        }
    }

    #[test]
    fn greedy_consensus_is_valid_and_refines_majority(
        n in 6usize..16,
        r in 2usize..10,
        seed in any::<u64>(),
    ) {
        use bfhrf::consensus::{greedy_consensus, majority_consensus, splits_compatible};
        let coll = collection(n, r, seed, true);
        let bfh = BfhBuilder::new().freeze_trees(&coll.trees, &coll.taxa).unwrap();
        let greedy = greedy_consensus(&bfh, &coll.taxa).unwrap();
        prop_assert!(greedy.validate(&coll.taxa).is_ok());
        // greedy splits are pairwise compatible by construction, and the
        // assembled tree must carry each of them back out
        let splits = greedy.bipartitions(&coll.taxa);
        for (i, a) in splits.iter().enumerate() {
            for b in &splits[i + 1..] {
                prop_assert!(splits_compatible(a.bits(), b.bits(), n));
            }
        }
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let greedy_set: std::collections::HashSet<_> =
            splits.iter().map(|b| b.bits().clone()).collect();
        for bp in maj.bipartitions(&coll.taxa) {
            prop_assert!(greedy_set.contains(bp.bits()), "majority split lost");
        }
    }

    #[test]
    fn generalized_unit_weight_is_standard(
        n in 5usize..16,
        r in 2usize..8,
        seed in any::<u64>(),
    ) {
        use bfhrf::variants::{GeneralizedRf, UnitWeight};
        let refs = collection(n, r, seed, true);
        let queries = collection(n, 2, seed ^ 3, true);
        let bfh = BfhBuilder::new().freeze_trees(&refs.trees, &refs.taxa).unwrap();
        let gen = GeneralizedRf::new(&bfh, UnitWeight);
        let exact = bfhrf_all(&queries.trees, &refs.taxa, &bfh).unwrap();
        for s in &exact {
            let g = gen.average(&queries.trees[s.index], &refs.taxa);
            prop_assert!((g - s.rf.average()).abs() < 1e-9);
        }
    }

    #[test]
    fn pgm_wide_signatures_match_all_other_implementations(
        n in 5usize..20,
        r in 2usize..8,
        seed in any::<u64>(),
    ) {
        use bfhrf::pgm::PgmHasher;
        let refs = collection(n, r, seed, false);
        let h = PgmHasher::new(n, 64, seed ^ 0xfeed);
        let sigs: Vec<_> = refs
            .trees
            .iter()
            .map(|t| h.signature(t, &refs.taxa))
            .collect();
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let scores = bfhrf_all(&refs.trees, &refs.taxa, &bfh).unwrap();
        for s in &scores {
            let pgm = h.average_rf(&sigs[s.index], &sigs);
            prop_assert!((pgm - s.rf.average()).abs() < 1e-9, "tree {}", s.index);
        }
        // pairwise cross-check against Day
        for i in 0..refs.len().min(3) {
            for j in 0..refs.len().min(3) {
                prop_assert_eq!(
                    h.rf(&sigs[i], &sigs[j]),
                    day_rf(&refs.trees[i], &refs.trees[j], &refs.taxa)
                );
            }
        }
    }

    #[test]
    fn compact_hash_equals_plain(
        n in 5usize..24,
        r in 2usize..10,
        q in 1usize..5,
        seed in any::<u64>(),
    ) {
        use bfhrf::CompactBfh;
        let refs = collection(n, r, seed, true);
        let queries = collection(n, q, seed ^ 5, false);
        let plain = Bfh::build(&refs.trees, &refs.taxa);
        let compact = CompactBfh::build(&refs.trees, &refs.taxa);
        prop_assert_eq!(plain.sum(), compact.sum());
        prop_assert_eq!(plain.distinct(), compact.distinct());
        for (bits, count) in plain.iter() {
            prop_assert_eq!(compact.frequency(bits), count);
        }
        for qt in &queries.trees {
            prop_assert_eq!(
                bfhrf::bfhrf_average(qt, &refs.taxa, &plain),
                compact.average_rf(qt, &refs.taxa)
            );
        }
        // reversibility: decompressed keys equal the originals
        let mut a: Vec<_> = compact.iter_bits().collect();
        let mut b: Vec<_> = plain.iter().map(|(k, v)| (k.clone(), v)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn support_fractions_are_consistent_with_frequencies(
        n in 6usize..20,
        r in 2usize..10,
        seed in any::<u64>(),
    ) {
        let refs = collection(n, r, seed, true);
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let focal = &refs.trees[0];
        for s in bfhrf::support::edge_support(focal, &refs.taxa, &bfh) {
            prop_assert_eq!(s.count, bfh.frequency(s.split.bits()));
            prop_assert!(s.count >= 1, "focal tree is in the collection");
            prop_assert!((s.fraction - f64::from(s.count) / r as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn frozen_probe_table_equals_live_hash(
        n in 5usize..24,
        r in 2usize..12,
        q in 1usize..5,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // The frozen open-addressing table is a pure read-optimization: on
        // arbitrary collections it must answer every probe — stored split,
        // absent split, full Algorithm-2 average — exactly like the live
        // hashbrown map it was frozen from.
        let refs = collection(n, r, seed, coalescent);
        let queries = collection(n, q, seed ^ 21, !coalescent);
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let frozen = bfh.freeze();
        prop_assert_eq!(frozen.sum(), bfh.sum());
        prop_assert_eq!(frozen.distinct(), bfh.distinct());
        prop_assert_eq!(frozen.n_trees(), bfh.n_trees());
        for (bits, count) in bfh.iter() {
            prop_assert_eq!(frozen.frequency(bits), count);
        }
        let mut scratch = BipartitionScratch::new();
        for qt in &queries.trees {
            let live = bfhrf::bfhrf_average(qt, &refs.taxa, &bfh);
            // batched kernel and generic SplitFrequency path both agree
            prop_assert_eq!(frozen.average_scratch(qt, &refs.taxa, &mut scratch), live);
            prop_assert_eq!(bfhrf::bfhrf_average(qt, &refs.taxa, &frozen), live);
        }
        // through the Comparator API, sequential and parallel, against the
        // independent Day oracle
        let day = DayComparator::new(&refs.trees, &refs.taxa);
        let oracle = day.average_all(&queries.trees).unwrap();
        for par in [false, true] {
            let got = FrozenComparator::new(&frozen, &refs.taxa)
                .parallel(par)
                .average_all(&queries.trees)
                .unwrap();
            prop_assert_eq!(&got, &oracle, "parallel={}", par);
        }
    }

    #[test]
    fn frozen_is_exact_at_word_boundary_widths(
        wi in 0usize..4,
        r in 2usize..8,
        seed in any::<u64>(),
    ) {
        // n_taxa ∈ {63, 64, 65, 128}: one-below, exactly-at, one-above a
        // word boundary, and the two-word boundary — where the packed pool
        // stride and the single-word tag fast path change shape.
        let widths = [63usize, 64, 65, 128];
        let n = widths[wi];
        let refs = collection(n, r, seed, true);
        let queries = collection(n, 2, seed ^ 9, false);
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let frozen = bfh.freeze();
        for (bits, count) in bfh.iter() {
            prop_assert_eq!(frozen.frequency(bits), count);
        }
        let mut scratch = BipartitionScratch::new();
        for qt in &queries.trees {
            prop_assert_eq!(
                frozen.average_scratch(qt, &refs.taxa, &mut scratch),
                bfhrf::bfhrf_average(qt, &refs.taxa, &bfh),
                "width {}", n
            );
        }
    }

    #[test]
    fn probes_match_live_oracle_on_arbitrary_collections(
        n in 5usize..24,
        r in 2usize..12,
        q in 1usize..5,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // The group-scan probe against the live hashbrown map: every
        // stored split probes to its count, and every whole-batch sum over
        // a query's splits (present and absent alike) equals the sum of
        // the live map's per-split answers.
        let refs = collection(n, r, seed, coalescent);
        let queries = collection(n, q, seed ^ 33, !coalescent);
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let frozen = bfh.freeze();
        for (bits, count) in bfh.iter() {
            prop_assert_eq!(frozen.frequency_words(bits.words()), count);
        }
        let mut scratch = BipartitionScratch::new();
        for qt in &queries.trees {
            let batch = scratch.batch_splits(qt, &refs.taxa);
            let oracle: u64 = (0..batch.len())
                .map(|i| u64::from(bfh.split_frequency_words(n, batch.mask(i))))
                .sum();
            prop_assert_eq!(frozen.frequency_sum_batch(&batch), oracle);
        }
    }

    #[test]
    fn probes_match_live_oracle_at_word_boundary_widths_and_min_capacity(
        wi in 0usize..9,
        seed in any::<u64>(),
        removals in 0usize..3,
    ) {
        // n ∈ {15,16,17,63,64,65,127,128,129}: both sides of every word
        // seam the pool stride and the tag-is-key fast path care about.
        // `r = 2` keeps `distinct` tiny so tables freeze at minimum
        // capacity (one control group), and removing trees first
        // exercises freezing a hash that has pruned zero-frequency
        // entries — the "deleted splits" shape the live map can hold.
        // The same removals, recorded as a delta over the unpruned
        // freeze, must answer alike.
        let widths = [15usize, 16, 17, 63, 64, 65, 127, 128, 129];
        let n = widths[wi];
        let refs = collection(n, 2 + removals, seed, true);
        let full = Bfh::build(&refs.trees, &refs.taxa);
        let mut bfh = full.clone();
        let mut delta = SplitDelta::new(n);
        let mut scratch = BipartitionScratch::new();
        for t in refs.trees.iter().take(removals) {
            bfh.remove_tree(t, &refs.taxa).unwrap();
            delta.record(&scratch.batch_splits(t, &refs.taxa), -1);
        }
        let frozen = bfh.freeze();
        let patched = full.freeze().with_delta(std::sync::Arc::new(delta));
        prop_assert!(frozen.capacity() >= 2 * frozen.distinct());
        for table in [&frozen, &patched] {
            prop_assert_eq!(table.distinct(), bfh.distinct(), "width {}", n);
            for (bits, count) in bfh.iter() {
                prop_assert_eq!(table.frequency_words(bits.words()), count, "width {}", n);
            }
            for qt in &refs.trees {
                let batch = scratch.batch_splits(qt, &refs.taxa);
                let oracle: u64 = (0..batch.len())
                    .map(|i| u64::from(bfh.split_frequency_words(n, batch.mask(i))))
                    .sum();
                prop_assert_eq!(table.frequency_sum_batch(&batch), oracle, "width {}", n);
            }
        }
    }

    #[test]
    fn batch_extraction_matches_reference_across_word_widths(
        wi in 0usize..12,
        seed in any::<u64>(),
        coalescent in any::<bool>(),
    ) {
        // The word-striped fill/orient pass must hand the probe kernel
        // exactly the reference extractor's splits — same masks, in the
        // same order, each with its split_hash128 — at widths on both
        // sides of the 64-, 128- and 256-taxon seams, where the striped
        // kernels run their unrolled bodies and their tails.
        let widths = [5usize, 17, 39, 63, 64, 65, 127, 128, 129, 255, 256, 257];
        let coll = collection(widths[wi], 3, seed, coalescent);
        let mut scratch = BipartitionScratch::new();
        for t in &coll.trees {
            let reference: Vec<_> = t
                .bipartitions(&coll.taxa)
                .into_iter()
                .map(|b| b.into_bits())
                .collect();
            let batch = scratch.batch_splits(t, &coll.taxa);
            prop_assert_eq!(batch.len(), reference.len());
            for (i, bits) in reference.iter().enumerate() {
                prop_assert_eq!(batch.mask(i), bits.words());
                prop_assert_eq!(batch.hash(i), phylo_bitset::split_hash128(bits.words()));
            }
        }
    }

    #[test]
    fn streaming_query_path_matches_batch(
        n in 5usize..14,
        r in 2usize..8,
        seed in any::<u64>(),
    ) {
        let refs = collection(n, r, seed, true);
        let queries = collection(n, 3, seed ^ 11, true);
        let bfh = Bfh::build(&refs.trees, &refs.taxa);
        let batch = bfhrf_all(&queries.trees, &refs.taxa, &bfh).unwrap();
        // serialize queries, stream them back through the same namespace
        let mut text = String::new();
        for t in &queries.trees {
            text.push_str(&phylo::write_newick(t, &queries.taxa));
            text.push('\n');
        }
        let mut taxa = refs.taxa.clone();
        for (table, parallel) in [(&bfh, false), (&bfh, true)] {
            let mut stream = strict(&text, TaxaPolicy::Require);
            let streamed = bfhrf::rf::bfhrf_streaming(
                table,
                &mut taxa,
                parallel,
                &bfhrf::RunGuard::default(),
                &mut stream,
            )
            .unwrap();
            prop_assert_eq!(&batch, &streamed);
        }
        let frozen = bfh.freeze();
        let mut stream = strict(&text, TaxaPolicy::Require);
        let streamed = bfhrf::rf::bfhrf_streaming(
            &frozen,
            &mut taxa,
            true,
            &bfhrf::RunGuard::default(),
            &mut stream,
        )
        .unwrap();
        prop_assert_eq!(batch, streamed);
    }
}

/// One random rooted tree on `labels`, with multifurcations: every
/// internal node splits its labels into 2–4 non-empty groups.
fn multifurcating(labels: &mut [String], rng: &mut StdRng, out: &mut String) {
    if labels.len() == 1 {
        out.push_str(&labels[0]);
        return;
    }
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.random_range(0..=i));
    }
    let k = rng.random_range(2..=labels.len().min(4));
    let mut cuts: Vec<usize> = (1..labels.len()).collect();
    for i in (1..cuts.len()).rev() {
        cuts.swap(i, rng.random_range(0..=i));
    }
    cuts.truncate(k - 1);
    cuts.sort_unstable();
    cuts.push(labels.len());
    out.push('(');
    let mut from = 0;
    for (i, &to) in cuts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        multifurcating(&mut labels[from..to], rng, out);
        from = to;
    }
    out.push(')');
}

/// `r` multifurcating trees, each on a random subset of most of
/// `t0 .. t{n-1}`. With `grow`, all but the last 8 trees draw only on the
/// first `max(n / 2, 4)` labels, so a streamed build's namespace grows
/// mid-stream, across a word boundary from n = 65 up.
fn multifurcating_file(n: usize, r: usize, seed: u64, grow: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for i in 0..r {
        let pool = if grow && i + 8 < r { (n / 2).max(4) } else { n };
        let mut labels: Vec<String> = (0..pool).map(|t| format!("t{t}")).collect();
        for j in (1..labels.len()).rev() {
            labels.swap(j, rng.random_range(0..=j));
        }
        labels.truncate(rng.random_range(pool.saturating_sub(3).max(4)..=pool));
        multifurcating(&mut labels, &mut rng, &mut text);
        text.push_str(";\n");
    }
    text
}

/// The table `builder` folds from `text`, streamed on `threads` workers.
fn fold_on(builder: &BfhBuilder, text: &str, threads: usize) -> FrozenBfh {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut taxa = TaxonSet::new();
        builder
            .freeze_stream(&mut taxa, &mut strict(text, TaxaPolicy::Grow))
            .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn folded_table_answers_like_a_freeze_of_the_hash(
        wi in 0usize..8,
        few in 1usize..48,
        past_a_chunk in any::<bool>(),
        seed in any::<u64>(),
        grow in any::<bool>(),
    ) {
        // The build folds each chunk straight into growing lanes. Whatever
        // the width, the tree shapes or a namespace that widens while the
        // stream is read, that table must hold exactly what a freeze of
        // the sequentially built hash holds, in lanes of the same size,
        // and be the same table for any thread count, shard count or
        // build mode.
        let widths = [4usize, 63, 64, 65, 127, 128, 129, 200];
        let n = widths[wi];
        // Past a chunk, a growing namespace widens lanes already folded.
        let r = if past_a_chunk { CHUNK + few } else { few };
        let text = multifurcating_file(n, r, seed, grow);
        let whole = TreeCollection::parse(&text).unwrap();
        let bfh = Bfh::build(&whole.trees, &whole.taxa);
        let want = bfh.freeze();
        let table = fold_on(&BfhBuilder::new(), &text, 1);
        prop_assert_eq!(
            (table.n_taxa(), table.n_trees(), table.sum(), table.distinct()),
            (want.n_taxa(), want.n_trees(), want.sum(), want.distinct())
        );
        prop_assert_eq!(table.capacity(), want.capacity());
        prop_assert_eq!(table.approx_bytes(), want.approx_bytes());
        for (bits, count) in bfh.iter() {
            prop_assert_eq!(table.frequency(bits), count, "width {}: {}", n, bits);
        }
        prop_assert_eq!(table.iter().count(), bfh.distinct());
        // Splits of random trees over the whole namespace that the hash
        // lacks read 0.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xab5e);
        let mut scratch = BipartitionScratch::new();
        for _ in 0..4 {
            let other = random_binary_tree(whole.taxa.len(), &mut rng);
            let batch = scratch.batch_splits(&other, &whole.taxa);
            for i in 0..batch.len() {
                let w = batch.mask(i);
                if bfh.frequency_words(w) == 0 {
                    prop_assert_eq!(table.frequency_words(w), 0);
                }
            }
        }
        for threads in [1usize, 2, 4] {
            for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
                let again = fold_on(&builder, &text, threads);
                prop_assert_eq!(again.digest(), table.digest(), "{} threads, {:?}", threads, builder);
            }
        }
    }
}

#[test]
fn empty_stream_folds_to_the_empty_hash_frozen() {
    for n in [4usize, 63, 64, 65, 127, 128, 129, 200] {
        let want = Bfh::empty(n).freeze();
        for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
            let mut taxa = TaxonSet::with_numbered("t", n);
            let table = builder
                .freeze_stream(&mut taxa, &mut strict("", TaxaPolicy::Grow))
                .unwrap();
            assert_eq!(table.digest(), want.digest(), "n={n}");
            assert_eq!(table.approx_bytes(), want.approx_bytes(), "n={n}");
        }
    }
}

/// Acceptance fixture: on a ≥1000-tree collection the sharded build is
/// **bitwise-identical** to the sequential build — same distinct splits,
/// same frequency for every mask, in both directions, for several shard
/// counts.
/// Acceptance fixture: on a ≥1000-tree collection the frozen table answers
/// exactly like the live hash — per-split, per-query, through every derived
/// RF variant (total, average, halved, normalized), and through both
/// comparators sequential and parallel against the Day oracle.
#[test]
fn frozen_matches_live_on_thousand_tree_collection() {
    let mut spec = DatasetSpec::new("frozen-acceptance", 20, 1000, 0xf20e);
    spec.pop_scale = 0.5;
    let refs = phylo_sim::generate(&spec);
    assert!(refs.len() >= 1000);
    let queries = random_collection(20, 8, 0x51de);
    let bfh = Bfh::build_sharded(&refs.trees, &refs.taxa, 8);
    let frozen = bfh.freeze();
    assert_eq!(frozen.sum(), bfh.sum());
    assert_eq!(frozen.distinct(), bfh.distinct());
    for (bits, count) in bfh.iter() {
        assert_eq!(frozen.frequency(bits), count);
    }
    let mut scratch = BipartitionScratch::new();
    for qt in &queries.trees {
        let live = bfhrf::bfhrf_average(qt, &refs.taxa, &bfh);
        let frz = frozen.average_scratch(qt, &refs.taxa, &mut scratch);
        assert_eq!(frz, live);
        assert_eq!(frz.total(), live.total());
        assert!((frz.average() - live.average()).abs() < 1e-12);
        assert!((frz.average_halved() - live.average_halved()).abs() < 1e-12);
        assert!(
            (bfhrf::variants::normalized_average(&frz, 20)
                - bfhrf::variants::normalized_average(&live, 20))
            .abs()
                < 1e-12
        );
    }
    let oracle = DayComparator::new(&refs.trees, &refs.taxa)
        .average_all(&queries.trees)
        .unwrap();
    for par in [false, true] {
        assert_eq!(
            FrozenComparator::new(&frozen, &refs.taxa)
                .parallel(par)
                .average_all(&queries.trees)
                .unwrap(),
            oracle,
            "frozen comparator, parallel={par}"
        );
        assert_eq!(
            BfhrfComparator::new(&bfh, &refs.taxa)
                .parallel(par)
                .average_all(&queries.trees)
                .unwrap(),
            oracle,
            "live comparator, parallel={par}"
        );
    }
}

#[test]
fn sharded_build_identical_on_thousand_tree_collection() {
    let mut spec = DatasetSpec::new("acceptance", 20, 1000, 0xbf4f);
    spec.pop_scale = 0.5;
    let coll = phylo_sim::generate(&spec);
    assert!(coll.len() >= 1000);
    let seq = Bfh::build(&coll.trees, &coll.taxa);
    for shards in [2usize, 8, 64] {
        let sharded = Bfh::build_sharded(&coll.trees, &coll.taxa, shards);
        assert_eq!(seq.n_trees(), sharded.n_trees());
        assert_eq!(seq.sum(), sharded.sum());
        assert_eq!(seq.distinct(), sharded.distinct());
        for (bits, count) in seq.iter() {
            assert_eq!(sharded.frequency(bits), count, "shards={shards} at {bits}");
        }
        for (bits, count) in sharded.iter() {
            assert_eq!(seq.frequency(bits), count, "shards={shards} at {bits}");
        }
    }
}
