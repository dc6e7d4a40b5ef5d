//! Property-based tests for the phylo substrate: random binary trees must
//! satisfy the textbook invariants (split counts, round-trips, edit-move
//! distances) for every topology, not just hand-picked examples.

use phylo::{parse_newick, write_newick, TaxaPolicy, TaxonSet, Tree};
use phylo_bitset::Bits;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Build a uniform-ish random binary tree on `n` taxa by sequential leaf
/// insertion: each new leaf subdivides a uniformly chosen existing edge.
fn random_binary_tree(n: usize, seed: u64) -> (Tree, TaxonSet) {
    assert!(n >= 2);
    let taxa = TaxonSet::with_numbered("t", n);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut t, root) = Tree::with_root();
    t.add_leaf(root, phylo::TaxonId(0));
    t.add_leaf(root, phylo::TaxonId(1));
    for i in 2..n {
        // collect current edges (parent, child)
        let edges: Vec<_> = t.edges().collect();
        let (p, c) = edges[rng.random_range(0..edges.len())];
        t.detach_child(p, c);
        let mid = t.add_child(p);
        t.attach_child(mid, c);
        t.add_leaf(mid, phylo::TaxonId(i as u32));
    }
    (t, taxa)
}

fn split_set(t: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
    let mut v: Vec<Bits> = t
        .bipartitions(taxa)
        .into_iter()
        .map(|b| b.into_bits())
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_trees_have_n_minus_3_splits(n in 4usize..60, seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        prop_assert!(t.is_binary());
        prop_assert_eq!(t.validate(&taxa).unwrap(), n);
        prop_assert_eq!(t.bipartitions(&taxa).len(), n - 3);
    }

    #[test]
    fn newick_roundtrip_preserves_splits(
        // Labels mix bare text with ones the writer must quote, and
        // non-ASCII characters inside and outside quotes.
        labels in proptest::collection::vec("[A-Za-z0-9_.éü中 '(),:;\\[\\]]{1,6}", 4..50),
        seed in any::<u64>(),
    ) {
        let labels: std::collections::BTreeSet<String> = labels.into_iter().collect();
        prop_assume!(labels.len() >= 4);
        let (t, _) = random_binary_tree(labels.len(), seed);
        let mut taxa = TaxonSet::new();
        for label in &labels {
            taxa.intern(label);
        }
        let text = write_newick(&t, &taxa);
        let mut taxa2 = taxa.clone();
        let t2 = parse_newick(&text, &mut taxa2, TaxaPolicy::Require).unwrap();
        prop_assert_eq!(taxa2.len(), taxa.len());
        prop_assert_eq!(split_set(&t2, &taxa2), split_set(&t, &taxa));
        prop_assert_eq!(write_newick(&t2, &taxa2), text);
    }

    #[test]
    fn compaction_preserves_splits(n in 4usize..40, seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        let c = t.compacted();
        prop_assert_eq!(c.num_nodes(), 2 * n - 1);
        prop_assert_eq!(split_set(&c, &taxa), split_set(&t, &taxa));
    }

    #[test]
    fn nni_move_is_rf_two(n in 5usize..40, seed in any::<u64>(), pick in any::<u64>()) {
        let (mut t, taxa) = random_binary_tree(n, seed);
        let before = split_set(&t, &taxa);
        let edges = t.nni_edges();
        prop_assume!(!edges.is_empty());
        let (p, c) = edges[(pick as usize) % edges.len()];
        t.nni(p, c, (pick as usize / 7) % 2, 0).unwrap();
        prop_assert!(t.validate(&taxa).is_ok());
        prop_assert!(t.is_binary());
        let after = split_set(&t, &taxa);
        let removed = before.iter().filter(|b| !after.contains(b)).count();
        let added = after.iter().filter(|b| !before.contains(b)).count();
        // an NNI replaces exactly one internal split
        prop_assert_eq!((removed, added), (1, 1));
    }

    #[test]
    fn restriction_is_valid_and_monotone(n in 6usize..40, seed in any::<u64>(), mask_seed in any::<u64>()) {
        let (t, taxa) = random_binary_tree(n, seed);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mut keep = Bits::zeros(n);
        for i in 0..n {
            if rng.random_range(0..3) != 0 {
                keep.set(i);
            }
        }
        prop_assume!(keep.count_ones() >= 1);
        let r = t.restricted(&keep).unwrap();
        prop_assert_eq!(r.leaf_count() as u32, keep.count_ones());
        prop_assert!(r.validate(&taxa).is_ok());
        // every split of the restriction is the restriction of some split
        let leafset = t.leafset(n);
        let restricted_originals: Vec<Bits> = t
            .bipartitions(&taxa)
            .iter()
            .map(|b| {
                let side = b.bits().intersection(&keep);
                // canonicalize within the kept leafset
                let kept_leaves = leafset.intersection(&keep);
                let anchor = kept_leaves.first_one().unwrap();
                if side.get(anchor) { side } else { kept_leaves.difference(&side) }
            })
            .collect();
        for split in r.bipartitions(&taxa) {
            prop_assert!(
                restricted_originals.contains(split.bits()),
                "split {} of restriction not induced by any original split",
                split
            );
        }
    }

    #[test]
    fn spr_keeps_tree_valid(n in 6usize..40, seed in any::<u64>(), pick in any::<u64>()) {
        let (mut t, taxa) = random_binary_tree(n, seed);
        let root = t.root().unwrap();
        let nodes: Vec<_> = t
            .postorder()
            .into_iter()
            .filter(|&x| x != root)
            .collect();
        let prune = nodes[(pick as usize) % nodes.len()];
        let target = nodes[(pick as usize / 13) % nodes.len()];
        match t.spr(prune, target) {
            Ok(()) => {
                let t = t.compacted();
                prop_assert!(t.validate(&taxa).is_ok());
                prop_assert_eq!(t.leaf_count(), n);
                prop_assert!(t.is_binary());
            }
            Err(_) => {
                // rejected moves must not corrupt arithmetic invariants:
                // the tree may have been partially modified only in ways
                // that keep it a valid tree
                prop_assert!(t.compacted().validate(&taxa).is_ok());
            }
        }
    }

    #[test]
    fn rf_distance_is_a_metric_on_samples(
        n in 4usize..30,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        use phylo::BipartitionSet;
        let (t1, taxa) = random_binary_tree(n, s1);
        let (t2, _) = random_binary_tree(n, s2);
        let (t3, _) = random_binary_tree(n, s3);
        let b1 = BipartitionSet::from_tree(&t1, &taxa);
        let b2 = BipartitionSet::from_tree(&t2, &taxa);
        let b3 = BipartitionSet::from_tree(&t3, &taxa);
        // identity, symmetry, triangle inequality
        prop_assert_eq!(b1.rf_distance(&b1), 0);
        prop_assert_eq!(b1.rf_distance(&b2), b2.rf_distance(&b1));
        prop_assert!(b1.rf_distance(&b3) <= b1.rf_distance(&b2) + b2.rf_distance(&b3));
        // bound: at most (n-3) + (n-3)
        prop_assert!(b1.rf_distance(&b2) <= 2 * (n - 3));
    }
}
