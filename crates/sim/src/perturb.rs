//! Random-walk tree perturbation.
//!
//! NNI walks from a base topology produce collections whose RF spread is
//! directly controlled by the walk length — handy for tests that need "a
//! collection about this far from a known tree" without the indirection of
//! a coalescent model.

use phylo::{TaxonSet, Tree, TreeCollection};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Apply `moves` random NNI rearrangements to a copy of `base`.
pub fn nni_walk(base: &Tree, moves: usize, rng: &mut StdRng) -> Tree {
    let mut t = base.clone();
    for _ in 0..moves {
        let edges = t.nni_edges();
        if edges.is_empty() {
            break; // trees with < 5 leaves admit no proper NNI here
        }
        let (p, c) = edges[rng.random_range(0..edges.len())];
        let child_idx = rng.random_range(0..t.children(c).len());
        let sib_count = t.children(p).len() - 1;
        let sib_idx = rng.random_range(0..sib_count);
        t.nni(p, c, child_idx, sib_idx)
            .expect("indices chosen within range");
    }
    t
}

/// A collection of `count` trees, each `moves` random NNIs away from
/// `base`, over the shared `taxa`.
pub fn nni_forest(
    base: &Tree,
    taxa: &TaxonSet,
    count: usize,
    moves: usize,
    seed: u64,
) -> TreeCollection {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees = (0..count)
        .map(|_| nni_walk(base, moves, &mut rng))
        .collect();
    TreeCollection {
        taxa: taxa.clone(),
        trees,
    }
}

/// A collection of `count` independent random binary trees on `n` taxa
/// (`t0..t{n-1}`) drawn by [`random_binary_tree`]: maximal discordance,
/// the stress case for hash growth (every tree contributes mostly unique
/// bipartitions).
pub fn random_collection(n: usize, count: usize, seed: u64) -> TreeCollection {
    let taxa = TaxonSet::with_numbered("t", n);
    let mut rng = StdRng::seed_from_u64(seed);
    let trees = (0..count)
        .map(|_| random_binary_tree(n, &mut rng))
        .collect();
    TreeCollection { taxa, trees }
}

/// One random binary tree on `n` taxa, grown by attaching each next leaf
/// to an edge drawn uniformly from the rooted tree's edges.
///
/// The draw is not uniform over unrooted topologies. The tree starts from
/// a degree-2 root, whose two rooted edges are one unrooted edge, so that
/// edge is drawn twice as often as any other: a tree on `i` leaves offers
/// `2i − 2` slots for its `2i − 3` unrooted edges. At `n = 4` the three
/// topologies come out ⅜, ⅜ and ¼ (`t2` and `t3` are siblings with
/// probability ¼), not ⅓ each.
/// Seeded collections depend on this exact draw, so it stays as it is.
pub fn random_binary_tree(n: usize, rng: &mut StdRng) -> Tree {
    assert!(n >= 2);
    let (mut t, root) = Tree::with_root();
    t.add_leaf(root, phylo::TaxonId(0));
    t.add_leaf(root, phylo::TaxonId(1));
    // Track edges incrementally instead of re-collecting per insertion:
    // each insertion replaces one edge with three.
    let mut edges: Vec<(phylo::NodeId, phylo::NodeId)> = t.edges().collect();
    for i in 2..n {
        let k = rng.random_range(0..edges.len());
        let (p, c) = edges.swap_remove(k);
        t.detach_child(p, c);
        let mid = t.add_child(p);
        t.attach_child(mid, c);
        let leaf = t.add_leaf(mid, phylo::TaxonId(i as u32));
        edges.push((p, mid));
        edges.push((mid, c));
        edges.push((mid, leaf));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::BipartitionSet;

    #[test]
    fn nni_walk_distance_grows_with_moves() {
        let coll = random_collection(30, 1, 3);
        let base = &coll.trees[0];
        let mut rng = StdRng::seed_from_u64(5);
        let b0 = BipartitionSet::from_tree(base, &coll.taxa);
        let near = nni_walk(base, 1, &mut rng);
        let far = nni_walk(base, 40, &mut rng);
        let d_near = b0.rf_distance(&BipartitionSet::from_tree(&near, &coll.taxa));
        let d_far = b0.rf_distance(&BipartitionSet::from_tree(&far, &coll.taxa));
        assert_eq!(d_near, 2, "single NNI is RF distance 2");
        assert!(d_far > d_near);
    }

    #[test]
    fn nni_forest_members_are_valid() {
        let coll = random_collection(20, 1, 11);
        let forest = nni_forest(&coll.trees[0], &coll.taxa, 15, 5, 9);
        assert_eq!(forest.len(), 15);
        for t in &forest.trees {
            assert_eq!(t.validate(&forest.taxa).unwrap(), 20);
            assert!(t.is_binary());
        }
    }

    #[test]
    fn random_collection_is_valid_and_distinct() {
        let coll = random_collection(25, 10, 42);
        assert_eq!(coll.len(), 10);
        let mut newicks = std::collections::HashSet::new();
        for t in &coll.trees {
            assert_eq!(t.validate(&coll.taxa).unwrap(), 25);
            assert!(t.is_binary());
            newicks.insert(phylo::write_newick(t, &coll.taxa));
        }
        assert!(newicks.len() > 1, "independent draws should differ");
    }

    #[test]
    fn tiny_trees_do_not_loop_forever() {
        let coll = random_collection(4, 1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        // a 4-leaf tree rooted bifurcating has no eligible NNI edge;
        // the walk must terminate and return a clone
        let t = nni_walk(&coll.trees[0], 10, &mut rng);
        assert_eq!(t.leaf_count(), 4);
    }

    #[test]
    fn incremental_edge_tracking_matches_fresh_enumeration() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = random_binary_tree(40, &mut rng);
        assert_eq!(t.edges().count(), t.num_nodes() - 1);
        assert_eq!(t.leaf_count(), 40);
    }
}
