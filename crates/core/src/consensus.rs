//! Consensus trees straight from the frequency table.
//!
//! "We can simplify to the average RF value for most consensus type
//! analyses" (paper §VIII) — and the [`FrozenBfh`] that answers average-RF
//! queries already holds everything a split-frequency consensus needs: the
//! majority-rule consensus keeps the splits present in more than
//! `threshold · r` trees, the strict consensus those present in all.
//! Splits above half-frequency are pairwise
//! compatible, so assembly is a laminar-family construction, no
//! compatibility solver needed. Each consensus reads the table once, in
//! slot order; the splits it keeps are sorted before assembly, so the tree
//! does not depend on that order.

use crate::frozen::FrozenBfh;
use crate::CoreError;
use phylo::{TaxonId, TaxonSet, Tree};
use phylo_bitset::Bits;

/// Majority-rule consensus: splits with frequency strictly greater than
/// `threshold · r`, assembled into a tree. `threshold` must be in
/// `[0.5, 1.0)`; 0.5 is the classic majority rule.
///
/// ```
/// use bfhrf::{BfhBuilder, consensus::majority_consensus};
/// use phylo::TreeCollection;
///
/// let coll = TreeCollection::parse(
///     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
/// let table = BfhBuilder::new().freeze_trees(&coll.trees, &coll.taxa).unwrap();
/// let tree = majority_consensus(&table, &coll.taxa, 0.5).unwrap();
/// // the 2/3-majority split {A,B} survives
/// assert_eq!(tree.bipartitions(&coll.taxa).len(), 1);
/// ```
pub fn majority_consensus(
    table: &FrozenBfh,
    taxa: &TaxonSet,
    threshold: f64,
) -> Result<Tree, CoreError> {
    if !(0.5..1.0).contains(&threshold) {
        return Err(CoreError::TaxaMismatch(format!(
            "consensus threshold {threshold} outside [0.5, 1.0)"
        )));
    }
    let cut = threshold * table.n_trees() as f64;
    assemble(splits_where(table, |count| f64::from(count) > cut)?, taxa)
}

/// Strict consensus: only splits present in every reference tree.
pub fn strict_consensus(table: &FrozenBfh, taxa: &TaxonSet) -> Result<Tree, CoreError> {
    let r = table.n_trees() as u32;
    assemble(splits_where(table, |count| count == r)?, taxa)
}

/// The table's splits whose frequency passes `keep`, in slot order; an
/// empty table has no consensus.
fn splits_where(table: &FrozenBfh, keep: impl Fn(u32) -> bool) -> Result<Vec<Bits>, CoreError> {
    if table.n_trees() == 0 {
        return Err(CoreError::EmptyReference);
    }
    Ok(table
        .iter()
        .filter(|&(_, count)| keep(count))
        .map(|(words, _)| Bits::from_words(table.n_taxa(), words))
        .collect())
}

/// Greedy ("extended majority rule") consensus: walk the splits by
/// descending frequency (ties by canonical order, for determinism) and
/// keep each one that is compatible with everything kept so far. The
/// result refines the majority-rule tree and is always fully specified by
/// the collection.
pub fn greedy_consensus(table: &FrozenBfh, taxa: &TaxonSet) -> Result<Tree, CoreError> {
    if table.n_trees() == 0 {
        return Err(CoreError::EmptyReference);
    }
    let mut splits: Vec<(Bits, u32)> = table
        .iter()
        .map(|(words, count)| (Bits::from_words(table.n_taxa(), words), count))
        .collect();
    splits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let n = taxa.len();
    let mut kept: Vec<Bits> = Vec::new();
    for (candidate, _) in splits {
        if kept.iter().all(|k| splits_compatible(k, &candidate, n)) {
            kept.push(candidate);
        }
    }
    assemble(kept, taxa)
}

/// Two canonical splits are compatible iff some tree can contain both:
/// one side of one must nest inside, contain, or avoid one side of the
/// other. For canonical encodings `a`, `b` (both containing taxon 0) over
/// the full namespace, that reduces to `a ⊆ b`, `b ⊆ a`, or
/// `a ∪ b = everything` (their complements are disjoint).
pub fn splits_compatible(a: &Bits, b: &Bits, n_taxa: usize) -> bool {
    a.is_subset(b) || b.is_subset(a) || a.union(b).count_ones() as usize == n_taxa
}

/// Assemble a tree from pairwise-compatible canonical splits over the full
/// namespace.
///
/// Rooted view: hang the tree off taxon 0. Each canonical split (which
/// contains taxon 0 on its set side) corresponds to the clade formed by
/// its complement; compatibility makes the clades a laminar family, so
/// each clade's parent is its unique minimal strict superset.
fn assemble(splits: Vec<Bits>, taxa: &TaxonSet) -> Result<Tree, CoreError> {
    let n = taxa.len();
    let universe = {
        let mut u = Bits::ones(n);
        u.clear(0);
        u
    };
    // clades: complement sides, largest first so parents precede children
    let mut clades: Vec<Bits> = splits
        .iter()
        .map(|s| {
            let mut c = s.clone();
            c.complement();
            c
        })
        .collect();
    clades.sort_by(|a, b| b.count_ones().cmp(&a.count_ones()).then_with(|| a.cmp(b)));

    let mut tree = Tree::new();
    let root = tree.add_root();
    tree.add_leaf(root, TaxonId(0));
    let backbone = tree.add_child(root); // the node covering `universe`
                                         // nodes created so far with their covered sets, for parent search
    let mut covered: Vec<(Bits, phylo::NodeId)> = vec![(universe, backbone)];

    for clade in clades {
        // parent = the smallest already-created superset; `covered` is
        // filled largest-first, so scanning from the end finds it.
        let parent = covered
            .iter()
            .rev()
            .find(|(set, _)| clade.is_subset(set))
            .map(|&(_, node)| node)
            .ok_or_else(|| {
                CoreError::Structure(format!(
                    "consensus clade {clade} has no covering superset — \
                     split set is not over the full namespace"
                ))
            })?;
        let node = tree.add_child(parent);
        covered.push((clade, node));
    }

    // attach each taxon under the smallest clade containing it
    for t in 1..n {
        let parent = covered
            .iter()
            .rev()
            .find(|(set, _)| set.get(t))
            .map(|&(_, node)| node)
            .ok_or_else(|| {
                CoreError::Structure(format!(
                    "taxon {t} is outside every consensus clade — \
                     split set is not over the full namespace"
                ))
            })?;
        tree.add_leaf(parent, TaxonId(t as u32));
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BfhBuilder;
    use phylo::{BipartitionSet, TreeCollection};

    fn bfh_of(text: &str) -> (TreeCollection, FrozenBfh) {
        let coll = TreeCollection::parse(text).unwrap();
        let table = BfhBuilder::new()
            .freeze_trees(&coll.trees, &coll.taxa)
            .unwrap();
        (coll, table)
    }

    #[test]
    fn consensus_of_identical_trees_is_that_tree() {
        let one = "((A,B),((C,D),(E,F)));\n";
        let (coll, bfh) = bfh_of(&one.repeat(5));
        let strict = strict_consensus(&bfh, &coll.taxa).unwrap();
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let original = BipartitionSet::from_tree(&coll.trees[0], &coll.taxa);
        assert_eq!(
            original.rf_distance(&BipartitionSet::from_tree(&strict, &coll.taxa)),
            0
        );
        assert_eq!(
            original.rf_distance(&BipartitionSet::from_tree(&maj, &coll.taxa)),
            0
        );
        assert!(strict.validate(&coll.taxa).is_ok());
    }

    #[test]
    fn majority_keeps_two_thirds_splits() {
        // two trees agree, one disagrees everywhere possible
        let (coll, bfh) =
            bfh_of("((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n(((A,C),E),(B,(D,F)));");
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let expect = BipartitionSet::from_tree(&coll.trees[0], &coll.taxa);
        let got = BipartitionSet::from_tree(&maj, &coll.taxa);
        assert_eq!(expect.rf_distance(&got), 0, "majority = the 2/3 topology");
    }

    #[test]
    fn strict_consensus_collapses_conflicts() {
        let (coll, bfh) = bfh_of("((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));");
        let strict = strict_consensus(&bfh, &coll.taxa).unwrap();
        let got = BipartitionSet::from_tree(&strict, &coll.taxa);
        // only {A,B} (equivalently {C,D,E,F}) survives
        assert_eq!(got.len(), 1);
        assert!(strict.validate(&coll.taxa).is_ok());
        // every surviving split has full frequency
        for bp in strict.bipartitions(&coll.taxa) {
            assert_eq!(bfh.frequency(bp.bits()), 2);
        }
    }

    #[test]
    fn consensus_splits_respect_threshold() {
        let (coll, bfh) = bfh_of(
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));\n(((A,C),E),(B,(D,F)));",
        );
        for threshold in [0.5, 0.6, 0.74, 0.9] {
            let t = majority_consensus(&bfh, &coll.taxa, threshold).unwrap();
            assert!(t.validate(&coll.taxa).is_ok());
            let cut = threshold * bfh.n_trees() as f64;
            for bp in t.bipartitions(&coll.taxa) {
                assert!(
                    f64::from(bfh.frequency(bp.bits())) > cut,
                    "split {bp} below threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn higher_thresholds_are_coarser() {
        let (coll, bfh) =
            bfh_of("((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));");
        let fine = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let coarse = majority_consensus(&bfh, &coll.taxa, 0.9).unwrap();
        assert!(coarse.bipartitions(&coll.taxa).len() <= fine.bipartitions(&coll.taxa).len());
    }

    #[test]
    fn star_when_nothing_agrees() {
        let (coll, bfh) = bfh_of("((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));");
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        assert_eq!(
            maj.bipartitions(&coll.taxa).len(),
            0,
            "total conflict → star"
        );
        assert_eq!(maj.leaf_count(), 4);
        assert!(maj.validate(&coll.taxa).is_ok());
    }

    #[test]
    fn splits_compatible_cases() {
        let n = 6;
        let ab = Bits::from_bitstring("000011").unwrap(); // {A,B}
        let abc = Bits::from_bitstring("000111").unwrap(); // {A,B,C}
        let acdef = Bits::from_bitstring("111101").unwrap(); // complement of {B}... {A,C,D,E,F}
        let axef = Bits::from_bitstring("110001").unwrap(); // {A,E,F}
        assert!(splits_compatible(&ab, &abc, n), "nested");
        assert!(splits_compatible(&abc, &ab, n), "nested, reversed");
        assert!(splits_compatible(&ab, &acdef, n), "complements disjoint");
        assert!(
            !splits_compatible(&abc, &axef, n),
            "{{A,B,C}} vs {{A,E,F}} cross"
        );
        assert!(splits_compatible(&ab, &ab, n), "self");
    }

    #[test]
    fn greedy_refines_majority() {
        // 2:1:1 split vote on the deep edge; greedy resolves where
        // majority leaves a polytomy
        let (coll, bfh) = bfh_of(
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),((C,E),(D,F)));\n((A,B),((C,F),(D,E)));",
        );
        let maj = majority_consensus(&bfh, &coll.taxa, 0.5).unwrap();
        let greedy = greedy_consensus(&bfh, &coll.taxa).unwrap();
        assert!(greedy.validate(&coll.taxa).is_ok());
        let maj_splits = maj.bipartitions(&coll.taxa).len();
        let greedy_splits = greedy.bipartitions(&coll.taxa).len();
        assert!(
            greedy_splits >= maj_splits,
            "{greedy_splits} < {maj_splits}"
        );
        // every majority split survives in the greedy tree
        let greedy_set: std::collections::HashSet<String> = greedy
            .bipartitions(&coll.taxa)
            .iter()
            .map(|b| b.to_string())
            .collect();
        for bp in maj.bipartitions(&coll.taxa) {
            assert!(greedy_set.contains(&bp.to_string()));
        }
        // greedy kept the plurality resolution {C,D}
        let cd = {
            let mut b = Bits::from_indices(6, [2, 3]);
            b.complement(); // canonical side contains taxon 0
            b.to_string()
        };
        assert!(greedy_set.contains(&cd), "{greedy_set:?}");
    }

    #[test]
    fn greedy_on_unanimous_collection_is_the_tree() {
        let (coll, bfh) = bfh_of(&"((A,B),((C,D),(E,F)));\n".repeat(3));
        let greedy = greedy_consensus(&bfh, &coll.taxa).unwrap();
        let want = BipartitionSet::from_tree(&coll.trees[0], &coll.taxa);
        let got = BipartitionSet::from_tree(&greedy, &coll.taxa);
        assert_eq!(want.rf_distance(&got), 0);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let (coll, bfh) = bfh_of("((A,B),(C,D));");
        assert!(majority_consensus(&bfh, &coll.taxa, 0.4).is_err());
        assert!(majority_consensus(&bfh, &coll.taxa, 1.0).is_err());
    }

    #[test]
    fn empty_hash_rejected() {
        let (coll, _) = bfh_of("((A,B),(C,D));");
        let empty = BfhBuilder::new().freeze_trees(&[], &coll.taxa).unwrap();
        assert_eq!(
            strict_consensus(&empty, &coll.taxa).unwrap_err(),
            CoreError::EmptyReference
        );
    }
}
