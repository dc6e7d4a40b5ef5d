//! Split-support annotation — "other applications of directly using a
//! BFH" (paper §IX).
//!
//! Given a focal tree (e.g. a species-tree estimate) and a frequency table
//! over gene trees or bootstrap replicates, each internal edge of the
//! focal tree gets the fraction of reference trees containing its split —
//! the familiar bootstrap/gene-concordance support value. One table serves
//! any number of focal trees; no pairwise comparisons happen at all.

use crate::rf::SplitFrequency;
use phylo::{Bipartition, NodeId, TaxonSet, Tree};

/// Support of one internal edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSupport {
    /// The child node whose parent edge carries the split.
    pub node: NodeId,
    /// The canonical split below that edge.
    pub split: Bipartition,
    /// Number of reference trees containing the split.
    pub count: u32,
    /// `count / r`, in `[0, 1]`.
    pub fraction: f64,
}

/// Annotate every internal edge of `tree` with its reference-collection
/// support, read from any frequency table (such as a
/// [`crate::FrozenBfh`]). Trivial edges (leaves, root) carry no split and
/// are skipped.
///
/// # Panics
/// Panics if the table holds no reference trees.
pub fn edge_support(tree: &Tree, taxa: &TaxonSet, freqs: &impl SplitFrequency) -> Vec<EdgeSupport> {
    assert!(
        freqs.reference_count() > 0,
        "support against an empty reference collection"
    );
    let r = freqs.reference_count() as f64;
    let n = taxa.len();
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    let masks = tree.subtree_masks(n);
    let leafset = &masks[root.index()];
    let n_leaves = leafset.count_ones() as usize;
    let mut seen = phylo_bitset::bits_set_with_capacity(tree.num_nodes());
    let mut out = Vec::new();
    for node in tree.postorder() {
        if node == root || tree.is_leaf(node) {
            continue;
        }
        let mask = &masks[node.index()];
        let ones = mask.count_ones() as usize;
        if ones < 2 || ones > n_leaves - 2 {
            continue;
        }
        let split = Bipartition::new(mask.clone(), leafset);
        if !seen.insert(split.bits().clone()) {
            continue; // the duplicated root edge of a bifurcating root
        }
        let count = freqs.split_frequency(split.bits());
        out.push(EdgeSupport {
            node,
            split,
            count,
            fraction: f64::from(count) / r,
        });
    }
    out
}

/// Serialize `tree` with support fractions as internal node labels, e.g.
/// `((a,b)0.97,(c,d)0.66);` — the conventional way phylogenetics tools
/// exchange support values.
pub fn write_newick_with_support(
    tree: &Tree,
    taxa: &TaxonSet,
    freqs: &impl SplitFrequency,
) -> String {
    // Labels indexed by node id: one pass over the supports instead of a
    // per-node linear scan during serialization.
    let mut labels: Vec<Option<String>> = vec![None; tree.num_nodes()];
    for s in edge_support(tree, taxa, freqs) {
        labels[s.node.index()] = Some(format!("{:.2}", s.fraction));
    }
    let mut out = String::new();
    if let Some(root) = tree.root() {
        write_node(tree, taxa, root, &labels, &mut out);
    }
    out.push(';');
    out
}

fn write_node(
    tree: &Tree,
    taxa: &TaxonSet,
    node: NodeId,
    labels: &[Option<String>],
    out: &mut String,
) {
    enum Frame {
        Enter(NodeId),
        Sep,
        Exit(NodeId),
    }
    let mut stack = vec![Frame::Enter(node)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(n) => {
                let kids = tree.children(n);
                if kids.is_empty() {
                    if let Some(t) = tree.taxon(n) {
                        out.push_str(taxa.label(t));
                    }
                } else {
                    out.push('(');
                    stack.push(Frame::Exit(n));
                    for (i, &c) in kids.iter().enumerate().rev() {
                        stack.push(Frame::Enter(c));
                        if i > 0 {
                            stack.push(Frame::Sep);
                        }
                    }
                }
            }
            Frame::Sep => out.push(','),
            Frame::Exit(n) => {
                out.push(')');
                if let Some(label) = &labels[n.index()] {
                    out.push_str(label);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bfh;
    use phylo::TreeCollection;

    fn setup() -> (TreeCollection, Bfh) {
        // {A,B} in 3/4 trees, {E,F} in 4/4, {C,D} in 2/4
        let coll = TreeCollection::parse(
            "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,F)));\n((A,B),(C,(D,(E,F))));\n((A,C),((B,D),(E,F)));",
        )
        .unwrap();
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        (coll, bfh)
    }

    #[test]
    fn fractions_match_known_frequencies() {
        let (coll, bfh) = setup();
        let focal = &coll.trees[0];
        let supports = edge_support(focal, &coll.taxa, &bfh);
        assert_eq!(supports.len(), 3, "6-leaf binary tree: n-3 internal edges");
        assert_eq!(edge_support(focal, &coll.taxa, &bfh.freeze()), supports);
        // Keyed by the canonical mask itself, not a rendered string — the
        // same word-level keys every hash in the workspace probes with.
        let mut by_split: phylo_bitset::BitsMap<f64> = phylo_bitset::bits_map_with_capacity(8);
        for s in &supports {
            by_split.insert(s.split.bits().clone(), s.fraction);
        }
        let n = coll.taxa.len();
        let mask = |idx: &[usize]| phylo_bitset::Bits::from_indices(n, idx.iter().copied());
        // {A,B} canonical: contains taxon A (bit 0)
        assert_eq!(by_split[&mask(&[0, 1])], 0.75);
        // {E,F} canonical: complement {A,B,C,D}
        assert_eq!(by_split[&mask(&[0, 1, 2, 3])], 1.0);
        // {C,D} canonical: complement {A,B,E,F}
        assert_eq!(by_split[&mask(&[0, 1, 4, 5])], 0.5);
        // word-slice probes resolve the same entries without owning a key
        for s in &supports {
            assert_eq!(
                phylo_bitset::map_get_words(&by_split, s.split.bits().words()),
                Some(&s.fraction)
            );
        }
    }

    #[test]
    fn newick_output_carries_labels() {
        let (coll, bfh) = setup();
        let s = write_newick_with_support(&coll.trees[0], &coll.taxa, &bfh);
        assert!(s.contains("0.75"), "{s}");
        assert!(s.contains("1.00"), "{s}");
        assert!(s.ends_with(';'));
        // it must still parse as newick (internal labels are legal)
        let mut taxa = coll.taxa.clone();
        assert!(phylo::parse_newick(&s, &mut taxa, phylo::TaxaPolicy::Require).is_ok());
    }

    #[test]
    fn self_support_of_unanimous_collection_is_one() {
        let coll = TreeCollection::parse(&"((A,B),((C,D),(E,F)));\n".repeat(6)).unwrap();
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        for s in edge_support(&coll.trees[0], &coll.taxa, &bfh) {
            assert_eq!(s.fraction, 1.0);
            assert_eq!(s.count, 6);
        }
    }

    #[test]
    fn foreign_focal_tree_gets_zero_support() {
        let (coll, bfh) = setup();
        // a topology sharing no internal split with the references
        let mut taxa = coll.taxa.clone();
        let foreign = phylo::parse_newick(
            "((A,E),((B,F),(C,D)));",
            &mut taxa,
            phylo::TaxaPolicy::Require,
        )
        .unwrap();
        let supports = edge_support(&foreign, &taxa, &bfh);
        // {C,D} appears in 2 refs; the others are absent
        let zeros = supports.iter().filter(|s| s.count == 0).count();
        assert!(zeros >= 2, "{supports:?}");
    }
}
