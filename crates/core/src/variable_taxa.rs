//! Variable-taxa RF via restriction to the common taxon set.
//!
//! Real collections rarely share identical taxa (paper §VII.E). The
//! standard supertree-style reduction compares trees on the intersection
//! of their leaf sets: every tree is restricted to the taxa common to
//! **all** trees of both collections, re-encoded over a dense
//! sub-namespace, and then ordinary BFHRF runs unchanged — the table never
//! needed the fixed-taxa assumption, only consistent bitmask layouts.

use crate::builder::BfhBuilder;
use crate::frozen::FrozenBfh;
use crate::rf::{bfhrf_all, QueryScore};
use crate::CoreError;
use phylo::{TaxonSet, Tree, TreeCollection};
use phylo_bitset::Bits;

/// Labels present on every tree of the collection (not merely in its
/// namespace).
fn common_labels(coll: &TreeCollection) -> Vec<String> {
    let n = coll.taxa.len();
    let mut acc = Bits::ones(n);
    for tree in &coll.trees {
        acc.intersect_with(&tree.leafset(n));
    }
    acc.iter_ones()
        .map(|i| coll.taxa.label(phylo::TaxonId(i as u32)).to_string())
        .collect()
}

/// Restrict every tree of `coll` to `labels` and re-encode over the dense
/// namespace `sub`.
fn restrict_collection(
    coll: &TreeCollection,
    labels: &[String],
    sub: &TaxonSet,
) -> Result<Vec<Tree>, CoreError> {
    let keep = Bits::from_indices(
        coll.taxa.len(),
        labels
            .iter()
            .map(|l| coll.taxa.get(l).expect("common label exists").index()),
    );
    let mut out = Vec::with_capacity(coll.len());
    for tree in &coll.trees {
        let mut restricted = tree.restricted(&keep)?;
        // remap taxon ids: old namespace → dense sub-namespace
        for node in restricted.postorder() {
            if let Some(old) = restricted.taxon(node) {
                let label = coll.taxa.label(old);
                let new = sub.get(label).expect("kept taxa are in the sub-namespace");
                restricted.set_taxon(node, Some(new));
            }
        }
        out.push(restricted);
    }
    Ok(out)
}

/// Result of a variable-taxa BFHRF run.
#[derive(Debug)]
pub struct CommonTaxaRf {
    /// The dense namespace of taxa shared by every tree of both
    /// collections, in reference-namespace order.
    pub taxa: TaxonSet,
    /// References restricted and re-encoded over [`CommonTaxaRf::taxa`].
    pub refs: Vec<Tree>,
    /// Queries restricted and re-encoded over [`CommonTaxaRf::taxa`].
    pub queries: Vec<Tree>,
    /// The frequency table over the restricted references.
    pub table: FrozenBfh,
    /// Per-query average RF on the common taxa.
    pub scores: Vec<QueryScore>,
}

/// Run BFHRF between two collections with (possibly) different taxa by
/// reducing both to the taxa common to every tree.
///
/// Errors if fewer than four taxa survive (no non-trivial splits exist
/// below that, so every distance would be trivially zero).
pub fn common_taxa_rf(
    refs: &TreeCollection,
    queries: &TreeCollection,
) -> Result<CommonTaxaRf, CoreError> {
    if refs.is_empty() {
        return Err(CoreError::EmptyReference);
    }
    if queries.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    let ref_common = common_labels(refs);
    let query_common: std::collections::HashSet<String> =
        common_labels(queries).into_iter().collect();
    let shared: Vec<String> = ref_common
        .into_iter()
        .filter(|l| query_common.contains(l))
        .collect();
    if shared.len() < 4 {
        return Err(CoreError::TaxaMismatch(format!(
            "only {} taxa common to all trees; need at least 4",
            shared.len()
        )));
    }
    let mut taxa = TaxonSet::new();
    for l in &shared {
        taxa.intern(l);
    }
    let refs_r = restrict_collection(refs, &shared, &taxa)?;
    let queries_r = restrict_collection(queries, &shared, &taxa)?;
    let table = BfhBuilder::new().freeze_trees(&refs_r, &taxa)?;
    let scores = bfhrf_all(&queries_r, &taxa, &table)?;
    Ok(CommonTaxaRf {
        taxa,
        refs: refs_r,
        queries: queries_r,
        table,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_taxa_reduces_to_plain_bfhrf() {
        let refs = TreeCollection::parse("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));").unwrap();
        let queries = TreeCollection::parse("((A,B),((C,D),(E,F)));").unwrap();
        let out = common_taxa_rf(&refs, &queries).unwrap();
        assert_eq!(out.taxa.len(), 6);
        // compare with the direct computation on the shared namespace
        let mut refs2 = refs.clone();
        let q2 = phylo::read_trees_from_str(
            "((A,B),((C,D),(E,F)));",
            &mut refs2.taxa,
            phylo::TaxaPolicy::Require,
        )
        .unwrap();
        let bfh = crate::Bfh::build(&refs2.trees, &refs2.taxa);
        let direct = bfhrf_all(&q2, &refs2.taxa, &bfh).unwrap();
        assert_eq!(out.scores[0].rf.total(), direct[0].rf.total());
    }

    #[test]
    fn extra_taxa_are_dropped() {
        // references know G, queries know H; neither survives
        let refs = TreeCollection::parse("(((A,B),G),((C,D),(E,F)));\n(((A,C),B),((D,G),(E,F)));")
            .unwrap();
        let queries = TreeCollection::parse("(((A,B),H),((C,D),(E,F)));").unwrap();
        let out = common_taxa_rf(&refs, &queries).unwrap();
        assert_eq!(out.taxa.len(), 6);
        assert!(out.taxa.get("G").is_none());
        assert!(out.taxa.get("H").is_none());
        for t in out.refs.iter().chain(&out.queries) {
            assert_eq!(t.leaf_count(), 6);
            assert!(t.validate(&out.taxa).is_ok());
        }
        // the first reference restricted equals the query restricted:
        // distance contribution 0 from it
        assert_eq!(out.scores.len(), 1);
    }

    #[test]
    fn variable_taxa_within_one_collection() {
        // trees missing different taxa: common set is the intersection
        let refs =
            TreeCollection::parse("((A,B),((C,D),(E,F)));\n((A,B),((C,D),E));\n((A,B),(C,(D,F)));")
                .unwrap();
        let queries = TreeCollection::parse("((A,B),(C,D));").unwrap();
        let out = common_taxa_rf(&refs, &queries).unwrap();
        // common to all refs: A,B,C,D,(E missing in tree3),(F missing in tree2)
        assert_eq!(out.taxa.len(), 4);
        let labels: Vec<&str> = out.taxa.iter().map(|(_, l)| l).collect();
        assert_eq!(labels, ["A", "B", "C", "D"]);
        // all restricted trees carry the {A,B} split → query distance 0
        assert_eq!(out.scores[0].rf.total(), 0);
    }

    #[test]
    fn too_few_common_taxa_is_an_error() {
        let refs = TreeCollection::parse("((A,B),(C,D));").unwrap();
        let queries = TreeCollection::parse("((A,B),(X,Y));").unwrap();
        assert!(matches!(
            common_taxa_rf(&refs, &queries).unwrap_err(),
            CoreError::TaxaMismatch(_)
        ));
    }

    #[test]
    fn empty_collections_error() {
        let refs = TreeCollection::parse("((A,B),(C,D));").unwrap();
        let empty = TreeCollection::default();
        assert_eq!(
            common_taxa_rf(&empty, &refs).unwrap_err(),
            CoreError::EmptyReference
        );
        assert_eq!(
            common_taxa_rf(&refs, &empty).unwrap_err(),
            CoreError::EmptyQuery
        );
    }
}
