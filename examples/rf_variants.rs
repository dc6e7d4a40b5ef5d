//! The extensibility story (paper §VII.D–F): RF variants as drop-in
//! preprocessing/weighting over the same frequency table.
//!
//! Shows, on one dataset: plain average RF, the normalized and halved
//! conventions, information-content weighting, bipartition-size
//! filtering, variable-taxa restriction, and the pairwise branch-score
//! distance.
//!
//! ```text
//! cargo run --example rf_variants
//! ```

use bfhrf::variants::{
    branch_score, normalized_average, GeneralizedRf, PhyloInfoWeight, SizeFilteredRf, UnitWeight,
};
use bfhrf::{bfhrf_average, BfhBuilder};
use phylo::{read_trees_from_str, TaxaPolicy, TreeCollection};

fn main() {
    let mut refs = TreeCollection::parse(
        "((a,b),((c,d),((e,f),(g,h))));
         ((a,b),((c,d),((e,g),(f,h))));
         ((a,b),(((c,e),d),(f,(g,h))));
         ((a,c),((b,d),((e,f),(g,h))));",
    )
    .unwrap();
    let query = read_trees_from_str(
        "((a,b),((c,d),((e,f),(g,h))));",
        &mut refs.taxa,
        TaxaPolicy::Require,
    )
    .unwrap()
    .remove(0);
    let n = refs.taxa.len();
    let table = BfhBuilder::new()
        .freeze_trees(&refs.trees, &refs.taxa)
        .unwrap();

    // Plain, halved, normalized — the conventions §II.C mentions.
    let rf = bfhrf_average(&query, &refs.taxa, &table);
    println!("average RF             : {:.4}", rf.average());
    println!("average RF / 2         : {:.4}", rf.average_halved());
    println!("normalized to [0,1]    : {:.4}", normalized_average(&rf, n));

    // Generalized RF with split weights.
    let unit = GeneralizedRf::new(&table, UnitWeight);
    let info = GeneralizedRf::new(&table, PhyloInfoWeight::new(n));
    println!(
        "unit-weighted (check)  : {:.4}",
        unit.average(&query, &refs.taxa)
    );
    println!(
        "info-content weighted  : {:.4}",
        info.average(&query, &refs.taxa)
    );

    // Bipartition-size filtering — the variant the paper implements.
    let cherries_only = SizeFilteredRf::new(&refs.trees, &refs.taxa, 2, 2);
    println!(
        "cherry-splits only     : {:.4}  ({} reference splits kept)",
        cherries_only.average(&query, &refs.taxa).average(),
        cherries_only.splits().count()
    );

    // Variable taxa: a second collection missing taxon h entirely.
    let refs_small = TreeCollection::parse(
        "((a,b),((c,d),(e,(f,g))));
         ((a,b),((c,e),(d,(f,g))));",
    )
    .unwrap();
    let queries_full = TreeCollection::parse("((a,b),((c,d),((e,f),(g,h))));").unwrap();
    let common = bfhrf::variable_taxa::common_taxa_rf(&refs_small, &queries_full)
        .expect("enough shared taxa");
    println!(
        "variable taxa          : {:.4}  (on {} common taxa)",
        common.scores[0].rf.average(),
        common.taxa.len()
    );

    // Branch-score distance needs branch lengths: pairwise only.
    let mut wt = phylo::TaxonSet::new();
    let weighted = read_trees_from_str(
        "((a:1,b:1):0.5,(c:1,d:1):0.5);
         ((a:1,b:1):0.9,(c:1,d:1):0.9);",
        &mut wt,
        TaxaPolicy::Grow,
    )
    .unwrap();
    println!(
        "branch score (pairwise): {:.4}",
        branch_score(&weighted[0], &weighted[1], &wt)
    );
}
