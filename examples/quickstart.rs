//! Quickstart: average Robinson-Foulds of query trees against a reference
//! collection with BFHRF.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bfhrf::{best_query, bfhrf_all, BfhBuilder};
use phylo::{read_trees_from_str, TaxaPolicy, TreeCollection};

fn main() {
    // Reference collection: three gene trees over six taxa. In real use
    // this comes from a file — TreeCollection::parse takes any
    // `;`-separated Newick text.
    let mut refs = TreeCollection::parse(
        "((human,chimp),((rat,mouse),(dog,cat)));
         ((human,chimp),((rat,mouse),(dog,cat)));
         (((human,chimp),rat),(mouse,(dog,cat)));",
    )
    .expect("valid newick");

    // Query trees are parsed against the SAME taxon namespace so the
    // bipartition bitmasks line up (`TaxaPolicy::Require`).
    let queries = read_trees_from_str(
        "((human,chimp),((rat,mouse),(dog,cat)));
         ((human,rat),((chimp,mouse),(dog,cat)));",
        &mut refs.taxa,
        TaxaPolicy::Require,
    )
    .expect("queries use known taxa");

    // 1. Build the bipartition frequency table over the references.
    let table = BfhBuilder::new()
        .freeze_trees(&refs.trees, &refs.taxa)
        .expect("references live in their own namespace");
    println!(
        "table: {} distinct bipartitions, {} total occurrences over {} trees",
        table.distinct(),
        table.sum(),
        table.n_trees()
    );

    // 2. One tree-vs-table comparison per query.
    let scores = bfhrf_all(&queries, &refs.taxa, &table).expect("nonempty inputs");
    for s in &scores {
        println!(
            "query {}: average RF = {:.4} (total {}, left {}, right {})",
            s.index,
            s.rf.average(),
            s.rf.total(),
            s.rf.left,
            s.rf.right
        );
    }

    // 3. Pick the query closest to the collection.
    let best = best_query(&scores).expect("nonempty");
    println!(
        "best query: #{} with average RF {:.4}",
        best.index,
        best.rf.average()
    );
    assert_eq!(best.index, 0, "the concordant topology wins");
}
