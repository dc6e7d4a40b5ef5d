//! Gene-concordance support values from the frequency table.
//!
//! A direct application of the BFH beyond average RF (paper §IX): each
//! edge of a focal species tree is annotated with the fraction of gene
//! trees containing its split — the gene concordance factor. Deep, short
//! branches (prone to incomplete lineage sorting) get visibly lower
//! support than long ones.
//!
//! ```text
//! cargo run --release --example gene_concordance
//! ```

use bfhrf::support::{edge_support, write_newick_with_support};
use bfhrf::BfhBuilder;
use phylo_sim::coalescent::MscSimulator;
use phylo_sim::species::kingman_species_tree;

fn main() {
    let (species, taxa) = kingman_species_tree(16, 1.0, 77);
    let mut sim = MscSimulator::new(species.clone(), taxa.clone(), 0.25, 3);
    let genes = sim.gene_trees(1000);

    let table = BfhBuilder::new()
        .parallel(true)
        .freeze_trees(&genes.trees, &genes.taxa)
        .expect("gene trees live in their own namespace");
    let supports = edge_support(&species, &genes.taxa, &table);

    println!("edge supports of the true species tree over 1000 gene trees:\n");
    println!("{:>10}  {:>7}  split", "count", "support");
    let mut sorted = supports.clone();
    sorted.sort_by_key(|s| std::cmp::Reverse(s.count));
    for s in &sorted {
        println!("{:>10}  {:>6.1}%  {}", s.count, s.fraction * 100.0, s.split);
    }

    let annotated = write_newick_with_support(&species, &genes.taxa, &table);
    println!("\nannotated newick:\n{annotated}");

    // sanity: nearly every edge of the true tree is seen in some gene
    // tree (the very shortest branches can legitimately vanish under deep
    // coalescence), and the average support is substantial
    let supported = supports.iter().filter(|s| s.count > 0).count();
    assert!(
        supported * 5 >= supports.len() * 4,
        "at least 80% of true edges should appear: {supported}/{}",
        supports.len()
    );
    let mean: f64 = supports.iter().map(|s| s.fraction).sum::<f64>() / supports.len() as f64;
    println!("\nmean concordance factor: {:.1}%", mean * 100.0);
    assert!(mean > 0.3, "true-tree edges must be well supported");
}
