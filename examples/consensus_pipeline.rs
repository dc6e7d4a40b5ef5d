//! Consensus analysis straight from the frequency table.
//!
//! The same [`bfhrf::FrozenBfh`] that answers average-RF queries holds the
//! split frequencies a consensus method needs — one pass over the
//! collection serves both analyses (paper §VIII: "we can simplify to the
//! average RF value for most consensus type analyses").
//!
//! ```text
//! cargo run --release --example consensus_pipeline
//! ```

use bfhrf::consensus::{majority_consensus, strict_consensus};
use bfhrf::BfhBuilder;
use phylo_sim::coalescent::MscSimulator;
use phylo_sim::species::kingman_species_tree;

fn main() {
    // Gene trees with mild discordance around a 16-taxon species tree.
    let (species, taxa) = kingman_species_tree(16, 1.0, 5);
    let mut sim = MscSimulator::new(species.clone(), taxa.clone(), 0.15, 11);
    let genes = sim.gene_trees(500);

    let table = BfhBuilder::new()
        .freeze_trees(&genes.trees, &genes.taxa)
        .expect("gene trees live in their own namespace");
    println!(
        "built table over {} gene trees: {} distinct splits",
        table.n_trees(),
        table.distinct()
    );

    // Split frequency spectrum: how often is each split seen?
    let mut freqs: Vec<u32> = table.iter().map(|(_, c)| c).collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    println!("top split frequencies: {:?}", &freqs[..freqs.len().min(10)]);

    for threshold in [0.5, 0.75, 0.95] {
        let tree = majority_consensus(&table, &genes.taxa, threshold).expect("valid threshold");
        println!(
            "\nmajority consensus (> {:.0}%): {} internal splits\n  {}",
            threshold * 100.0,
            tree.bipartitions(&genes.taxa).len(),
            phylo::write_newick(&tree, &genes.taxa)
        );
    }

    let strict = strict_consensus(&table, &genes.taxa).expect("nonempty");
    println!(
        "\nstrict consensus: {} internal splits\n  {}",
        strict.bipartitions(&genes.taxa).len(),
        phylo::write_newick(&strict, &genes.taxa)
    );

    // With mild ILS the majority consensus should recover the species tree.
    let maj = majority_consensus(&table, &genes.taxa, 0.5).unwrap();
    let truth = phylo::BipartitionSet::from_tree(&species, &taxa);
    let got = phylo::BipartitionSet::from_tree(&maj, &genes.taxa);
    println!(
        "\nRF(majority consensus, true species tree) = {}",
        truth.rf_distance(&got)
    );
}
