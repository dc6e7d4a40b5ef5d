//! The paper's motivating workload (§I): given candidate species trees
//! (queries) and a collection of gene trees (references), find the
//! candidate with the lowest average RF — the most-parsimonious
//! representative under the RF criterion.
//!
//! We simulate the setting end-to-end: a true species tree generates gene
//! trees under the multispecies coalescent; candidates are NNI
//! perturbations of the truth (plus the truth itself); BFHRF must rank the
//! true tree first.
//!
//! ```text
//! cargo run --release --example species_tree_search
//! ```

use bfhrf::{best_query, BfhBuilder, Comparator, FrozenComparator};
use phylo_sim::coalescent::MscSimulator;
use phylo_sim::perturb::nni_walk;
use phylo_sim::species::kingman_species_tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n_taxa = 40;
    let n_genes = 2000;
    let n_candidates = 24;

    // Ground truth + gene trees with moderate incomplete lineage sorting.
    let (species, taxa) = kingman_species_tree(n_taxa, 1.0, 2024);
    // pop_scale 0.1: moderate incomplete lineage sorting — enough noise to
    // make the search non-trivial, not so much that the average-RF optimum
    // drifts off the true tree (at high ILS it legitimately can).
    let mut sim = MscSimulator::new(species.clone(), taxa.clone(), 0.1, 7);
    let genes = sim.gene_trees(n_genes);
    println!("simulated {n_genes} gene trees over {n_taxa} taxa");

    // Candidate set: the truth plus perturbations at increasing distance.
    let mut rng = StdRng::seed_from_u64(99);
    let mut candidates = vec![species.clone()];
    for k in 1..n_candidates {
        candidates.push(nni_walk(&species, 1 + k / 4, &mut rng));
    }

    // Fold the gene trees into one frequency table; score every candidate
    // in parallel.
    let table = BfhBuilder::new()
        .parallel(true)
        .freeze_trees(&genes.trees, &genes.taxa)
        .expect("gene trees live in their own namespace");
    let scores = FrozenComparator::new(&table, &genes.taxa)
        .parallel(true)
        .average_all(&candidates)
        .expect("nonempty");

    let mut ranked = scores.clone();
    ranked.sort_by_key(|a| a.rf.total());
    println!("\nrank  candidate  avg RF to gene trees");
    for (rank, s) in ranked.iter().take(8).enumerate() {
        let marker = if s.index == 0 {
            "  <- true species tree"
        } else {
            ""
        };
        println!(
            "{:>4}  {:>9}  {:.4}{}",
            rank + 1,
            s.index,
            s.rf.average(),
            marker
        );
    }

    let best = best_query(&scores).expect("nonempty");
    assert_eq!(
        best.index, 0,
        "the true species tree must minimize average RF to its own gene trees"
    );
    println!("\nthe true species tree (candidate 0) wins, as expected");
}
