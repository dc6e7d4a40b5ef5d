//! End-to-end variable-taxa workflow: simulate a fixed-taxa collection,
//! apply fragmentary-data dropout, and push the result through the
//! common-taxa RF pathway and the consensus machinery — the supertree-ish
//! use case the paper's extensibility sections target.

use bfhrf::variable_taxa::common_taxa_rf;
use bfhrf::Bfh;
use phylo::TreeCollection;
use phylo_sim::dropout::with_dropout;
use phylo_sim::DatasetSpec;

fn concordant_collection(n: usize, r: usize, seed: u64) -> TreeCollection {
    let mut spec = DatasetSpec::new("vt", n, r, seed);
    spec.pop_scale = 0.05; // low ILS so the species signal survives dropout
    phylo_sim::generate(&spec)
}

#[test]
fn dropout_then_common_taxa_rf() {
    // The all-tree taxon intersection decays as (1-p)^r, so realistic
    // variable-taxa analyses use low per-tree dropout or few trees.
    let base = concordant_collection(30, 12, 11);
    let refs = with_dropout(&base, 0.03, 20, 3);
    let queries = TreeCollection {
        taxa: base.taxa.clone(),
        trees: base.trees[..5].to_vec(),
    };
    let out = common_taxa_rf(&refs, &queries).unwrap();
    assert!(out.taxa.len() >= 4, "some taxa survive every tree");
    assert!(out.taxa.len() <= 30);
    assert_eq!(out.scores.len(), 5);
    // concordant data restricted to common taxa: distances stay small
    // relative to the 2(n-3) ceiling
    let ceiling = 2.0 * (out.taxa.len() as f64 - 3.0);
    for s in &out.scores {
        assert!(
            s.rf.average() < ceiling / 2.0,
            "query {} avg {} vs ceiling {ceiling}",
            s.index,
            s.rf.average()
        );
    }
    // the restricted result agrees with the naive loop on the same inputs
    let naive = bfhrf::sequential_rf(&out.queries, &out.refs, &out.taxa).unwrap();
    for (a, b) in out.scores.iter().zip(&naive) {
        assert_eq!(a.rf.total(), b.rf.total());
    }
}

#[test]
fn consensus_of_restricted_collection_is_valid() {
    let base = concordant_collection(24, 10, 7);
    let refs = with_dropout(&base, 0.04, 12, 9);
    let queries = TreeCollection {
        taxa: base.taxa.clone(),
        trees: vec![base.trees[0].clone()],
    };
    let out = common_taxa_rf(&refs, &queries).unwrap();
    let maj = bfhrf::consensus::majority_consensus(&out.table, &out.taxa, 0.5).unwrap();
    let greedy = bfhrf::consensus::greedy_consensus(&out.table, &out.taxa).unwrap();
    assert!(maj.validate(&out.taxa).is_ok());
    assert!(greedy.validate(&out.taxa).is_ok());
    assert_eq!(maj.leaf_count(), out.taxa.len());
    // concordant source → the consensus should be well resolved
    let resolution = phylo::stats::tree_stats(&greedy).resolution;
    assert!(resolution > 0.5, "greedy resolution {resolution}");
}

#[test]
fn support_annotation_on_restricted_species_tree() {
    let base = concordant_collection(20, 12, 13);
    let refs = with_dropout(&base, 0.04, 10, 21);
    let queries = TreeCollection {
        taxa: base.taxa.clone(),
        trees: vec![base.trees[0].clone()],
    };
    let out = common_taxa_rf(&refs, &queries).unwrap();
    let bfh = Bfh::build(&out.refs, &out.taxa);
    let focal = &out.queries[0];
    let supports = bfhrf::support::edge_support(focal, &out.taxa, &bfh);
    assert!(!supports.is_empty());
    for s in &supports {
        assert!(s.fraction >= 0.0 && s.fraction <= 1.0);
        assert_eq!(s.count, bfh.frequency(s.split.bits()));
    }
    // low-ILS concordant collection: mean support is high even after
    // dropout-restriction
    let mean: f64 = supports.iter().map(|s| s.fraction).sum::<f64>() / supports.len() as f64;
    assert!(mean > 0.4, "mean support {mean}");
}
