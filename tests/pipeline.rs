//! Cross-crate integration: simulation → serialization → parsing →
//! analysis, with every algorithm agreeing along the way.

use bfhrf::{
    best_query, bfhrf_all, day_rf, Bfh, BfhBuilder, BfhrfComparator, Comparator, HashRf,
    HashRfConfig,
};
use phylo::{BipartitionSet, TaxaPolicy, TaxonSet};
use phylo_sim::coalescent::MscSimulator;
use phylo_sim::datasets::{read_collection, write_collection, DatasetSpec};
use phylo_sim::species::kingman_species_tree;
use std::io::BufReader;

#[test]
fn simulate_write_read_analyze() {
    let dir = std::env::temp_dir().join("bfhrf-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.nwk");

    // simulate and persist
    let spec = DatasetSpec::new("integration", 24, 60, 7);
    let coll = phylo_sim::generate(&spec);
    write_collection(&path, &coll).unwrap();

    // reload from disk; namespace numbering may differ but labels agree
    let reloaded = read_collection(&path).unwrap();
    assert_eq!(reloaded.len(), 60);
    assert_eq!(reloaded.taxa.len(), 24);

    // all four implementations agree on the reloaded data (Q is R)
    let bfh = Bfh::build(&reloaded.trees, &reloaded.taxa);
    let fast = bfhrf_all(&reloaded.trees, &reloaded.taxa, &bfh).unwrap();
    let slow = bfhrf::sequential_rf(&reloaded.trees, &reloaded.trees, &reloaded.taxa).unwrap();
    assert_eq!(fast, slow);
    let h = HashRf::compute(&reloaded.trees, &reloaded.taxa, &HashRfConfig::default()).unwrap();
    for s in &fast {
        assert!((h.averages()[s.index] - s.rf.average()).abs() < 1e-9);
    }
    // Day's oracle on a sample of pairs
    for i in [0usize, 7, 33] {
        let total: u64 = reloaded
            .trees
            .iter()
            .map(|t| day_rf(&reloaded.trees[i], t, &reloaded.taxa) as u64)
            .sum();
        assert_eq!(total, fast[i].rf.total());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn streaming_file_analysis_matches_in_memory() {
    let dir = std::env::temp_dir().join("bfhrf-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.nwk");
    let spec = DatasetSpec::new("stream", 16, 40, 9);
    let coll = phylo_sim::generate(&spec);
    write_collection(&path, &coll).unwrap();

    // streaming build + streaming queries against the file
    let mut taxa = TaxonSet::with_numbered("t", 16);
    let open = || {
        phylo::NewickReader::new(
            BufReader::new(std::fs::File::open(&path).unwrap()),
            TaxaPolicy::Require,
            phylo::IngestPolicy::Strict,
        )
    };
    let bfh_streamed = BfhBuilder::new()
        .parallel(true)
        .freeze_stream(&mut taxa, &mut open())
        .unwrap();
    let streamed = bfhrf::rf::bfhrf_streaming(
        &bfh_streamed,
        &mut taxa,
        false,
        &bfhrf::RunGuard::default(),
        &mut open(),
    )
    .unwrap();

    // in-memory reference result
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let batch = bfhrf_all(&coll.trees, &coll.taxa, &bfh).unwrap();

    assert_eq!(batch.len(), streamed.len());
    for (a, b) in batch.iter().zip(&streamed) {
        assert_eq!(a.rf.total(), b.rf.total());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn species_tree_recovery_under_low_ils() {
    // with long species branches the gene trees concentrate on the truth:
    // the species tree minimizes avg RF and the consensus recovers it
    let (species, taxa) = kingman_species_tree(20, 2.0, 31);
    let mut sim = MscSimulator::new(species.clone(), taxa.clone(), 0.01, 17);
    let genes = sim.gene_trees(200);

    let bfh = BfhBuilder::new()
        .parallel(true)
        .freeze_trees(&genes.trees, &genes.taxa)
        .unwrap();

    // candidate ranking: truth + perturbations
    use phylo_sim::perturb::nni_walk;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut candidates = vec![species.clone()];
    for k in 1..10 {
        candidates.push(nni_walk(&species, k, &mut rng));
    }
    let scores = BfhrfComparator::new(&bfh, &genes.taxa)
        .parallel(true)
        .average_all(&candidates)
        .unwrap();
    assert_eq!(best_query(&scores).unwrap().index, 0);

    // consensus recovery
    let maj = bfhrf::consensus::majority_consensus(&bfh, &genes.taxa, 0.5).unwrap();
    let truth = BipartitionSet::from_tree(&species, &taxa);
    let got = BipartitionSet::from_tree(&maj, &genes.taxa);
    // a borderline split can dip below 50% by sampling noise; allow at
    // most one unresolved edge
    assert!(
        truth.rf_distance(&got) <= 1,
        "majority consensus ≈ species tree, RF = {}",
        truth.rf_distance(&got)
    );
}

#[test]
fn variable_taxa_pipeline() {
    // collections missing different taxa still compare on the common core
    let refs = phylo::TreeCollection::parse(
        "((a,b),((c,d),((e,f),g)));
         ((a,b),((c,d),(e,(f,g))));
         ((a,(b,h)),((c,d),(e,f)));",
    )
    .unwrap();
    let queries = phylo::TreeCollection::parse("((a,b),((c,d),(e,(f,i))));").unwrap();
    let out = bfhrf::variable_taxa::common_taxa_rf(&refs, &queries).unwrap();
    // common to every tree: a,b,c,d,e,f (g missing in tree 3, h only in
    // tree 3, i only in the query)
    assert_eq!(out.taxa.len(), 6);
    for t in out.refs.iter().chain(&out.queries) {
        assert_eq!(t.leaf_count(), 6);
    }
    // the restricted query shares {a,b} and {c,d} with every reference
    let score = out.scores[0];
    let direct = bfhrf::sequential_rf(&out.queries, &out.refs, &out.taxa).unwrap()[0];
    assert_eq!(score.rf.total(), direct.rf.total());
}

#[test]
fn incremental_hash_tracks_live_collection() {
    let spec = DatasetSpec::new("inc", 12, 30, 13);
    let coll = phylo_sim::generate(&spec);
    // sliding window of 10 trees over the collection
    let mut bfh = Bfh::empty(coll.taxa.len());
    for t in &coll.trees[..10] {
        bfh.add_tree(t, &coll.taxa);
    }
    for step in 0..20 {
        bfh.remove_tree(&coll.trees[step], &coll.taxa).unwrap();
        bfh.add_tree(&coll.trees[step + 10], &coll.taxa);
        // window now covers trees step+1 ..= step+10
        let window = &coll.trees[step + 1..step + 11];
        let direct = Bfh::build(window, &coll.taxa);
        assert_eq!(bfh.sum(), direct.sum(), "window at step {step}");
        assert_eq!(bfh.distinct(), direct.distinct());
        // spot-check a query against both
        let a = bfhrf::bfhrf_average(&coll.trees[0], &coll.taxa, &bfh);
        let b = bfhrf::bfhrf_average(&coll.trees[0], &coll.taxa, &direct);
        assert_eq!(a, b);
    }
}
