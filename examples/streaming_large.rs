//! Streaming BFHRF over a large on-disk collection — the memory story.
//!
//! The paper's headline memory result (Table III: 1.3 GB where baselines
//! need 27–37 GB) comes from never materializing the collection: the
//! frequency table is built from a stream and the queries are answered
//! without the trees. This example writes a 20k-tree collection to disk,
//! then runs the whole analysis from the file with only the table and each
//! tree's splits resident.
//!
//! ```text
//! cargo run --release --example streaming_large
//! ```

use bfhrf::{BfhBuilder, RunGuard};
use phylo::{IngestPolicy, NewickReader, TaxaPolicy, TaxonSet};
use phylo_sim::datasets::{write_collection, DatasetSpec};
use std::io::BufReader;
use std::time::Instant;

fn main() {
    let n_taxa = 100;
    let n_trees = 20_000;
    let path = std::env::temp_dir().join("bfhrf-streaming-demo.nwk");

    // Materialize once, to disk (this is the dataset, not the algorithm).
    let spec = DatasetSpec::new("streaming-demo", n_taxa, n_trees, 42);
    let coll = phylo_sim::generate(&spec);
    write_collection(&path, &coll).expect("write dataset");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "dataset: {n_trees} trees / {n_taxa} taxa, {:.1} MB on disk",
        bytes as f64 / 1e6
    );
    drop(coll); // nothing of the collection stays in memory

    // Phase 1: stream the references into the frozen table. The builder
    // reads each record straight into its split masks in a chunk buffer,
    // so no tree is ever built; each full buffer is folded straight into
    // the table's lanes while the next one fills.
    // Keeping the splits gives each tree's pool ranks back for scoring
    // Q = R.
    let mut taxa = TaxonSet::new();
    let t0 = Instant::now();
    let file = std::fs::File::open(&path).expect("open refs");
    let mut stream =
        NewickReader::new(BufReader::new(file), TaxaPolicy::Grow, IngestPolicy::Strict);
    let (table, kept) = BfhBuilder::new()
        .parallel(true)
        .freeze_stream_kept(&mut taxa, &mut stream)
        .expect("build from the stream");
    println!(
        "table built in {:.2}s: {} distinct splits from {} trees \
         (approx {:.1} MB table, {:.1} MB kept splits)",
        t0.elapsed().as_secs_f64(),
        table.distinct(),
        table.n_trees(),
        table.approx_bytes() as f64 / 1e6,
        kept.approx_bytes() as f64 / 1e6
    );

    // Phase 2: Q is R, so score the kept splits against the table — no
    // tree is parsed, extracted or probed twice.
    let t1 = Instant::now();
    let scores = kept
        .score(&table, true, &RunGuard::default())
        .expect("score the references");
    let mean: f64 = scores.iter().map(|s| s.rf.average()).sum::<f64>() / scores.len() as f64;
    println!(
        "scored {} queries in {:.2}s; mean average RF = {:.3}",
        scores.len(),
        t1.elapsed().as_secs_f64(),
        mean
    );

    std::fs::remove_file(&path).ok();
}
