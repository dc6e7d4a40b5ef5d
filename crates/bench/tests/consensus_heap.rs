//! `bfhrf consensus` streams its references: each tree is parsed, its
//! canonical split masks go into one of two chunk buffers and the tree is
//! dropped, each full buffer folds straight into the frozen table's lanes,
//! and the consensus is read from that table. This counts the heap across
//! one `run_full consensus` over 2 000 insect trees (n = 144), where the
//! parsed trees alone would be ~37 MB against a table of ~7.3 MB, so
//! holding the parsed trees, or copying the table into a hash map, shows
//! as several table sizes over the limit.
//!
//! One test per binary: the counting allocator sees every thread.

use bfhrf::BfhBuilder;
use bfhrf_bench::peak_alloc::{InstallPeakAlloc, GLOBAL};
use phylo_sim::datasets::{generate, DatasetSpec};
use std::io::Write;

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// Reference trees in the file.
const R: usize = 2_000;

#[test]
fn streamed_consensus_holds_no_tree_and_no_hash() {
    let path =
        std::env::temp_dir().join(format!("bfhrf-consensus-heap-{}.nwk", std::process::id()));
    let coll = generate(&DatasetSpec::insect().with_trees(R));
    let table = BfhBuilder::new()
        .freeze_trees(&coll.trees, &coll.taxa)
        .unwrap()
        .approx_bytes();
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    for tree in &coll.trees {
        writeln!(file, "{}", phylo::write_newick(tree, &coll.taxa)).unwrap();
    }
    drop(file);
    drop(coll);

    let argv: Vec<String> = ["consensus", "--refs", &path.display().to_string()]
        .map(String::from)
        .to_vec();
    GLOBAL.reset_peak();
    let start = GLOBAL.current_bytes();
    let out = bfhrf_cli::run_full(&argv).unwrap();
    let peak = GLOBAL.peak_bytes() - start;
    assert_eq!(out.code, bfhrf_cli::EXIT_OK);
    assert!(out.stdout.ends_with(";\n"));
    std::fs::remove_file(&path).ok();

    let mb = |b: usize| b as f64 / 1e6;
    let ratio = peak as f64 / table as f64;
    println!(
        "consensus peak {:.2} MB = {ratio:.3} × the {:.2} MB table",
        mb(peak),
        mb(table)
    );
    assert!(
        ratio < BOUND,
        "consensus peaked at {:.2} MB, {ratio:.2} × the {:.2} MB table",
        mb(peak),
        mb(table)
    );
}

/// Peak heap over the table's bytes. The streamed build peaks at the table
/// next to both chunk buffers (2 × 0.87 MB): 9.64 MB, 1.33 × the table.
/// Parsing every tree first and copying the table into a hash map peaked
/// at 55.5 MB, 7.6 ×; a hash copy alone would add well over 1 ×.
const BOUND: f64 = 1.46;
