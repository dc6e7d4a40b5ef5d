//! Offline `avgrf` with Q = R streams its references: the builder holds
//! one parsed tree at a time, extracts its canonical split masks into one
//! of two chunk buffers, folds each full buffer straight into the frozen
//! table's lanes, keeps each split as its 4-byte pool rank, and scores the
//! ranks against that table. This counts the heap across one `run_full
//! avgrf` over 2 000 insect trees (n = 144), where the parsed trees alone
//! would be ~37 MB, the trees' masks ~6.8 MB and the table ~7.3 MB, so
//! keeping the masks again, holding a chunk of parsed trees, or building
//! shard maps beside the table shows as megabytes over the limit.
//!
//! One test per binary: the counting allocator sees every thread.

use bfhrf_bench::peak_alloc::{InstallPeakAlloc, GLOBAL};
use phylo::BipartitionScratch;
use phylo_sim::datasets::{generate, DatasetSpec};
use std::io::Write;

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// Reference trees in the file.
const R: usize = 2_000;

#[test]
fn offline_q_equals_r_holds_no_tree_and_one_copy_of_the_masks() {
    let path = std::env::temp_dir().join(format!("bfhrf-offline-heap-{}.nwk", std::process::id()));
    let coll = generate(&DatasetSpec::insect().with_trees(R));
    let words = coll.taxa.len().div_ceil(64);
    let mut scratch = BipartitionScratch::new();
    let splits: usize = coll
        .trees
        .iter()
        .map(|t| scratch.split_count(t, &coll.taxa))
        .sum();
    let masks = splits * words * 8;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    for tree in &coll.trees {
        writeln!(file, "{}", phylo::write_newick(tree, &coll.taxa)).unwrap();
    }
    drop(file);
    drop(coll);
    drop(scratch);

    let argv: Vec<String> = [
        "avgrf",
        "--refs",
        &path.display().to_string(),
        "--threads",
        "2",
    ]
    .map(String::from)
    .to_vec();
    GLOBAL.reset_peak();
    let start = GLOBAL.current_bytes();
    let out = bfhrf_cli::run_full(&argv).unwrap();
    let peak = GLOBAL.peak_bytes() - start;
    assert_eq!(out.code, bfhrf_cli::EXIT_OK);
    assert_eq!(out.stdout.lines().count(), R + 1);
    std::fs::remove_file(&path).ok();

    // The peak is the lanes after their last doubling (control and entry
    // lanes 4.46 MB, pool room 3.15 MB) next to both chunk buffers
    // (2 × 0.87 MB) and the kept ranks (1.13 MB): ~10.5 MB, 1.55 × the
    // masks. Keeping each tree's masks instead of its ranks would be
    // ~2.4 ×; a chunk of parsed trees (4.7 MB) held beside the lanes,
    // ~2.0 ×; the shard maps coming back, over 3 ×; the parsed trees held
    // again, over 7 ×.
    let mb = |b: usize| b as f64 / 1e6;
    println!(
        "offline avgrf peak {:.2} MB = {:.3} × the {:.2} MB of masks",
        mb(peak),
        peak as f64 / masks as f64,
        mb(masks)
    );
    assert!(
        (peak as f64) < 1.7 * masks as f64,
        "offline avgrf peaked at {:.2} MB, {:.2} × the {:.2} MB of masks",
        mb(peak),
        peak as f64 / masks as f64,
        mb(masks)
    );
}
