//! An opened index holds one resident table: the frozen base, mapped from
//! the sidecar, plus a delta of the writes since it froze. Opening it
//! read-only maps the sidecar and reads none of it onto the heap. Opening
//! it for writing, adding and removing a tree, publishing a view and
//! reading the counters must not build a hash. This counts the heap across
//! those steps, on an index directly and through a catalog collection.
//! Opening the index without its sidecar must not build one either: the
//! snapshot's records go straight into the table's lanes. The table here
//! is ~7 MB, so a hash built, or the sidecar read, anywhere on the path
//! shows as megabytes.
//!
//! One test per binary: the counting allocator sees every thread.

use bfhrf::BfhBuilder;
use bfhrf_bench::peak_alloc::{InstallPeakAlloc, GLOBAL};
use phylo::write_newick;
use phylo_index::{Catalog, Index, FROZEN_FILE};
use phylo_sim::datasets::{generate, DatasetSpec};

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// Reference trees in the index.
const R: usize = 2_000;
/// What the write path may grow the heap by: one tree's splits, parse and
/// render buffers, the WAL's record.
const LIMIT: usize = 1 << 20;
/// What an open without the sidecar may peak at, in tables: the table, its
/// read buffers and the WAL replay. A hash beside the table reads ~2.6.
const NO_SIDECAR_LIMIT: f64 = 1.25;

/// Run `f`, returning its result, the peak heap above the live bytes at
/// the start, and the live bytes it left behind.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    GLOBAL.reset_peak();
    let start = GLOBAL.current_bytes();
    let out = f();
    let peak = GLOBAL.peak_bytes() - start;
    let kept = GLOBAL.current_bytes() as isize - start as isize;
    (out, peak, kept)
}

#[test]
fn writes_do_not_build_a_hash() {
    let root = std::env::temp_dir().join(format!("bfhrf-write-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let coll = generate(&DatasetSpec::insect().with_trees(R + 1));
    let (refs, extra) = coll.trees.split_at(R);
    let extra = &extra[0];

    let dir = root.join("index");
    let table = BfhBuilder::new().freeze_trees(refs, &coll.taxa).unwrap();
    let table_bytes = table.approx_bytes();
    let table_mb = table_bytes as f64 / 1e6;
    drop(Index::create_table(&dir, table, 1, coll.taxa.clone()).unwrap());

    // The read-only open maps the sidecar: a read-and-materialize open
    // would copy the whole table onto the heap.
    let (open, peak, _) = measured(|| Index::open_frozen(&dir).unwrap());
    assert!(open.mapped, "the sidecar was read, not mapped");
    assert_eq!(open.frozen.n_trees(), R);
    drop(open);
    assert!(
        peak < LIMIT,
        "read-only index open peaked {peak} bytes above the start ({table_mb:.1} MB table)"
    );

    let ((), peak, _) = measured(|| {
        let mut index = Index::open(&dir).unwrap();
        assert!(index.notes().is_empty(), "{:?}", index.notes());
        index.append_add(extra).unwrap();
        index.append_remove(extra).unwrap();
        drop(index.view());
        assert_eq!(index.stats().n_trees, R);
    });
    assert!(
        peak < LIMIT,
        "index open + add + remove + view + stats peaked {peak} bytes above the start \
         ({table_mb:.1} MB table)"
    );

    // Without the sidecar, the open reads the snapshot into the table.
    std::fs::remove_file(dir.join(FROZEN_FILE)).unwrap();
    let (index, peak, _) = measured(|| Index::open(&dir).unwrap());
    assert_eq!(index.stats().n_trees, R);
    drop(index);
    assert!(
        peak as f64 <= NO_SIDECAR_LIMIT * table_bytes as f64,
        "index open without the sidecar peaked {peak} bytes above the start \
         ({table_bytes} bytes of table)"
    );

    // The same through a catalog collection. Opening one also reads its
    // tree list, which is the collection's own state, so the open is
    // measured by what it keeps net of that list, and the writes by their
    // peak.
    let text: String = refs
        .iter()
        .map(|t| write_newick(t, &coll.taxa) + "\n")
        .collect();
    let line = write_newick(extra, &coll.taxa);
    drop(coll);
    let catalog_dir = root.join("catalog");
    let mut catalog = Catalog::open(&catalog_dir, None).unwrap();
    catalog.create("c", &text).unwrap();
    drop(catalog);
    drop(text);
    let mut catalog = Catalog::open(&catalog_dir, None).unwrap();
    let (pin, _, kept) = measured(|| catalog.acquire("c").unwrap());
    let mut col = pin.lock();
    let list: usize = col
        .tree_lines()
        .iter()
        .map(|l| l.capacity() + std::mem::size_of::<String>())
        .sum();
    assert!(
        kept - (list as isize) < LIMIT as isize,
        "collection open kept {kept} bytes, {list} of them its tree list"
    );
    let ((), peak, _) = measured(|| {
        col.add_batch(std::slice::from_ref(&line)).unwrap();
        col.remove_batch(std::slice::from_ref(&line)).unwrap();
        drop(col.view());
        assert_eq!(col.stats().n_trees, R);
    });
    assert!(
        peak < LIMIT,
        "collection add + remove + view + stats peaked {peak} bytes above the start"
    );
    drop(col);
    drop(pin);
    drop(catalog);
    std::fs::remove_dir_all(&root).ok();
}
