//! The published table is a frozen base plus a delta of the writes since
//! it froze. Whatever sequence of adds, removes, compactions, reopens and
//! folds an index goes through, that table must answer exactly what a
//! fresh freeze of the live hash answers.

use bfhrf::{Bfh, FrozenBfh};
use phylo::{BipartitionScratch, TaxonSet, Tree};
use phylo_bitset::Bits;
use phylo_index::{
    write_frozen_with, write_snapshot, Index, IndexError, MemVfs, Vfs, SNAPSHOT_FILE,
};
use phylo_sim::perturb::random_collection;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fresh scratch directory per call.
fn tmp(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bfhrf-delta-{}-{name}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Every split of every tree in `trees`: the splits a table may hold now,
/// held before, or never held.
fn all_splits(trees: &[Tree], taxa: &TaxonSet) -> Vec<Bits> {
    let mut scratch = BipartitionScratch::new();
    trees.iter().flat_map(|t| scratch.splits(t, taxa)).collect()
}

/// The published view answers what a fresh freeze of the live hash does:
/// scalars, every probed frequency, and whole-query averages.
fn assert_view_is_fresh(idx: &mut Index, probes: &[Bits], queries: &[Tree]) {
    let view = idx.view();
    let fresh = FrozenBfh::freeze(idx.bfh());
    let got = &view.frozen;
    assert_eq!(got.n_trees(), fresh.n_trees(), "n_trees");
    assert_eq!(got.sum(), fresh.sum(), "sum");
    assert_eq!(got.distinct(), fresh.distinct(), "distinct");
    for bits in probes {
        assert_eq!(got.frequency(bits), fresh.frequency(bits), "{bits}");
    }
    if fresh.n_trees() > 0 {
        let mut scratch = BipartitionScratch::new();
        for q in queries {
            assert_eq!(
                got.average_scratch(q, &view.taxa, &mut scratch),
                fresh.average_scratch(q, &view.taxa, &mut scratch)
            );
        }
    }
}

/// After a compaction: `snapshot.bfh` is byte-equal to the snapshot a
/// fresh `shards`-way build over the surviving trees writes, and the
/// sidecar the compaction wrote, reopened, answers every probe as the
/// published view does.
fn assert_compaction_is_exact(
    idx: &mut Index,
    survivors: &[Tree],
    taxa: &TaxonSet,
    shards: usize,
    probes: &[Bits],
) {
    let dir = idx.dir().to_path_buf();
    let want = dir.with_extension("want");
    let rebuilt = Bfh::build_sharded(survivors, taxa, shards);
    write_snapshot(&want, &rebuilt.freeze(), shards, taxa, idx.generation()).unwrap();
    let got = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    assert!(
        got == std::fs::read(&want).unwrap(),
        "compacted snapshot differs from a fresh build's"
    );
    std::fs::remove_file(&want).unwrap();
    let view = idx.view();
    let reopened = Index::open_frozen(&dir).unwrap();
    for bits in probes {
        assert_eq!(
            reopened.frozen.frequency(bits),
            view.frozen.frequency(bits),
            "{bits}"
        );
    }
}

/// One write-sequence step, decoded from a `(kind, tree)` pair.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Add pool tree `k`.
    Add(usize),
    /// Remove pool tree `k` (refused, with nothing changed, if not held).
    Remove(usize),
    /// Add several trees before the next publication: far past the fold
    /// bound.
    Burst(usize),
    Compact,
    Reopen,
}

impl Step {
    fn decode((kind, k): (usize, usize)) -> Step {
        match kind {
            0..=3 => Step::Add(k),
            4..=7 => Step::Remove(k),
            8 => Step::Burst(k),
            9 => Step::Compact,
            _ => Step::Reopen,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn published_view_equals_a_fresh_freeze_under_any_write_sequence(
        width in 0usize..4,
        r in 2usize..12,
        shards in 1usize..4,
        steps in proptest::collection::vec((0usize..11, 0usize..24), 1..14),
        seed in any::<u64>(),
    ) {
        let width = [63, 64, 65, 128][width];
        let coll = random_collection(width, 24, seed);
        let probes = all_splits(&coll.trees, &coll.taxa);
        let queries = &coll.trees[..4];
        let dir = tmp("prop");
        let mut held: Vec<usize> = (0..r).collect();
        let table = Bfh::build_sharded(&coll.trees[..r], &coll.taxa, shards).freeze();
        let mut idx = Index::create_table(&dir, table, shards, coll.taxa.clone()).unwrap();
        assert_view_is_fresh(&mut idx, &probes, queries);
        // Every sequence ends with a burst and a compaction, so at least one
        // compaction folds a delta past the fold bound into lanes rebuilt
        // from the base's.
        let tail = [Step::Burst(seed as usize % 24), Step::Compact];
        for s in steps.iter().map(|&s| Step::decode(s)).chain(tail) {
            match s {
                Step::Add(k) => {
                    idx.append_add(&coll.trees[k]).unwrap();
                    held.push(k);
                }
                Step::Remove(k) => match held.iter().position(|&h| h == k) {
                    Some(at) => {
                        idx.append_remove(&coll.trees[k]).unwrap();
                        held.remove(at);
                    }
                    None => {
                        let before = idx.stats();
                        // A tree whose splits all happen to be held can
                        // still be removed; otherwise nothing changes.
                        if idx.append_remove(&coll.trees[k]).is_err() {
                            prop_assert_eq!(idx.stats(), before);
                        } else {
                            idx.append_add(&coll.trees[k]).unwrap();
                        }
                    }
                },
                Step::Burst(k) => {
                    for j in 0..6 {
                        let t = (k + j) % coll.trees.len();
                        idx.append_add_bin(&coll.trees[t]).unwrap();
                        held.push(t);
                    }
                }
                Step::Compact => {
                    idx.compact().unwrap();
                    let survivors: Vec<Tree> =
                        held.iter().map(|&k| coll.trees[k].clone()).collect();
                    assert_compaction_is_exact(&mut idx, &survivors, &coll.taxa, shards, &probes);
                }
                Step::Reopen => {
                    drop(idx);
                    idx = Index::open(&dir).unwrap();
                }
            }
            assert_view_is_fresh(&mut idx, &probes, queries);
        }
        let survivors: Vec<Tree> = held.iter().map(|&k| coll.trees[k].clone()).collect();
        let want = Bfh::build(&survivors, &coll.taxa);
        prop_assert_eq!(idx.bfh().n_trees(), want.n_trees());
        prop_assert_eq!(idx.bfh().sum(), want.sum());
        prop_assert_eq!(idx.bfh().distinct(), want.distinct());
        drop(idx);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Both sides of the fold rule: a write that touches few splits relative to
/// the base publishes as a delta over the same lanes, and one that touches
/// more than an eighth of them re-freezes into a new base. Compaction folds
/// what is left, and a reopen with pending records keeps the sidecar as its
/// base.
#[test]
fn small_writes_publish_a_delta_and_large_ones_fold() {
    let width = 64;
    let coll = random_collection(width, 40, 0xde17a);
    let dir = tmp("fold-rule");
    let bfh = Bfh::build(&coll.trees[..24], &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    let base = idx.frozen();
    assert!(!base.has_delta());

    // One tree's ~61 splits against ~1400 distinct: under an eighth.
    idx.append_add(&coll.trees[30]).unwrap();
    let small = idx.frozen();
    assert!(small.has_delta(), "a small write publishes a delta");
    assert_eq!(small.ctrl_lane().as_ptr(), base.ctrl_lane().as_ptr());

    // The matching remove empties the delta: the base itself again.
    idx.append_remove(&coll.trees[30]).unwrap();
    let back = idx.frozen();
    assert!(!back.has_delta());
    assert_eq!(back.digest(), base.digest());

    // Eight more trees: past an eighth, so the table re-freezes.
    for t in &coll.trees[30..38] {
        idx.append_add(t).unwrap();
    }
    let folded = idx.frozen();
    assert!(!folded.has_delta(), "a large delta folds into a new base");
    assert_ne!(folded.ctrl_lane().as_ptr(), base.ctrl_lane().as_ptr());

    // Nothing changed since that fold, so compaction writes the base as the
    // sidecar without freezing again.
    idx.compact().unwrap();
    assert_eq!(
        idx.frozen().ctrl_lane().as_ptr(),
        folded.ctrl_lane().as_ptr()
    );

    // A small write, then a reopen with that record pending: the sidecar
    // is the base and the record replays as a delta.
    idx.append_remove(&coll.trees[31]).unwrap();
    drop(idx);
    let mut reopened = Index::open(&dir).unwrap();
    assert_eq!(reopened.wal_pending(), 1);
    assert!(
        reopened.notes().iter().all(|n| !n.contains("frozen")),
        "{:?}",
        reopened.notes()
    );
    let primed = reopened.frozen();
    assert!(primed.has_delta());
    #[cfg(all(unix, target_endian = "little"))]
    assert!(primed.is_mapped(), "the base is the mapped sidecar");
    let probes = all_splits(&coll.trees, &coll.taxa);
    assert_view_is_fresh(&mut reopened, &probes, &coll.trees[..5]);

    // Compaction folds the delta; the rewritten sidecar holds no delta and
    // serves the same table.
    reopened.compact().unwrap();
    let compacted = reopened.frozen();
    assert!(!compacted.has_delta());
    drop(reopened);
    let fast = Index::open_frozen(&dir).unwrap();
    assert_eq!(fast.frozen.digest(), compacted.digest());
    std::fs::remove_dir_all(&dir).ok();
}

/// A table carrying a delta has no sidecar form: writing one is refused.
#[test]
fn sidecar_writer_refuses_a_table_with_a_delta() {
    let coll = random_collection(20, 12, 0x51de);
    let dir = tmp("refuse");
    let bfh = Bfh::build(&coll.trees[..10], &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    idx.append_add(&coll.trees[11]).unwrap();
    let patched = idx.frozen();
    assert!(patched.has_delta());

    let mem = MemVfs::new();
    let path = Path::new("frozen.bfh");
    let err = write_frozen_with(&mem, path, &patched, 0).unwrap_err();
    assert!(matches!(err, IndexError::Core(_)), "{err}");
    assert!(err.to_string().contains("delta"), "{err}");
    assert!(!mem.exists(path), "nothing is written");
    write_frozen_with(&mem, path, &FrozenBfh::freeze(idx.bfh()), 0).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
