//! End-to-end tests for the persistent index: snapshot round-trips must be
//! bitwise-exact, corruption must stay a typed error, and a WAL replay
//! must land on the same hash as a fresh build.

use bfhrf::{Bfh, Comparator, RunBudget, RunGuard};
use phylo::TreeCollection;
use phylo_index::{
    read_meta, read_snapshot, read_wal, verify_snapshot_with, write_snapshot, Index, IndexError,
    RealVfs, Snapshot, Wal, WalOp, FROZEN_FILE, SNAPSHOT_FILE, WAL_FILE,
};
use phylo_sim::perturb::random_collection;
use proptest::prelude::*;
use std::path::PathBuf;

/// Fresh scratch directory per test.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfhrf-index-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exact equality of two hashes: headline counters plus every frequency
/// in both directions (so neither side holds an extra split).
fn assert_bfh_identical(a: &Bfh, b: &Bfh) {
    assert_eq!(a.n_taxa(), b.n_taxa(), "n_taxa");
    assert_eq!(a.n_trees(), b.n_trees(), "n_trees");
    assert_eq!(a.sum(), b.sum(), "sum");
    assert_eq!(a.distinct(), b.distinct(), "distinct");
    for (bits, freq) in a.iter() {
        assert_eq!(b.frequency(bits), freq, "frequency of {bits}");
    }
    for (bits, freq) in b.iter() {
        assert_eq!(a.frequency(bits), freq, "reverse frequency of {bits}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance criterion: a loaded snapshot answers exactly what the
    /// written hash did — same frequencies, the same shard count in its
    /// header, identical `average_all` answers — and writes back the same
    /// bytes.
    #[test]
    fn snapshot_round_trip_is_bitwise_exact(
        n in 4usize..40,
        r in 1usize..20,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let coll = random_collection(n, r, seed);
        let bfh = Bfh::build_sharded(&coll.trees, &coll.taxa, shards);
        let dir = std::env::temp_dir()
            .join(format!("bfhrf-index-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snap-{seed:x}-{n}-{r}-{shards}.bfh"));
        write_snapshot(&path, &bfh.freeze(), shards, &coll.taxa, 3).unwrap();

        let snap = read_and_verify(&path).unwrap();
        prop_assert_eq!(snap.meta.generation, 3);
        prop_assert_eq!(snap.meta.n_shards, bfh.n_shards());
        prop_assert_eq!(snap.taxa.len(), coll.taxa.len());
        for (id, label) in coll.taxa.iter() {
            prop_assert_eq!(snap.taxa.label(id), label);
        }
        assert_bfh_identical(&Bfh::from_table(&snap.table, shards).unwrap(), &bfh);
        for (bits, freq) in bfh.iter() {
            prop_assert_eq!(snap.table.frequency_words(bits.words()), freq);
        }

        // The loaded table writes the snapshot back byte for byte.
        let again = path.with_extension("again");
        write_snapshot(&again, &snap.table, snap.meta.n_shards, &snap.taxa, 3).unwrap();
        prop_assert!(std::fs::read(&again).unwrap() == std::fs::read(&path).unwrap());
        std::fs::remove_file(&again).ok();

        // Identical average-RF answers on an independent query set.
        let queries = random_collection(n, 3, seed.wrapping_add(99));
        let before = bfhrf::BfhrfComparator::new(&bfh, &coll.taxa)
            .average_all(&queries.trees)
            .unwrap();
        let after = bfhrf::BfhrfComparator::new(&snap.table, &snap.taxa)
            .average_all(&queries.trees)
            .unwrap();
        for (x, y) in before.iter().zip(after.iter()) {
            prop_assert_eq!(x.rf.left, y.rf.left);
            prop_assert_eq!(x.rf.right, y.rf.right);
            prop_assert_eq!(x.rf.n_refs, y.rf.n_refs);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Load the snapshot at `path` and also stream it through
/// `verify_snapshot_with`: the two must accept or refuse together, with the
/// same error text — the verifier is how a read-only daemon refuses a
/// corrupt snapshot it never loads.
fn read_and_verify(path: &std::path::Path) -> Result<Snapshot, IndexError> {
    let read = read_snapshot(path, &RunGuard::default());
    let verified = verify_snapshot_with(&RealVfs, path, &RunGuard::default());
    match (&read, &verified) {
        (Ok(snap), Ok(meta)) => assert_eq!(snap.meta, *meta),
        (Err(r), Err(v)) => assert_eq!(r.to_string(), v.to_string()),
        _ => panic!(
            "read and verify disagree on {}: read {:?}, verify {:?}",
            path.display(),
            read.as_ref().map(|s| s.meta).map_err(|e| e.to_string()),
            verified.map_err(|e| e.to_string())
        ),
    }
    read
}

/// Every single-byte flip anywhere in a snapshot must surface as a typed
/// corruption/IO error — never a panic, never a silently-different hash.
#[test]
fn every_flipped_snapshot_byte_is_a_typed_error() {
    let dir = tmp("flip-sweep");
    let coll = random_collection(12, 6, 0xf11b);
    let table = Bfh::build_sharded(&coll.trees, &coll.taxa, 4).freeze();
    let path = dir.join("snap.bfh");
    write_snapshot(&path, &table, 4, &coll.taxa, 1).unwrap();
    let clean = std::fs::read(&path).unwrap();
    read_and_verify(&path).unwrap();

    for at in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x5a;
        std::fs::write(&path, &bytes).unwrap();
        match read_and_verify(&path) {
            Ok(snap) => panic!(
                "flip at byte {at} went undetected (loaded {} splits)",
                snap.table.distinct()
            ),
            Err(e) => assert!(
                e.is_corruption(),
                "flip at byte {at} produced a non-corruption error: {e}"
            ),
        }
    }
}

/// Every truncation point must be a typed error too.
#[test]
fn every_truncation_is_a_typed_error() {
    let dir = tmp("trunc-sweep");
    let coll = random_collection(10, 4, 0x77);
    let table = Bfh::build(&coll.trees, &coll.taxa).freeze();
    let path = dir.join("snap.bfh");
    write_snapshot(&path, &table, 1, &coll.taxa, 0).unwrap();
    let clean = std::fs::read(&path).unwrap();

    for keep in 0..clean.len() {
        std::fs::write(&path, &clean[..keep]).unwrap();
        let err = read_and_verify(&path)
            .err()
            .unwrap_or_else(|| panic!("truncation to {keep} bytes loaded successfully"));
        assert!(
            err.is_corruption(),
            "truncation to {keep} bytes produced a non-corruption error: {err}"
        );
    }
}

/// Reopening an index replays the WAL through `add_tree`/`remove_tree`
/// and lands on exactly the hash a fresh build over the surviving trees
/// would produce.
#[test]
fn wal_replay_equals_fresh_rebuild() {
    let dir = tmp("replay");
    let coll = random_collection(16, 12, 0xabcd);
    let half = 6;

    let base = Bfh::build(&coll.trees[..half], &coll.taxa);
    let mut idx = Index::create(&dir, base, coll.taxa.clone()).unwrap();
    // Add the back half, then remove two of the originals.
    for tree in &coll.trees[half..] {
        idx.append_add(tree).unwrap();
    }
    idx.append_remove(&coll.trees[0]).unwrap();
    idx.append_remove(&coll.trees[3]).unwrap();
    let live_stats = idx.stats();
    assert_eq!(live_stats.wal_pending, coll.trees.len() - half + 2);
    assert_eq!(live_stats.generation, 0);
    drop(idx);

    // What the collection looks like after the churn.
    let survivors: Vec<phylo::Tree> = coll
        .trees
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 0 && *i != 3)
        .map(|(_, t)| t.clone())
        .collect();
    let fresh = Bfh::build(&survivors, &coll.taxa);

    let reopened = Index::open(&dir).unwrap();
    assert_bfh_identical(reopened.bfh(), &fresh);
    assert_eq!(reopened.stats().wal_pending, live_stats.wal_pending);
}

/// Compaction folds the WAL into a new snapshot: the reopened index has
/// the same hash, a bumped generation, and an empty log.
#[test]
fn compaction_folds_wal_and_bumps_generation() {
    let dir = tmp("compact");
    let coll = random_collection(14, 10, 0xc0de);

    let base = Bfh::build(&coll.trees[..5], &coll.taxa);
    let mut idx = Index::create(&dir, base, coll.taxa.clone()).unwrap();
    for tree in &coll.trees[5..] {
        idx.append_add(tree).unwrap();
    }
    let meta = idx.compact().unwrap();
    assert_eq!(meta.generation, 1);
    assert_eq!(idx.stats().wal_pending, 0);
    let live = idx.bfh().clone();
    drop(idx);

    // Disk agrees: snapshot header says generation 1, WAL is empty at 1.
    assert_eq!(read_meta(&dir.join(SNAPSHOT_FILE)).unwrap().generation, 1);
    let (wal_gen, records) = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal_gen, 1);
    assert!(records.is_empty());

    let reopened = Index::open(&dir).unwrap();
    assert_bfh_identical(reopened.bfh(), &live);
    assert_eq!(reopened.stats().generation, 1);
}

/// A WAL left behind by a crash between the snapshot rename and the WAL
/// reset (generation older than the snapshot's) is discarded, not
/// replayed — its batches are already folded in.
#[test]
fn stale_generation_wal_is_discarded() {
    let dir = tmp("stale");
    let coll = random_collection(12, 8, 0x57a1e);

    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    idx.compact().unwrap(); // snapshot now at generation 1
    let live = idx.bfh().clone();
    drop(idx);

    // Simulate the crash remnant: a generation-0 WAL holding a batch that
    // the generation-1 snapshot already contains.
    let mut stale = Wal::create(&dir.join(WAL_FILE), 0).unwrap();
    stale
        .append(WalOp::Add, &phylo::write_newick(&coll.trees[0], &coll.taxa))
        .unwrap();
    drop(stale);

    let reopened = Index::open(&dir).unwrap();
    assert_bfh_identical(reopened.bfh(), &live);
    assert_eq!(reopened.stats().wal_pending, 0);
    // The stale log was reset to the snapshot's generation.
    let (wal_gen, records) = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal_gen, 1);
    assert!(records.is_empty());
}

/// A WAL claiming a generation *newer* than the snapshot can only come
/// from manual file shuffling — typed corruption.
#[test]
fn future_generation_wal_is_corruption() {
    let dir = tmp("future");
    let coll = random_collection(8, 4, 0xf00d);
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    drop(idx);

    Wal::create(&dir.join(WAL_FILE), 9).unwrap();
    let err = Index::open(&dir).err().expect("future WAL must not open");
    assert!(err.is_corruption(), "{err}");
    assert!(err.to_string().contains("ahead of snapshot"), "{err}");
}

/// Removing a tree that was never added fails cleanly and leaves both the
/// in-memory hash and the on-disk WAL untouched.
#[test]
fn failed_remove_leaves_index_unchanged() {
    let dir = tmp("badremove");
    let coll = random_collection(10, 6, 0xbad);
    let bfh = Bfh::build(&coll.trees[..3], &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    let before = idx.stats();

    // Pick a tree whose splits were never folded in. random_collection on
    // 10 taxa essentially never repeats interior splits across seeds.
    let stranger = random_collection(10, 1, 0xdead);
    let err = idx.append_remove(&stranger.trees[0]).err();
    assert!(err.is_some(), "removing an absent tree must fail");
    assert_eq!(idx.stats(), before);
    let (_, records) = read_wal(&dir.join(WAL_FILE)).unwrap();
    assert!(records.is_empty(), "nothing may reach the WAL");
}

/// A guarded open refuses to load a snapshot that does not fit the byte
/// budget — typed, recoverable, no allocation attempt.
#[test]
fn guarded_open_enforces_budget() {
    let dir = tmp("budget");
    let coll = random_collection(20, 10, 0xb1d);
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    drop(idx);

    let tight = RunGuard::with_budget(RunBudget::with_max_bytes(64));
    let err = Index::open_guarded(&dir, &tight)
        .err()
        .expect("64-byte budget cannot fit the snapshot");
    assert!(matches!(err, IndexError::Core(_)), "{err}");

    // And the same directory opens fine without the budget.
    let lanes = Index::open(&dir).unwrap().frozen().approx_bytes();

    // Without the sidecar the open lays the snapshot's records into sized
    // lanes, and asks the budget for exactly their bytes first.
    std::fs::remove_file(dir.join(FROZEN_FILE)).unwrap();
    let budget = |bytes| RunGuard::with_budget(RunBudget::with_max_bytes(bytes));
    let err = Index::open_guarded(&dir, &budget(lanes - 1))
        .err()
        .expect("one byte short of the lanes must refuse");
    assert!(matches!(err, IndexError::Core(_)), "{err}");
    assert!(err.to_string().contains("snapshot splits"), "{err}");
    let mut idx = Index::open_guarded(&dir, &budget(lanes)).unwrap();
    assert_eq!(idx.frozen().approx_bytes(), lanes);
}

/// `TreeCollection::parse` namespaces must survive the round trip with
/// label order intact (ids are positional in the masks).
#[test]
fn taxon_labels_round_trip_in_order() {
    let dir = tmp("labels");
    let coll = TreeCollection::parse("((Homo_sapiens,Pan),(Mus,(Rattus,Canis)));\n").unwrap();
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    drop(idx);
    let reopened = Index::open(&dir).unwrap();
    for (id, label) in coll.taxa.iter() {
        assert_eq!(reopened.taxa().label(id), label);
    }
}

/// Labels the writer has to quote, with non-ASCII characters, survive the
/// WAL: an `append_add` logs the tree as Newick and strict replay on reopen
/// must resolve every quoted label to the same taxon.
#[test]
fn quoted_non_ascii_labels_survive_wal_replay() {
    let dir = tmp("quoted-labels");
    let coll = TreeCollection::parse(
        "(('Homo sapiens é',Café),('Mus (x)',(Rattus,'ü,ö')));\n\
         ((Café,'Mus (x)'),('Homo sapiens é',(Rattus,'ü,ö')));\n",
    )
    .unwrap();
    let mut idx = Index::create(
        &dir,
        Bfh::build(&coll.trees[..1], &coll.taxa),
        coll.taxa.clone(),
    )
    .unwrap();
    idx.append_add(&coll.trees[1]).unwrap();
    drop(idx);
    let reopened = Index::open(&dir).unwrap();
    assert_bfh_identical(reopened.bfh(), &Bfh::build(&coll.trees, &coll.taxa));
    for (id, label) in coll.taxa.iter() {
        assert_eq!(reopened.taxa().label(id), label);
    }
    assert!(coll.taxa.get("Homo sapiens é").is_some());
}

/// The frozen view opened with the index answers like the live hash, the
/// cached Arc is reused until a mutation, and mutations invalidate it.
#[test]
fn frozen_view_tracks_mutations() {
    let dir = tmp("frozen");
    let coll = random_collection(12, 8, 0xf0f);
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();

    let f1 = idx.frozen();
    assert_eq!(f1.n_trees(), idx.bfh().n_trees());
    assert_eq!(f1.sum(), idx.bfh().sum());
    for (bits, freq) in idx.bfh().iter() {
        assert_eq!(f1.frequency(bits), freq, "frozen frequency of {bits}");
    }
    // Cached until a mutation...
    assert!(std::sync::Arc::ptr_eq(&f1, &idx.frozen()));

    // ...and rebuilt after one.
    let extra = random_collection(12, 1, 0xf1f);
    let tree = phylo::read_trees_from_str(
        &phylo::write_newick(&extra.trees[0], &extra.taxa),
        &mut coll.taxa.clone(),
        phylo::TaxaPolicy::Require,
    )
    .unwrap()
    .remove(0);
    idx.append_add(&tree).unwrap();
    let f2 = idx.frozen();
    assert!(!std::sync::Arc::ptr_eq(&f1, &f2));
    assert_eq!(f2.n_trees(), idx.bfh().n_trees());
    for (bits, freq) in idx.bfh().iter() {
        assert_eq!(f2.frequency(bits), freq, "post-add frequency of {bits}");
    }

    // A reopened index carries an eagerly-built frozen view too.
    drop(idx);
    let mut reopened = Index::open(&dir).unwrap();
    let f3 = reopened.frozen();
    assert_eq!(f3.n_trees(), reopened.bfh().n_trees());
}

/// The frozen sidecar round trip: create writes it, the read-only fast
/// path serves a table bitwise-identical to a fresh freeze (mapped where
/// the platform allows), and a full reopen primes its cache from it.
#[test]
fn frozen_sidecar_serves_identical_answers() {
    use phylo_index::FROZEN_FILE;
    let dir = tmp("frozen-sidecar");
    let coll = random_collection(18, 9, 0xf70e);
    let bfh = Bfh::build(&coll.trees, &coll.taxa);
    let want_digest = bfh.freeze().digest();
    let idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    assert!(dir.join(FROZEN_FILE).exists(), "create writes the sidecar");
    drop(idx);

    let fast = Index::open_frozen(&dir).unwrap();
    assert_eq!(fast.frozen.digest(), want_digest, "bitwise identical");
    assert_eq!(fast.meta.generation, 0);
    #[cfg(all(unix, target_endian = "little"))]
    assert!(fast.mapped, "unix fast path memory-maps the lanes");

    // Answers through the fast path equal answers through the full open.
    let mut full = Index::open(&dir).unwrap();
    assert!(
        full.notes().iter().all(|n| !n.contains("frozen")),
        "clean sidecar leaves no notes: {:?}",
        full.notes()
    );
    let slow_view = full.view();
    assert_eq!(slow_view.frozen.digest(), want_digest);
    let mut scratch = phylo::BipartitionScratch::new();
    for tree in &coll.trees {
        let a = fast.frozen.average_scratch(tree, &coll.taxa, &mut scratch);
        let b = slow_view
            .frozen
            .average_scratch(tree, &coll.taxa, &mut scratch);
        assert_eq!(a, b);
    }
}

/// The fast path refuses (with a typed, non-corruption error) whenever it
/// cannot prove sidecar parity: pending WAL records, a deleted sidecar,
/// or a flipped sidecar byte. The full open keeps working throughout.
#[test]
fn frozen_open_declines_cleanly_when_it_cannot_prove_parity() {
    use phylo_index::FROZEN_FILE;
    let dir = tmp("frozen-decline");
    let coll = random_collection(12, 8, 0xdec1);
    let bfh = Bfh::build(&coll.trees[..6], &coll.taxa);
    let mut idx = Index::create(&dir, bfh, coll.taxa.clone()).unwrap();
    idx.append_add(&coll.trees[6]).unwrap();

    // Pending WAL records: the sidecar is behind the truth.
    let err = Index::open_frozen(&dir).unwrap_err();
    assert!(matches!(err, IndexError::FrozenUnavailable { .. }), "{err}");
    assert!(!err.is_corruption());

    // Compaction refreshes the sidecar; the fast path works again.
    idx.compact().unwrap();
    let want = idx.frozen().digest();
    drop(idx);
    assert_eq!(Index::open_frozen(&dir).unwrap().frozen.digest(), want);

    // A flipped sidecar byte: fast path refuses, full open falls back to
    // the snapshot with a note and still answers.
    let side = dir.join(FROZEN_FILE);
    let mut bytes = std::fs::read(&side).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&side, &bytes).unwrap();
    let err = Index::open_frozen(&dir).unwrap_err();
    assert!(matches!(err, IndexError::FrozenUnavailable { .. }), "{err}");
    let mut full = Index::open(&dir).unwrap();
    assert!(
        full.notes().iter().any(|n| n.contains("frozen")),
        "corrupt sidecar leaves a note: {:?}",
        full.notes()
    );
    // The fallback serves the same table contents (its digest may differ:
    // the snapshot's records are laid out in mask order, which can order
    // pool entries differently without changing any answer).
    let fallback = full.frozen();
    let truth = Bfh::build(&coll.trees[..7], &coll.taxa).freeze();
    assert_eq!(fallback.n_trees(), 7);
    let mut scratch = phylo::BipartitionScratch::new();
    for tree in &coll.trees {
        let a = fallback.average_scratch(tree, &coll.taxa, &mut scratch);
        let b = truth.average_scratch(tree, &coll.taxa, &mut scratch);
        assert_eq!(a, b);
    }

    // A deleted sidecar is a cache miss, not an error, for the full open.
    std::fs::remove_file(&side).unwrap();
    let err = Index::open_frozen(&dir).unwrap_err();
    assert!(matches!(err, IndexError::FrozenUnavailable { .. }), "{err}");
    Index::open(&dir).unwrap();
}

/// A flipped bit in the sidecar's pool lane, the lane the mapped open
/// never checksums, must not reach an answer or outlive a compaction. The
/// read-write open cross-checks the sidecar against the snapshot and
/// refuses it with a note, and compaction then writes a sidecar that
/// agrees with the snapshot. Both a multi-word namespace (where the pool
/// decides probes) and a one-word one (where only the entry key does) are
/// covered.
#[test]
fn corrupt_sidecar_pool_is_refused_at_open_and_not_resealed() {
    use phylo_index::{read_frozen_meta, verify_frozen_with, FROZEN_FILE};
    for n_taxa in [150usize, 20] {
        let dir = tmp(&format!("pool-flip-{n_taxa}"));
        let coll = random_collection(n_taxa, 200, 0x9001);
        let truth = Bfh::build(&coll.trees, &coll.taxa);
        drop(Index::create(&dir, truth.clone(), coll.taxa.clone()).unwrap());
        let side = dir.join(FROZEN_FILE);
        let pool = read_frozen_meta(&side).unwrap().pool;
        let mut bytes = std::fs::read(&side).unwrap();
        bytes[pool.offset as usize + 240] ^= 0x02;
        std::fs::write(&side, &bytes).unwrap();
        let err = verify_frozen_with(&RealVfs, &side).unwrap_err();
        assert!(
            err.to_string().contains("pool lane checksum mismatch"),
            "{err}"
        );

        let mut idx = Index::open(&dir).unwrap();
        assert!(
            idx.notes()
                .iter()
                .any(|n| n.contains("frozen sidecar disagrees with snapshot split record")),
            "n={n_taxa}: the open notes the refusal: {:?}",
            idx.notes()
        );
        let view = idx.view();
        assert_eq!(view.frozen.n_trees(), truth.n_trees());
        assert_eq!(view.frozen.sum(), truth.sum());
        assert_eq!(view.frozen.distinct(), truth.distinct());
        for (bits, freq) in truth.iter() {
            assert_eq!(view.frozen.frequency(bits), freq, "n={n_taxa} {bits}");
        }
        drop(view);

        idx.compact().unwrap();
        drop(idx);
        verify_frozen_with(&RealVfs, &side).unwrap();
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE), &RunGuard::default()).unwrap();
        assert_bfh_identical(&Bfh::from_table(&snapshot.table, 1).unwrap(), &truth);
        let fast = Index::open_frozen(&dir).unwrap();
        assert_eq!(fast.frozen.distinct(), truth.distinct());
        let (mut masks, mut freqs) = (Vec::new(), Vec::new());
        for (bits, freq) in truth.iter() {
            masks.extend_from_slice(bits.words());
            freqs.push(freq);
        }
        assert_eq!(
            fast.frozen.first_inexact(&masks, &freqs),
            None,
            "n={n_taxa}"
        );
        let reopened = Index::open(&dir).unwrap();
        assert!(reopened.notes().is_empty(), "{:?}", reopened.notes());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Binary WAL records mix freely with Newick ones and replay to the same
/// hash a fresh build produces.
#[test]
fn binary_wal_records_replay_identically() {
    let dir = tmp("bin-wal");
    let coll = random_collection(15, 10, 0xb19);
    let base = Bfh::build(&coll.trees[..4], &coll.taxa);
    let mut idx = Index::create(&dir, base, coll.taxa.clone()).unwrap();
    for (i, tree) in coll.trees[4..].iter().enumerate() {
        if i % 2 == 0 {
            idx.append_add_bin(tree).unwrap();
        } else {
            idx.append_add(tree).unwrap();
        }
    }
    idx.append_remove_bin(&coll.trees[1]).unwrap();
    idx.append_remove(&coll.trees[2]).unwrap();
    let live = idx.bfh().clone();
    drop(idx);

    let survivors: Vec<phylo::Tree> = coll
        .trees
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1 && *i != 2)
        .map(|(_, t)| t.clone())
        .collect();
    let fresh = Bfh::build(&survivors, &coll.taxa);
    assert_bfh_identical(&live, &fresh);

    let reopened = Index::open(&dir).unwrap();
    assert_bfh_identical(reopened.bfh(), &fresh);
}

/// Satellite: the WAL records its replay policy, and replay honours it.
/// A leniently-built index skips an undecodable record with a note; a
/// strictly-built one refuses to open, exactly as before. A record that
/// removes a tree the index does not hold is a log that disagrees with its
/// snapshot, and refuses the open under both policies.
#[test]
fn replay_policy_is_recorded_and_honoured() {
    use phylo_index::{real_vfs, WalPolicy};
    let coll = random_collection(10, 6, 0x9001);

    for policy in [WalPolicy::Strict, WalPolicy::Lenient] {
        let dir = tmp(&format!("policy-unheld-{}", policy.label()));
        let table = Bfh::build(&coll.trees[..1], &coll.taxa).freeze();
        drop(
            Index::create_table_policy_with(real_vfs(), &dir, table, 1, coll.taxa.clone(), policy)
                .unwrap(),
        );
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE)).unwrap();
        let held = phylo::write_newick(&coll.trees[0], &coll.taxa);
        wal.append(WalOp::Remove, &held).unwrap();
        wal.append(WalOp::Remove, &held).unwrap();
        drop(wal);
        let err = Index::open(&dir)
            .err()
            .expect("the second remove must refuse");
        assert!(err.is_corruption(), "{err}");
        assert!(
            err.to_string()
                .contains("record 1 removes a tree the hash does not hold"),
            "{err}"
        );

        let dir = tmp(&format!("policy-{}", policy.label()));
        let table = Bfh::build(&coll.trees, &coll.taxa).freeze();
        let idx =
            Index::create_table_policy_with(real_vfs(), &dir, table, 1, coll.taxa.clone(), policy)
                .unwrap();
        assert_eq!(idx.policy(), policy);
        drop(idx);

        // Append a record naming a taxon outside the frozen namespace —
        // the persistent analogue of a bad tree in a lenient ingest.
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE)).unwrap();
        wal.append(WalOp::Add, "(NOT_A_TAXON,ALSO_NOT_ONE);")
            .unwrap();
        drop(wal);

        match policy {
            WalPolicy::Strict => {
                let err = Index::open(&dir).err().expect("strict replay must refuse");
                assert!(err.is_corruption(), "{err}");
            }
            WalPolicy::Lenient => {
                let reopened = Index::open(&dir).unwrap();
                assert_eq!(reopened.policy(), WalPolicy::Lenient);
                assert!(
                    reopened
                        .notes()
                        .iter()
                        .any(|n| n.contains("skipped undecodable record")),
                    "{:?}",
                    reopened.notes()
                );
                // The skipped record changed nothing.
                let fresh = Bfh::build(&coll.trees, &coll.taxa);
                assert_bfh_identical(reopened.bfh(), &fresh);
                // The policy survives compaction's log reset.
                let mut reopened = reopened;
                reopened.compact().unwrap();
                drop(reopened);
                assert_eq!(Index::open(&dir).unwrap().policy(), WalPolicy::Lenient);
            }
        }
    }
}
