//! Crash-consistency torture tests.
//!
//! The durability story of the index — fsynced WAL appends, rename-as-
//! commit compaction, generation stamping — is exercised here instead of
//! just argued in comments. A scripted add/remove/compact workload runs on
//! a journaling [`MemVfs`]; the journal is then replayed **prefix by
//! prefix**, each prefix simulating a crash at that exact write, and the
//! index is reopened from the reconstructed disk state. Every crash point
//! must land on a valid pre- or post-commit state: the fingerprint of the
//! reopened hash equals the state just before or just after whichever
//! workload stage the crash interrupted — never a torn hybrid, never a
//! panic, never silently missing an acknowledged batch.
//!
//! A second sweep arms seeded random fault schedules ([`FaultVfs`]) while
//! the workload runs live: every injected ENOSPC, torn write, and failed
//! rename must surface as a typed error that leaves the in-memory and
//! on-disk states reconcilable — after the dust settles, a clean reopen
//! must reproduce exactly the acknowledged state.

use bfhrf::{Bfh, RunGuard};
use phylo::TreeCollection;
use phylo_index::{
    read_snapshot_with, scan_wal, seeded_schedule, FaultKind, FaultSite, FaultVfs, Index,
    IndexError, MemVfs, Vfs, WalPolicy, WalTail, SNAPSHOT_FILE, WAL_FILE,
};
use phylo_sim::perturb::random_collection;
use std::path::Path;
use std::sync::Arc;

const DIR: &str = "idx";

/// Exact content fingerprint of a hash: headline counters plus every
/// (mask, frequency) entry in canonical order.
fn fp(bfh: &Bfh) -> (usize, u64, Vec<(Vec<u64>, u32)>) {
    let mut entries: Vec<(Vec<u64>, u32)> = bfh
        .iter()
        .map(|(bits, freq)| (bits.words().to_vec(), freq))
        .collect();
    entries.sort();
    (bfh.n_trees(), bfh.sum(), entries)
}

/// Create the index on `vfs` from the fixture's first three trees, with
/// two shards in the snapshot header.
fn create_on(vfs: Arc<dyn Vfs>, coll: &TreeCollection) -> Result<Index, IndexError> {
    let table = Bfh::build_sharded(&coll.trees[..3], &coll.taxa, 2).freeze();
    Index::create_table_policy_with(
        vfs,
        Path::new(DIR),
        table,
        2,
        coll.taxa.clone(),
        WalPolicy::Strict,
    )
}

fn fixture() -> TreeCollection {
    // 10 taxa, 8 trees: small enough that the full prefix sweep stays
    // fast, big enough that snapshots span several buffered writes.
    random_collection(10, 8, 0xC0FFEE)
}

type Action<'a> = Box<dyn Fn(&mut Index) -> Result<(), IndexError> + 'a>;

/// The scripted workload: adds, removes, and compactions interleaved so
/// crash points cover every commit protocol (WAL append, snapshot
/// rename, WAL reset).
fn workload(coll: &TreeCollection) -> Vec<(&'static str, Action<'_>)> {
    vec![
        ("add t3", Box::new(|ix| ix.append_add(&coll.trees[3]))),
        ("add t4", Box::new(|ix| ix.append_add(&coll.trees[4]))),
        ("remove t0", Box::new(|ix| ix.append_remove(&coll.trees[0]))),
        ("compact #1", Box::new(|ix| ix.compact().map(|_| ()))),
        ("add t5", Box::new(|ix| ix.append_add(&coll.trees[5]))),
        ("remove t1", Box::new(|ix| ix.append_remove(&coll.trees[1]))),
        ("compact #2", Box::new(|ix| ix.compact().map(|_| ()))),
        ("add t6", Box::new(|ix| ix.append_add(&coll.trees[6]))),
    ]
}

/// Every prefix of the recorded write journal reopens to a valid pre- or
/// post-commit state — the acceptance criterion of the fault-injection
/// harness. Torn variants of each write are swept too.
#[test]
fn every_crash_point_reopens_to_a_committed_state() {
    let coll = fixture();
    let dir = Path::new(DIR);

    // Record the workload's full write-op sequence.
    let mem = MemVfs::new();
    mem.start_recording();
    let mut ix = create_on(Arc::new(mem.clone()), &coll).expect("create on MemVfs");

    // boundaries[j] = journal length once stage j is fully on disk;
    // states[j] / gens[j] = the model state after stage j. Stage 0 is
    // the index creation itself.
    let mut boundaries = vec![mem.journal().len()];
    let mut states = vec![fp(ix.bfh())];
    let mut gens = vec![ix.stats().generation];
    for (name, act) in workload(&coll) {
        act(&mut ix).unwrap_or_else(|e| panic!("{name}: {e}"));
        boundaries.push(mem.journal().len());
        states.push(fp(ix.bfh()));
        gens.push(ix.stats().generation);
    }
    let journal = mem.journal();
    let n_stages = boundaries.len();
    assert!(
        journal.len() > 30,
        "workload too small to be interesting: {} ops",
        journal.len()
    );

    // Crash at op k, optionally with the k-th write torn at `keep` bytes.
    let mut crash_points = 0;
    let mut check = |k: usize, torn_keep: Option<usize>| {
        let disk = MemVfs::new();
        disk.apply(&journal[..k]);
        let mut label = format!("crash after op {k}/{}", journal.len());
        let mut upper = k; // ops that have at least begun
        if let Some(keep) = torn_keep {
            let Some(torn) = journal[k].torn(keep) else {
                return;
            };
            disk.apply(std::slice::from_ref(&torn));
            label = format!("crash tearing op {k} at byte {keep}");
            upper = k + 1;
        }
        crash_points += 1;

        // done = last stage fully on disk; started = last stage that has
        // begun writing. Contiguity means started is done or done+1.
        let done = boundaries.iter().rposition(|&b| b <= k);
        let started = boundaries.iter().rposition(|&b| b < upper).map(|j| {
            if j + 1 < n_stages && boundaries[j] < upper {
                j + 1
            } else {
                j
            }
        });
        match Index::open_with(Arc::new(disk), dir) {
            Err(e) if done.is_none() => {
                // Crash before the index creation committed: refusal is
                // the valid pre-commit state, but it must be typed.
                assert!(e.is_corruption(), "{label}: unexpected error class {e}");
            }
            Err(e) => panic!("{label}: index must reopen once created, got {e}"),
            Ok(reopened) => {
                let got = fp(reopened.bfh());
                let lo = done.unwrap_or(0);
                let hi = started.unwrap_or(lo).max(lo).min(n_stages - 1);
                let ok = (lo..=hi).any(|j| states[j] == got);
                assert!(
                    ok,
                    "{label}: reopened state matches neither stage {lo} nor {hi} \
                     (n_trees={}, sum={})",
                    got.0, got.1
                );
                let g = reopened.stats().generation;
                assert!(
                    g >= gens[lo] && g <= gens[hi],
                    "{label}: generation {g} outside [{}, {}]",
                    gens[lo],
                    gens[hi]
                );
            }
        }
    };

    for k in 0..=journal.len() {
        check(k, None);
        if k < journal.len() {
            // Tear the next write near its start and near its end.
            check(k, Some(1));
            check(k, Some(7));
        }
    }
    assert!(
        crash_points > journal.len(),
        "sweep ran: {crash_points} crash points"
    );
}

/// Live fault injection: seeded schedules of ENOSPC, torn writes, and
/// failed renames fire while the workload runs. Every failure must be a
/// typed error (no panics), and a clean reopen afterwards must reproduce
/// exactly the acknowledged in-memory state — no silent data loss.
#[test]
fn seeded_fault_schedules_never_lose_acknowledged_data() {
    let coll = fixture();
    let dir = Path::new(DIR);
    for seed in 0..48u64 {
        let mem = MemVfs::new();
        // Create cleanly, then arm the schedule for the workload itself.
        let fault = FaultVfs::new(Arc::new(mem.clone()));
        let mut ix =
            create_on(Arc::new(fault.clone()), &coll).expect("create precedes the fault schedule");
        fault.arm(&seeded_schedule(seed, 4, 30));

        let mut errors = 0;
        for (_, act) in workload(&coll) {
            if act(&mut ix).is_err() {
                errors += 1;
            }
        }
        // One more compaction attempt heals a broken WAL if the schedule
        // left one behind (it may itself fail under a pending fault).
        let _ = ix.compact();
        fault.clear();

        let live = fp(ix.bfh());
        let reopened = Index::open_with(Arc::new(mem), dir)
            .unwrap_or_else(|e| panic!("seed {seed}: reopen after faults failed: {e}"));
        assert_eq!(
            fp(reopened.bfh()),
            live,
            "seed {seed}: reopened state diverged from acknowledged state \
             ({errors} injected errors surfaced)"
        );
    }
}

/// Satellite: a torn final WAL record is truncated on open with a note,
/// instead of refusing the whole index.
#[test]
fn torn_final_wal_record_is_recovered_on_open() {
    let coll = fixture();
    let dir = Path::new(DIR);
    let wal_path = dir.join(WAL_FILE);
    for cut in [1usize, 5, 11] {
        let mem = MemVfs::new();
        let mut ix = create_on(Arc::new(mem.clone()), &coll).unwrap();
        ix.append_add(&coll.trees[3]).unwrap();
        let expect = fp(ix.bfh());
        ix.append_add(&coll.trees[4]).unwrap();
        drop(ix);

        // Tear the last `cut` bytes off the final record.
        let bytes = mem.read_bytes(&wal_path).unwrap();
        mem.write_bytes(&wal_path, bytes[..bytes.len() - cut].to_vec());

        let reopened = Index::open_with(Arc::new(mem.clone()), dir)
            .unwrap_or_else(|e| panic!("cut {cut}: open must recover a torn tail: {e}"));
        assert_eq!(fp(reopened.bfh()), expect, "cut {cut}");
        assert!(
            reopened.notes().iter().any(|n| n.contains("torn")),
            "cut {cut}: recovery must leave a note: {:?}",
            reopened.notes()
        );
        // The truncation is durable: a second open is clean and note-free.
        drop(reopened);
        let again = Index::open_with(Arc::new(mem), dir).unwrap();
        assert!(
            again.notes().is_empty(),
            "second open must be clean: {:?}",
            again.notes()
        );
    }
}

/// Satellite: a garbled (bit-flipped) final record is crash artifact too —
/// recovered with a note — while the same flip mid-log stays fatal.
#[test]
fn flipped_final_wal_record_is_recovered_on_open() {
    let coll = fixture();
    let dir = Path::new(DIR);
    let wal_path = dir.join(WAL_FILE);
    let mem = MemVfs::new();
    let mut ix = create_on(Arc::new(mem.clone()), &coll).unwrap();
    ix.append_add(&coll.trees[3]).unwrap();
    let expect = fp(ix.bfh());
    ix.append_add(&coll.trees[4]).unwrap();
    drop(ix);

    let mut bytes = mem.read_bytes(&wal_path).unwrap();
    let at = bytes.len() - 12; // inside the final record's payload
    bytes[at] ^= 0x40;
    mem.write_bytes(&wal_path, bytes);

    let reopened = Index::open_with(Arc::new(mem), dir).expect("garbled tail is recoverable");
    assert_eq!(fp(reopened.bfh()), expect);
    assert!(reopened.notes().iter().any(|n| n.contains("torn")));
}

/// Satellite: ENOSPC during compaction. Whatever step fails, the old
/// snapshot and WAL must remain intact and readable, and the index must
/// reopen to the acknowledged state.
#[test]
fn enospc_during_compaction_preserves_old_snapshot_and_wal() {
    let coll = fixture();
    let dir = Path::new(DIR);
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_path = dir.join(WAL_FILE);
    let tmp_path = dir.join("snapshot.bfh.tmp");

    // Fail (a) the snapshot body write, (b) the commit rename.
    let cases: [(&str, FaultSite, u64); 2] = [
        ("snapshot write", FaultSite::Write, 1),
        ("commit rename", FaultSite::Rename, 1),
    ];
    for (what, site, at) in cases {
        let mem = MemVfs::new();
        let fault = FaultVfs::new(Arc::new(mem.clone()));
        let mut ix = create_on(Arc::new(fault.clone()), &coll).unwrap();
        ix.append_add(&coll.trees[3]).unwrap();
        ix.append_remove(&coll.trees[0]).unwrap();
        let expect = fp(ix.bfh());
        let gen_before = ix.stats().generation;

        fault.fail_nth(site, at, FaultKind::Enospc);
        let err = ix.compact().expect_err("injected ENOSPC must surface");
        assert!(err.to_string().contains("space"), "{what}: {err}");

        // Old snapshot: readable, still at the old generation.
        let snap = read_snapshot_with(&mem, &snap_path, &RunGuard::default())
            .unwrap_or_else(|e| panic!("{what}: old snapshot must survive: {e}"));
        assert_eq!(snap.meta.generation, gen_before, "{what}");
        // Old WAL: clean, both records intact.
        let scan = scan_wal(&mem, &wal_path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean, "{what}");
        assert_eq!(scan.records.len(), 2, "{what}");
        // No scratch file left behind.
        assert!(!mem.exists(&tmp_path), "{what}: scratch must be cleaned up");

        // The live index keeps mutating, and a later compact succeeds.
        ix.append_add(&coll.trees[4]).unwrap();
        ix.append_remove(&coll.trees[4]).unwrap();
        assert_eq!(fp(ix.bfh()), expect, "{what}");
        ix.compact()
            .unwrap_or_else(|e| panic!("{what}: retried compact must succeed: {e}"));
        assert_eq!(ix.stats().wal_pending, 0);

        drop(ix);
        let reopened = Index::open_with(Arc::new(mem), dir).unwrap();
        assert_eq!(fp(reopened.bfh()), expect, "{what}: reopen after recovery");
    }
}

/// ENOSPC on the WAL reset *after* the snapshot rename committed: the
/// compaction is durable, mutations are refused with a typed error (never
/// appended to the stale log), queries keep working, and a retried
/// compact heals the log in place.
#[test]
fn wal_reset_failure_after_commit_blocks_mutations_until_healed() {
    let coll = fixture();
    let dir = Path::new(DIR);
    let mem = MemVfs::new();
    let fault = FaultVfs::new(Arc::new(mem.clone()));
    let mut ix = create_on(Arc::new(fault.clone()), &coll).unwrap();
    ix.append_add(&coll.trees[3]).unwrap();
    let expect = fp(ix.bfh());
    let gen_before = ix.stats().generation;

    // Compaction touches two creates: the snapshot scratch, then the WAL
    // reset. Fail the second — after the rename commit point.
    fault.fail_nth(FaultSite::Create, 2, FaultKind::Enospc);
    assert!(ix.compact().is_err());
    assert_eq!(
        ix.stats().generation,
        gen_before + 1,
        "the snapshot commit itself happened"
    );

    // Mutations are refused with the typed unavailability error...
    let err = ix.append_add(&coll.trees[5]).unwrap_err();
    assert!(
        matches!(err, IndexError::WalUnavailable { .. }),
        "got {err}"
    );
    let err = ix.append_remove(&coll.trees[0]).unwrap_err();
    assert!(
        matches!(err, IndexError::WalUnavailable { .. }),
        "got {err}"
    );
    // ...and the refused remove did not touch the hash.
    assert_eq!(fp(ix.bfh()), expect);

    // Queries still work from memory.
    assert_eq!(ix.bfh().n_trees(), 4);
    assert!(ix.view().frozen.n_trees() == 4);

    // A crash in this state reopens fine: the snapshot has everything and
    // the stale log is discarded.
    let crashed = Index::open_with(Arc::new(mem.clone()), dir).unwrap();
    assert_eq!(fp(crashed.bfh()), expect);
    drop(crashed);

    // A retried compact heals the log without rewriting the snapshot...
    ix.compact().expect("heal");
    assert_eq!(ix.stats().generation, gen_before + 1);
    // ...and mutations flow again.
    ix.append_add(&coll.trees[5]).unwrap();
    assert_eq!(ix.stats().wal_pending, 1);
    drop(ix);
    let reopened = Index::open_with(Arc::new(mem), dir).unwrap();
    assert_eq!(reopened.bfh().n_trees(), 5);
}
