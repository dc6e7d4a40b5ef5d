//! A version-1 frozen sidecar still opens exactly as it always did.
//!
//! `fixtures/v1/` holds a tiny index written by a build that wrote only
//! version-1 sidecars:
//!
//! * `refs.nwk`: 30 simulated trees on 24 taxa
//!   (`bfhrf simulate --taxa 24 --trees 30 --seed 33`);
//! * `index/`: what `bfhrf index build --refs refs.nwk --shards 2` wrote
//!   from it (`snapshot.bfh`, a v1 `frozen.bfh`, an empty `wal.log`);
//! * `avgrf.tsv`: offline `bfhrf avgrf` with `refs.nwk` as both refs and
//!   queries;
//! * `flips.tsv`: what each open made of that index, sidecar byte by
//!   sidecar byte, with the byte XORed with `0x5a`, recorded by the same
//!   build ([`flip_report`] writes the same lines).

use bfhrf::{Bfh, RunGuard};
use phylo::{BipartitionScratch, TaxonSet, TreeCollection};
use phylo_index::{
    read_frozen_meta, verify_frozen_with, Index, IndexError, MemVfs, RealVfs, FROZEN_FILE,
    FROZEN_VERSION, SNAPSHOT_FILE, WAL_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FILES: [&str; 3] = [SNAPSHOT_FILE, FROZEN_FILE, WAL_FILE];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1")
}

/// A fresh copy of the fixture index, so no test writes into the fixture.
fn copy_index(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfhrf-v1-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    for f in FILES {
        std::fs::copy(fixture().join("index").join(f), dir.join(f)).unwrap();
    }
    dir
}

/// The index files of `dir` in a fresh in-memory filesystem, under `idx/`.
fn mem_copy(dir: &Path) -> (Arc<MemVfs>, PathBuf) {
    let mem = Arc::new(MemVfs::new());
    let at = PathBuf::from("idx");
    for f in FILES {
        mem.write_bytes(&at.join(f), std::fs::read(dir.join(f)).unwrap());
    }
    (mem, at)
}

/// `(left, right, n_refs)` of every fixture tree against `table`.
fn scores(table: &bfhrf::FrozenBfh, taxa: &TaxonSet) -> Vec<(u64, u64, usize)> {
    let text = std::fs::read_to_string(fixture().join("refs.nwk")).unwrap();
    let mut scratch = BipartitionScratch::new();
    text.lines()
        .map(|line| {
            let tree = phylo::parse_newick_readonly(line, taxa).unwrap();
            let rf = table.average_scratch(&tree, taxa, &mut scratch);
            (rf.left, rf.right, rf.n_refs)
        })
        .collect()
}

#[test]
fn v1_sidecar_opens_mapped_and_materialized_with_the_built_answers() {
    let dir = copy_index("open");
    let meta = read_frozen_meta(&dir.join(FROZEN_FILE)).unwrap();
    assert_eq!(meta.version, 1);

    let text = std::fs::read_to_string(fixture().join("refs.nwk")).unwrap();
    let coll = TreeCollection::parse(&text).unwrap();
    let want = scores(&Bfh::build(&coll.trees, &coll.taxa).freeze(), &coll.taxa);

    let mapped = Index::open_frozen(&dir).unwrap();
    #[cfg(all(unix, target_endian = "little"))]
    assert!(mapped.mapped);
    assert_eq!(scores(&mapped.frozen, &mapped.taxa), want);

    let (mem, at) = mem_copy(&dir);
    let owned = Index::open_frozen_with(mem.clone(), &at, &RunGuard::default()).unwrap();
    assert!(!owned.mapped);
    assert_eq!(owned.frozen.digest(), mapped.frozen.digest());
    assert_eq!(scores(&owned.frozen, &owned.taxa), want);

    assert_eq!(
        verify_frozen_with(&RealVfs, &dir.join(FROZEN_FILE)).unwrap(),
        meta
    );
    assert_eq!(
        verify_frozen_with(&*mem, &at.join(FROZEN_FILE)).unwrap(),
        meta
    );
    let mut index = Index::open(&dir).unwrap();
    assert!(index.notes().is_empty(), "{:?}", index.notes());
    let view = index.view();
    assert_eq!(scores(&view.frozen, &view.taxa), want);
}

/// What each open makes of `dir` as it stands, one tab-separated line:
/// the mapped read-only open, the materialized read-only open of the same
/// bytes, the sidecar's full verification, and the read-write open's
/// notes.
fn outcomes(dir: &Path) -> String {
    fn text(r: Result<String, IndexError>) -> String {
        r.unwrap_or_else(|e| e.to_string())
    }
    let mapped = text(Index::open_frozen(dir).map(|o| format!("ok mapped={}", o.mapped)));
    let (mem, at) = mem_copy(dir);
    let owned = text(
        Index::open_frozen_with(mem, &at, &RunGuard::default())
            .map(|o| format!("ok mapped={}", o.mapped)),
    );
    let verify = text(
        verify_frozen_with(&RealVfs, &dir.join(FROZEN_FILE))
            .map(|m| format!("ok digest={:016x}", m.digest)),
    );
    let open = text(Index::open(dir).map(|i| format!("ok notes={:?}", i.notes())));
    format!("{mapped}\t{owned}\t{verify}\t{open}")
}

/// [`outcomes`] of the pristine index, then of each sidecar byte flipped
/// in turn, run-length encoded: `from-to<TAB>outcomes` for each run of
/// byte offsets whose flips give the same line.
fn flip_report(dir: &Path) -> String {
    let path = dir.join(FROZEN_FILE);
    let good = std::fs::read(&path).unwrap();
    let mut report = format!("clean\t{}\n", outcomes(dir));
    let mut run: Option<(usize, String)> = None;
    for at in 0..=good.len() {
        let line = (at < good.len()).then(|| {
            let mut bad = good.clone();
            bad[at] ^= 0x5a;
            std::fs::write(&path, bad).unwrap();
            outcomes(dir)
        });
        match (&run, line) {
            (Some((_, prev)), Some(line)) if *prev == line => {}
            (_, line) => {
                if let Some((from, prev)) = run.take() {
                    report.push_str(&format!("{from}-{}\t{prev}\n", at - 1));
                }
                run = line.map(|l| (at, l));
            }
        }
    }
    std::fs::write(&path, good).unwrap();
    report
}

/// Every flip of a v1 sidecar byte gives the same answers, errors and
/// notes as when v1 was the only version, and no open writes to the
/// snapshot or the WAL on the way. The one text that moves is the
/// version a refusal of a flipped version field names as the newest this
/// build reads.
#[test]
fn every_v1_sidecar_byte_flip_opens_as_it_always_did() {
    let dir = copy_index("flips");
    let want = std::fs::read_to_string(fixture().join("flips.tsv"))
        .unwrap()
        .replace(
            "(this build reads up to 1)",
            &format!("(this build reads up to {FROZEN_VERSION})"),
        );
    let got = flip_report(&dir);
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "flips.tsv line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
    for f in [SNAPSHOT_FILE, WAL_FILE] {
        let fixed = std::fs::read(fixture().join("index").join(f)).unwrap();
        assert_eq!(std::fs::read(dir.join(f)).unwrap(), fixed, "{f} changed");
    }
}
