//! The on-disk index: one snapshot plus one WAL in a directory, with
//! compaction folding the log back into a fresh snapshot.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/snapshot.bfh       the current full snapshot (generation g)
//! <dir>/snapshot.bfh.tmp   compaction scratch, renamed into place
//! <dir>/wal.log            add/remove batches appended since generation g
//! <dir>/frozen.bfh         probe-ready frozen table for generation g
//! <dir>/frozen.bfh.tmp     sidecar scratch, renamed into place
//! ```
//!
//! `frozen.bfh` is a **cache**: the probe-optimized [`bfhrf::FrozenBfh`]
//! lanes serialized verbatim (see [`crate::frozen_file`]) so reopening
//! skips the freeze pass and — via [`Index::open_frozen`] — can skip
//! materializing the splits entirely by memory-mapping the lanes in
//! place. It is rewritten after every create and compaction; any failure
//! writing or reading it degrades to the ordinary snapshot path with a
//! recovery note, never an error.
//!
//! # One resident table
//!
//! An opened [`Index`] holds one table: a frozen base plus a
//! [`SplitDelta`] of the writes since it froze. Writes check removals
//! against that pair and record into the delta; publication patches the
//! base with the delta, or folds the delta into fresh lanes once it
//! outgrows [`FOLD_FRACTION`]; compaction writes the snapshot from the
//! pair. No hash is built unless a caller asks for one ([`Index::bfh`]).
//!
//! The snapshot stays the source of truth. A read-write open takes the
//! mapped sidecar as its base only after streaming the snapshot past it —
//! every record must probe to its own count — so a sidecar that
//! disagrees (a flipped pool bit the lazy mapping never checksums) is
//! refused with a note and the snapshot's records are laid out into fresh
//! lanes instead; compaction can then never re-seal a bad sidecar.
//!
//! # Crash safety
//!
//! Every mutation is WAL-first (for adds) or verified-then-logged (for
//! removes), and both the WAL append and the snapshot write fsync before
//! returning. Compaction writes the next-generation snapshot to a temp
//! name, renames it over the old one, and only then resets the WAL. The
//! rename is the commit point:
//!
//! * crash **before** the rename → old snapshot + old WAL, nothing lost;
//! * crash **after** the rename but before the WAL reset → new snapshot
//!   (generation *g+1*) next to a WAL still marked *g*. [`Index::open`]
//!   sees the stale generation and discards the log: its batches are
//!   already folded into the snapshot, so replaying them would double-count.
//!
//! A WAL from the *future* (generation greater than the snapshot's) can
//! only mean manual file shuffling and is reported as corruption.

use crate::error::IndexError;
use crate::frozen_file;
use crate::frozen_file::FrozenMeta;
use crate::snapshot::{
    read_meta_with, read_snapshot_with, read_taxa_with, scan_snapshot_with, verify_snapshot_with,
    write_snapshot_with, Snapshot, SnapshotMeta,
};
use crate::vfs::{real_vfs, RealVfs, Vfs};
use crate::wal::{scan_wal, Wal, WalOp, WalOpen, WalPolicy, WalRecord, WalTail};
use bfhrf::{check_remove_batch, Bfh, FrozenBfh, RunGuard, SplitDelta};
use phylo::{parse_newick, write_newick, BipartitionScratch, TaxaPolicy, TaxonSet, Tree};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// File name of the snapshot inside an index directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bfh";
/// File name of the WAL inside an index directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the frozen-table sidecar cache inside an index directory.
pub const FROZEN_FILE: &str = "frozen.bfh";
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.bfh.tmp";
pub(crate) const FROZEN_TMP: &str = "frozen.bfh.tmp";

/// The published table folds the delta into fresh lanes once the delta
/// holds more than `1 / FOLD_FRACTION` of the base's distinct splits. A
/// fixed rule: it bounds what the overlay adds to every probe and to every
/// publication's copy of the delta, against one pass over the lanes per
/// fold.
const FOLD_FRACTION: usize = 8;

/// Pre-register the index series a daemon reports — `index_freeze_ns`
/// (every table laid out in fresh lanes: a freeze, a snapshot load or a
/// fold of a delta),
/// `index_folds_total` (the folds) and `index_delta_splits` (distinct
/// splits the published table answers from its delta) — so they read 0
/// from the first scrape instead of appearing at the first write.
pub fn register_index_metrics() {
    let reg = phylo_obs::global();
    reg.histogram("index_freeze_ns", &[]);
    reg.counter("index_folds_total", &[]);
    reg.gauge("index_delta_splits", &[]);
}

/// Live counters describing an opened index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Current compaction generation.
    pub generation: u64,
    /// Trees currently folded into the hash (snapshot plus WAL deltas).
    pub n_trees: usize,
    /// Taxa in the namespace.
    pub n_taxa: usize,
    /// Distinct splits currently stored.
    pub distinct: usize,
    /// Sum of stored frequencies (`sumBFHR`).
    pub sum: u64,
    /// WAL records appended since the last compaction.
    pub wal_pending: usize,
}

impl IndexStats {
    /// Set the `index_generation` and `index_wal_pending` gauges from these
    /// counters, so the metrics registry tracks whichever index was
    /// inspected last (one daemon process serves one index).
    pub fn publish_gauges(&self) {
        let reg = phylo_obs::global();
        reg.gauge("index_generation", &[])
            .set(self.generation as i64);
        reg.gauge("index_wal_pending", &[])
            .set(self.wal_pending as i64);
    }
}

/// An immutable scoring view of the index at one instant: the frozen
/// probe-optimized hash, the (shared) taxon namespace, and the generation
/// they came from. Cheap to clone; the serve daemon hands one `QueryView`
/// to each in-flight batch so every row of a batch is guaranteed to be
/// answered from the same generation even while admin mutations land.
#[derive(Clone)]
pub struct QueryView {
    /// Probe-optimized read-only hash.
    pub frozen: std::sync::Arc<bfhrf::FrozenBfh>,
    /// The frozen taxon namespace.
    pub taxa: std::sync::Arc<TaxonSet>,
    /// Compaction generation this view was taken from.
    pub generation: u64,
}

/// A persistent BFH index opened for reading and incremental mutation.
pub struct Index {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    taxa: std::sync::Arc<TaxonSet>,
    generation: u64,
    /// Shard count of the snapshot header, carried into every compaction
    /// so the rewritten snapshot's bytes do not depend on how it was made.
    n_shards: usize,
    /// `None` after a committed compaction whose WAL reset failed: the
    /// snapshot holds everything durable, but the old log is stale and
    /// appending to it would be silent data loss — mutations are refused
    /// with [`IndexError::WalUnavailable`] until [`Index::compact`] heals
    /// the log or the index is reopened.
    wal: Option<Wal>,
    wal_pending: usize,
    /// Replay policy recorded in the WAL header; compaction recreates the
    /// log with the same policy so a leniently-built index stays lenient
    /// across its whole life.
    policy: WalPolicy,
    /// Recovery notes accumulated while opening (torn WAL tail truncated,
    /// stale log discarded, ...). Surfaced by the CLI and the daemon.
    notes: Vec<String>,
    /// The frozen table `delta` is relative to: the sidecar once the open
    /// cross-checked it against the snapshot, the snapshot's records laid
    /// into fresh lanes, or the last fold.
    base: Arc<FrozenBfh>,
    /// Net split counts written since `base` froze; `base` plus `delta` is
    /// the index's only resident table.
    delta: Arc<SplitDelta>,
    /// The published table, `base` with `delta`, cached until the next
    /// mutation. `Arc` so long-lived readers (the serve daemon) keep a
    /// generation alive across snapshot swaps.
    frozen: Option<Arc<FrozenBfh>>,
    /// `base` plus `delta` as a hash, built only when [`Index::bfh`] is
    /// called and cleared by every write.
    bfh: OnceLock<Bfh>,
}

/// Fold WAL records into `delta`, under the policy the log itself was
/// created with. An index built leniently keeps that promise across
/// restarts: a record whose payload no longer decodes against the frozen
/// namespace is skipped with a note (and counted), exactly as the original
/// ingest would have skipped the source tree. Under the strict policy the
/// same record is fatal corruption, as before. A *remove* of a tree that
/// `base` plus `delta` does not hold is fatal under both policies — that is
/// not a bad input, it is a log that disagrees with its own snapshot.
fn replay(
    base: &FrozenBfh,
    delta: &mut SplitDelta,
    taxa: &TaxonSet,
    records: &[WalRecord],
    policy: WalPolicy,
    notes: &mut Vec<String>,
) -> Result<(), IndexError> {
    // The namespace is frozen at snapshot time; payloads must resolve
    // against it, so one scratch clone satisfies the parser's `&mut` for
    // every record (`TaxaPolicy::Require` keeps it from growing).
    let mut scratch = taxa.clone();
    let mut splits = BipartitionScratch::new();
    for (i, rec) in records.iter().enumerate() {
        let tree = match rec.decode_with_scratch(taxa, &mut scratch) {
            Ok(tree) => tree,
            Err(e) if policy == WalPolicy::Lenient && !matches!(e, IndexError::Io { .. }) => {
                phylo_obs::global()
                    .counter("wal_replay_skipped_total", &[])
                    .inc();
                notes.push(format!(
                    "wal: skipped undecodable record {i} (lenient): {e}"
                ));
                continue;
            }
            Err(e) => {
                return Err(IndexError::Corrupt {
                    section: "wal-record",
                    detail: format!("record {i} does not decode against the index taxa: {e}"),
                })
            }
        };
        let sign = match rec.op {
            WalOp::Add => 1,
            WalOp::Remove => {
                check_remove_batch(&base.overlay(delta), std::slice::from_ref(&tree), taxa)
                    .map_err(|(_, e)| IndexError::Corrupt {
                        section: "wal-record",
                        detail: format!("record {i} removes a tree the hash does not hold: {e}"),
                    })?;
                -1
            }
        };
        delta.record(&splits.batch_splits(&tree, taxa), sign);
    }
    Ok(())
}

/// The refusal every mutation gets while the log is out of service.
fn wal_unavailable() -> IndexError {
    IndexError::WalUnavailable {
        detail: "the log could not be reset after the last compaction committed".into(),
    }
}

/// Record a table laid out in fresh lanes since `start` in
/// `index_freeze_ns`.
fn record_lay_out(start: Instant) {
    phylo_obs::global()
        .histogram("index_freeze_ns", &[])
        .record_duration(start.elapsed());
}

/// Why a sidecar that passed its own checks cannot shadow the snapshot
/// whose header the caller read.
enum Mismatch {
    /// The sidecar was written at this other generation.
    Generation(u64),
    /// The generation matches but a layout scalar does not.
    Layout,
}

fn mismatch(f: &FrozenMeta, meta: &SnapshotMeta) -> Option<Mismatch> {
    let l = f.layout;
    if f.generation != meta.generation {
        Some(Mismatch::Generation(f.generation))
    } else if l.n_taxa != meta.n_taxa
        || l.n_trees != meta.n_trees
        || l.sum != meta.sum
        || l.distinct != meta.distinct
    {
        Some(Mismatch::Layout)
    } else {
        None
    }
}

/// The frozen sidecar as a candidate base for a fresh open, when it is
/// current: at the snapshot's generation and agreeing with its header.
/// Anything else is a cache miss, with a note when the file looked wrong.
/// The caller still cross-checks the candidate against the snapshot's
/// records before trusting it ([`open_base`]).
fn prime_base(
    vfs: &dyn Vfs,
    dir: &Path,
    meta: &SnapshotMeta,
    guard: &RunGuard,
    notes: &mut Vec<String>,
) -> Option<Arc<FrozenBfh>> {
    let path = dir.join(FROZEN_FILE);
    if !vfs.exists(&path) {
        return None;
    }
    let f = match frozen_file::open_frozen_with(vfs, &path, guard) {
        Ok(f) => f,
        Err(e) => {
            notes.push(format!("frozen sidecar unreadable (cache only): {e}"));
            return None;
        }
    };
    match mismatch(&f.meta, meta) {
        None => Some(Arc::new(f.frozen)),
        Some(Mismatch::Generation(found)) => {
            notes.push(format!(
                "frozen sidecar is stale (generation {found} vs {}); ignoring it",
                meta.generation
            ));
            None
        }
        Some(Mismatch::Layout) => {
            notes.push(
                "frozen sidecar disagrees with the snapshot scalars; ignoring it".to_string(),
            );
            None
        }
    }
}

/// Split records streamed from the snapshot, probed against a candidate
/// base in runs of [`CrossCheck::RUN`] so the probes pipeline
/// ([`FrozenBfh::first_inexact`]).
struct CrossCheck<'a> {
    base: &'a FrozenBfh,
    masks: Vec<u64>,
    freqs: Vec<u32>,
    /// Records probed before the current run.
    done: usize,
    /// The first record that probed to another count.
    first: Option<usize>,
}

impl<'a> CrossCheck<'a> {
    const RUN: usize = 1024;

    fn new(base: &'a FrozenBfh) -> Self {
        CrossCheck {
            base,
            masks: Vec::with_capacity(Self::RUN * base.words()),
            freqs: Vec::with_capacity(Self::RUN),
            done: 0,
            first: None,
        }
    }

    fn push(&mut self, words: &[u64], freq: u32) {
        self.masks.extend_from_slice(words);
        self.freqs.push(freq);
        if self.freqs.len() == Self::RUN {
            self.probe();
        }
    }

    fn probe(&mut self) {
        if self.first.is_none() {
            self.first = self
                .base
                .first_inexact(&self.masks, &self.freqs)
                .map(|i| self.done + i);
        }
        self.done += self.freqs.len();
        self.masks.clear();
        self.freqs.clear();
    }

    /// The first record that disagreed, if any.
    fn finish(mut self) -> Option<usize> {
        self.probe();
        self.first
    }
}

/// The snapshot's table and namespace for a read-write open. A current
/// sidecar becomes the base only once the snapshot has streamed past it
/// through every snapshot check, with each record probing to its own count
/// ([`FrozenBfh::first_inexact`], which compares the pooled mask too)
/// and the distinct counts equal — so every lane of the base holds exactly
/// the snapshot's splits. Without a sidecar, or with one refused (and
/// noted), the base is the snapshot's records laid into lanes sized from
/// its header as they are read ([`read_snapshot_with`]); no hash is built,
/// and the read is timed into `index_freeze_ns` as the lay-out.
fn open_base(
    vfs: &dyn Vfs,
    dir: &Path,
    guard: &RunGuard,
    notes: &mut Vec<String>,
) -> Result<(Arc<FrozenBfh>, TaxonSet, SnapshotMeta), IndexError> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let header = read_meta_with(vfs, &snap_path)?;
    if let Some(base) = prime_base(vfs, dir, &header, guard, notes) {
        let mut check = CrossCheck::new(&base);
        let (meta, taxa) = scan_snapshot_with(vfs, &snap_path, guard, |words, freq| {
            check.push(words, freq);
            Ok(())
        })?;
        match check.finish() {
            None if meta == header && base.distinct() == meta.distinct => {
                return Ok((base, taxa, meta))
            }
            Some(i) => notes.push(format!(
                "frozen sidecar disagrees with snapshot split record {i}; ignoring it"
            )),
            None => notes.push(
                "frozen sidecar disagrees with the snapshot's split count; ignoring it".to_string(),
            ),
        }
    }
    let start = Instant::now();
    let Snapshot { table, taxa, meta } = read_snapshot_with(vfs, &snap_path, guard)?;
    record_lay_out(start);
    Ok((Arc::new(table), taxa, meta))
}

impl Index {
    /// Create a fresh index at `dir` (created if missing) from an
    /// in-memory hash, writing a generation-0 snapshot and an empty WAL:
    /// [`Index::create_table`] of the hash's freeze, with a shard count of
    /// 1 in the snapshot header. Refuses to overwrite an existing snapshot.
    pub fn create(dir: &Path, bfh: Bfh, taxa: TaxonSet) -> Result<Index, IndexError> {
        let start = Instant::now();
        let table = bfh.freeze();
        record_lay_out(start);
        drop(bfh);
        Index::create_table(dir, table, 1, taxa)
    }

    /// Create a fresh index at `dir` from a frozen table, with `n_shards`
    /// written verbatim in the snapshot header (the build's `--shards`
    /// value, kept through compactions and shown by `index inspect`; no
    /// load depends on it). The table itself
    /// becomes the base and the sidecar, so no hash is built and nothing is
    /// frozen.
    pub fn create_table(
        dir: &Path,
        table: FrozenBfh,
        n_shards: usize,
        taxa: TaxonSet,
    ) -> Result<Index, IndexError> {
        Index::create_table_policy_with(real_vfs(), dir, table, n_shards, taxa, WalPolicy::Strict)
    }

    /// [`Index::create_table`] routed through an explicit [`Vfs`], with an
    /// explicit WAL replay policy. An index created [`WalPolicy::Lenient`]
    /// skips (and notes) undecodable WAL records on replay instead of
    /// refusing to open — the persistent counterpart of a lenient ingest.
    /// A table carrying a delta is folded into fresh lanes first, since
    /// only lanes have a sidecar form.
    pub fn create_table_policy_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        table: FrozenBfh,
        n_shards: usize,
        taxa: TaxonSet,
        policy: WalPolicy,
    ) -> Result<Index, IndexError> {
        vfs.create_dir_all(dir)
            .map_err(|e| IndexError::io(dir, e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        if vfs.exists(&snap_path) {
            return Err(IndexError::io(
                &snap_path,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "index already exists here (use open, or pick a fresh directory)",
                ),
            ));
        }
        let tmp = dir.join(SNAPSHOT_TMP);
        if let Err(e) = write_snapshot_with(&*vfs, &tmp, &table, n_shards, &taxa, 0) {
            let _ = vfs.remove_file(&tmp);
            return Err(e);
        }
        vfs.rename(&tmp, &snap_path)
            .map_err(|e| IndexError::io(&snap_path, e))?;
        let wal = Wal::create_policy_with(vfs.clone(), &dir.join(WAL_FILE), 0, policy)?;
        let base = Arc::new(if table.has_delta() {
            table.folded()
        } else {
            table
        });
        let mut index = Index {
            dir: dir.to_path_buf(),
            vfs,
            taxa: std::sync::Arc::new(taxa),
            generation: 0,
            n_shards,
            wal: Some(wal),
            wal_pending: 0,
            policy,
            notes: Vec::new(),
            delta: Arc::new(SplitDelta::new(base.n_taxa())),
            base: Arc::clone(&base),
            frozen: Some(Arc::clone(&base)),
            bfh: OnceLock::new(),
        };
        index.write_frozen_sidecar(&base);
        Ok(index)
    }

    /// Open the index at `dir` with the permissive default guard.
    pub fn open(dir: &Path) -> Result<Index, IndexError> {
        Index::open_guarded(dir, &RunGuard::default())
    }

    /// Open the index at `dir`: validate the snapshot and take its table
    /// (the cross-checked sidecar, or the snapshot's records laid into
    /// fresh lanes), then
    /// replay the WAL into a delta on top of it, checking removals exactly
    /// as the live index does. `guard` bounds the snapshot load.
    pub fn open_guarded(dir: &Path, guard: &RunGuard) -> Result<Index, IndexError> {
        Index::open_guarded_with(real_vfs(), dir, guard)
    }

    /// [`Index::open`] routed through an explicit [`Vfs`].
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<Index, IndexError> {
        Index::open_guarded_with(vfs, dir, &RunGuard::default())
    }

    /// [`Index::open_guarded`] routed through an explicit [`Vfs`].
    pub fn open_guarded_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        guard: &RunGuard,
    ) -> Result<Index, IndexError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if !vfs.exists(&snap_path) {
            return Err(IndexError::NotAnIndex(format!(
                "no {SNAPSHOT_FILE} in {}",
                dir.display()
            )));
        }
        // Compaction scratch left by a crash between the snapshot write
        // and the rename: the real snapshot is authoritative, the scratch
        // is garbage.
        let tmp = dir.join(SNAPSHOT_TMP);
        let mut notes = Vec::new();
        if vfs.exists(&tmp) && vfs.remove_file(&tmp).is_ok() {
            notes.push(format!(
                "removed stale compaction scratch {SNAPSHOT_TMP} (crash before commit)"
            ));
        }
        let frozen_tmp = dir.join(FROZEN_TMP);
        if vfs.exists(&frozen_tmp) && vfs.remove_file(&frozen_tmp).is_ok() {
            notes.push(format!(
                "removed stale frozen sidecar scratch {FROZEN_TMP} (crash before commit)"
            ));
        }
        let (base, taxa, meta) = open_base(&*vfs, dir, guard, &mut notes)?;
        let mut delta = SplitDelta::new(meta.n_taxa);

        let wal_path = dir.join(WAL_FILE);
        let (wal, wal_pending) = if vfs.exists(&wal_path) {
            match Wal::recover(vfs.clone(), &wal_path)? {
                None => {
                    // Header torn by a crash mid log-reset: the log holds
                    // nothing replayable — not even its policy byte — so
                    // start a fresh strict one.
                    notes.push(
                        "wal: header torn by a crash during log reset; recreated empty log \
                         (strict policy — the torn header lost the recorded one)"
                            .to_string(),
                    );
                    (
                        Wal::create_with(vfs.clone(), &wal_path, meta.generation)?,
                        0,
                    )
                }
                Some(WalOpen {
                    wal,
                    records,
                    notes: wal_notes,
                }) => {
                    notes.extend(wal_notes);
                    match wal.generation().cmp(&meta.generation) {
                        std::cmp::Ordering::Equal => {
                            replay(&base, &mut delta, &taxa, &records, wal.policy(), &mut notes)?;
                            (wal, records.len())
                        }
                        std::cmp::Ordering::Less => {
                            // Crash window between snapshot rename and WAL
                            // reset: these batches are already folded into
                            // the snapshot.
                            notes.push(format!(
                                "wal: discarded stale generation-{} log ({} records already \
                                 folded into the generation-{} snapshot)",
                                wal.generation(),
                                records.len(),
                                meta.generation
                            ));
                            let policy = wal.policy();
                            drop(wal);
                            (
                                Wal::create_policy_with(
                                    vfs.clone(),
                                    &wal_path,
                                    meta.generation,
                                    policy,
                                )?,
                                0,
                            )
                        }
                        std::cmp::Ordering::Greater => {
                            return Err(IndexError::Corrupt {
                                section: "wal-header",
                                detail: format!(
                                    "WAL generation {} is ahead of snapshot generation {}",
                                    wal.generation(),
                                    meta.generation
                                ),
                            });
                        }
                    }
                }
            }
        } else {
            (
                Wal::create_with(vfs.clone(), &wal_path, meta.generation)?,
                0,
            )
        };

        let policy = wal.policy();
        let mut index = Index {
            dir: dir.to_path_buf(),
            vfs,
            taxa: std::sync::Arc::new(taxa),
            generation: meta.generation,
            n_shards: meta.n_shards,
            wal: Some(wal),
            wal_pending,
            policy,
            notes,
            base,
            delta: Arc::new(delta),
            frozen: None,
            bfh: OnceLock::new(),
        };
        // Publish eagerly: an opened index is overwhelmingly read-next.
        // This is the base plus the replayed records as a delta, folded
        // if they outgrew it.
        index.frozen();
        Ok(index)
    }

    /// Recovery notes accumulated while opening this index (empty on a
    /// clean open).
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Current compaction generation (no side effects, unlike
    /// [`Index::stats`] which also refreshes global gauges).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// WAL records appended since the last compaction (no side effects).
    pub fn wal_pending(&self) -> usize {
        self.wal_pending
    }

    /// The replay policy this index's WAL was created with.
    pub fn policy(&self) -> WalPolicy {
        self.policy
    }

    /// Rewrite the frozen sidecar cache for the current generation from
    /// `table`, which must carry no delta (tmp + rename). Failures are
    /// cache misses, not errors: the note records them and the snapshot
    /// path still serves everything.
    fn write_frozen_sidecar(&mut self, table: &FrozenBfh) {
        let tmp = self.dir.join(FROZEN_TMP);
        let path = self.dir.join(FROZEN_FILE);
        let result = frozen_file::write_frozen_with(&*self.vfs, &tmp, table, self.generation)
            .and_then(|()| {
                self.vfs
                    .rename(&tmp, &path)
                    .map_err(|e| IndexError::io(&path, e))
            });
        if let Err(e) = result {
            let _ = self.vfs.remove_file(&tmp);
            self.notes
                .push(format!("frozen sidecar write failed (cache only): {e}"));
        }
    }

    /// The frozen probe-optimized view of the current table, cached until
    /// the next mutation: the base with the writes since it froze as a
    /// delta. It folds the delta into fresh lanes only when the delta
    /// outgrew its [`FOLD_FRACTION`] bound.
    pub fn frozen(&mut self) -> Arc<FrozenBfh> {
        if let Some(f) = &self.frozen {
            return f.clone();
        }
        let f = if self.delta.len() * FOLD_FRACTION <= self.base.distinct() {
            Arc::new(self.base.with_delta(Arc::clone(&self.delta)))
        } else {
            self.fold()
        };
        self.frozen = Some(f.clone());
        f
    }

    /// The current table without a delta — what the sidecar stores: the
    /// base itself when nothing changed since it froze.
    fn folded(&mut self) -> Arc<FrozenBfh> {
        if self.delta.is_empty() {
            self.base.clone()
        } else {
            self.fold()
        }
    }

    /// Fold the delta into fresh lanes built from the base's, make them the
    /// new base, and start an empty delta.
    fn fold(&mut self) -> Arc<FrozenBfh> {
        let start = Instant::now();
        let f = Arc::new(self.base.with_delta(Arc::clone(&self.delta)).folded());
        record_lay_out(start);
        phylo_obs::global().counter("index_folds_total", &[]).inc();
        self.base = f.clone();
        self.delta = Arc::new(SplitDelta::new(f.n_taxa()));
        self.frozen = Some(f.clone());
        f
    }

    /// Snapshot the current state as an immutable [`QueryView`] (see
    /// [`Index::frozen`]); the returned view stays valid (and internally
    /// consistent) no matter what happens to the index afterwards.
    pub fn view(&mut self) -> QueryView {
        QueryView {
            frozen: self.frozen(),
            taxa: self.taxa.clone(),
            generation: self.generation,
        }
    }

    /// The index's splits (snapshot plus replayed/pending WAL batches) as
    /// a hash. Built from the table on
    /// first use and kept until the next write: reads, writes, stats and
    /// compaction never need it, so only callers that want a [`Bfh`] pay
    /// for one.
    pub fn bfh(&self) -> &Bfh {
        self.bfh.get_or_init(|| {
            let table = self.base.with_delta(Arc::clone(&self.delta));
            Bfh::from_table(&table)
        })
    }

    /// The frozen taxon namespace.
    pub fn taxa(&self) -> &TaxonSet {
        &self.taxa
    }

    /// The directory this index lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live counters, read from the published table (or the base patched
    /// with the delta when a write cleared it), touching no gauges.
    pub(crate) fn counters(&self) -> IndexStats {
        let patched;
        let table = match &self.frozen {
            Some(f) => &**f,
            None => {
                patched = self.base.with_delta(Arc::clone(&self.delta));
                &patched
            }
        };
        IndexStats {
            generation: self.generation,
            n_trees: table.n_trees(),
            n_taxa: table.n_taxa(),
            distinct: table.distinct(),
            sum: table.sum(),
            wal_pending: self.wal_pending,
        }
    }

    /// Live counters. Also refreshes the index gauges
    /// ([`IndexStats::publish_gauges`], and `index_delta_splits`).
    pub fn stats(&self) -> IndexStats {
        let stats = self.counters();
        stats.publish_gauges();
        phylo_obs::global()
            .gauge("index_delta_splits", &[])
            .set(self.delta.len() as i64);
        stats
    }

    /// Parse `newick` against the frozen namespace without mutating it.
    fn parse_against_taxa(&self, newick: &str) -> Result<Tree, IndexError> {
        let mut scratch = (*self.taxa).clone();
        Ok(parse_newick(newick, &mut scratch, TaxaPolicy::Require)?)
    }

    /// Whether the log is live (false after a committed compaction whose
    /// WAL reset failed; mutations are refused until healed).
    pub fn wal_available(&self) -> bool {
        self.wal.is_some()
    }

    /// Log `tree` as an `op` record through `log`, then record it in the
    /// delta.
    ///
    /// An add is WAL-first: the record is durable before the table changes,
    /// so a crash replays it on open. A removal is checked against the base
    /// plus the delta **before** the record is logged, so a tree that was
    /// never added fails cleanly and leaves memory and disk unchanged, and
    /// so does a refused append.
    fn apply_logged(
        &mut self,
        tree: &Tree,
        op: WalOp,
        log: impl FnOnce(&mut Wal) -> Result<(), IndexError>,
    ) -> Result<(), IndexError> {
        let wal = self.wal.as_mut().ok_or_else(wal_unavailable)?;
        let sign = match op {
            WalOp::Add => 1,
            WalOp::Remove => {
                let table = self.base.overlay(&self.delta);
                check_remove_batch(&table, std::slice::from_ref(tree), &self.taxa)
                    .map_err(|(_, e)| e)?;
                -1
            }
        };
        log(wal)?;
        // Drop the cached views first, so the delta is copied below only
        // when a published view still shares it.
        self.frozen = None;
        self.bfh = OnceLock::new();
        let mut scratch = BipartitionScratch::new();
        let batch = scratch.batch_splits(tree, &self.taxa);
        Arc::make_mut(&mut self.delta).record(&batch, sign);
        self.wal_pending += 1;
        Ok(())
    }

    /// Log and apply an add of `tree` (see [`Index::apply_logged`]).
    pub fn append_add(&mut self, tree: &Tree) -> Result<(), IndexError> {
        let newick = write_newick(tree, &self.taxa);
        self.apply_logged(tree, WalOp::Add, |wal| wal.append(WalOp::Add, &newick))
    }

    /// Parse `newick` against the index taxa, then log and apply the add.
    pub fn append_add_newick(&mut self, newick: &str) -> Result<(), IndexError> {
        let tree = self.parse_against_taxa(newick)?;
        self.append_add(&tree)
    }

    /// Verify, log and apply a removal of `tree` (see
    /// [`Index::apply_logged`]).
    pub fn append_remove(&mut self, tree: &Tree) -> Result<(), IndexError> {
        let newick = write_newick(tree, &self.taxa);
        self.apply_logged(tree, WalOp::Remove, |wal| {
            wal.append(WalOp::Remove, &newick)
        })
    }

    /// Parse `newick` against the index taxa, then log and apply the
    /// removal.
    pub fn append_remove_newick(&mut self, newick: &str) -> Result<(), IndexError> {
        let tree = self.parse_against_taxa(newick)?;
        self.append_remove(&tree)
    }

    /// Encode `tree` as a [`phylo_wire`] record against this index's own
    /// namespace. `tree` must already be expressed in index taxon ids
    /// (remap before calling if it came from a foreign namespace).
    fn encode_bin(&self, tree: &Tree) -> Result<Vec<u8>, IndexError> {
        phylo_wire::encode_tree_vec(tree).map_err(|e| e.into_phylo().into())
    }

    /// [`Index::append_add`] logging the record in the compact binary
    /// encoding instead of Newick. Replay treats both identically; binary
    /// records skip the Newick round-trip on both append and replay.
    pub fn append_add_bin(&mut self, tree: &Tree) -> Result<(), IndexError> {
        let bytes = self.encode_bin(tree)?;
        self.apply_logged(tree, WalOp::Add, |wal| wal.append_bin(WalOp::Add, &bytes))
    }

    /// [`Index::append_remove`] logging the record in the compact binary
    /// encoding instead of Newick.
    pub fn append_remove_bin(&mut self, tree: &Tree) -> Result<(), IndexError> {
        let bytes = self.encode_bin(tree)?;
        self.apply_logged(tree, WalOp::Remove, |wal| {
            wal.append_bin(WalOp::Remove, &bytes)
        })
    }

    /// Fold the WAL into a fresh snapshot at generation `g+1` and reset
    /// the log. Returns the new snapshot's header. See the module docs for
    /// the crash-safety sequencing.
    ///
    /// # Failure handling
    ///
    /// * Snapshot write or rename fails (ENOSPC, torn write, ...) → the
    ///   scratch file is removed and **nothing changed**: the old
    ///   snapshot, WAL, and in-memory state all stay live.
    /// * The rename commits but the WAL reset fails → the new snapshot
    ///   holds every record durably, but the on-disk log is now stale;
    ///   appending to it would be silently discarded by the next open, so
    ///   the log is taken out of service ([`IndexError::WalUnavailable`]
    ///   on mutations) until a retried `compact` heals it.
    pub fn compact(&mut self) -> Result<SnapshotMeta, IndexError> {
        self.compact_with_hook(|_| Ok(()))
    }

    /// [`Index::compact`] with a callback run immediately after the
    /// snapshot rename commits (and before the WAL reset). The catalog
    /// layer uses this seam to commit its sidecar tree list at the same
    /// generation: if a crash (or the hook itself) interrupts the window,
    /// the still-stale WAL carries exactly the records the sidecar is
    /// missing, so reopening can reconstruct it. A hook failure leaves the
    /// WAL out of service ([`IndexError::WalUnavailable`] on mutations)
    /// until a retried compaction or a reopen heals it.
    pub fn compact_with_hook(
        &mut self,
        after_commit: impl FnOnce(u64) -> Result<(), IndexError>,
    ) -> Result<SnapshotMeta, IndexError> {
        // The snapshot and the sidecar are both written from the table with
        // the delta folded in; folding changes no answer, so a failure
        // below still leaves the index as it was.
        let table = self.folded();
        if self.wal.is_some() {
            let next = self.generation + 1;
            let tmp = self.dir.join(SNAPSHOT_TMP);
            let snap_path = self.dir.join(SNAPSHOT_FILE);
            if let Err(e) =
                write_snapshot_with(&*self.vfs, &tmp, &table, self.n_shards, &self.taxa, next)
            {
                let _ = self.vfs.remove_file(&tmp);
                return Err(e);
            }
            if let Err(e) = self.vfs.rename(&tmp, &snap_path) {
                let _ = self.vfs.remove_file(&tmp);
                return Err(IndexError::io(&snap_path, e));
            }
            // The rename is the commit point: from here the index IS at
            // `next`, and the old-generation log handle must never be
            // appended to again (a reopen discards it as stale).
            self.generation = next;
            self.wal = None;
            self.wal_pending = 0;
            after_commit(next)?;
        }
        // (Re)create the log at the committed generation. On failure the
        // index stays fully readable — the snapshot holds everything —
        // but mutations are refused until a later compact succeeds here.
        self.wal = Some(Wal::create_policy_with(
            self.vfs.clone(),
            &self.dir.join(WAL_FILE),
            self.generation,
            self.policy,
        )?);
        // Refresh the sidecar cache for the committed generation (best
        // effort — the old-generation sidecar would simply be ignored).
        self.write_frozen_sidecar(&table);
        Ok(SnapshotMeta {
            generation: self.generation,
            n_taxa: table.n_taxa(),
            n_trees: table.n_trees(),
            n_shards: self.n_shards,
            sum: table.sum(),
            distinct: table.distinct(),
        })
    }

    /// Open the index at `dir` read-only through the frozen sidecar with
    /// the permissive default guard. See [`Index::open_frozen_with`].
    pub fn open_frozen(dir: &Path) -> Result<FrozenOpen, IndexError> {
        Index::open_frozen_with(real_vfs(), dir, &RunGuard::default())
    }

    /// The zero-copy read path: open the index at `dir` for querying
    /// **without** materializing its splits. Reads only the snapshot
    /// header and taxon table, confirms the WAL holds nothing replayable,
    /// and serves the probe-ready table straight from the `frozen.bfh`
    /// sidecar — memory-mapped in place where the filesystem supports it,
    /// so cold-opening a huge index costs metadata, the ctrl and entries
    /// lane checks, and page faults on the splits actually probed.
    ///
    /// Declines with [`IndexError::FrozenUnavailable`] whenever the fast
    /// path cannot prove it would serve exactly what [`Index::open`]
    /// would: pending or torn WAL records, a missing or stale sidecar, or
    /// a sidecar that fails validation. Callers fall back to the full
    /// open (and its next compaction refreshes the sidecar).
    pub fn open_frozen_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        guard: &RunGuard,
    ) -> Result<FrozenOpen, IndexError> {
        let (meta, taxa, frozen_path) = Index::frozen_candidate(&*vfs, dir, guard)?;
        let opened = frozen_file::open_frozen_with(&*vfs, &frozen_path, guard)
            .map_err(|e| unavailable(format!("sidecar rejected: {e}")))?;
        decline_mismatch(&opened.meta, &meta)?;
        Ok(FrozenOpen {
            frozen: Arc::new(opened.frozen),
            taxa: Arc::new(taxa),
            meta,
            mapped: opened.mapped,
        })
    }

    /// The read-only open a daemon binds with: [`Index::open_frozen`],
    /// with the whole snapshot streamed through every check
    /// ([`verify_snapshot_with`]) so a read-only daemon still refuses a
    /// corrupt snapshot it never loads.
    ///
    /// `Ok(None)` whenever [`Index::open_frozen`] would decline or fail,
    /// for any reason: the caller falls back to [`Index::open`]. The cheap
    /// declines run first on the calling thread (the WAL, a missing
    /// sidecar, its header and its generation and scalars against the
    /// snapshot's), so such a fallback pays for no scan. Then the
    /// snapshot is verified on a second thread while this one opens the
    /// sidecar. `Err` is the snapshot's own error when the sidecar passed
    /// and the snapshot did not.
    pub fn open_frozen_verified(dir: &Path) -> Result<Option<FrozenOpen>, IndexError> {
        let guard = RunGuard::default();
        let Ok((meta, taxa, frozen_path)) = Index::frozen_candidate(&RealVfs, dir, &guard) else {
            return Ok(None);
        };
        let header = match frozen_file::read_frozen_meta_with(&RealVfs, &frozen_path) {
            Ok(header) if mismatch(&header, &meta).is_none() => header,
            _ => return Ok(None),
        };
        let snapshot = dir.join(SNAPSHOT_FILE);
        let (opened, verified) = std::thread::scope(|s| {
            let verified = s.spawn(|| verify_snapshot_with(&RealVfs, &snapshot, &guard));
            let opened = frozen_file::open_frozen_with(&RealVfs, &frozen_path, &guard);
            let verified = verified
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (opened, verified)
        });
        // A sidecar replaced since its header was read is declined too.
        let opened = match opened {
            Ok(opened) if opened.meta == header => opened,
            _ => return Ok(None),
        };
        verified?;
        Ok(Some(FrozenOpen {
            frozen: Arc::new(opened.frozen),
            taxa: Arc::new(taxa),
            meta,
            mapped: opened.mapped,
        }))
    }

    /// The read-only open's declines that read no sidecar: the snapshot's
    /// header and taxa, then a WAL holding anything to repair or replay,
    /// then a missing sidecar. Returns the header, the taxa and the
    /// sidecar's path.
    fn frozen_candidate(
        vfs: &dyn Vfs,
        dir: &Path,
        guard: &RunGuard,
    ) -> Result<(SnapshotMeta, TaxonSet, PathBuf), IndexError> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if !vfs.exists(&snap_path) {
            return Err(IndexError::NotAnIndex(format!(
                "no {SNAPSHOT_FILE} in {}",
                dir.display()
            )));
        }
        let (meta, taxa) = read_taxa_with(vfs, &snap_path, guard)?;

        // The fast path is strictly read-only: it must not truncate torn
        // tails or recreate stale logs, so anything the read-write open
        // would have to repair or replay is a refusal, not a repair.
        let wal_path = dir.join(WAL_FILE);
        if vfs.exists(&wal_path) {
            let scan = scan_wal(vfs, &wal_path)?;
            if !matches!(scan.tail, WalTail::Clean) {
                return Err(unavailable(
                    "the WAL has a torn tail; open the index read-write to recover it".into(),
                ));
            }
            if scan.generation > meta.generation {
                return Err(IndexError::Corrupt {
                    section: "wal-header",
                    detail: format!(
                        "WAL generation {} is ahead of snapshot generation {}",
                        scan.generation, meta.generation
                    ),
                });
            }
            if scan.generation == meta.generation && !scan.records.is_empty() {
                return Err(unavailable(format!(
                    "{} WAL records await replay; open read-write and compact to refresh \
                     the frozen sidecar",
                    scan.records.len()
                )));
            }
            // generation < meta: a stale log the read-write open would
            // discard — its records are already folded into the snapshot.
        }

        let frozen_path = dir.join(FROZEN_FILE);
        if !vfs.exists(&frozen_path) {
            return Err(unavailable(format!(
                "no {FROZEN_FILE} sidecar (compact the index once to write it)"
            )));
        }
        Ok((meta, taxa, frozen_path))
    }
}

fn unavailable(detail: String) -> IndexError {
    IndexError::FrozenUnavailable { detail }
}

/// The read-only open's refusal of a sidecar that cannot shadow the
/// snapshot whose header it read.
fn decline_mismatch(f: &FrozenMeta, meta: &SnapshotMeta) -> Result<(), IndexError> {
    match mismatch(f, meta) {
        None => Ok(()),
        Some(Mismatch::Generation(found)) => Err(unavailable(format!(
            "sidecar is stale (generation {found} vs snapshot {})",
            meta.generation
        ))),
        Some(Mismatch::Layout) => Err(unavailable(
            "sidecar layout disagrees with the snapshot header".into(),
        )),
    }
}

/// A read-only index opened through the frozen sidecar — everything a
/// query path needs, without its splits ever being read.
#[derive(Debug)]
pub struct FrozenOpen {
    /// The probe-ready table (possibly borrowing a live memory mapping).
    pub frozen: std::sync::Arc<bfhrf::FrozenBfh>,
    /// The frozen taxon namespace.
    pub taxa: std::sync::Arc<TaxonSet>,
    /// The snapshot header the sidecar was validated against.
    pub meta: SnapshotMeta,
    /// Whether the table lanes are memory-mapped (zero-copy) rather than
    /// owned copies.
    pub mapped: bool,
}

impl FrozenOpen {
    /// An immutable [`QueryView`] over this read-only open.
    pub fn view(&self) -> QueryView {
        QueryView {
            frozen: self.frozen.clone(),
            taxa: self.taxa.clone(),
            generation: self.meta.generation,
        }
    }

    /// The counters [`Index::stats`] would report after a read-write open
    /// of the same directory: the snapshot header, and an empty WAL (the
    /// sidecar path declines whenever records are pending).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            generation: self.meta.generation,
            n_trees: self.meta.n_trees,
            n_taxa: self.meta.n_taxa,
            distinct: self.meta.distinct,
            sum: self.meta.sum,
            wal_pending: 0,
        }
    }
}
