//! Persistent on-disk BFH index.
//!
//! The frozen bipartition frequency table ([`bfhrf::FrozenBfh`]) is cheap
//! to query but costs a full Newick parse + split enumeration to rebuild.
//! This crate makes it durable:
//!
//! * [`snapshot`] — a versioned binary snapshot of a whole table (taxon
//!   table + sorted split records, per-section FNV-1a checksums). Loading
//!   one lays the records into a frozen table that answers exactly what
//!   the written one did: same frequencies, same `sum`, so every RF answer
//!   matches an in-memory build exactly.
//! * [`wal`] — an append-only log of add/remove tree batches, fsynced per
//!   record, replayed on open into a delta over that table, with removals
//!   checked exactly as the live index checks them.
//! * [`Index`] — the directory-level lifecycle tying the two together:
//!   create, open (snapshot + replay), append, and [`Index::compact`],
//!   which folds the log into a next-generation snapshot with a
//!   rename-as-commit-point protocol (see [`index`] module docs).
//!
//! Corruption anywhere — flipped bytes, truncation, stale or future WAL
//! generations — surfaces as a typed [`IndexError`], never a panic, so a
//! daemon can keep serving from its last good in-memory state.

pub mod catalog;
pub mod error;
pub mod format;
pub mod frozen_file;
pub mod index;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use catalog::{
    replay_manifest, scan_manifest, validate_name, Catalog, CatalogOp, Collection, CollectionCell,
    CollectionInfo, ManifestScan, PinnedCollection, COLLECTIONS_DIR, DEFAULT_COLLECTION,
    MANIFEST_FILE, MANIFEST_MAGIC, MANIFEST_VERSION, TREES_FILE,
};
pub use error::IndexError;
pub use frozen_file::{
    open_frozen_with as open_frozen_file_with, read_frozen_meta, read_frozen_meta_with,
    verify_frozen_with, write_frozen_with, FrozenMeta, FrozenOpenFile, FrozenSection, FROZEN_MAGIC,
    FROZEN_VERSION,
};
pub use index::{
    register_index_metrics, FrozenOpen, Index, IndexStats, QueryView, FROZEN_FILE, SNAPSHOT_FILE,
    WAL_FILE,
};
pub use snapshot::{
    read_meta, read_meta_with, read_snapshot, read_snapshot_with, read_taxa_with,
    verify_snapshot_with, write_snapshot, write_snapshot_with, Snapshot, SnapshotMeta,
    FORMAT_VERSION, SNAPSHOT_MAGIC,
};
pub use vfs::{
    real_vfs, seeded_schedule, Fault, FaultKind, FaultSite, FaultVfs, JournalOp, Mapping, MemVfs,
    RealVfs, Vfs, VfsFile,
};
pub use wal::{
    read_wal, scan_wal, Wal, WalOp, WalOpen, WalPayload, WalPolicy, WalRecord, WalScan, WalTail,
    WAL_MAGIC, WAL_VERSION,
};
