//! The collection catalog: many named indexes behind one crash-safe
//! manifest, LRU-managed under a global byte budget.
//!
//! # Manifest format (version 1, all integers little-endian)
//!
//! ```text
//! magic    8  bytes  "BFHCAT\0\0"
//! version  u16
//! -- records, appended over time -----------------------------------
//! each: { op u8 (1=create, 2=drop, 3=rename) | payload_len u32 |
//!         payload (UTF-8) | FNV-1a 64 checksum of op+len+payload }
//! ```
//!
//! Payloads: create = `name\tdir`, drop = `name`, rename = `old\tnew`.
//! Replaying the records in order reconstructs the name → directory map;
//! any replay that is impossible to produce by our own writers (duplicate
//! create, drop of a missing name) is typed corruption. Torn tails follow
//! the WAL rules exactly: a cut or garbled **final** record is a crash
//! artifact and is truncated away with a note; a file ending inside the
//! 10-byte header can only be a crash during catalog initialization and
//! recovers to an empty catalog.
//!
//! # Commit protocol
//!
//! A collection's files are written **before** its manifest record: create
//! builds the index directory (snapshot, WAL, tree-list sidecar), then
//! appends the fsynced `create` record, which is the commit point. A crash
//! before the append leaves an orphan directory the manifest never
//! mentions (scrubbed if the name is created again); a crash after it
//! leaves a fully-formed collection. Drop appends its record first, then
//! removes files best-effort — leftover bytes of a dropped collection are
//! garbage, not state. Rename is a pure manifest operation (the directory
//! name is stored in the record, so no files move).
//!
//! # Tree-list sidecar (`trees.nwk`)
//!
//! Cross-collection RF ([`Collection::tree_collection`], the serve
//! daemon's `xavgrf`) needs the actual trees, which neither the snapshot
//! nor the frozen hash retain. Each collection therefore keeps a sidecar:
//! a header line `#bfhrf-trees v1 gen G applied K` followed by one
//! canonical Newick per line, meaning "the tree list with the first K
//! records of the generation-G WAL applied". The sidecar is only ever
//! replaced by rename, so it is never torn. Mutations append to the WAL
//! as usual and the sidecar catches up on the next open (the unapplied
//! tail is folded in **and re-committed durably before** [`Index::open`]
//! may discard a stale log, so the records can never be lost); compaction
//! renames the next-generation sidecar into place between the snapshot
//! commit and the WAL reset, which keeps every crash window reconstructible.
//!
//! # LRU under a byte budget
//!
//! Collections open lazily. Each open collection's frozen table is the
//! unit of accounting ([`bfhrf::FrozenBfh::approx_bytes`]); when admitting
//! a newly-opened collection would exceed the budget,
//! [`bfhrf::RunBudget::check_alloc_or_evict`] asks the catalog's eviction
//! hook to drop least-recently-used **unpinned** collections until it
//! fits. A collection pinned by an in-flight batch or admin op is never
//! evicted. If everything else is pinned and the newcomer still does not
//! fit, the catalog serves it anyway (over budget, counted in
//! `catalog_overcommit_total`) — correctness is never traded for the
//! budget. Reopening an evicted collection reproduces a bitwise-identical
//! frozen table ([`bfhrf::FrozenBfh::digest`]).

use crate::error::IndexError;
use crate::format::Digest;
use crate::index::{Index, IndexStats, QueryView, SNAPSHOT_FILE, SNAPSHOT_TMP, WAL_FILE};
use crate::snapshot::{read_taxa_with, SnapshotMeta};
use crate::vfs::{real_vfs, Vfs, VfsFile};
use crate::wal::{scan_wal, WalOp, WalPayload, WalPolicy, WalRecord, WalTail};
use bfhrf::{BfhBuilder, RunBudget, RunGuard};
use phylo::{parse_newick, write_newick, TaxaPolicy, TaxonSet, Tree, TreeCollection};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// File name of the catalog manifest inside a catalog root.
pub const MANIFEST_FILE: &str = "catalog.manifest";
/// Subdirectory of the catalog root holding collection directories.
pub const COLLECTIONS_DIR: &str = "collections";
/// File name of the tree-list sidecar inside a collection directory.
pub const TREES_FILE: &str = "trees.nwk";
const TREES_TMP: &str = "trees.nwk.tmp";

/// Magic bytes opening every manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"BFHCAT\0\0";
/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u16 = 1;
const MANIFEST_HEADER_LEN: u64 = 8 + 2;
/// Bounds what a corrupt length field can make the reader allocate.
const MAX_MANIFEST_PAYLOAD: usize = 4096;

const OP_CREATE: u8 = 1;
const OP_DROP: u8 = 2;
const OP_RENAME: u8 = 3;

/// The name every collection-less request resolves to; reserved so a
/// catalog entry can never shadow it.
pub const DEFAULT_COLLECTION: &str = "default";

/// One replayable manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogOp {
    /// Bind `name` to the collection directory `dir` (relative to
    /// `<root>/collections/`).
    Create {
        /// Collection name.
        name: String,
        /// Directory name under the collections subdirectory.
        dir: String,
    },
    /// Unbind `name`.
    Drop {
        /// Collection name.
        name: String,
    },
    /// Rebind `from`'s directory under the name `to`.
    Rename {
        /// Old name.
        from: String,
        /// New name.
        to: String,
    },
}

/// The result of a lenient manifest scan: validated records plus a
/// classification of how the byte stream ends (reusing [`WalTail`]).
#[derive(Debug)]
pub struct ManifestScan {
    /// Every fully-validated record, in append order.
    pub records: Vec<CatalogOp>,
    /// Offset one past the last valid byte (header or record end).
    pub valid_len: u64,
    /// Tail classification.
    pub tail: WalTail,
}

fn record_checksum(op: u8, payload: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(&[op]);
    d.update(&(payload.len() as u32).to_le_bytes());
    d.update(payload);
    d.value()
}

fn read_fully(r: &mut impl Read, buf: &mut [u8], offset: &mut u64) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            *offset += filled as u64;
            return Ok(false);
        }
        filled += n;
    }
    *offset += buf.len() as u64;
    Ok(true)
}

fn decode_record(op: u8, payload: &str, at: usize) -> Result<CatalogOp, IndexError> {
    let corrupt = |detail: String| IndexError::Corrupt {
        section: "manifest",
        detail,
    };
    let pair = || {
        payload
            .split_once('\t')
            .ok_or_else(|| corrupt(format!("record {at} payload is missing its separator")))
    };
    match op {
        OP_CREATE => {
            let (name, dir) = pair()?;
            Ok(CatalogOp::Create {
                name: name.to_string(),
                dir: dir.to_string(),
            })
        }
        OP_DROP => Ok(CatalogOp::Drop {
            name: payload.to_string(),
        }),
        OP_RENAME => {
            let (from, to) = pair()?;
            Ok(CatalogOp::Rename {
                from: from.to_string(),
                to: to.to_string(),
            })
        }
        other => Err(corrupt(format!("record {at} has unknown op {other}"))),
    }
}

/// Scan the manifest at `path`, validating records and classifying the
/// tail instead of failing on it. Corruption *before* the final record is
/// a typed error, exactly like [`scan_wal`].
pub fn scan_manifest(vfs: &dyn Vfs, path: &Path) -> Result<ManifestScan, IndexError> {
    let file = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut r = std::io::BufReader::new(file);
    let mut offset: u64 = 0;
    let io_err = |e| IndexError::io(path, e);

    let torn_header = |offset| ManifestScan {
        records: Vec::new(),
        valid_len: 0,
        tail: WalTail::TornHeader { len: offset },
    };

    let mut magic = [0u8; 8];
    if !read_fully(&mut r, &mut magic, &mut offset).map_err(io_err)? {
        return Ok(torn_header(offset));
    }
    if &magic != MANIFEST_MAGIC {
        return Err(IndexError::NotAnIndex(format!(
            "bad manifest magic {:02x?} (expected {:02x?})",
            magic, MANIFEST_MAGIC
        )));
    }
    let mut ver = [0u8; 2];
    if !read_fully(&mut r, &mut ver, &mut offset).map_err(io_err)? {
        return Ok(torn_header(offset));
    }
    let version = u16::from_le_bytes(ver);
    if version == 0 || version > MANIFEST_VERSION {
        return Err(IndexError::Version {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut valid_len = offset;
    loop {
        let mut op_byte = [0u8; 1];
        if !read_fully(&mut r, &mut op_byte, &mut offset).map_err(io_err)? {
            return Ok(ManifestScan {
                records,
                valid_len,
                tail: WalTail::Clean,
            });
        }
        let torn = |offset: u64, records: Vec<CatalogOp>| ManifestScan {
            records,
            valid_len,
            tail: WalTail::TornRecord {
                valid_len,
                lost: offset - valid_len,
            },
        };
        if !matches!(op_byte[0], OP_CREATE | OP_DROP | OP_RENAME) {
            return Err(IndexError::Corrupt {
                section: "manifest",
                detail: format!("record {} has unknown op {}", records.len(), op_byte[0]),
            });
        }
        let mut len_bytes = [0u8; 4];
        if !read_fully(&mut r, &mut len_bytes, &mut offset).map_err(io_err)? {
            return Ok(torn(offset, records));
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_MANIFEST_PAYLOAD {
            return Err(IndexError::Corrupt {
                section: "manifest",
                detail: format!(
                    "record {} claims implausible payload length {len}",
                    records.len()
                ),
            });
        }
        let mut payload = vec![0u8; len];
        if !read_fully(&mut r, &mut payload, &mut offset).map_err(io_err)? {
            return Ok(torn(offset, records));
        }
        let mut sum = [0u8; 8];
        if !read_fully(&mut r, &mut sum, &mut offset).map_err(io_err)? {
            return Ok(torn(offset, records));
        }
        if record_checksum(op_byte[0], &payload) != u64::from_le_bytes(sum) {
            let mut probe = [0u8; 1];
            return if read_fully(&mut r, &mut probe, &mut offset).map_err(io_err)? {
                Err(IndexError::Corrupt {
                    section: "manifest",
                    detail: format!("record {} checksum mismatch", records.len()),
                })
            } else {
                Ok(torn(offset, records))
            };
        }
        let payload = String::from_utf8(payload).map_err(|_| IndexError::Corrupt {
            section: "manifest",
            detail: format!("record {} payload is not valid UTF-8", records.len()),
        })?;
        records.push(decode_record(op_byte[0], &payload, records.len())?);
        valid_len = offset;
    }
}

/// Replay manifest records into the name → directory map. Violations
/// (duplicate create, drop or rename of a missing name) cannot be produced
/// by tearing a suffix off our own writes and are typed corruption.
pub fn replay_manifest(records: &[CatalogOp]) -> Result<BTreeMap<String, String>, IndexError> {
    let mut map = BTreeMap::new();
    let corrupt = |detail: String| IndexError::Corrupt {
        section: "manifest",
        detail,
    };
    for (i, rec) in records.iter().enumerate() {
        match rec {
            CatalogOp::Create { name, dir } => {
                if map.insert(name.clone(), dir.clone()).is_some() {
                    return Err(corrupt(format!(
                        "record {i} creates existing name {name:?}"
                    )));
                }
            }
            CatalogOp::Drop { name } => {
                if map.remove(name).is_none() {
                    return Err(corrupt(format!("record {i} drops unknown name {name:?}")));
                }
            }
            CatalogOp::Rename { from, to } => {
                let Some(dir) = map.remove(from) else {
                    return Err(corrupt(format!("record {i} renames unknown name {from:?}")));
                };
                if map.insert(to.clone(), dir).is_some() {
                    return Err(corrupt(format!(
                        "record {i} renames {from:?} over existing name {to:?}"
                    )));
                }
            }
        }
    }
    Ok(map)
}

fn catalog_err(detail: impl Into<String>) -> IndexError {
    IndexError::Catalog {
        detail: detail.into(),
    }
}

/// Validate a collection name: 1–64 characters of `[A-Za-z0-9_.-]`, no
/// leading dot, and not the reserved default name. The character set is
/// what keeps `name` usable verbatim as a directory name and an obs label.
pub fn validate_name(name: &str) -> Result<(), IndexError> {
    if name.is_empty() || name.len() > 64 {
        return Err(catalog_err(format!(
            "collection name must be 1-64 characters, got {}",
            name.len()
        )));
    }
    if name.starts_with('.') {
        return Err(catalog_err("collection name must not start with '.'"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    {
        return Err(catalog_err(format!(
            "collection name {name:?} has characters outside [A-Za-z0-9_.-]"
        )));
    }
    if name == DEFAULT_COLLECTION {
        return Err(catalog_err(format!(
            "{DEFAULT_COLLECTION:?} is reserved for the collection-less default"
        )));
    }
    Ok(())
}

/// Intern a collection name as a `&'static str` for obs labels. The
/// catalog is a small bounded set, so leaking one copy per distinct name
/// per process keeps the registry's `&'static` label contract.
fn collection_label(name: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

// ---------------------------------------------------------------------
// Tree-list sidecar
// ---------------------------------------------------------------------

fn sidecar_bytes(generation: u64, applied: usize, lines: &[String]) -> Vec<u8> {
    let mut buf = format!("#bfhrf-trees v1 gen {generation} applied {applied}\n");
    for l in lines {
        buf.push_str(l);
        buf.push('\n');
    }
    buf.into_bytes()
}

fn write_sidecar_tmp(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    applied: usize,
    lines: &[String],
) -> Result<(), IndexError> {
    let tmp = dir.join(TREES_TMP);
    let mut f = vfs.create(&tmp).map_err(|e| IndexError::io(&tmp, e))?;
    f.write_all(&sidecar_bytes(generation, applied, lines))
        .map_err(|e| IndexError::io(&tmp, e))?;
    f.sync_all().map_err(|e| IndexError::io(&tmp, e))?;
    Ok(())
}

fn write_sidecar(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    applied: usize,
    lines: &[String],
) -> Result<(), IndexError> {
    write_sidecar_tmp(vfs, dir, generation, applied, lines)?;
    let tmp = dir.join(TREES_TMP);
    let dst = dir.join(TREES_FILE);
    vfs.rename(&tmp, &dst).map_err(|e| {
        let _ = vfs.remove_file(&tmp);
        IndexError::io(&dst, e)
    })
}

fn read_sidecar(vfs: &dyn Vfs, path: &Path) -> Result<(u64, usize, Vec<String>), IndexError> {
    let mut r = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| IndexError::io(path, e))?;
    let corrupt = |detail: String| IndexError::Corrupt {
        section: "trees",
        detail,
    };
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt("empty tree-list sidecar".into()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    let [tag, ver, g_kw, g, a_kw, a] = fields.as_slice() else {
        return Err(corrupt(format!("malformed sidecar header {header:?}")));
    };
    if *tag != "#bfhrf-trees" || *ver != "v1" || *g_kw != "gen" || *a_kw != "applied" {
        return Err(corrupt(format!("malformed sidecar header {header:?}")));
    }
    let generation: u64 = g
        .parse()
        .map_err(|_| corrupt(format!("bad sidecar generation {g:?}")))?;
    let applied: usize = a
        .parse()
        .map_err(|_| corrupt(format!("bad sidecar applied count {a:?}")))?;
    Ok((generation, applied, lines.map(str::to_string).collect()))
}

/// Fold unapplied WAL records into the sidecar tree list. Newick payloads
/// are already the canonical lines the list stores; binary payloads are
/// rendered through the snapshot's taxon table (read lazily, header +
/// taxa sections only, on the first binary record).
fn apply_wal_to_lines(
    vfs: &dyn Vfs,
    dir: &Path,
    lines: &mut Vec<String>,
    records: &[WalRecord],
) -> Result<(), IndexError> {
    let taxa = if records
        .iter()
        .any(|r| matches!(r.payload, WalPayload::Bin(_)))
    {
        let snap_path = dir.join(SNAPSHOT_FILE);
        let (_, taxa) = read_taxa_with(vfs, &snap_path, &RunGuard::default())?;
        Some(taxa)
    } else {
        None
    };
    for rec in records {
        let line = match (&rec.payload, &taxa) {
            (WalPayload::Newick(s), _) => s.clone(),
            (WalPayload::Bin(_), Some(t)) => rec.to_newick(t)?,
            (WalPayload::Bin(_), None) => unreachable!("taxa fetched when a bin record exists"),
        };
        match rec.op {
            WalOp::Add => lines.push(line),
            WalOp::Remove => {
                let Some(at) = lines.iter().position(|l| l == &line) else {
                    return Err(IndexError::Corrupt {
                        section: "trees",
                        detail: "log removes a tree absent from the tree list".into(),
                    });
                };
                lines.remove(at);
            }
        }
    }
    Ok(())
}

/// An open collection: the persistent [`Index`] plus the authoritative
/// tree list the cross-collection ops score from. All mutations go through
/// this wrapper so hash and list stay in lockstep.
pub struct Collection {
    name: String,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    index: Index,
    lines: Vec<String>,
}

impl Collection {
    /// Open the collection at `dir` through the production filesystem.
    pub fn open(dir: &Path, name: &str) -> Result<Collection, IndexError> {
        Collection::open_with(real_vfs(), dir, name)
    }

    /// Open the collection at `dir`, reconciling the tree-list sidecar
    /// with the WAL (see the module docs for the crash windows this
    /// covers).
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: &Path, name: &str) -> Result<Collection, IndexError> {
        let tmp = dir.join(TREES_TMP);
        if vfs.exists(&tmp) {
            let _ = vfs.remove_file(&tmp);
        }
        // Capture the WAL before Index::open may discard a stale log: its
        // records are exactly what a sidecar behind the snapshot is
        // missing.
        let wal_path = dir.join(WAL_FILE);
        let pre = if vfs.exists(&wal_path) {
            let scan = scan_wal(&*vfs, &wal_path)?;
            match scan.tail {
                WalTail::TornHeader { .. } => None,
                _ => Some((scan.generation, scan.records)),
            }
        } else {
            None
        };

        let side_path = dir.join(TREES_FILE);
        if !vfs.exists(&side_path) {
            return Err(IndexError::Corrupt {
                section: "trees",
                detail: format!("collection {name:?} has no tree-list sidecar"),
            });
        }
        let (tg, applied, mut lines) = read_sidecar(&*vfs, &side_path)?;
        let corrupt = |detail: String| IndexError::Corrupt {
            section: "trees",
            detail,
        };
        match &pre {
            None => {
                // No (or header-torn) log: nothing to fold. A non-zero
                // applied count is harmless — it refers to a log that no
                // longer exists.
            }
            Some((wg, records)) => {
                if tg == *wg {
                    if applied > records.len() {
                        return Err(corrupt(format!(
                            "sidecar claims {applied} applied records but the log holds {}",
                            records.len()
                        )));
                    }
                    if applied < records.len() {
                        // Fold the unapplied tail and re-commit it durably
                        // BEFORE Index::open can discard a stale log.
                        apply_wal_to_lines(&*vfs, dir, &mut lines, &records[applied..])?;
                        write_sidecar(&*vfs, dir, tg, records.len(), &lines)?;
                    }
                } else if tg > *wg {
                    // Crash between the sidecar rename and the WAL reset:
                    // the stale log's records are already folded in.
                } else {
                    // tg < wg: a previous open discarded a stale log after
                    // folding it into the sidecar; the fresh log must be
                    // empty or something appended without the sidecar.
                    if !records.is_empty() {
                        return Err(corrupt(
                            "log is ahead of the tree-list sidecar generation".into(),
                        ));
                    }
                }
            }
        }

        let index = Index::open_with(vfs.clone(), dir)?;
        let sg = index.generation();
        if tg != sg {
            // Heal: future appends must land on a sidecar stamped with the
            // live generation.
            write_sidecar(&*vfs, dir, sg, index.wal_pending(), &lines)?;
        }
        Ok(Collection {
            name: name.to_string(),
            vfs,
            dir: dir.to_path_buf(),
            index,
            lines,
        })
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Recovery notes from the underlying index open.
    pub fn notes(&self) -> &[String] {
        self.index.notes()
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.index.generation()
    }

    /// WAL records appended since the last compaction.
    pub fn wal_pending(&self) -> usize {
        self.index.wal_pending()
    }

    /// Live counters, built without touching the global single-index
    /// gauges (per-collection gauges are the catalog's job).
    pub fn stats(&self) -> IndexStats {
        self.index.counters()
    }

    /// An immutable scoring view (see [`Index::view`]).
    pub fn view(&mut self) -> QueryView {
        self.index.view()
    }

    /// Heap bytes of the frozen table — the catalog's accounting unit.
    pub fn resident_bytes(&mut self) -> usize {
        self.index.frozen().approx_bytes()
    }

    /// The canonical Newick lines of the current tree list.
    pub fn tree_lines(&self) -> &[String] {
        &self.lines
    }

    /// Parse the tree list into a standalone [`TreeCollection`] (own
    /// namespace) — the input shape `bfhrf::variable_taxa::common_taxa_rf`
    /// wants for cross-collection scoring.
    pub fn tree_collection(&self) -> Result<TreeCollection, IndexError> {
        if self.lines.is_empty() {
            return Ok(TreeCollection::default());
        }
        Ok(TreeCollection::parse(&self.lines.join("\n"))?)
    }

    fn parse_all(&self, newicks: &[String]) -> Result<Vec<Tree>, IndexError> {
        let mut scratch: TaxonSet = self.index.taxa().clone();
        let mut trees = Vec::with_capacity(newicks.len());
        for (i, n) in newicks.iter().enumerate() {
            let t = parse_newick(n, &mut scratch, TaxaPolicy::Require)
                .map_err(|e| catalog_err(format!("tree {i}: {e}")))?;
            trees.push(t);
        }
        Ok(trees)
    }

    /// Add a batch of Newick trees, all-or-nothing at the semantic level:
    /// every tree is parsed against the frozen namespace before the first
    /// durable append.
    pub fn add_batch(&mut self, newicks: &[String]) -> Result<usize, IndexError> {
        let trees = self.parse_all(newicks)?;
        for t in &trees {
            self.index.append_add(t)?;
            self.lines.push(write_newick(t, self.index.taxa()));
        }
        Ok(trees.len())
    }

    /// Remove a batch of Newick trees with a dry run first: the batch is
    /// checked in order against the published table
    /// ([`bfhrf::check_remove_batch`]) and against how often the tree list
    /// holds each canonical line, so a bad row refuses the whole batch
    /// before anything durable happens.
    pub fn remove_batch(&mut self, newicks: &[String]) -> Result<usize, IndexError> {
        let trees = self.parse_all(newicks)?;
        let hash_refusal = {
            let view = self.index.view();
            bfhrf::check_remove_batch(&*view.frozen, &trees, &view.taxa).err()
        };
        let taxa = self.index.taxa();
        let canon: Vec<String> = trees.iter().map(|t| write_newick(t, taxa)).collect();
        // Copies of each batch line the list holds, spent as the walk
        // below removes them.
        let mut held: HashMap<&str, usize> = canon.iter().map(|c| (c.as_str(), 0)).collect();
        for line in &self.lines {
            if let Some(n) = held.get_mut(line.as_str()) {
                *n += 1;
            }
        }
        for (i, c) in canon.iter().enumerate() {
            if let Some((_, e)) = hash_refusal.as_ref().filter(|(at, _)| *at == i) {
                return Err(catalog_err(format!("tree {i}: {e}")));
            }
            match held.get_mut(c.as_str()) {
                Some(n) if *n > 0 => *n -= 1,
                _ => {
                    return Err(catalog_err(format!(
                        "tree {i} is not in the collection's tree list"
                    )))
                }
            }
        }
        for (t, c) in trees.iter().zip(&canon) {
            self.index.append_remove(t)?;
            if let Some(at) = self.lines.iter().position(|l| l == c) {
                self.lines.remove(at);
            }
        }
        Ok(trees.len())
    }

    /// Compact the collection: the next-generation sidecar is renamed into
    /// place between the snapshot commit and the WAL reset, so the tree
    /// list survives every crash window (module docs).
    pub fn compact(&mut self) -> Result<SnapshotMeta, IndexError> {
        if self.index.wal_available() {
            let next = self.index.generation() + 1;
            write_sidecar_tmp(&*self.vfs, &self.dir, next, 0, &self.lines)?;
            let vfs = self.vfs.clone();
            let dir = self.dir.clone();
            let r = self.index.compact_with_hook(move |_| {
                let dst = dir.join(TREES_FILE);
                vfs.rename(&dir.join(TREES_TMP), &dst)
                    .map_err(|e| IndexError::io(&dst, e))
            });
            if r.is_err() {
                let _ = self.vfs.remove_file(&self.dir.join(TREES_TMP));
            }
            r
        } else {
            // Healing a failed WAL reset: the snapshot already committed,
            // so re-commit the sidecar at the live generation before the
            // log is recreated.
            write_sidecar(
                &*self.vfs,
                &self.dir,
                self.index.generation(),
                0,
                &self.lines,
            )?;
            self.index.compact()
        }
    }
}

// ---------------------------------------------------------------------
// Open-collection pool
// ---------------------------------------------------------------------

/// One open collection in the catalog's pool: the collection behind a
/// mutex (per-collection WAL/compaction isolation), plus pin and LRU
/// bookkeeping.
pub struct CollectionCell {
    name: String,
    collection: Mutex<Collection>,
    pins: AtomicUsize,
    last_used: AtomicU64,
    bytes: AtomicUsize,
}

impl CollectionCell {
    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lock the collection (recovering a poisoned lock — the state is a
    /// wrapper over crash-safe storage, so the last consistent view wins).
    pub fn lock(&self) -> MutexGuard<'_, Collection> {
        self.collection.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// In-flight pins; a pinned collection is never evicted.
    pub fn pins(&self) -> usize {
        self.pins.load(Ordering::SeqCst)
    }

    /// Accounted frozen-table bytes.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::SeqCst)
    }

    fn touch(&self, now: u64) {
        self.last_used.store(now, Ordering::SeqCst);
    }

    /// Refresh the accounted bytes and the per-collection generation gauge
    /// after a mutation or compaction.
    pub fn publish_obs(&self, col: &mut Collection) {
        self.bytes.store(col.resident_bytes(), Ordering::SeqCst);
        phylo_obs::global()
            .gauge(
                "catalog_collection_generation",
                &[("collection", collection_label(&self.name))],
            )
            .set(col.generation() as i64);
    }
}

/// An RAII pin on an open collection: while any pin is live, the LRU will
/// not evict the collection. Dropping the pin releases it.
pub struct PinnedCollection {
    cell: Arc<CollectionCell>,
}

impl PinnedCollection {
    fn pin(cell: Arc<CollectionCell>) -> PinnedCollection {
        cell.pins.fetch_add(1, Ordering::SeqCst);
        PinnedCollection { cell }
    }

    /// The pinned cell.
    pub fn cell(&self) -> &CollectionCell {
        &self.cell
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// Lock the pinned collection.
    pub fn lock(&self) -> MutexGuard<'_, Collection> {
        self.cell.lock()
    }
}

impl Drop for PinnedCollection {
    fn drop(&mut self) {
        self.cell.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A row of [`Catalog::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInfo {
    /// Collection name.
    pub name: String,
    /// Whether it is currently open (resident in the pool).
    pub open: bool,
    /// Accounted frozen-table bytes when open, 0 otherwise.
    pub resident_bytes: usize,
}

// ---------------------------------------------------------------------
// The catalog
// ---------------------------------------------------------------------

/// The collection catalog: the journaled manifest plus the LRU pool of
/// open collections. Wrap it in a mutex for concurrent use — resolution
/// and admin are quick; scoring happens against per-collection cells
/// after the catalog lock is released.
pub struct Catalog {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    synced_len: u64,
    map: BTreeMap<String, String>,
    open: HashMap<String, Arc<CollectionCell>>,
    clock: u64,
    budget: RunBudget,
    evictions: u64,
    notes: Vec<String>,
}

impl Catalog {
    /// Open (or initialize) the catalog at `root` through the production
    /// filesystem, with an optional pool byte budget.
    pub fn open(root: &Path, budget: Option<usize>) -> Result<Catalog, IndexError> {
        Catalog::open_with(real_vfs(), root, budget)
    }

    /// [`Catalog::open`] routed through an explicit [`Vfs`]. A missing
    /// manifest initializes an empty catalog; a torn manifest tail is
    /// truncated away with a note.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        root: &Path,
        budget: Option<usize>,
    ) -> Result<Catalog, IndexError> {
        vfs.create_dir_all(root)
            .map_err(|e| IndexError::io(root, e))?;
        vfs.create_dir_all(&root.join(COLLECTIONS_DIR))
            .map_err(|e| IndexError::io(root.join(COLLECTIONS_DIR), e))?;
        let path = root.join(MANIFEST_FILE);
        let mut notes = Vec::new();

        let write_header = |vfs: &dyn Vfs| -> Result<Box<dyn VfsFile>, IndexError> {
            let mut f = vfs.create(&path).map_err(|e| IndexError::io(&path, e))?;
            let mut header = Vec::with_capacity(MANIFEST_HEADER_LEN as usize);
            header.extend_from_slice(MANIFEST_MAGIC);
            header.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
            f.write_all(&header).map_err(|e| IndexError::io(&path, e))?;
            f.sync_all().map_err(|e| IndexError::io(&path, e))?;
            Ok(f)
        };

        let (file, synced_len, map) = if !vfs.exists(&path) {
            (write_header(&*vfs)?, MANIFEST_HEADER_LEN, BTreeMap::new())
        } else {
            let scan = scan_manifest(&*vfs, &path)?;
            match scan.tail {
                WalTail::Clean => {}
                WalTail::TornHeader { .. } => {
                    phylo_obs::global()
                        .counter("catalog_recovered_total", &[("kind", "torn-header")])
                        .inc();
                    notes.push(
                        "manifest: header torn by a crash during catalog init; recreated empty \
                         catalog"
                            .to_string(),
                    );
                    let file = write_header(&*vfs)?;
                    let cat = Catalog {
                        root: root.to_path_buf(),
                        vfs,
                        file,
                        synced_len: MANIFEST_HEADER_LEN,
                        map: BTreeMap::new(),
                        open: HashMap::new(),
                        clock: 0,
                        budget: budget.map_or_else(RunBudget::unlimited, RunBudget::with_max_bytes),
                        evictions: 0,
                        notes,
                    };
                    cat.publish_gauges();
                    return Ok(cat);
                }
                WalTail::TornRecord { valid_len, lost } => {
                    vfs.truncate(&path, valid_len)
                        .map_err(|e| IndexError::io(&path, e))?;
                    phylo_obs::global()
                        .counter("catalog_recovered_total", &[("kind", "torn-tail")])
                        .inc();
                    notes.push(format!(
                        "manifest: dropped a torn final record ({lost} trailing bytes after \
                         offset {valid_len}); {} intact records replayed",
                        scan.records.len()
                    ));
                }
            }
            let map = replay_manifest(&scan.records)?;
            let file = vfs
                .open_append(&path)
                .map_err(|e| IndexError::io(&path, e))?;
            (file, scan.valid_len, map)
        };

        let cat = Catalog {
            root: root.to_path_buf(),
            vfs,
            file,
            synced_len,
            map,
            open: HashMap::new(),
            clock: 0,
            budget: budget.map_or_else(RunBudget::unlimited, RunBudget::with_max_bytes),
            evictions: 0,
            notes,
        };
        // Pre-register every per-collection obs cell so scrapes see the
        // full matrix from the first exposition, not only after traffic.
        for name in cat.map.keys() {
            let label = collection_label(name);
            let reg = phylo_obs::global();
            reg.gauge("catalog_collection_generation", &[("collection", label)]);
            reg.gauge("catalog_collection_open", &[("collection", label)])
                .set(0);
            reg.counter("catalog_evictions_total", &[("collection", label)]);
        }
        cat.publish_gauges();
        Ok(cat)
    }

    fn publish_gauges(&self) {
        let reg = phylo_obs::global();
        reg.gauge("catalog_collections", &[])
            .set(self.map.len() as i64);
        reg.gauge("catalog_open_collections", &[])
            .set(self.open.len() as i64);
        reg.gauge("catalog_resident_bytes", &[])
            .set(self.resident_bytes() as i64);
    }

    /// Recovery and overcommit notes accumulated so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The catalog root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of collections in the catalog.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the catalog holds no collections.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `name` is in the catalog.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Number of collections currently open in the pool.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Total accounted bytes of open collections.
    pub fn resident_bytes(&self) -> usize {
        self.open.values().map(|c| c.bytes()).sum()
    }

    /// Evictions performed over this catalog's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The on-disk directory of collection `name`, if it exists.
    pub fn dir_of(&self, name: &str) -> Option<PathBuf> {
        self.map
            .get(name)
            .map(|d| self.root.join(COLLECTIONS_DIR).join(d))
    }

    /// One row per collection, sorted by name.
    pub fn list(&self) -> Vec<CollectionInfo> {
        self.map
            .keys()
            .map(|name| {
                let cell = self.open.get(name);
                CollectionInfo {
                    name: name.clone(),
                    open: cell.is_some(),
                    resident_bytes: cell.map_or(0, |c| c.bytes()),
                }
            })
            .collect()
    }

    fn append_record(&mut self, op: u8, payload: &str) -> Result<(), IndexError> {
        let bytes = payload.as_bytes();
        if bytes.len() > MAX_MANIFEST_PAYLOAD {
            return Err(IndexError::Corrupt {
                section: "manifest",
                detail: format!("payload of {} bytes exceeds the record limit", bytes.len()),
            });
        }
        let mut rec = Vec::with_capacity(1 + 4 + bytes.len() + 8);
        rec.push(op);
        rec.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        rec.extend_from_slice(bytes);
        rec.extend_from_slice(&record_checksum(op, bytes).to_le_bytes());
        let path = self.root.join(MANIFEST_FILE);
        let write_then_sync = self
            .file
            .write_all(&rec)
            .and_then(|()| self.file.sync_all());
        if let Err(e) = write_then_sync {
            // Roll the file back to the last acknowledged boundary so a
            // half-written record never poisons the manifest.
            return Err(match self.vfs.truncate(&path, self.synced_len) {
                Ok(()) => IndexError::io(&path, e),
                Err(trunc_err) => IndexError::io(
                    &path,
                    std::io::Error::other(format!(
                        "append failed ({e}) and rollback truncation also failed ({trunc_err}); \
                         reopen the catalog to recover the manifest"
                    )),
                ),
            });
        }
        self.synced_len += rec.len() as u64;
        Ok(())
    }

    /// Remove any leftover collection files at `dir` (orphans from a
    /// create that crashed before its manifest commit, or a drop that
    /// crashed after its commit).
    fn scrub_dir(&self, dir: &Path) {
        for f in [SNAPSHOT_FILE, SNAPSHOT_TMP, WAL_FILE, TREES_FILE, TREES_TMP] {
            let p = dir.join(f);
            if self.vfs.exists(&p) {
                let _ = self.vfs.remove_file(&p);
            }
        }
    }

    /// Create collection `name` from newline-separated Newick text. The
    /// index directory (snapshot, WAL, tree-list sidecar) is fully built
    /// before the manifest record commits the name. Returns the number of
    /// trees.
    pub fn create(&mut self, name: &str, trees_text: &str) -> Result<usize, IndexError> {
        validate_name(name)?;
        if self.map.contains_key(name) {
            return Err(catalog_err(format!("collection {name:?} already exists")));
        }
        let dir_name = name.to_string();
        let dir = self.root.join(COLLECTIONS_DIR).join(&dir_name);
        self.scrub_dir(&dir);

        let tc = if trees_text.trim().is_empty() {
            TreeCollection::default()
        } else {
            TreeCollection::parse(trees_text)?
        };
        let lines: Vec<String> = tc.trees.iter().map(|t| write_newick(t, &tc.taxa)).collect();
        let table = BfhBuilder::new().freeze_trees(&tc.trees, &tc.taxa)?;
        let n = tc.trees.len();
        Index::create_table_policy_with(
            self.vfs.clone(),
            &dir,
            table,
            1,
            tc.taxa.clone(),
            WalPolicy::Strict,
        )?;
        write_sidecar(&*self.vfs, &dir, 0, 0, &lines)?;

        // The manifest append is the commit point; on failure the orphan
        // directory is scrubbed and the catalog is unchanged.
        if let Err(e) = self.append_record(OP_CREATE, &format!("{name}\t{dir_name}")) {
            self.scrub_dir(&dir);
            return Err(e);
        }
        self.map.insert(name.to_string(), dir_name);
        let label = collection_label(name);
        let reg = phylo_obs::global();
        reg.gauge("catalog_collection_generation", &[("collection", label)])
            .set(0);
        reg.gauge("catalog_collection_open", &[("collection", label)])
            .set(0);
        reg.counter("catalog_evictions_total", &[("collection", label)]);
        self.publish_gauges();
        Ok(n)
    }

    /// Drop collection `name`. Refused while the collection is pinned by
    /// in-flight work. The manifest record is the commit point; file
    /// removal afterwards is best-effort (leftovers are garbage).
    pub fn drop_collection(&mut self, name: &str) -> Result<(), IndexError> {
        if !self.map.contains_key(name) {
            return Err(catalog_err(format!("no collection {name:?}")));
        }
        if let Some(cell) = self.open.get(name) {
            if cell.pins() > 0 {
                return Err(catalog_err(format!(
                    "collection {name:?} is busy (pinned by in-flight work)"
                )));
            }
        }
        self.open.remove(name);
        self.append_record(OP_DROP, name)?;
        let dir = self.dir_of(name).expect("checked above");
        self.map.remove(name);
        self.scrub_dir(&dir);
        phylo_obs::global()
            .gauge(
                "catalog_collection_open",
                &[("collection", collection_label(name))],
            )
            .set(0);
        self.publish_gauges();
        Ok(())
    }

    /// Rename collection `from` to `to` (a pure manifest operation — the
    /// directory keeps its name). Refused while `from` is pinned.
    pub fn rename_collection(&mut self, from: &str, to: &str) -> Result<(), IndexError> {
        validate_name(to)?;
        if !self.map.contains_key(from) {
            return Err(catalog_err(format!("no collection {from:?}")));
        }
        if self.map.contains_key(to) {
            return Err(catalog_err(format!("collection {to:?} already exists")));
        }
        if let Some(cell) = self.open.get(from) {
            if cell.pins() > 0 {
                return Err(catalog_err(format!(
                    "collection {from:?} is busy (pinned by in-flight work)"
                )));
            }
        }
        // Close the old cell rather than re-keying it: the cell's obs
        // label is its name, and a reopen under the new name is cheap.
        self.open.remove(from);
        self.append_record(OP_RENAME, &format!("{from}\t{to}"))?;
        let dir = self.map.remove(from).expect("checked above");
        self.map.insert(to.to_string(), dir);
        self.publish_gauges();
        Ok(())
    }

    fn evict_lru(&mut self, need: usize) -> usize {
        let mut freed = 0;
        while freed < need {
            let victim = self
                .open
                .iter()
                .filter(|(_, c)| c.pins() == 0)
                .min_by_key(|(_, c)| c.last_used.load(Ordering::SeqCst))
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            let cell = self.open.remove(&k).expect("victim is in the pool");
            freed += cell.bytes();
            self.evictions += 1;
            let label = collection_label(&k);
            let reg = phylo_obs::global();
            reg.counter("catalog_evictions_total", &[("collection", label)])
                .inc();
            reg.gauge("catalog_collection_open", &[("collection", label)])
                .set(0);
        }
        freed
    }

    /// Resolve and pin collection `name`, opening it lazily. Admission
    /// runs under the catalog's byte budget: least-recently-used unpinned
    /// collections are evicted until the newcomer fits; if everything
    /// evictable is gone and it still does not fit, it is served over
    /// budget (with a note) rather than refused.
    pub fn acquire(&mut self, name: &str) -> Result<PinnedCollection, IndexError> {
        self.clock += 1;
        let now = self.clock;
        if let Some(cell) = self.open.get(name) {
            cell.touch(now);
            phylo_obs::global()
                .counter("catalog_opens_total", &[("kind", "warm")])
                .inc();
            return Ok(PinnedCollection::pin(cell.clone()));
        }
        let dir = self
            .dir_of(name)
            .ok_or_else(|| catalog_err(format!("no collection {name:?}")))?;
        let mut col = Collection::open_with(self.vfs.clone(), &dir, name)?;
        let bytes = col.resident_bytes();
        let resident = self.resident_bytes();
        let budget = self.budget;
        let what = format!("open collection {name}");
        if let Err(e) =
            budget.check_alloc_or_evict(&what, bytes, resident, &mut |need| self.evict_lru(need))
        {
            phylo_obs::global()
                .counter("catalog_overcommit_total", &[])
                .inc();
            self.notes
                .push(format!("catalog: {e}; serving {name:?} over budget"));
        }
        let label = collection_label(name);
        let reg = phylo_obs::global();
        reg.counter("catalog_opens_total", &[("kind", "cold")])
            .inc();
        reg.gauge("catalog_collection_open", &[("collection", label)])
            .set(1);
        reg.gauge("catalog_collection_generation", &[("collection", label)])
            .set(col.generation() as i64);
        let cell = Arc::new(CollectionCell {
            name: name.to_string(),
            collection: Mutex::new(col),
            pins: AtomicUsize::new(0),
            last_used: AtomicU64::new(now),
            bytes: AtomicUsize::new(bytes),
        });
        self.open.insert(name.to_string(), cell.clone());
        self.publish_gauges();
        Ok(PinnedCollection::pin(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    const T6: &str = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,(B,C)),((D,E),F));";

    fn mem_catalog(budget: Option<usize>) -> (MemVfs, Catalog) {
        let mem = MemVfs::new();
        let cat = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), budget).unwrap();
        (mem, cat)
    }

    #[test]
    fn create_list_drop_rename_round_trip() {
        let (mem, mut cat) = mem_catalog(None);
        assert!(cat.is_empty());
        assert_eq!(cat.create("alpha", T6).unwrap(), 3);
        assert_eq!(cat.create("beta", T6).unwrap(), 3);
        assert!(cat.contains("alpha"));
        let rows = cat.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "alpha");
        assert!(!rows[0].open);

        cat.rename_collection("alpha", "gamma").unwrap();
        assert!(!cat.contains("alpha"));
        assert!(cat.contains("gamma"));
        cat.drop_collection("beta").unwrap();
        assert_eq!(cat.len(), 1);

        // A reopen replays the manifest to the same map, and the surviving
        // collection opens.
        drop(cat);
        let mut cat = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), None).unwrap();
        assert!(cat.notes().is_empty());
        assert_eq!(cat.len(), 1);
        assert!(cat.contains("gamma"));
        let pin = cat.acquire("gamma").unwrap();
        assert_eq!(pin.lock().stats().n_trees, 3);
    }

    #[test]
    fn invalid_names_and_duplicates_are_typed() {
        let (_mem, mut cat) = mem_catalog(None);
        for bad in ["", "a b", "x/y", ".hidden", "default", &"n".repeat(65)] {
            assert!(
                matches!(cat.create(bad, T6), Err(IndexError::Catalog { .. })),
                "{bad:?} should be refused"
            );
        }
        cat.create("ok-1", T6).unwrap();
        assert!(matches!(
            cat.create("ok-1", T6),
            Err(IndexError::Catalog { .. })
        ));
        assert!(matches!(
            cat.drop_collection("missing"),
            Err(IndexError::Catalog { .. })
        ));
        assert!(matches!(
            cat.rename_collection("missing", "new"),
            Err(IndexError::Catalog { .. })
        ));
    }

    #[test]
    fn lru_evicts_cold_collections_under_budget_but_never_pinned() {
        let (_mem, mut cat) = mem_catalog(None);
        for n in ["a", "b", "c"] {
            cat.create(n, T6).unwrap();
        }
        // Find one collection's frozen size, then budget for two of them.
        let one = {
            let pin = cat.acquire("a").unwrap();
            let b = pin.lock().resident_bytes();
            b
        };
        cat.budget = RunBudget::with_max_bytes(2 * one);

        let pin_a = cat.acquire("a").unwrap();
        let _pin_b = cat.acquire("b").unwrap();
        assert_eq!(cat.open_count(), 2);
        assert_eq!(cat.evictions(), 0);

        // Opening c exceeds the budget; a and b are pinned, so c is served
        // over budget without evicting either.
        let pin_c = cat.acquire("c").unwrap();
        assert_eq!(cat.open_count(), 3);
        assert_eq!(cat.evictions(), 0, "pinned collections are never evicted");
        assert!(cat.notes().iter().any(|n| n.contains("over budget")));

        // Unpin a (the least recently used) and open a fourth: a is the
        // eviction victim.
        drop(pin_a);
        drop(pin_c);
        cat.create("d", T6).unwrap();
        let _pin_d = cat.acquire("d").unwrap();
        assert!(cat.evictions() >= 1);
        assert!(!cat.list().iter().any(|r| r.name == "a" && r.open));
    }

    #[test]
    fn evicted_collection_reopens_bitwise_identical() {
        let (_mem, mut cat) = mem_catalog(None);
        cat.create("x", T6).unwrap();
        cat.create("y", T6).unwrap();
        let digest_before = {
            let pin = cat.acquire("x").unwrap();
            let mut col = pin.lock();
            col.view().frozen.digest()
        };
        // Tiny budget: acquiring y evicts x.
        cat.budget = RunBudget::with_max_bytes(1);
        let _ = cat.acquire("y").unwrap();
        assert!(cat.evictions() >= 1);
        assert!(!cat.list().iter().any(|r| r.name == "x" && r.open));

        let pin = cat.acquire("x").unwrap();
        let digest_after = pin.lock().view().frozen.digest();
        assert_eq!(digest_before, digest_after);
    }

    #[test]
    fn mutations_keep_tree_list_and_hash_in_lockstep_across_reopen() {
        let (mem, mut cat) = mem_catalog(None);
        cat.create("m", T6).unwrap();
        {
            let pin = cat.acquire("m").unwrap();
            let mut col = pin.lock();
            col.add_batch(&["(((A,B),C),((D,E),F));".to_string()])
                .unwrap();
            let canon = col.tree_lines()[0].clone();
            col.remove_batch(&[canon]).unwrap();
            assert_eq!(col.stats().n_trees, 3);
            assert_eq!(col.tree_lines().len(), 3);
            // A remove of a tree that is not in the list is refused whole.
            assert!(col
                .remove_batch(&["((A,Z),(B,(C,(D,(E,F)))));".to_string()])
                .is_err());
        }
        // Reopen from disk: the sidecar + WAL reconstruction must agree.
        let mut cat2 = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), None).unwrap();
        let pin = cat2.acquire("m").unwrap();
        let mut col = pin.lock();
        assert_eq!(col.stats().n_trees, 3);
        assert_eq!(col.tree_lines().len(), 3);
        let tc = col.tree_collection().unwrap();
        assert_eq!(tc.trees.len(), 3);

        // Compact, mutate again, reopen again.
        col.compact().unwrap();
        assert_eq!(col.generation(), 1);
        col.add_batch(&["((A,B),(C,(D,(E,F))));".to_string()])
            .unwrap();
        drop(col);
        drop(pin);
        drop(cat2);
        let mut cat3 = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), None).unwrap();
        let pin = cat3.acquire("m").unwrap();
        let col = pin.lock();
        assert_eq!(col.stats().n_trees, 4);
        assert_eq!(col.tree_lines().len(), 4);
        assert_eq!(col.generation(), 1);
        assert_eq!(col.wal_pending(), 1);
    }

    /// The tree list is checked by count: a batch naming a line twice
    /// needs the list to hold it twice, even where the hash alone would
    /// allow both removals (every split of the star-like tree is also in
    /// the binary one). Refusals name the first failing row, and refuse
    /// the whole batch.
    #[test]
    fn remove_batch_counts_tree_list_lines() {
        let (_mem, mut cat) = mem_catalog(None);
        cat.create("m", "((A,B),C,D,E,F);\n((A,B),((C,D),(E,F)));\n")
            .unwrap();
        let pin = cat.acquire("m").unwrap();
        let mut col = pin.lock();
        let star = col.tree_lines()[0].clone();
        let err = col.remove_batch(&[star.clone(), star.clone()]).unwrap_err();
        assert!(
            err.to_string()
                .contains("tree 1 is not in the collection's tree list"),
            "{err}"
        );
        let err = col
            .remove_batch(&[star.clone(), "((A,C),(B,(D,(E,F))));".to_string()])
            .unwrap_err();
        assert!(err.to_string().contains("tree 1: "), "{err}");
        assert!(err.to_string().contains("never added"), "{err}");
        assert_eq!(col.stats().n_trees, 2);
        assert_eq!(col.tree_lines().len(), 2);
        assert_eq!(col.remove_batch(&[star]).unwrap(), 1);
        assert_eq!(col.tree_lines().len(), 1);
    }

    #[test]
    fn manifest_scan_classifies_torn_tails_and_mid_file_corruption() {
        let (mem, mut cat) = mem_catalog(None);
        cat.create("one", T6).unwrap();
        cat.create("two", T6).unwrap();
        drop(cat);
        let path = Path::new("cat").join(MANIFEST_FILE);
        let full = mem.read_bytes(&path).unwrap();

        // Tear the final record: the first survives, recovery truncates.
        mem.write_bytes(&path, full[..full.len() - 3].to_vec());
        let scan = scan_manifest(&mem, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, WalTail::TornRecord { .. }));
        let cat = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), None).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.notes()[0].contains("torn final record"));
        drop(cat);

        // Flip a byte in the FIRST record with data after it: fatal.
        let mut bytes = full.clone();
        bytes[MANIFEST_HEADER_LEN as usize + 6] ^= 0x01;
        mem.write_bytes(&path, bytes);
        let err = scan_manifest(&mem, &path).unwrap_err();
        assert!(err.is_corruption(), "{err}");

        // Torn header recovers to an empty catalog.
        mem.write_bytes(&path, full[..5].to_vec());
        let cat = Catalog::open_with(Arc::new(mem.clone()), Path::new("cat"), None).unwrap();
        assert!(cat.is_empty());
        assert!(cat.notes()[0].contains("header torn"));
    }

    #[test]
    fn replay_violations_are_corruption() {
        let dup = [
            CatalogOp::Create {
                name: "a".into(),
                dir: "a".into(),
            },
            CatalogOp::Create {
                name: "a".into(),
                dir: "a2".into(),
            },
        ];
        assert!(replay_manifest(&dup).unwrap_err().is_corruption());
        let ghost_drop = [CatalogOp::Drop { name: "a".into() }];
        assert!(replay_manifest(&ghost_drop).unwrap_err().is_corruption());
        let ghost_rename = [CatalogOp::Rename {
            from: "a".into(),
            to: "b".into(),
        }];
        assert!(replay_manifest(&ghost_rename).unwrap_err().is_corruption());
    }

    #[test]
    fn cross_collection_tree_lists_feed_variable_taxa_rf() {
        let (_mem, mut cat) = mem_catalog(None);
        cat.create("refs", T6).unwrap();
        cat.create("queries", "((A,B),((C,D),(E,F)));").unwrap();
        let refs = cat
            .acquire("refs")
            .unwrap()
            .lock()
            .tree_collection()
            .unwrap();
        let queries = cat
            .acquire("queries")
            .unwrap()
            .lock()
            .tree_collection()
            .unwrap();
        let out = bfhrf::variable_taxa::common_taxa_rf(&refs, &queries).unwrap();
        assert_eq!(out.taxa.len(), 6);
        assert_eq!(out.scores.len(), 1);
    }
}
