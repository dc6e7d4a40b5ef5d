//! The versioned on-disk snapshot: a full BFH written into one file.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! magic    8  bytes  "BFHSNAP\0"          (not covered by any checksum)
//! version  u16                            (not covered by any checksum)
//! -- header section ------------------------------------------------
//! generation u64 | n_taxa u64 | n_trees u64 | n_shards u64
//! sum u64 | distinct u64
//! FNV-1a 64 checksum of the section payload
//! -- taxon table section -------------------------------------------
//! n_taxa × { label_len u32 | label UTF-8 bytes }
//! FNV-1a 64 checksum
//! -- splits section ------------------------------------------------
//! distinct × { mask words: words_for(n_taxa) × u64 | freq u32 }
//!   records sorted strictly ascending by mask (deterministic bytes,
//!   duplicate masks are impossible by construction)
//! FNV-1a 64 checksum
//! EOF (trailing bytes are an error)
//! ```
//!
//! The reader validates everything **before** acting on it: header fields
//! are checksum-verified before any allocation they size (the table's
//! lanes are checked against the budget at their exact size), and each
//! split record's padding bits, order and frequency are checked before the
//! record is placed. Records strictly ascend, so the loader lays each one
//! straight into the frozen table's sized lanes
//! ([`bfhrf::FrozenBfh::from_ascending`]); no hash is built, and the
//! frequency sum is cross-checked against the header once the section is
//! sealed. Corruption is always a typed [`IndexError`], never a panic.
//! [`verify_snapshot_with`] runs the same checks while streaming, without
//! holding the splits.

use crate::error::IndexError;
use crate::format::{CheckedReader, CheckedWriter};
use crate::vfs::{RealVfs, Vfs};
use bfhrf::{FrozenBfh, RunGuard};
use phylo::TaxonSet;
use phylo_bitset::{words_for, WORD_BITS};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BFHSNAP\0";
/// Highest snapshot format version this build reads and the version it
/// writes.
pub const FORMAT_VERSION: u16 = 1;

/// Hard ceiling on `n_taxa` accepted from a header. Far above any real
/// collection; exists so a corrupt-but-checksum-colliding header cannot
/// drive a multi-gigabyte allocation.
const MAX_TAXA: u64 = 100_000_000;
/// How many split records to read between cancellation checkpoints.
const CHECKPOINT_EVERY: usize = 4096;

/// The fixed-size header fields of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Compaction generation; a WAL only applies to its own generation.
    pub generation: u64,
    /// Number of taxa (bit width of every mask).
    pub n_taxa: usize,
    /// Number of reference trees folded into the table.
    pub n_trees: usize,
    /// Shard count recorded at creation and carried through every
    /// compaction; the table itself has no shards.
    pub n_shards: usize,
    /// Sum of all stored frequencies (`sumBFHR`).
    pub sum: u64,
    /// Number of distinct splits stored.
    pub distinct: usize,
}

/// A fully validated snapshot loaded back into memory.
pub struct Snapshot {
    /// The splits, laid out in a frozen table in mask order.
    pub table: FrozenBfh,
    /// The taxon table, in the exact id order used by the masks.
    pub taxa: TaxonSet,
    /// Header fields.
    pub meta: SnapshotMeta,
}

/// Write what `table` answers (its lanes with any delta applied) and
/// `taxa` as a version-1 snapshot at `path`, with `n_shards` in the header,
/// fsyncing before returning. The caller owns crash-safety sequencing
/// (write to a temp name, then rename).
pub fn write_snapshot(
    path: &Path,
    table: &FrozenBfh,
    n_shards: usize,
    taxa: &TaxonSet,
    generation: u64,
) -> Result<(), IndexError> {
    write_snapshot_with(&RealVfs, path, table, n_shards, taxa, generation)
}

/// [`write_snapshot`] routed through an explicit [`Vfs`]: the one snapshot
/// writer. Records go out sorted ascending by mask, so the bytes depend
/// only on the splits, never on the table's layout.
pub fn write_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
    table: &FrozenBfh,
    n_shards: usize,
    taxa: &TaxonSet,
    generation: u64,
) -> Result<(), IndexError> {
    let meta = SnapshotMeta {
        generation,
        n_taxa: table.n_taxa(),
        n_trees: table.n_trees(),
        n_shards,
        sum: table.sum(),
        distinct: table.distinct(),
    };
    if taxa.len() != meta.n_taxa {
        return Err(IndexError::Core(bfhrf::CoreError::Structure(format!(
            "taxon table has {} labels but the table is {}-taxon",
            taxa.len(),
            meta.n_taxa
        ))));
    }
    let file = vfs.create(path).map_err(|e| IndexError::io(path, e))?;
    let mut w = CheckedWriter::new(BufWriter::new(file), path);

    w.put_unchecked(SNAPSHOT_MAGIC)?;
    w.put_unchecked(&FORMAT_VERSION.to_le_bytes())?;

    // Header section.
    w.put_u64(meta.generation)?;
    w.put_u64(meta.n_taxa as u64)?;
    w.put_u64(meta.n_trees as u64)?;
    w.put_u64(meta.n_shards as u64)?;
    w.put_u64(meta.sum)?;
    w.put_u64(meta.distinct as u64)?;
    w.finish_section()?;

    // Taxon table section.
    for (_, label) in taxa.iter() {
        let bytes = label.as_bytes();
        w.put_u32(bytes.len() as u32)?;
        w.put(bytes)?;
    }
    w.finish_section()?;

    // Splits section. Masks share one width, so slice order is `Bits`
    // order.
    let mut splits: Vec<(&[u64], u32)> = table.iter().collect();
    splits.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (words, freq) in splits {
        for word in words {
            w.put_u64(*word)?;
        }
        w.put_u32(freq)?;
    }
    w.finish_section()?;

    let mut inner = w.into_inner();
    inner.flush().map_err(|e| IndexError::io(path, e))?;
    let mut file = inner
        .into_inner()
        .map_err(|e| IndexError::io(path, e.into_error()))?;
    file.sync_all().map_err(|e| IndexError::io(path, e))?;
    Ok(())
}

/// Read and checksum-verify just the magic, version, and header section.
fn read_header<R: std::io::Read>(r: &mut CheckedReader<R>) -> Result<SnapshotMeta, IndexError> {
    let mut magic = [0u8; 8];
    r.take_unchecked(&mut magic, "magic")?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(IndexError::NotAnIndex(format!(
            "bad magic {:02x?} (expected {:02x?})",
            magic, SNAPSHOT_MAGIC
        )));
    }
    let mut ver = [0u8; 2];
    r.take_unchecked(&mut ver, "version")?;
    let version = u16::from_le_bytes(ver);
    if version == 0 || version > FORMAT_VERSION {
        return Err(IndexError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    let generation = r.take_u64("header")?;
    let n_taxa = r.take_u64("header")?;
    let n_trees = r.take_u64("header")?;
    let n_shards = r.take_u64("header")?;
    let sum = r.take_u64("header")?;
    let distinct = r.take_u64("header")?;
    r.verify_section("header")?;

    // Checksum passed; now sanity-bound the values before they size
    // anything.
    if n_taxa == 0 || n_taxa > MAX_TAXA {
        return Err(IndexError::Corrupt {
            section: "header",
            detail: format!("implausible taxon count {n_taxa}"),
        });
    }
    if n_shards == 0 || n_shards > 1 << 20 {
        return Err(IndexError::Corrupt {
            section: "header",
            detail: format!("implausible shard count {n_shards}"),
        });
    }
    if n_trees > u64::from(u32::MAX) {
        return Err(IndexError::Corrupt {
            section: "header",
            detail: format!("implausible tree count {n_trees}"),
        });
    }
    Ok(SnapshotMeta {
        generation,
        n_taxa: n_taxa as usize,
        n_trees: n_trees as usize,
        n_shards: n_shards as usize,
        sum,
        distinct: usize::try_from(distinct).map_err(|_| IndexError::Corrupt {
            section: "header",
            detail: format!("implausible distinct count {distinct}"),
        })?,
    })
}

/// Read only the header of the snapshot at `path` — cheap inspection
/// without touching the taxon table or splits.
pub fn read_meta(path: &Path) -> Result<SnapshotMeta, IndexError> {
    read_meta_with(&RealVfs, path)
}

/// [`read_meta`] routed through an explicit [`Vfs`].
pub fn read_meta_with(vfs: &dyn Vfs, path: &Path) -> Result<SnapshotMeta, IndexError> {
    let file = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut r = CheckedReader::new(BufReader::new(file), path);
    read_header(&mut r)
}

/// Read and checksum-verify the taxon table section, leaving the reader
/// positioned at the start of the splits section.
fn read_taxa_section<R: std::io::Read>(
    r: &mut CheckedReader<R>,
    meta: &SnapshotMeta,
    guard: &RunGuard,
) -> Result<TaxonSet, IndexError> {
    guard.check_alloc("snapshot taxon table", meta.n_taxa * 16)?;
    let mut taxa = TaxonSet::new();
    let mut label_buf = Vec::new();
    for i in 0..meta.n_taxa {
        let len = r.take_u32("taxa")? as usize;
        if len > 1 << 20 {
            return Err(IndexError::Corrupt {
                section: "taxa",
                detail: format!("label {i} claims implausible length {len}"),
            });
        }
        label_buf.resize(len, 0);
        r.take(&mut label_buf, "taxa")?;
        let label = std::str::from_utf8(&label_buf).map_err(|_| IndexError::Corrupt {
            section: "taxa",
            detail: format!("label {i} is not valid UTF-8"),
        })?;
        let id = taxa.intern(label);
        if id.index() != i {
            return Err(IndexError::Corrupt {
                section: "taxa",
                detail: format!("duplicate label {label:?} at position {i}"),
            });
        }
    }
    r.verify_section("taxa")?;
    Ok(taxa)
}

/// Read the header and taxon table of the snapshot at `path` without
/// touching the splits section. This is the cheap namespace fetch the
/// frozen-sidecar open path and the catalog's WAL pre-scan use: both
/// sections it does read are checksum-verified, the (potentially huge)
/// splits payload is never paged.
pub fn read_taxa_with(
    vfs: &dyn Vfs,
    path: &Path,
    guard: &RunGuard,
) -> Result<(SnapshotMeta, TaxonSet), IndexError> {
    let file = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut r = CheckedReader::new(BufReader::new(file), path);
    let meta = read_header(&mut r)?;
    let taxa = read_taxa_section(&mut r, &meta, guard)?;
    Ok((meta, taxa))
}

/// Load and fully validate the snapshot at `path`.
///
/// The returned table answers exactly what the written one did: same
/// taxa, same frequencies, same `sum`. `guard` bounds the load — the
/// table's bytes are checked against the budget before any is allocated,
/// and cancellation is honoured between record batches.
pub fn read_snapshot(path: &Path, guard: &RunGuard) -> Result<Snapshot, IndexError> {
    read_snapshot_with(&RealVfs, path, guard)
}

/// Stream the splits section, running every check a snapshot must pass:
/// mask padding, strict ascending order, the frequency range, the section
/// seal, EOF, and the header sum. `each` receives every record's mask
/// words and frequency as soon as the record itself validates, and may
/// refuse it; the caller must not trust the whole until this returns
/// `Ok`. The loading and the verifying readers share this loop, so the
/// checks exist once.
fn read_splits<R: std::io::Read>(
    r: &mut CheckedReader<R>,
    meta: &SnapshotMeta,
    guard: &RunGuard,
    mut each: impl FnMut(&[u64], u32) -> Result<(), IndexError>,
) -> Result<(), IndexError> {
    let words = words_for(meta.n_taxa);
    let pad_mask = if meta.n_taxa.is_multiple_of(WORD_BITS) {
        0u64
    } else {
        !((1u64 << (meta.n_taxa % WORD_BITS)) - 1)
    };
    let mut word_buf = vec![0u64; words];
    // Masks share one width, so `Bits` order is lexicographic word order.
    let mut prev = vec![0u64; words];
    let mut sum_check: u64 = 0;
    for i in 0..meta.distinct {
        if i % CHECKPOINT_EVERY == 0 {
            guard.checkpoint("snapshot splits")?;
        }
        for w in word_buf.iter_mut() {
            *w = r.take_u64("splits")?;
        }
        // Validate the canonical-padding invariant by hand: Bits::from_words
        // panics on stray padding bits, and corruption must stay a typed
        // error.
        if let Some(&last) = word_buf.last() {
            if last & pad_mask != 0 {
                return Err(IndexError::Corrupt {
                    section: "splits",
                    detail: format!("record {i} has set bits in the mask padding"),
                });
            }
        }
        if i > 0 && word_buf <= prev {
            return Err(IndexError::Corrupt {
                section: "splits",
                detail: format!("record {i} out of order (masks must strictly ascend)"),
            });
        }
        prev.copy_from_slice(&word_buf);
        let freq = r.take_u32("splits")?;
        if freq == 0 || freq as usize > meta.n_trees {
            return Err(IndexError::Corrupt {
                section: "splits",
                detail: format!("record {i} frequency {freq} outside 1..={}", meta.n_trees),
            });
        }
        sum_check += u64::from(freq);
        each(&word_buf, freq)?;
    }
    r.verify_section("splits")?;
    r.expect_eof("splits")?;

    if sum_check != meta.sum {
        return Err(IndexError::Corrupt {
            section: "splits",
            detail: format!(
                "frequency sum {sum_check} disagrees with header sum {}",
                meta.sum
            ),
        });
    }
    Ok(())
}

/// Stream the snapshot at `path` through every check [`read_snapshot_with`]
/// runs — the three section seals, mask padding, strict ascending order,
/// the frequency range, the header sum, and EOF — without laying out the
/// table. It returns the header when the snapshot would load, and otherwise
/// the error [`read_snapshot_with`] would return (except a refusal of the
/// table's memory budget: verifying holds no records). This is how
/// a read-only daemon, which serves from the frozen sidecar and never
/// loads the splits, still refuses a corrupt snapshot at bind.
pub fn verify_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
    guard: &RunGuard,
) -> Result<SnapshotMeta, IndexError> {
    scan_snapshot_with(vfs, path, guard, |_, _| Ok(())).map(|(meta, _)| meta)
}

/// [`verify_snapshot_with`] handing every split record (mask words and
/// frequency) to `each` as it validates, and returning the taxon table
/// too. `each` may refuse a record; the caller must not trust what it saw
/// until this returns `Ok`. The index open streams the snapshot past its
/// frozen sidecar this way to cross-check the two.
pub(crate) fn scan_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
    guard: &RunGuard,
    each: impl FnMut(&[u64], u32) -> Result<(), IndexError>,
) -> Result<(SnapshotMeta, TaxonSet), IndexError> {
    let file = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut r = CheckedReader::new(BufReader::new(file), path);
    let meta = read_header(&mut r)?;
    let taxa = read_taxa_section(&mut r, &meta, guard)?;
    read_splits(&mut r, &meta, guard, each)?;
    Ok((meta, taxa))
}

/// [`read_snapshot`] routed through an explicit [`Vfs`]. Each record goes
/// into lanes sized from the header as soon as it validates
/// ([`FrozenBfh::from_ascending`]), so the load holds one copy of the
/// splits and builds no hash.
pub fn read_snapshot_with(
    vfs: &dyn Vfs,
    path: &Path,
    guard: &RunGuard,
) -> Result<Snapshot, IndexError> {
    let file = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut r = CheckedReader::new(BufReader::new(file), path);
    let meta = read_header(&mut r)?;
    let taxa = read_taxa_section(&mut r, &meta, guard)?;
    guard.check_alloc(
        "snapshot splits",
        FrozenBfh::sized_bytes(meta.n_taxa, meta.distinct),
    )?;
    let table = FrozenBfh::from_ascending(meta.n_taxa, meta.n_trees, meta.distinct, |place| {
        read_splits(&mut r, &meta, guard, |words, freq| Ok(place(words, freq)?))
    })?;
    Ok(Snapshot { table, taxa, meta })
}
