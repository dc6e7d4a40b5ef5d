//! The frozen-table sidecar: a [`bfhrf::FrozenBfh`] serialized lane-by-lane
//! so the probe-ready table can be reopened without re-freezing — and, on
//! filesystems that support it, memory-mapped zero-copy so opening a huge
//! index never materializes its splits at all.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! magic    8  bytes  "BFHFROZ\0"          (not covered by any checksum)
//! version  u16                            (not covered by any checksum)
//! -- header section ------------------------------------------------
//! generation u64 | digest u64
//! n_taxa u64 | n_trees u64 | sum u64 | distinct u64 | capacity u64
//! ctrl_off u64 | ctrl_len u64 | ctrl_sum u64
//! entries_off u64 | entries_len u64 | entries_sum u64
//! pool_off u64 | pool_len u64 | pool_sum u64
//! FNV-1a 64 checksum of the fields above
//! -- lanes, each zero-padded to a 64-byte-aligned offset ------------
//! ctrl lane    capacity + GROUP_SLOTS bytes (wrap-mirror included)
//! entries lane capacity × 16-byte records (key u64 · freq u32 · offset u32)
//! pool lane    distinct × words_for(n_taxa) u64 mask words
//! EOF (file length must be exactly pool_off + pool_len)
//! ```
//!
//! `digest` is [`bfhrf::FrozenBfh::digest`] over every lane — the bitwise
//! identity witness. The open path does **not** recompute it (that would
//! page the whole pool and defeat lazy mapping); it trusts the sealed
//! header plus the per-lane checks below, and [`verify_frozen_with`]
//! recomputes everything for `index inspect --check`.
//!
//! # What each open path verifies
//!
//! Both paths verify the header seal, the layout-derived lane geometry
//! (lengths, 64-byte alignment, ordering, exact file length), the ctrl and
//! entries lane checksums, and every structural invariant the probe loops
//! rely on ([`FrozenBfh::from_le_parts`] / `from_mapped_le` reject unsafe
//! layouts). The read-and-materialize path additionally verifies the pool
//! lane checksum; the mmap path leaves the pool lazily paged, so a flipped
//! pool byte there goes unseen by the open. `inspect --check` catches it,
//! and the read-write [`crate::Index::open`] probes every snapshot record
//! against every lane before it takes a sidecar as its base, so a bad
//! pool is never folded or re-sealed by a compaction.

use crate::error::IndexError;
use crate::format::{fnv1a64, Digest};
use crate::vfs::{RealVfs, Vfs};
use bfhrf::{FrozenBfh, FrozenLayout, RunGuard};
use phylo_bitset::group::GROUP_SLOTS;
use phylo_bitset::words_for;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every frozen sidecar.
pub const FROZEN_MAGIC: &[u8; 8] = b"BFHFROZ\0";
/// Frozen sidecar format version this build reads and writes.
pub const FROZEN_VERSION: u16 = 1;

/// magic + version + 16 sealed u64 fields + seal.
const HEADER_BYTES: u64 = 8 + 2 + 16 * 8 + 8;
/// Every lane starts on a 64-byte boundary so a page-aligned mapping keeps
/// the entry records naturally aligned (and cache-line tidy).
const LANE_ALIGN: u64 = 64;
/// Same header-sanity ceiling the snapshot reader applies.
const MAX_TAXA: u64 = 100_000_000;

fn align_up(x: u64) -> u64 {
    x.div_ceil(LANE_ALIGN) * LANE_ALIGN
}

/// One lane's location and checksum, straight from the sealed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenSection {
    /// Absolute byte offset of the lane (64-byte aligned).
    pub offset: u64,
    /// Lane length in bytes.
    pub len: u64,
    /// FNV-1a 64 of the lane bytes.
    pub checksum: u64,
}

/// The validated header of a frozen sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenMeta {
    /// Generation of the snapshot this sidecar shadows.
    pub generation: u64,
    /// [`FrozenBfh::digest`] of the serialized table.
    pub digest: u64,
    /// The scalar layout both reconstruction paths take.
    pub layout: FrozenLayout,
    /// Control lane (capacity + mirror-group bytes).
    pub ctrl: FrozenSection,
    /// Entry lane (capacity × 16-byte records).
    pub entries: FrozenSection,
    /// Mask pool lane (distinct × words u64s).
    pub pool: FrozenSection,
}

impl FrozenMeta {
    /// Exact file length the header implies.
    pub fn file_len(&self) -> u64 {
        self.pool.offset + self.pool.len
    }
}

/// A frozen table opened from a sidecar, plus how it was opened.
#[derive(Debug)]
pub struct FrozenOpenFile {
    /// The probe-ready table.
    pub frozen: FrozenBfh,
    /// The validated header.
    pub meta: FrozenMeta,
    /// Whether the lanes borrow a live memory mapping (zero-copy) rather
    /// than owned heap copies.
    pub mapped: bool,
}

fn corrupt(detail: String) -> IndexError {
    IndexError::Corrupt {
        section: "frozen",
        detail,
    }
}

/// Write `frozen` as a sidecar at `path`, fsynced. The caller owns
/// crash-safety sequencing (write to a temp name, then rename). A table
/// that carries a delta ([`FrozenBfh::with_delta`]) has no lane form and
/// is refused; fold it ([`FrozenBfh::folded`]) instead.
pub fn write_frozen_with(
    vfs: &dyn Vfs,
    path: &Path,
    frozen: &FrozenBfh,
    generation: u64,
) -> Result<(), IndexError> {
    if frozen.has_delta() {
        return Err(IndexError::Core(bfhrf::CoreError::Structure(
            "a frozen table carrying a delta has no sidecar form; write a fresh freeze".into(),
        )));
    }
    let layout = frozen.layout();
    let ctrl = frozen.ctrl_lane();
    let pool = frozen.pool_lane();

    let mut entry_bytes = Vec::with_capacity(layout.capacity * 16);
    for rec in frozen.entry_records() {
        entry_bytes.extend_from_slice(&rec);
    }
    let ctrl_sum = fnv1a64(ctrl);
    let entries_sum = fnv1a64(&entry_bytes);
    let mut pool_digest = Digest::new();
    for word in pool {
        pool_digest.update(&word.to_le_bytes());
    }

    let ctrl_off = align_up(HEADER_BYTES);
    let entries_off = align_up(ctrl_off + ctrl.len() as u64);
    let pool_off = align_up(entries_off + entry_bytes.len() as u64);

    let mut header = Vec::with_capacity(HEADER_BYTES as usize);
    header.extend_from_slice(FROZEN_MAGIC);
    header.extend_from_slice(&FROZEN_VERSION.to_le_bytes());
    let sealed_from = header.len();
    for v in [
        generation,
        frozen.digest(),
        layout.n_taxa as u64,
        layout.n_trees as u64,
        layout.sum,
        layout.distinct as u64,
        layout.capacity as u64,
        ctrl_off,
        ctrl.len() as u64,
        ctrl_sum,
        entries_off,
        entry_bytes.len() as u64,
        entries_sum,
        pool_off,
        pool.len() as u64 * 8,
        pool_digest.value(),
    ] {
        header.extend_from_slice(&v.to_le_bytes());
    }
    let seal = fnv1a64(&header[sealed_from..]);
    header.extend_from_slice(&seal.to_le_bytes());

    let file = vfs.create(path).map_err(|e| IndexError::io(path, e))?;
    let mut w = std::io::BufWriter::new(file);
    let mut written = 0u64;
    macro_rules! put {
        ($bytes:expr) => {{
            let b: &[u8] = $bytes;
            written += b.len() as u64;
            w.write_all(b).map_err(|e| IndexError::io(path, e))?;
        }};
    }
    macro_rules! pad_to {
        ($to:expr) => {
            put!(&vec![0u8; ($to - written) as usize])
        };
    }

    put!(&header);
    pad_to!(ctrl_off);
    put!(ctrl);
    pad_to!(entries_off);
    put!(&entry_bytes);
    pad_to!(pool_off);
    // The pool is the big lane: stream it through a fixed chunk instead of
    // materializing a second copy.
    let mut chunk = Vec::with_capacity(64 * 1024);
    for word in pool {
        chunk.extend_from_slice(&word.to_le_bytes());
        if chunk.len() >= 64 * 1024 {
            put!(&chunk);
            chunk.clear();
        }
    }
    put!(&chunk);
    debug_assert_eq!(written, pool_off + pool.len() as u64 * 8);
    w.flush().map_err(|e| IndexError::io(path, e))?;
    let mut file = w
        .into_inner()
        .map_err(|e| IndexError::io(path, e.into_error()))?;
    file.sync_all().map_err(|e| IndexError::io(path, e))?;
    Ok(())
}

/// Parse and validate a sidecar header from its first [`HEADER_BYTES`]
/// bytes: seal, sanity bounds, and the lane geometry the layout dictates.
fn parse_header(head: &[u8]) -> Result<FrozenMeta, IndexError> {
    if head.len() < HEADER_BYTES as usize {
        return Err(corrupt(format!(
            "file truncated inside the header ({} of {HEADER_BYTES} bytes)",
            head.len()
        )));
    }
    if &head[..8] != FROZEN_MAGIC {
        return Err(IndexError::NotAnIndex(format!(
            "bad frozen sidecar magic {:02x?} (expected {:02x?})",
            &head[..8],
            FROZEN_MAGIC
        )));
    }
    let version = u16::from_le_bytes([head[8], head[9]]);
    if version == 0 || version > FROZEN_VERSION {
        return Err(IndexError::Version {
            found: version,
            supported: FROZEN_VERSION,
        });
    }
    let sealed = &head[10..HEADER_BYTES as usize - 8];
    let want = u64::from_le_bytes(
        head[HEADER_BYTES as usize - 8..HEADER_BYTES as usize]
            .try_into()
            .expect("8 bytes"),
    );
    if fnv1a64(sealed) != want {
        return Err(corrupt("header checksum mismatch".into()));
    }
    let mut fields = [0u64; 16];
    for (i, f) in fields.iter_mut().enumerate() {
        *f = u64::from_le_bytes(sealed[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    }
    let [generation, digest, n_taxa, n_trees, sum, distinct, capacity, ctrl_off, ctrl_len, ctrl_sum, entries_off, entries_len, entries_sum, pool_off, pool_len, pool_sum] =
        fields;

    // Checksum passed; sanity-bound everything before it sizes or indexes
    // anything (a colliding header must still not drive huge allocations
    // or out-of-bounds lane windows).
    if n_taxa == 0 || n_taxa > MAX_TAXA {
        return Err(corrupt(format!("implausible taxon count {n_taxa}")));
    }
    if n_trees > u64::from(u32::MAX) {
        return Err(corrupt(format!("implausible tree count {n_trees}")));
    }
    let words = words_for(n_taxa as usize) as u64;
    let expect = |name: &str, got: u64, want: Option<u64>| -> Result<u64, IndexError> {
        let want = want.ok_or_else(|| corrupt(format!("{name} length overflows")))?;
        if got != want {
            return Err(corrupt(format!(
                "{name} length {got} does not match layout ({want})"
            )));
        }
        Ok(want)
    };
    let ctrl_want = capacity.checked_add(GROUP_SLOTS as u64);
    let ctrl_len = expect("ctrl lane", ctrl_len, ctrl_want)?;
    let entries_len = expect("entry lane", entries_len, capacity.checked_mul(16))?;
    let pool_len = expect(
        "pool lane",
        pool_len,
        distinct.checked_mul(words).and_then(|w| w.checked_mul(8)),
    )?;
    let mut cursor = align_up(HEADER_BYTES);
    for (name, off, len) in [
        ("ctrl", ctrl_off, ctrl_len),
        ("entries", entries_off, entries_len),
        ("pool", pool_off, pool_len),
    ] {
        if off != cursor {
            return Err(corrupt(format!(
                "{name} lane offset {off} breaks the aligned layout (expected {cursor})"
            )));
        }
        cursor = off
            .checked_add(len)
            .map(align_up)
            .ok_or_else(|| corrupt(format!("{name} lane extends past addressable range")))?;
    }
    let to_usize = |name: &str, v: u64| -> Result<usize, IndexError> {
        usize::try_from(v).map_err(|_| corrupt(format!("{name} does not fit this host")))
    };
    Ok(FrozenMeta {
        generation,
        digest,
        layout: FrozenLayout {
            n_taxa: to_usize("n_taxa", n_taxa)?,
            n_trees: to_usize("n_trees", n_trees)?,
            sum,
            distinct: to_usize("distinct", distinct)?,
            capacity: to_usize("capacity", capacity)?,
        },
        ctrl: FrozenSection {
            offset: ctrl_off,
            len: ctrl_len,
            checksum: ctrl_sum,
        },
        entries: FrozenSection {
            offset: entries_off,
            len: entries_len,
            checksum: entries_sum,
        },
        pool: FrozenSection {
            offset: pool_off,
            len: pool_len,
            checksum: pool_sum,
        },
    })
}

/// Read and validate only the sidecar header at `path` — cheap inspection.
pub fn read_frozen_meta_with(vfs: &dyn Vfs, path: &Path) -> Result<FrozenMeta, IndexError> {
    let mut r = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut head = vec![0u8; HEADER_BYTES as usize];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(IndexError::io(path, e)),
        }
    }
    parse_header(&head[..filled])
}

/// Slice `bytes[offset..offset + len]` for a lane, bounds-checked.
fn lane<'a>(bytes: &'a [u8], name: &str, s: &FrozenSection) -> Result<&'a [u8], IndexError> {
    let off = s.offset as usize;
    let len = s.len as usize;
    bytes
        .get(off..off + len)
        .ok_or_else(|| corrupt(format!("{name} lane extends past end of file")))
}

fn check_lane_sum(bytes: &[u8], name: &str, want: u64) -> Result<(), IndexError> {
    if fnv1a64(bytes) != want {
        return Err(corrupt(format!("{name} lane checksum mismatch")));
    }
    Ok(())
}

fn materialize(meta: &FrozenMeta, bytes: &[u8]) -> Result<FrozenBfh, IndexError> {
    if bytes.len() as u64 != meta.file_len() {
        return Err(corrupt(format!(
            "file is {} bytes, header implies {}",
            bytes.len(),
            meta.file_len()
        )));
    }
    let ctrl = lane(bytes, "ctrl", &meta.ctrl)?;
    let entries = lane(bytes, "entries", &meta.entries)?;
    let pool_bytes = lane(bytes, "pool", &meta.pool)?;
    check_lane_sum(ctrl, "ctrl", meta.ctrl.checksum)?;
    check_lane_sum(entries, "entries", meta.entries.checksum)?;
    check_lane_sum(pool_bytes, "pool", meta.pool.checksum)?;
    let pool: Vec<u64> = pool_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    FrozenBfh::from_le_parts(meta.layout, ctrl.to_vec(), entries, pool).map_err(corrupt)
}

/// Open the sidecar at `path`, zero-copy over a memory mapping when the
/// filesystem provides one (little-endian hosts), otherwise by reading and
/// materializing owned lanes. `guard` bounds the materializing path's
/// allocation.
pub fn open_frozen_with(
    vfs: &dyn Vfs,
    path: &Path,
    guard: &RunGuard,
) -> Result<FrozenOpenFile, IndexError> {
    #[cfg(target_endian = "little")]
    if let Some(map) = vfs.mmap_read(path).map_err(|e| IndexError::io(path, e))? {
        let bytes = map.as_slice();
        let meta = parse_header(bytes.get(..HEADER_BYTES as usize).unwrap_or(bytes))?;
        if bytes.len() as u64 != meta.file_len() {
            return Err(corrupt(format!(
                "file is {} bytes, header implies {}",
                bytes.len(),
                meta.file_len()
            )));
        }
        // ctrl + entries are the small probe-hot lanes: checksum them now.
        // The pool stays untouched so huge tables open without paging
        // their splits (see the module docs for the integrity argument).
        check_lane_sum(lane(bytes, "ctrl", &meta.ctrl)?, "ctrl", meta.ctrl.checksum)?;
        check_lane_sum(
            lane(bytes, "entries", &meta.entries)?,
            "entries",
            meta.entries.checksum,
        )?;
        let base = map.as_ptr();
        let guard_arc: Arc<dyn bfhrf::MapGuard> = Arc::new(map);
        // Safety: the pointers index into the mapping the guard keeps
        // alive, and parse_header proved each lane lies inside the file.
        let frozen = unsafe {
            FrozenBfh::from_mapped_le(
                meta.layout,
                base.add(meta.ctrl.offset as usize),
                base.add(meta.entries.offset as usize),
                base.add(meta.pool.offset as usize),
                guard_arc,
            )
        }
        .map_err(corrupt)?;
        phylo_obs::global()
            .counter("frozen_open_total", &[("mode", "mmap")])
            .inc();
        return Ok(FrozenOpenFile {
            frozen,
            meta,
            mapped: true,
        });
    }

    // Read-and-materialize fallback: in-memory filesystems, big-endian
    // hosts, or files the platform cannot map.
    let meta = read_frozen_meta_with(vfs, path)?;
    guard.check_alloc(
        "frozen sidecar",
        usize::try_from(meta.file_len())
            .map_err(|_| corrupt("file length does not fit this host".into()))?,
    )?;
    let mut r = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)
        .map_err(|e| IndexError::io(path, e))?;
    let frozen = materialize(&meta, &bytes)?;
    phylo_obs::global()
        .counter("frozen_open_total", &[("mode", "owned")])
        .inc();
    Ok(FrozenOpenFile {
        frozen,
        meta,
        mapped: false,
    })
}

/// Fully verify the sidecar at `path`: every lane checksum plus a
/// recomputed [`FrozenBfh::digest`] against the sealed header value. This
/// reads and pages everything — it is the `inspect --check` path, not the
/// open path.
pub fn verify_frozen_with(vfs: &dyn Vfs, path: &Path) -> Result<FrozenMeta, IndexError> {
    let meta = read_frozen_meta_with(vfs, path)?;
    let mut r = vfs.open_read(path).map_err(|e| IndexError::io(path, e))?;
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)
        .map_err(|e| IndexError::io(path, e))?;
    let frozen = materialize(&meta, &bytes)?;
    if frozen.digest() != meta.digest {
        return Err(corrupt(format!(
            "table digest {:#018x} disagrees with sealed header digest {:#018x}",
            frozen.digest(),
            meta.digest
        )));
    }
    Ok(meta)
}

/// [`read_frozen_meta_with`] through the production filesystem.
pub fn read_frozen_meta(path: &Path) -> Result<FrozenMeta, IndexError> {
    read_frozen_meta_with(&RealVfs, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use bfhrf::Bfh;
    use phylo::TreeCollection;
    use std::path::PathBuf;

    fn sample_frozen() -> (FrozenBfh, Bfh) {
        let coll = TreeCollection::parse(
            "((A,B),(C,D),(E,F));\n((A,C),(B,D),(E,F));\n(((A,B),C),(D,(E,F)));",
        )
        .unwrap();
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        (bfh.freeze(), bfh)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bfhrf-frozen-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("frozen.bfh")
    }

    #[test]
    fn round_trips_bitwise_through_mem_and_real_vfs() {
        let (frozen, _) = sample_frozen();

        // MemVfs: no mapping available, so the owned path runs.
        let mem = MemVfs::new();
        let p = Path::new("frozen.bfh");
        write_frozen_with(&mem, p, &frozen, 4).unwrap();
        let opened = open_frozen_with(&mem, p, &RunGuard::default()).unwrap();
        assert!(!opened.mapped);
        assert_eq!(opened.meta.generation, 4);
        assert_eq!(opened.frozen.digest(), frozen.digest(), "bitwise identical");
        assert_eq!(opened.meta.digest, frozen.digest());
        verify_frozen_with(&mem, p).unwrap();

        // RealVfs: unix hosts take the zero-copy mapping.
        let path = tmp("roundtrip");
        write_frozen_with(&RealVfs, &path, &frozen, 4).unwrap();
        let opened = open_frozen_with(&RealVfs, &path, &RunGuard::default()).unwrap();
        assert_eq!(opened.frozen.digest(), frozen.digest());
        #[cfg(all(unix, target_endian = "little"))]
        {
            assert!(opened.mapped);
            assert!(opened.frozen.is_mapped());
        }
        verify_frozen_with(&RealVfs, &path).unwrap();

        // Lane offsets really are 64-byte aligned.
        let meta = read_frozen_meta(&path).unwrap();
        for s in [meta.ctrl, meta.entries, meta.pool] {
            assert_eq!(s.offset % 64, 0, "{s:?}");
        }
    }

    #[test]
    fn every_byte_flip_is_rejected_by_open_or_verify() {
        let (frozen, _) = sample_frozen();
        let mem = MemVfs::new();
        let p = Path::new("frozen.bfh");
        write_frozen_with(&mem, p, &frozen, 0).unwrap();
        let good = mem.read_bytes(p).unwrap();
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x20;
            mem.write_bytes(p, bad);
            // Padding bytes are the only region no checksum covers; a flip
            // there must still never panic or change the table.
            match verify_frozen_with(&mem, p) {
                Ok(meta) => assert_eq!(meta.digest, frozen.digest(), "flip at {at}"),
                Err(e) => assert!(
                    e.is_corruption(),
                    "flip at byte {at} gave a non-corruption error: {e}"
                ),
            }
        }
        mem.write_bytes(p, good);
        verify_frozen_with(&mem, p).unwrap();
    }

    #[test]
    fn truncations_are_typed_errors() {
        let (frozen, _) = sample_frozen();
        let mem = MemVfs::new();
        let p = Path::new("frozen.bfh");
        write_frozen_with(&mem, p, &frozen, 0).unwrap();
        let good = mem.read_bytes(p).unwrap();
        for cut in 0..good.len() {
            mem.write_bytes(p, good[..cut].to_vec());
            let err = open_frozen_with(&mem, p, &RunGuard::default()).unwrap_err();
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (frozen, _) = sample_frozen();
        let mem = MemVfs::new();
        let p = Path::new("frozen.bfh");
        write_frozen_with(&mem, p, &frozen, 0).unwrap();
        let mut bytes = mem.read_bytes(p).unwrap();
        bytes.push(0);
        mem.write_bytes(p, bytes);
        let err = open_frozen_with(&mem, p, &RunGuard::default()).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn mapped_open_answers_queries_identically() {
        let (frozen, bfh) = sample_frozen();
        let coll = TreeCollection::parse(
            "((A,B),(C,D),(E,F));\n((A,C),(B,D),(E,F));\n(((A,B),C),(D,(E,F)));",
        )
        .unwrap();
        let path = tmp("queries");
        write_frozen_with(&RealVfs, &path, &frozen, 1).unwrap();
        let opened = open_frozen_with(&RealVfs, &path, &RunGuard::default()).unwrap();
        let mut scratch = phylo::BipartitionScratch::new();
        for tree in &coll.trees {
            let got = opened
                .frozen
                .average_scratch(tree, &coll.taxa, &mut scratch);
            let want = frozen.average_scratch(tree, &coll.taxa, &mut scratch);
            assert_eq!(got, want, "mapped and in-memory answers must agree");
        }
        drop(opened);
        let _ = bfh;
    }
}
