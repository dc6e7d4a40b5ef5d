//! The frozen, read-only BFH query kernel.
//!
//! After a build (or snapshot load) finishes, the hash stops changing: the
//! serve daemon answers thousands of queries per snapshot generation, and
//! the offline CLI answers a whole query file against one build. A
//! general-purpose hashbrown map pays for its mutability on every one of
//! those probes — SipHash-free but still rehashing the full mask per
//! lookup, chasing a boxed key allocation per hit, with no locality across
//! the ~`n` probes a query tree issues. [`FrozenBfh`] freezes the map into
//! a **group-structured** open-addressing table tuned for the probe loop:
//!
//! * a **control-byte lane** (`u8` per slot, plus a 16-byte wrap mirror):
//!   [`CTRL_EMPTY`] for empty slots, the 7-bit [`ctrl_h2`] hash tag for
//!   full ones. Probing scans it [`GROUP_SLOTS`] (16) tags per step with
//!   the portable SWAR compare of [`phylo_bitset::group`];
//! * a parallel **entry lane** of 16-byte [`Entry`] records — the 64-bit
//!   key word (for one-word namespaces the key *is* the mask, so a key
//!   match is exact and the pool is never touched; for wider namespaces it
//!   is the [`hash_tag`] lane), the `u32` frequency, and the `u32` rank
//!   into the pool — one cache line per four slots instead of three
//!   separate tag/freq/offset lanes;
//! * one **packed word pool** holding every distinct mask contiguously at
//!   stride `words_for(n_taxa)` — a confirmed multi-word probe is one
//!   pooled `memcmp`, never a pointer chase into a per-key allocation.
//!
//! A typical multi-word hit now touches three cache lines (control group,
//! entry, pool) where the PR 4 layout touched four (tag, freq, offset,
//! pool), and a miss usually touches only the control group: the h2 scan
//! rejects all 16 slots and reports an empty in the same load.
//!
//! Probing is batched: [`BipartitionScratch::batch_splits`] extracts a
//! query's canonical masks *and* their 128-bit hashes in one post-order
//! pass, and [`FrozenBfh::frequency_sum_batch`] walks the batch in a
//! pipelined loop that software-prefetches the control group and entry
//! line of split `i + D` while probing split `i`, overlapping the cache
//! misses that dominate on collection-scale tables (hundreds of thousands
//! of distinct splits).
//!
//! The lanes are immutable by construction and shared behind one `Arc`, so
//! cloning a table is O(1). A mutated hash is answered without refreezing
//! by [`FrozenBfh::with_delta`]: the same lanes plus a small [`SplitDelta`]
//! of net per-split count changes, which every probe adds to the stored
//! frequency. Every table's lanes are written by one lane writer: a
//! build folds each chunk of trees' masks straight into growing lanes as
//! the trees are read, a freeze is
//! a single `O(distinct)` pass over [`Bfh::iter`] into pre-sized ones,
//! [`FrozenBfh::folded`] folds a delta into fresh lanes the same way,
//! straight from the old lanes, and [`FrozenBfh::from_ascending`] places a
//! snapshot's records into pre-sized lanes as they are read.

use crate::bfh::Bfh;
use crate::error::CoreError;
use phylo::{BipartitionScratch, SplitBatch, TaxonSet, Tree};
use phylo_bitset::group::{match_byte, match_empty, CTRL_EMPTY, GROUP_SLOTS};
use phylo_bitset::{
    bits_map_with_capacity, ctrl_h2, hash_bucket, hash_tag, map_get_words, map_get_words_mut,
    split_hash128, words_for, Bits, BitsMap, WordsKey, WORD_BITS,
};
use std::ops::Deref;
use std::sync::{Arc, Weak};

/// Keeps a memory mapping alive for as long as any [`Lane`] points into
/// it. The index crate's mmap wrapper implements this; dropping the last
/// `Arc<dyn MapGuard>` unmaps the region.
pub trait MapGuard: std::fmt::Debug + Send + Sync + 'static {}

/// One lane of the frozen table: either heap-owned (the `freeze()` and
/// read-and-materialize paths) or borrowed zero-copy from a live memory
/// mapping (the snapshot sidecar open path). Reads go through `Deref`,
/// so the probe loops are storage-agnostic and identical machine code.
enum Lane<T> {
    Owned(Box<[T]>),
    Mapped {
        ptr: *const T,
        len: usize,
        /// Keeps the mapping alive; never read, only dropped.
        _guard: Arc<dyn MapGuard>,
    },
}

// SAFETY: a mapped lane is an immutable view of a read-only mapping whose
// lifetime the guard pins; sharing or sending it is no more than sharing
// the &[T] it derefs to.
unsafe impl<T: Send + Sync> Send for Lane<T> {}
unsafe impl<T: Send + Sync> Sync for Lane<T> {}

impl<T> Deref for Lane<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Lane::Owned(b) => b,
            // SAFETY: constructor contract — ptr/len describe a valid,
            // immutable region outliving `_guard`.
            Lane::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Lane<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Lane::Owned(_) => "owned",
            Lane::Mapped { .. } => "mapped",
        };
        write!(f, "Lane<{kind}; len={}>", self.len())
    }
}

/// The header scalars a serialized frozen table carries; both
/// reconstruction paths take one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenLayout {
    /// Namespace width.
    pub n_taxa: usize,
    /// Reference trees folded in.
    pub n_trees: usize,
    /// Total split occurrences.
    pub sum: u64,
    /// Distinct splits stored.
    pub distinct: usize,
    /// Slot count of the bucket array.
    pub capacity: usize,
}

/// How many splits ahead the batched probe loop prefetches. Re-tuned for
/// the group layout: each probe now pulls two lines (control group +
/// entry) instead of three, so the pipeline runs a little deeper than
/// PR 4's 8 without outpacing the L1 fill buffers (8/12/16 measure
/// within noise of each other on the insect preset; 12 is the middle
/// of that plateau).
const PREFETCH_AHEAD: usize = 12;

/// One slot of the frozen table: the 64-bit key word (mask word when
/// `words == 1`, else the [`hash_tag`] lane), the stored frequency, and
/// the entry rank into the pool (word offset = `offset × words`).
/// 16 bytes, so four slots share a cache line and a confirmed probe reads
/// key and frequency from the same load.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct Entry {
    key: u64,
    freq: u32,
    offset: u32,
}

/// A frozen, probe-optimized snapshot of a [`Bfh`].
///
/// Answers exactly the same `frequency`/`sum`/`n_trees` questions (it
/// implements [`crate::SplitFrequency`]), bitwise-identically, but
/// read-only. Clones share the lanes.
#[derive(Debug, Clone)]
pub struct FrozenBfh {
    n_taxa: usize,
    words: usize,
    /// The answered scalars: the lanes' own, or patched by `delta`.
    n_trees: usize,
    sum: u64,
    distinct: usize,
    /// `capacity - 1`; capacity is a power of two ≥ 2 × the lanes'
    /// distinct count and ≥ [`GROUP_SLOTS`].
    mask: usize,
    lanes: Arc<Lanes>,
    /// Net count changes answered on top of the lanes
    /// ([`FrozenBfh::with_delta`]); never empty when present.
    delta: Option<Arc<SplitDelta>>,
}

/// The three probe lanes of a frozen table, immutable once built.
#[derive(Debug)]
struct Lanes {
    /// Distinct splits stored in the lanes.
    distinct: usize,
    /// Per-slot control byte ([`CTRL_EMPTY`] or `h2`), length
    /// `capacity + GROUP_SLOTS`: the tail mirrors the first group so an
    /// unaligned 16-byte window starting at any slot never wraps.
    ctrl: Lane<u8>,
    /// Per-slot key/frequency/pool-rank record.
    entries: Lane<Entry>,
    /// All distinct masks, packed at stride `words` in insertion order.
    pool: Lane<u64>,
}

/// Names one table's lanes without keeping them alive
/// ([`FrozenBfh::lanes_id`]). The weak reference pins the allocation's
/// address, so no other table's lanes can take it.
#[derive(Debug)]
pub(crate) struct LanesId(Weak<Lanes>);

/// Net per-split count changes since a frozen table was built: what a
/// [`FrozenBfh::with_delta`] table adds to its lanes' answers. Masks whose
/// net count returns to zero are dropped, so an add followed by the
/// matching remove leaves the delta empty again.
#[derive(Debug, Clone)]
pub struct SplitDelta {
    n_taxa: usize,
    counts: BitsMap<i64>,
    /// Net reference trees added.
    trees: i64,
    /// Net split occurrences added.
    sum: i64,
}

impl SplitDelta {
    /// An empty delta over an `n_taxa`-wide namespace.
    pub fn new(n_taxa: usize) -> SplitDelta {
        SplitDelta {
            n_taxa,
            counts: bits_map_with_capacity(0),
            trees: 0,
            sum: 0,
        }
    }

    /// Record one tree added (`sign` = 1) or removed (`sign` = -1), given
    /// its extracted splits.
    pub fn record(&mut self, batch: &SplitBatch<'_>, sign: i64) {
        for i in 0..batch.len() {
            let w = batch.mask(i);
            match map_get_words_mut(&mut self.counts, w) {
                Some(c) => {
                    *c += sign;
                    if *c == 0 {
                        self.counts.remove(WordsKey::new(w));
                    }
                }
                None => {
                    self.counts.insert(Bits::from_words(self.n_taxa, w), sign);
                }
            }
        }
        self.trees += sign;
        self.sum += sign * batch.len() as i64;
    }

    /// Masks with a non-zero net count.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the delta changes nothing: no split counts, no net trees.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.trees == 0
    }

    #[inline]
    fn count(&self, w: &[u64]) -> i64 {
        map_get_words(&self.counts, w).copied().unwrap_or(0)
    }

    /// Entries in ascending mask order — the order [`FrozenBfh::digest`]
    /// mixes them in.
    fn sorted(&self) -> Vec<(&Bits, i64)> {
        let mut entries: Vec<(&Bits, i64)> = self.counts.iter().map(|(b, &c)| (b, c)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Heap bytes: map buckets plus key payloads (as [`Bfh::approx_bytes`]).
    fn approx_bytes(&self) -> usize {
        let per_entry =
            words_for(self.n_taxa) * 8 + std::mem::size_of::<Bits>() + std::mem::size_of::<i64>();
        self.counts.capacity() * per_entry
    }
}

/// A frozen table and a [`SplitDelta`] answered together by reference
/// ([`FrozenBfh::overlay`]).
#[derive(Debug, Clone, Copy)]
pub struct Overlay<'a> {
    base: &'a FrozenBfh,
    delta: &'a SplitDelta,
}

impl crate::SplitFrequency for Overlay<'_> {
    fn split_frequency(&self, bits: &Bits) -> u32 {
        self.split_frequency_words(bits.len(), bits.words())
    }

    fn occurrence_sum(&self) -> u64 {
        self.base.sum.saturating_add_signed(self.delta.sum)
    }

    fn reference_count(&self) -> usize {
        self.base
            .n_trees
            .saturating_add_signed(self.delta.trees as isize)
    }

    fn split_frequency_words(&self, _n_bits: usize, words: &[u64]) -> u32 {
        (i64::from(self.base.frequency_words(words)) + self.delta.count(words)).max(0) as u32
    }
}

/// Fills a frozen table's lanes one split at a time: the one lane writer.
///
/// Pre-sized ([`LaneWriter::sized`]), it places splits known to be
/// distinct; that is how [`FrozenBfh::freeze`], [`FrozenBfh::folded`] and
/// [`FrozenBfh::from_ascending`] lay a table out. Growing
/// ([`LaneWriter::growing`]), it counts mask occurrences, doubles the
/// lanes just before the load would pass one half, and widens them when
/// the namespace crosses a word boundary; that is how a build folds its
/// trees' masks. Either way a split takes the first empty slot from its
/// home, in pool order, so the same splits placed in the same order give
/// the same lanes, and the final capacity is the smallest power of two
/// ≥ 2 × distinct and ≥ [`GROUP_SLOTS`].
pub(crate) struct LaneWriter {
    n_taxa: usize,
    words: usize,
    /// `capacity - 1`.
    mask: usize,
    distinct: usize,
    /// `capacity + GROUP_SLOTS` bytes; [`Self::finish`] writes the mirror.
    ctrl: Vec<u8>,
    entries: Vec<Entry>,
    pool: Vec<u64>,
}

/// Slot count for `distinct` splits: load ≤ 0.5 keeps probe chains short,
/// and one full group keeps the windowed scan in bounds.
fn capacity_for(distinct: usize) -> usize {
    (distinct * 2).max(GROUP_SLOTS).next_power_of_two()
}

/// Heap bytes of lanes with `capacity` slots and pool room for `masks`
/// masks of `words` words: the control lane with its mirror group, the
/// entry lane, and the pool.
fn lane_bytes(words: usize, capacity: usize, masks: usize) -> usize {
    capacity + GROUP_SLOTS + capacity * std::mem::size_of::<Entry>() + masks * words * 8
}

/// The stored frequency of every full slot, indexed by its pool rank.
fn rank_frequencies(ctrl: &[u8], entries: &[Entry], distinct: usize) -> Vec<u32> {
    let mut freqs = vec![0u32; distinct];
    for (&c, e) in ctrl.iter().zip(entries) {
        if c != CTRL_EMPTY {
            freqs[e.offset as usize] = e.freq;
        }
    }
    freqs
}

/// Zero-extend every `from`-word mask in `masks` to `to` words, in place.
/// A canonical mask made over a narrower namespace is exactly the wider
/// mask with zero words appended.
pub(crate) fn zero_extend(masks: &mut Vec<u64>, from: usize, to: usize) {
    let n = masks.len().checked_div(from).unwrap_or(0);
    masks.resize(n * to, 0);
    for i in (0..n).rev() {
        masks.copy_within(i * from..(i + 1) * from, i * to);
        masks[i * to + from..(i + 1) * to].fill(0);
    }
}

impl LaneWriter {
    /// Empty lanes sized for exactly `distinct` splits.
    fn sized(n_taxa: usize, distinct: usize) -> Self {
        LaneWriter::with_lanes(n_taxa, capacity_for(distinct), distinct)
    }

    /// Empty lanes of one group, to grow as [`Self::count`] needs.
    pub(crate) fn growing(n_taxa: usize) -> Self {
        LaneWriter::with_lanes(n_taxa, GROUP_SLOTS, GROUP_SLOTS / 2)
    }

    fn with_lanes(n_taxa: usize, capacity: usize, pool_masks: usize) -> Self {
        let words = words_for(n_taxa);
        LaneWriter {
            n_taxa,
            words,
            mask: capacity - 1,
            distinct: 0,
            ctrl: vec![CTRL_EMPTY; capacity + GROUP_SLOTS],
            entries: vec![Entry::default(); capacity],
            pool: Vec::with_capacity(pool_masks * words),
        }
    }

    /// Heap bytes of growing lanes at `capacity` slots: control and entry
    /// lanes, and pool room for the `capacity / 2` masks the load bound
    /// admits.
    pub(crate) fn bytes_at(words: usize, capacity: usize) -> usize {
        lane_bytes(words, capacity, capacity / 2)
    }

    /// Heap bytes of these growing lanes ([`Self::bytes_at`]) once
    /// [widened](Self::widen) to `n_taxa` taxa.
    pub(crate) fn bytes_over(&self, n_taxa: usize) -> usize {
        LaneWriter::bytes_at(self.words.max(words_for(n_taxa)), self.capacity())
    }

    /// Words per mask.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The entry key of `w` (with hash `h`): the mask word itself in a
    /// one-word namespace, else the hash tag.
    #[inline]
    fn key(&self, h: u128, w: &[u64]) -> u64 {
        if self.words == 1 {
            w[0]
        } else {
            hash_tag(h)
        }
    }

    /// Put pool rank `rank` (hash `h`) in the first empty slot from its
    /// home.
    #[inline]
    fn put(&mut self, h: u128, key: u64, rank: usize, freq: u32) {
        let mut i = hash_bucket(h) as usize & self.mask;
        while self.ctrl[i] != CTRL_EMPTY {
            i = (i + 1) & self.mask;
        }
        self.ctrl[i] = ctrl_h2(h);
        self.entries[i] = Entry {
            key,
            freq,
            offset: rank as u32,
        };
    }

    /// Append a split the lanes do not hold yet.
    fn place(&mut self, w: &[u64], freq: u32) {
        debug_assert!(freq >= 1, "stored frequencies are tree counts");
        let h = split_hash128(w);
        self.put(h, self.key(h, w), self.distinct, freq);
        self.pool.extend_from_slice(w);
        self.distinct += 1;
    }

    /// Count one occurrence of the canonical mask `w` and return its pool
    /// rank: a split already held gains one; a new one is appended with
    /// count 1 and the next rank, after the lanes double if it would take
    /// the load past one half. Before doubling, `grow` is given the bytes
    /// the doubled lanes need ([`Self::bytes_at`]) and may refuse them.
    /// Ranks never change once given, whatever the lanes do later.
    pub(crate) fn count<E>(
        &mut self,
        w: &[u64],
        grow: &mut impl FnMut(usize) -> Result<(), E>,
    ) -> Result<u32, E> {
        let h = split_hash128(w);
        let (h2, key) = (ctrl_h2(h), self.key(h, w));
        let mut i = hash_bucket(h) as usize & self.mask;
        while self.ctrl[i] != CTRL_EMPTY {
            let e = &mut self.entries[i];
            if self.ctrl[i] == h2 && e.key == key {
                let off = e.offset as usize * self.words;
                if self.words == 1 || self.pool[off..off + self.words] == *w {
                    e.freq += 1;
                    return Ok(e.offset);
                }
            }
            i = (i + 1) & self.mask;
        }
        if 2 * (self.distinct + 1) > self.capacity() {
            let capacity = 2 * self.capacity();
            grow(LaneWriter::bytes_at(self.words, capacity))?;
            self.relay(self.words, capacity);
        }
        let rank = self.distinct as u32;
        self.place(w, 1);
        Ok(rank)
    }

    /// Grow the namespace to `n_taxa` taxa. When that takes a mask past a
    /// word boundary, the pool is zero-extended in place and the lanes are
    /// re-laid at the new stride ([`Self::bytes_over`] gives their bytes).
    /// Ranks do not change.
    pub(crate) fn widen(&mut self, n_taxa: usize) {
        let words = words_for(n_taxa);
        if words > self.words {
            self.relay(words, self.capacity());
        }
        self.n_taxa = self.n_taxa.max(n_taxa);
    }

    /// Re-lay the lanes at `capacity` slots and `words` words per mask,
    /// re-placing every split in pool order, as a sized writer given the
    /// same splits would: the one loop behind doubling and widening. The
    /// old control and entry lanes are freed before the new ones are
    /// allocated, so besides the pool only a rank-ordered copy of the
    /// counts outlives them.
    fn relay(&mut self, words: usize, capacity: usize) {
        let freqs = rank_frequencies(&self.ctrl, &self.entries, self.distinct);
        self.ctrl = Vec::new();
        self.entries = Vec::new();
        self.pool
            .reserve_exact(capacity / 2 * words - self.pool.len());
        if words != self.words {
            zero_extend(&mut self.pool, self.words, words);
            self.words = words;
        }
        self.ctrl = vec![CTRL_EMPTY; capacity + GROUP_SLOTS];
        self.entries = vec![Entry::default(); capacity];
        self.mask = capacity - 1;
        for (rank, freq) in freqs.into_iter().enumerate() {
            let w = &self.pool[rank * self.words..(rank + 1) * self.words];
            let h = split_hash128(w);
            let key = self.key(h, w);
            self.put(h, key, rank, freq);
        }
    }

    /// The finished table: the control lane's first group mirrored past
    /// its end, and the pool at its exact length.
    pub(crate) fn finish(mut self, n_trees: usize, sum: u64) -> FrozenBfh {
        // Mirror the first group past the end so every 16-byte window
        // starting at a slot index is contiguous.
        let capacity = self.capacity();
        let (head, tail) = self.ctrl.split_at_mut(capacity);
        tail.copy_from_slice(&head[..GROUP_SLOTS]);
        FrozenBfh {
            n_taxa: self.n_taxa,
            words: self.words,
            n_trees,
            sum,
            distinct: self.distinct,
            mask: self.mask,
            // The control and entry lanes were allocated at their exact
            // length, so `into_boxed_slice` moves them; only a growing
            // pool is shrunk to its length.
            lanes: Arc::new(Lanes {
                distinct: self.distinct,
                ctrl: Lane::Owned(self.ctrl.into_boxed_slice()),
                entries: Lane::Owned(self.entries.into_boxed_slice()),
                pool: Lane::Owned(self.pool.into_boxed_slice()),
            }),
            delta: None,
        }
    }
}

/// Issue a best-effort prefetch of the cache line holding `*ptr`.
#[inline(always)]
#[allow(unused_variables)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch(ptr as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint with no memory effects; any address is
    // allowed. No stable intrinsic exists, so spell it as asm.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) ptr, options(nostack, readonly));
    }
}

impl FrozenBfh {
    /// Freeze `bfh` into the probe-optimized layout. One pass, no effect on
    /// the source hash.
    pub fn freeze(bfh: &Bfh) -> FrozenBfh {
        FrozenBfh::lay_out(
            bfh.n_taxa(),
            bfh.n_trees(),
            bfh.sum(),
            bfh.distinct(),
            bfh.iter().map(|(bits, freq)| (bits.words(), freq)),
        )
    }

    /// This table's answers in fresh lanes without a delta: the delta
    /// folded straight into a copy of the lanes, with no [`Bfh`] in
    /// between. Costs one pass over the lanes; the layout may differ from
    /// a [`Self::freeze`] of the same splits, the answers do not.
    pub fn folded(&self) -> FrozenBfh {
        FrozenBfh::lay_out(
            self.n_taxa,
            self.n_trees,
            self.sum,
            self.distinct,
            self.iter(),
        )
    }

    /// Lay `distinct` `(mask words, frequency)` entries out in fresh lanes,
    /// in the order given — the pre-sized use of [`LaneWriter`] behind
    /// [`Self::freeze`] and [`Self::folded`].
    fn lay_out<'a>(
        n_taxa: usize,
        n_trees: usize,
        sum: u64,
        distinct: usize,
        splits: impl Iterator<Item = (&'a [u64], u32)>,
    ) -> FrozenBfh {
        let mut lanes = LaneWriter::sized(n_taxa, distinct);
        for (w, freq) in splits {
            lanes.place(w, freq);
        }
        debug_assert_eq!(lanes.distinct, distinct, "entry count is `distinct`");
        lanes.finish(n_trees, sum)
    }

    /// Lay out `distinct` splits that arrive in strictly ascending mask
    /// order (a snapshot's splits section) straight into lanes sized for
    /// them, with no hash map in between. `fill` is handed a `place`
    /// callback to call once per split with its mask words and frequency.
    /// `place` refuses, with [`CoreError::Structure`], a mask that is not an
    /// `n_taxa`-taxon mask, a mask not strictly above the one before it, a
    /// frequency outside `1..=n_trees`, and a split past the `distinct`-th;
    /// a split count short of `distinct` is refused once `fill` returns. So
    /// every split is placed once. The table answers like a
    /// [`Self::freeze`] of a hash holding the same splits; its lanes are
    /// laid out in mask order, so their layout may differ.
    pub fn from_ascending<E: From<CoreError>>(
        n_taxa: usize,
        n_trees: usize,
        distinct: usize,
        fill: impl FnOnce(&mut dyn FnMut(&[u64], u32) -> Result<(), CoreError>) -> Result<(), E>,
    ) -> Result<FrozenBfh, E> {
        let words = words_for(n_taxa);
        let tail = n_taxa % WORD_BITS;
        let mut lanes = LaneWriter::sized(n_taxa, distinct);
        let mut sum = 0u64;
        fill(&mut |w, freq| {
            let i = lanes.distinct;
            let refuse = |why: String| Err(CoreError::Structure(format!("split {i} {why}")));
            if w.len() != words || (tail != 0 && w.last().is_some_and(|&l| l >> tail != 0)) {
                return refuse(format!("is not a {n_taxa}-taxon mask"));
            }
            if i == distinct {
                return refuse(format!("is past the {distinct} declared"));
            }
            if i > 0 && w <= &lanes.pool[(i - 1) * words..i * words] {
                return refuse("is not strictly above the mask before it".into());
            }
            if freq == 0 || freq as usize > n_trees {
                return refuse(format!("has frequency {freq}, expected 1..={n_trees}"));
            }
            sum += u64::from(freq);
            lanes.place(w, freq);
            Ok(())
        })?;
        if lanes.distinct != distinct {
            return Err(CoreError::Structure(format!(
                "{} splits placed, {distinct} declared",
                lanes.distinct
            ))
            .into());
        }
        Ok(lanes.finish(n_trees, sum))
    }

    /// Heap bytes of a table of `distinct` splits over `n_taxa` taxa laid
    /// out in sized lanes ([`Self::from_ascending`], [`Self::freeze`]):
    /// what its [`Self::approx_bytes`] reports, and what a loader checks
    /// against its budget before laying one out.
    pub fn sized_bytes(n_taxa: usize, distinct: usize) -> usize {
        lane_bytes(words_for(n_taxa), capacity_for(distinct), distinct)
    }

    /// Every split the table answers with its frequency: the lanes' entries
    /// in slot order with the delta applied (any it takes to zero left
    /// out), then the splits only the delta holds, in ascending mask order.
    /// Yields exactly [`Self::distinct`] items.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], u32)> + '_ {
        let lanes = &*self.lanes;
        let words = self.words;
        let stored = lanes
            .ctrl
            .iter()
            .zip(lanes.entries.iter())
            .filter(|(&c, _)| c != CTRL_EMPTY)
            .filter_map(move |(_, e)| {
                let off = e.offset as usize * words;
                let w = &lanes.pool[off..off + words];
                let freq = self.patched(e.freq, w);
                (freq > 0).then_some((w, freq))
            });
        let added = self
            .delta
            .iter()
            .flat_map(|d| d.sorted())
            .filter(move |(bits, _)| {
                self.lanes_frequency(split_hash128(bits.words()), bits.words()) == 0
            })
            .map(|(bits, count)| (bits.words(), count as u32));
        stored.chain(added)
    }

    /// This table and `delta` answered together by reference: the
    /// frequencies, sum and tree count [`Self::with_delta`] would answer,
    /// without its pass over the delta. What a write checks a removal
    /// against while it records into the delta.
    ///
    /// # Panics
    /// If this table already carries a delta or the namespaces differ.
    pub fn overlay<'a>(&'a self, delta: &'a SplitDelta) -> Overlay<'a> {
        assert!(
            self.delta.is_none(),
            "an overlay patches a table's lanes, not another delta"
        );
        assert_eq!(delta.n_taxa, self.n_taxa, "delta namespace width differs");
        Overlay { base: self, delta }
    }

    /// This table with `delta` answered on top of its lanes, which the two
    /// tables share. Frequencies, `n_trees`, `sum` and `distinct` are the
    /// patched values. An empty delta yields a plain clone: bitwise the
    /// same table, with the same digest.
    ///
    /// # Panics
    /// If this table already carries a delta, if the namespaces differ, or
    /// if the delta removes more than the lanes hold — a delta must record
    /// the writes made since exactly these lanes were frozen.
    pub fn with_delta(&self, delta: Arc<SplitDelta>) -> FrozenBfh {
        assert!(
            self.delta.is_none(),
            "with_delta patches a table's lanes, not another delta"
        );
        assert_eq!(delta.n_taxa, self.n_taxa, "delta namespace width differs");
        if delta.is_empty() {
            return self.clone();
        }
        let mut distinct = self.distinct;
        for (bits, &c) in &delta.counts {
            let stored = i64::from(self.lanes_frequency(split_hash128(bits.words()), bits.words()));
            assert!(
                stored + c >= 0,
                "delta removes {bits} more often than it is stored"
            );
            if stored == 0 {
                distinct += 1;
            } else if stored + c == 0 {
                distinct -= 1;
            }
        }
        let patch = |v: u64, d: i64| {
            v.checked_add_signed(d)
                .expect("delta removes more than the lanes hold")
        };
        FrozenBfh {
            n_trees: patch(self.n_trees as u64, delta.trees) as usize,
            sum: patch(self.sum, delta.sum),
            distinct,
            delta: Some(delta),
            ..self.clone()
        }
    }

    /// Whether this table answers a delta on top of its lanes (and so has
    /// no serialized form).
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// A name for this table's lanes that does not keep them alive.
    pub(crate) fn lanes_id(&self) -> LanesId {
        LanesId(Arc::downgrade(&self.lanes))
    }

    /// Whether this table answers from the lanes `id` names: the table
    /// they were laid out for, or a clone of it.
    pub(crate) fn has_lanes(&self, id: &LanesId) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.lanes), id.0.as_ptr())
    }

    /// The frequency each split's lanes store, before any delta, indexed by
    /// its pool rank: the rank [`LaneWriter::count`] gave it while these
    /// lanes were built.
    pub(crate) fn rank_frequencies(&self) -> Vec<u32> {
        rank_frequencies(&self.lanes.ctrl, &self.lanes.entries, self.lanes.distinct)
    }

    /// Words per pooled mask (`words_for(n_taxa)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The header scalars a serializer must persist to reconstruct this
    /// table (one without a delta).
    pub fn layout(&self) -> FrozenLayout {
        FrozenLayout {
            n_taxa: self.n_taxa,
            n_trees: self.n_trees,
            sum: self.sum,
            distinct: self.distinct,
            capacity: self.capacity(),
        }
    }

    /// The control lane, mirror group included — exactly the bytes a
    /// serializer should write.
    pub fn ctrl_lane(&self) -> &[u8] {
        &self.lanes.ctrl
    }

    /// The packed mask pool in layout order.
    pub fn pool_lane(&self) -> &[u64] {
        &self.lanes.pool
    }

    /// The entry lane as 16-byte little-endian records
    /// (`key u64 · freq u32 · offset u32`) — the exact on-disk form, and
    /// on little-endian hosts the exact in-memory form too.
    pub fn entry_records(&self) -> impl Iterator<Item = [u8; 16]> + '_ {
        self.lanes.entries.iter().map(|e| {
            let mut rec = [0u8; 16];
            rec[0..8].copy_from_slice(&e.key.to_le_bytes());
            rec[8..12].copy_from_slice(&e.freq.to_le_bytes());
            rec[12..16].copy_from_slice(&e.offset.to_le_bytes());
            rec
        })
    }

    /// Rebuild a frozen table from serialized lanes, copying into owned
    /// storage and converting entry records from little-endian — the
    /// endian-safe fallback open path. Rejects any layout the probe loops
    /// could not walk safely.
    pub fn from_le_parts(
        layout: FrozenLayout,
        ctrl: Vec<u8>,
        entry_bytes: &[u8],
        pool: Vec<u64>,
    ) -> Result<FrozenBfh, String> {
        if entry_bytes.len() != layout.capacity * std::mem::size_of::<Entry>() {
            return Err(format!(
                "entry lane holds {} bytes, layout needs {}",
                entry_bytes.len(),
                layout.capacity * std::mem::size_of::<Entry>()
            ));
        }
        let entries: Box<[Entry]> = entry_bytes
            .chunks_exact(std::mem::size_of::<Entry>())
            .map(|rec| Entry {
                key: u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                freq: u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")),
                offset: u32::from_le_bytes(rec[12..16].try_into().expect("4 bytes")),
            })
            .collect();
        FrozenBfh::from_lanes(
            layout,
            Lane::Owned(ctrl.into_boxed_slice()),
            Lane::Owned(entries),
            Lane::Owned(pool.into_boxed_slice()),
        )
    }

    /// Assemble a table from deserialized lanes, rejecting any layout the
    /// probe loops could not walk safely.
    fn from_lanes(
        layout: FrozenLayout,
        ctrl: Lane<u8>,
        entries: Lane<Entry>,
        pool: Lane<u64>,
    ) -> Result<FrozenBfh, String> {
        let frozen = FrozenBfh {
            n_taxa: layout.n_taxa,
            words: words_for(layout.n_taxa),
            n_trees: layout.n_trees,
            sum: layout.sum,
            distinct: layout.distinct,
            mask: layout.capacity.wrapping_sub(1),
            lanes: Arc::new(Lanes {
                distinct: layout.distinct,
                ctrl,
                entries,
                pool,
            }),
            delta: None,
        };
        frozen.validate_layout()?;
        Ok(frozen)
    }

    /// Rebuild a frozen table zero-copy over lanes inside a live memory
    /// mapping. Little-endian hosts only: the mapped bytes are
    /// reinterpreted in place (big-endian builds take the
    /// [`Self::from_le_parts`] copy path, which converts).
    ///
    /// Lane lengths are dictated by `layout`: ctrl is
    /// `capacity + GROUP_SLOTS` bytes, entries `capacity` 16-byte records,
    /// pool `distinct × words_for(n_taxa)` words.
    ///
    /// # Safety
    /// The three pointers must stay valid and unwritten for the guard's
    /// whole lifetime, and each must cover its full layout-derived length.
    ///
    /// # Errors
    /// Misaligned pointers and layouts the probe loops could not walk
    /// safely (bad lane lengths, non-power-of-two capacity, out-of-range
    /// pool ranks, a broken mirror group) or would probe wrongly (a
    /// control byte that is neither empty nor a tag) are rejected, so a
    /// corrupt or adversarial snapshot cannot cause out-of-bounds reads or
    /// silently wrong answers.
    #[cfg(target_endian = "little")]
    pub unsafe fn from_mapped_le(
        layout: FrozenLayout,
        ctrl: *const u8,
        entries: *const u8,
        pool: *const u8,
        guard: Arc<dyn MapGuard>,
    ) -> Result<FrozenBfh, String> {
        if entries.align_offset(std::mem::align_of::<Entry>()) != 0 {
            return Err("entry lane pointer is misaligned".into());
        }
        if pool.align_offset(std::mem::align_of::<u64>()) != 0 {
            return Err("pool lane pointer is misaligned".into());
        }
        FrozenBfh::from_lanes(
            layout,
            Lane::Mapped {
                ptr: ctrl,
                len: layout.capacity + GROUP_SLOTS,
                _guard: Arc::clone(&guard),
            },
            Lane::Mapped {
                ptr: entries as *const Entry,
                len: layout.capacity,
                _guard: Arc::clone(&guard),
            },
            Lane::Mapped {
                ptr: pool as *const u64,
                len: layout.distinct * words_for(layout.n_taxa),
                _guard: guard,
            },
        )
    }

    /// Whether this table borrows a memory mapping (vs owning its lanes).
    pub fn is_mapped(&self) -> bool {
        matches!(self.lanes.ctrl, Lane::Mapped { .. })
    }

    /// Every invariant the probe loops rely on for memory safety. An
    /// `O(capacity)` pass over ctrl + entries — deliberately *not* over
    /// the pool, which is the lane whose lazy paging makes the mmap open
    /// fast; probe reads into it are covered by the rank bound checked
    /// here.
    fn validate_layout(&self) -> Result<(), String> {
        let Lanes {
            distinct,
            ctrl,
            entries,
            pool,
        } = &*self.lanes;
        let distinct = *distinct;
        let capacity = self.mask.wrapping_add(1);
        if !capacity.is_power_of_two() || capacity < GROUP_SLOTS {
            return Err(format!(
                "capacity {capacity} is not a power of two ≥ {GROUP_SLOTS}"
            ));
        }
        if capacity < 2 * distinct {
            // Also guarantees an empty slot exists, which is what
            // terminates an absent-key probe.
            return Err(format!(
                "capacity {capacity} under-provisioned for {} distinct splits",
                distinct
            ));
        }
        if ctrl.len() != capacity + GROUP_SLOTS {
            return Err(format!(
                "ctrl lane holds {} bytes, capacity {capacity} needs {}",
                ctrl.len(),
                capacity + GROUP_SLOTS
            ));
        }
        if entries.len() != capacity {
            return Err(format!(
                "entry lane holds {} slots, capacity is {capacity}",
                entries.len()
            ));
        }
        if pool.len() != distinct * self.words {
            return Err(format!(
                "pool holds {} words, {} distinct × {} words need {}",
                pool.len(),
                distinct,
                self.words,
                distinct * self.words
            ));
        }
        if ctrl[capacity..] != ctrl[..GROUP_SLOTS] {
            return Err("ctrl mirror group does not match the first group".into());
        }
        let mut full = 0usize;
        for i in 0..capacity {
            if ctrl[i] > CTRL_EMPTY {
                // The group scan reads every high-bit byte as empty, so a
                // slot tagged this way would hide its split from probes.
                return Err(format!(
                    "slot {i} control byte {:#04x} is neither empty nor a tag",
                    ctrl[i]
                ));
            }
            if ctrl[i] != CTRL_EMPTY {
                full += 1;
                let rank = entries[i].offset as usize;
                if rank >= distinct {
                    return Err(format!(
                        "slot {i} pool rank {rank} out of range ({} distinct)",
                        distinct
                    ));
                }
            }
        }
        if full != distinct {
            return Err(format!(
                "{full} occupied slots disagree with {} distinct splits",
                distinct
            ));
        }
        Ok(())
    }

    /// Number of taxa in the namespace.
    #[inline]
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of reference trees folded in (`r`).
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Total split occurrences (`sumBFHR`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of distinct splits stored.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Slot count of the bucket array.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Heap bytes of the frozen layout: the control lane (including its
    /// wrap-mirror group), the 16-byte entry lane, and the packed mask
    /// pool. Pinned against the real allocation sizes by test, because the
    /// catalog LRU accounts resident collections in exactly these bytes.
    pub fn approx_bytes(&self) -> usize {
        self.lanes.ctrl.len() * std::mem::size_of::<u8>()
            + self.lanes.entries.len() * std::mem::size_of::<Entry>()
            + self.lanes.pool.len() * std::mem::size_of::<u64>()
            + self.delta.as_ref().map_or(0, |d| d.approx_bytes())
    }

    /// FNV-1a fingerprint over every lane in layout order. Two frozen
    /// tables built from the same hash are laid out identically, so equal
    /// digests here mean bitwise-identical tables — the cheap way for the
    /// catalog eviction tests to prove a reopened collection reproduces
    /// the exact pre-eviction state.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(&(self.n_taxa as u64).to_le_bytes());
        mix(&(self.n_trees as u64).to_le_bytes());
        mix(&self.sum.to_le_bytes());
        mix(&(self.distinct as u64).to_le_bytes());
        mix(&(self.mask as u64).to_le_bytes());
        mix(&self.lanes.ctrl[..self.capacity()]);
        for e in self.lanes.entries.iter() {
            mix(&e.key.to_le_bytes());
            mix(&e.freq.to_le_bytes());
            mix(&e.offset.to_le_bytes());
        }
        for &w in self.lanes.pool.iter() {
            mix(&w.to_le_bytes());
        }
        if let Some(delta) = &self.delta {
            for (bits, count) in delta.sorted() {
                for &w in bits.words() {
                    mix(&w.to_le_bytes());
                }
                mix(&count.to_le_bytes());
            }
        }
        h
    }

    /// The frequency the lanes store for `w` (with hash `h`), before any
    /// delta: scan the control lane one 16-slot group at a time from the
    /// hash's home slot, confirm candidates against the entry key (and the
    /// pool for multi-word masks), stop at the first group holding an
    /// empty slot.
    ///
    /// Correctness with unaligned windows: linear-probe insertion leaves
    /// every slot between a key's home and its final slot full, so the
    /// windows `[home + 16k, home + 16k + 16)` meet the key's candidate
    /// bit no later than the first window containing an empty. Candidates
    /// belonging to other chains inside a window are rejected by the key
    /// compare; h2 never equals [`CTRL_EMPTY`], so candidates are always
    /// full slots.
    #[inline]
    fn lanes_frequency(&self, h: u128, w: &[u64]) -> u32 {
        let Lanes {
            distinct,
            ctrl,
            entries,
            pool,
        } = &*self.lanes;
        if *distinct == 0 {
            return 0;
        }
        let h2 = ctrl_h2(h);
        let mut i = hash_bucket(h) as usize & self.mask;
        if self.words == 1 {
            // One-word namespace: the key is the mask, equality is exact.
            let t = w[0];
            loop {
                let g = &ctrl[i..i + GROUP_SLOTS];
                let mut m = match_byte(g, h2);
                while m != 0 {
                    let s = (i + m.trailing_zeros() as usize) & self.mask;
                    let e = &entries[s];
                    if e.key == t {
                        return e.freq;
                    }
                    m &= m - 1;
                }
                if match_empty(g) != 0 {
                    return 0;
                }
                i = (i + GROUP_SLOTS) & self.mask;
            }
        }
        let t = hash_tag(h);
        loop {
            let g = &ctrl[i..i + GROUP_SLOTS];
            let mut m = match_byte(g, h2);
            while m != 0 {
                let s = (i + m.trailing_zeros() as usize) & self.mask;
                let e = &entries[s];
                if e.key == t {
                    let off = e.offset as usize * self.words;
                    if &pool[off..off + self.words] == w {
                        return e.freq;
                    }
                }
                m &= m - 1;
            }
            if match_empty(g) != 0 {
                return 0;
            }
            i = (i + GROUP_SLOTS) & self.mask;
        }
    }

    /// Frequency of the canonical mask `w` whose split hash is already
    /// known (the batched path computes it during extraction).
    #[inline]
    pub fn frequency_hashed(&self, h: u128, w: &[u64]) -> u32 {
        self.patched(self.lanes_frequency(h, w), w)
    }

    /// A stored frequency plus the delta's count for `w`. In range by
    /// construction: [`Self::with_delta`] checked every delta entry.
    #[inline]
    fn patched(&self, stored: u32, w: &[u64]) -> u32 {
        match &self.delta {
            None => stored,
            Some(d) => (i64::from(stored) + d.count(w)) as u32,
        }
    }

    /// Frequency of a canonical mask given as raw words (hash computed
    /// here; prefer the batched path for whole query trees).
    #[inline]
    pub fn frequency_words(&self, w: &[u64]) -> u32 {
        self.frequency_hashed(split_hash128(w), w)
    }

    /// The cross-check a table from an unverified source (the mapped
    /// sidecar, whose pool lane is never checksummed) must pass against its
    /// source of truth: probe a run of splits slot by slot with every lane
    /// compared — control tag, entry key **and** pooled mask, even in
    /// one-word namespaces where the key alone decides a normal probe — and
    /// return the position of the first that does not probe to its count.
    /// `masks` holds the splits packed at stride [`Self::words`], `freqs`
    /// the count each must probe to; the loop prefetches
    /// [`PREFETCH_AHEAD`] splits ahead as [`Self::frequency_sum_batch`]
    /// does. A table that answers every one of its `distinct` splits this
    /// way holds exactly those splits in every lane a fold or
    /// [`Self::iter`] reads.
    pub fn first_inexact(&self, masks: &[u64], freqs: &[u32]) -> Option<usize> {
        let words = self.words;
        assert_eq!(masks.len(), freqs.len() * words, "one mask per count");
        if words == 0 {
            // A zero-width namespace holds no splits.
            return freqs.iter().position(|&f| f != 0);
        }
        let hashes: Vec<u128> = masks.chunks_exact(words).map(split_hash128).collect();
        for &h in hashes.iter().take(PREFETCH_AHEAD) {
            self.prefetch_bucket(h);
        }
        for (i, (&h, &freq)) in hashes.iter().zip(freqs).enumerate() {
            if let Some(&ahead) = hashes.get(i + PREFETCH_AHEAD) {
                self.prefetch_bucket(ahead);
            }
            if self.exact_hashed(h, &masks[i * words..(i + 1) * words]) != freq {
                return Some(i);
            }
        }
        None
    }

    /// The frequency every lane agrees `w` (with hash `h`) has: see
    /// [`Self::first_inexact`].
    fn exact_hashed(&self, h: u128, w: &[u64]) -> u32 {
        let Lanes {
            distinct,
            ctrl,
            entries,
            pool,
        } = &*self.lanes;
        if *distinct == 0 {
            return 0;
        }
        let h2 = ctrl_h2(h);
        let key = if self.words == 1 { w[0] } else { hash_tag(h) };
        let mut i = hash_bucket(h) as usize & self.mask;
        // Linear-probe insertion leaves every slot between a key's home and
        // its own full, so the first empty slot ends the search.
        while ctrl[i] != CTRL_EMPTY {
            let e = &entries[i];
            let off = e.offset as usize * self.words;
            if ctrl[i] == h2 && e.key == key && &pool[off..off + self.words] == w {
                return e.freq;
            }
            i = (i + 1) & self.mask;
        }
        0
    }

    /// Frequency of a canonical split (0 if absent).
    #[inline]
    pub fn frequency(&self, bits: &Bits) -> u32 {
        debug_assert_eq!(bits.len(), self.n_taxa, "namespace width mismatch");
        self.frequency_words(bits.words())
    }

    /// Prefetch the lines a hash's probe will touch first: its control
    /// group and its home entry.
    #[inline(always)]
    fn prefetch_bucket(&self, h: u128) {
        let i = hash_bucket(h) as usize & self.mask;
        prefetch(&raw const self.lanes.ctrl[i]);
        prefetch(&raw const self.lanes.entries[i]);
    }

    /// Σ frequency over a whole extracted batch — the quantity Algorithm 2
    /// needs — in one pipelined pass with software prefetch
    /// [`PREFETCH_AHEAD`] splits ahead.
    pub fn frequency_sum_batch(&self, batch: &SplitBatch<'_>) -> u64 {
        let stored = self.lanes_sum_batch(batch);
        match &self.delta {
            None => stored,
            Some(d) => {
                let patch: i64 = (0..batch.len()).map(|i| d.count(batch.mask(i))).sum();
                (stored as i64 + patch) as u64
            }
        }
    }

    /// Σ stored frequency over the batch, before any delta: the pipelined
    /// probe loop.
    fn lanes_sum_batch(&self, batch: &SplitBatch<'_>) -> u64 {
        if self.lanes.distinct == 0 {
            return 0;
        }
        let n = batch.len();
        let hashes = batch.hashes();
        for &h in hashes.iter().take(PREFETCH_AHEAD.min(n)) {
            self.prefetch_bucket(h);
        }
        let mut total = 0u64;
        for i in 0..n {
            if let Some(&h) = hashes.get(i + PREFETCH_AHEAD) {
                self.prefetch_bucket(h);
            }
            total += u64::from(self.lanes_frequency(hashes[i], batch.mask(i)));
        }
        total
    }

    /// Average RF of one query tree against the frozen hash through a
    /// caller-owned extraction arena — the batched Algorithm 2: one
    /// post-order pass extracts masks + hashes, one pipelined loop probes
    /// them ([`crate::rf::bfhrf_average_scratch`] over this table).
    ///
    /// # Panics
    /// Panics if the frozen hash holds no trees (average undefined).
    pub fn average_scratch(
        &self,
        query: &Tree,
        taxa: &TaxonSet,
        scratch: &mut BipartitionScratch,
    ) -> crate::RfAverage {
        crate::rf::bfhrf_average_scratch(query, taxa, self, scratch)
    }
}

impl Bfh {
    /// Freeze this hash into the probe-optimized read-only layout. See
    /// [`FrozenBfh`].
    pub fn freeze(&self) -> FrozenBfh {
        FrozenBfh::freeze(self)
    }
}

impl crate::SplitFrequency for FrozenBfh {
    fn split_frequency(&self, bits: &Bits) -> u32 {
        self.frequency(bits)
    }

    fn occurrence_sum(&self) -> u64 {
        self.sum
    }

    fn reference_count(&self) -> usize {
        self.n_trees
    }

    fn split_frequency_words(&self, _n_bits: usize, words: &[u64]) -> u32 {
        self.frequency_words(words)
    }

    fn batch_frequency_sum(&self, _n_bits: usize, batch: &SplitBatch<'_>) -> u64 {
        self.frequency_sum_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::TreeCollection;

    fn build(text: &str) -> (TreeCollection, Bfh, FrozenBfh) {
        let coll = TreeCollection::parse(text).unwrap();
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let frozen = bfh.freeze();
        (coll, bfh, frozen)
    }

    #[test]
    fn frozen_answers_equal_live_on_every_stored_split() {
        let (_, bfh, frozen) = build(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n((A,B),((C,D),(E,F)));",
        );
        assert_eq!(frozen.n_trees(), bfh.n_trees());
        assert_eq!(frozen.sum(), bfh.sum());
        assert_eq!(frozen.distinct(), bfh.distinct());
        for (bits, count) in bfh.iter() {
            assert_eq!(frozen.frequency(bits), count, "{bits}");
            assert_eq!(frozen.frequency_words(bits.words()), count);
        }
    }

    #[test]
    fn absent_splits_read_zero() {
        let (coll, _, frozen) = build("((A,B),(C,D));\n((A,B),(C,D));");
        // {A,C} = 0101 is a valid canonical mask the collection never holds
        let absent = Bits::from_indices(coll.taxa.len(), [0, 2]);
        assert_eq!(frozen.frequency(&absent), 0);
    }

    #[test]
    fn empty_hash_freezes_and_reads_zero() {
        let frozen = Bfh::empty(6).freeze();
        assert_eq!(frozen.distinct(), 0);
        assert_eq!(frozen.frequency(&Bits::from_indices(6, [0, 1])), 0);
        assert_eq!(frozen.frequency_sum_batch_smoke(), 0);
    }

    impl FrozenBfh {
        /// Test helper: batch-sum over an empty batch via a trivial tree.
        fn frequency_sum_batch_smoke(&self) -> u64 {
            let mut taxa = phylo::TaxonSet::new();
            let t = phylo::parse_newick("(A,B,C);", &mut taxa, phylo::TaxaPolicy::Grow).unwrap();
            let mut scratch = BipartitionScratch::new();
            let batch = scratch.batch_splits(&t, &taxa);
            self.frequency_sum_batch(&batch)
        }
    }

    #[test]
    fn batched_average_matches_per_split_probes() {
        let (coll, bfh, frozen) =
            build("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        let mut scratch = BipartitionScratch::new();
        for q in &coll.trees {
            let live = crate::bfhrf_average(q, &coll.taxa, &bfh);
            let froz = frozen.average_scratch(q, &coll.taxa, &mut scratch);
            assert_eq!(live, froz);
        }
    }

    #[test]
    fn word_boundary_widths_freeze_and_probe_identically() {
        // n_taxa ∈ {63, 64, 65, 128}: the one-word fast path, its exact
        // upper edge, the first two-word width, and an exact two-word
        // width. Frozen must equal live on every simulated tree.
        for n in [63usize, 64, 65, 128] {
            let spec = phylo_sim::DatasetSpec::new("widths", n, 12, n as u64);
            let coll = phylo_sim::generate(&spec);
            let bfh = Bfh::build(&coll.trees, &coll.taxa);
            let frozen = bfh.freeze();
            let mut scratch = BipartitionScratch::new();
            for (bits, count) in bfh.iter() {
                assert_eq!(frozen.frequency(bits), count, "n={n} {bits}");
            }
            for q in &coll.trees {
                assert_eq!(
                    crate::bfhrf_average(q, &coll.taxa, &bfh),
                    frozen.average_scratch(q, &coll.taxa, &mut scratch),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn delta_overlay_answers_like_a_fresh_freeze() {
        let spec = phylo_sim::DatasetSpec::new("delta", 70, 10, 9);
        let coll = phylo_sim::generate(&spec);
        let mut live = Bfh::build(&coll.trees[..6], &coll.taxa);
        let base = live.freeze();
        let mut scratch = BipartitionScratch::new();
        let mut delta = SplitDelta::new(coll.taxa.len());
        for (tree, sign) in [
            (&coll.trees[7], 1),
            (&coll.trees[8], 1),
            (&coll.trees[2], -1),
        ] {
            delta.record(&scratch.batch_splits(tree, &coll.taxa), sign);
            if sign > 0 {
                live.add_tree(tree, &coll.taxa);
            } else {
                live.remove_tree(tree, &coll.taxa).unwrap();
            }
        }
        let delta = Arc::new(delta);
        let patched = base.with_delta(Arc::clone(&delta));
        let fresh = live.freeze();
        assert!(patched.has_delta());
        assert_eq!(patched.n_trees(), fresh.n_trees());
        assert_eq!(patched.sum(), fresh.sum());
        assert_eq!(patched.distinct(), fresh.distinct());
        for (bits, _) in Bfh::build(&coll.trees, &coll.taxa).iter() {
            assert_eq!(patched.frequency(bits), fresh.frequency(bits), "{bits}");
        }
        for q in &coll.trees {
            assert_eq!(
                patched.average_scratch(q, &coll.taxa, &mut scratch),
                fresh.average_scratch(q, &coll.taxa, &mut scratch)
            );
        }
        // The entries, a fold into fresh lanes, and the borrowed overlay
        // all answer as the fresh freeze does.
        let folded = patched.folded();
        assert!(!folded.has_delta());
        assert_eq!(
            (folded.n_trees(), folded.sum(), folded.distinct()),
            (fresh.n_trees(), fresh.sum(), fresh.distinct())
        );
        assert_eq!(patched.iter().count(), fresh.distinct());
        assert_eq!(folded.iter().count(), fresh.distinct());
        for (w, freq) in patched.iter() {
            assert_eq!(fresh.frequency_words(w), freq);
            assert_eq!(folded.frequency_words(w), freq);
        }
        let overlay = base.overlay(&delta);
        use crate::SplitFrequency;
        assert_eq!(overlay.reference_count(), fresh.n_trees());
        assert_eq!(overlay.occurrence_sum(), fresh.sum());
        for (bits, _) in Bfh::build(&coll.trees, &coll.taxa).iter() {
            assert_eq!(folded.frequency(bits), fresh.frequency(bits), "{bits}");
            assert_eq!(overlay.split_frequency(bits), fresh.frequency(bits));
        }

        // A delta changes the digest; an empty one is the base, bitwise.
        assert_ne!(patched.digest(), base.digest());
        let same = base.with_delta(Arc::new(SplitDelta::new(coll.taxa.len())));
        assert!(!same.has_delta());
        assert_eq!(same.digest(), base.digest());
    }

    #[test]
    fn load_factor_stays_at_most_half() {
        let spec = phylo_sim::DatasetSpec::new("load", 80, 40, 7);
        let coll = phylo_sim::generate(&spec);
        let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
        assert!(frozen.capacity() >= 2 * frozen.distinct());
        assert!(frozen.capacity() >= GROUP_SLOTS);
        assert!(frozen.capacity().is_power_of_two());
        assert!(frozen.approx_bytes() > 0);
    }

    #[test]
    fn approx_bytes_matches_actual_allocation_sizes() {
        // The catalog LRU accounts resident collections in approx_bytes;
        // pin it to the real heap footprint of every lane so the control
        // lane (and its wrap mirror) can never silently fall out of the
        // accounting again.
        for (n, r) in [(6usize, 2usize), (80, 40), (144, 30)] {
            let spec = phylo_sim::DatasetSpec::new("bytes", n, r, 11);
            let coll = phylo_sim::generate(&spec);
            let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
            let actual = std::mem::size_of_val(&*frozen.lanes.ctrl)
                + std::mem::size_of_val(&*frozen.lanes.entries)
                + std::mem::size_of_val(&*frozen.lanes.pool);
            assert_eq!(frozen.approx_bytes(), actual, "n={n} r={r}");
            // Layout invariants the accounting relies on.
            assert_eq!(frozen.lanes.ctrl.len(), frozen.capacity() + GROUP_SLOTS);
            assert_eq!(std::mem::size_of::<Entry>(), 16);
            assert_eq!(frozen.lanes.entries.len(), frozen.capacity());
            assert_eq!(frozen.lanes.pool.len(), frozen.distinct() * frozen.words);
        }
        let empty = Bfh::empty(4).freeze();
        let actual = std::mem::size_of_val(&*empty.lanes.ctrl)
            + std::mem::size_of_val(&*empty.lanes.entries)
            + std::mem::size_of_val(&*empty.lanes.pool);
        assert_eq!(empty.approx_bytes(), actual);
    }

    #[test]
    fn serialized_lanes_reconstruct_bitwise() {
        let spec = phylo_sim::DatasetSpec::new("lanes", 70, 20, 5);
        let coll = phylo_sim::generate(&spec);
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let frozen = bfh.freeze();
        let entry_bytes: Vec<u8> = frozen.entry_records().flatten().collect();
        let twin = FrozenBfh::from_le_parts(
            frozen.layout(),
            frozen.ctrl_lane().to_vec(),
            &entry_bytes,
            frozen.pool_lane().to_vec(),
        )
        .unwrap();
        assert!(!twin.is_mapped());
        assert_eq!(twin.digest(), frozen.digest());
        let mut scratch = BipartitionScratch::new();
        for (bits, count) in bfh.iter() {
            assert_eq!(twin.frequency(bits), count);
        }
        for q in &coll.trees {
            assert_eq!(
                frozen.average_scratch(q, &coll.taxa, &mut scratch),
                twin.average_scratch(q, &coll.taxa, &mut scratch),
            );
        }
    }

    #[test]
    fn exact_probe_compares_the_pool_the_fast_probe_skips() {
        // One-word namespace: the entry key is the mask, so a corrupt pool
        // word never changes a fast probe — only the exact one sees it.
        let spec = phylo_sim::DatasetSpec::new("exact", 20, 15, 8);
        let coll = phylo_sim::generate(&spec);
        let bfh = Bfh::build(&coll.trees, &coll.taxa);
        let frozen = bfh.freeze();
        let (masks, freqs): (Vec<u64>, Vec<u32>) =
            bfh.iter().map(|(bits, c)| (bits.words()[0], c)).unzip();
        assert_eq!(frozen.first_inexact(&masks, &freqs), None);
        let absent = Bits::from_indices(coll.taxa.len(), [0, 19]);
        assert_eq!(frozen.frequency(&absent), 0);
        assert_eq!(frozen.first_inexact(absent.words(), &[0]), None);
        assert_eq!(frozen.first_inexact(absent.words(), &[1]), Some(0));
        let mut pool = frozen.pool_lane().to_vec();
        pool[3] ^= 1 << 4;
        let entry_bytes: Vec<u8> = frozen.entry_records().flatten().collect();
        let bad = FrozenBfh::from_le_parts(
            frozen.layout(),
            frozen.ctrl_lane().to_vec(),
            &entry_bytes,
            pool,
        )
        .unwrap();
        let victim = frozen.pool_lane()[3];
        assert_eq!(
            bad.frequency_words(&[victim]),
            bfh.frequency_words(&[victim])
        );
        let at = masks.iter().position(|&m| m == victim);
        assert!(at.is_some());
        assert_eq!(bad.first_inexact(&masks, &freqs), at);
    }

    #[test]
    fn corrupt_lane_layouts_are_rejected_not_probed() {
        let (_, _, frozen) = build("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));");
        let layout = frozen.layout();
        let ctrl = frozen.ctrl_lane().to_vec();
        let entry_bytes: Vec<u8> = frozen.entry_records().flatten().collect();
        let pool = frozen.pool_lane().to_vec();

        // Truncated ctrl lane.
        let short_ctrl = ctrl[..ctrl.len() - 1].to_vec();
        assert!(FrozenBfh::from_le_parts(layout, short_ctrl, &entry_bytes, pool.clone()).is_err());
        // Truncated entry lane.
        assert!(FrozenBfh::from_le_parts(
            layout,
            ctrl.clone(),
            &entry_bytes[..entry_bytes.len() - 16],
            pool.clone()
        )
        .is_err());
        // Truncated pool: a stored rank now points past the end.
        assert!(FrozenBfh::from_le_parts(
            layout,
            ctrl.clone(),
            &entry_bytes,
            pool[..pool.len() - 1].to_vec()
        )
        .is_err());
        // Out-of-range pool rank in an occupied slot.
        let mut bad_entries = entry_bytes.clone();
        let victim = frozen
            .ctrl_lane()
            .iter()
            .take(frozen.capacity())
            .position(|&c| c != CTRL_EMPTY)
            .expect("occupied slot");
        bad_entries[victim * 16 + 12..victim * 16 + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            FrozenBfh::from_le_parts(layout, ctrl.clone(), &bad_entries, pool.clone()).is_err()
        );
        // Broken mirror group.
        let mut bad_ctrl = ctrl.clone();
        let cap = frozen.capacity();
        bad_ctrl[cap] ^= 0x55;
        assert!(FrozenBfh::from_le_parts(layout, bad_ctrl, &entry_bytes, pool.clone()).is_err());
        // A high-bit control byte other than CTRL_EMPTY on an occupied
        // slot (and its mirror): the group scan would read it as empty and
        // probe the split to 0.
        for byte in [0x81u8, 0xc0, 0xff] {
            let mut bad_ctrl = ctrl.clone();
            bad_ctrl[victim] = byte;
            if victim < GROUP_SLOTS {
                bad_ctrl[cap + victim] = byte;
            }
            let err = FrozenBfh::from_le_parts(layout, bad_ctrl, &entry_bytes, pool.clone());
            assert!(err.unwrap_err().contains("control byte"), "{byte:#x}");
        }
        // Under-provisioned capacity claim.
        let mut bad_layout = layout;
        bad_layout.capacity = GROUP_SLOTS / 2;
        assert!(FrozenBfh::from_le_parts(bad_layout, ctrl, &entry_bytes, pool).is_err());
    }

    #[test]
    fn growing_lanes_are_sized_lanes_in_first_seen_order() {
        // Counting every mask into growing lanes gives, bit for bit, the
        // lanes a pre-sized writer gives the distinct masks in the order
        // they were first seen, and the capacity and bytes of a freeze.
        for n in [20usize, 64, 70, 150] {
            let spec = phylo_sim::DatasetSpec::new("grow", n, 60, n as u64);
            let coll = phylo_sim::generate(&spec);
            let mut scratch = BipartitionScratch::new();
            let mut lanes = LaneWriter::growing(n);
            let mut doublings = Vec::new();
            let mut first_seen: Vec<(Vec<u64>, u32)> = Vec::new();
            let mut rank: std::collections::HashMap<Vec<u64>, usize> = Default::default();
            let mut sum = 0u64;
            for t in &coll.trees {
                let batch = scratch.batch_splits(t, &coll.taxa);
                for i in 0..batch.len() {
                    let w = batch.mask(i);
                    let got = lanes
                        .count(w, &mut |bytes| {
                            doublings.push(bytes);
                            Ok::<(), ()>(())
                        })
                        .unwrap();
                    let r = *rank.entry(w.to_vec()).or_insert_with(|| {
                        first_seen.push((w.to_vec(), 0));
                        first_seen.len() - 1
                    });
                    // The rank is the split's place in first-seen order.
                    assert_eq!(got as usize, r, "n={n}");
                    first_seen[r].1 += 1;
                    sum += 1;
                }
            }
            let grown = lanes.finish(coll.len(), sum);
            let sized = FrozenBfh::lay_out(
                n,
                coll.len(),
                sum,
                first_seen.len(),
                first_seen.iter().map(|(w, f)| (&w[..], *f)),
            );
            assert_eq!(grown.digest(), sized.digest(), "n={n}");
            let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
            assert_eq!(grown.capacity(), frozen.capacity(), "n={n}");
            assert_eq!(grown.approx_bytes(), frozen.approx_bytes(), "n={n}");
            // One doubling per power of two past the first group, each
            // announced with the bytes of the lanes it makes.
            let words = words_for(n);
            let want: Vec<usize> = (1..)
                .map(|k| GROUP_SLOTS << k)
                .take_while(|&c| c <= grown.capacity())
                .map(|c| LaneWriter::bytes_at(words, c))
                .collect();
            assert_eq!(doublings, want, "n={n}");
        }
    }

    #[test]
    fn widened_lanes_are_lanes_counted_at_the_final_width() {
        // Counting masks over a narrow namespace and widening the lanes
        // part way through gives, bit for bit, the lanes counted at the
        // final width from the start, and hands out the same ranks. The
        // widths cross one word (with the one-word key giving way to the
        // hash tag), two words, and a boundary by one taxon.
        for (from, to) in [(20usize, 70usize), (60, 130), (64, 65), (100, 200)] {
            let spec = phylo_sim::DatasetSpec::new("widen", from, 80, to as u64);
            let coll = phylo_sim::generate(&spec);
            let mut scratch = BipartitionScratch::new();
            let mut narrow = LaneWriter::growing(from);
            let mut wide = LaneWriter::growing(to);
            let mut sum = 0u64;
            let ok = &mut |_: usize| Ok::<(), ()>(());
            for (t, tree) in coll.trees.iter().enumerate() {
                if t == 50 {
                    narrow.widen(to);
                }
                let batch = scratch.batch_splits(tree, &coll.taxa);
                for i in 0..batch.len() {
                    let mut w = batch.mask(i).to_vec();
                    let mut extended = w.clone();
                    extended.resize(words_for(to), 0);
                    if t >= 50 {
                        w = extended.clone();
                    }
                    let rank = narrow.count(&w, ok).unwrap();
                    assert_eq!(rank, wide.count(&extended, ok).unwrap());
                    sum += 1;
                }
            }
            let (narrow, wide) = (narrow.finish(coll.len(), sum), wide.finish(coll.len(), sum));
            assert_eq!(narrow.digest(), wide.digest(), "{from} -> {to} taxa");
        }
    }

    #[test]
    fn ctrl_mirror_keeps_wrapping_windows_consistent() {
        let spec = phylo_sim::DatasetSpec::new("mirror", 40, 25, 3);
        let coll = phylo_sim::generate(&spec);
        let frozen = Bfh::build(&coll.trees, &coll.taxa).freeze();
        let cap = frozen.capacity();
        assert_eq!(&frozen.lanes.ctrl[cap..], &frozen.lanes.ctrl[..GROUP_SLOTS]);
    }

    /// Every split `bfh` holds as `(mask words, frequency)`, in ascending
    /// mask order: a snapshot's splits section.
    fn ascending(bfh: &Bfh) -> Vec<(Vec<u64>, u32)> {
        let mut records: Vec<_> = bfh.iter().map(|(b, f)| (b.words().to_vec(), f)).collect();
        records.sort();
        records
    }

    /// Lay `records` out through [`FrozenBfh::from_ascending`].
    fn from_records(
        n_taxa: usize,
        n_trees: usize,
        distinct: usize,
        records: &[(Vec<u64>, u32)],
    ) -> Result<FrozenBfh, CoreError> {
        FrozenBfh::from_ascending(n_taxa, n_trees, distinct, |place| {
            records.iter().try_for_each(|(w, f)| place(w, *f))
        })
    }

    #[test]
    fn ascending_records_answer_like_a_freeze_at_word_boundaries() {
        for n in [63usize, 64, 65, 128, 129] {
            let spec = phylo_sim::DatasetSpec::new("ascending", n, 12, n as u64);
            let coll = phylo_sim::generate(&spec);
            let bfh = Bfh::build(&coll.trees, &coll.taxa);
            let frozen = bfh.freeze();
            let records = ascending(&bfh);
            let table = from_records(n, bfh.n_trees(), records.len(), &records).unwrap();
            table.validate_layout().unwrap();
            assert_eq!(
                (table.n_trees(), table.sum(), table.distinct()),
                (frozen.n_trees(), frozen.sum(), frozen.distinct()),
                "n={n}"
            );
            assert_eq!(table.capacity(), frozen.capacity(), "n={n}");
            assert_eq!(table.approx_bytes(), frozen.approx_bytes(), "n={n}");
            assert_eq!(
                table.approx_bytes(),
                FrozenBfh::sized_bytes(n, records.len())
            );
            for (bits, count) in bfh.iter() {
                assert_eq!(table.frequency(bits), count, "n={n} {bits}");
            }
            assert_eq!(table.frequency(&Bits::from_indices(n, [0, 2, 5])), 0);
            let mut scratch = BipartitionScratch::new();
            for q in &coll.trees {
                assert_eq!(
                    table.average_scratch(q, &coll.taxa, &mut scratch),
                    frozen.average_scratch(q, &coll.taxa, &mut scratch),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn ascending_constructor_refuses_what_is_not_a_snapshot() {
        let coll = TreeCollection::parse("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));").unwrap();
        let records = ascending(&Bfh::build(&coll.trees, &coll.taxa));
        let d = records.len();
        assert!(from_records(6, 2, d, &records).is_ok());
        let refused = |records: &[(Vec<u64>, u32)], distinct: usize| match from_records(
            6, 2, distinct, records,
        ) {
            Err(CoreError::Structure(msg)) => msg,
            other => panic!("expected a structure error, got {other:?}"),
        };
        let mut duplicated = records.clone();
        duplicated.insert(1, records[0].clone());
        assert!(refused(&duplicated, d + 1).contains("not strictly above"));
        let mut descending = records.clone();
        descending.reverse();
        assert!(refused(&descending, d).contains("not strictly above"));
        assert!(refused(&records[..d - 1], d).contains("declared"));
        assert!(refused(&records, d - 1).contains("past the"));
        let mask = records[0].0.clone();
        for freq in [0, 3] {
            assert!(refused(&[(mask.clone(), freq)], 1).contains("frequency"));
        }
        assert!(refused(&[(vec![0b11, 0], 1)], 1).contains("mask"));
        assert!(refused(&[(vec![1 << 6], 1)], 1).contains("mask"));
    }
}
