//! [`BfhBuilder`] — one front door for building the frozen frequency
//! table.
//!
//! Pick the knobs (a parallel fold, a [`RunGuard`]), then call one of the
//! terminals, and get a `Result` instead of a panic on bad input.
//!
//! ```
//! use bfhrf::BfhBuilder;
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse(
//!     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let table = BfhBuilder::new()
//!     .parallel(true)
//!     .freeze_trees(&refs.trees, &refs.taxa)
//!     .unwrap();
//! assert_eq!(table.n_trees(), 3);
//! assert_eq!(table.distinct(), 2);
//! ```
//!
//! # One pipeline
//!
//! Every terminal runs the same pipeline over its source, a slice or a
//! [`SplitReader`]. The calling thread pulls one tree at a time and
//! appends its postorder shape to a chunk buffer: a slice's trees are
//! walked, and a reader lexes each record straight into its shape, so a
//! streamed build never builds a tree. That thread does only what depends
//! on the order of the records or may refuse one: the record cut, the
//! grammar walk and its refusals, label interning in first-seen order and
//! a lenient rollback. Each full buffer ([`CHUNK`] trees) is folded, in
//! tree order, into the lanes of one [`FrozenBfh`], which double as they
//! fill: the fold canonicalises each tree's shape into its split masks and
//! counts them. A parallel build folds on a rayon worker while the calling
//! thread fills the other buffer, so the one canonicalisation runs beside
//! the lexing. No hash map is built: every terminal returns that table.
//!
//! The namespace may grow while the stream is read. A canonical mask is
//! oriented on its own tree's leafset, so a mask written over a wider
//! namespace is the narrower mask with zero words appended. The fold
//! writes a chunk's masks at the namespace's width after the chunk's last
//! tree, and when that width crossed a 64-bit word boundary the lanes are
//! re-laid at the new stride before the fold. The lanes hold the masks in
//! the order they were first seen and every re-lay places them in that
//! order, so the table is identical, bit for bit and in layout, for any
//! thread count or build mode, and to a build over the whole collection
//! parsed up front.
//!
//! [`BfhBuilder::freeze_stream_kept`] also keeps [`KeptSplits`]: each
//! reference tree's splits as the 4-byte pool ranks the fold gave them, so
//! a caller scoring the references against themselves (Q = R) reads their
//! frequencies without parsing, extracting or probing any tree twice.

use crate::error::CoreError;
use crate::frozen::{FrozenBfh, LaneWriter, LanesId};
use crate::guard::{isolate, CancelToken, RunBudget, RunGuard};
use crate::rf::{score_chunk, QueryScore, SplitFrequency, SplitRun};
use phylo::{BipartitionScratch, PhyloError, Shapes, SplitReader, TaxonSet, Tree};
use phylo_bitset::words_for;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trees a build folds, and a streamed query pass holds read, at once.
/// Large enough that each fold outlasts a rayon hand-off and each query
/// chunk splits evenly across workers, small enough that a chunk buffer
/// of shapes is under a megabyte at insect scale (n = 144).
pub const CHUNK: usize = 256;

/// Configurable frozen-table construction. See the module docs for an
/// example.
#[derive(Debug, Clone, Default)]
pub struct BfhBuilder {
    parallel: bool,
    guard: RunGuard,
    fold_clock: Option<Arc<AtomicU64>>,
}

impl BfhBuilder {
    /// A builder with the defaults: a sequential fold, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold each chunk on a rayon worker while the next one is read.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Run the build under `budget`: both chunk buffers, the kept ranks and
    /// the lanes are checked before each chunk is read, the same with the
    /// grown lanes before each time the table doubles or widens, the same
    /// with a grown buffer before a buffer takes a tree its room does not
    /// fit, and the deadline is polled at tree granularity. A sequential
    /// build is checked exactly like a parallel one.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.guard.budget = budget;
        self
    }

    /// Make the build cancellable through `token` — any clone of it can
    /// stop the build from another thread, yielding
    /// [`CoreError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.guard.cancel = token;
        self
    }

    /// Run the build under a fully custom [`RunGuard`] (budget + token +
    /// shared degradation log).
    pub fn guard(mut self, guard: RunGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Add the nanoseconds the fold spends canonicalising and counting each
    /// chunk to `ns`. In a parallel build that is the rayon worker's busy
    /// time, beside the calling thread's reading.
    pub fn fold_clock(mut self, ns: Arc<AtomicU64>) -> Self {
        self.fold_clock = Some(ns);
        self
    }

    /// Build the frozen table from an in-memory collection encoded over
    /// `taxa`, a chunk at a time like every other terminal.
    pub fn freeze_trees(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<FrozenBfh, CoreError> {
        let start = Instant::now();
        let clock = self.fold_clock.as_deref();
        let table = freeze_slice(self.parallel, &self.guard, clock, trees, taxa)?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok(table)
    }

    /// Build the frozen table from a stream of trees read as shapes,
    /// resolving labels against (and under a growing policy, into)
    /// `taxa`. A read failure surfaces as [`CoreError::Phylo`]. No tree is
    /// built and no hash map is made: each record's shape goes straight
    /// into a chunk buffer, and the fold makes its masks.
    pub fn freeze_stream<S>(
        &self,
        taxa: &mut TaxonSet,
        reader: &mut S,
    ) -> Result<FrozenBfh, CoreError>
    where
        S: SplitReader + ?Sized,
    {
        let start = Instant::now();
        let (table, _) = build(
            self.parallel,
            false,
            &self.guard,
            self.fold_clock.as_deref(),
            &mut Read { taxa, reader },
        )?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok(table)
    }

    /// [`BfhBuilder::freeze_stream`], also keeping every tree's splits in
    /// stream order, as the pool ranks the table gave them, for scoring the
    /// references against themselves with [`KeptSplits::score`]. A split
    /// costs 4 bytes kept instead of its mask.
    pub fn freeze_stream_kept<S>(
        &self,
        taxa: &mut TaxonSet,
        reader: &mut S,
    ) -> Result<(FrozenBfh, KeptSplits), CoreError>
    where
        S: SplitReader + ?Sized,
    {
        let start = Instant::now();
        let (table, kept) = build(
            self.parallel,
            true,
            &self.guard,
            self.fold_clock.as_deref(),
            &mut Read { taxa, reader },
        )?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok((table, kept.expect("kept splits were requested")))
    }
}

/// The pipeline over borrowed trees, after their taxa are checked against
/// `taxa`; the fold's time is added to `clock` when given.
pub(crate) fn freeze_slice(
    parallel: bool,
    guard: &RunGuard,
    clock: Option<&AtomicU64>,
    trees: &[Tree],
    taxa: &TaxonSet,
) -> Result<FrozenBfh, CoreError> {
    validate(trees, taxa)?;
    let mut src = Borrowed {
        trees: trees.iter(),
        taxa,
    };
    build(parallel, false, guard, clock, &mut src).map(|(table, _)| table)
}

/// Surface out-of-namespace leaves as a typed error instead of the
/// extraction assert.
fn validate(trees: &[Tree], taxa: &TaxonSet) -> Result<(), CoreError> {
    for (ti, tree) in trees.iter().enumerate() {
        for leaf in tree.leaves() {
            if let Some(t) = tree.taxon(leaf) {
                if t.index() >= taxa.len() {
                    return Err(CoreError::TaxaMismatch(format!(
                        "tree {ti} references taxon id {} but the namespace has {} taxa",
                        t.index(),
                        taxa.len()
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Where a build's trees come from, one at a time, as shapes.
trait SplitSource {
    /// Append the next tree's shape to `shapes`; `false` once the source
    /// is exhausted.
    fn pull(
        &mut self,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, CoreError>;

    /// The namespace's width now.
    fn n_taxa(&self) -> usize;

    /// How many trees are left to pull, when the source knows.
    fn remaining(&self) -> Option<usize> {
        None
    }
}

/// A reader that resolves labels against, and may grow, `taxa`.
struct Read<'t, 'r, S: ?Sized> {
    taxa: &'t mut TaxonSet,
    reader: &'r mut S,
}

impl<S: SplitReader + ?Sized> SplitSource for Read<'_, '_, S> {
    fn pull(
        &mut self,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, CoreError> {
        Ok(self.reader.next_shape(self.taxa, scratch, shapes)?)
    }

    fn n_taxa(&self) -> usize {
        self.taxa.len()
    }
}

/// An in-memory collection over a fixed namespace.
struct Borrowed<'a> {
    trees: std::slice::Iter<'a, Tree>,
    taxa: &'a TaxonSet,
}

impl SplitSource for Borrowed<'_> {
    fn pull(
        &mut self,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, CoreError> {
        let Some(tree) = self.trees.next() else {
            return Ok(false);
        };
        scratch.shape_tree(tree, shapes);
        Ok(true)
    }

    fn n_taxa(&self) -> usize {
        self.taxa.len()
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.trees.len())
    }
}

/// A chunk buffer: up to [`CHUNK`] trees' postorder shapes in tree order,
/// with no mask made yet. A build fills two of them by turns and its fold
/// canonicalises each; queries read to their shapes are scored from one
/// ([`crate::BfhrfComparator::average_chunk_guarded`]), each tree
/// canonicalised where it is scored.
#[derive(Debug, Default)]
pub struct SplitChunk {
    /// Global index of the chunk's first tree.
    first: usize,
    /// Trees the buffer makes room for: [`CHUNK`], or fewer when the
    /// source knows it has fewer left.
    room: usize,
    /// Nodes the buffer makes room for, as checked against the budget.
    nodes: usize,
    /// The namespace's width after the chunk's last tree.
    n_taxa: usize,
    /// The trees' shapes.
    shapes: Shapes,
}

/// Nodes of a tree over `n_taxa` taxa with no unary node and no repeated
/// taxon, at most.
fn tree_nodes(n_taxa: usize) -> usize {
    (2 * n_taxa).saturating_sub(1)
}

impl SplitChunk {
    /// An empty chunk over a namespace of `n_taxa`, which reserves nothing
    /// up front.
    pub fn new(n_taxa: usize) -> SplitChunk {
        SplitChunk {
            n_taxa,
            ..SplitChunk::default()
        }
    }

    /// Append the shape of the one Newick tree in `input`, resolving its
    /// labels against `taxa`, the namespace the chunk is over, as
    /// [`phylo::parse_newick_readonly`] does; no tree is built. A refused
    /// tree appends nothing.
    pub fn push_newick(
        &mut self,
        input: &str,
        taxa: &TaxonSet,
        scratch: &mut BipartitionScratch,
    ) -> Result<(), PhyloError> {
        debug_assert_eq!(self.n_taxa, taxa.len());
        scratch.shape_newick(input, taxa, &mut self.shapes)
    }

    /// Heap bytes of a buffer with room for `trees` trees of `2n − 1`
    /// nodes over `n_taxa` taxa.
    fn bound(n_taxa: usize, trees: usize) -> usize {
        SplitChunk::bytes_at(trees, trees * tree_nodes(n_taxa))
    }

    /// Heap bytes of a buffer with room for `trees` trees of `nodes` nodes
    /// in all.
    fn bytes_at(trees: usize, nodes: usize) -> usize {
        nodes * Shapes::NODE_BYTES + trees * Shapes::TREE_BYTES
    }

    /// Heap bytes of the buffer's room.
    fn bytes(&self) -> usize {
        SplitChunk::bytes_at(self.room, self.nodes)
    }

    /// Empty the buffer for the chunk whose first tree is `first`, with
    /// room for exactly `room` trees of `2n − 1` nodes over a namespace of
    /// `n_taxa`.
    pub(crate) fn reset(&mut self, first: usize, room: usize, n_taxa: usize) {
        self.first = first;
        self.room = room;
        self.nodes = room * tree_nodes(n_taxa);
        self.n_taxa = n_taxa;
        self.shapes.clear_to(room, self.nodes);
    }

    /// Append the one tree in `stage`, read while the namespace grew to
    /// `n_taxa`, if it fits the buffer's room; `false` if it does not.
    fn take(&mut self, stage: &Shapes, n_taxa: usize) -> bool {
        if self.shapes.nodes() + stage.nodes() > self.nodes {
            return false;
        }
        self.shapes.append(stage);
        self.n_taxa = n_taxa;
        true
    }

    /// The node room that takes `stage` and then the rest of the buffer's
    /// trees at `2n − 1` nodes each over `n_taxa` taxa.
    fn room_for(&self, stage: &Shapes, n_taxa: usize) -> usize {
        let left = self.room.saturating_sub(self.len() + 1);
        let need = self.shapes.nodes() + stage.nodes() + left * tree_nodes(n_taxa);
        need.max(self.room * tree_nodes(n_taxa))
    }

    /// Make the buffer's room `nodes` nodes.
    fn grow(&mut self, nodes: usize) {
        self.shapes.reserve_nodes(nodes - self.shapes.nodes());
        self.nodes = nodes;
    }

    /// Drop the chunk's trees, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.shapes.clear();
    }

    /// Read `reader`'s next tree into the chunk, growing it as needed;
    /// `false` once the reader is exhausted.
    pub(crate) fn read<S: SplitReader + ?Sized>(
        &mut self,
        taxa: &mut TaxonSet,
        reader: &mut S,
        scratch: &mut BipartitionScratch,
    ) -> Result<bool, CoreError> {
        let more = reader.next_shape(taxa, scratch, &mut self.shapes)?;
        self.n_taxa = taxa.len();
        Ok(more)
    }

    /// Trees in the chunk.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the chunk holds no tree.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The namespace's width after the chunk's last tree.
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// The trees' shapes.
    pub(crate) fn shapes(&self) -> &Shapes {
        &self.shapes
    }
}

/// The one build pipeline: pull trees from `src` into one chunk buffer
/// while the other is folded into growing lanes, on a rayon worker when
/// `parallel` (and there is more than one), else alternately on this
/// thread. Folds run in tree order. With `keep`, each tree's pool ranks
/// come back as [`KeptSplits`]; the fold's time is added to `clock` when
/// given.
fn build(
    parallel: bool,
    keep: bool,
    guard: &RunGuard,
    clock: Option<&AtomicU64>,
    src: &mut impl SplitSource,
) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError> {
    let overlap = parallel && rayon::current_num_threads() > 1;
    let mut fold = Fold {
        guard,
        lanes: LaneWriter::growing(src.n_taxa()),
        n_trees: 0,
        sum: 0,
        kept: keep.then(Vec::new),
        scratch: BipartitionScratch::new(),
        masks: Vec::new(),
        clock,
    };
    let mut reader = Reader {
        guard,
        scratch: BipartitionScratch::new(),
        stage: Shapes::new(),
    };
    let (mut full, mut next) = (SplitChunk::default(), SplitChunk::default());
    let first_room = room(src);
    let n_taxa = src.n_taxa();
    fold.check(
        SplitChunk::bound(n_taxa, first_room),
        &SplitChunk::default(),
        n_taxa,
    )?;
    full.reset(0, first_room, n_taxa);
    let filled = reader.fill(&mut full, src)?;
    let mut more = reader.finish(&fold, &mut full, 0, filled, src)?;
    loop {
        let next_room = if more { room(src) } else { 0 };
        let n_taxa = full.n_taxa;
        let buffers = full.bytes() + SplitChunk::bound(n_taxa, next_room);
        fold.check(buffers, &full, n_taxa)?;
        fold.lanes.widen(n_taxa);
        if !more {
            fold.fold(&full, buffers)?;
            break;
        }
        next.reset(full.first + full.len(), next_room, n_taxa);
        let filled = if overlap {
            let mut folded = Ok(());
            let filled = rayon::in_place_scope(|s| {
                s.spawn(|_| folded = fold.fold(&full, buffers));
                reader.fill(&mut next, src)
            });
            folded?;
            filled?
        } else {
            fold.fold(&full, buffers)?;
            reader.fill(&mut next, src)?
        };
        more = reader.finish(&fold, &mut next, full.bytes(), filled, src)?;
        std::mem::swap(&mut full, &mut next);
    }
    drop((full, next, reader));
    fold.finish(src.n_taxa())
}

/// The room the next chunk buffer makes: [`CHUNK`] trees, or what is left
/// of a source that knows.
fn room(src: &impl SplitSource) -> usize {
    src.remaining().map_or(CHUNK, |left| left.min(CHUNK))
}

/// Why [`Reader::fill`] stopped.
enum Filled {
    /// The buffer holds [`CHUNK`] trees.
    Full,
    /// The source is exhausted.
    Done,
    /// The tree read last does not fit the buffer's room; it waits in the
    /// stage.
    Cramped,
}

/// The calling thread's side of a build: it reads each tree's shape into
/// a one-tree stage, and moves it into a chunk buffer.
struct Reader<'g> {
    guard: &'g RunGuard,
    scratch: BipartitionScratch,
    /// The tree read last, until a buffer takes it.
    stage: Shapes,
}

impl Reader<'_> {
    /// Pull trees into `piece` until it holds [`CHUNK`] of them, the source
    /// is exhausted, or a tree does not fit the room. The guard is polled
    /// per tree.
    fn fill(
        &mut self,
        piece: &mut SplitChunk,
        src: &mut impl SplitSource,
    ) -> Result<Filled, CoreError> {
        while piece.len() < CHUNK {
            if self.stage.is_empty() {
                let guard = self.guard;
                guard.checkpoint("BFH build")?;
                let index = piece.first + piece.len();
                let (scratch, stage) = (&mut self.scratch, &mut self.stage);
                let pulled = isolate("BFH read", || {
                    let pulled = src.pull(scratch, stage)?;
                    if pulled {
                        guard.panic_if_injected(index);
                    }
                    Ok(pulled)
                })?;
                if !pulled {
                    return Ok(Filled::Done);
                }
            }
            if !piece.take(&self.stage, src.n_taxa()) {
                return Ok(Filled::Cramped);
            }
            self.stage.clear();
        }
        Ok(Filled::Full)
    }

    /// Carry a fill that stopped cramped on to its end: check the budget
    /// with `piece` grown to take the staged tree beside `other` bytes of
    /// the other buffer, then grow it and fill on. No fold is running.
    /// `false` once the source is exhausted.
    fn finish(
        &mut self,
        fold: &Fold<'_>,
        piece: &mut SplitChunk,
        other: usize,
        mut filled: Filled,
        src: &mut impl SplitSource,
    ) -> Result<bool, CoreError> {
        loop {
            match filled {
                Filled::Full => return Ok(true),
                Filled::Done => return Ok(false),
                Filled::Cramped => {
                    let n_taxa = src.n_taxa();
                    let nodes = piece.room_for(&self.stage, n_taxa);
                    let grown = SplitChunk::bytes_at(piece.room, nodes);
                    fold.check(other + grown, &SplitChunk::default(), n_taxa)?;
                    piece.grow(nodes);
                    filled = self.fill(piece, src)?;
                }
            }
        }
    }
}

/// The fold side of a build: the growing lanes, the kept ranks, and the
/// arena each tree's shape is canonicalised in.
struct Fold<'g> {
    guard: &'g RunGuard,
    lanes: LaneWriter,
    n_trees: usize,
    sum: u64,
    kept: Option<Vec<KeptChunk>>,
    scratch: BipartitionScratch,
    /// One tree's masks.
    masks: Vec<u64>,
    /// Where the fold's time is added up, when timed.
    clock: Option<&'g AtomicU64>,
}

impl Fold<'_> {
    /// Bytes the build holds besides the lanes while `pending` is folded:
    /// `buffers` for both chunk buffers, and the kept ranks with room for
    /// `pending`'s, one per internal node at most.
    fn held(&self, buffers: usize, pending: &SplitChunk) -> usize {
        let ranks = self.kept.as_ref().map_or(0, |kept| {
            let have: usize = kept.iter().map(KeptChunk::bytes).sum();
            have + (pending.shapes.inner() + pending.len()) * 4
        });
        buffers + ranks
    }

    /// Refuse to fold `pending` and read the next chunk if `buffers`, the
    /// ranks and the lanes, widened to `n_taxa`, overflow the budget.
    fn check(&self, buffers: usize, pending: &SplitChunk, n_taxa: usize) -> Result<(), CoreError> {
        let need = self.held(buffers, pending) + self.lanes.bytes_over(n_taxa);
        self.guard.check_alloc("BFH build chunk buffers", need)
    }

    /// Canonicalise `piece`'s shapes at its width and count their masks, in
    /// tree order, into the lanes, keeping their ranks when asked; each
    /// doubling is checked with `buffers` held beside the lanes. The lanes
    /// must be as wide as the piece.
    fn fold(&mut self, piece: &SplitChunk, buffers: usize) -> Result<(), CoreError> {
        let start = self.clock.map(|_| Instant::now());
        let held = self.held(buffers, piece);
        let n_bits = piece.n_taxa;
        let words = words_for(n_bits);
        debug_assert!(piece.is_empty() || words == self.lanes.words());
        let keep = self.kept.is_some();
        let mut ranks = Vec::with_capacity(if keep { piece.shapes.inner() } else { 0 });
        let mut ends = Vec::with_capacity(if keep { piece.len() } else { 0 });
        let mut sum = 0usize;
        let Fold {
            guard,
            lanes,
            scratch,
            masks,
            ..
        } = self;
        isolate("BFH fold", || {
            guard.checkpoint("BFH fold")?;
            let mut grow = |bytes: usize| guard.check_alloc("BFH build table", held + bytes);
            for i in 0..piece.len() {
                masks.clear();
                sum += scratch.shape_splits(&piece.shapes, i, n_bits, masks);
                for w in masks.chunks_exact(words.max(1)) {
                    let rank = lanes.count(w, &mut grow)?;
                    if keep {
                        ranks.push(rank);
                    }
                }
                if keep {
                    ends.push(sum as u32);
                }
            }
            Ok(())
        })?;
        if let Some(kept) = &mut self.kept {
            ranks.shrink_to_fit();
            kept.push(KeptChunk {
                first: piece.first,
                ranks,
                ends,
            });
        }
        self.n_trees += piece.len();
        self.sum += sum as u64;
        if let (Some(clock), Some(start)) = (self.clock, start) {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            clock.fetch_add(ns, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The finished table over `n_taxa` taxa, and the kept ranks naming it.
    /// The lanes are widened to `n_taxa` first: a source may grow the
    /// namespace after its last tree.
    fn finish(mut self, n_taxa: usize) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError> {
        let need = self.held(0, &SplitChunk::default()) + self.lanes.bytes_over(n_taxa);
        self.guard.check_alloc("BFH build table", need)?;
        self.lanes.widen(n_taxa);
        let table = self.lanes.finish(self.n_trees, self.sum);
        let kept = self.kept.map(|chunks| KeptSplits {
            n_trees: self.n_trees,
            chunks,
            lanes: table.lanes_id(),
        });
        Ok((table, kept))
    }
}

/// One folded chunk's kept splits: each tree's pool ranks.
#[derive(Debug)]
struct KeptChunk {
    /// Global index of the chunk's first tree.
    first: usize,
    /// Every split's pool rank, in tree order.
    ranks: Vec<u32>,
    /// Per tree, the chunk's split count up to and including it.
    ends: Vec<u32>,
}

impl KeptChunk {
    fn bytes(&self) -> usize {
        (self.ranks.capacity() + self.ends.capacity()) * 4
    }
}

/// A kept chunk as a run of trees to score: each tree's frequency sum is
/// its ranks' entries in the table's rank-ordered frequency lane.
struct RankRun<'a> {
    chunk: &'a KeptChunk,
    freqs: &'a [u32],
}

impl SplitRun for RankRun<'_> {
    type Arena = ();

    fn first(&self) -> usize {
        self.chunk.first
    }

    fn len(&self) -> usize {
        self.chunk.ends.len()
    }

    fn tally<H: SplitFrequency + ?Sized>(
        &self,
        i: usize,
        _table: &H,
        _n_bits: usize,
        _arena: &mut (),
    ) -> (u64, usize) {
        let ends = &self.chunk.ends;
        let from = if i == 0 { 0 } else { ends[i - 1] as usize };
        let ranks = &self.chunk.ranks[from..ends[i] as usize];
        let sum = ranks
            .iter()
            .map(|&r| u64::from(self.freqs[r as usize]))
            .sum();
        (sum, ranks.len())
    }
}

/// Every reference tree's splits, kept from a streamed build by
/// [`BfhBuilder::freeze_stream_kept`] as the pool ranks of the table it
/// returned: the trees' own answers to "which splits do I have?", without
/// the trees or their masks.
#[derive(Debug)]
pub struct KeptSplits {
    n_trees: usize,
    chunks: Vec<KeptChunk>,
    /// The lanes the ranks index.
    lanes: LanesId,
}

impl KeptSplits {
    /// Number of trees whose splits are kept.
    pub fn len(&self) -> usize {
        self.n_trees
    }

    /// Whether no tree was kept.
    pub fn is_empty(&self) -> bool {
        self.n_trees == 0
    }

    /// Heap bytes held by the kept ranks and split counts.
    pub fn approx_bytes(&self) -> usize {
        self.chunks.iter().map(KeptChunk::bytes).sum()
    }

    /// Average RF of every kept tree against `table`, in stream order:
    /// the Q = R scores, bitwise-identical to scoring the parsed trees.
    /// The table's frequencies are read once into a rank-ordered lane, and
    /// each tree's frequency sum is its ranks' entries there, through the
    /// scorer parsed queries take ([`crate::rf`]'s `score_chunk`), one kept
    /// chunk per rayon task when `parallel`; the guard is polled per tree.
    ///
    /// The ranks name the lanes they were folded into, so any other table,
    /// or that table with a delta, is refused with
    /// [`CoreError::Structure`].
    pub fn score(
        &self,
        table: &FrozenBfh,
        parallel: bool,
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if !table.has_lanes(&self.lanes) || table.has_delta() {
            return Err(CoreError::Structure(
                "kept splits score only against the table they were folded into".into(),
            ));
        }
        if table.reference_count() == 0 {
            return Err(CoreError::EmptyReference);
        }
        let freqs = table.rank_frequencies();
        let runs: Vec<RankRun<'_>> = self
            .chunks
            .iter()
            .map(|chunk| RankRun {
                chunk,
                freqs: &freqs,
            })
            .collect();
        let mut out = Vec::with_capacity(self.n_trees);
        score_chunk(
            table,
            table.n_taxa(),
            &runs,
            parallel,
            guard,
            &mut (),
            &mut out,
        )?;
        Ok(out)
    }
}

/// Publish one finished build's throughput into the global registry:
/// duration histogram, tree/split totals and last-build rate gauges.
fn record_build_metrics(n_trees: usize, sum: u64, elapsed: std::time::Duration) {
    let reg = phylo_obs::global();
    reg.histogram("build_ns", &[]).record_duration(elapsed);
    reg.counter("build_trees_total", &[]).add(n_trees as u64);
    reg.counter("build_splits_total", &[]).add(sum);
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        reg.gauge("build_trees_per_s", &[])
            .set((n_trees as f64 / secs) as i64);
        reg.gauge("build_splits_per_s", &[])
            .set((sum as f64 / secs) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::{IngestPolicy, NewickReader, TaxaPolicy, TreeCollection};

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
    }

    /// A strict reader over `text`.
    fn reader(text: &str, policy: TaxaPolicy) -> NewickReader<&[u8]> {
        NewickReader::new(text.as_bytes(), policy, IngestPolicy::Strict)
    }

    /// A reader that interns `late` more labels once its records run out.
    struct Late<R> {
        inner: R,
        late: usize,
    }

    impl<R: SplitReader> SplitReader for Late<R> {
        fn next_shape(
            &mut self,
            taxa: &mut TaxonSet,
            scratch: &mut BipartitionScratch,
            shapes: &mut Shapes,
        ) -> Result<bool, PhyloError> {
            let read = self.inner.next_shape(taxa, scratch, shapes)?;
            if !read {
                for i in 0..self.late {
                    taxa.intern(&format!("late{i}"));
                }
            }
            Ok(read)
        }
    }

    #[test]
    fn builder_strategies_agree() {
        let c = coll(&"((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(20));
        let live = crate::Bfh::build(&c.trees, &c.taxa);
        let base = BfhBuilder::new().freeze_trees(&c.trees, &c.taxa).unwrap();
        let parallel = BfhBuilder::new()
            .parallel(true)
            .freeze_trees(&c.trees, &c.taxa)
            .unwrap();
        assert_eq!(parallel.digest(), base.digest());
        assert_eq!(
            (base.n_trees(), base.sum(), base.distinct()),
            (live.n_trees(), live.sum(), live.distinct())
        );
        for (bits, count) in live.iter() {
            assert_eq!(base.frequency(bits), count);
        }
    }

    #[test]
    fn out_of_namespace_taxa_is_a_typed_error() {
        let c = coll("((A,B),(C,D));");
        let narrow = TaxonSet::new(); // empty namespace: every leaf is out of range
        let err = BfhBuilder::new()
            .freeze_trees(&c.trees, &narrow)
            .unwrap_err();
        assert!(matches!(err, CoreError::TaxaMismatch(_)));
    }

    #[test]
    fn freeze_stream_grows_and_requires() {
        let text = "((A,B),(C,D));\n((A,C),(B,D));\n";
        let stream = |policy| {
            let mut taxa = TaxonSet::new();
            let table = BfhBuilder::new()
                .parallel(true)
                .freeze_stream(&mut taxa, &mut reader(text, policy));
            (table, taxa.len())
        };
        let (grown, n_taxa) = stream(TaxaPolicy::Grow);
        assert_eq!(grown.unwrap().n_trees(), 2);
        assert_eq!(n_taxa, 4);

        // Unknown label under Require surfaces as a CoreError (from parse).
        let (err, _) = stream(TaxaPolicy::Require);
        assert!(matches!(err.unwrap_err(), CoreError::Phylo(_)));
    }

    /// 600 trees on 12 taxa: three chunks.
    fn three_chunks() -> (String, TreeCollection) {
        let c = phylo_sim::perturb::random_collection(12, 600, 0xc4a2);
        let text: String = c
            .trees
            .iter()
            .map(|t| phylo::write_newick(t, &c.taxa) + "\n")
            .collect();
        (text, c)
    }

    /// Stream `text` through `builder`, counting the trees it pulls.
    fn pulled(builder: &BfhBuilder, text: &str) -> (Result<FrozenBfh, CoreError>, usize) {
        let mut taxa = TaxonSet::new();
        let mut stream = reader(text, TaxaPolicy::Grow);
        let out = builder.freeze_stream(&mut taxa, &mut stream);
        (out, stream.report().accepted)
    }

    /// Stream `text` through a parallel builder and the slice terminal
    /// under `budget`: the streamed build must give `want`'s table, or be
    /// refused with a message starting `refused`. A slice sizes its last
    /// buffers to the trees left, so it fits wherever a stream does.
    fn budgeted(
        text: &str,
        c: &TreeCollection,
        budget: usize,
        refused: Option<&str>,
        want: &FrozenBfh,
    ) {
        let builder = BfhBuilder::new()
            .parallel(true)
            .budget(RunBudget::with_max_bytes(budget));
        match (pulled(&builder, text).0, refused) {
            (Ok(got), None) => assert_eq!(got.digest(), want.digest()),
            (Err(CoreError::ResourceLimit(msg)), Some(what)) => {
                assert!(msg.starts_with(what), "{budget}: {msg}");
            }
            (out, _) => panic!("{budget}: {out:?}"),
        }
        if refused.is_none() {
            let sliced = builder.freeze_trees(&c.trees, &c.taxa).unwrap();
            assert_eq!(
                (sliced.n_trees(), sliced.sum(), sliced.distinct()),
                (want.n_trees(), want.sum(), want.distinct())
            );
        }
    }

    /// Both chunk buffers' bound over 12 taxa: CHUNK trees of 2n − 1 = 23
    /// shape nodes and one end each, twice.
    const BUFFERS: usize = 2 * CHUNK * (23 * Shapes::NODE_BYTES + Shapes::TREE_BYTES);

    #[test]
    fn chunk_budget_is_checked_before_each_chunk() {
        let (text, c) = three_chunks();
        let table = pulled(&BfhBuilder::new(), &text).0.unwrap();
        // Before the second chunk is read: both buffers and the first
        // group of lanes. A slice is checked for the same before its first
        // chunk, as its namespace is known from the start.
        let need = BUFFERS + LaneWriter::bytes_at(1, 16);
        let msg = format!("BFH build chunk buffers needs {need} bytes");
        budgeted(&text, &c, need - 1, Some(&msg), &table);
        let slice = BfhBuilder::new()
            .parallel(true)
            .budget(RunBudget::with_max_bytes(need - 1));
        match slice.freeze_trees(&c.trees, &c.taxa) {
            Err(CoreError::ResourceLimit(m)) => assert!(m.starts_with(&msg), "{m}"),
            out => panic!("{out:?}"),
        }
        // At `need` the buffers fit; the first doubling does not.
        budgeted(&text, &c, need, Some("BFH build table needs"), &table);
        // A budget the first chunk already overflows refuses before the
        // stream is read any further.
        let builder = BfhBuilder::new()
            .parallel(true)
            .budget(RunBudget::with_max_bytes(need - 1));
        let (out, n) = pulled(&builder, &text);
        assert!(matches!(out, Err(CoreError::ResourceLimit(_))), "{out:?}");
        assert_eq!(n, CHUNK);
        // The sequential build is budgeted the same way, with the same
        // refusal.
        let seq = BfhBuilder::new().budget(RunBudget::with_max_bytes(need - 1));
        match pulled(&seq, &text) {
            (Err(CoreError::ResourceLimit(m)), n) => {
                assert!(m.starts_with(&msg), "{m}");
                assert_eq!(n, CHUNK);
            }
            out => panic!("{out:?}"),
        }
    }

    #[test]
    fn table_budget_is_checked_before_each_doubling() {
        let (text, c) = three_chunks();
        let table = pulled(&BfhBuilder::new(), &text).0.unwrap();
        // Both buffers plus the last doubling's lanes at their load bound.
        let lanes = LaneWriter::bytes_at(1, table.capacity());
        assert!(lanes >= table.approx_bytes());
        let need = BUFFERS + lanes;
        let msg = format!("BFH build table needs {need} bytes");
        // Budgets that fit the buffers but not the table are refused, by an
        // earlier doubling the lower they are.
        let first = BUFFERS + LaneWriter::bytes_at(1, 16);
        for budget in [first, BUFFERS + table.approx_bytes() - 1] {
            budgeted(&text, &c, budget, Some("BFH build table needs"), &table);
        }
        budgeted(&text, &c, need - 1, Some(&msg), &table);
        budgeted(&text, &c, need, None, &table);
    }

    #[test]
    fn kept_ranks_are_budgeted_with_the_buffers() {
        let (text, _) = three_chunks();
        let kept = |budget: usize| {
            let mut taxa = TaxonSet::new();
            BfhBuilder::new()
                .parallel(true)
                .budget(RunBudget::with_max_bytes(budget))
                .freeze_stream_kept(&mut taxa, &mut reader(&text, TaxaPolicy::Grow))
        };
        // Before the second chunk: room for the first chunk's ranks (at most
        // one per internal node, 11 per tree) and split counts joins the
        // buffers and the first group of lanes.
        let need = BUFFERS + CHUNK * (11 + 1) * 4 + LaneWriter::bytes_at(1, 16);
        let msg = format!("BFH build chunk buffers needs {need} bytes");
        match kept(need - 1) {
            Err(CoreError::ResourceLimit(m)) => assert!(m.starts_with(&msg), "{m}"),
            other => panic!("{other:?}"),
        }
        match kept(need) {
            Err(CoreError::ResourceLimit(m)) => assert!(m.starts_with("BFH build table"), "{m}"),
            other => panic!("{other:?}"),
        }
        let (table, kept) = kept(usize::MAX).unwrap();
        // Each chunk's ranks and counts are held at their exact length.
        assert_eq!(kept.approx_bytes(), 600 * (9 + 1) * 4);
        assert_eq!(table.n_trees(), 600);
    }

    #[test]
    fn injected_panic_in_a_later_chunk_is_a_worker_panic() {
        let (text, c) = three_chunks();
        for at in [CHUNK + 3, 2 * CHUNK + 80] {
            let mut guard = RunGuard::default();
            guard.inject_panic_at(at);
            for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
                let builder = builder.guard(guard.clone());
                let (out, _) = pulled(&builder, &text);
                let Err(CoreError::WorkerPanic(msg)) = out else {
                    panic!("expected a worker panic, got {out:?}");
                };
                assert!(
                    msg.contains(&format!("injected panic at item {at}")),
                    "{msg}"
                );
                assert!(matches!(
                    builder.freeze_trees(&c.trees, &c.taxa),
                    Err(CoreError::WorkerPanic(_))
                ));
            }
            // The Q = R scorer numbers the kept trees the same way.
            let mut taxa = TaxonSet::new();
            let (table, kept) = BfhBuilder::new()
                .parallel(true)
                .freeze_stream_kept(&mut taxa, &mut reader(&text, TaxaPolicy::Grow))
                .unwrap();
            for parallel in [false, true] {
                let err = kept.score(&table, parallel, &guard).unwrap_err();
                assert!(
                    matches!(&err, CoreError::WorkerPanic(m) if m.contains(&format!("item {at}"))),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn cancelled_stream_stops_with_a_typed_error() {
        let (text, _) = three_chunks();
        let guard = RunGuard::default();
        guard.cancel.cancel();
        let (out, n) = pulled(&BfhBuilder::new().guard(guard), &text);
        assert!(matches!(out, Err(CoreError::Cancelled(_))), "{out:?}");
        assert_eq!(n, 0, "the guard is polled before each tree is read");
    }

    #[test]
    fn namespace_grown_after_the_last_tree_widens_the_lanes() {
        // A source may intern labels without yielding another tree; the
        // lanes must still reach the final width, and the kept ranks still
        // name their splits. Two full chunks: the labels arrive after the
        // last tree was folded.
        let (text, _) = three_chunks();
        let text: String = text
            .lines()
            .take(2 * CHUNK)
            .map(|l| l.to_owned() + "\n")
            .collect();
        let mut taxa = TaxonSet::new();
        let mut stream = Late {
            inner: reader(&text, TaxaPolicy::Grow),
            late: 70,
        };
        let (table, kept) = BfhBuilder::new()
            .parallel(true)
            .freeze_stream_kept(&mut taxa, &mut stream)
            .unwrap();
        assert_eq!(taxa.len(), 82);
        let whole = phylo::read_trees_from_str(&text, &mut taxa, TaxaPolicy::Require).unwrap();
        let want = BfhBuilder::new().freeze_trees(&whole, &taxa).unwrap();
        assert_eq!(table.digest(), want.digest());
        let bfh = crate::Bfh::build(&whole, &taxa);
        assert_eq!(
            kept.score(&table, true, &RunGuard::default()).unwrap(),
            crate::rf::bfhrf_all(&whole, &taxa, &bfh).unwrap()
        );
    }

    #[test]
    fn shapes_canonicalised_wider_are_zero_extended() {
        // The fold writes a chunk's masks at the namespace's final width:
        // over three words they are the one-word masks with zero words
        // appended.
        let mut taxa = TaxonSet::new();
        let mut shapes = Shapes::new();
        let mut scratch = BipartitionScratch::new();
        let mut stream = reader(
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n",
            TaxaPolicy::Grow,
        );
        while stream
            .next_shape(&mut taxa, &mut scratch, &mut shapes)
            .unwrap()
        {}
        assert_eq!((shapes.len(), taxa.len()), (2, 6));
        for i in 0..shapes.len() {
            let (mut narrow, mut wide) = (Vec::new(), Vec::new());
            let n = scratch.shape_splits(&shapes, i, 6, &mut narrow);
            assert_eq!(scratch.shape_splits(&shapes, i, 130, &mut wide), n);
            let padded: Vec<u64> = narrow.iter().flat_map(|&w| [w, 0, 0]).collect();
            assert_eq!(wide, padded);
        }
    }

    /// `three_chunks`' trees with `k` unary nodes above each one's first
    /// leaf: the same splits, in the same order, from trees of 23 + `k`
    /// nodes.
    fn unary_chains(text: &str, k: usize) -> String {
        text.lines()
            .map(|l| {
                let at = l.find('t').unwrap();
                let end = at + 1 + l[at + 1..].find(|c: char| !c.is_ascii_digit()).unwrap();
                let (open, close) = ("(".repeat(k), ")".repeat(k));
                format!("{}{open}{}{close}{}\n", &l[..at], &l[at..end], &l[end..])
            })
            .collect()
    }

    #[test]
    fn unary_chains_past_the_shape_bound_are_budgeted() {
        let (text, _) = three_chunks();
        let plain = pulled(&BfhBuilder::new(), &text).0.unwrap();
        let chained = unary_chains(&text, 30);
        let seq = pulled(&BfhBuilder::new(), &chained).0.unwrap();
        assert_eq!(seq.digest(), plain.digest(), "unary nodes add no split");
        // What the plain stream needs at most (see
        // `table_budget_is_checked_before_each_doubling`), and what the
        // chained one does: its buffers hold 53 nodes a tree.
        let lanes = LaneWriter::bytes_at(1, plain.capacity());
        let fits_plain = BUFFERS + lanes;
        let fits_chained = 2 * CHUNK * (53 * Shapes::NODE_BYTES + Shapes::TREE_BYTES) + lanes;
        for parallel in [false, true] {
            let builder = |budget| {
                BfhBuilder::new()
                    .parallel(parallel)
                    .budget(RunBudget::with_max_bytes(budget))
            };
            assert_eq!(
                pulled(&builder(fits_plain), &text).0.unwrap().digest(),
                plain.digest()
            );
            match pulled(&builder(fits_plain), &chained).0 {
                Err(CoreError::ResourceLimit(m)) => assert!(m.starts_with("BFH build"), "{m}"),
                out => panic!("{out:?}"),
            }
            let got = pulled(&builder(fits_chained), &chained).0.unwrap();
            assert_eq!(got.digest(), plain.digest());
        }
        // One record longer than a whole buffer's room is taken alone.
        let long = format!(
            "{}{}",
            unary_chains(&text[..text.find('\n').unwrap() + 1], 9000),
            text
        );
        let got = pulled(&BfhBuilder::new().parallel(true), &long).0.unwrap();
        assert_eq!(got.n_trees(), 601);
        assert_eq!(got.sum(), plain.sum() + 9);
    }

    #[test]
    fn kept_ranks_refuse_a_table_they_were_not_folded_into() {
        let text = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(3);
        let kept_build = |text: &str| {
            let mut taxa = TaxonSet::new();
            BfhBuilder::new()
                .freeze_stream_kept(&mut taxa, &mut reader(text, TaxaPolicy::Grow))
                .unwrap()
        };
        let (table, kept) = kept_build(&text);
        let guard = RunGuard::default();
        let want = kept.score(&table, false, &guard).unwrap();
        // A clone shares the lanes the ranks index.
        assert_eq!(kept.score(&table.clone(), true, &guard).unwrap(), want);
        // The same trees in another order: same counts, other ranks.
        let reversed: String = text.lines().rev().map(|l| l.to_owned() + "\n").collect();
        let (other, _) = kept_build(&reversed);
        assert_eq!(
            (other.n_trees(), other.sum(), other.distinct()),
            (table.n_trees(), table.sum(), table.distinct())
        );
        let (empty, _) = kept_build("");
        let c = coll(&text);
        let mut delta = crate::SplitDelta::new(table.n_taxa());
        delta.record(
            &BipartitionScratch::new().batch_splits(&c.trees[0], &c.taxa),
            1,
        );
        let patched = table.with_delta(std::sync::Arc::new(delta));
        let rebuilt = BfhBuilder::new().freeze_trees(&c.trees, &c.taxa).unwrap();
        assert_eq!(rebuilt.digest(), table.digest());
        for (what, foreign) in [
            ("another build", &other),
            ("a rebuild", &rebuilt),
            ("a delta", &patched),
            ("an empty table", &empty),
        ] {
            for parallel in [false, true] {
                match kept.score(foreign, parallel, &guard) {
                    Err(CoreError::Structure(m)) => assert!(m.contains("folded into"), "{m}"),
                    out => panic!("{what}: {out:?}"),
                }
            }
        }
        // An empty build's ranks score its own table as before.
        let (empty, none) = kept_build("");
        assert_eq!(
            none.score(&empty, false, &guard).unwrap_err(),
            CoreError::EmptyReference
        );
    }

    #[test]
    fn kept_splits_score_like_the_parsed_trees() {
        let text =
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n".repeat(100);
        let c = coll(&text);
        let bfh = crate::Bfh::build(&c.trees, &c.taxa);
        let want = crate::rf::bfhrf_all(&c.trees, &c.taxa, &bfh).unwrap();
        for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
            let mut taxa = TaxonSet::new();
            let (table, kept) = builder
                .freeze_stream_kept(&mut taxa, &mut reader(&text, TaxaPolicy::Grow))
                .unwrap();
            assert_eq!(kept.len(), 300);
            for parallel in [false, true] {
                let got = kept.score(&table, parallel, &RunGuard::default()).unwrap();
                assert_eq!(got, want);
            }
        }
    }
}
