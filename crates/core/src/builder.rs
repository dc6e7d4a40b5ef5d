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
//! parser. The calling thread pulls one tree at a time, extracts its
//! canonical split masks into a chunk buffer and drops the tree, so a
//! streamed build never holds more than one parsed tree. Each full buffer
//! ([`CHUNK`] trees) is folded, in tree order, straight into the lanes of
//! one [`FrozenBfh`], which double as they fill; a parallel build folds it
//! on a rayon worker while the calling thread fills the other buffer. No
//! hash map is built: every terminal returns that table.
//!
//! The namespace may grow while the stream is read. A canonical mask is
//! oriented on its own tree's leafset, so a mask made while the namespace
//! was narrower is exactly the final mask with zero words appended. When
//! the namespace crosses a 64-bit word boundary, the buffer being filled
//! is zero-extended in place, and the lanes are re-laid at the new stride
//! before the next fold. The lanes hold the masks in the order they were
//! first seen and every re-lay places them in that order, so the table is
//! identical, bit for bit and in layout, for any thread count or build
//! mode, and to a build over the whole collection parsed up front.
//!
//! [`BfhBuilder::freeze_stream_kept`] also keeps [`KeptSplits`]: each
//! reference tree's splits as the 4-byte pool ranks the fold gave them, so
//! a caller scoring the references against themselves (Q = R) reads their
//! frequencies without parsing, extracting or probing any tree twice.

use crate::error::CoreError;
use crate::frozen::{zero_extend, FrozenBfh, LaneWriter, LanesId};
use crate::guard::{isolate, CancelToken, RunBudget, RunGuard};
use crate::rf::{score_chunk, QueryScore, SplitFrequency, SplitRun};
use phylo::{BipartitionScratch, PhyloError, TaxonSet, Tree};
use phylo_bitset::words_for;
use std::time::Instant;

/// Trees a build folds, and a streamed query pass holds parsed, at once.
/// Large enough that each fold outlasts a rayon hand-off and each query
/// chunk splits evenly across workers, small enough that a chunk buffer
/// of masks is under a megabyte at insect scale (n = 144).
pub const CHUNK: usize = 256;

/// Configurable frozen-table construction. See the module docs for an
/// example.
#[derive(Debug, Clone, Default)]
pub struct BfhBuilder {
    parallel: bool,
    guard: RunGuard,
}

impl BfhBuilder {
    /// A builder with the defaults: a sequential fold, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold each chunk on a rayon worker while the next one is read. Only
    /// a parallel build is budgeted.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Run the build under `budget`: both chunk buffers, the kept ranks and
    /// the lanes are checked before each chunk is read, the same with the
    /// grown lanes before each time the table doubles or widens, and the
    /// deadline is polled at tree granularity.
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

    /// Build the frozen table from an in-memory collection encoded over
    /// `taxa`, a chunk at a time like every other terminal.
    pub fn freeze_trees(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<FrozenBfh, CoreError> {
        let start = Instant::now();
        let table = freeze_slice(self.parallel, &self.guard, trees, taxa)?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok(table)
    }

    /// Build the frozen table from a pull source of trees: `next` yields
    /// one tree per call, resolving labels against (and under a growing
    /// policy, into) `taxa`, and `Ok(None)` at the end. A parse failure
    /// surfaces as [`CoreError::Phylo`]. Each tree is dropped once its
    /// masks are extracted, and no hash map is built.
    pub fn freeze_stream<F>(&self, taxa: &mut TaxonSet, next: F) -> Result<FrozenBfh, CoreError>
    where
        F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
    {
        let start = Instant::now();
        let (table, _) = build(
            self.parallel,
            false,
            &self.guard,
            &mut Parsed { taxa, next },
        )?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok(table)
    }

    /// [`BfhBuilder::freeze_stream`], also keeping every tree's splits in
    /// stream order, as the pool ranks the table gave them, for scoring the
    /// references against themselves with [`KeptSplits::score`]. A split
    /// costs 4 bytes kept instead of its mask.
    pub fn freeze_stream_kept<F>(
        &self,
        taxa: &mut TaxonSet,
        next: F,
    ) -> Result<(FrozenBfh, KeptSplits), CoreError>
    where
        F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
    {
        let start = Instant::now();
        let (table, kept) = build(self.parallel, true, &self.guard, &mut Parsed { taxa, next })?;
        record_build_metrics(table.n_trees(), table.sum(), start.elapsed());
        Ok((table, kept.expect("kept splits were requested")))
    }
}

/// The pipeline over borrowed trees, after their taxa are checked against
/// `taxa`.
pub(crate) fn freeze_slice(
    parallel: bool,
    guard: &RunGuard,
    trees: &[Tree],
    taxa: &TaxonSet,
) -> Result<FrozenBfh, CoreError> {
    validate(trees, taxa)?;
    let mut src = Borrowed {
        trees: trees.iter(),
        taxa,
    };
    build(parallel, false, guard, &mut src).map(|(table, _)| table)
}

/// Pull up to [`CHUNK`] trees into `chunk`; `false` once the source is
/// exhausted.
pub(crate) fn fill_chunk<F>(
    chunk: &mut Vec<Tree>,
    taxa: &mut TaxonSet,
    next: &mut F,
) -> Result<bool, PhyloError>
where
    F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
{
    while chunk.len() < CHUNK {
        match next(taxa)? {
            Some(tree) => chunk.push(tree),
            None => return Ok(false),
        }
    }
    Ok(true)
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

/// Where a build's trees come from, one at a time.
trait TreeSource {
    /// Pull the next tree and hand it, with the namespace it was read
    /// over, to `visit`; `None` once the source is exhausted.
    fn pull<R>(
        &mut self,
        visit: impl FnOnce(&Tree, &TaxonSet) -> R,
    ) -> Result<Option<R>, CoreError>;

    /// The namespace's width now.
    fn n_taxa(&self) -> usize;

    /// How many trees are left to pull, when the source knows.
    fn remaining(&self) -> Option<usize> {
        None
    }
}

/// A parser that resolves labels against, and may grow, `taxa`.
struct Parsed<'t, F> {
    taxa: &'t mut TaxonSet,
    next: F,
}

impl<F> TreeSource for Parsed<'_, F>
where
    F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
{
    fn pull<R>(
        &mut self,
        visit: impl FnOnce(&Tree, &TaxonSet) -> R,
    ) -> Result<Option<R>, CoreError> {
        Ok((self.next)(self.taxa)?.map(|tree| visit(&tree, self.taxa)))
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

impl TreeSource for Borrowed<'_> {
    fn pull<R>(
        &mut self,
        visit: impl FnOnce(&Tree, &TaxonSet) -> R,
    ) -> Result<Option<R>, CoreError> {
        Ok(self.trees.next().map(|tree| visit(tree, self.taxa)))
    }

    fn n_taxa(&self) -> usize {
        self.taxa.len()
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.trees.len())
    }
}

/// A chunk buffer: up to [`CHUNK`] trees' canonical masks in tree order
/// and where each tree's masks end.
#[derive(Debug, Default)]
struct Piece {
    /// Global index of the piece's first tree.
    first: usize,
    /// Trees the buffer makes room for: [`CHUNK`], or fewer when the
    /// source knows it has fewer left.
    room: usize,
    /// The namespace's width after the piece's last tree was read.
    n_taxa: usize,
    /// Words per mask, `words_for(n_taxa)`.
    words: usize,
    /// Masks packed at `words`.
    masks: Vec<u64>,
    /// Per tree, the piece's split count up to and including it.
    ends: Vec<u32>,
}

impl Piece {
    /// Heap bytes of a buffer's masks with room for `trees` trees of
    /// `n − 3` splits over `n_taxa` taxa.
    fn bound(n_taxa: usize, trees: usize) -> usize {
        trees * n_taxa.saturating_sub(3) * words_for(n_taxa) * 8
    }

    /// Empty the buffer for the chunk whose first tree is `first`, with
    /// room for `room` trees over a namespace of `n_taxa`, keeping its
    /// allocations.
    fn reset(&mut self, first: usize, room: usize, n_taxa: usize) {
        self.first = first;
        self.room = room;
        self.masks.clear();
        self.ends.clear();
        self.n_taxa = 0;
        self.words = 0;
        self.grow(n_taxa);
    }

    /// Take the namespace to `n_taxa`: zero-extend the masks in place if it
    /// crossed a word boundary, and make the buffer's room over it.
    fn grow(&mut self, n_taxa: usize) {
        let words = words_for(n_taxa);
        if words > self.words {
            self.widen(words);
        }
        self.n_taxa = self.n_taxa.max(n_taxa);
        let room = Piece::bound(self.n_taxa, self.room) / 8;
        self.masks
            .reserve_exact(room.saturating_sub(self.masks.len()));
        self.ends
            .reserve_exact(self.room.saturating_sub(self.ends.len()));
    }

    /// Zero-extend every mask to `words` words, in place.
    fn widen(&mut self, words: usize) {
        zero_extend(&mut self.masks, self.words, words);
        self.words = words;
    }

    /// Trees in the piece.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Non-trivial splits across the piece's trees.
    fn splits(&self) -> usize {
        self.ends.last().map_or(0, |&n| n as usize)
    }
}

/// The one build pipeline: pull trees from `src` into one chunk buffer
/// while the other is folded into growing lanes, on a rayon worker when
/// `parallel` (and there is more than one), else alternately on this
/// thread. Folds run in tree order. With `keep`, each tree's pool ranks
/// come back as [`KeptSplits`]. Only a parallel build is budgeted.
fn build(
    parallel: bool,
    keep: bool,
    guard: &RunGuard,
    src: &mut impl TreeSource,
) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError> {
    let overlap = parallel && rayon::current_num_threads() > 1;
    let mut fold = Fold {
        parallel,
        guard,
        lanes: LaneWriter::growing(src.n_taxa()),
        n_trees: 0,
        sum: 0,
        kept: keep.then(Vec::new),
    };
    let mut scratch = BipartitionScratch::new();
    let (mut full, mut next) = (Piece::default(), Piece::default());
    let first_room = room(src);
    let n_taxa = src.n_taxa();
    fold.check(Piece::bound(n_taxa, first_room), &Piece::default(), n_taxa)?;
    full.reset(0, first_room, n_taxa);
    let mut more = fill(&mut full, guard, &mut scratch, src)?;
    loop {
        let next_room = if more { room(src) } else { 0 };
        let n_taxa = full.n_taxa;
        let buffers = Piece::bound(n_taxa, full.room) + Piece::bound(n_taxa, next_room);
        fold.check(buffers, &full, n_taxa)?;
        fold.lanes.widen(n_taxa);
        if !more {
            fold.fold(&full, buffers)?;
            break;
        }
        next.reset(full.first + full.len(), next_room, n_taxa);
        if overlap {
            let mut folded = Ok(());
            let filled = rayon::in_place_scope(|s| {
                s.spawn(|_| folded = fold.fold(&full, buffers));
                fill(&mut next, guard, &mut scratch, src)
            });
            folded?;
            more = filled?;
        } else {
            fold.fold(&full, buffers)?;
            more = fill(&mut next, guard, &mut scratch, src)?;
        }
        std::mem::swap(&mut full, &mut next);
    }
    drop((full, next));
    fold.finish(src.n_taxa())
}

/// The room the next chunk buffer makes: [`CHUNK`] trees, or what is left
/// of a source that knows.
fn room(src: &impl TreeSource) -> usize {
    src.remaining().map_or(CHUNK, |left| left.min(CHUNK))
}

/// Pull trees into `piece` until it holds [`CHUNK`] of them; `false` once
/// the source is exhausted. Each tree's masks are extracted as it is
/// pulled, and the tree is dropped; the guard is polled per tree.
fn fill(
    piece: &mut Piece,
    guard: &RunGuard,
    scratch: &mut BipartitionScratch,
    src: &mut impl TreeSource,
) -> Result<bool, CoreError> {
    while piece.len() < CHUNK {
        guard.checkpoint("BFH build")?;
        let index = piece.first + piece.len();
        let pulled = src.pull(|tree, taxa| {
            piece.grow(taxa.len());
            isolate("BFH extract", || {
                guard.panic_if_injected(index);
                scratch.for_each_split(tree, taxa, |w| piece.masks.extend_from_slice(w));
                Ok(())
            })?;
            let splits = piece.masks.len().checked_div(piece.words).unwrap_or(0);
            piece.ends.push(splits as u32);
            Ok::<_, CoreError>(())
        })?;
        match pulled {
            Some(extracted) => extracted?,
            None => return Ok(false),
        }
    }
    Ok(true)
}

/// The fold side of a build: the growing lanes and the kept ranks.
struct Fold<'g> {
    parallel: bool,
    guard: &'g RunGuard,
    lanes: LaneWriter,
    n_trees: usize,
    sum: u64,
    kept: Option<Vec<KeptChunk>>,
}

impl Fold<'_> {
    /// Bytes the build holds besides the lanes while `pending` is folded:
    /// `buffers` for both chunk buffers, and the kept ranks with
    /// `pending`'s.
    fn held(&self, buffers: usize, pending: &Piece) -> usize {
        let ranks = self.kept.as_ref().map_or(0, |kept| {
            let have: usize = kept.iter().map(KeptChunk::bytes).sum();
            have + (pending.splits() + pending.len()) * 4
        });
        buffers + ranks
    }

    /// Refuse to fold `pending` and read the next chunk if `buffers`, the
    /// ranks and the lanes, widened to `n_taxa`, overflow the budget. Only
    /// a parallel build is budgeted.
    fn check(&self, buffers: usize, pending: &Piece, n_taxa: usize) -> Result<(), CoreError> {
        if !self.parallel {
            return Ok(());
        }
        let need = self.held(buffers, pending) + self.lanes.bytes_over(n_taxa);
        self.guard.check_alloc("BFH build chunk buffers", need)
    }

    /// Count `piece`'s masks, in tree order, into the lanes, keeping their
    /// ranks when asked; each doubling is checked with `buffers` held
    /// beside the lanes. The lanes must be as wide as the piece.
    fn fold(&mut self, piece: &Piece, buffers: usize) -> Result<(), CoreError> {
        debug_assert!(piece.masks.is_empty() || piece.words == self.lanes.words());
        let held = self.held(buffers, piece);
        let (guard, parallel) = (self.guard, self.parallel);
        let lanes = &mut self.lanes;
        let mut ranks = self
            .kept
            .is_some()
            .then(|| Vec::with_capacity(piece.splits()));
        isolate("BFH fold", || {
            guard.checkpoint("BFH fold")?;
            let mut grow = |bytes: usize| table_check(parallel, guard, held + bytes);
            for w in piece.masks.chunks_exact(piece.words.max(1)) {
                let rank = lanes.count(w, &mut grow)?;
                if let Some(ranks) = &mut ranks {
                    ranks.push(rank);
                }
            }
            Ok(())
        })?;
        if let (Some(kept), Some(ranks)) = (&mut self.kept, ranks) {
            kept.push(KeptChunk {
                first: piece.first,
                ranks,
                ends: piece.ends.to_vec(),
            });
        }
        self.n_trees += piece.len();
        self.sum += piece.splits() as u64;
        Ok(())
    }

    /// The finished table over `n_taxa` taxa, and the kept ranks naming it.
    /// The lanes are widened to `n_taxa` first: a source may grow the
    /// namespace after its last tree.
    fn finish(mut self, n_taxa: usize) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError> {
        let need = self.held(0, &Piece::default()) + self.lanes.bytes_over(n_taxa);
        table_check(self.parallel, self.guard, need)?;
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

/// Refuse lanes that would take a parallel build's `bytes` over budget.
fn table_check(parallel: bool, guard: &RunGuard, bytes: usize) -> Result<(), CoreError> {
    if parallel {
        guard.check_alloc("BFH build table", bytes)
    } else {
        Ok(())
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
    use phylo::{TaxaPolicy, TreeCollection};

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
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
            let mut newick = phylo::newick::NewickStream::new(text.as_bytes(), policy);
            let table = BfhBuilder::new()
                .parallel(true)
                .freeze_stream(&mut taxa, |t| newick.next_tree(t));
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
        let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
        let mut n = 0usize;
        let out = builder.freeze_stream(&mut taxa, |t| {
            let tree = stream.next_tree(t)?;
            n += usize::from(tree.is_some());
            Ok(tree)
        });
        (out, n)
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

    /// Both chunk buffers' bound over 12 taxa: CHUNK × (n − 3) masks of
    /// one word, twice.
    const BUFFERS: usize = 2 * CHUNK * (12 - 3) * 8;

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
        // The sequential build is not budgeted.
        let seq = BfhBuilder::new().budget(RunBudget::with_max_bytes(1));
        assert_eq!(pulled(&seq, &text).0.unwrap().n_trees(), 600);
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
            let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
            BfhBuilder::new()
                .parallel(true)
                .budget(RunBudget::with_max_bytes(budget))
                .freeze_stream_kept(&mut taxa, |t| stream.next_tree(t))
        };
        // Before the second chunk: the first chunk's ranks (9 per tree) and
        // split counts join the buffers and the first group of lanes.
        let need = BUFFERS + CHUNK * (9 + 1) * 4 + LaneWriter::bytes_at(1, 16);
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
            let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
            let (table, kept) = BfhBuilder::new()
                .parallel(true)
                .freeze_stream_kept(&mut taxa, |t| stream.next_tree(t))
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
        let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
        let (table, kept) = BfhBuilder::new()
            .parallel(true)
            .freeze_stream_kept(&mut taxa, |t| match stream.next_tree(t)? {
                Some(tree) => Ok(Some(tree)),
                None => {
                    for i in 0..70 {
                        t.intern(&format!("late{i}"));
                    }
                    Ok(None)
                }
            })
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
    fn piece_widening_zero_extends_in_place() {
        let mut p = Piece {
            words: 1,
            masks: vec![1, 2, 3],
            ends: vec![3],
            ..Piece::default()
        };
        p.widen(3);
        assert_eq!(p.masks, [1, 0, 0, 2, 0, 0, 3, 0, 0]);
        p.widen(4);
        assert_eq!(p.masks, [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(p.splits(), 3);
    }

    #[test]
    fn kept_ranks_refuse_a_table_they_were_not_folded_into() {
        let text = "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n".repeat(3);
        let kept_build = |text: &str| {
            let mut taxa = TaxonSet::new();
            let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
            BfhBuilder::new()
                .freeze_stream_kept(&mut taxa, |t| stream.next_tree(t))
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
            let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
            let (table, kept) = builder
                .freeze_stream_kept(&mut taxa, |t| stream.next_tree(t))
                .unwrap();
            assert_eq!(kept.len(), 300);
            for parallel in [false, true] {
                let got = kept.score(&table, parallel, &RunGuard::default()).unwrap();
                assert_eq!(got, want);
            }
        }
    }
}
