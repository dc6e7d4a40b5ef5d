//! [`BfhBuilder`] — one front door for every way of constructing a
//! [`Bfh`] or its frozen table.
//!
//! The hash once grew a constructor per strategy, each with its own error
//! behavior. The builder replaces that zoo: pick the knobs, then call one
//! of the terminals, and get a `Result` instead of a panic on bad input.
//!
//! ```
//! use bfhrf::BfhBuilder;
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse(
//!     "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let bfh = BfhBuilder::new()
//!     .shards(4)
//!     .from_trees(&refs.trees, &refs.taxa)
//!     .unwrap();
//! assert_eq!(bfh.n_trees(), 3);
//! assert_eq!(bfh.n_shards(), 4);
//! ```
//!
//! # One pipeline
//!
//! Every terminal runs the same two phases. The build pulls trees
//! [`CHUNK`] at a time, from a slice or from a parser, and extracts each
//! chunk's canonical split masks into spill buffers, in tree order. The
//! chunk's trees are then dropped, so a streamed build never holds more
//! than one chunk of parsed trees. Once the source is exhausted, the spill
//! is folded, in tree order, straight into the lanes of one
//! [`FrozenBfh`], which double as they fill. No hash map is built: the
//! `freeze_*` terminals return that table, and the terminals that return a
//! [`Bfh`] route its entries into the configured shard maps.
//!
//! The namespace may grow while the stream is read. A canonical mask is
//! oriented on its own tree's leafset, so a mask made while the namespace
//! was narrower is exactly the final mask with zero words appended. When
//! the namespace crosses a 64-bit word boundary, the spilled masks are
//! zero-extended in place. The table is laid out from the masks in the
//! order they were first seen, so it is identical, bit for bit and in
//! layout, for any thread count, shard count or build mode, and to a
//! build over the whole collection parsed up front.
//!
//! [`BfhBuilder::freeze_stream_kept`] also hands the spill back as
//! [`KeptSplits`]: each reference tree's masks, kept once, so a caller
//! scoring the references against themselves (Q = R) probes them without
//! parsing or extracting any tree twice.

use crate::bfh::Bfh;
use crate::error::CoreError;
use crate::frozen::{FrozenBfh, LaneWriter};
use crate::guard::{isolate, CancelToken, RunBudget, RunGuard};
use crate::rf::{score_chunk, QueryScore, SplitFrequency, SplitRun};
use phylo::{BipartitionScratch, PhyloError, SplitBatch, TaxonSet, Tree};
use phylo_bitset::{split_hash128, words_for};
use rayon::prelude::*;
use std::time::Instant;

/// Trees a streamed build or query pass holds parsed at once. Large enough
/// that each chunk splits evenly across rayon workers, small enough that
/// its parsed trees are a few megabytes at insect scale (n = 144).
pub const CHUNK: usize = 256;

/// Configurable [`Bfh`] construction. See the module docs for an example.
#[derive(Debug, Clone)]
pub struct BfhBuilder {
    parallel: bool,
    shards: usize,
    guard: RunGuard,
}

impl Default for BfhBuilder {
    fn default() -> Self {
        BfhBuilder {
            parallel: false,
            shards: 1,
            guard: RunGuard::default(),
        }
    }
}

impl BfhBuilder {
    /// A builder with the defaults: sequential, single shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extract on rayon workers. A build with more than one shard always
    /// does; this knob decides the one-shard case.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Partition a returned [`Bfh`] into `k` independent shard maps. `k = 1`
    /// (the default) keeps a single map and skips routing on every probe.
    /// A frozen table has no shards; for it, `k > 1` only implies
    /// [`BfhBuilder::parallel`].
    ///
    /// Values land in the terminals' error path rather than panicking:
    /// `k = 0` is rejected there.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Run the build under `budget`: the spill-buffer footprint is checked
    /// before each chunk is extracted, the spill plus the table before
    /// each time the table doubles, and the deadline is polled at tree
    /// granularity.
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

    fn spill(&self, keep: bool) -> Result<Spill<'_>, CoreError> {
        if self.shards == 0 {
            return Err(CoreError::Structure(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(Spill::new(
            self.parallel || self.shards > 1,
            keep,
            &self.guard,
        ))
    }

    /// The table's entries routed into the configured shard maps, with the
    /// build's metrics published.
    fn hash(&self, table: FrozenBfh, start: Instant) -> Result<Bfh, CoreError> {
        let bfh = Bfh::from_table(&table, self.shards)?;
        drop(table);
        record_build_metrics(
            bfh.n_trees(),
            bfh.sum(),
            &bfh.shard_sizes(),
            start.elapsed(),
        );
        Ok(bfh)
    }

    /// Build from an in-memory collection encoded over `taxa`, a chunk at
    /// a time like every other terminal.
    pub fn from_trees(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<Bfh, CoreError> {
        let start = Instant::now();
        let table = self.slice(trees, taxa)?;
        self.hash(table, start)
    }

    /// [`BfhBuilder::from_trees`], returning the frozen table itself: no
    /// hash map is built.
    pub fn freeze_trees(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<FrozenBfh, CoreError> {
        let start = Instant::now();
        let table = self.slice(trees, taxa)?;
        record_build_metrics(table.n_trees(), table.sum(), &[], start.elapsed());
        Ok(table)
    }

    fn slice(&self, trees: &[Tree], taxa: &TaxonSet) -> Result<FrozenBfh, CoreError> {
        let spill = self.spill(false)?;
        validate(trees, taxa)?;
        spill.slice(trees, taxa)
    }

    /// Build the frozen table from a pull source of trees: `next` yields
    /// one tree per call, resolving labels against (and under a growing
    /// policy, into) `taxa`, and `Ok(None)` at the end. A parse failure
    /// surfaces as [`CoreError::Phylo`]. At most [`CHUNK`] parsed trees are
    /// held at a time, and no hash map is built.
    pub fn freeze_stream<F>(&self, taxa: &mut TaxonSet, next: F) -> Result<FrozenBfh, CoreError>
    where
        F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
    {
        let start = Instant::now();
        let (table, _) = self.stream(taxa, false, next)?;
        record_build_metrics(table.n_trees(), table.sum(), &[], start.elapsed());
        Ok(table)
    }

    /// [`BfhBuilder::freeze_stream`], also returning every tree's canonical
    /// split masks in stream order, for scoring the references against
    /// themselves with [`KeptSplits::score`]. The masks are the build's own
    /// spill, so keeping them costs no second copy.
    pub fn freeze_stream_kept<F>(
        &self,
        taxa: &mut TaxonSet,
        next: F,
    ) -> Result<(FrozenBfh, KeptSplits), CoreError>
    where
        F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
    {
        let start = Instant::now();
        let (table, kept) = self.stream(taxa, true, next)?;
        record_build_metrics(table.n_trees(), table.sum(), &[], start.elapsed());
        Ok((table, kept.expect("kept splits were requested")))
    }

    /// Every streamed terminal: spill the source, then fold it.
    fn stream<F>(
        &self,
        taxa: &mut TaxonSet,
        keep: bool,
        mut next: F,
    ) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError>
    where
        F: FnMut(&mut TaxonSet) -> Result<Option<Tree>, PhyloError>,
    {
        let mut spill = self.spill(keep)?;
        let mut chunk = Vec::with_capacity(CHUNK);
        loop {
            let more = fill_chunk(&mut chunk, taxa, &mut next)?;
            spill.push(&chunk, taxa)?;
            chunk.clear();
            if !more {
                break;
            }
        }
        drop(chunk);
        spill.fold(taxa.len())
    }
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

/// One worker's share of one chunk: its trees' canonical masks in tree
/// order and where each tree's masks end.
#[derive(Debug)]
struct Piece {
    /// Global index of the piece's first tree.
    first: usize,
    /// Masks packed at the spill's stride.
    masks: Vec<u64>,
    /// Per tree, the piece's split count up to and including it.
    ends: Vec<u32>,
}

impl Piece {
    /// Zero-extend every mask from `from` to `to` words, in place.
    fn widen(&mut self, from: usize, to: usize) {
        let n = self.masks.len().checked_div(from).unwrap_or(0);
        self.masks.resize(n * to, 0);
        for i in (0..n).rev() {
            self.masks.copy_within(i * from..(i + 1) * from, i * to);
            self.masks[i * to + from..(i + 1) * to].fill(0);
        }
    }

    /// Non-trivial splits across the piece's trees.
    fn splits(&self) -> u64 {
        self.ends.last().map_or(0, |&n| u64::from(n))
    }
}

/// A kept piece as a run of split batches to score: each tree's masks,
/// hashed into the arena.
struct KeptRun<'a> {
    piece: &'a Piece,
    words: usize,
}

impl SplitRun for KeptRun<'_> {
    type Arena = Vec<u128>;

    fn first(&self) -> usize {
        self.piece.first
    }

    fn len(&self) -> usize {
        self.piece.ends.len()
    }

    fn batch<'a>(&'a self, i: usize, hashes: &'a mut Vec<u128>) -> SplitBatch<'a> {
        let ends = &self.piece.ends;
        let from = if i == 0 { 0 } else { ends[i - 1] as usize };
        let masks = &self.piece.masks[from * self.words..ends[i] as usize * self.words];
        hashes.clear();
        hashes.extend(masks.chunks_exact(self.words.max(1)).map(split_hash128));
        SplitBatch::from_parts(self.words, masks, hashes)
    }
}

/// The build's phase-1 state: every spilled chunk's pieces, in order.
pub(crate) struct Spill<'g> {
    parallel: bool,
    keep: bool,
    guard: &'g RunGuard,
    /// Words per spilled mask; grows with the namespace, never shrinks.
    words: usize,
    n_trees: usize,
    pieces: Vec<Piece>,
}

impl<'g> Spill<'g> {
    /// A build that extracts on rayon workers when `parallel`. Only a
    /// parallel build is budgeted.
    pub(crate) fn new(parallel: bool, keep: bool, guard: &'g RunGuard) -> Self {
        Spill {
            parallel,
            keep,
            guard,
            words: 0,
            n_trees: 0,
            pieces: Vec::new(),
        }
    }

    /// Build from a whole in-memory collection.
    pub(crate) fn slice(mut self, trees: &[Tree], taxa: &TaxonSet) -> Result<FrozenBfh, CoreError> {
        for chunk in trees.chunks(CHUNK) {
            self.push(chunk, taxa)?;
        }
        self.fold(taxa.len()).map(|(table, _)| table)
    }

    /// Zero-extend the spilled masks to `words`. The namespace crosses a
    /// word boundary at most a few times per build, so this runs on the
    /// calling thread.
    fn widen(&mut self, words: usize) {
        for p in &mut self.pieces {
            p.widen(self.words, words);
        }
        self.words = words;
    }

    /// The spill's budgeted size: r × (n − 3) splits of `words` u64s, a
    /// bound on every split the trees read so far can have.
    fn spill_bytes(&self, n_taxa: usize) -> usize {
        self.n_trees
            .saturating_mul(n_taxa.saturating_sub(3))
            .saturating_mul(words_for(n_taxa) * 8)
    }

    /// Extract one chunk's splits into new pieces. Its trees may be dropped
    /// afterwards. The spill is widened to `taxa` first, even for an empty
    /// chunk: a source may grow the namespace without yielding a tree.
    fn push(&mut self, chunk: &[Tree], taxa: &TaxonSet) -> Result<(), CoreError> {
        let n_taxa = taxa.len();
        let words = words_for(n_taxa);
        if words > self.words {
            self.widen(words);
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let first = self.n_trees;
        self.n_trees += chunk.len();
        let guard = self.guard;
        guard.checkpoint("BFH build")?;
        // Every split is spilled once as raw words. The sequential build is
        // not budgeted; a parallel one refuses as soon as the trees read so
        // far would overflow the budget, before extracting them.
        if self.parallel {
            guard.check_alloc("BFH build spill buffers", self.spill_bytes(n_taxa))?;
        }
        let per = if self.parallel {
            chunk.len().div_ceil(rayon::current_num_threads()).max(1)
        } else {
            chunk.len()
        };
        let extract = |(ci, trees): (usize, &[Tree])| {
            isolate("BFH extract worker", || {
                let mut scratch = BipartitionScratch::new();
                let bound = trees.len() * n_taxa.saturating_sub(3);
                let mut piece = Piece {
                    first: first + ci * per,
                    masks: Vec::with_capacity(bound * words),
                    ends: Vec::with_capacity(trees.len()),
                };
                let mut count = 0u32;
                for (i, tree) in trees.iter().enumerate() {
                    guard.checkpoint("BFH build")?;
                    guard.panic_if_injected(piece.first + i);
                    scratch.for_each_split(tree, taxa, |w| {
                        piece.masks.extend_from_slice(w);
                        count += 1;
                    });
                    piece.ends.push(count);
                }
                piece.masks.shrink_to_fit();
                Ok(piece)
            })
        };
        let pieces: Vec<Piece> = if self.parallel {
            chunk
                .par_chunks(per)
                .enumerate()
                .map(extract)
                .collect::<Result<_, CoreError>>()?
        } else {
            chunk
                .chunks(per)
                .enumerate()
                .map(extract)
                .collect::<Result<_, CoreError>>()?
        };
        self.pieces.extend(pieces);
        Ok(())
    }

    /// Phase 2: count the spilled masks, in tree order, into growing
    /// frozen lanes. A parallel build checks the spill plus the doubled
    /// lanes against the budget before each doubling. Without `keep`, each
    /// piece is freed once folded; with it, the spill comes back as
    /// [`KeptSplits`].
    fn fold(mut self, n_taxa: usize) -> Result<(FrozenBfh, Option<KeptSplits>), CoreError> {
        let words = self.words;
        debug_assert!(
            self.pieces.is_empty() || words == words_for(n_taxa),
            "the last push widened the spill"
        );
        let guard = self.guard;
        let (spill_bytes, parallel, keep) = (self.spill_bytes(n_taxa), self.parallel, self.keep);
        let sum: u64 = self.pieces.iter().map(Piece::splits).sum();
        let mut grow = |bytes: usize| {
            if parallel {
                guard.check_alloc("BFH build table", spill_bytes.saturating_add(bytes))
            } else {
                Ok(())
            }
        };
        let pieces = &mut self.pieces;
        let table = isolate("BFH fold worker", || {
            let mut lanes = LaneWriter::growing(n_taxa);
            for p in pieces.iter_mut() {
                guard.checkpoint("BFH fold")?;
                for w in p.masks.chunks_exact(words.max(1)) {
                    lanes.count(w, &mut grow)?;
                }
                if !keep {
                    p.masks = Vec::new();
                }
            }
            Ok(lanes.finish(self.n_trees, sum))
        })?;
        let kept = keep.then_some(KeptSplits {
            n_taxa,
            words,
            n_trees: self.n_trees,
            pieces: self.pieces,
        });
        Ok((table, kept))
    }
}

/// Every reference tree's canonical split masks, kept from a streamed
/// build by [`BfhBuilder::freeze_stream_kept`]: the trees' own answers to
/// "which splits do I have?", without the trees.
#[derive(Debug)]
pub struct KeptSplits {
    n_taxa: usize,
    words: usize,
    n_trees: usize,
    pieces: Vec<Piece>,
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

    /// Heap bytes held by the kept masks and split counts.
    pub fn approx_bytes(&self) -> usize {
        self.pieces
            .iter()
            .map(|p| p.masks.capacity() * 8 + p.ends.capacity() * 4)
            .sum()
    }

    /// Average RF of every kept tree against `table`, in stream order:
    /// the Q = R scores, bitwise-identical to scoring the parsed trees.
    /// Each tree's masks are hashed and probed as one batch through the
    /// scorer parsed queries take ([`crate::rf`]'s `score_chunk`), one
    /// kept piece per rayon task when `parallel`; the guard is polled per
    /// tree.
    pub fn score<H: SplitFrequency + Sync>(
        &self,
        table: &H,
        parallel: bool,
        guard: &RunGuard,
    ) -> Result<Vec<QueryScore>, CoreError> {
        if table.reference_count() == 0 {
            return Err(CoreError::EmptyReference);
        }
        if self.n_trees == 0 {
            return Err(CoreError::EmptyQuery);
        }
        let runs: Vec<KeptRun<'_>> = self
            .pieces
            .iter()
            .map(|piece| KeptRun {
                piece,
                words: self.words,
            })
            .collect();
        let mut out = Vec::with_capacity(self.n_trees);
        score_chunk(
            table,
            self.n_taxa,
            &runs,
            parallel,
            guard,
            &mut Vec::new(),
            &mut out,
        )?;
        Ok(out)
    }
}

/// Publish one finished build's throughput into the global registry:
/// duration histogram, tree/split totals and last-build rate gauges. A
/// build that returns a [`Bfh`] also passes its shard sizes, published as
/// the shard skew (max/mean distinct entries, scaled by 1000 — 1000 means
/// perfectly balanced routing).
fn record_build_metrics(
    n_trees: usize,
    sum: u64,
    shard_sizes: &[usize],
    elapsed: std::time::Duration,
) {
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
    let total: usize = shard_sizes.iter().sum();
    if shard_sizes.len() > 1 && total > 0 {
        let mean = total as f64 / shard_sizes.len() as f64;
        let max = shard_sizes.iter().copied().max().unwrap_or(0) as f64;
        reg.gauge("build_shard_skew_permille", &[])
            .set((max / mean * 1000.0) as i64);
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
        let base = BfhBuilder::new().from_trees(&c.trees, &c.taxa).unwrap();
        for builder in [
            BfhBuilder::new().parallel(true),
            BfhBuilder::new().shards(4),
            BfhBuilder::new().parallel(true).shards(4),
        ] {
            let b = builder.from_trees(&c.trees, &c.taxa).unwrap();
            assert_eq!(b.sum(), base.sum());
            assert_eq!(b.distinct(), base.distinct());
            for (bits, count) in base.iter() {
                assert_eq!(b.frequency(bits), count);
            }
        }
    }

    #[test]
    fn zero_shards_is_an_error_not_a_panic() {
        let c = coll("((A,B),(C,D));");
        let err = BfhBuilder::new()
            .shards(0)
            .from_trees(&c.trees, &c.taxa)
            .unwrap_err();
        assert!(matches!(err, CoreError::Structure(_)));
    }

    #[test]
    fn out_of_namespace_taxa_is_a_typed_error() {
        let c = coll("((A,B),(C,D));");
        let narrow = TaxonSet::new(); // empty namespace: every leaf is out of range
        let err = BfhBuilder::new().from_trees(&c.trees, &narrow).unwrap_err();
        assert!(matches!(err, CoreError::TaxaMismatch(_)));
    }

    #[test]
    fn freeze_stream_grows_and_requires() {
        let text = "((A,B),(C,D));\n((A,C),(B,D));\n";
        let stream = |policy| {
            let mut taxa = TaxonSet::new();
            let mut newick = phylo::newick::NewickStream::new(text.as_bytes(), policy);
            let table = BfhBuilder::new()
                .shards(2)
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

    /// Stream `text` through parallel and sharded builders and the slice
    /// terminal under `budget`: each streamed build must give `want`'s
    /// table, or be refused with a message starting `refused`.
    fn budgeted(
        text: &str,
        c: &TreeCollection,
        budget: usize,
        refused: Option<&str>,
        want: &FrozenBfh,
    ) {
        for builder in [
            BfhBuilder::new().parallel(true),
            BfhBuilder::new().shards(3),
        ] {
            let builder = builder.budget(RunBudget::with_max_bytes(budget));
            match (pulled(&builder, text).0, refused) {
                (Ok(got), None) => assert_eq!(got.digest(), want.digest()),
                (Err(CoreError::ResourceLimit(msg)), Some(what)) => {
                    assert!(msg.starts_with(what), "{budget}: {msg}");
                }
                (out, _) => panic!("{budget}: {out:?}"),
            }
            let sliced = builder.from_trees(&c.trees, &c.taxa);
            assert_eq!(sliced.is_ok(), refused.is_none(), "{budget}");
        }
    }

    #[test]
    fn spill_budget_is_checked_cumulatively_per_chunk() {
        let (text, c) = three_chunks();
        let table = pulled(&BfhBuilder::new(), &text).0.unwrap();
        // r × (n − 3) × words × 8, as the whole collection would need.
        let spill = 600 * (12 - 3) * 8;
        let msg = format!("BFH build spill buffers needs {spill} bytes");
        budgeted(&text, &c, spill - 1, Some(&msg), &table);
        // A budget the first chunk already overflows refuses before the
        // stream is read any further.
        let builder = BfhBuilder::new()
            .shards(2)
            .budget(RunBudget::with_max_bytes(CHUNK * 9 * 8 - 1));
        let (out, n) = pulled(&builder, &text);
        assert!(matches!(out, Err(CoreError::ResourceLimit(_))), "{out:?}");
        assert_eq!(n, CHUNK);
        // The sequential one-shard build is not budgeted.
        let seq = BfhBuilder::new().budget(RunBudget::with_max_bytes(1));
        assert_eq!(pulled(&seq, &text).0.unwrap().n_trees(), 600);
    }

    #[test]
    fn table_budget_is_checked_before_each_doubling() {
        let (text, c) = three_chunks();
        let table = pulled(&BfhBuilder::new(), &text).0.unwrap();
        let spill = 600 * (12 - 3) * 8;
        // The spill plus the last doubling's lanes at their load bound.
        let lanes = LaneWriter::bytes_at(1, table.capacity());
        assert!(lanes >= table.approx_bytes());
        let need = spill + lanes;
        let msg = format!("BFH build table needs {need} bytes");
        // Budgets that fit the spill but not the table are refused, by an
        // earlier doubling the lower they are.
        for budget in [spill, spill + table.approx_bytes() - 1] {
            budgeted(&text, &c, budget, Some("BFH build table needs"), &table);
        }
        budgeted(&text, &c, need - 1, Some(&msg), &table);
        budgeted(&text, &c, need, None, &table);
    }

    #[test]
    fn injected_panic_in_a_later_chunk_is_a_worker_panic() {
        let (text, c) = three_chunks();
        for at in [CHUNK + 3, 2 * CHUNK + 80] {
            let mut guard = RunGuard::default();
            guard.inject_panic_at(at);
            for builder in [
                BfhBuilder::new(),
                BfhBuilder::new().parallel(true).shards(2),
            ] {
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
                    builder.from_trees(&c.trees, &c.taxa),
                    Err(CoreError::WorkerPanic(_))
                ));
            }
            // The Q = R scorer numbers the kept trees the same way.
            let mut taxa = TaxonSet::new();
            let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
            let (table, kept) = BfhBuilder::new()
                .shards(2)
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
        assert_eq!(
            n, CHUNK,
            "the first chunk is extracted, or not, before the next is read"
        );
    }

    #[test]
    fn namespace_grown_after_the_last_tree_widens_the_spill() {
        // A source may intern labels without yielding another tree; the
        // spill, and the kept masks, must still reach the final width. Two
        // full chunks: the labels arrive after the last tree was extracted.
        let (text, _) = three_chunks();
        let text: String = text
            .lines()
            .take(2 * CHUNK)
            .map(|l| l.to_owned() + "\n")
            .collect();
        let mut taxa = TaxonSet::new();
        let mut stream = phylo::newick::NewickStream::new(text.as_bytes(), TaxaPolicy::Grow);
        let (table, kept) = BfhBuilder::new()
            .shards(3)
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
        let bfh = Bfh::build(&whole, &taxa);
        assert_eq!(
            kept.score(&table, true, &RunGuard::default()).unwrap(),
            crate::rf::bfhrf_all(&whole, &taxa, &bfh).unwrap()
        );
    }

    #[test]
    fn piece_widening_zero_extends_in_place() {
        let mut p = Piece {
            first: 0,
            masks: vec![1, 2, 3],
            ends: vec![3],
        };
        p.widen(1, 3);
        assert_eq!(p.masks, [1, 0, 0, 2, 0, 0, 3, 0, 0]);
        p.widen(3, 4);
        assert_eq!(p.masks, [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(p.splits(), 3);
    }

    #[test]
    fn kept_splits_score_like_the_parsed_trees() {
        let text =
            "((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));\n".repeat(100);
        let c = coll(&text);
        let bfh = Bfh::build(&c.trees, &c.taxa);
        let want = crate::rf::bfhrf_all(&c.trees, &c.taxa, &bfh).unwrap();
        for builder in [BfhBuilder::new(), BfhBuilder::new().shards(3)] {
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
