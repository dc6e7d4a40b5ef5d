//! Zero-allocation bipartition extraction into a caller-owned arena.
//!
//! [`Tree::bipartitions`] allocates one [`Bits`] per node (the subtree
//! masks), a seen-set for deduplication, and one `Bipartition` per emitted
//! split. That is fine for one tree, but the BFH build and batched RF
//! queries extract B(T) for *thousands* of trees in a row, and the per-tree
//! allocations dominate. [`BipartitionScratch`] is the reusable alternative:
//! a flat `u64` arena sized `internal nodes × words` plus a handful of
//! index buffers, all grown once and reused across trees.
//!
//! Extraction runs in two steps. The first reads a tree's **shape**: its
//! nodes in postorder, each with its taxon (if any) and how many children
//! close under it. A parsed [`Tree`] is walked for it
//! ([`shape_tree`](BipartitionScratch::shape_tree)); a Newick record is
//! lexed straight into it, with no tree built
//! ([`NewickReader`](crate::NewickReader)'s
//! [`next_shape`](crate::SplitReader::next_shape),
//! [`shape_newick`](BipartitionScratch::shape_newick)). Shapes pack into a
//! [`Shapes`] buffer, so one thread can read them and another turn them
//! into masks. The second step is the one canonicalisation all of them
//! share ([`shape_splits`](BipartitionScratch::shape_splits)): one pass
//! over a stack of subtree masks, in which child masks OR into their parent
//! and popcounts accumulate via the chunked kernels in `phylo_bitset`
//! ([`union_words`]/[`popcount_words`]), then the rules below, then a
//! branch-free conditional flip ([`orient_words`]) instead of a
//! ~50/50-unpredictable branch per split. Each canonical split lands in a
//! caller buffer or goes to a visitor as a **borrowed** word slice — no
//! allocation on the hot path at all. Callers that need an owned key (a
//! fresh map insert) rebuild a [`Bits`] from the slice; callers that only
//! probe (queries) pass the slice straight to the borrowed-key lookups in
//! `phylo_bitset`, or take the whole tree at once as a [`SplitBatch`]
//! ([`BipartitionScratch::batch_splits`]).
//!
//! # Equivalence with `Tree::bipartitions`
//!
//! The visitor sees exactly the canonical masks `bipartitions` would
//! return, in the same (postorder) order. The seen-set is replaced by a
//! structural rule — two non-root internal nodes yield the same canonical
//! mask only if
//!
//! 1. one is an ancestor of the other through nodes of equal leaf count
//!    (unary chains, or interior nodes whose other children carry no taxa):
//!    skipped by testing `ones(child) == ones(node)` — since a child's mask
//!    is a subset of its parent's, equal popcount means equal mask, and the
//!    chain-*bottom* (first in postorder, the one `bipartitions` keeps) has
//!    no such child; or
//! 2. their masks are complements inside the leafset: only possible when
//!    the root has exactly two leaf-bearing children whose leaf counts sum
//!    to the whole leafset, in which case the duplicate is the chain-bottom
//!    under the *second* such child — computed once per tree and skipped.

use crate::newick::{parse_shape, Frame};
use crate::taxa::TaxonSet;
use crate::tree::{NodeId, Tree};
use crate::PhyloError;
use phylo_bitset::{
    orient_words, popcount_words, split_hash128, union_words, words_for, Bits, WORD_BITS,
};

/// One query tree's canonical splits with their 128-bit hashes, borrowed
/// from the [`BipartitionScratch`] that extracted them.
///
/// Masks are packed contiguously at stride [`words`](Self::words) in visit
/// order; `hashes[i]` is `split_hash128` of `mask(i)`. Frozen probe tables
/// consume the whole batch in one pipelined loop instead of re-hashing
/// split by split.
#[derive(Debug, Clone, Copy)]
pub struct SplitBatch<'a> {
    words: usize,
    masks: &'a [u64],
    hashes: &'a [u128],
}

impl<'a> SplitBatch<'a> {
    /// Assemble a batch from caller-owned buffers: `masks` packed at stride
    /// `words` in split order, `hashes[i]` the `split_hash128` of mask `i`.
    /// Lets callers that cache extracted splits (benchmarks, repeated
    /// scoring of a fixed query set) re-enter the batched probe kernel
    /// without re-extracting.
    ///
    /// # Panics
    /// Panics if `masks.len() != hashes.len() * words`.
    pub fn from_parts(words: usize, masks: &'a [u64], hashes: &'a [u128]) -> SplitBatch<'a> {
        assert_eq!(
            masks.len(),
            hashes.len() * words,
            "masks must pack one stride-{words} mask per hash"
        );
        SplitBatch {
            words,
            masks,
            hashes,
        }
    }

    /// Number of splits in the batch (|B(T)|).
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the query tree had no non-trivial splits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Words per mask (`words_for(n_taxa)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The `i`-th canonical mask as a word slice.
    #[inline]
    pub fn mask(&self, i: usize) -> &'a [u64] {
        &self.masks[i * self.words..(i + 1) * self.words]
    }

    /// The `i`-th mask's stable 128-bit split hash.
    #[inline]
    pub fn hash(&self, i: usize) -> u128 {
        self.hashes[i]
    }

    /// All hashes, in visit order.
    #[inline]
    pub fn hashes(&self) -> &'a [u128] {
        self.hashes
    }
}

/// A node of a tree's postorder shape: its taxon, if any, and how many
/// children close under it (0 for a leaf). A node's children are the
/// subtrees right before it, in order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeNode {
    /// The taxon id, or [`NO_TAXON`].
    taxon: u32,
    /// Children of the node.
    kids: u32,
}

/// [`ShapeNode::taxon`] of a node without a taxon.
pub(crate) const NO_TAXON: u32 = u32::MAX;

/// Trees' postorder shapes, one after another: what a tree reader hands
/// on to be canonicalised ([`BipartitionScratch::shape_splits`]), with
/// no mask made yet. A shape costs [`Shapes::NODE_BYTES`] a node, and a
/// tree without unary nodes or repeated taxa has at most `2k − 1` nodes
/// over `k` leaves.
#[derive(Debug, Clone, Default)]
pub struct Shapes {
    /// Every tree's nodes, in postorder, tree after tree.
    nodes: Vec<ShapeNode>,
    /// Per tree, the node count up to and including it.
    ends: Vec<usize>,
    /// Nodes with children, across every tree.
    inner: usize,
}

impl Shapes {
    /// Heap bytes of one node.
    pub const NODE_BYTES: usize = std::mem::size_of::<ShapeNode>();
    /// Heap bytes of one tree's end.
    pub const TREE_BYTES: usize = std::mem::size_of::<usize>();

    /// An empty buffer.
    pub fn new() -> Shapes {
        Shapes::default()
    }

    /// Trees held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no tree is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Nodes held, across every tree.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Internal nodes held, across every tree: a bound on their
    /// non-trivial splits.
    pub fn inner(&self) -> usize {
        self.inner
    }

    /// Drop every tree, keeping the allocations.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
        self.inner = 0;
    }

    /// Empty the buffer and hold room for exactly `trees` trees of `nodes`
    /// nodes in all, giving back any more than that.
    pub fn clear_to(&mut self, trees: usize, nodes: usize) {
        self.clear();
        self.nodes.shrink_to(nodes);
        self.nodes.reserve_exact(nodes);
        self.ends.shrink_to(trees);
        self.ends.reserve_exact(trees);
    }

    /// Make room for `nodes` more nodes, exactly.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        self.nodes.reserve_exact(nodes);
    }

    /// Append every tree of `other`.
    pub fn append(&mut self, other: &Shapes) {
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&other.nodes);
        self.ends.extend(other.ends.iter().map(|&end| base + end));
        self.inner += other.inner;
    }

    /// Tree `i`'s nodes.
    fn tree(&self, i: usize) -> &[ShapeNode] {
        let from = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.nodes[from..self.ends[i]]
    }

    /// Where the tree being appended starts, to [`rewind`](Self::rewind)
    /// to.
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.nodes.len(), self.inner)
    }

    /// Drop what was appended since `mark`.
    pub(crate) fn rewind(&mut self, (nodes, inner): (usize, usize)) {
        self.nodes.truncate(nodes);
        self.inner = inner;
    }

    /// Append a node to the tree being appended.
    pub(crate) fn push_node(&mut self, taxon: u32, kids: u32) {
        self.inner += usize::from(kids > 0);
        self.nodes.push(ShapeNode { taxon, kids });
    }

    /// Close the tree being appended.
    pub(crate) fn end_tree(&mut self) {
        self.ends.push(self.nodes.len());
    }
}

/// [`Slot::bottom`] when the bottom of the chain is a leaf.
const NO_SLOT: u32 = u32::MAX;

/// An entry of the mask stack: a finished subtree that has not yet been
/// closed under its parent.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A leaf and its taxon (or [`NO_TAXON`]).
    Leaf(u32),
    /// An internal node and its slot in the arena.
    Inner(u32),
}

/// What the rules need to know of an internal node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Leaf count: the popcount of the node's mask.
    ones: u32,
    /// Some child has the same leaf count (rule 1).
    chained: bool,
    /// The slot at the bottom of the node's equal-count chain (the node
    /// itself when it has no such child), or [`NO_SLOT`] for a leaf.
    bottom: u32,
}

/// Reusable arena for allocation-free bipartition extraction.
///
/// Create once, call [`for_each_split`](Self::for_each_split) per tree. All
/// buffers are retained between calls, so after the first (largest) tree no
/// further allocation happens.
#[derive(Debug, Default)]
pub struct BipartitionScratch {
    /// The one tree being extracted by the calls that take a tree or a
    /// record and give its masks.
    one: Shapes,
    /// The open parentheses while a Newick record is lexed into a shape.
    frames: Vec<Frame>,
    /// Reused traversal stack while a [`Tree`] is walked into a shape.
    walk: Vec<NodeId>,
    /// The canonicalisation's buffers.
    canon: Canon,
    /// Batched canonical masks, packed at stride `words` (see
    /// [`Self::batch_splits`]).
    batch: Vec<u64>,
    /// 128-bit split hashes parallel to `batch`.
    hashes: Vec<u128>,
}

impl BipartitionScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Visit every non-trivial canonical bipartition mask of `tree`, encoded
    /// over `taxa`, as a borrowed word slice of length
    /// `words_for(taxa.len())`.
    ///
    /// The slice honors the canonical padding invariant and the visited
    /// multiset equals `tree.bipartitions(taxa)` (same masks, same order).
    /// The slice is only valid for the duration of the call; clone into a
    /// [`Bits`] (via [`Bits::from_words`]) to keep it.
    ///
    /// # Panics
    /// Panics if a leaf's taxon id is out of range for `taxa` (the same
    /// contract as [`Tree::bipartitions`]).
    pub fn for_each_split<F: FnMut(&[u64])>(&mut self, tree: &Tree, taxa: &TaxonSet, mut visit: F) {
        self.tree_batch(tree, taxa.len());
        for w in self.batch.chunks_exact(words_for(taxa.len()).max(1)) {
            visit(w);
        }
    }

    /// Extract every canonical split of `tree` **and** its 128-bit split
    /// hash in one post-order pass, returning a borrowed [`SplitBatch`].
    ///
    /// This is the batched-query front half of the frozen probe kernel: the
    /// masks land packed in the arena (child masks OR-combined in place, no
    /// per-split [`Bits`] allocation) and each is hashed exactly once while
    /// its words are still cache-hot. The batch stays valid until the next
    /// extraction call on this scratch.
    pub fn batch_splits(&mut self, tree: &Tree, taxa: &TaxonSet) -> SplitBatch<'_> {
        self.tree_batch(tree, taxa.len());
        self.hashed(taxa.len())
    }

    /// Canonicalise `tree`, over `n_bits` taxa, into the batch.
    fn tree_batch(&mut self, tree: &Tree, n_bits: usize) {
        self.one.clear();
        read_tree(tree, &mut self.walk, &mut self.one);
        self.batch.clear();
        self.canon.write(self.one.tree(0), n_bits, &mut self.batch);
    }

    /// [`batch_splits`](Self::batch_splits) for tree `i` of `shapes`,
    /// encoded over `n_bits` taxa.
    ///
    /// # Panics
    /// Panics if a taxon id is out of range for `n_bits`.
    pub fn shape_batch(&mut self, shapes: &Shapes, i: usize, n_bits: usize) -> SplitBatch<'_> {
        self.batch.clear();
        self.canon.write(shapes.tree(i), n_bits, &mut self.batch);
        self.hashed(n_bits)
    }

    /// The batch's masks, over `n_bits` taxa, with each one's hash.
    fn hashed(&mut self, n_bits: usize) -> SplitBatch<'_> {
        let words = words_for(n_bits);
        self.hashes.clear();
        self.hashes
            .extend(self.batch.chunks_exact(words.max(1)).map(split_hash128));
        SplitBatch {
            words,
            masks: &self.batch,
            hashes: &self.hashes,
        }
    }

    /// Append the canonical split masks of the one Newick tree in `input`
    /// to `out`, at stride `words_for(taxa.len())`, read straight from its
    /// bytes: no [`Tree`] is built. Returns how many were appended. Labels
    /// resolve against `taxa` as in [`crate::parse_newick_readonly`], which
    /// accepts and refuses exactly the same inputs with the same errors;
    /// the masks are the ones [`for_each_split`](Self::for_each_split)
    /// gives for its tree, in the same order.
    pub fn newick_splits(
        &mut self,
        input: &str,
        taxa: &TaxonSet,
        out: &mut Vec<u64>,
    ) -> Result<usize, PhyloError> {
        let mut one = self.take_one();
        let read = self.shape_newick(input, taxa, &mut one);
        let n = read.map(|()| self.canon.write(one.tree(0), taxa.len(), out));
        self.put_one(one);
        n
    }

    /// Append the shape of the one Newick tree in `input` to `shapes`,
    /// resolving its labels against `taxa` as
    /// [`crate::parse_newick_readonly`] does, which accepts and refuses
    /// exactly the same inputs with the same errors. A refused record
    /// appends nothing.
    pub fn shape_newick(
        &mut self,
        input: &str,
        taxa: &TaxonSet,
        shapes: &mut Shapes,
    ) -> Result<(), PhyloError> {
        self.read_newick(input, &mut |label| taxa.require(label), shapes)
    }

    /// Append `tree`'s shape to `shapes`, in the postorder of
    /// `Tree::postorder`, so its splits come in `bipartitions`' order.
    pub fn shape_tree(&mut self, tree: &Tree, shapes: &mut Shapes) {
        read_tree(tree, &mut self.walk, shapes);
    }

    /// Append the canonical masks of tree `i` of `shapes`, encoded over
    /// `n_bits` taxa, to `out` at stride `words_for(n_bits)`, and return
    /// how many there were: the masks [`for_each_split`](Self::for_each_split)
    /// gives for the tree the shape was read from, in the same order. A
    /// mask is oriented on its own tree's leafset, so over a wider
    /// namespace it is the narrower mask with zero words appended.
    ///
    /// # Panics
    /// Panics if a taxon id is out of range for `n_bits` (the same
    /// contract as [`Tree::bipartitions`]).
    pub fn shape_splits(
        &mut self,
        shapes: &Shapes,
        i: usize,
        n_bits: usize,
        out: &mut Vec<u64>,
    ) -> usize {
        self.canon.write(shapes.tree(i), n_bits, out)
    }

    /// Number of non-trivial splits of `tree` (|B(T)|), without materializing
    /// them.
    pub fn split_count(&mut self, tree: &Tree, taxa: &TaxonSet) -> usize {
        let mut n = 0usize;
        self.for_each_split(tree, taxa, |_| n += 1);
        n
    }

    /// Owned canonical masks, in visit order. Convenience for callers (and
    /// tests) that want the allocation anyway.
    pub fn splits(&mut self, tree: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
        let mut out = Vec::new();
        self.for_each_split(tree, taxa, |w| out.push(Bits::from_words(taxa.len(), w)));
        out
    }

    /// Append the one Newick tree in `input` to `shapes`, resolving leaf
    /// labels through `resolve`; a refused record appends nothing.
    pub(crate) fn read_newick(
        &mut self,
        input: &str,
        resolve: &mut dyn FnMut(&str) -> Result<crate::TaxonId, PhyloError>,
        shapes: &mut Shapes,
    ) -> Result<(), PhyloError> {
        parse_shape(input, resolve, shapes, &mut self.frames)
    }

    /// The one-tree buffer, emptied, for a caller that reads one tree's
    /// shape through this scratch; hand it back with [`Self::put_one`].
    pub(crate) fn take_one(&mut self) -> Shapes {
        let mut one = std::mem::take(&mut self.one);
        one.clear();
        one
    }

    /// Hand back the buffer [`Self::take_one`] lent.
    pub(crate) fn put_one(&mut self, one: Shapes) {
        self.one = one;
    }
}

/// Append `tree`'s shape to `shapes`, in the postorder of
/// `Tree::postorder` (the same two-stack walk), with `walk` as the stack.
fn read_tree(tree: &Tree, walk: &mut Vec<NodeId>, shapes: &mut Shapes) {
    let from = shapes.nodes.len();
    if let Some(root) = tree.root() {
        walk.clear();
        walk.push(root);
        while let Some(n) = walk.pop() {
            let kids = tree.children(n);
            shapes.push_node(tree.taxon(n).map_or(NO_TAXON, |t| t.0), kids.len() as u32);
            walk.extend_from_slice(kids);
        }
        shapes.nodes[from..].reverse();
    }
    shapes.end_tree();
}

/// The canonicalisation's reusable buffers.
#[derive(Debug, Default)]
struct Canon {
    /// The mask stack.
    stack: Vec<Entry>,
    /// Internal-node masks, slot-major: slot `s` owns
    /// `masks[s*words .. (s+1)*words]`. Slots follow postorder.
    masks: Vec<u64>,
    /// Per slot, its leaf count and chain.
    slots: Vec<Slot>,
}

impl Canon {
    /// The one canonicalisation: append every non-trivial canonical mask
    /// of `shape`, encoded over `n_bits` taxa, to `out` at stride
    /// `words_for(n_bits)`, in postorder, and return how many there were.
    ///
    /// # Panics
    /// Panics if a taxon id is out of range for `n_bits` (the same
    /// contract as [`Tree::bipartitions`]).
    fn write(&mut self, shape: &[ShapeNode], n_bits: usize, out: &mut Vec<u64>) -> usize {
        let words = words_for(n_bits);
        let inner = shape.iter().filter(|n| n.kids > 0).count();
        // Reset the arena (memset; no reallocation once grown).
        self.masks.clear();
        self.masks.resize(inner * words, 0);
        self.slots.clear();
        self.stack.clear();
        let root = shape.len().wrapping_sub(1);
        let mut skip = NO_SLOT;
        for (i, node) in shape.iter().enumerate() {
            assert!(
                node.taxon == NO_TAXON || (node.taxon as usize) < n_bits,
                "taxon id {} out of range for namespace of {n_bits}",
                node.taxon
            );
            if node.kids == 0 {
                self.stack.push(Entry::Leaf(node.taxon));
                continue;
            }
            // Fill the node's mask from its children, bottom-up.
            let s = self.slots.len();
            let (below, row) = self.masks.split_at_mut(s * words);
            let row = &mut row[..words];
            let kids = self.stack.len() - node.kids as usize;
            for &e in std::iter::once(&Entry::Leaf(node.taxon)).chain(&self.stack[kids..]) {
                match e {
                    Entry::Leaf(NO_TAXON) => {}
                    Entry::Leaf(t) => {
                        row[t as usize / WORD_BITS] |= 1u64 << (t as usize % WORD_BITS)
                    }
                    Entry::Inner(c) => union_words(row, &below[c as usize * words..][..words]),
                }
            }
            let ones = popcount_words(row);
            let slots = &self.slots;
            let ones_of = |e: &Entry| match *e {
                Entry::Leaf(t) => u32::from(t != NO_TAXON),
                Entry::Inner(c) => slots[c as usize].ones,
            };
            let bottom_of = |e: &Entry| match *e {
                Entry::Leaf(_) => NO_SLOT,
                Entry::Inner(c) => slots[c as usize].bottom,
            };
            let children = &self.stack[kids..];
            // Rule 1: the first child of the same count continues the chain.
            let equal = children.iter().find(|e| ones_of(e) == ones);
            let slot = Slot {
                ones,
                chained: equal.is_some(),
                bottom: equal.map_or(s as u32, bottom_of),
            };
            if i == root {
                // Rule 2: with exactly two leaf-bearing root children
                // covering the leafset, the chain-bottom under the second
                // repeats the first's canonical mask.
                let mut bearing = children.iter().filter(|e| ones_of(e) > 0);
                if let (Some(s1), Some(s2), None) = (bearing.next(), bearing.next(), bearing.next())
                {
                    if ones_of(s1) + ones_of(s2) == ones {
                        skip = bottom_of(s2);
                    }
                }
            }
            self.slots.push(slot);
            self.stack.truncate(kids);
            self.stack.push(Entry::Inner(s as u32));
        }

        // A tree of fewer than four leaves has no non-trivial split.
        let Some(&Entry::Inner(root)) = self.stack.last() else {
            return 0;
        };
        let root = root as usize;
        let n_leaves = self.slots[root].ones;
        if n_leaves < 4 {
            return 0;
        }
        let leafset = &self.masks[root * words..][..words];
        // Anchor: the lowest taxon present in this tree (not the namespace),
        // mirroring `Bipartition::new`'s `leafset.first_one()`.
        let anchor = leafset
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * WORD_BITS + w.trailing_zeros() as usize)
            .expect("n_leaves >= 4 implies a set bit");
        let (aw, ab) = (anchor / WORD_BITS, anchor % WORD_BITS);
        let hi = n_leaves - 2;
        let mut n = 0;
        for (s, slot) in self.slots[..root].iter().enumerate() {
            if s as u32 == skip || slot.chained || slot.ones < 2 || slot.ones > hi {
                continue; // a repeat (rules 1 and 2), or trivial
            }
            let mask = &self.masks[s * words..][..words];
            // Branch-free orientation: anchor bit set → flip = 0 and the
            // mask copies through; clear → flip = !0 and the mask
            // complements inside the leafset (root ^ mask, equal to
            // root & !mask because the mask is a subset of the root's
            // leafset). The ~50/50 orientation branch becomes a data
            // dependency, and the copy is word-striped.
            let flip = ((mask[aw] >> ab) & 1).wrapping_sub(1);
            let at = out.len();
            out.resize(at + words, 0);
            orient_words(&mut out[at..], leafset, mask, flip);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::{parse_newick, TaxaPolicy};

    /// Owned masks from the reference extractor, in its (postorder) order.
    fn reference(tree: &Tree, taxa: &TaxonSet) -> Vec<Bits> {
        tree.bipartitions(taxa)
            .into_iter()
            .map(|b| b.bits().clone())
            .collect()
    }

    fn assert_matches(tree: &Tree, taxa: &TaxonSet, scratch: &mut BipartitionScratch) {
        assert_eq!(scratch.splits(tree, taxa), reference(tree, taxa));
    }

    #[test]
    fn matches_reference_on_parsed_trees() {
        let cases = [
            "((A,B),(C,D));",                 // the paper's 4-taxon example
            "(A,B,(C,D));",                   // unrooted-style trifurcating root
            "((A,B),(C,D),(E,F));",           // 3 leaf-bearing root children
            "(((A,B),C),((D,E),(F,G)));",     // deeper binary
            "((A,B,C,D),(E,F));",             // polytomy
            "(((((A,B),C),D),E),F);",         // caterpillar
            "((A,(B,(C,(D,E)))),(F,(G,H)));", // mixed
            "(A,B,C);",                       // too few taxa: no splits
            "((A,B),C);",
        ];
        let mut scratch = BipartitionScratch::new();
        for nwk in cases {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            assert_matches(&t, &taxa, &mut scratch);
        }
    }

    #[test]
    fn rooting_invariance_matches_reference() {
        // The same unrooted tree under different rootings: the scratch
        // extractor must agree with the reference on every rooting.
        let mut taxa = TaxonSet::new();
        let rootings = [
            "((A,B),(C,D),E);",
            "(A,(B,((C,D),E)));",
            "((((A,B),E),C),D);",
        ];
        let mut scratch = BipartitionScratch::new();
        let mut canonical: Option<Vec<Bits>> = None;
        for nwk in rootings {
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            assert_matches(&t, &taxa, &mut scratch);
            let mut got = scratch.splits(&t, &taxa);
            got.sort();
            match &canonical {
                None => canonical = Some(got),
                Some(c) => assert_eq!(&got, c, "rooting changed split set"),
            }
        }
    }

    #[test]
    fn partial_namespace_uses_tree_leafset_anchor() {
        // Namespace holds A..H but the tree only mentions C..H: the anchor
        // is C (lowest taxon *in the tree*), exactly as the reference does.
        let mut taxa = TaxonSet::new();
        let _full =
            parse_newick("(A,B,(C,(D,(E,(F,(G,H))))));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let sub = parse_newick("((C,D),((E,F),(G,H)));", &mut taxa, TaxaPolicy::Require).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_matches(&sub, &taxa, &mut scratch);
        assert!(scratch.split_count(&sub, &taxa) > 0);
    }

    #[test]
    fn unary_chains_and_empty_subtrees() {
        // Hand-build pathologies `parse_newick` never produces: unary
        // chains above internal nodes and an internal subtree bearing no
        // taxa at all. The structural dedup must still match the seen-set.
        let mut taxa = TaxonSet::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|l| taxa.intern(l))
            .collect();

        let (mut t, root) = Tree::with_root();
        // left: unary -> unary -> (A,B)
        let u1 = t.add_child(root);
        let u2 = t.add_child(u1);
        let ab = t.add_child(u2);
        for &i in &ids[..2] {
            let l = t.add_child(ab);
            t.set_taxon(l, Some(i));
        }
        // right: ((C,D),E) with a taxonless sibling subtree hanging off it
        let right = t.add_child(root);
        let cd = t.add_child(right);
        for &i in &ids[2..4] {
            let l = t.add_child(cd);
            t.set_taxon(l, Some(i));
        }
        let e = t.add_child(right);
        t.set_taxon(e, Some(ids[4]));
        let ghost = t.add_child(right); // internal, no taxa anywhere below
        let _ghost_child = t.add_child(ghost);

        let mut scratch = BipartitionScratch::new();
        assert_matches(&t, &taxa, &mut scratch);
    }

    #[test]
    fn scratch_reuse_is_clean_across_trees() {
        // A big tree followed by a small one: stale arena contents must not
        // leak into the second extraction.
        let mut taxa = TaxonSet::new();
        let big = parse_newick(
            "(((A,B),(C,D)),((E,F),(G,(H,I))));",
            &mut taxa,
            TaxaPolicy::Grow,
        )
        .unwrap();
        let small = parse_newick("((A,B),(C,D));", &mut taxa, TaxaPolicy::Require).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_matches(&big, &taxa, &mut scratch);
        assert_matches(&small, &taxa, &mut scratch);
        assert_matches(&big, &taxa, &mut scratch);
    }

    #[test]
    fn batch_splits_matches_visitor_and_hashes_correctly() {
        let cases = [
            "((A,B),(C,D));",
            "(((A,B),C),((D,E),(F,G)));",
            "((A,(B,(C,(D,E)))),(F,(G,H)));",
            "(A,B,C);", // no splits → empty batch
        ];
        let mut scratch = BipartitionScratch::new();
        for nwk in cases {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(nwk, &mut taxa, TaxaPolicy::Grow).unwrap();
            let expected = scratch.splits(&t, &taxa);
            let batch = scratch.batch_splits(&t, &taxa);
            assert_eq!(batch.len(), expected.len());
            assert_eq!(batch.is_empty(), expected.is_empty());
            for (i, bits) in expected.iter().enumerate() {
                assert_eq!(batch.mask(i), bits.words(), "{nwk} split {i}");
                assert_eq!(
                    batch.hash(i),
                    phylo_bitset::split_hash128(bits.words()),
                    "{nwk} hash {i}"
                );
            }
        }
    }

    #[test]
    fn batch_from_parts_round_trips_and_checks_stride() {
        let mut taxa = TaxonSet::new();
        let t = parse_newick("(((A,B),C),((D,E),(F,G)));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let mut scratch = BipartitionScratch::new();
        let extracted = scratch.batch_splits(&t, &taxa);
        let words = extracted.words();
        let masks: Vec<u64> = (0..extracted.len())
            .flat_map(|i| extracted.mask(i).iter().copied())
            .collect();
        let hashes = extracted.hashes().to_vec();
        let rebuilt = SplitBatch::from_parts(words, &masks, &hashes);
        assert_eq!(rebuilt.len(), extracted.len());
        for i in 0..rebuilt.len() {
            assert_eq!(rebuilt.mask(i), extracted.mask(i));
            assert_eq!(rebuilt.hash(i), extracted.hash(i));
        }
        let bad = std::panic::catch_unwind(|| SplitBatch::from_parts(words, &masks[1..], &hashes));
        assert!(bad.is_err(), "stride mismatch must panic");
    }

    /// A random binary Newick tree over taxa `t{lo}..t{hi-1}`: join two
    /// random subtrees until one is left (xorshift64, deterministic).
    fn random_newick(lo: usize, hi: usize, seed: u64) -> String {
        let mut s = seed.max(1);
        let mut next = |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let mut parts: Vec<String> = (lo..hi).map(|i| format!("t{i}")).collect();
        while parts.len() > 2 {
            let a = parts.swap_remove(next(parts.len()));
            let b = parts.swap_remove(next(parts.len()));
            parts.push(format!("({a},{b})"));
        }
        format!("({});", parts.join(","))
    }

    #[test]
    fn batch_splits_match_reference_across_word_widths() {
        // Widths on both sides of the 64-, 128- and 256-taxon seams, where
        // the word-striped union/popcount/orient kernels run their 4-wide
        // unrolled bodies and their tails. Every batch must hold the
        // reference extractor's masks in its order, each with its
        // split_hash128. The trees over the top third of a namespace put
        // the anchor taxon past the first word once n > 96.
        let mut scratch = BipartitionScratch::new();
        for n in [5usize, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300] {
            for (lo, seed) in [(0, n as u64), (0, 7 * n as u64 + 1), (n * 2 / 3, 3)] {
                if n - lo < 4 {
                    continue;
                }
                let mut taxa = TaxonSet::new();
                for i in 0..n {
                    taxa.intern(&format!("t{i}"));
                }
                let nwk = random_newick(lo, n, seed);
                let t = parse_newick(&nwk, &mut taxa, TaxaPolicy::Require).unwrap();
                let want = reference(&t, &taxa);
                let batch = scratch.batch_splits(&t, &taxa);
                assert_eq!(batch.words(), words_for(n));
                assert_eq!(batch.len(), want.len(), "n={n} lo={lo}");
                for (i, bits) in want.iter().enumerate() {
                    assert_eq!(batch.mask(i), bits.words(), "n={n} lo={lo} split {i}");
                    assert_eq!(batch.hash(i), split_hash128(bits.words()), "n={n} lo={lo}");
                }
            }
        }
    }

    #[test]
    fn split_count_matches_reference_len() {
        let mut taxa = TaxonSet::new();
        let t = parse_newick("(((A,B),C),((D,E),(F,G)));", &mut taxa, TaxaPolicy::Grow).unwrap();
        let mut scratch = BipartitionScratch::new();
        assert_eq!(scratch.split_count(&t, &taxa), reference(&t, &taxa).len());
    }
}
