//! Zero-allocation bipartition extraction into a caller-owned arena.
//!
//! [`Tree::bipartitions`] allocates one [`Bits`] per node (the subtree
//! masks), a seen-set for deduplication, and one `Bipartition` per emitted
//! split. That is fine for one tree, but the BFH build and batched RF
//! queries extract B(T) for *thousands* of trees in a row, and the per-tree
//! allocations dominate. [`BipartitionScratch`] is the reusable alternative:
//! a flat `u64` arena sized `num_nodes × words` plus a handful of index
//! buffers, all grown once and reused across trees. Extraction writes
//! subtree masks in place and hands each canonical split to a visitor as a
//! **borrowed** word slice — no allocation on the hot path at all. The
//! in-place pass is word-striped: child masks OR into their parent and
//! popcounts accumulate via the chunked kernels in `phylo_bitset`
//! ([`union_words`]/[`popcount_words`]), and canonical orientation is a
//! branch-free conditional flip ([`orient_words`]) instead of a
//! ~50/50-unpredictable branch per split. Callers that need an owned key
//! (a fresh map insert) rebuild a [`Bits`] from the slice; callers that
//! only probe (queries) pass the slice straight to the borrowed-key
//! lookups in `phylo_bitset`, or take the whole tree at once as a
//! [`SplitBatch`] ([`BipartitionScratch::batch_splits`]).
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

use crate::taxa::TaxonSet;
use crate::tree::{NodeId, Tree};
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

/// Reusable arena for allocation-free bipartition extraction.
///
/// Create once, call [`for_each_split`](Self::for_each_split) per tree. All
/// buffers are retained between calls, so after the first (largest) tree no
/// further allocation happens.
#[derive(Debug, Default)]
pub struct BipartitionScratch {
    /// Subtree masks, node-major: node `i` owns `masks[i*words .. (i+1)*words]`.
    masks: Vec<u64>,
    /// Scratch for the flipped (complemented-within-leafset) orientation.
    canon: Vec<u64>,
    /// Per-node leaf count (popcount of the node's mask).
    ones: Vec<u32>,
    /// Reused postorder buffer.
    order: Vec<NodeId>,
    /// Reused traversal stack.
    stack: Vec<NodeId>,
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
        let Some(root) = tree.root() else { return };
        let n_bits = taxa.len();
        let words = words_for(n_bits);
        let nn = tree.num_nodes();

        // Reset the arena (memset; no reallocation once grown).
        self.masks.clear();
        self.masks.resize(nn * words, 0);
        self.ones.clear();
        self.ones.resize(nn, 0);
        self.canon.clear();
        self.canon.resize(words, 0);

        // Postorder into the reused buffer (same two-stack scheme as
        // `Tree::postorder`, so emission order matches `bipartitions`).
        self.order.clear();
        self.stack.clear();
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            self.order.push(n);
            self.stack.extend_from_slice(tree.children(n));
        }
        self.order.reverse();

        // Fill masks and leaf counts bottom-up.
        for &n in &self.order {
            let ni = n.index();
            let base = ni * words;
            if let Some(t) = tree.taxon(n) {
                let b = t.index();
                assert!(
                    b < n_bits,
                    "taxon id {b} out of range for namespace of {n_bits}"
                );
                self.masks[base + b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
            }
            for &c in tree.children(n) {
                let cb = c.index() * words;
                let [dst, src] = self
                    .masks
                    .get_disjoint_mut([base..base + words, cb..cb + words])
                    .expect("parent and child arena rows are disjoint");
                union_words(dst, src);
            }
            self.ones[ni] = popcount_words(&self.masks[base..base + words]);
        }

        let root_base = root.index() * words;
        let n_leaves = self.ones[root.index()];
        if n_leaves < 4 {
            return; // no non-trivial splits possible
        }

        // Anchor: the lowest taxon present in this tree (not the namespace),
        // mirroring `Bipartition::new`'s `leafset.first_one()`.
        let anchor = self.masks[root_base..root_base + words]
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * WORD_BITS + w.trailing_zeros() as usize)
            .expect("n_leaves >= 4 implies a set bit");
        let (aw, ab) = (anchor / WORD_BITS, anchor % WORD_BITS);

        // Complement-duplicate (rule 2 above): with exactly two leaf-bearing
        // root children covering the leafset, the chain-bottom under the
        // second one repeats the first's canonical mask.
        let mut skip = usize::MAX;
        {
            let mut bearing: [Option<NodeId>; 2] = [None, None];
            let mut n_bearing = 0usize;
            for &c in tree.children(root) {
                if self.ones[c.index()] > 0 {
                    if n_bearing < 2 {
                        bearing[n_bearing] = Some(c);
                    }
                    n_bearing += 1;
                }
            }
            if n_bearing == 2 {
                let (s1, s2) = (bearing[0].unwrap(), bearing[1].unwrap());
                if self.ones[s1.index()] + self.ones[s2.index()] == n_leaves {
                    let mut b = s2;
                    'down: loop {
                        for &c in tree.children(b) {
                            if self.ones[c.index()] == self.ones[b.index()] {
                                b = c;
                                continue 'down;
                            }
                        }
                        break;
                    }
                    skip = b.index();
                }
            }
        }

        let hi = n_leaves - 2;
        for &n in &self.order {
            let ni = n.index();
            if ni == root.index() || tree.is_leaf(n) || ni == skip {
                continue;
            }
            let o = self.ones[ni];
            if o < 2 || o > hi {
                continue; // trivial
            }
            if tree.children(n).iter().any(|&c| self.ones[c.index()] == o) {
                continue; // ancestor-chain duplicate (rule 1)
            }
            let base = ni * words;
            // Branch-free orientation: anchor bit set → flip = 0 and the
            // mask copies through; clear → flip = !0 and the mask
            // complements inside the leafset (root ^ mask, equal to
            // root & !mask because the mask is a subset of the root's
            // leafset). The ~50/50 orientation branch becomes a data
            // dependency, and the copy is word-striped.
            let flip = ((self.masks[base + aw] >> ab) & 1).wrapping_sub(1);
            orient_words(
                &mut self.canon[..words],
                &self.masks[root_base..root_base + words],
                &self.masks[base..base + words],
                flip,
            );
            visit(&self.canon[..words]);
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
        let words = words_for(taxa.len());
        // Move the batch buffers out so the extraction closure can fill
        // them while `self` is mutably borrowed by `for_each_split`.
        let mut batch = std::mem::take(&mut self.batch);
        let mut hashes = std::mem::take(&mut self.hashes);
        batch.clear();
        hashes.clear();
        self.for_each_split(tree, taxa, |w| {
            batch.extend_from_slice(w);
            hashes.push(split_hash128(w));
        });
        self.batch = batch;
        self.hashes = hashes;
        SplitBatch {
            words,
            masks: &self.batch,
            hashes: &self.hashes,
        }
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
