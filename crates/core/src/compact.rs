//! Compressed-key frequency hash — the paper's §IX memory extension.
//!
//! [`CompactBfh`] is behaviourally identical to [`crate::FrozenBfh`] (it
//! answers the same `frequency`/`sum`/`n_trees` queries, so
//! [`crate::bfhrf_average`] arithmetic can run against either) but stores
//! keys through the
//! lossless codec in [`phylo_bitset::compress`]. Real collections are
//! dominated by small clades, whose sparse encodings are a few bytes
//! instead of `n/8` — on wide namespaces this cuts key memory several
//! fold while remaining fully reversible (the hash stays
//! non-transformative: [`CompactBfh::iter_bits`] reconstructs every
//! stored bipartition exactly).

use crate::rf::RfAverage;
use phylo::{TaxonSet, Tree};
use phylo_bitset::compress::{compress, decompress};
use phylo_bitset::{Bits, BuildWordHasher};
use std::collections::HashMap;

/// Frequency hash with compressed bipartition keys.
#[derive(Debug, Clone)]
pub struct CompactBfh {
    counts: HashMap<Box<[u8]>, u32, BuildWordHasher>,
    sum: u64,
    n_trees: usize,
    n_taxa: usize,
}

impl CompactBfh {
    /// An empty compact hash over an `n_taxa`-wide namespace.
    pub fn empty(n_taxa: usize) -> Self {
        CompactBfh {
            counts: HashMap::with_hasher(BuildWordHasher),
            sum: 0,
            n_trees: 0,
            n_taxa,
        }
    }

    /// Build from a reference collection.
    pub fn build(trees: &[Tree], taxa: &TaxonSet) -> Self {
        let mut out = CompactBfh::empty(taxa.len());
        for tree in trees {
            out.add_tree(tree, taxa);
        }
        out
    }

    /// Add one reference tree.
    pub fn add_tree(&mut self, tree: &Tree, taxa: &TaxonSet) {
        debug_assert_eq!(taxa.len(), self.n_taxa);
        for bp in tree.bipartitions(taxa) {
            *self.counts.entry(compress(bp.bits())).or_insert(0) += 1;
            self.sum += 1;
        }
        self.n_trees += 1;
    }

    /// Frequency of a canonical bipartition (compressing the probe key).
    #[inline]
    pub fn frequency(&self, bits: &Bits) -> u32 {
        self.counts.get(&compress(bits)).copied().unwrap_or(0)
    }

    /// Frequency of a canonical mask given as raw words — compresses into
    /// a thread-local probe buffer, so the hot query path allocates
    /// nothing per split.
    #[inline]
    pub fn frequency_words(&self, n_bits: usize, words: &[u64]) -> u32 {
        debug_assert_eq!(n_bits, self.n_taxa);
        thread_local! {
            static PROBE: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        PROBE.with(|buf| {
            let mut buf = buf.borrow_mut();
            phylo_bitset::compress::compress_words_into(words, n_bits, &mut buf);
            self.counts.get(buf.as_slice()).copied().unwrap_or(0)
        })
    }

    /// Total occurrences (`sumBFHR`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of reference trees.
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Number of distinct bipartitions.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Reconstruct every stored bipartition — the reversibility witness.
    pub fn iter_bits(&self) -> impl Iterator<Item = (Bits, u32)> + '_ {
        self.counts.iter().map(|(key, &count)| {
            let bits =
                decompress(key, self.n_taxa).expect("stored keys were produced by compress()");
            (bits, count)
        })
    }

    /// Average RF of one query against the compact hash — Algorithm 2
    /// verbatim, probing compressed keys.
    pub fn average_rf(&self, query: &Tree, taxa: &TaxonSet) -> RfAverage {
        assert!(
            self.n_trees > 0,
            "average RF over an empty reference collection"
        );
        let r = self.n_trees as u64;
        let mut freq_sum = 0u64;
        let mut q_splits = 0u64;
        for bp in query.bipartitions(taxa) {
            freq_sum += u64::from(self.frequency(bp.bits()));
            q_splits += 1;
        }
        RfAverage {
            left: self.sum - freq_sum,
            right: q_splits * r - freq_sum,
            n_refs: self.n_trees,
        }
    }

    /// Approximate heap bytes of the key payloads alone (what the
    /// compression is meant to shrink); compare with
    /// [`crate::FrozenBfh::approx_bytes`].
    pub fn key_bytes(&self) -> usize {
        self.counts
            .keys()
            .map(|k| k.len() + std::mem::size_of::<Box<[u8]>>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::bfhrf_average;
    use crate::Bfh;
    use phylo::TreeCollection;

    fn coll(text: &str) -> TreeCollection {
        TreeCollection::parse(text).unwrap()
    }

    #[test]
    fn matches_uncompressed_hash_exactly() {
        let c = coll("((A,B),((C,D),(E,F)));\n(((A,C),B),(D,(E,F)));\n((A,F),((C,D),(E,B)));");
        let plain = Bfh::build(&c.trees, &c.taxa);
        let compact = CompactBfh::build(&c.trees, &c.taxa);
        assert_eq!(plain.sum(), compact.sum());
        assert_eq!(plain.distinct(), compact.distinct());
        for (bits, count) in plain.iter() {
            assert_eq!(compact.frequency(bits), count);
            assert_eq!(compact.frequency_words(bits.len(), bits.words()), count);
        }
        for q in &c.trees {
            assert_eq!(
                bfhrf_average(q, &c.taxa, &plain),
                compact.average_rf(q, &c.taxa)
            );
        }
    }

    #[test]
    fn reversibility_witness() {
        let c = coll("((A,B),((C,D),(E,F)));\n((A,E),((C,D),(B,F)));");
        let plain = Bfh::build(&c.trees, &c.taxa);
        let compact = CompactBfh::build(&c.trees, &c.taxa);
        let mut reconstructed: Vec<(Bits, u32)> = compact.iter_bits().collect();
        reconstructed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut original: Vec<(Bits, u32)> = plain.iter().map(|(b, c)| (b.clone(), c)).collect();
        original.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(reconstructed, original);
    }

    #[test]
    fn compression_shrinks_wide_namespaces() {
        // 300 taxa: raw keys are 5 words (40 bytes) + Bits overhead; most
        // coalescent splits are small clades with tiny sparse encodings
        let spec = phylo_sim::DatasetSpec::new("compact", 300, 30, 3);
        let c = phylo_sim::generate(&spec);
        let plain = Bfh::build(&c.trees, &c.taxa);
        let compact = CompactBfh::build(&c.trees, &c.taxa);
        let raw_key_bytes =
            plain.distinct() * (phylo_bitset::words_for(300) * 8 + std::mem::size_of::<Bits>());
        assert!(
            compact.key_bytes() < raw_key_bytes / 2,
            "compressed {} vs raw {} bytes",
            compact.key_bytes(),
            raw_key_bytes
        );
        // and it still answers identically
        for q in c.trees.iter().take(5) {
            assert_eq!(
                bfhrf_average(q, &c.taxa, &plain),
                compact.average_rf(q, &c.taxa)
            );
        }
    }

    #[test]
    fn empty_compact_hash() {
        let h = CompactBfh::empty(8);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.frequency(&Bits::zeros(8)), 0);
    }
}
