//! Compact bitmask vectors for phylogenetic bipartition encodings.
//!
//! The BFHRF paper encodes a bipartition of a tree over `n` taxa as a bit
//! vector of length `n`: taxa are assigned bit positions, and the bit value
//! says which side of the split a taxon falls on. This crate provides the
//! underlying fixed-length bitset type, [`Bits`], together with the set
//! algebra the Robinson-Foulds computations need (union, intersection,
//! symmetric difference, masked complement, popcount), a deterministic
//! lexicographic ordering, and a fast word-level hasher ([`WordHasher`])
//! suitable for using bipartitions as `HashMap` keys — the "collision-free
//! hash" property of the paper comes from hashing the *full* bit vector
//! rather than a compressed ID.
//!
//! The crate is dependency-free and deliberately small: it is the innermost
//! substrate of the workspace and everything else builds on it.
//!
//! # Example
//!
//! ```
//! use phylo_bitset::Bits;
//!
//! // The paper's example: tree ((A,B),(C,D)) with taxa A..D assigned
//! // bits 0..3. The internal edge splits {A,B} | {C,D}.
//! let ab = Bits::from_indices(4, [0, 1]);
//! assert_eq!(ab.to_string(), "0011"); // taxon A is the rightmost bit
//! assert_eq!(ab.count_ones(), 2);
//! let cd = ab.complemented();
//! assert_eq!(cd.to_string(), "1100");
//! assert!(ab.is_disjoint(&cd));
//! ```

mod bits;
pub mod compress;
pub mod group;
mod hasher;
mod iter;
mod ops;
mod splithash;

pub use bits::Bits;
pub use hasher::{BuildWordHasher, WordHasher};
pub use iter::Ones;
pub use ops::{orient_words, popcount_words, union_words};
pub use splithash::{
    ctrl_h2, hash_bucket, hash_tag, map_get_words, map_get_words_mut, set_contains_words,
    split_hash128, WordsKey,
};

/// Number of bits per storage word.
pub const WORD_BITS: usize = u64::BITS as usize;

/// Number of `u64` words needed to store `nbits` bits.
#[inline]
pub const fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// A `HashMap` keyed by [`Bits`] using the fast word hasher.
pub type BitsMap<V> = std::collections::HashMap<Bits, V, BuildWordHasher>;

/// A `HashSet` of [`Bits`] using the fast word hasher.
pub type BitsSet = std::collections::HashSet<Bits, BuildWordHasher>;

/// Create an empty [`BitsMap`] with the given capacity.
pub fn bits_map_with_capacity<V>(cap: usize) -> BitsMap<V> {
    BitsMap::with_capacity_and_hasher(cap, BuildWordHasher)
}

/// Create an empty [`BitsSet`] with the given capacity.
pub fn bits_set_with_capacity(cap: usize) -> BitsSet {
    BitsSet::with_capacity_and_hasher(cap, BuildWordHasher)
}
