//! Shared binary-format primitives: little-endian integer framing, the
//! FNV-1a section checksum, and the word-at-a-time lane sum.
//!
//! Every multi-byte integer in an index artifact is little-endian. Each
//! section ends with the 64-bit FNV-1a hash of its payload bytes, written
//! by [`Digest`] on the way out and re-derived on the way in — a flipped
//! byte anywhere in a section surfaces as a typed checksum mismatch, never
//! as silently wrong frequencies. The frozen sidecar's lanes (version 2)
//! are summed by [`lane_sum`] instead, which reads a word at a time on
//! four independent chains.

use crate::error::IndexError;
use std::io::{Read, Write};
use std::path::Path;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 checksum over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// A fresh digest at the offset basis.
    pub fn new() -> Self {
        Digest::default()
    }

    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.value()
}

/// The XXH64 primes. Each is odd, so multiplying by one is a bijection
/// of `u64`.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One XXH64 round: a bijection of `acc` for a fixed `word`, and of
/// `word` for a fixed `acc`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Incremental [`lane_sum`]: the same value whatever pieces the bytes are
/// fed in.
#[derive(Debug, Clone)]
pub struct LaneSum {
    acc: [u64; 4],
    /// The start of a stripe not yet folded (fewer than 32 bytes).
    pending: [u8; 32],
    pending_len: usize,
    len: u64,
}

impl Default for LaneSum {
    fn default() -> Self {
        LaneSum {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; 32],
            pending_len: 0,
            len: 0,
        }
    }
}

impl LaneSum {
    /// A fresh sum over no bytes.
    pub fn new() -> Self {
        LaneSum::default()
    }

    /// Fold whole 32-byte stripes: word `k` of a stripe feeds accumulator
    /// `k`, so the four chains are independent.
    fn stripes(&mut self, stripes: std::slice::ChunksExact<'_, u8>) {
        let [mut a, mut b, mut c, mut d] = self.acc;
        for s in stripes {
            a = round(a, le_word(&s[0..8]));
            b = round(b, le_word(&s[8..16]));
            c = round(c, le_word(&s[16..24]));
            d = round(d, le_word(&s[24..32]));
        }
        self.acc = [a, b, c, d];
    }

    /// Fold `bytes` into the running sum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let stripe = self.pending;
            self.stripes(stripe.chunks_exact(32));
            self.pending_len = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let tail = stripes.remainder();
        self.stripes(stripes);
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The sum of every byte fed so far.
    pub fn value(&self) -> u64 {
        let [a, b, c, d] = self.acc;
        let mut h = a.rotate_left(1) ^ b.rotate_left(7) ^ c.rotate_left(12) ^ d.rotate_left(18);
        h ^= self.len;
        for word in self.pending[..self.pending_len].chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h = (h ^ round(0, u64::from_le_bytes(w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The 64-bit lane sum of a byte slice (frozen sidecar version 2).
///
/// The bytes are read as little-endian 8-byte words. Whole 32-byte
/// stripes feed four accumulators, word `k` of each stripe the `k`-th,
/// through the XXH64 round `acc = rotl(acc + w·P2, 31)·P1`. The
/// accumulators merge as `rotl(a,1) ^ rotl(b,7) ^ rotl(c,12) ^ rotl(d,18)`,
/// XORed with the byte length. The tail (under 32 bytes) is zero-padded
/// to whole words, and each word `w` steps the merged value as
/// `h = rotl(h ^ round(0, w), 27)·P1 + P4`. The XXH64 avalanche ends it.
///
/// Every step is a bijection of the state it updates, given the other
/// inputs. So two inputs of one length that differ only inside one
/// 8-byte word (at a multiple of 8 from the start) always sum
/// differently; in particular, so does every single-byte change.
pub fn lane_sum(bytes: &[u8]) -> u64 {
    let mut s = LaneSum::new();
    s.update(bytes);
    s.value()
}

/// A writer that checksums everything passing through it, so sections can
/// be emitted in one streaming pass and sealed with
/// [`CheckedWriter::finish_section`].
pub struct CheckedWriter<W: Write> {
    inner: W,
    digest: Digest,
    path: std::path::PathBuf,
}

impl<W: Write> CheckedWriter<W> {
    /// Wrap `inner`; `path` is only for error messages.
    pub fn new(inner: W, path: &Path) -> Self {
        CheckedWriter {
            inner,
            digest: Digest::new(),
            path: path.to_path_buf(),
        }
    }

    fn io(&self, e: std::io::Error) -> IndexError {
        IndexError::io(&self.path, e)
    }

    /// Write raw bytes, folding them into the running section digest.
    pub fn put(&mut self, bytes: &[u8]) -> Result<(), IndexError> {
        self.digest.update(bytes);
        self.inner.write_all(bytes).map_err(|e| self.io(e))
    }

    /// Write a little-endian `u64` into the current section.
    pub fn put_u64(&mut self, v: u64) -> Result<(), IndexError> {
        self.put(&v.to_le_bytes())
    }

    /// Write a little-endian `u32` into the current section.
    pub fn put_u32(&mut self, v: u32) -> Result<(), IndexError> {
        self.put(&v.to_le_bytes())
    }

    /// Write bytes that are *not* part of any section (magic, version —
    /// fields that must be readable before any checksum can be trusted).
    pub fn put_unchecked(&mut self, bytes: &[u8]) -> Result<(), IndexError> {
        self.inner.write_all(bytes).map_err(|e| self.io(e))
    }

    /// Seal the current section: append its FNV-1a checksum and reset the
    /// digest for the next section.
    pub fn finish_section(&mut self) -> Result<(), IndexError> {
        let sum = self.digest.value();
        self.digest = Digest::new();
        self.inner
            .write_all(&sum.to_le_bytes())
            .map_err(|e| self.io(e))
    }

    /// Unwrap the inner writer (for flushing/syncing).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// A reader that checksums everything passing through it and verifies the
/// section seal in [`CheckedReader::verify_section`].
pub struct CheckedReader<R: Read> {
    inner: R,
    digest: Digest,
    path: std::path::PathBuf,
}

impl<R: Read> CheckedReader<R> {
    /// Wrap `inner`; `path` is only for error messages.
    pub fn new(inner: R, path: &Path) -> Self {
        CheckedReader {
            inner,
            digest: Digest::new(),
            path: path.to_path_buf(),
        }
    }

    fn io(&self, e: std::io::Error) -> IndexError {
        IndexError::io(&self.path, e)
    }

    fn truncated(section: &'static str, wanted: usize) -> IndexError {
        IndexError::Corrupt {
            section,
            detail: format!("file truncated ({wanted} bytes missing)"),
        }
    }

    /// Read exactly `buf.len()` bytes into the current section, folding
    /// them into the digest. Short reads are typed truncation errors.
    pub fn take(&mut self, buf: &mut [u8], section: &'static str) -> Result<(), IndexError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.digest.update(buf);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(Self::truncated(section, buf.len()))
            }
            Err(e) => Err(self.io(e)),
        }
    }

    /// Read a little-endian `u64` from the current section.
    pub fn take_u64(&mut self, section: &'static str) -> Result<u64, IndexError> {
        let mut b = [0u8; 8];
        self.take(&mut b, section)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian `u32` from the current section.
    pub fn take_u32(&mut self, section: &'static str) -> Result<u32, IndexError> {
        let mut b = [0u8; 4];
        self.take(&mut b, section)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read bytes outside any section (magic, version).
    pub fn take_unchecked(
        &mut self,
        buf: &mut [u8],
        section: &'static str,
    ) -> Result<(), IndexError> {
        match self.inner.read_exact(buf) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(Self::truncated(section, buf.len()))
            }
            Err(e) => Err(self.io(e)),
        }
    }

    /// Read the section seal and compare it against the bytes consumed
    /// since the previous seal. Resets the digest for the next section.
    pub fn verify_section(&mut self, section: &'static str) -> Result<(), IndexError> {
        let got = self.digest.value();
        self.digest = Digest::new();
        let mut b = [0u8; 8];
        match self.inner.read_exact(&mut b) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(Self::truncated(section, 8))
            }
            Err(e) => return Err(self.io(e)),
        }
        let want = u64::from_le_bytes(b);
        if got != want {
            return Err(IndexError::Corrupt {
                section,
                detail: format!("checksum mismatch (stored {want:#018x}, computed {got:#018x})"),
            });
        }
        Ok(())
    }

    /// Error unless the stream is exactly at EOF — trailing garbage after
    /// the last section means the file was appended to or mixed up.
    pub fn expect_eof(&mut self, section: &'static str) -> Result<(), IndexError> {
        let mut b = [0u8; 1];
        match self.inner.read(&mut b) {
            Ok(0) => Ok(()),
            Ok(_) => Err(IndexError::Corrupt {
                section,
                detail: "trailing bytes after final section".into(),
            }),
            Err(e) => Err(self.io(e)),
        }
    }

    /// Unwrap the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // incremental == one-shot
        let mut d = Digest::new();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d.value(), fnv1a64(b"foobar"));
    }

    /// The bytes `0, 1, 2, …` of a given length.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn lane_sum_golden_values_pin_the_format() {
        assert_eq!(lane_sum(b""), 0xba87_990a_755d_6e16);
        assert_eq!(lane_sum(&counting(100)), 0xce81_92df_30ff_c214);
        assert_eq!(lane_sum(&[0xa5; 4096]), 0xacd1_7cb6_3314_12fd);
    }

    #[test]
    fn lane_sum_is_the_same_whatever_the_pieces() {
        let bytes = counting(200);
        for cut in 0..=bytes.len() {
            for step in [1, 7, 32, 33] {
                let mut s = LaneSum::new();
                s.update(&bytes[..cut]);
                for piece in bytes[cut..].chunks(step) {
                    s.update(piece);
                }
                assert_eq!(s.value(), lane_sum(&bytes), "cut {cut}, step {step}");
            }
        }
    }

    #[test]
    fn every_single_byte_change_changes_the_lane_sum() {
        for len in 0..=100 {
            let good = counting(len);
            let want = lane_sum(&good);
            let mut bad = good.clone();
            for at in 0..len {
                for x in 1..=255u8 {
                    bad[at] = good[at] ^ x;
                    assert_ne!(lane_sum(&bad), want, "len {len}, byte {at}, xor {x:#04x}");
                }
                bad[at] = good[at];
            }
        }
    }

    #[test]
    fn writer_reader_round_trip_and_seal() {
        let mut buf = Vec::new();
        let p = Path::new("mem");
        let mut w = CheckedWriter::new(&mut buf, p);
        w.put_unchecked(b"MAGIC").unwrap();
        w.put_u64(42).unwrap();
        w.put_u32(7).unwrap();
        w.finish_section().unwrap();
        w.put(b"next").unwrap();
        w.finish_section().unwrap();

        let mut r = CheckedReader::new(buf.as_slice(), p);
        let mut magic = [0u8; 5];
        r.take_unchecked(&mut magic, "magic").unwrap();
        assert_eq!(&magic, b"MAGIC");
        assert_eq!(r.take_u64("s1").unwrap(), 42);
        assert_eq!(r.take_u32("s1").unwrap(), 7);
        r.verify_section("s1").unwrap();
        let mut next = [0u8; 4];
        r.take(&mut next, "s2").unwrap();
        r.verify_section("s2").unwrap();
        r.expect_eof("s2").unwrap();
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let mut buf = Vec::new();
        let p = Path::new("mem");
        let mut w = CheckedWriter::new(&mut buf, p);
        w.put_u64(1234).unwrap();
        w.finish_section().unwrap();
        buf[2] ^= 0x40;
        let mut r = CheckedReader::new(buf.as_slice(), p);
        r.take_u64("hdr").unwrap();
        let err = r.verify_section("hdr").unwrap_err();
        assert!(
            matches!(err, IndexError::Corrupt { section: "hdr", .. }),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        let p = Path::new("mem");
        let mut w = CheckedWriter::new(&mut buf, p);
        w.put_u64(5).unwrap();
        w.finish_section().unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = CheckedReader::new(buf.as_slice(), p);
        r.take_u64("hdr").unwrap();
        let err = r.verify_section("hdr").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
