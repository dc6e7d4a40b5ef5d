//! Minimal standard-alphabet base64 (RFC 4648, padded). The workspace
//! builds hermetically, so this small codec stands in for the `base64`
//! crate; proto v2 uses it to carry binary tree records inside JSON
//! string fields.

use crate::WireError;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode `data` as padded standard base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Each byte's sextet, or `INVALID` for a byte outside the alphabet
/// (padding included): the fast path's one lookup per byte.
const SEXTETS: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// A [`SEXTETS`] entry with the high bit set: not a sextet.
const INVALID: u8 = 0x80;

fn sextet(c: u8, offset: usize) -> Result<u32, WireError> {
    match c {
        b'A'..=b'Z' => Ok(u32::from(c - b'A')),
        b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
        b'+' => Ok(62),
        b'/' => Ok(63),
        _ => Err(WireError::corrupt(
            offset,
            format!("invalid base64 byte 0x{c:02x}"),
        )),
    }
}

/// Decode padded standard base64. Rejects bad lengths, alphabet
/// violations, and misplaced padding with typed errors.
///
/// Every quad but the last goes through [`SEXTETS`] with one high-bit
/// check; the last quad, and any quad that check rejects, goes through
/// [`decode_quad`], which places the padding and names the offending
/// byte.
pub fn decode(s: &str) -> Result<Vec<u8>, WireError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(WireError::corrupt(
            bytes.len(),
            "base64 length not a multiple of 4",
        ));
    }
    let body = bytes.len().saturating_sub(4);
    let mut out = vec![0u8; body / 4 * 3];
    for (i, (quad, dst)) in bytes[..body]
        .chunks_exact(4)
        .zip(out.chunks_exact_mut(3))
        .enumerate()
    {
        let quad: [u8; 4] = quad.try_into().expect("chunks of four bytes");
        let [a, b, c, d] = quad.map(|byte| SEXTETS[usize::from(byte)]);
        if (a | b | c | d) & INVALID != 0 {
            let refused = decode_quad(&quad, i * 4, false, &mut Vec::new());
            return Err(refused.expect_err("a quad with a byte outside the alphabet is refused"));
        }
        let n = u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d);
        dst.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    if body < bytes.len() {
        decode_quad(&bytes[body..], body, true, &mut out)?;
    }
    Ok(out)
}

/// Decode the quad at byte `base` onto `out`, byte by byte: padding is
/// allowed only at the end of the `last` quad.
fn decode_quad(quad: &[u8], base: usize, last: bool, out: &mut Vec<u8>) -> Result<(), WireError> {
    let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
    if pads > 2 || (pads > 0 && !last) {
        return Err(WireError::corrupt(base, "misplaced base64 padding"));
    }
    let mut n = 0u32;
    for (j, &c) in quad.iter().take(4 - pads).enumerate() {
        if c == b'=' {
            return Err(WireError::corrupt(base + j, "misplaced base64 padding"));
        }
        n = (n << 6) | sextet(c, base + j)?;
    }
    n <<= 6 * pads as u32;
    out.push((n >> 16) as u8);
    if pads < 2 {
        out.push((n >> 8) as u8);
    }
    if pads < 1 {
        out.push(n as u8);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        for (plain, enc) in [
            (&b""[..], ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain), enc);
            assert_eq!(decode(enc).unwrap(), plain);
        }
    }

    #[test]
    fn binary_round_trip() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in ["Zg=", "Z!==", "====", "Zg==Zg==x", "Z===", "=g==", "Zm=v"] {
            assert!(decode(bad).is_err(), "{bad:?} should fail");
        }
        // Padding in a non-final quad.
        assert!(decode("Zg==Zm9v").is_err());
    }

    /// The byte-by-byte decoder the table decoder replaced, kept as its
    /// oracle.
    fn oracle(s: &str) -> Result<Vec<u8>, WireError> {
        let bytes = s.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(WireError::corrupt(
                bytes.len(),
                "base64 length not a multiple of 4",
            ));
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for (i, quad) in bytes.chunks_exact(4).enumerate() {
            let base = i * 4;
            let last = base + 4 == bytes.len();
            let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
            if pads > 2 || (pads > 0 && !last) {
                return Err(WireError::corrupt(base, "misplaced base64 padding"));
            }
            let mut n = 0u32;
            for (j, &c) in quad.iter().take(4 - pads).enumerate() {
                if c == b'=' {
                    return Err(WireError::corrupt(base + j, "misplaced base64 padding"));
                }
                n = (n << 6) | sextet(c, base + j)?;
            }
            n <<= 6 * pads as u32;
            out.push((n >> 16) as u8);
            if pads < 2 {
                out.push((n >> 8) as u8);
            }
            if pads < 1 {
                out.push(n as u8);
            }
        }
        Ok(out)
    }

    /// The outcome as comparable parts: the bytes, or the error's offset
    /// and message.
    fn outcome(r: Result<Vec<u8>, WireError>) -> Result<Vec<u8>, (usize, String)> {
        r.map_err(|e| match e {
            WireError::Corrupt { offset, detail } => (offset, detail),
            other => panic!("not a corrupt-input error: {other:?}"),
        })
    }

    #[test]
    fn table_decoder_matches_the_byte_decoder_on_corrupted_buffers() {
        // SplitMix64: a seeded stream with no dependency.
        let mut state = 0x05ee_db64_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let mut checked = [0usize; 5];
        for _ in 0..400 {
            let data: Vec<u8> = (0..next() % 4097).map(|_| next() as u8).collect();
            let clean = encode(&data);
            let mut cases = vec![(0, clean.clone())];
            if !clean.is_empty() {
                let at = next() % clean.len();
                let mut with = |kind: usize, from: usize, to: usize, put: &str| {
                    let mut case = clean.clone();
                    case.replace_range(from..to.min(clean.len()), put);
                    cases.push((kind, case));
                };
                // A byte outside the alphabet, `=` mid-string, a length that
                // is not a multiple of four, and a two-byte character whose
                // bytes both have the high bit set.
                with(1, at, at + 1, ["!", "-", "\n", " ", "_", "\0"][next() % 6]);
                with(2, at, at + 1, "=");
                with(3, at, at + 1, "");
                with(4, at, at + 2, "é");
            }
            for (kind, text) in cases {
                let want = outcome(oracle(&text));
                assert_eq!(outcome(decode(&text)), want, "case kind {kind}");
                if kind == 0 {
                    assert_eq!(want.as_deref(), Ok(&data[..]));
                }
                checked[kind] += 1;
            }
        }
        assert!(checked.iter().all(|&n| n > 50), "{checked:?}");
    }
}
