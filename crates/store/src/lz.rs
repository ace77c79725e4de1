//! Byte-oriented LZ compression for tape text payloads.
//!
//! The format is LZ4-flavoured: a stream of *sequences*, each a literal run
//! followed by a back-reference copy. One token byte packs both lengths
//! (`literal_len << 4 | match_len - 4`, nibble 15 = "read 255-run extension
//! bytes"), the match offset is 2 bytes little-endian (window 64 KiB). The
//! final sequence is literals-only: the decoder stops the moment the output
//! reaches the declared raw length, so no end marker is needed.
//!
//! Every payload is compressed independently — a frame can be decoded (or
//! skipped) at any subtree boundary without upstream state — and the
//! decoder is fully bounds-checked: a truncated or fabricated encoding
//! yields `None`, never a panic or an over-read.

/// Minimum back-reference length; shorter matches cost more than literals.
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (2-byte offset).
const MAX_OFFSET: usize = 65_535;
/// Hash-table slots for the greedy matcher (positions of 4-byte prefixes).
const HASH_SLOTS: usize = 1 << 12;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> 20) as usize & (HASH_SLOTS - 1)
}

fn push_len(dst: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        dst.push(255);
        extra -= 255;
    }
    dst.push(extra as u8);
}

fn emit(dst: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nib = literals.len().min(15) as u8;
    let match_nib = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15)) as u8;
    dst.push(lit_nib << 4 | match_nib);
    if literals.len() >= 15 {
        push_len(dst, literals.len() - 15);
    }
    dst.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        dst.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_len(dst, len - MIN_MATCH - 15);
        }
    }
}

/// Append the encoding of `src` to `dst`. The encoding is self-delimiting
/// only together with the raw length, which the tape stores alongside it.
pub(crate) fn compress(src: &[u8], dst: &mut Vec<u8>) {
    let mut table = [0usize; HASH_SLOTS]; // position + 1; 0 = empty
    let mut lit_start = 0;
    let mut i = 0;
    while i + MIN_MATCH <= src.len() {
        let h = hash4(&src[i..]);
        let cand = table[h];
        table[h] = i + 1;
        if cand > 0 {
            let c = cand - 1;
            if i - c <= MAX_OFFSET && src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH] {
                let mut len = MIN_MATCH;
                while i + len < src.len() && src[c + len] == src[i + len] {
                    len += 1;
                }
                emit(dst, &src[lit_start..i], Some((i - c, len)));
                i += len;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    emit(dst, &src[lit_start..], None);
}

/// Decode an encoding produced by [`compress`] back into exactly
/// `raw_len` bytes. Returns `None` on any structural violation: truncated
/// input, zero or out-of-window offsets, output over- or underrun, or
/// trailing garbage.
pub(crate) fn decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    loop {
        let token = *src.get(i)?;
        i += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            loop {
                let b = *src.get(i)?;
                i += 1;
                lit_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        let lits = src.get(i..i + lit_len)?;
        i += lit_len;
        if out.len() + lit_len > raw_len {
            return None;
        }
        out.extend_from_slice(lits);
        if out.len() == raw_len {
            // Literals-only final sequence; nothing may follow it.
            return (i == src.len()).then_some(out);
        }
        let offset = u16::from_le_bytes([*src.get(i)?, *src.get(i + 1)?]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return None;
        }
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if match_len - MIN_MATCH == 15 {
            loop {
                let b = *src.get(i)?;
                i += 1;
                match_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if out.len() + match_len > raw_len {
            return None;
        }
        // Byte-by-byte: overlapping copies (offset < match_len) replicate.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> usize {
        let mut enc = Vec::new();
        compress(src, &mut enc);
        assert_eq!(
            decompress(&enc, src.len()).as_deref(),
            Some(src),
            "roundtrip failed for {} bytes",
            src.len()
        );
        enc.len()
    }

    #[test]
    fn roundtrips_text_shapes() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"hello world");
        roundtrip(
            "the quick brown fox jumps over the lazy dog; \
                   the quick brown fox jumps again and again and again"
                .as_bytes(),
        );
        // Overlapping match (run-length): offset 1, long copy.
        let enc_len = roundtrip(&[b'a'; 1000]);
        assert!(enc_len < 30, "run of 1000 should collapse, got {enc_len}");
        // Long literal run forcing 255-run length extensions.
        let incompressible: Vec<u8> = (0..700u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        roundtrip(&incompressible);
    }

    #[test]
    fn repetitive_text_shrinks() {
        let src = "<name>Alonso Bourgeois</name>".repeat(40);
        let mut enc = Vec::new();
        compress(src.as_bytes(), &mut enc);
        assert!(
            enc.len() * 3 < src.len(),
            "repetitive text should compress ≥3×: {} -> {}",
            src.len(),
            enc.len()
        );
    }

    #[test]
    fn corrupt_encodings_are_rejected_not_panics() {
        let src = b"abcdabcdabcdabcd tail";
        let mut enc = Vec::new();
        compress(src, &mut enc);
        // Truncation at every prefix length.
        for cut in 0..enc.len() {
            assert_eq!(decompress(&enc[..cut], src.len()), None, "cut at {cut}");
        }
        // Wrong raw length in both directions.
        assert_eq!(decompress(&enc, src.len() - 1), None);
        assert_eq!(decompress(&enc, src.len() + 1), None);
        // Zero offset is invalid.
        assert_eq!(decompress(&[0x01, b'a', 0x00, 0x00], 10), None);
        // Offset pointing before the start of the output.
        assert_eq!(decompress(&[0x11, b'a', 0x09, 0x00], 10), None);
    }
}
