//! Streaming FNV-1a 64 over output bytes, paired with the byte count.
//!
//! `gen` fingerprints each reference output once; `e2e` and `layers` fold
//! the bytes they receive chunk by chunk, so no process ever holds an
//! output whole. FNV is sequential, so a reference can be extended by the
//! CLI's trailing newline without recomputing it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: u64,
    pub hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
        self.len += bytes.len() as u64;
    }

    pub fn of(bytes: &[u8]) -> Fingerprint {
        let mut f = Fingerprint::default();
        f.update(bytes);
        f
    }

    /// The fingerprint of these bytes followed by `suffix`.
    pub fn extended(mut self, suffix: &[u8]) -> Fingerprint {
        self.update(suffix);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_does_not_matter_and_suffix_extends() {
        let whole = Fingerprint::of(b"<out>JimLi</out>\n");
        let mut parts = Fingerprint::default();
        parts.update(b"<out>Jim");
        parts.update(b"");
        parts.update(b"Li</out>");
        assert_eq!(parts, Fingerprint::of(b"<out>JimLi</out>"));
        assert_eq!(parts.extended(b"\n"), whole);
        assert_ne!(whole, Fingerprint::of(b"<out>JimLi</out>"));
        // FNV-1a 64 test vector.
        assert_eq!(Fingerprint::of(b"a").hash, 0xaf63dc4c8601ec8c);
    }
}
