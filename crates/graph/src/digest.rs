//! Stable content digests.
//!
//! `std::hash` is explicitly *not* stable across Rust releases, so
//! digests that must compare equal across builds and toolchains (the
//! flight recorder's per-round joiner and coin digests, see
//! `arbmis_core::backend`) use this hand-rolled FNV-1a 128 instead: the
//! algorithm is frozen (offset basis and prime from the FNV spec), the
//! arithmetic is plain `u128` wrapping ops, and the output depends only
//! on the input bytes.

/// FNV-1a 128-bit offset basis (per the FNV reference parameters).
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime: `2^88 + 2^8 + 0x3b`.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a 128 hasher.
///
/// Not a `std::hash::Hasher` on purpose — the std trait invites mixing
/// with unstable std hashing, and this type exists precisely to avoid
/// that.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self
    }

    /// Absorbs a string's UTF-8 bytes, then a NUL separator so that
    /// `("ab","c")` and `("a","bc")` digest differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes());
        self.write(&[0])
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// The digest as 32 lowercase hex characters (fixed width).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

/// One-shot FNV-1a 128 of a byte slice.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_offset_basis() {
        // FNV-1a of the empty string is the offset basis by definition.
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        assert_eq!(Fnv128::new().hex(), "6c62272e07bb014262b821756295c58d");
    }

    #[test]
    fn digest_is_deterministic_and_discriminating() {
        assert_eq!(fnv128(b"gnp;d=4.0;n=50000"), fnv128(b"gnp;d=4.0;n=50000"));
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(b"ab"), fnv128(b"ba"));
        assert_ne!(fnv128(b""), fnv128(b"\0"));
    }

    #[test]
    fn write_str_separates_fields() {
        let mut a = Fnv128::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv128::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut h = Fnv128::new();
        h.write_u64(12345);
        assert_eq!(h.hex().len(), 32);
        assert!(h.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }
}
