//! Word-packed boolean masks over node ids.
//!
//! A [`BitMask`] stores one bit per node in `u64` words: membership
//! tests, sets, and clears are O(1) single-word operations, iteration
//! walks set bits in ascending order via `trailing_zeros` (64 nodes per
//! word), and bulk fill/clear are `memset`-speed word writes. The flat
//! MIS engine keeps its `active` / `marked` / `in_mis` / `bad` masks in
//! this form so a neighbor-flag probe touches 1 bit of a compact array
//! (n/8 bytes) instead of 1 byte of an n-byte array — at 10⁷ nodes the
//! whole mask fits in L2 where the byte array spilled to DRAM.
//!
//! The unused tail bits of the last word are always zero; every mutator
//! maintains this, so derived equality and [`count_ones`] are exact.
//!
//! [`count_ones`]: BitMask::count_ones

use arbmis_graph::NodeId;

/// A fixed-capacity packed bitset over `0..n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitMask {
    n: usize,
    /// Bit `v % 64` of `words[v / 64]` ⇔ `v` is set.
    words: Vec<u64>,
}

impl BitMask {
    /// An all-zero mask over `0..n`.
    pub fn new(n: usize) -> Self {
        BitMask {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Packs a `&[bool]` mask.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut m = BitMask::new(bools.len());
        for (v, &b) in bools.iter().enumerate() {
            if b {
                m.set(v);
            }
        }
        m
    }

    /// Unpacks to a `&[bool]`-style mask of length `n`. Writes only the
    /// set bits into a zeroed vector, so a sparse mask costs `O(n/64)`
    /// word reads plus its set bits.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut bools = vec![false; self.n];
        for v in self.iter() {
            bools[v] = true;
        }
        bools
    }

    /// Capacity (number of addressable bits).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether bit `v` is set.
    #[inline]
    pub fn test(&self, v: NodeId) -> bool {
        self.words[v >> 6] & (1u64 << (v & 63)) != 0
    }

    /// Sets bit `v` (idempotent).
    #[inline]
    pub fn set(&mut self, v: NodeId) {
        self.words[v >> 6] |= 1u64 << (v & 63);
    }

    /// Clears bit `v` (idempotent).
    #[inline]
    pub fn clear(&mut self, v: NodeId) {
        self.words[v >> 6] &= !(1u64 << (v & 63));
    }

    /// Sets every bit in `0..n` (tail bits stay zero).
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        let tail = self.n & 63;
        if tail != 0 {
            *self.words.last_mut().expect("tail implies a word") = (1u64 << tail) - 1;
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (bit `v % 64` of word `v / 64`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words, for word-aligned bulk writers (the flat
    /// engine's parallel sweep fills disjoint word ranges). Callers must
    /// keep the tail bits of the last word zero.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Ascending iterator over set bits.
    pub fn iter(&self) -> SetBits<'_> {
        self.iter_words(0, self.words.len())
    }

    /// Ascending iterator over set bits in the word range `wlo..whi`
    /// (bit ids are absolute: word `w` holds bits `64w..64w + 64`).
    pub fn iter_words(&self, wlo: usize, whi: usize) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            widx: wlo,
            whi: whi.min(self.words.len()),
            bits: 0,
        }
    }
}

impl PartialEq<[bool]> for BitMask {
    fn eq(&self, other: &[bool]) -> bool {
        self.n == other.len() && (0..self.n).all(|v| self.test(v) == other[v])
    }
}

impl PartialEq<Vec<bool>> for BitMask {
    fn eq(&self, other: &Vec<bool>) -> bool {
        self == &other[..]
    }
}

/// Ascending iterator over the set bits of a [`BitMask`] word range.
/// Created by [`BitMask::iter`] / [`BitMask::iter_words`].
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Next word to load once `bits` is exhausted.
    widx: usize,
    /// One past the last word to visit.
    whi: usize,
    /// Unconsumed bits of word `widx - 1`.
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            if self.widx >= self.whi {
                return None;
            }
            self.bits = self.words[self.widx];
            self.widx += 1;
        }
        let v = ((self.widx - 1) << 6) + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test_roundtrip() {
        let mut m = BitMask::new(200);
        for v in [0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!m.test(v));
            m.set(v);
            assert!(m.test(v));
        }
        m.set(64); // idempotent
        assert_eq!(m.count_ones(), 8);
        m.clear(64);
        m.clear(64); // idempotent
        assert!(!m.test(64));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![0, 1, 63, 65, 127, 128, 199]
        );
    }

    #[test]
    fn set_all_masks_the_tail() {
        for n in [0, 1, 63, 64, 65, 130] {
            let mut m = BitMask::new(n);
            m.set_all();
            assert_eq!(m.count_ones(), n, "n={n}");
            assert_eq!(m.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            let full = BitMask::from_bools(&vec![true; n]);
            assert_eq!(m, full, "set_all must equal bit-by-bit fill at n={n}");
            m.clear_all();
            assert_eq!(m.count_ones(), 0);
        }
    }

    #[test]
    fn bools_roundtrip_and_slice_equality() {
        let bools: Vec<bool> = (0..150).map(|v| v % 3 == 0 || v % 7 == 0).collect();
        let m = BitMask::from_bools(&bools);
        assert_eq!(m.to_bools(), bools);
        assert_eq!(m, bools[..]);
        assert_eq!(m, bools);
        let mut other = bools.clone();
        other[149] = !other[149];
        assert!(m != other[..]);
        assert!(m != bools[..149]); // length mismatch
    }

    #[test]
    fn word_range_iteration() {
        let mut m = BitMask::new(300);
        for v in [3, 63, 64, 100, 191, 192, 299] {
            m.set(v);
        }
        // Words 1..3 hold bits 64..192.
        assert_eq!(m.iter_words(1, 3).collect::<Vec<_>>(), vec![64, 100, 191]);
        assert_eq!(m.iter_words(0, 1).collect::<Vec<_>>(), vec![3, 63]);
        assert_eq!(m.iter_words(3, 5).collect::<Vec<_>>(), vec![192, 299]);
        assert_eq!(m.iter_words(2, 2).count(), 0);
        // Out-of-range upper bound clamps.
        assert_eq!(m.iter_words(4, 99).collect::<Vec<_>>(), vec![299]);
    }

    #[test]
    fn empty_mask() {
        let m = BitMask::new(0);
        assert_eq!(m.n(), 0);
        assert_eq!(m.count_ones(), 0);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.to_bools(), Vec::<bool>::new());
    }
}
