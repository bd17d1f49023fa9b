//! Sparse active-set bookkeeping for the round engines.
//!
//! A [`Frontier`] is a two-level bitset over node ids: a packed
//! [`BitMask`] (one word per 64 nodes) plus a summary word per 64 words,
//! so membership updates are O(1), iteration is ascending and
//! proportional to the set bits (plus `n/4096` summary words), and
//! clearing only touches dirty words. The engines double-buffer two of
//! these per round — see DESIGN.md §10. The flat engine walks it in
//! word-aligned chunks ([`Frontier::iter_words`]), so every chunk of a
//! parallel sweep skips empty words the way the serial walk does. A walk
//! can also keep only the members another mask holds
//! ([`Frontier::iter_words_and`]): each membership word is ANDed with the
//! mask's word before its bits are visited.

use crate::bitmask::BitMask;
use arbmis_graph::NodeId;

/// A two-level bitset over `0..n` with ascending iteration.
#[derive(Clone, Debug)]
pub struct Frontier {
    /// The membership bits; bit `v % 64` of word `v / 64` ⇔ `v` is set.
    mask: BitMask,
    /// Bit `w % 64` of `summary[w / 64]` ⇔ `mask.words()[w] != 0`.
    summary: Vec<u64>,
}

impl Frontier {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> Self {
        let nwords = n.div_ceil(64);
        Frontier {
            mask: BitMask::new(n),
            summary: vec![0; nwords.div_ceil(64)],
        }
    }

    /// Inserts `v` (idempotent).
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.mask.set(v);
        let w = v >> 6;
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    /// Removes `v` (idempotent).
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        self.take(v);
    }

    /// Removes `v` and returns whether it was in the set: one
    /// test-and-clear of its word, with no branch on the bit.
    #[inline]
    pub fn take(&mut self, v: NodeId) -> bool {
        let (w, bit) = (v >> 6, 1u64 << (v & 63));
        let word = &mut self.mask.words_mut()[w];
        let was = *word & bit;
        *word &= !bit;
        let emptied = u64::from(*word == 0);
        self.summary[w >> 6] &= !(emptied << (w & 63));
        was != 0
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.mask.test(v)
    }

    /// The packed membership mask (for neighbor probes).
    #[inline]
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// Sets every bit in `0..n` in bulk (word fills, no per-node loop).
    pub fn fill(&mut self) {
        self.mask.set_all();
        let nwords = self.mask.words().len();
        self.summary.fill(u64::MAX);
        let tail = nwords & 63;
        if tail != 0 {
            *self.summary.last_mut().expect("tail implies a word") = (1u64 << tail) - 1;
        }
        if nwords == 0 {
            self.summary.fill(0);
        }
    }

    /// Empties the set, touching only dirty words.
    pub fn clear(&mut self) {
        let words = self.mask.words_mut();
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sbits = sw;
            while sbits != 0 {
                let w = (s << 6) + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                words[w] = 0;
            }
        }
        self.summary.fill(0);
    }

    /// Iterates members in ascending order. The set must not be mutated
    /// while the iterator is live (enforced by the borrow).
    pub fn iter(&self) -> FrontierIter<'_> {
        self.iter_words(0, self.mask.words().len())
    }

    /// Iterates the members in the word range `wlo..whi` (nodes
    /// `64·wlo..64·whi`) in ascending order, skipping empty words through
    /// the summary as [`iter`](Self::iter) does.
    pub fn iter_words(&self, wlo: usize, whi: usize) -> FrontierIter<'_> {
        self.iter_words_and(wlo, whi, Every)
    }

    /// [`iter_words`](Self::iter_words) restricted by `filter`: the
    /// members in `wlo..whi` whose bit `filter` keeps, ascending. A
    /// [`BitMask`] filter over the same `0..n` yields the members it also
    /// holds, at one extra word load per nonempty membership word.
    pub fn iter_words_and<F: WordFilter>(
        &self,
        wlo: usize,
        whi: usize,
        filter: F,
    ) -> FrontierIter<'_, F> {
        let sidx = wlo >> 6;
        FrontierIter {
            frontier: self,
            filter,
            sidx,
            sbits: self
                .summary
                .get(sidx)
                .map_or(0, |&s| s & (!0u64 << (wlo & 63))),
            widx: 0,
            wbits: 0,
            whi,
        }
    }
}

/// Which members of a [`Frontier`] a walk visits, decided a word at a
/// time: the walk visits the bits of `filter(w, word)` instead of the
/// membership word `word` of word index `w`.
pub trait WordFilter: Copy {
    /// The bits of membership word `w` to visit; a subset of `bits`.
    fn filter(self, w: usize, bits: u64) -> u64;
}

/// The filter that keeps every member: the plain walk.
#[derive(Clone, Copy, Debug, Default)]
pub struct Every;

impl WordFilter for Every {
    #[inline(always)]
    fn filter(self, _w: usize, bits: u64) -> u64 {
        bits
    }
}

/// Keeps the members that the mask also holds.
impl WordFilter for &BitMask {
    #[inline(always)]
    fn filter(self, w: usize, bits: u64) -> u64 {
        bits & self.words()[w]
    }
}

/// Ascending iterator over a [`Frontier`], restricted by a [`WordFilter`].
pub struct FrontierIter<'a, F = Every> {
    frontier: &'a Frontier,
    filter: F,
    /// Current summary word index.
    sidx: usize,
    /// Unconsumed bits of `summary[sidx]`.
    sbits: u64,
    /// Current word index (valid while `wbits != 0`).
    widx: usize,
    /// Unconsumed bits of `words[widx]`.
    wbits: u64,
    /// End of the word range (exclusive).
    whi: usize,
}

impl<F: WordFilter> Iterator for FrontierIter<'_, F> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.wbits != 0 {
                let v = (self.widx << 6) + self.wbits.trailing_zeros() as usize;
                self.wbits &= self.wbits - 1;
                return Some(v);
            }
            if self.sbits != 0 {
                self.widx = (self.sidx << 6) + self.sbits.trailing_zeros() as usize;
                if self.widx >= self.whi {
                    return None;
                }
                self.sbits &= self.sbits - 1;
                self.wbits = self
                    .filter
                    .filter(self.widx, self.frontier.mask.words()[self.widx]);
                continue;
            }
            self.sidx += 1;
            if self.sidx >= self.frontier.summary.len() || self.sidx << 6 >= self.whi {
                return None;
            }
            self.sbits = self.frontier.summary[self.sidx];
        }
    }

    /// [`next`](Self::next)'s walk as one loop over local cursors, so
    /// internal iteration (`for_each`, and every adapter built on
    /// `fold`) keeps them in registers instead of reloading them around
    /// each call of a large body.
    #[inline]
    fn fold<B, G: FnMut(B, NodeId) -> B>(self, init: B, mut f: G) -> B {
        let FrontierIter {
            frontier,
            filter,
            mut sidx,
            mut sbits,
            mut widx,
            mut wbits,
            whi,
        } = self;
        let (words, summary) = (frontier.mask.words(), &frontier.summary[..]);
        let mut acc = init;
        loop {
            while wbits != 0 {
                acc = f(acc, (widx << 6) + wbits.trailing_zeros() as usize);
                wbits &= wbits - 1;
            }
            if sbits != 0 {
                widx = (sidx << 6) + sbits.trailing_zeros() as usize;
                if widx >= whi {
                    return acc;
                }
                sbits &= sbits - 1;
                wbits = filter.filter(widx, words[widx]);
                continue;
            }
            sidx += 1;
            if sidx >= summary.len() || sidx << 6 >= whi {
                return acc;
            }
            sbits = summary[sidx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_iterate() {
        let mut f = Frontier::new(300);
        for v in [0, 1, 63, 64, 65, 200, 299] {
            f.insert(v);
        }
        f.insert(65); // idempotent
        assert!(f.contains(65));
        f.remove(65);
        f.remove(65); // idempotent
        assert!(!f.contains(65));
        let got: Vec<usize> = f.iter().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 200, 299]);
    }

    #[test]
    fn take_reports_membership_and_keeps_the_summary() {
        let mut f = Frontier::new(300);
        for v in [0, 63, 64, 200] {
            f.insert(v);
        }
        assert!(f.take(63));
        assert!(!f.take(63));
        assert!(!f.take(65));
        assert!(f.take(0));
        // Word 0 is now empty: the walk must skip it, not stop at it.
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![64, 200]);
        assert!(f.take(64) && f.take(200));
        assert_eq!(f.iter().count(), 0);
        f.insert(65);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut f = Frontier::new(10_000);
        for v in (0..10_000).step_by(97) {
            f.insert(v);
        }
        f.clear();
        assert_eq!(f.iter().count(), 0);
        f.insert(9_999);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![9_999]);
    }

    #[test]
    fn ascending_order_matches_reference_across_patterns() {
        // Dense, sparse, and word-boundary patterns against a Vec model.
        for (n, step) in [(1, 1), (64, 1), (65, 2), (4096, 31), (5000, 1)] {
            let mut f = Frontier::new(n);
            let expect: Vec<usize> = (0..n).step_by(step).collect();
            // Insert in a scrambled order; iteration must sort.
            for &v in expect.iter().rev() {
                f.insert(v);
            }
            assert_eq!(f.iter().collect::<Vec<_>>(), expect, "n={n} step={step}");
        }
    }

    #[test]
    fn empty_and_tiny_sets() {
        let f = Frontier::new(0);
        assert_eq!(f.iter().count(), 0);
        let mut f = Frontier::new(1);
        assert_eq!(f.iter().count(), 0);
        f.insert(0);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn fill_matches_inserting_every_node() {
        for n in [0, 1, 63, 64, 65, 4096, 4100, 5000] {
            let mut bulk = Frontier::new(n);
            bulk.fill();
            let mut one_by_one = Frontier::new(n);
            for v in 0..n {
                one_by_one.insert(v);
            }
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                one_by_one.iter().collect::<Vec<_>>(),
                "n={n}"
            );
            assert_eq!(bulk.mask(), one_by_one.mask(), "n={n}");
            // Removal keeps the summary consistent after a bulk fill.
            if n > 0 {
                bulk.remove(n - 1);
                assert_eq!(bulk.iter().count(), n - 1);
            }
            bulk.clear();
            assert_eq!(bulk.iter().count(), 0);
        }
    }

    #[test]
    fn word_ranges_concatenate_to_the_whole_walk() {
        let n = 64 * 64 * 3 + 17;
        let mut f = Frontier::new(n);
        for v in (0..n).step_by(37) {
            f.insert(v);
        }
        let words = n.div_ceil(64);
        for chunks in [1, 2, 3, 8, 64, words] {
            let mut joined = Vec::new();
            for c in 0..chunks {
                let (lo, hi) = (c * words / chunks, (c + 1) * words / chunks);
                let part: Vec<usize> = f.iter_words(lo, hi).collect();
                assert!(part.iter().all(|&v| (64 * lo..64 * hi).contains(&v)));
                joined.extend(part);
            }
            assert_eq!(joined, f.iter().collect::<Vec<_>>(), "chunks={chunks}");
        }
        assert_eq!(f.iter_words(words, words + 5).count(), 0);
        assert_eq!(Frontier::new(0).iter_words(0, 0).count(), 0);
    }

    /// A mask-filtered walk visits exactly the members the mask also
    /// holds, chunk by chunk, including words the filter empties and
    /// filter bits outside the frontier.
    #[test]
    fn filtered_word_ranges_visit_the_intersection() {
        let n = 64 * 64 * 2 + 40;
        let mut f = Frontier::new(n);
        let mut filter = BitMask::new(n);
        for v in (0..n).step_by(3) {
            f.insert(v);
        }
        for v in (0..n).step_by(5).filter(|v| v % 640 < 300) {
            filter.set(v);
        }
        let expect: Vec<usize> = f.iter().filter(|&v| filter.test(v)).collect();
        assert!(!expect.is_empty());
        let words = n.div_ceil(64);
        for chunks in [1, 2, 3, 8, words] {
            let mut joined = Vec::new();
            for c in 0..chunks {
                let (lo, hi) = (c * words / chunks, (c + 1) * words / chunks);
                joined.extend(f.iter_words_and(lo, hi, &filter));
            }
            assert_eq!(joined, expect, "chunks={chunks}");
        }
        assert_eq!(f.iter_words_and(0, words, Every).count(), f.iter().count());
        assert_eq!(
            f.iter_words_and(0, words, &BitMask::new(n)).count(),
            0,
            "an empty filter keeps nothing"
        );
    }

    /// `fold` (behind `for_each`) visits exactly what `next` does, from a
    /// fresh iterator and from one that `next` already advanced.
    #[test]
    fn fold_visits_what_next_visits() {
        let n = 64 * 64 * 2 + 40;
        let mut f = Frontier::new(n);
        for v in (0..n).step_by(7).chain(64 * 64..64 * 64 + 70) {
            f.insert(v);
        }
        let words = n.div_ceil(64);
        for (lo, hi) in [(0, words), (1, 70), (63, 65), (64, 66), (words - 1, words)] {
            let mut by_next = Vec::new();
            for v in f.iter_words(lo, hi) {
                by_next.push(v);
            }
            for skip in [0, 1, 9, 10, 80] {
                let mut it = f.iter_words(lo, hi);
                let head: Vec<usize> = (0..skip).map_while(|_| it.next()).collect();
                let all = it.fold(head, |mut all, v| {
                    all.push(v);
                    all
                });
                assert_eq!(all, by_next, "words {lo}..{hi}, skip {skip}");
            }
        }
    }

    #[test]
    fn mask_view_matches_membership() {
        let mut f = Frontier::new(130);
        for v in [0, 64, 129] {
            f.insert(v);
        }
        assert_eq!(f.mask().iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(f.mask().count_ones(), 3);
    }
}
