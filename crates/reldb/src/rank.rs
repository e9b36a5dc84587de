//! A rank bitmap over `u32` handles: which handles a column holds, and
//! where each one stands among them.
//!
//! Handles are dense small integers ([`ValuePool`](crate::ValuePool)
//! indexes), so a set of them is a direct-address bitmap of one bit per
//! handle up to the largest, and a handle's position among the set is the
//! number of set bits below it.  Two users share this one structure:
//! `hyperqd`'s answer frame ranks an answer's distinct values with it, and
//! the Yannakakis join's path expansion finds a key's run of rows with it
//! (`crate::yannakakis`).

/// A fixed bitmap that also answers "how many set bits lie below `i`":
/// each 64-bit word sits next to the count of set bits in the words before
/// it, so a rank is one block read and one popcount.
#[derive(Debug, Clone)]
pub struct RankedBits {
    /// `(word, set bits in all earlier words)`.
    blocks: Vec<(u64, u32)>,
    /// How many bits are set.
    count: usize,
}

impl RankedBits {
    /// The bitmap over `0..bits` with exactly `marks` set.
    ///
    /// # Panics
    /// Panics if a mark is `bits` or more.
    pub fn marking(bits: usize, marks: impl Iterator<Item = usize>) -> RankedBits {
        let mut blocks = vec![(0u64, 0u32); bits.div_ceil(64)];
        for i in marks {
            blocks[i / 64].0 |= 1 << (i % 64);
        }
        let mut before = 0;
        for block in &mut blocks {
            block.1 = before;
            before += block.0.count_ones();
        }
        RankedBits {
            blocks,
            count: before as usize,
        }
    }

    /// How many bits are set.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of set bits below `i`: the position of `i` among the marks,
    /// if `i` is one.
    #[inline]
    pub fn rank(&self, i: usize) -> u32 {
        let (word, before) = self.blocks[i / 64];
        before + (word & ((1 << (i % 64)) - 1)).count_ones()
    }

    /// The position of `i` among the marks, or `None` when `i` is not one
    /// (a bit past the end included): [`RankedBits::rank`] and the
    /// membership test from one block read.
    #[inline]
    pub(crate) fn position(&self, i: usize) -> Option<u32> {
        let &(word, before) = self.blocks.get(i / 64)?;
        let below = word & ((1 << (i % 64)) - 1);
        ((word >> (i % 64)) & 1 == 1).then(|| before + below.count_ones())
    }

    /// The marks, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, &(word, _))| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| b * 64 + w.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_bits_rank_and_enumerate_across_word_boundaries() {
        let marks = [0usize, 1, 63, 64, 65, 127, 128, 300, 319];
        let bits = RankedBits::marking(320, marks.iter().copied());
        assert_eq!(bits.ones().collect::<Vec<_>>(), marks);
        assert_eq!(bits.count(), marks.len());
        for (position, &i) in marks.iter().enumerate() {
            assert_eq!(bits.rank(i) as usize, position, "mark {i}");
            assert_eq!(bits.position(i), Some(position as u32), "mark {i}");
        }
        // Unmarked bits rank as the number of marks below them, and have
        // no position; neither has a bit past the end.
        assert_eq!(bits.rank(2), 2);
        assert_eq!(bits.rank(299), 7);
        for i in [2, 62, 66, 299, 320, 1 << 20] {
            assert_eq!(bits.position(i), None, "bit {i}");
        }
        assert!(RankedBits::marking(0, std::iter::empty())
            .ones()
            .next()
            .is_none());
        let full = RankedBits::marking(130, 0..130);
        assert_eq!(full.ones().count(), 130);
        assert_eq!(full.rank(129), 129);
        assert_eq!(full.position(129), Some(129));
    }
}
