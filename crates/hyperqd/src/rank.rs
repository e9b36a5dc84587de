//! Ranking an answer's values: the first half of
//! [`answer_frame`](crate::server::answer_frame)'s canonical order.
//!
//! The answer arrives as `u32` handles into a [`ValuePool`].  [`rank_cells`]
//! turns the distinct values behind those handles into the frame's cell
//! list — each value's rendered token, in `Value` order — and rewrites
//! every handle as its position in that list.  The distinct handles are
//! marked in a direct-address bitmap ([`RankedBits`]) and taken in value
//! order along one path: in an ordered pool (a loaded snapshot's: handle
//! order is value order, [`ValuePool::is_ordered`]) that is ascending
//! handle order, so nothing is compared; in any other pool it is
//! [`value_order`], the sort the snapshot saver orders a dictionary by.

use crate::json::{write_escaped, write_int};
use crate::protocol::Tokens;
use reldb::{value_order, Value, ValuePool};

/// A fixed bitmap that also answers "how many set bits lie below `i`":
/// each 64-bit word sits next to the count of set bits in the words before
/// it, so a rank is one block read and one popcount.
struct RankedBits {
    /// `(word, set bits in all earlier words)`.
    blocks: Vec<(u64, u32)>,
    /// How many bits are set.
    count: usize,
}

impl RankedBits {
    /// The bitmap over `0..bits` with exactly `marks` set.
    fn marking(bits: usize, marks: impl Iterator<Item = usize>) -> RankedBits {
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

    /// Number of set bits below `i`: the position of `i` among the marks,
    /// if `i` is one.
    #[inline]
    fn rank(&self, i: usize) -> u32 {
        let (word, before) = self.blocks[i / 64];
        before + (word & ((1 << (i % 64)) - 1)).count_ones()
    }

    /// The marks, ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, &(word, _))| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| b * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// The distinct values behind `handles` (handles of `pool`) as rendered
/// tokens in [`Value`] order, and `handles` rewritten as positions in that
/// list.
///
/// One sequence, whatever the pool:
/// 1. the distinct handles are marked in a bitmap — one *bit* per pool
///    handle up to the largest used, so a small answer over a large
///    dictionary stays small;
/// 2. they are taken in value order: ascending handle order in an ordered
///    pool ([`ValuePool::is_ordered`]), [`value_order`] in any other;
/// 3. their tokens are rendered in that order (the integer writer is
///    `fmt`-free for this);
/// 4. every cell is rewritten as `position[slot(h)]`, where `slot(h)` is
///    `h` itself when the answer has more cells than its pool has handles
///    (a slot per handle saves a popcount per cell), and `h`'s rank among
///    the marks otherwise.  In an ordered pool that rank already *is* the
///    position, so a non-direct answer there builds no table.
///
/// Steps 2 and 3 run under the pool lock, which is the whole database's:
/// in an ordered pool that is the sweep and the formatting; in any other,
/// the integer and string sorts too.
pub(crate) fn rank_cells(pool: &ValuePool, handles: &[u32]) -> (Tokens, Vec<u32>) {
    let Some(&max_handle) = handles.iter().max() else {
        return (Tokens::with_capacity(0, 0), Vec::new());
    };
    let seen = RankedBits::marking(max_handle as usize + 1, handles.iter().map(|&h| h as usize));
    let distinct = seen.count;
    let marks = || seen.ones().map(|h| h as u32);
    // `by_value` is `None` where handle order is value order: the marks,
    // ascending, are then the handles in value order.
    let (tokens, by_value) = pool.with_values(|values, ordered| {
        let by_value = (!ordered).then(|| value_order(values, marks()));
        let mut tokens = Tokens::with_capacity(distinct, distinct * TOKEN_GUESS);
        let render = |h: u32| {
            tokens.push(|out| match &values[h as usize] {
                Value::Int(n) => write_int(*n, out),
                Value::Str(s) => write_escaped(s, out),
            })
        };
        match &by_value {
            Some(order) => order.iter().copied().for_each(render),
            None => marks().for_each(render),
        }
        (tokens, by_value)
    });

    let direct = (max_handle as usize) < handles.len();
    if by_value.is_none() && !direct {
        let ranked = handles.iter().map(|&h| seen.rank(h as usize)).collect();
        return (tokens, ranked);
    }
    let slot = |h: u32| {
        if direct {
            h as usize
        } else {
            seen.rank(h as usize) as usize
        }
    };
    let slots = if direct {
        max_handle as usize + 1
    } else {
        distinct
    };
    let mut position = vec![0u32; slots];
    let place = |(i, h): (u32, u32)| position[slot(h)] = i;
    // Consumed here, so the sorted list is freed before the rewrite below
    // allocates a position per cell.  Peak RSS notices: on `scale-cold` (a
    // 2-vCPU box), a list of the distinct handles that lived through the
    // rewrite read 4 MiB higher.
    match by_value {
        Some(order) => (0..).zip(order).for_each(place),
        None => (0..).zip(marks()).for_each(place),
    }
    let ranked = handles.iter().map(|&h| position[slot(h)]).collect();
    (tokens, ranked)
}

/// Bytes reserved per token before any is written: a comma and up to
/// eleven digits or a nine-byte string, with its quotes, fit in twelve.
const TOKEN_GUESS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_bits_rank_and_enumerate_across_word_boundaries() {
        let marks = [0usize, 1, 63, 64, 65, 127, 128, 300, 319];
        let bits = RankedBits::marking(320, marks.iter().copied());
        assert_eq!(bits.ones().collect::<Vec<_>>(), marks);
        for (position, &i) in marks.iter().enumerate() {
            assert_eq!(bits.rank(i) as usize, position, "mark {i}");
        }
        // Unmarked bits rank as the number of marks below them.
        assert_eq!(bits.rank(2), 2);
        assert_eq!(bits.rank(299), 7);
        assert!(RankedBits::marking(0, std::iter::empty())
            .ones()
            .next()
            .is_none());
        let full = RankedBits::marking(130, 0..130);
        assert_eq!(full.ones().count(), 130);
        assert_eq!(full.rank(129), 129);
    }
}
