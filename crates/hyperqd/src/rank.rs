//! Ranking an answer's values without comparing them: the first half of
//! [`answer_frame`](crate::server::answer_frame)'s canonical order.
//!
//! The answer arrives as `u32` handles into a [`ValuePool`].  [`rank_cells`]
//! turns the distinct values behind those handles into the frame's cell
//! list — each value's rendered token, in `Value` order — and rewrites
//! every handle as its position in that list.  The distinct handles are
//! marked in a direct-address bitmap ([`RankedBits`]) and the dictionary is
//! read once, front to back.  In an ordered pool (a loaded snapshot's:
//! handle order is value order, [`ValuePool::is_ordered`]) a handle's rank
//! among the marks *is* its value's rank, so nothing is compared at all;
//! otherwise strings are sorted and integers ranked by a second bitmap
//! where their range is dense enough, sorted where it is not.

use crate::json::{write_escaped, write_int};
use crate::protocol::Tokens;
use reldb::{Value, ValuePool};

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
/// The distinct handles are marked in a bitmap — one *bit* per pool handle
/// up to the largest used, so a small answer over a large dictionary stays
/// small — and the dictionary is swept once in ascending handle order,
/// under the pool lock.  In an ordered pool that sweep also renders every
/// token (the integer writer is `fmt`-free for this), and a handle's
/// position is its rank among the marks: the lock is held for formatting,
/// and no value is compared.  Otherwise the sweep collects the integers,
/// and sorts and renders the strings, under the lock; the integers are then
/// ranked by a second bitmap over `[min, max]` whenever that range costs at
/// most 8 bits per answer cell (+ 1024: the rule `reldb`'s dense semijoin
/// mask uses); a sparser range, or one whose width overflows, sorts them
/// instead.
pub(crate) fn rank_cells(pool: &ValuePool, handles: &[u32]) -> (Tokens, Vec<u32>) {
    let Some(&max_handle) = handles.iter().max() else {
        return (Tokens::with_capacity(0, 0), Vec::new());
    };
    let seen = RankedBits::marking(max_handle as usize + 1, handles.iter().map(|&h| h as usize));
    let distinct = seen.count;
    let in_handle_order = pool.with_values(|values, ordered| {
        ordered.then(|| {
            let mut tokens = Tokens::with_capacity(distinct, distinct * TOKEN_GUESS);
            for h in seen.ones() {
                tokens.push(|out| match &values[h] {
                    Value::Int(n) => write_int(*n, out),
                    Value::Str(s) => write_escaped(s, out),
                });
            }
            tokens
        })
    });
    if let Some(tokens) = in_handle_order {
        let ranked = handles.iter().map(|&h| seen.rank(h as usize)).collect();
        return (tokens, ranked);
    }

    // `position[slot(h)]` is where handle `h`'s value lands in the list.
    // An answer with more cells than its pool has handles (it repeats
    // values) can afford a slot per handle, which saves a popcount per
    // cell; otherwise the distinct handles are numbered and get one slot
    // each.
    let direct = (max_handle as usize) < handles.len();
    let slot = |h: usize| if direct { h } else { seen.rank(h) as usize };
    let slots = if direct {
        max_handle as usize + 1
    } else {
        distinct
    };
    let mut position = vec![0u32; slots];
    let (mut ints, str_tokens) = pool.with_values(|values, _| {
        let (mut ints, mut strs) = (Vec::with_capacity(distinct), Vec::new());
        for (number, h) in seen.ones().enumerate() {
            let slot = if direct { h } else { number } as u32;
            match &values[h] {
                Value::Int(n) => ints.push((*n, slot)),
                Value::Str(s) => strs.push((s.as_str(), slot)),
            }
        }
        // `Value` orders every `Int` before every `Str`; keys are distinct,
        // so the slot in each pair never decides.
        strs.sort_unstable();
        let mut tokens = Tokens::with_capacity(strs.len(), strs.len() * TOKEN_GUESS);
        for (i, &(s, slot)) in strs.iter().enumerate() {
            position[slot as usize] = (ints.len() + i) as u32;
            tokens.push(|out| write_escaped(s, out));
        }
        (ints, tokens)
    });
    let mut tokens = Tokens::with_capacity(distinct, distinct * TOKEN_GUESS);
    match dense_int_range(&ints, handles.len()) {
        Some((min, range)) => {
            let offset = |n: i64| (n - min) as usize;
            let present = RankedBits::marking(range, ints.iter().map(|&(n, _)| offset(n)));
            for &(n, slot) in &ints {
                position[slot as usize] = present.rank(offset(n));
            }
            for i in present.ones() {
                tokens.push(|out| write_int(min + i as i64, out));
            }
        }
        None => {
            ints.sort_unstable();
            for (i, &(n, slot)) in ints.iter().enumerate() {
                position[slot as usize] = i as u32;
                tokens.push(|out| write_int(n, out));
            }
        }
    }
    tokens.append(str_tokens);
    let ranked = handles
        .iter()
        .map(|&h| position[slot(h as usize)])
        .collect();
    (tokens, ranked)
}

/// Bytes reserved per token before any is written: a comma and up to
/// eleven digits or a nine-byte string, with its quotes, fit in twelve.
const TOKEN_GUESS: usize = 12;

/// `(min, max − min + 1)` of the integers when a bitmap over that range
/// costs at most 8 bits per answer cell + 1024; `None` when it does not, or
/// when the width does not fit `usize` (`i64::MIN..=i64::MAX`), or there
/// are no integers.
fn dense_int_range(ints: &[(i64, u32)], cells: usize) -> Option<(i64, usize)> {
    let (min, max) = ints
        .iter()
        .map(|&(n, _)| (n, n))
        .reduce(|(lo, hi), (n, _)| (lo.min(n), hi.max(n)))?;
    let range = usize::try_from(max.checked_sub(min)?)
        .ok()?
        .checked_add(1)?;
    (range <= cells.saturating_mul(8).saturating_add(1024)).then_some((min, range))
}

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

    #[test]
    fn the_int_bitmap_is_taken_up_to_eight_bits_per_cell_plus_floor() {
        let ints = |lo: i64, hi: i64| [(lo, 0u32), (hi, 1)];
        assert_eq!(dense_int_range(&ints(5, 5 + 1023), 0), Some((5, 1024)));
        assert_eq!(dense_int_range(&ints(5, 5 + 1024), 0), None);
        assert_eq!(dense_int_range(&ints(-39, 1000), 2), Some((-39, 1040)));
        assert_eq!(dense_int_range(&ints(-40, 1000), 2), None);
        // A width that overflows is "does not fit", not a wrapped small one.
        assert_eq!(dense_int_range(&ints(i64::MIN, i64::MAX), usize::MAX), None);
        assert_eq!(dense_int_range(&ints(-1, i64::MAX), usize::MAX), None);
        assert_eq!(
            dense_int_range(&ints(i64::MIN, i64::MIN + 9), 0),
            Some((i64::MIN, 10))
        );
        assert_eq!(dense_int_range(&[], 100), None);
    }
}
