//! Ranking an answer's values without comparing them: the first half of
//! [`answer_frame`](crate::server::answer_frame)'s canonical order.
//!
//! The answer arrives as `u32` handles into a [`ValuePool`] whose handle
//! order is interning order, unrelated to [`Value`] order.  [`rank_cells`]
//! turns the distinct values behind those handles into the frame's cell
//! list, in `Value` order, and rewrites every handle as its position in
//! that list.  Handles, and integers whose range is dense enough, are
//! ranked by direct-address bitmaps ([`RankedBits`]) instead of sorts, and
//! the dictionary is read once, front to back.

use crate::json::Json;
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

/// The distinct values behind `handles` (handles of `pool`) as JSON cells
/// in [`Value`] order, and `handles` rewritten as positions in that list.
///
/// The distinct handles are marked in a bitmap — one *bit* per pool handle
/// up to the largest used, so a small answer over a large dictionary stays
/// small — and the dictionary is swept once in ascending handle order.
/// That sweep, and the sort of whatever strings it finds, are all that runs
/// under the pool lock.  Integers are then ranked by a second bitmap over
/// `[min, max]` whenever that range costs at most 8 bits per answer cell
/// (+ 1024: the rule `reldb`'s dense semijoin mask uses); a sparser range,
/// or one whose width overflows, sorts the integers instead.
pub(crate) fn rank_cells(pool: &ValuePool, handles: &[u32]) -> (Vec<Json>, Vec<u32>) {
    let Some(&max_handle) = handles.iter().max() else {
        return (Vec::new(), Vec::new());
    };
    let seen = RankedBits::marking(max_handle as usize + 1, handles.iter().map(|&h| h as usize));
    // `position[slot(h)]` is where handle `h`'s value lands in `cells`.  An
    // answer with more cells than its pool has handles (it repeats values)
    // can afford a slot per handle, which saves a popcount per cell;
    // otherwise the distinct handles are numbered and get one slot each.
    let direct = (max_handle as usize) < handles.len();
    let slot = |h: usize| if direct { h } else { seen.rank(h) as usize };
    let distinct = seen.count;
    let slots = if direct {
        max_handle as usize + 1
    } else {
        distinct
    };
    let mut position = vec![0u32; slots];
    let (mut ints, strs) = pool.with_values(|values| {
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
        for (i, &(_, slot)) in strs.iter().enumerate() {
            position[slot as usize] = (ints.len() + i) as u32;
        }
        let strs: Vec<Json> = strs.into_iter().map(|(s, _)| Json::str(s)).collect();
        (ints, strs)
    });
    let mut cells = Vec::with_capacity(distinct);
    match dense_int_range(&ints, handles.len()) {
        Some((min, range)) => {
            let offset = |n: i64| (n - min) as usize;
            let present = RankedBits::marking(range, ints.iter().map(|&(n, _)| offset(n)));
            for &(n, slot) in &ints {
                position[slot as usize] = present.rank(offset(n));
            }
            cells.extend(present.ones().map(|i| Json::Int(min + i as i64)));
        }
        None => {
            ints.sort_unstable();
            for (i, &(n, slot)) in ints.iter().enumerate() {
                position[slot as usize] = i as u32;
                cells.push(Json::Int(n));
            }
        }
    }
    cells.extend(strs);
    let ranked = handles
        .iter()
        .map(|&h| position[slot(h as usize)])
        .collect();
    (cells, ranked)
}

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
