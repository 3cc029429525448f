//! Bit-parallel column bitmaps and popcount counting kernels.
//!
//! A sparse column is the set `C_i` of rows holding a 1; packing that set
//! into a `u64` row-bitmap turns `|C_i ∩ C_j|` into an AND-popcount scan:
//! `⌈n/64⌉` word operations regardless of how dense the columns are. This
//! is the bit-vector transaction representation that Bashir, Jan & Baig
//! identify as the key to fast exact support counting in the
//! no-minimum-support regime — once candidate generation is cheap, exact
//! pair counting dominates, and 64 rows per instruction is the cheapest
//! exact count there is.
//!
//! Two entry points:
//!
//! * [`BitMatrix`] — per-column bitmaps for all (or a selected subset of)
//!   the columns of a [`SparseMatrix`], with a blocked all-pairs driver
//!   ([`BitMatrix::for_each_cooccurring_pair`]) that tiles columns so each
//!   tile pair stays cache-resident while its `block²` popcount scans run.
//! * [`intersection_size_scratch`] — one dense pair, packed into reusable
//!   thread-local bitmaps.
//!
//! Memory cost: `⌈n/64⌉ · 8 ≈ n/8` bytes per materialized column. The
//! dispatch heuristics in [`column`](crate::column) and
//! [`stats`](crate::stats) only engage these kernels when that cost is
//! amortized (dense-enough columns, or many pairs per built column).

use crate::csc::SparseMatrix;

/// Number of rows packed per bitmap word.
const WORD_BITS: u32 = 64;

/// Words needed for an `n_rows`-bit bitmap.
#[inline]
#[must_use]
pub fn words_for(n_rows: u32) -> usize {
    (n_rows as usize).div_ceil(WORD_BITS as usize)
}

/// Sets the bits of `rows` in `words` (which must already be zeroed and
/// sized by [`words_for`]).
#[inline]
fn fill_words(words: &mut [u64], rows: &[u32]) {
    for &r in rows {
        words[(r / WORD_BITS) as usize] |= 1u64 << (r % WORD_BITS);
    }
}

/// `|a ∩ b|` over two bitmaps: AND-popcount on the CPU's kernel arm
/// ([`crate::kernel`] — AVX2 Harley–Seal when available, the unrolled
/// scalar loop otherwise). Every arm returns identical counts.
#[must_use]
pub fn intersection_size_words(a: &[u64], b: &[u64]) -> usize {
    crate::kernel::and_popcount(a, b)
}

/// Column tile width of the blocked all-pairs driver. 64 columns of a
/// 16k-row matrix are 16 KiB of bitmap — two tiles fit comfortably in L1,
/// so every word is read once per tile pair instead of once per column
/// pair.
pub const PAIR_BLOCK_COLS: usize = 64;

/// Per-column `u64` row-bitmaps for a set of CSC columns.
///
/// Built either over every column ([`BitMatrix::from_csc`]) or over a
/// selected candidate subset ([`BitMatrix::from_csc_subset`]), at
/// `⌈n/64⌉ · 8` bytes per materialized column.
///
/// # Examples
///
/// ```
/// use sfa_matrix::{bitmap::BitMatrix, SparseMatrix};
///
/// let m = SparseMatrix::from_columns(4, vec![
///     vec![0, 1], vec![0, 1, 2], vec![2, 3],
/// ]).unwrap();
/// let bits = BitMatrix::from_csc(&m);
/// assert_eq!(bits.intersection_size(0, 1), 2);
/// assert_eq!(bits.intersection_size(0, 2), 0);
/// ```
#[derive(Debug, Clone)]
pub struct BitMatrix {
    n_rows: u32,
    n_cols: usize,
    words_per_col: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Materializes every column of `matrix`.
    #[must_use]
    pub fn from_csc(matrix: &SparseMatrix) -> Self {
        let cols: Vec<u32> = (0..matrix.n_cols()).collect();
        Self::from_csc_subset(matrix, &cols)
    }

    /// Materializes only the listed columns, in the order given; bitmap
    /// index `t` corresponds to `cols[t]`.
    ///
    /// # Panics
    ///
    /// Panics if a column id is out of range.
    #[must_use]
    pub fn from_csc_subset(matrix: &SparseMatrix, cols: &[u32]) -> Self {
        let words_per_col = words_for(matrix.n_rows());
        let mut words = vec![0u64; words_per_col * cols.len()];
        for (t, &j) in cols.iter().enumerate() {
            let slot = &mut words[t * words_per_col..(t + 1) * words_per_col];
            fill_words(slot, matrix.column(j));
        }
        Self {
            n_rows: matrix.n_rows(),
            n_cols: cols.len(),
            words_per_col,
            words,
        }
    }

    /// Number of materialized columns.
    #[must_use]
    pub const fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The number of rows each bitmap spans.
    #[must_use]
    pub const fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Resident size of the bitmap payload in bytes (`≈ n/8` per column).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The bitmap words of materialized column `t`.
    #[must_use]
    pub fn column_words(&self, t: usize) -> &[u64] {
        &self.words[t * self.words_per_col..(t + 1) * self.words_per_col]
    }

    /// `|C_i ∩ C_j|` of materialized columns `a` and `b` by AND-popcount.
    #[must_use]
    pub fn intersection_size(&self, a: usize, b: usize) -> usize {
        intersection_size_words(self.column_words(a), self.column_words(b))
    }

    /// Blocked all-pairs driver: calls `f(a, b, |C_a ∩ C_b|)` for every
    /// materialized pair `a < b` whose intersection is nonzero, tiling
    /// columns in [`PAIR_BLOCK_COLS`]-wide blocks so both tiles stay
    /// cache-resident across the inner `block²` scans.
    ///
    /// The visit order is deterministic (fixed tiling) but not plain
    /// lexicographic; callers that need an order sort afterwards.
    pub fn for_each_cooccurring_pair<F: FnMut(usize, usize, usize)>(&self, mut f: F) {
        let m = self.n_cols;
        for bi in (0..m).step_by(PAIR_BLOCK_COLS) {
            let bi_end = (bi + PAIR_BLOCK_COLS).min(m);
            // Diagonal tile: upper triangle within the block.
            for a in bi..bi_end {
                for b in (a + 1)..bi_end {
                    let inter = self.intersection_size(a, b);
                    if inter > 0 {
                        f(a, b, inter);
                    }
                }
            }
            // Off-diagonal tiles: full block × block rectangles.
            for bj in (bi_end..m).step_by(PAIR_BLOCK_COLS) {
                let bj_end = (bj + PAIR_BLOCK_COLS).min(m);
                for a in bi..bi_end {
                    for b in bj..bj_end {
                        let inter = self.intersection_size(a, b);
                        if inter > 0 {
                            f(a, b, inter);
                        }
                    }
                }
            }
        }
    }
}

/// Scratch-bitmap exact `|a ∩ b|` for one dense pair: packs both row
/// lists into thread-local reusable bitmaps sized by the larger last row
/// id, then AND-popcounts. Used by the adaptive dispatcher
/// ([`crate::column::intersection_size_auto`]) when both columns are
/// dense enough that `3⌈n/64⌉` word operations undercut a branchy merge
/// over `|a| + |b|` elements.
#[must_use]
pub fn intersection_size_scratch(a: &[u32], b: &[u32]) -> usize {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    }
    let (Some(&la), Some(&lb)) = (a.last(), b.last()) else {
        return 0;
    };
    let words = words_for(la.max(lb) + 1);
    SCRATCH.with(|cell| {
        let (wa, wb) = &mut *cell.borrow_mut();
        wa.clear();
        wa.resize(words, 0);
        wb.clear();
        wb.resize(words, 0);
        fill_words(wa, a);
        fill_words(wb, b);
        intersection_size_words(wa, wb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column;

    #[test]
    fn word_boundaries_are_exact() {
        // Bits at 63/64/127/128 exercise every word-edge case.
        let m =
            SparseMatrix::from_columns(130, vec![vec![63, 64, 127, 128], vec![64, 127]]).unwrap();
        let bits = BitMatrix::from_csc(&m);
        assert_eq!(bits.intersection_size(0, 1), 2);
        assert_eq!(bits.intersection_size(0, 0), 4);
    }

    #[test]
    fn empty_columns_are_zero() {
        let m = SparseMatrix::from_columns(100, vec![vec![], vec![1, 2]]).unwrap();
        let bits = BitMatrix::from_csc(&m);
        assert_eq!(bits.intersection_size(0, 1), 0);
        assert_eq!(bits.intersection_size(0, 0), 0);
        assert_eq!(intersection_size_scratch(&[], &[1, 2]), 0);
    }

    fn example() -> SparseMatrix {
        SparseMatrix::from_columns(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap()
    }

    #[test]
    fn bit_matrix_matches_csc_intersections() {
        let m = example();
        let bits = BitMatrix::from_csc(&m);
        assert_eq!(bits.n_cols(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    bits.intersection_size(i, j),
                    m.intersection_size(i as u32, j as u32),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn subset_uses_given_order() {
        let m = example();
        let bits = BitMatrix::from_csc_subset(&m, &[2, 0]);
        assert_eq!(bits.n_cols(), 2);
        assert_eq!(bits.intersection_size(0, 1), m.intersection_size(2, 0));
        assert_eq!(bits.heap_bytes(), 2 * std::mem::size_of::<u64>());
    }

    #[test]
    fn blocked_driver_visits_every_cooccurring_pair_once() {
        // Enough columns to span several tiles.
        let n_rows = 97u32;
        let cols: Vec<Vec<u32>> = (0..150u32)
            .map(|j| (0..n_rows).filter(|r| (r + j) % 7 == 0).collect())
            .collect();
        let m = SparseMatrix::from_columns(n_rows, cols).unwrap();
        let bits = BitMatrix::from_csc(&m);
        let mut seen = std::collections::HashMap::new();
        bits.for_each_cooccurring_pair(|a, b, c| {
            assert!(a < b);
            assert!(c > 0);
            assert!(seen.insert((a, b), c).is_none(), "pair visited twice");
        });
        for i in 0..150u32 {
            for j in (i + 1)..150 {
                let exact = m.intersection_size(i, j);
                let got = seen.get(&(i as usize, j as usize)).copied().unwrap_or(0);
                assert_eq!(got, exact, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn scratch_kernel_matches_merge() {
        let a: Vec<u32> = (0..500).step_by(2).collect();
        let b: Vec<u32> = (0..500).step_by(3).collect();
        assert_eq!(
            intersection_size_scratch(&a, &b),
            column::intersection_size(&a, &b)
        );
    }
}
