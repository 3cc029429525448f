//! Dense all-pairs counters — the paper's literal ground-truth method.
//!
//! "The real number of pairs within a similarity range was computed in an
//! offline fashion by a brute-force counting algorithm … it was feasible in
//! our case because the number of columns in our real data was small enough
//! to permit keeping counters for all pairs in the main memory" (§5.1).
//!
//! [`TriangleCounter`] is that structure: a flat `m(m−1)/2` array of
//! counters indexed by the strictly-upper-triangular pair `(i, j)`. For
//! the paper's 13 000 columns it needs ≈ 338 MB, which is exactly the
//! "fits in main memory" regime the paper describes.
//!
//! The library's default ground-truth entry point,
//! [`stats::exact_similar_pairs`](crate::stats::exact_similar_pairs),
//! dispatches by a cost model between the bucket-index row walk, whose
//! memory is linear in the 1-entries, and the blocked AND-popcount driver
//! of [`bitmap`](crate::bitmap); this dense counter remains as the
//! paper-faithful reference the tests compare both against, and it
//! counts rows as they come ([`TriangleCounter::from_matrix`] takes a
//! [`RowMajorMatrix`]).

use crate::csc::SparseMatrix;
use crate::csr::RowMajorMatrix;
use crate::stats::SimilarPair;

/// A dense strictly-upper-triangular counter over `m` columns.
#[derive(Debug, Clone)]
pub struct TriangleCounter {
    m: usize,
    counts: Vec<u32>,
}

impl TriangleCounter {
    /// Allocates `m(m−1)/2` zeroed counters.
    ///
    /// # Panics
    ///
    /// Panics if the triangle size overflows `usize`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        let size = m
            .checked_mul(m.saturating_sub(1))
            .map(|x| x / 2)
            .expect("triangle size overflow");
        Self {
            m,
            counts: vec![0; size],
        }
    }

    /// Number of columns.
    #[must_use]
    pub const fn m(&self) -> usize {
        self.m
    }

    /// Flat index of the pair `(i, j)` with `i < j`: row-major over the
    /// strict upper triangle.
    #[inline]
    fn index(&self, i: u32, j: u32) -> usize {
        debug_assert!(i < j && (j as usize) < self.m);
        let (i, j) = (i as usize, j as usize);
        // Offset of row i = Σ_{t<i} (m−1−t) = i·(m−1) − i(i−1)/2.
        i * (self.m - 1) - i * (i.saturating_sub(1)) / 2 + (j - i - 1)
    }

    /// Increments the counter for `(i, j)` (`i < j`).
    #[inline]
    pub fn increment(&mut self, i: u32, j: u32) {
        let idx = self.index(i, j);
        self.counts[idx] += 1;
    }

    /// Current count for `(i, j)` (`i < j`).
    #[inline]
    #[must_use]
    pub fn get(&self, i: u32, j: u32) -> u32 {
        self.counts[self.index(i, j)]
    }

    /// Counts co-occurrences for every pair in one row scan.
    #[must_use]
    pub fn from_matrix(matrix: &RowMajorMatrix) -> Self {
        let mut tri = Self::new(matrix.n_cols() as usize);
        for (_, cols) in matrix.rows() {
            for (a, &ci) in cols.iter().enumerate() {
                for &cj in &cols[a + 1..] {
                    tri.increment(ci, cj);
                }
            }
        }
        tri
    }

    /// Iterates `(i, j, count)` over pairs with nonzero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.m as u32).flat_map(move |i| {
            ((i + 1)..self.m as u32).filter_map(move |j| {
                let c = self.get(i, j);
                (c > 0).then_some((i, j, c))
            })
        })
    }
}

/// Exact similar pairs via the dense triangle counter — same output as
/// [`stats::exact_similar_pairs`](crate::stats::exact_similar_pairs),
/// different mechanics (no hashing; `O(m²/2)` memory).
///
/// # Panics
///
/// Panics if `threshold <= 0`.
#[must_use]
pub fn exact_similar_pairs_dense(matrix: &SparseMatrix, threshold: f64) -> Vec<SimilarPair> {
    assert!(threshold > 0.0, "threshold must be positive");
    let tri = TriangleCounter::from_matrix(&matrix.transpose());
    let sizes = matrix.column_counts();
    let mut out = Vec::new();
    for (i, j, co) in tri.nonzero() {
        let union = sizes[i as usize] + sizes[j as usize] - co as usize;
        let s = co as f64 / union as f64;
        if s >= threshold {
            out.push(SimilarPair {
                i,
                j,
                similarity: s,
            });
        }
    }
    crate::stats::sort_similar_pairs(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::exact_similar_pairs;

    #[test]
    fn index_is_a_bijection() {
        let tri = TriangleCounter::new(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..7u32 {
            for j in (i + 1)..7 {
                assert!(seen.insert(tri.index(i, j)), "collision at ({i}, {j})");
            }
        }
        assert_eq!(seen.len(), 21);
        assert_eq!(*seen.iter().max().unwrap(), 20);
        assert_eq!(*seen.iter().min().unwrap(), 0);
    }

    #[test]
    fn increment_and_get_roundtrip() {
        let mut tri = TriangleCounter::new(4);
        tri.increment(0, 3);
        tri.increment(0, 3);
        tri.increment(1, 2);
        assert_eq!(tri.get(0, 3), 2);
        assert_eq!(tri.get(1, 2), 1);
        assert_eq!(tri.get(0, 1), 0);
    }

    #[test]
    fn from_matrix_matches_column_intersections() {
        let m = SparseMatrix::from_columns(
            5,
            vec![vec![0, 1, 4], vec![0, 1, 2], vec![2, 3], vec![1, 4]],
        )
        .unwrap();
        let tri = TriangleCounter::from_matrix(&m.transpose());
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                assert_eq!(
                    tri.get(i, j) as usize,
                    m.intersection_size(i, j),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn dense_and_sparse_ground_truth_agree() {
        // Pseudo-random sparse matrix; both exact methods must agree.
        let mut columns = Vec::new();
        let mut seq = sfa_hash::SeedSequence::new(5);
        for _ in 0..30 {
            let mut rows: Vec<u32> = (0..20)
                .filter(|_| seq.next_seed().is_multiple_of(4))
                .collect();
            rows.dedup();
            columns.push(rows);
        }
        let m = SparseMatrix::from_columns(20, columns).unwrap();
        for &threshold in &[0.05, 0.3, 0.7] {
            assert_eq!(
                exact_similar_pairs_dense(&m, threshold),
                exact_similar_pairs(&m, threshold),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn nonzero_skips_untouched_pairs() {
        let mut tri = TriangleCounter::new(100);
        tri.increment(3, 97);
        let pairs: Vec<_> = tri.nonzero().collect();
        assert_eq!(pairs, vec![(3, 97, 1)]);
    }

    #[test]
    fn degenerate_sizes_work() {
        let tri = TriangleCounter::new(0);
        assert_eq!(tri.nonzero().count(), 0);
        let tri = TriangleCounter::new(1);
        assert_eq!(tri.nonzero().count(), 0);
    }
}
