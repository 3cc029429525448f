//! Exact similarity statistics — the offline ground truth of the paper's
//! experiments.
//!
//! The paper computes "the real number of pairs within a similarity range …
//! in an offline fashion by a brute-force counting algorithm" (§5.1). Two
//! brute forces are available, and each entry point picks per matrix:
//!
//! * **row-wise co-occurrence counting** — every row is one bucket of a
//!   single-table [`BucketIndex`] keyed by its row id, and the §3.1 walk
//!   counts each column's later partners in reusable counters: one
//!   increment for every 1-pair in every row, `O(Σ_rows r_i²)`; wins when
//!   rows are very sparse relative to the column count;
//! * **blocked bitmap popcount** — materialize every column as a `u64`
//!   row-bitmap ([`crate::bitmap::BitMatrix`]) and AND-popcount all `m(m−1)/2`
//!   pairs in cache-friendly column tiles, `O(m² · n/64)` branch-free word
//!   ops; wins whenever the matrix has enough 1s per row that the per-pair
//!   increments dominate (the bench baselines land squarely here).
//!
//! Both compute identical counts, and identical `f64` similarities from
//! them, so the dispatch never changes results — only speed. The two arms
//! are private: callers go through the dispatched entry points, and
//! [`ground_truth_uses_bitmap`] reports which arm a matrix gets. The
//! bitmap arm's AND-popcount runs on the CPU's kernel arm
//! ([`crate::kernel`]): AVX2 when the CPU has it, scalar otherwise.

use sfa_hash::{BucketIndex, PairWalker};
use sfa_par::ThreadPool;

use crate::bitmap::{self, BitMatrix};
use crate::csc::SparseMatrix;

/// Approximate cost, in bitmap word operations, of one co-occurrence
/// update on the row arm. Calibrated with `bench_kernels` against the
/// hash-map counter that arm used to run; the walk's dense counters are
/// cheaper, so the constant now overstates the row arm's cost and keeps
/// every matrix on the arm it got before. Only the ratio matters, not
/// the scale.
const COOC_UPDATE_COST_WORDS: u128 = 32;

/// Total pairwise updates the co-occurrence path would perform:
/// `Σ_rows r_i (r_i − 1) / 2`, computed in `O(|M| + n)` from CSC.
fn cooc_update_count(matrix: &SparseMatrix) -> u128 {
    let mut row_counts = vec![0u64; matrix.n_rows() as usize];
    for (_, col) in matrix.columns() {
        for &r in col {
            row_counts[r as usize] += 1;
        }
    }
    row_counts
        .iter()
        .map(|&r| u128::from(r) * u128::from(r.saturating_sub(1)) / 2)
        .sum()
}

/// Whether the blocked bitmap driver is the cheaper brute force for this
/// matrix (the cost model behind [`exact_similar_pairs`],
/// [`similarity_histogram`] and [`average_similarity`]).
///
/// Compares the bitmap's `m(m−1)/2 · ⌈n/64⌉` word operations against the
/// co-occurrence path's updates weighted by their calibrated per-update
/// cost. Exposed so benches can report which path engaged.
#[must_use]
pub fn ground_truth_uses_bitmap(matrix: &SparseMatrix) -> bool {
    let m = u128::from(matrix.n_cols());
    if m < 2 {
        return false;
    }
    let pair_words = m * (m - 1) / 2 * bitmap::words_for(matrix.n_rows()) as u128;
    pair_words <= COOC_UPDATE_COST_WORDS * cooc_update_count(matrix)
}

/// The two brute forces behind every entry point.
enum Arm {
    /// Row-wise co-occurrence counting over the bucket walk.
    Rows,
    /// The blocked bitmap all-pairs driver.
    Bitmap,
}

impl Arm {
    /// The arm [`ground_truth_uses_bitmap`] picks for `matrix`.
    fn of(matrix: &SparseMatrix) -> Self {
        if ground_truth_uses_bitmap(matrix) {
            Self::Bitmap
        } else {
            Self::Rows
        }
    }
}

/// Calls `f(i, j, |C_i ∩ C_j|, |C_i ∪ C_j|)` for every column pair `i < j`
/// sharing at least one row: in `(i, j)` order on the row arm, in the
/// bitmap driver's tile order on the other.
fn for_each_pair(matrix: &SparseMatrix, arm: Arm, mut f: impl FnMut(u32, u32, usize, usize)) {
    let sizes = matrix.column_counts();
    let mut visit = |i: u32, j: u32, co: usize| {
        f(i, j, co, sizes[i as usize] + sizes[j as usize] - co);
    };
    match arm {
        Arm::Rows => {
            let m = matrix.n_cols() as usize;
            let index = BucketIndex::build(m, 1, false, &ThreadPool::new(1), || {
                |_: usize, out: &mut Vec<(u64, u32)>| {
                    for (j, rows) in matrix.columns() {
                        out.extend(rows.iter().map(|&r| (u64::from(r), j)));
                    }
                }
            });
            let mut walker = PairWalker::new(&index);
            for i in 0..matrix.n_cols() {
                walker.column(i, |j, co| visit(i, j, co as usize));
            }
        }
        Arm::Bitmap => BitMatrix::from_csc(matrix)
            .for_each_cooccurring_pair(|i, j, co| visit(i as u32, j as u32, co)),
    }
}

/// A column pair with its exact similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarPair {
    /// Smaller column id.
    pub i: u32,
    /// Larger column id.
    pub j: u32,
    /// Exact Jaccard similarity.
    pub similarity: f64,
}

/// All column pairs with exact similarity `>= threshold`, sorted by
/// descending similarity then ascending ids.
///
/// Requires `threshold > 0`; pairs never sharing a row have similarity 0
/// and are not enumerable without quadratic work.
///
/// # Examples
///
/// ```
/// use sfa_matrix::SparseMatrix;
/// use sfa_matrix::stats::exact_similar_pairs;
///
/// let m = SparseMatrix::from_columns(4, vec![
///     vec![0, 1], vec![0, 1, 2], vec![2, 3],
/// ]).unwrap();
/// let pairs = exact_similar_pairs(&m, 0.5);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].i, pairs[0].j), (0, 1));
/// ```
///
/// # Panics
///
/// Panics if `threshold <= 0`.
#[must_use]
pub fn exact_similar_pairs(matrix: &SparseMatrix, threshold: f64) -> Vec<SimilarPair> {
    similar_pairs_on(matrix, Arm::of(matrix), threshold)
}

fn similar_pairs_on(matrix: &SparseMatrix, arm: Arm, threshold: f64) -> Vec<SimilarPair> {
    assert!(threshold > 0.0, "threshold must be positive");
    let mut out = Vec::new();
    for_each_pair(matrix, arm, |i, j, co, union| {
        let similarity = co as f64 / union as f64;
        if similarity >= threshold {
            out.push(SimilarPair { i, j, similarity });
        }
    });
    sort_similar_pairs(&mut out);
    out
}

/// Descending-similarity-then-ascending-ids order shared by every
/// exact all-pairs method (both arms and
/// [`triangle`](crate::triangle)), so all paths emit identical vectors.
pub(crate) fn sort_similar_pairs(out: &mut [SimilarPair]) {
    out.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .expect("similarities are finite")
            .then(a.i.cmp(&b.i))
            .then(a.j.cmp(&b.j))
    });
}

/// Histogram over `[0, 1]` of the exact similarities of all co-occurring
/// column pairs (pairs with similarity exactly 0 are not counted).
///
/// `counts[b]` holds pairs with `S ∈ [b/bins, (b+1)/bins)`; `S = 1` lands
/// in the last bin. This regenerates the Fig. 3 similarity distribution.
///
/// # Panics
///
/// Panics if `bins == 0`.
#[must_use]
pub fn similarity_histogram(matrix: &SparseMatrix, bins: usize) -> Vec<u64> {
    histogram_on(matrix, Arm::of(matrix), bins)
}

fn histogram_on(matrix: &SparseMatrix, arm: Arm, bins: usize) -> Vec<u64> {
    assert!(bins > 0, "need at least one bin");
    let mut hist = vec![0u64; bins];
    for_each_pair(matrix, arm, |_, _, co, union| {
        let s = co as f64 / union as f64;
        hist[((s * bins as f64) as usize).min(bins - 1)] += 1;
    });
    hist
}

/// The average pairwise similarity `S̄ = Σ_{i,j} S(c_i, c_j) / m²` from the
/// §3.1 running-time analyses (sum over ordered pairs including `i = j`).
///
/// The arms sum the pairs in different orders, so they can disagree in
/// the final ulps.
#[must_use]
pub fn average_similarity(matrix: &SparseMatrix) -> f64 {
    average_on(matrix, Arm::of(matrix))
}

fn average_on(matrix: &SparseMatrix, arm: Arm) -> f64 {
    let m = f64::from(matrix.n_cols());
    if m == 0.0 {
        return 0.0;
    }
    // Each unordered pair contributes twice to the ordered-pair sum.
    let mut total = 0.0;
    for_each_pair(matrix, arm, |_, _, co, union| {
        total += 2.0 * co as f64 / union as f64;
    });
    // Diagonal: S(c, c) = 1 for nonempty columns.
    total += (0..matrix.n_cols())
        .filter(|&j| matrix.column_count(j) > 0)
        .count() as f64;
    total / (m * m)
}

/// Summary statistics of the column densities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityStats {
    /// Minimum column density.
    pub min: f64,
    /// Maximum column density.
    pub max: f64,
    /// Mean column density.
    pub mean: f64,
    /// Number of all-zero columns.
    pub empty_columns: usize,
}

/// Computes density statistics over all columns.
#[must_use]
pub fn density_stats(matrix: &SparseMatrix) -> DensityStats {
    let n = matrix.n_rows();
    let m = matrix.n_cols();
    if m == 0 {
        return DensityStats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            empty_columns: 0,
        };
    }
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    let mut empty = 0;
    for j in 0..m {
        let d = if n == 0 { 0.0 } else { matrix.density(j) };
        min = min.min(d);
        max = max.max(d);
        sum += d;
        if matrix.column_count(j) == 0 {
            empty += 1;
        }
    }
    DensityStats {
        min,
        max,
        mean: sum / f64::from(m),
        empty_columns: empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn example1() -> SparseMatrix {
        SparseMatrix::from_columns(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap()
    }

    #[test]
    fn row_arm_walks_intersections_and_unions_in_pair_order() {
        let mut seen = Vec::new();
        for_each_pair(&example1(), Arm::Rows, |i, j, co, union| {
            seen.push((i, j, co, union));
        });
        assert_eq!(seen, vec![(0, 1, 2, 3), (1, 2, 1, 4)]);
    }

    #[test]
    fn exact_pairs_match_brute_force() {
        let m = example1();
        let pairs = exact_similar_pairs(&m, 0.2);
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].i, pairs[0].j), (0, 1));
        assert!((pairs[0].similarity - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((pairs[1].i, pairs[1].j), (1, 2));
        assert!((pairs[1].similarity - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exact_pairs_respect_threshold() {
        let m = example1();
        assert_eq!(exact_similar_pairs(&m, 0.5).len(), 1);
        assert_eq!(exact_similar_pairs(&m, 0.7).len(), 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = exact_similar_pairs(&example1(), 0.0);
    }

    #[test]
    fn histogram_bins_cover_range() {
        let m = example1();
        let hist = similarity_histogram(&m, 4);
        // S values present: 2/3 (bin 2), 1/4 (bin 1).
        assert_eq!(hist, vec![0, 1, 1, 0]);
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn histogram_similarity_one_lands_in_last_bin() {
        let m = SparseMatrix::from_columns(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        let hist = similarity_histogram(&m, 10);
        assert_eq!(hist[9], 1);
    }

    #[test]
    fn average_similarity_small_case() {
        let m = example1();
        // ordered-pair sum: diag 3 + 2*(2/3 + 1/4 + 0) = 3 + 11/6.
        let expected = (3.0 + 2.0 * (2.0 / 3.0 + 0.25)) / 9.0;
        assert!((average_similarity(&m) - expected).abs() < 1e-12);
    }

    #[test]
    fn average_similarity_empty_matrix() {
        let m = SparseMatrix::from_columns(0, vec![]).unwrap();
        assert_eq!(average_similarity(&m), 0.0);
    }

    /// A deterministic mid-density matrix exercising both arms and the
    /// dense reference on a non-trivial pair population.
    fn patterned(n_rows: u32, n_cols: u32) -> SparseMatrix {
        let cols = (0..n_cols)
            .map(|j| {
                (0..n_rows)
                    .filter(|r| {
                        r.wrapping_mul(2654435761)
                            .wrapping_add(j)
                            .wrapping_mul(j + 1)
                            % 5
                            < 2
                    })
                    .collect()
            })
            .collect();
        SparseMatrix::from_columns(n_rows, cols).unwrap()
    }

    /// Random tables with empty rows and columns, down to a single
    /// column, at densities from one entry per column to half full; a
    /// column copies its left neighbour one time in four.
    fn random_table() -> impl Strategy<Value = SparseMatrix> {
        (1u32..150, 1usize..30, 0u32..4).prop_flat_map(|(n_rows, n_cols, sparsity)| {
            let max_len = (n_rows >> (2 * sparsity)).max(1) as usize;
            prop::collection::vec(
                (prop::collection::btree_set(0..n_rows, 0..=max_len), 0u8..4),
                n_cols,
            )
            .prop_map(move |drawn| {
                let mut cols: Vec<Vec<u32>> = Vec::new();
                for (rows, pick) in drawn {
                    let col = match cols.last() {
                        Some(prev) if pick == 0 => prev.clone(),
                        _ => rows.into_iter().collect(),
                    };
                    cols.push(col);
                }
                SparseMatrix::from_columns(n_rows, cols).unwrap()
            })
        })
    }

    /// §5.1's reference: the paper's dense all-pairs counters, down to
    /// the smallest positive similarity.
    fn dense_pairs(m: &SparseMatrix) -> Vec<SimilarPair> {
        crate::triangle::exact_similar_pairs_dense(m, f64::MIN_POSITIVE)
    }

    fn dense_histogram(m: &SparseMatrix, bins: usize) -> Vec<u64> {
        let mut hist = vec![0; bins];
        for p in dense_pairs(m) {
            hist[((p.similarity * bins as f64) as usize).min(bins - 1)] += 1;
        }
        hist
    }

    fn dense_average(m: &SparseMatrix) -> f64 {
        let n = f64::from(m.n_cols());
        let pairs: f64 = dense_pairs(m).iter().map(|p| 2.0 * p.similarity).sum();
        let diagonal = m.column_counts().iter().filter(|&&s| s > 0).count() as f64;
        (pairs + diagonal) / (n * n)
    }

    fn assert_pair_arms_match(m: &SparseMatrix, threshold: f64) {
        let reference = crate::triangle::exact_similar_pairs_dense(m, threshold);
        assert_eq!(similar_pairs_on(m, Arm::Rows, threshold), reference);
        assert_eq!(similar_pairs_on(m, Arm::Bitmap, threshold), reference);
        assert_eq!(exact_similar_pairs(m, threshold), reference);
    }

    fn assert_histogram_arms_match(m: &SparseMatrix, bins: usize) {
        let reference = dense_histogram(m, bins);
        assert_eq!(histogram_on(m, Arm::Rows, bins), reference);
        assert_eq!(histogram_on(m, Arm::Bitmap, bins), reference);
        assert_eq!(similarity_histogram(m, bins), reference);
    }

    fn assert_average_arms_match(m: &SparseMatrix) {
        let reference = dense_average(m);
        for (arm, got) in [
            ("rows", average_on(m, Arm::Rows)),
            ("bitmap", average_on(m, Arm::Bitmap)),
            ("dispatched", average_similarity(m)),
        ] {
            assert!(
                (got - reference).abs() < 1e-12,
                "{arm} {got} vs dense {reference}"
            );
        }
    }

    proptest! {
        #[test]
        fn all_exact_pair_variants_agree(m in random_table(), t in 1u32..20) {
            assert_pair_arms_match(&m, f64::from(t) / 20.0);
            assert_pair_arms_match(&m, f64::MIN_POSITIVE);
        }

        #[test]
        fn histogram_variants_agree(m in random_table(), bins in 1usize..24) {
            assert_histogram_arms_match(&m, bins);
        }

        #[test]
        fn average_similarity_variants_agree(m in random_table()) {
            assert_average_arms_match(&m);
        }
    }

    #[test]
    fn fixed_tables_match_the_dense_reference() {
        // The last table holds more than 32k entries.
        for m in [example1(), patterned(130, 40), patterned(1200, 80)] {
            assert_pair_arms_match(&m, 0.05);
            assert_histogram_arms_match(&m, 16);
            assert_average_arms_match(&m);
        }
    }

    #[test]
    fn cost_model_prefers_bitmap_on_dense_and_cooc_on_sparse() {
        // Dense-ish small matrix: many 1s per row, few pair-words.
        assert!(ground_truth_uses_bitmap(&patterned(130, 40)));
        // One 1 per row: zero co-occurrence updates — bitmap can't pay off.
        let sparse =
            SparseMatrix::from_columns(64, (0..32u32).map(|j| vec![2 * j]).collect()).unwrap();
        assert!(!ground_truth_uses_bitmap(&sparse));
        // Degenerate single column.
        let single = SparseMatrix::from_columns(4, vec![vec![0, 1]]).unwrap();
        assert!(!ground_truth_uses_bitmap(&single));
    }

    #[test]
    fn density_stats_basic() {
        let m = SparseMatrix::from_columns(4, vec![vec![0, 1], vec![], vec![0, 1, 2, 3]]).unwrap();
        let s = density_stats(&m);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.empty_columns, 1);
        assert!((s.mean - 0.5).abs() < 1e-12);
    }
}
