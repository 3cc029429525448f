//! Exact similarity statistics — the offline ground truth of the paper's
//! experiments.
//!
//! The paper computes "the real number of pairs within a similarity range …
//! in an offline fashion by a brute-force counting algorithm" (§5.1). Two
//! brute forces are available, and each entry point picks per matrix:
//!
//! * **row-wise co-occurrence counting** — a hashmap update for every 1-pair
//!   in every row, `O(Σ_rows r_i²)`; wins when rows are very sparse relative
//!   to the column count;
//! * **blocked bitmap popcount** — materialize every column as a `u64`
//!   row-bitmap ([`crate::bitmap::BitMatrix`]) and AND-popcount all `m(m−1)/2`
//!   pairs in cache-friendly column tiles, `O(m² · n/64)` branch-free word
//!   ops; wins whenever the matrix has enough 1s per row that the hashmap
//!   traffic dominates (the bench baselines land squarely here).
//!
//! Both compute identical counts, and identical `f64` similarities from
//! them, so the dispatch never changes results — only speed. The two arms
//! are private: callers go through the dispatched entry points, and
//! [`ground_truth_uses_bitmap`] reports which arm a matrix gets. The
//! bitmap arm's AND-popcount follows the process-wide kernel arm
//! ([`crate::kernel`]), so `--kernel` runs it scalar or SIMD.

use sfa_hash::bucket::{pack_pair, FastHashMap};

use crate::bitmap::{self, BitMatrix};
use crate::csc::SparseMatrix;
use crate::csr::RowMajorMatrix;

/// Approximate cost, in bitmap word operations, of one hashmap
/// co-occurrence update (hash + probe + RMW vs an AND+popcount on a word).
/// Calibrated with `bench_kernels`; only the ratio matters, not the scale.
const COOC_UPDATE_COST_WORDS: u128 = 32;

/// Total pairwise hashmap updates the co-occurrence path would perform:
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
/// co-occurrence path's hashmap updates weighted by their measured
/// per-update cost. Exposed so benches can report which path engaged.
#[must_use]
pub fn ground_truth_uses_bitmap(matrix: &SparseMatrix) -> bool {
    let m = u128::from(matrix.n_cols());
    if m < 2 {
        return false;
    }
    let pair_words = m * (m - 1) / 2 * bitmap::words_for(matrix.n_rows()) as u128;
    pair_words <= COOC_UPDATE_COST_WORDS * cooc_update_count(matrix)
}

/// Exact co-occurrence counts `|C_i ∩ C_j|` for every column pair that
/// co-occurs in at least one row, keyed by [`pack_pair`]`(i, j)` with `i < j`.
#[must_use]
pub fn co_occurrence_counts(matrix: &RowMajorMatrix) -> FastHashMap<u64, u32> {
    let mut counts = FastHashMap::default();
    for (_, cols) in matrix.rows() {
        for (a, &ci) in cols.iter().enumerate() {
            for &cj in &cols[a + 1..] {
                *counts.entry(pack_pair(ci, cj)).or_insert(0) += 1;
            }
        }
    }
    counts
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
    assert!(threshold > 0.0, "threshold must be positive");
    if ground_truth_uses_bitmap(matrix) {
        exact_similar_pairs_bitmap(matrix, threshold)
    } else {
        exact_similar_pairs_cooc(matrix, threshold)
    }
}

/// Descending-similarity-then-ascending-ids order shared by every
/// exact all-pairs method (these arms and
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

/// [`exact_similar_pairs`] via row-wise co-occurrence hashmap counting
/// (the pre-bitmap brute force; cheaper only for very sparse rows).
fn exact_similar_pairs_cooc(matrix: &SparseMatrix, threshold: f64) -> Vec<SimilarPair> {
    let row_major = matrix.transpose();
    let counts = co_occurrence_counts(&row_major);
    let sizes = matrix.column_counts();
    let mut out = Vec::new();
    for (&key, &co) in &counts {
        let (i, j) = sfa_hash::bucket::unpack_pair(key);
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
    sort_similar_pairs(&mut out);
    out
}

/// [`exact_similar_pairs`] via the blocked bitmap all-pairs driver
/// ([`BitMatrix::for_each_cooccurring_pair`]).
fn exact_similar_pairs_bitmap(matrix: &SparseMatrix, threshold: f64) -> Vec<SimilarPair> {
    let bits = BitMatrix::from_csc(matrix);
    let sizes = matrix.column_counts();
    let mut out = Vec::new();
    bits.for_each_cooccurring_pair(|i, j, co| {
        let union = sizes[i] + sizes[j] - co;
        let s = co as f64 / union as f64;
        if s >= threshold {
            out.push(SimilarPair {
                i: i as u32,
                j: j as u32,
                similarity: s,
            });
        }
    });
    sort_similar_pairs(&mut out);
    out
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
    assert!(bins > 0, "need at least one bin");
    if ground_truth_uses_bitmap(matrix) {
        similarity_histogram_bitmap(matrix, bins)
    } else {
        similarity_histogram_cooc(matrix, bins)
    }
}

/// [`similarity_histogram`] via row-wise co-occurrence counting.
fn similarity_histogram_cooc(matrix: &SparseMatrix, bins: usize) -> Vec<u64> {
    let row_major = matrix.transpose();
    let counts = co_occurrence_counts(&row_major);
    let sizes = matrix.column_counts();
    let mut hist = vec![0u64; bins];
    for (&key, &co) in &counts {
        let (i, j) = sfa_hash::bucket::unpack_pair(key);
        let union = sizes[i as usize] + sizes[j as usize] - co as usize;
        let s = co as f64 / union as f64;
        let b = ((s * bins as f64) as usize).min(bins - 1);
        hist[b] += 1;
    }
    hist
}

/// [`similarity_histogram`] via the blocked bitmap all-pairs driver.
fn similarity_histogram_bitmap(matrix: &SparseMatrix, bins: usize) -> Vec<u64> {
    let bits = BitMatrix::from_csc(matrix);
    let sizes = matrix.column_counts();
    let mut hist = vec![0u64; bins];
    bits.for_each_cooccurring_pair(|i, j, co| {
        let union = sizes[i] + sizes[j] - co;
        let s = co as f64 / union as f64;
        let b = ((s * bins as f64) as usize).min(bins - 1);
        hist[b] += 1;
    });
    hist
}

/// The average pairwise similarity `S̄ = Σ_{i,j} S(c_i, c_j) / m²` from the
/// §3.1 running-time analyses (sum over ordered pairs including `i = j`).
#[must_use]
pub fn average_similarity(matrix: &SparseMatrix) -> f64 {
    if ground_truth_uses_bitmap(matrix) {
        average_similarity_bitmap(matrix)
    } else {
        average_similarity_cooc(matrix)
    }
}

/// [`average_similarity`] via row-wise co-occurrence counting.
fn average_similarity_cooc(matrix: &SparseMatrix) -> f64 {
    let m = matrix.n_cols() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let row_major = matrix.transpose();
    let counts = co_occurrence_counts(&row_major);
    let sizes = matrix.column_counts();
    let mut total = 0.0;
    for (&key, &co) in &counts {
        let (i, j) = sfa_hash::bucket::unpack_pair(key);
        let union = sizes[i as usize] + sizes[j as usize] - co as usize;
        // Each unordered pair contributes twice to the ordered-pair sum.
        total += 2.0 * co as f64 / union as f64;
    }
    // Diagonal: S(c, c) = 1 for nonempty columns.
    total += sizes.iter().filter(|&&s| s > 0).count() as f64;
    total / (m * m)
}

/// [`average_similarity`] via the blocked bitmap all-pairs driver.
///
/// The per-pair similarities are identical to the co-occurrence path; only
/// the floating-point accumulation order differs, so the two can disagree
/// in the final ulps (both paths were already order-dependent — the
/// hashmap iterates in arbitrary order).
fn average_similarity_bitmap(matrix: &SparseMatrix) -> f64 {
    let m = f64::from(matrix.n_cols());
    if m == 0.0 {
        return 0.0;
    }
    let bits = BitMatrix::from_csc(matrix);
    let sizes = matrix.column_counts();
    let mut total = 0.0;
    bits.for_each_cooccurring_pair(|i, j, co| {
        let union = sizes[i] + sizes[j] - co;
        total += 2.0 * co as f64 / union as f64;
    });
    total += sizes.iter().filter(|&&s| s > 0).count() as f64;
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

    fn example1() -> SparseMatrix {
        SparseMatrix::from_columns(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap()
    }

    #[test]
    fn co_occurrence_matches_column_intersections() {
        let m = example1();
        let counts = co_occurrence_counts(&m.transpose());
        assert_eq!(counts.get(&pack_pair(0, 1)).copied(), Some(2));
        assert_eq!(counts.get(&pack_pair(1, 2)).copied(), Some(1));
        assert_eq!(counts.get(&pack_pair(0, 2)), None);
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

    #[test]
    fn all_exact_pair_variants_agree() {
        for m in [example1(), patterned(130, 40)] {
            // §5.1's reference: the paper's dense all-pairs counters.
            let reference = crate::triangle::exact_similar_pairs_dense(&m, 0.05);
            assert_eq!(exact_similar_pairs_cooc(&m, 0.05), reference);
            assert_eq!(exact_similar_pairs_bitmap(&m, 0.05), reference);
            assert_eq!(exact_similar_pairs(&m, 0.05), reference);
        }
    }

    #[test]
    fn histogram_variants_agree() {
        for m in [example1(), patterned(130, 40)] {
            assert_eq!(
                similarity_histogram_cooc(&m, 16),
                similarity_histogram_bitmap(&m, 16)
            );
            assert_eq!(
                similarity_histogram(&m, 16),
                similarity_histogram_cooc(&m, 16)
            );
        }
    }

    #[test]
    fn average_similarity_variants_agree() {
        for m in [example1(), patterned(130, 40)] {
            let a = average_similarity_cooc(&m);
            let b = average_similarity_bitmap(&m);
            assert!((a - b).abs() < 1e-12, "cooc {a} vs bitmap {b}");
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
