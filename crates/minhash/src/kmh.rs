//! The K-MH signature pass (§3.2).
//!
//! "We use only a single hash value for each row, setting the k Min-Hash
//! values for each column to be the hash values of the first k rows (under
//! the induced row permutation) containing a 1 in that column." The
//! signature `SIG_i` is a bottom-k sketch of `C_i`: the hash values of a
//! uniform random sample of `min(k, |C_i|)` distinct rows of the column
//! (Proposition 2).
//!
//! The per-row cost is one hash evaluation plus, per 1-entry, an `O(1)`
//! admission test and an `O(log k)` heap update only when the value is
//! among the column's `k` smallest so far — expected `O(k log |C_i|)`
//! updates per column. This is why K-MH's signature phase is sublinear in
//! `k` on sparse data (Fig. 6b).

use sfa_hash::topk::merge_bottom_k;
use sfa_matrix::{Result, RowStream};

use crate::estimate;

/// The K-MH signatures: per column, the ascending bottom-k hash values,
/// plus the exact column cardinalities `|C_i|` collected in the same pass
/// (the paper's biased estimator needs them: "we know |C_i| and |C_j|").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottomKSignatures {
    k: usize,
    sigs: Vec<Vec<u64>>,
    counts: Vec<u32>,
}

impl BottomKSignatures {
    /// The sketch size `k`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of columns `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.sigs.len()
    }

    /// The ascending signature `SIG_j` (length `min(k, |C_j|)`).
    #[must_use]
    pub fn signature(&self, j: u32) -> &[u64] {
        &self.sigs[j as usize]
    }

    /// The exact column cardinality `|C_j|`.
    #[must_use]
    pub fn column_count(&self, j: u32) -> u32 {
        self.counts[j as usize]
    }

    /// Resident heap size of the sketch payload: 8 bytes per stored hash
    /// value plus 4 per column count. Unlike MH's fixed `k · m · 8`, this
    /// shrinks on sparse data because a column stores only
    /// `min(k, |C_j|)` values.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        let values: usize = self.sigs.iter().map(Vec::len).sum();
        (values * std::mem::size_of::<u64>() + self.counts.len() * std::mem::size_of::<u32>())
            as u64
    }

    /// `SIG_{i∪j}`: the bottom-k of `SIG_i ∪ SIG_j`, which equals the
    /// bottom-k sketch of the union column `C_i ∪ C_j` (§3.2: "`SIG_{i∪j}`
    /// can be obtained in `O(k)` time from `SIG_i` and `SIG_j`").
    #[must_use]
    pub fn union_signature(&self, i: u32, j: u32) -> Vec<u64> {
        merge_bottom_k(self.signature(i), self.signature(j), self.k)
    }

    /// `|SIG_i ∩ SIG_j|` — shared sketch values. Signatures are ascending
    /// `u64` slices, so this is the dispatched sorted-set kernel
    /// ([`sfa_matrix::kernel::intersect_sorted_u64`]): an AVX2
    /// block-compare merge for balanced sketches, falling back to the
    /// size-adaptive merge/gallop kernel when one column is sparser than
    /// `k` (skewed lengths) or SIMD is unavailable.
    #[must_use]
    pub fn intersection_size(&self, i: u32, j: u32) -> usize {
        sfa_matrix::kernel::intersect_sorted_u64(self.signature(i), self.signature(j))
    }

    /// The Theorem 2 unbiased similarity estimator:
    /// `|SIG_{i∪j} ∩ SIG_i ∩ SIG_j| / |SIG_{i∪j}|`.
    #[must_use]
    pub fn unbiased_similarity(&self, i: u32, j: u32) -> f64 {
        estimate::kmh_unbiased(self.signature(i), self.signature(j), self.k)
    }

    /// Directional confidence (containment) estimator
    /// `Ĉonf(c_i ⇒ c_j)` from the sketches alone — see
    /// [`estimate::kmh_containment`].
    #[must_use]
    pub fn containment(&self, i: u32, j: u32) -> f64 {
        estimate::kmh_containment(self.signature(i), self.signature(j), self.k)
    }

    /// The biased (but Hash-Count-computable) similarity estimate derived
    /// from `|SIG_i ∩ SIG_j|` and the known cardinalities (§3.2).
    #[must_use]
    pub fn biased_similarity(&self, i: u32, j: u32) -> f64 {
        estimate::kmh_biased(
            self.intersection_size(i, j),
            self.k,
            self.column_count(i) as usize,
            self.column_count(j) as usize,
        )
    }

    /// Builds directly from parts (tests, serialization).
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or any signature exceeds `k` values or is
    /// not strictly ascending.
    #[must_use]
    pub fn from_parts(k: usize, sigs: Vec<Vec<u64>>, counts: Vec<u32>) -> Self {
        assert_eq!(sigs.len(), counts.len(), "per-column lengths disagree");
        for (j, s) in sigs.iter().enumerate() {
            assert!(s.len() <= k, "column {j} signature longer than k");
            assert!(
                s.windows(2).all(|w| w[0] < w[1]),
                "column {j} signature not ascending"
            );
        }
        Self { k, sigs, counts }
    }
}

/// Computes K-MH signatures in a single pass over `stream`.
///
/// # Errors
///
/// Propagates stream errors.
///
/// # Examples
///
/// ```
/// use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
/// use sfa_minhash::compute_bottom_k;
///
/// let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1], vec![0]]).unwrap();
/// let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 7).unwrap();
/// assert_eq!(sigs.column_count(0), 2);
/// assert_eq!(sigs.signature(1).len(), 1); // |C_1| = 1 < k
/// ```
pub fn compute_bottom_k<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
) -> Result<BottomKSignatures> {
    let mut builder = crate::builder::KmhBuilder::new(k, stream.n_cols() as usize, seed);
    let mut buf = Vec::new();
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
    }
    Ok(builder.finish())
}

/// Pool-based parallel K-MH: row ranges are dealt out dynamically, each
/// worker folds a local [`KmhBuilder`](crate::builder::KmhBuilder), and
/// the locals are merged (bottom-k union is a commutative idempotent
/// fold, so the merge is exact).
#[must_use]
pub fn compute_bottom_k_pool(
    matrix: &sfa_matrix::RowMajorMatrix,
    k: usize,
    seed: u64,
    pool: &sfa_par::ThreadPool,
) -> BottomKSignatures {
    let n = matrix.n_rows() as usize;
    let m = matrix.n_cols() as usize;
    if pool.threads() == 1 || n < 2 {
        let mut stream = sfa_matrix::MemoryRowStream::new(matrix);
        return compute_bottom_k(&mut stream, k, seed).expect("memory stream cannot fail");
    }
    let merged = pool.par_map_reduce(
        n,
        pool.chunk_for(n),
        |_| crate::builder::KmhBuilder::new(k, m, seed),
        |local, rows| {
            for row_id in rows {
                local.push_row(row_id as u32, matrix.row(row_id as u32));
            }
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    );
    merged.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_hash::RowHasher;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1], vec![1, 2], vec![2]]).unwrap()
    }

    #[test]
    fn signature_is_bottom_k_of_column_hashes() {
        let m = matrix();
        let k = 2;
        let seed = 5;
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), k, seed).unwrap();
        let h = RowHasher::new(seed);
        // Column 1 has rows {0, 1, 2}; its signature is the 2 smallest hashes.
        let mut expected: Vec<u64> = [0u32, 1, 2].iter().map(|&r| h.hash_row(r)).collect();
        expected.sort_unstable();
        expected.truncate(2);
        assert_eq!(sigs.signature(1), expected.as_slice());
    }

    #[test]
    fn counts_are_exact() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, 5).unwrap();
        assert_eq!(sigs.column_count(0), 2);
        assert_eq!(sigs.column_count(1), 3);
        assert_eq!(sigs.column_count(2), 2);
    }

    #[test]
    fn sparse_columns_have_short_signatures() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 10, 5).unwrap();
        assert_eq!(sigs.signature(0).len(), 2);
        assert_eq!(sigs.signature(1).len(), 3);
    }

    #[test]
    fn union_signature_matches_definition() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 2, 5).unwrap();
        let h = RowHasher::new(5);
        // C_0 ∪ C_1 = {0, 1, 2}; bottom-2 of their hashes.
        let mut expected: Vec<u64> = [0u32, 1, 2].iter().map(|&r| h.hash_row(r)).collect();
        expected.sort_unstable();
        expected.truncate(2);
        assert_eq!(sigs.union_signature(0, 1), expected);
    }

    #[test]
    fn identical_columns_estimate_one() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1], vec![0, 1], vec![0, 1]]).unwrap();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 3).unwrap();
        assert_eq!(sigs.unbiased_similarity(0, 1), 1.0);
        assert_eq!(sigs.biased_similarity(0, 1), 1.0);
    }

    #[test]
    fn disjoint_columns_estimate_zero() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0], vec![0], vec![1], vec![1]]).unwrap();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 3).unwrap();
        assert_eq!(sigs.unbiased_similarity(0, 1), 0.0);
        assert_eq!(sigs.biased_similarity(0, 1), 0.0);
    }

    #[test]
    fn small_columns_give_exact_similarity() {
        // When |C_i ∪ C_j| ≤ k the sketch holds the full columns and the
        // unbiased estimator equals the exact Jaccard similarity.
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 16, 9).unwrap();
        let csc = m.transpose();
        for i in 0..3u32 {
            for j in (i + 1)..3 {
                assert!(
                    (sigs.unbiased_similarity(i, j) - csc.similarity(i, j)).abs() < 1e-12,
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn unbiased_estimator_statistically_unbiased() {
        // Average the Theorem 2 estimator over many seeds on a pair with
        // S = 1/3 and check it converges to 1/3.
        let rows = vec![
            vec![0, 1], // shared
            vec![0, 1], // shared
            vec![0],
            vec![0],
            vec![1],
            vec![1],
        ];
        let m = RowMajorMatrix::from_rows(2, rows).unwrap();
        let trials = 600;
        let mut sum = 0.0;
        for seed in 0..trials {
            let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, seed).unwrap();
            sum += sigs.unbiased_similarity(0, 1);
        }
        let mean = sum / trials as f64;
        assert!((mean - 1.0 / 3.0).abs() < 0.03, "mean estimate {mean}");
    }

    #[test]
    fn single_pass_over_stream() {
        let m = matrix();
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let _ = compute_bottom_k(&mut counter, 4, 1).unwrap();
        assert_eq!(counter.passes(), 1);
        assert_eq!(counter.rows_read(), 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let rows: Vec<Vec<u32>> = (0..300u32)
            .map(|i| {
                let mut v = vec![i % 7, (i * 3 + 1) % 7];
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let m = RowMajorMatrix::from_rows(7, rows).unwrap();
        let seq = compute_bottom_k(&mut MemoryRowStream::new(&m), 12, 33).unwrap();
        for threads in [1, 2, 4] {
            let par = compute_bottom_k_pool(&m, 12, 33, &sfa_par::ThreadPool::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn from_parts_validates() {
        let ok = BottomKSignatures::from_parts(2, vec![vec![1, 2], vec![3]], vec![5, 1]);
        assert_eq!(ok.k(), 2);
        assert_eq!(ok.m(), 2);
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn from_parts_rejects_unsorted() {
        let _ = BottomKSignatures::from_parts(2, vec![vec![2, 1]], vec![2]);
    }
}
