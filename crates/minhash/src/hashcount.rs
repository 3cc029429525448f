//! The Hash-Count candidate generator (§3.1).
//!
//! "We associate a bucket with each Min-Hash value … and store
//! column-indices for all columns `c_i` with some element of `SIG_i`
//! hashing into that bucket. … For each column `c_j` in the bucket, we
//! increment the counter for `(c_i, c_j)`." The total work is the number of
//! counter increments — `O(k S̄ m²)` expected — with **no** term quadratic
//! in `m` when the average similarity `S̄` is small.
//!
//! Both flavours run on the shared counting kernel
//! ([`sfa_hash::BucketIndex`]): the buckets are grouped once, then each
//! focus column's later partners are counted in reusable counters, so no
//! table of pair counts is ever built.

use sfa_hash::BucketIndex;
use sfa_par::ThreadPool;

use crate::candidates::{CandidateGen, CandidateGenStats, CandidatePair, PairRule};
use crate::kmh::BottomKSignatures;
use crate::signature::{SignatureMatrix, EMPTY_SIGNATURE};
use crate::theory::agreement_threshold;

/// The bucket index of the signature-matrix schemes (MH and Row-Sorting):
/// one table per signature row, keyed by min-hash value — "we use a
/// different hash table (and set of buckets) for each row of the matrix
/// `M̂`". Empty columns ([`EMPTY_SIGNATURE`]) never enter a bucket.
/// Hash-Count occupancy counts every bucket (`count_singletons`),
/// Row-Sorting only runs of at least two columns.
pub(crate) fn signature_row_index(
    sigs: &SignatureMatrix,
    count_singletons: bool,
    pool: &ThreadPool,
) -> BucketIndex {
    BucketIndex::build(sigs.m(), sigs.k(), count_singletons, pool, || {
        |l: usize, out: &mut Vec<(u64, u32)>| {
            for (j, &v) in sigs.row(l).iter().enumerate() {
                if v != EMPTY_SIGNATURE {
                    out.push((v, j as u32));
                }
            }
        }
    })
}

/// The MH admission rule: at least `(1 − δ)·s*·k` agreeing rows.
pub(crate) fn agreement_rule(sigs: &SignatureMatrix, s_star: f64, delta: f64) -> PairRule<'static> {
    PairRule::Agreement {
        threshold: agreement_threshold(sigs.k(), s_star, delta) as u32,
        k: sigs.k(),
    }
}

/// MH candidate generation: pairs agreeing on at least
/// `(1 − δ)·s*·k` of their `k` min-hash values, with `Ŝ` as estimate.
#[must_use]
pub fn mh_candidates(sigs: &SignatureMatrix, s_star: f64, delta: f64) -> Vec<CandidatePair> {
    mh_candidates_with_stats(sigs, s_star, delta).0
}

/// MH's phase 2 ready to walk: the per-row bucket index (grouped over
/// `pool`) and the agreement rule.
#[must_use]
pub fn mh_generator(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> CandidateGen<'static> {
    CandidateGen::new(
        signature_row_index(sigs, true, pool),
        agreement_rule(sigs, s_star, delta),
    )
}

/// [`mh_candidates`] plus instrumentation: per-stage counters
/// (`counter-increments`, `pairs-agreeing`, `threshold-admitted`) and the
/// aggregate occupancy histogram of the `k` per-row bucket tables.
#[must_use]
pub fn mh_candidates_with_stats(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    mh_candidates_with_stats_pool(sigs, s_star, delta, &ThreadPool::new(1))
}

/// Pool-based [`mh_candidates_with_stats`]: workers split the signature
/// rows for grouping and the focus columns for counting; identical
/// candidates, stage counters, and occupancy histogram.
#[must_use]
pub fn mh_candidates_with_stats_pool(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    mh_generator(sigs, s_star, delta, pool).generate(pool)
}

/// The K-MH bucket index: "a single bucket table over all values" — one
/// table of every `(sketch value, column)` entry.
fn kmh_index(sigs: &BottomKSignatures, pool: &ThreadPool) -> BucketIndex {
    BucketIndex::build(sigs.m(), 1, true, pool, || {
        |_: usize, out: &mut Vec<(u64, u32)>| {
            let cols = 0..sigs.m() as u32;
            out.reserve_exact(cols.clone().map(|j| sigs.signature(j).len()).sum());
            for j in cols {
                out.extend(sigs.signature(j).iter().map(|&v| (v, j)));
            }
        }
    })
}

/// K-MH candidate generation (§3.2's two-stage plan):
///
/// 1. compute the sketch overlaps with Hash-Count (`O(k S̄ m²)`),
/// 2. admit pairs whose overlap clears the per-pair biased threshold,
/// 3. re-score the admitted pairs with the Theorem 2 unbiased estimator
///    (the "main-memory candidate pruning phase") and keep those at
///    `≥ (1 − δ)·s*`.
#[must_use]
pub fn kmh_candidates(sigs: &BottomKSignatures, s_star: f64, delta: f64) -> Vec<CandidatePair> {
    kmh_candidates_with_stats(sigs, s_star, delta).0
}

/// K-MH's phase 2 ready to walk: the sketch-value bucket index and the
/// overlap-then-rescore rule.
#[must_use]
pub fn kmh_generator<'a>(
    sigs: &'a BottomKSignatures,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> CandidateGen<'a> {
    CandidateGen::new(
        kmh_index(sigs, pool),
        PairRule::Overlap {
            sigs,
            s_star,
            delta,
        },
    )
}

/// [`kmh_candidates`] plus instrumentation: per-stage counters
/// (`counter-increments`, `pairs-overlapping`, `overlap-admitted`,
/// `rescore-admitted`) and the occupancy histogram of the single
/// sketch-value bucket table.
#[must_use]
pub fn kmh_candidates_with_stats(
    sigs: &BottomKSignatures,
    s_star: f64,
    delta: f64,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    kmh_candidates_with_stats_pool(sigs, s_star, delta, &ThreadPool::new(1))
}

/// Pool-based [`kmh_candidates_with_stats`]: identical candidates and
/// instrumentation; the overlap count and the per-pair threshold and
/// re-scoring run over focus-column ranges split across the pool.
#[must_use]
pub fn kmh_candidates_with_stats_pool(
    sigs: &BottomKSignatures,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    kmh_generator(sigs, s_star, delta, pool).generate(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sfa_hash::PairWalker;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    /// Matrix with one highly similar pair (0, 1), a partial pair (2, 3),
    /// and an isolated column 4.
    fn matrix() -> RowMajorMatrix {
        let rows = vec![
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![2, 3],
            vec![2],
            vec![3],
            vec![4],
            vec![4],
        ];
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    #[test]
    fn pool_generators_match_sequential_at_every_thread_count() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 64, 3).unwrap();
        let ksigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 3).unwrap();
        let seq = mh_candidates_with_stats(&sigs, 0.5, 0.2);
        let kseq = kmh_candidates_with_stats(&ksigs, 0.5, 0.2);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                mh_candidates_with_stats_pool(&sigs, 0.5, 0.2, &pool),
                seq,
                "threads {threads}"
            );
            assert_eq!(
                kmh_candidates_with_stats_pool(&ksigs, 0.5, 0.2, &pool),
                kseq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn mh_candidates_find_similar_pair() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 200, 5).unwrap();
        let cands = mh_candidates(&sigs, 0.8, 0.2);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "missing the similar pair: {cands:?}"
        );
        // The isolated column never appears.
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    fn mh_candidates_threshold_excludes_weak_pairs() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 200, 5).unwrap();
        // S(2,3) = 2/4 = 0.5 < 0.8·(1−0.1): excluded at high cutoff.
        let cands = mh_candidates(&sigs, 0.9, 0.1);
        assert!(cands.iter().all(|c| c.ids() != (2, 3)), "{cands:?}");
    }

    fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0..bound, 0..=max_len)
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
    }

    fn small_matrix() -> impl Strategy<Value = RowMajorMatrix> {
        (1u32..14, 2u32..8).prop_flat_map(|(n_rows, n_cols)| {
            prop::collection::vec(row_set(n_cols, n_cols as usize), n_rows as usize)
                .prop_map(move |rows| RowMajorMatrix::from_rows(n_cols, rows).unwrap())
        })
    }

    proptest! {
        /// A walk of the sketch-value index counts `|SIG_i ∩ SIG_j|` for
        /// every pair sharing a value, and no other pair.
        #[test]
        fn kmh_index_counts_sketch_overlaps(
            m in small_matrix(),
            k in 1usize..8,
            seed in any::<u64>(),
        ) {
            let sigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), k, seed).unwrap();
            let index = kmh_index(&sigs, &ThreadPool::new(1));
            let mut walker = PairWalker::new(&index);
            let mut walked = Vec::new();
            for i in 0..m.n_cols() {
                walker.column(i, |j, count| walked.push((i, j, count as usize)));
            }
            let mut want = Vec::new();
            for i in 0..m.n_cols() {
                for j in (i + 1)..m.n_cols() {
                    let overlap = sigs.intersection_size(i, j);
                    if overlap > 0 {
                        want.push((i, j, overlap));
                    }
                }
            }
            prop_assert_eq!(walked, want);
        }
    }

    #[test]
    fn kmh_candidates_find_similar_pair() {
        let m = matrix();
        let sigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 16, 5).unwrap();
        let cands = kmh_candidates(&sigs, 0.8, 0.2);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "missing the similar pair: {cands:?}"
        );
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    fn stats_variants_match_plain_generators() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 64, 3).unwrap();
        let (cands, stats) = mh_candidates_with_stats(&sigs, 0.8, 0.2);
        assert_eq!(cands, mh_candidates(&sigs, 0.8, 0.2));
        assert_eq!(stats.stage("threshold-admitted"), Some(cands.len() as u64));
        assert!(stats.stage("counter-increments").unwrap() > 0);
        assert!(stats.bucket_histogram.iter().sum::<u64>() > 0);

        let ksigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 16, 5).unwrap();
        let (kcands, kstats) = kmh_candidates_with_stats(&ksigs, 0.8, 0.2);
        assert_eq!(kcands, kmh_candidates(&ksigs, 0.8, 0.2));
        assert_eq!(kstats.stage("rescore-admitted"), Some(kcands.len() as u64));
        assert!(kstats.stage("pairs-overlapping").unwrap() >= kcands.len() as u64);
    }

    #[test]
    fn no_candidates_on_disjoint_columns() {
        let rows = vec![vec![0], vec![1], vec![2]];
        let m = RowMajorMatrix::from_rows(3, rows).unwrap();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 32, 1).unwrap();
        assert!(mh_candidates(&sigs, 0.5, 0.2).is_empty());
        let ksigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 1).unwrap();
        assert!(kmh_candidates(&ksigs, 0.5, 0.2).is_empty());
    }
}
