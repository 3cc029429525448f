//! The Row-Sorting candidate generator (§3.1).
//!
//! "View the rows of `M̂` as a list of tuples containing a Min-Hash value
//! and the corresponding column number. We sort each row on the basis of
//! the Min-Hash values. This groups identical Min-Hash values together into
//! a sequence of *runs*. For each column, we maintain an index of the
//! position of its Min-Hash value in each sorted row." Agreement counting
//! then walks runs; expected cost `O(km log m + k S̄ m²)`.
//!
//! The generator runs on the shared counting kernel
//! ([`sfa_hash::BucketIndex`]): each signature row's runs of at least two
//! columns become buckets, and the paper's per-column counter loop walks
//! them with reusable counters. It shares the grouping step with
//! Hash-Count and differs only in its occupancy histogram, which counts
//! runs (buckets of at least two columns).
//!
//! The §6 extension's second counter set, for "`h(c_j)` at least as much
//! as `h(c_i)`", is per pair the estimator `sfa_core::confidence::prob_le`.

use sfa_par::ThreadPool;

use crate::candidates::{CandidateGen, CandidateGenStats, CandidatePair};
use crate::hashcount::{agreement_rule, signature_row_index};
use crate::signature::SignatureMatrix;

/// Row-Sorting candidate generation with the same admission rule as the
/// Hash-Count MH path.
#[must_use]
pub fn rowsort_candidates(sigs: &SignatureMatrix, s_star: f64, delta: f64) -> Vec<CandidatePair> {
    rowsort_candidates_with_stats(sigs, s_star, delta).0
}

/// Row-Sorting's phase 2 ready to walk: the runs of every signature row
/// (grouped over `pool`) and the agreement rule.
#[must_use]
pub fn rowsort_generator(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> CandidateGen<'static> {
    CandidateGen::new(
        signature_row_index(sigs, false, pool),
        agreement_rule(sigs, s_star, delta),
    )
}

/// [`rowsort_candidates`] plus instrumentation. The histogram counts
/// sorted-row *runs* by length (the Row-Sorting analogue of Hash-Count
/// bucket occupancy: a run of length `s` is exactly a bucket of `s`
/// agreeing columns).
#[must_use]
pub fn rowsort_candidates_with_stats(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    rowsort_candidates_with_stats_pool(sigs, s_star, delta, &ThreadPool::new(1))
}

/// Pool-based [`rowsort_candidates_with_stats`]: identical candidates,
/// stage counters, and run-length histogram.
#[must_use]
pub fn rowsort_candidates_with_stats_pool(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    rowsort_generator(sigs, s_star, delta, pool).generate(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mh::compute_signatures;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        let rows = vec![
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2],
            vec![2, 3],
            vec![2, 3],
            vec![4],
        ];
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    #[test]
    fn rowsort_candidates_match_hashcount_candidates() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 128, 11).unwrap();
        let a = rowsort_candidates(&sigs, 0.7, 0.2);
        let b = crate::hashcount::mh_candidates(&sigs, 0.7, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_variant_matches_plain_generator() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 128, 11).unwrap();
        let (cands, stats) = rowsort_candidates_with_stats(&sigs, 0.7, 0.2);
        assert_eq!(cands, rowsort_candidates(&sigs, 0.7, 0.2));
        assert_eq!(stats.stage("threshold-admitted"), Some(cands.len() as u64));
        // Run-length histogram and increments must agree:
        // a run of length s contributes s·(s−1)/2 increments.
        let from_hist: u64 = stats
            .bucket_histogram
            .iter()
            .enumerate()
            .map(|(s, &n)| n * (s as u64 * (s as u64).saturating_sub(1) / 2))
            .sum();
        assert_eq!(stats.stage("counter-increments"), Some(from_hist));
    }

    #[test]
    fn empty_sentinel_runs_are_ignored() {
        use crate::signature::EMPTY_SIGNATURE;
        let sigs = SignatureMatrix::from_values(1, 3, vec![EMPTY_SIGNATURE, EMPTY_SIGNATURE, 4]);
        // At s* = 0 every pair agreeing on one row is a candidate.
        assert!(
            rowsort_candidates(&sigs, 0.0, 0.0).is_empty(),
            "two empty columns must not agree"
        );
    }
}
