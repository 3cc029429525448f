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
//! [`SortedRows`] keeps the sorted-row view itself: the focus-column
//! variant ([`SortedRows::agreements_with`]) and the §6 confidence
//! extension, which needs the second counter set for "`h(c_j)` at least
//! as much as `h(c_i)`".

use sfa_hash::{PairCounter, SparseCounters};
use sfa_par::ThreadPool;

use crate::candidates::{CandidateGen, CandidateGenStats, CandidatePair};
use crate::hashcount::{agreement_rule, signature_row_index};
use crate::signature::{SignatureMatrix, EMPTY_SIGNATURE};

/// The sorted-row view of a signature matrix: per signature row, the
/// `(value, column)` tuples in ascending value order, plus the per-column
/// position index.
#[derive(Debug)]
pub struct SortedRows {
    /// `rows[l]` = the `l`th signature row sorted by value.
    rows: Vec<Vec<(u64, u32)>>,
    /// `index[l][j]` = position of column `j` within `rows[l]`.
    index: Vec<Vec<u32>>,
}

impl SortedRows {
    /// Sorts every row of the signature matrix; `O(k m log m)`.
    #[must_use]
    pub fn build(sigs: &SignatureMatrix) -> Self {
        let m = sigs.m();
        let mut rows = Vec::with_capacity(sigs.k());
        let mut index = Vec::with_capacity(sigs.k());
        for l in 0..sigs.k() {
            let mut row: Vec<(u64, u32)> = sigs
                .row(l)
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, j as u32))
                .collect();
            row.sort_unstable();
            let mut idx = vec![0u32; m];
            for (pos, &(_, j)) in row.iter().enumerate() {
                idx[j as usize] = pos as u32;
            }
            rows.push(row);
            index.push(idx);
        }
        Self { rows, index }
    }

    /// Number of sorted rows (`k`).
    #[must_use]
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// The run (maximal span of equal values) containing column `j` in
    /// sorted row `l`.
    #[must_use]
    pub fn run_of(&self, l: usize, j: u32) -> &[(u64, u32)] {
        let row = &self.rows[l];
        let pos = self.index[l][j as usize] as usize;
        let v = row[pos].0;
        let mut lo = pos;
        while lo > 0 && row[lo - 1].0 == v {
            lo -= 1;
        }
        let mut hi = pos + 1;
        while hi < row.len() && row[hi].0 == v {
            hi += 1;
        }
        &row[lo..hi]
    }

    /// Agreement counts of `focus` against every other column, using the
    /// paper's reusable-counter loop. Returns `(column, agreements)` for
    /// columns with at least one agreement, unsorted.
    ///
    /// `counters` must span at least `m` slots and is left reset.
    #[must_use]
    pub fn agreements_with(
        &self,
        sigs: &SignatureMatrix,
        focus: u32,
        counters: &mut SparseCounters,
    ) -> Vec<(u32, u32)> {
        for l in 0..self.k() {
            if sigs.get(l, focus) == EMPTY_SIGNATURE {
                continue;
            }
            for &(_, other) in self.run_of(l, focus) {
                if other != focus {
                    counters.increment(other);
                }
            }
        }
        counters.drain_at_least(1)
    }

    /// The §6 two-counter extension: for `focus`, counts per other column
    /// both (a) rows where the min-hash values agree and (b) rows where the
    /// other column's value is **at least** `focus`'s — the estimator of
    /// `Pr[h(c_focus) ≤ h(c_j)] = |C_focus| / |C_focus ∪ C_j|`.
    ///
    /// "We maintain two sets of counters for each column `c_i`: one for
    /// counting the number of rows for which each column `c_j` agrees with
    /// the hash value of `c_i` and the other for counting the number of
    /// rows for which the hash value of `c_j` is at least as much as that
    /// of `c_i`." Returns dense vectors over all `m` columns
    /// (`O(k·m)` per focus column, `O(k·m²)` for all — the paper's bound).
    ///
    /// Rows where `focus` is empty ([`EMPTY_SIGNATURE`]) are skipped.
    #[must_use]
    pub fn agreement_and_ge_counts(
        &self,
        sigs: &SignatureMatrix,
        focus: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let m = sigs.m();
        let mut agree = vec![0u32; m];
        let mut ge = vec![0u32; m];
        for l in 0..self.k() {
            let v = sigs.get(l, focus);
            if v == EMPTY_SIGNATURE {
                continue;
            }
            let row = &self.rows[l];
            let pos = self.index[l][focus as usize] as usize;
            // Everything positioned at or after the start of focus's run
            // has value ≥ v; walk back to the run start, then forward.
            let mut start = pos;
            while start > 0 && row[start - 1].0 == v {
                start -= 1;
            }
            for &(val, col) in &row[start..] {
                if col == focus {
                    continue;
                }
                ge[col as usize] += 1;
                if val == v {
                    agree[col as usize] += 1;
                }
            }
        }
        (agree, ge)
    }
}

/// All-pairs agreement counting over the sorted rows' runs (the
/// Row-Sorting analogue of
/// [`mh_agreement_counts`](crate::hashcount::mh_agreement_counts) —
/// identical counts).
#[must_use]
pub fn rowsort_agreement_counts(sigs: &SignatureMatrix) -> PairCounter {
    signature_row_index(sigs, false, &ThreadPool::new(1)).pair_counts()
}

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
    use crate::hashcount::mh_agreement_counts;
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
    fn sorted_rows_index_is_consistent() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 8, 3).unwrap();
        let sorted = SortedRows::build(&sigs);
        for l in 0..8 {
            for j in 0..5u32 {
                let run = sorted.run_of(l, j);
                assert!(
                    run.iter().any(|&(v, c)| c == j && v == sigs.get(l, j)),
                    "column {j} missing from its own run in row {l}"
                );
                // Run values are all equal.
                assert!(run.iter().all(|&(v, _)| v == run[0].0));
            }
        }
    }

    #[test]
    fn rowsort_matches_hashcount() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 64, 7).unwrap();
        let by_sort = rowsort_agreement_counts(&sigs);
        let by_hash = mh_agreement_counts(&sigs);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                assert_eq!(by_sort.get(i, j), by_hash.get(i, j), "pair ({i}, {j})");
            }
        }
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
    fn agreements_with_matches_pairwise() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 32, 5).unwrap();
        let sorted = SortedRows::build(&sigs);
        let mut counters = SparseCounters::new(5);
        let mut got = sorted.agreements_with(&sigs, 0, &mut counters);
        got.sort_unstable();
        for &(other, count) in &got {
            assert_eq!(count as usize, sigs.agreement_count(0, other));
        }
        // Columns with nonzero agreement all appear.
        for j in 1..5u32 {
            let direct = sigs.agreement_count(0, j);
            let found = got.iter().find(|&&(c, _)| c == j).map_or(0, |&(_, n)| n);
            assert_eq!(found as usize, direct, "column {j}");
        }
        // Counters were reset by drain.
        assert!(counters.touched().is_empty());
    }

    #[test]
    fn agreement_and_ge_counts_match_direct() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 48, 9).unwrap();
        let sorted = SortedRows::build(&sigs);
        for focus in 0..5u32 {
            let (agree, ge) = sorted.agreement_and_ge_counts(&sigs, focus);
            for other in 0..5u32 {
                if other == focus {
                    continue;
                }
                let direct_agree = sigs.agreement_count(focus, other) as u32;
                let direct_ge = (0..48)
                    .filter(|&l| {
                        let v = sigs.get(l, focus);
                        v != crate::signature::EMPTY_SIGNATURE && sigs.get(l, other) >= v
                    })
                    .count() as u32;
                assert_eq!(
                    agree[other as usize], direct_agree,
                    "agree {focus}->{other}"
                );
                assert_eq!(ge[other as usize], direct_ge, "ge {focus}->{other}");
            }
        }
    }

    #[test]
    fn ge_counts_estimate_cardinality_ratio() {
        // c0 ⊂ c1 with |C0| = 10, |C1| = 30 → Pr[h(c0) ≤ h(c1)] = 1/3...
        // here reversed: Pr[h(c1) ≤ h(c0)] = 1 since C0 ⊂ C1.
        let mut rows = vec![vec![0u32, 1]; 10];
        rows.extend(vec![vec![1u32]; 20]);
        let m = RowMajorMatrix::from_rows(2, rows).unwrap();
        let k = 3000;
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), k, 5).unwrap();
        let sorted = SortedRows::build(&sigs);
        // ge[1] from focus 0 counts rows with h(c1) ≥ h(c0): that is
        // Pr[h(c0) ≤ h(c1)] = |C0| / |C0 ∪ C1| = 10/30.
        let (_, ge) = sorted.agreement_and_ge_counts(&sigs, 0);
        let frac = f64::from(ge[1]) / k as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.04, "fraction {frac}");
    }

    #[test]
    fn empty_sentinel_runs_are_ignored() {
        use crate::signature::EMPTY_SIGNATURE;
        let sigs = SignatureMatrix::from_values(1, 3, vec![EMPTY_SIGNATURE, EMPTY_SIGNATURE, 4]);
        let counts = rowsort_agreement_counts(&sigs);
        assert_eq!(counts.get(0, 1), 0, "two empty columns must not agree");
    }
}
