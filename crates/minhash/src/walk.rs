//! MH phase 1 in permutation order, for a table held in memory.
//!
//! §3 defines a column's min-hash as "the index of the first row under the
//! permutation that has a 1 in that column". The fold in
//! [`MhBuilder`](crate::builder::MhBuilder) reaches that value as a running
//! minimum, `k` min-merges for every 1-entry. With the rows resident, each
//! of the `k` permutations can be walked instead: visit the non-empty rows
//! in ascending `h_l(row)`, give each column the first value it meets, and
//! stop once every non-empty column has one. The first value a column
//! meets is its minimum, so the signatures are the fold's, bit for bit.
//!
//! The walk pays only when it stops early, that is when the first rows in
//! hash order already hit every column. [`pays`] decides that from the
//! column counts.

use std::sync::Mutex;

use sfa_hash::{HashFamily, RowHasher};
use sfa_matrix::RowMajorMatrix;

use crate::signature::{SignatureMatrix, EMPTY_SIGNATURE};

/// The gate's share of the rows, and its bound on the expected number of
/// columns that share leaves unhit.
///
/// In a uniformly random order of the `n` non-empty rows, the first
/// `x·n` rows miss column `j` with probability at most `(1 − x)^{c_j}`,
/// where `c_j` is the column's number of ones. At `x = 1/8` the sum
/// `U = Σ_j (7/8)^{c_j}` over the non-empty columns bounds the expected
/// number of columns left unhit, so by a union bound the walk runs past
/// the first eighth of the rows with probability at most `U`. Its
/// expected stopping point is then at most `1/8 + U · 7/8` of the rows,
/// which is below a quarter when `U ≤ 1/8`. The fold's cost per 1-entry
/// is the same on every table, while the walk's grows with how far it
/// runs, so the gate walks only inside that quarter.
const GATE_SHARE: f64 = 1.0 / 8.0;
const GATE_UNHIT: f64 = 1.0 / 8.0;

/// Whether walking beats folding on a table with these column counts:
/// `Σ_j (7/8)^{c_j} ≤ 1/8` over the non-empty columns (see [`GATE_SHARE`]).
pub(crate) fn pays(column_counts: &[u32]) -> bool {
    expected_unhit(column_counts, GATE_SHARE) <= GATE_UNHIT
}

/// `Σ_j (1 − share)^{c_j}` over the non-empty columns, cut short once it
/// passes [`GATE_UNHIT`].
fn expected_unhit(column_counts: &[u32], share: f64) -> f64 {
    let ln_miss = (1.0 - share).ln();
    let mut sum = 0.0;
    for &c in column_counts.iter().filter(|&&c| c > 0) {
        sum += (f64::from(c) * ln_miss).exp();
        if sum > GATE_UNHIT {
            break;
        }
    }
    sum
}

/// The hash bound of a walk's first band: `u64::MAX >> s` for the largest
/// `s ≥ 3` (at most 32) at which the first `2^{−s}` of the rows still
/// leave at most [`GATE_UNHIT`] columns unhit in expectation. So the first
/// band is sorted whole and usually finishes the walk; a walk that runs
/// past it takes bands of doubling width.
fn first_band_bound(column_counts: &[u32]) -> u64 {
    let mut s = 3;
    while s < 32 && expected_unhit(column_counts, 0.5f64.powi(s + 1)) <= GATE_UNHIT {
        s += 1;
    }
    u64::MAX >> s
}

/// The `k × m` MH signatures of `table` by `k` permutation-order walks,
/// split over `pool`. Equal to the fold's signatures on every table;
/// faster where [`pays`] holds for `column_counts`, the table's
/// [`column_counts`](RowMajorMatrix::column_counts).
pub(crate) fn signatures(
    table: &RowMajorMatrix,
    column_counts: &[u32],
    k: usize,
    seed: u64,
    pool: &sfa_par::ThreadPool,
) -> SignatureMatrix {
    let m = table.n_cols() as usize;
    let family = HashFamily::new(k, seed);
    let rows: Vec<u32> = (0..table.n_rows())
        .filter(|&i| table.row_count(i) > 0)
        .collect();
    let plan = Plan {
        table,
        rows: &rows,
        columns: column_counts.iter().filter(|&&c| c > 0).count(),
        first_bound: first_band_bound(column_counts),
    };
    let mut values = vec![EMPTY_SIGNATURE; k * m];
    // Workers claim whole signature rows, one hash function at a time.
    let next_row = Mutex::new(values.chunks_mut(m.max(1)).enumerate());
    pool.run(|_| {
        let mut walker = Walker::new(&plan);
        loop {
            let claimed = next_row
                .lock()
                .expect("a walker panicked while claiming a row")
                .next();
            let Some((l, out)) = claimed else {
                break;
            };
            walker.walk(family.member(l), out);
        }
    });
    SignatureMatrix::from_values(k, m, values)
}

/// What every walk over one table shares.
struct Plan<'a> {
    table: &'a RowMajorMatrix,
    /// The table's non-empty rows, ascending.
    rows: &'a [u32],
    /// Number of non-empty columns: a walk is done once it has hit them all.
    columns: usize,
    first_bound: u64,
}

/// One worker's scratch for walking permutations, one at a time.
struct Walker<'a> {
    plan: &'a Plan<'a>,
    /// `hashes[i]` is the current permutation's hash of `plan.rows[i]`.
    hashes: Vec<u64>,
    /// The current band's `(hash, row)` pairs, sorted by hash.
    band: Vec<(u64, u32)>,
}

impl<'a> Walker<'a> {
    fn new(plan: &'a Plan<'a>) -> Self {
        Self {
            plan,
            hashes: Vec::with_capacity(plan.rows.len()),
            band: Vec::new(),
        }
    }

    /// Fills `out` with the min-hashes of every column under `hasher`.
    fn walk(&mut self, hasher: RowHasher, out: &mut [u64]) {
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.clear();
        hashes.extend(self.plan.rows.iter().map(|&r| hasher.hash_row(r)));
        self.walk_hashes(&hashes, out);
        self.hashes = hashes;
    }

    /// Fills `out` with each column's first hash in ascending `hashes`
    /// order, where `hashes[i]` is the hash of `plan.rows[i]`. Rows are
    /// visited band by band: each band's rows are filtered by a hash
    /// bound and sorted, and the walk stops at the first row after which
    /// every non-empty column has a value.
    fn walk_hashes(&mut self, hashes: &[u64], out: &mut [u64]) {
        out.fill(EMPTY_SIGNATURE);
        let table = self.plan.table;
        let mut unhit = self.plan.columns;
        let (mut lo, mut hi) = (0u64, self.plan.first_bound);
        while unhit > 0 {
            self.band.clear();
            self.band.extend(
                hashes
                    .iter()
                    .zip(self.plan.rows)
                    .filter(|(&h, _)| (lo..=hi).contains(&h))
                    .map(|(&h, &r)| (h, r)),
            );
            self.band.sort_unstable_by_key(|&(h, _)| h);
            for &(h, r) in &self.band {
                // Only rows hashing to the sentinel are left: every
                // column still unhit has the sentinel as its minimum, and
                // already holds it.
                if h == EMPTY_SIGNATURE {
                    return;
                }
                for &c in table.row(r) {
                    let slot = &mut out[c as usize];
                    if *slot == EMPTY_SIGNATURE {
                        *slot = h;
                        unhit -= 1;
                    }
                }
                if unhit == 0 {
                    return;
                }
            }
            if hi == u64::MAX {
                break;
            }
            lo = hi + 1;
            hi = (hi << 1) | 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MhBuilder;
    use proptest::prelude::*;
    use sfa_par::ThreadPool;

    fn fold(table: &RowMajorMatrix, k: usize, seed: u64) -> SignatureMatrix {
        let mut b = MhBuilder::new(k, table.n_cols() as usize, seed);
        for (id, cols) in table.rows() {
            b.push_row(id, cols);
        }
        b.finish()
    }

    fn walk(table: &RowMajorMatrix, k: usize, seed: u64, pool: &ThreadPool) -> SignatureMatrix {
        signatures(table, &table.column_counts(), k, seed, pool)
    }

    /// Random tables of up to 40 × 12 with empty rows and columns, each
    /// cell set with a per-table probability up to 60%.
    fn table() -> impl Strategy<Value = RowMajorMatrix> {
        (1u32..40, 1u32..12, 0u32..60, any::<u64>()).prop_map(|(n, m, pct, seed)| {
            let mut x = seed;
            let rows = (0..n)
                .map(|_| {
                    (0..m)
                        .filter(|_| {
                            x = x
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            (x >> 33) % 100 < u64::from(pct)
                        })
                        .collect()
                })
                .collect();
            RowMajorMatrix::from_rows(m, rows).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The walk, run whatever the gate says, equals the fold.
        #[test]
        fn walk_equals_the_fold(m in table(), seed in any::<u64>()) {
            let pools = [1, 2, 4].map(ThreadPool::new);
            for k in [1, 3, 64] {
                let folded = fold(&m, k, seed);
                for pool in &pools {
                    prop_assert_eq!(&walk(&m, k, seed, pool), &folded, "k {}, {} threads", k, pool.threads());
                }
            }
        }
    }

    #[test]
    fn gate_walks_the_small_synthetic_table_and_folds_sparse_ones() {
        let dense = sfa_datagen::SyntheticConfig::small(10_000, 42)
            .generate()
            .matrix
            .transpose();
        assert!(pays(&dense.column_counts()));
        let weblog = sfa_datagen::WeblogConfig::tiny(7)
            .generate()
            .matrix
            .transpose();
        assert!(!pays(&weblog.column_counts()));
        // One singleton column beside dense ones: (7/8)^1 alone is past 1/8.
        let mut counts = vec![5_000; 100];
        counts.push(1);
        assert!(!pays(&counts));
        counts.pop();
        assert!(pays(&counts));
        // Empty columns need no value and do not count.
        counts.push(0);
        assert!(pays(&counts));
    }

    #[test]
    fn first_band_narrows_as_columns_fill() {
        assert_eq!(first_band_bound(&[1]), u64::MAX >> 3);
        assert_eq!(first_band_bound(&[u32::MAX]), u64::MAX >> 30);
        // 1000 columns of 400 ones: 1000 · (1 − 2^−s)^400 ≤ 1/8 up to s = 5.
        assert_eq!(first_band_bound(&[400; 1000]), u64::MAX >> 5);
    }

    /// Hand-made hashes: a row hashing to `EMPTY_SIGNATURE` (`u64::MAX`)
    /// still gives its columns their value, and the walk still stops.
    #[test]
    fn a_row_hashing_to_the_empty_sentinel_still_counts() {
        // Column 2 is only in row 0, which hashes to u64::MAX.
        let m =
            RowMajorMatrix::from_rows(4, vec![vec![0, 2], vec![0, 1], vec![], vec![1]]).unwrap();
        let counts = m.column_counts();
        let rows = [0, 1, 3];
        let plan = Plan {
            table: &m,
            rows: &rows,
            columns: 3,
            first_bound: first_band_bound(&counts),
        };
        let mut walker = Walker::new(&plan);
        let mut out = vec![0; 4];
        walker.walk_hashes(&[u64::MAX, 7, 1 << 62], &mut out);
        assert_eq!(out, vec![7, 7, u64::MAX, EMPTY_SIGNATURE]);
        // Every row at the sentinel: every column's minimum is the sentinel.
        walker.walk_hashes(&[u64::MAX; 3], &mut out);
        assert_eq!(out, vec![u64::MAX; 4]);
        // Ties and the band edges: the walk needs rows from two bands.
        let edge = plan.first_bound;
        walker.walk_hashes(&[edge + 1, edge, edge], &mut out);
        assert_eq!(out, vec![edge, edge, edge + 1, EMPTY_SIGNATURE]);
    }
}
