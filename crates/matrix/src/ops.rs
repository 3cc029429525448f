//! Whole-matrix operations: support pruning, column selection, and the
//! random row-pairing OR-fold that defines the H-LSH density ladder (§4.2).
//! H-LSH draws the pairings and reads each level as blocks of base rows;
//! the fold itself is the reference its tests check against.

use crate::csc::SparseMatrix;
use crate::csr::RowMajorMatrix;
use crate::error::{MatrixError, Result};

/// Removes columns whose support count is below `min_count`.
///
/// Returns the pruned matrix together with the original ids of the kept
/// columns (`kept[j'] = j`), so results can be mapped back. This is the
/// preprocessing a priori needs to become runnable at all on sparse data
/// (paper §5, Fig. 4: "we do support pruning to remove columns that have
/// very few 1s in them").
#[must_use]
pub fn prune_support(matrix: &SparseMatrix, min_count: usize) -> (SparseMatrix, Vec<u32>) {
    let mut kept = Vec::new();
    let mut columns = Vec::new();
    for (j, col) in matrix.columns() {
        if col.len() >= min_count {
            kept.push(j);
            columns.push(col.to_vec());
        }
    }
    let pruned = SparseMatrix::from_columns(matrix.n_rows(), columns)
        .expect("columns copied from a valid matrix");
    (pruned, kept)
}

/// Restricts a matrix to the given columns (ids must be in range and
/// strictly ascending).
///
/// # Errors
///
/// Returns an error on out-of-range or unsorted ids.
pub fn select_columns(matrix: &SparseMatrix, ids: &[u32]) -> Result<SparseMatrix> {
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(MatrixError::Parse {
            at: 0,
            detail: "column selection must be strictly ascending".into(),
        });
    }
    let mut columns = Vec::with_capacity(ids.len());
    for &j in ids {
        if j >= matrix.n_cols() {
            return Err(MatrixError::IndexOutOfRange {
                kind: "column",
                index: j,
                bound: matrix.n_cols(),
            });
        }
        columns.push(matrix.column(j).to_vec());
    }
    SparseMatrix::from_columns(matrix.n_rows(), columns)
}

/// A random pairing of rows: `pairing[2t]` and `pairing[2t+1]` are merged
/// into row `t` of the folded matrix. With an odd row count the last entry
/// passes through unpaired.
#[must_use]
pub fn random_row_pairing(n_rows: u32, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n_rows).collect();
    let mut seq = sfa_hash::SeedSequence::new(seed);
    // Fisher–Yates; modulo bias is negligible for n ≪ 2^64.
    for i in (1..perm.len()).rev() {
        let j = (seq.next_seed() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// OR-folds a matrix by a row pairing: the folded matrix has
/// `⌈n/2⌉` rows, row `t` being the bitwise OR of rows `pairing[2t]` and
/// `pairing[2t+1]`.
///
/// This is the density-doubling step of the H-LSH ladder: "the matrix
/// `M_{i+1}` is obtained from the matrix `M_i` by randomly pairing all rows
/// of `M_i`, and placing in `M_{i+1}` the OR of each pair" (§4.2).
///
/// # Errors
///
/// Returns an error if `pairing` is not a permutation of `0..n_rows`.
pub fn or_fold_rows(matrix: &RowMajorMatrix, pairing: &[u32]) -> Result<RowMajorMatrix> {
    let n = matrix.n_rows() as usize;
    if pairing.len() != n {
        return Err(MatrixError::DimensionMismatch {
            detail: format!("pairing has {} entries for {n} rows", pairing.len()),
        });
    }
    let mut seen = vec![false; n];
    for &p in pairing {
        if p as usize >= n || seen[p as usize] {
            return Err(MatrixError::Parse {
                at: 0,
                detail: "pairing is not a permutation".into(),
            });
        }
        seen[p as usize] = true;
    }
    let folded_rows = n.div_ceil(2);
    let mut rows = Vec::with_capacity(folded_rows);
    let mut chunks = pairing.chunks_exact(2);
    for pair in &mut chunks {
        let a = matrix.row(pair[0]);
        let b = matrix.row(pair[1]);
        rows.push(union_sorted(a, b));
    }
    if let [last] = chunks.remainder() {
        rows.push(matrix.row(*last).to_vec());
    }
    RowMajorMatrix::from_rows(matrix.n_cols(), rows)
}

/// Convenience: OR-fold with a seeded random pairing.
#[must_use]
pub fn or_fold_random(matrix: &RowMajorMatrix, seed: u64) -> RowMajorMatrix {
    let pairing = random_row_pairing(matrix.n_rows(), seed);
    or_fold_rows(matrix, &pairing).expect("generated pairing is a permutation")
}

fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> SparseMatrix {
        SparseMatrix::from_columns(
            6,
            vec![vec![0, 1, 2, 3], vec![0], vec![1, 4], vec![], vec![2, 3, 5]],
        )
        .unwrap()
    }

    #[test]
    fn prune_support_drops_sparse_columns() {
        let m = matrix();
        let (pruned, kept) = prune_support(&m, 2);
        assert_eq!(kept, vec![0, 2, 4]);
        assert_eq!(pruned.n_cols(), 3);
        assert_eq!(pruned.column(0), m.column(0));
        assert_eq!(pruned.column(1), m.column(2));
    }

    #[test]
    fn prune_support_zero_keeps_everything() {
        let m = matrix();
        let (pruned, kept) = prune_support(&m, 0);
        assert_eq!(pruned, m);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn select_columns_maps_ids() {
        let m = matrix();
        let s = select_columns(&m, &[1, 4]).unwrap();
        assert_eq!(s.n_cols(), 2);
        assert_eq!(s.column(0), &[0]);
        assert_eq!(s.column(1), &[2, 3, 5]);
        assert!(select_columns(&m, &[4, 1]).is_err());
        assert!(select_columns(&m, &[9]).is_err());
    }

    #[test]
    fn random_pairing_is_permutation() {
        let p = random_row_pairing(101, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..101).collect::<Vec<u32>>());
        // seeded determinism:
        assert_eq!(p, random_row_pairing(101, 7));
        assert_ne!(p, random_row_pairing(101, 8));
    }

    #[test]
    fn or_fold_halves_rows_and_ors_content() {
        let m = RowMajorMatrix::from_rows(4, vec![vec![0], vec![1], vec![2], vec![0, 3]]).unwrap();
        // identity pairing: (0,1) and (2,3)
        let folded = or_fold_rows(&m, &[0, 1, 2, 3]).unwrap();
        assert_eq!(folded.n_rows(), 2);
        assert_eq!(folded.row(0), &[0, 1]);
        assert_eq!(folded.row(1), &[0, 2, 3]);
    }

    #[test]
    fn or_fold_odd_row_passes_through() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0], vec![1], vec![0, 1]]).unwrap();
        let folded = or_fold_rows(&m, &[2, 0, 1]).unwrap();
        assert_eq!(folded.n_rows(), 2);
        assert_eq!(folded.row(0), &[0, 1]); // rows 2|0
        assert_eq!(folded.row(1), &[1]); // leftover row 1
    }

    #[test]
    fn or_fold_preserves_column_presence() {
        // A column nonempty before the fold stays nonempty after.
        let m = matrix().transpose();
        let folded = or_fold_random(&m, 3);
        let before = m.column_counts();
        let after = folded.column_counts();
        for (j, (&b, &a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b > 0, a > 0, "column {j}");
            assert!(a <= b, "OR-fold cannot increase a column count");
        }
    }

    #[test]
    fn or_fold_rejects_non_permutations() {
        let m = matrix().transpose();
        assert!(or_fold_rows(&m, &[0, 0, 1, 2, 3, 4]).is_err());
        assert!(or_fold_rows(&m, &[0, 1]).is_err());
    }

    #[test]
    fn or_fold_density_roughly_doubles() {
        // On a sparse random-ish matrix, folding halves rows while keeping
        // most 1s, so per-column density (count / n_rows) roughly doubles.
        let rows: Vec<Vec<u32>> = (0..128u32)
            .map(|i| if i % 4 == 0 { vec![0] } else { vec![] })
            .collect();
        let m = RowMajorMatrix::from_rows(1, rows).unwrap();
        let folded = or_fold_random(&m, 11);
        let d0 = m.column_counts()[0] as f64 / m.n_rows() as f64;
        let d1 = folded.column_counts()[0] as f64 / folded.n_rows() as f64;
        assert!(d1 > d0 * 1.5, "density {d0} -> {d1}");
    }
}
