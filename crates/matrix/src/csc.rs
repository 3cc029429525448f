//! Column-major (CSC) sparse boolean matrix.

use crate::column::intersection_size_auto;
use crate::csr::RowMajorMatrix;
use crate::error::{MatrixError, Result};

/// A sparse 0/1 matrix stored column-major: for each column, the strictly
/// ascending list of rows holding a 1.
///
/// This is the in-memory form used for per-column work: ground-truth
/// similarity, verification bookkeeping, support pruning. The streaming
/// (row-major) view used by the signature passes is [`RowMajorMatrix`].
///
/// # Examples
///
/// ```
/// use sfa_matrix::SparseMatrix;
///
/// // Example 1 from the paper: 4 rows × 3 columns.
/// let m = SparseMatrix::from_columns(4, vec![
///     vec![0, 1],
///     vec![0, 1, 2],
///     vec![2, 3],
/// ]).unwrap();
/// assert!((m.similarity(0, 1) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(m.similarity(0, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    n_rows: u32,
    n_cols: u32,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
}

impl SparseMatrix {
    /// Builds from per-column row lists (each strictly ascending).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfRange`] if any row id is `>= n_rows`
    /// and [`MatrixError::Parse`] if a column is not strictly ascending.
    pub fn from_columns(n_rows: u32, columns: Vec<Vec<u32>>) -> Result<Self> {
        let n_cols = u32::try_from(columns.len()).map_err(|_| MatrixError::DimensionMismatch {
            detail: "more than u32::MAX columns".into(),
        })?;
        let nnz: usize = columns.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for (j, col) in columns.iter().enumerate() {
            if !col.windows(2).all(|w| w[0] < w[1]) {
                return Err(MatrixError::Parse {
                    at: j as u64,
                    detail: format!("column {j} is not strictly ascending"),
                });
            }
            if let Some(&last) = col.last() {
                if last >= n_rows {
                    return Err(MatrixError::IndexOutOfRange {
                        kind: "row",
                        index: last,
                        bound: n_rows,
                    });
                }
            }
            row_idx.extend_from_slice(col);
            col_ptr.push(row_idx.len());
        }
        Ok(Self {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
        })
    }

    /// Builds from raw CSC parts without per-element validation (debug
    /// asserted). Used by trusted in-crate constructors (transpose, IO).
    pub(crate) fn from_parts(
        n_rows: u32,
        n_cols: u32,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), n_cols as usize + 1);
        debug_assert_eq!(*col_ptr.last().unwrap_or(&0), row_idx.len());
        Self {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
        }
    }

    /// Number of rows `n`.
    #[must_use]
    pub const fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns `m`.
    #[must_use]
    pub const fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Total number of 1s, `|M|`.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The ascending row ids of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_cols`.
    #[must_use]
    pub fn column(&self, j: u32) -> &[u32] {
        let j = j as usize;
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// `|C_j|` — support count of column `j`.
    #[must_use]
    pub fn column_count(&self, j: u32) -> usize {
        let j = j as usize;
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Density `d_j = |C_j| / n`.
    #[must_use]
    pub fn density(&self, j: u32) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.column_count(j) as f64 / f64::from(self.n_rows)
        }
    }

    /// Exact `|C_i ∩ C_j|` via the adaptive kernel (merge / gallop /
    /// bitmap, chosen per call — see
    /// [`crate::column::intersection_size_auto`]).
    #[must_use]
    pub fn intersection_size(&self, i: u32, j: u32) -> usize {
        intersection_size_auto(self.column(i), self.column(j))
    }

    /// Exact Jaccard similarity `S(c_i, c_j)`.
    #[must_use]
    pub fn similarity(&self, i: u32, j: u32) -> f64 {
        let inter = self.intersection_size(i, j);
        let union = self.column_count(i) + self.column_count(j) - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Exact confidence `Conf(c_i ⇒ c_j)`.
    #[must_use]
    pub fn confidence(&self, i: u32, j: u32) -> f64 {
        let ci = self.column_count(i);
        if ci == 0 {
            0.0
        } else {
            self.intersection_size(i, j) as f64 / ci as f64
        }
    }

    /// All column support counts.
    #[must_use]
    pub fn column_counts(&self) -> Vec<usize> {
        (0..self.n_cols).map(|j| self.column_count(j)).collect()
    }

    /// Iterates `(j, rows)` over columns.
    pub fn columns(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.n_cols).map(move |j| (j, self.column(j)))
    }

    /// Transposes into a row-major matrix (counting sort, `O(|M| + n)`).
    #[must_use]
    pub fn transpose(&self) -> RowMajorMatrix {
        let mut row_counts = vec![0usize; self.n_rows as usize];
        for &r in &self.row_idx {
            row_counts[r as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.n_rows as usize + 1);
        row_ptr.push(0usize);
        for &c in &row_counts {
            row_ptr.push(row_ptr.last().unwrap() + c);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.row_idx.len()];
        for j in 0..self.n_cols {
            for &r in self.column(j) {
                col_idx[cursor[r as usize]] = j;
                cursor[r as usize] += 1;
            }
        }
        // Column order within each row is ascending because we sweep columns
        // in ascending order.
        RowMajorMatrix::from_parts(self.n_rows, self.n_cols, row_ptr, col_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1() -> SparseMatrix {
        SparseMatrix::from_columns(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = example1();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.column(1), &[0, 1, 2]);
        assert_eq!(m.column_count(2), 2);
        assert_eq!(m.density(0), 0.5);
    }

    #[test]
    fn rejects_out_of_range_rows() {
        let err = SparseMatrix::from_columns(3, vec![vec![0, 3]]).unwrap_err();
        assert!(matches!(err, MatrixError::IndexOutOfRange { index: 3, .. }));
    }

    #[test]
    fn rejects_unsorted_columns() {
        let err = SparseMatrix::from_columns(5, vec![vec![2, 1]]).unwrap_err();
        assert!(matches!(err, MatrixError::Parse { .. }));
    }

    #[test]
    fn rejects_duplicate_rows_in_column() {
        assert!(SparseMatrix::from_columns(5, vec![vec![1, 1]]).is_err());
    }

    #[test]
    fn paper_example_similarities() {
        let m = example1();
        assert!((m.similarity(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.similarity(0, 2), 0.0);
        assert!((m.similarity(1, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn confidence_matches_definition() {
        let m = example1();
        // Conf(c0 ⇒ c1) = |C0∩C1|/|C0| = 2/2.
        assert_eq!(m.confidence(0, 1), 1.0);
        // Conf(c1 ⇒ c0) = 2/3.
        assert!((m.confidence(1, 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = SparseMatrix::from_columns(0, vec![]).unwrap();
        assert_eq!(m.n_cols(), 0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn empty_columns_allowed() {
        let m = SparseMatrix::from_columns(3, vec![vec![], vec![1]]).unwrap();
        assert_eq!(m.column_count(0), 0);
        assert_eq!(m.similarity(0, 1), 0.0);
        assert_eq!(m.density(0), 0.0);
    }

    #[test]
    fn transpose_roundtrips() {
        let m = example1();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.row(0), &[0, 1]);
        assert_eq!(t.row(2), &[1, 2]);
        assert_eq!(t.row(3), &[2]);
        // transpose back:
        let back = t.transpose();
        assert_eq!(back, m);
    }

    #[test]
    fn column_counts_vector() {
        let m = example1();
        assert_eq!(m.column_counts(), vec![2, 3, 2]);
    }
}
