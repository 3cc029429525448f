//! Validated incremental matrix construction.

use crate::csc::SparseMatrix;
use crate::csr::RowMajorMatrix;
use crate::error::{MatrixError, Result};

/// Incrementally collects `(row, column)` 1-entries and materializes either
/// storage layout. Entries may arrive in any order and duplicates are
/// coalesced.
///
/// # Examples
///
/// ```
/// use sfa_matrix::MatrixBuilder;
///
/// let mut b = MatrixBuilder::new(4, 3);
/// b.add_entry(0, 0).unwrap();
/// b.add_entry(0, 1).unwrap();
/// b.add_row(1, &[0, 1]).unwrap();
/// b.add_entry(2, 1).unwrap();
/// b.add_entry(2, 2).unwrap();
/// b.add_entry(3, 2).unwrap();
/// let csc = b.clone().build_csc();
/// assert_eq!(csc.column(1), &[0, 1, 2]);
/// let csr = b.build_csr();
/// assert_eq!(csr.row(2), &[1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    n_rows: u32,
    n_cols: u32,
    entries: Vec<(u32, u32)>,
}

impl MatrixBuilder {
    /// Creates a builder for an `n_rows × n_cols` matrix.
    #[must_use]
    pub fn new(n_rows: u32, n_cols: u32) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for `nnz` entries.
    #[must_use]
    pub fn with_capacity(n_rows: u32, n_cols: u32, nnz: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows the built matrix will have.
    #[must_use]
    pub const fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns the built matrix will have.
    #[must_use]
    pub const fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Records a 1 at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfRange`] for indices outside the
    /// declared dimensions.
    pub fn add_entry(&mut self, row: u32, col: u32) -> Result<()> {
        if row >= self.n_rows {
            return Err(MatrixError::IndexOutOfRange {
                kind: "row",
                index: row,
                bound: self.n_rows,
            });
        }
        if col >= self.n_cols {
            return Err(MatrixError::IndexOutOfRange {
                kind: "column",
                index: col,
                bound: self.n_cols,
            });
        }
        self.entries.push((row, col));
        Ok(())
    }

    /// Records 1s at `(row, c)` for every `c` in `cols`.
    ///
    /// # Errors
    ///
    /// As [`add_entry`](Self::add_entry); entries before the failing one
    /// are retained.
    pub fn add_row(&mut self, row: u32, cols: &[u32]) -> Result<()> {
        for &c in cols {
            self.add_entry(row, c)?;
        }
        Ok(())
    }

    fn normalized(mut self) -> Vec<(u32, u32)> {
        self.entries.sort_unstable();
        self.entries.dedup();
        self.entries
    }

    /// Builds the column-major form.
    #[must_use]
    pub fn build_csc(self) -> SparseMatrix {
        let n_rows = self.n_rows;
        let n_cols = self.n_cols;
        let mut entries = self.normalized();
        // Sort by (col, row) for CSC layout.
        entries.sort_unstable_by_key(|&(r, c)| (c, r));
        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); n_cols as usize];
        for (r, c) in entries {
            columns[c as usize].push(r);
        }
        SparseMatrix::from_columns(n_rows, columns).expect("builder entries validated on insert")
    }

    /// Builds the row-major form.
    #[must_use]
    pub fn build_csr(self) -> RowMajorMatrix {
        let n_rows = self.n_rows;
        let n_cols = self.n_cols;
        let entries = self.normalized();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n_rows as usize];
        for (r, c) in entries {
            rows[r as usize].push(c);
        }
        RowMajorMatrix::from_rows(n_cols, rows).expect("builder entries validated on insert")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_layouts_consistently() {
        let mut b = MatrixBuilder::new(3, 3);
        for (r, c) in [(0, 0), (1, 1), (2, 2), (0, 2)] {
            b.add_entry(r, c).unwrap();
        }
        let csc = b.clone().build_csc();
        let csr = b.build_csr();
        assert_eq!(csc.transpose(), csr);
        assert_eq!(csr.transpose(), csc);
    }

    #[test]
    fn duplicates_coalesce() {
        let mut b = MatrixBuilder::new(2, 2);
        b.add_entry(0, 0).unwrap();
        b.add_entry(0, 0).unwrap();
        let m = b.build_csc();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_range_is_rejected_eagerly() {
        let mut b = MatrixBuilder::new(2, 2);
        assert!(b.add_entry(2, 0).is_err());
        assert!(b.add_entry(0, 2).is_err());
        assert!(b.add_entry(1, 1).is_ok());
    }

    #[test]
    fn unordered_insertion_is_normalized() {
        let mut b = MatrixBuilder::new(3, 1);
        b.add_entry(2, 0).unwrap();
        b.add_entry(0, 0).unwrap();
        b.add_entry(1, 0).unwrap();
        assert_eq!(b.build_csc().column(0), &[0, 1, 2]);
    }

    #[test]
    fn empty_builder_builds_empty_matrix() {
        let b = MatrixBuilder::new(5, 4);
        let m = b.build_csr();
        assert_eq!(m.n_rows(), 5);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn add_row_is_bulk_add_entry() {
        let mut a = MatrixBuilder::new(2, 4);
        a.add_row(0, &[1, 3]).unwrap();
        let mut b = MatrixBuilder::new(2, 4);
        b.add_entry(0, 1).unwrap();
        b.add_entry(0, 3).unwrap();
        assert_eq!(a.build_csc(), b.build_csc());
    }
}
