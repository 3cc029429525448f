//! Row-major (CSR) sparse boolean matrix — the streaming view.
//!
//! The paper's algorithms scan the table row by row ("while scanning the
//! rows …", §3). `RowMajorMatrix` is the in-memory stand-in for that
//! disk-resident table; signature computations consume it through the
//! [`RowStream`] trait so they cannot cheat with
//! random access.

use sfa_json::{FromJson, Json, JsonError, ToJson};

use crate::csc::SparseMatrix;
use crate::stream::RowStream;

/// A sparse 0/1 matrix stored row-major: for each row, the strictly
/// ascending list of columns holding a 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMajorMatrix {
    n_rows: u32,
    n_cols: u32,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl RowMajorMatrix {
    /// Builds from per-row column lists (each strictly ascending).
    ///
    /// # Errors
    ///
    /// Returns an error if any column id is `>= n_cols` or a row is not
    /// strictly ascending.
    pub fn from_rows(n_cols: u32, rows: Vec<Vec<u32>>) -> crate::Result<Self> {
        let mut matrix = Self {
            n_rows: 0,
            n_cols,
            row_ptr: Vec::with_capacity(rows.len() + 1),
            col_idx: Vec::with_capacity(rows.iter().map(Vec::len).sum()),
        };
        matrix.row_ptr.push(0);
        for row in &rows {
            matrix.push_row(row)?;
        }
        Ok(matrix)
    }

    /// Reads `stream` from its current position straight into the CSR
    /// arrays, with [`from_rows`](Self::from_rows)'s checks. Row ids must
    /// run `0, 1, 2, …`, so that a row's position in the result is the id
    /// the stream gave it.
    ///
    /// Reading stops at the end of the pass, or right after the row that
    /// takes the ones read past `ones_cap`. In that case the result holds
    /// a prefix of the table, its [`nnz`](Self::nnz) exceeds `ones_cap`,
    /// and the stream is positioned at the next row. `usize::MAX` reads
    /// the whole table.
    ///
    /// # Errors
    ///
    /// Propagates stream errors. Returns an error for a row id out of
    /// order, a column id `>= n_cols` or a row that is not strictly
    /// ascending.
    pub fn from_stream<S: RowStream>(stream: &mut S, ones_cap: usize) -> crate::Result<Self> {
        let n_cols = stream.n_cols();
        // The row count comes from the stream's header: cap the up-front
        // reservation so a hostile header cannot trigger a huge one.
        let mut row_ptr = Vec::with_capacity((stream.n_rows() as usize).min(1 << 20) + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut buf = Vec::new();
        while col_idx.len() <= ones_cap {
            let Some(id) = stream.read_row(&mut buf)? else {
                break;
            };
            let i = row_ptr.len() - 1;
            if id as usize != i {
                return Err(crate::MatrixError::Parse {
                    at: i as u64,
                    detail: format!("row id {id} read where row {i} was expected"),
                });
            }
            check_row(i, &buf, n_cols)?;
            col_idx.extend_from_slice(&buf);
            row_ptr.push(col_idx.len());
        }
        let n_rows = u32::try_from(row_ptr.len() - 1).map_err(|_| {
            crate::MatrixError::DimensionMismatch {
                detail: "more than u32::MAX rows".into(),
            }
        })?;
        Ok(Self::from_parts(n_rows, n_cols, row_ptr, col_idx))
    }

    /// Appends one row, with [`from_rows`](Self::from_rows)' checks.
    ///
    /// # Errors
    ///
    /// Returns an error if the row is not strictly ascending, holds a
    /// column id `>= n_cols`, or the table already has `u32::MAX` rows.
    pub fn push_row(&mut self, row: &[u32]) -> crate::Result<()> {
        if self.n_rows == u32::MAX {
            return Err(crate::MatrixError::DimensionMismatch {
                detail: "more than u32::MAX rows".into(),
            });
        }
        check_row(self.n_rows as usize, row, self.n_cols)?;
        self.col_idx.extend_from_slice(row);
        self.row_ptr.push(self.col_idx.len());
        self.n_rows += 1;
        Ok(())
    }

    /// Builds from raw CSR parts (trusted, debug asserted).
    pub(crate) fn from_parts(
        n_rows: u32,
        n_cols: u32,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n_rows as usize + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
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
        self.col_idx.len()
    }

    /// Resident heap size of the CSR arrays (row pointers + column ids).
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        (self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The ascending column ids of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows`.
    #[must_use]
    pub fn row(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The CSR arrays `(row_ptr, col_idx)`: row `i`'s column ids are
    /// `col_idx[row_ptr[i]..row_ptr[i + 1]]`, so the 1s of a run of rows
    /// sit back to back in `col_idx`.
    #[must_use]
    pub fn csr(&self) -> (&[usize], &[u32]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// Number of 1s in row `i`.
    #[must_use]
    pub fn row_count(&self, i: u32) -> usize {
        let i = i as usize;
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterates `(i, columns)` over rows — the streaming scan.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.n_rows).map(move |i| (i, self.row(i)))
    }

    /// Support count of every column in one pass.
    #[must_use]
    pub fn column_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_cols as usize];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Transposes into a column-major matrix (counting sort, `O(|M| + m)`).
    #[must_use]
    pub fn transpose(&self) -> SparseMatrix {
        let counts = self.column_counts();
        let mut col_ptr = Vec::with_capacity(self.n_cols as usize + 1);
        col_ptr.push(0usize);
        for &c in &counts {
            col_ptr.push(col_ptr.last().unwrap() + c as usize);
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0u32; self.col_idx.len()];
        for i in 0..self.n_rows {
            for &c in self.row(i) {
                row_idx[cursor[c as usize]] = i;
                cursor[c as usize] += 1;
            }
        }
        SparseMatrix::from_parts(self.n_rows, self.n_cols, col_ptr, row_idx)
    }
}

/// Checks that row `i` is strictly ascending and its column ids are below
/// `n_cols`.
fn check_row(i: usize, row: &[u32], n_cols: u32) -> crate::Result<()> {
    if !row.windows(2).all(|w| w[0] < w[1]) {
        return Err(crate::MatrixError::Parse {
            at: i as u64,
            detail: format!("row {i} is not strictly ascending"),
        });
    }
    match row.last() {
        Some(&last) if last >= n_cols => Err(crate::MatrixError::IndexOutOfRange {
            kind: "column",
            index: last,
            bound: n_cols,
        }),
        _ => Ok(()),
    }
}

impl ToJson for RowMajorMatrix {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("n_rows", self.n_rows)
            .field("n_cols", self.n_cols)
            .field("row_ptr", &self.row_ptr[..])
            .field("col_idx", &self.col_idx[..])
    }
}

impl FromJson for RowMajorMatrix {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let n_rows = u32::from_json(json.req("n_rows")?)?;
        let n_cols = u32::from_json(json.req("n_cols")?)?;
        let row_ptr = Vec::<usize>::from_json(json.req("row_ptr")?)?;
        let col_idx = Vec::<u32>::from_json(json.req("col_idx")?)?;
        if row_ptr.len() != n_rows as usize + 1
            || row_ptr.first() != Some(&0)
            || *row_ptr.last().unwrap() != col_idx.len()
            || row_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(JsonError::new("inconsistent CSR structure"));
        }
        if col_idx.iter().any(|&c| c >= n_cols) {
            return Err(JsonError::new("column index out of range"));
        }
        Ok(Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1_rows() -> RowMajorMatrix {
        // Paper Example 1, stored row-wise: rows r1..r4 over columns c1..c3.
        RowMajorMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1], vec![1, 2], vec![2]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = example1_rows();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.row(2), &[1, 2]);
        assert_eq!(m.row_count(3), 1);
    }

    #[test]
    fn rejects_bad_rows() {
        assert!(RowMajorMatrix::from_rows(3, vec![vec![0, 3]]).is_err());
        assert!(RowMajorMatrix::from_rows(3, vec![vec![1, 0]]).is_err());
        assert!(RowMajorMatrix::from_rows(3, vec![vec![1, 1]]).is_err());
    }

    #[test]
    fn push_row_appends_with_the_same_checks() {
        let mut m = RowMajorMatrix::from_rows(3, Vec::new()).unwrap();
        for row in [vec![0, 1], vec![0, 1], vec![1, 2], vec![2]] {
            m.push_row(&row).unwrap();
        }
        assert_eq!(m, example1_rows());
        assert!(m.push_row(&[0, 3]).is_err());
        assert!(m.push_row(&[1, 0]).is_err());
        assert!(m.push_row(&[1, 1]).is_err());
        assert_eq!(
            m,
            example1_rows(),
            "a rejected row leaves the table as it was"
        );
    }

    #[test]
    fn column_counts_single_pass() {
        let m = example1_rows();
        assert_eq!(m.column_counts(), vec![2, 3, 2]);
    }

    #[test]
    fn transpose_matches_columns() {
        let m = example1_rows();
        let t = m.transpose();
        assert_eq!(t.column(0), &[0, 1]);
        assert_eq!(t.column(1), &[0, 1, 2]);
        assert_eq!(t.column(2), &[2, 3]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = example1_rows();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn rows_iterator_visits_in_order() {
        let m = example1_rows();
        let ids: Vec<u32> = m.rows().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_rows_are_preserved() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![], vec![0]]).unwrap();
        assert_eq!(m.row(0), &[] as &[u32]);
        assert_eq!(m.row_count(0), 0);
        assert_eq!(m.transpose().column(0), &[1]);
    }

    #[test]
    fn stream_reader_stops_after_passing_the_cap() {
        let m = example1_rows();
        let mut stream = crate::MemoryRowStream::new(&m);
        // Rows 0 and 1 hold 4 ones, past a cap of 3.
        let prefix = RowMajorMatrix::from_stream(&mut stream, 3).unwrap();
        assert_eq!((prefix.n_rows(), prefix.nnz()), (2, 4));
        assert_eq!(prefix.row(1), m.row(1));
        let mut buf = Vec::new();
        assert_eq!(stream.read_row(&mut buf).unwrap(), Some(2));
        let whole = RowMajorMatrix::from_stream(&mut crate::MemoryRowStream::new(&m), 7).unwrap();
        assert_eq!(whole, m);
    }

    #[test]
    fn stream_reader_rejects_corrupt_rows_and_out_of_order_ids() {
        let m = example1_rows();
        let corrupt = crate::FaultConfig {
            corrupt_at_row: Some(2),
            ..crate::FaultConfig::default()
        };
        let mut faulty = crate::FaultyRowStream::new(crate::MemoryRowStream::new(&m), corrupt);
        assert!(matches!(
            RowMajorMatrix::from_stream(&mut faulty, usize::MAX),
            Err(crate::MatrixError::IndexOutOfRange { index: 3, .. })
        ));
        // A stream that starts at row 1 hands out id 1 first.
        let mut skipped = crate::MemoryRowStream::new(&m);
        skipped.skip_rows(1).unwrap();
        assert!(matches!(
            RowMajorMatrix::from_stream(&mut skipped, usize::MAX),
            Err(crate::MatrixError::Parse { at: 0, .. })
        ));
    }

    #[test]
    fn json_roundtrip() {
        let m = example1_rows();
        let json = m.to_json().to_string_compact();
        let back: RowMajorMatrix = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
