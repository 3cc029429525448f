//! Streaming mining over a growing table.
//!
//! Min-hash sketches fold row-by-row, so a live deployment can keep them
//! current as the log grows and mine on demand. [`StreamingMiner`] owns a
//! [`KmhBuilder`] plus a bounded buffer of the rows seen so far, giving a
//! `push_row` / `mine` API where `mine` runs candidate generation on the
//! current sketch and *exact* verification against the retained rows — the
//! same zero-false-positive guarantee as the batch pipeline, at any point
//! in the stream.
//!
//! [`KmhBuilder`]: sfa_minhash::KmhBuilder

use sfa_matrix::{Result, RowMajorMatrix};
use sfa_minhash::hashcount::kmh_candidates;
use sfa_minhash::KmhBuilder;

use crate::report::VerifiedPair;
use crate::shutdown::CancelToken;
use crate::verify::verify_table_resumable;

/// An online miner over an append-only 0/1 table.
///
/// # Examples
///
/// ```
/// use sfa_core::streaming::StreamingMiner;
///
/// let mut miner = StreamingMiner::new(2, 16, 7);
/// for _ in 0..10 {
///     miner.push_row(&[0, 1]);
/// }
/// let pairs = miner.mine(0.8, 0.2).unwrap();
/// assert_eq!((pairs[0].i, pairs[0].j), (0, 1));
/// assert_eq!(pairs[0].similarity, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMiner {
    n_cols: u32,
    sketch: KmhBuilder,
    rows: Vec<Vec<u32>>,
}

impl StreamingMiner {
    /// Creates a miner over `n_cols` columns with sketch size `k`.
    #[must_use]
    pub fn new(n_cols: u32, k: usize, seed: u64) -> Self {
        Self {
            n_cols,
            sketch: KmhBuilder::new(k, n_cols as usize, seed),
            rows: Vec::new(),
        }
    }

    /// Number of columns.
    #[must_use]
    pub const fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Rebuilds a miner from previously persisted rows — the serve layer's
    /// restart path. Equivalent to `new` followed by `push_row` for each
    /// row (same panics on malformed rows).
    #[must_use]
    pub fn from_rows(n_cols: u32, k: usize, seed: u64, rows: &[Vec<u32>]) -> Self {
        let mut miner = Self::new(n_cols, k, seed);
        for row in rows {
            miner.push_row(row);
        }
        miner
    }

    /// Rows ingested so far.
    #[must_use]
    pub fn n_rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// The retained rows, in ingest order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Appends one row (strictly ascending column ids).
    ///
    /// # Panics
    ///
    /// Panics if the row is not strictly ascending or references a column
    /// `>= n_cols`.
    pub fn push_row(&mut self, cols: &[u32]) {
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "row must be strictly ascending"
        );
        if let Some(&last) = cols.last() {
            assert!(last < self.n_cols, "column {last} out of range");
        }
        let row_id = self.rows.len() as u32;
        self.sketch.push_row(row_id, cols);
        self.rows.push(cols.to_vec());
    }

    /// Mines the current state: candidates from the sketch, exact
    /// verification over the rows seen so far (the pipeline's counting
    /// pass, fed the retained rows in place), output filtered at `s_star`.
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction errors — practically infallible.
    pub fn mine(&self, s_star: f64, delta: f64) -> Result<Vec<VerifiedPair>> {
        let sigs = self.sketch.clone().finish();
        let candidates = kmh_candidates(&sigs, s_star, delta);
        let matrix = RowMajorMatrix::from_rows(self.n_cols, self.rows.clone())?;
        let (verified, _, _) = verify_table_resumable(
            &matrix,
            &candidates,
            None,
            u64::MAX,
            &mut |_| Ok(()),
            &CancelToken::default(),
        )?;
        let mut out: Vec<VerifiedPair> = verified
            .into_iter()
            .filter(|p| p.similarity >= s_star)
            .collect();
        out.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .expect("finite")
                .then(a.i.cmp(&b.i))
                .then(a.j.cmp(&b.j))
        });
        Ok(out)
    }

    /// The current sketch (finished copy), e.g. for persistence.
    #[must_use]
    pub fn snapshot_sketch(&self) -> sfa_minhash::BottomKSignatures {
        self.sketch.clone().finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::MemoryRowStream;
    use sfa_minhash::compute_bottom_k;

    #[test]
    fn streaming_equals_batch_at_every_prefix() {
        let rows: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![0, 1, 2],
            vec![2, 3],
            vec![0, 1],
            vec![3],
            vec![0, 1, 3],
        ];
        let mut miner = StreamingMiner::new(4, 8, 5);
        for (prefix_len, row) in rows.iter().enumerate() {
            miner.push_row(row);
            let matrix = RowMajorMatrix::from_rows(4, rows[..=prefix_len].to_vec()).unwrap();
            let batch = compute_bottom_k(&mut MemoryRowStream::new(&matrix), 8, 5).unwrap();
            assert_eq!(miner.snapshot_sketch(), batch, "prefix {prefix_len}");
        }
    }

    #[test]
    fn mine_reports_exact_similarities() {
        let mut miner = StreamingMiner::new(3, 16, 9);
        for i in 0..12u32 {
            if i % 3 == 0 {
                miner.push_row(&[0, 1, 2]);
            } else {
                miner.push_row(&[0, 1]);
            }
        }
        let pairs = miner.mine(0.3, 0.2).unwrap();
        let p01 = pairs.iter().find(|p| (p.i, p.j) == (0, 1)).expect("pair");
        assert_eq!(p01.similarity, 1.0);
        let p02 = pairs.iter().find(|p| (p.i, p.j) == (0, 2)).expect("pair");
        assert!((p02.similarity - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn results_firm_up_as_rows_arrive() {
        // A pair that looks identical early turns out dissimilar later.
        let mut miner = StreamingMiner::new(2, 16, 3);
        for _ in 0..4 {
            miner.push_row(&[0, 1]);
        }
        let early = miner.mine(0.9, 0.2).unwrap();
        assert_eq!(early.len(), 1);
        for _ in 0..20 {
            miner.push_row(&[0]);
        }
        let late = miner.mine(0.9, 0.2).unwrap();
        assert!(late.is_empty(), "similarity fell to 4/24");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_row_validates_columns() {
        let mut miner = StreamingMiner::new(2, 4, 1);
        miner.push_row(&[0, 5]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn push_row_validates_order() {
        let mut miner = StreamingMiner::new(5, 4, 1);
        miner.push_row(&[3, 1]);
    }

    #[test]
    fn empty_miner_mines_nothing() {
        let miner = StreamingMiner::new(4, 4, 1);
        assert!(miner.mine(0.5, 0.2).unwrap().is_empty());
        assert_eq!(miner.n_rows(), 0);
    }
}
