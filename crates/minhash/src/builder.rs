//! Incremental signature builders.
//!
//! Min-hash signatures are folds over rows with a commutative, idempotent
//! merge (component-wise minimum / bottom-k union), so they support
//! *append*: new rows can be pushed into an existing summary at any time
//! without touching old data. This enables the growing-table scenario —
//! keep a sketch per column while the log keeps arriving, and run candidate
//! generation on the current sketch whenever wanted.
//!
//! [`MhBuilder`] and [`KmhBuilder`] are the streaming forms of
//! [`compute_signatures`](crate::mh::compute_signatures) and
//! [`compute_bottom_k`](crate::kmh::compute_bottom_k); the batch functions
//! are thin wrappers over them.
//!
//! `MhBuilder` runs its inner loop through the dispatched min-merge
//! kernel in [`crate::kernel`]: it keeps its signatures in a
//! *column-major* work buffer so a row's `k`-wide hash vector min-merges
//! into each touched column as one contiguous SIMD pass (the public
//! [`SignatureMatrix`] stays row-major; the layouts meet at
//! [`finish`](MhBuilder::finish)/[`current`](MhBuilder::current)).
//! `KmhBuilder` compares each row's hash with a flat vector of per-column
//! admission thresholds before touching any tracker.

use sfa_hash::topk::BottomK;
use sfa_hash::{HashFamily, RowHasher};

use crate::kernel;
use crate::kmh::BottomKSignatures;
use crate::signature::{SignatureMatrix, EMPTY_SIGNATURE};

/// Streaming builder for the MH `k × m` signature matrix.
///
/// # Examples
///
/// ```
/// use sfa_minhash::builder::MhBuilder;
///
/// let mut b = MhBuilder::new(8, 3, 42);
/// b.push_row(0, &[0, 1]);
/// b.push_row(1, &[1, 2]);
/// let sigs = b.finish();
/// assert_eq!(sigs.k(), 8);
/// assert_eq!(sigs.m(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MhBuilder {
    family: HashFamily,
    seed: u64,
    k: usize,
    m: usize,
    /// Column-major signatures: `work[j·k..(j+1)·k]` holds column `j`'s
    /// `k` running minima, contiguous for the min-merge kernel.
    work: Vec<u64>,
    row_hashes: Vec<u64>,
    rows_seen: u64,
}

impl MhBuilder {
    /// Creates a builder for `m` columns with `k` hash functions.
    #[must_use]
    pub fn new(k: usize, m: usize, seed: u64) -> Self {
        Self {
            family: HashFamily::new(k, seed),
            seed,
            k,
            m,
            work: vec![EMPTY_SIGNATURE; k * m],
            row_hashes: vec![0; k],
            rows_seen: 0,
        }
    }

    /// Reconstructs a builder from checkpointed state: the partial
    /// signatures of the first `rows_seen` rows, under configuration
    /// `(sigs.k(), sigs.m(), seed)`. Pushing the remaining rows yields
    /// exactly what an uninterrupted builder would have produced.
    #[must_use]
    pub fn from_state(seed: u64, rows_seen: u64, sigs: SignatureMatrix) -> Self {
        let (k, m) = (sigs.k(), sigs.m());
        let mut work = vec![EMPTY_SIGNATURE; k * m];
        for j in 0..m {
            for (l, slot) in work[j * k..(j + 1) * k].iter_mut().enumerate() {
                *slot = sigs.get(l, j as u32);
            }
        }
        Self {
            family: HashFamily::new(k, seed),
            seed,
            k,
            m,
            work,
            row_hashes: vec![0; k],
            rows_seen,
        }
    }

    /// The seed this builder's hash family was created with.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows folded in so far.
    #[must_use]
    pub const fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Folds one row (its ascending column ids) into the signatures.
    ///
    /// A row without a 1 is counted in [`rows_seen`](Self::rows_seen) but
    /// never hashed: no column takes its minimum over it.
    ///
    /// Row ids must be distinct across calls for the permutation semantics
    /// to hold; the builder does not (and cannot cheaply) check this.
    pub fn push_row(&mut self, row_id: u32, cols: &[u32]) {
        self.rows_seen += 1;
        if cols.is_empty() {
            return;
        }
        self.family
            .hash_all(u64::from(row_id), &mut self.row_hashes);
        for &col in cols {
            let start = col as usize * self.k;
            kernel::min_merge_u64(&mut self.work[start..start + self.k], &self.row_hashes);
        }
    }

    /// A snapshot of the current signatures (usable mid-stream). Allocates
    /// a fresh row-major matrix from the column-major work buffer.
    #[must_use]
    pub fn current(&self) -> SignatureMatrix {
        SignatureMatrix::from_col_major(self.k, self.m, &self.work)
    }

    /// Consumes the builder, returning the signature matrix.
    #[must_use]
    pub fn finish(self) -> SignatureMatrix {
        SignatureMatrix::from_col_major(self.k, self.m, &self.work)
    }

    /// Merges another builder over the *same* `(k, m, seed)` configuration
    /// by component-wise minimum — the parallel-scan combine step. The two
    /// work buffers share one layout, so the merge is a single whole-buffer
    /// kernel pass.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ. (Seeds are the caller's contract; two
    /// different seeds produce a meaningless merge.)
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "k mismatch");
        assert_eq!(self.m, other.m, "m mismatch");
        kernel::min_merge_u64(&mut self.work, &other.work);
        self.rows_seen += other.rows_seen;
    }
}

/// Streaming builder for K-MH bottom-k sketches.
#[derive(Debug, Clone)]
pub struct KmhBuilder {
    hasher: RowHasher,
    seed: u64,
    k: usize,
    trackers: Vec<BottomK>,
    /// `thresholds[j]` mirrors `trackers[j].threshold()`: the saturated
    /// tracker's max, or `u64::MAX` while it still has room. Kept flat so
    /// a rejected admission test reads one word, not a tracker.
    thresholds: Vec<u64>,
    counts: Vec<u32>,
    rows_seen: u64,
}

impl KmhBuilder {
    /// Creates a builder for `m` columns with sketch size `k`.
    #[must_use]
    pub fn new(k: usize, m: usize, seed: u64) -> Self {
        Self {
            hasher: RowHasher::new(seed),
            seed,
            k,
            trackers: (0..m).map(|_| BottomK::new(k)).collect(),
            thresholds: vec![u64::MAX; m],
            counts: vec![0; m],
            rows_seen: 0,
        }
    }

    /// Reconstructs a builder from checkpointed state: the partial
    /// sketches of the first `rows_seen` rows, under configuration
    /// `(sigs.k(), sigs.m(), seed)`. Pushing the remaining rows yields
    /// exactly what an uninterrupted builder would have produced.
    #[must_use]
    pub fn from_state(seed: u64, rows_seen: u64, sigs: BottomKSignatures) -> Self {
        let k = sigs.k();
        let columns = 0..sigs.m() as u32;
        let trackers: Vec<BottomK> = columns
            .clone()
            .map(|j| {
                let mut t = BottomK::new(k);
                for &v in sigs.signature(j) {
                    t.insert(v);
                }
                t
            })
            .collect();
        let thresholds = trackers.iter().map(BottomK::threshold).collect();
        Self {
            hasher: RowHasher::new(seed),
            seed,
            k,
            trackers,
            thresholds,
            counts: columns.map(|j| sigs.column_count(j)).collect(),
            rows_seen,
        }
    }

    /// The seed this builder's row hasher was created with.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Sketch size `k`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of columns `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.trackers.len()
    }

    /// A snapshot of the current sketches (usable mid-stream).
    #[must_use]
    pub fn current(&self) -> BottomKSignatures {
        let sigs = self.trackers.iter().map(BottomK::to_sorted_vec).collect();
        BottomKSignatures::from_parts(self.k, sigs, self.counts.clone())
    }

    /// Number of rows folded in so far.
    #[must_use]
    pub const fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Folds one row into the sketches.
    ///
    /// A row without a 1 is counted in [`rows_seen`](Self::rows_seen) but
    /// never hashed. Otherwise the row hash is compared with each touched
    /// column's admission threshold, and only a column it does not exceed
    /// pays a tracker probe, so saturated sketches cost one compare per
    /// nonzero.
    pub fn push_row(&mut self, row_id: u32, cols: &[u32]) {
        self.rows_seen += 1;
        if cols.is_empty() {
            return;
        }
        let h = self.hasher.hash_row(row_id);
        for &col in cols {
            let col = col as usize;
            self.counts[col] += 1;
            // `<=`, not `<`: an unsaturated tracker's threshold is
            // `u64::MAX` and must admit every hash (`u64::MAX` included),
            // and a hash equal to a saturated tracker's max must still
            // reach the tracker, whose set semantics decide.
            if h <= self.thresholds[col] {
                let t = &mut self.trackers[col];
                if t.insert(h) {
                    self.thresholds[col] = t.threshold();
                }
            }
        }
    }

    /// Consumes the builder, returning the sketches.
    #[must_use]
    pub fn finish(self) -> BottomKSignatures {
        let sigs: Vec<Vec<u64>> = self
            .trackers
            .into_iter()
            .map(BottomK::into_sorted_vec)
            .collect();
        BottomKSignatures::from_parts(self.k, sigs, self.counts)
    }

    /// Merges another builder over the same `(k, m, seed)` configuration:
    /// bottom-k of the union of retained values, counts added.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "k mismatch");
        assert_eq!(self.trackers.len(), other.trackers.len(), "m mismatch");
        for (j, (mine, theirs)) in self.trackers.iter_mut().zip(&other.trackers).enumerate() {
            let mut changed = false;
            for v in theirs.iter() {
                changed |= mine.insert(v);
            }
            if changed {
                self.thresholds[j] = mine.threshold();
            }
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.rows_seen += other.rows_seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmh::compute_bottom_k;
    use crate::mh::compute_signatures;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![2, 3], vec![1]],
        )
        .unwrap()
    }

    #[test]
    fn mh_builder_matches_batch() {
        let m = matrix();
        let batch = compute_signatures(&mut MemoryRowStream::new(&m), 16, 9).unwrap();
        let mut b = MhBuilder::new(16, 4, 9);
        for (id, cols) in m.rows() {
            b.push_row(id, cols);
        }
        assert_eq!(b.rows_seen(), 5);
        assert_eq!(b.finish(), batch);
    }

    #[test]
    fn kmh_builder_matches_batch() {
        let m = matrix();
        let batch = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 9).unwrap();
        let mut b = KmhBuilder::new(3, 4, 9);
        for (id, cols) in m.rows() {
            b.push_row(id, cols);
        }
        assert_eq!(b.finish(), batch);
    }

    #[test]
    fn appending_rows_later_is_equivalent() {
        // Fold rows in two stages; result equals one-shot.
        let m = matrix();
        let mut staged = MhBuilder::new(8, 4, 5);
        for (id, cols) in m.rows().take(2) {
            staged.push_row(id, cols);
        }
        let mid = staged.current();
        for (id, cols) in m.rows().skip(2) {
            staged.push_row(id, cols);
        }
        let batch = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert_eq!(staged.finish(), batch);
        // And the mid-stream view was a valid sketch of the prefix.
        let prefix =
            RowMajorMatrix::from_rows(4, m.rows().take(2).map(|(_, c)| c.to_vec()).collect())
                .unwrap();
        let prefix_batch = compute_signatures(&mut MemoryRowStream::new(&prefix), 8, 5).unwrap();
        assert_eq!(mid, prefix_batch);
    }

    #[test]
    fn mh_merge_equals_sequential() {
        let m = matrix();
        let mut left = MhBuilder::new(8, 4, 7);
        let mut right = MhBuilder::new(8, 4, 7);
        for (id, cols) in m.rows() {
            if id < 2 {
                left.push_row(id, cols);
            } else {
                right.push_row(id, cols);
            }
        }
        left.merge(&right);
        assert_eq!(left.rows_seen(), 5);
        let batch = compute_signatures(&mut MemoryRowStream::new(&m), 8, 7).unwrap();
        assert_eq!(left.finish(), batch);
    }

    #[test]
    fn kmh_merge_equals_sequential() {
        let m = matrix();
        let mut left = KmhBuilder::new(2, 4, 7);
        let mut right = KmhBuilder::new(2, 4, 7);
        for (id, cols) in m.rows() {
            if id % 2 == 0 {
                left.push_row(id, cols);
            } else {
                right.push_row(id, cols);
            }
        }
        left.merge(&right);
        let batch = compute_bottom_k(&mut MemoryRowStream::new(&m), 2, 7).unwrap();
        assert_eq!(left.finish(), batch);
    }

    #[test]
    fn mh_from_state_resumes_identically() {
        let m = matrix();
        let mut first = MhBuilder::new(8, 4, 5);
        for (id, cols) in m.rows().take(3) {
            first.push_row(id, cols);
        }
        // Checkpoint: partial signatures + row cursor. Then "crash" and
        // rebuild from the persisted state.
        let (rows_seen, sigs) = (first.rows_seen(), first.current());
        drop(first);
        let mut resumed = MhBuilder::from_state(5, rows_seen, sigs);
        assert_eq!(resumed.seed(), 5);
        for (id, cols) in m.rows().skip(3) {
            resumed.push_row(id, cols);
        }
        let batch = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert_eq!(resumed.finish(), batch);
    }

    #[test]
    fn kmh_from_state_resumes_identically() {
        let m = matrix();
        let mut first = KmhBuilder::new(2, 4, 5);
        for (id, cols) in m.rows().take(3) {
            first.push_row(id, cols);
        }
        let sigs = first.current();
        let rows_seen = first.rows_seen();
        drop(first);
        let mut resumed = KmhBuilder::from_state(5, rows_seen, sigs);
        assert_eq!((resumed.k(), resumed.m(), resumed.seed()), (2, 4, 5));
        for (id, cols) in m.rows().skip(3) {
            resumed.push_row(id, cols);
        }
        let batch = compute_bottom_k(&mut MemoryRowStream::new(&m), 2, 5).unwrap();
        assert_eq!(resumed.finish(), batch);
    }

    #[test]
    fn kmh_thresholds_track_trackers_exactly() {
        // The admission test is only correct if the flat threshold vector
        // never lags the trackers; check the invariant along a long stream.
        let rows: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i % 3, 3 + (i % 2)]).collect();
        let mut b = KmhBuilder::new(4, 5, 11);
        for (id, cols) in rows.iter().enumerate() {
            b.push_row(id as u32, cols);
            for (j, t) in b.trackers.iter().enumerate() {
                assert_eq!(b.thresholds[j], t.threshold(), "row {id}, column {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "m mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = MhBuilder::new(4, 3, 1);
        let b = MhBuilder::new(4, 5, 1);
        a.merge(&b);
    }
}
