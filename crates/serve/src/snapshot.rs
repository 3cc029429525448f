//! Immutable epoch snapshots of the mined index, atomically swappable.
//!
//! A [`Snapshot`] holds everything a query needs — the verified pairs, a
//! per-column adjacency sorted by similarity for `TOPK`, and the exact
//! column sets for `SIM` — built once, then shared read-only across every
//! worker. Ingested rows accumulate off the hot path; a rebuild folds
//! only the new rows into the live [`StreamingMiner`]'s sketch (min-hash
//! sketches merge row-by-row, so the incremental fold is byte-identical
//! to a cold build over the full row set), produces the next snapshot
//! via [`Snapshot::build_from_miner`], and [`SnapshotStore::swap`]s it
//! in behind an `Arc`, so readers never block on a writer: they clone
//! the current `Arc` under a momentary read lock and keep serving from
//! the old epoch until they next look.

use std::sync::{Arc, RwLock};

use sfa_core::streaming::StreamingMiner;
use sfa_core::VerifiedPair;
use sfa_matrix::{HybridColumns, Result};

/// One immutable epoch of the mined index.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotone epoch counter; 1 is the startup snapshot.
    pub epoch: u64,
    /// Rows folded into this snapshot (base + ingested).
    pub n_rows: u32,
    /// Column universe (fixed for the server's lifetime).
    pub n_cols: u32,
    /// Verified pairs at or above the serving threshold, sorted by
    /// descending similarity (ties by `(i, j)`).
    pub pairs: Vec<VerifiedPair>,
    /// `partners[c]` = `(partner, similarity)` of every pair touching
    /// `c`, sorted by descending similarity — the `TOPK` index.
    partners: Vec<Vec<(u32, f64)>>,
    /// Exact column sets as hybrid (array/bitmap/run) containers — the
    /// `SIM` index. Containers keep resident snapshot bytes proportional
    /// to the cheapest per-chunk representation rather than dense
    /// bitmaps, and `SIM` intersections dispatch to the cheapest
    /// pairwise kernel.
    columns: HybridColumns,
}

impl Snapshot {
    /// Builds an epoch from the full row set: cold-builds a streaming
    /// sketch (size `k`, seeded) over `rows` and delegates to
    /// [`build_from_miner`](Self::build_from_miner).
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction errors.
    ///
    /// # Panics
    ///
    /// Panics if a row is not strictly ascending or references a column
    /// `>= n_cols` (see [`StreamingMiner::push_row`]).
    pub fn build(
        epoch: u64,
        n_cols: u32,
        rows: &[Vec<u32>],
        k: usize,
        seed: u64,
        s_star: f64,
        delta: f64,
    ) -> Result<Self> {
        let miner = StreamingMiner::from_rows(n_cols, k, seed, rows);
        Self::build_from_miner(epoch, &miner, s_star, delta)
    }

    /// Builds an epoch from a live miner's current state: mines verified
    /// pairs at `s_star` from its sketch and indexes them for queries.
    ///
    /// This is the incremental-rebuild entry point: a server that keeps
    /// one `StreamingMiner` alive folds only newly ingested rows into
    /// it (`O(Δ·k)` sketch work) instead of re-sketching the whole
    /// table, and because the sketch fold is order-insensitive the
    /// resulting snapshot is byte-identical to a cold
    /// [`build`](Self::build) over the same rows.
    ///
    /// # Errors
    ///
    /// Propagates mining errors (practically infallible: the miner
    /// validated every row on `push_row`).
    pub fn build_from_miner(
        epoch: u64,
        miner: &StreamingMiner,
        s_star: f64,
        delta: f64,
    ) -> Result<Self> {
        let n_cols = miner.n_cols();
        let pairs = miner.mine(s_star, delta)?;
        let columns = HybridColumns::from_csc(&miner.table().transpose());
        let mut partners: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_cols as usize];
        // `pairs` is already sorted by descending similarity, so pushing
        // in order keeps each adjacency list sorted too.
        for p in &pairs {
            partners[p.i as usize].push((p.j, p.similarity));
            partners[p.j as usize].push((p.i, p.similarity));
        }
        Ok(Self {
            epoch,
            n_rows: miner.n_rows(),
            n_cols,
            pairs,
            partners,
            columns,
        })
    }

    /// The up-to-`k` most similar verified partners of `col`.
    #[must_use]
    pub fn top_k(&self, col: u32, k: usize) -> &[(u32, f64)] {
        let list = &self.partners[col as usize];
        &list[..k.min(list.len())]
    }

    /// Exact `(similarity, intersection, union)` of one column pair,
    /// computed from the column sets (not limited to mined pairs).
    #[must_use]
    pub fn similarity(&self, a: u32, b: u32) -> (f64, u64, u64) {
        let inter = self.columns.intersection_size(a as usize, b as usize) as u64;
        let union = self.columns.column(a as usize).cardinality()
            + self.columns.column(b as usize).cardinality()
            - inter;
        let sim = if union == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                inter as f64 / union as f64
            }
        };
        (sim, inter, union)
    }

    /// Verified pairs with similarity ≥ `s_star` (a prefix of `pairs`,
    /// which is sorted descending).
    #[must_use]
    pub fn pairs_at(&self, s_star: f64) -> &[VerifiedPair] {
        let cut = self.pairs.partition_point(|p| p.similarity >= s_star);
        &self.pairs[..cut]
    }
}

/// The shared, swappable handle to the current [`Snapshot`].
///
/// Readers pay one brief read-lock acquisition to clone the `Arc`; the
/// writer holds the write lock only for the pointer swap. No reader ever
/// waits on a rebuild.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotStore {
    /// Wraps the startup snapshot.
    #[must_use]
    pub fn new(initial: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current epoch's snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a writer panicked while swapping (poisoned lock) — which
    /// cannot happen: the swap is a pointer store.
    #[must_use]
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Atomically publishes a new epoch.
    ///
    /// The write lock covers only the pointer store: the previous epoch,
    /// usually last referenced here, is freed after the lock is released,
    /// so readers never wait on its deallocation.
    ///
    /// # Panics
    ///
    /// See [`load`](Self::load).
    pub fn swap(&self, next: Snapshot) {
        let next = Arc::new(next);
        let previous = std::mem::replace(
            &mut *self.current.write().expect("snapshot lock poisoned"),
            next,
        );
        drop(previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<u32>> {
        // Columns 0 and 1 co-occur in every row; column 2 in half.
        (0..8u32)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            })
            .collect()
    }

    fn snap() -> Snapshot {
        Snapshot::build(1, 3, &rows(), 32, 7, 0.4, 0.2).unwrap()
    }

    #[test]
    fn build_indexes_pairs_both_ways() {
        let s = snap();
        assert_eq!(s.epoch, 1);
        assert_eq!((s.n_rows, s.n_cols), (8, 3));
        let top = s.top_k(0, 10);
        assert_eq!(top[0], (1, 1.0), "0-1 are identical");
        assert_eq!(top[1].0, 2);
        assert!((top[1].1 - 0.5).abs() < 1e-12);
        assert_eq!(s.top_k(0, 1).len(), 1, "k truncates");
        assert_eq!(s.top_k(2, 10).len(), 2, "2 partners 0 and 1");
    }

    #[test]
    fn similarity_is_exact_even_for_unmined_pairs() {
        let s = Snapshot::build(1, 3, &rows(), 32, 7, 0.99, 0.2).unwrap();
        // 0-2 falls below the mining threshold but SIM still answers.
        let (sim, inter, union) = s.similarity(0, 2);
        assert!((sim - 0.5).abs() < 1e-12);
        assert_eq!((inter, union), (4, 8));
        let (sim_empty, inter_empty, union_empty) = {
            let empty = Snapshot::build(1, 2, &[], 8, 1, 0.5, 0.2).unwrap();
            empty.similarity(0, 1)
        };
        assert_eq!((sim_empty, inter_empty, union_empty), (0.0, 0, 0));
    }

    #[test]
    fn pairs_at_takes_sorted_prefix() {
        let s = snap();
        assert_eq!(s.pairs_at(0.0).len(), s.pairs.len());
        assert_eq!(s.pairs_at(0.9).len(), 1);
        assert!(s.pairs_at(1.1).is_empty());
    }

    #[test]
    fn incremental_build_matches_cold_build_at_every_split() {
        // Fold base+ingest in two stages (cold prefix, pushed suffix) at
        // every split point: the snapshot must be indistinguishable from
        // a cold build over the full row set — same sketch, same pairs,
        // same indexes.
        let mut all = rows();
        all.extend([vec![0, 2], vec![2], vec![1, 2], vec![0]]);
        let cold = Snapshot::build(9, 3, &all, 32, 7, 0.4, 0.2).unwrap();
        let cold_sketch = StreamingMiner::from_rows(3, 32, 7, &all).snapshot_sketch();
        for split in 0..=all.len() {
            let mut miner = StreamingMiner::from_rows(3, 32, 7, &all[..split]);
            for row in &all[split..] {
                miner.push_row(row);
            }
            assert_eq!(miner.snapshot_sketch(), cold_sketch, "split {split}");
            let inc = Snapshot::build_from_miner(9, &miner, 0.4, 0.2).unwrap();
            assert_eq!(inc.pairs, cold.pairs, "split {split}");
            assert_eq!((inc.n_rows, inc.n_cols), (cold.n_rows, cold.n_cols));
            for c in 0..3 {
                assert_eq!(inc.top_k(c, 10), cold.top_k(c, 10), "split {split}");
            }
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                assert_eq!(inc.similarity(a, b), cold.similarity(a, b));
            }
        }
    }

    #[test]
    fn store_swaps_epochs_without_blocking_readers() {
        let store = SnapshotStore::new(snap());
        let held = store.load();
        assert_eq!(held.epoch, 1);
        let mut rows2 = rows();
        rows2.push(vec![0, 2]);
        store.swap(Snapshot::build(2, 3, &rows2, 32, 7, 0.4, 0.2).unwrap());
        // The old epoch stays valid for holders; new loads see epoch 2.
        assert_eq!(held.epoch, 1);
        assert_eq!(store.load().epoch, 2);
        assert_eq!(store.load().n_rows, 9);
    }
}
