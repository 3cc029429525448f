//! Hash-count machinery: integer-keyed hash maps and reusable sparse
//! counters.
//!
//! The paper's candidate-generation algorithms (§3.1) count pairs with
//! **reusable counters**: "to avoid `O(m²)` counter initializations, we
//! reuse the same `O(m)` counters … and remember and reinitialize only
//! counters that were incremented at least once" — implemented as
//! [`SparseCounters`]. Phase 2 of every candidate generator, §6's
//! candidates, Apriori's level 2 and the exact ground truth's row arm
//! count column pairs through them, one focus column at a time, over the
//! bucket index of [`crate::index`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A minimal fast `Hasher` for integer-keyed maps (FxHash-style fold-mul).
///
/// Collision attacks are irrelevant here (keys are our own hash values), so
/// we trade SipHash's robustness for speed, as any database engine does for
/// internal integer maps.
///
/// The multiply carries entropy upward only, so the low 32 bits of the
/// state depend on the low 32 bits of the key alone: for a
/// [`pack_pair`] key, on `j` alone. `std`'s hash tables pick a bucket
/// from the low bits, so [`finish`](Hasher::finish) rotates the state's
/// well-mixed middle bits down.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold whole 8-byte words instead of one mul per byte; only the
        // sub-word tail goes through the byte path.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast integer hasher.
pub type FastHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast integer hasher.
pub type FastHashSet<K> = HashSet<K, FxBuildHasher>;

/// Packs an ordered column pair into a single `u64` key (requires `i < j`).
#[inline]
#[must_use]
pub fn pack_pair(i: u32, j: u32) -> u64 {
    debug_assert!(i < j, "pairs must be ordered: {i} !< {j}");
    (u64::from(i) << 32) | u64::from(j)
}

/// Reusable dense counters over `m` slots with `O(touched)` reset.
///
/// The paper's Row-Sorting algorithm keeps one counter per column while
/// processing a focus column, then must avoid paying `O(m)` to reset them
/// for the next focus column: "we reuse the same `O(m)` counters … and
/// remember and reinitialize only counters that were incremented at least
/// once". `SparseCounters` is that structure.
#[derive(Debug)]
pub struct SparseCounters {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl SparseCounters {
    /// Creates counters over slots `0..m`, all zero.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            counts: vec![0; m],
            touched: Vec::new(),
        }
    }

    /// Increments slot `slot`, remembering it for the next [`reset`](Self::reset).
    #[inline]
    pub fn increment(&mut self, slot: u32) {
        let c = &mut self.counts[slot as usize];
        if *c == 0 {
            self.touched.push(slot);
        }
        *c += 1;
    }

    /// Current value of `slot`.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: u32) -> u32 {
        self.counts[slot as usize]
    }

    /// Slots incremented since the last reset (unsorted, no duplicates).
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Resets only the touched slots; cost is `O(touched)`, not `O(m)`.
    pub fn reset(&mut self) {
        for &slot in &self.touched {
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
    }

    /// Calls `f(slot, count)` for every touched slot in ascending slot
    /// order, resetting the counters as it goes.
    pub fn drain_sorted(&mut self, mut f: impl FnMut(u32, u32)) {
        self.touched.sort_unstable();
        for &slot in &self.touched {
            let c = std::mem::take(&mut self.counts[slot as usize]);
            f(slot, c);
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_pair_keeps_both_ids() {
        for (i, j) in [(0, 1), (5, 9), (0, u32::MAX), (100, 101)] {
            let key = pack_pair(i, j);
            assert_eq!(((key >> 32) as u32, key as u32), (i, j));
        }
    }

    #[test]
    fn fx_hasher_spreads_sequential_keys() {
        // Sequential u64 keys must land in distinct states.
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let distinct: std::collections::HashSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(distinct.len(), 10_000);
        // and actually differ in high bits so map bucketing works:
        assert_ne!(hash(1) >> 56, hash(2) >> 56);
    }

    #[test]
    fn fx_hasher_spreads_the_pairs_of_one_column_in_the_low_bits() {
        // The pairs of one partner column must not share a bucket.
        let low_bits: std::collections::HashSet<u64> = (0..256)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(pack_pair(i, 1000));
                h.finish() & 0xffff
            })
            .collect();
        assert_eq!(low_bits.len(), 256);
    }

    #[test]
    fn sparse_counters_reset_is_sparse() {
        let mut sc = SparseCounters::new(1000);
        sc.increment(5);
        sc.increment(5);
        sc.increment(999);
        assert_eq!(sc.get(5), 2);
        assert_eq!(sc.get(999), 1);
        assert_eq!(sc.touched().len(), 2);
        sc.reset();
        assert_eq!(sc.get(5), 0);
        assert_eq!(sc.get(999), 0);
        assert!(sc.touched().is_empty());
    }

    #[test]
    fn sparse_counters_drain_sorted_visits_ascending_slots() {
        let mut sc = SparseCounters::new(10);
        for slot in [7, 2, 7, 9, 2, 7] {
            sc.increment(slot);
        }
        let mut seen = Vec::new();
        sc.drain_sorted(|slot, c| seen.push((slot, c)));
        assert_eq!(seen, vec![(2, 2), (7, 3), (9, 1)]);
        assert!(sc.touched().is_empty());
        assert!((0..10).all(|s| sc.get(s) == 0));
    }

    #[test]
    fn fx_hasher_write_matches_word_folds() {
        // 8-byte chunks must fold exactly like write_u64 on the LE word.
        let mut by_slice = FxHasher::default();
        by_slice.write(&42u64.to_le_bytes());
        let mut by_word = FxHasher::default();
        by_word.write_u64(42);
        assert_eq!(by_slice.finish(), by_word.finish());
        // Tails shorter than a word still contribute.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn sparse_counters_reusable_across_focus_columns() {
        let mut sc = SparseCounters::new(4);
        sc.increment(0);
        sc.reset();
        sc.increment(1);
        assert_eq!(sc.get(0), 0);
        assert_eq!(sc.get(1), 1);
    }
}
