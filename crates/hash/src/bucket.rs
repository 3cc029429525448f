//! Hash-count machinery: bucket tables and reusable sparse counters.
//!
//! The paper's candidate-generation algorithms (§3.1) revolve around two
//! small data structures:
//!
//! * a **bucket table** mapping a hash value to the list of columns whose
//!   signature contains it ("buckets … store column-indices for all columns
//!   `c_i` with some element of `SIG_i` hashing into that bucket"), and
//! * **reusable counters**: "to avoid `O(m²)` counter initializations, we
//!   reuse the same `O(m)` counters … and remember and reinitialize only
//!   counters that were incremented at least once" — implemented as
//!   [`SparseCounters`].
//!
//! [`PairCounter`] packs `(i, j)` column pairs into one `u64` key over an
//! open-addressing table, for callers that want every pair's count at
//! once. The candidate generators count column by column instead, over
//! the bucket index of [`crate::index`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A minimal fast `Hasher` for integer-keyed maps (FxHash-style fold-mul).
///
/// Collision attacks are irrelevant here (keys are our own hash values), so
/// we trade SipHash's robustness for speed, as any database engine does for
/// internal integer maps.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
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

/// Unpacks a key produced by [`pack_pair`].
#[inline]
#[must_use]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Open-addressing `u64 → u32` counter table for [`pack_pair`] keys.
///
/// The backing store of [`PairCounter`]: a general `HashMap<u64, u32>`
/// pays for SipHash-free but still branchy entry logic and per-entry
/// overhead. This table is the minimal alternative: power-of-two
/// capacity, Fibonacci multiply-shift indexing, linear probing, parallel
/// `keys`/`vals` arrays, grow at ¾ load.
///
/// The key `u64::MAX` is reserved as the empty-slot sentinel — it can
/// never be produced by `pack_pair`, which requires `i < j`.
#[derive(Debug, Default, Clone)]
pub struct CounterTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    items: usize,
}

/// Empty-slot marker; unreachable as a `pack_pair(i, j)` key since it
/// would need `i == j == u32::MAX`.
const EMPTY_SLOT: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ, forced odd).
const FIB_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl CounterTable {
    /// Creates an empty table (no allocation until the first insert).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no key has been counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    #[inline]
    fn start_slot(&self, key: u64) -> usize {
        // High multiply-shift bits: with power-of-two `slots`, take the
        // top log2(slots) bits of key * FIB_MUL.
        let h = key.wrapping_mul(FIB_MUL);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Adds `count` to `key`'s counter.
    #[inline]
    pub fn add(&mut self, key: u64, count: u32) {
        debug_assert_ne!(key, EMPTY_SLOT, "u64::MAX is the empty sentinel");
        if self.items * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                self.vals[slot] += count;
                return;
            }
            if k == EMPTY_SLOT {
                self.keys[slot] = key;
                self.vals[slot] = count;
                self.items += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Current counter value for `key` (0 if absent).
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> u32 {
        if self.keys.is_empty() {
            return 0;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.vals[slot];
            }
            if k == EMPTY_SLOT {
                return 0;
            }
            slot = (slot + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_slots = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_SLOT; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_slots]);
        self.items = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_SLOT {
                self.add(k, v);
            }
        }
    }

    /// Iterates `(key, count)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY_SLOT)
            .map(|(&k, &v)| (k, v))
    }

    /// Consumes the table, yielding `(key, count)` in arbitrary order.
    pub fn into_entries(self) -> impl Iterator<Item = (u64, u32)> {
        self.keys
            .into_iter()
            .zip(self.vals)
            .filter(|&(k, _)| k != EMPTY_SLOT)
    }
}

/// Counts occurrences per ordered column pair.
///
/// Filled by the `*_counts` analysis helpers (from a full walk of the
/// bucket index) and by the apriori baseline's pair pass.
#[derive(Debug, Default)]
pub struct PairCounter {
    counts: CounterTable,
}

impl PairCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `a == b`; self-pairs are meaningless.
    #[inline]
    pub fn increment(&mut self, a: u32, b: u32) {
        self.add(a, b, 1);
    }

    /// Adds `count` to the unordered pair `{a, b}` (bulk merge support).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `a == b`.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32, count: u32) {
        debug_assert_ne!(a, b, "self-pair");
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.counts.add(key, count);
    }

    /// Current count for the unordered pair `{a, b}`.
    #[inline]
    #[must_use]
    pub fn get(&self, a: u32, b: u32) -> u32 {
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.counts.get(key)
    }

    /// Number of pairs with a nonzero count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no pair has been counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(i, j, count)` with `i < j`, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.counts.iter().map(|(k, c)| {
            let (i, j) = unpack_pair(k);
            (i, j, c)
        })
    }

    /// Drains `(i, j, count)` entries, leaving the counter empty.
    pub fn drain(&mut self) -> impl Iterator<Item = (u32, u32, u32)> {
        std::mem::take(&mut self.counts)
            .into_entries()
            .map(|(k, c)| {
                let (i, j) = unpack_pair(k);
                (i, j, c)
            })
    }

    /// Pairs whose count is at least `threshold`, as `(i, j, count)`.
    #[must_use]
    pub fn pairs_at_least(&self, threshold: u32) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = self.iter().filter(|&(_, _, c)| c >= threshold).collect();
        v.sort_unstable();
        v
    }
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

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.counts.len()
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

    /// Drains `(slot, count)` for touched slots with count ≥ `threshold`,
    /// resetting the counters as it goes.
    pub fn drain_at_least(&mut self, threshold: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for &slot in &self.touched {
            let c = self.counts[slot as usize];
            if c >= threshold {
                out.push((slot, c));
            }
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
        out
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
    fn pack_unpack_roundtrip() {
        for (i, j) in [(0, 1), (5, 9), (0, u32::MAX), (100, 101)] {
            assert_eq!(unpack_pair(pack_pair(i, j)), (i, j));
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
    fn pair_counter_orders_pairs() {
        let mut pc = PairCounter::new();
        pc.increment(3, 1);
        pc.increment(1, 3);
        assert_eq!(pc.get(1, 3), 2);
        assert_eq!(pc.get(3, 1), 2);
        assert_eq!(pc.get(1, 2), 0);
    }

    #[test]
    fn pair_counter_threshold_filter() {
        let mut pc = PairCounter::new();
        for _ in 0..5 {
            pc.increment(0, 1);
        }
        pc.increment(0, 2);
        assert_eq!(pc.pairs_at_least(2), vec![(0, 1, 5)]);
        assert_eq!(pc.pairs_at_least(1).len(), 2);
    }

    #[test]
    fn pair_counter_drain_empties() {
        let mut pc = PairCounter::new();
        pc.increment(0, 1);
        let drained: Vec<_> = pc.drain().collect();
        assert_eq!(drained, vec![(0, 1, 1)]);
        assert!(pc.is_empty());
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
    fn sparse_counters_drain_at_least() {
        let mut sc = SparseCounters::new(10);
        sc.increment(1);
        sc.increment(1);
        sc.increment(2);
        let mut hits = sc.drain_at_least(2);
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 2)]);
        // fully reset afterwards:
        assert_eq!(sc.get(1), 0);
        assert_eq!(sc.get(2), 0);
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
    fn counter_table_counts_and_grows() {
        let mut t = CounterTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(pack_pair(0, 1)), 0);
        // Enough keys to force several growth rounds from the empty state.
        for round in 1..=3u32 {
            for i in 0..2_000u32 {
                t.add(pack_pair(i, i + 1), round);
            }
        }
        assert_eq!(t.len(), 2_000);
        let total: u64 = t.iter().map(|(_, c)| u64::from(c)).sum();
        assert_eq!(total, 2_000 * 6);
        for i in 0..2_000u32 {
            assert_eq!(t.get(pack_pair(i, i + 1)), 6);
        }
        assert_eq!(t.get(pack_pair(5_000, 5_001)), 0);
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
