//! Bounded bottom-k tracker.
//!
//! The K-MH scheme (paper §3.2) maintains, per column, the `k` smallest row
//! hash values seen so far: "a simple data structure that allows us to
//! insert a new value (smaller than the current maximum) and delete the
//! current maximum in `O(log k)` time", with "the maximum element among the
//! k current Min-Hash values readily available". That structure is a bounded
//! max-heap; [`BottomK`] implements it with set semantics (duplicate values
//! are ignored), matching the signature-as-set treatment of Theorem 2.

/// Retains the `k` smallest *distinct* `u64` values fed to it.
///
/// Backed by a flat-`Vec` max-heap so the current threshold (largest
/// retained value) is available in `O(1)` and each accepted insertion costs
/// `O(log k)`. Values that cannot displace the threshold are rejected in
/// `O(1)` before any heap work; a saturated tracker admits by *replacing*
/// the root and sifting down once, instead of the push-then-pop double
/// sift a generic heap would pay.
///
/// # Examples
///
/// ```
/// use sfa_hash::BottomK;
///
/// let mut bk = BottomK::new(3);
/// for v in [50, 10, 40, 30, 20, 10] {
///     bk.insert(v);
/// }
/// assert_eq!(bk.into_sorted_vec(), vec![10, 20, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct BottomK {
    k: usize,
    /// Binary max-heap laid out in the classic flat array form:
    /// `heap[0]` is the maximum, children of `i` are `2i+1` and `2i+2`.
    heap: Vec<u64>,
}

impl BottomK {
    /// Creates a tracker retaining at most `k` values.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// The capacity `k`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of values currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no values are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current maximum retained value (the admission threshold once the
    /// tracker is full), or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.heap.first().copied()
    }

    /// The admission threshold as K-MH's builder compares it: the current
    /// maximum when the tracker is saturated, `u64::MAX` (admit anything)
    /// while it still has room.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        if self.heap.len() < self.k {
            u64::MAX
        } else {
            self.heap[0]
        }
    }

    /// Whether `v` would be admitted by [`insert`](Self::insert).
    ///
    /// This is the `O(1)` threshold reject the K-MH inner loop relies on:
    /// one comparison against the heap root, no traversal.
    #[inline]
    #[must_use]
    pub fn would_admit(&self, v: u64) -> bool {
        self.heap.len() < self.k || v < self.heap[0]
    }

    /// Offers a value; returns `true` if it was admitted.
    ///
    /// A value is admitted when the tracker is not yet full or when it is
    /// strictly smaller than the current maximum, and it is not already
    /// present (set semantics). Rejected values cost one comparison; an
    /// admission into a saturated tracker replaces the root with a single
    /// `O(log k)` sift-down.
    pub fn insert(&mut self, v: u64) -> bool {
        if !self.would_admit(v) {
            return false;
        }
        // Set semantics: reject duplicates. A linear scan is acceptable
        // because admissions happen only O(k log n) times per column and
        // duplicates are vanishingly rare with 64-bit hashes.
        if self.heap.contains(&v) {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1);
        } else {
            self.heap[0] = v;
            self.sift_down(0);
        }
        true
    }

    /// Moves `heap[i]` up toward the root until its parent is larger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] >= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Moves `heap[i]` down, swapping with its larger child, until both
    /// children are smaller.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[i] >= self.heap[child] {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }

    /// Consumes the tracker, returning the retained values in ascending order.
    #[must_use]
    pub fn into_sorted_vec(self) -> Vec<u64> {
        let mut v = self.heap;
        v.sort_unstable();
        v
    }

    /// Copies the retained values into a fresh ascending `Vec`.
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<u64> {
        let mut v = self.heap.clone();
        v.sort_unstable();
        v
    }

    /// Iterates over retained values in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.heap.iter().copied()
    }
}

/// Merges two ascending bottom-k signatures into the bottom-k of their union.
///
/// This is the `SIG_{i∪j}` computation of Theorem 2: "the set of the
/// smallest k elements from `SIG_i ∪ SIG_j`", computable in `O(k)` by merge.
/// Duplicate values (present in both inputs) contribute once.
#[must_use]
pub fn merge_bottom_k(a: &[u64], b: &[u64], k: usize) -> Vec<u64> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted-unique");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted-unique");
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while out.len() < k && (i < a.len() || j < b.len()) {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    i += 1;
                    x
                } else if y < x {
                    j += 1;
                    y
                } else {
                    i += 1;
                    j += 1;
                    x
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition guarantees an element"),
        };
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut bk = BottomK::new(4);
        for v in [9, 3, 7, 1, 8, 2, 6, 4, 5] {
            bk.insert(v);
        }
        assert_eq!(bk.into_sorted_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut bk = BottomK::new(3);
        assert!(bk.insert(5));
        assert!(!bk.insert(5));
        assert!(bk.insert(1));
        assert!(!bk.insert(1));
        assert_eq!(bk.into_sorted_vec(), vec![1, 5]);
    }

    #[test]
    fn max_tracks_threshold() {
        let mut bk = BottomK::new(2);
        assert_eq!(bk.max(), None);
        bk.insert(10);
        assert_eq!(bk.max(), Some(10));
        bk.insert(20);
        assert_eq!(bk.max(), Some(20));
        bk.insert(5); // evicts 20
        assert_eq!(bk.max(), Some(10));
    }

    #[test]
    fn would_admit_matches_insert() {
        let mut bk = BottomK::new(2);
        bk.insert(10);
        bk.insert(20);
        assert!(!bk.would_admit(25));
        assert!(!bk.would_admit(20)); // equal to max: rejected
        assert!(bk.would_admit(15));
    }

    #[test]
    fn threshold_is_max_when_full_else_unbounded() {
        let mut bk = BottomK::new(2);
        assert_eq!(bk.threshold(), u64::MAX);
        bk.insert(10);
        assert_eq!(bk.threshold(), u64::MAX); // room left: admit anything
        bk.insert(20);
        assert_eq!(bk.threshold(), 20); // saturated: the current max
        bk.insert(5);
        assert_eq!(bk.threshold(), 10);
    }

    #[test]
    fn underfull_returns_everything() {
        let mut bk = BottomK::new(100);
        for v in [3, 1, 2] {
            bk.insert(v);
        }
        assert_eq!(bk.len(), 3);
        assert_eq!(bk.into_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = BottomK::new(0);
    }

    #[test]
    fn matches_naive_sort_truncate_on_random_streams() {
        // The flat-heap rework (replace-max instead of push-then-pop) must
        // not change a single retained value: cross-check every prefix
        // against sort+dedup+truncate.
        let mut seq = crate::rng::SeedSequence::new(0xB077_03FF);
        for trial in 0..40 {
            let k = 1 + (trial % 9);
            let stream: Vec<u64> = (0..60).map(|_| seq.next_seed() % 50).collect();
            let mut bk = BottomK::new(k);
            for (i, &v) in stream.iter().enumerate() {
                let admitted = bk.insert(v);
                let mut naive: Vec<u64> = stream[..=i].to_vec();
                naive.sort_unstable();
                naive.dedup();
                naive.truncate(k);
                assert_eq!(bk.to_sorted_vec(), naive, "trial {trial}, step {i}");
                assert_eq!(bk.max(), naive.last().copied());
                // `insert` returned true iff the retained set gained `v`.
                assert_eq!(
                    admitted,
                    naive.contains(&v) && {
                        let mut before: Vec<u64> = stream[..i].to_vec();
                        before.sort_unstable();
                        before.dedup();
                        before.truncate(k);
                        !before.contains(&v)
                    }
                );
            }
        }
    }

    #[test]
    fn saturated_rejects_do_no_heap_work() {
        // After saturation with small values, a stream of larger values
        // must leave the retained set (and the threshold) untouched.
        let mut bk = BottomK::new(3);
        for v in [1, 2, 3] {
            bk.insert(v);
        }
        for v in 100..200 {
            assert!(!bk.insert(v));
        }
        assert_eq!(bk.threshold(), 3);
        assert_eq!(bk.into_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn merge_basic() {
        let a = vec![1, 4, 7];
        let b = vec![2, 4, 9];
        assert_eq!(merge_bottom_k(&a, &b, 4), vec![1, 2, 4, 7]);
    }

    #[test]
    fn merge_dedupes_shared_values() {
        let a = vec![1, 2, 3];
        let b = vec![1, 2, 3];
        assert_eq!(merge_bottom_k(&a, &b, 3), vec![1, 2, 3]);
    }

    #[test]
    fn merge_short_inputs() {
        assert_eq!(merge_bottom_k(&[5], &[], 3), vec![5]);
        assert_eq!(merge_bottom_k(&[], &[], 3), Vec::<u64>::new());
        assert_eq!(merge_bottom_k(&[1], &[2], 8), vec![1, 2]);
    }

    #[test]
    fn merge_matches_naive() {
        // Cross-check against sort+dedup+truncate on pseudo-random inputs.
        let mut seq = crate::rng::SeedSequence::new(17);
        for trial in 0..50 {
            let a: Vec<u64> = {
                let mut v: Vec<u64> = (0..20).map(|_| seq.next_seed() % 100).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let b: Vec<u64> = {
                let mut v: Vec<u64> = (0..20).map(|_| seq.next_seed() % 100).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let k = 1 + (trial % 15);
            let mut naive: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            naive.sort_unstable();
            naive.dedup();
            naive.truncate(k);
            assert_eq!(merge_bottom_k(&a, &b, k), naive, "trial {trial}");
        }
    }
}
