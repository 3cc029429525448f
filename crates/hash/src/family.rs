//! Seedable families of hash functions over row identifiers.
//!
//! The MH scheme of the paper (§3) needs `k` *independent* implicit row
//! permutations; a permutation is represented by a seeded bijective hash of
//! the row id, and "the first row under the permutation with a 1 in the
//! column" becomes "the minimum hash value among the column's rows".
//!
//! Two families are provided:
//!
//! * [`HashFamily`] — the default: per-member seeds feeding the
//!   [`crate::mix::hash64_with_seed`] bijection. Fast,
//!   bijective per member (no row collisions at all), empirically
//!   indistinguishable from random for this workload. The seed half of
//!   that bijection, `splitmix64(seed)`, does not depend on the row, so
//!   members compute it once at construction and each evaluation is a
//!   single `fmix64(row ^ premixed)`.
//! * [`MultiplyShiftFamily`] — the classic 2-universal
//!   `h(x) = (a·x + b) >> (64 − bits)` family (Dietzfelbinger et al.), kept
//!   as an ablation point: provable universality, weaker mixing.

use crate::mix::{fmix64, splitmix64};
use crate::rng::SeedSequence;

/// A single seeded hash function over row identifiers.
///
/// The function is a bijection of `u64`, so distinct rows never collide and
/// the induced order on rows is a uniform random permutation (up to the
/// quality of the mixer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowHasher {
    seed: u64,
    /// `splitmix64(seed)`, the row-independent half of
    /// [`hash64_with_seed`](crate::mix::hash64_with_seed).
    premixed: u64,
}

impl RowHasher {
    /// Creates a hasher from a seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            premixed: splitmix64(seed),
        }
    }

    /// Hashes a row identifier; equals `hash64_with_seed(row, seed)`.
    #[inline]
    #[must_use]
    pub const fn hash(&self, row: u64) -> u64 {
        fmix64(row ^ self.premixed)
    }

    /// Hashes a `u32` row identifier (the common case for our matrices).
    #[inline]
    #[must_use]
    pub const fn hash_row(&self, row: u32) -> u64 {
        fmix64(row as u64 ^ self.premixed)
    }

    /// The seed this hasher was built from.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }
}

/// A family of `k` independent [`RowHasher`]s, derived from one root seed.
///
/// # Examples
///
/// ```
/// use sfa_hash::HashFamily;
///
/// let fam = HashFamily::new(4, 1234);
/// assert_eq!(fam.len(), 4);
/// // Each member defines a different implicit permutation.
/// assert_ne!(fam.hash(0, 7), fam.hash(1, 7));
/// // Deterministic: same root seed, same family.
/// assert_eq!(HashFamily::new(4, 1234).hash(2, 99), fam.hash(2, 99));
/// ```
#[derive(Debug, Clone)]
pub struct HashFamily {
    seeds: Vec<u64>,
    /// `premixed[i] = splitmix64(seeds[i])`, contiguous so the `k`-wide
    /// evaluation in [`hash_all`](Self::hash_all) vectorizes.
    premixed: Vec<u64>,
}

impl HashFamily {
    /// Creates a family of `k` hash functions rooted at `seed`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        let mut seq = SeedSequence::new(seed);
        let mut seeds = vec![0u64; k];
        seq.fill(&mut seeds);
        let premixed = seeds.iter().map(|&s| splitmix64(s)).collect();
        Self { seeds, premixed }
    }

    /// Number of functions in the family.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the family is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Hashes `row` under the `i`th member.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn hash(&self, i: usize, row: u64) -> u64 {
        fmix64(row ^ self.premixed[i])
    }

    /// Returns the `i`th member as a standalone [`RowHasher`].
    #[must_use]
    pub fn member(&self, i: usize) -> RowHasher {
        RowHasher::new(self.seeds[i])
    }

    /// Evaluates all members on `row`, writing the results into `out`.
    ///
    /// This is the inner loop of MH signature computation: one call per
    /// table row that holds a 1, then each column with a 1 in the row
    /// min-merges `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn hash_all(&self, row: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.seeds.len(), "output slice length mismatch");
        for (slot, &p) in out.iter_mut().zip(&self.premixed) {
            *slot = fmix64(row ^ p);
        }
    }

    /// Iterates over the members.
    pub fn members(&self) -> impl Iterator<Item = RowHasher> + '_ {
        self.seeds.iter().map(|&s| RowHasher::new(s))
    }
}

/// The 2-universal multiply-shift family over `u64` keys.
///
/// `h_{a,b}(x) = (a·x + b) >> (64 − bits)` with odd `a`. Provably
/// 2-universal (Dietzfelbinger et al. 1997); used as an ablation baseline
/// against [`HashFamily`] in the `bench_hash` benchmark.
#[derive(Debug, Clone)]
pub struct MultiplyShiftFamily {
    params: Vec<(u64, u64)>,
    shift: u32,
}

impl MultiplyShiftFamily {
    /// Creates `k` functions producing `bits`-bit outputs.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0 || bits > 64`.
    #[must_use]
    pub fn new(k: usize, bits: u32, seed: u64) -> Self {
        assert!(bits > 0 && bits <= 64, "bits must be in 1..=64");
        let mut seq = SeedSequence::new(seed);
        let params = (0..k)
            .map(|_| {
                let a = seq.next_seed() | 1; // multiplier must be odd
                let b = seq.next_seed();
                (a, b)
            })
            .collect();
        Self {
            params,
            shift: 64 - bits,
        }
    }

    /// Number of functions in the family.
    #[must_use]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the family is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Hashes `row` under the `i`th member.
    #[inline]
    #[must_use]
    pub fn hash(&self, i: usize, row: u64) -> u64 {
        let (a, b) = self.params[i];
        a.wrapping_mul(row).wrapping_add(b) >> self.shift
    }
}

/// Derives a stable per-purpose seed from `(root, purpose)` labels.
///
/// Convenience used across crates so that e.g. "the signature family" and
/// "the banding hash" of one pipeline run never share a seed.
#[must_use]
pub const fn derive_seed(root: u64, purpose: u64) -> u64 {
    splitmix64(root ^ splitmix64(purpose ^ 0xa076_1d64_78bd_642f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_are_distinct() {
        let fam = HashFamily::new(8, 0);
        let outs: std::collections::HashSet<u64> = (0..8).map(|i| fam.hash(i, 12345)).collect();
        assert_eq!(outs.len(), 8);
    }

    #[test]
    fn hash_all_matches_individual() {
        let fam = HashFamily::new(5, 77);
        let mut out = vec![0u64; 5];
        fam.hash_all(42, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, fam.hash(i, 42));
        }
    }

    #[test]
    #[should_panic(expected = "output slice length mismatch")]
    fn hash_all_rejects_wrong_len() {
        let fam = HashFamily::new(5, 77);
        let mut out = vec![0u64; 4];
        fam.hash_all(42, &mut out);
    }

    #[test]
    fn premixed_hashes_match_values_pinned_before_premixing() {
        // Recorded when every evaluation still called
        // `hash64_with_seed(row, seed)`; premixing must not move a bit.
        let fam = HashFamily::new(4, 1234);
        let got: Vec<u64> = (0..4).map(|i| fam.hash(i, 99)).collect();
        assert_eq!(
            got,
            [
                0x1f4e_96d6_5c62_1f3b,
                0xb1b8_b8ba_b03a_80c7,
                0xa49e_1f3e_f741_4c65,
                0x52fd_1cc5_a8fe_a6be,
            ]
        );
        assert_eq!(RowHasher::new(7).hash_row(5), 0xea52_b2c4_04a6_c1cd);
    }

    #[test]
    fn member_matches_family() {
        let fam = HashFamily::new(3, 9);
        assert_eq!(fam.member(1).hash(100), fam.hash(1, 100));
    }

    #[test]
    fn min_position_is_uniform() {
        // The row achieving the minimum hash should be uniform over rows:
        // over many family members, each of 4 rows should "win" ~ k/4 times.
        let k = 4000;
        let fam = HashFamily::new(k, 5);
        let mut wins = [0usize; 4];
        for i in 0..k {
            let argmin = (0..4).min_by_key(|&r| fam.hash(i, r)).unwrap();
            wins[argmin as usize] += 1;
        }
        for &w in &wins {
            assert!(
                (800..=1200).contains(&w),
                "expected ~1000 wins per row, got {wins:?}"
            );
        }
    }

    #[test]
    fn multiply_shift_range() {
        let fam = MultiplyShiftFamily::new(4, 16, 3);
        for i in 0..4 {
            for x in 0..1000u64 {
                assert!(fam.hash(i, x) < (1 << 16));
            }
        }
    }

    #[test]
    fn multiply_shift_collision_rate_is_universal() {
        // 2-universality: Pr[h(x)=h(y)] ≤ 1/2^bits for x≠y. With 12-bit
        // outputs and 200 keys (19900 pairs) expect ≈ 4.9 collisions per
        // function; check the average over members is not wildly above.
        let bits = 12;
        let fam = MultiplyShiftFamily::new(50, bits, 11);
        let mut total = 0usize;
        for i in 0..fam.len() {
            let hs: Vec<u64> = (0..200u64).map(|x| fam.hash(i, x * 7919)).collect();
            for a in 0..hs.len() {
                for b in (a + 1)..hs.len() {
                    if hs[a] == hs[b] {
                        total += 1;
                    }
                }
            }
        }
        let avg = total as f64 / 50.0;
        assert!(avg < 15.0, "average collisions per member: {avg}");
    }

    #[test]
    fn derive_seed_separates_purposes() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
    }
}
