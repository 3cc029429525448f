//! Property-based tests for the hashing substrate.

use proptest::prelude::*;

use sfa_hash::bucket::{pack_pair, unpack_pair, PairCounter, SparseCounters};
use sfa_hash::mix::hash64_with_seed;
use sfa_hash::topk::merge_bottom_k;
use sfa_hash::{BottomK, HashFamily, SeedSequence};

proptest! {
    #[test]
    fn pack_unpack_is_bijective(i in 0u32..u32::MAX - 1, d in 1u32..1000) {
        let j = i.saturating_add(d).max(i + 1);
        prop_assert_eq!(unpack_pair(pack_pair(i, j)), (i, j));
    }

    #[test]
    fn seed_sequences_replay(seed in any::<u64>(), n in 1usize..100) {
        let a: Vec<u64> = SeedSequence::new(seed).take(n).collect();
        let b: Vec<u64> = SeedSequence::new(seed).take(n).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hash_family_members_disagree(seed in any::<u64>(), key in any::<u64>()) {
        let fam = HashFamily::new(8, seed);
        let outs: std::collections::HashSet<u64> =
            (0..8).map(|i| fam.hash(i, key)).collect();
        // 8 independent functions almost surely give 8 distinct outputs.
        prop_assert!(outs.len() >= 7);
    }

    #[test]
    fn premixed_members_equal_hash64_with_seed(
        seed in any::<u64>(),
        k in 1usize..40,
        row in (any::<u32>(), 0u8..4).prop_map(|(r, pick)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => r,
        }),
    ) {
        // Every evaluation path computes `hash64_with_seed(row, member
        // seed)`, only with the seed's splitmix64 hoisted out of the loop.
        let fam = HashFamily::new(k, seed);
        let mut all = vec![0u64; k];
        fam.hash_all(u64::from(row), &mut all);
        for (i, member) in fam.members().enumerate() {
            let want = hash64_with_seed(u64::from(row), member.seed());
            prop_assert_eq!(fam.hash(i, u64::from(row)), want);
            prop_assert_eq!(member.hash(u64::from(row)), want);
            prop_assert_eq!(member.hash_row(row), want);
            prop_assert_eq!(all[i], want);
        }
    }

    #[test]
    fn bottom_k_insert_order_is_irrelevant(
        mut values in prop::collection::vec(any::<u64>(), 0..40),
        k in 1usize..8,
    ) {
        let mut forward = BottomK::new(k);
        for &v in &values {
            forward.insert(v);
        }
        values.reverse();
        let mut backward = BottomK::new(k);
        for &v in &values {
            backward.insert(v);
        }
        prop_assert_eq!(forward.into_sorted_vec(), backward.into_sorted_vec());
    }

    #[test]
    fn merge_bottom_k_is_commutative_and_bounded(
        a in prop::collection::btree_set(any::<u64>(), 0..20),
        b in prop::collection::btree_set(any::<u64>(), 0..20),
        k in 1usize..10,
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let ab = merge_bottom_k(&a, &b, k);
        let ba = merge_bottom_k(&b, &a, k);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.len() <= k);
        prop_assert!(ab.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pair_counter_is_order_insensitive(
        pairs in prop::collection::vec((0u32..16, 0u32..16), 0..50),
    ) {
        let mut pc = PairCounter::new();
        let mut reference: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for &(a, b) in &pairs {
            if a == b {
                continue;
            }
            pc.increment(a, b);
            *reference.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
        for (&(i, j), &c) in &reference {
            prop_assert_eq!(pc.get(i, j), c);
            prop_assert_eq!(pc.get(j, i), c);
        }
        prop_assert_eq!(pc.len(), reference.len());
    }

    #[test]
    fn sparse_counters_match_dense_counting(
        slots in prop::collection::vec(0u32..32, 0..100),
    ) {
        let mut sc = SparseCounters::new(32);
        let mut dense = [0u32; 32];
        for &s in &slots {
            sc.increment(s);
            dense[s as usize] += 1;
        }
        for (s, &d) in dense.iter().enumerate() {
            prop_assert_eq!(sc.get(s as u32), d);
        }
        // Touched holds exactly the nonzero slots, each once.
        let mut touched = sc.touched().to_vec();
        touched.sort_unstable();
        let expected: Vec<u32> = (0..32u32).filter(|&s| dense[s as usize] > 0).collect();
        prop_assert_eq!(touched, expected);
        sc.reset();
        prop_assert!((0..32u32).all(|s| sc.get(s) == 0));
    }
}
