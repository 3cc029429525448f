//! Property-based equivalence of the intersection kernels.
//!
//! The sorted two-pointer merge ([`column::intersection_size`]) is the
//! reference implementation; every faster kernel — galloping search, the
//! adaptive dispatcher (on `u32` row ids and on the `u64` K-MH sketches),
//! the u32 auto dispatcher with its bitmap arm, the [`BitMatrix`]
//! AND-popcount and its blocked all-pairs driver, the hybrid
//! (array/bitmap/run) containers, and the runtime-dispatched SIMD word
//! kernel — must return exactly the same integer counts on every input,
//! including the adversarially skewed shapes the dispatcher uses to pick
//! a kernel and every pairwise container-type combination.

use proptest::prelude::*;

use sfa_matrix::bitmap::{intersection_size_scratch, intersection_size_words, BitMatrix};
use sfa_matrix::column::{
    intersection_size, intersection_size_adaptive, intersection_size_auto, intersection_size_gallop,
};
use sfa_matrix::{kernel, HybridColumn, MatrixBuilder, SparseMatrix};

fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..bound, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

/// Rows spanning three 2^16 chunks (`N_ROWS_HYBRID` = 3·65536), shaped to
/// land on a specific container type in the middle chunk:
/// * `array` — a sparse scatter (chunk cardinality ≤ 4096),
/// * `runs` — a handful of long intervals (few runs, huge cardinality),
/// * `bitmap` — a dense scatter (cardinality > 4096 with many runs).
const N_ROWS_HYBRID: u32 = 3 << 16;

fn shaped_rows() -> impl Strategy<Value = Vec<u32>> {
    let array = prop::collection::btree_set(0..N_ROWS_HYBRID, 0..=300)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
    let runs =
        prop::collection::vec((0..N_ROWS_HYBRID - 9000, 1u32..9000), 1..6).prop_map(|intervals| {
            let mut set = std::collections::BTreeSet::new();
            for (start, len) in intervals {
                set.extend(start..start + len);
            }
            set.into_iter().collect::<Vec<u32>>()
        });
    // Scattering ~6000 of every 8 rows of one chunk forces the bitmap
    // container: cardinality > 4096 and far too many runs to store.
    let bitmap = (
        0u32..3,
        prop::collection::btree_set(0u32..48_000, 4200..=4600),
    )
        .prop_map(|(chunk, offsets)| {
            offsets
                .into_iter()
                .map(|o| (chunk << 16) + (o % (1 << 16)))
                .collect::<std::collections::BTreeSet<u32>>()
                .into_iter()
                .collect::<Vec<u32>>()
        });
    // The vendored proptest shim has no `prop_oneof`; generate all three
    // shapes and let a selector pick one.
    (0u32..3, array, runs, bitmap).prop_map(|(sel, array, runs, bitmap)| match sel {
        0 => array,
        1 => runs,
        _ => bitmap,
    })
}

/// Sorted distinct `u64` values shaped like K-MH sketches, spread over a
/// narrow range so intersections are non-trivial.
fn sorted_u64s(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(0u64..4_096, len).prop_map(|s| s.into_iter().collect::<Vec<u64>>())
}

/// A pair of columns where one side is forced to be far longer than the
/// other (`|small| <= 3`, `|large| >= 48`), so the adaptive dispatcher's
/// galloping arm actually engages (`large / small >= GALLOP_SKEW_CUTOFF`).
fn skewed_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    let small = row_set(4_096, 3);
    let large = prop::collection::btree_set(0u32..4_096, 48..=600)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
    (small, large)
}

proptest! {
    #[test]
    fn all_kernels_match_merge_on_random_columns(
        a in row_set(512, 200),
        b in row_set(512, 200),
    ) {
        let expected = intersection_size(&a, &b);
        prop_assert_eq!(intersection_size_gallop(&a, &b), expected);
        prop_assert_eq!(intersection_size_gallop(&b, &a), expected);
        prop_assert_eq!(intersection_size_adaptive(&a, &b), expected);
        prop_assert_eq!(intersection_size_auto(&a, &b), expected);
        prop_assert_eq!(intersection_size_scratch(&a, &b), expected);
    }

    #[test]
    fn all_kernels_match_merge_on_skewed_columns((small, large) in skewed_pair()) {
        let expected = intersection_size(&small, &large);
        prop_assert_eq!(intersection_size_gallop(&small, &large), expected);
        prop_assert_eq!(intersection_size_adaptive(&small, &large), expected);
        prop_assert_eq!(intersection_size_adaptive(&large, &small), expected);
        prop_assert_eq!(intersection_size_auto(&small, &large), expected);
        prop_assert_eq!(intersection_size_auto(&large, &small), expected);
        prop_assert_eq!(intersection_size_scratch(&small, &large), expected);
    }

    #[test]
    fn bit_columns_match_merge(
        a in row_set(300, 150),
        b in row_set(300, 150),
    ) {
        let expected = intersection_size(&a, &b);
        let pair = SparseMatrix::from_columns(300, vec![a, b]).unwrap();
        let bits = BitMatrix::from_csc(&pair);
        prop_assert_eq!(bits.intersection_size(0, 1), expected);
        prop_assert_eq!(
            intersection_size_words(bits.column_words(1), bits.column_words(0)),
            expected
        );
    }

    #[test]
    fn hybrid_containers_match_merge_on_shaped_columns(
        a in shaped_rows(),
        b in shaped_rows(),
    ) {
        let ca = HybridColumn::from_rows(N_ROWS_HYBRID, &a);
        let cb = HybridColumn::from_rows(N_ROWS_HYBRID, &b);
        let expected = intersection_size(&a, &b);
        prop_assert_eq!(ca.intersection_size(&cb), expected);
        prop_assert_eq!(cb.intersection_size(&ca), expected, "container order asymmetry");
        prop_assert_eq!(
            HybridColumn::payload_bytes_for_rows(&a),
            ca.heap_bytes(),
            "cap estimator diverged from the built payload bytes"
        );
    }

    #[test]
    fn simd_word_kernels_match_scalar(
        a in prop::collection::vec(any::<u64>(), 0..=300),
        b in prop::collection::vec(any::<u64>(), 0..=300),
    ) {
        // Lengths differ, so the AND truncates; >64-word inputs reach the
        // Harley–Seal main loop.
        let expected = kernel::and_popcount_scalar(&a, &b);
        prop_assert_eq!(kernel::and_popcount(&a, &b), expected);
        if let Some(simd) = kernel::and_popcount_simd(&a, &b) {
            prop_assert_eq!(simd, expected, "SIMD AND diverged from scalar");
        }
    }

    #[test]
    fn sorted_u64_adaptive_matches_merge(
        balanced_a in sorted_u64s(64..=400),
        balanced_b in sorted_u64s(64..=400),
        small in sorted_u64s(1..=3),
        large in sorted_u64s(48..=600),
    ) {
        // K-MH sketch overlap: a skew under `GALLOP_SKEW_CUTOFF` (at most
        // 400/64) takes the merge, one at or past it (at least 48/3) the
        // galloping search.
        for (a, b) in [(&balanced_a, &balanced_b), (&small, &large)] {
            let expected = intersection_size(a, b);
            prop_assert_eq!(intersection_size_adaptive(a, b), expected);
            prop_assert_eq!(intersection_size_adaptive(b, a), expected);
        }
    }

    #[test]
    fn blocked_driver_matches_per_pair_merge(
        entries in prop::collection::vec((0u32..60, 0u32..40), 0..400),
    ) {
        let mut builder = MatrixBuilder::new(60, 40);
        for &(r, c) in &entries {
            builder.add_entry(r, c).unwrap();
        }
        let matrix = builder.build_csc();
        let bits = BitMatrix::from_csc(&matrix);
        // Collect the driver's visits, then check them against the merge
        // kernel on the raw CSC columns: same pairs, same counts, no
        // duplicates, nothing skipped.
        let mut visited = std::collections::BTreeMap::new();
        let mut duplicate = false;
        bits.for_each_cooccurring_pair(|i, j, inter| {
            duplicate |= i >= j || inter == 0 || visited.insert((i, j), inter).is_some();
        });
        prop_assert!(!duplicate, "driver visited a pair twice, out of order, or empty");
        for i in 0..matrix.n_cols() {
            for j in (i + 1)..matrix.n_cols() {
                let expected = intersection_size(matrix.column(i), matrix.column(j));
                let got = visited.get(&(i as usize, j as usize)).copied().unwrap_or(0);
                prop_assert_eq!(got, expected, "pair ({}, {})", i, j);
            }
        }
    }
}

/// Fixed representatives of each container shape in chunk 0 — checked by
/// `container_counts`, so a change to the selection heuristic that
/// breaks the premise fails loudly here.
fn shape_representatives() -> Vec<(&'static str, Vec<u32>)> {
    // array: 1000 scattered rows (card <= 4096, runs too many to win).
    let array: Vec<u32> = (0..1000u32).map(|i| i * 61 % (1 << 16)).collect();
    let array: Vec<u32> = {
        let set: std::collections::BTreeSet<u32> = array.into_iter().collect();
        set.into_iter().collect()
    };
    // bitmap: every other row of the chunk (card 32768, 32768 runs).
    let bitmap: Vec<u32> = (0..1u32 << 16).step_by(2).collect();
    // runs: three long intervals (card 15000, 3 runs).
    let runs: Vec<u32> = (100..5100u32)
        .chain(20_000..25_000)
        .chain(40_000..45_000)
        .collect();
    vec![("array", array), ("bitmap", bitmap), ("runs", runs)]
}

#[test]
fn every_container_type_pairing_matches_merge() {
    let shapes = shape_representatives();
    for (name, rows) in &shapes {
        let col = HybridColumn::from_rows(1 << 16, rows);
        let (arrays, bitmaps, run_chunks) = col.container_counts();
        let got = match (arrays, bitmaps, run_chunks) {
            (1, 0, 0) => "array",
            (0, 1, 0) => "bitmap",
            (0, 0, 1) => "runs",
            other => panic!("expected exactly one container, got {other:?}"),
        };
        assert_eq!(&got, name, "representative no longer builds a {name}");
    }
    for (na, a) in &shapes {
        for (nb, b) in &shapes {
            let ca = HybridColumn::from_rows(1 << 16, a);
            let cb = HybridColumn::from_rows(1 << 16, b);
            let expected = intersection_size(a, b);
            assert_eq!(
                ca.intersection_size(&cb),
                expected,
                "{na} ∩ {nb} diverged from the merge kernel"
            );
        }
    }
}

/// The dispatched AND-popcount agrees with the scalar arm on a
/// deterministic workload, whatever arm the host CPU has.
#[test]
fn dispatched_kernels_agree_with_forced_scalar_arm() {
    let a: Vec<u64> = (0..777u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = (0..777u64)
        .map(|i| (i + 3).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .collect();
    let expected = kernel::and_popcount_scalar(&a, &b);
    assert_eq!(kernel::and_popcount(&a, &b), expected);
    // On hosts with a SIMD arm the explicit SIMD entry point must agree
    // too; on scalar-only hosts it returns None and the dispatcher above
    // already proved the fallback.
    if kernel::simd_arm().is_some() {
        assert_eq!(kernel::and_popcount_simd(&a, &b), Some(expected));
    }
}

/// Fixed K-MH-shaped sketch pairs on both sides of `GALLOP_SKEW_CUTOFF`
/// (16): balanced lengths take the merge, skews of 16 and more the
/// galloping search.
#[test]
fn sorted_u64_adaptive_matches_merge_on_fixed_sketches() {
    let sa: Vec<u64> = (0..2_000u64).map(|i| i * 7).collect();
    let sb: Vec<u64> = (0..2_000u64).map(|i| i * 3 + 1).collect();
    for (a, b) in [
        (&sa[..], &sb[..]),    // skew 1
        (&sa[..126], &sb[..]), // skew 15
        (&sa[..125], &sb[..]), // skew 16, the cutoff
        (&sa[..40], &sb[..]),  // skew 50
        (&sa[..0], &sb[..]),   // an empty sketch
        (&sa[..], &sa[..]),    // identical sketches
    ] {
        let expected = intersection_size(a, b);
        assert_eq!(intersection_size_adaptive(a, b), expected);
        assert_eq!(intersection_size_adaptive(b, a), expected);
    }
    assert_eq!(intersection_size_adaptive(&sa, &sa), sa.len());
}
