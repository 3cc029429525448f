//! Property-based tests for signatures, estimators and candidate
//! generation.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::estimate::{kmh_biased, kmh_overlap_threshold, kmh_unbiased, lemma1_bounds};
use sfa_minhash::hashcount::{
    kmh_candidates_with_stats_pool, kmh_overlap_counts, mh_agreement_counts,
    mh_candidates_with_stats_pool,
};
use sfa_minhash::rowsort::{rowsort_agreement_counts, rowsort_candidates_with_stats_pool};
use sfa_minhash::theory::agreement_threshold;
use sfa_minhash::{
    compute_bottom_k, compute_signatures, BottomKSignatures, CandidatePair, KmhBuilder, MhBuilder,
    SignatureMatrix, EMPTY_SIGNATURE,
};
use sfa_par::ThreadPool;

fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..bound, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

fn small_matrix() -> impl Strategy<Value = RowMajorMatrix> {
    (1u32..14, 2u32..8).prop_flat_map(|(n_rows, n_cols)| {
        prop::collection::vec(row_set(n_cols, n_cols as usize), n_rows as usize)
            .prop_map(move |rows| RowMajorMatrix::from_rows(n_cols, rows).unwrap())
    })
}

/// A random `k × m` signature matrix over a four-value alphabet, so
/// values repeat within rows; a fifth draw becomes [`EMPTY_SIGNATURE`],
/// and the last column is empty throughout.
fn signature_matrix() -> impl Strategy<Value = SignatureMatrix> {
    (1usize..7, 2usize..10).prop_flat_map(|(k, m)| {
        prop::collection::vec(0u64..5, k * m).prop_map(move |draws| {
            let values = draws
                .iter()
                .enumerate()
                .map(|(idx, &v)| {
                    if idx % m == m - 1 || v == 4 {
                        EMPTY_SIGNATURE
                    } else {
                        v
                    }
                })
                .collect();
            SignatureMatrix::from_values(k, m, values)
        })
    })
}

/// Random bottom-`k` sketches over an eight-value alphabet (so columns
/// share values), with exact counts consistent with each sketch's length;
/// the last column is empty.
fn sketches() -> impl Strategy<Value = BottomKSignatures> {
    (1usize..6, 2usize..10).prop_flat_map(|(k, m)| {
        (
            prop::collection::vec(prop::collection::btree_set(0u64..8, 0..=k), m),
            prop::collection::vec(0u32..3, m),
        )
            .prop_map(move |(sets, extra)| {
                let mut sigs: Vec<Vec<u64>> =
                    sets.into_iter().map(|s| s.into_iter().collect()).collect();
                sigs[m - 1].clear();
                let counts = sigs
                    .iter()
                    .zip(&extra)
                    .map(|(s, &e)| s.len() as u32 + if s.len() == k { e } else { 0 })
                    .collect();
                BottomKSignatures::from_parts(k, sigs, counts)
            })
    })
}

/// Adds one bucket of `size` columns to an occupancy histogram.
fn bump(hist: &mut Vec<u64>, size: usize) {
    if hist.len() <= size {
        hist.resize(size + 1, 0);
    }
    hist[size] += 1;
}

proptest! {
    #[test]
    fn mh_and_rowsort_kernels_match_brute_force(
        sigs in signature_matrix(),
        s_star in 0.05f64..1.0,
    ) {
        let (k, m, delta) = (sigs.k(), sigs.m() as u32, 0.2);
        let threshold = agreement_threshold(k, s_star, delta) as u32;
        let (mut expected, mut increments, mut agreeing) = (Vec::new(), 0u64, 0u64);
        for i in 0..m {
            for j in (i + 1)..m {
                let count = sigs.agreement_count(i, j) as u32;
                increments += u64::from(count);
                agreeing += u64::from(count > 0);
                if count >= threshold {
                    expected.push(CandidatePair::new(i, j, f64::from(count) / k as f64));
                }
            }
        }
        let (mut buckets, mut runs) = (Vec::new(), Vec::new());
        for l in 0..k {
            let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
            for j in 0..m {
                let v = sigs.get(l, j);
                if v != EMPTY_SIGNATURE {
                    *sizes.entry(v).or_default() += 1;
                }
            }
            for &size in sizes.values() {
                bump(&mut buckets, size);
                if size >= 2 {
                    bump(&mut runs, size);
                }
            }
        }
        let stages = vec![
            ("counter-increments", increments),
            ("pairs-agreeing", agreeing),
            ("threshold-admitted", expected.len() as u64),
        ];
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let (cands, stats) = mh_candidates_with_stats_pool(&sigs, s_star, delta, &pool);
            prop_assert_eq!(&cands, &expected);
            prop_assert_eq!(&stats.stages, &stages);
            prop_assert_eq!(&stats.bucket_histogram, &buckets);
            let (cands, stats) = rowsort_candidates_with_stats_pool(&sigs, s_star, delta, &pool);
            prop_assert_eq!(&cands, &expected);
            prop_assert_eq!(&stats.stages, &stages);
            prop_assert_eq!(&stats.bucket_histogram, &runs);
        }
    }

    #[test]
    fn kmh_kernel_matches_brute_force(sigs in sketches(), s_star in 0.05f64..1.0) {
        let (k, m, delta) = (sigs.k(), sigs.m() as u32, 0.2);
        let (mut expected, mut increments, mut overlapping, mut screened) =
            (Vec::new(), 0u64, 0u64, 0u64);
        for i in 0..m {
            for j in (i + 1)..m {
                let overlap = sigs.intersection_size(i, j);
                increments += overlap as u64;
                if overlap == 0 {
                    continue;
                }
                overlapping += 1;
                let threshold = kmh_overlap_threshold(
                    s_star,
                    delta,
                    k,
                    sigs.column_count(i) as usize,
                    sigs.column_count(j) as usize,
                );
                if overlap < threshold {
                    continue;
                }
                screened += 1;
                let unbiased = sigs.unbiased_similarity(i, j);
                if unbiased >= (1.0 - delta) * s_star {
                    expected.push(CandidatePair::new(i, j, unbiased));
                }
            }
        }
        let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for j in 0..m {
            for &v in sigs.signature(j) {
                *sizes.entry(v).or_default() += 1;
            }
        }
        let mut buckets = Vec::new();
        for &size in sizes.values() {
            bump(&mut buckets, size);
        }
        let stages = vec![
            ("counter-increments", increments),
            ("pairs-overlapping", overlapping),
            ("overlap-admitted", screened),
            ("rescore-admitted", expected.len() as u64),
        ];
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let (cands, stats) = kmh_candidates_with_stats_pool(&sigs, s_star, delta, &pool);
            prop_assert_eq!(&cands, &expected);
            prop_assert_eq!(&stats.stages, &stages);
            prop_assert_eq!(&stats.bucket_histogram, &buckets);
        }
    }

    #[test]
    fn s_hat_is_a_bounded_symmetric_score(m in small_matrix(), seed in any::<u64>()) {
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 12, seed).unwrap();
        for i in 0..m.n_cols() {
            for j in 0..m.n_cols() {
                let s = sigs.s_hat(i, j);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert_eq!(s, sigs.s_hat(j, i));
            }
        }
    }

    #[test]
    fn identical_columns_have_s_hat_one(rows in row_set(12, 8), seed in any::<u64>()) {
        prop_assume!(!rows.is_empty());
        // Build a matrix where columns 0 and 1 have identical content.
        let matrix_rows: Vec<Vec<u32>> = (0..12u32)
            .map(|r| if rows.contains(&r) { vec![0, 1] } else { vec![] })
            .collect();
        let m = RowMajorMatrix::from_rows(2, matrix_rows).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 10, seed).unwrap();
        prop_assert_eq!(sigs.s_hat(0, 1), 1.0);
        let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 6, seed).unwrap();
        prop_assert_eq!(ksigs.unbiased_similarity(0, 1), 1.0);
    }

    #[test]
    fn all_candidate_generators_agree_on_counts(m in small_matrix(), seed in any::<u64>()) {
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 16, seed).unwrap();
        let by_hash = mh_agreement_counts(&sigs);
        let by_sort = rowsort_agreement_counts(&sigs);
        for i in 0..m.n_cols() {
            for j in (i + 1)..m.n_cols() {
                prop_assert_eq!(by_hash.get(i, j), by_sort.get(i, j), "pair ({}, {})", i, j);
                prop_assert_eq!(
                    by_hash.get(i, j) as usize,
                    sigs.agreement_count(i, j),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn kmh_overlap_counts_match_intersection(m in small_matrix(), seed in any::<u64>()) {
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 5, seed).unwrap();
        let counts = kmh_overlap_counts(&sigs);
        for i in 0..m.n_cols() {
            for j in (i + 1)..m.n_cols() {
                prop_assert_eq!(counts.get(i, j) as usize, sigs.intersection_size(i, j));
            }
        }
    }

    #[test]
    fn estimators_are_bounded(
        overlap in 0usize..20,
        k in 1usize..20,
        ci in 0usize..100,
        cj in 0usize..100,
    ) {
        let s = kmh_biased(overlap, k, ci, cj);
        prop_assert!((0.0..=1.0).contains(&s));
        let (lo, hi) = lemma1_bounds(overlap as f64, k, ci + cj);
        prop_assert!(lo <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn unbiased_estimator_bounded_and_exact_when_small(
        a in prop::collection::btree_set(any::<u64>(), 0..10),
        b in prop::collection::btree_set(any::<u64>(), 0..10),
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let est = kmh_unbiased(&a, &b, 64);
        prop_assert!((0.0..=1.0).contains(&est));
        // k ≥ |a ∪ b| makes the sketch exhaustive: exact Jaccard of values.
        let inter = a.iter().filter(|v| b.contains(v)).count();
        let union = a.len() + b.len() - inter;
        let exact = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
        prop_assert!((est - exact).abs() < 1e-12);
    }

    #[test]
    fn agreement_threshold_monotonicity(
        k in 1usize..500,
        s1 in 0.01f64..1.0,
        s2 in 0.01f64..1.0,
        delta in 0.0f64..0.9,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(agreement_threshold(k, lo, delta) <= agreement_threshold(k, hi, delta));
        prop_assert!(agreement_threshold(k, hi, delta) >= 1);
    }

    #[test]
    fn builders_are_split_invariant(m in small_matrix(), seed in any::<u64>(), split in 0u32..14) {
        // Pushing rows in two builders and merging equals one builder.
        let split = split.min(m.n_rows());
        let mcols = m.n_cols() as usize;
        let mut whole_mh = MhBuilder::new(6, mcols, seed);
        let mut left_mh = MhBuilder::new(6, mcols, seed);
        let mut right_mh = MhBuilder::new(6, mcols, seed);
        let mut whole_kmh = KmhBuilder::new(4, mcols, seed);
        let mut left_kmh = KmhBuilder::new(4, mcols, seed);
        let mut right_kmh = KmhBuilder::new(4, mcols, seed);
        for (id, cols) in m.rows() {
            whole_mh.push_row(id, cols);
            whole_kmh.push_row(id, cols);
            if id < split {
                left_mh.push_row(id, cols);
                left_kmh.push_row(id, cols);
            } else {
                right_mh.push_row(id, cols);
                right_kmh.push_row(id, cols);
            }
        }
        left_mh.merge(&right_mh);
        left_kmh.merge(&right_kmh);
        prop_assert_eq!(left_mh.finish(), whole_mh.finish());
        prop_assert_eq!(left_kmh.finish(), whole_kmh.finish());
    }

    #[test]
    fn persisted_sketches_roundtrip(m in small_matrix(), seed in any::<u64>(), tag in 0u64..1_000_000) {
        let dir = std::env::temp_dir().join("sfa_minhash_prop_io");
        std::fs::create_dir_all(&dir).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 4, seed).unwrap();
        let p = dir.join(format!("s{tag}.sfmh"));
        sfa_minhash::persist::write_signatures(&sigs, &p).unwrap();
        prop_assert_eq!(sfa_minhash::persist::read_signatures(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();

        let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, seed).unwrap();
        let p = dir.join(format!("s{tag}.sfkm"));
        sfa_minhash::persist::write_bottom_k(&ksigs, &p).unwrap();
        prop_assert_eq!(sfa_minhash::persist::read_bottom_k(&p).unwrap(), ksigs);
        std::fs::remove_file(&p).ok();
    }
}
