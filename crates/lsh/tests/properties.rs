//! Property-based tests for the LSH schemes.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sfa_lsh::filter::{min_l_for_recall, p_half_threshold};
use sfa_lsh::hamming::{hamming_from_similarity, similarity_from_hamming};
use sfa_lsh::{
    mlsh_candidates_with_stats_pool, optimize_params, p_filter, q_filter, MLshParams,
    SimilarityDistribution,
};
use sfa_minhash::{CandidatePair, SignatureMatrix, EMPTY_SIGNATURE};
use sfa_par::ThreadPool;

/// A random signature matrix with `r·l` rows over a three-value alphabet,
/// so band keys repeat; a fourth draw becomes [`EMPTY_SIGNATURE`], and the
/// last column is empty throughout.
fn banded_matrix() -> impl Strategy<Value = (SignatureMatrix, usize, usize)> {
    (1usize..4, 1usize..5, 2usize..10).prop_flat_map(|(r, l, m)| {
        prop::collection::vec(0u64..4, r * l * m).prop_map(move |draws| {
            let values = draws
                .iter()
                .enumerate()
                .map(|(idx, &v)| {
                    if idx % m == m - 1 || v == 3 {
                        EMPTY_SIGNATURE
                    } else {
                        v
                    }
                })
                .collect();
            (SignatureMatrix::from_values(r * l, m, values), r, l)
        })
    })
}

proptest! {
    #[test]
    fn mlsh_kernel_matches_brute_force_band_keys(
        (sigs, r, l) in banded_matrix(),
        seed in any::<u64>(),
    ) {
        let m = sigs.m() as u32;
        // A column's band key is its `r` values in that band; a key with an
        // empty entry never buckets.
        let band_key = |t: usize, j: u32| -> Option<Vec<u64>> {
            (t * r..(t + 1) * r)
                .map(|row| Some(sigs.get(row, j)).filter(|&v| v != EMPTY_SIGNATURE))
                .collect()
        };
        let mut buckets = Vec::new();
        for t in 0..l {
            let mut sizes: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
            for j in 0..m {
                if let Some(key) = band_key(t, j) {
                    *sizes.entry(key).or_default() += 1;
                }
            }
            for &size in sizes.values() {
                if buckets.len() <= size {
                    buckets.resize(size + 1, 0u64);
                }
                buckets[size] += 1;
            }
        }
        let mut expected = Vec::new();
        for i in 0..m {
            for j in (i + 1)..m {
                let collisions = (0..l)
                    .filter(|&t| band_key(t, i).is_some() && band_key(t, i) == band_key(t, j))
                    .count();
                if collisions > 0 {
                    expected.push(CandidatePair::new(i, j, collisions as f64 / l as f64));
                }
            }
        }
        let n = expected.len() as u64;
        let params = MLshParams::banded(r, l, seed);
        for threads in [1, 2, 4] {
            let (cands, stats) =
                mlsh_candidates_with_stats_pool(&sigs, &params, &ThreadPool::new(threads));
            prop_assert_eq!(&cands, &expected);
            prop_assert_eq!(&stats.stages, &vec![("colliding-pairs", n), ("emitted", n)]);
            prop_assert_eq!(&stats.bucket_histogram, &buckets);
        }
    }

    #[test]
    fn p_filter_sharpens_with_l(s in 0.001f64..0.999, r in 1usize..10, l in 1usize..20) {
        // More repetitions can only increase collision probability.
        prop_assert!(p_filter(s, r, l + 1) >= p_filter(s, r, l) - 1e-12);
        // More rows per band can only decrease it.
        prop_assert!(p_filter(s, r + 1, l) <= p_filter(s, r, l) + 1e-12);
    }

    #[test]
    fn q_filter_between_zero_and_p_at_l_equal_cases(
        s in 0.001f64..0.999,
        r in 1usize..8,
        l in 1usize..10,
        k in 8usize..64,
    ) {
        let k = k.max(r);
        let q = q_filter(s, r, l, k);
        prop_assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn half_threshold_inverts_p(r in 1usize..20, l in 1usize..50) {
        let s = p_half_threshold(r, l);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((p_filter(s, r, l) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn min_l_is_minimal_and_sufficient(
        s in 0.1f64..0.95,
        r in 1usize..8,
        target in 0.5f64..0.99,
    ) {
        if let Some(l) = min_l_for_recall(s, r, target, 1 << 20) {
            prop_assert!(p_filter(s, r, l) >= target - 1e-12);
            if l > 1 {
                prop_assert!(p_filter(s, r, l - 1) < target);
            }
        }
    }

    #[test]
    fn hamming_similarity_inverses(ci in 0usize..50, cj in 0usize..50, dh_frac in 0.0f64..=1.0) {
        // d_H ranges over |ci − cj| … ci + cj with the same parity; use a
        // valid synthetic value and check the inverse maps back.
        prop_assume!(ci + cj > 0);
        let lo = ci.abs_diff(cj);
        let dh = lo + ((dh_frac * ((ci + cj - lo) as f64)) as usize);
        let s = similarity_from_hamming(ci, cj, dh);
        prop_assert!((0.0..=1.0).contains(&s));
        let back = hamming_from_similarity(ci, cj, s);
        prop_assert!((back - dh as f64).abs() < 1e-6);
    }

    #[test]
    fn optimizer_output_is_feasible(
        head in 1000u64..1_000_000,
        tail in 1u64..200,
        s_star_pct in 5usize..9,
        fn_budget in 1u64..50,
    ) {
        // Synthetic two-regime distribution in 10 bins.
        let mut counts = vec![0u64; 10];
        counts[0] = head;
        counts[1] = head / 10;
        counts[8] = tail;
        counts[9] = tail;
        let distr = SimilarityDistribution::from_histogram(counts);
        let s_star = s_star_pct as f64 / 10.0;
        let max_fn = fn_budget as f64;
        let max_fp = head as f64; // generous FP budget
        if let Some(p) = optimize_params(&distr, s_star, max_fn, max_fp, 20, 1 << 12) {
            prop_assert!(distr.expected_false_negatives(s_star, p.r, p.l) <= max_fn + 1e-9);
            prop_assert!(distr.expected_false_positives(s_star, p.r, p.l) <= max_fp + 1e-9);
            prop_assert!(p.r >= 1 && p.l >= 1);
        }
    }

    #[test]
    fn expected_fn_fp_partition_total_mass(
        counts in prop::collection::vec(0u64..1000, 10),
        r in 1usize..8,
        l in 1usize..16,
    ) {
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let distr = SimilarityDistribution::from_histogram(counts.clone());
        let s_star = 0.5;
        // FN + (found above) = mass above; FP ≤ mass below.
        let above: u64 = (5..10).map(|b| distr.count(b)).sum();
        let below: u64 = (0..5).map(|b| distr.count(b)).sum();
        let fn_exp = distr.expected_false_negatives(s_star, r, l);
        let fp_exp = distr.expected_false_positives(s_star, r, l);
        prop_assert!(fn_exp >= -1e-9 && fn_exp <= above as f64 + 1e-9);
        prop_assert!(fp_exp >= -1e-9 && fp_exp <= below as f64 + 1e-9);
    }
}
