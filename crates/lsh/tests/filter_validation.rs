//! Statistical validation: the analytic filter functions predict the
//! *measured* collision rates of the M-LSH implementation.

use sfa_lsh::mlsh::{mlsh_candidates, MLshParams};
use sfa_lsh::{p_filter, q_filter};
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::compute_signatures;

/// Builds a two-column matrix with exact similarity `shared / total`.
fn pair_matrix(shared: u32, only_each: u32) -> RowMajorMatrix {
    let mut rows = Vec::new();
    for _ in 0..shared {
        rows.push(vec![0, 1]);
    }
    for _ in 0..only_each {
        rows.push(vec![0]);
        rows.push(vec![1]);
    }
    RowMajorMatrix::from_rows(2, rows).unwrap()
}

fn empirical_collision_rate(
    m: &RowMajorMatrix,
    k: usize,
    params_for: impl Fn(u64) -> MLshParams,
    trials: u64,
) -> f64 {
    let mut collisions = 0;
    for seed in 0..trials {
        let sigs = compute_signatures(&mut MemoryRowStream::new(m), k, seed * 7 + 1).unwrap();
        let candidates = mlsh_candidates(&sigs, &params_for(seed));
        if candidates.iter().any(|c| c.ids() == (0, 1)) {
            collisions += 1;
        }
    }
    collisions as f64 / trials as f64
}

#[test]
fn banded_collision_rate_matches_p_filter() {
    // S = 10/30 = 1/3; P_{3,4}(1/3) ≈ 1 − (1 − 1/27)^4 ≈ 0.140.
    let m = pair_matrix(10, 10);
    let (r, l) = (3, 4);
    let expected = p_filter(1.0 / 3.0, r, l);
    let rate = empirical_collision_rate(&m, r * l, |s| MLshParams::banded(r, l, s ^ 0xf00), 600);
    assert!(
        (rate - expected).abs() < 0.05,
        "measured {rate}, P predicts {expected}"
    );
}

#[test]
fn sampled_collision_rate_matches_q_filter() {
    // Same pair; sampled mode with k = 12 < r·l = 20.
    let m = pair_matrix(10, 10);
    let (r, l, k) = (3, 6, 12);
    let expected = q_filter(1.0 / 3.0, r, l, k);
    let rate = empirical_collision_rate(&m, k, |s| MLshParams::sampled(r, l, s ^ 0xabc), 600);
    assert!(
        (rate - expected).abs() < 0.06,
        "measured {rate}, Q predicts {expected}"
    );
}

#[test]
fn high_similarity_pairs_almost_always_collide() {
    // S = 0.9; P_{4,8}(0.9) ≈ 0.9997.
    let m = pair_matrix(90, 5);
    let rate = empirical_collision_rate(&m, 32, |s| MLshParams::banded(4, 8, s), 200);
    assert!(rate > 0.97, "measured {rate}");
}

#[test]
fn low_similarity_pairs_rarely_collide() {
    // S = 1/21 ≈ 0.048; P_{4,8}(0.048) ≈ 4e-5.
    let m = pair_matrix(1, 10);
    let rate = empirical_collision_rate(&m, 32, |s| MLshParams::banded(4, 8, s), 300);
    assert!(rate < 0.02, "measured {rate}");
}
