//! M-LSH: banding over the min-hash signature matrix (§4.1).
//!
//! "Each column, represented by the r Min-Hash values in the current
//! submatrix, is hashed into a table using as a hashing key the
//! concatenation of all r values. … To amplify the probability that
//! similar columns will hash to the same bucket, we repeat the process
//! l times."

use sfa_hash::bucket::{pack_pair, FastHashSet, PairCounter};
use sfa_hash::mix::{fmix64, splitmix64};
use sfa_hash::{BucketIndex, PairWalker, SeedSequence};
use sfa_minhash::{
    CandidateGen, CandidateGenStats, CandidatePair, PairRule, SignatureMatrix, EMPTY_SIGNATURE,
};
use sfa_par::ThreadPool;

/// How each iteration picks its `r` signature rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandSelection {
    /// Disjoint contiguous bands — requires `k ≥ r·l`; realizes the
    /// `P_{r,l}` filter exactly.
    Contiguous,
    /// Each iteration draws `r` pool indices uniformly *with replacement*
    /// from the `k` available — the `Q_{r,l,k}` approximation that lets
    /// `k < r·l` ("some of the k Min-Hash values can participate to more
    /// than one hashing keys"). With-replacement sampling is what makes the
    /// per-key match probability exactly `(d/k)^r`, so measured collision
    /// rates track `Q_{r,l,k}` (validated statistically in
    /// `tests/filter_validation.rs`).
    Sampled,
}

/// M-LSH parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MLshParams {
    /// Rows per band.
    pub r: usize,
    /// Number of bands / iterations.
    pub l: usize,
    /// Band selection mode.
    pub selection: BandSelection,
    /// Seed for sampled selection and key hashing.
    pub seed: u64,
}

impl MLshParams {
    /// Contiguous banding (requires `k ≥ r·l` at run time).
    #[must_use]
    pub const fn banded(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            selection: BandSelection::Contiguous,
            seed,
        }
    }

    /// Sampled banding over whatever `k` the signature matrix has.
    #[must_use]
    pub const fn sampled(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            selection: BandSelection::Sampled,
            seed,
        }
    }
}

/// Pushes one M-LSH iteration's `(key, column)` entries: every column
/// hashed by its `r`-value key over `rows`. Columns whose key touches an
/// [`EMPTY_SIGNATURE`] are skipped (an all-zero column must never collide).
fn band_entries(sigs: &SignatureMatrix, rows: &[usize], key_seed: u64, out: &mut Vec<(u64, u32)>) {
    'col: for j in 0..sigs.m() as u32 {
        let mut key = splitmix64(key_seed);
        for &l in rows {
            let v = sigs.get(l, j);
            if v == EMPTY_SIGNATURE {
                continue 'col;
            }
            key = fmix64(key ^ v);
        }
        out.push((key, j));
    }
}

/// Selects the signature rows for iteration `t`.
fn rows_for_iteration(
    params: &MLshParams,
    k: usize,
    t: usize,
    seq: &mut SeedSequence,
) -> Vec<usize> {
    match params.selection {
        BandSelection::Contiguous => {
            assert!(
                k >= params.r * params.l,
                "contiguous banding needs k ≥ r·l ({k} < {} × {})",
                params.r,
                params.l
            );
            (t * params.r..(t + 1) * params.r).collect()
        }
        BandSelection::Sampled => {
            assert!(k >= 1, "sampled banding needs a non-empty pool");
            // r independent uniform draws (with replacement), matching the
            // Q_{r,l,k} analysis where a key matches with probability
            // (d/k)^r given d agreeing pool values.
            (0..params.r)
                .map(|_| (seq.next_seed() % k as u64) as usize)
                .collect()
        }
    }
}

/// The `(rows, key_seed)` plans of the first `n` iterations, replayed
/// from the seed stream so every caller sees the same bands.
fn band_plans(params: &MLshParams, k: usize, n: usize) -> Vec<(Vec<usize>, u64)> {
    let mut seq = SeedSequence::new(params.seed);
    (0..n)
        .map(|t| {
            let rows = rows_for_iteration(params, k, t, &mut seq);
            (rows, seq.next_seed())
        })
        .collect()
}

/// The bucket index of the given band plans: one table per band.
fn band_index(
    sigs: &SignatureMatrix,
    plans: &[(Vec<usize>, u64)],
    pool: &ThreadPool,
) -> BucketIndex {
    BucketIndex::build(sigs.m(), plans.len(), true, pool, || {
        |t: usize, out: &mut Vec<(u64, u32)>| band_entries(sigs, &plans[t].0, plans[t].1, out)
    })
}

/// The full M-LSH candidate generation: the union of same-bucket pairs over
/// all `l` iterations, deduplicated.
///
/// The returned candidates carry `estimate = collisions / l` (the fraction
/// of iterations in which the pair collided), a crude similarity signal
/// that downstream verification replaces with the exact value.
#[must_use]
pub fn mlsh_candidates(sigs: &SignatureMatrix, params: &MLshParams) -> Vec<CandidatePair> {
    mlsh_candidates_with_stats(sigs, params).0
}

/// Per-pair collision counts across the `l` iterations.
#[must_use]
pub fn mlsh_collision_counts(sigs: &SignatureMatrix, params: &MLshParams) -> PairCounter {
    band_index(
        sigs,
        &band_plans(params, sigs.k(), params.l),
        &ThreadPool::new(1),
    )
    .pair_counts()
}

/// M-LSH's phase 2 ready to walk: one bucket table per band (the band
/// plan is replayed sequentially from the seed stream, then the bands are
/// grouped over `pool`) and the collision rule.
#[must_use]
pub fn mlsh_generator(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    pool: &ThreadPool,
) -> CandidateGen<'static> {
    let plans = band_plans(params, sigs.k(), params.l);
    CandidateGen::new(
        band_index(sigs, &plans, pool),
        PairRule::Collision {
            runs: params.l as f64,
        },
    )
}

/// [`mlsh_candidates`] plus instrumentation: the `colliding-pairs` /
/// `emitted` counters and the aggregated bucket-occupancy histogram over
/// all `l` iterations.
#[must_use]
pub fn mlsh_candidates_with_stats(
    sigs: &SignatureMatrix,
    params: &MLshParams,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    mlsh_candidates_with_stats_pool(sigs, params, &ThreadPool::new(1))
}

/// Pool-based [`mlsh_candidates_with_stats`]: identical candidates, stage
/// counters, and occupancy histogram, with the bands grouped and the
/// focus columns counted over the pool.
#[must_use]
pub fn mlsh_candidates_with_stats_pool(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    mlsh_generator(sigs, params, pool).generate(pool)
}

/// One iteration's newly discovered pairs, for the online mode: returns
/// pairs found at iteration `t` that are not already in `seen` (and adds
/// them).
#[must_use]
pub fn mlsh_iteration_pairs(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    t: usize,
    seen: &mut FastHashSet<u64>,
) -> Vec<CandidatePair> {
    // Replay the seed stream to iteration t so online and batch agree.
    let plans = band_plans(params, sigs.k(), t + 1);
    let index = band_index(sigs, &plans[t..], &ThreadPool::new(1));
    let mut walker = PairWalker::new(&index);
    let mut out = Vec::new();
    for i in 0..sigs.m() as u32 {
        walker.column(i, |j, _| {
            if seen.insert(pack_pair(i, j)) {
                out.push(CandidatePair::new(i, j, 1.0));
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::compute_signatures;

    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        // Columns 0, 1 identical on 20 rows; columns 2, 3 share 2 of 20.
        for _ in 0..20 {
            rows.push(vec![0, 1]);
        }
        rows.push(vec![2, 3]);
        rows.push(vec![2, 3]);
        for _ in 0..9 {
            rows.push(vec![2]);
            rows.push(vec![3]);
        }
        rows.push(vec![4]); // lone column
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    fn sigs(k: usize, seed: u64) -> SignatureMatrix {
        let m = matrix();
        compute_signatures(&mut MemoryRowStream::new(&m), k, seed).unwrap()
    }

    #[test]
    fn identical_columns_always_collide() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let cands = mlsh_candidates(&s, &params);
        let found = cands.iter().find(|c| c.ids() == (0, 1)).expect("pair 0-1");
        assert!(
            (found.estimate - 1.0).abs() < 1e-12,
            "identical columns collide in every band"
        );
    }

    #[test]
    fn dissimilar_columns_rarely_collide() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let cands = mlsh_candidates(&s, &params);
        // S(2,3) = 2/20 = 0.1; P_{5,8}(0.1) ≈ 8e-5.
        assert!(
            !cands.iter().any(|c| c.ids() == (2, 3)),
            "low-similarity pair should not collide: {cands:?}"
        );
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    #[should_panic(expected = "contiguous banding needs")]
    fn banded_requires_enough_rows() {
        let s = sigs(10, 3);
        let _ = mlsh_candidates(&s, &MLshParams::banded(5, 8, 1));
    }

    #[test]
    fn sampled_mode_runs_with_small_k() {
        let s = sigs(12, 3);
        let params = MLshParams::sampled(5, 20, 7);
        let cands = mlsh_candidates(&s, &params);
        assert!(cands.iter().any(|c| c.ids() == (0, 1)));
    }

    #[test]
    fn collision_counts_bounded_by_l() {
        let s = sigs(40, 5);
        let params = MLshParams::banded(4, 10, 2);
        let counts = mlsh_collision_counts(&s, &params);
        for (_, _, c) in counts.iter() {
            assert!(c <= 10);
        }
    }

    #[test]
    fn empty_columns_never_collide() {
        let m = RowMajorMatrix::from_rows(4, vec![vec![0], vec![0]]).unwrap();
        let s = compute_signatures(&mut MemoryRowStream::new(&m), 20, 1).unwrap();
        // Columns 1, 2, 3 are all-zero.
        let cands = mlsh_candidates(&s, &MLshParams::banded(4, 5, 2));
        assert!(
            cands.iter().all(|c| c.i == 0 || c.j == 0),
            "empty columns collided: {cands:?}"
        );
        assert!(!cands.iter().any(|c| c.ids() == (1, 2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let s = sigs(40, 9);
        let p = MLshParams::sampled(5, 6, 42);
        assert_eq!(mlsh_candidates(&s, &p), mlsh_candidates(&s, &p));
        let p2 = MLshParams::sampled(5, 6, 43);
        // Different seed may differ (not guaranteed, but counts will).
        let _ = mlsh_candidates(&s, &p2);
    }

    #[test]
    fn stats_variant_matches_plain_generator() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let (cands, stats) = mlsh_candidates_with_stats(&s, &params);
        assert_eq!(cands, mlsh_candidates(&s, &params));
        assert_eq!(stats.stage("emitted"), Some(cands.len() as u64));
        // Every non-empty column lands in some bucket each iteration, so
        // total occupancy is l × (non-empty columns) = 8 × 5.
        let occupancy: u64 = stats
            .bucket_histogram
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        assert_eq!(occupancy, 40);
    }

    #[test]
    fn online_iterations_union_matches_batch() {
        let s = sigs(40, 9);
        let params = MLshParams::banded(5, 8, 21);
        let batch: Vec<(u32, u32)> = mlsh_candidates(&s, &params)
            .iter()
            .map(CandidatePair::ids)
            .collect();
        let mut seen = FastHashSet::default();
        let mut online = Vec::new();
        for t in 0..params.l {
            online.extend(
                mlsh_iteration_pairs(&s, &params, t, &mut seen)
                    .iter()
                    .map(CandidatePair::ids),
            );
        }
        online.sort_unstable();
        let mut batch_sorted = batch;
        batch_sorted.sort_unstable();
        assert_eq!(online, batch_sorted);
    }

    #[test]
    fn pool_variant_matches_sequential_at_every_thread_count() {
        let s = sigs(40, 9);
        for params in [MLshParams::banded(5, 8, 21), MLshParams::sampled(5, 20, 7)] {
            let seq = mlsh_candidates_with_stats(&s, &params);
            for threads in [1, 2, 4, 7] {
                let pool = sfa_par::ThreadPool::new(threads);
                let par = mlsh_candidates_with_stats_pool(&s, &params, &pool);
                assert_eq!(par.0, seq.0, "candidates, threads = {threads}");
                assert_eq!(par.1.stages, seq.1.stages, "stages, threads = {threads}");
                assert_eq!(
                    par.1.bucket_histogram, seq.1.bucket_histogram,
                    "histogram, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn collision_rate_tracks_p_filter() {
        // Statistical: with r = 2, l = 1 the collision probability of the
        // pair (2,3) with S = 0.1 is about 0.1² = 0.01. Run many seeds.
        let m = matrix();
        let trials = 400;
        let mut collisions = 0;
        for seed in 0..trials {
            let s = compute_signatures(&mut MemoryRowStream::new(&m), 2, seed).unwrap();
            let params = MLshParams::banded(2, 1, seed ^ 0xabc);
            let counts = mlsh_collision_counts(&s, &params);
            if counts.get(2, 3) > 0 {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = crate::filter::p_filter(0.1, 2, 1);
        assert!(
            (rate - expected).abs() < 0.025,
            "rate {rate} vs expected {expected}"
        );
    }
}
