//! H-LSH: Hamming LSH over a density-doubling ladder (§4.2).
//!
//! Direct row-sampling LSH fails on sparse data ("if the matrix is sparse,
//! most of the subsets just contain zeros"), so H-LSH works on a *sequence*
//! of matrices `M_0, M_1, M_2, …` where `M_{i+1}` ORs random row pairs of
//! `M_i` — halving rows and roughly doubling column densities. At each
//! level, only columns whose density lies in `(1/t, (t−1)/t)` participate
//! (the paper uses `t = 4`), and each of `l` runs samples `r` rows and
//! buckets columns by their `r`-bit patterns. A pair is a candidate if it
//! shares a bucket in any run at any level.
//!
//! No folded level is built. The base rows are numbered by the pairing
//! tree — the two rows of each fold's pair side by side, an odd level's
//! unpaired row beside an empty phantom sibling — so every level-`L` row
//! is the OR of the base rows in one aligned block of `2^L` leaf
//! positions. One pass over the rows in that order counts every level's
//! columns, and a run reads only its sampled rows' blocks.

use std::ops::Range;

use sfa_hash::bucket::{pack_pair, FastHashSet};
use sfa_hash::{BucketIndex, PairWalker, SeedSequence};
use sfa_matrix::ops::random_row_pairing;
use sfa_matrix::RowMajorMatrix;
use sfa_minhash::{CandidateGen, CandidateGenStats, CandidatePair, PairRule};
use sfa_par::ThreadPool;

/// H-LSH parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HLshParams {
    /// Rows sampled per run (the pattern width; ≤ 64).
    pub r: usize,
    /// Runs per ladder level (the paper's `k` repetitions; we call it `l`
    /// to match the Fig. 7 axis).
    pub l: usize,
    /// Density gate: a column participates at a level only if its density
    /// there lies strictly inside `(1/t, (t−1)/t)`. The paper uses `t = 4`.
    pub t: u32,
    /// Maximum number of ladder levels (level 0 is the input matrix).
    pub max_levels: usize,
    /// Whether all-zero sampled patterns form a bucket. The paper leaves
    /// this open; `false` (default) avoids a flood of false positives from
    /// columns invisible in the sample. Kept as an ablation knob.
    pub include_zero_keys: bool,
    /// Root seed for ladder pairings and row sampling.
    pub seed: u64,
}

impl HLshParams {
    /// The paper's configuration shape: gate `t = 4`, zero keys off.
    #[must_use]
    pub const fn new(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            t: 4,
            max_levels: 24,
            include_zero_keys: false,
            seed,
        }
    }
}

/// Leaf-order entry of a phantom sibling: a row that holds nothing.
const PHANTOM: u32 = u32::MAX;

/// The leaf order of a ladder whose levels have `sizes` rows, paired as the
/// folds of `SeedSequence::new(seed)` pair them: the base row at each leaf
/// position, and per level each row's first position. Positions number
/// `sizes[top]·2^top < 3·sizes[0]`, so they are held as `usize`.
fn leaf_order(sizes: &[u32], seed: u64) -> (Vec<u32>, Vec<Vec<usize>>) {
    let Some(top) = sizes.len().checked_sub(1) else {
        return (Vec::new(), Vec::new());
    };
    let mut seq = SeedSequence::new(seed);
    let pairings: Vec<Vec<u32>> = sizes[..top]
        .iter()
        .map(|&n| random_row_pairing(n, seq.next_seed()))
        .collect();
    let mut starts = vec![Vec::new(); sizes.len()];
    starts[top] = (0..sizes[top] as usize).map(|t| t << top).collect();
    // Row `pairing[i]` of a level is half `i % 2` of folded row `i / 2`.
    for level in (0..top).rev() {
        let mut own = vec![0; sizes[level] as usize];
        for (i, &row) in pairings[level].iter().enumerate() {
            own[row as usize] = starts[level + 1][i / 2] + ((i % 2) << level);
        }
        starts[level] = own;
    }
    let width = (sizes[top] as usize).checked_mul(1 << top);
    let mut leaves = vec![PHANTOM; width.expect("leaf positions fit usize")];
    for (row, &p) in starts[0].iter().enumerate() {
        leaves[p] = row as u32;
    }
    (leaves, starts)
}

/// Every level's column counts from one pass over the rows in leaf order:
/// a column's level-`L` count is 1 + the number of its consecutive leaf
/// positions that first differ at bit `L` or above (its first position
/// differs from the `usize::MAX` start at every bit).
fn level_counts(base: &RowMajorMatrix, leaves: &[u32], levels: usize) -> Vec<Vec<u32>> {
    let top = levels.saturating_sub(1);
    let mut last = vec![usize::MAX; base.n_cols() as usize];
    let mut counts = vec![vec![0u32; last.len()]; levels];
    for (p, &row) in leaves.iter().enumerate().filter(|&(_, &r)| r != PHANTOM) {
        for &col in base.row(row) {
            let c = col as usize;
            let split = (usize::BITS - 1 - (last[c] ^ p).leading_zeros()) as usize;
            counts[split.min(top)][c] += 1;
            last[c] = p;
        }
    }
    for level in (0..top).rev() {
        let above = counts[level + 1].clone();
        for (c, a) in counts[level].iter_mut().zip(above) {
            *c += a;
        }
    }
    counts
}

/// H-LSH's phase 2 over the leaf order: every level read (at least `r`
/// rows, at most `max_levels`) with its gate and its runs' sampled blocks.
struct Ladder<'a> {
    base: &'a RowMajorMatrix,
    /// The base row at each leaf position, or `PHANTOM`.
    leaves: Vec<u32>,
    levels: Vec<Level>,
    include_zero_keys: bool,
}

/// One level's rows, gate and run samples.
struct Level {
    n_rows: u32,
    gated: Vec<bool>,
    /// Each run's sampled rows, as the first leaf positions of their blocks.
    runs: Vec<Vec<usize>>,
}

impl<'a> Ladder<'a> {
    /// Lays out the levels and draws their row samples. The pairing and
    /// sampling streams are drawn sequentially here, so the output never
    /// depends on how the runs are scheduled afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `params.r` is outside `1..=64` or `params.t < 3`.
    fn new(base: &'a RowMajorMatrix, params: &HLshParams) -> Self {
        assert!((1..=64).contains(&params.r), "pattern width must be 1..=64");
        assert!(params.t >= 3, "density gate needs t >= 3");
        // Folding stops at one row or `max_levels`; levels under `r` rows
        // are not read.
        let sizes: Vec<u32> =
            std::iter::successors(Some(base.n_rows()), |&n| (n >= 2).then(|| n.div_ceil(2)))
                .take(params.max_levels.max(1))
                .take_while(|&n| n as usize >= params.r)
                .collect();
        let (leaves, starts) = leaf_order(&sizes, params.seed);
        let counts = level_counts(base, &leaves, sizes.len());
        let mut seq = SeedSequence::new(params.seed ^ 0x5f5f_5f5f);
        let lo_gate = 1.0 / f64::from(params.t);
        let hi_gate = f64::from(params.t - 1) / f64::from(params.t);
        let levels = (sizes.iter().zip(counts).zip(&starts))
            .map(|((&n, counts), starts)| {
                // A column participates only inside the density gate.
                let gated: Vec<bool> = counts
                    .iter()
                    .map(|&c| {
                        let d = f64::from(c) / f64::from(n);
                        d > lo_gate && d < hi_gate
                    })
                    .collect();
                // A fully gated-out level draws no samples.
                let runs = (0..if gated.contains(&true) { params.l } else { 0 })
                    .map(|_| {
                        let rows = sample_distinct_rows(n, params.r, &mut seq);
                        rows.iter().map(|&t| starts[t as usize]).collect()
                    })
                    .collect();
                Level {
                    n_rows: n,
                    gated,
                    runs,
                }
            })
            .collect();
        Self {
            base,
            leaves,
            levels,
            include_zero_keys: params.include_zero_keys,
        }
    }

    /// Pushes one run's `(pattern, column)` entries: a gated column present
    /// in the block of sampled row `b` gets bit `b` (only columns present
    /// in a sampled row get bits); with `include_zero_keys`, the remaining
    /// gated columns share the all-zero pattern. `patterns` is an all-zero
    /// scratch of `m` words and is left all-zero.
    fn push_run(&self, level: usize, run: usize, patterns: &mut [u64], out: &mut Vec<(u64, u32)>) {
        let Level { gated, runs, .. } = &self.levels[level];
        for (bit, &start) in runs[run].iter().enumerate() {
            let block = &self.leaves[start..start + (1 << level)];
            for &row in block.iter().filter(|&&row| row != PHANTOM) {
                for &col in self.base.row(row) {
                    if gated[col as usize] {
                        let pattern = &mut patterns[col as usize];
                        if *pattern == 0 {
                            out.push((0, col));
                        }
                        *pattern |= 1u64 << bit;
                    }
                }
            }
        }
        if self.include_zero_keys {
            let silent = (0..gated.len()).filter(|&c| gated[c] && patterns[c] == 0);
            out.extend(silent.map(|c| (0, c as u32)));
        }
        for entry in out.iter_mut() {
            entry.0 = std::mem::take(&mut patterns[entry.1 as usize]);
        }
    }

    /// The bucket index over every run of `levels`, one table each.
    fn index(&self, levels: Range<usize>, pool: &ThreadPool) -> BucketIndex {
        let runs: &[(usize, usize)] = &levels
            .flat_map(|level| (0..self.levels[level].runs.len()).map(move |run| (level, run)))
            .collect::<Vec<_>>();
        let m = self.base.n_cols() as usize;
        BucketIndex::build(m, runs.len(), true, pool, || {
            let mut patterns = vec![0u64; m];
            move |t: usize, out: &mut Vec<(u64, u32)>| {
                let (level, run) = runs[t];
                self.push_run(level, run, &mut patterns, out);
            }
        })
    }
}

/// Samples `r` distinct row ids from `0..n` (partial Fisher–Yates).
fn sample_distinct_rows(n: u32, r: usize, seq: &mut SeedSequence) -> Vec<u32> {
    let r = r.min(n as usize);
    let mut pool: Vec<u32> = (0..n).collect();
    for i in 0..r {
        let j = i + (seq.next_seed() % (n as usize - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(r);
    pool
}

/// H-LSH candidate generation: pairs colliding at least once, with
/// `estimate = collisions / (levels·runs)` as a crude score.
#[must_use]
pub fn hlsh_candidates(base: &RowMajorMatrix, params: &HLshParams) -> Vec<CandidatePair> {
    hlsh_candidates_with_stats(base, params).0
}

/// H-LSH's phase 2 ready to walk: the leaf order, every level's column
/// counts and the seeded row samples are built sequentially, then every
/// (level, run) pattern table is grouped over `pool`; the collision rule
/// admits every colliding pair. The index holds no reference to `base`.
///
/// # Panics
///
/// Panics if `params.r` is outside `1..=64` or `params.t < 3`.
#[must_use]
pub fn hlsh_generator(
    base: &RowMajorMatrix,
    params: &HLshParams,
    pool: &ThreadPool,
) -> CandidateGen<'static> {
    let ladder = Ladder::new(base, params);
    CandidateGen::new(
        ladder.index(0..ladder.levels.len(), pool),
        PairRule::Collision {
            runs: (params.max_levels * params.l) as f64,
        },
    )
}

/// [`hlsh_candidates`] plus instrumentation: the `colliding-pairs` /
/// `emitted` counters and the aggregated bucket-occupancy histogram over
/// every run at every ladder level.
#[must_use]
pub fn hlsh_candidates_with_stats(
    base: &RowMajorMatrix,
    params: &HLshParams,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    hlsh_candidates_with_stats_pool(base, params, &ThreadPool::new(1))
}

/// Pool-based [`hlsh_candidates_with_stats`]: identical candidates, stage
/// counters, and occupancy histogram, with the (level, run) tables grouped
/// and the focus columns counted over the pool.
///
/// # Panics
///
/// Panics on the parameter violations [`hlsh_generator`] rejects.
#[must_use]
pub fn hlsh_candidates_with_stats_pool(
    base: &RowMajorMatrix,
    params: &HLshParams,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    hlsh_generator(base, params, pool).generate(pool)
}

/// Per-level diagnostics of an H-LSH run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlshLevelStats {
    /// Ladder level (0 = input matrix).
    pub level: usize,
    /// Rows at this level.
    pub n_rows: u32,
    /// Columns inside the density gate `(1/t, (t−1)/t)`.
    pub gated_columns: usize,
    /// Distinct candidate pairs first discovered at this level.
    pub new_pairs: usize,
}

/// Runs H-LSH while recording where in the ladder each column becomes
/// active and each pair is first found — the introspection behind the
/// "a pair can become a candidate only on a matrix `M_i` in which they are
/// both sufficiently dense" analysis of §4.2.
#[must_use]
pub fn hlsh_trace(base: &RowMajorMatrix, params: &HLshParams) -> Vec<HlshLevelStats> {
    let ladder = Ladder::new(base, params);
    let single = ThreadPool::new(1);
    let mut seen: FastHashSet<u64> = FastHashSet::default();
    (ladder.levels.iter().enumerate())
        .map(|(level, stats)| {
            let index = ladder.index(level..level + 1, &single);
            let mut walker = PairWalker::new(&index);
            let mut new_pairs = 0;
            for i in 0..base.n_cols() {
                walker.column(i, |j, _| {
                    new_pairs += usize::from(seen.insert(pack_pair(i, j)))
                });
            }
            HlshLevelStats {
                level,
                n_rows: stats.n_rows,
                gated_columns: stats.gated.iter().filter(|&&g| g).count(),
                new_pairs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sfa_matrix::ops::or_fold_random;

    fn params(r: usize, l: usize, max_levels: usize, seed: u64) -> HLshParams {
        HLshParams {
            max_levels,
            ..HLshParams::new(r, l, seed)
        }
    }

    /// 256 rows; columns 0, 1 identical (dense enough to gate at level 0
    /// or 1); columns 2, 3 dissimilar; column 4 ultra-sparse.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for i in 0..256u32 {
            let mut r = Vec::new();
            if i % 3 == 0 {
                r.push(0);
                r.push(1);
            }
            if i % 4 == 0 {
                r.push(2);
            }
            if i % 4 == 2 {
                r.push(3);
            }
            if i == 7 {
                r.push(4);
            }
            rows.push(r);
        }
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    #[test]
    fn ladder_halves_rows() {
        let m = matrix();
        let ladder = Ladder::new(&m, &params(1, 1, 5, 3));
        assert_eq!(ladder.levels.len(), 5);
        assert_eq!(ladder.levels[0].n_rows, 256);
        assert_eq!(ladder.levels[1].n_rows, 128);
        assert_eq!(ladder.levels[4].n_rows, 16);
        assert_eq!(ladder.leaves.len(), 16 << 4, "256 rows pair up evenly");
    }

    #[test]
    fn ladder_densities_increase() {
        let m = matrix();
        let sizes = [256, 128, 64, 32];
        let (leaves, _) = leaf_order(&sizes, 3);
        let counts = level_counts(&m, &leaves, sizes.len());
        let d = |lvl: usize, col: usize| f64::from(counts[lvl][col]) / f64::from(sizes[lvl]);
        for col in 0..4 {
            assert!(
                d(3, col) >= d(0, col),
                "column {col}: density did not increase"
            );
        }
    }

    #[test]
    fn ladder_stops_at_tiny_matrices() {
        let m = RowMajorMatrix::from_rows(1, vec![vec![0], vec![0]]).unwrap();
        let ladder = Ladder::new(&m, &params(1, 1, 50, 1));
        assert!(ladder.levels.len() <= 2, "folded a 1-row matrix");
        let empty = RowMajorMatrix::from_rows(3, Vec::new()).unwrap();
        assert!(Ladder::new(&empty, &params(1, 1, 50, 1)).levels.is_empty());
        assert!(hlsh_trace(&empty, &params(1, 1, 50, 1)).is_empty());
    }

    /// Every level's row count, as the reference ladder folds them.
    fn ladder_sizes(base: &RowMajorMatrix, max_levels: usize, seed: u64) -> Vec<u32> {
        let ladder = DensityLadder::build(base, max_levels, seed);
        (0..ladder.n_levels())
            .map(|level| ladder.level(level).n_rows())
            .collect()
    }

    #[test]
    fn each_block_holds_the_base_rows_its_fold_merged() {
        // Row `i` of an identity table holds column `i`, so a folded row's
        // columns are the base rows the fold merged into it.
        for n in (1..=40).chain([63, 64, 65, 255, 257, 700]) {
            let identity: Vec<Vec<u32>> = (0..n).map(|i| vec![i]).collect();
            let base = RowMajorMatrix::from_rows(n, identity).unwrap();
            for seed in [1, 9, 1 << 40] {
                let ladder = DensityLadder::build(&base, 30, seed);
                let sizes = ladder_sizes(&base, 30, seed);
                let (leaves, starts) = leaf_order(&sizes, seed);
                let top = sizes.len() - 1;
                assert_eq!(leaves.len(), (sizes[top] as usize) << top);
                assert!(leaves.len() < 3 * n as usize, "n = {n}");
                for (level, starts) in starts.iter().enumerate() {
                    let folded = ladder.level(level);
                    assert_eq!(starts.len(), folded.n_rows() as usize);
                    for (t, &start) in starts.iter().enumerate() {
                        assert_eq!(start % (1 << level), 0, "block is aligned");
                        let mut block: Vec<u32> = leaves[start..start + (1 << level)]
                            .iter()
                            .copied()
                            .filter(|&row| row != PHANTOM)
                            .collect();
                        block.sort_unstable();
                        assert_eq!(block, folded.row(t as u32), "n {n} level {level} row {t}");
                    }
                }
            }
        }
    }

    /// The parent's materialized ladder: the reference the leaf order must
    /// reproduce entry for entry.
    #[derive(Debug)]
    struct DensityLadder<'a> {
        base: &'a RowMajorMatrix,
        folded: Vec<RowMajorMatrix>,
    }

    impl<'a> DensityLadder<'a> {
        fn build(base: &'a RowMajorMatrix, max_levels: usize, seed: u64) -> Self {
            let mut seq = SeedSequence::new(seed);
            let mut folded = Vec::new();
            let mut current = base;
            while folded.len() + 1 < max_levels && current.n_rows() >= 2 {
                let next = or_fold_random(current, seq.next_seed());
                folded.push(next);
                current = folded.last().expect("just pushed");
            }
            Self { base, folded }
        }

        fn n_levels(&self) -> usize {
            1 + self.folded.len()
        }

        fn level(&self, level: usize) -> &RowMajorMatrix {
            if level == 0 {
                self.base
            } else {
                &self.folded[level - 1]
            }
        }
    }

    struct LevelPlan {
        level: usize,
        n_rows: u32,
        gated: Vec<bool>,
        gated_columns: usize,
        runs: Vec<Vec<u32>>,
    }

    fn plan<'a>(
        base: &'a RowMajorMatrix,
        params: &HLshParams,
    ) -> (DensityLadder<'a>, Vec<LevelPlan>) {
        let ladder = DensityLadder::build(base, params.max_levels, params.seed);
        let mut seq = SeedSequence::new(params.seed ^ 0x5f5f_5f5f);
        let lo_gate = 1.0 / f64::from(params.t);
        let hi_gate = f64::from(params.t - 1) / f64::from(params.t);
        let mut levels = Vec::new();
        for level in 0..ladder.n_levels() {
            let matrix = ladder.level(level);
            let n = matrix.n_rows();
            if (n as usize) < params.r {
                break;
            }
            let gated: Vec<bool> = matrix
                .column_counts()
                .iter()
                .map(|&c| {
                    let d = f64::from(c) / f64::from(n);
                    d > lo_gate && d < hi_gate
                })
                .collect();
            let gated_columns = gated.iter().filter(|&&g| g).count();
            let runs = if gated_columns > 0 {
                (0..params.l)
                    .map(|_| sample_distinct_rows(n, params.r, &mut seq))
                    .collect()
            } else {
                Vec::new()
            };
            levels.push(LevelPlan {
                level,
                n_rows: n,
                gated,
                gated_columns,
                runs,
            });
        }
        (ladder, levels)
    }

    fn run_entries(
        matrix: &RowMajorMatrix,
        plan: &LevelPlan,
        rows: &[u32],
        include_zero_keys: bool,
        patterns: &mut [u64],
        out: &mut Vec<(u64, u32)>,
    ) {
        for (bit, &row) in rows.iter().enumerate() {
            for &col in matrix.row(row) {
                if plan.gated[col as usize] {
                    let pattern = &mut patterns[col as usize];
                    if *pattern == 0 {
                        out.push((0, col));
                    }
                    *pattern |= 1u64 << bit;
                }
            }
        }
        if include_zero_keys {
            for (col, &g) in plan.gated.iter().enumerate() {
                if g && patterns[col] == 0 {
                    out.push((0, col as u32));
                }
            }
        }
        for entry in out.iter_mut() {
            entry.0 = std::mem::take(&mut patterns[entry.1 as usize]);
        }
    }

    fn run_index(
        ladder: &DensityLadder<'_>,
        levels: &[LevelPlan],
        runs: &[(usize, usize)],
        include_zero_keys: bool,
        pool: &ThreadPool,
    ) -> BucketIndex {
        let m = ladder.level(0).n_cols() as usize;
        BucketIndex::build(m, runs.len(), true, pool, || {
            let mut patterns = vec![0u64; m];
            move |t: usize, out: &mut Vec<(u64, u32)>| {
                let (p, r) = runs[t];
                let plan = &levels[p];
                run_entries(
                    ladder.level(plan.level),
                    plan,
                    &plan.runs[r],
                    include_zero_keys,
                    &mut patterns,
                    out,
                );
            }
        })
    }

    fn all_runs(levels: &[LevelPlan]) -> Vec<(usize, usize)> {
        levels
            .iter()
            .enumerate()
            .flat_map(|(p, plan)| (0..plan.runs.len()).map(move |r| (p, r)))
            .collect()
    }

    /// The reference generator: `hlsh_generator` over the folded ladder.
    fn reference_generator(base: &RowMajorMatrix, params: &HLshParams) -> CandidateGen<'static> {
        let (ladder, levels) = plan(base, params);
        let single = ThreadPool::new(1);
        let index = run_index(
            &ladder,
            &levels,
            &all_runs(&levels),
            params.include_zero_keys,
            &single,
        );
        CandidateGen::new(
            index,
            PairRule::Collision {
                runs: (params.max_levels * params.l) as f64,
            },
        )
    }

    /// The reference `hlsh_trace` over the folded ladder.
    fn reference_trace(base: &RowMajorMatrix, params: &HLshParams) -> Vec<HlshLevelStats> {
        let (ladder, levels) = plan(base, params);
        let single = ThreadPool::new(1);
        let mut seen: FastHashSet<u64> = FastHashSet::default();
        (0..levels.len())
            .map(|p| {
                let plan = &levels[p];
                let runs: Vec<(usize, usize)> = (0..plan.runs.len()).map(|r| (p, r)).collect();
                let index = run_index(&ladder, &levels, &runs, params.include_zero_keys, &single);
                let mut walker = PairWalker::new(&index);
                let mut new_pairs = 0;
                for i in 0..base.n_cols() {
                    walker.column(i, |j, _| {
                        new_pairs += usize::from(seen.insert(pack_pair(i, j)))
                    });
                }
                HlshLevelStats {
                    level: plan.level,
                    n_rows: plan.n_rows,
                    gated_columns: plan.gated_columns,
                    new_pairs,
                }
            })
            .collect()
    }

    /// Random tables of 1–700 rows × 1–24 columns with empty rows and
    /// columns, each cell set with a per-table probability up to 60%.
    /// Columns come in runs of `dup` identical copies, so patterns of every
    /// width collide.
    fn table() -> impl Strategy<Value = RowMajorMatrix> {
        (1u32..=700, 1u32..=24, (0u32..=60, 1u32..=3), any::<u64>()).prop_map(
            |(n, m, (pct, dup), seed)| {
                let mut x = seed;
                let rows = (0..n)
                    .map(|_| {
                        let sources: Vec<bool> = (0..m.div_ceil(dup))
                            .map(|_| {
                                x = x
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                (x >> 33) % 100 < u64::from(pct)
                            })
                            .collect();
                        (0..m).filter(|&c| sources[(c / dup) as usize]).collect()
                    })
                    .collect();
                RowMajorMatrix::from_rows(m, rows).unwrap()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The leaf order reproduces the folded ladder: the same column
        /// counts at every level, and the same candidates, stage counters,
        /// histogram, counter increments and trace at every pool size.
        #[test]
        fn leaf_order_matches_the_folded_ladder(
            base in table(),
            (ri, li, ti, mi) in (0usize..4, 0usize..3, 0usize..3, 0usize..4),
            include_zero_keys in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let params = HLshParams {
                r: [1, 3, 12, 64][ri],
                l: [1, 6, 64][li],
                t: [3, 4, 8][ti],
                max_levels: [1, 2, 16, 30][mi],
                include_zero_keys,
                seed,
            };
            let sizes = ladder_sizes(&base, params.max_levels, seed);
            let (leaves, _) = leaf_order(&sizes, seed);
            let counts = level_counts(&base, &leaves, sizes.len());
            let ladder = DensityLadder::build(&base, params.max_levels, seed);
            for (level, counts) in counts.iter().enumerate() {
                prop_assert_eq!(counts, &ladder.level(level).column_counts(), "level {}", level);
            }
            let reference = reference_generator(&base, &params);
            let expected = reference.generate(&ThreadPool::new(1));
            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                let generator = hlsh_generator(&base, &params, &pool);
                prop_assert_eq!(generator.index().increments(), reference.index().increments());
                let (cands, stats) = generator.generate(&pool);
                prop_assert_eq!(&cands, &expected.0, "{:?} threads {}", params, threads);
                prop_assert_eq!(&stats, &expected.1, "{:?} threads {}", params, threads);
            }
            prop_assert_eq!(hlsh_trace(&base, &params), reference_trace(&base, &params));
        }
    }

    #[test]
    fn identical_columns_are_found() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 5);
        let cands = hlsh_candidates(&m, &params);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "identical pair not found: {cands:?}"
        );
    }

    #[test]
    fn disjoint_columns_rarely_collide() {
        let m = matrix();
        let params = HLshParams::new(12, 4, 5);
        let cands = hlsh_candidates(&m, &params);
        // Columns 2 and 3 are disjoint (density each 1/4): any collision
        // would need identical 12-bit patterns, overwhelmingly unlikely.
        assert!(
            !cands.iter().any(|c| c.ids() == (2, 3)),
            "disjoint pair collided: {cands:?}"
        );
    }

    #[test]
    fn density_gate_excludes_levels() {
        // With t = 4, a column only participates where its density is in
        // (0.25, 0.75). An ultra-sparse column never qualifies before the
        // ladder runs out of levels at max_levels = 2.
        let m = matrix();
        let params = HLshParams {
            r: 8,
            l: 4,
            t: 4,
            max_levels: 2,
            include_zero_keys: true,
            seed: 9,
        };
        let cands = hlsh_candidates(&m, &params);
        assert!(
            cands.iter().all(|c| c.i != 4 && c.j != 4),
            "sparse column should be gated out: {cands:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 77);
        assert_eq!(hlsh_candidates(&m, &params), hlsh_candidates(&m, &params));
    }

    #[test]
    fn stats_variant_matches_plain_generator() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 5);
        let (cands, stats) = hlsh_candidates_with_stats(&m, &params);
        assert_eq!(cands, hlsh_candidates(&m, &params));
        assert_eq!(stats.stage("emitted"), Some(cands.len() as u64));
        assert!(stats.bucket_histogram.iter().sum::<u64>() > 0);
    }

    #[test]
    fn zero_key_knob_only_adds_candidates() {
        let m = matrix();
        let off = HLshParams::new(8, 6, 13);
        let on = HLshParams {
            include_zero_keys: true,
            ..off
        };
        let c_off: std::collections::HashSet<(u32, u32)> = hlsh_candidates(&m, &off)
            .iter()
            .map(CandidatePair::ids)
            .collect();
        let c_on: std::collections::HashSet<(u32, u32)> = hlsh_candidates(&m, &on)
            .iter()
            .map(CandidatePair::ids)
            .collect();
        assert!(c_off.is_subset(&c_on));
    }

    #[test]
    fn trace_levels_match_ladder() {
        let m = matrix();
        let params = HLshParams::new(8, 4, 5);
        let trace = hlsh_trace(&m, &params);
        assert!(!trace.is_empty());
        // Levels halve in rows.
        for w in trace.windows(2) {
            assert_eq!(w[1].n_rows, w[0].n_rows.div_ceil(2));
            assert_eq!(w[1].level, w[0].level + 1);
        }
    }

    #[test]
    fn trace_total_pairs_cover_candidates() {
        let m = matrix();
        for params in [
            HLshParams::new(8, 6, 5),
            HLshParams {
                include_zero_keys: true,
                ..HLshParams::new(8, 4, 13)
            },
        ] {
            let trace = hlsh_trace(&m, &params);
            let total: usize = trace.iter().map(|s| s.new_pairs).sum();
            let candidates = hlsh_candidates(&m, &params);
            assert_eq!(total, candidates.len(), "trace must account for every pair");
        }
    }

    #[test]
    fn trace_shows_sparse_columns_gating_in_later() {
        // The ultra-sparse column 4 only passes the gate at deep levels, if
        // at all; the dense columns gate in early.
        let m = matrix();
        let params = HLshParams::new(8, 4, 7);
        let trace = hlsh_trace(&m, &params);
        let early = trace.first().unwrap();
        // Columns 0,1 (density 1/3) and 2,3 (1/4 boundary — excluded at
        // t = 4) give at least two gated columns at level 0.
        assert!(early.gated_columns >= 2, "{early:?}");
    }

    #[test]
    fn pool_variant_matches_sequential_at_every_thread_count() {
        let m = matrix();
        for params in [
            HLshParams::new(8, 6, 5),
            HLshParams {
                include_zero_keys: true,
                ..HLshParams::new(8, 4, 13)
            },
        ] {
            let seq = hlsh_candidates_with_stats(&m, &params);
            for threads in [1, 2, 4, 7] {
                let pool = sfa_par::ThreadPool::new(threads);
                let par = hlsh_candidates_with_stats_pool(&m, &params, &pool);
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
    #[should_panic(expected = "pattern width")]
    fn rejects_oversized_patterns() {
        let m = matrix();
        let _ = hlsh_candidates(&m, &HLshParams::new(65, 2, 1));
    }
}
