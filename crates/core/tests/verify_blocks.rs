//! The streamed phase-3 verifier counts intersections in 512-row blocks.
//! These tests pin it against a brute-force column oracle on tables whose
//! row counts straddle block edges, and check that checkpoints, resumes
//! and cancellations that fall inside a block see exactly the rows folded
//! in so far.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sfa_core::verify::{verify_candidates_resumable, verify_candidates_with_stats, VerifyProgress};
use sfa_core::{CancelToken, VerifiedPair};
use sfa_matrix::{MemoryRowStream, Result, RowMajorMatrix, RowStream};
use sfa_minhash::CandidatePair;

/// Row counts around the 512-row block edges.
const ROW_COUNTS: [u32; 6] = [0, 1, 511, 512, 513, 1537];
const N_COLS: u32 = 12;
/// Columns `TOUCHED..N_COLS` belong to no candidate.
const TOUCHED: u32 = 10;

/// A seeded table: a fifth of the rows empty, every column at its own
/// density between 2% and 60%.
fn table(n_rows: u32, seed: u64) -> RowMajorMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let density: Vec<f64> = (0..N_COLS).map(|_| rng.gen_range(0.02..0.6)).collect();
    let rows = (0..n_rows)
        .map(|_| {
            if rng.gen_bool(0.2) {
                return Vec::new();
            }
            (0..N_COLS)
                .filter(|&c| rng.gen_bool(density[c as usize]))
                .collect()
        })
        .collect();
    RowMajorMatrix::from_rows(N_COLS, rows).unwrap()
}

/// Random pairs among the touched columns, some of them twice, plus
/// column 0 paired with every other touched column.
fn candidates(seed: u64) -> Vec<CandidatePair> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut out: Vec<CandidatePair> = (0..20)
        .filter_map(|_| {
            let (a, b) = (rng.gen_range(0..TOUCHED), rng.gen_range(0..TOUCHED));
            (a != b).then(|| CandidatePair::new(a, b, rng.gen_range(0.0..1.0)))
        })
        .collect();
    let duplicates: Vec<CandidatePair> = out.iter().step_by(3).copied().collect();
    out.extend(duplicates);
    out.extend((1..TOUCHED).map(|j| CandidatePair::new(0, j, 0.5)));
    out
}

/// The counters a pass over the first `rows` rows of `m` must hold,
/// computed column by column.
fn oracle(m: &RowMajorMatrix, rows: u32, candidates: &[CandidatePair]) -> VerifyProgress {
    let prefix =
        RowMajorMatrix::from_rows(m.n_cols(), (0..rows).map(|r| m.row(r).to_vec()).collect())
            .unwrap();
    let columns = prefix.transpose();
    let column_counts: Vec<u32> = (0..m.n_cols())
        .map(|c| columns.column_count(c) as u32)
        .collect();
    // Σ over 1-entries of the entry's column's candidate count, gathered
    // per candidate: each candidate is charged once per 1 in either column.
    let probes = candidates
        .iter()
        .map(|c| u64::from(column_counts[c.i as usize] + column_counts[c.j as usize]))
        .sum();
    VerifyProgress {
        rows_done: u64::from(rows),
        intersections: candidates
            .iter()
            .map(|c| columns.intersection_size(c.i, c.j) as u32)
            .collect(),
        column_counts,
        probes,
    }
}

/// A pass's verified pairs, column counts and probes.
type Pass = Result<(Vec<VerifiedPair>, Vec<u32>, u64)>;

/// Runs a resumable pass, collecting every checkpoint it writes.
fn pass_with_checkpoints(
    stream: &mut impl RowStream,
    candidates: &[CandidatePair],
    resume: Option<VerifyProgress>,
    every_rows: u64,
    cancel: &CancelToken,
) -> (Pass, Vec<VerifyProgress>) {
    let mut checkpoints = Vec::new();
    let out = verify_candidates_resumable(
        stream,
        candidates,
        resume,
        every_rows,
        &mut |p| {
            checkpoints.push(p.clone());
            Ok(())
        },
        cancel,
    );
    (out, checkpoints)
}

/// A stream that cancels `token` once it has delivered `after` rows.
struct CancelAfter<'a> {
    inner: MemoryRowStream<'a>,
    token: CancelToken,
    delivered: u64,
    after: u64,
}

impl RowStream for CancelAfter<'_> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        let row = self.inner.read_row(buf)?;
        if row.is_some() {
            self.delivered += 1;
            if self.delivered == self.after {
                self.token.cancel();
            }
        }
        Ok(row)
    }

    fn reset(&mut self) -> Result<()> {
        self.inner.reset()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_counts_equal_a_column_oracle(seed in any::<u64>(), which in 0usize..ROW_COUNTS.len()) {
        let n_rows = ROW_COUNTS[which];
        let m = table(n_rows, seed);
        let candidates = candidates(seed);
        let (verified, counts, probes) =
            verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        let expected = oracle(&m, n_rows, &candidates);
        prop_assert_eq!(&counts, &expected.column_counts);
        prop_assert_eq!(probes, expected.probes);
        // One verified pair per candidate, duplicates included, sorted.
        let mut ids: Vec<(u32, u32)> = candidates.iter().map(|c| (c.i, c.j)).collect();
        ids.sort_unstable();
        prop_assert_eq!(verified.iter().map(|p| (p.i, p.j)).collect::<Vec<_>>(), ids);
        let columns = m.transpose();
        for p in &verified {
            let inter = columns.intersection_size(p.i, p.j) as u32;
            prop_assert_eq!(p.intersection, inter);
            prop_assert_eq!(
                p.union,
                columns.column_count(p.i) as u32 + columns.column_count(p.j) as u32 - inter
            );
        }
    }
}

#[test]
fn every_checkpoint_holds_exactly_its_prefix_and_resumes_to_the_full_pass() {
    for n_rows in [513, 1537] {
        let m = table(n_rows, u64::from(n_rows));
        let candidates = candidates(u64::from(n_rows));
        let full =
            verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        for every_rows in [7u64, 300, 700] {
            let (out, checkpoints) = pass_with_checkpoints(
                &mut MemoryRowStream::new(&m),
                &candidates,
                None,
                every_rows,
                &CancelToken::default(),
            );
            assert_eq!(out.unwrap(), full, "{n_rows} rows, every {every_rows}");
            let frontiers: Vec<u64> = checkpoints.iter().map(|p| p.rows_done).collect();
            let expected: Vec<u64> = (1..=u64::from(n_rows) / every_rows)
                .map(|k| k * every_rows)
                .collect();
            assert_eq!(frontiers, expected, "{n_rows} rows, every {every_rows}");
            for p in &checkpoints {
                assert_eq!(*p, oracle(&m, p.rows_done as u32, &candidates));
                let (resumed, _) = pass_with_checkpoints(
                    &mut MemoryRowStream::new(&m),
                    &candidates,
                    Some(p.clone()),
                    every_rows,
                    &CancelToken::default(),
                );
                assert_eq!(
                    resumed.unwrap(),
                    full,
                    "{n_rows} rows, every {every_rows}, resumed at {}",
                    p.rows_done
                );
            }
        }
    }
}

#[test]
fn a_cancel_inside_a_block_flushes_its_exact_prefix() {
    let m = table(1537, 41);
    let candidates = candidates(41);
    let full = verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
    for (after, every_rows) in [(1u64, u64::MAX), (300, 7), (600, 700), (1100, u64::MAX)] {
        let token = CancelToken::new();
        let mut stream = CancelAfter {
            inner: MemoryRowStream::new(&m),
            token: token.clone(),
            delivered: 0,
            after,
        };
        let (out, checkpoints) =
            pass_with_checkpoints(&mut stream, &candidates, None, every_rows, &token);
        assert!(out.unwrap_err().is_canceled(), "canceled after {after}");
        let frontier = checkpoints
            .last()
            .expect("a canceled pass flushes a frontier");
        assert_eq!(*frontier, oracle(&m, after as u32, &candidates));
        // Every earlier checkpoint is a regular one, each its own prefix.
        for p in &checkpoints {
            assert_eq!(*p, oracle(&m, p.rows_done as u32, &candidates));
        }
        let (resumed, _) = pass_with_checkpoints(
            &mut MemoryRowStream::new(&m),
            &candidates,
            Some(frontier.clone()),
            every_rows,
            &CancelToken::default(),
        );
        assert_eq!(resumed.unwrap(), full, "resumed after a cancel at {after}");
    }
}
