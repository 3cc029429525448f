//! Phase 3: exact candidate verification in one streaming pass.
//!
//! "While scanning the table data, maintain for each candidate column-pair
//! `(c_i, c_j)` the counts of the number of rows having a 1 in at least one
//! of the two columns and also the number of rows having a 1 in both
//! columns." We count intersections directly and column cardinalities for
//! the union via `|C_i ∪ C_j| = |C_i| + |C_j| − |C_i ∩ C_j|`.
//!
//! Cost model of the streamed pass: one step per 1-entry (its column
//! count, and a bit in its column's block line if the column belongs to a
//! candidate), plus one 64-byte AND-popcount per candidate per 512-row
//! block in which the candidate's smaller column holds a 1. The reported
//! probe count is Σ over 1-entries of the candidates the entry's column
//! belongs to — a fixed function of the table and the candidate list.

use sfa_matrix::{MatrixError, Result, RowStream, SparseMatrix};
use sfa_minhash::CandidatePair;

use crate::report::VerifiedPair;
use crate::shutdown::{CancelToken, CANCEL_POLL_STRIDE};

/// Rows per counting block: each candidate column holds one 64-byte line
/// of row bits per block.
const BLOCK_ROWS: u64 = 512;

/// One block's row bits for one candidate column, a cache line each.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Line([u64; 8]);

/// Phase 3's intersection counter: rows are folded into [`BLOCK_ROWS`]-row
/// blocks of per-column bit lines, and each candidate's intersection grows
/// by `popcount(bits_i & bits_j)` per block. Only columns that belong to a
/// candidate get a slot, so the lines grow with the candidate columns, not
/// with `m`.
struct BlockCounter {
    /// Column → slot, `u32::MAX` for columns no candidate touches.
    slot_of: Vec<u32>,
    /// Per slot: how many candidates the column belongs to.
    degree: Vec<u32>,
    /// `offsets[s]..offsets[s + 1]` indexes slot `s`'s `(partner slot,
    /// candidate index)` entries in `forward`: each candidate once, under
    /// its smaller column, in candidate order.
    offsets: Vec<usize>,
    forward: Vec<(u32, u32)>,
    lines: Vec<Line>,
    /// Slots with a bit set in the current block, each once.
    seen: Vec<u32>,
}

impl BlockCounter {
    fn new(m: usize, candidates: &[CandidatePair]) -> Self {
        // Mark the candidate columns, then number them in column order, so
        // a row's ascending ids touch the lines in memory order.
        let mut slot_of = vec![u32::MAX; m];
        for c in candidates {
            slot_of[c.i as usize] = 0;
            slot_of[c.j as usize] = 0;
        }
        let mut slots = 0u32;
        for slot in slot_of.iter_mut().filter(|s| **s == 0) {
            *slot = slots;
            slots += 1;
        }
        let slots = slots as usize;
        let mut degree = vec![0u32; slots];
        let mut offsets = vec![0usize; slots + 1];
        for c in candidates {
            degree[slot_of[c.i as usize] as usize] += 1;
            degree[slot_of[c.j as usize] as usize] += 1;
            offsets[slot_of[c.i as usize] as usize + 1] += 1;
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets.clone();
        let mut forward = vec![(0u32, 0u32); candidates.len()];
        for (idx, c) in candidates.iter().enumerate() {
            let s = slot_of[c.i as usize] as usize;
            forward[cursor[s]] = (slot_of[c.j as usize], idx as u32);
            cursor[s] += 1;
        }
        Self {
            slot_of,
            degree,
            offsets,
            forward,
            lines: vec![Line::default(); slots],
            seen: Vec::new(),
        }
    }

    /// Records a 1 in `col` at row `row` of the current block; returns the
    /// number of candidates `col` belongs to (the entry's probe charge).
    #[inline]
    fn set(&mut self, col: u32, row: u64) -> u64 {
        let s = self.slot_of[col as usize];
        if s == u32::MAX {
            return 0;
        }
        let line = &mut self.lines[s as usize].0;
        if line.iter().all(|&w| w == 0) {
            self.seen.push(s);
        }
        let bit = row % BLOCK_ROWS;
        line[(bit / 64) as usize] |= 1 << (bit % 64);
        u64::from(self.degree[s as usize])
    }

    /// Adds the current block's intersections into `intersections` and
    /// clears the block.
    fn flush(&mut self, intersections: &mut [u32]) {
        for &s in &self.seen {
            let s = s as usize;
            let bits = &self.lines[s].0;
            for &(partner, idx) in &self.forward[self.offsets[s]..self.offsets[s + 1]] {
                let other = &self.lines[partner as usize].0;
                intersections[idx as usize] += bits
                    .iter()
                    .zip(other)
                    .map(|(a, b)| (a & b).count_ones())
                    .sum::<u32>();
            }
        }
        for &s in &self.seen {
            self.lines[s as usize] = Line::default();
        }
        self.seen.clear();
    }
}

/// Assembles the sorted [`VerifiedPair`] list from per-candidate
/// intersections and per-column counts — the single definition every
/// verification path (streaming, pooled, in-memory bitmap) funnels
/// through, so their outputs are identical by construction.
fn assemble_verified(
    candidates: &[CandidatePair],
    intersections: &[u32],
    column_counts: &[u32],
) -> Vec<VerifiedPair> {
    let mut verified: Vec<VerifiedPair> = candidates
        .iter()
        .zip(intersections)
        .map(|(c, &inter)| {
            let ci = column_counts[c.i as usize];
            let cj = column_counts[c.j as usize];
            let union = ci + cj - inter;
            VerifiedPair {
                i: c.i,
                j: c.j,
                intersection: inter,
                union,
                similarity: if union == 0 {
                    0.0
                } else {
                    f64::from(inter) / f64::from(union)
                },
                estimate: c.estimate,
            }
        })
        .collect();
    verified.sort_by_key(|p| (p.i, p.j));
    verified
}

/// Mid-pass verification counters: everything phase 3 needs to continue
/// from row `rows_done` instead of row 0. This is the payload of a phase-3
/// checkpoint (see [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyProgress {
    /// Rows already folded into the counters.
    pub rows_done: u64,
    /// Per-candidate intersection counts (indexed like the candidate list).
    pub intersections: Vec<u32>,
    /// Per-column 1-counts.
    pub column_counts: Vec<u32>,
    /// Probes so far: Σ over the 1-entries folded in of the candidates the
    /// entry's column belongs to.
    pub probes: u64,
}

/// Verifies candidates in one pass over `stream`; returns the verified
/// pairs (all of them, including those that turn out dissimilar) sorted by
/// `(i, j)`, plus the exact column counts of the touched columns.
///
/// The pass folds rows into 512-row blocks of per-column bits and counts
/// each candidate's intersection with one AND-popcount per block (see the
/// module docs for the cost model).
///
/// # Errors
///
/// Propagates stream errors.
pub fn verify_candidates<S: RowStream>(
    stream: &mut S,
    candidates: &[CandidatePair],
) -> Result<(Vec<VerifiedPair>, Vec<u32>)> {
    let (verified, counts, _) = verify_candidates_with_stats(stream, candidates)?;
    Ok((verified, counts))
}

/// [`verify_candidates`] plus the pass's intersection work: Σ over
/// 1-entries of the candidates the entry's column belongs to (each such
/// probe belongs to exactly one candidate pair, so this is the per-pair
/// verification cost `|C_i| + |C_j|` summed over pairs).
///
/// # Errors
///
/// Propagates stream errors.
pub fn verify_candidates_with_stats<S: RowStream>(
    stream: &mut S,
    candidates: &[CandidatePair],
) -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    verify_candidates_resumable(
        stream,
        candidates,
        None,
        u64::MAX,
        &mut |_| Ok(()),
        &CancelToken::default(),
    )
}

/// [`verify_candidates_with_stats`] with checkpoint/resume support: starts
/// from `resume` (counters captured mid-pass) instead of row 0 when given,
/// fast-forwarding the stream past the rows already counted, and invokes
/// `on_checkpoint` with a snapshot of the counters every `every_rows`
/// processed rows.
///
/// Output is identical to an uninterrupted [`verify_candidates_with_stats`]
/// pass — the counters are pure functions of the rows folded in, so
/// "resume + suffix" equals "full pass".
///
/// Intersections are counted a block at a time; the block is folded in at
/// every checkpoint, so each [`VerifyProgress`] holds exactly its first
/// `rows_done` rows.
///
/// `cancel` is polled after every row; on cancellation the current
/// counters are flushed through `on_checkpoint` first (so a graceful
/// shutdown always leaves a resumable frontier), then the pass returns
/// [`MatrixError::Canceled`].
///
/// # Errors
///
/// Propagates stream and `on_checkpoint` errors, reports a dimension
/// mismatch if the stream holds fewer rows than `resume` claims were
/// already processed, and returns [`MatrixError::Canceled`] when `cancel`
/// fires.
///
/// # Panics
///
/// Panics if `resume`'s counter lengths disagree with `candidates` /
/// `stream.n_cols()` — callers must validate provenance (see
/// [`crate::checkpoint`]'s fingerprint checks) before resuming.
pub fn verify_candidates_resumable<S: RowStream>(
    stream: &mut S,
    candidates: &[CandidatePair],
    resume: Option<VerifyProgress>,
    every_rows: u64,
    on_checkpoint: &mut dyn FnMut(&VerifyProgress) -> Result<()>,
    cancel: &CancelToken,
) -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let m = stream.n_cols() as usize;
    let mut counter = BlockCounter::new(m, candidates);
    let (mut rows_done, mut intersections, mut column_counts, mut probes) = match resume {
        Some(p) => {
            assert_eq!(
                p.intersections.len(),
                candidates.len(),
                "resume state belongs to a different candidate list"
            );
            assert_eq!(
                p.column_counts.len(),
                m,
                "resume state belongs to a different table"
            );
            let skipped = stream.skip_rows(p.rows_done)?;
            if skipped != p.rows_done {
                return Err(MatrixError::DimensionMismatch {
                    detail: format!(
                        "checkpoint claims {} rows processed but the stream holds only {skipped}",
                        p.rows_done
                    ),
                });
            }
            (p.rows_done, p.intersections, p.column_counts, p.probes)
        }
        None => (0, vec![0u32; candidates.len()], vec![0u32; m], 0u64),
    };
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while stream.read_row(&mut buf)?.is_some() {
        for &col in &buf {
            column_counts[col as usize] += 1;
            probes += counter.set(col, rows_done);
        }
        rows_done += 1;
        let canceled = cancel.is_canceled();
        let checkpoint = rows_done % every_rows == 0 || canceled;
        if checkpoint || rows_done % BLOCK_ROWS == 0 {
            counter.flush(&mut intersections);
        }
        if checkpoint {
            on_checkpoint(&VerifyProgress {
                rows_done,
                intersections: intersections.clone(),
                column_counts: column_counts.clone(),
                probes,
            })?;
        }
        if canceled {
            cancel.check()?;
        }
    }
    counter.flush(&mut intersections);
    let verified = assemble_verified(candidates, &intersections, &column_counts);
    Ok((verified, column_counts, probes))
}

/// Memory budget for the in-memory fast path: the materialized hybrid
/// containers for the candidate-touched columns may use at most this
/// much payload. The charge is the *actual* container bytes
/// ([`sfa_matrix::HybridColumns::payload_bytes_for_subset`]), not the
/// dense `⌈n/64⌉ · 8` bitmap bytes the pre-container accounting
/// assumed, so compressed columns raise the effective capacity. Past
/// the cap, each pair falls back to the adaptive per-pair kernel,
/// which needs no extra memory.
const IN_MEMORY_CONTAINER_CAP_BYTES: usize = 256 << 20;

/// What the in-memory verifier's kernel layer did for one run — the
/// source of the `metrics.kernels` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InMemoryKernelReport {
    /// The process-wide kernel arm (`"scalar"` | `"avx2"` | `"neon"`).
    pub dispatch_arm: &'static str,
    /// Whether hybrid containers were materialized (false = the
    /// candidate columns busted the cap and the per-pair adaptive
    /// kernel ran instead).
    pub used_containers: bool,
    /// Container tallies of the materialized columns (all zero when
    /// `used_containers` is false).
    pub container: sfa_matrix::ContainerStats,
}

/// In-memory phase 3: verifies candidates directly against a resident
/// [`SparseMatrix`] (the column-major transpose of the table) instead of
/// re-scanning rows, dealing candidates out to `pool`'s workers (a
/// 1-thread pool, or a list under the pool's serial cutoff, runs on the
/// caller thread); each intersection is written by exactly one worker,
/// so the output is identical at every pool size.
///
/// Column counts are read off the CSC structure; per-candidate
/// intersections dispatch through roaring-style hybrid containers
/// ([`sfa_matrix::HybridColumns::from_csc_subset`]) materialized for
/// exactly the columns the candidate list touches — each 2^16-row chunk
/// in its smallest array/bitmap/run representation, each pair counted
/// by the cheapest container-vs-container kernel (bitmap chunks
/// AND-popcount through the SIMD-dispatched
/// [`sfa_matrix::kernel`] layer). If the containers would exceed
/// [`IN_MEMORY_CONTAINER_CAP_BYTES`], each pair falls back to the
/// adaptive merge/gallop/bitmap kernel on the CSC slices. The
/// [`InMemoryKernelReport`] says which happened.
///
/// Output is identical to [`verify_candidates`] over a fault-free stream
/// of the same table: both compute the exact `|C_i ∩ C_j|` and `|C_j|`
/// integers and share the final [`VerifiedPair`] assembly.
#[must_use]
pub fn verify_candidates_in_memory_pool_with_report(
    columns: &SparseMatrix,
    candidates: &[CandidatePair],
    pool: &sfa_par::ThreadPool,
) -> (Vec<VerifiedPair>, Vec<u32>, InMemoryKernelReport) {
    let column_counts = csc_column_counts(columns);
    let (intersections, report) =
        in_memory_intersections(columns, candidates, pool, IN_MEMORY_CONTAINER_CAP_BYTES);
    let verified = assemble_verified(candidates, &intersections, &column_counts);
    (verified, column_counts, report)
}

/// Exact `|C_j|` for every column, off the CSC column pointers.
fn csc_column_counts(columns: &SparseMatrix) -> Vec<u32> {
    (0..columns.n_cols())
        .map(|j| columns.column_count(j) as u32)
        .collect()
}

/// Per-candidate exact intersections via subset hybrid containers (or
/// the adaptive per-pair kernel when the containers would bust the
/// memory cap), pool-parallel over candidates. The cap is a parameter so
/// tests can pin the accounting; production callers pass
/// [`IN_MEMORY_CONTAINER_CAP_BYTES`].
fn in_memory_intersections(
    columns: &SparseMatrix,
    candidates: &[CandidatePair],
    pool: &sfa_par::ThreadPool,
    cap_bytes: usize,
) -> (Vec<u32>, InMemoryKernelReport) {
    // Touched columns, deduplicated; slot[t] holds the containers of
    // touched[t].
    let mut touched: Vec<u32> = candidates.iter().flat_map(|c| [c.i, c.j]).collect();
    touched.sort_unstable();
    touched.dedup();
    // Charge what the containers will actually allocate — compressed
    // columns fit many more than the dense n/8-bytes-per-column charge
    // would admit.
    let container_bytes = sfa_matrix::HybridColumns::payload_bytes_for_subset(columns, &touched);
    let hybrid = (container_bytes <= cap_bytes).then(|| {
        let slots = sfa_matrix::HybridColumns::from_csc_subset(columns, &touched);
        let mut slot_of = vec![u32::MAX; columns.n_cols() as usize];
        for (t, &j) in touched.iter().enumerate() {
            slot_of[j as usize] = t as u32;
        }
        (slots, slot_of)
    });
    let report = InMemoryKernelReport {
        dispatch_arm: sfa_matrix::kernel::arm_name(),
        used_containers: hybrid.is_some(),
        container: hybrid
            .as_ref()
            .map_or_else(Default::default, |(slots, _)| slots.stats()),
    };
    let intersect = |c: &CandidatePair| -> u32 {
        let inter = match &hybrid {
            Some((slots, slot_of)) => slots.intersection_size(
                slot_of[c.i as usize] as usize,
                slot_of[c.j as usize] as usize,
            ),
            None => columns.intersection_size(c.i, c.j),
        };
        inter as u32
    };
    // One container (or adaptive) scan per candidate.
    let words_per_col = sfa_matrix::bitmap::words_for(columns.n_rows());
    let est_ops = (candidates.len() as u64).saturating_mul(words_per_col as u64);
    let chunks = pool.par_fold_bounded(
        candidates.len(),
        pool.chunk_for(candidates.len()),
        est_ops,
        |_| Vec::new(),
        |acc: &mut Vec<(usize, u32)>, range| {
            for idx in range {
                acc.push((idx, intersect(&candidates[idx])));
            }
        },
    );
    let mut intersections = vec![0u32; candidates.len()];
    for (idx, inter) in chunks.into_iter().flatten() {
        intersections[idx] = inter;
    }
    (intersections, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![
                vec![0, 1],
                vec![0, 1],
                vec![0, 2],
                vec![1, 3],
                vec![2, 3],
                vec![3],
            ],
        )
        .unwrap()
    }

    #[test]
    fn exact_counts_match_columns() {
        let m = matrix();
        let candidates = vec![
            CandidatePair::new(0, 1, 0.9),
            CandidatePair::new(2, 3, 0.5),
            CandidatePair::new(0, 3, 0.1),
        ];
        let (verified, counts) =
            verify_candidates(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        let csc = m.transpose();
        assert_eq!(counts, vec![3, 3, 2, 3]);
        for v in &verified {
            assert_eq!(
                v.intersection as usize,
                csc.intersection_size(v.i, v.j),
                "pair ({}, {})",
                v.i,
                v.j
            );
            assert!((v.similarity - csc.similarity(v.i, v.j)).abs() < 1e-12);
            assert_eq!(
                v.union as usize,
                csc.column_count(v.i) + csc.column_count(v.j) - csc.intersection_size(v.i, v.j)
            );
        }
    }

    #[test]
    fn estimates_are_preserved() {
        let m = matrix();
        let candidates = vec![CandidatePair::new(0, 1, 0.77)];
        let (verified, _) = verify_candidates(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        assert!((verified[0].estimate - 0.77).abs() < 1e-12);
    }

    #[test]
    fn empty_candidates_still_count_columns() {
        let m = matrix();
        let (verified, counts) = verify_candidates(&mut MemoryRowStream::new(&m), &[]).unwrap();
        assert!(verified.is_empty());
        assert_eq!(counts.iter().sum::<u32>() as usize, m.nnz());
    }

    #[test]
    fn single_pass_is_used() {
        let m = matrix();
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let _ = verify_candidates(&mut counter, &[CandidatePair::new(0, 1, 1.0)]).unwrap();
        assert_eq!(counter.passes(), 1);
    }

    #[test]
    fn in_memory_matches_streaming() {
        let m = matrix();
        let candidates = vec![
            CandidatePair::new(0, 1, 0.9),
            CandidatePair::new(0, 2, 0.4),
            CandidatePair::new(1, 3, 0.3),
            CandidatePair::new(2, 3, 0.5),
        ];
        let (stream_v, stream_c) =
            verify_candidates(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        let csc = m.transpose();
        for threads in [1, 2, 4] {
            let pool = sfa_par::ThreadPool::new(threads);
            let (pv, pc, _) =
                verify_candidates_in_memory_pool_with_report(&csc, &candidates, &pool);
            assert_eq!(pv, stream_v, "threads {threads}");
            assert_eq!(pc, stream_c, "threads {threads}");
        }
    }

    #[test]
    fn in_memory_handles_empty_candidates() {
        let csc = matrix().transpose();
        let (verified, counts, _) =
            verify_candidates_in_memory_pool_with_report(&csc, &[], &sfa_par::ThreadPool::new(1));
        assert!(verified.is_empty());
        assert_eq!(counts, vec![3, 3, 2, 3]);
    }

    #[test]
    fn cap_charges_actual_container_bytes_not_dense_bitmaps() {
        // Two sparse 100-element columns over a million rows: dense
        // bitmaps would charge 2 · ⌈n/64⌉ · 8 = 250 KB; the hybrid
        // containers actually allocate a few hundred bytes.
        let n_rows = 1_000_000u32;
        let a: Vec<u32> = (0..100u32).map(|i| i * 9_973).collect();
        let b: Vec<u32> = (0..100u32).map(|i| i * 7_919).collect();
        let csc =
            sfa_matrix::SparseMatrix::from_columns(n_rows, vec![a.clone(), b.clone()]).unwrap();
        let candidates = vec![CandidatePair::new(0, 1, 0.5)];
        let container_bytes = sfa_matrix::HybridColumns::payload_bytes_for_subset(&csc, &[0, 1]);
        let dense_bytes = 2 * sfa_matrix::bitmap::words_for(n_rows) * 8;
        assert!(
            container_bytes * 100 < dense_bytes,
            "containers must be far smaller: {container_bytes} vs {dense_bytes}"
        );
        // A cap between the two: the old dense accounting would have
        // refused the fast path; the container accounting admits it.
        let cap = dense_bytes / 2;
        let pool = sfa_par::ThreadPool::new(1);
        let (inter, report) = in_memory_intersections(&csc, &candidates, &pool, cap);
        assert!(report.used_containers, "containers fit under {cap}");
        assert_eq!(report.container.container_bytes, container_bytes as u64);
        assert_eq!(report.container.raw_bitmap_bytes, dense_bytes as u64);
        assert!(!report.dispatch_arm.is_empty());
        // Below the actual container bytes the per-pair fallback engages
        // and still produces identical counts.
        let (inter_fb, report_fb) =
            in_memory_intersections(&csc, &candidates, &pool, container_bytes - 1);
        assert!(!report_fb.used_containers);
        assert_eq!(report_fb.container, sfa_matrix::ContainerStats::default());
        assert_eq!(inter, inter_fb);
        assert_eq!(
            inter[0] as usize,
            sfa_matrix::column::intersection_size(&a, &b)
        );
    }

    #[test]
    fn stats_count_partner_probes() {
        let m = matrix();
        let candidates = vec![CandidatePair::new(0, 1, 0.9)];
        let (_, _, probes) =
            verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        // Columns 0 and 1 hold 3 ones each; every occurrence probes its
        // single partner once.
        assert_eq!(probes, 6);
    }

    #[test]
    fn resumed_pass_equals_full_pass_and_rereads_only_the_suffix() {
        let m = matrix(); // 6 rows
        let candidates = vec![CandidatePair::new(0, 1, 0.9), CandidatePair::new(2, 3, 0.5)];
        let full =
            verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();

        // Take checkpoints every 2 rows.
        let mut checkpoints = Vec::new();
        let _ = verify_candidates_resumable(
            &mut MemoryRowStream::new(&m),
            &candidates,
            None,
            2,
            &mut |p| {
                checkpoints.push(p.clone());
                Ok(())
            },
            &CancelToken::default(),
        )
        .unwrap();
        assert_eq!(
            checkpoints.iter().map(|p| p.rows_done).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );

        // Resume from the row-4 snapshot on a fresh stream: the counters
        // must match the uninterrupted pass while only rows 4..6 are read.
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let resumed = verify_candidates_resumable(
            &mut counter,
            &candidates,
            Some(checkpoints[1].clone()),
            u64::MAX,
            &mut |_| Ok(()),
            &CancelToken::default(),
        )
        .unwrap();
        assert_eq!(counter.rows_read(), 2, "only the suffix is re-read");
        assert_eq!(resumed, full);
    }

    #[test]
    fn canceled_pass_flushes_a_frontier_then_returns_canceled() {
        let m = matrix();
        let candidates = vec![CandidatePair::new(0, 1, 0.9)];
        let token = CancelToken::new();
        token.cancel();
        let mut checkpoints = Vec::new();
        let err = verify_candidates_resumable(
            &mut MemoryRowStream::new(&m),
            &candidates,
            None,
            u64::MAX,
            &mut |p| {
                checkpoints.push(p.clone());
                Ok(())
            },
            &token,
        )
        .unwrap_err();
        assert!(err.is_canceled());
        assert_eq!(
            checkpoints.iter().map(|p| p.rows_done).collect::<Vec<_>>(),
            vec![1],
            "the frontier is flushed once, after the first row"
        );
    }

    #[test]
    fn resume_beyond_stream_end_is_a_dimension_mismatch() {
        let m = matrix();
        let progress = VerifyProgress {
            rows_done: 99,
            intersections: vec![0],
            column_counts: vec![0; 4],
            probes: 0,
        };
        let err = verify_candidates_resumable(
            &mut MemoryRowStream::new(&m),
            &[CandidatePair::new(0, 1, 0.9)],
            Some(progress),
            u64::MAX,
            &mut |_| Ok(()),
            &CancelToken::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            sfa_matrix::MatrixError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn disjoint_pair_verifies_to_zero() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0], vec![1]]).unwrap();
        let (verified, _) = verify_candidates(
            &mut MemoryRowStream::new(&m),
            &[CandidatePair::new(0, 1, 0.8)],
        )
        .unwrap();
        assert_eq!(verified[0].intersection, 0);
        assert_eq!(verified[0].similarity, 0.0);
        assert_eq!(verified[0].union, 2);
    }
}
