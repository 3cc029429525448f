//! Phase 3: exact candidate verification in one pass over the rows.
//!
//! "While scanning the table data, maintain for each candidate column-pair
//! `(c_i, c_j)` the counts of the number of rows having a 1 in at least one
//! of the two columns and also the number of rows having a 1 in both
//! columns." We count intersections directly and column cardinalities for
//! the union via `|C_i ∪ C_j| = |C_i| + |C_j| − |C_i ∩ C_j|`.
//!
//! One counting pass serves every pipeline mode. It reads its rows either
//! from a [`RowStream`] ([`verify_candidates_resumable`]) or from the CSR
//! arrays of a table already in memory ([`verify_table_resumable`], which
//! the pipeline's resident runs and [`crate::streaming::StreamingMiner`]
//! use); both feed the same block counter and the same final assembly, so
//! they agree on every pair, count and probe.
//!
//! Cost model of a pass: one step per 1-entry (its column count, and a bit
//! in its column's block line if the column belongs to a candidate), plus
//! one 64-byte AND-popcount per candidate per 512-row block in which the
//! candidate's smaller column holds a 1. A stream also costs a step per
//! row; a resident table does not, so its empty rows are free. The
//! AND-popcounts run on the host's `popcnt` or AVX-512 VPOPCNTDQ
//! instructions when the CPU has them (see `FlushArm`). The reported
//! probe count is Σ over 1-entries of the candidates the entry's
//! column belongs to — a fixed function of the table and the candidate
//! list.

use std::ops::Range;

use sfa_matrix::{MatrixError, Result, RowMajorMatrix, RowStream, SparseMatrix};
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

/// The instructions a [`BlockCounter`] flush popcounts its lines with. All
/// three arms compile one loop body, so they count exactly the same bits.
#[derive(Clone, Copy, Debug)]
enum FlushArm {
    /// `u64::count_ones` as the baseline target compiles it (a software
    /// popcount on baseline x86-64).
    Portable,
    /// The same loop compiled for the `popcnt` instruction.
    Popcnt,
    /// The same loop compiled for AVX-512 VPOPCNTDQ, where one line is one
    /// 512-bit register.
    Avx512,
}

impl FlushArm {
    /// Whether this CPU runs the arm.
    fn supported(self) -> bool {
        match self {
            Self::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Self::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Self::Popcnt | Self::Avx512 => false,
        }
    }

    /// The best arm this CPU runs.
    fn select() -> Self {
        [Self::Avx512, Self::Popcnt]
            .into_iter()
            .find(|arm| arm.supported())
            .unwrap_or(Self::Portable)
    }
}

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
    /// Per slot: whether the slot is in `seen`.
    in_seen: Vec<bool>,
    /// Chosen once, when the counter is built.
    arm: FlushArm,
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
            in_seen: vec![false; slots],
            arm: FlushArm::select(),
        }
    }

    /// The slot of `col`, if a candidate touches it.
    #[inline]
    fn slot(&self, col: u32) -> Option<usize> {
        let s = self.slot_of[col as usize];
        (s != u32::MAX).then_some(s as usize)
    }

    /// Records a 1 in slot `s` at row `row` of the current block; returns
    /// the number of candidates the slot's column belongs to (the entry's
    /// probe charge).
    #[inline]
    fn set(&mut self, s: usize, row: u64) -> u64 {
        if !self.in_seen[s] {
            self.in_seen[s] = true;
            self.seen.push(s as u32);
        }
        let bit = row % BLOCK_ROWS;
        self.lines[s].0[(bit / 64) as usize] |= 1 << (bit % 64);
        u64::from(self.degree[s])
    }

    /// Adds the current block's intersections into `intersections` and
    /// clears the block, on the counter's [`FlushArm`].
    fn flush(&mut self, intersections: &mut [u32]) {
        match self.arm {
            // SAFETY: `FlushArm::select` picks an x86 arm only when
            // `supported` reports its features on this CPU, and so must
            // anything else that sets `arm`.
            #[cfg(target_arch = "x86_64")]
            FlushArm::Avx512 => unsafe { self.flush_avx512(intersections) },
            #[cfg(target_arch = "x86_64")]
            FlushArm::Popcnt => unsafe { self.flush_popcnt(intersections) },
            _ => self.flush_lines(intersections),
        }
    }

    /// [`Self::flush_lines`] compiled for `popcnt`; to be called only where
    /// [`FlushArm::Popcnt`] is supported.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn flush_popcnt(&mut self, intersections: &mut [u32]) {
        self.flush_lines(intersections);
    }

    /// [`Self::flush_lines`] compiled for AVX-512 VPOPCNTDQ; to be called
    /// only where [`FlushArm::Avx512`] is supported.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn flush_avx512(&mut self, intersections: &mut [u32]) {
        self.flush_lines(intersections);
    }

    /// The one flush body: inlined into each arm, so each compiles it for
    /// its own target features.
    #[inline(always)]
    fn flush_lines(&mut self, intersections: &mut [u32]) {
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
            self.in_seen[s as usize] = false;
        }
        self.seen.clear();
    }
}

/// Assembles the sorted [`VerifiedPair`] list from per-candidate
/// intersections and per-column counts — the single definition every
/// verification path (the counting pass and the container verifier)
/// funnels through, so their outputs are identical by construction.
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
    let mut rows = Streamed {
        stream,
        buf: Vec::new(),
    };
    count_pass(
        &mut rows,
        m,
        candidates,
        resume,
        every_rows,
        on_checkpoint,
        cancel,
    )
}

/// [`verify_candidates_resumable`] over a table already in memory: the
/// same counters, checkpoints and output as a pass over a stream of
/// `table`, without copying a row. Between two rows where the pass may
/// flush, checkpoint or poll (each 512-row block end and each checkpoint
/// row) it walks the rows' 1s back to back in the table's CSR arrays, so
/// empty rows cost nothing. `cancel` is polled once per 512-row block.
///
/// # Errors
///
/// As [`verify_candidates_resumable`], minus stream errors.
///
/// # Panics
///
/// As [`verify_candidates_resumable`].
pub fn verify_table_resumable(
    table: &RowMajorMatrix,
    candidates: &[CandidatePair],
    resume: Option<VerifyProgress>,
    every_rows: u64,
    on_checkpoint: &mut dyn FnMut(&VerifyProgress) -> Result<()>,
    cancel: &CancelToken,
) -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let mut rows = Slices { table, next: 0 };
    count_pass(
        &mut rows,
        table.n_cols() as usize,
        candidates,
        resume,
        every_rows,
        on_checkpoint,
        cancel,
    )
}

/// What a counting pass folds its 1-entries into.
struct Tally {
    counter: BlockCounter,
    /// Per-column 1-counts.
    column_counts: Vec<u32>,
    /// Σ over the 1-entries folded in of their columns' candidate counts.
    probes: u64,
}

impl Tally {
    /// Folds in a 1 in `col`; `row` yields its row, asked for only when a
    /// candidate touches `col`.
    #[inline]
    fn add(&mut self, col: u32, row: impl FnOnce() -> u64) {
        self.column_counts[col as usize] += 1;
        if let Some(s) = self.counter.slot(col) {
            self.probes += self.counter.set(s, row());
        }
    }
}

/// Where a counting pass reads its rows.
trait Rows {
    /// Whether cancellation is polled after every row; otherwise once per
    /// block.
    const POLL_EVERY_ROW: bool;

    /// Skips `count` rows; returns how many there were.
    fn skip(&mut self, count: u64) -> Result<u64>;

    /// Folds rows `rows` (the next ones to read) into `tally`; returns how
    /// many there were, fewer than asked at the end of the rows.
    fn fold(&mut self, rows: Range<u64>, tally: &mut Tally) -> Result<u64>;
}

/// A stream's rows, read into one reused buffer.
struct Streamed<'s, S> {
    stream: &'s mut S,
    buf: Vec<u32>,
}

impl<S: RowStream> Rows for Streamed<'_, S> {
    const POLL_EVERY_ROW: bool = true;

    fn skip(&mut self, count: u64) -> Result<u64> {
        self.stream.skip_rows(count)
    }

    fn fold(&mut self, rows: Range<u64>, tally: &mut Tally) -> Result<u64> {
        let mut row = rows.start;
        while row < rows.end && self.stream.read_row(&mut self.buf)?.is_some() {
            for &col in &self.buf {
                tally.add(col, || row);
            }
            row += 1;
        }
        Ok(row - rows.start)
    }
}

/// A resident table's rows, read in place.
struct Slices<'m> {
    table: &'m RowMajorMatrix,
    next: u32,
}

impl Rows for Slices<'_> {
    const POLL_EVERY_ROW: bool = false;

    fn skip(&mut self, count: u64) -> Result<u64> {
        let skipped = count.min(u64::from(self.table.n_rows() - self.next));
        self.next += skipped as u32;
        Ok(skipped)
    }

    /// Walks the rows' 1s back to back in the CSR column ids, not row by
    /// row: on a sparse table most rows are empty, and a per-row loop
    /// mispredicts on every row's length. The row pointers place a 1 in
    /// its row only when a candidate touches its column.
    fn fold(&mut self, rows: Range<u64>, tally: &mut Tally) -> Result<u64> {
        debug_assert_eq!(rows.start, u64::from(self.next));
        let (row_ptr, col_idx) = self.table.csr();
        let start = self.next as usize;
        let end = rows.end.min(u64::from(self.table.n_rows())) as usize;
        let entries = row_ptr[start]..row_ptr[end];
        // `row` holds entry `e` while `e < row_end`.
        let (mut row, mut row_end) = (start, row_ptr[start]);
        for (e, &col) in entries.clone().zip(&col_idx[entries]) {
            tally.add(col, || {
                if e >= row_end {
                    while row_ptr[row + 1] <= e {
                        row += 1;
                    }
                    row_end = row_ptr[row + 1];
                }
                row as u64
            });
        }
        self.next = end as u32;
        Ok((end - start) as u64)
    }
}

/// The one counting pass behind both feeders.
fn count_pass<R: Rows>(
    rows: &mut R,
    m: usize,
    candidates: &[CandidatePair],
    resume: Option<VerifyProgress>,
    every_rows: u64,
    on_checkpoint: &mut dyn FnMut(&VerifyProgress) -> Result<()>,
    cancel: &CancelToken,
) -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let (mut rows_done, mut intersections, column_counts, probes) = match resume {
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
            let skipped = rows.skip(p.rows_done)?;
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
    let mut tally = Tally {
        counter: BlockCounter::new(m, candidates),
        column_counts,
        probes,
    };
    // The next row count on the checkpoint cadence, kept instead of a
    // per-row division.
    let mut next_checkpoint = (rows_done / every_rows + 1).saturating_mul(every_rows);
    let mut cancel = cancel.throttled(if R::POLL_EVERY_ROW {
        CANCEL_POLL_STRIDE
    } else {
        1
    });
    loop {
        // Fold up to the next row that may flush, poll or checkpoint: the
        // next row of a stream, the next block end or checkpoint row of a
        // resident table.
        let stop = if R::POLL_EVERY_ROW {
            rows_done + 1
        } else {
            ((rows_done / BLOCK_ROWS + 1) * BLOCK_ROWS).min(next_checkpoint)
        };
        rows_done += rows.fold(rows_done..stop, &mut tally)?;
        if rows_done < stop {
            break;
        }
        let block_done = rows_done % BLOCK_ROWS == 0;
        let canceled = (R::POLL_EVERY_ROW || block_done) && cancel.is_canceled();
        let checkpoint = rows_done == next_checkpoint || canceled;
        if checkpoint || block_done {
            tally.counter.flush(&mut intersections);
        }
        if checkpoint {
            next_checkpoint = next_checkpoint.saturating_add(every_rows);
            on_checkpoint(&VerifyProgress {
                rows_done,
                intersections: intersections.clone(),
                column_counts: tally.column_counts.clone(),
                probes: tally.probes,
            })?;
        }
        if canceled {
            cancel.check()?;
        }
    }
    tally.counter.flush(&mut intersections);
    let verified = assemble_verified(candidates, &intersections, &tally.column_counts);
    Ok((verified, tally.column_counts, tally.probes))
}

/// Memory budget for the container verifier: the materialized hybrid
/// containers for the candidate-touched columns may use at most this
/// much payload. The charge is the *actual* container bytes
/// ([`sfa_matrix::HybridColumns::payload_bytes_for_subset`]), not the
/// dense `⌈n/64⌉ · 8` bitmap bytes the pre-container accounting
/// assumed, so compressed columns raise the effective capacity. Past
/// the cap, each pair falls back to the adaptive per-pair kernel,
/// which needs no extra memory.
const IN_MEMORY_CONTAINER_CAP_BYTES: usize = 256 << 20;

/// What the container verifier's kernel layer did for one call. The
/// benchmark's phase-3 probe reads it; no pipeline path produces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InMemoryKernelReport {
    /// The CPU's kernel arm (`"scalar"` | `"avx2"`).
    pub dispatch_arm: &'static str,
    /// Whether hybrid containers were materialized (false = the
    /// candidate columns busted the cap and the per-pair adaptive
    /// kernel ran instead).
    pub used_containers: bool,
    /// Container tallies of the materialized columns (all zero when
    /// `used_containers` is false).
    pub container: sfa_matrix::ContainerStats,
}

/// The container verifier, kept as the benchmark's phase-3 probe: no
/// pipeline path calls it (every run counts with the block counter).
///
/// Verifies candidates directly against a resident
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
/// 256 MiB (`IN_MEMORY_CONTAINER_CAP_BYTES`), each pair falls back to the
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
        let mut counter = sfa_matrix::ScanCounter::new(MemoryRowStream::new(&m));
        let _ = verify_candidates(&mut counter, &[CandidatePair::new(0, 1, 1.0)]).unwrap();
        assert_eq!(counter.pass_scans().len(), 1);
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
        let mut counter = sfa_matrix::ScanCounter::new(MemoryRowStream::new(&m));
        let resumed = verify_candidates_resumable(
            &mut counter,
            &candidates,
            Some(checkpoints[1].clone()),
            u64::MAX,
            &mut |_| Ok(()),
            &CancelToken::default(),
        )
        .unwrap();
        let rows_read: u64 = counter.pass_scans().iter().map(|pass| pass.rows).sum();
        assert_eq!(rows_read, 2, "only the suffix is re-read");
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

    /// A seeded 9-column table whose column 8 no candidate touches: a
    /// fifth of the rows empty, the rest at a per-column density.
    fn drawn_table(n_rows: u32, seed: u64) -> RowMajorMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let density: Vec<f64> = (0..9).map(|_| rng.gen_range(0.02..0.6)).collect();
        let rows = (0..n_rows)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    return Vec::new();
                }
                (0..9u32)
                    .filter(|&c| rng.gen_bool(density[c as usize]))
                    .collect()
            })
            .collect();
        RowMajorMatrix::from_rows(9, rows).unwrap()
    }

    /// A pass's verified pairs, column counts and probes.
    type Pass = Result<(Vec<VerifiedPair>, Vec<u32>, u64)>;

    /// A slice pass with the given resume point and cadence, plus every
    /// checkpoint it wrote.
    fn slice_pass(
        m: &RowMajorMatrix,
        candidates: &[CandidatePair],
        resume: Option<VerifyProgress>,
        every_rows: u64,
        cancel: &CancelToken,
    ) -> (Pass, Vec<VerifyProgress>) {
        let mut checkpoints = Vec::new();
        let out = verify_table_resumable(
            m,
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The slice feeder against a column oracle, at row counts around
        /// the 512-row block edges, with duplicate candidates and an
        /// untouched column; every checkpoint resumes to the full pass,
        /// which also equals the streamed pass.
        #[test]
        fn slice_feeder_matches_a_column_oracle(seed in proptest::prelude::any::<u64>()) {
            let candidates: Vec<CandidatePair> = (0..8u32)
                .flat_map(|i| (i + 1..8).map(move |j| CandidatePair::new(i, j, 0.5)))
                .chain([CandidatePair::new(0, 1, 0.9), CandidatePair::new(2, 5, 0.1)])
                .collect();
            for n_rows in [0, 1, 511, 512, 513, 1537] {
                let m = drawn_table(n_rows, seed ^ u64::from(n_rows));
                let columns = m.transpose();
                let never = CancelToken::default();
                let (full, none) = slice_pass(&m, &candidates, None, u64::MAX, &never);
                let full = full.unwrap();
                proptest::prop_assert!(none.is_empty());
                let counts: Vec<u32> = (0..9).map(|c| columns.column_count(c) as u32).collect();
                proptest::prop_assert_eq!(&full.1, &counts);
                let probes: u64 = candidates
                    .iter()
                    .map(|c| u64::from(counts[c.i as usize] + counts[c.j as usize]))
                    .sum();
                proptest::prop_assert_eq!(full.2, probes);
                let mut ids: Vec<(u32, u32)> = candidates.iter().map(|c| (c.i, c.j)).collect();
                ids.sort_unstable();
                proptest::prop_assert_eq!(full.0.iter().map(|p| (p.i, p.j)).collect::<Vec<_>>(), ids);
                for p in &full.0 {
                    let inter = columns.intersection_size(p.i, p.j) as u32;
                    proptest::prop_assert_eq!(p.intersection, inter);
                    proptest::prop_assert_eq!(p.union, counts[p.i as usize] + counts[p.j as usize] - inter);
                }
                let streamed =
                    verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
                proptest::prop_assert_eq!(&streamed, &full);
                for every_rows in [7u64, 300] {
                    let (out, checkpoints) = slice_pass(&m, &candidates, None, every_rows, &never);
                    proptest::prop_assert_eq!(&out.unwrap(), &full);
                    let frontiers: Vec<u64> = checkpoints.iter().map(|p| p.rows_done).collect();
                    let expected: Vec<u64> =
                        (1..=u64::from(n_rows) / every_rows).map(|k| k * every_rows).collect();
                    proptest::prop_assert_eq!(frontiers, expected);
                    for p in checkpoints {
                        let (resumed, _) = slice_pass(&m, &candidates, Some(p), every_rows, &never);
                        proptest::prop_assert_eq!(&resumed.unwrap(), &full);
                    }
                }
            }
        }
    }

    #[test]
    fn canceled_slice_pass_flushes_a_frontier_at_the_first_block_end() {
        let m = drawn_table(1537, 5);
        let candidates = vec![CandidatePair::new(0, 1, 0.9), CandidatePair::new(3, 4, 0.2)];
        let token = CancelToken::new();
        token.cancel();
        let (out, checkpoints) = slice_pass(&m, &candidates, None, u64::MAX, &token);
        assert!(out.unwrap_err().is_canceled());
        assert_eq!(
            checkpoints.iter().map(|p| p.rows_done).collect::<Vec<_>>(),
            vec![512],
            "a resident pass polls once per 512-row block"
        );
        let (resumed, _) = slice_pass(
            &m,
            &candidates,
            checkpoints.into_iter().next(),
            u64::MAX,
            &CancelToken::default(),
        );
        let full =
            verify_candidates_with_stats(&mut MemoryRowStream::new(&m), &candidates).unwrap();
        assert_eq!(resumed.unwrap(), full);
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

    /// Two blocks of one counter's lines, flushed on `arm`: columns 0..12
    /// hold random bits, 12..16 all ones, 16..20 nothing. Returns the
    /// intersections after each block.
    fn flushed_blocks(arm: FlushArm, candidates: &[CandidatePair]) -> Vec<Vec<u32>> {
        use rand::{Rng, SeedableRng};
        let mut counter = BlockCounter::new(20, candidates);
        counter.arm = arm;
        let mut intersections = vec![0u32; candidates.len()];
        (0..2u64)
            .map(|block| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(block);
                for col in 0..16u32 {
                    let density = rng.gen_range(0.01..0.99);
                    let s = counter.slot(col).expect("every column is a candidate's");
                    for row in block * BLOCK_ROWS..(block + 1) * BLOCK_ROWS {
                        if col >= 12 || rng.gen_bool(density) {
                            counter.set(s, row);
                        }
                    }
                }
                counter.flush(&mut intersections);
                intersections.clone()
            })
            .collect()
    }

    #[test]
    fn every_flush_arm_counts_the_portable_intersections() {
        // Column 0 shares its slot with a candidate per other column, and
        // every kind of line meets every other kind.
        let candidates: Vec<CandidatePair> = (1..20u32)
            .map(|j| CandidatePair::new(0, j, 0.5))
            .chain(
                [(3, 7), (5, 12), (12, 13), (9, 17), (14, 18), (16, 19)]
                    .map(|(i, j)| CandidatePair::new(i, j, 0.5)),
            )
            .collect();
        let portable = flushed_blocks(FlushArm::Portable, &candidates);
        // All ones against all ones: the whole block, once per block.
        assert_eq!(portable[1][candidates.len() - 4], 2 * BLOCK_ROWS as u32);
        // Against an empty line: nothing.
        for (c, inter) in candidates.iter().zip(&portable[1]) {
            if c.i >= 16 || c.j >= 16 {
                assert_eq!(*inter, 0, "({}, {})", c.i, c.j);
            }
        }
        let mut skipped = Vec::new();
        for arm in [FlushArm::Popcnt, FlushArm::Avx512] {
            if arm.supported() {
                assert_eq!(flushed_blocks(arm, &candidates), portable, "{arm:?}");
            } else {
                skipped.push(arm);
            }
        }
        println!("flush arms this CPU does not run, skipped: {skipped:?}");
    }
}
