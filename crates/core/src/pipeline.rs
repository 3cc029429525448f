//! The pipeline driver: signatures → candidates → exact verification.
//!
//! Every run mode goes through one driver. Its input is *streamed* (a
//! [`RowStream`] read for phase 1 and once per verified chunk) or
//! *resident*: a table in memory, the caller's ([`Pipeline::run_pool`]) or
//! read once from the stream ([`Pipeline::with_threads`]), sketched and
//! indexed on a pool. Phase 2 walks the bucket index once, and phase 3
//! counts each chunk of candidates with one block-counter pass over the
//! stream or the resident row slices, so chunks, spills, checkpoints and
//! cancellation work the same for both inputs.

use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

use sfa_lsh::{hlsh_generator, mlsh_generator, HLshParams, MLshParams};
use sfa_matrix::{MatrixError, Result, RowMajorMatrix, RowStream, ScanCounter};
use sfa_minhash::hashcount::{kmh_generator, mh_generator};
use sfa_minhash::rowsort::rowsort_generator;
use sfa_minhash::{
    compute_bottom_k, compute_bottom_k_pool, compute_signatures, compute_signatures_pool,
    BottomKSignatures, CandidateGen, CandidatePair, KmhBuilder, MhBuilder, SignatureMatrix,
};
use sfa_par::ThreadPool;

use crate::checkpoint::{self, CheckpointSpec, Phase1State, RunKey};
use crate::config::{PipelineConfig, Scheme};
use crate::durable;
use crate::metrics::{
    MiningMetrics, PassMetrics, Phase1Metrics, RecoveryMetrics, ShardingMetrics, VerifyMetrics,
};
use crate::report::{MiningResult, PhaseTimings, VerifiedPair};
use crate::shutdown::{CancelToken, CANCEL_POLL_STRIDE};
use crate::sigcache::SignatureCache;
use crate::spill;
use crate::verify::{verify_candidates_resumable, verify_table_resumable, VerifyProgress};

/// Seed-derivation labels, so each pipeline component gets an independent
/// stream from the one root seed.
mod purpose {
    pub const SIGNATURES: u64 = 1;
    pub const LSH: u64 = 2;
}

/// Phase-1 provenance for `metrics.phase1`: the CPU's kernel arm, which
/// MH's min-merge runs on, plus the cache disposition.
fn phase1_provenance(cache_hit: bool, cache_stored: bool) -> Phase1Metrics {
    Phase1Metrics {
        dispatch_arm: sfa_matrix::kernel::arm_name().to_owned(),
        cache_hit,
        cache_stored,
    }
}

/// Runs the configured scheme end to end over a row stream.
///
/// # Examples
///
/// ```
/// use sfa_core::{Pipeline, PipelineConfig, Scheme};
/// use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
///
/// let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1]; 12]).unwrap();
/// let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 7);
/// let result = Pipeline::new(cfg)
///     .run(&mut MemoryRowStream::new(&m))
///     .unwrap();
/// let pairs = result.similar_pairs();
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].i, pairs[0].j), (0, 1));
/// assert_eq!(pairs[0].similarity, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    signature_cache: Option<SignatureCache>,
    cancel: Option<CancelToken>,
    threads: Option<usize>,
}

impl Pipeline {
    /// Wraps a configuration.
    #[must_use]
    pub const fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            signature_cache: None,
            cancel: None,
            threads: None,
        }
    }

    /// Consults and populates a [`SignatureCache`] rooted at `dir` for
    /// every phase-1 sketch this pipeline builds: a hit skips the
    /// signature pass entirely (output stays byte-identical — min-hash
    /// sketches are a pure function of the cache key), a miss computes
    /// and stores. One cache directory serves one dataset; see
    /// [`crate::sigcache`] for the keying contract.
    #[must_use]
    pub fn with_signature_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.signature_cache = Some(SignatureCache::new(dir));
        self
    }

    /// Polls `cancel` in every run over a [`RowStream`]: before phase 1 (a
    /// checkpointed streamed sketch pass polls per row instead), at every
    /// chunk boundary, and in phase 3 per streamed row or per 512-row
    /// resident block. When it fires, a checkpointed pass flushes its
    /// frontier first and the run returns [`MatrixError::Canceled`].
    /// [`run_pool`](Self::run_pool) always runs to completion.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Makes every run over a [`RowStream`] resident: the stream is read
    /// into memory once and phases 1 and 2 run on `n_threads` workers (`0`
    /// sizes the pool from the machine). Output is byte-identical to the
    /// streamed run; a resident run keeps no phase-1 checkpoint.
    #[must_use]
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.threads = Some(n_threads);
        self
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Classifies verified pairs against the `s*` threshold and packs the
    /// phase-3 counters.
    fn verification_metrics(&self, verified: &[VerifiedPair], probes: u64) -> VerifyMetrics {
        let true_positives = verified
            .iter()
            .filter(|p| p.similarity >= self.config.s_star)
            .count() as u64;
        VerifyMetrics {
            candidates_checked: verified.len() as u64,
            true_positives,
            false_positives_pruned: verified.len() as u64 - true_positives,
            intersection_work: probes,
        }
    }

    /// Runs the full three-phase pipeline.
    ///
    /// # Errors
    ///
    /// Propagates stream errors; returns [`MatrixError::Canceled`] when
    /// the [`with_cancel`](Self::with_cancel) token fires.
    pub fn run<S: RowStream>(&self, stream: &mut S) -> Result<MiningResult> {
        self.run_stream(stream, None, None)
    }

    /// [`run`](Self::run) with checkpoint/resume: both passes persist
    /// their partial state into `spec.dir` every `spec.every_rows` rows
    /// (phase 1 checkpoints the signature builder, phase 3 the verification
    /// frontier), so a rerun after a crash fast-forwards past the
    /// checkpointed prefix and re-reads only the unprocessed suffix.
    ///
    /// Output is byte-identical to an uninterrupted [`run`](Self::run);
    /// `metrics.recovery` reports how many checkpoints were written and the
    /// row cursor a resumed run continued from. Checkpoints are tied to the
    /// exact `(configuration, table)` pair — stale or mismatched state is
    /// ignored, never resumed into — and are deleted once the run
    /// completes. H-LSH and resident runs (see
    /// [`with_threads`](Self::with_threads)) keep no phase-1 state, so they
    /// checkpoint phase 3 only; a streamed run's phase-3 frontier resumes
    /// under a resident rerun, and the reverse.
    ///
    /// Before any work, the checkpoint directory is swept by the startup
    /// recovery of [`durable`]: stray `.tmp` files are deleted and corrupt
    /// or stale checkpoints quarantined (reported in `metrics.recovery`).
    ///
    /// # Errors
    ///
    /// Propagates stream and checkpoint-IO errors; returns
    /// [`MatrixError::Canceled`] when the token fires.
    pub fn run_resumable<S: RowStream>(
        &self,
        stream: &mut S,
        spec: &CheckpointSpec,
    ) -> Result<MiningResult> {
        self.run_stream(stream, None, Some(spec))
    }

    /// Parallel in-memory run: phases 1 and 2 of every scheme run on a
    /// pool of `n_threads` workers (`0` sizes it from the machine;
    /// `metrics.threads` records the count) and phase 3 counts over the
    /// table's rows in place. Output is byte-identical to
    /// [`run`](Self::run) for every scheme at every thread count.
    #[must_use]
    pub fn run_parallel(&self, matrix: &RowMajorMatrix, n_threads: usize) -> MiningResult {
        self.run_pool(matrix, &ThreadPool::new(n_threads))
    }

    /// [`run_parallel`](Self::run_parallel) over a caller-owned pool, so
    /// several runs (e.g. a benchmark sweep) can share one set of workers:
    /// the driver's resident case without a budget or checkpoint.
    #[must_use]
    pub fn run_pool(&self, matrix: &RowMajorMatrix, pool: &ThreadPool) -> MiningResult {
        self.drive(
            Input::<sfa_matrix::MemoryRowStream>::Resident(matrix, pool),
            None,
            None,
            &CancelToken::default(),
        )
        .expect("a resident run with no budget, checkpoint or cancel token cannot fail")
    }

    /// Runs the pipeline with its pair-space state capped at
    /// `budget.bytes`, verifying the candidates in chunks and spilling each
    /// chunk's result.
    ///
    /// Phase 2 walks the scheme's bucket index once, cutting the candidates
    /// into chunks whose verify state (64 bytes per candidate) fits the
    /// budget. Each chunk is verified by one pass over the table and its
    /// result spilled to `budget.spill_dir` as a checksummed `.sfsp` file.
    ///
    /// Output is **byte-identical** to [`run`](Self::run): the chunks
    /// partition the candidate list of the unbudgeted generator, stage
    /// counters and histogram come from the same walk, and the final merge
    /// sorts verified pairs into the same `(i, j)` order. `metrics.sharding`
    /// reports the chunk count (`shards`), the single generation pass,
    /// spill volume and the largest chunk's verify state; `metrics`
    /// `index_bytes` the resident bucket index. With `checkpoint` given,
    /// the passes also checkpoint (resume semantics as
    /// [`run_resumable`](Self::run_resumable)); a rerun rebuilds the index
    /// without reading the table, recounts, and loads every finished
    /// chunk's result by candidate fingerprint, so it rescans at most the
    /// interrupted chunk. The spill directory is swept like the checkpoint
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates stream and spill-IO errors, reports a budget below
    /// [`MemoryBudget::MIN_BYTES`] as [`MatrixError::DimensionMismatch`],
    /// and returns [`MatrixError::Canceled`] when the token fires.
    pub fn run_sharded<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<MiningResult> {
        self.run_stream(stream, Some(budget), checkpoint)
    }

    /// The driver over a stream, under this pipeline's cancel token.
    fn run_stream<S: RowStream>(
        &self,
        stream: &mut S,
        budget: Option<&MemoryBudget>,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<MiningResult> {
        let never = CancelToken::default();
        let cancel = self.cancel.as_ref().unwrap_or(&never);
        self.drive(
            Input::Stream(ScanCounter::new(stream)),
            budget,
            checkpoint,
            cancel,
        )
    }

    /// The one driver behind every `run*` entry point (see the module
    /// docs). Without a budget the single chunk holds every candidate and
    /// nothing is spilled; with one, each chunk holds at most
    /// `budget.bytes / 64` candidates and its result is spilled.
    fn drive<S: RowStream>(
        &self,
        input: Input<'_, S>,
        budget: Option<&MemoryBudget>,
        checkpoint: Option<&CheckpointSpec>,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        if let Some(budget) = budget.filter(|b| b.bytes < MemoryBudget::MIN_BYTES) {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "memory budget of {} bytes is below the {}-byte minimum (three candidates' verify state)",
                    budget.bytes,
                    MemoryBudget::MIN_BYTES
                ),
            });
        }
        let (n_rows, n_cols) = match &input {
            Input::Stream(scan) => (scan.n_rows(), scan.n_cols()),
            Input::Resident(table, _) => (table.n_rows(), table.n_cols()),
        };
        let key = RunKey::new(&self.config, n_rows, n_cols);
        let mut recovery = RecoveryMetrics::default();
        let spill_dir = budget.map(|b| b.spill_dir.as_path());
        let checkpoint_dir = checkpoint
            .map(|spec| spec.dir.as_path())
            .filter(|&dir| spill_dir != Some(dir));
        for dir in spill_dir.into_iter().chain(checkpoint_dir) {
            let recovered = durable::recover_dir(dir, key)?;
            recovery.files_quarantined += recovered.files_quarantined;
            recovery.tmp_files_removed += recovered.tmp_files_removed;
        }
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: self.config.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };

        // Phase 1. A checkpointed streamed sketch pass polls `cancel` after
        // every row; any other pass is preceded by one check.
        let resident = self.threads.is_some() || matches!(input, Input::Resident(..));
        if resident || checkpoint.is_none() || matches!(self.config.scheme, Scheme::HLsh { .. }) {
            cancel.check()?;
        }
        let t = Instant::now();
        // A stream run that asked for workers reads its table once.
        let (table, workers);
        let mut input = match (input, self.threads) {
            (Input::Stream(mut scan), Some(n)) => {
                table = RowMajorMatrix::from_stream(&mut scan, usize::MAX)?;
                workers = ThreadPool::new(n);
                Input::Resident(&table, &workers)
            }
            (input, _) => input,
        };
        let (mut summary, phase1) = match &mut input {
            Input::Stream(scan) => self.streamed_phase1(
                scan,
                budget.is_some(),
                checkpoint.map(|spec| (spec, key)),
                &mut recovery,
                cancel,
            )?,
            Input::Resident(table, pool) => {
                let seed = self.sig_seed();
                self.cached(n_rows, n_cols, |sketch| {
                    Ok(match sketch {
                        Sketch::MinHash(k) => {
                            Phase1Summary::Sigs(compute_signatures_pool(table, k, seed, pool))
                        }
                        Sketch::BottomK(k) => {
                            Phase1Summary::BottomK(compute_bottom_k_pool(table, k, seed, pool))
                        }
                        Sketch::Table => Phase1Summary::Table(Cow::Borrowed(*table)),
                    })
                })?
            }
        };
        timings.signatures = t.elapsed();
        metrics.phase1 = phase1;
        metrics.signature_bytes = summary.heap_bytes();

        // Phase 3, one chunk at a time: a chunk's result is loaded from its
        // spill, or counted by one pass over the rows (resumed from a
        // matching checkpoint) and then spilled.
        let mut verified = Vec::new();
        let mut column_counts = vec![0u32; n_cols as usize];
        let mut probes = 0u64;
        let mut spill_bytes = 0u64;
        let mut peak_tracked_bytes = 0u64;
        let one_worker = ThreadPool::new(1);
        let pool = match &input {
            Input::Stream(_) => &one_worker,
            Input::Resident(_, pool) => *pool,
        };
        let mut verify_chunk = |index: usize, chunk: Vec<CandidatePair>| -> Result<()> {
            // Chunk boundary: every earlier chunk's result is spilled.
            cancel.check()?;
            metrics.candidates_generated += chunk.len() as u64;
            peak_tracked_bytes =
                peak_tracked_bytes.max(chunk.len() as u64 * VERIFY_BYTES_PER_CANDIDATE);
            let t = Instant::now();
            // Spills and checkpoints are tied to the exact candidate list
            // by its fingerprint; a run keeping neither needs none.
            let fp = if budget.is_some() || checkpoint.is_some() {
                checkpoint::candidates_fingerprint(&chunk)
            } else {
                0
            };
            let spilled =
                budget.and_then(|b| spill::load_group_result(&b.spill_dir, key, index, fp));
            let (chunk_verified, chunk_counts, chunk_probes) = match spilled {
                Some(result) => result,
                None => {
                    let resume = checkpoint.and_then(|spec| checkpoint::load_phase3(spec, key, fp));
                    if let Some(s) = &resume {
                        recovery.resumed_from_row =
                            recovery.resumed_from_row.max(s.progress.rows_done);
                    }
                    let resume = resume.map(|s| s.progress);
                    let every_rows = checkpoint.map_or(u64::MAX, |spec| spec.every_rows);
                    let mut save = |p: &VerifyProgress| {
                        if let Some(spec) = checkpoint {
                            checkpoint::save_phase3(spec, key, fp, p)?;
                            recovery.checkpoints_written += 1;
                        }
                        Ok(())
                    };
                    let result = match &mut input {
                        Input::Stream(scan) => {
                            scan.reset()?;
                            verify_candidates_resumable(
                                scan, &chunk, resume, every_rows, &mut save, cancel,
                            )?
                        }
                        Input::Resident(table, _) => verify_table_resumable(
                            table, &chunk, resume, every_rows, &mut save, cancel,
                        )?,
                    };
                    if let Some(b) = budget {
                        spill_bytes += spill::save_group_result(
                            &b.spill_dir,
                            key,
                            index,
                            fp,
                            &result.0,
                            &result.1,
                            result.2,
                        )?;
                    }
                    result
                }
            };
            // The first chunk's list is taken over, not copied.
            if verified.is_empty() {
                verified = chunk_verified;
            } else {
                verified.extend(chunk_verified);
            }
            // Every chunk's pass counts all columns, so the vectors agree;
            // max keeps the merge idempotent.
            for (acc, v) in column_counts.iter_mut().zip(&chunk_counts) {
                *acc = (*acc).max(*v);
            }
            probes += chunk_probes;
            timings.verify += t.elapsed();
            Ok(())
        };

        // Phase 2: one walk of the bucket index, built on the run's pool.
        let t = Instant::now();
        let generator = self.generator(&mut summary, pool);
        metrics.index_bytes = budget.map(|_| generator.index().heap_bytes());
        let (stats, chunks) = if resident && budget.is_none() {
            let (candidates, stats) = generator.generate(pool);
            // Phase 3 needs only the rows: free the summary first.
            drop(generator);
            drop(summary);
            timings.candidates = t.elapsed();
            verify_chunk(0, candidates)?;
            (stats, 1)
        } else {
            let capacity = budget.map_or(usize::MAX, |b| {
                (b.bytes / VERIFY_BYTES_PER_CANDIDATE as usize).max(1)
            });
            let mut walk = generator.stream();
            timings.candidates = t.elapsed();
            // Walked candidates not yet verified. A focus column's candidates
            // are walked whole and split across chunk boundaries as needed.
            let mut pending = Vec::new();
            let mut walking = true;
            let mut chunks = 0;
            loop {
                let t = Instant::now();
                while walking && pending.len() < capacity {
                    walking = walk.next_column(&mut pending);
                }
                // A chunk that takes every pending candidate takes the
                // vector itself, so an unbudgeted run never copies them.
                let chunk: Vec<CandidatePair> = if pending.len() <= capacity {
                    std::mem::take(&mut pending)
                } else {
                    pending.drain(..capacity).collect()
                };
                timings.candidates += t.elapsed();
                // Every run verifies at least one chunk: the pass also
                // counts the columns.
                if chunk.is_empty() && chunks > 0 {
                    break;
                }
                verify_chunk(chunks, chunk)?;
                chunks += 1;
            }
            (walk.stats(), chunks)
        };
        metrics.absorb_candidate_stats(stats);
        verified.sort_by_key(|p| (p.i, p.j));

        match &input {
            Input::Stream(scan) => {
                let passes = scan.pass_scans();
                metrics.signature_pass = passes[0].into();
                metrics.verify_pass = PassMetrics {
                    rows_scanned: passes[1..].iter().map(|p| p.rows).sum(),
                    nonzeros_scanned: passes[1..].iter().map(|p| p.nonzeros).sum(),
                };
            }
            // A resident table is read once, by phase 1 or by the caller,
            // and phase 3 counts over it in place: both passes report it.
            Input::Resident(table, pool) => {
                let read = PassMetrics {
                    rows_scanned: u64::from(table.n_rows()),
                    nonzeros_scanned: table.nnz() as u64,
                };
                metrics.signature_pass = read;
                metrics.verify_pass = read;
                metrics.threads = pool.threads() as u64;
            }
        }
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        if let Some(b) = budget {
            metrics.sharding = Some(ShardingMetrics {
                memory_budget: b.bytes as u64,
                shards: chunks as u64,
                shard_restarts: 0,
                generation_passes: 1,
                verify_groups: chunks as u64,
                spill_bytes,
                peak_tracked_bytes,
            });
            spill::clear(&b.spill_dir)?;
            durable::remove_manifest(&b.spill_dir)?;
        }
        if let Some(spec) = checkpoint {
            checkpoint::clear(spec)?;
            durable::remove_manifest(&spec.dir)?;
        }
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }

    /// The seed of the phase-1 sketches.
    fn sig_seed(&self) -> u64 {
        sfa_hash::family::derive_seed(self.config.seed, purpose::SIGNATURES)
    }

    /// Phase 1 through the signature cache: a hit skips `pass` — and with
    /// it the table scan — entirely; a miss runs it and stores the sketch.
    /// H-LSH builds no sketch, so it bypasses the cache and reports no
    /// `metrics.phase1`.
    fn cached<'m>(
        &self,
        n_rows: u32,
        n_cols: u32,
        pass: impl FnOnce(Sketch) -> Result<Phase1Summary<'m>>,
    ) -> Result<(Phase1Summary<'m>, Option<Phase1Metrics>)> {
        let sketch = Sketch::of(self.config.scheme);
        if matches!(sketch, Sketch::Table) {
            return Ok((pass(sketch)?, None));
        }
        let seed = self.sig_seed();
        let cache = self.signature_cache.as_ref();
        if let Some(hit) = cache.and_then(|c| Phase1Summary::load(c, sketch, seed, n_rows, n_cols))
        {
            return Ok((hit, Some(phase1_provenance(true, false))));
        }
        let summary = pass(sketch)?;
        let stored = cache.is_some_and(|c| summary.store(c, seed, n_rows, n_cols));
        Ok((summary, Some(phase1_provenance(false, stored))))
    }

    /// Phase 1's one pass over a stream, behind the signature cache: H-LSH
    /// reads the table into memory, the other schemes build their sketch —
    /// through [`fold_checkpointed`] when `checkpoint` is given. Budgeted
    /// and checkpointed MinHash passes fold and never hold the table; an
    /// unbudgeted one may hold it to walk it in permutation order (see
    /// [`compute_signatures`]).
    fn streamed_phase1<S: RowStream>(
        &self,
        stream: &mut S,
        budgeted: bool,
        checkpoint: Option<(&CheckpointSpec, RunKey)>,
        recovery: &mut RecoveryMetrics,
        cancel: &CancelToken,
    ) -> Result<(Phase1Summary<'static>, Option<Phase1Metrics>)> {
        let seed = self.sig_seed();
        self.cached(stream.n_rows(), stream.n_cols(), |sketch| {
            Ok(match (sketch, checkpoint) {
                (Sketch::Table, _) => Phase1Summary::Table(Cow::Owned(
                    RowMajorMatrix::from_stream(stream, usize::MAX)?,
                )),
                (_, Some((spec, key))) => {
                    fold_checkpointed(stream, sketch, seed, spec, key, recovery, cancel)?
                }
                (Sketch::MinHash(k), None) if budgeted => {
                    let mut builder = MhBuilder::new(k, stream.n_cols() as usize, seed);
                    stream.for_each_row(|row_id, cols| builder.push_row(row_id, cols))?;
                    Phase1Summary::Sigs(builder.finish())
                }
                (Sketch::MinHash(k), None) => {
                    Phase1Summary::Sigs(compute_signatures(stream, k, seed)?)
                }
                (Sketch::BottomK(k), None) => {
                    Phase1Summary::BottomK(compute_bottom_k(stream, k, seed)?)
                }
            })
        })
    }

    /// The configured scheme's phase 2 over the phase-1 summary, its index
    /// built on `pool`: the one place a scheme picks its generator. H-LSH's
    /// index keeps no reference to its table, so a table the run read
    /// itself is freed here, before the walk: phase 3 re-reads the stream.
    /// A resident run's phase 3 reads the borrowed table, which stays.
    fn generator<'s>(
        &self,
        summary: &'s mut Phase1Summary<'_>,
        pool: &ThreadPool,
    ) -> CandidateGen<'s> {
        let cfg = &self.config;
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        match (cfg.scheme, summary) {
            (Scheme::Mh { delta, .. }, Phase1Summary::Sigs(sigs)) => {
                mh_generator(sigs, cfg.s_star, delta, pool)
            }
            (Scheme::MhRowSort { delta, .. }, Phase1Summary::Sigs(sigs)) => {
                rowsort_generator(sigs, cfg.s_star, delta, pool)
            }
            (Scheme::Kmh { delta, .. }, Phase1Summary::BottomK(sigs)) => {
                kmh_generator(sigs, cfg.s_star, delta, pool)
            }
            (Scheme::MLsh { r, l, sampled, .. }, Phase1Summary::Sigs(sigs)) => {
                let params = if sampled {
                    MLshParams::sampled(r, l, lsh_seed)
                } else {
                    MLshParams::banded(r, l, lsh_seed)
                };
                mlsh_generator(sigs, &params, pool)
            }
            (
                Scheme::HLsh {
                    r,
                    l,
                    t,
                    max_levels,
                },
                Phase1Summary::Table(table),
            ) => {
                let params = HLshParams {
                    r,
                    l,
                    t,
                    max_levels,
                    include_zero_keys: false,
                    seed: lsh_seed,
                };
                let generator = hlsh_generator(table, &params, pool);
                if let Cow::Owned(read) = table {
                    *read = RowMajorMatrix::from_rows(0, Vec::new())
                        .expect("a table of no rows is valid");
                }
                generator
            }
            _ => unreachable!("summary kind always matches the scheme"),
        }
    }
}

/// A run's input rows.
enum Input<'a, S> {
    /// Read from a stream: once for phase 1, once per counted chunk.
    Stream(ScanCounter<&'a mut S>),
    /// Held in memory, with the pool that sketches and indexes it.
    Resident(&'a RowMajorMatrix, &'a ThreadPool),
}

/// What phase 1 builds for a scheme.
#[derive(Debug, Clone, Copy)]
enum Sketch {
    /// A `k × m` min-hash signature matrix (MH, MH-rowsort, M-LSH).
    MinHash(usize),
    /// Bottom-`k` sketches (K-MH).
    BottomK(usize),
    /// No sketch: H-LSH "works directly on the data".
    Table,
}

impl Sketch {
    const fn of(scheme: Scheme) -> Self {
        match scheme {
            Scheme::Mh { k, .. } | Scheme::MhRowSort { k, .. } | Scheme::MLsh { k, .. } => {
                Self::MinHash(k)
            }
            Scheme::Kmh { k, .. } => Self::BottomK(k),
            Scheme::HLsh { .. } => Self::Table,
        }
    }
}

/// The phase-1 summary a run keeps resident: phase 2 builds its bucket
/// index from it instead of re-scanning the table.
enum Phase1Summary<'m> {
    Sigs(SignatureMatrix),
    BottomK(BottomKSignatures),
    /// H-LSH's base table: read from the stream, or borrowed when the
    /// caller already holds it.
    Table(Cow<'m, RowMajorMatrix>),
}

impl Phase1Summary<'_> {
    fn heap_bytes(&self) -> u64 {
        match self {
            Self::Sigs(s) => s.heap_bytes(),
            Self::BottomK(s) => s.heap_bytes(),
            Self::Table(m) => m.heap_bytes(),
        }
    }

    /// The cached sketch for `sketch` over this table shape, if any.
    fn load(
        cache: &SignatureCache,
        sketch: Sketch,
        seed: u64,
        n_rows: u32,
        n_cols: u32,
    ) -> Option<Phase1Summary<'static>> {
        match sketch {
            Sketch::MinHash(k) => cache
                .load_signatures(k, seed, n_rows, n_cols)
                .map(Phase1Summary::Sigs),
            Sketch::BottomK(k) => cache
                .load_bottom_k(k, seed, n_rows, n_cols)
                .map(Phase1Summary::BottomK),
            Sketch::Table => None,
        }
    }

    /// Stores the sketch in `cache`; returns whether it landed.
    fn store(&self, cache: &SignatureCache, seed: u64, n_rows: u32, n_cols: u32) -> bool {
        match self {
            Self::Sigs(s) => cache.store_signatures(s.k(), seed, n_rows, n_cols, s),
            Self::BottomK(s) => cache.store_bottom_k(s.k(), seed, n_rows, n_cols, s),
            Self::Table(_) => false,
        }
    }
}

/// The phase-1 sketch builders a checkpointed pass folds rows into.
enum Builder {
    Mh(MhBuilder),
    Kmh(KmhBuilder),
}

impl Builder {
    fn push_row(&mut self, row_id: u32, cols: &[u32]) {
        match self {
            Self::Mh(b) => b.push_row(row_id, cols),
            Self::Kmh(b) => b.push_row(row_id, cols),
        }
    }

    fn rows_seen(&self) -> u64 {
        match self {
            Self::Mh(b) => b.rows_seen(),
            Self::Kmh(b) => b.rows_seen(),
        }
    }

    /// The builder's state as a phase-1 checkpoint payload.
    fn state(&self) -> Phase1State {
        match self {
            Self::Mh(b) => Phase1State::Mh {
                rows_done: b.rows_seen(),
                sigs: b.current(),
            },
            Self::Kmh(b) => Phase1State::Kmh {
                rows_done: b.rows_seen(),
                sigs: b.current(),
            },
        }
    }

    fn finish(self) -> Phase1Summary<'static> {
        match self {
            Self::Mh(b) => Phase1Summary::Sigs(b.finish()),
            Self::Kmh(b) => Phase1Summary::BottomK(b.finish()),
        }
    }
}

/// Phase 1 with checkpointing: resumes the sketch builder from the last
/// phase-1 checkpoint if one matches, persists its state every
/// `spec.every_rows` rows, and always persists the completed state so a
/// later phase-3 crash resumes without redoing signature work.
fn fold_checkpointed<S: RowStream>(
    stream: &mut S,
    sketch: Sketch,
    seed: u64,
    spec: &CheckpointSpec,
    key: RunKey,
    recovery: &mut RecoveryMetrics,
    cancel: &CancelToken,
) -> Result<Phase1Summary<'static>> {
    let m = stream.n_cols() as usize;
    let mut builder = match (sketch, checkpoint::load_phase1(spec, key)) {
        (Sketch::MinHash(k), Some(Phase1State::Mh { rows_done, sigs }))
            if sigs.k() == k && sigs.m() == m =>
        {
            Builder::Mh(MhBuilder::from_state(seed, rows_done, sigs))
        }
        (Sketch::BottomK(k), Some(Phase1State::Kmh { rows_done, sigs }))
            if sigs.k() == k && sigs.m() == m =>
        {
            Builder::Kmh(KmhBuilder::from_state(seed, rows_done, sigs))
        }
        (Sketch::MinHash(k), _) => Builder::Mh(MhBuilder::new(k, m, seed)),
        (Sketch::BottomK(k), _) => Builder::Kmh(KmhBuilder::new(k, m, seed)),
        (Sketch::Table, _) => unreachable!("H-LSH keeps no incremental phase-1 state"),
    };
    let rows_done = builder.rows_seen();
    if rows_done > 0 {
        let skipped = stream.skip_rows(rows_done)?;
        if skipped != rows_done {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "checkpoint claims {rows_done} rows processed but the stream holds only {skipped}"
                ),
            });
        }
        recovery.resumed_from_row = rows_done;
    }
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
        // A graceful shutdown flushes the builder state off-cadence so the
        // rerun resumes from this exact row.
        let canceled = cancel.is_canceled();
        if builder.rows_seen() % spec.every_rows == 0 || canceled {
            checkpoint::save_phase1(spec, key, &builder.state())?;
            recovery.checkpoints_written += 1;
        }
        if canceled {
            cancel.check()?;
        }
    }
    if builder.rows_seen() % spec.every_rows != 0 {
        checkpoint::save_phase1(spec, key, &builder.state())?;
        recovery.checkpoints_written += 1;
    }
    Ok(builder.finish())
}

/// A byte cap on the pair-space working state of a budgeted run, plus
/// where that run may spill.
///
/// The budget governs the state that grows with the number of *candidate
/// pairs* — the per-chunk verification state — which is the quadratic
/// blowup the paper's schemes are designed to tame. Linear-in-`m`
/// summaries (signatures, the H-LSH base matrix, the phase-2 bucket index
/// with at most one entry per signature value, per-column counts and
/// counters, and the verifier's column → slot map plus one 64-byte
/// 512-row block line per candidate column) are deliberately outside the
/// budget: they are the fixed cost of running the scheme at all and
/// cannot be split away.
///
/// A budgeted run also keeps phase 1 at the `O(km)` fold: it never holds
/// the table, which an unbudgeted MinHash run may do to walk it in
/// permutation order (see [`compute_signatures`]). H-LSH, whose phase-1
/// summary is the table, holds it either way.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    /// Byte cap on pair-space state. Must be at least
    /// [`MemoryBudget::MIN_BYTES`].
    pub bytes: usize,
    /// Directory for `.sfsp` spill files (created if absent, spill files
    /// removed when the run completes).
    pub spill_dir: PathBuf,
}

impl MemoryBudget {
    /// The smallest accepted budget: the verify state of three candidates
    /// (3 × 64 bytes), the CLI's long-standing floor. Any budget at or
    /// above it is met exactly — chunks are cut per candidate — but below
    /// it every chunk would verify at most two candidates per table scan.
    pub const MIN_BYTES: usize = 192;

    /// A budget of `bytes` spilling into `spill_dir`.
    #[must_use]
    pub fn new(bytes: usize, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            bytes,
            spill_dir: spill_dir.into(),
        }
    }
}

/// Working-state estimate per candidate during a verification pass: the
/// [`CandidatePair`] itself, its [`VerifiedPair`], an intersection counter
/// and its forward-adjacency entry.
const VERIFY_BYTES_PER_CANDIDATE: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, ScanCounter};

    /// Rows a counted stream delivered over all its passes.
    fn rows_read<S: RowStream>(counter: &ScanCounter<S>) -> u64 {
        counter.pass_scans().iter().map(|pass| pass.rows).sum()
    }

    /// 0–1 identical (S = 1), 2–3 at S = 0.5, others noise.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for _ in 0..30 {
            rows.push(vec![0, 1]);
        }
        for _ in 0..10 {
            rows.push(vec![2, 3]);
        }
        for _ in 0..5 {
            rows.push(vec![2]);
            rows.push(vec![3]);
        }
        for i in 0..20u32 {
            rows.push(vec![4 + (i % 3)]);
        }
        RowMajorMatrix::from_rows(7, rows).unwrap()
    }

    fn all_schemes() -> Vec<Scheme> {
        vec![
            Scheme::Mh { k: 100, delta: 0.2 },
            Scheme::MhRowSort { k: 100, delta: 0.2 },
            Scheme::Kmh { k: 24, delta: 0.2 },
            Scheme::MLsh {
                k: 100,
                r: 5,
                l: 20,
                sampled: false,
            },
            Scheme::MLsh {
                k: 40,
                r: 5,
                l: 20,
                sampled: true,
            },
            Scheme::HLsh {
                r: 8,
                l: 8,
                t: 4,
                max_levels: 12,
            },
        ]
    }

    #[test]
    fn every_scheme_finds_the_identical_pair() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 11);
            let result = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let pairs = result.similar_pairs();
            assert!(
                pairs.iter().any(|p| (p.i, p.j) == (0, 1)),
                "{} missed the identical pair",
                scheme.name()
            );
        }
    }

    #[test]
    fn no_false_positives_survive_verification() {
        let m = matrix();
        let csc = m.transpose();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 5);
            let result = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            for p in result.similar_pairs() {
                let exact = csc.similarity(p.i, p.j);
                assert!(
                    exact >= 0.9,
                    "{}: output pair ({}, {}) has exact similarity {exact}",
                    scheme.name(),
                    p.i,
                    p.j
                );
                assert!((p.similarity - exact).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mh_and_rowsort_agree() {
        let m = matrix();
        let a = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 64, delta: 0.2 },
            0.8,
            3,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        let b = Pipeline::new(PipelineConfig::new(
            Scheme::MhRowSort { k: 64, delta: 0.2 },
            0.8,
            3,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert_eq!(a.verified, b.verified);
    }

    #[test]
    fn pipeline_uses_exactly_two_passes() {
        let m = matrix();
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let cfg = PipelineConfig::new(Scheme::Mh { k: 16, delta: 0.2 }, 0.8, 1);
        let _ = Pipeline::new(cfg).run(&mut counter).unwrap();
        assert_eq!(
            counter.pass_scans().len(),
            2,
            "signature pass + verify pass"
        );
    }

    #[test]
    fn moderate_pair_respects_threshold() {
        let m = matrix();
        // S(2, 3) = 10/20 = 0.5: present at s* = 0.4, absent at s* = 0.7.
        let low = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 200, delta: 0.3 },
            0.4,
            9,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert!(low.similar_pairs().iter().any(|p| (p.i, p.j) == (2, 3)));
        let high = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 200, delta: 0.3 },
            0.7,
            9,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert!(!high.similar_pairs().iter().any(|p| (p.i, p.j) == (2, 3)));
    }

    #[test]
    fn deterministic_per_seed() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Kmh { k: 16, delta: 0.2 }, 0.8, 42);
        let a = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let b = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(a.verified, b.verified);
    }

    #[test]
    fn timings_are_populated() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.8, 1);
        let r = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert!(r.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn metrics_are_populated_for_every_scheme() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 11);
            let r = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let metrics = &r.metrics;
            let name = scheme.name();
            assert_eq!(metrics.scheme, name);
            // Both passes scanned the full table.
            assert_eq!(metrics.signature_pass.rows_scanned, u64::from(m.n_rows()));
            assert_eq!(metrics.signature_pass.nonzeros_scanned, m.nnz() as u64);
            assert_eq!(metrics.verify_pass, metrics.signature_pass);
            assert!(metrics.signature_bytes > 0, "{name}: no signature bytes");
            assert!(
                !metrics.candidate_stages.is_empty(),
                "{name}: no candidate stages"
            );
            assert_eq!(metrics.candidates_generated, r.verified.len() as u64);
            let v = &metrics.verification;
            assert_eq!(v.candidates_checked, r.verified.len() as u64);
            assert_eq!(
                v.true_positives as usize,
                r.similar_pairs().len(),
                "{name}: TP mismatch"
            );
            assert_eq!(
                v.false_positives_pruned as usize,
                r.false_positive_candidates(),
                "{name}: FP mismatch"
            );
            if !r.verified.is_empty() {
                assert!(v.intersection_work > 0, "{name}: no probe work counted");
            }
            assert!(
                metrics.bucket_histogram.iter().sum::<u64>() > 0,
                "{name}: empty bucket histogram"
            );
        }
    }

    fn checkpoint_spec(name: &str) -> CheckpointSpec {
        let dir = std::env::temp_dir().join("sfa_pipeline_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointSpec::new(dir)
    }

    #[test]
    fn run_resumable_resumes_after_phase1_crash() {
        let m = matrix(); // 70 rows
        for scheme in [
            Scheme::Mh { k: 32, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let spec =
                checkpoint_spec(&format!("phase1_crash_{}", scheme.name())).with_every_rows(16);

            // First attempt dies on a fatal fault at row 40, after the
            // checkpoints at rows 16 and 32 have been written.
            let faulty = sfa_matrix::FaultConfig {
                fatal_at_row: Some(40),
                ..sfa_matrix::FaultConfig::default()
            };
            let mut stream = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
            Pipeline::new(cfg)
                .run_resumable(&mut stream, &spec)
                .unwrap_err();
            assert!(spec.dir.join("phase1.sfcp").exists());

            // The rerun fast-forwards to row 32: it reads 70 − 32 = 38 rows
            // in the signature pass plus the full 70-row verify pass.
            let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
            let resumed = Pipeline::new(cfg)
                .run_resumable(&mut counter, &spec)
                .unwrap();
            assert_eq!(rows_read(&counter), 38 + 70, "{}", scheme.name());
            assert_eq!(resumed.metrics.recovery.resumed_from_row, 32);
            assert_eq!(resumed.verified, plain.verified, "{}", scheme.name());
            assert_eq!(resumed.column_counts, plain.column_counts);
        }
    }

    #[test]
    fn run_resumable_resumes_after_phase3_crash() {
        let m = matrix(); // 70 rows
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 11);
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let spec = checkpoint_spec("phase3_crash").with_every_rows(16);
        std::fs::create_dir_all(&spec.dir).unwrap();

        // Manufacture a *completed* phase-1 checkpoint (rows_done = 70), so
        // the next attempt skips the whole signature pass without reading.
        let key = RunKey::new(&cfg, m.n_rows(), m.n_cols());
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let mut builder = Builder::Mh(MhBuilder::new(32, m.n_cols() as usize, sig_seed));
        let mut stream = MemoryRowStream::new(&m);
        let mut buf = Vec::new();
        while let Some(id) = stream.read_row(&mut buf).unwrap() {
            builder.push_row(id, &buf);
        }
        checkpoint::save_phase1(&spec, key, &builder.state()).unwrap();

        // With phase 1 fully skipped (skip_rows bypasses fault injection),
        // the fatal fault at position 40 now fires mid-verify, after the
        // frontier checkpoints at rows 16 and 32 were written.
        let faulty = sfa_matrix::FaultConfig {
            fatal_at_row: Some(40),
            ..sfa_matrix::FaultConfig::default()
        };
        let mut attempt = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
        Pipeline::new(cfg)
            .run_resumable(&mut attempt, &spec)
            .unwrap_err();
        assert!(
            spec.dir.join("phase3.sfcp").exists(),
            "the crash must leave a phase-3 frontier checkpoint"
        );

        // Final attempt on a clean stream: phase 1 resumes from its
        // completed checkpoint (0 signature rows re-read), phase 3 from
        // the row-32 frontier (70 − 32 = 38 rows re-read).
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(rows_read(&counter), 38, "only the verify suffix is read");
        assert_eq!(resumed.metrics.recovery.resumed_from_row, 70);
        assert_eq!(resumed.verified, plain.verified);
        assert_eq!(resumed.column_counts, plain.column_counts);
    }

    #[test]
    fn stale_checkpoint_from_other_config_is_ignored() {
        let m = matrix();
        let spec = checkpoint_spec("stale_config").with_every_rows(16);
        let cfg_a = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 11);
        let faulty = sfa_matrix::FaultConfig {
            fatal_at_row: Some(40),
            ..sfa_matrix::FaultConfig::default()
        };
        let mut stream = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
        Pipeline::new(cfg_a)
            .run_resumable(&mut stream, &spec)
            .unwrap_err();

        // A different seed must not resume from cfg_a's checkpoint.
        let cfg_b = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 12);
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg_b)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(rows_read(&counter), 140, "both passes run in full");
        assert_eq!(result.metrics.recovery.resumed_from_row, 0);
        let plain = Pipeline::new(cfg_b)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(result.verified, plain.verified);
    }

    /// A fresh spill directory under the system temp dir.
    fn spill_dir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("sfa-sharded-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// 30 columns in three families of ten near-identical columns (each
    /// present in a third of the 96 rows, plus one noise column per row):
    /// dense enough for H-LSH's level-0 gate, so every scheme reports
    /// dozens of candidates.
    fn chunky_matrix() -> RowMajorMatrix {
        let mut x = 7u64;
        let rows = (0..96u32)
            .map(|r| {
                let mut row: Vec<u32> = (0..30u32).filter(|c| (r + c % 3) % 3 == 0).collect();
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                row.push((x >> 40) as u32 % 30);
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        RowMajorMatrix::from_rows(30, rows).unwrap()
    }

    /// Asserts that a completed run left no `ext` state files in `d`.
    fn assert_no_state_files(d: &std::path::Path, ext: &str) {
        assert!(
            std::fs::read_dir(d).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(ext)),
            "{ext} files in {} survived a completed run",
            d.display()
        );
    }

    #[test]
    fn run_sharded_rejects_sub_minimum_budget() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 16, delta: 0.2 }, 0.8, 1);
        let d = spill_dir("below-min");
        let err = Pipeline::new(cfg)
            .run_sharded(
                &mut MemoryRowStream::new(&m),
                &MemoryBudget::new(MemoryBudget::MIN_BYTES - 1, &d),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, MatrixError::DimensionMismatch { .. }));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_scans_the_table_once_per_verify_group_plus_phase1() {
        let m = chunky_matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.6, 11);
        let d = spill_dir("passes");
        let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg)
            .run_sharded(&mut counter, &budget, None)
            .unwrap();
        let s = result.metrics.sharding.expect("sharding metrics");
        assert!(s.verify_groups >= 3);
        assert_eq!(
            counter.pass_scans().len() as u64,
            1 + s.verify_groups,
            "phase 1 + one verify scan per group"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_resumes_from_spilled_chunks() {
        let m = chunky_matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.6, 11);
        let d = spill_dir("resume");
        let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let chunks = plain.metrics.candidates_generated.div_ceil(3);
        assert!(chunks >= 3, "test premise: {chunks} chunks");

        // Killed in the third chunk's verify scan (pass 3): chunks 0 and 1
        // are verified and spilled.
        let mut doomed = sfa_matrix::FaultyRowStream::new(
            MemoryRowStream::new(&m),
            sfa_matrix::FaultConfig {
                fatal_at_row: Some(0),
                fatal_in_pass: Some(3),
                ..sfa_matrix::FaultConfig::default()
            },
        );
        Pipeline::new(cfg)
            .run_sharded(&mut doomed, &budget, None)
            .unwrap_err();

        // The rerun recounts from the resident signatures and loads both
        // finished chunks: phase 1 plus the remaining chunks' scans.
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_sharded(&mut counter, &budget, None)
            .unwrap();
        let s = resumed.metrics.sharding.expect("sharding metrics");
        assert_eq!(s.shards, chunks);
        assert_eq!(s.generation_passes, 1, "one walk, even on resume");
        assert_eq!(
            rows_read(&counter),
            u64::from(m.n_rows()) * (1 + chunks - 2),
            "finished chunks are never rescanned"
        );
        assert_eq!(resumed.verified, plain.verified);
        assert_eq!(resumed.column_counts, plain.column_counts);
        assert_eq!(
            resumed.metrics.candidate_stages,
            plain.metrics.candidate_stages
        );
        assert_no_state_files(&d, ".sfsp");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// 160 rows × 11 columns: columns 0–9 each hold the rows `r` with
    /// `r % 5 != 0` except one residue class mod 7, so every pair of them
    /// is at S ≥ 0.6; column 10 is empty. Its columns hold about 110 ones
    /// each, so an unbudgeted MinHash phase 1 walks it in permutation
    /// order where `chunky_matrix` folds.
    fn dense_matrix() -> RowMajorMatrix {
        let rows = (0..160u32)
            .map(|r| {
                (0..10u32)
                    .filter(|c| r % 5 != 0 && (r + c) % 7 != 0)
                    .collect()
            })
            .collect();
        RowMajorMatrix::from_rows(11, rows).unwrap()
    }

    /// Every run mode against `run`, for every scheme, on a table the
    /// MinHash phase 1 folds and on one it walks: the pairs, counts,
    /// phase-2 counters and verdicts must match, and each mode keeps its
    /// own metrics. Streamed and resident runs cover the whole budget ×
    /// checkpoint grid.
    #[test]
    fn every_mode_matches_run_for_every_scheme() {
        every_mode_matches_run(&chunky_matrix(), "chunky");
        every_mode_matches_run(&dense_matrix(), "dense");
    }

    fn every_mode_matches_run(m: &RowMajorMatrix, table: &str) {
        // Shared pools: each serves every scheme's run.
        let pools = [1, 2, 4, 7].map(sfa_par::ThreadPool::new);
        for (s, scheme) in all_schemes().into_iter().enumerate() {
            let scheme_name = scheme.name();
            let name = format!("{table} {scheme_name}");
            let cfg = PipelineConfig::new(scheme, 0.6, 11);
            let pipeline = Pipeline::new(cfg);
            let plain = pipeline.run(&mut MemoryRowStream::new(m)).unwrap();
            let n = plain.metrics.candidates_generated;
            assert!(n >= 7, "{name}: test premise: {n} candidates fill 3 chunks");
            assert_eq!(plain.metrics.scheme, scheme_name);
            assert_eq!(plain.metrics.threads, 1);
            let same = |r: &MiningResult, mode: &str| {
                let at = format!("{name} {mode}");
                assert_eq!(r.verified, plain.verified, "{at}");
                assert_eq!(r.column_counts, plain.column_counts, "{at}");
                assert_eq!(r.metrics.scheme, scheme_name, "{at}");
                assert_eq!(
                    r.metrics.candidate_stages, plain.metrics.candidate_stages,
                    "{at}: stage counters"
                );
                assert_eq!(
                    r.metrics.bucket_histogram, plain.metrics.bucket_histogram,
                    "{at}: bucket histogram"
                );
                assert_eq!(r.metrics.candidates_generated, n, "{at}");
                assert_eq!(r.metrics.candidates_generated, r.verified.len() as u64);
                assert_eq!(
                    r.metrics.verification.true_positives,
                    plain.metrics.verification.true_positives,
                    "{at}"
                );
                assert_eq!(
                    r.metrics.signature_pass.rows_scanned,
                    u64::from(m.n_rows()),
                    "{at}"
                );
            };
            // A resident run counts the same rows in one pass per chunk, so
            // its probes and its one read of the table equal `run`'s.
            let resident = |r: &MiningResult, mode: &str, threads: usize| {
                same(r, mode);
                let at = format!("{name} {mode}");
                assert_eq!(
                    r.metrics.verification.intersection_work,
                    plain.metrics.verification.intersection_work,
                    "{at}: probes"
                );
                assert_eq!(r.metrics.verify_pass, plain.metrics.verify_pass, "{at}");
                assert_eq!(r.metrics.threads, threads as u64, "{at}");
            };

            // A roomy budget holds every candidate in one chunk; the
            // minimum holds three per chunk.
            let budgets = [
                None,
                Some((1 << 20, 1)),
                Some((MemoryBudget::MIN_BYTES, n.div_ceil(3))),
            ];
            for (b, budget) in budgets.into_iter().enumerate() {
                for with_checkpoint in [false, true] {
                    for threads in [None, Some(1), Some(2), Some(4)] {
                        let mode = format!(
                            "budget {budget:?}, checkpoint {with_checkpoint}, threads {threads:?}"
                        );
                        let at = format!("{name} {mode}");
                        let d = spill_dir(&format!(
                            "modes-{table}-{s}-{b}-{with_checkpoint}-{}",
                            threads.unwrap_or(0)
                        ));
                        let spec = CheckpointSpec::new(d.join("ckpt")).with_every_rows(16);
                        let checkpoint = with_checkpoint.then_some(&spec);
                        let mut p = pipeline.clone();
                        if let Some(t) = threads {
                            p = p.with_threads(t);
                        }
                        let mut stream = MemoryRowStream::new(m);
                        let r = match (budget, checkpoint) {
                            (Some((bytes, _)), ck) => {
                                p.run_sharded(&mut stream, &MemoryBudget::new(bytes, &d), ck)
                            }
                            (None, Some(spec)) => p.run_resumable(&mut stream, spec),
                            (None, None) => p.run(&mut stream),
                        }
                        .unwrap();
                        match threads {
                            Some(t) => resident(&r, &mode, t),
                            None => {
                                same(&r, &mode);
                                assert_eq!(r.metrics.threads, 1, "{at}");
                            }
                        }
                        match budget {
                            None => {
                                assert!(r.metrics.sharding.is_none(), "{at}");
                                assert!(r.metrics.index_bytes.is_none(), "{at}");
                            }
                            Some((bytes, chunks)) => {
                                assert!(r.metrics.index_bytes.is_some_and(|b| b > 0), "{at}");
                                let sharding = r.metrics.sharding.expect("sharding metrics");
                                assert_eq!(sharding.shards, chunks, "{at}: chunks");
                                assert_eq!(sharding.verify_groups, chunks, "{at}: verify groups");
                                assert_eq!(sharding.generation_passes, 1, "{at}");
                                assert_eq!(sharding.shard_restarts, 0, "{at}");
                                assert!(sharding.spill_bytes > 0, "{at}");
                                assert!(sharding.peak_tracked_bytes <= bytes as u64, "{at}");
                                assert_no_state_files(&d, ".sfsp");
                            }
                        }
                        let recovery = &r.metrics.recovery;
                        assert_eq!(recovery.resumed_from_row, 0, "{at}");
                        assert_eq!(recovery.checkpoints_written > 0, with_checkpoint, "{at}");
                        if with_checkpoint {
                            assert_no_state_files(&spec.dir, ".sfcp");
                        }
                        let _ = std::fs::remove_dir_all(&d);
                    }
                }
            }

            for pool in &pools {
                let pooled = pipeline.run_pool(m, pool);
                let mode = format!("x{}", pool.threads());
                resident(&pooled, &mode, pool.threads());
                assert!(pooled.metrics.sharding.is_none(), "{name} {mode}");
                assert!(pooled.metrics.index_bytes.is_none(), "{name} {mode}");
            }
            let auto = pipeline.run_parallel(m, 0);
            same(&auto, "auto threads");
            assert!(auto.metrics.threads >= 1, "{name}");
        }
    }

    #[test]
    fn hlsh_run_resumable_resumes_its_verify_pass() {
        let m = matrix(); // 70 rows
        let scheme = Scheme::HLsh {
            r: 8,
            l: 8,
            t: 4,
            max_levels: 12,
        };
        let cfg = PipelineConfig::new(scheme, 0.8, 11);
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let spec = checkpoint_spec("hlsh_phase3_crash").with_every_rows(16);

        // Killed at row 40 of the verify pass (pass 1), after the frontier
        // checkpoints at rows 16 and 32 were written.
        let faulty = sfa_matrix::FaultConfig {
            fatal_at_row: Some(40),
            fatal_in_pass: Some(1),
            ..sfa_matrix::FaultConfig::default()
        };
        let mut attempt = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
        Pipeline::new(cfg)
            .run_resumable(&mut attempt, &spec)
            .unwrap_err();
        assert!(
            spec.dir.join("phase3.sfcp").exists(),
            "the crash must leave a phase-3 frontier checkpoint"
        );

        // H-LSH keeps no phase-1 state: the rerun reads the whole table
        // for phase 1, then only the verify suffix past the row-32
        // frontier (70 − 32 = 38 rows).
        let mut counter = ScanCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(rows_read(&counter), 70 + 38);
        assert_eq!(resumed.metrics.recovery.resumed_from_row, 32);
        assert_eq!(resumed.verified, plain.verified);
        assert_eq!(resumed.column_counts, plain.column_counts);
        assert_no_state_files(&spec.dir, ".sfcp");
    }
}
