//! The pipeline driver: signatures → candidates → exact verification.

use std::path::PathBuf;
use std::time::Instant;

use sfa_lsh::{
    hlsh_candidates_with_stats, hlsh_candidates_with_stats_pool, hlsh_generator,
    mlsh_candidates_with_stats, mlsh_candidates_with_stats_pool, mlsh_generator, HLshParams,
    MLshParams,
};
use sfa_matrix::{MatrixError, Result, RowMajorMatrix, RowStream, ScanCounter};
use sfa_minhash::hashcount::{
    kmh_candidates_with_stats, kmh_candidates_with_stats_pool, kmh_generator,
    mh_candidates_with_stats, mh_candidates_with_stats_pool, mh_generator,
};
use sfa_minhash::rowsort::{
    rowsort_candidates_with_stats, rowsort_candidates_with_stats_pool, rowsort_generator,
};
use sfa_minhash::{
    compute_bottom_k, compute_bottom_k_pool, compute_signatures, compute_signatures_pool,
    BottomKSignatures, CandidateGen, CandidatePair, KmhBuilder, MhBuilder, SignatureMatrix,
};
use sfa_par::ThreadPool;

use crate::checkpoint::{self, CheckpointSpec, Phase1State, RunKey};
use crate::config::{PipelineConfig, Scheme};
use crate::durable;
use crate::metrics::{
    MiningMetrics, Phase1Metrics, RecoveryMetrics, ShardingMetrics, VerifyMetrics,
};
use crate::report::{MiningResult, PhaseTimings, VerifiedPair};
use crate::shutdown::{CancelToken, CANCEL_POLL_STRIDE};
use crate::sigcache::SignatureCache;
use crate::spill;
use crate::verify::{verify_candidates_resumable, verify_candidates_with_stats};

/// Seed-derivation labels, so each pipeline component gets an independent
/// stream from the one root seed.
mod purpose {
    pub const SIGNATURES: u64 = 1;
    pub const LSH: u64 = 2;
}

/// Phase-1 provenance for `metrics.phase1`: the SIMD arm the signature
/// kernels dispatch through (shared with the phase-3 kernels, so
/// `--kernel`/`SFA_KERNEL` pins both) plus the cache disposition.
fn phase1_provenance(cache_hit: bool, cache_stored: bool) -> Phase1Metrics {
    Phase1Metrics {
        dispatch_arm: sfa_matrix::kernel::arm_name().to_owned(),
        cache_hit,
        cache_stored,
    }
}

/// M-LSH parameters of a `Scheme::MLsh { r, l, sampled, .. }` run.
fn mlsh_params(r: usize, l: usize, sampled: bool, lsh_seed: u64) -> MLshParams {
    if sampled {
        MLshParams::sampled(r, l, lsh_seed)
    } else {
        MLshParams::banded(r, l, lsh_seed)
    }
}

/// H-LSH parameters of a `Scheme::HLsh { r, l, t, max_levels }` run.
fn hlsh_params(r: usize, l: usize, t: u32, max_levels: usize, lsh_seed: u64) -> HLshParams {
    HLshParams {
        r,
        l,
        t,
        max_levels,
        include_zero_keys: false,
        seed: lsh_seed,
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
}

impl Pipeline {
    /// Wraps a configuration.
    #[must_use]
    pub const fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            signature_cache: None,
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

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Phases 1 + 2 only: produce the candidate pairs and the time spent
    /// in each phase. Exposed separately for experiments that measure the
    /// candidate set itself.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn generate_candidates<S: RowStream>(
        &self,
        stream: &mut S,
    ) -> Result<(Vec<CandidatePair>, PhaseTimings)> {
        let (candidates, timings, _) = self.candidates_with_metrics(stream)?;
        Ok((candidates, timings))
    }

    /// Phases 1 + 2 with the observability counters: signature bytes,
    /// per-stage candidate counts, bucket occupancy. The pass-scan fields
    /// stay zero here — [`run`](Self::run) fills them from its
    /// [`ScanCounter`] wrapper.
    fn candidates_with_metrics<S: RowStream>(
        &self,
        stream: &mut S,
    ) -> Result<(Vec<CandidatePair>, PhaseTimings, MiningMetrics)> {
        let cfg = &self.config;
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };
        let candidates = match cfg.scheme {
            Scheme::Mh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_phase1(stream, k, sig_seed)?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = mh_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MhRowSort { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_phase1(stream, k, sig_seed)?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = rowsort_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::Kmh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.bottom_k_phase1(stream, k, sig_seed)?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = kmh_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MLsh { k, r, l, sampled } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_phase1(stream, k, sig_seed)?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let params = mlsh_params(r, l, sampled, lsh_seed);
                let (cands, stats) = mlsh_candidates_with_stats(&sigs, &params);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::HLsh {
                r,
                l,
                t: gate,
                max_levels,
            } => {
                // H-LSH "works directly on the data": materialize M_0 from
                // the stream (phase 1), then ladder + runs (phase 2).
                // No sketch is built, so `metrics.phase1` stays None.
                let t = Instant::now();
                let matrix = materialize(stream)?;
                timings.signatures = t.elapsed();
                metrics.signature_bytes = matrix.heap_bytes();
                let t = Instant::now();
                let params = hlsh_params(r, l, gate, max_levels, lsh_seed);
                let (cands, stats) = hlsh_candidates_with_stats(&matrix, &params);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
        };
        metrics.candidates_generated = candidates.len() as u64;
        Ok((candidates, timings, metrics))
    }

    /// Phase 1 (MH family) through the signature cache: a hit skips the
    /// table pass entirely, a miss computes and stores. Without a cache,
    /// just the pass.
    fn signatures_phase1<S: RowStream>(
        &self,
        stream: &mut S,
        k: usize,
        seed: u64,
    ) -> Result<(SignatureMatrix, Phase1Metrics)> {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_signatures(k, seed, stream.n_rows(), stream.n_cols()) {
                return Ok((sigs, phase1_provenance(true, false)));
            }
            let sigs = compute_signatures(stream, k, seed)?;
            let stored = cache.store_signatures(k, seed, stream.n_rows(), stream.n_cols(), &sigs);
            return Ok((sigs, phase1_provenance(false, stored)));
        }
        let sigs = compute_signatures(stream, k, seed)?;
        Ok((sigs, phase1_provenance(false, false)))
    }

    /// Phase 1 (K-MH) through the signature cache; see
    /// [`signatures_phase1`](Self::signatures_phase1).
    fn bottom_k_phase1<S: RowStream>(
        &self,
        stream: &mut S,
        k: usize,
        seed: u64,
    ) -> Result<(BottomKSignatures, Phase1Metrics)> {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_bottom_k(k, seed, stream.n_rows(), stream.n_cols()) {
                return Ok((sigs, phase1_provenance(true, false)));
            }
            let sigs = compute_bottom_k(stream, k, seed)?;
            let stored = cache.store_bottom_k(k, seed, stream.n_rows(), stream.n_cols(), &sigs);
            return Ok((sigs, phase1_provenance(false, stored)));
        }
        let sigs = compute_bottom_k(stream, k, seed)?;
        Ok((sigs, phase1_provenance(false, false)))
    }

    /// [`signatures_resumable`] behind the signature cache: a hit skips
    /// both the pass and its checkpointing (there is no partial state to
    /// persist when no rows are processed); a miss runs the resumable
    /// pass, then stores the completed sketch.
    #[allow(clippy::too_many_arguments)]
    fn signatures_resumable_cached<S: RowStream>(
        &self,
        stream: &mut S,
        k: usize,
        seed: u64,
        spec: &CheckpointSpec,
        key: RunKey,
        recovery: &mut RecoveryMetrics,
        cancel: &CancelToken,
    ) -> Result<(SignatureMatrix, Phase1Metrics)> {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_signatures(k, seed, stream.n_rows(), stream.n_cols()) {
                return Ok((sigs, phase1_provenance(true, false)));
            }
        }
        let sigs = signatures_resumable(stream, k, seed, spec, key, recovery, cancel)?;
        let stored = self.signature_cache.as_ref().is_some_and(|cache| {
            cache.store_signatures(k, seed, stream.n_rows(), stream.n_cols(), &sigs)
        });
        Ok((sigs, phase1_provenance(false, stored)))
    }

    /// [`bottom_k_resumable`] behind the signature cache; see
    /// [`signatures_resumable_cached`](Self::signatures_resumable_cached).
    #[allow(clippy::too_many_arguments)]
    fn bottom_k_resumable_cached<S: RowStream>(
        &self,
        stream: &mut S,
        k: usize,
        seed: u64,
        spec: &CheckpointSpec,
        key: RunKey,
        recovery: &mut RecoveryMetrics,
        cancel: &CancelToken,
    ) -> Result<(BottomKSignatures, Phase1Metrics)> {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_bottom_k(k, seed, stream.n_rows(), stream.n_cols()) {
                return Ok((sigs, phase1_provenance(true, false)));
            }
        }
        let sigs = bottom_k_resumable(stream, k, seed, spec, key, recovery, cancel)?;
        let stored = self.signature_cache.as_ref().is_some_and(|cache| {
            cache.store_bottom_k(k, seed, stream.n_rows(), stream.n_cols(), &sigs)
        });
        Ok((sigs, phase1_provenance(false, stored)))
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
    /// Propagates stream errors.
    pub fn run<S: RowStream>(&self, stream: &mut S) -> Result<MiningResult> {
        self.run_with(stream, &CancelToken::default())
    }

    /// [`run`](Self::run) with cooperative cancellation: `cancel` is
    /// polled at the pass boundaries and after every verify-pass row. A
    /// plain run keeps no on-disk state, so cancellation simply abandons
    /// the work — use [`run_resumable_with`](Self::run_resumable_with)
    /// when an interrupted run should leave a resumable frontier.
    ///
    /// # Errors
    ///
    /// Propagates stream errors; returns [`MatrixError::Canceled`] when
    /// `cancel` fires.
    pub fn run_with<S: RowStream>(
        &self,
        stream: &mut S,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        cancel.check()?;
        let mut scan = ScanCounter::new(&mut *stream);
        let (candidates, mut timings, mut metrics) = self.candidates_with_metrics(&mut scan)?;
        cancel.check()?;
        scan.reset()?;
        let t = Instant::now();
        let (verified, column_counts, probes) = verify_candidates_resumable(
            &mut scan,
            &candidates,
            None,
            u64::MAX,
            &mut |_| Ok(()),
            cancel,
        )?;
        timings.verify = t.elapsed();
        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass = passes.get(1).copied().unwrap_or_default().into();
        metrics.verification = self.verification_metrics(&verified, probes);
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }

    /// [`run`](Self::run) with checkpoint/resume: both streaming passes
    /// persist their partial state into `spec.dir` every `spec.every_rows`
    /// rows (phase 1 checkpoints the signature builder, phase 3 the
    /// verification frontier), so a rerun after a crash fast-forwards past
    /// the checkpointed prefix and re-reads only the unprocessed suffix.
    ///
    /// Output is byte-identical to an uninterrupted [`run`](Self::run);
    /// `metrics.recovery` reports how many checkpoints were written and the
    /// row cursor a resumed run continued from. Checkpoints are tied to the
    /// exact `(configuration, table)` pair — stale or mismatched state is
    /// ignored, never resumed into — and are deleted once the run
    /// completes. The H-LSH scheme materializes the matrix up front and has
    /// no incremental state; it falls back to a plain [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates stream and checkpoint-IO errors.
    pub fn run_resumable<S: RowStream>(
        &self,
        stream: &mut S,
        spec: &CheckpointSpec,
    ) -> Result<MiningResult> {
        self.run_resumable_with(stream, spec, &CancelToken::default())
    }

    /// [`run_resumable`](Self::run_resumable) with cooperative
    /// cancellation. `cancel` is polled after every processed row; when it
    /// fires, the current pass flushes its state to the checkpoint
    /// directory first and the run returns [`MatrixError::Canceled`] — a
    /// rerun with the same `spec` resumes from that frontier. This is the
    /// entry point behind the CLI's graceful `SIGINT`/`SIGTERM` and
    /// `--deadline-secs` handling (exit code 3).
    ///
    /// Before any work, the checkpoint directory is swept by
    /// [`durable::recover_dir`]: stray `.tmp` files are deleted and
    /// corrupt or stale checkpoints are quarantined (reported in
    /// `metrics.recovery`) rather than trusted or fatal.
    ///
    /// # Errors
    ///
    /// Propagates stream and checkpoint-IO errors; returns
    /// [`MatrixError::Canceled`] when `cancel` fires.
    pub fn run_resumable_with<S: RowStream>(
        &self,
        stream: &mut S,
        spec: &CheckpointSpec,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        let cfg = &self.config;
        if matches!(cfg.scheme, Scheme::HLsh { .. }) {
            return self.run_with(stream, cancel);
        }
        let key = RunKey::new(cfg, stream.n_rows(), stream.n_cols());
        let recovered = durable::recover_dir(&spec.dir, key)?;
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        let mut recovery = RecoveryMetrics {
            files_quarantined: recovered.files_quarantined,
            tmp_files_removed: recovered.tmp_files_removed,
            ..RecoveryMetrics::default()
        };
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };
        let mut scan = ScanCounter::new(&mut *stream);
        let candidates = match cfg.scheme {
            Scheme::Mh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_resumable_cached(
                    &mut scan,
                    k,
                    sig_seed,
                    spec,
                    key,
                    &mut recovery,
                    cancel,
                )?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = mh_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MhRowSort { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_resumable_cached(
                    &mut scan,
                    k,
                    sig_seed,
                    spec,
                    key,
                    &mut recovery,
                    cancel,
                )?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = rowsort_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::Kmh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.bottom_k_resumable_cached(
                    &mut scan,
                    k,
                    sig_seed,
                    spec,
                    key,
                    &mut recovery,
                    cancel,
                )?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = kmh_candidates_with_stats(&sigs, cfg.s_star, delta);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MLsh { k, r, l, sampled } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_resumable_cached(
                    &mut scan,
                    k,
                    sig_seed,
                    spec,
                    key,
                    &mut recovery,
                    cancel,
                )?;
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let params = mlsh_params(r, l, sampled, lsh_seed);
                let (cands, stats) = mlsh_candidates_with_stats(&sigs, &params);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::HLsh { .. } => unreachable!("handled above"),
        };
        metrics.candidates_generated = candidates.len() as u64;
        cancel.check()?;
        scan.reset()?;
        let fp = checkpoint::candidates_fingerprint(&candidates);
        let resume = checkpoint::load_phase3(spec, key, fp);
        if let Some(s) = &resume {
            recovery.resumed_from_row = recovery.resumed_from_row.max(s.progress.rows_done);
        }
        let t = Instant::now();
        let mut checkpoints_written = 0u64;
        let (verified, column_counts, probes) = verify_candidates_resumable(
            &mut scan,
            &candidates,
            resume.map(|s| s.progress),
            spec.every_rows,
            &mut |p| {
                checkpoint::save_phase3(spec, key, fp, p)?;
                checkpoints_written += 1;
                Ok(())
            },
            cancel,
        )?;
        timings.verify = t.elapsed();
        recovery.checkpoints_written += checkpoints_written;
        checkpoint::clear(spec)?;
        durable::remove_manifest(&spec.dir)?;
        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass = passes.get(1).copied().unwrap_or_default().into();
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }
}

/// Phase 1 (MH family) with checkpointing: resumes an [`MhBuilder`] from
/// the last phase-1 checkpoint if one matches, persists its state every
/// `spec.every_rows` rows, and always persists the completed state so a
/// later phase-3 crash resumes without redoing signature work.
fn signatures_resumable<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    spec: &CheckpointSpec,
    key: RunKey,
    recovery: &mut RecoveryMetrics,
    cancel: &CancelToken,
) -> Result<SignatureMatrix> {
    let m = stream.n_cols() as usize;
    let mut builder = match checkpoint::load_phase1(spec, key) {
        Some(Phase1State::Mh { rows_done, sigs }) if sigs.k() == k && sigs.m() == m => {
            fast_forward(stream, rows_done)?;
            recovery.resumed_from_row = rows_done;
            MhBuilder::from_state(seed, rows_done, sigs)
        }
        _ => MhBuilder::new(k, m, seed),
    };
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
        // A graceful shutdown flushes the builder state off-cadence so the
        // rerun resumes from this exact row.
        let canceled = cancel.is_canceled();
        if builder.rows_seen() % spec.every_rows == 0 || canceled {
            save_mh_state(spec, key, &builder)?;
            recovery.checkpoints_written += 1;
        }
        if canceled {
            cancel.check()?;
        }
    }
    if builder.rows_seen() % spec.every_rows != 0 {
        save_mh_state(spec, key, &builder)?;
        recovery.checkpoints_written += 1;
    }
    Ok(builder.finish())
}

/// Phase 1 (K-MH) with checkpointing; see [`signatures_resumable`].
fn bottom_k_resumable<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    spec: &CheckpointSpec,
    key: RunKey,
    recovery: &mut RecoveryMetrics,
    cancel: &CancelToken,
) -> Result<BottomKSignatures> {
    let m = stream.n_cols() as usize;
    let mut builder = match checkpoint::load_phase1(spec, key) {
        Some(Phase1State::Kmh {
            rows_done,
            k: ck,
            counts,
            sigs,
        }) if ck as usize == k && sigs.len() == m => {
            fast_forward(stream, rows_done)?;
            recovery.resumed_from_row = rows_done;
            KmhBuilder::from_state(k, seed, rows_done, sigs, counts)
        }
        _ => KmhBuilder::new(k, m, seed),
    };
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
        let canceled = cancel.is_canceled();
        if builder.rows_seen() % spec.every_rows == 0 || canceled {
            save_kmh_state(spec, key, &builder)?;
            recovery.checkpoints_written += 1;
        }
        if canceled {
            cancel.check()?;
        }
    }
    if builder.rows_seen() % spec.every_rows != 0 {
        save_kmh_state(spec, key, &builder)?;
        recovery.checkpoints_written += 1;
    }
    Ok(builder.finish())
}

/// Skips the checkpointed prefix, erroring if the stream is shorter than
/// the checkpoint claims.
fn fast_forward<S: RowStream>(stream: &mut S, rows_done: u64) -> Result<()> {
    let skipped = stream.skip_rows(rows_done)?;
    if skipped != rows_done {
        return Err(MatrixError::DimensionMismatch {
            detail: format!(
                "checkpoint claims {rows_done} rows processed but the stream holds only {skipped}"
            ),
        });
    }
    Ok(())
}

fn save_mh_state(spec: &CheckpointSpec, key: RunKey, builder: &MhBuilder) -> Result<()> {
    checkpoint::save_phase1(
        spec,
        key,
        &Phase1State::Mh {
            rows_done: builder.rows_seen(),
            sigs: builder.current(),
        },
    )
}

fn save_kmh_state(spec: &CheckpointSpec, key: RunKey, builder: &KmhBuilder) -> Result<()> {
    let (sigs, counts) = builder.snapshot();
    checkpoint::save_phase1(
        spec,
        key,
        &Phase1State::Kmh {
            rows_done: builder.rows_seen(),
            k: u32::try_from(builder.k()).expect("k fits u32"),
            counts,
            sigs,
        },
    )
}

impl Pipeline {
    /// Parallel in-memory run: every phase of every scheme executes over
    /// one persistent [`sfa_par::ThreadPool`] — signature computation,
    /// candidate generation (Hash-Count, Row-Sorting, K-MH overlap, M-LSH
    /// banding, and H-LSH ladder runs all have pool-parallel kernels), and
    /// exact verification. Output is byte-identical to [`run`](Self::run)
    /// for every scheme at every thread count.
    ///
    /// `n_threads == 0` sizes the pool from the machine
    /// (`std::thread::available_parallelism`); the count actually used is
    /// recorded in `metrics.threads`.
    #[must_use]
    pub fn run_parallel(&self, matrix: &RowMajorMatrix, n_threads: usize) -> MiningResult {
        let pool = ThreadPool::new(n_threads);
        self.run_pool(matrix, &pool)
    }

    /// [`signatures_phase1`](Self::signatures_phase1) for the pool path:
    /// same cache-first discipline, pool-parallel pass on a miss.
    fn signatures_pool_phase1(
        &self,
        matrix: &RowMajorMatrix,
        k: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> (SignatureMatrix, Phase1Metrics) {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_signatures(k, seed, matrix.n_rows(), matrix.n_cols()) {
                return (sigs, phase1_provenance(true, false));
            }
            let sigs = compute_signatures_pool(matrix, k, seed, pool);
            let stored = cache.store_signatures(k, seed, matrix.n_rows(), matrix.n_cols(), &sigs);
            return (sigs, phase1_provenance(false, stored));
        }
        let sigs = compute_signatures_pool(matrix, k, seed, pool);
        (sigs, phase1_provenance(false, false))
    }

    /// [`bottom_k_phase1`](Self::bottom_k_phase1) for the pool path.
    fn bottom_k_pool_phase1(
        &self,
        matrix: &RowMajorMatrix,
        k: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> (BottomKSignatures, Phase1Metrics) {
        if let Some(cache) = &self.signature_cache {
            if let Some(sigs) = cache.load_bottom_k(k, seed, matrix.n_rows(), matrix.n_cols()) {
                return (sigs, phase1_provenance(true, false));
            }
            let sigs = compute_bottom_k_pool(matrix, k, seed, pool);
            let stored = cache.store_bottom_k(k, seed, matrix.n_rows(), matrix.n_cols(), &sigs);
            return (sigs, phase1_provenance(false, stored));
        }
        let sigs = compute_bottom_k_pool(matrix, k, seed, pool);
        (sigs, phase1_provenance(false, false))
    }

    /// [`run_parallel`](Self::run_parallel) over a caller-owned pool, so
    /// several runs (e.g. a benchmark sweep) can share one set of workers.
    #[must_use]
    pub fn run_pool(&self, matrix: &RowMajorMatrix, pool: &ThreadPool) -> MiningResult {
        let cfg = &self.config;
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            threads: pool.threads() as u64,
            ..MiningMetrics::default()
        };
        let candidates = match cfg.scheme {
            Scheme::Mh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_pool_phase1(matrix, k, sig_seed, pool);
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = mh_candidates_with_stats_pool(&sigs, cfg.s_star, delta, pool);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MhRowSort { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_pool_phase1(matrix, k, sig_seed, pool);
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) =
                    rowsort_candidates_with_stats_pool(&sigs, cfg.s_star, delta, pool);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::Kmh { k, delta } => {
                let t = Instant::now();
                let (sigs, phase1) = self.bottom_k_pool_phase1(matrix, k, sig_seed, pool);
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let (cands, stats) = kmh_candidates_with_stats_pool(&sigs, cfg.s_star, delta, pool);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::MLsh { k, r, l, sampled } => {
                let t = Instant::now();
                let (sigs, phase1) = self.signatures_pool_phase1(matrix, k, sig_seed, pool);
                timings.signatures = t.elapsed();
                metrics.phase1 = Some(phase1);
                metrics.signature_bytes = sigs.heap_bytes();
                let t = Instant::now();
                let params = mlsh_params(r, l, sampled, lsh_seed);
                let (cands, stats) = mlsh_candidates_with_stats_pool(&sigs, &params, pool);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
            Scheme::HLsh {
                r,
                l,
                t: gate,
                max_levels,
            } => {
                // H-LSH works directly on the data; the in-memory matrix
                // *is* the phase-1 summary.
                metrics.signature_bytes = matrix.heap_bytes();
                let t = Instant::now();
                let params = hlsh_params(r, l, gate, max_levels, lsh_seed);
                let (cands, stats) = hlsh_candidates_with_stats_pool(matrix, &params, pool);
                timings.candidates = t.elapsed();
                metrics.absorb_candidate_stats(stats);
                cands
            }
        };
        metrics.candidates_generated = candidates.len() as u64;
        // Phase 3: the matrix is resident, so verify against its
        // column-major transpose with the bitmap kernels instead of
        // re-scanning rows (streaming, checkpoint, and fault-injection
        // paths keep the row scan).
        let t = Instant::now();
        let columns = matrix.transpose();
        let (verified, column_counts, kernel_report) =
            crate::verify::verify_candidates_in_memory_pool_with_report(
                &columns,
                &candidates,
                pool,
            );
        timings.verify = t.elapsed();
        metrics.kernels = Some(kernel_report.into());
        // Both passes scan the whole in-memory matrix; the in-memory
        // verifier does not count per-pair probes, so `intersection_work`
        // stays 0 on this path (use `run` for the full counters).
        let full_scan = crate::metrics::PassMetrics {
            rows_scanned: u64::from(matrix.n_rows()),
            nonzeros_scanned: matrix.nnz() as u64,
        };
        metrics.signature_pass = full_scan;
        metrics.verify_pass = full_scan;
        metrics.verification = self.verification_metrics(&verified, 0);
        MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        }
    }
}

/// Reads a whole stream into a row-major matrix (used by H-LSH).
fn materialize<S: RowStream>(stream: &mut S) -> Result<RowMajorMatrix> {
    let n_cols = stream.n_cols();
    let mut rows = Vec::with_capacity(stream.n_rows() as usize);
    let mut buf = Vec::new();
    while stream.read_row(&mut buf)?.is_some() {
        rows.push(buf.clone());
    }
    RowMajorMatrix::from_rows(n_cols, rows)
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

/// The phase-1 summary a budgeted run keeps resident: phase 2 builds its
/// bucket index from it instead of re-scanning the table.
enum Phase1Summary {
    Sigs(SignatureMatrix),
    BottomK(BottomKSignatures),
    Matrix(RowMajorMatrix),
}

impl Phase1Summary {
    fn heap_bytes(&self) -> u64 {
        match self {
            Self::Sigs(s) => s.heap_bytes(),
            Self::BottomK(s) => s.heap_bytes(),
            Self::Matrix(m) => m.heap_bytes(),
        }
    }
}

impl Pipeline {
    /// The configured scheme's phase 2 over the resident summary, built
    /// on `pool`.
    fn generator<'s>(
        &self,
        summary: &'s Phase1Summary,
        lsh_seed: u64,
        pool: &ThreadPool,
    ) -> CandidateGen<'s> {
        let cfg = &self.config;
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
                mlsh_generator(sigs, &mlsh_params(r, l, sampled, lsh_seed), pool)
            }
            (
                Scheme::HLsh {
                    r,
                    l,
                    t,
                    max_levels,
                },
                Phase1Summary::Matrix(matrix),
            ) => hlsh_generator(matrix, &hlsh_params(r, l, t, max_levels, lsh_seed), pool),
            _ => unreachable!("summary kind always matches the scheme"),
        }
    }

    /// Runs the pipeline with its pair-space state capped at
    /// `budget.bytes`, verifying the candidates in chunks and spilling each
    /// chunk's result.
    ///
    /// Phase 1 makes one streaming pass into the resident summary. Phase 2
    /// builds the scheme's bucket index from it once and walks the focus
    /// columns a single time, cutting the candidates into chunks whose
    /// verify state (64 bytes per candidate) fits the
    /// budget. Each chunk is verified by one streaming pass over the table
    /// and its result spilled to `budget.spill_dir` as a checksummed
    /// `.sfsp` file.
    ///
    /// Output is **byte-identical** to [`run`](Self::run): the chunks
    /// partition the candidate list of the unbudgeted generator, stage
    /// counters and histogram come from the same walk, and the final merge
    /// sorts verified pairs into the same `(i, j)` order. `metrics.sharding`
    /// reports the chunk count (`shards`), the single generation pass,
    /// spill volume and the largest chunk's verify state; `metrics`
    /// `index_bytes` the resident bucket index. With `checkpoint` given,
    /// both streaming passes also checkpoint (resume semantics as
    /// [`run_resumable`](Self::run_resumable)); a rerun rebuilds the index
    /// without reading the table, recounts, and loads every finished
    /// chunk's result by candidate fingerprint, so it rescans at most the
    /// interrupted chunk.
    ///
    /// # Errors
    ///
    /// Propagates stream and spill-IO errors, and reports a budget below
    /// [`MemoryBudget::MIN_BYTES`] as [`MatrixError::DimensionMismatch`].
    pub fn run_sharded<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<MiningResult> {
        self.run_sharded_with(stream, budget, checkpoint, &CancelToken::default())
    }

    /// [`run_sharded`](Self::run_sharded) with cooperative cancellation.
    /// `cancel` is polled at chunk boundaries and (with `checkpoint`
    /// given) after every streamed row; finished chunks are already
    /// spilled when it fires, so a rerun redoes at most the interrupted
    /// chunk's scan. Both state directories are swept by
    /// [`durable::recover_dir`] first — stray `.tmp` files deleted,
    /// corrupt or stale spills and checkpoints quarantined (reported in
    /// `metrics.recovery`).
    ///
    /// # Errors
    ///
    /// As [`run_sharded`](Self::run_sharded); returns
    /// [`MatrixError::Canceled`] when `cancel` fires.
    pub fn run_sharded_with<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        if budget.bytes < MemoryBudget::MIN_BYTES {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "memory budget of {} bytes is below the {}-byte minimum (three candidates' verify state)",
                    budget.bytes,
                    MemoryBudget::MIN_BYTES
                ),
            });
        }
        let cfg = &self.config;
        let key = RunKey::new(cfg, stream.n_rows(), stream.n_cols());
        let mut recovered = durable::recover_dir(&budget.spill_dir, key)?;
        if let Some(spec) = checkpoint {
            if spec.dir != budget.spill_dir {
                recovered = recovered.merge(durable::recover_dir(&spec.dir, key)?);
            }
        }
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        let mut recovery = RecoveryMetrics {
            files_quarantined: recovered.files_quarantined,
            tmp_files_removed: recovered.tmp_files_removed,
            ..RecoveryMetrics::default()
        };
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };
        let mut scan = ScanCounter::new(&mut *stream);

        // Phase 1: one streaming pass into the resident summary (skipped
        // entirely on a signature-cache hit).
        let t = Instant::now();
        let summary = match cfg.scheme {
            Scheme::Mh { k, .. } | Scheme::MhRowSort { k, .. } | Scheme::MLsh { k, .. } => {
                let (sigs, phase1) = match checkpoint {
                    Some(spec) => self.signatures_resumable_cached(
                        &mut scan,
                        k,
                        sig_seed,
                        spec,
                        key,
                        &mut recovery,
                        cancel,
                    )?,
                    None => self.signatures_phase1(&mut scan, k, sig_seed)?,
                };
                metrics.phase1 = Some(phase1);
                Phase1Summary::Sigs(sigs)
            }
            Scheme::Kmh { k, .. } => {
                let (sigs, phase1) = match checkpoint {
                    Some(spec) => self.bottom_k_resumable_cached(
                        &mut scan,
                        k,
                        sig_seed,
                        spec,
                        key,
                        &mut recovery,
                        cancel,
                    )?,
                    None => self.bottom_k_phase1(&mut scan, k, sig_seed)?,
                };
                metrics.phase1 = Some(phase1);
                Phase1Summary::BottomK(sigs)
            }
            // H-LSH works directly on the data; there is no incremental
            // phase-1 state to checkpoint and no sketch to cache.
            Scheme::HLsh { .. } => Phase1Summary::Matrix(materialize(&mut scan)?),
        };
        timings.signatures = t.elapsed();
        metrics.signature_bytes = summary.heap_bytes();

        // Phases 2 and 3: one walk of the bucket index, verified chunk by
        // chunk. Every chunk scans the table once unless its result is
        // already spilled (an interrupted run's finished chunks).
        let t = Instant::now();
        let generator = self.generator(&summary, lsh_seed, &ThreadPool::new(1));
        metrics.index_bytes = Some(generator.index().heap_bytes());
        let capacity = usize::try_from((budget.bytes as u64 / VERIFY_BYTES_PER_CANDIDATE).max(1))
            .expect("chunk capacity fits usize");
        let mut walk = generator.stream();
        timings.candidates = t.elapsed();
        // Walked candidates not yet verified. A focus column's candidates
        // are walked whole and split across chunk boundaries as needed.
        let mut pending = Vec::new();
        let mut walking = true;
        let mut chunk = Vec::with_capacity(capacity);
        let mut chunks = 0usize;
        let mut spill_bytes = 0u64;
        let mut peak_tracked_bytes = 0u64;
        let mut verified = Vec::new();
        let mut column_counts = vec![0u32; scan.n_cols() as usize];
        let mut probes = 0u64;
        loop {
            let t = Instant::now();
            while walking && pending.len() < capacity {
                walking = walk.next_column(&mut pending);
            }
            chunk.clear();
            chunk.extend(pending.drain(..pending.len().min(capacity)));
            timings.candidates += t.elapsed();
            // Every run verifies at least one chunk: the pass also counts
            // the columns.
            if chunk.is_empty() && chunks > 0 {
                break;
            }
            // Chunk boundary: every earlier chunk's result is spilled.
            cancel.check()?;
            metrics.candidates_generated += chunk.len() as u64;
            peak_tracked_bytes =
                peak_tracked_bytes.max(chunk.len() as u64 * VERIFY_BYTES_PER_CANDIDATE);
            let t = Instant::now();
            let fp = checkpoint::candidates_fingerprint(&chunk);
            let (chunk_verified, chunk_counts, chunk_probes) =
                match spill::load_group_result(&budget.spill_dir, key, chunks, fp) {
                    Some(result) => result,
                    None => {
                        scan.reset()?;
                        let result = match checkpoint {
                            Some(spec) => {
                                let resume = checkpoint::load_phase3(spec, key, fp);
                                if let Some(s) = &resume {
                                    recovery.resumed_from_row =
                                        recovery.resumed_from_row.max(s.progress.rows_done);
                                }
                                let mut written = 0u64;
                                let result = verify_candidates_resumable(
                                    &mut scan,
                                    &chunk,
                                    resume.map(|s| s.progress),
                                    spec.every_rows,
                                    &mut |p| {
                                        checkpoint::save_phase3(spec, key, fp, p)?;
                                        written += 1;
                                        Ok(())
                                    },
                                    cancel,
                                )?;
                                recovery.checkpoints_written += written;
                                result
                            }
                            None => verify_candidates_with_stats(&mut scan, &chunk)?,
                        };
                        spill_bytes += spill::save_group_result(
                            &budget.spill_dir,
                            key,
                            chunks,
                            fp,
                            &result.0,
                            &result.1,
                            result.2,
                        )?;
                        result
                    }
                };
            verified.extend(chunk_verified);
            // Every chunk's pass counts all columns, so the vectors agree;
            // max keeps the merge idempotent.
            for (acc, v) in column_counts.iter_mut().zip(&chunk_counts) {
                *acc = (*acc).max(*v);
            }
            probes += chunk_probes;
            chunks += 1;
            timings.verify += t.elapsed();
        }
        metrics.absorb_candidate_stats(walk.stats());
        verified.sort_by_key(|p| (p.i, p.j));

        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass =
            passes[1..]
                .iter()
                .fold(crate::metrics::PassMetrics::default(), |mut acc, p| {
                    acc.rows_scanned += p.rows;
                    acc.nonzeros_scanned += p.nonzeros;
                    acc
                });
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        metrics.sharding = Some(ShardingMetrics {
            memory_budget: budget.bytes as u64,
            shards: chunks as u64,
            shard_restarts: 0,
            generation_passes: 1,
            verify_groups: chunks as u64,
            spill_bytes,
            peak_tracked_bytes,
        });
        spill::clear(&budget.spill_dir)?;
        durable::remove_manifest(&budget.spill_dir)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::MemoryRowStream;

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
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let cfg = PipelineConfig::new(Scheme::Mh { k: 16, delta: 0.2 }, 0.8, 1);
        let _ = Pipeline::new(cfg).run(&mut counter).unwrap();
        assert_eq!(counter.passes(), 2, "signature pass + verify pass");
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
    fn run_parallel_matches_run() {
        // Every scheme's parallel path must be byte-identical to the
        // sequential pipeline at every thread count: same verified pairs,
        // column counts, stage counters, and occupancy histograms.
        let m = matrix();
        for scheme in [
            Scheme::Mh { k: 64, delta: 0.2 },
            Scheme::MhRowSort { k: 64, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
            Scheme::MLsh {
                k: 60,
                r: 5,
                l: 12,
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
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 17);
            let seq = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            for threads in [1, 2, 4, 7] {
                let par = Pipeline::new(cfg).run_parallel(&m, threads);
                assert_eq!(par.verified, seq.verified, "{} x{threads}", scheme.name());
                assert_eq!(par.column_counts, seq.column_counts);
                assert_eq!(
                    par.metrics.candidate_stages,
                    seq.metrics.candidate_stages,
                    "{} x{threads}: stage counters",
                    scheme.name()
                );
                assert_eq!(
                    par.metrics.bucket_histogram,
                    seq.metrics.bucket_histogram,
                    "{} x{threads}: bucket histogram",
                    scheme.name()
                );
                assert_eq!(par.metrics.threads, threads as u64);
            }
        }
    }

    #[test]
    fn run_parallel_auto_threads_sizes_from_machine() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 17);
        let auto = Pipeline::new(cfg).run_parallel(&m, 0);
        assert!(auto.metrics.threads >= 1);
        let seq = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(auto.verified, seq.verified);
    }

    #[test]
    fn run_pool_reuses_one_pool_across_runs() {
        let m = matrix();
        let pool = sfa_par::ThreadPool::new(3);
        for scheme in [
            Scheme::Mh { k: 32, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 17);
            let seq = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let par = Pipeline::new(cfg).run_pool(&m, &pool);
            assert_eq!(par.verified, seq.verified, "{}", scheme.name());
            assert_eq!(par.metrics.threads, 3);
        }
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
    fn run_resumable_without_interruption_matches_run() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.8, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let spec =
                checkpoint_spec(&format!("uninterrupted_{}", scheme.name())).with_every_rows(16);
            let resumable = Pipeline::new(cfg)
                .run_resumable(&mut MemoryRowStream::new(&m), &spec)
                .unwrap();
            assert_eq!(resumable.verified, plain.verified, "{}", scheme.name());
            assert_eq!(resumable.column_counts, plain.column_counts);
            if !matches!(scheme, Scheme::HLsh { .. }) {
                assert!(
                    resumable.metrics.recovery.checkpoints_written > 0,
                    "{}: no checkpoints written",
                    scheme.name()
                );
                assert_eq!(resumable.metrics.recovery.resumed_from_row, 0);
                // Success must leave no checkpoint files behind.
                assert!(!spec.dir.join("phase1.sfcp").exists());
                assert!(!spec.dir.join("phase3.sfcp").exists());
            }
        }
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
            let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
            let resumed = Pipeline::new(cfg)
                .run_resumable(&mut counter, &spec)
                .unwrap();
            assert_eq!(counter.rows_read(), 38 + 70, "{}", scheme.name());
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
        let mut builder = MhBuilder::new(32, m.n_cols() as usize, sig_seed);
        let mut stream = MemoryRowStream::new(&m);
        let mut buf = Vec::new();
        while let Some(id) = stream.read_row(&mut buf).unwrap() {
            builder.push_row(id, &buf);
        }
        save_mh_state(&spec, key, &builder).unwrap();

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
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(counter.rows_read(), 38, "only the verify suffix is read");
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
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg_b)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(counter.rows_read(), 140, "both passes run in full");
        assert_eq!(result.metrics.recovery.resumed_from_row, 0);
        let plain = Pipeline::new(cfg_b)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(result.verified, plain.verified);
    }

    #[test]
    fn run_parallel_reports_coarse_metrics() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.8, 17);
        let par = Pipeline::new(cfg).run_parallel(&m, 3);
        assert_eq!(par.metrics.scheme, "MH");
        assert_eq!(
            par.metrics.signature_pass.rows_scanned,
            u64::from(m.n_rows())
        );
        assert_eq!(par.metrics.candidates_generated, par.verified.len() as u64);
        let seq = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        // Scheme-side counters agree with the sequential path.
        assert_eq!(par.metrics.candidate_stages, seq.metrics.candidate_stages);
        assert_eq!(par.metrics.bucket_histogram, seq.metrics.bucket_histogram);
        assert_eq!(
            par.metrics.verification.true_positives,
            seq.metrics.verification.true_positives
        );
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

    fn assert_no_spill_files(d: &std::path::Path) {
        assert!(
            std::fs::read_dir(d).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".sfsp")),
            "spill files survived a completed run"
        );
    }

    #[test]
    fn run_sharded_reports_run_counters_at_one_and_many_chunks() {
        let m = chunky_matrix();
        for scheme in all_schemes() {
            let name = scheme.name();
            let cfg = PipelineConfig::new(scheme, 0.6, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let n = plain.metrics.candidates_generated;
            assert!(n >= 7, "{name}: test premise: {n} candidates fill 3 chunks");
            // A roomy budget holds every candidate in one chunk; the
            // minimum holds three per chunk.
            for (bytes, chunks) in [(1 << 20, 1), (MemoryBudget::MIN_BYTES, n.div_ceil(3))] {
                let d = spill_dir(&format!("{name}-{bytes}"));
                let sharded = Pipeline::new(cfg)
                    .run_sharded(
                        &mut MemoryRowStream::new(&m),
                        &MemoryBudget::new(bytes, &d),
                        None,
                    )
                    .unwrap();
                let at = format!("{name} at {bytes} bytes");
                assert_eq!(sharded.verified, plain.verified, "{at}");
                assert_eq!(sharded.column_counts, plain.column_counts, "{at}");
                assert_eq!(
                    sharded.metrics.candidate_stages, plain.metrics.candidate_stages,
                    "{at}: stage counters"
                );
                assert_eq!(
                    sharded.metrics.bucket_histogram, plain.metrics.bucket_histogram,
                    "{at}: bucket histogram"
                );
                assert_eq!(sharded.metrics.candidates_generated, n, "{at}");
                assert!(sharded.metrics.index_bytes.is_some_and(|b| b > 0), "{at}");
                let s = sharded.metrics.sharding.expect("sharding metrics");
                assert_eq!(s.shards, chunks, "{at}: chunks");
                assert_eq!(s.verify_groups, chunks, "{at}: verify groups");
                assert_eq!(s.generation_passes, 1, "{at}");
                assert_eq!(s.shard_restarts, 0, "{at}");
                assert!(s.spill_bytes > 0, "{at}");
                assert!(s.peak_tracked_bytes <= bytes as u64, "{at}");
                assert_no_spill_files(&d);
                let _ = std::fs::remove_dir_all(&d);
            }
        }
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
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg)
            .run_sharded(&mut counter, &budget, None)
            .unwrap();
        let s = result.metrics.sharding.expect("sharding metrics");
        assert!(s.verify_groups >= 3);
        assert_eq!(
            u64::from(counter.passes()),
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
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_sharded(&mut counter, &budget, None)
            .unwrap();
        let s = resumed.metrics.sharding.expect("sharding metrics");
        assert_eq!(s.shards, chunks);
        assert_eq!(s.generation_passes, 1, "one walk, even on resume");
        assert_eq!(
            counter.rows_read(),
            u64::from(m.n_rows()) * (1 + chunks - 2),
            "finished chunks are never rescanned"
        );
        assert_eq!(resumed.verified, plain.verified);
        assert_eq!(resumed.column_counts, plain.column_counts);
        assert_eq!(
            resumed.metrics.candidate_stages,
            plain.metrics.candidate_stages
        );
        assert_no_spill_files(&d);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_with_checkpoints_matches_and_cleans_up() {
        let m = matrix();
        for scheme in [
            Scheme::Mh { k: 64, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
            Scheme::HLsh {
                r: 8,
                l: 8,
                t: 4,
                max_levels: 12,
            },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let d = spill_dir(&format!("ckpt-{}", scheme.name()));
            let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
            let spec = CheckpointSpec::new(d.join("ckpt")).with_every_rows(16);
            let sharded = Pipeline::new(cfg)
                .run_sharded(&mut MemoryRowStream::new(&m), &budget, Some(&spec))
                .unwrap();
            assert_eq!(sharded.verified, plain.verified, "{}", scheme.name());
            assert!(
                sharded.metrics.recovery.checkpoints_written > 0
                    || matches!(scheme, Scheme::HLsh { .. }),
                "{}: streaming passes should checkpoint",
                scheme.name()
            );
            let _ = std::fs::remove_dir_all(&d);
        }
    }
}
