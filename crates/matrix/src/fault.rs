//! Deterministic fault injection and bounded-retry recovery for row streams.
//!
//! Out-of-core mining means multi-minute sequential passes over disk (or
//! network-mounted) storage, where transient IO failures are a matter of
//! *when*, not *if*. This module provides both halves of the fault story:
//!
//! * [`FaultyRowStream`] — a deterministic, seeded wrapper that injects
//!   transient IO errors, fatal faults, simulated truncation and corrupted
//!   rows at configurable rates and positions, so every recovery path in
//!   the pipeline is testable without real flaky hardware.
//! * [`RetryingRowStream`] — a wrapper that classifies failures with
//!   [`MatrixError::is_transient`], retries transient ones up to a bounded
//!   number of times (with optional backoff), and transparently
//!   [`reset`](RowStream::reset)s and fast-forwards past already-delivered
//!   rows so the consumer never notices the hiccup.
//!
//! The taxonomy, retry semantics and their interaction with
//! checkpoint/resume are documented in `docs/ROBUSTNESS.md`.

use std::collections::BTreeSet;
use std::time::Duration;

use sfa_hash::hash64_with_seed;

use crate::error::{MatrixError, Result};
use crate::stream::RowStream;

/// What faults a [`FaultyRowStream`] injects, and where.
///
/// All injection is a pure function of the row id and [`seed`](Self::seed),
/// so two streams with the same config fault identically — runs are
/// reproducible.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Seed for the hash that decides which rows suffer rate-based
    /// transient faults.
    pub seed: u64,
    /// Expected transient IO errors per 1000 rows: a row `r` faults when
    /// `hash(r, seed) mod 1000 < transient_per_mille`. Each such fault
    /// fires **once**; re-reading the row after the error succeeds, so
    /// progress under retry is monotone.
    pub transient_per_mille: u32,
    /// Rows that always suffer one transient fault, regardless of the rate
    /// (for tests that need a fault at an exact position).
    pub transient_at_rows: Vec<u32>,
    /// Row at which every read fails with a *fatal* (non-transient) IO
    /// error — simulates a crash/kill mid-pass for checkpoint/resume tests.
    pub fatal_at_row: Option<u32>,
    /// Restricts [`fatal_at_row`](Self::fatal_at_row) to one pass, counted
    /// in [`reset`](RowStream::reset) calls (0 = before the first reset);
    /// `None` faults in every pass.
    pub fatal_in_pass: Option<usize>,
    /// Row at which the stream reports `UnexpectedEof`, simulating a file
    /// truncated under the reader (fatal by the taxonomy).
    pub truncate_at_row: Option<u32>,
    /// Row delivered with a corrupted payload (an out-of-range column id
    /// appended) — exercises downstream validation, not the retry path.
    pub corrupt_at_row: Option<u32>,
}

/// A [`RowStream`] wrapper injecting deterministic faults per
/// [`FaultConfig`].
///
/// Transient faults fire once per row and are remembered across
/// [`reset`](RowStream::reset), so a retrying consumer makes progress;
/// fatal and truncation faults fire on every attempt. Skipped rows
/// ([`skip_rows`](RowStream::skip_rows)) are not inspected and never fault
/// — fast-forward is a recovery primitive, not a data path.
#[derive(Debug)]
pub struct FaultyRowStream<S> {
    inner: S,
    config: FaultConfig,
    /// Index of the next row a `read_row` call would deliver.
    pos: u32,
    /// Resets so far: the index of the current pass.
    pass: usize,
    /// Rows whose one-shot transient fault has already fired.
    fired: BTreeSet<u32>,
    transient_injected: u64,
}

impl<S: RowStream> FaultyRowStream<S> {
    /// Wraps `inner` with the given fault plan.
    #[must_use]
    pub fn new(inner: S, config: FaultConfig) -> Self {
        Self {
            inner,
            config,
            pos: 0,
            pass: 0,
            fired: BTreeSet::new(),
            transient_injected: 0,
        }
    }

    /// How many transient faults have been injected so far.
    #[must_use]
    pub const fn transient_injected(&self) -> u64 {
        self.transient_injected
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Whether row `row` is scheduled for a (one-shot) transient fault.
    fn transient_due(&self, row: u32) -> bool {
        if self.fired.contains(&row) {
            return false;
        }
        if self.config.transient_at_rows.contains(&row) {
            return true;
        }
        self.config.transient_per_mille > 0
            && hash64_with_seed(u64::from(row), self.config.seed) % 1000
                < u64::from(self.config.transient_per_mille)
    }
}

impl<S: RowStream> RowStream for FaultyRowStream<S> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        let row = self.pos;
        if self.config.fatal_at_row == Some(row)
            && self.config.fatal_in_pass.is_none_or(|p| p == self.pass)
        {
            return Err(std::io::Error::other(format!("injected fatal fault at row {row}")).into());
        }
        if self.config.truncate_at_row == Some(row) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("injected truncation at row {row}"),
            )
            .into());
        }
        if self.transient_due(row) {
            self.fired.insert(row);
            self.transient_injected += 1;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected transient fault at row {row}"),
            )
            .into());
        }
        let r = self.inner.read_row(buf)?;
        if r.is_some() {
            if self.config.corrupt_at_row == Some(row) {
                // An out-of-range column id: structurally invalid, so any
                // validating consumer must reject the row.
                buf.push(self.inner.n_cols());
            }
            self.pos += 1;
        }
        Ok(r)
    }

    fn reset(&mut self) -> Result<()> {
        self.inner.reset()?;
        self.pos = 0;
        self.pass += 1;
        Ok(())
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        let skipped = self.inner.skip_rows(count)?;
        self.pos += u32::try_from(skipped).expect("bounded by n_rows");
        Ok(skipped)
    }
}

/// Counters describing what a [`RetryingRowStream`] had to do to keep its
/// consumer oblivious to transient failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient errors that were absorbed and retried.
    pub retries: u64,
    /// Rows fast-forwarded past during recovery (reset + skip back to the
    /// failure point).
    pub rows_refetched: u64,
}

/// A [`RowStream`] wrapper that survives transient failures.
///
/// On a transient error (per [`MatrixError::is_transient`]) during
/// [`read_row`](RowStream::read_row), the wrapper sleeps for the configured
/// backoff, [`reset`](RowStream::reset)s the inner stream, fast-forwards
/// past the rows already delivered in the current pass, and retries — up to
/// `max_retries` times per incident. Fatal errors, and transient errors
/// beyond the budget, propagate unchanged.
#[derive(Debug)]
pub struct RetryingRowStream<S> {
    inner: S,
    max_retries: u32,
    backoff: Duration,
    /// Rows consumed (delivered or skipped) in the current pass — the
    /// cursor recovery fast-forwards to.
    consumed: u64,
    stats: RetryStats,
}

impl<S: RowStream> RetryingRowStream<S> {
    /// Wraps `inner`, retrying each transient incident up to `max_retries`
    /// times with no backoff.
    #[must_use]
    pub fn new(inner: S, max_retries: u32) -> Self {
        Self {
            inner,
            max_retries,
            backoff: Duration::ZERO,
            consumed: 0,
            stats: RetryStats::default(),
        }
    }

    /// Sets a fixed sleep before each retry attempt.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// What the wrapper has absorbed so far.
    #[must_use]
    pub const fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Rewinds the inner stream and fast-forwards past the `consumed`-row
    /// prefix of the current pass.
    fn recover(&mut self) -> Result<()> {
        self.inner.reset()?;
        let skipped = self.inner.skip_rows(self.consumed)?;
        self.stats.rows_refetched += skipped;
        if skipped != self.consumed {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "stream shrank during retry: could only fast-forward {skipped} of {} rows",
                    self.consumed
                ),
            });
        }
        Ok(())
    }
}

impl<S: RowStream> RowStream for RetryingRowStream<S> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        let mut attempts = 0u32;
        // After a transient failure the inner stream's position is suspect,
        // so every subsequent attempt re-establishes it via reset +
        // fast-forward before re-reading.
        let mut need_recover = false;
        loop {
            if need_recover {
                match self.recover() {
                    Ok(()) => {}
                    Err(e) if e.is_transient() && attempts < self.max_retries => {
                        attempts += 1;
                        self.stats.retries += 1;
                        if !self.backoff.is_zero() {
                            std::thread::sleep(self.backoff);
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            match self.inner.read_row(buf) {
                Ok(r) => {
                    if r.is_some() {
                        self.consumed += 1;
                    }
                    return Ok(r);
                }
                Err(e) if e.is_transient() && attempts < self.max_retries => {
                    attempts += 1;
                    self.stats.retries += 1;
                    if !self.backoff.is_zero() {
                        std::thread::sleep(self.backoff);
                    }
                    need_recover = true;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn reset(&mut self) -> Result<()> {
        self.inner.reset()?;
        self.consumed = 0;
        Ok(())
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        // Fast-forward is itself a recovery primitive (and never faults in
        // the injection harness), so errors here propagate without retry.
        let skipped = self.inner.skip_rows(count)?;
        self.consumed += skipped;
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::RowMajorMatrix;
    use crate::stream::MemoryRowStream;

    fn sample() -> RowMajorMatrix {
        let rows = (0..50u32).map(|r| vec![r % 7, (r % 7) + 1]).collect();
        RowMajorMatrix::from_rows(8, rows).unwrap()
    }

    fn drain(stream: &mut impl RowStream) -> Vec<(u32, Vec<u32>)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(id) = stream.read_row(&mut buf).unwrap() {
            out.push((id, buf.clone()));
        }
        out
    }

    #[test]
    fn injection_is_deterministic_and_rate_controlled() {
        let m = sample();
        let config = FaultConfig {
            seed: 7,
            transient_per_mille: 200,
            ..FaultConfig::default()
        };
        let faulted_rows = |seed: u64| -> Vec<u32> {
            let mut s = FaultyRowStream::new(
                MemoryRowStream::new(&m),
                FaultConfig {
                    seed,
                    ..config.clone()
                },
            );
            let mut buf = Vec::new();
            let mut faulted = Vec::new();
            loop {
                match s.read_row(&mut buf) {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        assert!(e.is_transient());
                        // The fault is one-shot: the immediate re-read of
                        // the same row succeeds.
                        faulted.push(s.pos);
                    }
                }
            }
            faulted
        };
        let a = faulted_rows(7);
        let b = faulted_rows(7);
        let c = faulted_rows(8);
        assert_eq!(a, b, "same seed must fault identically");
        assert!(!a.is_empty(), "200‰ over 50 rows should fault somewhere");
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn transient_fault_fires_once_per_row() {
        let m = sample();
        let mut s = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                transient_at_rows: vec![3],
                ..FaultConfig::default()
            },
        );
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(s.read_row(&mut buf).unwrap().is_some());
        }
        let err = s.read_row(&mut buf).unwrap_err();
        assert!(err.is_transient());
        // No reset needed: the wrapper did not advance, and the fault is
        // spent, so the same row now succeeds.
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(3));
        assert_eq!(s.transient_injected(), 1);
        // …and it stays spent across a reset.
        s.reset().unwrap();
        assert_eq!(drain(&mut s).len(), 50);
    }

    #[test]
    fn fatal_and_truncation_faults_are_not_transient() {
        let m = sample();
        for (config, expect_eof) in [
            (
                FaultConfig {
                    fatal_at_row: Some(5),
                    ..FaultConfig::default()
                },
                false,
            ),
            (
                FaultConfig {
                    truncate_at_row: Some(5),
                    ..FaultConfig::default()
                },
                true,
            ),
        ] {
            let mut s = FaultyRowStream::new(MemoryRowStream::new(&m), config);
            let mut buf = Vec::new();
            for _ in 0..5 {
                assert!(s.read_row(&mut buf).unwrap().is_some());
            }
            let err = s.read_row(&mut buf).unwrap_err();
            assert!(!err.is_transient(), "must be fatal: {err}");
            if expect_eof {
                assert!(err.to_string().contains("truncation"), "{err}");
            }
            // Fatal faults fire on every attempt.
            assert!(s.read_row(&mut buf).is_err());
        }
    }

    #[test]
    fn fatal_in_pass_faults_only_that_pass() {
        let m = sample();
        let mut s = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                fatal_at_row: Some(5),
                fatal_in_pass: Some(1),
                ..FaultConfig::default()
            },
        );
        assert_eq!(drain(&mut s).len(), 50, "pass 0 is clean");
        s.reset().unwrap();
        let mut buf = Vec::new();
        for _ in 0..5 {
            assert!(s.read_row(&mut buf).unwrap().is_some());
        }
        assert!(!s.read_row(&mut buf).unwrap_err().is_transient());
        s.reset().unwrap();
        assert_eq!(drain(&mut s).len(), 50, "pass 2 is clean");
    }

    #[test]
    fn corrupt_row_carries_out_of_range_column() {
        let m = sample();
        let mut s = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                corrupt_at_row: Some(2),
                ..FaultConfig::default()
            },
        );
        let rows = drain(&mut s);
        assert_eq!(rows.len(), 50);
        let bad = &rows[2].1;
        assert!(
            bad.iter().any(|&c| c >= s.n_cols()),
            "row 2 should be corrupted: {bad:?}"
        );
        assert!(rows[3].1.iter().all(|&c| c < s.n_cols()));
    }

    #[test]
    fn retrying_stream_masks_transient_faults() {
        let m = sample();
        let clean = drain(&mut MemoryRowStream::new(&m));
        let faulty = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                seed: 42,
                transient_per_mille: 150,
                transient_at_rows: vec![0, 49],
                ..FaultConfig::default()
            },
        );
        let mut retrying = RetryingRowStream::new(faulty, 3);
        let recovered = drain(&mut retrying);
        assert_eq!(
            recovered, clean,
            "recovery must be invisible to the consumer"
        );
        let stats = retrying.stats();
        assert!(
            stats.retries >= 2,
            "at least the two forced faults: {stats:?}"
        );
        assert_eq!(
            stats.retries,
            retrying.into_inner().transient_injected(),
            "every injected transient fault should cost exactly one retry"
        );
    }

    #[test]
    fn retry_budget_is_bounded() {
        let m = sample();
        // max_retries = 0: the first transient error must propagate.
        let faulty = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                transient_at_rows: vec![1],
                ..FaultConfig::default()
            },
        );
        let mut retrying = RetryingRowStream::new(faulty, 0);
        let mut buf = Vec::new();
        assert_eq!(retrying.read_row(&mut buf).unwrap(), Some(0));
        assert!(retrying.read_row(&mut buf).unwrap_err().is_transient());
    }

    #[test]
    fn fatal_faults_pass_through_retry() {
        let m = sample();
        let faulty = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                fatal_at_row: Some(4),
                ..FaultConfig::default()
            },
        );
        let mut retrying = RetryingRowStream::new(faulty, 10);
        let mut buf = Vec::new();
        for _ in 0..4 {
            assert!(retrying.read_row(&mut buf).unwrap().is_some());
        }
        let err = retrying.read_row(&mut buf).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(retrying.stats().retries, 0, "fatal errors are not retried");
    }

    #[test]
    fn recovery_fast_forwards_not_redelivers() {
        let m = sample();
        let faulty = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                transient_at_rows: vec![10],
                ..FaultConfig::default()
            },
        );
        let mut retrying = RetryingRowStream::new(faulty, 2);
        let rows = drain(&mut retrying);
        assert_eq!(rows.len(), 50);
        let stats = retrying.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(
            stats.rows_refetched, 10,
            "recovery at row 10 fast-forwards exactly the delivered prefix"
        );
    }

    #[test]
    fn skip_rows_bypasses_faults() {
        let m = sample();
        let mut s = FaultyRowStream::new(
            MemoryRowStream::new(&m),
            FaultConfig {
                transient_at_rows: vec![0, 1, 2],
                ..FaultConfig::default()
            },
        );
        assert_eq!(s.skip_rows(3).unwrap(), 3);
        let mut buf = Vec::new();
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(3));
    }
}
