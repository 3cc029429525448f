//! Lock-free request accounting and a log-bucketed latency histogram.
//!
//! Workers bump atomics on every disposition; at shutdown the counters
//! fold into the schema-v5 [`ServingMetrics`] block. The invariant the
//! CI smoke job asserts — `answered + shed + timed_out == accepted` — is
//! maintained here by construction: every admission increments `accepted`
//! exactly once, and every admitted request ends in exactly one of the
//! three disposition counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sfa_core::ServingMetrics;

/// Latency histogram buckets: `bucket b` holds samples in
/// `[2^b, 2^(b+1))` microseconds, with bucket 0 catching sub-microsecond
/// replies and the last bucket open-ended.
const LATENCY_BUCKETS: usize = 32;

/// Shared request accounting. All methods are callable from any worker
/// concurrently; relaxed ordering suffices because the counters are only
/// read after the workers join.
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    malformed: AtomicU64,
    ingested_rows: AtomicU64,
    snapshot_swaps: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl ServerStats {
    /// A request was admitted (read off a socket, or a connection shed at
    /// the gate — shed connections count one request).
    pub fn admit(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request got its reply; record its service latency.
    pub fn answer(&self, latency: Duration) {
        self.answered.fetch_add(1, Ordering::Relaxed);
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was refused with `OVERLOADED`.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was dropped by a timeout or deadline.
    pub fn time_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// An answered request was malformed (its reply was `ERR`).
    pub fn malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` rows were acknowledged via `INGEST`.
    pub fn ingested(&self, n: u64) {
        self.ingested_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// A rebuilt snapshot was swapped in.
    pub fn swapped(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-th percentile latency in microseconds, from the histogram
    /// (upper bucket bound, so p50/p99 are conservative).
    fn percentile_micros(&self, counts: &[u64; LATENCY_BUCKETS], p: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((total as f64 * p).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << b;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// Folds the counters into the schema-v5 metrics block.
    #[must_use]
    pub fn to_metrics(&self, uptime: Duration) -> ServingMetrics {
        let mut counts = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(&self.latency) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let answered = self.answered.load(Ordering::Relaxed);
        let uptime_secs = uptime.as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let qps = if uptime_secs > 0.0 {
            answered as f64 / uptime_secs
        } else {
            0.0
        };
        ServingMetrics {
            accepted: self.accepted.load(Ordering::Relaxed),
            answered,
            shed: self.shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            ingested_rows: self.ingested_rows.load(Ordering::Relaxed),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            uptime_secs,
            qps,
            p50_micros: self.percentile_micros(&counts, 0.50),
            p99_micros: self.percentile_micros(&counts, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_disposition_balances() {
        let stats = ServerStats::default();
        for _ in 0..10 {
            stats.admit();
            stats.answer(Duration::from_micros(100));
        }
        for _ in 0..3 {
            stats.admit();
            stats.shed();
        }
        stats.admit();
        stats.time_out();
        stats.malformed();
        stats.ingested(5);
        stats.swapped();
        let m = stats.to_metrics(Duration::from_secs(2));
        assert!(m.balances(), "{m:?}");
        assert_eq!(
            (m.accepted, m.answered, m.shed, m.timed_out),
            (14, 10, 3, 1)
        );
        assert_eq!((m.malformed, m.ingested_rows, m.snapshot_swaps), (1, 5, 1));
        assert!((m.qps - 5.0).abs() < 1e-9);
        assert!(m.uptime_secs > 0.0);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let stats = ServerStats::default();
        // 99 fast replies (~64 µs bucket) and one slow outlier (~65 ms).
        for _ in 0..99 {
            stats.admit();
            stats.answer(Duration::from_micros(60));
        }
        stats.admit();
        stats.answer(Duration::from_millis(65));
        let m = stats.to_metrics(Duration::from_secs(1));
        assert!(m.p50_micros <= 128, "p50 in the fast bucket: {m:?}");
        assert!(m.p99_micros <= 128, "rank 99 of 100 is still fast: {m:?}");
        // All slow: p50 lands in the slow bucket.
        let slow = ServerStats::default();
        slow.admit();
        slow.answer(Duration::from_millis(65));
        let sm = slow.to_metrics(Duration::from_secs(1));
        assert!(sm.p50_micros > 32_000, "{sm:?}");
    }

    #[test]
    fn empty_stats_report_zeroes() {
        let m = ServerStats::default().to_metrics(Duration::ZERO);
        assert_eq!(m, ServingMetrics::default());
        assert!(m.balances());
    }
}
