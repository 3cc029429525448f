//! Result and timing types.

use std::time::Duration;

use sfa_json::{Json, ToJson};

use crate::config::PipelineConfig;
use crate::metrics::{MetricsDocument, MiningMetrics};

/// A candidate pair after exact verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedPair {
    /// Smaller column id.
    pub i: u32,
    /// Larger column id.
    pub j: u32,
    /// Exact `|C_i ∩ C_j|`.
    pub intersection: u32,
    /// Exact `|C_i ∪ C_j|`.
    pub union: u32,
    /// Exact Jaccard similarity.
    pub similarity: f64,
    /// The phase-2 estimate that admitted the pair.
    pub estimate: f64,
}

impl VerifiedPair {
    /// Exact confidence `Conf(c_i ⇒ c_j) = |C_i ∩ C_j| / |C_i|`, derivable
    /// because `|C_i| = union − (|C_j| − intersection)`… callers that need
    /// per-direction confidence should use
    /// [`MiningResult::column_count`] to recover `|C_i|`.
    #[must_use]
    pub fn jaccard(&self) -> f64 {
        self.similarity
    }
}

/// Wall-clock time of each pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Phase 1: signature computation (the first data pass).
    pub signatures: Duration,
    /// Phase 2: candidate generation (in-memory).
    pub candidates: Duration,
    /// Phase 3: exact verification (the second data pass).
    pub verify: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfa_core::PhaseTimings;
    /// use std::time::Duration;
    ///
    /// let timings = PhaseTimings {
    ///     signatures: Duration::from_millis(100),
    ///     candidates: Duration::from_millis(50),
    ///     verify: Duration::from_millis(25),
    /// };
    /// assert_eq!(timings.total(), Duration::from_millis(175));
    /// ```
    #[must_use]
    pub fn total(&self) -> Duration {
        self.signatures + self.candidates + self.verify
    }
}

impl ToJson for PhaseTimings {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("signatures", self.signatures)
            .field("candidates", self.candidates)
            .field("verify", self.verify)
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "signatures {:.3}s + candidates {:.3}s + verify {:.3}s = {:.3}s",
            self.signatures.as_secs_f64(),
            self.candidates.as_secs_f64(),
            self.verify.as_secs_f64(),
            self.total().as_secs_f64()
        )
    }
}

/// The output of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningResult {
    /// The configuration that produced this result.
    pub config: PipelineConfig,
    /// Every candidate with its exact counts, sorted by `(i, j)` —
    /// including those below `s*` (needed for S-curve evaluation; they are
    /// the scheme's false-positive candidates).
    pub verified: Vec<VerifiedPair>,
    /// Column cardinalities `|C_j|` for every column touched by a
    /// candidate pair (0 for untouched columns).
    pub column_counts: Vec<u32>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Structured per-phase counters (see [`crate::metrics`]).
    pub metrics: MiningMetrics,
}

impl MiningResult {
    /// The output pairs: verified candidates meeting the threshold,
    /// descending by similarity.
    #[must_use]
    pub fn similar_pairs(&self) -> Vec<VerifiedPair> {
        let mut out: Vec<VerifiedPair> = self
            .verified
            .iter()
            .filter(|p| p.similarity >= self.config.s_star)
            .copied()
            .collect();
        out.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .expect("finite")
                .then(a.i.cmp(&b.i))
                .then(a.j.cmp(&b.j))
        });
        out
    }

    /// Number of candidates phase 2 produced.
    #[must_use]
    pub fn candidates_generated(&self) -> usize {
        self.verified.len()
    }

    /// Candidates that verification rejected (the scheme's false
    /// positives — they cost a pass but never reach the output).
    #[must_use]
    pub fn false_positive_candidates(&self) -> usize {
        self.verified
            .iter()
            .filter(|p| p.similarity < self.config.s_star)
            .count()
    }

    /// `|C_j|` for a column involved in some candidate (0 otherwise).
    #[must_use]
    pub fn column_count(&self, j: u32) -> u32 {
        self.column_counts.get(j as usize).copied().unwrap_or(0)
    }

    /// Exact confidence `Conf(c_i ⇒ c_j)` for a verified pair.
    #[must_use]
    pub fn confidence(&self, pair: &VerifiedPair) -> f64 {
        let ci = self.column_count(pair.i);
        if ci == 0 {
            0.0
        } else {
            f64::from(pair.intersection) / f64::from(ci)
        }
    }

    /// Packages the run's observables as the schema-stable document that
    /// `--metrics-json` writes.
    #[must_use]
    pub fn metrics_document(&self) -> MetricsDocument {
        MetricsDocument::new(self.config, self.timings, self.metrics.clone())
    }
}

impl std::fmt::Display for MiningResult {
    /// A one-paragraph human-readable summary.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let outputs = self
            .verified
            .iter()
            .filter(|p| p.similarity >= self.config.s_star)
            .count();
        write!(
            f,
            "{} at s* = {}: {} candidates -> {} pairs ({} candidate false positives removed); {}",
            self.config.scheme.name(),
            self.config.s_star,
            self.candidates_generated(),
            outputs,
            self.false_positive_candidates(),
            self.timings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};

    fn result() -> MiningResult {
        MiningResult {
            config: PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 1),
            verified: vec![
                VerifiedPair {
                    i: 0,
                    j: 1,
                    intersection: 9,
                    union: 10,
                    similarity: 0.9,
                    estimate: 0.85,
                },
                VerifiedPair {
                    i: 2,
                    j: 3,
                    intersection: 1,
                    union: 10,
                    similarity: 0.1,
                    estimate: 0.6,
                },
            ],
            column_counts: vec![10, 9, 5, 6],
            timings: PhaseTimings::default(),
            metrics: MiningMetrics::default(),
        }
    }

    #[test]
    fn similar_pairs_filters_and_sorts() {
        let r = result();
        let out = r.similar_pairs();
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].i, out[0].j), (0, 1));
    }

    #[test]
    fn false_positive_accounting() {
        let r = result();
        assert_eq!(r.candidates_generated(), 2);
        assert_eq!(r.false_positive_candidates(), 1);
    }

    #[test]
    fn confidence_uses_column_counts() {
        let r = result();
        let p = r.verified[0];
        // Conf(c0 ⇒ c1) = 9/10.
        assert!((r.confidence(&p) - 0.9).abs() < 1e-12);
        assert_eq!(r.column_count(99), 0);
    }

    #[test]
    fn result_display_summarizes() {
        let text = result().to_string();
        assert!(text.contains("MH at s* = 0.5"));
        assert!(text.contains("2 candidates -> 1 pairs"));
        assert!(text.contains("1 candidate false positives"));
    }

    #[test]
    fn timings_total_and_display() {
        let t = PhaseTimings {
            signatures: Duration::from_millis(100),
            candidates: Duration::from_millis(50),
            verify: Duration::from_millis(25),
        };
        assert_eq!(t.total(), Duration::from_millis(175));
        let text = t.to_string();
        assert!(text.contains("0.175"));
    }
}
