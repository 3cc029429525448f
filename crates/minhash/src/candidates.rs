//! Candidate pair containers shared by every scheme, and the phase-2
//! driver every generator runs through: a scheme builds its
//! [`BucketIndex`] and picks a [`PairRule`]; [`CandidateGen`] walks the
//! index and turns each co-bucketed pair's count into a candidate.

use sfa_hash::{BucketIndex, PairWalker};
use sfa_par::ThreadPool;

use crate::estimate;
use crate::kmh::BottomKSignatures;

/// A candidate column pair with the estimate that admitted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePair {
    /// Smaller column id.
    pub i: u32,
    /// Larger column id.
    pub j: u32,
    /// The similarity estimate (or score) produced by the generating
    /// scheme; `1.0` for schemes that only produce set membership (LSH).
    pub estimate: f64,
}

impl CandidatePair {
    /// Creates a candidate, normalizing the order of ids.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    #[must_use]
    pub fn new(a: u32, b: u32, estimate: f64) -> Self {
        assert_ne!(a, b, "self-pair is not a candidate");
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        Self { i, j, estimate }
    }

    /// The pair as an ordered tuple.
    #[must_use]
    pub const fn ids(&self) -> (u32, u32) {
        (self.i, self.j)
    }
}

/// Instrumentation emitted by the `*_with_stats` candidate generators:
/// named counters in generation order, plus the aggregate bucket-occupancy
/// histogram of every hash table (or run structure) the generator filled.
///
/// The counters are scheme-specific but follow a convention: a
/// `counter-increments` entry measures phase-2 work (the paper's
/// `O(k S̄ m²)` term is exactly this number for Hash-Count), and the
/// remaining entries count the pairs surviving each admission stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateGenStats {
    /// `(name, count)` entries in generation order.
    pub stages: Vec<(&'static str, u64)>,
    /// `bucket_histogram[s]` = number of buckets (for Hash-Count/LSH
    /// tables) or sorted runs (for Row-Sorting) holding exactly `s`
    /// columns, aggregated across every table the generator used.
    pub bucket_histogram: Vec<u64>,
}

impl CandidateGenStats {
    /// Appends a named counter.
    pub fn record(&mut self, stage: &'static str, count: u64) {
        self.stages.push((stage, count));
    }

    /// The count recorded under `stage`, if any.
    #[must_use]
    pub fn stage(&self, stage: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|&(_, count)| count)
    }
}

/// How a generator turns a co-bucketed pair's count into a candidate, and
/// which stage counters it reports.
#[derive(Debug, Clone, Copy)]
pub enum PairRule<'a> {
    /// MH and Row-Sorting: pairs agreeing on at least `threshold` of the
    /// `k` signature rows, with `Ŝ = count / k` as the estimate. Stages
    /// `counter-increments`, `pairs-agreeing`, `threshold-admitted`.
    Agreement {
        /// The `(1 − δ)·s*·k` agreement cutoff.
        threshold: u32,
        /// Signature rows.
        k: usize,
    },
    /// K-MH (§3.2): the sketch overlap must clear the per-pair biased
    /// threshold, then the Theorem 2 unbiased estimate must reach
    /// `(1 − δ)·s*`. Stages `counter-increments`, `pairs-overlapping`,
    /// `overlap-admitted`, `rescore-admitted`.
    Overlap {
        /// The sketches (column counts and the unbiased estimator).
        sigs: &'a BottomKSignatures,
        /// Similarity threshold `s*`.
        s_star: f64,
        /// Slack `δ`.
        delta: f64,
    },
    /// LSH: every colliding pair, with `count / runs` as a crude score.
    /// Stages `colliding-pairs`, `emitted`.
    Collision {
        /// Bucket tables a pair could collide in.
        runs: f64,
    },
}

/// Pairs a walk saw and pairs past a scheme's first filter.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    pairs: u64,
    screened: u64,
}

impl Tally {
    fn add(&mut self, other: Self) {
        self.pairs += other.pairs;
        self.screened += other.screened;
    }
}

impl PairRule<'_> {
    fn admit(&self, i: u32, j: u32, count: u32, tally: &mut Tally) -> Option<CandidatePair> {
        tally.pairs += 1;
        match *self {
            Self::Agreement { threshold, k } => {
                (count >= threshold).then(|| CandidatePair::new(i, j, f64::from(count) / k as f64))
            }
            Self::Overlap {
                sigs,
                s_star,
                delta,
            } => {
                let threshold = estimate::kmh_overlap_threshold(
                    s_star,
                    delta,
                    sigs.k(),
                    sigs.column_count(i) as usize,
                    sigs.column_count(j) as usize,
                );
                if (count as usize) < threshold {
                    return None;
                }
                tally.screened += 1;
                let unbiased = sigs.unbiased_similarity(i, j);
                (unbiased >= (1.0 - delta) * s_star).then(|| CandidatePair::new(i, j, unbiased))
            }
            Self::Collision { runs } => Some(CandidatePair::new(i, j, f64::from(count) / runs)),
        }
    }

    fn stats(&self, index: &BucketIndex, tally: Tally, admitted: u64) -> CandidateGenStats {
        let mut stats = CandidateGenStats {
            stages: Vec::new(),
            bucket_histogram: index.histogram().to_vec(),
        };
        match self {
            Self::Agreement { .. } => {
                stats.record("counter-increments", index.increments());
                stats.record("pairs-agreeing", tally.pairs);
                stats.record("threshold-admitted", admitted);
            }
            Self::Overlap { .. } => {
                stats.record("counter-increments", index.increments());
                stats.record("pairs-overlapping", tally.pairs);
                stats.record("overlap-admitted", tally.screened);
                stats.record("rescore-admitted", admitted);
            }
            Self::Collision { .. } => {
                stats.record("colliding-pairs", tally.pairs);
                stats.record("emitted", admitted);
            }
        }
        stats
    }
}

/// A scheme's phase 2, ready to walk: its bucket index and pair rule.
#[derive(Debug)]
pub struct CandidateGen<'a> {
    index: BucketIndex,
    rule: PairRule<'a>,
}

impl<'a> CandidateGen<'a> {
    /// Pairs an index with the rule that admits its pairs.
    #[must_use]
    pub fn new(index: BucketIndex, rule: PairRule<'a>) -> Self {
        Self { index, rule }
    }

    /// The bucket index.
    #[must_use]
    pub fn index(&self) -> &BucketIndex {
        &self.index
    }

    /// Every candidate in `(i, j)` order, plus the stage counters and the
    /// occupancy histogram, with the focus-column walk split over `pool`
    /// (one worker walks it sequentially). Identical at every pool size.
    #[must_use]
    pub fn generate(&self, pool: &ThreadPool) -> (Vec<CandidatePair>, CandidateGenStats) {
        let parts = self.index.par_walk(
            pool,
            || (Tally::default(), Vec::new()),
            |(tally, out), i, j, count| out.extend(self.rule.admit(i, j, count, tally)),
        );
        let mut tally = Tally::default();
        let mut out = Vec::new();
        for (part_tally, candidates) in parts {
            tally.add(part_tally);
            out.extend(candidates);
        }
        let stats = self.rule.stats(&self.index, tally, out.len() as u64);
        (out, stats)
    }

    /// A sequential walk handing out candidates one focus column at a
    /// time, for callers that consume them in bounded chunks.
    #[must_use]
    pub fn stream(&self) -> CandidateStream<'_, 'a> {
        CandidateStream {
            generator: self,
            walker: PairWalker::new(&self.index),
            next: 0,
            tally: Tally::default(),
            admitted: 0,
        }
    }
}

/// The column-at-a-time walk of a [`CandidateGen`]; concatenating every
/// column's candidates gives exactly [`CandidateGen::generate`]'s list.
#[derive(Debug)]
pub struct CandidateStream<'g, 'a> {
    generator: &'g CandidateGen<'a>,
    walker: PairWalker<'g>,
    next: u32,
    tally: Tally,
    admitted: u64,
}

impl CandidateStream<'_, '_> {
    /// Appends the next focus column's candidates to `out` in `(i, j)`
    /// order; returns `false` once every column has been walked.
    pub fn next_column(&mut self, out: &mut Vec<CandidatePair>) -> bool {
        if self.next as usize >= self.generator.index.m() {
            return false;
        }
        let i = self.next;
        self.next += 1;
        let (rule, tally) = (&self.generator.rule, &mut self.tally);
        let before = out.len();
        self.walker
            .column(i, |j, count| out.extend(rule.admit(i, j, count, tally)));
        self.admitted += (out.len() - before) as u64;
        true
    }

    /// The stage counters of the columns walked so far — the full walk's,
    /// equal to [`CandidateGen::generate`]'s, once
    /// [`next_column`](Self::next_column) returned `false`.
    #[must_use]
    pub fn stats(&self) -> CandidateGenStats {
        self.generator
            .rule
            .stats(&self.generator.index, self.tally, self.admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_order() {
        let c = CandidatePair::new(7, 2, 0.5);
        assert_eq!(c.ids(), (2, 7));
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_panics() {
        let _ = CandidatePair::new(3, 3, 1.0);
    }
}
