//! Output-quality evaluation: the §5.1 methodology.
//!
//! "We plot a curve that shows the ratio of the number of pairs found by
//! the algorithm over the real number of pairs for a given similarity
//! range. The resulting plot is typically an 'S'-shaped curve … the area
//! below the curve and to the left of a given similarity cutoff corresponds
//! to the number of false positives, while the area above the curve and to
//! the right of a cutoff corresponds to the number of false negatives."

use sfa_hash::bucket::{pack_pair, FastHashSet};
use sfa_matrix::stats::SimilarPair;

/// One bin of the S-curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SCurveBin {
    /// Inclusive lower similarity bound of the bin.
    pub low: f64,
    /// Exclusive upper bound (inclusive for the last bin).
    pub high: f64,
    /// Real pairs in this similarity range (ground truth).
    pub real: u64,
    /// Pairs the algorithm found in this range.
    pub found: u64,
}

impl SCurveBin {
    /// `found / real`, or `None` when the bin has no real pairs.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        (self.real > 0).then(|| self.found as f64 / self.real as f64)
    }
}

/// Quality of one algorithm run against exact ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// The similarity cutoff the accounting uses.
    pub cutoff: f64,
    /// Real pairs at or above the cutoff.
    pub real_above: u64,
    /// Found pairs at or above the cutoff (true positives).
    pub true_positives: u64,
    /// Real pairs at or above the cutoff that were missed.
    pub false_negatives: u64,
    /// Found pairs *below* the cutoff (candidate false positives; the
    /// exact verification pass keeps them out of the final output, but
    /// they measure wasted phase-3 work).
    pub false_positives: u64,
    /// The S-curve over the full `[0, 1]` range.
    pub s_curve: Vec<SCurveBin>,
}

impl QualityReport {
    /// Fraction of real above-cutoff pairs that were found (recall).
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.real_above == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.real_above as f64
        }
    }

    /// Fraction of real above-cutoff pairs missed.
    #[must_use]
    pub fn false_negative_rate(&self) -> f64 {
        1.0 - self.recall()
    }

    /// Precision of the *candidate set*: true positives over all found
    /// pairs (candidate false positives cost verification work even though
    /// they never reach the output).
    #[must_use]
    pub fn precision(&self) -> f64 {
        let found = self.true_positives + self.false_positives;
        if found == 0 {
            1.0
        } else {
            self.true_positives as f64 / found as f64
        }
    }

    /// Harmonic mean of [`precision`](Self::precision) and
    /// [`recall`](Self::recall).
    #[must_use]
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Evaluates found pairs (with their exact similarities) against the exact
/// ground-truth pair list.
///
/// `found` is typically
/// [`MiningResult::verified`](crate::report::MiningResult) converted to
/// `(i, j, exact_similarity)`; including the below-cutoff candidates makes
/// the false-positive column meaningful.
///
/// `truth` must contain every pair with similarity above the lowest bin of
/// interest (use [`sfa_matrix::stats::exact_similar_pairs`] with a low
/// threshold).
///
/// # Panics
///
/// Panics if `bins == 0` or `cutoff` outside `(0, 1]`.
#[must_use]
pub fn evaluate_quality(
    found: &[(u32, u32, f64)],
    truth: &[SimilarPair],
    bins: usize,
    cutoff: f64,
) -> QualityReport {
    assert!(bins > 0, "need at least one bin");
    assert!(cutoff > 0.0 && cutoff <= 1.0, "cutoff must be in (0, 1]");
    let bin_of = |s: f64| -> usize { ((s * bins as f64) as usize).min(bins - 1) };
    let mut s_curve: Vec<SCurveBin> = (0..bins)
        .map(|b| SCurveBin {
            low: b as f64 / bins as f64,
            high: (b + 1) as f64 / bins as f64,
            real: 0,
            found: 0,
        })
        .collect();

    let found_keys: FastHashSet<u64> = found
        .iter()
        .map(|&(i, j, _)| pack_pair(i.min(j), i.max(j)))
        .collect();

    let mut real_above = 0u64;
    let mut true_positives = 0u64;
    for p in truth {
        s_curve[bin_of(p.similarity)].real += 1;
        if p.similarity >= cutoff {
            real_above += 1;
            if found_keys.contains(&pack_pair(p.i.min(p.j), p.i.max(p.j))) {
                true_positives += 1;
            }
        }
    }
    let mut false_positives = 0u64;
    for &(_, _, s) in found {
        s_curve[bin_of(s)].found += 1;
        if s < cutoff {
            false_positives += 1;
        }
    }
    QualityReport {
        cutoff,
        real_above,
        true_positives,
        false_negatives: real_above - true_positives,
        false_positives,
        s_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<SimilarPair> {
        vec![
            SimilarPair {
                i: 0,
                j: 1,
                similarity: 0.95,
            },
            SimilarPair {
                i: 2,
                j: 3,
                similarity: 0.85,
            },
            SimilarPair {
                i: 4,
                j: 5,
                similarity: 0.55,
            },
            SimilarPair {
                i: 6,
                j: 7,
                similarity: 0.15,
            },
        ]
    }

    #[test]
    fn perfect_run_has_full_recall() {
        let found = vec![(0, 1, 0.95), (2, 3, 0.85)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        assert_eq!(q.real_above, 2);
        assert_eq!(q.true_positives, 2);
        assert_eq!(q.false_negatives, 0);
        assert_eq!(q.false_positives, 0);
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn misses_count_as_false_negatives() {
        let found = vec![(0, 1, 0.95)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        assert_eq!(q.false_negatives, 1);
        assert!((q.recall() - 0.5).abs() < 1e-12);
        assert!((q.false_negative_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn below_cutoff_candidates_are_false_positives() {
        let found = vec![(0, 1, 0.95), (2, 3, 0.85), (6, 7, 0.15)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        assert_eq!(q.false_positives, 1);
    }

    #[test]
    fn s_curve_bins_real_and_found() {
        let found = vec![(0, 1, 0.95), (4, 5, 0.55)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        let bin9 = &q.s_curve[9]; // [0.9, 1.0]
        assert_eq!(bin9.real, 1);
        assert_eq!(bin9.found, 1);
        assert_eq!(bin9.ratio(), Some(1.0));
        let bin5 = &q.s_curve[5]; // [0.5, 0.6)
        assert_eq!(bin5.real, 1);
        assert_eq!(bin5.found, 1);
        let bin8 = &q.s_curve[8]; // [0.8, 0.9): the missed pair
        assert_eq!(bin8.real, 1);
        assert_eq!(bin8.found, 0);
        assert_eq!(bin8.ratio(), Some(0.0));
        let empty = &q.s_curve[3];
        assert_eq!(empty.ratio(), None);
    }

    #[test]
    fn precision_and_f1_metrics() {
        let found = vec![(0, 1, 0.95), (2, 3, 0.85), (6, 7, 0.15)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        // 2 TP, 1 FP candidate → precision 2/3; recall 1.
        assert!((q.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.recall(), 1.0);
        assert!((q.f1() - 0.8).abs() < 1e-12);
        // Degenerate: nothing found, nothing real.
        let empty = evaluate_quality(&[], &[], 5, 0.5);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.f1(), 1.0);
    }

    #[test]
    fn empty_truth_gives_unit_recall() {
        let q = evaluate_quality(&[], &[], 5, 0.5);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.false_negatives, 0);
    }

    #[test]
    fn order_of_pair_ids_is_normalized() {
        let found = vec![(1, 0, 0.95)];
        let q = evaluate_quality(&found, &truth(), 10, 0.8);
        assert_eq!(q.true_positives, 1);
    }
}
