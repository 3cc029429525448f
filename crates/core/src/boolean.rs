//! §7: boolean extensions over min-hash signatures.
//!
//! * **OR composition**: the signature of `c_j ∨ c_j'` is the
//!   component-wise minimum of the two signatures, so "`c_i` is
//!   highly-similar to `c_j ∨ c_j'`" queries run on signatures alone.
//! * **AND implication**: "`c_i` implies `c_j ∧ c_j'`" iff `c_i ⇒ c_j`
//!   and `c_i ⇒ c_j'` — both estimable via the §6 confidence machinery.
//! * **Anticorrelation**: mutual exclusion is only statistically
//!   meaningful with a support floor ("extremely sparse columns are likely
//!   to be mutually exclusive by sheer chance"), so the finder filters to
//!   frequent columns first — a regime where even a priori struggles, but
//!   signatures handle directly.

use sfa_minhash::{CandidatePair, SignatureMatrix};

use crate::confidence::estimate_confidence;

/// Estimated similarity between column `target` and the induced OR column
/// `c_i ∨ c_j`, computed purely from signatures.
#[must_use]
pub fn or_similarity(sigs: &SignatureMatrix, target: u32, i: u32, j: u32) -> f64 {
    let or_sig = sigs.or_signature(i, j);
    sigs.agreement_with(target, &or_sig) as f64 / sigs.k() as f64
}

/// Finds, among the given candidate pairs, those whose OR is similar to
/// `target` at level `s_star` (with slack `delta`).
///
/// The pair pool keeps this from being `O(m²)`; callers typically feed the
/// pairs that already share buckets with `target`.
#[must_use]
pub fn find_or_associations(
    sigs: &SignatureMatrix,
    target: u32,
    pool: &[(u32, u32)],
    s_star: f64,
    delta: f64,
) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    for &(i, j) in pool {
        if i == target || j == target {
            continue;
        }
        let s = or_similarity(sigs, target, i, j);
        if s >= (1.0 - delta) * s_star {
            out.push((i, j, s));
        }
    }
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
    out
}

/// A discovered OR association: column `target` is similar to the induced
/// column `c_i ∨ c_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrAssociation {
    /// The single column.
    pub target: u32,
    /// First member of the OR.
    pub i: u32,
    /// Second member of the OR.
    pub j: u32,
    /// Signature-estimated similarity between `target` and `c_i ∨ c_j`.
    pub estimate: f64,
}

/// Mines OR associations at scale: instead of scoring every
/// `(target, pair)` combination — the exponential blow-up §7 warns about —
/// this hashes the OR signatures of the `pool` pairs into the same LSH
/// bucket space as the original columns, so only colliding combinations
/// are scored.
///
/// `r`/`l` are banding parameters over the `k` signature rows (contiguous
/// bands; requires `k ≥ r·l`). Self-matches (`target ∈ {i, j}`) are
/// skipped. Results are deduplicated, above `(1 − delta)·s_star`, sorted by
/// descending estimate.
///
/// # Panics
///
/// Panics if `sigs.k() < r·l`.
#[must_use]
pub fn mine_or_associations(
    sigs: &SignatureMatrix,
    pool: &[(u32, u32)],
    s_star: f64,
    delta: f64,
    r: usize,
    l: usize,
) -> Vec<OrAssociation> {
    assert!(sigs.k() >= r * l, "banding needs k >= r*l");
    use sfa_hash::bucket::{FastHashMap, FastHashSet};
    use sfa_hash::mix::{fmix64, splitmix64};

    // Precompute OR signatures for the pool.
    let or_sigs: Vec<Vec<u64>> = pool.iter().map(|&(i, j)| sigs.or_signature(i, j)).collect();
    let mut seen: FastHashSet<(u32, usize)> = FastHashSet::default();
    let mut out = Vec::new();
    for band in 0..l {
        let rows: Vec<usize> = (band * r..(band + 1) * r).collect();
        let key_seed = splitmix64(0x0f0f ^ band as u64);
        // Hash original columns.
        let mut table: FastHashMap<u64, Vec<u32>> = FastHashMap::default();
        'col: for t in 0..sigs.m() as u32 {
            let mut key = key_seed;
            for &row in &rows {
                let v = sigs.get(row, t);
                if v == sfa_minhash::EMPTY_SIGNATURE {
                    continue 'col;
                }
                key = fmix64(key ^ v);
            }
            table.entry(key).or_default().push(t);
        }
        // Probe with each pool pair's OR signature.
        for (pair_idx, or_sig) in or_sigs.iter().enumerate() {
            let mut key = key_seed;
            let mut valid = true;
            for &row in &rows {
                let v = or_sig[row];
                if v == sfa_minhash::EMPTY_SIGNATURE {
                    valid = false;
                    break;
                }
                key = fmix64(key ^ v);
            }
            if !valid {
                continue;
            }
            let (pi, pj) = pool[pair_idx];
            for &target in table.get(&key).map_or(&[][..], Vec::as_slice) {
                if target == pi || target == pj {
                    continue;
                }
                if !seen.insert((target, pair_idx)) {
                    continue;
                }
                let est = sigs.agreement_with(target, or_sig) as f64 / sigs.k() as f64;
                if est >= (1.0 - delta) * s_star {
                    out.push(OrAssociation {
                        target,
                        i: pi,
                        j: pj,
                        estimate: est,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .expect("finite")
            .then((a.target, a.i, a.j).cmp(&(b.target, b.i, b.j)))
    });
    out
}

/// The estimated strength of "`c_a` implies `c_j ∧ c_j'`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AndImplication {
    /// Estimated `conf(c_a ⇒ c_j)`.
    pub conf_first: f64,
    /// Estimated `conf(c_a ⇒ c_j')`.
    pub conf_second: f64,
}

impl AndImplication {
    /// The implication holds at level `c` when both directed confidences do
    /// ("`c_i` implies `c_j ∧ c_j'` means `c_i ⇒ c_j` and `c_i ⇒ c_j'`").
    #[must_use]
    pub fn holds_at(&self, c: f64) -> bool {
        self.conf_first >= c && self.conf_second >= c
    }
}

/// Estimates the AND implication `c_a ⇒ c_j ∧ c_j'` from signatures.
#[must_use]
pub fn and_implication(sigs: &SignatureMatrix, a: u32, j: u32, jp: u32) -> AndImplication {
    AndImplication {
        conf_first: estimate_confidence(sigs, a, j),
        conf_second: estimate_confidence(sigs, a, jp),
    }
}

/// Finds anticorrelated (mutually exclusive) column pairs among columns
/// with support at least `support_floor`: pairs whose estimated similarity
/// is at most `eps` despite both columns being frequent.
///
/// Cost is quadratic in the number of frequent columns only.
#[must_use]
pub fn anticorrelated_pairs(
    sigs: &SignatureMatrix,
    column_counts: &[u32],
    support_floor: u32,
    eps: f64,
) -> Vec<CandidatePair> {
    let frequent: Vec<u32> = (0..sigs.m() as u32)
        .filter(|&j| column_counts[j as usize] >= support_floor)
        .collect();
    let mut out = Vec::new();
    for (a, &i) in frequent.iter().enumerate() {
        for &j in &frequent[a + 1..] {
            let s = sigs.s_hat(i, j);
            if s <= eps {
                out.push(CandidatePair::new(i, j, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::compute_signatures;

    /// c0 = c1 ∪ c2 exactly (c1 and c2 disjoint); c3 disjoint from all;
    /// c4 and c5 frequent and mutually exclusive.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for i in 0..40u32 {
            let mut r = vec![];
            if i < 20 {
                r.push(0);
                r.push(1);
            } else {
                r.push(0);
                r.push(2);
            }
            if i % 2 == 0 {
                r.push(4);
            } else {
                r.push(5);
            }
            if i == 0 {
                r.push(3);
            }
            r.sort_unstable();
            rows.push(r);
        }
        RowMajorMatrix::from_rows(6, rows).unwrap()
    }

    #[test]
    fn or_similarity_detects_exact_union() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 200, 3).unwrap();
        // c0 = c1 ∨ c2 exactly: similarity 1.
        assert_eq!(or_similarity(&sigs, 0, 1, 2), 1.0);
        // c3 is (almost) unrelated to c1 ∨ c2.
        assert!(or_similarity(&sigs, 3, 1, 2) < 0.2);
    }

    #[test]
    fn find_or_associations_ranks_union() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 200, 3).unwrap();
        let pool = vec![(1, 2), (1, 3), (2, 3), (4, 5)];
        let found = find_or_associations(&sigs, 0, &pool, 0.9, 0.1);
        assert!(!found.is_empty());
        assert_eq!((found[0].0, found[0].1), (1, 2));
        assert!(found[0].2 > 0.9);
    }

    #[test]
    fn find_or_associations_skips_self() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 100, 3).unwrap();
        let found = find_or_associations(&sigs, 0, &[(0, 1)], 0.1, 0.5);
        assert!(found.is_empty());
    }

    #[test]
    fn and_implication_on_nested_columns() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 2000, 5).unwrap();
        // c1 ⊂ c0 and c1 ∩ c4 = rows {0, 2, …}: conf(c1 ⇒ c0) = 1,
        // conf(c1 ⇒ c4) = 1/2.
        let imp = and_implication(&sigs, 1, 0, 4);
        assert!(imp.conf_first > 0.9, "conf(c1⇒c0) = {}", imp.conf_first);
        assert!(
            (imp.conf_second - 0.5).abs() < 0.1,
            "conf(c1⇒c4) = {}",
            imp.conf_second
        );
        assert!(imp.holds_at(0.4));
        assert!(!imp.holds_at(0.9));
    }

    #[test]
    fn mine_or_associations_finds_exact_union() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 60, 3).unwrap();
        let pool = vec![(1u32, 2u32), (1, 3), (2, 3), (4, 5)];
        let found = mine_or_associations(&sigs, &pool, 0.9, 0.1, 5, 12);
        // c0 = c1 ∨ c2 exactly: must collide and score 1.
        let hit = found
            .iter()
            .find(|a| a.target == 0 && (a.i, a.j) == (1, 2))
            .expect("exact union not mined");
        assert_eq!(hit.estimate, 1.0);
        // No self-matches.
        assert!(found.iter().all(|a| a.target != a.i && a.target != a.j));
    }

    #[test]
    fn mine_or_associations_matches_brute_force_scoring() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 60, 7).unwrap();
        let pool = vec![(1u32, 2u32), (4, 5)];
        let found = mine_or_associations(&sigs, &pool, 0.5, 0.2, 4, 15);
        for a in &found {
            let direct = or_similarity(&sigs, a.target, a.i, a.j);
            assert!((a.estimate - direct).abs() < 1e-12);
            assert!(a.estimate >= 0.4);
        }
    }

    #[test]
    #[should_panic(expected = "banding needs")]
    fn mine_or_associations_checks_k() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 10, 3).unwrap();
        let _ = mine_or_associations(&sigs, &[(1, 2)], 0.5, 0.2, 5, 12);
    }

    #[test]
    fn anticorrelated_pairs_need_support_floor() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 300, 7).unwrap();
        let counts = m.column_counts();
        let anti = anticorrelated_pairs(&sigs, &counts, 15, 0.02);
        // c4 and c5 are frequent and mutually exclusive.
        assert!(
            anti.iter().any(|c| c.ids() == (4, 5)),
            "missing (4, 5): {anti:?}"
        );
        // c1/c2 are also frequent and disjoint — allowed. But the sparse
        // c3 must be excluded by the floor.
        assert!(anti.iter().all(|c| c.i != 3 && c.j != 3));
        // Non-exclusive frequent pairs are not flagged.
        assert!(!anti.iter().any(|c| c.ids() == (0, 1)));
    }
}
