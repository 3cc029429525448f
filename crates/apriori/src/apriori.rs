//! The level-wise a priori algorithm.

use sfa_hash::bucket::FastHashSet;
use sfa_hash::{BucketIndex, PairWalker};
use sfa_matrix::RowMajorMatrix;
use sfa_par::ThreadPool;

/// A frequent itemset: ascending item (column) ids and its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Ascending column ids.
    pub items: Vec<u32>,
    /// Number of transactions containing every item.
    pub support: u32,
}

/// Per-level bookkeeping returned alongside the itemsets, matching the
/// numbers an a priori implementation reports (candidate counts are the
/// cost driver the paper's Fig. 4 measures indirectly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSummary {
    /// The level (itemset size) `k`.
    pub k: usize,
    /// Candidates generated for this level.
    pub candidates: usize,
    /// Candidates that met the support threshold.
    pub frequent: usize,
}

/// Runs a priori over the transaction matrix (rows = transactions,
/// columns = items) with an absolute support threshold.
///
/// Returns all frequent itemsets of size ≥ 1 (grouped in one flat vector,
/// ordered by size then lexicographically) plus per-level summaries.
/// `max_k` caps the level; use `usize::MAX` for no cap.
///
/// # Examples
///
/// ```
/// use sfa_apriori::frequent_itemsets;
/// use sfa_matrix::RowMajorMatrix;
///
/// let tx = RowMajorMatrix::from_rows(3, vec![
///     vec![0, 1], vec![0, 1], vec![0, 2],
/// ]).unwrap();
/// let (sets, _) = frequent_itemsets(&tx, 2, usize::MAX);
/// assert!(sets.iter().any(|s| s.items == vec![0, 1] && s.support == 2));
/// ```
///
/// # Panics
///
/// Panics if `min_support == 0` (every itemset would qualify).
#[must_use]
pub fn frequent_itemsets(
    matrix: &RowMajorMatrix,
    min_support: u32,
    max_k: usize,
) -> (Vec<FrequentItemset>, Vec<LevelSummary>) {
    assert!(min_support > 0, "support threshold must be positive");
    let mut all = Vec::new();
    let mut summaries = Vec::new();

    // L1: column counts.
    let counts = matrix.column_counts();
    let mut current: Vec<FrequentItemset> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_support)
        .map(|(j, &c)| FrequentItemset {
            items: vec![j as u32],
            support: c,
        })
        .collect();
    summaries.push(LevelSummary {
        k: 1,
        candidates: counts.len(),
        frequent: current.len(),
    });

    // Level 2 is special-cased: joining L1 with itself would materialize
    // O(|L1|²) candidate vectors before counting. Instead each
    // transaction, projected onto the frequent items, is one bucket of a
    // single table keyed by its row, and the §3.1 walk counts every
    // frequent item's later partners in reusable counters: the pairs come
    // out in `(i, j)` order, with no table of all pairs.
    if max_k >= 2 && !current.is_empty() {
        let frequent_item: Vec<bool> = {
            let mut v = vec![false; counts.len()];
            for f in &current {
                v[f.items[0] as usize] = true;
            }
            v
        };
        let n_l1 = current.len();
        let index = BucketIndex::build(counts.len(), 1, false, &ThreadPool::new(1), || {
            |_: usize, out: &mut Vec<(u64, u32)>| {
                for (r, row) in matrix.rows() {
                    let frequent = row.iter().filter(|&&c| frequent_item[c as usize]);
                    out.extend(frequent.map(|&c| (u64::from(r), c)));
                }
            }
        });
        let mut level2 = Vec::new();
        let mut walker = PairWalker::new(&index);
        for i in 0..counts.len() as u32 {
            walker.column(i, |j, support| {
                if support >= min_support {
                    level2.push(FrequentItemset {
                        items: vec![i, j],
                        support,
                    });
                }
            });
        }
        summaries.push(LevelSummary {
            k: 2,
            candidates: n_l1 * (n_l1 - 1) / 2,
            frequent: level2.len(),
        });
        all.append(&mut current);
        current = level2;
    }

    let mut k = 3;
    while !current.is_empty() && k <= max_k {
        let candidates = generate_candidates(&current);
        let n_candidates = candidates.len();
        if candidates.is_empty() {
            all.append(&mut current);
            break;
        }
        let frequent = count_and_filter(matrix, &candidates, min_support, k);
        summaries.push(LevelSummary {
            k,
            candidates: n_candidates,
            frequent: frequent.len(),
        });
        all.append(&mut current);
        current = frequent;
        k += 1;
    }
    all.append(&mut current);
    (all, summaries)
}

/// Candidate generation: join `L_{k−1}` itemsets sharing a (k−2)-prefix,
/// then prune candidates with an infrequent (k−1)-subset.
fn generate_candidates(frequent: &[FrequentItemset]) -> Vec<Vec<u32>> {
    let prev: FastHashSet<&[u32]> = frequent.iter().map(|f| f.items.as_slice()).collect();
    let mut out = Vec::new();
    for (a, fa) in frequent.iter().enumerate() {
        for fb in &frequent[a + 1..] {
            let ka = &fa.items;
            let kb = &fb.items;
            let klen = ka.len();
            // Sorted prefix join: equal on all but the last item.
            if ka[..klen - 1] != kb[..klen - 1] {
                // frequent is lexicographically sorted, so once prefixes
                // diverge no later fb matches fa.
                break;
            }
            let mut cand = ka.clone();
            cand.push(kb[klen - 1]);
            debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
            // Prune: every (k−1)-subset must be frequent. The two subsets
            // formed by dropping one of the last two items are ka and kb
            // themselves; test the rest.
            let mut ok = true;
            for drop in 0..klen - 1 {
                let mut sub = cand.clone();
                sub.remove(drop);
                if !prev.contains(sub.as_slice()) {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.push(cand);
            }
        }
    }
    out
}

/// Counts candidate supports by scanning transactions and enumerating the
/// k-subsets of each transaction's projection onto candidate items.
fn count_and_filter(
    matrix: &RowMajorMatrix,
    candidates: &[Vec<u32>],
    min_support: u32,
    k: usize,
) -> Vec<FrequentItemset> {
    use std::collections::HashMap;
    let mut counts: HashMap<&[u32], u32> =
        candidates.iter().map(|c| (c.as_slice(), 0u32)).collect();
    // Items appearing in any candidate, for transaction projection.
    let mut in_candidates = FastHashSet::default();
    for c in candidates {
        in_candidates.extend(c.iter().copied());
    }
    let mut projection = Vec::new();
    let mut subset = Vec::with_capacity(k);
    for (_, row) in matrix.rows() {
        projection.clear();
        projection.extend(row.iter().copied().filter(|c| in_candidates.contains(c)));
        if projection.len() < k {
            continue;
        }
        enumerate_subsets(&projection, k, &mut subset, 0, &mut |s| {
            if let Some(c) = counts.get_mut(s) {
                *c += 1;
            }
        });
    }
    let mut out: Vec<FrequentItemset> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .map(|(items, support)| FrequentItemset {
            items: items.to_vec(),
            support,
        })
        .collect();
    out.sort_by(|a, b| a.items.cmp(&b.items));
    out
}

/// Filters frequent itemsets down to the *maximal* ones: itemsets with no
/// frequent proper superset. Maximal itemsets are the compact summary of
/// the frequent-set lattice (all frequent sets are their subsets).
#[must_use]
pub fn maximal_itemsets(itemsets: &[FrequentItemset]) -> Vec<FrequentItemset> {
    // Group by size for superset probing.
    let by_size: std::collections::BTreeMap<usize, Vec<&FrequentItemset>> =
        itemsets
            .iter()
            .fold(std::collections::BTreeMap::new(), |mut m, f| {
                m.entry(f.items.len()).or_default().push(f);
                m
            });
    let is_subset = |small: &[u32], big: &[u32]| -> bool {
        let mut it = big.iter();
        small.iter().all(|x| it.any(|y| y == x))
    };
    let mut out = Vec::new();
    for f in itemsets {
        let has_super = by_size
            .range((f.items.len() + 1)..)
            .flat_map(|(_, v)| v.iter())
            .any(|g| is_subset(&f.items, &g.items));
        if !has_super {
            out.push(f.clone());
        }
    }
    out
}

/// Recursively enumerates ascending k-subsets of `items`, invoking `f`.
fn enumerate_subsets(
    items: &[u32],
    k: usize,
    current: &mut Vec<u32>,
    start: usize,
    f: &mut impl FnMut(&[u32]),
) {
    if current.len() == k {
        f(current);
        return;
    }
    let remaining = k - current.len();
    for i in start..=items.len().saturating_sub(remaining) {
        current.push(items[i]);
        enumerate_subsets(items, k, current, i + 1, f);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic toy dataset: 4 transactions over 5 items.
    fn transactions() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            5,
            vec![
                vec![0, 1, 4],
                vec![1, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![0, 2],
                vec![1, 2],
                vec![0, 2],
                vec![0, 1, 2, 4],
                vec![0, 1, 2],
            ],
        )
        .unwrap()
    }

    fn brute_force_support(m: &RowMajorMatrix, items: &[u32]) -> u32 {
        m.rows()
            .filter(|(_, row)| items.iter().all(|i| row.contains(i)))
            .count() as u32
    }

    #[test]
    fn level1_counts_are_exact() {
        let m = transactions();
        let (sets, summaries) = frequent_itemsets(&m, 2, 1);
        assert_eq!(summaries.len(), 1);
        for s in &sets {
            assert_eq!(s.items.len(), 1);
            assert_eq!(s.support, brute_force_support(&m, &s.items));
        }
        // Item 4 has support 2; item 3 has support 2 — both kept at 2.
        assert_eq!(sets.len(), 5);
    }

    #[test]
    fn all_levels_match_brute_force() {
        let m = transactions();
        let (sets, _) = frequent_itemsets(&m, 2, usize::MAX);
        for s in &sets {
            assert_eq!(
                s.support,
                brute_force_support(&m, &s.items),
                "itemset {:?}",
                s.items
            );
            assert!(s.support >= 2);
        }
        // Completeness: every frequent pair appears.
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                let sup = brute_force_support(&m, &[i, j]);
                let found = sets.iter().any(|s| s.items == vec![i, j]);
                assert_eq!(found, sup >= 2, "pair ({i}, {j}) support {sup}");
            }
        }
    }

    #[test]
    fn triples_found_when_supported() {
        let m = transactions();
        let (sets, _) = frequent_itemsets(&m, 2, usize::MAX);
        // {0, 1, 2} appears in rows 7 and 8 → support 2.
        assert!(sets.iter().any(|s| s.items == vec![0, 1, 2]));
        // {0, 1, 4} also has support 2.
        assert!(sets.iter().any(|s| s.items == vec![0, 1, 4]));
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let m = transactions();
        let (at2, _) = frequent_itemsets(&m, 2, usize::MAX);
        let (at4, _) = frequent_itemsets(&m, 4, usize::MAX);
        assert!(at4.len() < at2.len());
        for s in &at4 {
            assert!(s.support >= 4);
        }
    }

    #[test]
    fn max_k_caps_levels() {
        let m = transactions();
        let (sets, summaries) = frequent_itemsets(&m, 2, 2);
        assert!(sets.iter().all(|s| s.items.len() <= 2));
        assert!(summaries.iter().all(|s| s.k <= 2));
    }

    #[test]
    fn summaries_track_pruning() {
        let m = transactions();
        let (_, summaries) = frequent_itemsets(&m, 2, usize::MAX);
        assert_eq!(summaries[0].k, 1);
        assert_eq!(summaries[0].candidates, 5);
        for s in &summaries {
            assert!(s.frequent <= s.candidates, "level {}", s.k);
        }
    }

    #[test]
    fn apriori_monotonicity_holds() {
        // Every subset of a frequent itemset is frequent (the a priori
        // property itself).
        let m = transactions();
        let (sets, _) = frequent_itemsets(&m, 2, usize::MAX);
        let all: FastHashSet<&[u32]> = sets.iter().map(|s| s.items.as_slice()).collect();
        for s in &sets {
            if s.items.len() >= 2 {
                for drop in 0..s.items.len() {
                    let mut sub = s.items.clone();
                    sub.remove(drop);
                    assert!(
                        all.contains(sub.as_slice()),
                        "missing subset of {:?}",
                        s.items
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "support threshold must be positive")]
    fn zero_support_panics() {
        let m = transactions();
        let _ = frequent_itemsets(&m, 0, 2);
    }

    #[test]
    fn empty_matrix_yields_nothing() {
        let m = RowMajorMatrix::from_rows(3, vec![]).unwrap();
        let (sets, _) = frequent_itemsets(&m, 1, usize::MAX);
        assert!(sets.is_empty());
    }

    #[test]
    fn maximal_itemsets_have_no_frequent_supersets() {
        let m = transactions();
        let (sets, _) = frequent_itemsets(&m, 2, usize::MAX);
        let maximal = maximal_itemsets(&sets);
        assert!(!maximal.is_empty());
        assert!(maximal.len() < sets.len());
        // No maximal set is a subset of another frequent set.
        for mx in &maximal {
            for f in &sets {
                if f.items.len() > mx.items.len() {
                    let is_subset = mx.items.iter().all(|x| f.items.contains(x));
                    assert!(!is_subset, "{:?} ⊂ frequent {:?}", mx.items, f.items);
                }
            }
        }
        // Every frequent set is a subset of some maximal set.
        for f in &sets {
            assert!(
                maximal
                    .iter()
                    .any(|mx| f.items.iter().all(|x| mx.items.contains(x))),
                "{:?} not covered",
                f.items
            );
        }
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let mut seen = Vec::new();
        let mut cur = Vec::new();
        enumerate_subsets(&[1, 2, 3, 4], 2, &mut cur, 0, &mut |s| {
            seen.push(s.to_vec());
        });
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&vec![1, 4]));
        assert!(seen.contains(&vec![2, 3]));
    }
}
