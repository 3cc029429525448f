//! Property-based tests for the a priori baseline.

use proptest::prelude::*;

use sfa_apriori::{apriori_similar_pairs, frequent_itemsets, generate_rules, FrequentItemset};
use sfa_matrix::RowMajorMatrix;

fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..bound, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

fn small_matrix() -> impl Strategy<Value = RowMajorMatrix> {
    (1u32..12, 2u32..7).prop_flat_map(|(n_rows, n_cols)| {
        prop::collection::vec(row_set(n_cols, n_cols as usize), n_rows as usize)
            .prop_map(move |rows| RowMajorMatrix::from_rows(n_cols, rows).unwrap())
    })
}

fn brute_support(m: &RowMajorMatrix, items: &[u32]) -> u32 {
    m.rows()
        .filter(|(_, row)| items.iter().all(|i| row.contains(i)))
        .count() as u32
}

proptest! {
    #[test]
    fn all_reported_itemsets_have_exact_support(m in small_matrix(), min in 1u32..4) {
        let (sets, _) = frequent_itemsets(&m, min, usize::MAX);
        for s in &sets {
            prop_assert_eq!(s.support, brute_support(&m, &s.items), "{:?}", s.items);
            prop_assert!(s.support >= min);
        }
    }

    #[test]
    fn no_frequent_itemset_is_missed_up_to_size_three(m in small_matrix(), min in 1u32..4) {
        let (sets, _) = frequent_itemsets(&m, min, 3);
        let found: std::collections::HashSet<Vec<u32>> =
            sets.iter().map(|s| s.items.clone()).collect();
        let n = m.n_cols();
        for a in 0..n {
            if brute_support(&m, &[a]) >= min {
                prop_assert!(found.contains(&vec![a]), "missing singleton {}", a);
            }
            for b in (a + 1)..n {
                if brute_support(&m, &[a, b]) >= min {
                    prop_assert!(found.contains(&vec![a, b]), "missing pair ({}, {})", a, b);
                }
                for c in (b + 1)..n {
                    if brute_support(&m, &[a, b, c]) >= min {
                        prop_assert!(
                            found.contains(&vec![a, b, c]),
                            "missing triple ({}, {}, {})", a, b, c
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn levels_one_and_two_equal_brute_force_supports(m in small_matrix(), min in 1u32..4) {
        // The whole output up to pairs, in order: singletons, then pairs,
        // each ascending.
        let (sets, summaries) = frequent_itemsets(&m, min, 2);
        let n = m.n_cols();
        let frequent = |items: Vec<u32>| {
            let support = brute_support(&m, &items);
            (support >= min).then_some(FrequentItemset { items, support })
        };
        let singles: Vec<FrequentItemset> = (0..n).filter_map(|a| frequent(vec![a])).collect();
        let pairs: Vec<FrequentItemset> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| vec![a, b]))
            .filter_map(frequent)
            .collect();
        prop_assert_eq!(summaries[0].frequent, singles.len());
        if !singles.is_empty() {
            prop_assert_eq!(summaries[1].frequent, pairs.len());
        }
        let want: Vec<FrequentItemset> = singles.into_iter().chain(pairs).collect();
        prop_assert_eq!(sets, want);
    }

    #[test]
    fn downward_closure_holds(m in small_matrix(), min in 1u32..4) {
        let (sets, _) = frequent_itemsets(&m, min, usize::MAX);
        let found: std::collections::HashSet<&[u32]> =
            sets.iter().map(|s| s.items.as_slice()).collect();
        for s in &sets {
            if s.items.len() < 2 {
                continue;
            }
            for drop in 0..s.items.len() {
                let mut sub = s.items.clone();
                sub.remove(drop);
                prop_assert!(found.contains(sub.as_slice()), "subset of {:?}", s.items);
            }
        }
    }

    #[test]
    fn rules_have_exact_confidence_and_threshold(m in small_matrix(), min in 1u32..3) {
        let (sets, _) = frequent_itemsets(&m, min, usize::MAX);
        let rules = generate_rules(&sets, 0.6);
        for r in &rules {
            let all: Vec<u32> = {
                let mut v = r.antecedent.clone();
                v.extend(&r.consequent);
                v.sort_unstable();
                v
            };
            let exact = f64::from(brute_support(&m, &all))
                / f64::from(brute_support(&m, &r.antecedent));
            prop_assert!((r.confidence - exact).abs() < 1e-12);
            prop_assert!(r.confidence >= 0.6);
        }
    }

    #[test]
    fn similar_pairs_match_exact_similarity(m in small_matrix(), min in 1u32..3) {
        let csc = m.transpose();
        let pairs = apriori_similar_pairs(&m, min, 0.2);
        for p in &pairs {
            prop_assert!((p.similarity - csc.similarity(p.i, p.j)).abs() < 1e-12);
            prop_assert!(p.similarity >= 0.2);
            prop_assert!(p.support >= min);
        }
        // Completeness within a priori's reach.
        for i in 0..m.n_cols() {
            for j in (i + 1)..m.n_cols() {
                let support = csc.intersection_size(i, j) as u32;
                let sim = csc.similarity(i, j);
                if support >= min && sim >= 0.2 {
                    prop_assert!(
                        pairs.iter().any(|p| (p.i, p.j) == (i, j)),
                        "missing ({}, {})", i, j
                    );
                }
            }
        }
    }
}
