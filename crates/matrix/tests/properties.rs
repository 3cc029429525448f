//! Property-based tests for the matrix substrate.

use proptest::prelude::*;

use sfa_matrix::ops::{or_fold_rows, prune_support, random_row_pairing, select_columns};
use sfa_matrix::stats::{average_similarity, exact_similar_pairs, similarity_histogram};
use sfa_matrix::{ColumnSet, MatrixBuilder, MemoryRowStream, RowMajorMatrix};

fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..bound, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

fn small_matrix() -> impl Strategy<Value = RowMajorMatrix> {
    (1u32..12, 2u32..9).prop_flat_map(|(n_rows, n_cols)| {
        prop::collection::vec(row_set(n_cols, n_cols as usize), n_rows as usize)
            .prop_map(move |rows| RowMajorMatrix::from_rows(n_cols, rows).unwrap())
    })
}

proptest! {
    #[test]
    fn builder_order_and_duplicates_do_not_matter(
        entries in prop::collection::vec((0u32..10, 0u32..10), 0..60),
    ) {
        let mut forward = MatrixBuilder::new(10, 10);
        for &(r, c) in &entries {
            forward.add_entry(r, c).unwrap();
        }
        let mut shuffled = MatrixBuilder::new(10, 10);
        for &(r, c) in entries.iter().rev() {
            shuffled.add_entry(r, c).unwrap();
            shuffled.add_entry(r, c).unwrap(); // duplicate on purpose
        }
        prop_assert_eq!(forward.clone().build_csc(), shuffled.clone().build_csc());
        prop_assert_eq!(forward.build_csr(), shuffled.build_csr());
    }

    #[test]
    fn stream_reader_matches_from_rows(rows in prop::collection::vec(row_set(9, 9), 0..14)) {
        let m = RowMajorMatrix::from_rows(9, rows).unwrap();
        let read = RowMajorMatrix::from_stream(&mut MemoryRowStream::new(&m), usize::MAX).unwrap();
        prop_assert_eq!(read, m);
    }

    #[test]
    fn csc_and_csr_views_agree(m in small_matrix()) {
        let csc = m.transpose();
        prop_assert_eq!(csc.nnz(), m.nnz());
        // Entry-by-entry agreement.
        for (i, cols) in m.rows() {
            for &c in cols {
                prop_assert!(csc.column(c).binary_search(&i).is_ok());
            }
        }
        let total: usize = (0..csc.n_cols()).map(|j| csc.column_count(j)).sum();
        prop_assert_eq!(total, m.nnz());
    }

    #[test]
    fn column_set_algebra_inclusion_exclusion(a in row_set(30, 15), b in row_set(30, 15)) {
        let ca = ColumnSet::from_sorted(a).unwrap();
        let cb = ColumnSet::from_sorted(b).unwrap();
        prop_assert_eq!(
            ca.union(&cb).cardinality() + ca.intersection(&cb).cardinality(),
            ca.cardinality() + cb.cardinality()
        );
        prop_assert_eq!(ca.union(&cb).cardinality(), ca.union_size(&cb));
        prop_assert_eq!(ca.intersection(&cb).cardinality(), ca.intersection_size(&cb));
        // Hamming = union − intersection.
        prop_assert_eq!(
            ca.hamming_distance(&cb),
            ca.union_size(&cb) - ca.intersection_size(&cb)
        );
    }

    #[test]
    fn prune_support_keeps_exactly_qualifying_columns(m in small_matrix(), min in 0usize..5) {
        let csc = m.transpose();
        let (pruned, kept) = prune_support(&csc, min);
        prop_assert_eq!(pruned.n_cols() as usize, kept.len());
        for (new_j, &old_j) in kept.iter().enumerate() {
            prop_assert_eq!(pruned.column(new_j as u32), csc.column(old_j));
            prop_assert!(csc.column_count(old_j) >= min);
        }
        for j in 0..csc.n_cols() {
            let is_kept = kept.contains(&j);
            prop_assert_eq!(is_kept, csc.column_count(j) >= min);
        }
    }

    #[test]
    fn select_columns_preserves_content(m in small_matrix()) {
        let csc = m.transpose();
        let ids: Vec<u32> = (0..csc.n_cols()).step_by(2).collect();
        let sub = select_columns(&csc, &ids).unwrap();
        for (new_j, &old_j) in ids.iter().enumerate() {
            prop_assert_eq!(sub.column(new_j as u32), csc.column(old_j));
        }
    }

    #[test]
    fn or_fold_row_content_is_exact_union(m in small_matrix(), seed in any::<u64>()) {
        prop_assume!(m.n_rows() >= 2);
        let pairing = random_row_pairing(m.n_rows(), seed);
        let folded = or_fold_rows(&m, &pairing).unwrap();
        for (t, chunk) in pairing.chunks(2).enumerate() {
            if let [a, b] = chunk {
                let expected = ColumnSet::from_slice(m.row(*a))
                    .union(&ColumnSet::from_slice(m.row(*b)));
                prop_assert_eq!(folded.row(t as u32), expected.rows());
            } else if let [a] = chunk {
                prop_assert_eq!(folded.row(t as u32), m.row(*a));
            }
        }
    }

    #[test]
    fn exact_pairs_and_histogram_are_consistent(m in small_matrix()) {
        let csc = m.transpose();
        let pairs = exact_similar_pairs(&csc, 1e-9);
        let hist = similarity_histogram(&csc, 10);
        // Every co-occurring pair appears in both views.
        prop_assert_eq!(pairs.len() as u64, hist.iter().sum::<u64>());
        for p in &pairs {
            prop_assert!((p.similarity - csc.similarity(p.i, p.j)).abs() < 1e-12);
            prop_assert!(p.similarity > 0.0);
        }
        // Sorted by descending similarity.
        prop_assert!(pairs.windows(2).all(|w| w[0].similarity >= w[1].similarity));
    }

    #[test]
    fn average_similarity_is_bounded(m in small_matrix()) {
        let csc = m.transpose();
        let s_bar = average_similarity(&csc);
        prop_assert!((0.0..=1.0).contains(&s_bar));
    }
}
