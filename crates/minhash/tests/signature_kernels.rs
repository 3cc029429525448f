//! Property-based equivalence of the phase-1 signature kernels.
//!
//! The scalar min-merge loop is the semantic floor; the AVX2 build of the
//! same loop must produce exactly the same bytes on every input —
//! including values straddling `2^63`, the `u64::MAX` empty-signature
//! sentinel, and vector-width remainder tails. On top of that kernel
//! check, whole MH and 32-bit MH builds over randomly shaped matrices,
//! many of them mostly empty, must equal a reference fold written here
//! from `HashFamily`: the per-column minimum of every row hash. The
//! builders skip rows without a 1, so the last tests pin that a skipped
//! row still counts as seen and that a checkpoint resume across a run of
//! empty rows changes nothing.

use proptest::prelude::*;

use sfa_hash::HashFamily;
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::builder::{KmhBuilder, MhBuilder};
use sfa_minhash::kernel::{min_merge_u64_scalar, min_merge_u64_simd};
use sfa_minhash::mh::compute_signatures_32;
use sfa_minhash::{compute_bottom_k, compute_signatures, SignatureMatrix, EMPTY_SIGNATURE};

/// Paired words so `dst` and `src` always have equal lengths, spanning
/// the widths where the vector loop, its tail, and the empty case live.
fn word_pairs(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..=max_len)
}

/// A small 0/1 matrix as sorted row sets over `n_cols` columns, mixing
/// empty, sparse, and dense rows (density rides on the per-row bound).
/// One draw in four is mostly empty: at least half its rows hold no 1,
/// and one draw in sixteen has no 1 at all — the rows the builders skip.
fn shaped_matrix(n_cols: u32, max_rows: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    let row = prop::collection::btree_set(0..n_cols, 0..=n_cols as usize)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
    let rows = prop::collection::vec((row, any::<bool>()), 0..=max_rows);
    (rows, 0u8..16).prop_map(|(rows, shape)| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (row, keep))| match shape {
                0 => Vec::new(),
                1..=3 if i % 2 == 0 || !keep => Vec::new(),
                _ => row,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn min_merge_simd_matches_scalar(pairs in word_pairs(300)) {
        let src: Vec<u64> = pairs.iter().map(|&(_, s)| s).collect();
        let mut scalar: Vec<u64> = pairs.iter().map(|&(d, _)| d).collect();
        let mut simd = scalar.clone();
        min_merge_u64_scalar(&mut scalar, &src);
        if min_merge_u64_simd(&mut simd, &src) {
            prop_assert_eq!(simd, scalar, "SIMD min-merge diverged");
        }
    }

    #[test]
    fn signature_builds_match_a_reference_fold(
        rows in shaped_matrix(24, 40),
        k in 1usize..=12,
        seed in 0u64..1_000,
    ) {
        let matrix = RowMajorMatrix::from_rows(24, rows.clone()).expect("sorted in-range rows");
        let mh = compute_signatures(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let mh32 = compute_signatures_32(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let family = HashFamily::new(k, seed);
        let full = reference_fold(&rows, 24, k, |l, row| family.hash(l, row));
        let folded = reference_fold(&rows, 24, k, |l, row| {
            u64::from(sfa_hash::mix::fold32(family.hash(l, row)))
        });
        prop_assert!(same_signatures(&mh, &full), "MH signatures diverged from the fold");
        prop_assert!(same_signatures(&mh32, &folded), "32-bit MH signatures diverged from the fold");
    }
}

/// The per-column minimum of `hash(l, row)` over the rows holding the
/// column, row-major by hash function: §3's signature, written without
/// the builders or the kernel.
fn reference_fold(
    rows: &[Vec<u32>],
    n_cols: usize,
    k: usize,
    hash: impl Fn(usize, u64) -> u64,
) -> Vec<Vec<u64>> {
    let mut sig = vec![vec![EMPTY_SIGNATURE; n_cols]; k];
    for (row_id, cols) in rows.iter().enumerate() {
        for (l, line) in sig.iter_mut().enumerate() {
            let h = hash(l, row_id as u64);
            for &col in cols {
                line[col as usize] = line[col as usize].min(h);
            }
        }
    }
    sig
}

fn same_signatures(sigs: &SignatureMatrix, reference: &[Vec<u64>]) -> bool {
    reference.iter().enumerate().all(|(l, line)| {
        line.iter()
            .enumerate()
            .all(|(j, &want)| sigs.get(l, j as u32) == want)
    })
}

/// A table whose rows 3..=9 hold no 1, and the split points a checkpoint
/// may fall on: before, inside, and after that run of empty rows.
fn gappy_table() -> (RowMajorMatrix, [usize; 4]) {
    let rows: Vec<Vec<u32>> = (0..14u32)
        .map(|i| match i {
            3..=9 => Vec::new(),
            _ => vec![i % 5, 5 + i % 3],
        })
        .collect();
    (RowMajorMatrix::from_rows(8, rows).unwrap(), [3, 5, 10, 14])
}

#[test]
fn builders_count_empty_rows_as_seen() {
    let (matrix, _) = gappy_table();
    let mut mh = MhBuilder::new(16, 8, 3);
    let mut kmh = KmhBuilder::new(4, 8, 3);
    for (id, cols) in matrix.rows() {
        mh.push_row(id, cols);
        kmh.push_row(id, cols);
    }
    assert_eq!(mh.rows_seen(), 14);
    assert_eq!(kmh.rows_seen(), 14);
    let mut empty = MhBuilder::new(16, 8, 3);
    empty.push_row(0, &[]);
    empty.push_row(1, &[]);
    assert_eq!(empty.rows_seen(), 2);
    assert_eq!(empty.finish(), MhBuilder::new(16, 8, 3).finish());
}

#[test]
fn resume_across_empty_rows_equals_uninterrupted_build() {
    let (matrix, splits) = gappy_table();
    let (k, seed) = (16, 21);
    let whole_mh = compute_signatures(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
    let whole_kmh = compute_bottom_k(&mut MemoryRowStream::new(&matrix), 4, seed).unwrap();
    for split in splits {
        let mut mh = MhBuilder::new(k, 8, seed);
        let mut kmh = KmhBuilder::new(4, 8, seed);
        for (id, cols) in matrix.rows().take(split) {
            mh.push_row(id, cols);
            kmh.push_row(id, cols);
        }
        assert_eq!(mh.rows_seen(), split as u64);
        assert_eq!(kmh.rows_seen(), split as u64);
        let mut mh = MhBuilder::from_state(seed, mh.rows_seen(), mh.current());
        let mut kmh = KmhBuilder::from_state(seed, kmh.rows_seen(), kmh.current());
        for (id, cols) in matrix.rows().skip(split) {
            mh.push_row(id, cols);
            kmh.push_row(id, cols);
        }
        assert_eq!(mh.rows_seen(), 14, "split {split}");
        assert_eq!(mh.finish(), whole_mh, "MH resume at row {split}");
        assert_eq!(kmh.finish(), whole_kmh, "K-MH resume at row {split}");
    }
}
