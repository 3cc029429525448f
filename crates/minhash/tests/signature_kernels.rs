//! Property-based equivalence of the phase-1 signature kernels.
//!
//! The scalar min-merge loop is the semantic floor; the SIMD arm
//! (sign-flip AVX2 min) must produce exactly the same bytes on every
//! input — including values straddling `2^63`, the `u64::MAX`
//! empty-signature sentinel, and vector-width remainder tails. On top of
//! that kernel check, whole signature builds (MH, 32-bit MH, K-MH) over
//! randomly shaped matrices, many of them mostly empty, are pinned
//! byte-identical across the forced `scalar` and `simd` dispatch arms —
//! the end-to-end guarantee `--kernel` documents. The builders skip rows
//! without a 1, so the last tests pin that a skipped row still counts as
//! seen and that a checkpoint resume across a run of empty rows changes
//! nothing.
//!
//! CI re-runs this suite under `SFA_KERNEL=scalar`, which cannot change
//! any outcome here (the per-arm entry points bypass the dispatch cache,
//! and the whole-build test forces both arms itself) but pins the
//! portable floor on hosts whose auto arm is SIMD.

use proptest::prelude::*;

use sfa_matrix::kernel::{force, simd_arm, KernelChoice};
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::builder::{KmhBuilder, MhBuilder};
use sfa_minhash::kernel::{min_merge_u64_scalar, min_merge_u64_simd};
use sfa_minhash::mh::compute_signatures_32;
use sfa_minhash::{compute_bottom_k, compute_signatures};

/// Serializes the tests that mutate the process-wide dispatch arm so a
/// forced `scalar` in one test cannot leak into another's `simd` build.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    fn signature_builds_byte_identical_across_arms(
        rows in shaped_matrix(24, 40),
        k in 1usize..=12,
        seed in 0u64..1_000,
    ) {
        if simd_arm().is_none() {
            return; // scalar-only host: nothing to diff against
        }
        let matrix = RowMajorMatrix::from_rows(24, rows).expect("sorted in-range rows");
        let _guard = FORCE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        force(KernelChoice::Scalar).expect("scalar always available");
        let mh_scalar = compute_signatures(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let mh32_scalar =
            compute_signatures_32(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let kmh_scalar = compute_bottom_k(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        force(KernelChoice::Simd).expect("simd_arm() reported one");
        let mh_simd = compute_signatures(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let mh32_simd =
            compute_signatures_32(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        let kmh_simd = compute_bottom_k(&mut MemoryRowStream::new(&matrix), k, seed).unwrap();
        force(KernelChoice::Auto).expect("auto always available");
        prop_assert_eq!(mh_simd, mh_scalar, "MH signatures diverged across arms");
        prop_assert_eq!(mh32_simd, mh32_scalar, "32-bit MH signatures diverged across arms");
        prop_assert_eq!(kmh_simd, kmh_scalar, "K-MH sketches diverged across arms");
    }
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
