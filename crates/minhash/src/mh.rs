//! The MH signature pass (§3).
//!
//! "While scanning the table and assigning random hash values to the rows,
//! for each column `c_i`, we keep track of the *minimum* hash value of the
//! rows which contain a 1 in that column." With `k` independent hash
//! functions this yields the `k × m` matrix `M̂` in one pass and `O(mk)`
//! memory. When the table is held in memory and its columns are dense
//! enough, the same values come from walking each permutation in order
//! instead (the private `walk` module); both entry points here choose
//! between the two from the table's column counts.

use sfa_matrix::{Result, RowMajorMatrix, RowStream};

use crate::builder::MhBuilder;
use crate::signature::SignatureMatrix;
use crate::walk;

/// The most table [`compute_signatures`] buffers to walk it: 256 MiB of
/// row pointers (8 bytes a row) and column ids (4 bytes a one). On the
/// paper's §5 shape (10⁴ columns at 1–5% density) that holds about 220k
/// rows. A stream that does not fit is folded, which needs no buffer.
const BUFFER_CAP_BYTES: usize = 256 << 20;

/// Computes the `k × m` MH signature matrix in a single pass over `stream`.
///
/// The pass reads the stream into memory, up to 256 MiB of table. If the
/// whole table fits and its columns are dense enough, each permutation is
/// walked in order over the held rows; otherwise the held prefix and then
/// the rest of the stream are folded, `k` hash evaluations per row that
/// holds a 1 plus `k` min-merges per 1-entry — the `O(k)`-per-entry cost
/// that motivates K-MH (§3.2). Either way the result is the same, and
/// memory is `O(km)` plus at most the 256 MiB buffer.
///
/// # Errors
///
/// Propagates stream errors, and fails on a row that is out of order, out
/// of range or not strictly ascending.
///
/// # Examples
///
/// ```
/// use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
/// use sfa_minhash::compute_signatures;
///
/// let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1], vec![0]]).unwrap();
/// let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 16, 7).unwrap();
/// assert_eq!(sigs.k(), 16);
/// assert_eq!(sigs.m(), 2);
/// // Column 0 ⊋ column 1 share row 0, S = 1/2; Ŝ is between 0 and 1.
/// let s = sigs.s_hat(0, 1);
/// assert!((0.0..=1.0).contains(&s));
/// ```
pub fn compute_signatures<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
) -> Result<SignatureMatrix> {
    signatures_buffered(stream, k, seed, BUFFER_CAP_BYTES)
}

/// [`compute_signatures`] with a buffer of at most `cap_bytes`.
fn signatures_buffered<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    cap_bytes: usize,
) -> Result<SignatureMatrix> {
    let pointer_bytes = (stream.n_rows() as usize)
        .saturating_add(1)
        .saturating_mul(std::mem::size_of::<usize>());
    let mut held = None;
    if let Some(id_bytes) = cap_bytes.checked_sub(pointer_bytes) {
        let ones_cap = id_bytes / std::mem::size_of::<u32>();
        let table = RowMajorMatrix::from_stream(stream, ones_cap)?;
        if table.nnz() <= ones_cap {
            let counts = table.column_counts();
            if walk::pays(&counts) {
                let pool = sfa_par::ThreadPool::new(1);
                return Ok(walk::signatures(&table, &counts, k, seed, &pool));
            }
        }
        held = Some(table);
    }
    // The fold: the held rows first, then the rest of the stream.
    let mut builder = MhBuilder::new(k, stream.n_cols() as usize, seed);
    for (row_id, cols) in held.iter().flat_map(RowMajorMatrix::rows) {
        builder.push_row(row_id, cols);
    }
    drop(held);
    let mut buf = Vec::new();
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
    }
    Ok(builder.finish())
}

/// Pool-based parallel MH signature computation over a table in memory.
///
/// Where the columns are dense enough (the same gate as
/// [`compute_signatures`]'s), the `k` permutation-order walks are dealt
/// out over the pool and each worker writes whole signature rows; the
/// table's column counts decide, so this costs one pass over its ids.
/// Otherwise row ranges are dealt out
/// dynamically; each worker folds its rows into a local [`MhBuilder`], and
/// the locals are merged by component-wise minimum (min-hash is a
/// commutative idempotent fold, so the merge is exact). Either way the
/// result equals [`compute_signatures`]'s, and workers share nothing but
/// the read-only matrix.
#[must_use]
pub fn compute_signatures_pool(
    matrix: &RowMajorMatrix,
    k: usize,
    seed: u64,
    pool: &sfa_par::ThreadPool,
) -> SignatureMatrix {
    let counts = matrix.column_counts();
    if walk::pays(&counts) {
        return walk::signatures(matrix, &counts, k, seed, pool);
    }
    let n = matrix.n_rows() as usize;
    let m = matrix.n_cols() as usize;
    let merged = pool.par_map_reduce(
        n,
        pool.chunk_for(n),
        |_| MhBuilder::new(k, m, seed),
        |local, rows| {
            for row_id in rows {
                local.push_row(row_id as u32, matrix.row(row_id as u32));
            }
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    );
    merged.finish()
}

/// Paper-fidelity mode: 32-bit row hashes.
///
/// §3 assumes `n ≤ 2^16` so that "it will suffice to choose the hash value
/// as a random 32-bit integer, avoiding the 'birthday paradox' of having
/// two rows get identical hash value". This variant folds every hash to 32
/// bits, reproducing that setting exactly; with `n` beyond ~2^16, row-hash
/// collisions start to bias `Ŝ` upward — which is why the library defaults
/// to 64 bits.
///
/// # Errors
///
/// Propagates stream errors.
pub fn compute_signatures_32<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
) -> Result<SignatureMatrix> {
    let m = stream.n_cols() as usize;
    let family = sfa_hash::HashFamily::new(k, seed);
    // Column-major work buffer, like MhBuilder's: every value is either a
    // zero-extended folded u32 or the u64::MAX sentinel, and the general
    // 64-bit min-merge is exact on both.
    let mut work = vec![crate::signature::EMPTY_SIGNATURE; k * m];
    let mut row_hashes = vec![0u64; k];
    let mut buf = Vec::new();
    while let Some(row_id) = stream.read_row(&mut buf)? {
        if buf.is_empty() {
            continue;
        }
        for (l, slot) in row_hashes.iter_mut().enumerate() {
            *slot = u64::from(sfa_hash::mix::fold32(family.hash(l, u64::from(row_id))));
        }
        for &col in &buf {
            let start = col as usize * k;
            crate::kernel::min_merge_u64(&mut work[start..start + k], &row_hashes);
        }
    }
    Ok(SignatureMatrix::from_col_major(k, m, &work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_hash::HashFamily;
    use sfa_matrix::MemoryRowStream;

    fn paper_like_matrix() -> RowMajorMatrix {
        // Example 1: c1 = {r1, r2}, c2 = {r1, r2, r3}, c3 = {r3, r4}.
        RowMajorMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1], vec![1, 2], vec![2]]).unwrap()
    }

    #[test]
    fn signatures_are_deterministic() {
        let m = paper_like_matrix();
        let a = compute_signatures(&mut MemoryRowStream::new(&m), 8, 1).unwrap();
        let b = compute_signatures(&mut MemoryRowStream::new(&m), 8, 1).unwrap();
        assert_eq!(a, b);
        let c = compute_signatures(&mut MemoryRowStream::new(&m), 8, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn signature_is_min_over_column_rows() {
        let m = paper_like_matrix();
        let k = 4;
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), k, 5).unwrap();
        let fam = HashFamily::new(k, 5);
        // Column 0 = rows {0, 1}.
        for l in 0..k {
            let expected = fam.hash(l, 0).min(fam.hash(l, 1));
            assert_eq!(sigs.get(l, 0), expected);
        }
        // Column 2 = rows {2, 3}.
        for l in 0..k {
            let expected = fam.hash(l, 2).min(fam.hash(l, 3));
            assert_eq!(sigs.get(l, 2), expected);
        }
    }

    #[test]
    fn empty_column_keeps_sentinel() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0], vec![0]]).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 3, 9).unwrap();
        for l in 0..3 {
            assert_eq!(sigs.get(l, 1), crate::signature::EMPTY_SIGNATURE);
        }
        assert_eq!(sigs.s_hat(0, 1), 0.0);
    }

    #[test]
    fn proposition_1_collision_probability() {
        // Empirically: Pr[h(c_i) = h(c_j)] ≈ S(c_i, c_j). With S = 1/2 and
        // k = 4000, Ŝ should be within ±0.04 of 0.5 (3.2 σ).
        let m = RowMajorMatrix::from_rows(
            2,
            vec![vec![0, 1], vec![0, 1], vec![0], vec![1]], // S = 2/4
        )
        .unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 4000, 12).unwrap();
        let s_hat = sigs.s_hat(0, 1);
        assert!((s_hat - 0.5).abs() < 0.04, "Ŝ = {s_hat}");
    }

    #[test]
    fn disjoint_columns_rarely_agree() {
        let m = RowMajorMatrix::from_rows(2, vec![vec![0], vec![0], vec![1], vec![1]]).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 1000, 3).unwrap();
        assert!(sigs.s_hat(0, 1) < 0.01);
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = paper_like_matrix();
        let seq = compute_signatures(&mut MemoryRowStream::new(&m), 16, 21).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = compute_signatures_pool(&m, 16, 21, &sfa_par::ThreadPool::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_on_larger_matrix() {
        // 400 rows, 20 columns, striped pattern.
        let rows: Vec<Vec<u32>> = (0..400u32)
            .map(|i| vec![i % 20, (i * 7 + 3) % 20])
            .map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let m = RowMajorMatrix::from_rows(20, rows).unwrap();
        let seq = compute_signatures(&mut MemoryRowStream::new(&m), 32, 77).unwrap();
        let par = compute_signatures_pool(&m, 32, 77, &sfa_par::ThreadPool::new(4));
        assert_eq!(par, seq);
    }

    #[test]
    fn thirty_two_bit_mode_estimates_similarity() {
        // Values all fit in 32 bits, and Ŝ still concentrates on S.
        let m = RowMajorMatrix::from_rows(
            2,
            vec![vec![0, 1], vec![0, 1], vec![0], vec![1]], // S = 1/2
        )
        .unwrap();
        let sigs = compute_signatures_32(&mut MemoryRowStream::new(&m), 3000, 4).unwrap();
        for l in 0..sigs.k() {
            for j in 0..2 {
                assert!(sigs.get(l, j) <= u64::from(u32::MAX));
            }
        }
        assert!((sigs.s_hat(0, 1) - 0.5).abs() < 0.05);
    }

    /// 300 rows × 20 columns, each cell set with probability 1/2, and one
    /// empty column: the gate walks it.
    fn dense_matrix() -> RowMajorMatrix {
        let mut x = 11u64;
        let rows = (0..300)
            .map(|_| {
                (0..20u32)
                    .filter(|_| {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        x >> 63 == 1
                    })
                    .collect()
            })
            .collect();
        RowMajorMatrix::from_rows(21, rows).unwrap()
    }

    fn fold(m: &RowMajorMatrix, k: usize, seed: u64) -> SignatureMatrix {
        let mut b = MhBuilder::new(k, m.n_cols() as usize, seed);
        for (id, cols) in m.rows() {
            b.push_row(id, cols);
        }
        b.finish()
    }

    #[test]
    fn both_entry_points_equal_the_fold_on_each_side_of_the_gate() {
        for (m, walks) in [(dense_matrix(), true), (paper_like_matrix(), false)] {
            assert_eq!(walk::pays(&m.column_counts()), walks);
            let folded = fold(&m, 32, 5);
            let streamed = compute_signatures(&mut MemoryRowStream::new(&m), 32, 5).unwrap();
            assert_eq!(streamed, folded, "walks: {walks}");
            for threads in [1, 2] {
                let pool = sfa_par::ThreadPool::new(threads);
                let pooled = compute_signatures_pool(&m, 32, 5, &pool);
                assert_eq!(pooled, folded, "walks: {walks}, {threads} threads");
            }
        }
    }

    #[test]
    fn a_stream_past_the_cap_folds_the_held_prefix_then_the_rest() {
        let m = dense_matrix();
        let pointer_bytes = (m.n_rows() as usize + 1) * 8;
        // No room for the row pointers, then room for them and 50 ones.
        for cap in [0, pointer_bytes + 50 * 4] {
            let mut counter = sfa_matrix::ScanCounter::new(MemoryRowStream::new(&m));
            let sigs = signatures_buffered(&mut counter, 32, 5, cap).unwrap();
            assert_eq!(sigs, fold(&m, 32, 5), "cap {cap}");
            assert_eq!(counter.pass_scans().len(), 1, "cap {cap}");
            assert_eq!(
                counter.pass_scans()[0].rows,
                u64::from(m.n_rows()),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn single_pass_over_stream() {
        let m = paper_like_matrix();
        let mut counter = sfa_matrix::ScanCounter::new(MemoryRowStream::new(&m));
        let _ = compute_signatures(&mut counter, 4, 1).unwrap();
        assert_eq!(counter.pass_scans().len(), 1);
        assert_eq!(counter.pass_scans()[0].rows, 4);
    }
}
