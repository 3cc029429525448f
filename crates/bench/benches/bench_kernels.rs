//! Intersection-kernel ablation over a density × skew grid: the sorted
//! two-pointer merge vs galloping search vs AND-popcount bitmaps (scalar
//! and SIMD word-kernel arms) vs hybrid array/bitmap/run containers, plus
//! the dispatched exact-ground-truth driver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_hash::SeedSequence;
use sfa_matrix::bitmap::{intersection_size_scratch, BitMatrix};
use sfa_matrix::column::{intersection_size, intersection_size_adaptive, intersection_size_gallop};
use sfa_matrix::stats::exact_similar_pairs;
use sfa_matrix::{kernel, HybridColumn, SparseMatrix};

const N_ROWS: u32 = 100_000;

/// A sorted row-id list with roughly `density * N_ROWS` entries, drawn
/// deterministically from the seeded hash stream.
fn column(density: f64, seed: u64) -> Vec<u32> {
    let target = (f64::from(N_ROWS) * density) as usize;
    let mut rows: Vec<u32> = SeedSequence::new(seed)
        .map(|h| (h % u64::from(N_ROWS)) as u32)
        .take(target * 2)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows.truncate(target);
    rows
}

/// Merge vs gallop vs scratch-bitmap popcount on equal-density pairs.
fn density_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection_density");
    group.sample_size(30);
    for &density in &[0.001, 0.01, 0.1, 0.3] {
        let a = column(density, 11);
        let b = column(density, 13);
        let label = format!("{density}");
        group.bench_with_input(BenchmarkId::new("merge", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("gallop", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size_gallop(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("popcount", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size_scratch(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("adaptive", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size_adaptive(&a, &b));
        });
    }
    group.finish();
}

/// Merge vs gallop when one side is tiny and the other large — the regime
/// the galloping arm of the dispatcher targets.
fn skew_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection_skew");
    group.sample_size(30);
    let large = column(0.2, 17);
    for &small_len in &[4usize, 32, 256] {
        let mut small = column(0.05, 19);
        small.truncate(small_len);
        let label = format!("small_{small_len}");
        group.bench_with_input(BenchmarkId::new("merge", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size(&small, &large));
        });
        group.bench_with_input(BenchmarkId::new("gallop", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size_gallop(&small, &large));
        });
        group.bench_with_input(BenchmarkId::new("adaptive", &label), &(), |bench, ()| {
            bench.iter(|| intersection_size_adaptive(&small, &large));
        });
    }
    group.finish();
}

/// Precomputed [`BitMatrix`] AND-popcount (no scratch fill) at the same
/// densities — through the dispatcher (SIMD when the host has it) and
/// pinned to the per-arm word kernels — plus the hybrid containers built
/// from the same rows, to show each kernel's cost once its representation
/// is materialized.
fn materialized_bitmaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection_bitmap");
    group.sample_size(30);
    for &density in &[0.01, 0.1, 0.3] {
        let rows_a = column(density, 23);
        let rows_b = column(density, 29);
        let ha = HybridColumn::from_rows(N_ROWS, &rows_a);
        let hb = HybridColumn::from_rows(N_ROWS, &rows_b);
        let pair =
            SparseMatrix::from_columns(N_ROWS, vec![rows_a, rows_b]).expect("sorted in-range rows");
        let bits = BitMatrix::from_csc(&pair);
        let (a, b) = (bits.column_words(0), bits.column_words(1));
        let label = format!("{density}");
        group.bench_with_input(BenchmarkId::new("popcount", &label), &(), |bench, ()| {
            bench.iter(|| bits.intersection_size(0, 1));
        });
        group.bench_with_input(
            BenchmarkId::new("popcount_scalar", &label),
            &(),
            |bench, ()| {
                bench.iter(|| kernel::and_popcount_scalar(a, b));
            },
        );
        if kernel::simd_arm().is_some() {
            group.bench_with_input(
                BenchmarkId::new("popcount_simd", &label),
                &(),
                |bench, ()| {
                    bench.iter(|| kernel::and_popcount_simd(a, b));
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("hybrid", &label), &(), |bench, ()| {
            bench.iter(|| ha.intersection_size(&hb));
        });
    }
    group.finish();
}

/// Exact ground truth through the dispatched path (the blocked bitmap
/// driver on this dataset's density).
fn ground_truth_driver(c: &mut Criterion) {
    let (data, _) = bench_weblog();
    let mut group = c.benchmark_group("exact_similar_pairs");
    group.sample_size(10);
    group.bench_function("dispatched", |b| {
        b.iter(|| exact_similar_pairs(&data.matrix, 0.3));
    });
    group.finish();
}

criterion_group!(
    benches,
    density_grid,
    skew_grid,
    materialized_bitmaps,
    ground_truth_driver
);
criterion_main!(benches);
