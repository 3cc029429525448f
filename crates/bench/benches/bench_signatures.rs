//! Signature-phase cost: MH (linear in k) vs K-MH (sublinear on sparse
//! data) — the Fig. 5b / Fig. 6b claims — plus the parallel MH option, on
//! the sparse weblog table MH phase 1 folds and on a dense (1–5%) table
//! it walks in permutation order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_datagen::SyntheticConfig;
use sfa_matrix::MemoryRowStream;
use sfa_minhash::{compute_bottom_k, compute_signatures, compute_signatures_pool};
use sfa_par::ThreadPool;

fn signatures(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    let mut group = c.benchmark_group("signatures");
    group.sample_size(10);
    for &k in &[50usize, 100, 200, 400] {
        group.bench_with_input(BenchmarkId::new("mh", k), &k, |b, &k| {
            b.iter(|| compute_signatures(&mut MemoryRowStream::new(&rows), k, 7).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("kmh", k), &k, |b, &k| {
            b.iter(|| compute_bottom_k(&mut MemoryRowStream::new(&rows), k, 7).unwrap());
        });
    }
    for &threads in &[1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("mh_parallel_k200", threads),
            &threads,
            |b, _| {
                b.iter(|| compute_signatures_pool(&rows, 200, 7, &pool));
            },
        );
    }
    group.finish();

    // Dense: `sfa gen --kind synthetic --scale small`, 10 000 rows × 1 000
    // columns at 1–5% density (302k ones).
    let dense = SyntheticConfig::small(10_000, 42)
        .generate()
        .matrix
        .transpose();
    let mut group = c.benchmark_group("signatures_dense");
    group.sample_size(10);
    group.bench_function("mh_k100", |b| {
        b.iter(|| compute_signatures(&mut MemoryRowStream::new(&dense), 100, 7).unwrap());
    });
    for &threads in &[1usize, 2] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("mh_pool_k100", threads),
            &threads,
            |b, _| {
                b.iter(|| compute_signatures_pool(&dense, 100, 7, &pool));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, signatures);
criterion_main!(benches);
