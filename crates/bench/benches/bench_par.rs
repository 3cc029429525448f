//! Parallel execution layer: every pool-based phase-2 generator at 1, 2,
//! and 4 workers.
//!
//! On a single-core host the multi-worker points measure scheduling
//! overhead only (expect ~1x); on multi-core CI runners they show the
//! actual speedup of the chunked dynamic scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_lsh::{
    hlsh_candidates_with_stats_pool, mlsh_candidates_with_stats_pool, HLshParams, MLshParams,
};
use sfa_matrix::MemoryRowStream;
use sfa_minhash::hashcount::{kmh_candidates_with_stats_pool, mh_candidates_with_stats_pool};
use sfa_minhash::rowsort::rowsort_candidates_with_stats_pool;
use sfa_minhash::{compute_bottom_k, compute_signatures};
use sfa_par::ThreadPool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn parallel_generators(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    let sigs = compute_signatures(&mut MemoryRowStream::new(&rows), 100, 7).unwrap();
    let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&rows), 64, 7).unwrap();
    let mlsh = MLshParams::banded(5, 20, 7);
    let hlsh = HLshParams::new(8, 8, 7);

    let mut group = c.benchmark_group("par_candidates");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("mh_k100", threads), &pool, |b, pool| {
            b.iter(|| mh_candidates_with_stats_pool(&sigs, 0.5, 0.2, pool));
        });
        group.bench_with_input(
            BenchmarkId::new("rowsort_k100", threads),
            &pool,
            |b, pool| {
                b.iter(|| rowsort_candidates_with_stats_pool(&sigs, 0.5, 0.2, pool));
            },
        );
        group.bench_with_input(BenchmarkId::new("kmh_k64", threads), &pool, |b, pool| {
            b.iter(|| kmh_candidates_with_stats_pool(&ksigs, 0.5, 0.2, pool));
        });
        group.bench_with_input(
            BenchmarkId::new("mlsh_r5_l20", threads),
            &pool,
            |b, pool| {
                b.iter(|| mlsh_candidates_with_stats_pool(&sigs, &mlsh, pool));
            },
        );
        group.bench_with_input(BenchmarkId::new("hlsh_r8_l8", threads), &pool, |b, pool| {
            b.iter(|| hlsh_candidates_with_stats_pool(&rows, &hlsh, pool));
        });
    }
    group.finish();
}

criterion_group!(benches, parallel_generators);
criterion_main!(benches);
