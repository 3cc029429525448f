//! Phase-3 verification: the streamed single-pass verifier on a sparse
//! weblog table and on a dense (1–5%) table of the paper's §5 shape.

use criterion::{criterion_group, criterion_main, Criterion};
use sfa_bench::bench_weblog;
use sfa_core::verify::verify_candidates;
use sfa_core::{Pipeline, PipelineConfig, Scheme};
use sfa_datagen::SyntheticConfig;
use sfa_matrix::MemoryRowStream;
use sfa_minhash::CandidatePair;

fn verification(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    // A realistic candidate load: the M-LSH candidates at a loose cutoff.
    let cfg = PipelineConfig::new(
        Scheme::MLsh {
            k: 60,
            r: 3,
            l: 20,
            sampled: false,
        },
        0.3,
        7,
    );
    // A run's verified list holds one entry per candidate, in the
    // generator's `(i, j)` order, so it gives the candidates back.
    let candidates: Vec<CandidatePair> = Pipeline::new(cfg)
        .run(&mut MemoryRowStream::new(&rows))
        .unwrap()
        .verified
        .iter()
        .map(|p| CandidatePair {
            i: p.i,
            j: p.j,
            estimate: p.estimate,
        })
        .collect();

    // Dense: 4096 rows × 1000 columns at 1–5% density, every pair among
    // the first 250 columns as a candidate (31 125 pairs, 8 row blocks).
    let dense = SyntheticConfig::small(4096, 99)
        .generate()
        .matrix
        .transpose();
    let dense_candidates: Vec<CandidatePair> = (0..250u32)
        .flat_map(|i| ((i + 1)..250).map(move |j| CandidatePair::new(i, j, 0.0)))
        .collect();

    let mut group = c.benchmark_group("verification");
    group.sample_size(20);
    group.bench_function("weblog", |b| {
        b.iter(|| verify_candidates(&mut MemoryRowStream::new(&rows), &candidates).unwrap());
    });
    group.bench_function("dense", |b| {
        b.iter(|| verify_candidates(&mut MemoryRowStream::new(&dense), &dense_candidates).unwrap());
    });
    group.finish();
}

criterion_group!(benches, verification);
criterion_main!(benches);
