//! Row-hash throughput of the mixing family every sketch runs on, per
//! million row hashes.

use criterion::{criterion_group, criterion_main, Criterion};
use sfa_hash::HashFamily;

const N: u64 = 1_000_000;

fn hash_families(c: &mut Criterion) {
    let mixing = HashFamily::new(4, 7);

    let mut group = c.benchmark_group("hash_million_rows");
    group.sample_size(20);
    group.bench_function("mixing", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for x in 0..N {
                acc ^= mixing.hash(0, x);
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, hash_families);
criterion_main!(benches);
