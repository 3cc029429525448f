//! # sfa-bench — criterion benchmarks
//!
//! One bench target per performance claim / design choice:
//!
//! * `bench_signatures` — MH vs K-MH signature cost as `k` grows (the
//!   Fig. 5b linear vs Fig. 6b sublinear claim), plus parallel MH.
//! * `bench_candidates` — Row-Sorting vs Hash-Count candidate generation
//!   (the §3.1 alternatives).
//! * `bench_hash` — row-hash throughput of the mixing family.
//! * `bench_bottomk` — heap-based bottom-k maintenance vs sort-at-the-end.
//! * `bench_lsh` — M-LSH banded vs sampled; H-LSH ladder-depth and density
//!   gate ablation.
//! * `bench_pipeline` — end-to-end pipeline per scheme and the a priori
//!   baseline (the Fig. 4 table as a benchmark).
//! * `bench_kernels` — intersection-kernel ablation (merge vs gallop vs
//!   popcount) over a density × skew grid, and the dispatched exact
//!   ground-truth driver.

use sfa_datagen::{WeblogConfig, WeblogData};
use sfa_matrix::RowMajorMatrix;

/// The shared benchmark dataset: a small weblog-like matrix.
#[must_use]
pub fn bench_weblog() -> (WeblogData, RowMajorMatrix) {
    let data = WeblogConfig::tiny(1234).generate();
    let rows = data.matrix.transpose();
    (data, rows)
}
