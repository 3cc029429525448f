//! Reproducible pipeline baseline: every scheme over the seeded synthetic
//! and weblog generators, with the full [`MiningMetrics`] counters.
//!
//! Writes `BENCH_pipeline.json` at the repository root. Every counter in
//! the file is deterministic for the fixed [`EXPERIMENT_SEED`] — scan
//! volumes, signature bytes, per-stage candidate counts, bucket
//! histograms, and verification outcomes — so a re-run on any machine
//! reproduces those byte-for-byte and a diff means behavior actually
//! changed. Machine-dependent wall-clock data (per-phase seconds and the
//! 1-vs-4-thread phase-2 speedup sweep) lives exclusively under keys named
//! `"timing"`, which the CI `bench-diff` tool strips before comparing.
//!
//! ```text
//! cargo run --release -p sfa-experiments --bin bench-baseline -- --scale large
//! ```
//!
//! `--scale large` adds a third dataset at paper-exceeding width — 10⁵
//! columns, far past what the in-memory candidate phase was sized for —
//! mined through [`Pipeline::run_sharded`] under a fixed
//! [`MemoryBudget`], so the committed baseline also pins the sharding
//! counters (chunk count, spill bytes, generation passes). Without the
//! flag only the two small datasets run.
//!
//! [`MiningMetrics`]: sfa_core::MiningMetrics
//! [`MemoryBudget`]: sfa_core::MemoryBudget

use std::path::PathBuf;
use std::time::Instant;

use sfa_core::{
    CancelToken, MemoryBudget, MiningResult, Pipeline, PipelineConfig, Scheme,
    METRICS_SCHEMA_VERSION,
};
use sfa_datagen::{SyntheticConfig, WeblogConfig};
use sfa_experiments::loadgen::{run_load, LoadConfig};
use sfa_experiments::{print_table, run_scheme, EXPERIMENT_SEED};
use sfa_json::Json;
use sfa_matrix::{stats, MemoryRowStream, RowMajorMatrix, SparseMatrix};
use sfa_par::ThreadPool;
use sfa_serve::{Server, ServerConfig};

/// Similarity threshold shared by every baseline run.
const S_STAR: f64 = 0.7;

/// Memory budget for the `--scale large` budgeted runs (16 MiB, the
/// figure the roadmap's targets are stated against).
const LARGE_BUDGET_BYTES: usize = 16 << 20;

/// The `--scale large` dataset: 10⁵ columns (10× the paper's §5 width) at
/// a row count inside the paper's 10⁴–10⁶ sweep range. Densities are
/// scaled down so column cardinalities stay near the small preset's while
/// the pair space grows ~10 000×: a pair-count table for the MH-family
/// schemes would run to hundreds of megabits, which is what the budgeted
/// pipeline's column-at-a-time counting avoids.
fn large_synthetic() -> SyntheticConfig {
    SyntheticConfig {
        n_rows: 300_000,
        n_cols: 100_000,
        density_range: (4.0e-5, 6.0e-5),
        pairs_per_band: 20,
        bands: sfa_datagen::synthetic::PAPER_BANDS.to_vec(),
        seed: EXPERIMENT_SEED,
    }
}

fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Mh { k: 100, delta: 0.2 },
        Scheme::MhRowSort { k: 100, delta: 0.2 },
        Scheme::Kmh { k: 64, delta: 0.2 },
        Scheme::MLsh {
            k: 100,
            r: 5,
            l: 20,
            sampled: false,
        },
        Scheme::HLsh {
            r: 8,
            l: 8,
            t: 4,
            max_levels: 12,
        },
    ]
}

fn run_json(result: &MiningResult) -> Json {
    Json::obj()
        .field("scheme", result.config.scheme.name())
        .field("config", result.config)
        .field("pairs_found", result.similar_pairs().len())
        .field(
            "candidate_false_positives",
            result.false_positive_candidates(),
        )
        .field("metrics", &result.metrics)
        .field(
            "timing",
            Json::obj()
                .field("signatures_s", result.timings.signatures.as_secs_f64())
                .field("candidates_s", result.timings.candidates.as_secs_f64())
                .field("verify_s", result.timings.verify.as_secs_f64())
                .field("total_s", result.timings.total().as_secs_f64()),
        )
}

/// Best-of-`reps` phase-2 (candidate generation) seconds for one scheme
/// over a shared pool, via the parallel in-memory pipeline.
fn best_phase2_seconds(rows: &RowMajorMatrix, scheme: Scheme, pool: &ThreadPool) -> f64 {
    let pipeline = Pipeline::new(PipelineConfig::new(scheme, S_STAR, EXPERIMENT_SEED));
    (0..3)
        .map(|_| {
            pipeline
                .run_pool(rows, pool)
                .timings
                .candidates
                .as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The machine-dependent speedup sweep: phase 2 of every scheme at one
/// worker vs. four, best of three runs each. Everything here goes under a
/// `"timing"` key so the CI diff ignores it. When the host has fewer than
/// four hardware threads the 4-worker column is oversubscribed — it would
/// measure scheduler contention, not scaling — so the sweep is marked
/// `"oversubscribed": true` and the 4-worker measurement is skipped
/// rather than reported as a bogus sub-1x "speedup".
fn speedup_json(rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let oversubscribed = host_threads < 4;
    let pool1 = ThreadPool::new(1);
    let pool4 = (!oversubscribed).then(|| ThreadPool::new(4));
    let mut per_scheme = Vec::new();
    for scheme in schemes() {
        let t1 = best_phase2_seconds(rows, scheme, &pool1);
        let mut entry = Json::obj()
            .field("scheme", scheme.name())
            .field("phase2_1t_s", t1);
        let (t4_cell, speedup_cell) = if let Some(pool4) = &pool4 {
            let t4 = best_phase2_seconds(rows, scheme, pool4);
            let speedup = t1 / t4;
            entry = entry.field("phase2_4t_s", t4).field("speedup_4t", speedup);
            (format!("{t4:.4}"), format!("{speedup:.2}x"))
        } else {
            ("skipped".to_owned(), "-".to_owned())
        };
        table.push(vec![
            scheme.name().to_owned(),
            format!("{t1:.4}"),
            t4_cell,
            speedup_cell,
        ]);
        per_scheme.push(entry);
    }
    Json::obj()
        .field("host_threads", host_threads)
        .field("oversubscribed", oversubscribed)
        .field("phase2_speedup", per_scheme)
}

/// Best-of-`reps` wall-clock seconds for `f`, plus its (stable) result.
fn best_seconds<T>(reps: u32, f: impl Fn() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (out.expect("reps >= 1"), best)
}

/// Exact ground-truth timings on one baseline dataset: the dispatched
/// `exact_similar_pairs` on the CPU's kernel arm, best of 3. The seconds
/// are machine-dependent and live under the `"timing"` subtree.
fn kernel_json(name: &str, columns: &SparseMatrix, table: &mut Vec<Vec<String>>) -> Json {
    let (pairs, dispatch_s) = best_seconds(3, || stats::exact_similar_pairs(columns, S_STAR));
    let kernel = if stats::ground_truth_uses_bitmap(columns) {
        "bitmap"
    } else {
        "cooc"
    };
    table.push(vec![
        name.to_owned(),
        kernel.to_owned(),
        format!("{dispatch_s:.4}"),
    ]);
    Json::obj()
        .field("pairs", pairs.len())
        .field("dispatch_s", dispatch_s)
        .field("dispatch_kernel", kernel)
}

/// Phase-1 signature-build timings on one baseline dataset: the MH build
/// (the k-wide min-merge on the CPU's kernel arm), the K-MH build (one
/// compare per nonzero), and a signature-cache hit for each, all
/// best-of-5. The sketches must be byte-identical across store/load, and
/// every scheme must produce the plain mine's pairs on a cache miss and on
/// a cache hit. The seconds are machine-dependent and live under the
/// `"timing"` subtree.
fn phase1_json(name: &str, rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    use sfa_core::SignatureCache;
    use sfa_minhash::{compute_bottom_k, compute_signatures};

    let cache_dir = std::env::temp_dir().join(format!("sfa-bench-sigcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = SignatureCache::new(&cache_dir);
    let (n_rows, n_cols) = (rows.n_rows(), rows.n_cols());
    let mut per_scheme = Vec::new();

    // MH (k = 100): the k-wide min-merge inner loop.
    let (mh_ref, mh_s) = best_seconds(5, || {
        compute_signatures(&mut MemoryRowStream::new(rows), 100, EXPERIMENT_SEED)
            .expect("in-memory stream cannot fail")
    });
    assert!(cache.store_signatures(100, EXPERIMENT_SEED, n_rows, n_cols, &mh_ref));
    let (mh_loaded, mh_hit_s) = best_seconds(5, || {
        cache
            .load_signatures(100, EXPERIMENT_SEED, n_rows, n_cols)
            .expect("just stored")
    });
    assert_eq!(mh_loaded, mh_ref, "cache hit returned different signatures");

    // K-MH (k = 64): one admission compare per nonzero.
    let (kmh_ref, kmh_s) = best_seconds(5, || {
        compute_bottom_k(&mut MemoryRowStream::new(rows), 64, EXPERIMENT_SEED)
            .expect("in-memory stream cannot fail")
    });
    assert!(cache.store_bottom_k(64, EXPERIMENT_SEED, n_rows, n_cols, &kmh_ref));
    let (kmh_loaded, kmh_hit_s) = best_seconds(5, || {
        cache
            .load_bottom_k(64, EXPERIMENT_SEED, n_rows, n_cols)
            .expect("just stored")
    });
    assert_eq!(kmh_loaded, kmh_ref, "cache hit returned different sketches");

    for (label, build_s, hit_s) in [
        ("MH k=100", mh_s, mh_hit_s),
        ("K-MH k=64", kmh_s, kmh_hit_s),
    ] {
        table.push(vec![
            name.to_owned(),
            label.to_owned(),
            format!("{build_s:.4}"),
            format!("{hit_s:.6}"),
        ]);
        per_scheme.push(
            Json::obj()
                .field("sketch", label)
                .field("build_s", build_s)
                .field("cache_hit_s", hit_s),
        );
    }

    // Whole-mine parity: every scheme must find the plain mine's pair set
    // on a cache miss and on a cache hit.
    for scheme in schemes() {
        let reference = run_scheme(rows, scheme, S_STAR, EXPERIMENT_SEED).similar_pairs();
        let cached = Pipeline::new(PipelineConfig::new(scheme, S_STAR, EXPERIMENT_SEED))
            .with_signature_cache(&cache_dir);
        let miss = cached
            .run(&mut MemoryRowStream::new(rows))
            .expect("in-memory stream cannot fail");
        let hit = cached
            .run(&mut MemoryRowStream::new(rows))
            .expect("in-memory stream cannot fail");
        assert_eq!(
            miss.similar_pairs(),
            reference,
            "{} diverged on cache miss",
            scheme.name()
        );
        assert_eq!(
            hit.similar_pairs(),
            reference,
            "{} diverged on cache hit",
            scheme.name()
        );
        if !matches!(scheme, Scheme::HLsh { .. }) {
            let phase1 = hit
                .metrics
                .phase1
                .as_ref()
                .expect("sketch scheme records phase1");
            assert!(
                phase1.cache_hit,
                "{} second mine missed the cache",
                scheme.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    Json::obj()
        .field("dispatch_arm", sfa_matrix::kernel::arm_name())
        .field("sketches", per_scheme)
}

/// One sharded (out-of-core) run's JSON entry. Identical in shape to
/// [`run_json`] except that the machine-dependent `timing` object gains a
/// `sharding` subtree — which the CI `bench-diff` strips along with the
/// rest of `timing` — while the deterministic counters (chunk count,
/// spill bytes, generation passes, peak tracked bytes) travel inside
/// `metrics.sharding` and are diffed.
fn sharded_run_json(result: &MiningResult) -> Json {
    let sharding = result.metrics.sharding.as_ref().expect("sharded run");
    assert!(
        sharding.peak_tracked_bytes <= LARGE_BUDGET_BYTES as u64,
        "peak tracked bytes {} exceed the {LARGE_BUDGET_BYTES}-byte budget",
        sharding.peak_tracked_bytes
    );
    Json::obj()
        .field("scheme", result.config.scheme.name())
        .field("config", result.config)
        .field("pairs_found", result.similar_pairs().len())
        .field(
            "candidate_false_positives",
            result.false_positive_candidates(),
        )
        .field("metrics", &result.metrics)
        .field(
            "timing",
            Json::obj()
                .field("signatures_s", result.timings.signatures.as_secs_f64())
                .field("candidates_s", result.timings.candidates.as_secs_f64())
                .field("verify_s", result.timings.verify.as_secs_f64())
                .field("total_s", result.timings.total().as_secs_f64())
                .field(
                    "sharding",
                    Json::obj()
                        .field(
                            "generation_passes_s",
                            result.timings.candidates.as_secs_f64(),
                        )
                        .field("verify_groups_s", result.timings.verify.as_secs_f64()),
                ),
        )
}

/// Runs every scheme over `rows` through the budgeted sharded pipeline and
/// emits a dataset entry shaped like [`dataset_json`]'s, plus the budget.
///
/// H-LSH reports zero candidates here, and that is the honest result, not
/// a misconfiguration: a column enters an H-LSH ladder level only when its
/// density there lies in `(1/t, (t−1)/t)`, and 5×10⁻⁵-dense columns need
/// ~13 density doublings to reach that gate — past the 12-level cap. By
/// then the OR-folds have erased the planted signal anyway (every column
/// pair looks alike), so deepening the ladder only floods the buckets with
/// background collisions. This is the paper's own observation that direct
/// row-sampling LSH fails on sparse data, reproduced at scale; M-LSH is
/// the sparse-friendly variant and recovers the pairs.
fn sharded_dataset_json(name: &str, rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    let spill = std::env::temp_dir().join(format!("sfa-bench-spill-{}", std::process::id()));
    let mut runs = Vec::new();
    for scheme in schemes() {
        let pipeline = Pipeline::new(PipelineConfig::new(scheme, S_STAR, EXPERIMENT_SEED));
        let budget = MemoryBudget::new(LARGE_BUDGET_BYTES, spill.clone());
        let result = pipeline
            .run_sharded(&mut MemoryRowStream::new(rows), &budget, None)
            .expect("in-memory stream cannot fail");
        let sharding = result.metrics.sharding.as_ref().expect("sharded run");
        table.push(vec![
            name.to_owned(),
            scheme.name().to_owned(),
            format!("{:.3}", result.timings.total().as_secs_f64()),
            result.candidates_generated().to_string(),
            result.similar_pairs().len().to_string(),
            format!("{} chunks", sharding.shards),
        ]);
        runs.push(sharded_run_json(&result));
    }
    let _ = std::fs::remove_dir(&spill);
    Json::obj()
        .field("name", name)
        .field("rows", rows.n_rows())
        .field("cols", rows.n_cols())
        .field("nonzeros", rows.nnz())
        .field("s_star", S_STAR)
        .field("memory_budget", LARGE_BUDGET_BYTES)
        .field("runs", runs)
}

/// Serving latency under a short well-formed load: an in-process
/// `sfa serve` on a loopback port, driven by the load generator. Every
/// number here is machine-dependent (latencies, QPS) or load-race-
/// dependent (reply counts on a slow host), so the whole block lives
/// under `timing.serving` and the CI diff ignores it.
fn serving_json(rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        s_star: S_STAR,
        seed: EXPERIMENT_SEED,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, rows).expect("bind loopback");
    let addr = server.local_addr().expect("bound").to_string();
    let cancel = CancelToken::new();
    let (report, serving) = std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&cancel));
        let report = run_load(&LoadConfig {
            clients: 4,
            requests_per_client: 200,
            adversarial: false,
            ingest_every: 0,
            ..LoadConfig::new(&addr, EXPERIMENT_SEED, rows.n_cols())
        });
        cancel.cancel();
        let serving = run.join().expect("server thread").expect("clean drain");
        (report, serving)
    });
    assert!(serving.balances(), "{serving:?}");
    assert_eq!(report.violations, 0, "{report:?}");
    let (p50, p99, qps) = (
        report.percentile_micros(0.50),
        report.percentile_micros(0.99),
        report.qps(),
    );
    table.push(vec![
        "serve (4 clients × 200)".to_owned(),
        format!("{p50}"),
        format!("{p99}"),
        format!("{qps:.0}"),
    ]);
    Json::obj()
        .field("clients", 4u32)
        .field("requests_per_client", 200u32)
        .field("replies", report.ok + report.err)
        .field("p50_micros", p50)
        .field("p99_micros", p99)
        .field("qps", qps)
        .field("server_p50_micros", serving.p50_micros)
        .field("server_p99_micros", serving.p99_micros)
}

/// Incremental vs cold serve rebuild after a ≤1%-row ingest. The cold
/// path re-sketches the full row set; the incremental path folds only
/// the delta into a clone of the warm miner (the clone happens outside
/// the timed region — the live server keeps one miner and never
/// clones). Both snapshots must be byte-identical; the seconds are
/// machine-dependent and live under `timing.serving.rebuild`.
fn rebuild_json(rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    use sfa_core::streaming::StreamingMiner;
    use sfa_serve::Snapshot;

    const K: usize = 128; // ServerConfig::default sketch size
    let base: Vec<Vec<u32>> = rows.rows().map(|(_, cols)| cols.to_vec()).collect();
    let n_cols = rows.n_cols();
    let delta = (base.len() / 100).max(1);
    let delta_rows: Vec<Vec<u32>> = base.iter().take(delta).cloned().collect();
    let mut all = base.clone();
    all.extend(delta_rows.iter().cloned());

    let (cold, cold_s) = best_seconds(3, || {
        Snapshot::build(2, n_cols, &all, K, EXPERIMENT_SEED, S_STAR, 0.2).expect("valid rows")
    });
    let warm = StreamingMiner::from_rows(n_cols, K, EXPERIMENT_SEED, &base);
    let mut incremental_s = f64::INFINITY;
    let mut incremental = None;
    for _ in 0..3 {
        let mut miner = warm.clone();
        let t = Instant::now();
        for row in &delta_rows {
            miner.push_row(row);
        }
        let snap = Snapshot::build_from_miner(2, &miner, S_STAR, 0.2).expect("valid rows");
        incremental_s = incremental_s.min(t.elapsed().as_secs_f64());
        incremental = Some(snap);
    }
    let incremental = incremental.expect("reps >= 1");
    assert_eq!(
        incremental.pairs, cold.pairs,
        "incremental rebuild diverged from the cold build"
    );
    assert_eq!(
        (incremental.n_rows, incremental.n_cols),
        (cold.n_rows, cold.n_cols)
    );
    table.push(vec![
        format!("rebuild after {delta}-row ingest"),
        format!("{cold_s:.4}"),
        format!("{incremental_s:.4}"),
        format!("{:.2}x", cold_s / incremental_s),
    ]);
    Json::obj()
        .field("base_rows", base.len())
        .field("ingested_rows", delta)
        .field("rebuild_cold_s", cold_s)
        .field("rebuild_incremental_s", incremental_s)
        .field("incremental_speedup", cold_s / incremental_s)
}

/// Deterministic hybrid-container tallies for one dataset: per-type
/// chunk counts and the container bytes vs. what dense bitmaps would
/// cost. Pure functions of the seeded data, so these diff — a change
/// means the container selection heuristic actually moved.
fn container_json(columns: &SparseMatrix) -> Json {
    let stats = sfa_matrix::HybridColumns::from_csc(columns).stats();
    assert!(
        stats.container_bytes < stats.raw_bitmap_bytes,
        "hybrid containers ({} B) must undercut dense bitmaps ({} B) on the sparse baselines",
        stats.container_bytes,
        stats.raw_bitmap_bytes
    );
    Json::obj()
        .field("array_containers", stats.array_containers)
        .field("bitmap_containers", stats.bitmap_containers)
        .field("run_containers", stats.run_containers)
        .field("container_bytes", stats.container_bytes)
        .field("raw_bitmap_bytes", stats.raw_bitmap_bytes)
}

fn dataset_json(name: &str, rows: &RowMajorMatrix, table: &mut Vec<Vec<String>>) -> Json {
    let mut runs = Vec::new();
    for scheme in schemes() {
        let result = run_scheme(rows, scheme, S_STAR, EXPERIMENT_SEED);
        table.push(vec![
            name.to_owned(),
            scheme.name().to_owned(),
            format!("{:.3}", result.timings.total().as_secs_f64()),
            result.candidates_generated().to_string(),
            result.similar_pairs().len().to_string(),
            result.metrics.verification.intersection_work.to_string(),
        ]);
        runs.push(run_json(&result));
    }
    Json::obj()
        .field("name", name)
        .field("rows", rows.n_rows())
        .field("cols", rows.n_cols())
        .field("nonzeros", rows.nnz())
        .field("s_star", S_STAR)
        .field("containers", container_json(&rows.transpose()))
        .field("runs", runs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => false,
        ["--scale", "large"] => true,
        _ => {
            eprintln!("usage: bench-baseline [--scale large]");
            std::process::exit(2);
        }
    };

    let synthetic = SyntheticConfig::small(2_000, EXPERIMENT_SEED)
        .generate()
        .matrix
        .transpose();
    let weblog = WeblogConfig::tiny(EXPERIMENT_SEED)
        .generate()
        .matrix
        .transpose();

    let mut table = Vec::new();
    let mut datasets = vec![
        dataset_json("synthetic", &synthetic, &mut table),
        dataset_json("weblog", &weblog, &mut table),
    ];
    if large {
        let rows = large_synthetic().generate().matrix.transpose();
        datasets.push(sharded_dataset_json("synthetic-large", &rows, &mut table));
    }
    print_table(
        "bench-baseline (counters are deterministic; \"timing\" keys are machine-dependent)",
        &[
            "dataset",
            "scheme",
            "time(s)",
            "candidates",
            "pairs",
            "probe work",
        ],
        &table,
    );

    let mut speedup_table = Vec::new();
    let speedups = speedup_json(&synthetic, &mut speedup_table);
    print_table(
        "phase-2 speedup, 1 vs 4 workers (synthetic; best of 3; \
         4-worker column skipped on hosts with < 4 threads)",
        &["scheme", "1t(s)", "4t(s)", "speedup"],
        &speedup_table,
    );

    let mut kernel_table = Vec::new();
    let kernels = Json::obj()
        .field(
            "synthetic",
            kernel_json("synthetic", &synthetic.transpose(), &mut kernel_table),
        )
        .field(
            "weblog",
            kernel_json("weblog", &weblog.transpose(), &mut kernel_table),
        );
    print_table(
        "exact ground-truth kernels (best of 3)",
        &["dataset", "kernel", "time(s)"],
        &kernel_table,
    );

    let mut phase1_table = Vec::new();
    let phase1 = Json::obj()
        .field(
            "synthetic",
            phase1_json("synthetic", &synthetic, &mut phase1_table),
        )
        .field("weblog", phase1_json("weblog", &weblog, &mut phase1_table));
    print_table(
        "phase-1 signature builds (best of 5; sketches byte-identical \
         across cache store/load)",
        &["dataset", "sketch", "build(s)", "cache hit(s)"],
        &phase1_table,
    );

    let mut serving_table = Vec::new();
    let serving = serving_json(&synthetic, &mut serving_table);
    print_table(
        "serving latency (in-process sfa serve, well-formed load)",
        &["load", "p50(µs)", "p99(µs)", "qps"],
        &serving_table,
    );

    let mut rebuild_table = Vec::new();
    let rebuild = rebuild_json(&synthetic, &mut rebuild_table);
    print_table(
        "serve snapshot rebuild, cold vs incremental (synthetic; best of 3)",
        &["rebuild", "cold(s)", "incremental(s)", "speedup"],
        &rebuild_table,
    );

    let doc = Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("seed", EXPERIMENT_SEED)
        .field(
            "timing",
            speedups
                .field("kernels", kernels)
                .field("phase1", phase1)
                .field("serving", serving.field("rebuild", rebuild)),
        )
        .field("datasets", datasets);
    let path = out_path();
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_pipeline.json");
    println!("\nwrote {}", path.display());
}

/// `$SFA_BENCH_OUT` or `<repo root>/BENCH_pipeline.json`.
fn out_path() -> PathBuf {
    std::env::var_os("SFA_BENCH_OUT").map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_pipeline.json")
        },
        PathBuf::from,
    )
}
