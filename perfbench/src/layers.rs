//! Every call the benchmark makes into the sfa library crates.
//!
//! The rest of the benchmark talks to `sfa` only through its command
//! line and its TCP protocol. Library entry points get merged, renamed
//! and deleted as the pipeline is refactored, so they are confined to
//! this one file: a later change to those entry points has exactly one
//! benchmark file to follow.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;

use sfa_core::verify::{
    verify_candidates_in_memory_pool_with_report, verify_candidates_with_stats,
};
use sfa_core::{MemoryBudget, Pipeline, PipelineConfig, Scheme, VerifiedPair};
use sfa_datagen::SyntheticConfig;
use sfa_lsh::{
    hlsh_candidates_with_stats, hlsh_candidates_with_stats_pool, mlsh_candidates_with_stats,
    mlsh_candidates_with_stats_pool, HLshParams, MLshParams,
};
use sfa_matrix::{io, FileRowStream, RowMajorMatrix, RowStream};
use sfa_minhash::hashcount::{
    kmh_candidates_with_stats, kmh_candidates_with_stats_pool, mh_candidates_with_stats,
    mh_candidates_with_stats_pool,
};
use sfa_minhash::rowsort::{rowsort_candidates_with_stats, rowsort_candidates_with_stats_pool};
use sfa_minhash::{
    compute_bottom_k, compute_bottom_k_pool, compute_signatures, compute_signatures_pool,
    BottomKSignatures, CandidateGenStats, CandidatePair, SignatureMatrix,
};
use sfa_par::ThreadPool;
use sfa_serve::{parse_request, IngestLog, Snapshot};

use crate::load::{Request, CONNECTIONS, INGEST_EVERY};
use crate::spans::Spans;

/// The `sfa mine` settings the benchmark runs with: the defaults
/// (`--threshold 0.7`, `--seed 42`, `--k 100`, `--delta 0.2`, and
/// `--r 5 --l 20` for M-LSH), except `--r 12 --l 10` for H-LSH.
const S_STAR: f64 = 0.7;
const MINE_SEED: u64 = 42;
const K: usize = 100;
const DELTA: f64 = 0.2;
const LSH_R: usize = 5;
const LSH_L: usize = 20;
const HLSH_R: usize = 12;
const HLSH_L: usize = 10;

/// `sfa serve`'s default sketch size.
const SERVE_K: usize = 128;

/// The seed labels the pipeline derives its phase seeds with (private to
/// `sfa_core::pipeline`); the traced run's pair check fails if they drift.
fn sig_seed() -> u64 {
    sfa_hash::family::derive_seed(MINE_SEED, 1)
}

fn lsh_seed() -> u64 {
    sfa_hash::family::derive_seed(MINE_SEED, 2)
}

/// The seeded table behind one workload.
fn table_config(workload: &str, seed: u64) -> Result<SyntheticConfig, String> {
    Ok(match workload {
        // Many sparse columns, so phase-2 pair counting dominates the MH
        // family: bench-baseline's `synthetic-large` (300k × 10⁵) with an
        // eighth of the columns. About 55k column pairs share a row, more
        // than a 1 MiB pair counter holds, so under `run.py`'s budget the
        // MH family restarts once and runs at 2 shards.
        "large-budget" | "large-threads" => SyntheticConfig {
            n_rows: 300_000,
            n_cols: 12_500,
            density_range: (4.0e-5, 6.0e-5),
            pairs_per_band: 20,
            bands: sfa_datagen::synthetic::PAPER_BANDS.to_vec(),
            seed,
        },
        // The paper's §5 shape: 10⁴ columns at 1–5% density.
        "dense-stream" => SyntheticConfig::paper(20_000, seed),
        "serve-ingest" => SyntheticConfig::small(50_000, seed),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Generates the workload's table into `dir/input.sfab` and its planted
/// pairs into `dir/truth.tsv` (`i j similarity`, one pair a line), and
/// prints the table's `rows cols`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let data = table_config(workload, seed)?.generate();
    let rows = data.matrix.transpose();
    io::write_binary(&rows, &dir.join("input.sfab")).map_err(|e| e.to_string())?;
    let mut truth = String::new();
    for p in &data.planted {
        let _ = writeln!(truth, "{}\t{}\t{:.17}", p.i, p.j, p.similarity);
    }
    std::fs::write(dir.join("truth.tsv"), truth).map_err(|e| e.to_string())?;
    println!("{} {}", rows.n_rows(), rows.n_cols());
    Ok(())
}

fn open(input: &Path) -> Result<FileRowStream, String> {
    FileRowStream::open(input).map_err(|e| e.to_string())
}

/// Reads a whole `.sfab` table into memory, as `sfa mine --threads` does.
fn materialize(input: &Path) -> Result<RowMajorMatrix, String> {
    let mut stream = open(input)?;
    let mut rows = Vec::with_capacity(stream.n_rows() as usize);
    let mut buf = Vec::new();
    while stream
        .read_row(&mut buf)
        .map_err(|e| e.to_string())?
        .is_some()
    {
        rows.push(buf.clone());
    }
    RowMajorMatrix::from_rows(stream.n_cols(), rows).map_err(|e| e.to_string())
}

/// `sfa mine --scheme mh-rowsort`, which the CLI does not offer: the same
/// pipeline entry points `sfa mine` calls (`run_sharded` under a memory
/// budget, `run_parallel` with threads, `run` otherwise), printing the
/// same summary line and pair lines.
pub fn mine_rowsort(
    input: &Path,
    threads: Option<usize>,
    budget: Option<usize>,
    spill_dir: &Path,
) -> Result<(), String> {
    let scheme = Scheme::MhRowSort { k: K, delta: DELTA };
    let pipeline = Pipeline::new(PipelineConfig::new(scheme, S_STAR, MINE_SEED));
    let result = match (threads, budget) {
        (Some(n), _) => pipeline.run_parallel(&materialize(input)?, n),
        (None, Some(bytes)) => pipeline
            .run_sharded(
                &mut open(input)?,
                &MemoryBudget::new(bytes, spill_dir),
                None,
            )
            .map_err(|e| e.to_string())?,
        (None, None) => pipeline.run(&mut open(input)?).map_err(|e| e.to_string())?,
    };
    let pairs = result.similar_pairs();
    let mut out = format!(
        "{}: {} candidates, {} pairs at S >= {S_STAR} ({})\n",
        scheme.name(),
        result.candidates_generated(),
        pairs.len(),
        result.timings
    );
    for p in &pairs {
        let _ = writeln!(
            out,
            "{}\t{}\t{:.4}\t{}\t{}",
            p.i, p.j, p.similarity, p.intersection, p.union
        );
    }
    std::io::stdout()
        .write_all(out.as_bytes())
        .map_err(|e| e.to_string())
}

/// The schemes `sfa mine --scheme` runs, plus MH-rowsort.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Mh,
    RowSort,
    Kmh,
    MLsh,
    HLsh,
}

impl Kind {
    fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "mh" => Self::Mh,
            "mh-rowsort" => Self::RowSort,
            "kmh" => Self::Kmh,
            "mlsh" => Self::MLsh,
            "hlsh" => Self::HLsh,
            other => return Err(format!("unknown scheme {other:?}")),
        })
    }

    fn scheme(self) -> Scheme {
        match self {
            Self::Mh => Scheme::Mh { k: K, delta: DELTA },
            Self::RowSort => Scheme::MhRowSort { k: K, delta: DELTA },
            Self::Kmh => Scheme::Kmh { k: K, delta: DELTA },
            Self::MLsh => Scheme::MLsh {
                k: K,
                r: LSH_R,
                l: LSH_L,
                sampled: false,
            },
            Self::HLsh => Scheme::HLsh {
                r: HLSH_R,
                l: HLSH_L,
                t: 4,
                max_levels: 16,
            },
        }
    }

    /// The per-layer metric prefix of the scheme's phase-1 step.
    const fn phase1_layer(self) -> &'static str {
        match self {
            Self::Kmh => "minhash.bottom_k",
            Self::HLsh => "matrix.materialize",
            _ => "minhash.signatures",
        }
    }

    /// The per-layer metric prefix of the scheme's phase-2 generator.
    const fn phase2_layer(self) -> &'static str {
        match self {
            Self::Mh => "minhash.hashcount",
            Self::RowSort => "minhash.rowsort",
            Self::Kmh => "minhash.kmh_overlap",
            Self::MLsh => "lsh.mlsh",
            Self::HLsh => "lsh.hlsh",
        }
    }
}

/// The resident phase-1 summary a scheme's generator reads.
enum Summary {
    Sigs(SignatureMatrix),
    BottomK(BottomKSignatures),
    Matrix(RowMajorMatrix),
}

fn mlsh_params() -> MLshParams {
    MLshParams::banded(LSH_R, LSH_L, lsh_seed())
}

fn hlsh_params() -> HLshParams {
    HLshParams {
        r: HLSH_R,
        l: HLSH_L,
        t: 4,
        max_levels: 16,
        include_zero_keys: false,
        seed: lsh_seed(),
    }
}

/// Phase 1 of one scheme: over a `FileRowStream`, or from the resident
/// matrix over a pool as `sfa mine --threads` does.
fn phase1(
    kind: Kind,
    input: &Path,
    resident: Option<(&RowMajorMatrix, &ThreadPool)>,
) -> Result<Summary, String> {
    let err = |e: sfa_matrix::MatrixError| e.to_string();
    Ok(match (kind, resident) {
        (Kind::Kmh, None) => {
            Summary::BottomK(compute_bottom_k(&mut open(input)?, K, sig_seed()).map_err(err)?)
        }
        (Kind::Kmh, Some((m, p))) => Summary::BottomK(compute_bottom_k_pool(m, K, sig_seed(), p)),
        (Kind::HLsh, None) => Summary::Matrix(materialize(input)?),
        (Kind::HLsh, Some((m, _))) => Summary::Matrix(m.clone()),
        (_, None) => {
            Summary::Sigs(compute_signatures(&mut open(input)?, K, sig_seed()).map_err(err)?)
        }
        (_, Some((m, p))) => Summary::Sigs(compute_signatures_pool(m, K, sig_seed(), p)),
    })
}

/// Phase 2: the scheme's `*_candidates_with_stats` generator, or its
/// `_pool` form when a pool is given.
fn generate_candidates(
    kind: Kind,
    summary: &Summary,
    pool: Option<&ThreadPool>,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    match (kind, summary, pool) {
        (Kind::Mh, Summary::Sigs(s), None) => mh_candidates_with_stats(s, S_STAR, DELTA),
        (Kind::Mh, Summary::Sigs(s), Some(p)) => mh_candidates_with_stats_pool(s, S_STAR, DELTA, p),
        (Kind::RowSort, Summary::Sigs(s), None) => rowsort_candidates_with_stats(s, S_STAR, DELTA),
        (Kind::RowSort, Summary::Sigs(s), Some(p)) => {
            rowsort_candidates_with_stats_pool(s, S_STAR, DELTA, p)
        }
        (Kind::Kmh, Summary::BottomK(s), None) => kmh_candidates_with_stats(s, S_STAR, DELTA),
        (Kind::Kmh, Summary::BottomK(s), Some(p)) => {
            kmh_candidates_with_stats_pool(s, S_STAR, DELTA, p)
        }
        (Kind::MLsh, Summary::Sigs(s), None) => mlsh_candidates_with_stats(s, &mlsh_params()),
        (Kind::MLsh, Summary::Sigs(s), Some(p)) => {
            mlsh_candidates_with_stats_pool(s, &mlsh_params(), p)
        }
        (Kind::HLsh, Summary::Matrix(m), None) => hlsh_candidates_with_stats(m, &hlsh_params()),
        (Kind::HLsh, Summary::Matrix(m), Some(p)) => {
            hlsh_candidates_with_stats_pool(m, &hlsh_params(), p)
        }
        _ => unreachable!("phase 1 builds the summary its scheme reads"),
    }
}

fn stage(stats: &CandidateGenStats, name: &str) -> u64 {
    stats
        .stages
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, count)| count)
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one traced run, by name.
#[derive(Default)]
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// Sets `name` unless an earlier scheme already did.
    fn first(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_insert(value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    fn max(&mut self, name: &str, value: f64) {
        let slot = self.0.entry(name.to_owned()).or_insert(value);
        *slot = slot.max(value);
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Pairs at or above `s*` as `[i, j, intersection, union]` lists.
fn pairs_json(pairs: &[VerifiedPair]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .filter(|p| p.similarity >= S_STAR)
        .map(|p| format!("[{}, {}, {}, {}]", p.i, p.j, p.intersection, p.union))
        .collect();
    format!("[{}]", items.join(", "))
}

/// What one scheme's traced path produced, checked against `sfa mine`.
struct SchemeTrace {
    name: String,
    kind: Kind,
    candidates: Vec<CandidatePair>,
    pairs: Vec<VerifiedPair>,
    /// Seconds of the spans that make up the path `sfa mine` takes.
    path_s: f64,
    /// `run_sharded`'s pairs and seconds, on the budgeted workload.
    sharded: Option<(Vec<VerifiedPair>, f64)>,
}

fn record_stream_verify(layers: &mut Layers, verified: &[VerifiedPair], probes: u64, secs: f64) {
    layers.add("verify.stream_s", secs);
    #[allow(clippy::cast_precision_loss)]
    {
        layers.add("verify.probes", probes as f64);
        layers.add(
            "verify.true_positives",
            verified.iter().filter(|p| p.similarity >= S_STAR).count() as f64,
        );
        layers.add("verify.checked", verified.len() as f64);
    }
}

/// Traces one scheme piece by piece: phase 1, phase 2 and phase 3, each
/// in its own span under a root span named after the scheme.
fn trace_scheme(
    kind: Kind,
    name: &str,
    input: &Path,
    pool: Option<&ThreadPool>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<SchemeTrace, String> {
    let root = spans.open(name, None);
    let mut path_s = 0.0;
    // With threads, `sfa mine` reads the table into memory first and runs
    // every phase from there.
    let resident = match pool {
        Some(_) => {
            let (m, t) = spans.time("matrix.materialize", Some(root), || materialize(input));
            path_s += t;
            Some(m?)
        }
        None => None,
    };
    let p1_layer = kind.phase1_layer();
    let (summary, t1) = spans.time(p1_layer, Some(root), || {
        phase1(kind, input, resident.as_ref().zip(pool))
    });
    let summary = summary?;
    path_s += t1;
    if kind != Kind::HLsh {
        layers.first(&format!("{p1_layer}_s"), t1);
    }

    let layer = kind.phase2_layer();
    let ((candidates, stats), t2) = spans.time(layer, Some(root), || {
        generate_candidates(kind, &summary, pool)
    });
    path_s += t2;
    layers.first(&format!("{layer}_s"), t2);
    match kind {
        Kind::Mh | Kind::RowSort | Kind::Kmh => {
            let increments = stage(&stats, "counter-increments");
            #[allow(clippy::cast_precision_loss)]
            layers.first(
                &format!("{layer}_ns_per_increment"),
                t2 * 1e9 / increments.max(1) as f64,
            );
            if kind == Kind::Mh {
                let agreeing = stage(&stats, "pairs-agreeing");
                #[allow(clippy::cast_precision_loss)]
                {
                    layers.set("minhash.counter_increments", increments as f64);
                    layers.set("minhash.pairs_agreeing", agreeing as f64);
                }
                layers.set(
                    "minhash.admit_ratio",
                    ratio(stage(&stats, "threshold-admitted"), agreeing),
                );
            }
        }
        Kind::MLsh | Kind::HLsh => {
            #[allow(clippy::cast_precision_loss)]
            layers.first(
                &format!("{layer}_colliding_pairs"),
                stage(&stats, "colliding-pairs") as f64,
            );
        }
    }

    let pairs = match (&resident, pool) {
        (Some(matrix), Some(pool)) => {
            let (columns, tt) = spans.time("matrix.transpose", Some(root), || matrix.transpose());
            let ((verified, _, report), tv) = spans.time("verify.in_memory", Some(root), || {
                verify_candidates_in_memory_pool_with_report(&columns, &candidates, pool)
            });
            path_s += tt + tv;
            layers.add("verify.in_memory_s", tv);
            #[allow(clippy::cast_precision_loss)]
            layers.max(
                "verify.container_bytes",
                report.container.container_bytes as f64,
            );
            verified
        }
        _ => {
            let (out, tv) = spans.time("verify.stream", Some(root), || {
                verify_candidates_with_stats(&mut open(input)?, &candidates)
                    .map_err(|e| e.to_string())
            });
            let (verified, _, probes) = out?;
            path_s += tv;
            record_stream_verify(layers, &verified, probes, tv);
            verified
        }
    };
    spans.close(root);
    Ok(SchemeTrace {
        name: name.to_owned(),
        kind,
        candidates,
        pairs,
        path_s,
        sharded: None,
    })
}

/// The layers a workload's own path leaves out, timed on its input so
/// every workload reports them: one table scan, one transpose, the phase-1
/// sketches, and whichever phase-3 verifier the path did not use.
fn probe_layers(
    input: &Path,
    traces: &[SchemeTrace],
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let (scan, t) = spans.time("matrix.scan", None, || -> Result<u64, String> {
        let mut stream = open(input)?;
        let mut buf = Vec::new();
        let mut nnz = 0u64;
        while stream
            .read_row(&mut buf)
            .map_err(|e| e.to_string())?
            .is_some()
        {
            nnz += buf.len() as u64;
        }
        Ok(nnz)
    });
    let nnz = scan?;
    #[allow(clippy::cast_precision_loss)]
    let per_nnz = |secs: f64| secs * 1e9 / nnz.max(1) as f64;
    layers.set("matrix.scan_s", t);
    layers.set("matrix.scan_ns_per_nnz", per_nnz(t));

    let matrix = materialize(input)?;
    let (columns, t) = spans.time("matrix.transpose", None, || matrix.transpose());
    layers.set("matrix.transpose_s", t);

    for kind in [Kind::Mh, Kind::Kmh] {
        let layer = kind.phase1_layer();
        if !layers.has(&format!("{layer}_s")) {
            let (summary, t) = spans.time(layer, None, || phase1(kind, input, None));
            black_box(summary?);
            layers.set(&format!("{layer}_s"), t);
        }
    }
    layers.set(
        "minhash.sig_ns_per_nnz",
        per_nnz(layers.get("minhash.signatures_s")),
    );
    layers.set(
        "minhash.bottom_k_ns_per_nnz",
        per_nnz(layers.get("minhash.bottom_k_s")),
    );

    let pool = ThreadPool::new(2);
    let stream_traced = layers.has("verify.stream_s");
    let in_memory_traced = layers.has("verify.in_memory_s");
    for trace in traces {
        if !stream_traced {
            let (out, t) = spans.time("verify.stream", None, || {
                verify_candidates_with_stats(&mut open(input)?, &trace.candidates)
                    .map_err(|e| e.to_string())
            });
            let (verified, _, probes) = out?;
            record_stream_verify(layers, &verified, probes, t);
        }
        if !in_memory_traced {
            let ((_, _, report), t) = spans.time("verify.in_memory", None, || {
                verify_candidates_in_memory_pool_with_report(&columns, &trace.candidates, &pool)
            });
            layers.add("verify.in_memory_s", t);
            #[allow(clippy::cast_precision_loss)]
            layers.max(
                "verify.container_bytes",
                report.container.container_bytes as f64,
            );
        }
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (probes, tp, checked) = (
        layers.get("verify.probes") as u64,
        layers.get("verify.true_positives") as u64,
        layers.get("verify.checked") as u64,
    );
    #[allow(clippy::cast_precision_loss)]
    layers.set(
        "verify.ns_per_probe",
        layers.get("verify.stream_s") * 1e9 / probes.max(1) as f64,
    );
    layers.set("verify.tp_ratio", ratio(tp, checked));
    Ok(())
}

/// `par.phase2_speedup`: a scheme's sequential generator time over its
/// 2-worker pool generator time, on the same phase-1 summary.
fn phase2_speedup(kind: Kind, input: &Path, spans: &mut Spans) -> Result<f64, String> {
    let summary = phase1(kind, input, None)?;
    let pool = ThreadPool::new(2);
    let (seq, t_seq) = spans.time("par.phase2_sequential", None, || {
        generate_candidates(kind, &summary, None)
    });
    let (par, t_par) = spans.time("par.phase2_pool", None, || {
        generate_candidates(kind, &summary, Some(&pool))
    });
    if seq.0 != par.0 {
        return Err(format!(
            "{}: pool candidates differ from sequential ones",
            kind.scheme().name()
        ));
    }
    Ok(t_seq / t_par)
}

/// Runs `Pipeline::run_sharded` for every traced scheme and records the
/// sharding counters of MH. The budget overhead is the MH family's sharded
/// run time minus the same schemes' unsharded phases on the same input.
fn trace_sharded(
    traces: &mut [SchemeTrace],
    input: &Path,
    budget: usize,
    spill_dir: &Path,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    for trace in traces {
        let pipeline = Pipeline::new(PipelineConfig::new(trace.kind.scheme(), S_STAR, MINE_SEED));
        let name = format!("core.run_sharded/{}", trace.name);
        let (result, t) = spans.time(&name, None, || {
            pipeline
                .run_sharded(
                    &mut open(input)?,
                    &MemoryBudget::new(budget, spill_dir),
                    None,
                )
                .map_err(|e| e.to_string())
        });
        let result = result?;
        if trace.kind == Kind::Mh {
            let s = result
                .metrics
                .sharding
                .ok_or("run_sharded reported no sharding block")?;
            #[allow(clippy::cast_precision_loss)]
            {
                layers.set("core.generation_passes", s.generation_passes as f64);
                layers.set("core.shard_restarts", s.shard_restarts as f64);
                layers.set("core.spill_bytes", s.spill_bytes as f64);
                layers.set("core.peak_tracked_bytes", s.peak_tracked_bytes as f64);
            }
            // Passes beyond one per final shard were thrown away.
            layers.set(
                "core.wasted_pass_ratio",
                ratio(
                    s.generation_passes.saturating_sub(s.shards),
                    s.generation_passes,
                ),
            );
        }
        if matches!(trace.kind, Kind::Mh | Kind::RowSort | Kind::Kmh) {
            layers.add("core.budget_overhead_s", t - trace.path_s);
        }
        trace.sharded = Some((result.similar_pairs(), t));
    }
    Ok(())
}

/// How a mining workload runs `sfa mine`.
pub struct MineMode<'a> {
    pub threads: Option<usize>,
    pub budget: Option<usize>,
    pub spill_dir: &'a Path,
}

/// The traced run of a mining workload. Prints one JSON object: the
/// per-layer metrics, each scheme's candidate count and pairs (the caller
/// checks them against `sfa mine`), and the spans.
pub fn trace_mining(input: &Path, schemes: &[String], mode: &MineMode<'_>) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let pool = mode.threads.map(ThreadPool::new);
    let mut traces = Vec::new();
    for name in schemes {
        let kind = Kind::parse(name)?;
        traces.push(trace_scheme(
            kind,
            name,
            input,
            pool.as_ref(),
            &mut spans,
            &mut layers,
        )?);
    }
    if let Some(budget) = mode.budget {
        trace_sharded(
            &mut traces,
            input,
            budget,
            mode.spill_dir,
            &mut spans,
            &mut layers,
        )?;
    }
    let first = traces.first().ok_or("no schemes to trace")?.kind;
    layers.set(
        "par.phase2_speedup",
        phase2_speedup(first, input, &mut spans)?,
    );
    probe_layers(input, &traces, &mut spans, &mut layers)?;
    print_trace(&layers, &traces, &spans);
    Ok(())
}

fn print_trace(layers: &Layers, traces: &[SchemeTrace], spans: &Spans) {
    let schemes: Vec<String> = traces
        .iter()
        .map(|t| {
            let sharded = t.sharded.as_ref().map_or_else(
                || "null".to_owned(),
                |(pairs, secs)| format!("{{\"pairs\": {}, \"seconds\": {secs}}}", pairs_json(pairs)),
            );
            format!(
                "{:?}: {{\"candidates\": {}, \"pairs\": {}, \"path_s\": {}, \"sharded\": {sharded}}}",
                t.name,
                t.candidates.len(),
                pairs_json(&t.pairs),
                t.path_s
            )
        })
        .collect();
    println!(
        "{{\"layers\": {}, \"schemes\": {{{}}}, \"spans\": {}}}",
        layers.to_json(),
        schemes.join(", "),
        spans.to_json()
    );
}

/// Times `reps` calls of `f` inside a span; returns nanoseconds per call.
fn ns_per_call(spans: &mut Spans, name: &str, reps: u32, mut f: impl FnMut(u32)) -> f64 {
    let (_, secs) = spans.time(name, None, || {
        for n in 0..reps {
            f(n);
        }
    });
    secs * 1e9 / f64::from(reps)
}

/// The traced run of `serve-ingest`: the serve layers the server runs
/// (snapshot build, query calls, request parsing, ingest fold, WAL flush)
/// called directly on the workload's table, then the mining layers on the
/// same table. The query and ingest arguments are the load client's drawn
/// requests for `seed`; `ingests` is the ingest count of the end-to-end run.
pub fn trace_serve(input: &Path, seed: u64, ingests: u64, state_dir: &Path) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let matrix = materialize(input)?;
    let n_cols = matrix.n_cols();
    let rows: Vec<Vec<u32>> = matrix.rows().map(|(_, cols)| cols.to_vec()).collect();

    let (snap, t) = spans.time("serve.snapshot_build", None, || {
        Snapshot::build(1, n_cols, &rows, SERVE_K, MINE_SEED, S_STAR, DELTA)
            .map_err(|e| e.to_string())
    });
    let snap = snap?;
    layers.set("serve.snapshot_build_s", t);

    let drawn: Vec<Request> = (0..4096)
        .map(|n| Request::draw(seed, 0, n, n_cols))
        .collect();
    let lines: Vec<Vec<u8>> = drawn.iter().map(|r| r.line().into_bytes()).collect();
    let (mut topk, mut sim, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for request in &drawn {
        match *request {
            Request::TopK { col, k } => topk.push((col, k)),
            Request::Sim(a, b) => sim.push((a, b)),
            #[allow(clippy::cast_precision_loss)]
            Request::Pairs { tenths } => pairs.push(tenths as f64 / 10.0),
            Request::Health | Request::Ingest(_) => {}
        }
    }
    let parse_ns = ns_per_call(&mut spans, "serve.parse", 200_000, |n| {
        black_box(parse_request(black_box(&lines[n as usize % lines.len()])).is_ok());
    });
    layers.set("serve.parse_ns", parse_ns);
    let topk_ns = ns_per_call(&mut spans, "serve.topk", 200_000, |n| {
        let (col, k) = topk[n as usize % topk.len()];
        black_box(snap.top_k(col, k));
    });
    layers.set("serve.topk_ns", topk_ns);
    let sim_ns = ns_per_call(&mut spans, "serve.sim", 20_000, |n| {
        let (a, b) = sim[n as usize % sim.len()];
        black_box(snap.similarity(a, b));
    });
    layers.set("serve.sim_ns", sim_ns);
    let pairs_ns = ns_per_call(&mut spans, "serve.pairs", 200_000, |n| {
        black_box(snap.pairs_at(pairs[n as usize % pairs.len()]).len());
    });
    layers.set("serve.pairs_ns", pairs_ns);

    // The rows the load client ingested, connections taking turns.
    let connections = CONNECTIONS as u64;
    let ingested: Vec<Vec<u32>> = (0..ingests.max(1))
        .map(|m| {
            let n = (m / connections) * INGEST_EVERY + INGEST_EVERY - 1;
            #[allow(clippy::cast_possible_truncation)]
            match Request::draw(seed, (m % connections) as usize, n, n_cols) {
                Request::Ingest(cols) => cols,
                _ => unreachable!("request {n} of a connection is an INGEST"),
            }
        })
        .collect();
    let mut miner =
        sfa_core::streaming::StreamingMiner::from_rows(n_cols, SERVE_K, MINE_SEED, &rows);
    let (_, t) = spans.time("serve.fold", None, || {
        for row in &ingested {
            miner.push_row(row);
        }
    });
    #[allow(clippy::cast_precision_loss)]
    layers.set("serve.fold_ns_per_row", t * 1e9 / ingested.len() as f64);
    let log = IngestLog::open(state_dir, n_cols).map_err(|e| e.to_string())?;
    let (flushed, t) = spans.time("serve.wal_flush", None, || log.flush(&ingested));
    flushed.map_err(|e| e.to_string())?;
    layers.set("serve.wal_flush_s", t);

    // The mining layers on the served table, one pass of every scheme.
    let mut traces = Vec::new();
    for name in ["mh", "mh-rowsort", "kmh", "mlsh", "hlsh"] {
        let kind = Kind::parse(name)?;
        traces.push(trace_scheme(
            kind,
            name,
            input,
            None,
            &mut spans,
            &mut layers,
        )?);
    }
    layers.set(
        "par.phase2_speedup",
        phase2_speedup(Kind::Mh, input, &mut spans)?,
    );
    probe_layers(input, &traces, &mut spans, &mut layers)?;
    print_trace(&layers, &[], &spans);
    Ok(())
}
