//! The `sfa` command-line tool.
//!
//! Subcommands:
//!
//! ```text
//! sfa gen --kind weblog|news|synthetic --out table.sfab [--seed N] [--scale tiny|small|paper]
//! sfa info --input table.sfab
//! sfa stats --input table.sfab [--bins N]
//! sfa sketch --input table.sfab --out sketch.sfmh|sketch.sfkm --scheme mh|kmh --k N [--seed N]
//!            [--metrics-json out.json] [--threads N]
//! sfa mine --input table.sfab --scheme mh|kmh|mlsh|hlsh --threshold S
//!          [--k N] [--r N] [--l N] [--delta D] [--seed N] [--csv out.csv]
//!          [--metrics-json out.json] [--max-retries N]
//!          [--checkpoint-dir DIR] [--checkpoint-every N] [--threads N]
//!          [--memory-budget BYTES] [--deadline-secs S]
//!          [--signature-cache DIR]
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs after the
//! subcommand) to keep the dependency footprint at zero.
//!
//! Exit codes: 0 success, 1 data/environment error (one-line diagnostic),
//! 2 usage error (usage text printed), 3 interrupted-but-resumable — a
//! SIGINT/SIGTERM or an elapsed `--deadline-secs DEADLINE` canceled the run
//! at a safe point after flushing any resumable state, so rerunning the
//! same command with `--checkpoint-dir` picks up from the saved frontier.
//! `--max-retries` wraps the input in a
//! [`RetryingRowStream`] so transient IO errors are absorbed;
//! `--checkpoint-dir` makes `mine` crash-safe via
//! [`Pipeline::run_resumable`]. `--memory-budget BYTES` runs the budgeted
//! out-of-core pipeline ([`Pipeline::run_sharded`]): pair-space state is
//! capped at the budget, candidates are verified in chunks whose results
//! spill to disk (into `--checkpoint-dir` when given, a per-process temp
//! directory otherwise). `--threads N` reads the input into memory once
//! and sketches and indexes it on a worker pool (`0` sizes it from the
//! machine; [`Pipeline::with_threads`]). Every flag composes with every
//! other, and the pairs are byte-identical in every combination.
//! `--signature-cache DIR` persists phase-1 sketches (keyed on scheme
//! kind, `k`, seed, and table shape) so repeated mines over the same
//! table skip the signature pass; it composes with every execution mode
//! and `metrics.phase1.cache_hit` records whether it fired.

use std::path::{Path, PathBuf};

use crate::core::{CancelToken, CheckpointSpec, MemoryBudget, Pipeline, PipelineConfig, Scheme};
use crate::datagen::{NewsConfig, SyntheticConfig, WeblogConfig};
use crate::matrix::{io, FileRowStream, RetryingRowStream, RowMajorMatrix, RowStream};

/// A CLI failure, classified so the process can exit with a distinct code
/// per failure family (usage mistakes vs. bad data/environment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is malformed — unknown subcommand, missing
    /// option, unparsable value. Exit code 2; usage text is printed.
    Usage(String),
    /// The command line is fine but the data or environment is not —
    /// missing/corrupt/truncated input, IO failure. Exit code 1; a
    /// one-line diagnostic is printed (no usage spam).
    Data(String),
    /// The run was canceled cooperatively (signal or `--deadline-secs`)
    /// after flushing any resumable state. Exit code 3; the diagnostic
    /// names the cause and how to resume. Distinct from `Data` so wrapper
    /// scripts can tell "rerun to resume" apart from "this will fail
    /// again".
    Interrupted(String),
}

impl CliError {
    /// The process exit code for this failure family.
    #[must_use]
    pub const fn exit_code(&self) -> i32 {
        match self {
            Self::Usage(_) => 2,
            Self::Data(_) => 1,
            Self::Interrupted(_) => 3,
        }
    }

    /// The diagnostic message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            Self::Usage(m) | Self::Data(m) | Self::Interrupted(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand word.
    pub command: String,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when the shape is invalid.
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut it = raw.iter();
        let command = it
            .next()
            .ok_or_else(|| "missing subcommand; try `sfa help`".to_string())?
            .clone();
        let mut options = Vec::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            options.push((key.to_string(), value.clone()));
        }
        Ok(Self { command, options })
    }

    /// Looks up an option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing --{key}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --{key}: {v:?}"))),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "sfa — support-free association mining (Cohen et al., ICDE 2000)

USAGE:
  sfa gen    --kind weblog|news|synthetic --out FILE [--seed N] [--scale tiny|small|paper]
  sfa info   --input FILE
  sfa stats  --input FILE [--bins N]
  sfa sketch --input FILE --out FILE --scheme mh|kmh [--k N] [--seed N]
             [--metrics-json FILE] [--threads N]
  sfa mine   --input FILE --scheme mh|kmh|mlsh|hlsh [--threshold S]
             [--k N] [--r N] [--l N] [--delta D] [--seed N] [--csv FILE]
             [--metrics-json FILE] [--max-retries N]
             [--checkpoint-dir DIR] [--checkpoint-every N] [--threads N]
             [--memory-budget BYTES] [--deadline-secs S]
             [--signature-cache DIR]
  sfa optimize --input FILE [--threshold S] [--max-fn N] [--max-fp N]
               [--sample F] [--seed N]
  sfa rules  --input FILE [--confidence C] [--k N] [--delta D] [--seed N]
  sfa compare --input FILE [--threshold S] [--k N] [--seed N]
  sfa serve  --input FILE [--addr HOST:PORT] [--threads N] [--queue-depth N]
             [--request-timeout-ms MS] [--drain-secs S] [--threshold S]
             [--k N] [--delta D] [--seed N] [--state-dir DIR]
             [--metrics-json FILE] [--deadline-secs S]
  sfa help

Parallelism: --threads N reads the input into memory once and runs phases
1 and 2 on N workers (0 = size from the machine).
Memory: --memory-budget BYTES caps pair-space state, verifying candidates
in chunks and spilling each chunk's result to disk.
Every mine flag composes with every other; the pairs are identical in
every combination.
Caching: --signature-cache DIR reuses phase-1 sketches (MH/K-MH) across
mines keyed on scheme kind, k, seed, and table shape; use one directory
per dataset. Corrupt entries are quarantined and recomputed; metrics
record the hit under metrics.phase1. H-LSH builds no sketch to cache.
Shutdown: mine traps SIGINT/SIGTERM, and --deadline-secs S caps the run's
wall clock; either cancels at the next safe point after flushing resumable
state and exits 3 (rerun with the same --checkpoint-dir to resume).
Serving: serve mines the input at --threshold, prints the bound address,
and answers TOPK/SIM/PAIRS/HEALTH/INGEST over a line protocol (see
docs/SERVING.md). On SIGINT/SIGTERM or --deadline-secs it drains within
--drain-secs, flushes acknowledged ingests to --state-dir, and exits 3.
Dataset kinds for gen: weblog, news, synthetic, cf, basket.
";

/// Runs the CLI; returns the process exit code (0 success, 1 data error,
/// 2 usage error, 3 interrupted with resumable state flushed).
#[must_use]
pub fn run(raw: &[String]) -> i32 {
    match dispatch(raw) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            e.exit_code()
        }
    }
}

/// Parses and executes, returning the textual output (testable core).
///
/// # Errors
///
/// Returns a classified [`CliError`] on bad arguments or IO failures.
pub fn dispatch(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw).map_err(CliError::Usage)?;
    let (command, known) = subcommand(&args.command)
        .ok_or_else(|| CliError::Usage(format!("unknown subcommand {:?}", args.command)))?;
    // A misspelled option would otherwise be ignored and the run would go
    // ahead on its default.
    if let Some((key, _)) = args
        .options
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        return Err(CliError::Usage(format!(
            "unknown option --{key} for `sfa {}`",
            args.command
        )));
    }
    command(&args)
}

/// A subcommand's handler and the options it takes.
type Subcommand = (
    fn(&Args) -> Result<String, CliError>,
    &'static [&'static str],
);

/// The subcommand called `name`, with exactly the options its [`USAGE`]
/// line names.
fn subcommand(name: &str) -> Option<Subcommand> {
    Some(match name {
        "gen" => (cmd_gen, &["kind", "out", "seed", "scale"]),
        "info" => (cmd_info, &["input"]),
        "stats" => (cmd_stats, &["input", "bins"]),
        "sketch" => (
            cmd_sketch,
            &[
                "input",
                "out",
                "scheme",
                "k",
                "seed",
                "metrics-json",
                "threads",
            ],
        ),
        "mine" => (
            cmd_mine,
            &[
                "input",
                "scheme",
                "threshold",
                "k",
                "r",
                "l",
                "delta",
                "seed",
                "csv",
                "metrics-json",
                "max-retries",
                "checkpoint-dir",
                "checkpoint-every",
                "threads",
                "memory-budget",
                "deadline-secs",
                "signature-cache",
            ],
        ),
        "optimize" => (
            cmd_optimize,
            &["input", "threshold", "max-fn", "max-fp", "sample", "seed"],
        ),
        "rules" => (cmd_rules, &["input", "confidence", "k", "delta", "seed"]),
        "compare" => (cmd_compare, &["input", "threshold", "k", "seed"]),
        "serve" => (
            cmd_serve,
            &[
                "input",
                "addr",
                "threads",
                "queue-depth",
                "request-timeout-ms",
                "drain-secs",
                "threshold",
                "k",
                "delta",
                "seed",
                "state-dir",
                "metrics-json",
                "deadline-secs",
            ],
        ),
        "help" | "--help" | "-h" => (|_| Ok(USAGE.to_string()), &[]),
        _ => return None,
    })
}

fn io_err(e: impl std::fmt::Display) -> CliError {
    CliError::Data(e.to_string())
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    let kind = args.require("kind")?;
    let out = PathBuf::from(args.require("out")?);
    let seed: u64 = args.parse_num("seed", 42)?;
    let scale = args.get_or("scale", "small");
    let rows = match (kind, scale) {
        ("weblog", "tiny") => WeblogConfig::tiny(seed).generate().matrix.transpose(),
        ("weblog", "small") => WeblogConfig::small(seed).generate().matrix.transpose(),
        ("weblog", "paper") => WeblogConfig::paper_scale(seed)
            .generate()
            .matrix
            .transpose(),
        ("news", "tiny" | "small") => NewsConfig::small(seed).generate().matrix.transpose(),
        ("news", "paper") => NewsConfig::paper_scale(seed).generate().matrix.transpose(),
        ("synthetic", "tiny") => SyntheticConfig::small(2_000, seed)
            .generate()
            .matrix
            .transpose(),
        ("synthetic", "small") => SyntheticConfig::small(10_000, seed)
            .generate()
            .matrix
            .transpose(),
        ("synthetic", "paper") => SyntheticConfig::paper(100_000, seed)
            .generate()
            .matrix
            .transpose(),
        ("cf", _) => crate::datagen::CfConfig::small(seed)
            .generate()
            .matrix
            .transpose(),
        ("basket", "tiny") => crate::datagen::BasketConfig::t10_i4(2_000, seed)
            .generate()
            .matrix
            .transpose(),
        ("basket", "small" | "paper") => crate::datagen::BasketConfig::t10_i4(100_000, seed)
            .generate()
            .matrix
            .transpose(),
        (k, s) => {
            return Err(CliError::Usage(format!(
                "unknown --kind {k:?} / --scale {s:?}"
            )))
        }
    };
    io::write_binary(&rows, &out).map_err(io_err)?;
    Ok(format!(
        "wrote {} rows x {} cols ({} ones) to {}\n",
        rows.n_rows(),
        rows.n_cols(),
        rows.nnz(),
        out.display()
    ))
}

fn open_input(args: &Args) -> Result<(PathBuf, FileRowStream), CliError> {
    let input = PathBuf::from(args.require("input")?);
    let stream = FileRowStream::open(&input).map_err(io_err)?;
    Ok((input, stream))
}

fn cmd_info(args: &Args) -> Result<String, CliError> {
    let (input, mut stream) = open_input(args)?;
    let mut nnz = 0usize;
    let mut max_row = 0usize;
    let mut buf = Vec::new();
    while stream.read_row(&mut buf).map_err(io_err)?.is_some() {
        nnz += buf.len();
        max_row = max_row.max(buf.len());
    }
    Ok(format!(
        "{}: {} rows x {} cols, {} ones, avg {:.2} / max {} ones per row\n",
        input.display(),
        stream.n_rows(),
        stream.n_cols(),
        nnz,
        nnz as f64 / f64::from(stream.n_rows().max(1)),
        max_row
    ))
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let (_, mut stream) = open_input(args)?;
    let bins: usize = args.parse_num("bins", 20)?;
    let matrix = RowMajorMatrix::from_stream(&mut stream, usize::MAX).map_err(io_err)?;
    let csc = matrix.transpose();
    let density = crate::matrix::stats::density_stats(&csc);
    let hist = crate::matrix::stats::similarity_histogram(&csc, bins);
    let mut out = format!(
        "densities: min {:.6}, mean {:.6}, max {:.6}, empty columns {}\n",
        density.min, density.mean, density.max, density.empty_columns
    );
    out.push_str("similarity histogram (co-occurring pairs only):\n");
    for (b, &count) in hist.iter().enumerate() {
        if count > 0 {
            out.push_str(&format!(
                "  [{:.2}, {:.2}) {count}\n",
                b as f64 / bins as f64,
                (b + 1) as f64 / bins as f64
            ));
        }
    }
    Ok(out)
}

/// Parses `--threads` (0 = auto-size from the machine); `None` when the
/// option is absent, i.e. the sequential streaming path.
fn parse_threads(args: &Args) -> Result<Option<usize>, CliError> {
    match args.get("threads") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("bad --threads: {v:?}"))),
    }
}

fn cmd_sketch(args: &Args) -> Result<String, CliError> {
    // Validate before touching the filesystem (exit-code-2 contract).
    let k: usize = args.parse_num("k", 100)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let threads = parse_threads(args)?;
    let scheme_word = args.require("scheme")?.to_owned();
    let out = PathBuf::from(args.require("out")?);
    let (_, stream) = open_input(args)?;
    let mut scan = crate::matrix::ScanCounter::new(stream);
    // With --threads the single streaming pass materializes the matrix and
    // the pool computes signatures from memory; the scan counter still sees
    // exactly one pass either way.
    let pool = threads.map(crate::par::ThreadPool::new);
    let started = std::time::Instant::now();
    let (mut output, scheme, signature_bytes) = match scheme_word.as_str() {
        "mh" => {
            let sigs = match &pool {
                Some(pool) => {
                    let matrix =
                        RowMajorMatrix::from_stream(&mut scan, usize::MAX).map_err(io_err)?;
                    crate::minhash::compute_signatures_pool(&matrix, k, seed, pool)
                }
                None => crate::minhash::compute_signatures(&mut scan, k, seed).map_err(io_err)?,
            };
            crate::minhash::persist::write_signatures(&sigs, &out).map_err(io_err)?;
            let output = format!("wrote MH sketch (k={k}) to {}\n", out.display());
            (output, Scheme::Mh { k, delta: 0.0 }, sigs.heap_bytes())
        }
        "kmh" => {
            let sigs = match &pool {
                Some(pool) => {
                    let matrix =
                        RowMajorMatrix::from_stream(&mut scan, usize::MAX).map_err(io_err)?;
                    crate::minhash::compute_bottom_k_pool(&matrix, k, seed, pool)
                }
                None => crate::minhash::compute_bottom_k(&mut scan, k, seed).map_err(io_err)?,
            };
            crate::minhash::persist::write_bottom_k(&sigs, &out).map_err(io_err)?;
            let output = format!("wrote K-MH sketch (k={k}) to {}\n", out.display());
            (output, Scheme::Kmh { k, delta: 0.0 }, sigs.heap_bytes())
        }
        other => {
            return Err(CliError::Usage(format!(
                "sketch scheme must be mh|kmh, got {other:?}"
            )))
        }
    };
    if let Some(path) = args.get("metrics-json") {
        // Sketching is phase 1 only: the threshold is not involved, so the
        // config records the neutral s* = 1.0.
        let timings = crate::core::PhaseTimings {
            signatures: started.elapsed(),
            ..Default::default()
        };
        let metrics = crate::core::MiningMetrics {
            scheme: scheme.name().to_owned(),
            threads: pool.as_ref().map_or(1, |p| p.threads() as u64),
            signature_pass: scan
                .pass_scans()
                .first()
                .copied()
                .unwrap_or_default()
                .into(),
            signature_bytes,
            ..Default::default()
        };
        let config = PipelineConfig::new(scheme, 1.0, seed);
        let doc = crate::core::MetricsDocument::new(config, timings, metrics);
        write_metrics_json(Path::new(path), &doc).map_err(io_err)?;
        output.push_str(&format!("wrote {path}\n"));
    }
    Ok(output)
}

fn scheme_from_args(args: &Args) -> Result<Scheme, CliError> {
    let k: usize = args.parse_num("k", 100)?;
    let delta: f64 = args.parse_num("delta", 0.2)?;
    let r: usize = args.parse_num("r", 5)?;
    let l: usize = args.parse_num("l", 20)?;
    Ok(match args.require("scheme")? {
        "mh" => Scheme::Mh { k, delta },
        "kmh" => Scheme::Kmh { k, delta },
        "mlsh" => Scheme::MLsh {
            k: k.max(r * l),
            r,
            l,
            sampled: false,
        },
        "hlsh" => Scheme::HLsh {
            r,
            l,
            t: 4,
            max_levels: 16,
        },
        other => Err(CliError::Usage(format!("unknown --scheme {other:?}")))?,
    })
}

/// Classifies a pipeline failure: a cooperative cancellation becomes the
/// exit-code-3 `Interrupted` family (with a resume hint), everything else
/// stays a data error.
fn mine_err(e: crate::matrix::MatrixError, resumable: bool) -> CliError {
    if e.is_canceled() {
        let hint = if resumable {
            "resumable state flushed; rerun the same command to continue"
        } else {
            "rerun with --checkpoint-dir to make interrupted runs resumable"
        };
        CliError::Interrupted(format!("{e} ({hint})"))
    } else {
        CliError::Data(e.to_string())
    }
}

/// Runs `mine`'s pipeline over a stream, with or without a checkpoint dir
/// and a memory budget.
fn mine_run<S: RowStream>(
    pipeline: Pipeline,
    stream: &mut S,
    checkpoint: Option<&CheckpointSpec>,
    budget: Option<&MemoryBudget>,
) -> Result<crate::core::MiningResult, CliError> {
    match (budget, checkpoint) {
        (Some(b), ck) => pipeline.run_sharded(stream, b, ck),
        (None, Some(spec)) => pipeline.run_resumable(stream, spec),
        (None, None) => pipeline.run(stream),
    }
    .map_err(|e| mine_err(e, checkpoint.is_some()))
}

/// Parses `--deadline-secs` into a wall-clock budget. `0` is legal (cancel
/// at the first safe point — useful for exercising the shutdown path
/// deterministically); negative, NaN, and infinite values are usage errors.
fn parse_deadline(args: &Args) -> Result<Option<std::time::Duration>, CliError> {
    let Some(v) = args.get("deadline-secs") else {
        return Ok(None);
    };
    let secs: f64 = v
        .parse()
        .map_err(|_| CliError::Usage(format!("bad --deadline-secs: {v:?}")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(CliError::Usage(format!("bad --deadline-secs: {v:?}")));
    }
    Ok(Some(std::time::Duration::from_secs_f64(secs)))
}

/// Parses `--memory-budget` into a [`MemoryBudget`] spilling into the
/// checkpoint directory when one is given (so an interrupted run's spill
/// files survive for resume), or into a per-process temp directory
/// otherwise.
fn parse_memory_budget(
    args: &Args,
    checkpoint: Option<&CheckpointSpec>,
) -> Result<Option<MemoryBudget>, CliError> {
    let Some(v) = args.get("memory-budget") else {
        return Ok(None);
    };
    let bytes: usize = v
        .parse()
        .map_err(|_| CliError::Usage(format!("bad --memory-budget: {v:?}")))?;
    if bytes < MemoryBudget::MIN_BYTES {
        return Err(CliError::Usage(format!(
            "--memory-budget must be at least {} bytes",
            MemoryBudget::MIN_BYTES
        )));
    }
    let spill_dir = match checkpoint {
        Some(spec) => spec.dir.clone(),
        None => std::env::temp_dir().join(format!("sfa-spill-{}", std::process::id())),
    };
    Ok(Some(MemoryBudget::new(bytes, spill_dir)))
}

fn cmd_mine(args: &Args) -> Result<String, CliError> {
    // Validate the whole command line before touching the filesystem, so
    // usage mistakes are reported as such even when the input is also bad.
    let s_star: f64 = args.parse_num("threshold", 0.7)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let max_retries: u32 = args.parse_num("max-retries", 0)?;
    let every_rows: u64 = args.parse_num("checkpoint-every", 1024)?;
    if every_rows == 0 {
        return Err(CliError::Usage("--checkpoint-every must be > 0".into()));
    }
    let checkpoint = args
        .get("checkpoint-dir")
        .map(|dir| CheckpointSpec::new(dir).with_every_rows(every_rows));
    let threads = parse_threads(args)?;
    let budget = parse_memory_budget(args, checkpoint.as_ref())?;
    let deadline = parse_deadline(args)?;
    let sig_cache = args.get("signature-cache");
    let scheme = scheme_from_args(args)?;
    let config = PipelineConfig::new(scheme, s_star, seed);
    let (_, mut stream) = open_input(args)?;
    // Trap SIGINT/SIGTERM for the duration of the mining run so a shutdown
    // request flushes a resumable checkpoint instead of killing the pass.
    crate::core::install_signal_handlers();
    let mut cancel = CancelToken::new().watching_signals();
    if let Some(budget) = deadline {
        cancel = cancel.with_deadline(budget);
    }
    let mut pipeline = Pipeline::new(config).with_cancel(cancel);
    if let Some(dir) = sig_cache {
        pipeline = pipeline.with_signature_cache(dir);
    }
    if let Some(n) = threads {
        pipeline = pipeline.with_threads(n);
    }
    let result = if max_retries > 0 {
        let mut retrying = RetryingRowStream::new(stream, max_retries);
        let mut result = mine_run(
            pipeline,
            &mut retrying,
            checkpoint.as_ref(),
            budget.as_ref(),
        )?;
        let stats = retrying.stats();
        result.metrics.recovery.transient_errors_retried += stats.retries;
        result.metrics.recovery.rows_refetched += stats.rows_refetched;
        result
    } else {
        mine_run(pipeline, &mut stream, checkpoint.as_ref(), budget.as_ref())?
    };
    // An ephemeral spill directory (no --checkpoint-dir) has served its
    // purpose once the run completes; run_sharded already removed the
    // spill files themselves.
    if let (Some(b), None) = (&budget, &checkpoint) {
        let _ = std::fs::remove_dir(&b.spill_dir);
    }
    let pairs = result.similar_pairs();
    let mut out = format!(
        "{}: {} candidates, {} pairs at S >= {s_star} ({})\n",
        scheme.name(),
        result.candidates_generated(),
        pairs.len(),
        result.timings
    );
    for p in &pairs {
        out.push_str(&format!(
            "{}\t{}\t{:.4}\t{}\t{}\n",
            p.i, p.j, p.similarity, p.intersection, p.union
        ));
    }
    if let Some(csv) = args.get("csv") {
        write_pairs_csv(Path::new(csv), &pairs).map_err(io_err)?;
        out.push_str(&format!("wrote {csv}\n"));
    }
    if let Some(path) = args.get("metrics-json") {
        write_metrics_json(Path::new(path), &result.metrics_document()).map_err(io_err)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// Writes the metrics document atomically (tmp + fsync + rename) so a
/// crash mid-write can never leave a truncated JSON file where a consumer
/// expects a complete one.
fn write_metrics_json(
    path: &Path,
    doc: &crate::core::MetricsDocument,
) -> Result<(), crate::matrix::MatrixError> {
    crate::core::durable::write_atomic(path, crate::json::to_string_pretty(doc).as_bytes())
        .map(|_| ())
}

fn cmd_optimize(args: &Args) -> Result<String, CliError> {
    let (_, mut stream) = open_input(args)?;
    let s_star: f64 = args.parse_num("threshold", 0.7)?;
    let max_fn: f64 = args.parse_num("max-fn", 5.0)?;
    let max_fp: f64 = args.parse_num("max-fp", 10_000.0)?;
    let sample: f64 = args.parse_num("sample", 0.2)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let matrix = RowMajorMatrix::from_stream(&mut stream, usize::MAX).map_err(io_err)?;
    let csc = matrix.transpose();
    let distr = crate::lsh::SimilarityDistribution::estimate_by_sampling(&csc, sample, 20, seed);
    match crate::lsh::optimize_params(&distr, s_star, max_fn, max_fp, 30, 1 << 14) {
        Some(p) => Ok(format!(
            "optimal M-LSH parameters at s* = {s_star}: r = {}, l = {} (k = {} min-hashes)\n\
             expected false negatives ≤ {:.1}, expected false positives ≤ {:.1}\n\
             run: sfa mine --input … --scheme mlsh --r {} --l {} --k {} --threshold {s_star}\n",
            p.r,
            p.l,
            p.k(),
            distr.expected_false_negatives(s_star, p.r, p.l),
            distr.expected_false_positives(s_star, p.r, p.l),
            p.r,
            p.l,
            p.k(),
        )),
        None => Err(CliError::Data(format!(
            "no (r, l) within the search box satisfies FN ≤ {max_fn} and FP ≤ {max_fp}"
        ))),
    }
}

fn cmd_rules(args: &Args) -> Result<String, CliError> {
    let (_, mut stream) = open_input(args)?;
    let confidence: f64 = args.parse_num("confidence", 0.9)?;
    let k: usize = args.parse_num("k", 200)?;
    let delta: f64 = args.parse_num("delta", 0.2)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let rules =
        crate::core::confidence::mine_confidence_rules(&mut stream, k, seed, confidence, delta)
            .map_err(io_err)?;
    let mut out = format!(
        "{} high-confidence rules (conf >= {confidence}):\n",
        rules.len()
    );
    for r in &rules {
        out.push_str(&format!(
            "{} => {}\tconf {:.4}\tsupport {}\n",
            r.antecedent, r.consequent, r.confidence, r.support
        ));
    }
    Ok(out)
}

fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let input = PathBuf::from(args.require("input")?);
    let s_star: f64 = args.parse_num("threshold", 0.7)?;
    let k: usize = args.parse_num("k", 100)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let schemes = [
        Scheme::Mh { k, delta: 0.2 },
        Scheme::Kmh { k, delta: 0.2 },
        Scheme::MLsh {
            k,
            r: 5,
            l: k / 5,
            sampled: false,
        },
        Scheme::HLsh {
            r: 16,
            l: 4,
            t: 4,
            max_levels: 16,
        },
    ];
    let mut out = format!(
        "{:<8} {:>10} {:>10} {:>8} {:>10}\n",
        "scheme", "time(s)", "candidates", "pairs", "cand. FPs"
    );
    for scheme in schemes {
        let mut stream = FileRowStream::open(&input).map_err(io_err)?;
        let config = PipelineConfig::new(scheme, s_star, seed);
        let result = Pipeline::new(config).run(&mut stream).map_err(io_err)?;
        out.push_str(&format!(
            "{:<8} {:>10.3} {:>10} {:>8} {:>10}\n",
            scheme.name(),
            result.timings.total().as_secs_f64(),
            result.candidates_generated(),
            result.similar_pairs().len(),
            result.false_positive_candidates(),
        ));
    }
    Ok(out)
}

/// Writes the pair listing atomically (tmp + fsync + rename); the result
/// set is bounded by pair-space, so staging it in memory is cheap relative
/// to the mining run that produced it.
fn write_pairs_csv(
    path: &Path,
    pairs: &[crate::core::VerifiedPair],
) -> Result<(), crate::matrix::MatrixError> {
    use std::fmt::Write as _;
    let mut text = String::from("i,j,similarity,intersection,union\n");
    for p in pairs {
        let _ = writeln!(
            text,
            "{},{},{:.6},{},{}",
            p.i, p.j, p.similarity, p.intersection, p.union
        );
    }
    crate::core::durable::write_atomic(path, text.as_bytes()).map(|_| ())
}

/// `sfa serve`: load and mine the input, then answer similarity queries
/// over TCP until a shutdown signal or `--deadline-secs` fires, drain, and
/// exit through the `Interrupted` (exit-code-3) family — the only way a
/// server run ends is a shutdown request, so the shutdown contract applies.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    // Validate the whole command line before binding (exit-code-2 contract).
    let s_star: f64 = args.parse_num("threshold", 0.5)?;
    let k: usize = args.parse_num("k", 128)?;
    let delta: f64 = args.parse_num("delta", 0.2)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let threads: usize = args.parse_num("threads", 0)?;
    let queue_depth: usize = args.parse_num("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err(CliError::Usage("--queue-depth must be > 0".into()));
    }
    let request_timeout_ms: u64 = args.parse_num("request-timeout-ms", 2_000)?;
    if request_timeout_ms == 0 {
        return Err(CliError::Usage("--request-timeout-ms must be > 0".into()));
    }
    let drain_secs: f64 = args.parse_num("drain-secs", 5.0)?;
    if !drain_secs.is_finite() || drain_secs < 0.0 {
        return Err(CliError::Usage(format!("bad --drain-secs: {drain_secs}")));
    }
    if !(0.0..=1.0).contains(&s_star) {
        return Err(CliError::Usage(format!("bad --threshold: {s_star}")));
    }
    let deadline = parse_deadline(args)?;
    let config = crate::serve::ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:0").to_owned(),
        threads,
        queue_depth,
        request_timeout: std::time::Duration::from_millis(request_timeout_ms),
        drain: std::time::Duration::from_secs_f64(drain_secs),
        s_star,
        delta,
        k,
        seed,
        state_dir: args.get("state-dir").map(PathBuf::from),
        // Test hook: linger after the drain so a second signal has a
        // deterministic window to land in (exercises forced shutdown).
        drain_hold: std::env::var("SFA_DRAIN_HOLD_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map_or(std::time::Duration::ZERO, std::time::Duration::from_millis),
    };
    let (_, mut stream) = open_input(args)?;
    let matrix = RowMajorMatrix::from_stream(&mut stream, usize::MAX).map_err(io_err)?;
    // Trap shutdown signals before announcing readiness: anyone reading
    // the bound address may signal immediately, and that must already be
    // a graceful drain, not a default-disposition kill.
    crate::core::install_signal_handlers();
    let mut cancel = CancelToken::new().watching_signals();
    if let Some(budget) = deadline {
        cancel = cancel.with_deadline(budget);
    }
    let server = crate::serve::Server::bind(config, &matrix).map_err(io_err)?;
    // The server keeps its own copy of the rows.
    drop(matrix);
    let bound = server.local_addr().map_err(io_err)?;
    // The harness reads the bound address (port 0 support) before sending
    // traffic, so it must hit stdout before the blocking run.
    {
        use std::io::Write as _;
        println!("listening on {bound}");
        let _ = std::io::stdout().flush();
    }
    let serving = server.run(&cancel).map_err(io_err)?;
    if let Some(path) = args.get("metrics-json") {
        let config = PipelineConfig::new(Scheme::Mh { k, delta }, s_star, seed);
        let metrics = crate::core::MiningMetrics {
            scheme: "serve".to_owned(),
            threads: threads as u64,
            serving: Some(serving),
            ..Default::default()
        };
        let doc = crate::core::MetricsDocument::new(
            config,
            crate::core::PhaseTimings::default(),
            metrics,
        );
        write_metrics_json(Path::new(path), &doc).map_err(io_err)?;
    }
    Err(CliError::Interrupted(format!(
        "serve drained after shutdown: answered {} / shed {} / timed out {} \
         of {} accepted, {} rows ingested, over {:.1}s",
        serving.answered,
        serving.shed,
        serving.timed_out,
        serving.accepted,
        serving.ingested_rows,
        serving.uptime_secs
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sfa_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Parses the JSON document at `file`.
    fn read_json(file: &Path) -> Json {
        Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap()
    }

    /// The value at the dotted key `path` of `doc`.
    fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
        path.split('.').fold(doc, |value, key| {
            value.get(key).unwrap_or_else(|| panic!("no `{path}`"))
        })
    }

    /// The unsigned integer at `path` of `doc`.
    fn u64_at(doc: &Json, path: &str) -> u64 {
        at(doc, path).as_u64().unwrap()
    }

    #[test]
    fn parse_options() {
        let a = Args::parse(&strs(&["mine", "--input", "x.sfab", "--k", "50"])).unwrap();
        assert_eq!(a.command, "mine");
        assert_eq!(a.get("input"), Some("x.sfab"));
        assert_eq!(a.get_or("seed", "42"), "42");
        assert!(Args::parse(&strs(&[])).is_err());
        assert!(Args::parse(&strs(&["mine", "oops"])).is_err());
        assert!(Args::parse(&strs(&["mine", "--k"])).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch(&strs(&["help"])).unwrap();
        assert!(out.contains("sfa mine"));
        assert!(dispatch(&strs(&["nonsense"])).is_err());
    }

    #[test]
    fn gen_info_stats_roundtrip() {
        let table = tmp("weblog_tiny.sfab");
        let out = dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("wrote 2000 rows"));

        let info = dispatch(&strs(&["info", "--input", table.to_str().unwrap()])).unwrap();
        assert!(info.contains("2000 rows"));

        let stats = dispatch(&strs(&[
            "stats",
            "--input",
            table.to_str().unwrap(),
            "--bins",
            "10",
        ]))
        .unwrap();
        assert!(stats.contains("similarity histogram"));
        // The mean column density is nnz / (rows × cols), read off `info`'s
        // "R rows x C cols, N ones".
        let number_before = |text: &str, unit: &str| -> f64 {
            let head = &text[..text.find(unit).unwrap()];
            head.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let (rows, cols, ones) = (
            number_before(&info, " rows"),
            number_before(&info, " cols"),
            number_before(&info, " ones"),
        );
        let mean = number_before(&stats, ", max");
        assert!(
            (mean - ones / (rows * cols)).abs() < 1e-6,
            "mean {mean} for {ones} ones in {rows} x {cols}: {stats}"
        );
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn mine_finds_pairs_and_writes_csv() {
        let table = tmp("mine_me.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let csv = tmp("mined.csv");
        let out = dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "kmh",
            "--threshold",
            "0.8",
            "--k",
            "40",
            "--csv",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("pairs at S >= 0.8"));
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("i,j,similarity"));
        assert!(csv_text.lines().count() > 1, "no pairs mined");
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn mine_writes_metrics_json() {
        let table = tmp("mine_metrics.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let json_path = tmp("mine_metrics.json");
        dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.8",
            "--k",
            "40",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        let doc = read_json(&json_path);
        assert_eq!(
            u64_at(&doc, "schema_version"),
            u64::from(crate::core::METRICS_SCHEMA_VERSION)
        );
        assert_eq!(at(&doc, "metrics.scheme").as_str(), Some("MH"));
        assert_eq!(u64_at(&doc, "metrics.signature_pass.rows_scanned"), 2000);
        assert_eq!(u64_at(&doc, "metrics.verify_pass.rows_scanned"), 2000);
        assert!(u64_at(&doc, "metrics.signature_bytes") > 0);
        assert!(!at(&doc, "metrics.candidate_stages")
            .as_arr()
            .unwrap()
            .is_empty());
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn mine_with_signature_cache_hits_on_second_run_with_identical_output() {
        let table = tmp("mine_sigcache.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let cache = tmp("mine_sigcache_dir");
        std::fs::remove_dir_all(&cache).ok();
        let run = |json_path: &Path| {
            dispatch(&strs(&[
                "mine",
                "--input",
                table.to_str().unwrap(),
                "--scheme",
                "kmh",
                "--threshold",
                "0.8",
                "--k",
                "16",
                "--signature-cache",
                cache.to_str().unwrap(),
                "--metrics-json",
                json_path.to_str().unwrap(),
            ]))
            .unwrap()
        };
        let json1 = tmp("mine_sigcache1.json");
        let json2 = tmp("mine_sigcache2.json");
        let out1 = run(&json1);
        let out2 = run(&json2);
        // Identical mined pairs (the header embeds wall-clock timings and
        // the trailer the metrics pathname, so compare the pair lines).
        let pairs = |out: &str| {
            out.lines()
                .filter(|l| l.contains('\t'))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert!(!pairs(&out1).is_empty(), "no pairs mined");
        assert_eq!(pairs(&out1), pairs(&out2), "cache hit changed the result");
        let (doc1, doc2) = (read_json(&json1), read_json(&json2));
        let flag = |doc, key: &str| at(doc, &format!("metrics.phase1.{key}")).as_bool();
        assert_eq!(flag(&doc1, "cache_hit"), Some(false), "first run populates");
        assert_eq!(
            flag(&doc1, "cache_stored"),
            Some(true),
            "first run populates"
        );
        assert_eq!(flag(&doc2, "cache_hit"), Some(true), "second run hits");
        assert_eq!(flag(&doc2, "cache_stored"), Some(false), "second run hits");
        assert!(!at(&doc1, "metrics.phase1.dispatch_arm")
            .as_str()
            .unwrap()
            .is_empty());
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json1).ok();
        std::fs::remove_file(&json2).ok();
        std::fs::remove_dir_all(&cache).ok();
    }

    #[test]
    fn sketch_writes_metrics_json() {
        let table = tmp("sketch_metrics.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let sk = tmp("sketch_metrics.sfmh");
        let json_path = tmp("sketch_metrics.json");
        dispatch(&strs(&[
            "sketch",
            "--input",
            table.to_str().unwrap(),
            "--out",
            sk.to_str().unwrap(),
            "--scheme",
            "mh",
            "--k",
            "16",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        let doc = read_json(&json_path);
        assert_eq!(at(&doc, "metrics.scheme").as_str(), Some("MH"));
        assert_eq!(u64_at(&doc, "metrics.signature_pass.rows_scanned"), 2000);
        assert!(u64_at(&doc, "metrics.signature_bytes") > 0);
        // Phase 1 only: nothing verified, no candidate stages.
        assert_eq!(u64_at(&doc, "metrics.verification.candidates_checked"), 0);
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&sk).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn sketch_roundtrip_via_cli() {
        let table = tmp("sketchable.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let sk = tmp("sketch.sfkm");
        let out = dispatch(&strs(&[
            "sketch",
            "--input",
            table.to_str().unwrap(),
            "--out",
            sk.to_str().unwrap(),
            "--scheme",
            "kmh",
            "--k",
            "16",
        ]))
        .unwrap();
        assert!(out.contains("K-MH sketch"));
        let loaded = crate::minhash::persist::read_bottom_k(&sk).unwrap();
        assert_eq!(loaded.k(), 16);
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&sk).ok();
    }

    #[test]
    fn optimize_suggests_parameters() {
        let table = tmp("optimizable.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let out = dispatch(&strs(&[
            "optimize",
            "--input",
            table.to_str().unwrap(),
            "--threshold",
            "0.7",
            "--sample",
            "0.5",
        ]))
        .unwrap();
        assert!(out.contains("optimal M-LSH parameters"), "{out}");
        assert!(out.contains("r ="));
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn rules_finds_high_confidence_implications() {
        let table = tmp("rules.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let out = dispatch(&strs(&[
            "rules",
            "--input",
            table.to_str().unwrap(),
            "--confidence",
            "0.9",
            "--k",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("high-confidence rules"));
        assert!(out.lines().count() > 1, "no rules found: {out}");
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn compare_runs_all_schemes() {
        let table = tmp("compare.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let out = dispatch(&strs(&[
            "compare",
            "--input",
            table.to_str().unwrap(),
            "--threshold",
            "0.8",
            "--k",
            "60",
        ]))
        .unwrap();
        for name in ["MH", "K-MH", "M-LSH", "H-LSH"] {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn gen_supports_all_kinds() {
        for kind in ["cf", "basket"] {
            let table = tmp(&format!("kind_{kind}.sfab"));
            let out = dispatch(&strs(&[
                "gen",
                "--kind",
                kind,
                "--out",
                table.to_str().unwrap(),
                "--scale",
                "tiny",
            ]))
            .unwrap();
            assert!(out.contains("wrote"), "{kind}: {out}");
            std::fs::remove_file(&table).ok();
        }
    }

    #[test]
    fn mine_rejects_unknown_scheme() {
        let table = tmp("reject.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let err = dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "quantum",
        ]))
        .unwrap_err();
        assert!(err.message().contains("quantum"));
        assert_eq!(err.exit_code(), 2, "bad scheme is a usage error");
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn errors_are_classified_for_exit_codes() {
        // Usage family → exit 2.
        for bad in [
            vec!["frobnicate"],
            vec!["mine"],
            vec!["mine", "--input", "x.sfab", "--scheme", "mh", "--k", "NaN"],
            vec![
                "gen", "--kind", "weblog", "--out", "x.sfab", "--scale", "galactic",
            ],
        ] {
            let err = dispatch(&strs(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} → {err:?}");
        }
        // Data family → exit 1: missing and corrupt inputs.
        let missing = dispatch(&strs(&[
            "mine",
            "--input",
            "/nonexistent/no.sfab",
            "--scheme",
            "mh",
        ]))
        .unwrap_err();
        assert_eq!(missing.exit_code(), 1, "{missing:?}");

        let garbage = tmp("garbage.sfab");
        std::fs::write(&garbage, b"not a matrix at all").unwrap();
        let err = dispatch(&strs(&[
            "mine",
            "--input",
            garbage.to_str().unwrap(),
            "--scheme",
            "mh",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err:?}");
        std::fs::remove_file(&garbage).ok();
    }

    #[test]
    fn mine_with_threads_matches_sequential_mine() {
        let table = tmp("par_mine.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let base = &[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "kmh",
            "--threshold",
            "0.8",
            "--k",
            "40",
        ];
        let sequential = dispatch(&strs(base)).unwrap();
        let seq_pairs: Vec<&str> = sequential.lines().skip(1).collect();
        assert!(!seq_pairs.is_empty(), "no pairs mined");
        for threads in ["1", "3", "0"] {
            let mut argv = base.to_vec();
            argv.extend(["--threads", threads]);
            let parallel = dispatch(&strs(&argv)).unwrap();
            let par_pairs: Vec<&str> = parallel.lines().skip(1).collect();
            assert_eq!(par_pairs, seq_pairs, "--threads {threads} diverged");
        }
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn kernel_flag_rejects_bad_values_before_io() {
        // The kernel arm is the CPU's, so --kernel is an unknown option
        // whatever its value: a usage error (exit 2) detected before the
        // (nonexistent) input is opened.
        for kernel in ["scalar", "simd", "auto", "avx512"] {
            let err = dispatch(&strs(&[
                "mine",
                "--input",
                "no-such-file.sfab",
                "--scheme",
                "mh",
                "--kernel",
                kernel,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--kernel {kernel}: {err:?}");
            assert!(err.message().contains("--kernel"), "{err:?}");
        }
    }

    #[test]
    fn misspelled_options_are_usage_errors_before_io() {
        // Every subcommand, each with one option its USAGE line does not
        // name; the input does not exist and `gen` must not write its
        // output, so an exit 2 here came before any filesystem access.
        let out = tmp("misspelled_gen.sfab");
        std::fs::remove_file(&out).ok();
        let out = out.to_str().unwrap();
        let input = "no-such-file.sfab";
        for argv in [
            vec!["gen", "--kind", "weblog", "--out", out, "--sede", "3"],
            vec!["info", "--input", input, "--bins", "4"],
            vec!["stats", "--input", input, "--bin", "4"],
            vec![
                "sketch", "--input", input, "--out", out, "--scheme", "mh", "--thread", "2",
            ],
            vec![
                "mine",
                "--input",
                input,
                "--scheme",
                "mh",
                "--thresold",
                "0.99",
                "--memory-budjet",
                "4096",
            ],
            vec!["optimize", "--input", input, "--max-fns", "5"],
            vec!["rules", "--input", input, "--confidense", "0.9"],
            vec!["compare", "--input", input, "--r", "5"],
            vec!["serve", "--input", input, "--adress", "127.0.0.1:0"],
            vec!["help", "--verbose", "1"],
        ] {
            let err = dispatch(&strs(&argv)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{argv:?} → {err:?}");
            assert!(
                err.message().contains("unknown option --"),
                "{argv:?} → {err:?}"
            );
        }
        assert!(!Path::new(out).exists(), "gen wrote its output");
    }

    #[test]
    fn every_usage_option_is_accepted_and_no_other() {
        // USAGE lists each subcommand as `  sfa NAME --opt …` plus indented
        // continuation lines, up to the first blank line.
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE
            .lines()
            .skip_while(|l| *l != "USAGE:")
            .skip(1)
            .take_while(|l| !l.is_empty())
        {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"sfa") {
                words.next();
                entries.push((words.next().unwrap(), Vec::new()));
            }
            let (_, options) = entries.last_mut().expect("a subcommand line first");
            options.extend(words.filter_map(|w| {
                let name = w.split_once("--")?.1;
                Some(name.trim_end_matches(|c: char| !c.is_ascii_lowercase()))
            }));
        }
        assert_eq!(entries.len(), 10, "{entries:?}");
        for (command, mut named) in entries {
            let mut known = subcommand(command).expect("a subcommand").1.to_vec();
            named.sort_unstable();
            known.sort_unstable();
            assert_eq!(known, named, "sfa {command}");
        }
    }

    #[test]
    fn threads_flag_rejects_bad_values() {
        // All of these are usage errors (exit 2) and must be detected
        // before the (nonexistent) input is opened.
        for bad in [
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--threads",
                "NaN",
            ],
            vec![
                "sketch",
                "--input",
                "/nonexistent/no.sfab",
                "--out",
                "/nonexistent/out.sfmh",
                "--scheme",
                "mh",
                "--threads",
                "-1",
            ],
        ] {
            let err = dispatch(&strs(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn memory_budget_flag_rejects_bad_values() {
        // Usage errors (exit 2), detected before the nonexistent input is
        // opened.
        for bad in [
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--memory-budget",
                "lots",
            ],
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--memory-budget",
                "64",
            ],
        ] {
            let err = dispatch(&strs(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn mine_with_memory_budget_matches_unbudgeted_run() {
        let table = tmp("budget_mine.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let base = [
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.7",
            "--k",
            "40",
        ];
        let plain = dispatch(&strs(&base)).unwrap();
        let json_path = tmp("budget_mine.json");
        let mut budgeted_args: Vec<&str> = base.to_vec();
        let json_str = json_path.to_str().unwrap().to_owned();
        budgeted_args.extend([
            "--memory-budget",
            "1048576",
            "--metrics-json",
            json_str.as_str(),
        ]);
        let budgeted = dispatch(&strs(&budgeted_args)).unwrap();
        // Identical pair listings; only the trailing "wrote …" line differs.
        let pairs = |s: &str| {
            s.lines()
                .filter(|l| l.contains('\t'))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&budgeted), pairs(&plain));
        // The metrics document records the sharded run.
        let doc = read_json(&json_path);
        assert_eq!(u64_at(&doc, "metrics.sharding.memory_budget"), 1_048_576);
        assert!(u64_at(&doc, "metrics.sharding.shards") >= 1);
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn mine_with_memory_budget_composes_with_checkpoint_dir() {
        let table = tmp("budget_ckpt_mine.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let ckpt = tmp("budget_ckpt_dir");
        std::fs::remove_dir_all(&ckpt).ok();
        let out = dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.7",
            "--k",
            "40",
            "--memory-budget",
            "1048576",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("pairs at S >= 0.7"));
        // Completed runs leave no spill or checkpoint files behind.
        let leftovers: Vec<_> = std::fs::read_dir(&ckpt)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".sfsp") || n.ends_with(".sfcp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover state: {leftovers:?}");
        std::fs::remove_dir_all(&ckpt).ok();
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn sketch_with_threads_writes_identical_sketch() {
        let table = tmp("par_sketch.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        for scheme in ["mh", "kmh"] {
            let seq_out = tmp(&format!("par_sketch_seq.{scheme}"));
            let par_out = tmp(&format!("par_sketch_par.{scheme}"));
            dispatch(&strs(&[
                "sketch",
                "--input",
                table.to_str().unwrap(),
                "--out",
                seq_out.to_str().unwrap(),
                "--scheme",
                scheme,
                "--k",
                "16",
            ]))
            .unwrap();
            dispatch(&strs(&[
                "sketch",
                "--input",
                table.to_str().unwrap(),
                "--out",
                par_out.to_str().unwrap(),
                "--scheme",
                scheme,
                "--k",
                "16",
                "--threads",
                "3",
            ]))
            .unwrap();
            let seq_bytes = std::fs::read(&seq_out).unwrap();
            let par_bytes = std::fs::read(&par_out).unwrap();
            assert_eq!(seq_bytes, par_bytes, "{scheme} sketch diverged");
            std::fs::remove_file(&seq_out).ok();
            std::fs::remove_file(&par_out).ok();
        }
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn mine_with_threads_records_thread_count_in_metrics() {
        let table = tmp("par_mine_metrics.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let json_path = tmp("par_mine_metrics.json");
        dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.8",
            "--k",
            "40",
            "--threads",
            "2",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(u64_at(&read_json(&json_path), "metrics.threads"), 2);
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn deadline_flag_rejects_bad_values() {
        // Usage errors (exit 2), detected before the nonexistent input is
        // opened.
        for bad in [
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--deadline-secs",
                "soon",
            ],
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--deadline-secs",
                "-1",
            ],
            vec![
                "mine",
                "--input",
                "/nonexistent/no.sfab",
                "--scheme",
                "mh",
                "--deadline-secs",
                "inf",
            ],
        ] {
            let err = dispatch(&strs(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?} → {err:?}");
        }
    }

    #[test]
    fn threads_compose_with_every_formerly_rejected_flag() {
        let table = tmp("threads_compose.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let ckpt = tmp("threads_compose_ckpt");
        std::fs::remove_dir_all(&ckpt).ok();
        let base = [
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.7",
            "--k",
            "40",
        ];
        let pairs = |s: &str| s.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();
        let plain = pairs(&dispatch(&strs(&base)).unwrap());
        assert!(!plain.is_empty(), "no pairs mined");
        let ckpt_dir = ckpt.to_str().unwrap();
        for extra in [
            vec!["--memory-budget", "4096"],
            vec!["--checkpoint-dir", ckpt_dir],
            vec!["--memory-budget", "4096", "--checkpoint-dir", ckpt_dir],
            vec!["--max-retries", "2"],
            vec!["--deadline-secs", "3600"],
        ] {
            let mut argv = base.to_vec();
            argv.extend(["--threads", "2"]);
            argv.extend(&extra);
            let out = dispatch(&strs(&argv)).unwrap();
            assert_eq!(pairs(&out), plain, "--threads 2 {extra:?}");
        }
        // An expired deadline cancels a threaded run at its first safe
        // point; rerunning without it completes with the plain pairs.
        let mut expired = base.to_vec();
        expired.extend(["--threads", "2", "--deadline-secs", "0"]);
        let err = dispatch(&strs(&expired)).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err:?}");
        let mut argv = base.to_vec();
        argv.extend(["--threads", "2", "--checkpoint-dir", ckpt_dir]);
        let mut expired = argv.clone();
        expired.extend(["--deadline-secs", "0"]);
        let err = dispatch(&strs(&expired)).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err:?}");
        assert!(err.message().contains("deadline"), "{err:?}");
        assert_eq!(pairs(&dispatch(&strs(&argv)).unwrap()), plain);
        std::fs::remove_dir_all(&ckpt).ok();
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn expired_deadline_interrupts_with_exit_code_3_and_leaves_a_checkpoint() {
        let table = tmp("deadline_mine.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let ckpt = tmp("deadline_ckpt");
        std::fs::remove_dir_all(&ckpt).ok();
        let base = [
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.8",
            "--k",
            "40",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ];
        // A zero deadline is already expired: the run must stop at the
        // first safe point, flush a frontier, and classify as Interrupted.
        let mut argv = base.to_vec();
        argv.extend(["--deadline-secs", "0"]);
        let err = dispatch(&strs(&argv)).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err:?}");
        assert!(err.message().contains("deadline"), "{err:?}");
        assert!(
            ckpt.join("phase1.sfcp").exists(),
            "no checkpoint flushed before exiting"
        );
        // Rerunning without the deadline resumes and matches a clean run.
        let resumed = dispatch(&strs(&base)).unwrap();
        let clean = dispatch(&strs(&base[..base.len() - 2])).unwrap();
        let pairs = |s: &str| {
            s.lines()
                .filter(|l| l.contains('\t'))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&resumed), pairs(&clean));
        std::fs::remove_dir_all(&ckpt).ok();
        std::fs::remove_file(&table).ok();
    }

    #[test]
    fn mine_with_retries_and_checkpoints_matches_plain_mine() {
        let table = tmp("robust_mine.sfab");
        dispatch(&strs(&[
            "gen",
            "--kind",
            "weblog",
            "--out",
            table.to_str().unwrap(),
            "--scale",
            "tiny",
        ]))
        .unwrap();
        let plain = dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.8",
            "--k",
            "40",
        ]))
        .unwrap();
        let ckpt_dir = tmp("robust_mine_ckpt");
        let json_path = tmp("robust_mine.json");
        let robust = dispatch(&strs(&[
            "mine",
            "--input",
            table.to_str().unwrap(),
            "--scheme",
            "mh",
            "--threshold",
            "0.8",
            "--k",
            "40",
            "--max-retries",
            "3",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--checkpoint-every",
            "256",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Same pairs line-for-line (line 1 carries wall-clock timings and
        // the robust run appends a "wrote …" line; skip both).
        let plain_pairs: Vec<&str> = plain.lines().skip(1).collect();
        let robust_pairs: Vec<&str> = robust.lines().skip(1).take(plain_pairs.len()).collect();
        assert!(!plain_pairs.is_empty(), "no pairs mined");
        assert_eq!(robust_pairs, plain_pairs, "output diverged");
        let doc = read_json(&json_path);
        assert!(u64_at(&doc, "metrics.recovery.checkpoints_written") > 0);
        assert_eq!(u64_at(&doc, "metrics.recovery.transient_errors_retried"), 0);
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }
}
