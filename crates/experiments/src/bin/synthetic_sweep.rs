//! §5 synthetic-data validation: "we have also performed tests for the
//! synthetic data, and all algorithms behave similarly."
//!
//! Generates the paper's synthetic benchmark, runs all four schemes, and
//! checks each recovers the planted pairs across the five similarity
//! bands.
//!
//! Two scales:
//!
//! * default — 20 000 × 2 000, 4 pairs per band, mined in memory; quick
//!   enough for a laptop sanity run.
//! * `--scale paper` — the paper's §5 configuration itself: 10⁴ columns,
//!   10⁴ rows (the low end of its 10⁴–10⁶ row sweep), densities 1–5%,
//!   20 planted pairs per band. The sweep mines out-of-core through
//!   [`Pipeline::run_sharded`] under a 64 MiB budget and reports the
//!   verify-chunk count per scheme.
//!
//! [`Pipeline::run_sharded`]: sfa_core::Pipeline

use sfa_core::{MemoryBudget, MiningResult, Pipeline, PipelineConfig, Scheme};
use sfa_datagen::SyntheticConfig;
use sfa_experiments::{print_table, run_scheme, write_csv, EXPERIMENT_SEED};
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

/// Budget for the `--scale paper` sharded runs.
const PAPER_BUDGET_BYTES: usize = 64 << 20;

/// Threshold below every band, so recovery exercises all five.
const S_STAR: f64 = 0.45;

fn schemes() -> [(&'static str, Scheme); 4] {
    [
        ("MH", Scheme::Mh { k: 200, delta: 0.2 }),
        ("K-MH", Scheme::Kmh { k: 200, delta: 0.2 }),
        (
            "M-LSH",
            Scheme::MLsh {
                k: 200,
                r: 4,
                l: 50,
                sampled: false,
            },
        ),
        (
            "H-LSH",
            Scheme::HLsh {
                r: 16,
                l: 8,
                t: 4,
                max_levels: 16,
            },
        ),
    ]
}

/// Runs one scheme, sharded under the paper budget or in memory.
fn run_one(rows: &RowMajorMatrix, scheme: Scheme, budget: Option<&MemoryBudget>) -> MiningResult {
    match budget {
        Some(budget) => Pipeline::new(PipelineConfig::new(scheme, S_STAR, EXPERIMENT_SEED))
            .run_sharded(&mut MemoryRowStream::new(rows), budget, None)
            .expect("in-memory stream cannot fail"),
        None => run_scheme(rows, scheme, S_STAR, EXPERIMENT_SEED),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => false,
        ["--scale", "paper"] => true,
        _ => {
            eprintln!("usage: synthetic-sweep [--scale paper]");
            std::process::exit(2);
        }
    };

    println!("# §5 synthetic benchmark — all schemes on planted-pair data");
    let cfg = if paper {
        SyntheticConfig::paper(10_000, EXPERIMENT_SEED)
    } else {
        SyntheticConfig {
            n_rows: 20_000,
            n_cols: 2_000,
            density_range: (0.01, 0.05),
            pairs_per_band: 4,
            bands: sfa_datagen::synthetic::PAPER_BANDS.to_vec(),
            seed: EXPERIMENT_SEED,
        }
    };
    let data = cfg.generate();
    let rows = data.matrix.transpose();
    println!(
        "[synthetic: {} rows × {} cols, {} 1s, {} planted pairs{}]",
        rows.n_rows(),
        rows.n_cols(),
        rows.nnz(),
        data.planted.len(),
        if paper {
            format!("; sharded under a {PAPER_BUDGET_BYTES}-byte budget")
        } else {
            String::new()
        }
    );
    let planted: std::collections::HashSet<(u32, u32)> =
        data.planted.iter().map(|p| (p.i, p.j)).collect();

    let spill = std::env::temp_dir().join(format!("sfa-sweep-spill-{}", std::process::id()));
    let budget = paper.then(|| MemoryBudget::new(PAPER_BUDGET_BYTES, spill.clone()));

    let mut table = Vec::new();
    let mut csv = Vec::new();
    for (name, scheme) in schemes() {
        let result = run_one(&rows, scheme, budget.as_ref());
        let found: std::collections::HashSet<(u32, u32)> =
            result.similar_pairs().iter().map(|p| (p.i, p.j)).collect();
        let recovered = data
            .planted
            .iter()
            .filter(|p| found.contains(&(p.i, p.j)))
            .count();
        // Per-band recovery.
        let mut per_band = Vec::new();
        for &(lo, hi) in &sfa_datagen::synthetic::PAPER_BANDS {
            let band: Vec<_> = data
                .planted
                .iter()
                .filter(|p| p.similarity >= lo && p.similarity < hi + 0.001)
                .collect();
            let got = band.iter().filter(|p| found.contains(&(p.i, p.j))).count();
            per_band.push(format!("{got}/{}", band.len()));
        }
        let spurious = found.len() - found.iter().filter(|f| planted.contains(f)).count();
        let shards = result
            .metrics
            .sharding
            .as_ref()
            .map_or_else(|| "-".to_owned(), |s| s.shards.to_string());
        table.push(vec![
            name.to_string(),
            format!("{:.2}", result.timings.total().as_secs_f64()),
            format!("{recovered}/{}", data.planted.len()),
            per_band.join(" "),
            spurious.to_string(),
            shards.clone(),
        ]);
        csv.push(vec![
            name.to_string(),
            format!("{:.5}", result.timings.total().as_secs_f64()),
            recovered.to_string(),
            data.planted.len().to_string(),
            spurious.to_string(),
            shards,
        ]);
        assert_eq!(
            spurious, 0,
            "{name}: verification must remove all non-planted pairs"
        );
        assert!(
            recovered * 10 >= data.planted.len() * 8,
            "{name}: recovered only {recovered}/{} planted pairs",
            data.planted.len()
        );
    }
    let _ = std::fs::remove_dir(&spill);
    print_table(
        "Planted-pair recovery, s* = 0.45 (bands 85-95 … 45-55)",
        &[
            "scheme",
            "time(s)",
            "recovered",
            "per band (hi→lo)",
            "spurious",
            "shards",
        ],
        &table,
    );
    write_csv(
        if paper {
            "synthetic_sweep_paper.csv"
        } else {
            "synthetic_sweep.csv"
        },
        &[
            "scheme",
            "time_s",
            "recovered",
            "planted",
            "spurious",
            "shards",
        ],
        &csv,
    );
    println!("\nall schemes behave similarly on synthetic data — as the paper reports");
}
