//! # sfa-experiments — regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md §3 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_news_pairs` | Fig. 1 — similar word pairs + cluster in news data |
//! | `fig2_filter_functions` | Fig. 2 — `P_{r,l}` and `Q_{r,l,k}` curves |
//! | `fig3_similarity_distribution` | Fig. 3 — weblog similarity histogram |
//! | `fig4_apriori_comparison` | Fig. 4 — running times vs a priori |
//! | `fig5_mh` | Fig. 5 — MH S-curves and times vs `k`, `s*` |
//! | `fig6_kmh` | Fig. 6 — K-MH S-curves and times vs `k`, `s*` |
//! | `fig7_hlsh` | Fig. 7 — H-LSH quality/time vs `r`, `l` |
//! | `fig8_mlsh` | Fig. 8 — M-LSH quality/time vs `r`, `l` |
//! | `fig9_comparison` | Fig. 9 — cross-algorithm time/FP vs FN tolerance |
//! | `synthetic_sweep` | §5 — synthetic-data validation of all schemes |
//! | `confidence_rules` | §6 — high-confidence rules without support |
//! | `all_experiments` | runs everything above |
//! | `chaos-kill-loop` | [`chaos`] — crash-recovery kill-loop smoke test |
//! | `serve-loadgen` | [`loadgen`] — adversarial load against `sfa serve` |
//!
//! Each binary prints the paper-shaped rows/series and writes CSV files
//! into `results/`.

pub mod chaos;
pub mod loadgen;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use sfa_core::{Pipeline, PipelineConfig, Scheme};
use sfa_datagen::{NewsConfig, NewsData, WeblogConfig, WeblogData};
use sfa_matrix::stats::SimilarPair;
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

/// Root seed shared by all experiments so re-runs match bit-for-bit.
pub const EXPERIMENT_SEED: u64 = 20000214; // ICDE 2000 conference date

/// Where CSV outputs land: `$SFA_RESULTS` or `./results`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("SFA_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Writes a CSV file into [`results_dir`], creating the directory.
///
/// # Panics
///
/// Panics on IO failure (experiments are batch programs; failing loudly is
/// correct).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    println!("  [wrote {}]", path.display());
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The shared weblog dataset (stand-in for the Sun web log; see DESIGN.md
/// §4) at experiment scale, with its exact ground truth above `s = 0.05`.
pub struct WeblogExperiment {
    /// The generated data.
    pub data: WeblogData,
    /// Row-major copy for streaming.
    pub rows: RowMajorMatrix,
    /// All pairs with exact similarity ≥ 0.05.
    pub truth: Vec<SimilarPair>,
}

impl WeblogExperiment {
    /// Generates (≈ 20 000 clients × 1 300 URLs; a few seconds).
    #[must_use]
    pub fn load() -> Self {
        let t = Instant::now();
        let data = WeblogConfig::small(EXPERIMENT_SEED).generate();
        let rows = data.matrix.transpose();
        let truth = sfa_matrix::stats::exact_similar_pairs(&data.matrix, 0.05);
        println!(
            "[weblog: {} rows × {} cols, {} 1s, {} truth pairs ≥ 0.05; {:.1}s]",
            rows.n_rows(),
            rows.n_cols(),
            rows.nnz(),
            truth.len(),
            t.elapsed().as_secs_f64()
        );
        Self { data, rows, truth }
    }
}

/// The shared news dataset (stand-in for the Reuters articles).
pub struct NewsExperiment {
    /// The generated data.
    pub data: NewsData,
    /// Row-major copy for streaming.
    pub rows: RowMajorMatrix,
}

impl NewsExperiment {
    /// Generates (≈ 20 000 docs × 15 000 words; a few seconds).
    #[must_use]
    pub fn load() -> Self {
        let t = Instant::now();
        let data = NewsConfig::paper_scale(EXPERIMENT_SEED).generate();
        let rows = data.matrix.transpose();
        println!(
            "[news: {} docs × {} words, {} 1s; {:.1}s]",
            rows.n_rows(),
            rows.n_cols(),
            rows.nnz(),
            t.elapsed().as_secs_f64()
        );
        Self { data, rows }
    }
}

/// Runs one scheme end to end and returns its result.
#[must_use]
pub fn run_scheme(
    rows: &RowMajorMatrix,
    scheme: Scheme,
    s_star: f64,
    seed: u64,
) -> sfa_core::MiningResult {
    Pipeline::new(PipelineConfig::new(scheme, s_star, seed))
        .run(&mut MemoryRowStream::new(rows))
        .expect("in-memory stream cannot fail")
}

/// Converts a mining result's verified candidates into the `(i, j, exact)`
/// triples the quality evaluator consumes.
#[must_use]
pub fn found_triples(result: &sfa_core::MiningResult) -> Vec<(u32, u32, f64)> {
    result
        .verified
        .iter()
        .map(|p| (p.i, p.j, p.similarity))
        .collect()
}

/// Measures the false-negative rate of a result at `cutoff` against truth.
#[must_use]
pub fn fn_rate(result: &sfa_core::MiningResult, truth: &[SimilarPair], cutoff: f64) -> f64 {
    sfa_core::evaluate_quality(&found_triples(result), truth, 20, cutoff).false_negative_rate()
}

/// Renders an S-curve as a compact string (ratio per bin, `-` for empty).
#[must_use]
pub fn s_curve_cells(found: &[(u32, u32, f64)], truth: &[SimilarPair], bins: usize) -> Vec<String> {
    let q = sfa_core::evaluate_quality(found, truth, bins, 0.99);
    q.s_curve
        .iter()
        .map(|b| b.ratio().map_or_else(|| "-".into(), |r| format!("{r:.2}")))
        .collect()
}

/// One row of a parameter-sweep panel: the configuration label, phase
/// timings, quality at the cutoff, and the S-curve cells.
pub struct SweepRow {
    /// Configuration label (e.g. `k=100`).
    pub label: String,
    /// Total pipeline seconds.
    pub total_s: f64,
    /// Signature-phase seconds.
    pub signature_s: f64,
    /// Candidate-phase seconds.
    pub candidate_s: f64,
    /// Verification-phase seconds.
    pub verify_s: f64,
    /// Candidates generated.
    pub candidates: usize,
    /// False-negative rate at the sweep's cutoff.
    pub fn_rate: f64,
    /// Candidate false positives (below-cutoff candidates).
    pub false_positives: u64,
    /// S-curve ratio cells.
    pub s_curve: Vec<String>,
}

/// Runs a labeled set of `(label, scheme, s_star)` configurations over one
/// dataset, evaluating each against `truth` at its own `s_star`, printing
/// the panel and writing `<name>.csv`.
pub fn sweep_panel(
    name: &str,
    title: &str,
    rows_matrix: &RowMajorMatrix,
    truth: &[SimilarPair],
    configs: &[(String, Scheme, f64)],
    bins: usize,
) -> Vec<SweepRow> {
    let mut out = Vec::new();
    for (label, scheme, s_star) in configs {
        let result = run_scheme(rows_matrix, *scheme, *s_star, EXPERIMENT_SEED);
        let triples = found_triples(&result);
        let q = sfa_core::evaluate_quality(&triples, truth, bins, *s_star);
        out.push(SweepRow {
            label: label.clone(),
            total_s: result.timings.total().as_secs_f64(),
            signature_s: result.timings.signatures.as_secs_f64(),
            candidate_s: result.timings.candidates.as_secs_f64(),
            verify_s: result.timings.verify.as_secs_f64(),
            candidates: result.candidates_generated(),
            fn_rate: q.false_negative_rate(),
            false_positives: q.false_positives,
            s_curve: s_curve_cells(&triples, truth, bins),
        });
    }
    let mut table = Vec::new();
    let mut csv = Vec::new();
    for r in &out {
        table.push(vec![
            r.label.clone(),
            format!("{:.3}", r.total_s),
            r.candidates.to_string(),
            format!("{:.3}", r.fn_rate),
            r.false_positives.to_string(),
        ]);
        let mut row = vec![
            r.label.clone(),
            format!("{:.5}", r.total_s),
            format!("{:.5}", r.signature_s),
            format!("{:.5}", r.candidate_s),
            format!("{:.5}", r.verify_s),
            r.candidates.to_string(),
            format!("{:.5}", r.fn_rate),
            r.false_positives.to_string(),
        ];
        row.extend(r.s_curve.iter().cloned());
        csv.push(row);
    }
    print_table(
        title,
        &["config", "time(s)", "candidates", "FN rate", "FP cands"],
        &table,
    );
    let mut header: Vec<String> = [
        "config",
        "total_s",
        "signature_s",
        "candidate_s",
        "verify_s",
        "candidates",
        "fn_rate",
        "fp_candidates",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    for b in 0..bins {
        header.push(format!("scurve_bin{b}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    write_csv(&format!("{name}.csv"), &header_refs, &csv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_defaults_to_results() {
        // Without the env var set, the default applies.
        if std::env::var_os("SFA_RESULTS").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn csv_and_table_do_not_panic() {
        std::env::set_var("SFA_RESULTS", std::env::temp_dir().join("sfa_results_test"));
        write_csv(
            "unit_test.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let contents = std::fs::read_to_string(results_dir().join("unit_test.csv")).unwrap();
        assert_eq!(contents, "a,b\n1,2\n");
        print_table("t", &["x"], &[vec!["y".into()]]);
        std::env::remove_var("SFA_RESULTS");
    }

    #[test]
    fn run_scheme_smoke() {
        let rows = RowMajorMatrix::from_rows(2, vec![vec![0, 1]; 8]).unwrap();
        let r = run_scheme(&rows, Scheme::Mh { k: 16, delta: 0.2 }, 0.5, 1);
        assert_eq!(r.similar_pairs().len(), 1);
        assert_eq!(found_triples(&r).len(), r.verified.len());
    }
}
