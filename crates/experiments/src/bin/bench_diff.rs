//! Compares two `BENCH_pipeline.json` documents, ignoring machine speed.
//!
//! Every machine-dependent number the baseline emits lives under a key
//! named `"timing"` (per-run phase seconds, the 1-vs-4-thread speedup
//! sweep). This tool strips those subtrees from both documents — at any
//! depth — plus every field named `"dispatch_arm"` (the kernel arm the
//! host CPU selected, e.g. `"avx2"` vs `"scalar"`, which every
//! `metrics.phase1` block records), and compares what remains, so CI
//! fails only when deterministic counters (candidates, pairs, histograms,
//! scan volumes, container tallies) actually change.
//!
//! ```text
//! cargo run --release -p sfa-experiments --bin bench-diff -- \
//!     BENCH_pipeline.json /tmp/bench_new.json
//! ```
//!
//! Exit codes: 0 documents match, 1 they differ (or a file is
//! missing/malformed), 2 usage error.

use std::process::ExitCode;

use sfa_json::Json;

/// Removes every object field named `"timing"` or `"dispatch_arm"`,
/// recursively.
fn strip_timing(json: &mut Json) {
    match json {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| k != "timing" && k != "dispatch_arm");
            for (_, v) in fields.iter_mut() {
                strip_timing(v);
            }
        }
        Json::Arr(items) => {
            for v in items.iter_mut() {
                strip_timing(v);
            }
        }
        _ => {}
    }
}

/// Loads a file and parses it, stripping `"timing"` subtrees.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    strip_timing(&mut json);
    Ok(json)
}

/// The first line where the stripped pretty-printed forms diverge.
fn first_diff_line(a: &Json, b: &Json) -> Option<(usize, String, String)> {
    let (a, b) = (a.to_string_pretty(), b.to_string_pretty());
    let (mut la, mut lb) = (a.lines(), b.lines());
    for i in 1.. {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                return Some((
                    i,
                    x.unwrap_or("<end of document>").to_owned(),
                    y.unwrap_or("<end of document>").to_owned(),
                ))
            }
        }
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!("usage: bench-diff <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(baseline), load(current)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    match first_diff_line(&a, &b) {
        None => {
            println!("bench-diff: deterministic counters match (timing fields ignored)");
            ExitCode::SUCCESS
        }
        Some((line, left, right)) => {
            eprintln!(
                "bench-diff: deterministic counters differ at line {line} \
                 (after stripping \"timing\" fields):\n  baseline: {left}\n  current:  {right}\n\
                 If the behavior change is intended, regenerate the committed baseline with\n  \
                 cargo run --release -p sfa-experiments --bin bench-baseline"
            );
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_timing_at_every_depth() {
        let mut json =
            Json::parse(r#"{"timing": {"x": 1}, "keep": [{"timing": 3.5, "n": 2}], "n": 1}"#)
                .unwrap();
        strip_timing(&mut json);
        assert_eq!(
            json,
            Json::parse(r#"{"keep": [{"n": 2}], "n": 1}"#).unwrap()
        );
    }

    /// The baseline's `timing` object grew `oversubscribed` and a
    /// `kernels` subtree (exact ground-truth kernel seconds); both are
    /// machine-dependent and must stay invisible to the diff.
    #[test]
    fn kernel_timings_and_oversubscription_marker_are_ignored() {
        let a = Json::parse(
            r#"{"n": 7, "timing": {"host_threads": 1, "oversubscribed": true,
                "kernels": {"exact_similar_pairs": {"dispatch_s": 2.0, "speedup": 4.1}}}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"n": 7, "timing": {"host_threads": 16, "oversubscribed": false,
                "kernels": {"exact_similar_pairs": {"dispatch_s": 0.3, "speedup": 9.9}}}}"#,
        )
        .unwrap();
        let (mut sa, mut sb) = (a, b);
        strip_timing(&mut sa);
        strip_timing(&mut sb);
        assert_eq!(first_diff_line(&sa, &sb), None);
    }

    /// `--scale large` runs put their sharded-pass wall clock under
    /// `timing.sharding`; like every `timing` subtree it must be invisible
    /// to the diff, while the deterministic `metrics.sharding` counters
    /// (shard counts, spill bytes) must still be compared.
    #[test]
    fn sharding_wall_clock_is_ignored_but_shard_counters_are_not() {
        let a = Json::parse(
            r#"{"metrics": {"sharding": {"shards": 4, "spill_bytes": 968}},
                "timing": {"total_s": 9.0, "sharding": {"generation_passes_s": 7.5}}}"#,
        )
        .unwrap();
        let mut b = Json::parse(
            r#"{"metrics": {"sharding": {"shards": 4, "spill_bytes": 968}},
                "timing": {"total_s": 0.4, "sharding": {"generation_passes_s": 0.2}}}"#,
        )
        .unwrap();
        let (mut sa, mut sb) = (a.clone(), b.clone());
        strip_timing(&mut sa);
        strip_timing(&mut sb);
        assert_eq!(first_diff_line(&sa, &sb), None);

        // A changed shard count is a real behavioral difference.
        b = Json::parse(
            r#"{"metrics": {"sharding": {"shards": 8, "spill_bytes": 968}},
                "timing": {"total_s": 9.0, "sharding": {"generation_passes_s": 7.5}}}"#,
        )
        .unwrap();
        strip_timing(&mut b);
        assert!(first_diff_line(&sa, &b).is_some());
    }

    /// `metrics.kernels` mixes the machine-dependent `dispatch_arm`
    /// (whichever SIMD arm the host CPU has) with deterministic container
    /// tallies; the arm must be invisible to the diff while a moved
    /// container counter or byte total must still fail it.
    #[test]
    fn dispatch_arm_is_ignored_but_container_counters_are_not() {
        let a = Json::parse(
            r#"{"kernels": {"dispatch_arm": "avx2", "used_containers": true,
                "array_containers": 40, "container_bytes": 9000}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"kernels": {"dispatch_arm": "scalar", "used_containers": true,
                "array_containers": 40, "container_bytes": 9000}}"#,
        )
        .unwrap();
        let (mut sa, mut sb) = (a, b);
        strip_timing(&mut sa);
        strip_timing(&mut sb);
        assert_eq!(first_diff_line(&sa, &sb), None);

        // A changed container tally is a real behavioral difference.
        let mut c = Json::parse(
            r#"{"kernels": {"dispatch_arm": "avx2", "used_containers": true,
                "array_containers": 41, "container_bytes": 9000}}"#,
        )
        .unwrap();
        strip_timing(&mut c);
        assert!(first_diff_line(&sa, &c).is_some());
    }

    /// The phase-1 overhaul put signature-kernel seconds under
    /// `timing.phase1` and the serve rebuild comparison under
    /// `timing.serving.rebuild`; both (and the per-dataset
    /// `dispatch_arm`) are machine-dependent, while the deterministic
    /// `metrics.phase1` cache-provenance flags must still be compared.
    #[test]
    fn phase1_and_rebuild_timings_are_ignored_but_cache_flags_are_not() {
        let a = Json::parse(
            r#"{"metrics": {"phase1": {"dispatch_arm": "avx2", "cache_hit": false}},
                "timing": {"phase1": {"synthetic": {"dispatch_arm": "avx2",
                    "sketches": [{"sketch": "MH k=100", "scalar_s": 0.008}]}},
                "serving": {"rebuild": {"rebuild_cold_s": 0.04, "incremental_speedup": 1.9}}}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"metrics": {"phase1": {"dispatch_arm": "scalar", "cache_hit": false}},
                "timing": {"phase1": {"synthetic": {"dispatch_arm": "scalar",
                    "sketches": [{"sketch": "MH k=100", "scalar_s": 0.9}]}},
                "serving": {"rebuild": {"rebuild_cold_s": 3.0, "incremental_speedup": 1.0}}}}"#,
        )
        .unwrap();
        let (mut sa, mut sb) = (a, b);
        strip_timing(&mut sa);
        strip_timing(&mut sb);
        assert_eq!(first_diff_line(&sa, &sb), None);

        // A flipped cache-provenance flag is a real behavioral difference.
        let mut c = Json::parse(
            r#"{"metrics": {"phase1": {"dispatch_arm": "avx2", "cache_hit": true}},
                "timing": {}}"#,
        )
        .unwrap();
        strip_timing(&mut c);
        assert!(first_diff_line(&sa, &c).is_some());
    }

    #[test]
    fn diff_ignores_timing_but_catches_counters() {
        let a = Json::parse(r#"{"n": 1, "timing": {"s": 0.5}}"#).unwrap();
        let mut b = Json::parse(r#"{"n": 1, "timing": {"s": 9.0}}"#).unwrap();
        let (mut sa, mut sb) = (a.clone(), b.clone());
        strip_timing(&mut sa);
        strip_timing(&mut sb);
        assert_eq!(first_diff_line(&sa, &sb), None);

        b = Json::parse(r#"{"n": 2, "timing": {"s": 0.5}}"#).unwrap();
        strip_timing(&mut b);
        assert!(first_diff_line(&sa, &b).is_some());
    }
}
