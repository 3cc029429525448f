//! End-to-end fault tolerance: a mining run over a flaky, disk-backed
//! stream — transient IO errors absorbed by retry, a fatal mid-pass kill
//! recovered through checkpoint/resume — must produce output identical to
//! an undisturbed run, and account for every recovery event in the
//! metrics JSON.

use sfa::core::{CheckpointSpec, MemoryBudget, MetricsDocument, Pipeline, PipelineConfig, Scheme};
use sfa::datagen::WeblogConfig;
use sfa::json::{Json, ToJson};
use sfa::matrix::{
    io, FaultConfig, FaultyRowStream, FileRowStream, RetryingRowStream, RowStream, ScanCounter,
};

/// Rows a counted stream delivered over all its passes.
fn rows_read<S: RowStream>(counter: &ScanCounter<S>) -> u64 {
    counter.pass_scans().iter().map(|pass| pass.rows).sum()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfa_fault_tolerance_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Writes the tiny weblog workload (2000 rows) to a binary file and
/// returns its path plus the mining config used by every test here.
fn fixture(name: &str, seed: u64) -> (std::path::PathBuf, PipelineConfig) {
    let data = WeblogConfig::tiny(seed).generate();
    let rows = data.matrix.transpose();
    let path = tmp(name);
    io::write_binary(&rows, &path).unwrap();
    let config = PipelineConfig::new(Scheme::Mh { k: 40, delta: 0.2 }, 0.7, 31);
    (path, config)
}

#[test]
fn transient_faults_under_retry_leave_no_trace_but_the_metrics() {
    let (path, config) = fixture("transient.sfab", 23);

    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    // At least 1‰ of rows fault (the issue's floor); two forced faults at
    // exact positions make the assertion deterministic even under an
    // unlucky hash draw.
    let faulty = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            seed: 99,
            transient_per_mille: 5,
            transient_at_rows: vec![0, 1234],
            ..FaultConfig::default()
        },
    );
    let mut retrying = RetryingRowStream::new(faulty, 4);
    let mut result = Pipeline::new(config).run(&mut retrying).unwrap();

    assert_eq!(
        result.verified, clean.verified,
        "recovered run must report byte-identical pairs"
    );
    assert_eq!(result.column_counts, clean.column_counts);

    // Stitch the wrapper's counters into the run's metrics, exactly as the
    // CLI's --max-retries path does.
    let stats = retrying.stats();
    let injected = retrying.into_inner().transient_injected();
    assert!(
        stats.retries >= 2,
        "forced faults must have fired: {stats:?}"
    );
    assert_eq!(stats.retries, injected, "one retry per injected fault");
    result.metrics.recovery.transient_errors_retried += stats.retries;
    result.metrics.recovery.rows_refetched += stats.rows_refetched;

    // The retry counts must reach the written metrics JSON.
    let doc = MetricsDocument::new(config, result.timings, result.metrics.clone());
    let written = Json::parse(&doc.to_json().to_string_pretty()).unwrap();
    let recovery = |key: &str| {
        written
            .get("metrics")
            .and_then(|metrics| metrics.get("recovery"))
            .and_then(|recovery| recovery.get(key))
            .and_then(Json::as_u64)
    };
    assert_eq!(recovery("transient_errors_retried"), Some(stats.retries));
    assert_eq!(recovery("rows_refetched"), Some(stats.rows_refetched));
}

#[test]
fn fatal_fault_then_resume_rereads_only_the_uncheckpointed_suffix() {
    let (path, config) = fixture("resume.sfab", 29);
    let n_rows = u64::from(FileRowStream::open(&path).unwrap().n_rows());

    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    let dir = tmp("resume_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let spec = CheckpointSpec::new(dir.clone()).with_every_rows(256);

    // Attempt 1: the stream dies fatally at row 1200, after the phase-1
    // checkpoint at row 1024 has been written.
    let mut doomed = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            fatal_at_row: Some(1200),
            ..FaultConfig::default()
        },
    );
    let err = Pipeline::new(config)
        .run_resumable(&mut doomed, &spec)
        .unwrap_err();
    assert!(!err.is_transient(), "the injected kill is fatal: {err}");

    // Attempt 2: a clean rerun resumes from row 1024, so it reads only the
    // 976-row phase-1 suffix plus the full verification pass. ScanCounter
    // counts delivered reads and not skips, which is exactly the
    // "re-reads only the suffix" claim.
    let mut counter = ScanCounter::new(FileRowStream::open(&path).unwrap());
    let resumed = Pipeline::new(config)
        .run_resumable(&mut counter, &spec)
        .unwrap();
    assert_eq!(rows_read(&counter), (n_rows - 1024) + n_rows);
    assert_eq!(resumed.metrics.recovery.resumed_from_row, 1024);
    assert_eq!(
        resumed.verified, clean.verified,
        "resume must not change output"
    );
    assert_eq!(resumed.column_counts, clean.column_counts);

    // Success clears the checkpoints: nothing left to resume from.
    assert!(!spec.dir.join("phase1.sfcp").exists());
    assert!(!spec.dir.join("phase3.sfcp").exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_run_survives_kills_in_both_streaming_passes() {
    let (path, config) = fixture("sharded_kill.sfab", 41);
    let n_rows = u64::from(FileRowStream::open(&path).unwrap().n_rows());

    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    let dir = tmp("sharded_kill_state");
    std::fs::remove_dir_all(&dir).ok();
    // Three candidates' verify state per chunk: a budget of four times
    // that cuts this table's candidates into a handful of chunks, each
    // verified by its own scan.
    let budget = MemoryBudget::new(4 * MemoryBudget::MIN_BYTES, dir.join("spill"));
    let chunks = Pipeline::new(config)
        .run_sharded(
            &mut FileRowStream::open(&path).unwrap(),
            &MemoryBudget::new(budget.bytes, dir.join("dry_run")),
            None,
        )
        .unwrap()
        .metrics
        .sharding
        .expect("sharding metrics")
        .shards;
    assert!(chunks >= 3, "test premise: {chunks} chunks");
    let spec = CheckpointSpec::new(dir.join("ckpt")).with_every_rows(256);

    // Attempt 1: killed mid-phase-1, after the row-1792 checkpoint.
    let mut doomed = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            fatal_at_row: Some(1800),
            ..FaultConfig::default()
        },
    );
    let err = Pipeline::new(config)
        .run_sharded(&mut doomed, &budget, Some(&spec))
        .unwrap_err();
    assert!(!err.is_transient(), "the injected kill is fatal: {err}");

    // Attempt 2: phase 1 resumes past the kill site (skips are never
    // inspected), every chunk but the last is verified and spilled, then
    // the last chunk's verify scan (pass `chunks`) is killed at row 300 —
    // after its row-256 checkpoint.
    let mut doomed = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            fatal_at_row: Some(300),
            fatal_in_pass: Some(usize::try_from(chunks).unwrap()),
            ..FaultConfig::default()
        },
    );
    let err = Pipeline::new(config)
        .run_sharded(&mut doomed, &budget, Some(&spec))
        .unwrap_err();
    assert!(!err.is_transient(), "the injected kill is fatal: {err}");

    // Attempt 3: a clean rerun loads phase 1 whole from its checkpoint,
    // recounts from the signatures, loads every finished chunk from its
    // spill file, and re-reads only the last chunk's verify suffix past
    // row 256.
    let mut counter = ScanCounter::new(FileRowStream::open(&path).unwrap());
    let resumed = Pipeline::new(config)
        .run_sharded(&mut counter, &budget, Some(&spec))
        .unwrap();
    assert_eq!(
        resumed.verified, clean.verified,
        "sharded resume must not change output"
    );
    assert_eq!(resumed.column_counts, clean.column_counts);
    let sharding = resumed.metrics.sharding.expect("sharding metrics");
    assert_eq!(sharding.shards, chunks);
    assert_eq!(sharding.verify_groups, chunks);
    assert_eq!(
        sharding.generation_passes, 1,
        "the candidates are recounted in one walk"
    );
    assert_eq!(resumed.metrics.recovery.resumed_from_row, n_rows);
    assert_eq!(
        rows_read(&counter),
        n_rows - 256,
        "phase 1 is skipped whole; finished chunks are loaded; only the last verify suffix is re-read"
    );

    // Success clears both the spill files and the checkpoints.
    let leftover_spills = std::fs::read_dir(dir.join("spill"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".sfsp")
        })
        .count();
    assert_eq!(leftover_spills, 0);
    assert!(!dir.join("ckpt").join("phase1.sfcp").exists());
    assert!(!dir.join("ckpt").join("phase3.sfcp").exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn retry_and_checkpointing_compose_over_one_flaky_stream() {
    let (path, config) = fixture("composed.sfab", 37);

    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    let dir = tmp("composed_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let spec = CheckpointSpec::new(dir.clone()).with_every_rows(512);

    let faulty = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            seed: 5,
            transient_per_mille: 3,
            transient_at_rows: vec![700],
            ..FaultConfig::default()
        },
    );
    let mut retrying = RetryingRowStream::new(faulty, 4);
    let result = Pipeline::new(config)
        .run_resumable(&mut retrying, &spec)
        .unwrap();

    assert_eq!(result.verified, clean.verified);
    assert!(result.metrics.recovery.checkpoints_written > 0);
    assert!(retrying.stats().retries >= 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn resident_run_over_a_retrying_faulty_stream_equals_a_clean_run() {
    let (path, config) = fixture("resident_retry.sfab", 43);
    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    let faulty = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            seed: 7,
            transient_per_mille: 5,
            transient_at_rows: vec![0, 999],
            ..FaultConfig::default()
        },
    );
    let mut retrying = RetryingRowStream::new(faulty, 4);
    let resident = Pipeline::new(config)
        .with_threads(2)
        .run(&mut retrying)
        .unwrap();
    assert!(retrying.stats().retries >= 2, "{:?}", retrying.stats());
    assert_eq!(resident.verified, clean.verified);
    assert_eq!(resident.column_counts, clean.column_counts);
    assert_eq!(resident.metrics.threads, 2);
    assert_eq!(
        resident.metrics.verification.intersection_work,
        clean.metrics.verification.intersection_work
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resident_rerun_resumes_a_streamed_phase3_frontier() {
    let (path, config) = fixture("resident_resume.sfab", 47);
    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();

    let dir = tmp("resident_resume_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let spec = CheckpointSpec::new(dir.clone()).with_every_rows(256);

    // A streamed run killed at row 1200 of its verify pass, after the
    // phase-3 frontier at row 1024 was written.
    let mut doomed = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            fatal_at_row: Some(1200),
            fatal_in_pass: Some(1),
            ..FaultConfig::default()
        },
    );
    Pipeline::new(config)
        .run_resumable(&mut doomed, &spec)
        .unwrap_err();
    assert!(spec.dir.join("phase3.sfcp").exists());

    // A resident rerun finds the same candidates, so it counts on from
    // the streamed run's frontier.
    let resumed = Pipeline::new(config)
        .with_threads(2)
        .run_resumable(&mut FileRowStream::open(&path).unwrap(), &spec)
        .unwrap();
    assert_eq!(resumed.metrics.recovery.resumed_from_row, 1024);
    assert_eq!(resumed.verified, clean.verified);
    assert_eq!(resumed.column_counts, clean.column_counts);
    assert_eq!(
        resumed.metrics.verification.intersection_work,
        clean.metrics.verification.intersection_work
    );
    assert!(!spec.dir.join("phase1.sfcp").exists());
    assert!(!spec.dir.join("phase3.sfcp").exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn resident_rerun_finishes_a_streamed_sharded_run_from_its_spills() {
    let (path, config) = fixture("resident_spills.sfab", 53);
    let clean = Pipeline::new(config)
        .run(&mut FileRowStream::open(&path).unwrap())
        .unwrap();
    let dir = tmp("resident_spills_state");
    std::fs::remove_dir_all(&dir).ok();
    let budget = MemoryBudget::new(4 * MemoryBudget::MIN_BYTES, dir.join("spill"));
    let fresh = Pipeline::new(config)
        .with_threads(2)
        .run_sharded(
            &mut FileRowStream::open(&path).unwrap(),
            &MemoryBudget::new(budget.bytes, dir.join("fresh")),
            None,
        )
        .unwrap();
    let fresh_sharding = fresh.metrics.sharding.expect("sharding metrics");
    assert!(
        fresh_sharding.shards >= 3,
        "test premise: {fresh_sharding:?}"
    );

    // A streamed run killed as the third chunk's scan (pass 3) starts:
    // chunks 0 and 1 are verified and spilled.
    let mut doomed = FaultyRowStream::new(
        FileRowStream::open(&path).unwrap(),
        FaultConfig {
            fatal_at_row: Some(0),
            fatal_in_pass: Some(3),
            ..FaultConfig::default()
        },
    );
    Pipeline::new(config)
        .run_sharded(&mut doomed, &budget, None)
        .unwrap_err();
    let spilled: u64 = std::fs::read_dir(&budget.spill_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sfsp"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(spilled > 0);

    // The resident rerun cuts the same chunks, loads the two spilled ones
    // and writes only the rest.
    let resumed = Pipeline::new(config)
        .with_threads(2)
        .run_sharded(&mut FileRowStream::open(&path).unwrap(), &budget, None)
        .unwrap();
    assert_eq!(resumed.verified, clean.verified);
    assert_eq!(resumed.column_counts, clean.column_counts);
    let sharding = resumed.metrics.sharding.expect("sharding metrics");
    assert_eq!(sharding.shards, fresh_sharding.shards);
    assert_eq!(sharding.spill_bytes, fresh_sharding.spill_bytes - spilled);
    assert_eq!(
        resumed.metrics.verification.intersection_work,
        clean.metrics.verification.intersection_work
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}
