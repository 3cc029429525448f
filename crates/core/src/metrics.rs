//! Pipeline observability: structured counters for every phase.
//!
//! [`MiningMetrics`] is threaded through the driver so one run reports,
//! for any scheme, the quantities the paper reasons about: data volume
//! scanned per pass (phases 1 and 3 are each "one sequential pass over the
//! rows"), resident signature bytes (the `O(mk)` phase-1 memory budget),
//! candidate counts surviving each generation stage (the `O(k S̄ m²)`
//! phase-2 work), bucket-occupancy histograms of the Hash-Count/LSH
//! tables, and the exact-verification outcomes.
//!
//! Everything serializes to schema-stable JSON via [`MetricsDocument`]
//! (see `docs/FORMATS.md` for the on-disk formats and `--metrics-json`
//! in the CLI for the emitter).

use sfa_json::{FromJson, Json, JsonError, ToJson};
use sfa_matrix::PassScan;
use sfa_minhash::CandidateGenStats;

use crate::config::PipelineConfig;
use crate::report::PhaseTimings;

/// Version tag written into every [`MetricsDocument`]; bump when a field
/// is renamed, removed, or changes meaning (adding fields is compatible).
///
/// Version history: 1 = initial document; 2 = adds `metrics.threads`
/// (worker count of the run; absent in v1 documents, which parse as 1);
/// 3 = adds the optional `metrics.sharding` object (budgeted out-of-core
/// runs only; absent for in-memory runs and in older documents);
/// 4 = adds `recovery.files_quarantined` and `recovery.tmp_files_removed`
/// (startup-recovery sweep counters; absent keys parse as 0);
/// 5 = adds the optional `metrics.serving` object (`sfa serve` runs only;
/// absent for batch runs and in older documents);
/// 6 = adds the optional `metrics.kernels` object (runs whose phase 3
/// used the in-memory kernel layer: dispatch arm, hybrid-container
/// tallies, container vs dense bitmap bytes; absent otherwise and in
/// older documents);
/// 7 = adds the optional `metrics.phase1` object (runs whose phase 1
/// built a sketch: the SIMD arm the signature kernels dispatched through
/// and whether the signature cache hit or stored; absent for H-LSH runs
/// and in older documents).
pub const METRICS_SCHEMA_VERSION: u32 = 7;

/// Oldest document version [`MetricsDocument::from_json`] still accepts.
pub const METRICS_SCHEMA_MIN_VERSION: u32 = 1;

/// Scan volume of one streaming pass over the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassMetrics {
    /// Rows the consumer pulled.
    pub rows_scanned: u64,
    /// 1-entries (column ids) the consumer pulled.
    pub nonzeros_scanned: u64,
}

impl From<PassScan> for PassMetrics {
    fn from(scan: PassScan) -> Self {
        Self {
            rows_scanned: scan.rows,
            nonzeros_scanned: scan.nonzeros,
        }
    }
}

impl ToJson for PassMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("rows_scanned", self.rows_scanned)
            .field("nonzeros_scanned", self.nonzeros_scanned)
    }
}

impl FromJson for PassMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            rows_scanned: u64::from_json(json.req("rows_scanned")?)?,
            nonzeros_scanned: u64::from_json(json.req("nonzeros_scanned")?)?,
        })
    }
}

/// One named candidate-generation counter (see
/// [`CandidateGenStats::stages`] for the per-scheme naming convention).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCount {
    /// Stage name, e.g. `counter-increments` or `threshold-admitted`.
    pub stage: String,
    /// The counter value.
    pub count: u64,
}

impl ToJson for StageCount {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("stage", self.stage.as_str())
            .field("count", self.count)
    }
}

impl FromJson for StageCount {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            stage: String::from_json(json.req("stage")?)?,
            count: u64::from_json(json.req("count")?)?,
        })
    }
}

/// Exact-verification (phase 3) outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyMetrics {
    /// Candidates the pass checked (phase 2's output size).
    pub candidates_checked: u64,
    /// Verified pairs at or above `s*` — the run's output.
    pub true_positives: u64,
    /// Candidates below `s*` that verification pruned (the scheme's false
    /// positives; they cost pass work but never reach the output).
    pub false_positives_pruned: u64,
    /// Σ over 1-entries of the candidates the entry's column belongs to —
    /// the per-pair intersection work `|C_i| + |C_j|` summed over
    /// candidates (0 on the in-memory path, which counts no probes).
    pub intersection_work: u64,
}

impl ToJson for VerifyMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("candidates_checked", self.candidates_checked)
            .field("true_positives", self.true_positives)
            .field("false_positives_pruned", self.false_positives_pruned)
            .field("intersection_work", self.intersection_work)
    }
}

impl FromJson for VerifyMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            candidates_checked: u64::from_json(json.req("candidates_checked")?)?,
            true_positives: u64::from_json(json.req("true_positives")?)?,
            false_positives_pruned: u64::from_json(json.req("false_positives_pruned")?)?,
            intersection_work: u64::from_json(json.req("intersection_work")?)?,
        })
    }
}

/// Fault-recovery counters: what the run had to absorb (retries,
/// refetches) and how checkpointing participated (writes, resume point).
///
/// All-zero for an undisturbed, checkpoint-free run — the common case —
/// so consumers can treat a missing `recovery` object (documents written
/// before this field existed) as "nothing happened".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Transient stream errors absorbed by retry (never surfaced).
    pub transient_errors_retried: u64,
    /// Rows fast-forwarded past while re-establishing stream position
    /// after transient errors.
    pub rows_refetched: u64,
    /// Checkpoint files written during the run.
    pub checkpoints_written: u64,
    /// Row cursor the run resumed from (0 = started fresh).
    pub resumed_from_row: u64,
    /// Corrupt or stale state files the startup recovery sweep moved into
    /// quarantine (schema v4).
    pub files_quarantined: u64,
    /// Stray `.tmp` staging files the startup recovery sweep deleted
    /// (schema v4).
    pub tmp_files_removed: u64,
}

impl ToJson for RecoveryMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("transient_errors_retried", self.transient_errors_retried)
            .field("rows_refetched", self.rows_refetched)
            .field("checkpoints_written", self.checkpoints_written)
            .field("resumed_from_row", self.resumed_from_row)
            .field("files_quarantined", self.files_quarantined)
            .field("tmp_files_removed", self.tmp_files_removed)
    }
}

impl FromJson for RecoveryMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // The quarantine counters arrived in schema v4; absent keys (older
        // documents) parse as zero, matching "nothing was quarantined".
        let opt =
            |key: &str| -> Result<u64, JsonError> { json.get(key).map_or(Ok(0), u64::from_json) };
        Ok(Self {
            transient_errors_retried: u64::from_json(json.req("transient_errors_retried")?)?,
            rows_refetched: u64::from_json(json.req("rows_refetched")?)?,
            checkpoints_written: u64::from_json(json.req("checkpoints_written")?)?,
            resumed_from_row: u64::from_json(json.req("resumed_from_row")?)?,
            files_quarantined: opt("files_quarantined")?,
            tmp_files_removed: opt("tmp_files_removed")?,
        })
    }
}

/// Out-of-core accounting for a budgeted run
/// ([`Pipeline::run_sharded`](crate::Pipeline::run_sharded)): how the
/// candidate walk was cut into chunks, what was spilled, and the peak of
/// the budget-tracked state. Emitted only by budgeted runs — in-memory
/// runs omit the `sharding` object entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardingMetrics {
    /// The byte budget the run was given.
    pub memory_budget: u64,
    /// Chunks the focus-column walk was cut into.
    pub shards: u64,
    /// Generation restarts; always 0 since generation became a single
    /// walk (kept so older readers find the field).
    pub shard_restarts: u64,
    /// Phase-2 generation passes over the resident summary: always 1.
    pub generation_passes: u64,
    /// Phase-3 verify groups (one per chunk) — each one full streaming
    /// pass over the rows, unless its result was loaded from a spill.
    pub verify_groups: u64,
    /// Total bytes written to chunk result spill files.
    pub spill_bytes: u64,
    /// Peak bytes of budget-tracked state: the largest chunk's verify
    /// state; never exceeds `memory_budget`.
    pub peak_tracked_bytes: u64,
}

impl ToJson for ShardingMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("memory_budget", self.memory_budget)
            .field("shards", self.shards)
            .field("shard_restarts", self.shard_restarts)
            .field("generation_passes", self.generation_passes)
            .field("verify_groups", self.verify_groups)
            .field("spill_bytes", self.spill_bytes)
            .field("peak_tracked_bytes", self.peak_tracked_bytes)
    }
}

impl FromJson for ShardingMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            memory_budget: u64::from_json(json.req("memory_budget")?)?,
            shards: u64::from_json(json.req("shards")?)?,
            shard_restarts: u64::from_json(json.req("shard_restarts")?)?,
            generation_passes: u64::from_json(json.req("generation_passes")?)?,
            verify_groups: u64::from_json(json.req("verify_groups")?)?,
            spill_bytes: u64::from_json(json.req("spill_bytes")?)?,
            peak_tracked_bytes: u64::from_json(json.req("peak_tracked_bytes")?)?,
        })
    }
}

/// Request accounting for one `sfa serve` session (schema v5). Emitted
/// only by the serve subcommand — batch runs omit the `serving` object
/// entirely.
///
/// The load-balance invariant the CI smoke job asserts:
/// `answered + shed + timed_out == accepted` — every request the server
/// admitted got exactly one disposition. `malformed` is a sub-count of
/// `answered` (malformed requests are answered, with `ERR`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingMetrics {
    /// Requests admitted: every request read off a socket, plus every
    /// connection shed at the admission gate.
    pub accepted: u64,
    /// Requests that got a reply (`OK …` or `ERR …`).
    pub answered: u64,
    /// Requests refused with `OVERLOADED` by admission control.
    pub shed: u64,
    /// Requests dropped by a read/write timeout or a per-request deadline.
    pub timed_out: u64,
    /// Sub-count of `answered`: syntactically invalid requests answered
    /// with `ERR`.
    pub malformed: u64,
    /// Rows acknowledged via `INGEST`.
    pub ingested_rows: u64,
    /// Snapshot rebuilds atomically swapped in.
    pub snapshot_swaps: u64,
    /// Wall-clock seconds the server was accepting traffic.
    pub uptime_secs: f64,
    /// Answered requests per second over the uptime.
    pub qps: f64,
    /// Median reply latency of answered requests, in microseconds.
    pub p50_micros: u64,
    /// 99th-percentile reply latency of answered requests, in
    /// microseconds.
    pub p99_micros: u64,
}

impl ToJson for ServingMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("accepted", self.accepted)
            .field("answered", self.answered)
            .field("shed", self.shed)
            .field("timed_out", self.timed_out)
            .field("malformed", self.malformed)
            .field("ingested_rows", self.ingested_rows)
            .field("snapshot_swaps", self.snapshot_swaps)
            .field("uptime_secs", self.uptime_secs)
            .field("qps", self.qps)
            .field("p50_micros", self.p50_micros)
            .field("p99_micros", self.p99_micros)
    }
}

impl FromJson for ServingMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            accepted: u64::from_json(json.req("accepted")?)?,
            answered: u64::from_json(json.req("answered")?)?,
            shed: u64::from_json(json.req("shed")?)?,
            timed_out: u64::from_json(json.req("timed_out")?)?,
            malformed: u64::from_json(json.req("malformed")?)?,
            ingested_rows: u64::from_json(json.req("ingested_rows")?)?,
            snapshot_swaps: u64::from_json(json.req("snapshot_swaps")?)?,
            uptime_secs: f64::from_json(json.req("uptime_secs")?)?,
            qps: f64::from_json(json.req("qps")?)?,
            p50_micros: u64::from_json(json.req("p50_micros")?)?,
            p99_micros: u64::from_json(json.req("p99_micros")?)?,
        })
    }
}

/// Kernel-layer accounting of the in-memory phase 3 (schema v6): which
/// SIMD arm the process dispatched to and what the roaring-style hybrid
/// containers cost versus dense bitmaps. Emitted only by runs that
/// exercised the in-memory verifier — streaming and sharded runs omit
/// the `kernels` object entirely.
///
/// `dispatch_arm` is machine-dependent (`"avx2"` on most x86-64 hosts,
/// `"scalar"` under `--kernel scalar`); `bench-diff` strips it alongside
/// the timing blocks. The container counters are deterministic
/// functions of the dataset and are diffed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// The popcount/merge arm every exact count dispatched through
    /// (`"scalar"` | `"avx2"` | `"neon"`).
    pub dispatch_arm: String,
    /// Whether hybrid containers were materialized (false = the
    /// candidate columns busted the in-memory cap and the per-pair
    /// adaptive kernel ran; the container counters below are zero).
    pub used_containers: bool,
    /// 2^16-row chunks stored as sorted `u16` arrays.
    pub array_containers: u64,
    /// Chunks stored as 8 KiB bitmaps.
    pub bitmap_containers: u64,
    /// Chunks stored as run lists.
    pub run_containers: u64,
    /// Actual payload bytes of the materialized hybrid columns.
    pub container_bytes: u64,
    /// What dense `⌈n/64⌉`-word bitmaps over the same columns would
    /// have cost.
    pub raw_bitmap_bytes: u64,
}

impl ToJson for KernelMetrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("dispatch_arm", self.dispatch_arm.as_str())
            .field("used_containers", self.used_containers)
            .field("array_containers", self.array_containers)
            .field("bitmap_containers", self.bitmap_containers)
            .field("run_containers", self.run_containers)
            .field("container_bytes", self.container_bytes)
            .field("raw_bitmap_bytes", self.raw_bitmap_bytes)
    }
}

impl FromJson for KernelMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            dispatch_arm: String::from_json(json.req("dispatch_arm")?)?,
            used_containers: bool::from_json(json.req("used_containers")?)?,
            array_containers: u64::from_json(json.req("array_containers")?)?,
            bitmap_containers: u64::from_json(json.req("bitmap_containers")?)?,
            run_containers: u64::from_json(json.req("run_containers")?)?,
            container_bytes: u64::from_json(json.req("container_bytes")?)?,
            raw_bitmap_bytes: u64::from_json(json.req("raw_bitmap_bytes")?)?,
        })
    }
}

impl From<crate::verify::InMemoryKernelReport> for KernelMetrics {
    fn from(report: crate::verify::InMemoryKernelReport) -> Self {
        Self {
            dispatch_arm: report.dispatch_arm.to_owned(),
            used_containers: report.used_containers,
            array_containers: report.container.array_containers,
            bitmap_containers: report.container.bitmap_containers,
            run_containers: report.container.run_containers,
            container_bytes: report.container.container_bytes,
            raw_bitmap_bytes: report.container.raw_bitmap_bytes,
        }
    }
}

impl ServingMetrics {
    /// Whether the accounting balances: every accepted request ended in
    /// exactly one of answered / shed / timed out.
    #[must_use]
    pub fn balances(&self) -> bool {
        self.answered + self.shed + self.timed_out == self.accepted
            && self.malformed <= self.answered
    }
}

/// Phase-1 provenance (schema v7): which SIMD arm the signature kernels
/// dispatched through and how the signature cache participated. Emitted
/// by every run that built (or loaded) a phase-1 sketch — H-LSH runs,
/// which work directly on the data, omit the `phase1` object entirely.
///
/// `dispatch_arm` is machine-dependent, like
/// [`KernelMetrics::dispatch_arm`], and `bench-diff` strips it under the
/// same key name. The cache flags are deterministic for a given command
/// sequence and are diffed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase1Metrics {
    /// The min-merge/sieve arm phase 1 dispatched through
    /// (`"scalar"` | `"avx2"` | `"neon"`).
    pub dispatch_arm: String,
    /// Whether the sketch was loaded from the signature cache (phase 1's
    /// table pass was skipped entirely).
    pub cache_hit: bool,
    /// Whether the freshly computed sketch was stored into the signature
    /// cache (always `false` on a hit or when no cache is configured).
    pub cache_stored: bool,
}

impl ToJson for Phase1Metrics {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("dispatch_arm", self.dispatch_arm.as_str())
            .field("cache_hit", self.cache_hit)
            .field("cache_stored", self.cache_stored)
    }
}

impl FromJson for Phase1Metrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            dispatch_arm: String::from_json(json.req("dispatch_arm")?)?,
            cache_hit: bool::from_json(json.req("cache_hit")?)?,
            cache_stored: bool::from_json(json.req("cache_stored")?)?,
        })
    }
}

/// Structured counters for one pipeline run, phase by phase.
///
/// # Examples
///
/// ```
/// use sfa_core::metrics::MiningMetrics;
/// use sfa_json::ToJson;
///
/// let mut metrics = MiningMetrics::default();
/// metrics.scheme = "MH".to_owned();
/// metrics.signature_pass.rows_scanned = 1_000;
/// metrics.signature_pass.nonzeros_scanned = 12_345;
/// metrics.signature_bytes = 400 * 500 * 8;
/// metrics.verification.true_positives = 7;
///
/// let json = metrics.to_json().to_string_compact();
/// let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
/// assert_eq!(back, metrics);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MiningMetrics {
    /// Short scheme name ([`Scheme::name`](crate::config::Scheme::name)).
    pub scheme: String,
    /// Worker threads the run used (1 = sequential, the default).
    pub threads: u64,
    /// Phase 1: the signature pass's scan volume.
    pub signature_pass: PassMetrics,
    /// Phase 3: the verification pass's scan volume.
    pub verify_pass: PassMetrics,
    /// Resident bytes of the phase-1 summary (signature matrix, bottom-k
    /// sketches, or the materialized matrix for H-LSH).
    pub signature_bytes: u64,
    /// Resident bytes of the phase-2 bucket index a budgeted run keeps
    /// while it walks its chunks — linear in bucket entries, like the
    /// signatures; `None` for in-memory runs (the key is omitted from the
    /// JSON entirely, so their documents are unchanged).
    pub index_bytes: Option<u64>,
    /// Phase 2: named counters in generation order.
    pub candidate_stages: Vec<StageCount>,
    /// Phase 2's output size (candidate pairs handed to verification).
    pub candidates_generated: u64,
    /// `bucket_histogram[s]` = hash-table buckets (or sorted runs) holding
    /// exactly `s` columns, aggregated over the whole candidate phase.
    pub bucket_histogram: Vec<u64>,
    /// Phase 3 outcomes.
    pub verification: VerifyMetrics,
    /// Fault-recovery events (retries, refetches, checkpoints, resume).
    pub recovery: RecoveryMetrics,
    /// Out-of-core accounting; `None` for in-memory runs (the key is
    /// omitted from the JSON entirely).
    pub sharding: Option<ShardingMetrics>,
    /// Request accounting; `None` for batch runs (the key is omitted from
    /// the JSON entirely). Emitted by `sfa serve` (schema v5).
    pub serving: Option<ServingMetrics>,
    /// Kernel-layer accounting; `None` when phase 3 never ran through
    /// the in-memory kernel dispatch (the key is omitted from the JSON
    /// entirely). Emitted by pool runs (schema v6).
    pub kernels: Option<KernelMetrics>,
    /// Phase-1 provenance; `None` for H-LSH runs, which build no sketch
    /// (the key is omitted from the JSON entirely). Schema v7.
    pub phase1: Option<Phase1Metrics>,
}

impl Default for MiningMetrics {
    fn default() -> Self {
        Self {
            scheme: String::new(),
            threads: 1,
            signature_pass: PassMetrics::default(),
            verify_pass: PassMetrics::default(),
            signature_bytes: 0,
            index_bytes: None,
            candidate_stages: Vec::new(),
            candidates_generated: 0,
            bucket_histogram: Vec::new(),
            verification: VerifyMetrics::default(),
            recovery: RecoveryMetrics::default(),
            sharding: None,
            serving: None,
            kernels: None,
            phase1: None,
        }
    }
}

impl MiningMetrics {
    /// Folds a generator's [`CandidateGenStats`] into the phase-2 fields.
    pub fn absorb_candidate_stats(&mut self, stats: CandidateGenStats) {
        self.candidate_stages = stats
            .stages
            .into_iter()
            .map(|(stage, count)| StageCount {
                stage: stage.to_owned(),
                count,
            })
            .collect();
        self.bucket_histogram = stats.bucket_histogram;
    }

    /// The count recorded under `stage`, if any.
    #[must_use]
    pub fn stage(&self, stage: &str) -> Option<u64> {
        self.candidate_stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.count)
    }
}

impl ToJson for MiningMetrics {
    fn to_json(&self) -> Json {
        let json = Json::obj()
            .field("scheme", self.scheme.as_str())
            .field("threads", self.threads)
            .field("signature_pass", self.signature_pass)
            .field("verify_pass", self.verify_pass)
            .field("signature_bytes", self.signature_bytes);
        // Only budgeted runs emit the key, right beside the summary bytes
        // (a compatible field addition, so no version bump).
        let json = match self.index_bytes {
            Some(bytes) => json.field("index_bytes", bytes),
            None => json,
        };
        let json = json
            .field("candidate_stages", &self.candidate_stages[..])
            .field("candidates_generated", self.candidates_generated)
            .field("bucket_histogram", &self.bucket_histogram[..])
            .field("verification", self.verification)
            .field("recovery", self.recovery);
        // In-memory runs omit the key so their documents are unchanged
        // from schema v2 (a compatible field addition).
        let json = match self.sharding {
            Some(sharding) => json.field("sharding", sharding),
            None => json,
        };
        // Batch runs omit the key; only `sfa serve` emits it (schema v5).
        let json = match self.serving {
            Some(serving) => json.field("serving", serving),
            None => json,
        };
        // Only runs through the in-memory kernel dispatch emit the key
        // (schema v6).
        let json = match &self.kernels {
            Some(kernels) => json.field("kernels", kernels.clone()),
            None => json,
        };
        // Only runs that built a phase-1 sketch emit the key (schema v7).
        match &self.phase1 {
            Some(phase1) => json.field("phase1", phase1.clone()),
            None => json,
        }
    }
}

impl FromJson for MiningMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            scheme: String::from_json(json.req("scheme")?)?,
            // Schema-v1 documents predate the parallel layer; absence
            // means a sequential run.
            threads: json
                .get("threads")
                .map(u64::from_json)
                .transpose()?
                .unwrap_or(1),
            signature_pass: PassMetrics::from_json(json.req("signature_pass")?)?,
            verify_pass: PassMetrics::from_json(json.req("verify_pass")?)?,
            signature_bytes: u64::from_json(json.req("signature_bytes")?)?,
            // Only budgeted runs emit the key; absence means an in-memory
            // run (and covers every older document).
            index_bytes: json.get("index_bytes").map(u64::from_json).transpose()?,
            candidate_stages: Vec::<StageCount>::from_json(json.req("candidate_stages")?)?,
            candidates_generated: u64::from_json(json.req("candidates_generated")?)?,
            bucket_histogram: Vec::<u64>::from_json(json.req("bucket_histogram")?)?,
            verification: VerifyMetrics::from_json(json.req("verification")?)?,
            // Documents written before the recovery counters existed omit
            // the key; absence means an undisturbed run (schema-compatible
            // field addition, so no version bump).
            recovery: json
                .get("recovery")
                .map(RecoveryMetrics::from_json)
                .transpose()?
                .unwrap_or_default(),
            // Only budgeted sharded runs emit the key; absence means an
            // in-memory run (and covers all pre-v3 documents).
            sharding: json
                .get("sharding")
                .map(ShardingMetrics::from_json)
                .transpose()?,
            // Only `sfa serve` emits the key; absence means a batch run
            // (and covers all pre-v5 documents).
            serving: json
                .get("serving")
                .map(ServingMetrics::from_json)
                .transpose()?,
            // Only in-memory kernel-dispatch runs emit the key; absence
            // covers streaming/sharded runs and all pre-v6 documents.
            kernels: json
                .get("kernels")
                .map(KernelMetrics::from_json)
                .transpose()?,
            // Only sketch-building runs emit the key; absence covers
            // H-LSH runs and all pre-v7 documents.
            phase1: json
                .get("phase1")
                .map(Phase1Metrics::from_json)
                .transpose()?,
        })
    }
}

/// The schema-stable document `sfa mine --metrics-json` writes: the
/// configuration, phase timings, and [`MiningMetrics`] of one run under a
/// [`METRICS_SCHEMA_VERSION`] tag.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDocument {
    /// The writing library's [`METRICS_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The run's configuration.
    pub config: PipelineConfig,
    /// Wall-clock phase timings.
    pub timings: PhaseTimings,
    /// The structured counters.
    pub metrics: MiningMetrics,
}

impl MetricsDocument {
    /// Packages a run's observables under the current schema version.
    #[must_use]
    pub fn new(config: PipelineConfig, timings: PhaseTimings, metrics: MiningMetrics) -> Self {
        Self {
            schema_version: METRICS_SCHEMA_VERSION,
            config,
            timings,
            metrics,
        }
    }
}

impl ToJson for MetricsDocument {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", self.schema_version)
            .field("config", self.config)
            .field("timings", self.timings)
            .field("metrics", &self.metrics)
    }
}

impl FromJson for MetricsDocument {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let schema_version = u32::from_json(json.req("schema_version")?)?;
        if !(METRICS_SCHEMA_MIN_VERSION..=METRICS_SCHEMA_VERSION).contains(&schema_version) {
            return Err(JsonError::new(format!(
                "unsupported metrics schema version {schema_version} \
                 (supported: {METRICS_SCHEMA_MIN_VERSION}..={METRICS_SCHEMA_VERSION})"
            )));
        }
        Ok(Self {
            schema_version,
            config: PipelineConfig::from_json(json.req("config")?)?,
            timings: PhaseTimings::from_json(json.req("timings")?)?,
            metrics: MiningMetrics::from_json(json.req("metrics")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use std::time::Duration;

    fn sample_metrics() -> MiningMetrics {
        MiningMetrics {
            scheme: "MH".to_owned(),
            threads: 4,
            signature_pass: PassMetrics {
                rows_scanned: 100,
                nonzeros_scanned: 450,
            },
            verify_pass: PassMetrics {
                rows_scanned: 100,
                nonzeros_scanned: 450,
            },
            signature_bytes: 64 * 7 * 8,
            index_bytes: None,
            candidate_stages: vec![
                StageCount {
                    stage: "counter-increments".to_owned(),
                    count: 812,
                },
                StageCount {
                    stage: "threshold-admitted".to_owned(),
                    count: 2,
                },
            ],
            candidates_generated: 2,
            bucket_histogram: vec![0, 3, 5, 1],
            verification: VerifyMetrics {
                candidates_checked: 2,
                true_positives: 1,
                false_positives_pruned: 1,
                intersection_work: 120,
            },
            recovery: RecoveryMetrics {
                transient_errors_retried: 3,
                rows_refetched: 17,
                checkpoints_written: 2,
                resumed_from_row: 0,
                files_quarantined: 1,
                tmp_files_removed: 1,
            },
            sharding: None,
            serving: None,
            kernels: None,
            phase1: None,
        }
    }

    fn sample_serving() -> ServingMetrics {
        ServingMetrics {
            accepted: 120,
            answered: 100,
            shed: 15,
            timed_out: 5,
            malformed: 7,
            ingested_rows: 12,
            snapshot_swaps: 2,
            uptime_secs: 1.5,
            qps: 66.5,
            p50_micros: 180,
            p99_micros: 2_400,
        }
    }

    fn sample_kernels() -> KernelMetrics {
        KernelMetrics {
            dispatch_arm: "avx2".to_string(),
            used_containers: true,
            array_containers: 40,
            bitmap_containers: 3,
            run_containers: 7,
            container_bytes: 120_000,
            raw_bitmap_bytes: 2_000_000,
        }
    }

    #[test]
    fn metrics_json_roundtrip() {
        let metrics = sample_metrics();
        let json = metrics.to_json().to_string_compact();
        let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn document_roundtrip_every_scheme() {
        let schemes = [
            Scheme::Mh { k: 400, delta: 0.2 },
            Scheme::MhRowSort { k: 400, delta: 0.2 },
            Scheme::Kmh { k: 100, delta: 0.2 },
            Scheme::MLsh {
                k: 100,
                r: 5,
                l: 20,
                sampled: false,
            },
            Scheme::HLsh {
                r: 8,
                l: 4,
                t: 4,
                max_levels: 10,
            },
        ];
        for scheme in schemes {
            let config = PipelineConfig::new(scheme, 0.7, 99);
            let timings = PhaseTimings {
                signatures: Duration::from_millis(120),
                candidates: Duration::from_micros(3500),
                verify: Duration::from_millis(80),
            };
            let mut metrics = sample_metrics();
            metrics.scheme = scheme.name().to_owned();
            let doc = MetricsDocument::new(config, timings, metrics);
            let json = sfa_json::to_string_pretty(&doc);
            let back: MetricsDocument = sfa_json::from_str(&json).unwrap();
            assert_eq!(back, doc, "{json}");
        }
    }

    #[test]
    fn document_schema_is_stable() {
        // Guards the key set the external consumers rely on; renaming any
        // of these is a schema break and must bump METRICS_SCHEMA_VERSION.
        let doc = MetricsDocument::new(
            PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 1),
            PhaseTimings::default(),
            sample_metrics(),
        );
        let json = doc.to_json();
        for key in ["schema_version", "config", "timings", "metrics"] {
            assert!(json.get(key).is_some(), "missing top-level key {key}");
        }
        let metrics = json.get("metrics").unwrap();
        for key in [
            "scheme",
            "threads",
            "signature_pass",
            "verify_pass",
            "signature_bytes",
            "candidate_stages",
            "candidates_generated",
            "bucket_histogram",
            "verification",
            "recovery",
        ] {
            assert!(metrics.get(key).is_some(), "missing metrics key {key}");
        }
        let recovery = metrics.get("recovery").unwrap();
        for key in [
            "transient_errors_retried",
            "rows_refetched",
            "checkpoints_written",
            "resumed_from_row",
            "files_quarantined",
            "tmp_files_removed",
        ] {
            assert!(recovery.get(key).is_some(), "missing recovery key {key}");
        }
        let verification = metrics.get("verification").unwrap();
        for key in [
            "candidates_checked",
            "true_positives",
            "false_positives_pruned",
            "intersection_work",
        ] {
            assert!(
                verification.get(key).is_some(),
                "missing verification key {key}"
            );
        }
        // `sharding` is emitted only for budgeted sharded runs; in-memory
        // documents must not carry the key at all.
        assert!(metrics.get("sharding").is_none());
        let mut sharded = sample_metrics();
        sharded.sharding = Some(ShardingMetrics::default());
        let sharded_json = sharded.to_json();
        let sharding = sharded_json.get("sharding").unwrap();
        for key in [
            "memory_budget",
            "shards",
            "shard_restarts",
            "generation_passes",
            "verify_groups",
            "spill_bytes",
            "peak_tracked_bytes",
        ] {
            assert!(sharding.get(key).is_some(), "missing sharding key {key}");
        }
        // `serving` is emitted only by `sfa serve`; batch documents must
        // not carry the key at all.
        assert!(metrics.get("serving").is_none());
        let mut serving_metrics = sample_metrics();
        serving_metrics.serving = Some(sample_serving());
        let serving_json = serving_metrics.to_json();
        let serving = serving_json.get("serving").unwrap();
        for key in [
            "accepted",
            "answered",
            "shed",
            "timed_out",
            "malformed",
            "ingested_rows",
            "snapshot_swaps",
            "uptime_secs",
            "qps",
            "p50_micros",
            "p99_micros",
        ] {
            assert!(serving.get(key).is_some(), "missing serving key {key}");
        }
        // `kernels` is emitted only by runs that went through the in-memory
        // verifier; documents without it must not carry the key at all.
        assert!(metrics.get("kernels").is_none());
        let mut kernel_metrics = sample_metrics();
        kernel_metrics.kernels = Some(sample_kernels());
        let kernel_json = kernel_metrics.to_json();
        let kernels = kernel_json.get("kernels").unwrap();
        for key in [
            "dispatch_arm",
            "used_containers",
            "array_containers",
            "bitmap_containers",
            "run_containers",
            "container_bytes",
            "raw_bitmap_bytes",
        ] {
            assert!(kernels.get(key).is_some(), "missing kernels key {key}");
        }
        // `phase1` is emitted only by runs that built a sketch; documents
        // without it must not carry the key at all.
        assert!(metrics.get("phase1").is_none());
        let mut phase1_metrics = sample_metrics();
        phase1_metrics.phase1 = Some(Phase1Metrics {
            dispatch_arm: "avx2".to_owned(),
            cache_hit: true,
            cache_stored: false,
        });
        let phase1_json = phase1_metrics.to_json();
        let phase1 = phase1_json.get("phase1").unwrap();
        for key in ["dispatch_arm", "cache_hit", "cache_stored"] {
            assert!(phase1.get(key).is_some(), "missing phase1 key {key}");
        }
    }

    #[test]
    fn phase1_metrics_round_trip() {
        let mut metrics = sample_metrics();
        metrics.phase1 = Some(Phase1Metrics {
            dispatch_arm: "scalar".to_owned(),
            cache_hit: false,
            cache_stored: true,
        });
        let json = metrics.to_json().to_string_compact();
        let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_phase1_key_still_parse() {
        // Pre-v7 documents carry no `phase1` key; it must parse as None,
        // not error.
        let metrics = sample_metrics();
        let json = metrics.to_json();
        assert!(json.get("phase1").is_none());
        let back = MiningMetrics::from_json(&json).unwrap();
        assert_eq!(back.phase1, None);
        assert_eq!(back, metrics);
    }

    #[test]
    fn kernel_metrics_round_trip() {
        let mut metrics = sample_metrics();
        metrics.kernels = Some(sample_kernels());
        let json = metrics.to_json().to_string_compact();
        let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_kernels_key_still_parse() {
        // Pre-v6 documents carry no `kernels` key; it must parse as None,
        // not error.
        let metrics = sample_metrics();
        let json = metrics.to_json();
        assert!(json.get("kernels").is_none());
        let back = MiningMetrics::from_json(&json).unwrap();
        assert_eq!(back.kernels, None);
        assert_eq!(back, metrics);
    }

    #[test]
    fn serving_metrics_round_trip() {
        let mut metrics = sample_metrics();
        metrics.serving = Some(sample_serving());
        let json = metrics.to_json().to_string_compact();
        let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_serving_key_parse_as_batch() {
        // Pre-v5 documents (and v5 batch runs) carry no `serving` key; it
        // must parse as None, not error.
        let metrics = sample_metrics();
        let json = metrics.to_json();
        assert!(json.get("serving").is_none());
        let back = MiningMetrics::from_json(&json).unwrap();
        assert_eq!(back.serving, None);
        assert_eq!(back, metrics);
    }

    #[test]
    fn serving_balance_invariant() {
        let mut s = sample_serving();
        assert!(s.balances(), "100 + 15 + 5 == 120");
        s.shed += 1;
        assert!(!s.balances(), "a double-counted request must not balance");
        s.shed -= 1;
        s.malformed = s.answered + 1;
        assert!(!s.balances(), "malformed exceeds answered");
    }

    #[test]
    fn sharding_metrics_round_trip() {
        let mut metrics = sample_metrics();
        metrics.sharding = Some(ShardingMetrics {
            memory_budget: 1 << 20,
            shards: 4,
            shard_restarts: 0,
            generation_passes: 1,
            verify_groups: 4,
            spill_bytes: 12_345,
            peak_tracked_bytes: 900_000,
        });
        metrics.index_bytes = Some(4_096);
        let json = metrics.to_json().to_string_compact();
        assert!(json.contains("\"signature_bytes\":3584,\"index_bytes\":4096"));
        let back: MiningMetrics = sfa_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_sharding_key_parse_as_in_memory() {
        // Schema-v2 documents (and v3 in-memory runs) carry no `sharding`
        // key; it must parse as None, not error.
        let metrics = sample_metrics();
        let json = metrics.to_json();
        assert!(json.get("sharding").is_none());
        let back = MiningMetrics::from_json(&json).unwrap();
        assert_eq!(back.sharding, None);
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_recovery_key_still_parse() {
        // Metrics JSON written before the recovery counters existed: the
        // key is absent and must default to all-zero, not error.
        let mut metrics = sample_metrics();
        metrics.recovery = RecoveryMetrics::default();
        let json = metrics.to_json();
        let legacy = match json {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "recovery")
                    .collect(),
            ),
            other => other,
        };
        assert!(legacy.get("recovery").is_none());
        let back = MiningMetrics::from_json(&legacy).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn documents_without_threads_key_parse_as_sequential() {
        // Schema-v1 metrics predate the parallel layer: no `threads` key,
        // parsed as a single-threaded run.
        let mut metrics = sample_metrics();
        metrics.threads = 1;
        let json = metrics.to_json();
        let legacy = match json {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "threads").collect())
            }
            other => other,
        };
        assert!(legacy.get("threads").is_none());
        let back = MiningMetrics::from_json(&legacy).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn schema_v1_documents_still_parse() {
        let doc = MetricsDocument::new(
            PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 1),
            PhaseTimings::default(),
            sample_metrics(),
        );
        let mut json = doc.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::U64(u64::from(METRICS_SCHEMA_MIN_VERSION));
        }
        let back = MetricsDocument::from_json(&json).unwrap();
        assert_eq!(back.schema_version, METRICS_SCHEMA_MIN_VERSION);
        assert_eq!(back.metrics, doc.metrics);
    }

    #[test]
    fn rejects_schema_version_zero() {
        let doc = MetricsDocument::new(
            PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 1),
            PhaseTimings::default(),
            sample_metrics(),
        );
        let mut json = doc.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::U64(0);
        }
        assert!(MetricsDocument::from_json(&json).is_err());
    }

    #[test]
    fn rejects_future_schema_version() {
        let doc = MetricsDocument::new(
            PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 1),
            PhaseTimings::default(),
            sample_metrics(),
        );
        let mut json = doc.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::U64(u64::from(METRICS_SCHEMA_VERSION) + 1);
        }
        assert!(MetricsDocument::from_json(&json).is_err());
    }

    #[test]
    fn absorb_translates_generator_stats() {
        let mut stats = CandidateGenStats::default();
        stats.record("counter-increments", 10);
        stats.record("threshold-admitted", 3);
        stats.bucket_histogram = vec![0, 2, 1];
        let mut metrics = MiningMetrics::default();
        metrics.absorb_candidate_stats(stats);
        assert_eq!(metrics.stage("counter-increments"), Some(10));
        assert_eq!(metrics.stage("threshold-admitted"), Some(3));
        assert_eq!(metrics.stage("missing"), None);
        assert_eq!(metrics.bucket_histogram, vec![0, 2, 1]);
    }
}
