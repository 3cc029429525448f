//! # sfa-core — the three-phase support-free association pipeline
//!
//! The paper's algorithms all share one skeleton: "compute signatures,
//! generate candidates, and prune candidates. … The last phase is identical
//! in all our algorithms: while scanning the table data, maintain for each
//! candidate column-pair `(c_i, c_j)` the counts of the number of rows
//! having a 1 in at least one of the two columns and also the number of
//! rows having a 1 in both columns."
//!
//! * [`config`] — which scheme to run (MH, K-MH, M-LSH, H-LSH) and with
//!   what parameters.
//! * [`pipeline`] — the driver: phase 1 + 2 per scheme, then the exact
//!   verification pass. Because phase 3 is exact, the pipeline's output
//!   contains **no false positives**; quality is entirely a matter of
//!   false negatives, which is how the paper frames its §5 comparison.
//! * [`verify`] — the phase-3 counting pass over a [`RowStream`] or a
//!   resident table's rows.
//! * [`checkpoint`] — crash-safe checkpoint files for both streaming
//!   passes, behind [`Pipeline::run_resumable`](pipeline::Pipeline::run_resumable).
//! * [`spill`] — checksummed chunk spill files for out-of-core mining
//!   under a [`MemoryBudget`], behind
//!   [`Pipeline::run_sharded`](pipeline::Pipeline::run_sharded).
//! * [`durable`] — crash-consistent atomic writes (fsync file, then
//!   parent dir), seeded write-side fault injection, and the startup
//!   recovery sweep that quarantines corrupt or stale state.
//! * [`shutdown`] — signal/deadline cancellation: the [`CancelToken`]
//!   the pipeline polls so a `SIGTERM` flushes a resumable
//!   checkpoint instead of losing the pass.
//! * [`sigcache`] — the config-fingerprinted signature cache: phase-1
//!   sketches keyed on `(scheme kind, k, seed, table shape)` so repeated
//!   mines over the same table skip the signature pass entirely.
//! * [`report`] — result and timing types.
//! * [`metrics`] — structured per-phase counters and the schema-stable
//!   JSON document behind `--metrics-json` and the bench baseline.
//! * [`quality`] — S-curves and false-positive/negative accounting against
//!   exact ground truth (the §5.1 evaluation methodology).
//! * [`confidence`] — the §6 extension: high-confidence rules without
//!   support, from the same signatures.
//! * [`boolean`] — the §7 extensions: OR-composition of signatures, AND
//!   implications via cardinality, and (support-floored) anticorrelation.
//! * [`cluster`] — single-link and dense cluster extraction from the mined
//!   pair graph (the paper's §2 "clusters of words").
//! * [`streaming`] — an online miner over an append-only table: push rows
//!   as they arrive, mine (with exact verification) at any moment.
//!
//! [`RowStream`]: sfa_matrix::RowStream

#![warn(missing_docs)]

pub mod boolean;
pub mod checkpoint;
pub mod cluster;
pub mod confidence;
pub mod config;
pub mod durable;
mod layouts;
pub mod metrics;
pub mod pipeline;
pub mod quality;
pub mod report;
pub mod shutdown;
pub mod sigcache;
pub mod spill;
pub mod streaming;
pub mod verify;

pub use checkpoint::CheckpointSpec;
pub use config::{PipelineConfig, Scheme};
pub use durable::{DurableDir, RecoveredDir, WriteFault, WriteFaultConfig};
pub use metrics::{
    MetricsDocument, MiningMetrics, PassMetrics, Phase1Metrics, RecoveryMetrics, ServingMetrics,
    ShardingMetrics, StageCount, VerifyMetrics, METRICS_SCHEMA_VERSION,
};
pub use pipeline::{MemoryBudget, Pipeline};
pub use quality::{evaluate_quality, QualityReport, SCurveBin};
pub use report::{MiningResult, PhaseTimings, VerifiedPair};
pub use shutdown::{install_signal_handlers, CancelToken, ThrottledCancel};
pub use sigcache::SignatureCache;
pub use verify::InMemoryKernelReport;
