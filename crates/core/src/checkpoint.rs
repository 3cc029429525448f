//! Checkpoint/resume for the two streaming passes.
//!
//! Phase 1 (signature computation) and phase 3 (verification) are each one
//! sequential pass over a table that may take minutes; a crash near the end
//! should not cost the whole pass. [`Pipeline::run_resumable`] periodically
//! persists the partial builder state (phase 1) and the surviving-candidate
//! frontier (phase 3) to a checkpoint directory, and on the next invocation
//! resumes from the last checkpoint instead of restarting.
//!
//! **File layout** (`.sfcp`, a sealed record, see `docs/FORMATS.md`):
//!
//! ```text
//! magic  b"SFCP"
//! version: u32 (= 1)
//! phase: u32 (1 = signatures, 3 = verify)
//! config_fingerprint: u32   CRC-32 of the pipeline-config JSON
//! n_rows: u32, n_cols: u32  the table the checkpoint belongs to
//! rows_done: u64            the row cursor
//! <phase-specific payload>  phase 1: builder tag, then the .sfmh/.sfkm body
//! crc32: u32                over everything after the magic
//! ```
//!
//! The header up to `n_cols` is the run-state header (`StateFormat`) every
//! run-state file (`.sfcp`, `.sfsp`, `.sfmf`) shares.
//!
//! A checkpoint is *advisory*: when loading fails for any reason — missing
//! file, corrupt bytes, a fingerprint from a different configuration or
//! table — the run silently starts from scratch. Damaged state can cost
//! time but never correctness. Files are written atomically (tmp + rename)
//! so a crash mid-write leaves the previous checkpoint intact, and they are
//! deleted when the run completes.
//!
//! [`Pipeline::run_resumable`]: crate::pipeline::Pipeline::run_resumable

use std::path::{Path, PathBuf};

use sfa_json::ToJson;
use sfa_matrix::crc32::crc32;
use sfa_matrix::record::{RecordReader, RecordWriter};
use sfa_matrix::{MatrixError, Result};
use sfa_minhash::persist::{
    read_bottom_k_body, read_signatures_body, write_bottom_k_body, write_signatures_body,
};
use sfa_minhash::{BottomKSignatures, CandidatePair, SignatureMatrix};

use crate::config::PipelineConfig;
use crate::verify::VerifyProgress;

const PHASE_SIGNATURES: u32 = 1;
const PHASE_VERIFY: u32 = 3;
const BUILDER_MH: u32 = 1;
const BUILDER_KMH: u32 = 2;

/// The `.sfcp` format: version 1, one record kind per phase.
const FORMAT: StateFormat = StateFormat {
    magic: *b"SFCP",
    version: 1,
    kinds: &[PHASE_SIGNATURES, PHASE_VERIFY],
};

/// Where and how often [`run_resumable`](crate::Pipeline::run_resumable)
/// checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding the checkpoint files (created if absent).
    pub dir: PathBuf,
    /// Persist state every this many processed rows. The final state of
    /// phase 1 is always persisted, so a phase-3 crash resumes without
    /// recomputing signatures.
    pub every_rows: u64,
}

impl CheckpointSpec {
    /// A spec checkpointing every 1024 rows into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_rows: 1024,
        }
    }

    /// Overrides the checkpoint cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every_rows == 0`.
    #[must_use]
    pub fn with_every_rows(mut self, every_rows: u64) -> Self {
        assert!(every_rows > 0, "checkpoint cadence must be positive");
        self.every_rows = every_rows;
        self
    }

    fn phase1_path(&self) -> PathBuf {
        self.dir.join("phase1.sfcp")
    }

    fn phase3_path(&self) -> PathBuf {
        self.dir.join("phase3.sfcp")
    }
}

/// Identifies one `(configuration, table)` combination; checkpoints from a
/// different run key are ignored rather than resumed into wrong state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunKey {
    pub(crate) fingerprint: u32,
    pub(crate) n_rows: u32,
    pub(crate) n_cols: u32,
}

impl RunKey {
    pub(crate) fn new(config: &PipelineConfig, n_rows: u32, n_cols: u32) -> Self {
        Self {
            fingerprint: crc32(config.to_json().to_string_compact().as_bytes()),
            n_rows,
            n_cols,
        }
    }
}

/// A run-state file format (`.sfcp`, `.sfsp`, `.sfmf`): a sealed record
/// whose fields open with the header `version | kind | fingerprint |
/// n_rows | n_cols`, the last three being the [`RunKey`]. The manifest
/// holds one kind of record and has no `kind` field.
#[derive(Debug)]
pub(crate) struct StateFormat {
    pub(crate) magic: [u8; 4],
    pub(crate) version: u32,
    /// The record kinds the format defines; empty when the header has no
    /// `kind` field.
    pub(crate) kinds: &'static [u32],
}

impl StateFormat {
    /// Starts a record of `kind` (`None` for a format without kinds) for
    /// the run `key`.
    pub(crate) fn record(&self, kind: Option<u32>, key: RunKey) -> RecordWriter {
        debug_assert_eq!(kind.is_some(), !self.kinds.is_empty());
        let mut w = RecordWriter::new(self.magic);
        w.u32(self.version);
        if let Some(kind) = kind {
            w.u32(kind);
        }
        w.u32(key.fingerprint).u32(key.n_rows).u32(key.n_cols);
        w
    }

    /// Opens a record of this format and reads its header: checks length,
    /// magic, trailer, version and kind. Returns a reader at the first
    /// payload field, the record's kind and its run key.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] or [`MatrixError::Checksum`] for the first
    /// check that fails.
    pub(crate) fn open<'a>(
        &self,
        bytes: &'a [u8],
    ) -> Result<(RecordReader<'a>, Option<u32>, RunKey)> {
        let mut r = RecordReader::open(bytes, self.magic)?;
        let bad = |at: u64, what: &str| MatrixError::Parse {
            at,
            detail: format!("unknown {} {what}", String::from_utf8_lossy(&self.magic)),
        };
        if r.u32()? != self.version {
            return Err(bad(4, "version"));
        }
        let kind = if self.kinds.is_empty() {
            None
        } else {
            let kind = r.u32()?;
            if !self.kinds.contains(&kind) {
                return Err(bad(8, "record kind"));
            }
            Some(kind)
        };
        let key = RunKey {
            fingerprint: r.u32()?,
            n_rows: r.u32()?,
            n_cols: r.u32()?,
        };
        Ok((r, kind, key))
    }
}

/// Partial phase-1 builder state at a row cursor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Phase1State {
    /// [`MhBuilder`](sfa_minhash::builder::MhBuilder) state: the partial
    /// `k × m` signature matrix.
    Mh {
        /// Rows folded in so far.
        rows_done: u64,
        /// The partial signatures.
        sigs: SignatureMatrix,
    },
    /// [`KmhBuilder`](sfa_minhash::builder::KmhBuilder) state: the partial
    /// bottom-k sketches and 1-counts.
    Kmh {
        /// Rows folded in so far.
        rows_done: u64,
        /// The partial sketches.
        sigs: BottomKSignatures,
    },
}

impl Phase1State {
    const fn rows_done(&self) -> u64 {
        match self {
            Self::Mh { rows_done, .. } | Self::Kmh { rows_done, .. } => *rows_done,
        }
    }
}

/// Phase-3 frontier: the verification counters at a row cursor, tied to the
/// exact candidate list via a fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Phase3State {
    /// Fingerprint of the candidate list being verified.
    pub cand_fingerprint: u32,
    /// The counters and cursor.
    pub progress: VerifyProgress,
}

/// Fingerprints a candidate list (order-sensitive: the checkpoint's
/// intersection counters are indexed by candidate position).
pub(crate) fn candidates_fingerprint(candidates: &[CandidatePair]) -> u32 {
    let mut bytes = Vec::with_capacity(candidates.len() * 16);
    for c in candidates {
        bytes.extend_from_slice(&c.i.to_le_bytes());
        bytes.extend_from_slice(&c.j.to_le_bytes());
        bytes.extend_from_slice(&c.estimate.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

// ---------------------------------------------------------------------------
// serialization

/// Opens a checkpoint image: the run-state header, then the row cursor
/// both phases start their payload with. Returns the reader at the rest of
/// the payload, the phase, the run key and the cursor.
fn open(bytes: &[u8]) -> Result<(RecordReader<'_>, Option<u32>, RunKey, u64)> {
    let (mut r, phase, key) = FORMAT.open(bytes)?;
    let rows_done = r.u64()?;
    Ok((r, phase, key, rows_done))
}

/// Loads the phase-`phase` checkpoint at `path` if it belongs to `key` and
/// `parse` accepts all of its payload after the row cursor. `None` means
/// "no usable checkpoint".
fn load<T>(
    path: &Path,
    phase: u32,
    key: RunKey,
    parse: impl FnOnce(u64, &mut RecordReader<'_>) -> Result<T>,
) -> Option<T> {
    let bytes = std::fs::read(path).ok()?;
    let (mut r, found, found_key, rows_done) = open(&bytes).ok()?;
    if found != Some(phase) || found_key != key {
        return None;
    }
    let state = parse(rows_done, &mut r).ok()?;
    r.finish().ok()?;
    Some(state)
}

/// Persists phase-1 builder state: the builder tag, then the sketch as
/// its `.sfmh`/`.sfkm` body.
pub(crate) fn save_phase1(spec: &CheckpointSpec, key: RunKey, state: &Phase1State) -> Result<()> {
    let mut w = FORMAT.record(Some(PHASE_SIGNATURES), key);
    w.u64(state.rows_done());
    match state {
        Phase1State::Mh { sigs, .. } => write_signatures_body(w.u32(BUILDER_MH), sigs),
        Phase1State::Kmh { sigs, .. } => write_bottom_k_body(w.u32(BUILDER_KMH), sigs),
    }
    crate::durable::write_atomic(&spec.phase1_path(), &w.seal())?;
    Ok(())
}

/// Loads phase-1 builder state, if a usable checkpoint exists.
pub(crate) fn load_phase1(spec: &CheckpointSpec, key: RunKey) -> Option<Phase1State> {
    load(
        &spec.phase1_path(),
        PHASE_SIGNATURES,
        key,
        |rows_done, r| {
            let at = r.offset();
            match r.u32()? {
                BUILDER_MH => Ok(Phase1State::Mh {
                    rows_done,
                    sigs: read_signatures_body(r)?,
                }),
                BUILDER_KMH => Ok(Phase1State::Kmh {
                    rows_done,
                    sigs: read_bottom_k_body(r)?,
                }),
                _ => Err(MatrixError::Parse {
                    at,
                    detail: "unknown builder tag".into(),
                }),
            }
        },
    )
}

/// Persists the phase-3 frontier.
pub(crate) fn save_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    cand_fingerprint: u32,
    progress: &VerifyProgress,
) -> Result<()> {
    let mut w = FORMAT.record(Some(PHASE_VERIFY), key);
    w.u64(progress.rows_done)
        .u32(cand_fingerprint)
        .u32_list(&progress.intersections)
        .u32_list(&progress.column_counts)
        .u64(progress.probes);
    crate::durable::write_atomic(&spec.phase3_path(), &w.seal())?;
    Ok(())
}

/// Loads the phase-3 frontier for the candidate list fingerprinted by
/// `cand_fingerprint`, if a usable checkpoint exists.
pub(crate) fn load_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    cand_fingerprint: u32,
) -> Option<Phase3State> {
    let state = load(&spec.phase3_path(), PHASE_VERIFY, key, |rows_done, r| {
        Ok(Phase3State {
            cand_fingerprint: r.u32()?,
            progress: VerifyProgress {
                rows_done,
                intersections: r.u32_list()?,
                column_counts: r.u32_list()?,
                probes: r.u64()?,
            },
        })
    })?;
    (state.cand_fingerprint == cand_fingerprint
        && state.progress.column_counts.len() == key.n_cols as usize)
        .then_some(state)
}

/// Whether `path` holds an intact checkpoint (either phase) belonging to
/// `key` — the startup-recovery test deciding keep vs quarantine.
pub(crate) fn valid_for(path: &Path, key: RunKey) -> bool {
    std::fs::read(path).is_ok_and(|bytes| open(&bytes).is_ok_and(|(_, _, k, _)| k == key))
}

/// Strictly validates the container format of a checkpoint file: magic,
/// minimum length, CRC-32 trailer, version, and phase tag. Run-key and
/// payload semantics are *not* checked — this answers "is the file
/// intact", not "does it belong to my run".
///
/// # Errors
///
/// [`MatrixError::Parse`] or [`MatrixError::Checksum`] describing the
/// first violation; any single-byte mutation or truncation of a valid
/// file is guaranteed to be rejected.
pub fn validate_file(path: &Path) -> Result<()> {
    open(&std::fs::read(path)?).map(|_| ())
}

/// Removes both checkpoint files and any stray `.sfcp.tmp` staging files
/// — called when a run completes, so stale state never leaks into the
/// next run.
pub(crate) fn clear(spec: &CheckpointSpec) -> Result<()> {
    let mut targets = vec![spec.phase1_path(), spec.phase3_path()];
    targets.extend(
        [spec.phase1_path(), spec.phase3_path()]
            .iter()
            .map(|p| p.with_extension("sfcp.tmp")),
    );
    for path in targets {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn spec(name: &str) -> CheckpointSpec {
        let dir = std::env::temp_dir().join("sfa_checkpoint_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        CheckpointSpec::new(dir)
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.7, 42),
            100,
            7,
        )
    }

    fn mh_state() -> Phase1State {
        Phase1State::Mh {
            rows_done: 64,
            sigs: SignatureMatrix::from_values(2, 3, vec![1, 2, 3, 4, 5, 6]),
        }
    }

    #[test]
    fn phase1_mh_roundtrips() {
        let spec = spec("mh_roundtrip");
        let state = mh_state();
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec).unwrap();
        assert_eq!(load_phase1(&spec, key()), None);
    }

    #[test]
    fn phase1_kmh_roundtrips() {
        let spec = spec("kmh_roundtrip");
        let state = Phase1State::Kmh {
            rows_done: 10,
            sigs: BottomKSignatures::from_parts(
                3,
                vec![vec![7, 9, 11], vec![], vec![5]],
                vec![4, 0, 2],
            ),
        };
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec).unwrap();
    }

    #[test]
    fn phase3_roundtrips_and_checks_fingerprint() {
        let spec = spec("phase3_roundtrip");
        let state = Phase3State {
            cand_fingerprint: 0xABCD,
            progress: VerifyProgress {
                rows_done: 30,
                intersections: vec![5, 2],
                column_counts: vec![9, 8, 7, 0, 0, 0, 1],
                probes: 77,
            },
        };
        save_phase3(&spec, key(), state.cand_fingerprint, &state.progress).unwrap();
        assert_eq!(load_phase3(&spec, key(), 0xABCD), Some(state));
        assert_eq!(
            load_phase3(&spec, key(), 0x1234),
            None,
            "a different candidate list must not resume"
        );
        clear(&spec).unwrap();
    }

    #[test]
    fn mismatched_run_key_is_ignored() {
        let spec = spec("key_mismatch");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let other_config = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 9, delta: 0.2 }, 0.7, 42),
            100,
            7,
        );
        let other_table = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.7, 42),
            101,
            7,
        );
        assert_eq!(load_phase1(&spec, other_config), None);
        assert_eq!(load_phase1(&spec, other_table), None);
        assert!(load_phase1(&spec, key()).is_some());
        clear(&spec).unwrap();
    }

    /// `scheme` with each of its parameters changed on its own.
    fn single_field_changes(scheme: Scheme) -> Vec<Scheme> {
        match scheme {
            Scheme::Mh { k, delta } => vec![
                Scheme::Mh { k: k + 1, delta },
                Scheme::Mh {
                    k,
                    delta: delta + 0.05,
                },
            ],
            Scheme::MhRowSort { k, delta } => vec![
                Scheme::MhRowSort { k: k + 1, delta },
                Scheme::MhRowSort {
                    k,
                    delta: delta + 0.05,
                },
            ],
            Scheme::Kmh { k, delta } => vec![
                Scheme::Kmh { k: k + 1, delta },
                Scheme::Kmh {
                    k,
                    delta: delta + 0.05,
                },
            ],
            Scheme::MLsh { k, r, l, sampled } => vec![
                Scheme::MLsh {
                    k: k + 1,
                    r,
                    l,
                    sampled,
                },
                Scheme::MLsh {
                    k,
                    r: r + 1,
                    l,
                    sampled,
                },
                Scheme::MLsh {
                    k,
                    r,
                    l: l + 1,
                    sampled,
                },
                Scheme::MLsh {
                    k,
                    r,
                    l,
                    sampled: !sampled,
                },
            ],
            Scheme::HLsh {
                r,
                l,
                t,
                max_levels,
            } => vec![
                Scheme::HLsh {
                    r: r + 1,
                    l,
                    t,
                    max_levels,
                },
                Scheme::HLsh {
                    r,
                    l: l + 1,
                    t,
                    max_levels,
                },
                Scheme::HLsh {
                    r,
                    l,
                    t: t + 1,
                    max_levels,
                },
                Scheme::HLsh {
                    r,
                    l,
                    t,
                    max_levels: max_levels + 1,
                },
            ],
        }
    }

    #[test]
    fn fingerprint_covers_every_config_field() {
        // A field the fingerprint missed would let a checkpoint resume
        // into a run with a different configuration.
        let fingerprint = |scheme, s_star, seed| {
            RunKey::new(&PipelineConfig::new(scheme, s_star, seed), 100, 7).fingerprint
        };
        let schemes = [
            Scheme::Mh { k: 64, delta: 0.2 },
            Scheme::MhRowSort { k: 64, delta: 0.2 },
            Scheme::Kmh { k: 64, delta: 0.2 },
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
        let mut seen = std::collections::HashSet::new();
        for scheme in schemes {
            let base = fingerprint(scheme, 0.7, 42);
            assert!(seen.insert(base), "{scheme:?} shares a fingerprint");
            for changed in single_field_changes(scheme) {
                assert_ne!(fingerprint(changed, 0.7, 42), base, "{changed:?}");
            }
            assert_ne!(fingerprint(scheme, 0.75, 42), base, "{scheme:?} s*");
            assert_ne!(fingerprint(scheme, 0.7, 43), base, "{scheme:?} seed");
        }
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_not_fatal() {
        let spec = spec("corrupt");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let path = spec.dir.join("phase1.sfcp");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_phase1(&spec, key()), None, "bit flip must disqualify");
        std::fs::write(&path, b"short").unwrap();
        assert_eq!(load_phase1(&spec, key()), None);
        clear(&spec).unwrap();
    }

    #[test]
    fn validate_file_checks_container_not_run_key() {
        let spec = spec("validate_file");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let path = spec.dir.join("phase1.sfcp");
        validate_file(&path).expect("intact file validates");
        assert!(valid_for(&path, key()));
        let other = RunKey {
            fingerprint: 0,
            n_rows: 1,
            n_cols: 2,
        };
        assert!(!valid_for(&path, other), "wrong key fails valid_for");
        validate_file(&path).expect("but the container is still intact");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(validate_file(&path).is_err(), "bit flip rejected");
        clear(&spec).unwrap();
    }

    #[test]
    fn clear_sweeps_stray_staging_files() {
        let spec = spec("clear_tmp");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let stray = spec.dir.join("phase1.sfcp.tmp");
        std::fs::write(&stray, b"half-written").unwrap();
        clear(&spec).unwrap();
        assert!(!stray.exists(), "clear must sweep .sfcp.tmp strays");
        assert!(!spec.dir.join("phase1.sfcp").exists());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = vec![CandidatePair::new(0, 1, 0.5), CandidatePair::new(1, 2, 0.7)];
        let b = vec![CandidatePair::new(1, 2, 0.7), CandidatePair::new(0, 1, 0.5)];
        assert_ne!(candidates_fingerprint(&a), candidates_fingerprint(&b));
        assert_eq!(
            candidates_fingerprint(&a),
            candidates_fingerprint(&a.clone())
        );
    }
}
