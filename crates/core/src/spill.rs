//! Chunk spill files for out-of-core mining (`.sfsp`).
//!
//! [`Pipeline::run_sharded`](crate::Pipeline::run_sharded) walks the
//! candidate generator once, cuts its candidates into chunks whose verify
//! state fits the memory budget, and spills each verified chunk here, so a
//! killed run resumes without rescanning the table for finished chunks.
//! One record kind is written:
//!
//! * **group verify results** (`verify_group_<idx>.sfsp`) — one chunk's
//!   verified pairs, column counts and probe count, keyed by the
//!   fingerprint of the exact candidate list that was verified. A rerun
//!   regenerates the candidates from the resident summary (counting is
//!   cheap next to a table scan) and loads each chunk whose fingerprint
//!   matches.
//!
//! Version 1 files (which also held per-shard candidate lists) fail the
//! version check and are quarantined by the startup sweep.
//!
//! Like checkpoints (`docs/ROBUSTNESS.md`), spill files are **advisory**:
//! any load failure — missing file, bad magic/version/CRC, or a run-key,
//! shard, or fingerprint mismatch — means "regenerate", never a wrong
//! answer. Writes go through a temp file plus rename, and the byte layout
//! (documented in `docs/FORMATS.md`) is a sealed record opening with the
//! run-state header shared with checkpoints (`StateFormat`).

use std::path::{Path, PathBuf};

use sfa_matrix::record::RecordReader;
use sfa_matrix::Result;

use crate::checkpoint::{RunKey, StateFormat};
use crate::report::VerifiedPair;

/// Record kind: one verify group's results (kind 1, per-shard candidate
/// lists, was retired with version 1).
const KIND_GROUP_RESULT: u32 = 2;

/// The `.sfsp` format (version 2: chunked verify results only).
const FORMAT: StateFormat = StateFormat {
    magic: *b"SFSP",
    version: 2,
    kinds: &[KIND_GROUP_RESULT],
};

/// Path of verify group `idx` inside `dir`.
pub(crate) fn group_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("verify_group_{idx}.sfsp"))
}

/// Persists one verify group's results — its verified pairs, the full
/// column-count vector, and the probe count — keyed by `cand_fingerprint`
/// (the [`crate::checkpoint::candidates_fingerprint`] of the exact
/// candidate list that was verified). Returns the file size in bytes.
pub(crate) fn save_group_result(
    dir: &Path,
    key: RunKey,
    group_idx: usize,
    cand_fingerprint: u32,
    verified: &[VerifiedPair],
    column_counts: &[u32],
    probes: u64,
) -> Result<u64> {
    let mut w = FORMAT.record(Some(KIND_GROUP_RESULT), key);
    w.u32(cand_fingerprint).count(verified.len());
    for v in verified {
        w.u32(v.i)
            .u32(v.j)
            .u32(v.intersection)
            .u32(v.union)
            .u64(v.similarity.to_bits())
            .u64(v.estimate.to_bits());
    }
    w.u32_list(column_counts).u64(probes);
    crate::durable::write_atomic(&group_path(dir, group_idx), &w.seal())
}

/// Loads a verify group's results, if a valid spill for exactly this
/// `(run key, group index, candidate fingerprint)` exists.
pub(crate) fn load_group_result(
    dir: &Path,
    key: RunKey,
    group_idx: usize,
    cand_fingerprint: u32,
) -> Option<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let bytes = std::fs::read(group_path(dir, group_idx)).ok()?;
    let (mut r, _, found) = FORMAT.open(&bytes).ok()?;
    if found != key || r.u32().ok()? != cand_fingerprint {
        return None;
    }
    let parse = |r: &mut RecordReader<'_>| -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
        let n = r.u32()?;
        r.check_count(n.into(), 32)?;
        let verified = (0..n)
            .map(|_| {
                Ok(VerifiedPair {
                    i: r.u32()?,
                    j: r.u32()?,
                    intersection: r.u32()?,
                    union: r.u32()?,
                    similarity: f64::from_bits(r.u64()?),
                    estimate: f64::from_bits(r.u64()?),
                })
            })
            .collect::<Result<_>>()?;
        let column_counts = r.u32_list()?;
        let probes = r.u64()?;
        r.finish()?;
        Ok((verified, column_counts, probes))
    };
    parse(&mut r)
        .ok()
        .filter(|(_, counts, _)| counts.len() == key.n_cols as usize)
}

/// Whether `path` holds an intact spill record belonging to `key` — the
/// startup-recovery test deciding keep vs quarantine.
pub(crate) fn valid_for(path: &Path, key: RunKey) -> bool {
    std::fs::read(path).is_ok_and(|bytes| FORMAT.open(&bytes).is_ok_and(|(_, _, k)| k == key))
}

/// Strictly validates the container format of a spill file: magic,
/// minimum length, CRC-32 trailer, version, and record kind. Run-key and
/// payload semantics are *not* checked — this answers "is the file
/// intact", not "does it belong to my run".
///
/// # Errors
///
/// [`MatrixError::Parse`](sfa_matrix::MatrixError::Parse) or
/// [`MatrixError::Checksum`](sfa_matrix::MatrixError::Checksum)
/// describing the first violation; any single-byte mutation or truncation
/// of a valid file is guaranteed to be rejected.
pub fn validate_file(path: &Path) -> Result<()> {
    FORMAT.open(&std::fs::read(path)?).map(|_| ())
}

/// Removes every spill file (`*.sfsp`, plus stray `*.sfsp.tmp`) in `dir`,
/// tolerating files that vanish concurrently.
pub(crate) fn clear(dir: &Path) -> Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".sfsp") || name.ends_with(".sfsp.tmp") {
            match std::fs::remove_file(entry.path()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use sfa_matrix::crc32::crc32;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sfa-spill-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create test dir");
        d
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 7),
            100,
            50,
        )
    }

    #[test]
    fn group_result_round_trip() {
        let d = dir("group-rt");
        let verified = vec![VerifiedPair {
            i: 0,
            j: 3,
            intersection: 5,
            union: 9,
            similarity: 5.0 / 9.0,
            estimate: 0.75,
        }];
        let counts: Vec<u32> = (0..50).collect();
        save_group_result(&d, key(), 2, 0xdead_beef, &verified, &counts, 123).expect("save");
        let (v, c, probes) = load_group_result(&d, key(), 2, 0xdead_beef).expect("load");
        assert_eq!(v, verified);
        assert_eq!(c, counts);
        assert_eq!(probes, 123);
        // A different candidate fingerprint must not resume this group.
        assert!(load_group_result(&d, key(), 2, 0xdead_beee).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wrong_run_key_and_corruption_are_ignored() {
        let d = dir("wrong-key");
        save_group_result(&d, key(), 0, 7, &[], &[0; 50], 3).expect("save");
        let other = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 9, delta: 0.2 }, 0.5, 7),
            100,
            50,
        );
        assert!(load_group_result(&d, other, 0, 7).is_none());
        let path = group_path(&d, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        assert!(load_group_result(&d, key(), 0, 7).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn validate_file_checks_container_not_run_key() {
        let d = dir("validate-file");
        save_group_result(&d, key(), 0, 7, &[], &[0; 50], 3).expect("save");
        let path = group_path(&d, 0);
        validate_file(&path).expect("intact file validates");
        assert!(valid_for(&path, key()));
        let other = RunKey {
            fingerprint: 0,
            n_rows: 1,
            n_cols: 2,
        };
        assert!(!valid_for(&path, other), "wrong key fails valid_for");
        validate_file(&path).expect("but the container is still intact");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        assert!(validate_file(&path).is_err(), "trailer flip rejected");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn version_1_files_are_rejected() {
        let d = dir("version-1");
        save_group_result(&d, key(), 0, 7, &[], &[0; 50], 3).expect("save");
        let path = group_path(&d, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[4..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(
            validate_file(&path).is_err(),
            "a v1 container is not current"
        );
        assert!(
            !valid_for(&path, key()),
            "so the startup sweep quarantines it"
        );
        assert!(load_group_result(&d, key(), 0, 7).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn clear_removes_only_spill_files() {
        let d = dir("clear");
        save_group_result(&d, key(), 0, 1, &[], &[0; 50], 0).expect("save");
        let keep = d.join("keep.txt");
        std::fs::write(&keep, b"x").expect("write");
        clear(&d).expect("clear");
        assert!(keep.exists());
        assert!(load_group_result(&d, key(), 0, 1).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }
}
