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
//! (documented in `docs/FORMATS.md`) follows the v2 format family: LE
//! fields back-to-back behind a 4-byte magic, CRC-32 trailer over
//! everything after the magic, sizes validated before allocation.

use std::path::{Path, PathBuf};

use sfa_matrix::crc32::crc32;
use sfa_matrix::{MatrixError, Result};

use crate::checkpoint::RunKey;
use crate::report::VerifiedPair;

/// Magic for spill files.
const MAGIC: [u8; 4] = *b"SFSP";
/// Format version (2: chunked verify results only).
const VERSION: u32 = 2;
/// Record kind: one verify group's results (kind 1, per-shard candidate
/// lists, was retired with version 1).
const KIND_GROUP_RESULT: u32 = 2;

/// Path of verify group `idx` inside `dir`.
pub(crate) fn group_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("verify_group_{idx}.sfsp"))
}

struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn new(kind: u32, key: RunKey) -> Self {
        let mut w = Self { bytes: Vec::new() };
        w.bytes.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u32(kind);
        w.u32(key.fingerprint);
        w.u32(key.n_rows);
        w.u32(key.n_cols);
        w
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends the CRC trailer and durably replaces `path` (tmp + fsync +
    /// rename + parent-dir fsync, via [`crate::durable::write_atomic`]);
    /// returns the file size in bytes.
    fn commit(mut self, path: &Path) -> Result<u64> {
        let crc = crc32(&self.bytes[4..]);
        self.u32(crc);
        crate::durable::write_atomic(path, &self.bytes)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(MatrixError::Parse {
                at: self.pos as u64,
                detail: "spill file truncated".into(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(MatrixError::Parse {
                at: self.pos as u64,
                detail: "trailing bytes in spill file".into(),
            });
        }
        Ok(())
    }
}

/// Loads `path`, verifies magic/version/CRC and the run key, and returns
/// the validated image. `None` means "no usable spill file".
fn open(path: &Path, kind: u32, key: RunKey) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 28 || bytes[0..4] != MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(&bytes[4..bytes.len() - 4]) != stored {
        return None;
    }
    let mut r = Reader {
        bytes: &bytes[..bytes.len() - 4],
        pos: 4,
    };
    let header_ok = (|| -> Result<bool> {
        Ok(r.u32()? == VERSION
            && r.u32()? == kind
            && r.u32()? == key.fingerprint
            && r.u32()? == key.n_rows
            && r.u32()? == key.n_cols)
    })()
    .unwrap_or(false);
    if !header_ok {
        return None;
    }
    Some(bytes)
}

/// A payload reader positioned just past the common header (offset 24) of
/// a validated spill image.
fn payload(bytes: &[u8]) -> Reader<'_> {
    Reader {
        bytes: &bytes[..bytes.len() - 4],
        pos: 24,
    }
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
    let mut w = Writer::new(KIND_GROUP_RESULT, key);
    w.u32(cand_fingerprint);
    w.u32(u32::try_from(verified.len()).expect("verified count fits u32"));
    for v in verified {
        w.u32(v.i);
        w.u32(v.j);
        w.u32(v.intersection);
        w.u32(v.union);
        w.u64(v.similarity.to_bits());
        w.u64(v.estimate.to_bits());
    }
    w.u32(u32::try_from(column_counts.len()).expect("column count fits u32"));
    for &c in column_counts {
        w.u32(c);
    }
    w.u64(probes);
    w.commit(&group_path(dir, group_idx))
}

/// Loads a verify group's results, if a valid spill for exactly this
/// `(run key, group index, candidate fingerprint)` exists.
pub(crate) fn load_group_result(
    dir: &Path,
    key: RunKey,
    group_idx: usize,
    cand_fingerprint: u32,
) -> Option<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let bytes = open(&group_path(dir, group_idx), KIND_GROUP_RESULT, key)?;
    let parse = |r: &mut Reader<'_>| -> Result<(Vec<VerifiedPair>, Vec<u32>, u64)> {
        let bad = |detail: &str, at: u64| MatrixError::Parse {
            at,
            detail: detail.into(),
        };
        if r.u32()? != cand_fingerprint {
            return Err(bad("spill group fingerprint mismatch", 24));
        }
        let n = r.u32()? as usize;
        if r.remaining() < n.saturating_mul(32) {
            return Err(bad("spill record count exceeds payload", r.pos as u64));
        }
        let mut verified = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.u32()?;
            let j = r.u32()?;
            let intersection = r.u32()?;
            let union = r.u32()?;
            let similarity = f64::from_bits(r.u64()?);
            let estimate = f64::from_bits(r.u64()?);
            verified.push(VerifiedPair {
                i,
                j,
                intersection,
                union,
                similarity,
                estimate,
            });
        }
        let m = r.u32()? as usize;
        if m != key.n_cols as usize {
            return Err(bad("spill column-count length mismatch", r.pos as u64));
        }
        if r.remaining() < m.saturating_mul(4) {
            return Err(bad("spill column counts exceed payload", r.pos as u64));
        }
        let mut column_counts = Vec::with_capacity(m);
        for _ in 0..m {
            column_counts.push(r.u32()?);
        }
        let probes = r.u64()?;
        r.done()?;
        Ok((verified, column_counts, probes))
    };
    parse(&mut payload(&bytes)).ok()
}

/// Whether `path` holds an intact spill record belonging to `key` — the
/// startup-recovery test deciding keep vs quarantine.
pub(crate) fn valid_for(path: &Path, key: RunKey) -> bool {
    open(path, KIND_GROUP_RESULT, key).is_some()
}

/// Strictly validates the container format of a spill file: magic,
/// minimum length, CRC-32 trailer, version, and record kind. Run-key and
/// payload semantics are *not* checked — this answers "is the file
/// intact", not "does it belong to my run".
///
/// # Errors
///
/// [`MatrixError::Parse`] or [`MatrixError::Checksum`] describing the
/// first violation; any single-byte mutation or truncation of a valid
/// file is guaranteed to be rejected.
pub fn validate_file(path: &Path) -> Result<()> {
    let bytes = std::fs::read(path)?;
    let bad = |at: usize, detail: &str| MatrixError::Parse {
        at: at as u64,
        detail: detail.into(),
    };
    if bytes.len() < 28 {
        return Err(bad(bytes.len(), "spill file shorter than its header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(bad(0, "bad spill magic"));
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[4..bytes.len() - 4]);
    if stored != computed {
        return Err(MatrixError::Checksum { stored, computed });
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    if u32_at(4) != VERSION {
        return Err(bad(4, "unknown spill version"));
    }
    if u32_at(8) != KIND_GROUP_RESULT {
        return Err(bad(8, "unknown spill record kind"));
    }
    Ok(())
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
