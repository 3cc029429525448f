//! Durable persistence of acknowledged `INGEST` rows.
//!
//! The server acknowledges ingests in memory and persists them in
//! batches: at every snapshot swap and — the guarantee the drain contract
//! rests on — at graceful shutdown. The log is one checksummed `.sfab`
//! table (`ingest.sfab`) rewritten in full through
//! [`sfa_core::durable::write_atomic`], so a crash mid-flush leaves
//! either the previous complete log or the new complete log, and a
//! lost-data fault leaves bytes that fail their CRC on reload. Restart
//! replays the log on top of the base table before serving.

use std::path::{Path, PathBuf};

use sfa_core::durable;
use sfa_matrix::{io, MatrixError, Result, RowMajorMatrix};

/// Name of the ingest log inside the state directory.
pub const INGEST_LOG: &str = "ingest.sfab";

/// The ingest log of one state directory.
#[derive(Debug, Clone)]
pub struct IngestLog {
    dir: PathBuf,
    n_cols: u32,
}

impl IngestLog {
    /// A log handle rooted at `dir` for a `n_cols`-column universe.
    /// Creates the directory if missing.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, n_cols: u32) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            n_cols,
        })
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(INGEST_LOG)
    }

    /// Replays the persisted rows, in ingest order. An absent log is an
    /// empty history; a corrupt or column-mismatched log is an error (the
    /// operator must move it aside rather than silently lose rows).
    ///
    /// # Errors
    ///
    /// Corrupt log (CRC/format) or a column-universe mismatch.
    pub fn replay(&self) -> Result<Vec<Vec<u32>>> {
        let path = self.log_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let matrix = io::read_binary(&path)?;
        if matrix.n_cols() != self.n_cols {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "ingest log has {} columns, the served table has {}",
                    matrix.n_cols(),
                    self.n_cols
                ),
            });
        }
        Ok(matrix.rows().map(|(_, cols)| cols.to_vec()).collect())
    }

    /// Durably replaces the log with the full ingested-row history.
    ///
    /// The rows are encoded in memory in the checksummed `.sfab` v2
    /// format and land in one write through the crash-consistent
    /// `write_atomic` discipline, honoring any `SFA_WRITE_FAULTS` plan.
    ///
    /// # Errors
    ///
    /// Any IO failure, real or injected; the destination is never torn.
    pub fn flush(&self, rows: &[Vec<u32>]) -> Result<()> {
        let matrix = RowMajorMatrix::from_rows(self.n_cols, rows.to_vec())?;
        let mut bytes = Vec::new();
        io::write_binary_to(&mut bytes, &matrix)?;
        durable::write_atomic(&self.log_path(), &bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sfa_serve_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn absent_log_replays_empty() {
        let log = IngestLog::open(&tmp("absent"), 4).unwrap();
        assert!(log.replay().unwrap().is_empty());
    }

    #[test]
    fn flush_then_replay_roundtrips() {
        let log = IngestLog::open(&tmp("roundtrip"), 5).unwrap();
        let rows = vec![vec![0, 2], vec![1, 3, 4], vec![]];
        log.flush(&rows).unwrap();
        assert_eq!(log.replay().unwrap(), rows);
        // A second flush replaces, not appends.
        let more = vec![vec![0], vec![4]];
        log.flush(&more).unwrap();
        assert_eq!(log.replay().unwrap(), more);
    }

    #[test]
    fn flushed_log_is_the_binary_table_writers_bytes() {
        let dir = tmp("bytes");
        let log = IngestLog::open(&dir, 6).unwrap();
        let rows = vec![vec![0, 5], vec![], vec![1, 2, 3]];
        log.flush(&rows).unwrap();
        let reference = dir.join("reference.sfab");
        io::write_binary(&RowMajorMatrix::from_rows(6, rows).unwrap(), &reference).unwrap();
        assert_eq!(
            std::fs::read(dir.join(INGEST_LOG)).unwrap(),
            std::fs::read(&reference).unwrap()
        );
        assert!(!dir.join("ingest.staging").exists());
    }

    #[test]
    fn corrupt_log_is_an_error_not_silent_loss() {
        let dir = tmp("corrupt");
        let log = IngestLog::open(&dir, 3).unwrap();
        log.flush(&[vec![0, 1]]).unwrap();
        let path = dir.join(INGEST_LOG);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert!(log.replay().is_err());
    }

    #[test]
    fn column_mismatch_is_rejected() {
        let dir = tmp("mismatch");
        let log = IngestLog::open(&dir, 3).unwrap();
        log.flush(&[vec![0, 2]]).unwrap();
        let reopened = IngestLog::open(&dir, 7).unwrap();
        assert!(reopened.replay().is_err());
    }
}
