//! Single-pass row streaming — the disk-resident table abstraction.
//!
//! The paper's setting is a table too large for main memory: phase 1
//! (signature computation) and phase 3 (candidate verification) each make
//! one sequential pass over the rows; phase 2 works on in-memory summaries
//! only. [`RowStream`] encodes that contract: consumers can only pull rows
//! forward, one at a time, into a caller-provided buffer, and must
//! [`reset`](RowStream::reset) to start another pass. Tests wrap streams in
//! [`ScanCounter`] to assert that an algorithm really used the number of
//! passes it claims.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use crate::crc32::Crc32;
use crate::csr::RowMajorMatrix;
use crate::error::{MatrixError, Result};

/// A single-pass, restartable scan over the rows of a 0/1 matrix.
///
/// Each call to [`read_row`](Self::read_row) fills `buf` with the strictly
/// ascending column ids of the next row and returns its row id, or `None`
/// at end of pass.
pub trait RowStream {
    /// Total number of rows `n`.
    fn n_rows(&self) -> u32;

    /// Total number of columns `m`.
    fn n_cols(&self) -> u32;

    /// Reads the next row into `buf`, returning its id, or `None` at end.
    ///
    /// `buf` is cleared first; on `None` it is left empty.
    ///
    /// # Errors
    ///
    /// Propagates IO/parse failures from the underlying source.
    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>>;

    /// Rewinds to the first row, beginning a new pass.
    ///
    /// # Errors
    ///
    /// Propagates IO failures (e.g. seek on a file-backed stream).
    fn reset(&mut self) -> Result<()>;

    /// Skips the next `count` rows without delivering them, returning how
    /// many were actually skipped (less than `count` only at end of pass).
    ///
    /// This is the fast-forward primitive behind checkpoint resume: a
    /// consumer that already processed a prefix of the pass jumps past it
    /// instead of re-reading. The default implementation reads and
    /// discards; seekable implementations override it to avoid delivering
    /// (and, for [`FileRowStream`], parsing) the skipped rows, and the
    /// counting wrapper [`ScanCounter`] deliberately does **not** count
    /// skipped rows as scan volume.
    ///
    /// # Errors
    ///
    /// Propagates IO/parse failures from the underlying source.
    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        let mut buf = Vec::new();
        let mut skipped = 0;
        while skipped < count {
            if self.read_row(&mut buf)?.is_none() {
                break;
            }
            skipped += 1;
        }
        Ok(skipped)
    }

    /// Drives a full pass, invoking `f(row_id, columns)` per row.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    fn for_each_row(&mut self, mut f: impl FnMut(u32, &[u32])) -> Result<()>
    where
        Self: Sized,
    {
        let mut buf = Vec::new();
        while let Some(id) = self.read_row(&mut buf)? {
            f(id, &buf);
        }
        Ok(())
    }
}

impl<S: RowStream + ?Sized> RowStream for &mut S {
    fn n_rows(&self) -> u32 {
        (**self).n_rows()
    }

    fn n_cols(&self) -> u32 {
        (**self).n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        (**self).read_row(buf)
    }

    fn reset(&mut self) -> Result<()> {
        (**self).reset()
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        (**self).skip_rows(count)
    }
}

/// In-memory stream over a [`RowMajorMatrix`].
#[derive(Debug)]
pub struct MemoryRowStream<'a> {
    matrix: &'a RowMajorMatrix,
    next: u32,
}

impl<'a> MemoryRowStream<'a> {
    /// Creates a stream positioned at the first row.
    #[must_use]
    pub fn new(matrix: &'a RowMajorMatrix) -> Self {
        Self { matrix, next: 0 }
    }
}

impl RowStream for MemoryRowStream<'_> {
    fn n_rows(&self) -> u32 {
        self.matrix.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.matrix.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        buf.clear();
        if self.next >= self.matrix.n_rows() {
            return Ok(None);
        }
        let id = self.next;
        buf.extend_from_slice(self.matrix.row(id));
        self.next += 1;
        Ok(Some(id))
    }

    fn reset(&mut self) -> Result<()> {
        self.next = 0;
        Ok(())
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        let remaining = u64::from(self.matrix.n_rows() - self.next);
        let skipped = count.min(remaining);
        self.next += u32::try_from(skipped).expect("bounded by n_rows");
        Ok(skipped)
    }
}

/// Magic bytes opening the v1 binary row file format (see [`crate::io`]).
pub(crate) const BINARY_MAGIC: [u8; 4] = *b"SFAB";

/// Magic bytes of the checksummed v2 binary row format: same row layout as
/// v1 but with a trailing CRC-32 over everything after the magic.
pub(crate) const BINARY_MAGIC_V2: [u8; 4] = *b"SFB2";

/// File-backed stream over the binary row format written by
/// [`io::write_binary`](crate::io::write_binary).
///
/// Reads sequentially through a `BufReader`; `reset` seeks back past the
/// header. This is the implementation used to demonstrate genuinely
/// out-of-core, single-pass operation.
///
/// Both format versions are accepted: v2 (`SFB2`) files carry a CRC-32
/// which [`open`](Self::open) verifies with one sequential scan before any
/// row is served, so bit flips and truncation surface as a
/// [`MatrixError::Checksum`]/[`MatrixError::Parse`] error up front rather
/// than as silently wrong rows mid-pass; legacy v1 (`SFAB`) files load
/// without that protection.
#[derive(Debug)]
pub struct FileRowStream {
    reader: BufReader<File>,
    n_rows: u32,
    n_cols: u32,
    next: u32,
    data_start: u64,
    /// Current byte offset in the file (for error reporting).
    offset: u64,
    /// First byte past the row payload (the CRC trailer for v2, EOF for v1).
    payload_end: u64,
    /// The encoded ids of the row being decoded, reused across rows.
    scratch: Vec<u8>,
}

impl FileRowStream {
    /// Opens a binary matrix file (v1 `SFAB` or checksummed v2 `SFB2`).
    ///
    /// For v2 files this verifies the CRC-32 — one extra sequential read of
    /// the file — before returning; corrupt or truncated files never yield
    /// a stream.
    ///
    /// # Errors
    ///
    /// Fails on IO errors, a malformed header, or (v2) a checksum mismatch.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; 12];
        reader
            .read_exact(&mut header)
            .map_err(|e| truncated(e, 0))?;
        let v2 = match &header[0..4] {
            m if *m == BINARY_MAGIC => false,
            m if *m == BINARY_MAGIC_V2 => true,
            _ => {
                return Err(MatrixError::Parse {
                    at: 0,
                    detail: "bad magic (not an SFAB/SFB2 file)".into(),
                })
            }
        };
        let n_rows = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let n_cols = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let payload_end = if v2 {
            if file_len < 16 {
                return Err(MatrixError::Parse {
                    at: file_len,
                    detail: "v2 file shorter than header + checksum trailer".into(),
                });
            }
            file_len - 4
        } else {
            file_len
        };
        let mut stream = Self {
            reader,
            n_rows,
            n_cols,
            next: 0,
            data_start: 12,
            offset: 12,
            payload_end,
            scratch: Vec::new(),
        };
        if v2 {
            stream.verify_checksum(&header[4..12])?;
            stream.reset()?;
        }
        Ok(stream)
    }

    /// Streams from the current position (just past the header) to the
    /// trailer, checking the CRC-32 over header fields + payload.
    fn verify_checksum(&mut self, header_tail: &[u8]) -> Result<()> {
        let mut crc = Crc32::new();
        crc.update(header_tail);
        let mut remaining = self.payload_end - self.data_start;
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let take = chunk
                .len()
                .min(usize::try_from(remaining).unwrap_or(chunk.len()));
            self.reader
                .read_exact(&mut chunk[..take])
                .map_err(|e| truncated(e, self.offset))?;
            crc.update(&chunk[..take]);
            self.offset += take as u64;
            remaining -= take as u64;
        }
        let mut trailer = [0u8; 4];
        self.reader
            .read_exact(&mut trailer)
            .map_err(|e| truncated(e, self.offset))?;
        let stored = u32::from_le_bytes(trailer);
        let computed = crc.finalize();
        if stored != computed {
            return Err(MatrixError::Checksum { stored, computed });
        }
        Ok(())
    }

    fn read_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.reader
            .read_exact(&mut b)
            .map_err(|e| truncated(e, self.offset))?;
        self.offset += 4;
        Ok(u32::from_le_bytes(b))
    }
}

/// Decodes one row's little-endian column ids from `bytes` into `buf`,
/// checking that they are in range and strictly ascending. `at` is the
/// file offset of `bytes[0]`, so an error names the offending id's offset.
fn decode_ids(bytes: &[u8], row: u32, n_cols: u32, at: u64, buf: &mut Vec<u32>) -> Result<()> {
    buf.extend(
        bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
    );
    let mut prev: Option<u32> = None;
    for (i, &c) in buf.iter().enumerate() {
        let detail = if c >= n_cols {
            format!("row {row}: column id {c} out of range ({n_cols} columns)")
        } else if prev.is_some_and(|p| p >= c) {
            format!("row {row} not strictly ascending")
        } else {
            prev = Some(c);
            continue;
        };
        return Err(MatrixError::Parse {
            at: at + 4 * i as u64,
            detail,
        });
    }
    Ok(())
}

/// Maps an `UnexpectedEof` from a fixed-size read to a parse error carrying
/// the byte offset where the data ran out.
fn truncated(e: std::io::Error, offset: u64) -> MatrixError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        MatrixError::Parse {
            at: offset,
            detail: "file truncated mid-record".into(),
        }
    } else {
        MatrixError::Io(e)
    }
}

impl RowStream for FileRowStream {
    fn n_rows(&self) -> u32 {
        self.n_rows
    }

    fn n_cols(&self) -> u32 {
        self.n_cols
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        buf.clear();
        if self.next >= self.n_rows {
            return Ok(None);
        }
        let id = self.next;
        let len_offset = self.offset;
        let len = self.read_u32()? as usize;
        // A row holds at most one entry per column, and its entries must
        // fit in the remaining payload; a larger declared length is
        // corruption — reject before reserving memory for it.
        let bytes_left = self.payload_end.saturating_sub(self.offset);
        if len > self.n_cols as usize || (len as u64) * 4 > bytes_left {
            return Err(MatrixError::Parse {
                at: len_offset,
                detail: format!(
                    "row {id} declares {len} entries ({} columns, {bytes_left} payload bytes left)",
                    self.n_cols
                ),
            });
        }
        // Read the row's ids with one call into the reused `scratch`, then
        // decode and check them there.
        let n_bytes = len * 4;
        self.scratch.resize(n_bytes, 0);
        self.reader
            .read_exact(&mut self.scratch)
            .map_err(|e| truncated(e, self.offset))?;
        decode_ids(&self.scratch, id, self.n_cols, self.offset, buf)?;
        self.offset += n_bytes as u64;
        self.next += 1;
        Ok(Some(id))
    }

    fn reset(&mut self) -> Result<()> {
        self.reader.seek(SeekFrom::Start(self.data_start))?;
        self.offset = self.data_start;
        self.next = 0;
        Ok(())
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        // Read each skipped row's length header, then seek past its ids —
        // sequential IO but no parsing and no delivery.
        let mut skipped = 0;
        while skipped < count {
            if self.next >= self.n_rows {
                break;
            }
            let len_offset = self.offset;
            let len = u64::from(self.read_u32()?);
            let bytes_left = self.payload_end.saturating_sub(self.offset);
            if len > u64::from(self.n_cols) || len * 4 > bytes_left {
                return Err(MatrixError::Parse {
                    at: len_offset,
                    detail: format!(
                        "row {} declares {len} entries ({} columns, {bytes_left} payload bytes left)",
                        self.next, self.n_cols
                    ),
                });
            }
            self.reader
                .seek_relative(i64::try_from(len * 4).expect("bounded by file size"))?;
            self.offset += len * 4;
            self.next += 1;
            skipped += 1;
        }
        Ok(skipped)
    }
}

/// Per-pass scan volume recorded by [`ScanCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassScan {
    /// Rows delivered in this pass.
    pub rows: u64,
    /// Total 1-entries (column ids) delivered in this pass.
    pub nonzeros: u64,
}

/// Wrapper recording, for every pass, how many rows and nonzeros the
/// consumer actually pulled — the data-volume side of the pipeline's
/// observability.
#[derive(Debug)]
pub struct ScanCounter<S> {
    inner: S,
    passes: Vec<PassScan>,
}

impl<S: RowStream> ScanCounter<S> {
    /// Wraps a stream, starting in pass 0.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            passes: vec![PassScan::default()],
        }
    }

    /// The per-pass scan volumes, in pass order (the last entry is the
    /// pass currently in progress).
    #[must_use]
    pub fn pass_scans(&self) -> &[PassScan] {
        &self.passes
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RowStream> RowStream for ScanCounter<S> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        let r = self.inner.read_row(buf)?;
        if r.is_some() {
            let current = self.passes.last_mut().expect("at least one pass");
            current.rows += 1;
            current.nonzeros += buf.len() as u64;
        }
        Ok(r)
    }

    fn reset(&mut self) -> Result<()> {
        self.inner.reset()?;
        self.passes.push(PassScan::default());
        Ok(())
    }

    fn skip_rows(&mut self, count: u64) -> Result<u64> {
        // Skipped rows deliver no data, so they add no scan volume.
        self.inner.skip_rows(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;

    fn sample() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(3, vec![vec![0, 1], vec![], vec![1, 2], vec![0]]).unwrap()
    }

    #[test]
    fn memory_stream_replays_rows() {
        let m = sample();
        let mut s = MemoryRowStream::new(&m);
        let mut buf = Vec::new();
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, vec![0, 1]);
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(1));
        assert!(buf.is_empty());
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(2));
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(3));
        assert_eq!(s.read_row(&mut buf).unwrap(), None);
        s.reset().unwrap();
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(0));
    }

    #[test]
    fn for_each_row_covers_all_rows() {
        let m = sample();
        let mut s = MemoryRowStream::new(&m);
        let mut seen = Vec::new();
        s.for_each_row(|id, cols| seen.push((id, cols.to_vec())))
            .unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[2], (2, vec![1, 2]));
    }

    #[test]
    fn file_stream_roundtrips() {
        let m = sample();
        let dir = std::env::temp_dir().join("sfa_matrix_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sfab");
        io::write_binary(&m, &path).unwrap();
        let mut s = FileRowStream::open(&path).unwrap();
        assert_eq!(s.n_rows(), 4);
        assert_eq!(s.n_cols(), 3);
        let mut rows = Vec::new();
        let mut buf = Vec::new();
        while let Some(id) = s.read_row(&mut buf).unwrap() {
            rows.push((id, buf.clone()));
        }
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, vec![0, 1]);
        assert_eq!(rows[1].1, Vec::<u32>::new());
        // reset and re-read:
        s.reset().unwrap();
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, vec![0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stream_rejects_bad_magic() {
        let dir = std::env::temp_dir().join("sfa_matrix_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sfab");
        std::fs::write(&path, b"NOPE00000000").unwrap();
        assert!(matches!(
            FileRowStream::open(&path),
            Err(MatrixError::Parse { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_counter_tracks_rows_and_nonzeros_per_pass() {
        let m = sample();
        let mut s = ScanCounter::new(MemoryRowStream::new(&m));
        let mut buf = Vec::new();
        while s.read_row(&mut buf).unwrap().is_some() {}
        assert_eq!(
            s.pass_scans(),
            &[PassScan {
                rows: 4,
                nonzeros: 5
            }]
        );
        s.reset().unwrap();
        // Partial second pass: stop after two rows.
        s.read_row(&mut buf).unwrap();
        s.read_row(&mut buf).unwrap();
        assert_eq!(
            s.pass_scans(),
            &[
                PassScan {
                    rows: 4,
                    nonzeros: 5
                },
                PassScan {
                    rows: 2,
                    nonzeros: 2
                },
            ]
        );
    }

    #[test]
    fn mut_ref_is_a_stream_too() {
        let m = sample();
        let mut s = MemoryRowStream::new(&m);
        let mut wrapper = ScanCounter::new(&mut s);
        let mut buf = Vec::new();
        while wrapper.read_row(&mut buf).unwrap().is_some() {}
        assert_eq!(wrapper.pass_scans()[0].rows, 4);
    }

    #[test]
    fn skip_rows_fast_forwards_without_counting() {
        let m = sample();
        let dir = std::env::temp_dir().join("sfa_matrix_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skip.sfab");
        io::write_binary(&m, &path).unwrap();
        for seekable in [true, false] {
            let mut buf = Vec::new();
            if seekable {
                let mut s = ScanCounter::new(FileRowStream::open(&path).unwrap());
                assert_eq!(s.skip_rows(2).unwrap(), 2);
                assert_eq!(s.read_row(&mut buf).unwrap(), Some(2));
                assert_eq!(buf, vec![1, 2]);
                assert_eq!(s.skip_rows(5).unwrap(), 1, "only one row left");
                assert_eq!(s.read_row(&mut buf).unwrap(), None);
                assert_eq!(s.pass_scans()[0].rows, 1, "skipped rows must not count");
            } else {
                let mut s = ScanCounter::new(MemoryRowStream::new(&m));
                assert_eq!(s.skip_rows(2).unwrap(), 2);
                assert_eq!(s.read_row(&mut buf).unwrap(), Some(2));
                assert_eq!(s.pass_scans()[0].rows, 1);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_file_detects_corruption_and_truncation() {
        let m = sample();
        let dir = std::env::temp_dir().join("sfa_matrix_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.sfab");
        io::write_binary(&m, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(&good[0..4], b"SFB2", "writer should emit v2");
        // Flip one payload byte: checksum must catch it.
        let mut bad = good.clone();
        bad[14] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            FileRowStream::open(&path),
            Err(MatrixError::Checksum { .. })
        ));
        // Truncate: either a parse error (mid-record) or checksum mismatch.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(FileRowStream::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_still_load() {
        let m = sample();
        let dir = std::env::temp_dir().join("sfa_matrix_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.sfab");
        io::write_binary_v1(&m, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..4], b"SFAB");
        let mut s = FileRowStream::open(&path).unwrap();
        let mut buf = Vec::new();
        assert_eq!(s.read_row(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, vec![0, 1]);
        std::fs::remove_file(&path).ok();
    }
}
