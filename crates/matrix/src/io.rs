//! Matrix serialization: a human-readable text format and a compact binary
//! format suitable for out-of-core streaming.
//!
//! **Text format** (`.sfat`):
//!
//! ```text
//! SFAT <n_rows> <n_cols>
//! <row 0: space-separated ascending column ids, possibly empty>
//! <row 1: …>
//! ```
//!
//! **Binary format** (`.sfab`): the 12-byte header `b"SFB2"`, `n_rows: u32
//! LE`, `n_cols: u32 LE`, followed per row by `len: u32 LE` and `len`
//! ascending `u32 LE` column ids, and a trailing CRC-32 (see
//! [`crate::crc32`]) over everything after the magic.
//! [`FileRowStream`](crate::stream::FileRowStream) reads this format
//! sequentially without loading it into memory; it also still accepts the
//! checksum-less v1 layout (magic `b"SFAB"`, no trailer) that
//! [`write_binary_v1`] emits.
//!
//! Both layouts are specified byte-for-byte in `docs/FORMATS.md` at the
//! repository root, alongside the sketch formats from `sfa-minhash`.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::crc32::CrcWriter;
use crate::csr::RowMajorMatrix;
use crate::error::{MatrixError, Result};
use crate::stream::{BINARY_MAGIC, BINARY_MAGIC_V2};

/// Writes a matrix in the text format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_text(matrix: &RowMajorMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "SFAT {} {}", matrix.n_rows(), matrix.n_cols())?;
    for (_, cols) in matrix.rows() {
        let mut first = true;
        for &c in cols {
            if first {
                write!(w, "{c}")?;
                first = false;
            } else {
                write!(w, " {c}")?;
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a matrix in the text format.
///
/// # Errors
///
/// Fails on IO errors, malformed headers, non-numeric tokens, unsorted rows
/// or out-of-range column ids.
pub fn read_text(path: &Path) -> Result<RowMajorMatrix> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines.next().ok_or(MatrixError::Parse {
        at: 1,
        detail: "empty file".into(),
    })??;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("SFAT") {
        return Err(MatrixError::Parse {
            at: 1,
            detail: "missing SFAT header".into(),
        });
    }
    let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32> {
        tok.ok_or_else(|| MatrixError::Parse {
            at: 1,
            detail: format!("missing {what}"),
        })?
        .parse::<u32>()
        .map_err(|e| MatrixError::Parse {
            at: 1,
            detail: format!("bad {what}: {e}"),
        })
    };
    let n_rows = parse_u32(parts.next(), "n_rows")?;
    let n_cols = parse_u32(parts.next(), "n_cols")?;
    // The header is untrusted: cap the preallocation so a hostile
    // `n_rows` cannot trigger a huge up-front reservation.
    let mut rows = Vec::with_capacity((n_rows as usize).min(1 << 16));
    for (i, line) in lines.enumerate() {
        let line = line?;
        let lineno = i as u64 + 2;
        let mut row = Vec::new();
        for tok in line.split_whitespace() {
            let c: u32 = tok.parse().map_err(|e| MatrixError::Parse {
                at: lineno,
                detail: format!("bad column id {tok:?}: {e}"),
            })?;
            row.push(c);
        }
        rows.push(row);
    }
    if rows.len() != n_rows as usize {
        return Err(MatrixError::DimensionMismatch {
            detail: format!("header says {n_rows} rows, file has {}", rows.len()),
        });
    }
    RowMajorMatrix::from_rows(n_cols, rows)
}

/// Writes a matrix in the checksummed v2 binary format readable by
/// [`FileRowStream`](crate::stream::FileRowStream).
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_binary(matrix: &RowMajorMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_binary_to(&mut w, matrix)?;
    w.flush()?;
    Ok(())
}

/// Writes the bytes [`write_binary`] puts on disk — magic, body, CRC-32
/// trailer — to any writer, e.g. a buffer its caller writes atomically.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_binary_to(w: &mut impl Write, matrix: &RowMajorMatrix) -> Result<()> {
    let mut w = CrcWriter::new(w);
    w.get_mut().write_all(&BINARY_MAGIC_V2)?;
    write_binary_body(&mut w, matrix)?;
    let crc = w.digest();
    w.get_mut().write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// Writes a matrix in the legacy v1 binary format (no checksum).
///
/// Kept so compatibility tests (and deployments that must interoperate
/// with pre-v2 readers) can still produce v1 files; new code should use
/// [`write_binary`].
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_binary_v1(matrix: &RowMajorMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&BINARY_MAGIC)?;
    write_binary_body(&mut w, matrix)?;
    w.flush()?;
    Ok(())
}

/// The header fields and row payload shared by both format versions.
///
/// Each row is encoded into one buffer and handed over in one `write_all`,
/// so a wrapping [`CrcWriter`] checksums whole rows, not 4-byte words.
fn write_binary_body(w: &mut impl Write, matrix: &RowMajorMatrix) -> Result<()> {
    w.write_all(&matrix.n_rows().to_le_bytes())?;
    w.write_all(&matrix.n_cols().to_le_bytes())?;
    let mut row_bytes = Vec::new();
    for (_, cols) in matrix.rows() {
        let len = u32::try_from(cols.len()).map_err(|_| MatrixError::DimensionMismatch {
            detail: "row longer than u32::MAX".into(),
        })?;
        row_bytes.clear();
        row_bytes.extend_from_slice(&len.to_le_bytes());
        for &c in cols {
            row_bytes.extend_from_slice(&c.to_le_bytes());
        }
        w.write_all(&row_bytes)?;
    }
    Ok(())
}

/// Reads a binary matrix fully into memory (for tests and small data; large
/// data should use [`FileRowStream`](crate::stream::FileRowStream) instead).
///
/// # Errors
///
/// Fails on IO or format errors.
pub fn read_binary(path: &Path) -> Result<RowMajorMatrix> {
    let mut stream = crate::stream::FileRowStream::open(path)?;
    RowMajorMatrix::from_stream(&mut stream, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(5, vec![vec![0, 4], vec![], vec![1, 2, 3], vec![2]]).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sfa_matrix_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        let p = tmp("roundtrip.sfat");
        write_text(&m, &p).unwrap();
        let back = read_text(&p).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn binary_roundtrip() {
        let m = sample();
        let p = tmp("roundtrip.sfab");
        write_binary(&m, &p).unwrap();
        let back = read_binary(&p).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_format_is_humane() {
        let m = sample();
        let p = tmp("humane.sfat");
        write_text(&m, &p).unwrap();
        let contents = std::fs::read_to_string(&p).unwrap();
        assert!(contents.starts_with("SFAT 4 5\n"));
        assert!(contents.contains("1 2 3"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_rejects_bad_header() {
        let p = tmp("bad_header.sfat");
        std::fs::write(&p, "WRONG 1 1\n\n").unwrap();
        assert!(matches!(read_text(&p), Err(MatrixError::Parse { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_rejects_row_count_mismatch() {
        let p = tmp("mismatch.sfat");
        std::fs::write(&p, "SFAT 3 2\n0\n").unwrap();
        assert!(matches!(
            read_text(&p),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_rejects_non_numeric() {
        let p = tmp("nonnum.sfat");
        std::fs::write(&p, "SFAT 1 2\n0 x\n").unwrap();
        assert!(matches!(read_text(&p), Err(MatrixError::Parse { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_rejects_out_of_range_column() {
        let p = tmp("oob.sfat");
        std::fs::write(&p, "SFAT 1 2\n0 5\n").unwrap();
        assert!(read_text(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = RowMajorMatrix::from_rows(3, vec![]).unwrap();
        let pt = tmp("empty.sfat");
        let pb = tmp("empty.sfab");
        write_text(&m, &pt).unwrap();
        write_binary(&m, &pb).unwrap();
        assert_eq!(read_text(&pt).unwrap(), m);
        assert_eq!(read_binary(&pb).unwrap(), m);
        std::fs::remove_file(&pt).ok();
        std::fs::remove_file(&pb).ok();
    }
}
