//! Sketch persistence.
//!
//! Signatures are the expensive phase — one full pass over the data — while
//! candidate generation is cheap and parameter-dependent. Persisting the
//! sketch lets a deployment compute it once (or keep it updated with
//! [`MhBuilder`](crate::builder::MhBuilder)) and re-mine at many thresholds
//! or band configurations without touching the table again.
//!
//! Formats (little-endian):
//!
//! * `.sfmh` — `b"SFM2"`, `k: u32`, `m: u32`, then `k·m` `u64` values
//!   (row-major), then a CRC-32 trailer, for [`SignatureMatrix`].
//! * `.sfkm` — `b"SFK2"`, `k: u32`, `m: u32`, then per column
//!   `count: u32`, `len: u32`, `len` ascending `u64` values, then a CRC-32
//!   trailer, for [`BottomKSignatures`].
//!
//! Both are sealed records ([`sfa_matrix::record`]): the trailing CRC-32
//! covers everything after the magic and is verified before any value is
//! trusted, so bit flips and truncation are rejected up front. Readers also
//! still accept the legacy checksum-less v1 layouts (magics
//! `b"SFMH"`/`b"SFKM"`, no trailer), which
//! [`write_signatures_v1`]/[`write_bottom_k_v1`] keep producible.
//!
//! Byte-exact layouts and the validation rules readers enforce are
//! specified in `docs/FORMATS.md` at the repository root.
//!
//! The [`encode_signatures`]/[`decode_signatures`] (and `_bottom_k`) pairs
//! expose the same formats as in-memory byte images, so callers that need
//! atomic or fault-injected IO (the signature cache) can route the bytes
//! through their own writer, and the `*_body` functions read and write the
//! fields after the magic, which a phase-1 checkpoint embeds after its own
//! header.

use std::path::Path;

use sfa_matrix::record::{RecordReader, RecordWriter};
use sfa_matrix::{MatrixError, Result};

use crate::kmh::BottomKSignatures;
use crate::signature::SignatureMatrix;

const MH_MAGIC: [u8; 4] = *b"SFMH";
const MH_MAGIC_V2: [u8; 4] = *b"SFM2";
const KMH_MAGIC: [u8; 4] = *b"SFKM";
const KMH_MAGIC_V2: [u8; 4] = *b"SFK2";

fn sfmh(magic: [u8; 4], sigs: &SignatureMatrix) -> RecordWriter {
    let mut w = RecordWriter::new(magic);
    write_signatures_body(&mut w, sigs);
    w
}

fn sfkm(magic: [u8; 4], sigs: &BottomKSignatures) -> RecordWriter {
    let mut w = RecordWriter::new(magic);
    write_bottom_k_body(&mut w, sigs);
    w
}

/// Encodes a [`SignatureMatrix`] as a checksummed v2 `.sfmh` byte image —
/// the exact bytes [`write_signatures`] puts on disk.
#[must_use]
pub fn encode_signatures(sigs: &SignatureMatrix) -> Vec<u8> {
    sfmh(MH_MAGIC_V2, sigs).seal()
}

/// Writes a [`SignatureMatrix`] to `path` in the checksummed v2 format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_signatures(sigs: &SignatureMatrix, path: &Path) -> Result<()> {
    std::fs::write(path, encode_signatures(sigs))?;
    Ok(())
}

/// Writes a [`SignatureMatrix`] in the legacy v1 format (no checksum), for
/// interoperating with pre-v2 readers and for compatibility tests.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_signatures_v1(sigs: &SignatureMatrix, path: &Path) -> Result<()> {
    std::fs::write(path, sfmh(MH_MAGIC, sigs).unsealed())?;
    Ok(())
}

/// Appends the `.sfmh` fields after the magic: `k`, `m`, then the `k·m`
/// values row-major.
pub fn write_signatures_body(w: &mut RecordWriter, sigs: &SignatureMatrix) {
    w.count(sigs.k()).count(sigs.m());
    for l in 0..sigs.k() {
        w.u64s(sigs.row(l));
    }
}

/// Reads the `.sfmh` fields after the magic, checking the declared `k·m`
/// against the bytes left before allocating.
///
/// # Errors
///
/// [`MatrixError::Parse`] if the record is too short for the declared
/// size.
pub fn read_signatures_body(r: &mut RecordReader<'_>) -> Result<SignatureMatrix> {
    let k = r.u32()?;
    let m = r.u32()?;
    let values = r.u64s(u64::from(k) * u64::from(m))?;
    Ok(SignatureMatrix::from_values(k as usize, m as usize, values))
}

/// Reads a [`SignatureMatrix`] from `path` (v1 `SFMH` or checksummed v2
/// `SFM2`).
///
/// # Errors
///
/// Fails on IO errors, a malformed header, a payload whose size disagrees
/// with the declared `k·m`, or (v2) a checksum mismatch.
pub fn read_signatures(path: &Path) -> Result<SignatureMatrix> {
    decode_signatures(&std::fs::read(path)?)
}

/// Decodes a [`SignatureMatrix`] from a v1/v2 byte image, with the same
/// validation as [`read_signatures`].
///
/// # Errors
///
/// As [`read_signatures`], minus the IO.
pub fn decode_signatures(bytes: &[u8]) -> Result<SignatureMatrix> {
    let mut r = RecordReader::open_or_legacy(bytes, MH_MAGIC_V2, Some(MH_MAGIC))?;
    let sigs = read_signatures_body(&mut r)?;
    r.finish()?;
    Ok(sigs)
}

/// Encodes [`BottomKSignatures`] as a checksummed v2 `.sfkm` byte image —
/// the exact bytes [`write_bottom_k`] puts on disk.
#[must_use]
pub fn encode_bottom_k(sigs: &BottomKSignatures) -> Vec<u8> {
    sfkm(KMH_MAGIC_V2, sigs).seal()
}

/// Writes [`BottomKSignatures`] to `path` in the checksummed v2 format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_bottom_k(sigs: &BottomKSignatures, path: &Path) -> Result<()> {
    std::fs::write(path, encode_bottom_k(sigs))?;
    Ok(())
}

/// Writes [`BottomKSignatures`] in the legacy v1 format (no checksum), for
/// interoperating with pre-v2 readers and for compatibility tests.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_bottom_k_v1(sigs: &BottomKSignatures, path: &Path) -> Result<()> {
    std::fs::write(path, sfkm(KMH_MAGIC, sigs).unsealed())?;
    Ok(())
}

/// Appends the `.sfkm` fields after the magic: `k`, `m`, then per column
/// its count, length and ascending values.
pub fn write_bottom_k_body(w: &mut RecordWriter, sigs: &BottomKSignatures) {
    w.count(sigs.k()).count(sigs.m());
    for j in 0..sigs.m() as u32 {
        let sig = sigs.signature(j);
        w.u32(sigs.column_count(j)).count(sig.len()).u64s(sig);
    }
}

/// Reads the `.sfkm` fields after the magic. Sizes are checked against the
/// bytes left before allocating, and every signature must hold at most `k`
/// strictly ascending values.
///
/// # Errors
///
/// [`MatrixError::Parse`], carrying the byte offset, for a size that does
/// not fit, a signature longer than `k` or one that is not ascending.
pub fn read_bottom_k_body(r: &mut RecordReader<'_>) -> Result<BottomKSignatures> {
    let k = r.u32()? as usize;
    let m = r.u32()?;
    // Each column record is at least 8 bytes.
    r.check_count(m.into(), 8)?;
    let mut sigs = Vec::with_capacity(m as usize);
    let mut counts = Vec::with_capacity(m as usize);
    for j in 0..m {
        counts.push(r.u32()?);
        let at = r.offset();
        let len = r.u32()?;
        if len as usize > k {
            return Err(MatrixError::Parse {
                at,
                detail: format!("column {j}: signature length {len} exceeds k = {k}"),
            });
        }
        let sig = r.u64s(len.into())?;
        if let Some(i) = sig.windows(2).position(|w| w[0] >= w[1]) {
            return Err(MatrixError::Parse {
                at: at + 4 + 8 * (i as u64 + 1),
                detail: format!("column {j}: signature not strictly ascending"),
            });
        }
        sigs.push(sig);
    }
    Ok(BottomKSignatures::from_parts(k, sigs, counts))
}

/// Reads [`BottomKSignatures`] from `path` (v1 `SFKM` or checksummed v2
/// `SFK2`).
///
/// # Errors
///
/// Fails on IO errors, malformed headers, invalid sketch contents
/// (signature longer than `k`, non-ascending values, size mismatches —
/// every error carries the byte offset), or (v2) a checksum mismatch.
pub fn read_bottom_k(path: &Path) -> Result<BottomKSignatures> {
    decode_bottom_k(&std::fs::read(path)?)
}

/// Decodes [`BottomKSignatures`] from a v1/v2 byte image, with the same
/// validation as [`read_bottom_k`].
///
/// # Errors
///
/// As [`read_bottom_k`], minus the IO.
pub fn decode_bottom_k(bytes: &[u8]) -> Result<BottomKSignatures> {
    let mut r = RecordReader::open_or_legacy(bytes, KMH_MAGIC_V2, Some(KMH_MAGIC))?;
    let sigs = read_bottom_k_body(&mut r)?;
    r.finish()?;
    Ok(sigs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_bottom_k, compute_signatures};
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![2, 3], vec![]],
        )
        .unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sfa_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn signature_matrix_roundtrips() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let p = tmp("sigs.sfmh");
        write_signatures(&sigs, &p).unwrap();
        assert_eq!(&std::fs::read(&p).unwrap()[0..4], b"SFM2");
        assert_eq!(read_signatures(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bottom_k_roundtrips() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let p = tmp("sigs.sfkm");
        write_bottom_k(&sigs, &p).unwrap();
        assert_eq!(&std::fs::read(&p).unwrap()[0..4], b"SFK2");
        assert_eq!(read_bottom_k(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn v1_sketches_still_load() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("legacy.sfmh");
        let pk = tmp("legacy.sfkm");
        write_signatures_v1(&mh, &pm).unwrap();
        write_bottom_k_v1(&kmh, &pk).unwrap();
        assert_eq!(&std::fs::read(&pm).unwrap()[0..4], b"SFMH");
        assert_eq!(&std::fs::read(&pk).unwrap()[0..4], b"SFKM");
        assert_eq!(read_signatures(&pm).unwrap(), mh);
        assert_eq!(read_bottom_k(&pk).unwrap(), kmh);
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn wrong_magic_rejected_both_ways() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 4, 1).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, 1).unwrap();
        let pm = tmp("cross.sfmh");
        let pk = tmp("cross.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        assert!(read_signatures(&pk).is_err());
        assert!(read_bottom_k(&pm).is_err());
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let p = tmp("truncated.sfmh");
        write_signatures(&sigs, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_signatures(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("flip.sfmh");
        let pk = tmp("flip.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        for p in [&pm, &pk] {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(p, &bytes).unwrap();
        }
        assert!(matches!(
            read_signatures(&pm),
            Err(MatrixError::Checksum { .. })
        ));
        assert!(matches!(
            read_bottom_k(&pk),
            Err(MatrixError::Checksum { .. })
        ));
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn v1_size_mismatch_is_rejected_before_allocation() {
        // A hostile v1 header declaring a huge k·m must be rejected from
        // the payload size alone, without attempting the allocation.
        let p = tmp("huge.sfmh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SFMH");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_signatures(&p),
            Err(MatrixError::Parse { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn encode_matches_writer_bytes_and_round_trips() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("enc.sfmh");
        let pk = tmp("enc.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        assert_eq!(encode_signatures(&mh), std::fs::read(&pm).unwrap());
        assert_eq!(encode_bottom_k(&kmh), std::fs::read(&pk).unwrap());
        assert_eq!(decode_signatures(&encode_signatures(&mh)).unwrap(), mh);
        assert_eq!(decode_bottom_k(&encode_bottom_k(&kmh)).unwrap(), kmh);
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn reloaded_sketch_mines_identically() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, 9).unwrap();
        let p = tmp("mine.sfkm");
        write_bottom_k(&sigs, &p).unwrap();
        let loaded = read_bottom_k(&p).unwrap();
        assert_eq!(
            crate::hashcount::kmh_candidates(&sigs, 0.4, 0.2),
            crate::hashcount::kmh_candidates(&loaded, 0.4, 0.2)
        );
        std::fs::remove_file(&p).ok();
    }
}
