//! Sealed records: the one layout every checksummed sketch and run-state
//! file shares (`.sfmh`, `.sfkm`, `.sfcp`, `.sfsp`, `.sfmf`).
//!
//! A sealed record is a 4-byte magic, little-endian `u32`/`u64` fields
//! back to back, and a CRC-32 trailer (see [`crate::crc32`]) over
//! everything after the magic; `docs/FORMATS.md` gives each format's
//! fields. [`RecordWriter`] assembles a record in memory, and
//! [`RecordReader::open`] checks its length, magic and trailer before any
//! field is trusted, then hands out bounds-checked fields. Every error
//! carries the byte offset where the record went wrong, and the vector
//! reads check a declared count against the bytes left before they
//! allocate, so a corrupt count cannot drive a huge reservation.
//!
//! The `.sfab` table shares the layout but is streamed a row at a time by
//! [`FileRowStream`](crate::FileRowStream) and never held whole, so it
//! keeps its own reader.

use crate::crc32::crc32;
use crate::error::{MatrixError, Result};

/// Assembles a sealed record in memory.
#[derive(Debug, Clone)]
pub struct RecordWriter {
    bytes: Vec<u8>,
}

impl RecordWriter {
    /// Starts a record with `magic`.
    #[must_use]
    pub fn new(magic: [u8; 4]) -> Self {
        Self {
            bytes: magic.to_vec(),
        }
    }

    /// Appends a `u32` field.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length or count as a `u32` field.
    ///
    /// # Panics
    ///
    /// Panics if `n > u32::MAX`.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32::try_from(n).expect("count fits u32"))
    }

    /// Appends `u64` fields back to back.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.bytes.reserve(vs.len() * 8);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    /// Appends `vs.len()` as a `u32` field, then the values as `u32`
    /// fields.
    ///
    /// # Panics
    ///
    /// Panics if `vs.len() > u32::MAX`.
    pub fn u32_list(&mut self, vs: &[u32]) -> &mut Self {
        self.count(vs.len());
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.u32(v);
        }
        self
    }

    /// Seals the record: appends the CRC-32 of everything after the magic.
    #[must_use]
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.bytes[4..]);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.bytes
    }

    /// The record without a trailer: the legacy v1 sketch layout.
    #[must_use]
    pub fn unsealed(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads the fields of a record whose magic and trailer have been
/// checked, front to back.
#[derive(Debug)]
pub struct RecordReader<'a> {
    /// The record without its trailer.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Opens the sealed record `bytes`: checks that it holds a magic and a
    /// trailer, that the magic is `magic`, and that the trailer is the
    /// CRC-32 of everything between them. The reader starts at the first
    /// field.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] for a short image or a wrong magic,
    /// [`MatrixError::Checksum`] for a trailer that does not match.
    pub fn open(bytes: &'a [u8], magic: [u8; 4]) -> Result<Self> {
        Self::open_or_legacy(bytes, magic, None)
    }

    /// As [`open`](Self::open), but a record that starts with `legacy`
    /// instead is read unsealed: its fields run to the end of `bytes`,
    /// with no trailer (the v1 sketch layout).
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_or_legacy(
        bytes: &'a [u8],
        magic: [u8; 4],
        legacy: Option<[u8; 4]>,
    ) -> Result<Self> {
        let parse = |at: usize, detail: String| MatrixError::Parse {
            at: at as u64,
            detail,
        };
        let name = |m: [u8; 4]| String::from_utf8_lossy(&m).into_owned();
        let Some(head) = bytes.get(..4) else {
            return Err(parse(bytes.len(), "file too short for a magic".into()));
        };
        if legacy.is_some_and(|l| head == l) {
            return Ok(Self { bytes, pos: 4 });
        }
        if head != magic {
            let expected = match legacy {
                Some(l) => format!("{} or {}", name(magic), name(l)),
                None => name(magic),
            };
            return Err(parse(0, format!("bad magic (expected {expected})")));
        }
        if bytes.len() < 8 {
            return Err(parse(
                bytes.len(),
                "file shorter than magic + checksum trailer".into(),
            ));
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[4..body_end]);
        if stored != computed {
            return Err(MatrixError::Checksum { stored, computed });
        }
        Ok(Self {
            bytes: &bytes[..body_end],
            pos: 4,
        })
    }

    /// Byte offset of the next field in the file.
    #[must_use]
    pub const fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes left before the trailer.
    const fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!(
                    "file truncated: needed {n} bytes, {} left",
                    self.remaining()
                ),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u32` field.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if fewer than 4 bytes are left.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` field.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if fewer than 8 bytes are left.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Checks that `count` items of at least `width` bytes each fit in the
    /// bytes left; call it before allocating for items read one by one.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if they do not fit.
    pub fn check_count(&self, count: u64, width: u64) -> Result<()> {
        if u128::from(count) * u128::from(width) > self.remaining() as u128 {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!(
                    "{count} declared items of {width}+ bytes, only {} bytes left",
                    self.remaining()
                ),
            });
        }
        Ok(())
    }

    /// Reads `count` `u64` fields, checking first that the record holds
    /// them.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if it does not.
    pub fn u64s(&mut self, count: u64) -> Result<Vec<u64>> {
        self.check_count(count, 8)?;
        let bytes = self.take(count as usize * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a `u32` count, then that many `u32` fields, checking first
    /// that the record holds them.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if it does not.
    pub fn u32_list(&mut self) -> Result<Vec<u32>> {
        let count = self.u32()?;
        self.check_count(count.into(), 4)?;
        let bytes = self.take(count as usize * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }

    /// Checks that every field has been read.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] if bytes are left before the trailer.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() > 0 {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!("{} trailing bytes after the last field", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        let mut w = RecordWriter::new(*b"TEST");
        w.u32(3).u64(1 << 40).u32_list(&[5, 6]).u64s(&[9, 8]);
        w.seal()
    }

    #[test]
    fn fields_round_trip_and_errors_carry_offsets() {
        let bytes = sample();
        assert_eq!(bytes.len(), 4 + 4 + 8 + 4 + 8 + 16 + 4);
        let mut r = RecordReader::open(&bytes, *b"TEST").unwrap();
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.u32_list().unwrap(), vec![5, 6]);
        assert!(r.finish().is_err(), "two u64 fields are left");
        assert_eq!(r.offset(), 28);
        assert!(matches!(r.u64s(3), Err(MatrixError::Parse { at: 28, .. })));
        assert_eq!(r.u64s(2).unwrap(), vec![9, 8]);
        r.finish().unwrap();
        assert!(matches!(r.u32(), Err(MatrixError::Parse { at: 44, .. })));
    }

    #[test]
    fn counts_are_checked_before_allocating() {
        let mut w = RecordWriter::new(*b"TEST");
        w.u32(u32::MAX).u64(0);
        let bytes = w.seal();
        let mut r = RecordReader::open(&bytes, *b"TEST").unwrap();
        assert!(r.u32_list().is_err());
        let mut r = RecordReader::open(&bytes, *b"TEST").unwrap();
        assert!(r.u64s(u64::MAX).is_err());
        assert!(r.check_count(u64::MAX, u64::MAX).is_err());
        r.check_count(3, 4).unwrap();
    }

    #[test]
    fn magic_and_legacy_layouts() {
        let bytes = sample();
        assert!(matches!(
            RecordReader::open(&bytes, *b"NOPE"),
            Err(MatrixError::Parse { at: 0, .. })
        ));
        let mut legacy = RecordWriter::new(*b"OLD1");
        legacy.u32(42);
        let legacy = legacy.unsealed();
        assert_eq!(legacy.len(), 8);
        let mut r = RecordReader::open_or_legacy(&legacy, *b"TEST", Some(*b"OLD1")).unwrap();
        assert_eq!(r.u32().unwrap(), 42);
        r.finish().unwrap();
        assert!(RecordReader::open(&legacy, *b"OLD1").is_err(), "no trailer");
        RecordReader::open_or_legacy(&bytes, *b"TEST", Some(*b"OLD1")).unwrap();
        for short in [&b""[..], b"TE", b"TEST", b"TEST\0\0\0"] {
            assert!(RecordReader::open(short, *b"TEST").is_err());
        }
    }

    proptest! {
        #[test]
        fn any_flipped_byte_or_truncation_fails_open(
            fields in prop::collection::vec(any::<u32>(), 0..24),
            pos_raw in any::<usize>(),
            mask in 1u8..=255,
            cut_raw in any::<usize>(),
        ) {
            let mut w = RecordWriter::new(*b"PROP");
            w.u32_list(&fields);
            let pristine = w.seal();
            prop_assert!(RecordReader::open(&pristine, *b"PROP").is_ok());
            let mut flipped = pristine.clone();
            flipped[pos_raw % pristine.len()] ^= mask;
            prop_assert!(RecordReader::open(&flipped, *b"PROP").is_err());
            let cut = cut_raw % pristine.len();
            prop_assert!(RecordReader::open(&pristine[..cut], *b"PROP").is_err());
        }
    }
}
