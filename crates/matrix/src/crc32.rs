//! CRC-32 (IEEE 802.3) implemented in-tree.
//!
//! The v2 binary formats (`.sfab`/`.sfmh`/`.sfkm`, see `docs/FORMATS.md`)
//! append a CRC-32 of everything after the magic so that readers detect
//! bit flips and truncation instead of silently accepting them. The
//! polynomial is the reflected IEEE one (`0xEDB88320`) — the same checksum
//! as zlib/gzip — so external tooling can verify files.

/// Slice-by-8 lookup tables for the reflected IEEE CRC-32, built at
/// compile time. `TABLES[0]` is the classic bytewise table; `TABLES[t][b]`
/// is the CRC of byte `b` followed by `t` zero bytes, so eight table
/// lookups fold eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Incremental CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use sfa_matrix::crc32::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finalize(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[must_use]
    pub const fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum, 8 bytes per step
    /// (slice-by-8) and the tail bytewise.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything folded in so far (does not consume the
    /// hasher; further updates continue from the same state).
    #[must_use]
    pub const fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// A [`Write`](std::io::Write) adapter that checksums everything written
/// through it — used by the v2 format writers so large payloads are
/// checksummed without buffering them in memory.
#[derive(Debug)]
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: std::io::Write> CrcWriter<W> {
    /// Wraps a writer with a fresh checksum.
    pub const fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
        }
    }

    /// The checksum of all bytes written so far.
    #[must_use]
    pub const fn digest(&self) -> u32 {
        self.crc.finalize()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The inner writer (e.g. to append the trailer after the digest is
    /// taken).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: std::io::Write> std::io::Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"hello, out-of-core world";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }

    /// The textbook bytewise loop, one table lookup per byte.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    proptest! {
        #[test]
        fn slice_by_8_matches_bytewise(
            bytes in prop::collection::vec(any::<u8>(), 0..=100),
            cuts in prop::collection::vec(0usize..=100, 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut want = 0xFFFF_FFFF;
            let mut start = 0;
            for end in cuts.into_iter().chain([bytes.len()]) {
                h.update(&bytes[start..end]);
                want = bytewise(want, &bytes[start..end]);
                start = end;
            }
            prop_assert_eq!(h.finalize(), want ^ 0xFFFF_FFFF);
        }
    }

    #[test]
    fn crc_writer_checksums_what_it_writes() {
        let mut w = CrcWriter::new(Vec::new());
        std::io::Write::write_all(&mut w, b"1234").unwrap();
        std::io::Write::write_all(&mut w, b"56789").unwrap();
        assert_eq!(w.digest(), 0xCBF4_3926);
        assert_eq!(w.into_inner(), b"123456789");
    }
}
