//! Robustness of the file-backed stream against corrupt and adversarial
//! inputs: a production reader must fail with an error, never panic or
//! loop, on any byte sequence.

use proptest::prelude::*;

use sfa_matrix::{io, FileRowStream, RowMajorMatrix, RowStream};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfa_stream_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Fully drains a stream, returning Ok(rows) or the first error.
fn drain(stream: &mut FileRowStream) -> Result<usize, sfa_matrix::MatrixError> {
    let mut buf = Vec::new();
    let mut n = 0;
    while stream.read_row(&mut buf)?.is_some() {
        n += 1;
    }
    Ok(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200), tag in 0u64..1_000_000) {
        let p = tmp(&format!("fuzz{tag}.bin"));
        std::fs::write(&p, &bytes).unwrap();
        // Opening may fail (bad magic / truncated header) or succeed with
        // garbage dimensions; draining must then either finish or error —
        // never panic, never hang (row count caps the loop).
        if let Ok(mut stream) = FileRowStream::open(&p) {
            let _ = drain(&mut stream);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncations_of_valid_files_error_cleanly(
        rows in prop::collection::vec(prop::collection::btree_set(0u32..6, 0..6), 1..8),
        cut_frac in 0.0f64..1.0,
        tag in 0u64..1_000_000,
    ) {
        let rows: Vec<Vec<u32>> = rows
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        let m = RowMajorMatrix::from_rows(6, rows).unwrap();
        let p = tmp(&format!("trunc{tag}.sfab"));
        io::write_binary(&m, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&p, &bytes[..cut]).unwrap();
        // A truncated header fails open(); otherwise either the cut landed
        // on a row boundary and we read a prefix, or we get a clean error.
        if let Ok(mut stream) = FileRowStream::open(&p) {
            if let Ok(n) = drain(&mut stream) {
                prop_assert!(n <= m.n_rows() as usize);
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_flips_are_detected_or_benign(
        rows in prop::collection::vec(prop::collection::btree_set(0u32..6, 1..6), 2..6),
        flip_byte in 12usize..64,
        flip_bit in 0u8..8,
        tag in 0u64..1_000_000,
    ) {
        let rows: Vec<Vec<u32>> = rows
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        let m = RowMajorMatrix::from_rows(6, rows).unwrap();
        let p = tmp(&format!("flip{tag}.sfab"));
        io::write_binary(&m, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        if flip_byte < bytes.len() {
            bytes[flip_byte] ^= 1 << flip_bit;
            std::fs::write(&p, &bytes).unwrap();
            if let Ok(mut stream) = FileRowStream::open(&p) {
                // Must terminate without panicking; errors are expected
                // (out-of-range column, unsorted row, short read).
                let _ = drain(&mut stream);
            }
        }
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn giant_declared_row_count_does_not_preallocate() {
    // A header claiming u32::MAX rows with no data must not OOM: the
    // reader streams rows, so it errors at the first missing byte.
    let p = tmp("giant_header.sfab");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SFAB");
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&10u32.to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    let mut stream = FileRowStream::open(&p).expect("header parses");
    let mut buf = Vec::new();
    assert!(stream.read_row(&mut buf).is_err(), "no data must error");
    std::fs::remove_file(&p).ok();
}

#[test]
fn row_claiming_huge_length_errors_without_allocation_blowup() {
    // One row declaring 2^31 entries but providing none.
    let p = tmp("huge_row.sfab");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SFAB");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&10u32.to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 31).to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    let mut stream = FileRowStream::open(&p).expect("header parses");
    let mut buf = Vec::new();
    assert!(stream.read_row(&mut buf).is_err());
    std::fs::remove_file(&p).ok();
}

/// Writes a v1 (checksum-less) file from raw rows, without validating
/// them, followed by `trailing` extra words; v1 has no CRC, so the
/// per-row checks are what must catch a bad row.
fn raw_v1_file(
    name: &str,
    n_rows: u32,
    n_cols: u32,
    rows: &[Vec<u32>],
    trailing: &[u32],
) -> std::path::PathBuf {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SFAB");
    bytes.extend_from_slice(&n_rows.to_le_bytes());
    bytes.extend_from_slice(&n_cols.to_le_bytes());
    for row in rows {
        bytes.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for c in row {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    for w in trailing {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let p = tmp(name);
    std::fs::write(&p, &bytes).unwrap();
    p
}

/// The first error draining the file yields, as `(at, detail)`.
fn first_parse_error(p: &std::path::Path) -> (u64, String) {
    let mut stream = FileRowStream::open(p).expect("header parses");
    match drain(&mut stream) {
        Err(sfa_matrix::MatrixError::Parse { at, detail }) => (at, detail),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// Asserts that draining a 2-row, 10-column v1 file made of `rows` and
/// `trailing` fails with exactly `Parse { at, detail }`.
fn assert_first_error(name: &str, rows: &[Vec<u32>], trailing: &[u32], at: u64, detail: &str) {
    let p = raw_v1_file(&format!("pinned_{name}.sfab"), 2, 10, rows, trailing);
    assert_eq!(first_parse_error(&p), (at, detail.to_string()), "{name}");
    std::fs::remove_file(&p).ok();
}

/// Offsets and messages of the per-row checks, pinned so that decoding a
/// row from one slice reports exactly what reading it id by id did.
#[test]
fn row_check_errors_name_the_offending_offset() {
    assert_first_error(
        "out_of_range",
        &[vec![0, 3], vec![2, 12, 15]],
        &[],
        32,
        "row 1: column id 12 out of range (10 columns)",
    );
    assert_first_error(
        "descending",
        &[vec![1], vec![4, 2]],
        &[],
        28,
        "row 1 not strictly ascending",
    );
    assert_first_error(
        "duplicate",
        &[vec![1], vec![5, 5]],
        &[],
        28,
        "row 1 not strictly ascending",
    );
    // Row 1 declares 3 ids but only one word follows.
    assert_first_error(
        "longer_than_payload",
        &[vec![0]],
        &[3, 7],
        20,
        "row 1 declares 3 entries (10 columns, 4 payload bytes left)",
    );
    assert_first_error(
        "longer_than_columns",
        &[vec![0]],
        &[11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        20,
        "row 1 declares 11 entries (10 columns, 44 payload bytes left)",
    );
}

/// Row 1's ids run from byte 8020 to 8420, across the reader's 8 KiB
/// buffer boundary, so the buffer refills in the middle of the row.
#[test]
fn row_straddling_the_read_buffer_keeps_its_checks() {
    let row0: Vec<u32> = (0..2000).collect();
    let straddling: Vec<u32> = (0..100).map(|i| i * 3).collect();

    let p = raw_v1_file(
        "straddle_ok.sfab",
        2,
        5000,
        &[row0.clone(), straddling.clone()],
        &[],
    );
    let mut stream = FileRowStream::open(&p).unwrap();
    let mut buf = Vec::new();
    assert_eq!(stream.read_row(&mut buf).unwrap(), Some(0));
    assert_eq!(buf, row0);
    assert_eq!(stream.read_row(&mut buf).unwrap(), Some(1));
    assert_eq!(buf, straddling);
    assert_eq!(stream.read_row(&mut buf).unwrap(), None);
    std::fs::remove_file(&p).ok();

    let mut out_of_range = straddling.clone();
    out_of_range[80] = 6000;
    let p = raw_v1_file(
        "straddle_range.sfab",
        2,
        5000,
        &[row0.clone(), out_of_range],
        &[],
    );
    assert_eq!(
        first_parse_error(&p),
        (
            8340,
            "row 1: column id 6000 out of range (5000 columns)".to_string()
        )
    );
    std::fs::remove_file(&p).ok();

    let mut repeated = straddling;
    repeated[60] = repeated[59];
    let p = raw_v1_file("straddle_order.sfab", 2, 5000, &[row0, repeated], &[]);
    assert_eq!(
        first_parse_error(&p),
        (8260, "row 1 not strictly ascending".to_string())
    );
    std::fs::remove_file(&p).ok();
}
