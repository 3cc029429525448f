//! Property tests for the checksummed on-disk formats: any single-byte
//! mutation of a valid `.sfab` / `.sfmh` / `.sfkm` table/sketch file or
//! `.sfcp` / `.sfsp` checkpoint/spill file, and any truncation, must
//! surface as a clean `Err` from the reader — never a panic, and never
//! silently wrong data.
//!
//! The CRC-32 trailer covers everything after the magic, so every
//! mutation is either a magic/parse error or a checksum mismatch. The
//! checkpoint and spill fixtures come from the real pipeline writers: a
//! budgeted, checkpointed run canceled mid-verify leaves both behind.

use proptest::prelude::*;

use sfa::core::{CancelToken, CheckpointSpec, MemoryBudget, Pipeline, PipelineConfig, Scheme};
use sfa::matrix::{io, FileRowStream, MemoryRowStream, RowMajorMatrix, RowStream};
use sfa::minhash::persist::{read_bottom_k, read_signatures, write_bottom_k, write_signatures};
use sfa::minhash::{KmhBuilder, MhBuilder};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfa_corruption_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small but non-trivial matrix: 20 rows over 6 columns.
fn sample_matrix() -> RowMajorMatrix {
    let rows = (0..20u32)
        .map(|r| {
            let mut cols = vec![r % 6, (r * 3 + 1) % 6];
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();
    RowMajorMatrix::from_rows(6, rows).unwrap()
}

/// A stream wrapper that trips a [`CancelToken`] after delivering a fixed
/// number of rows, so a pipeline run cancels at a known point: after the
/// signature pass but mid-way through the verification pass.
struct CancelAfter<'a> {
    inner: MemoryRowStream<'a>,
    token: CancelToken,
    delivered: u32,
    cancel_at: u32,
}

impl RowStream for CancelAfter<'_> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }
    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }
    fn read_row(&mut self, buf: &mut Vec<u32>) -> sfa::matrix::Result<Option<u32>> {
        let id = self.inner.read_row(buf)?;
        if id.is_some() {
            self.delivered += 1;
            if self.delivered == self.cancel_at {
                self.token.cancel();
            }
        }
        Ok(id)
    }
    fn reset(&mut self) -> sfa::matrix::Result<()> {
        self.inner.reset()
    }
}

/// Produces pristine checkpoint (`.sfcp`) and spill (`.sfsp`) bytes via
/// the real pipeline writers: a budgeted, checkpointed run over the sample
/// matrix is canceled in its second chunk's verify scan, which flushes a
/// phase-3 checkpoint (flush-then-error) after the first chunk's result
/// was spilled.
fn state_fixtures(prefix: &str, tag: u64) -> Vec<(&'static str, Vec<u8>)> {
    let m = sample_matrix();
    let dir = tmp(&format!("{prefix}{tag}_state"));
    std::fs::remove_dir_all(&dir).ok();
    let token = CancelToken::new();
    let mut stream = CancelAfter {
        inner: MemoryRowStream::new(&m),
        token: token.clone(),
        delivered: 0,
        // The signature pass and the first chunk's verify scan deliver 20
        // rows each; row 50 is row 10 of the second chunk's scan.
        cancel_at: 50,
    };
    let spec = CheckpointSpec::new(&dir).with_every_rows(64);
    // The minimum budget verifies three candidates per chunk; at s* = 0.1
    // all five overlapping column pairs are candidates.
    let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &dir);
    let config = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.1, 42);
    let err = Pipeline::new(config)
        .with_cancel(token)
        .run_sharded(&mut stream, &budget, Some(&spec))
        .unwrap_err();
    assert!(err.is_canceled(), "fixture run must cancel, got {err}");

    let sfcp = std::fs::read(dir.join("phase3.sfcp")).unwrap();
    let sfsp = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "sfsp")).then(|| std::fs::read(&p).unwrap())
        })
        .next()
        .expect("canceled sharded run left no spill file");
    std::fs::remove_dir_all(&dir).ok();
    vec![("sfcp", sfcp), ("sfsp", sfsp)]
}

/// Writes each checksummed format once and returns the pristine bytes
/// keyed by extension. `prefix` keeps concurrently running properties from
/// racing on the same fixture paths.
fn fixtures(prefix: &str, tag: u64) -> Vec<(&'static str, Vec<u8>)> {
    let m = sample_matrix();

    let pb = tmp(&format!("{prefix}{tag}.sfab"));
    io::write_binary(&m, &pb).unwrap();

    let mut mh = MhBuilder::new(8, 6, 42);
    let mut kmh = KmhBuilder::new(5, 6, 42);
    let mut stream = sfa::matrix::MemoryRowStream::new(&m);
    let mut buf = Vec::new();
    while let Some(id) = stream.read_row(&mut buf).unwrap() {
        mh.push_row(id, &buf);
        kmh.push_row(id, &buf);
    }
    let pm = tmp(&format!("{prefix}{tag}.sfmh"));
    write_signatures(&mh.finish(), &pm).unwrap();
    let pk = tmp(&format!("{prefix}{tag}.sfkm"));
    write_bottom_k(&kmh.finish(), &pk).unwrap();

    let mut out = vec![
        ("sfab", std::fs::read(&pb).unwrap()),
        ("sfmh", std::fs::read(&pm).unwrap()),
        ("sfkm", std::fs::read(&pk).unwrap()),
    ];
    out.extend(state_fixtures(prefix, tag));
    for p in [pb, pm, pk] {
        std::fs::remove_file(&p).ok();
    }
    out
}

/// Attempts a full load of `path` as format `ext`, reducing the outcome to
/// `Result<(), MatrixError>`; a panic anywhere fails the property.
fn load(ext: &str, path: &std::path::Path) -> Result<(), sfa::matrix::MatrixError> {
    match ext {
        "sfab" => {
            let mut stream = FileRowStream::open(path)?;
            let mut buf = Vec::new();
            while stream.read_row(&mut buf)?.is_some() {}
            Ok(())
        }
        "sfmh" => read_signatures(path).map(|_| ()),
        "sfkm" => read_bottom_k(path).map(|_| ()),
        "sfcp" => sfa::core::checkpoint::validate_file(path),
        "sfsp" => sfa::core::spill::validate_file(path),
        other => unreachable!("unknown fixture {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_byte_mutations_are_always_rejected(
        pos_raw in 0usize..1_000_000,
        mask in 1u8..=255,
        tag in 0u64..1_000_000,
    ) {
        for (ext, pristine) in fixtures("mutsrc", tag) {
            // XOR with a nonzero mask guarantees the byte actually changes.
            let pos = pos_raw % pristine.len();
            let mut bytes = pristine.clone();
            bytes[pos] ^= mask;
            let p = tmp(&format!("mut{tag}_{pos}.{ext}"));
            std::fs::write(&p, &bytes).unwrap();
            let res = load(ext, &p);
            prop_assert!(
                res.is_err(),
                "mutated byte {pos} (mask {mask:#04x}) of a {ext} file must be rejected"
            );
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn truncations_are_always_rejected(
        cut_frac in 0.0f64..1.0,
        tag in 0u64..1_000_000,
    ) {
        for (ext, pristine) in fixtures("cutsrc", tag) {
            // `cut_frac < 1.0` strictly, so at least the final byte is lost
            // — which for v2 always takes part of the CRC trailer with it.
            let cut = ((pristine.len() as f64) * cut_frac) as usize;
            prop_assert!(cut < pristine.len());
            let p = tmp(&format!("cut{tag}_{cut}.{ext}"));
            std::fs::write(&p, &pristine[..cut]).unwrap();
            let res = load(ext, &p);
            prop_assert!(
                res.is_err(),
                "a {ext} file truncated to {cut}/{} bytes must be rejected",
                pristine.len()
            );
            std::fs::remove_file(&p).ok();
        }
    }
}

#[test]
fn pristine_fixtures_round_trip() {
    // Sanity check on the harness itself: the unmutated fixtures load.
    for (ext, pristine) in fixtures("pristine", 0) {
        let p = tmp(&format!("pristine.{ext}"));
        std::fs::write(&p, &pristine).unwrap();
        load(ext, &p).unwrap();
        std::fs::remove_file(&p).ok();
    }
}
