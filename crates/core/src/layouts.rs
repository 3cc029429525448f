//! Byte-for-byte layouts of the checksummed files sfa writes.
//!
//! Each test builds one file field by field, as `docs/FORMATS.md` lays it
//! out, and compares it with what the real writer produces, so a writer
//! change that moves, adds or drops a byte fails here. The state-file
//! writers (`.sfcp`, `.sfsp`, `.sfmf`) are crate-private, which is why the
//! tests live in this crate.

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use sfa_matrix::crc32::crc32;
    use sfa_matrix::{io, MemoryRowStream, RowMajorMatrix, RowStream};
    use sfa_minhash::persist::{
        decode_bottom_k, decode_signatures, encode_bottom_k, encode_signatures, write_bottom_k,
        write_bottom_k_v1, write_signatures, write_signatures_v1,
    };
    use sfa_minhash::{BottomKSignatures, KmhBuilder, MhBuilder, SignatureMatrix};

    use crate::checkpoint::{save_phase3, CheckpointSpec, RunKey};
    use crate::config::{PipelineConfig, Scheme};
    use crate::report::VerifiedPair;
    use crate::shutdown::CancelToken;
    use crate::verify::VerifyProgress;
    use crate::Pipeline;

    /// A file image assembled field by field: LE fields behind a magic.
    struct Image(Vec<u8>);

    impl Image {
        fn new(magic: &[u8; 4]) -> Self {
            Self(magic.to_vec())
        }

        fn u32(mut self, v: u32) -> Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }

        fn u64(mut self, v: u64) -> Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }

        /// Appends the CRC-32 trailer over everything after the magic.
        fn sealed(mut self) -> Vec<u8> {
            let crc = crc32(&self.0[4..]);
            self.0.extend_from_slice(&crc.to_le_bytes());
            self.0
        }

        /// `.sfmh` body: `k | m | k·m` values, row-major.
        fn sfmh_body(self, sigs: &SignatureMatrix) -> Self {
            let mut img = self.u32(sigs.k() as u32).u32(sigs.m() as u32);
            for l in 0..sigs.k() {
                for j in 0..sigs.m() as u32 {
                    img = img.u64(sigs.get(l, j));
                }
            }
            img
        }

        /// `.sfkm` body: `k | m`, then per column `count | len | values`.
        fn sfkm_body(self, sigs: &BottomKSignatures) -> Self {
            let mut img = self.u32(sigs.k() as u32).u32(sigs.m() as u32);
            for j in 0..sigs.m() as u32 {
                let sig = sigs.signature(j);
                img = img.u32(sigs.column_count(j)).u32(sig.len() as u32);
                for &v in sig {
                    img = img.u64(v);
                }
            }
            img
        }

        /// The run-state header: `version | kind | fingerprint | n_rows |
        /// n_cols`.
        fn run_header(self, version: u32, kind: u32, key: RunKey) -> Self {
            self.u32(version)
                .u32(kind)
                .u32(key.fingerprint)
                .u32(key.n_rows)
                .u32(key.n_cols)
        }
    }

    /// 6 rows over 4 columns, one of them empty.
    fn table() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![
                vec![0, 1],
                vec![1, 2, 3],
                vec![],
                vec![0, 3],
                vec![2],
                vec![0, 1, 3],
            ],
        )
        .unwrap()
    }

    fn mh_sketch(k: usize, seed: u64, rows: usize) -> SignatureMatrix {
        let m = table();
        let mut b = MhBuilder::new(k, m.n_cols() as usize, seed);
        for (id, cols) in m.rows().take(rows) {
            b.push_row(id, cols);
        }
        b.current()
    }

    fn kmh_sketch(k: usize, seed: u64, rows: usize) -> BottomKSignatures {
        let m = table();
        let mut b = KmhBuilder::new(k, m.n_cols() as usize, seed);
        for (id, cols) in m.rows().take(rows) {
            b.push_row(id, cols);
        }
        b.finish()
    }

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sfa-layouts-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 3, delta: 0.2 }, 0.5, 42),
            6,
            4,
        )
    }

    #[test]
    fn sketch_files_match_their_documented_layouts() {
        let d = dir("sketches");
        let mh = mh_sketch(3, 11, 6);
        let kmh = kmh_sketch(2, 11, 6);
        assert!(
            (0..4).any(|j| kmh.signature(j).len() < kmh.column_count(j) as usize),
            "the fixture must hold a saturated bottom-k column"
        );

        let sfmh = Image::new(b"SFM2").sfmh_body(&mh).sealed();
        let sfkm = Image::new(b"SFK2").sfkm_body(&kmh).sealed();
        assert_eq!(encode_signatures(&mh), sfmh);
        assert_eq!(encode_bottom_k(&kmh), sfkm);
        write_signatures(&mh, &d.join("v2.sfmh")).unwrap();
        write_bottom_k(&kmh, &d.join("v2.sfkm")).unwrap();
        assert_eq!(std::fs::read(d.join("v2.sfmh")).unwrap(), sfmh);
        assert_eq!(std::fs::read(d.join("v2.sfkm")).unwrap(), sfkm);

        // v1: the same body behind the old magic, no trailer; still read.
        let v1_mh = Image::new(b"SFMH").sfmh_body(&mh).0;
        let v1_kmh = Image::new(b"SFKM").sfkm_body(&kmh).0;
        write_signatures_v1(&mh, &d.join("v1.sfmh")).unwrap();
        write_bottom_k_v1(&kmh, &d.join("v1.sfkm")).unwrap();
        assert_eq!(std::fs::read(d.join("v1.sfmh")).unwrap(), v1_mh);
        assert_eq!(std::fs::read(d.join("v1.sfkm")).unwrap(), v1_kmh);
        assert_eq!(decode_signatures(&v1_mh).unwrap(), mh);
        assert_eq!(decode_bottom_k(&v1_kmh).unwrap(), kmh);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Trips a [`CancelToken`] as the stream hands out its `cancel_at`-th
    /// row, so a checkpointed run stops there and flushes its state.
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
        fn read_row(&mut self, buf: &mut Vec<u32>) -> sfa_matrix::Result<Option<u32>> {
            let id = self.inner.read_row(buf)?;
            if id.is_some() {
                self.delivered += 1;
                if self.delivered == self.cancel_at {
                    self.token.cancel();
                }
            }
            Ok(id)
        }
        fn reset(&mut self) -> sfa_matrix::Result<()> {
            self.inner.reset()
        }
    }

    /// Runs `scheme` with checkpoints and cancels it at phase-1 row 3;
    /// returns the checkpoint directory the run left behind.
    fn canceled_at_row_3(scheme: Scheme, name: &str) -> (PathBuf, RunKey) {
        let m = table();
        let d = dir(name);
        let config = PipelineConfig::new(scheme, 0.5, 42);
        let token = CancelToken::new();
        let mut stream = CancelAfter {
            inner: MemoryRowStream::new(&m),
            token: token.clone(),
            delivered: 0,
            cancel_at: 3,
        };
        let err = Pipeline::new(config)
            .with_cancel(token)
            .run_resumable(&mut stream, &CheckpointSpec::new(&d))
            .unwrap_err();
        assert!(err.is_canceled(), "{err}");
        (d, RunKey::new(&config, m.n_rows(), m.n_cols()))
    }

    /// The seed phase 1 hashes with: the run seed mixed with the
    /// signatures purpose tag (1).
    const SIG_SEED: u64 = sfa_hash::family::derive_seed(42, 1);

    #[test]
    fn checkpoints_and_the_manifest_match_their_documented_layouts() {
        // Phase 1, MH family: header, rows_done, builder tag 1, `.sfmh` body.
        let (d, run) = canceled_at_row_3(Scheme::Mh { k: 3, delta: 0.2 }, "phase1-mh");
        let want = Image::new(b"SFCP")
            .run_header(1, 1, run)
            .u64(3)
            .u32(1)
            .sfmh_body(&mh_sketch(3, SIG_SEED, 3))
            .sealed();
        assert_eq!(std::fs::read(d.join("phase1.sfcp")).unwrap(), want);
        // The run's manifest: `version | fingerprint | n_rows | n_cols`.
        let manifest = Image::new(b"SFMF")
            .u32(1)
            .u32(run.fingerprint)
            .u32(run.n_rows)
            .u32(run.n_cols)
            .sealed();
        assert_eq!(std::fs::read(d.join("manifest.sfmf")).unwrap(), manifest);
        assert_eq!(manifest.len(), 24);
        let _ = std::fs::remove_dir_all(&d);

        // Phase 1, K-MH: builder tag 2, `.sfkm` body.
        let (d, run) = canceled_at_row_3(Scheme::Kmh { k: 2, delta: 0.2 }, "phase1-kmh");
        let want = Image::new(b"SFCP")
            .run_header(1, 1, run)
            .u64(3)
            .u32(2)
            .sfkm_body(&kmh_sketch(2, SIG_SEED, 3))
            .sealed();
        assert_eq!(std::fs::read(d.join("phase1.sfcp")).unwrap(), want);
        let _ = std::fs::remove_dir_all(&d);

        // Phase 3: the verification frontier.
        let d = dir("phase3");
        let progress = VerifyProgress {
            rows_done: 5,
            intersections: vec![3, 0, 7],
            column_counts: vec![2, 4, 1, 0],
            probes: 99,
        };
        save_phase3(&CheckpointSpec::new(&d), key(), 0xABCD_1234, &progress).unwrap();
        let want = Image::new(b"SFCP")
            .run_header(1, 3, key())
            .u64(5)
            .u32(0xABCD_1234)
            .u32(3)
            .u32(3)
            .u32(0)
            .u32(7)
            .u32(4)
            .u32(2)
            .u32(4)
            .u32(1)
            .u32(0)
            .u64(99)
            .sealed();
        assert_eq!(std::fs::read(d.join("phase3.sfcp")).unwrap(), want);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn spill_and_manifest_files_match_their_documented_layouts() {
        let d = dir("spill");
        let verified = [
            VerifiedPair {
                i: 0,
                j: 3,
                intersection: 2,
                union: 4,
                similarity: 0.5,
                estimate: 2.0 / 3.0,
            },
            VerifiedPair {
                i: 1,
                j: 2,
                intersection: 1,
                union: 4,
                similarity: 0.25,
                estimate: 0.75,
            },
        ];
        let bytes =
            crate::spill::save_group_result(&d, key(), 1, 0xBEEF, &verified, &[3, 3, 2, 3], 17)
                .unwrap();
        let mut want = Image::new(b"SFSP")
            .run_header(2, 2, key())
            .u32(0xBEEF)
            .u32(2);
        for p in &verified {
            want = want
                .u32(p.i)
                .u32(p.j)
                .u32(p.intersection)
                .u32(p.union)
                .u64(p.similarity.to_bits())
                .u64(p.estimate.to_bits());
        }
        let want = want.u32(4).u32(3).u32(3).u32(2).u32(3).u64(17).sealed();
        assert_eq!(std::fs::read(d.join("verify_group_1.sfsp")).unwrap(), want);
        assert_eq!(bytes, want.len() as u64);

        crate::durable::write_manifest(&d, key()).unwrap();
        let manifest = Image::new(b"SFMF")
            .u32(1)
            .u32(key().fingerprint)
            .u32(6)
            .u32(4)
            .sealed();
        assert_eq!(std::fs::read(d.join("manifest.sfmf")).unwrap(), manifest);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn binary_table_matches_its_documented_layout() {
        let d = dir("sfab");
        let m = table();
        io::write_binary(&m, &d.join("t.sfab")).unwrap();
        let mut want = Image::new(b"SFB2").u32(6).u32(4);
        for (_, cols) in m.rows() {
            want = want.u32(cols.len() as u32);
            for &c in cols {
                want = want.u32(c);
            }
        }
        assert_eq!(std::fs::read(d.join("t.sfab")).unwrap(), want.sealed());
        let _ = std::fs::remove_dir_all(&d);
    }
}
