//! The config-fingerprinted signature cache.
//!
//! Phase 1 — the signature pass — is the part of a mine that touches the
//! table, and its output depends only on the sketch kind (MH vs K-MH),
//! the sketch width `k`, the derived signature seed, and the table shape.
//! Candidate generation and verification parameters (`s*`, `delta`, band
//! shapes) do *not* enter the sketch, which is exactly why the paper's
//! phase split pays off: one sketch serves many mining configurations.
//!
//! [`SignatureCache`] materializes that reuse on disk. A cache directory
//! holds checksummed `.sfmh`/`.sfkm` sketch files (the
//! [`sfa_minhash::persist`] v2 formats, byte-identical to
//! `write_signatures`/`write_bottom_k` output) named by their key:
//!
//! ```text
//! mh-k<k>-s<seed:016x>-<rows>x<cols>.sfmh
//! kmh-k<k>-s<seed:016x>-<rows>x<cols>.sfkm
//! ```
//!
//! Lookups are fail-open: a missing entry is a miss, and a corrupt or
//! wrong-shape entry is quarantined into `quarantine/` (like the
//! checkpoint recovery sweep in [`crate::durable`]) and treated as a
//! miss — never trusted, never fatal. Stores go through
//! [`durable::write_atomic`], so a crash
//! mid-store leaves either no entry or a complete one, and a failed
//! store degrades to "not cached" instead of failing the mine.
//!
//! **Contract:** the key covers the sketch configuration and the table
//! *shape*, not the table *contents* — use one cache directory per
//! dataset (the CLI's `--signature-cache DIR`). Re-pointing a cache dir
//! at a different table of identical dimensions would serve the old
//! sketches.

use std::path::{Path, PathBuf};

use sfa_minhash::persist::{
    decode_bottom_k, decode_signatures, encode_bottom_k, encode_signatures,
};
use sfa_minhash::{BottomKSignatures, SignatureMatrix};

use crate::durable;

/// A directory of reusable phase-1 sketches; see the module docs for the
/// keying and durability contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureCache {
    dir: PathBuf,
}

/// The two sketch kinds the cache distinguishes.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Mh,
    Kmh,
}

impl Kind {
    const fn prefix(self) -> &'static str {
        match self {
            Self::Mh => "mh",
            Self::Kmh => "kmh",
        }
    }

    const fn ext(self) -> &'static str {
        match self {
            Self::Mh => "sfmh",
            Self::Kmh => "sfkm",
        }
    }
}

impl SignatureCache {
    /// A cache rooted at `dir` (created on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, kind: Kind, k: usize, seed: u64, n_rows: u32, n_cols: u32) -> PathBuf {
        self.dir.join(format!(
            "{}-k{k}-s{seed:016x}-{n_rows}x{n_cols}.{}",
            kind.prefix(),
            kind.ext()
        ))
    }

    /// Looks up an MH signature matrix for `(k, seed, n_rows × n_cols)`.
    ///
    /// Returns `None` on a miss; a corrupt or wrong-shape entry is
    /// quarantined and reported as a miss.
    #[must_use]
    pub fn load_signatures(
        &self,
        k: usize,
        seed: u64,
        n_rows: u32,
        n_cols: u32,
    ) -> Option<SignatureMatrix> {
        let path = self.entry_path(Kind::Mh, k, seed, n_rows, n_cols);
        let bytes = std::fs::read(&path).ok()?;
        match decode_signatures(&bytes) {
            Ok(sigs) if sigs.k() == k && sigs.m() == n_cols as usize => Some(sigs),
            _ => {
                // Best-effort: a failed move leaves the bad entry to miss
                // every future lookup.
                let _ = durable::quarantine(&self.dir, &path);
                None
            }
        }
    }

    /// Stores an MH signature matrix under `(k, seed, n_rows × n_cols)`.
    ///
    /// Returns whether the entry landed; a failed store is not an error,
    /// just a future miss.
    pub fn store_signatures(
        &self,
        k: usize,
        seed: u64,
        n_rows: u32,
        n_cols: u32,
        sigs: &SignatureMatrix,
    ) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let path = self.entry_path(Kind::Mh, k, seed, n_rows, n_cols);
        durable::write_atomic(&path, &encode_signatures(sigs)).is_ok()
    }

    /// Looks up K-MH bottom-k sketches for `(k, seed, n_rows × n_cols)`;
    /// miss/quarantine semantics as [`load_signatures`](Self::load_signatures).
    #[must_use]
    pub fn load_bottom_k(
        &self,
        k: usize,
        seed: u64,
        n_rows: u32,
        n_cols: u32,
    ) -> Option<BottomKSignatures> {
        let path = self.entry_path(Kind::Kmh, k, seed, n_rows, n_cols);
        let bytes = std::fs::read(&path).ok()?;
        match decode_bottom_k(&bytes) {
            Ok(sigs) if sigs.k() == k && sigs.m() == n_cols as usize => Some(sigs),
            _ => {
                let _ = durable::quarantine(&self.dir, &path);
                None
            }
        }
    }

    /// Stores K-MH bottom-k sketches under `(k, seed, n_rows × n_cols)`;
    /// semantics as [`store_signatures`](Self::store_signatures).
    pub fn store_bottom_k(
        &self,
        k: usize,
        seed: u64,
        n_rows: u32,
        n_cols: u32,
        sigs: &BottomKSignatures,
    ) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let path = self.entry_path(Kind::Kmh, k, seed, n_rows, n_cols);
        durable::write_atomic(&path, &encode_bottom_k(sigs)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::{compute_bottom_k, compute_signatures};

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sfa-sigcache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![2, 3], vec![0, 2]],
        )
        .unwrap()
    }

    #[test]
    fn round_trips_both_sketch_kinds() {
        let d = dir("round-trip");
        let cache = SignatureCache::new(&d);
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        assert!(cache.load_signatures(8, 5, 5, 4).is_none(), "cold miss");
        assert!(cache.load_bottom_k(3, 5, 5, 4).is_none(), "cold miss");
        assert!(cache.store_signatures(8, 5, 5, 4, &mh));
        assert!(cache.store_bottom_k(3, 5, 5, 4, &kmh));
        assert_eq!(cache.load_signatures(8, 5, 5, 4), Some(mh));
        assert_eq!(cache.load_bottom_k(3, 5, 5, 4), Some(kmh));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn key_distinguishes_k_seed_and_shape() {
        let d = dir("keying");
        let cache = SignatureCache::new(&d);
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert!(cache.store_signatures(8, 5, 5, 4, &mh));
        assert!(cache.load_signatures(9, 5, 5, 4).is_none(), "other k");
        assert!(cache.load_signatures(8, 6, 5, 4).is_none(), "other seed");
        assert!(cache.load_signatures(8, 5, 6, 4).is_none(), "other rows");
        assert!(cache.load_signatures(8, 5, 5, 5).is_none(), "other cols");
        assert!(cache.load_signatures(8, 5, 5, 4).is_some());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_misses() {
        let d = dir("corrupt");
        let cache = SignatureCache::new(&d);
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert!(cache.store_signatures(8, 5, 5, 4, &mh));
        let entry = d.join("mh-k8-s0000000000000005-5x4.sfmh");
        let mut bytes = std::fs::read(&entry).expect("entry exists under the documented name");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&entry, &bytes).unwrap();
        assert!(cache.load_signatures(8, 5, 5, 4).is_none(), "bit flip");
        assert!(!entry.exists(), "bad entry moved aside");
        assert!(
            d.join(durable::QUARANTINE_DIR)
                .join("mh-k8-s0000000000000005-5x4.sfmh")
                .exists(),
            "quarantined under its own name"
        );
        // A fresh store repopulates the slot.
        assert!(cache.store_signatures(8, 5, 5, 4, &mh));
        assert_eq!(cache.load_signatures(8, 5, 5, 4), Some(mh));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn mismatched_filename_shape_is_quarantined() {
        // An intact sketch filed under the wrong key (e.g. a hand-renamed
        // file) must not be served: the decoded dims are checked against
        // the key.
        let d = dir("mismatch");
        let cache = SignatureCache::new(&d);
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert!(cache.store_signatures(8, 5, 5, 4, &mh));
        std::fs::rename(
            d.join("mh-k8-s0000000000000005-5x4.sfmh"),
            d.join("mh-k16-s0000000000000005-5x8.sfmh"),
        )
        .unwrap();
        assert!(cache.load_signatures(16, 5, 5, 8).is_none());
        assert!(d
            .join(durable::QUARANTINE_DIR)
            .join("mh-k16-s0000000000000005-5x8.sfmh")
            .exists());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn store_failure_degrades_to_miss() {
        // A file where the cache dir should be: create_dir_all fails, the
        // store reports false, nothing panics.
        let d = dir("store-fail");
        std::fs::create_dir_all(d.parent().unwrap()).unwrap();
        std::fs::write(&d, b"not a directory").unwrap();
        let cache = SignatureCache::new(&d);
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        assert!(!cache.store_signatures(8, 5, 5, 4, &mh));
        assert!(cache.load_signatures(8, 5, 5, 4).is_none());
        let _ = std::fs::remove_file(&d);
    }
}
