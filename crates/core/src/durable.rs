//! Crash-consistent file writes, write-side fault injection, and startup
//! recovery for checkpoint/spill state directories.
//!
//! PR 2 hardened the *read* side (retrying streams, checksummed formats);
//! this module is the matching write-side story. Every file the pipeline
//! persists — checkpoints (`.sfcp`), spill shards (`.sfsp`), the run
//! manifest (`.sfmf`), and the CLI's CSV/metrics outputs — goes through
//! [`write_atomic`], which follows the full crash-consistency discipline:
//!
//! 1. write the bytes to `<name>.tmp` in the destination directory,
//! 2. `fsync` the temp file (so its *contents* are durable),
//! 3. `rename` it over the destination (atomic replace),
//! 4. `fsync` the parent directory (so the *rename* is durable).
//!
//! A crash between any two steps leaves either the old file intact or the
//! new file complete — never a torn destination. The stray `.tmp` a crash
//! can leave behind is swept by the startup recovery on the next run.
//!
//! # Write-side fault injection
//!
//! Mirroring [`FaultyRowStream`](sfa_matrix::fault::FaultyRowStream) on the
//! read side, [`WriteFaultConfig`] deterministically injects the four ways
//! a write can go wrong, as a pure function of the write-operation index
//! and a seed:
//!
//! * **ENOSPC** — the disk fills mid-write: a partial temp file is left
//!   behind and the write fails.
//! * **short write** — the process dies after writing a prefix: a
//!   truncated temp file is left behind and the write fails.
//! * **torn rename** — the crash lands between fsync and rename: a fully
//!   written temp file is left behind, the destination is untouched.
//! * **lost data (crash before fsync)** — the rename lands but the data
//!   blocks never hit the platter: the destination exists with truncated
//!   contents. This is the one failure mode that corrupts the
//!   *destination*, which is exactly why the startup recovery
//!   quarantines rather than trusts.
//!
//! Injection is armed either programmatically (tests) or via the
//! `SFA_WRITE_FAULTS` environment variable (`seed=7,enospc=20,short=20,`
//! `torn=10,lost=10`, rates per 1000 write ops), which is how the chaos
//! harness reaches into `sfa mine` subprocesses. An injected fault aborts
//! the run like a real one would; rerunning with a different seed (the
//! harness salts the seed with the attempt number) eventually completes.
//!
//! # Manifest and quarantine
//!
//! A state directory is owned by one run, identified by its run key
//! (config fingerprint + table shape). The startup recovery (`recover_dir`)
//! restores the directory to a trustworthy state: stray `.tmp` files
//! are deleted, and any checkpoint/spill/manifest file that is corrupt or
//! belongs to a different run key is moved into a `quarantine/`
//! subdirectory — never silently reused, never fatal. Recovery can cost
//! IO (a quarantined shard is regenerated) but never changes output.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sfa_hash::hash64_with_seed;
use sfa_matrix::{MatrixError, Result};

use crate::checkpoint::{RunKey, StateFormat};

/// File name of the per-run manifest inside a state directory.
pub const MANIFEST_NAME: &str = "manifest.sfmf";
/// Subdirectory corrupt or stale state files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The `.sfmf` format: version 1, the run-state header without a kind
/// field and no payload.
const MANIFEST: StateFormat = StateFormat {
    magic: *b"SFMF",
    version: 1,
    kinds: &[],
};

// ---------------------------------------------------------------------------
// fault injection

/// The four injectable write failures, in the order a write performs its
/// steps (see the module docs for what each leaves on disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Disk-full mid-write: partial temp file, write fails.
    Enospc,
    /// Crash after a partial write: truncated temp file, write fails.
    ShortWrite,
    /// Crash between fsync and rename: complete temp file, destination
    /// untouched, write fails.
    TornRename,
    /// Crash after rename but before the data is durable: destination
    /// exists with truncated contents, write fails.
    LostData,
}

/// Deterministic write-fault plan: which write operations fail, and how.
///
/// Mirrors [`FaultConfig`](sfa_matrix::fault::FaultConfig) on the read
/// side. Every atomic write in the process draws a monotonically
/// increasing operation index `n`; op `n` suffers a fault when
/// `hash(n, seed) mod 1000` falls inside one of the per-mille rate bands
/// (bands are stacked in field order), or when `n` appears in
/// [`fault_at_ops`](Self::fault_at_ops). Same seed, same faults — runs
/// are reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteFaultConfig {
    /// Seed for the hash that assigns faults to write ops.
    pub seed: u64,
    /// Expected ENOSPC faults per 1000 write ops.
    pub enospc_per_mille: u32,
    /// Expected short writes per 1000 write ops.
    pub short_write_per_mille: u32,
    /// Expected torn renames per 1000 write ops.
    pub torn_rename_per_mille: u32,
    /// Expected lost-data faults per 1000 write ops.
    pub lost_data_per_mille: u32,
    /// Write ops that always fault, regardless of the rates (for tests
    /// that need a fault at an exact position).
    pub fault_at_ops: Vec<(u64, WriteFault)>,
}

impl WriteFaultConfig {
    /// Parses the `SFA_WRITE_FAULTS` format: comma-separated `key=value`
    /// pairs with keys `seed`, `enospc`, `short`, `torn`, `lost` (rates
    /// per 1000 write ops). Unknown keys or malformed values are an error
    /// so a typo in a chaos config cannot silently disable injection.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let mut config = Self::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            let v: u64 = v
                .trim()
                .parse()
                .map_err(|_| format!("non-numeric value in `{part}`"))?;
            let rate = || {
                u32::try_from(v)
                    .ok()
                    .filter(|r| *r <= 1000)
                    .ok_or_else(|| format!("rate out of range [0,1000] in `{part}`"))
            };
            match k.trim() {
                "seed" => config.seed = v,
                "enospc" => config.enospc_per_mille = rate()?,
                "short" => config.short_write_per_mille = rate()?,
                "torn" => config.torn_rename_per_mille = rate()?,
                "lost" => config.lost_data_per_mille = rate()?,
                other => return Err(format!("unknown write-fault key `{other}`")),
            }
        }
        Ok(config)
    }

    /// Which fault, if any, write op `op` suffers under this plan.
    #[must_use]
    pub fn fault_for(&self, op: u64) -> Option<WriteFault> {
        if let Some((_, fault)) = self.fault_at_ops.iter().find(|(at, _)| *at == op) {
            return Some(*fault);
        }
        let total = u64::from(self.enospc_per_mille)
            + u64::from(self.short_write_per_mille)
            + u64::from(self.torn_rename_per_mille)
            + u64::from(self.lost_data_per_mille);
        if total == 0 {
            return None;
        }
        let draw = hash64_with_seed(op, self.seed) % 1000;
        let mut band = u64::from(self.enospc_per_mille);
        if draw < band {
            return Some(WriteFault::Enospc);
        }
        band += u64::from(self.short_write_per_mille);
        if draw < band {
            return Some(WriteFault::ShortWrite);
        }
        band += u64::from(self.torn_rename_per_mille);
        if draw < band {
            return Some(WriteFault::TornRename);
        }
        band += u64::from(self.lost_data_per_mille);
        if draw < band {
            return Some(WriteFault::LostData);
        }
        None
    }
}

/// A fault plan plus the per-process write-op counter it consumes.
#[derive(Debug)]
struct FaultPlan {
    config: WriteFaultConfig,
    ops: AtomicU64,
}

impl FaultPlan {
    fn new(config: WriteFaultConfig) -> Self {
        Self {
            config,
            ops: AtomicU64::new(0),
        }
    }

    fn next_fault(&self) -> Option<WriteFault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        self.config.fault_for(op)
    }
}

/// The process-wide plan parsed (once) from `SFA_WRITE_FAULTS`. `None`
/// when the variable is unset, empty, or malformed (malformed prints a
/// one-time warning rather than silently mining with corrupted writes).
fn env_plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let raw = std::env::var("SFA_WRITE_FAULTS").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match WriteFaultConfig::parse(&raw) {
            Ok(config) => Some(FaultPlan::new(config)),
            Err(e) => {
                eprintln!("warning: ignoring malformed SFA_WRITE_FAULTS: {e}");
                None
            }
        }
    })
    .as_ref()
}

fn injected(fault: WriteFault, op_detail: &str) -> MatrixError {
    let what = match fault {
        WriteFault::Enospc => "ENOSPC (no space left on device)",
        WriteFault::ShortWrite => "short write",
        WriteFault::TornRename => "crash before rename",
        WriteFault::LostData => "crash before fsync (data lost)",
    };
    std::io::Error::other(format!("injected {what} while writing {op_detail}")).into()
}

// ---------------------------------------------------------------------------
// the atomic write

/// `<name>.tmp` next to `path` — the staging file for an atomic replace.
/// Matches the `phase1.sfcp.tmp` / `verify_group_0.sfsp.tmp` convention
/// the recovery sweep looks for.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs a directory so a rename inside it is durable. On non-unix
/// platforms (where directories cannot be opened for sync) this is a
/// no-op; the rename is still atomic, just not crash-durable.
fn fsync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

fn write_atomic_with(plan: Option<&FaultPlan>, path: &Path, bytes: &[u8]) -> Result<u64> {
    let tmp = tmp_path(path);
    let detail = path.display().to_string();
    if let Some(fault) = plan.and_then(FaultPlan::next_fault) {
        match fault {
            WriteFault::Enospc | WriteFault::ShortWrite => {
                // Both leave a truncated temp file; the destination is
                // untouched, so the previous version (if any) survives.
                let keep = if fault == WriteFault::Enospc {
                    bytes.len() / 3
                } else {
                    bytes.len() * 2 / 3
                };
                std::fs::write(&tmp, &bytes[..keep])?;
                return Err(injected(fault, &detail));
            }
            WriteFault::TornRename => {
                // The temp file is complete and durable, but the rename
                // never happened — the destination is untouched.
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(bytes)?;
                f.sync_all()?;
                return Err(injected(fault, &detail));
            }
            WriteFault::LostData => {
                // The rename landed but the data blocks were never
                // synced: the destination now holds torn contents. The
                // one case startup recovery must quarantine.
                std::fs::write(&tmp, &bytes[..bytes.len() / 2])?;
                std::fs::rename(&tmp, path)?;
                return Err(injected(fault, &detail));
            }
        }
    }
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fsync_dir(parent)?;
    }
    Ok(bytes.len() as u64)
}

/// Atomically and durably replaces `path` with `bytes` (tmp + fsync +
/// rename + parent-dir fsync), honoring any `SFA_WRITE_FAULTS` injection
/// plan. Returns the byte count written.
///
/// # Errors
///
/// Any IO failure, real or injected. On error the destination either
/// still holds its previous contents or (lost-data injection only) holds
/// bytes that fail their format's CRC — both cases the next run recovers
/// from.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<u64> {
    write_atomic_with(env_plan(), path, bytes)
}

/// A directory whose writes follow the crash-consistency discipline, with
/// an optional *local* fault plan that overrides the process-wide
/// `SFA_WRITE_FAULTS` plan — the handle tests and the chaos harness use
/// to inject faults without touching process state.
#[derive(Debug, Clone)]
pub struct DurableDir {
    dir: PathBuf,
    plan: Option<Arc<FaultPlan>>,
}

impl DurableDir {
    /// A durable handle on `dir` using the process-wide fault plan (none,
    /// unless `SFA_WRITE_FAULTS` is set).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            plan: None,
        }
    }

    /// A durable handle with its own injection plan.
    pub fn with_faults(dir: impl Into<PathBuf>, config: WriteFaultConfig) -> Self {
        Self {
            dir: dir.into(),
            plan: Some(Arc::new(FaultPlan::new(config))),
        }
    }

    /// The directory this handle writes into.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Atomically writes `name` inside the directory; see [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Any IO failure, real or injected.
    pub fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<u64> {
        match &self.plan {
            Some(plan) => write_atomic_with(Some(plan), &self.dir.join(name), bytes),
            None => write_atomic_with(env_plan(), &self.dir.join(name), bytes),
        }
    }
}

// ---------------------------------------------------------------------------
// manifest

/// Durably writes the run manifest for `key` into `dir`.
pub(crate) fn write_manifest(dir: &Path, key: RunKey) -> Result<()> {
    write_atomic(&dir.join(MANIFEST_NAME), &MANIFEST.record(None, key).seal())?;
    Ok(())
}

/// Reads the manifest in `dir`, if present and intact.
pub(crate) fn read_manifest(dir: &Path) -> Option<RunKey> {
    let bytes = std::fs::read(dir.join(MANIFEST_NAME)).ok()?;
    let (r, _, key) = MANIFEST.open(&bytes).ok()?;
    r.finish().ok()?;
    Some(key)
}

/// Removes the manifest — called when the run completes and its state
/// files have been cleared, so the directory no longer claims an owner.
pub(crate) fn remove_manifest(dir: &Path) -> Result<()> {
    match std::fs::remove_file(dir.join(MANIFEST_NAME)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// startup recovery

/// What the startup recovery (`recover_dir`) found and fixed in a state
/// directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveredDir {
    /// Corrupt or stale state files moved into `quarantine/`.
    pub files_quarantined: u64,
    /// Stray `.tmp` staging files deleted.
    pub tmp_files_removed: u64,
}

/// Moves `path` into the `quarantine/` subdirectory of `dir`, suffixing
/// the name if a previous quarantine already holds one.
pub(crate) fn quarantine(dir: &Path, path: &Path) -> Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .ok_or_else(|| MatrixError::Io(std::io::Error::other("quarantine target has no name")))?;
    let mut dest = qdir.join(name);
    let mut n = 1u32;
    while dest.exists() {
        let mut salted = name.to_os_string();
        salted.push(format!(".{n}"));
        dest = qdir.join(salted);
        n += 1;
    }
    std::fs::rename(path, &dest)?;
    Ok(())
}

/// Restores a state directory to a trustworthy state for a run keyed by
/// `key`: deletes stray `.tmp` staging files, quarantines corrupt or
/// stale (`.sfcp`, `.sfsp`, manifest) files, and writes a fresh manifest
/// claiming the directory. Valid files belonging to `key` are untouched,
/// so an interrupted run still resumes from them.
pub(crate) fn recover_dir(dir: &Path, key: RunKey) -> Result<RecoveredDir> {
    std::fs::create_dir_all(dir)?;
    let mut report = RecoveredDir::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            match std::fs::remove_file(&path) {
                Ok(()) => report.tmp_files_removed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        } else if name.ends_with(".sfcp") {
            if !crate::checkpoint::valid_for(&path, key) {
                quarantine(dir, &path)?;
                report.files_quarantined += 1;
            }
        } else if name.ends_with(".sfsp") {
            if !crate::spill::valid_for(&path, key) {
                quarantine(dir, &path)?;
                report.files_quarantined += 1;
            }
        } else if name == MANIFEST_NAME && read_manifest(dir) != Some(key) {
            quarantine(dir, &path)?;
            report.files_quarantined += 1;
        }
    }
    write_manifest(dir, key)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sfa-durable-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create test dir");
        d
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.7, 42),
            100,
            7,
        )
    }

    #[test]
    fn clean_write_replaces_atomically_and_leaves_no_tmp() {
        let d = dir("clean-write");
        let dd = DurableDir::new(&d);
        dd.write_atomic("out.bin", b"first").expect("write");
        dd.write_atomic("out.bin", b"second").expect("rewrite");
        assert_eq!(std::fs::read(d.join("out.bin")).unwrap(), b"second");
        assert!(!d.join("out.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fault_bands_are_deterministic_and_stack() {
        let config = WriteFaultConfig {
            seed: 9,
            enospc_per_mille: 250,
            short_write_per_mille: 250,
            torn_rename_per_mille: 250,
            lost_data_per_mille: 250,
            ..WriteFaultConfig::default()
        };
        // All bands together cover every draw.
        for op in 0..64 {
            assert!(config.fault_for(op).is_some());
            assert_eq!(config.fault_for(op), config.fault_for(op));
        }
        let none = WriteFaultConfig::default();
        assert_eq!(none.fault_for(0), None);
        let forced = WriteFaultConfig {
            fault_at_ops: vec![(3, WriteFault::TornRename)],
            ..WriteFaultConfig::default()
        };
        assert_eq!(forced.fault_for(3), Some(WriteFault::TornRename));
        assert_eq!(forced.fault_for(2), None);
    }

    #[test]
    fn parse_round_trips_the_env_format() {
        let c = WriteFaultConfig::parse("seed=7, enospc=20,short=5,torn=1,lost=2").expect("parse");
        assert_eq!(c.seed, 7);
        assert_eq!(c.enospc_per_mille, 20);
        assert_eq!(c.short_write_per_mille, 5);
        assert_eq!(c.torn_rename_per_mille, 1);
        assert_eq!(c.lost_data_per_mille, 2);
        assert!(WriteFaultConfig::parse("bogus=1").is_err());
        assert!(WriteFaultConfig::parse("enospc=1001").is_err());
        assert!(WriteFaultConfig::parse("seed").is_err());
        assert_eq!(
            WriteFaultConfig::parse("").expect("empty is no faults"),
            WriteFaultConfig::default()
        );
    }

    #[test]
    fn enospc_and_short_write_leave_truncated_tmp_and_keep_destination() {
        for fault in [WriteFault::Enospc, WriteFault::ShortWrite] {
            let d = dir(&format!("tmp-fault-{fault:?}"));
            let dd = DurableDir::with_faults(
                &d,
                WriteFaultConfig {
                    fault_at_ops: vec![(1, fault)],
                    ..WriteFaultConfig::default()
                },
            );
            dd.write_atomic("out.bin", b"previous contents")
                .expect("op 0 clean");
            let err = dd
                .write_atomic("out.bin", b"new contents that never land")
                .expect_err("op 1 faults");
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(
                std::fs::read(d.join("out.bin")).unwrap(),
                b"previous contents",
                "destination must survive a {fault:?}"
            );
            let tmp = std::fs::read(d.join("out.bin.tmp")).expect("stray tmp left behind");
            assert!(tmp.len() < b"new contents that never land".len());
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn torn_rename_leaves_complete_tmp_and_untouched_destination() {
        let d = dir("torn-rename");
        let dd = DurableDir::with_faults(
            &d,
            WriteFaultConfig {
                fault_at_ops: vec![(0, WriteFault::TornRename)],
                ..WriteFaultConfig::default()
            },
        );
        dd.write_atomic("out.bin", b"payload").expect_err("faults");
        assert!(!d.join("out.bin").exists());
        assert_eq!(std::fs::read(d.join("out.bin.tmp")).unwrap(), b"payload");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn lost_data_tears_the_destination() {
        let d = dir("lost-data");
        let dd = DurableDir::with_faults(
            &d,
            WriteFaultConfig {
                fault_at_ops: vec![(0, WriteFault::LostData)],
                ..WriteFaultConfig::default()
            },
        );
        dd.write_atomic("out.bin", b"0123456789")
            .expect_err("faults");
        assert_eq!(
            std::fs::read(d.join("out.bin")).unwrap(),
            b"01234",
            "destination holds the torn prefix"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let d = dir("manifest");
        assert_eq!(read_manifest(&d), None);
        write_manifest(&d, key()).expect("write");
        assert_eq!(read_manifest(&d), Some(key()));
        let path = d.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_manifest(&d), None, "bit flip must disqualify");
        remove_manifest(&d).expect("remove");
        remove_manifest(&d).expect("idempotent");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn recover_dir_sweeps_tmp_quarantines_stale_and_claims_the_dir() {
        let d = dir("recover");
        // A stray staging file, a stale manifest, and two garbage state
        // files that must be quarantined.
        std::fs::write(d.join("phase1.sfcp.tmp"), b"half a checkpoint").unwrap();
        std::fs::write(d.join("phase1.sfcp"), b"SFCPgarbage").unwrap();
        std::fs::write(d.join("shard_0_of_2.sfsp"), b"SFSPgarbage").unwrap();
        let other = RunKey {
            fingerprint: 1,
            n_rows: 2,
            n_cols: 3,
        };
        write_manifest(&d, other).expect("stale manifest");
        let report = recover_dir(&d, key()).expect("recover");
        assert_eq!(
            report,
            RecoveredDir {
                files_quarantined: 3,
                tmp_files_removed: 1
            }
        );
        assert!(!d.join("phase1.sfcp.tmp").exists());
        assert!(!d.join("phase1.sfcp").exists());
        let q = d.join(QUARANTINE_DIR);
        assert!(q.join("phase1.sfcp").exists());
        assert!(q.join("shard_0_of_2.sfsp").exists());
        assert!(q.join(MANIFEST_NAME).exists());
        assert_eq!(read_manifest(&d), Some(key()), "directory is claimed");
        // Idempotent: a second recovery finds nothing to fix.
        assert_eq!(
            recover_dir(&d, key()).expect("again"),
            RecoveredDir::default()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn recover_dir_keeps_valid_state_for_the_same_key() {
        let d = dir("recover-keeps");
        let spec = crate::checkpoint::CheckpointSpec::new(&d);
        let state = crate::checkpoint::Phase1State::Mh {
            rows_done: 64,
            sigs: sfa_minhash::SignatureMatrix::from_values(2, 3, vec![1, 2, 3, 4, 5, 6]),
        };
        crate::checkpoint::save_phase1(&spec, key(), &state).expect("save");
        let report = recover_dir(&d, key()).expect("recover");
        assert_eq!(report, RecoveredDir::default());
        assert_eq!(
            crate::checkpoint::load_phase1(&spec, key()),
            Some(state),
            "valid checkpoint survives recovery"
        );
        // Same directory, different run: the checkpoint is now stale and
        // must be moved aside, not resumed into wrong state.
        let other = RunKey {
            fingerprint: 99,
            n_rows: 100,
            n_cols: 7,
        };
        let report = recover_dir(&d, other).expect("recover other");
        assert_eq!(report.files_quarantined, 2, "checkpoint and manifest");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn quarantine_never_overwrites_previous_quarantines() {
        let d = dir("quarantine-suffix");
        for round in 0..3 {
            std::fs::write(d.join("phase1.sfcp"), format!("SFCPbad{round}")).unwrap();
            recover_dir(&d, key()).expect("recover");
        }
        let q = d.join(QUARANTINE_DIR);
        assert!(q.join("phase1.sfcp").exists());
        assert!(q.join("phase1.sfcp.1").exists());
        assert!(q.join("phase1.sfcp.2").exists());
        let _ = std::fs::remove_dir_all(&d);
    }
}
