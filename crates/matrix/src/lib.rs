//! # sfa-matrix — sparse boolean matrix substrate
//!
//! The paper (Cohen et al., ICDE 2000) views the data as an `n × m` 0/1
//! matrix `M`: rows are tuples/baskets/clients, columns are
//! attributes/items/URLs. The matrix is sparse (average 1s per row
//! `r ≪ m`) and, in the setting the paper targets, too large for main
//! memory — algorithms may only *stream* its rows.
//!
//! This crate provides that substrate:
//!
//! * [`column::ColumnSet`] — an exact sparse column (sorted row ids) with
//!   the set operations the paper's definitions are written in terms of:
//!   `|C_i ∩ C_j|`, `|C_i ∪ C_j|`, the Jaccard similarity `S(c_i, c_j)`,
//!   the confidence `Conf(c_i → c_j)`, and the Hamming distance of Lemma 3.
//!   Raw-slice intersections dispatch adaptively (sorted merge, galloping
//!   search, or bitmap popcount — [`column::intersection_size_auto`]).
//! * [`bitmap::BitMatrix`] — per-column `u64` row-bitmaps with the
//!   AND-popcount kernel ([`kernel`]) and a blocked all-pairs driver; the
//!   fast path behind the §5.1 brute-force ground truth.
//! * [`builder::MatrixBuilder`] — validated incremental construction.
//! * [`csc::SparseMatrix`] — column-major storage (fast column access;
//!   used for ground truth, verification bookkeeping and per-column views).
//! * [`csr::RowMajorMatrix`] — row-major storage, the in-memory stand-in
//!   for the disk-resident table; all signature computations scan it
//!   row-by-row through the [`stream::RowStream`] trait.
//! * [`stream::RowStream`] — single-pass row scanning abstraction with an
//!   in-memory and an on-disk (file-backed) implementation, so tests can
//!   prove that phase 1 and phase 3 really are single-pass.
//! * [`io`] — a small text format and a checksummed binary format for
//!   matrices ([`crc32`] holds the in-tree CRC-32 implementation).
//! * [`record`] — the sealed-record codec (LE fields behind a magic, CRC-32
//!   trailer) that every checksummed sketch and run-state file goes
//!   through.
//! * [`fault`] — deterministic fault injection ([`fault::FaultyRowStream`])
//!   and bounded-retry recovery ([`fault::RetryingRowStream`]) for testing
//!   and surviving transient IO failures mid-pass.
//! * [`ops`] — support pruning, column selection, and the random
//!   row-pairing OR-fold that defines the H-LSH density ladder (§4.2).
//! * [`stats`] — exact all-pairs similarity (the paper's offline
//!   brute-force ground truth), similarity histograms (Fig. 3), density
//!   statistics and the average similarity `S̄` appearing in the §3.1
//!   running-time analyses.
//! * [`triangle`] — the paper's literal dense all-pairs counter
//!   ("counters for all pairs in the main memory", §5.1), as an
//!   alternative exact method for modest column counts.

pub mod bitmap;
pub mod builder;
pub mod column;
pub mod container;
pub mod crc32;
pub mod csc;
pub mod csr;
pub mod error;
pub mod fault;
pub mod io;
pub mod kernel;
pub mod ops;
pub mod record;
pub mod stats;
pub mod stream;
pub mod triangle;

pub use bitmap::BitMatrix;
pub use builder::MatrixBuilder;
pub use column::ColumnSet;
pub use container::{ContainerStats, HybridColumn, HybridColumns};
pub use csc::SparseMatrix;
pub use csr::RowMajorMatrix;
pub use error::{MatrixError, Result};
pub use fault::{FaultConfig, FaultyRowStream, RetryStats, RetryingRowStream};
pub use kernel::KernelArm;
pub use stream::{FileRowStream, MemoryRowStream, PassScan, RowStream, ScanCounter};
