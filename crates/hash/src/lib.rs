//! # sfa-hash — hashing substrate for support-free association mining
//!
//! This crate provides the hashing machinery that the min-hashing and
//! locality-sensitive hashing schemes of Cohen et al. (ICDE 2000) are built
//! on. Everything here is implemented from scratch:
//!
//! * [`mix`] — stateless 64/32-bit mixing finalizers (splitmix64 and the
//!   MurmurHash3 finalizers) used as building blocks everywhere else.
//! * [`family`] — a seedable family of independent hash functions over
//!   row identifiers. A `k`-member family defines `k` implicit random row
//!   permutations, which is exactly how the MH scheme avoids materializing
//!   permutations (paper, §3).
//! * [`topk`] — a bounded bottom-k tracker (max-heap + membership set) used
//!   by the K-MH scheme to retain the `k` smallest row hashes per column
//!   in `O(log k)` per accepted update (paper, §3.2).
//! * [`bucket`] — reusable sparse counters implementing the paper's
//!   "remember and reinitialize only counters that were incremented"
//!   trick (§3.1), and the integer-keyed hash maps.
//! * [`index`] — the phase-2 counting kernel every candidate generator
//!   runs on: a bucket CSR with its column → partner inverse, walked one
//!   focus column at a time.
//! * [`rng`] — deterministic seed derivation so that every experiment in
//!   the reproduction is replayable from a single `u64` seed.

pub mod bucket;
pub mod family;
pub mod index;
pub mod mix;
pub mod rng;
pub mod topk;

pub use bucket::{FastHashMap, FastHashSet, FxBuildHasher, SparseCounters};
pub use family::{HashFamily, RowHasher};
pub use index::{BucketIndex, PairWalker};
pub use mix::{fmix32, fmix64, hash64_with_seed, splitmix64};
pub use rng::SeedSequence;
pub use topk::BottomK;
