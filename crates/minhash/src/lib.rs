//! # sfa-minhash — the paper's Min-Hashing schemes (§3)
//!
//! Two signature schemes and two candidate-generation algorithms:
//!
//! * [`mh`] — **MH**: `k` independent implicit row permutations; the
//!   signature of a column is the vector of its `k` min-hash values
//!   (Proposition 1: `Pr[h(c_i) = h(c_j)] = S(c_i, c_j)`). Computed in a
//!   single pass over the rows with `O(mk)` memory.
//! * [`kmh`] — **K-MH** (§3.2): a *single* hash per row; the signature is
//!   the set of the `k` smallest hash values among the column's rows (a
//!   bottom-k sketch). Cheaper to compute — one hash per 1-entry instead of
//!   `k` — and sublinear in `k` on sparse data, which is Fig. 6b.
//! * [`rowsort`] — the Row-Sorting candidate generator (§3.1): sort each
//!   signature row, walk runs of equal values, count agreements;
//!   `O(km log m + k S̄ m²)` expected.
//! * [`hashcount`] — the Hash-Count candidate generator (§3.1): bucket
//!   columns by min-hash value and count bucket co-occupancy;
//!   `O(k S̄ m²)` expected.
//! * [`candidates`] — the candidate containers and the phase-2 driver
//!   every generator (these and `sfa-lsh`'s) runs through: a scheme's
//!   bucket index plus its [`PairRule`], walked one focus column at a
//!   time.
//! * [`estimate`] — the estimators: `Ŝ` (Definition 1), the Theorem 2
//!   unbiased K-MH estimator, and the Lemma 1 biased estimator with its
//!   bounds.
//! * [`theory`] — Theorem 1: the `k ≥ 2 δ⁻² c⁻¹ ln(1/ε)` signature-size
//!   bound and the Chernoff machinery behind it.
//! * [`signature`] — signature containers shared by the schemes and by
//!   `sfa-lsh`.
//! * [`explicit`] — the textbook explicit-permutation formulation,
//!   reproducing the paper's Example 1 exactly and serving as a
//!   differential oracle for the hashed implementation.
//! * [`kernel`] — the runtime-dispatched SIMD min-merge kernel MH's
//!   builder runs through; arm selection is shared with the phase-3
//!   kernels in `sfa_matrix::kernel`.

pub mod builder;
pub mod candidates;
pub mod estimate;
pub mod explicit;
pub mod hashcount;
pub mod kernel;
pub mod kmh;
pub mod mh;
pub mod persist;
pub mod rowsort;
pub mod signature;
pub mod theory;
mod walk;

pub use builder::{KmhBuilder, MhBuilder};
pub use candidates::{CandidateGen, CandidateGenStats, CandidatePair, CandidateStream, PairRule};
pub use kmh::{compute_bottom_k, compute_bottom_k_pool, BottomKSignatures};
pub use mh::{compute_signatures, compute_signatures_pool};
pub use signature::{SignatureMatrix, EMPTY_SIGNATURE};
