//! # sfa-lsh — the paper's Locality-Sensitive Hashing schemes (§4)
//!
//! LSH trades the `O(k S̄ m²)` pairwise counting of the Min-Hashing
//! candidate generators for bucket collisions: "hash columns so as to
//! ensure that, for each hash function, the probability of collision is
//! much higher for similar columns than for dissimilar ones".
//!
//! * [`mlsh`] — **M-LSH** (§4.1): split the `k × m` min-hash matrix `M̂`
//!   into `l` bands of `r` rows; a column's key in a band is the
//!   concatenation of its `r` values; pairs sharing any bucket in any band
//!   are candidates. Also the `Q_{r,l,k}` variant that *samples* `r` of
//!   `k` values per iteration so `k < r·l` suffices.
//! * [`filter`] — the filter functions `P_{r,l}(s) = 1 − (1 − s^r)^l` and
//!   `Q_{r,l,k}(s)` (Fig. 2), with the exact binomial mixture.
//! * [`optimize`] — the paper's input-sensitive parameter optimization:
//!   given (an estimate of) the similarity distribution `distr(s)`,
//!   minimize `l·r` subject to expected false negatives `≤ n₋` and
//!   expected false positives `≤ n₊`.
//! * [`hamming`] — Lemma 3: the similarity ↔ Hamming-distance
//!   correspondence behind H-LSH.
//! * [`hlsh`] — **H-LSH** (§4.2): the density ladder `M_0, M_1, …` (each
//!   level ORs random row pairs of the previous), per-level density gating
//!   into `(1/t, (t−1)/t)`, and `r`-row sampled bit-pattern hashing,
//!   repeated `l` times per level. No level is materialized: the base rows
//!   are laid out in the pairing tree's leaf order, where every level-`L`
//!   row is an aligned block of `2^L` base rows.
//! * [`online`] — the §4 online/interruptible mode: iterations stream out
//!   newly found pairs with a running recall estimate, so "the user can
//!   monitor the progress of the algorithm and interrupt the process at
//!   any time".

pub mod filter;
pub mod hamming;
pub mod hlsh;
pub mod mlsh;
pub mod online;
pub mod optimize;

pub use filter::{p_filter, q_filter};
pub use hlsh::{
    hlsh_candidates, hlsh_candidates_with_stats, hlsh_candidates_with_stats_pool, hlsh_generator,
    HLshParams,
};
pub use mlsh::{
    mlsh_candidates, mlsh_candidates_with_stats, mlsh_candidates_with_stats_pool, mlsh_generator,
    BandSelection, MLshParams,
};
pub use online::OnlineMLsh;
pub use optimize::{optimize_params, SimilarityDistribution};
