//! The runtime-dispatched SIMD kernel of MH's phase-1 signature scan.
//!
//! Phase 1 (§3) is "assign random hash values to the rows, keep the
//! per-column minimum": for every 1-entry of the table, the row's `k`-wide
//! hash vector is min-merged into that column's signature. At `k = 100`
//! and millions of nonzeros this elementwise min is the densest loop in
//! the whole pipeline, so it gets the same treatment phase 3 got in the
//! kernel layer of `sfa_matrix::kernel`: a portable scalar arm that is
//! the semantic floor, plus SIMD arms selected once per process.
//!
//! Arm selection is *shared* with the phase-3 kernels — this module asks
//! [`sfa_matrix::kernel::arm`] which arm is active, so `--kernel` /
//! `SFA_KERNEL` pin phase 1 and phase 3 together and `dispatch_arm` in
//! the metrics describes both.
//!
//! The kernel is [`min_merge_u64`]: `dst[i] = min(dst[i], src[i])` over
//! unsigned 64-bit lanes. AVX2 has no unsigned 64-bit min, so the AVX2
//! arm uses the sign-flip trick: XOR both operands with `2^63`, compare
//! with the *signed* `vpcmpgtq`, and blend. NEON compares natively
//! (`vcgtq_u64`) and selects with `vbslq_u64`. K-MH's phase 1 has no
//! kernel here: its one admission compare per nonzero is a plain loop in
//! [`KmhBuilder::push_row`](crate::builder::KmhBuilder::push_row).
//!
//! Every arm returns exactly the same bytes; `tests/signature_kernels.rs`
//! pins scalar-vs-SIMD agreement and CI re-runs the suites under
//! `SFA_KERNEL=scalar` so the portable floor cannot rot.

use sfa_matrix::kernel::{arm, simd_arm, KernelArm};

/// `dst[i] = min(dst[i], src[i])` via the selected arm.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn min_merge_u64(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "min-merge length mismatch");
    match arm() {
        KernelArm::Scalar => min_merge_u64_scalar(dst, src),
        KernelArm::Avx2 | KernelArm::Neon => simd_min_merge(dst, src),
    }
}

/// Scalar arm of [`min_merge_u64`] (the portable floor).
pub fn min_merge_u64_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if s < *d {
            *d = s;
        }
    }
}

/// Forced-SIMD arm of [`min_merge_u64`]; returns `false` (leaving `dst`
/// untouched) when the CPU has no SIMD arm. Race-free for tests: bypasses
/// (and never mutates) the cached process-wide arm.
pub fn min_merge_u64_simd(dst: &mut [u64], src: &[u64]) -> bool {
    assert_eq!(dst.len(), src.len(), "min-merge length mismatch");
    if simd_arm().is_some() {
        simd_min_merge(dst, src);
        true
    } else {
        false
    }
}

// ---------------------------------------------------------------------------
// AVX2 arm (x86-64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Sign-flip unsigned-min. Every function is `unsafe` with
    //! `#[target_feature(enable = "avx2")]`; callers in the parent module
    //! only reach these after runtime detection reports AVX2.

    use std::arch::x86_64::{
        _mm256_blendv_epi8, _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_set1_epi64x,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// The unsigned-compare bias: XOR with `2^63` maps unsigned order
    /// onto signed order, so `vpcmpgtq` (signed) compares unsigned.
    const SIGN: i64 = i64::MIN;

    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher) and
    /// `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_merge(dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let bias = _mm256_set1_epi64x(SIGN);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: the guard leaves >= 4 readable (and writable, for
            // `dst`) words past `i` in both slices.
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            // d > s unsigned <=> (d ^ 2^63) > (s ^ 2^63) signed.
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(d, bias), _mm256_xor_si256(s, bias));
            let m = _mm256_blendv_epi8(d, s, gt);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), m);
            i += 4;
        }
        for w in i..n {
            if src[w] < dst[w] {
                dst[w] = src[w];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NEON arm (aarch64). NEON is baseline on aarch64, but the functions keep
// the target_feature annotation so the safety contract mirrors AVX2.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{vbslq_u64, vcgtq_u64, vld1q_u64, vst1q_u64};

    /// # Safety
    ///
    /// Requires NEON (checked by the dispatcher) and
    /// `dst.len() == src.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn min_merge(dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY: the guard leaves >= 2 readable/writable words.
            let d = vld1q_u64(dst.as_ptr().add(i));
            let s = vld1q_u64(src.as_ptr().add(i));
            // Select `s` in lanes where d > s (unsigned): the min.
            vst1q_u64(dst.as_mut_ptr().add(i), vbslq_u64(vcgtq_u64(d, s), s, d));
            i += 2;
        }
        for w in i..n {
            if src[w] < dst[w] {
                dst[w] = src[w];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD entry points (compiled per-arch; scalar elsewhere).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
fn simd_min_merge(dst: &mut [u64], src: &[u64]) {
    // SAFETY: only reached when `simd_arm()` reported AVX2.
    unsafe { avx2::min_merge(dst, src) }
}

#[cfg(target_arch = "aarch64")]
fn simd_min_merge(dst: &mut [u64], src: &[u64]) {
    // SAFETY: only reached when `simd_arm()` reported NEON.
    unsafe { neon::min_merge(dst, src) }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_min_merge(dst: &mut [u64], src: &[u64]) {
    min_merge_u64_scalar(dst, src);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift word stream for kernel tests.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn simd_min_merge_matches_scalar_across_lengths() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 100, 101] {
            let src = words(0x9e37_79b9 ^ n as u64, n);
            let mut scalar = words(0x85eb_ca6b ^ n as u64, n);
            let mut simd = scalar.clone();
            let mut dispatched = scalar.clone();
            min_merge_u64_scalar(&mut scalar, &src);
            if min_merge_u64_simd(&mut simd, &src) {
                assert_eq!(simd, scalar, "n={n}");
            }
            min_merge_u64(&mut dispatched, &src);
            assert_eq!(dispatched, scalar, "n={n}");
        }
    }

    #[test]
    fn min_merge_handles_extremes() {
        // Sign-flip correctness hinges on values straddling 2^63, and the
        // sentinel u64::MAX must always lose to a real hash.
        let src = vec![0, u64::MAX, 1 << 63, (1 << 63) - 1, u64::MAX, 3, 9, 2];
        let mut scalar = vec![u64::MAX, 5, (1 << 63) + 1, 1 << 63, u64::MAX, 4, 2, 2];
        let mut simd = scalar.clone();
        min_merge_u64_scalar(&mut scalar, &src);
        if min_merge_u64_simd(&mut simd, &src) {
            assert_eq!(simd, scalar);
        }
        assert_eq!(
            scalar,
            vec![0, 5, 1 << 63, (1 << 63) - 1, u64::MAX, 3, 2, 2]
        );
    }

    #[test]
    #[should_panic(expected = "min-merge length mismatch")]
    fn min_merge_rejects_length_mismatch() {
        let mut dst = vec![0u64; 3];
        min_merge_u64(&mut dst, &[1, 2]);
    }
}
