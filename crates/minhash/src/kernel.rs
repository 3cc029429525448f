//! The phase-1 min-merge kernel of MH's signature scan.
//!
//! Phase 1 (§3) is "assign random hash values to the rows, keep the
//! per-column minimum": for every 1-entry of the table, the row's `k`-wide
//! hash vector is min-merged into that column's signature. At `k = 100`
//! and millions of nonzeros this elementwise min is the densest loop in
//! the whole pipeline.
//!
//! The kernel is [`min_merge_u64`]: `dst[i] = min(dst[i], src[i])` over
//! unsigned 64-bit lanes. Its one loop body, [`min_merge_u64_scalar`], is
//! compiled twice: for the baseline target, and inside an AVX2 wrapper
//! where the compiler vectorizes it four lanes at a time. The wrapper runs
//! when [`sfa_matrix::kernel::simd_arm`] reports AVX2 — the arm the
//! metrics' `dispatch_arm` names. K-MH's phase 1 has no kernel here: its
//! one admission compare per nonzero is a plain loop in
//! [`KmhBuilder::push_row`](crate::builder::KmhBuilder::push_row).
//!
//! Both builds run the same loop, so they write the same bytes;
//! `tests/signature_kernels.rs` compares them and a reference fold.

/// `dst[i] = min(dst[i], src[i])` on the CPU's kernel arm.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn min_merge_u64(dst: &mut [u64], src: &[u64]) {
    if !min_merge_u64_simd(dst, src) {
        min_merge_u64_scalar(dst, src);
    }
}

/// Scalar arm of [`min_merge_u64`]: the one loop body, inlined into each
/// arm so each compiles it for its own target features.
#[inline(always)]
pub fn min_merge_u64_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if s < *d {
            *d = s;
        }
    }
}

/// The AVX2 arm of [`min_merge_u64`]; returns `false` (leaving `dst`
/// untouched) when the CPU has no SIMD arm.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn min_merge_u64_simd(dst: &mut [u64], src: &[u64]) -> bool {
    assert_eq!(dst.len(), src.len(), "min-merge length mismatch");
    #[cfg(target_arch = "x86_64")]
    if sfa_matrix::kernel::simd_arm().is_some() {
        // SAFETY: `simd_arm` reports a SIMD arm on x86-64 only when the
        // CPU has AVX2.
        unsafe { min_merge_avx2(dst, src) };
        return true;
    }
    false
}

/// [`min_merge_u64_scalar`] compiled for AVX2; to be called only where
/// the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn min_merge_avx2(dst: &mut [u64], src: &[u64]) {
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
