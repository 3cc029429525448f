//! Runtime-dispatched SIMD counting kernel.
//!
//! Every bitmap count in the pipeline bottoms out in one word kernel,
//! AND-popcount (`|a ∩ b|` over bitmaps). This module owns the *arm
//! selection* for it, and for the phase-1 min-merge in
//! `sfa_minhash::kernel`: one of
//!
//! * **scalar** — an unrolled 4-accumulator popcount loop, the
//!   portable floor that every other arm must match bit-for-bit;
//! * **avx2** — Harley–Seal carry-save popcount (16 × 256-bit vectors =
//!   64 words per iteration) on x86-64 CPUs that report AVX2;
//! * **neon** — `vcnt`-based popcount on aarch64.
//!
//! The arm is picked once per process — from the `SFA_KERNEL`
//! environment variable (`auto` | `scalar` | `simd`), the `--kernel`
//! CLI flag via [`force`], or CPU feature detection
//! (`is_x86_feature_detected!`) — and cached in an atomic, so the hot
//! loops pay a single relaxed load, not a detection test per call.
//!
//! Every arm returns *exactly* the same counts: SIMD only reorders the
//! adds of a popcount, it never approximates. The
//! `tests/kernel_equivalence` proptests pin scalar-vs-SIMD agreement;
//! CI runs the suites twice (once with `SFA_KERNEL=scalar`) so the
//! portable fallback cannot rot.

use std::sync::atomic::{AtomicU8, Ordering};

/// What the user asked for (CLI `--kernel`, `SFA_KERNEL` env).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Pick the best arm the CPU supports (the default).
    Auto,
    /// Force the portable scalar kernels.
    Scalar,
    /// Require a SIMD arm; an error if the CPU has none.
    Simd,
}

impl std::str::FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "scalar" => Ok(Self::Scalar),
            "simd" => Ok(Self::Simd),
            other => Err(format!("kernel must be auto|scalar|simd, got {other:?}")),
        }
    }
}

/// The kernel arm actually executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelArm {
    /// Portable unrolled scalar loops.
    Scalar,
    /// AVX2 Harley–Seal popcount (x86-64).
    Avx2,
    /// NEON `vcnt` popcount (aarch64).
    Neon,
}

impl KernelArm {
    /// Stable lowercase name, as reported in metrics (`dispatch_arm`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
        }
    }
}

const ARM_UNSET: u8 = 0;
const ARM_SCALAR: u8 = 1;
const ARM_AVX2: u8 = 2;
const ARM_NEON: u8 = 3;

/// Cached arm for the whole process; `ARM_UNSET` until first use.
static ARM: AtomicU8 = AtomicU8::new(ARM_UNSET);

const fn encode(arm: KernelArm) -> u8 {
    match arm {
        KernelArm::Scalar => ARM_SCALAR,
        KernelArm::Avx2 => ARM_AVX2,
        KernelArm::Neon => ARM_NEON,
    }
}

const fn decode(code: u8) -> KernelArm {
    match code {
        ARM_AVX2 => KernelArm::Avx2,
        ARM_NEON => KernelArm::Neon,
        _ => KernelArm::Scalar,
    }
}

/// The SIMD arm this CPU supports, if any (independent of what is
/// currently selected).
#[must_use]
pub fn simd_arm() -> Option<KernelArm> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(KernelArm::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Some(KernelArm::Neon);
        }
    }
    None
}

/// First-use arm selection: `SFA_KERNEL` env override, then CPU
/// detection. Unknown or unsatisfiable env values fall back to `auto`
/// (the CLI flag validates strictly; the env var is best-effort).
fn initial_arm() -> KernelArm {
    match std::env::var("SFA_KERNEL").ok().as_deref() {
        Some("scalar") => KernelArm::Scalar,
        _ => simd_arm().unwrap_or(KernelArm::Scalar),
    }
}

/// The currently selected arm (detecting and caching on first call).
#[must_use]
pub fn arm() -> KernelArm {
    match ARM.load(Ordering::Relaxed) {
        ARM_UNSET => {
            // Benign race: concurrent first calls compute the same value.
            let arm = initial_arm();
            ARM.store(encode(arm), Ordering::Relaxed);
            arm
        }
        code => decode(code),
    }
}

/// The selected arm's stable name (`"scalar"` | `"avx2"` | `"neon"`).
#[must_use]
pub fn arm_name() -> &'static str {
    arm().name()
}

/// Forces the process-wide arm (the CLI `--kernel` hook). `Auto`
/// re-runs detection; `Simd` fails when the CPU offers no SIMD arm.
///
/// # Errors
///
/// Returns a message when `Simd` is requested on a CPU without AVX2/NEON.
pub fn force(choice: KernelChoice) -> Result<KernelArm, String> {
    let arm = match choice {
        KernelChoice::Auto => simd_arm().unwrap_or(KernelArm::Scalar),
        KernelChoice::Scalar => KernelArm::Scalar,
        KernelChoice::Simd => simd_arm()
            .ok_or_else(|| "no SIMD kernel arm on this CPU (need AVX2 or NEON)".to_string())?,
    };
    ARM.store(encode(arm), Ordering::Relaxed);
    Ok(arm)
}

// ---------------------------------------------------------------------------
// Scalar arm (the portable floor; also the tail loop of every SIMD arm).
// ---------------------------------------------------------------------------

/// Scalar AND-popcount: unrolled with four independent accumulators so
/// the popcounts pipeline instead of serializing on one add chain.
/// Slices of unequal length are truncated to the shorter (missing words
/// AND to zero).
#[must_use]
pub fn and_popcount_scalar(a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    for (wa, wb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        c0 += (wa[0] & wb[0]).count_ones() as u64;
        c1 += (wa[1] & wb[1]).count_ones() as u64;
        c2 += (wa[2] & wb[2]).count_ones() as u64;
        c3 += (wa[3] & wb[3]).count_ones() as u64;
    }
    for (wa, wb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        c0 += (wa & wb).count_ones() as u64;
    }
    (c0 + c1 + c2 + c3) as usize
}

// ---------------------------------------------------------------------------
// AVX2 arm (x86-64): Harley–Seal carry-save popcount.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Harley–Seal AND-popcount. Every function here is `unsafe` with
    //! `#[target_feature(enable = "avx2")]`; the module boundary is the
    //! safety contract — callers in the parent module only reach these
    //! after runtime detection reports AVX2.

    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_slli_epi64, _mm256_srli_epi16,
        _mm256_xor_si256,
    };

    /// Per-lane popcount of a 256-bit vector as four `u64` sums, via the
    /// classic nibble lookup (`vpshufb`) + `vpsadbw` reduction.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Carry-save full adder: returns `(carry, sum)` of `a + b + c`
    /// per bit — the Harley–Seal building block.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn csa(c: __m256i, a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        let carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
        (carry, _mm256_xor_si256(u, c))
    }

    /// Horizontal sum of the four `u64` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> u64 {
        (_mm256_extract_epi64::<0>(v) as u64)
            .wrapping_add(_mm256_extract_epi64::<1>(v) as u64)
            .wrapping_add(_mm256_extract_epi64::<2>(v) as u64)
            .wrapping_add(_mm256_extract_epi64::<3>(v) as u64)
    }

    /// Loads words `w..w+4` of both slices and ANDs them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_and(a: *const u64, b: *const u64, w: usize) -> __m256i {
        // SAFETY contract (callers): `w + 4` words readable at both.
        let va = _mm256_loadu_si256(a.add(w).cast());
        let vb = _mm256_loadu_si256(b.add(w).cast());
        _mm256_and_si256(va, vb)
    }

    /// Harley–Seal AND-popcount: 16 vectors (64 words) per iteration
    /// feed a carry-save adder tree whose `ones/twos/fours/eights`
    /// residues are popcounted once at the end, so the inner loop runs
    /// one `popcount256` per 64 words instead of 16.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the dispatcher) and
    /// `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut total = _mm256_setzero_si256();
        let mut ones = _mm256_setzero_si256();
        let mut twos = _mm256_setzero_si256();
        let mut fours = _mm256_setzero_si256();
        let mut eights = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 64 <= n {
            // SAFETY: the loop guard leaves >= 64 readable words past `i`
            // in both slices, and every load below stays within
            // `i..i + 64`.
            let (twos_a, o) = csa(ones, load_and(ap, bp, i), load_and(ap, bp, i + 4));
            ones = o;
            let (twos_b, o) = csa(ones, load_and(ap, bp, i + 8), load_and(ap, bp, i + 12));
            ones = o;
            let (fours_a, t) = csa(twos, twos_a, twos_b);
            twos = t;
            let (twos_a, o) = csa(ones, load_and(ap, bp, i + 16), load_and(ap, bp, i + 20));
            ones = o;
            let (twos_b, o) = csa(ones, load_and(ap, bp, i + 24), load_and(ap, bp, i + 28));
            ones = o;
            let (fours_b, t) = csa(twos, twos_a, twos_b);
            twos = t;
            let (eights_a, f) = csa(fours, fours_a, fours_b);
            fours = f;
            let (twos_a, o) = csa(ones, load_and(ap, bp, i + 32), load_and(ap, bp, i + 36));
            ones = o;
            let (twos_b, o) = csa(ones, load_and(ap, bp, i + 40), load_and(ap, bp, i + 44));
            ones = o;
            let (fours_a, t) = csa(twos, twos_a, twos_b);
            twos = t;
            let (twos_a, o) = csa(ones, load_and(ap, bp, i + 48), load_and(ap, bp, i + 52));
            ones = o;
            let (twos_b, o) = csa(ones, load_and(ap, bp, i + 56), load_and(ap, bp, i + 60));
            ones = o;
            let (fours_b, t) = csa(twos, twos_a, twos_b);
            twos = t;
            let (eights_b, f) = csa(fours, fours_a, fours_b);
            fours = f;
            let (sixteens, e) = csa(eights, eights_a, eights_b);
            eights = e;
            total = _mm256_add_epi64(total, popcount256(sixteens));
            i += 64;
        }
        total = _mm256_slli_epi64::<4>(total);
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<3>(popcount256(eights)));
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<2>(popcount256(fours)));
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<1>(popcount256(twos)));
        total = _mm256_add_epi64(total, popcount256(ones));
        let mut sum = hsum(total);
        // Mid loop: whole vectors that don't fill a 16-vector block.
        let mut vec_total = _mm256_setzero_si256();
        while i + 4 <= n {
            // SAFETY: guard leaves >= 4 readable words past `i`.
            vec_total = _mm256_add_epi64(vec_total, popcount256(load_and(ap, bp, i)));
            i += 4;
        }
        sum += hsum(vec_total);
        // Scalar tail: at most 3 words.
        for w in i..n {
            sum += (a[w] & b[w]).count_ones() as u64;
        }
        sum as usize
    }
}

// ---------------------------------------------------------------------------
// NEON arm (aarch64): vcnt popcount. NEON is baseline on aarch64, but the
// function keeps the target_feature annotation so the safety contract
// mirrors the AVX2 arm.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{vaddvq_u8, vandq_u64, vcntq_u8, vld1q_u64, vreinterpretq_u8_u64};

    /// # Safety
    ///
    /// Requires NEON (checked by the dispatcher) and
    /// `a.len() == b.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = 0u64;
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY: the guard leaves >= 2 readable words past `i`.
            let va = vld1q_u64(a.as_ptr().add(i));
            let vb = vld1q_u64(b.as_ptr().add(i));
            let v = vandq_u64(va, vb);
            // 16 byte-counts of <= 8 each sum to <= 128: fits u8.
            acc += u64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))));
            i += 2;
        }
        for w in i..n {
            acc += (a[w] & b[w]).count_ones() as u64;
        }
        acc as usize
    }
}

// ---------------------------------------------------------------------------
// SIMD entry points (compiled per-arch; scalar elsewhere).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
fn simd_and_eq(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: only reached when `simd_arm()` reported AVX2 (the cached
    // arm is Avx2, or the caller checked availability).
    unsafe { avx2::and_popcount(a, b) }
}

#[cfg(target_arch = "aarch64")]
fn simd_and_eq(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: only reached when `simd_arm()` reported NEON.
    unsafe { neon::and_popcount(a, b) }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_and_eq(a: &[u64], b: &[u64]) -> usize {
    and_popcount_scalar(a, b)
}

// ---------------------------------------------------------------------------
// Dispatched kernel (the API the rest of the workspace calls).
// ---------------------------------------------------------------------------

/// `|a ∩ b|` over two bitmaps via the selected arm. Unequal lengths
/// truncate to the shorter slice (missing words AND to zero).
#[must_use]
pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    match arm() {
        KernelArm::Scalar => and_popcount_scalar(a, b),
        KernelArm::Avx2 | KernelArm::Neon => simd_and_eq(a, b),
    }
}

/// Forced-SIMD AND-popcount, or `None` when the CPU has no SIMD arm.
/// Race-free for tests/benches: bypasses (and never mutates) the cached
/// process-wide arm.
#[must_use]
pub fn and_popcount_simd(a: &[u64], b: &[u64]) -> Option<usize> {
    let n = a.len().min(b.len());
    simd_arm().map(|_| simd_and_eq(&a[..n], &b[..n]))
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
    fn choice_parses() {
        assert_eq!("auto".parse::<KernelChoice>(), Ok(KernelChoice::Auto));
        assert_eq!("scalar".parse::<KernelChoice>(), Ok(KernelChoice::Scalar));
        assert_eq!("simd".parse::<KernelChoice>(), Ok(KernelChoice::Simd));
        assert!("avx512".parse::<KernelChoice>().is_err());
    }

    #[test]
    fn arm_names_are_stable() {
        assert_eq!(KernelArm::Scalar.name(), "scalar");
        assert_eq!(KernelArm::Avx2.name(), "avx2");
        assert_eq!(KernelArm::Neon.name(), "neon");
        // Whatever is selected, the name round-trips through the cache.
        assert_eq!(arm().name(), arm_name());
    }

    #[test]
    fn simd_matches_scalar_across_lengths() {
        // Cover the scalar tail (0..3), the mid vector loop, and several
        // full 64-word Harley–Seal blocks.
        for n in [0, 1, 3, 4, 7, 63, 64, 65, 127, 128, 200, 512] {
            let a = words(0x9e37_79b9, n);
            let b = words(0x85eb_ca6b, n);
            let want = and_popcount_scalar(&a, &b);
            if let Some(got) = and_popcount_simd(&a, &b) {
                assert_eq!(got, want, "n={n}");
            }
            // The dispatched kernel agrees with scalar whatever the arm.
            assert_eq!(and_popcount(&a, &b), want);
        }
    }

    #[test]
    fn unequal_lengths_truncate() {
        let a = words(1, 70);
        let b = words(2, 10);
        let want = and_popcount_scalar(&a[..10], &b);
        assert_eq!(and_popcount(&a, &b), want);
        assert_eq!(and_popcount(&b, &a), want);
        assert_eq!(and_popcount_scalar(&a, &b), want);
        if let Some(got) = and_popcount_simd(&a, &b) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn all_ones_and_all_zero_words_count_exactly() {
        let ones = vec![u64::MAX; 130];
        let zeros = vec![0u64; 130];
        assert_eq!(and_popcount(&ones, &ones), 130 * 64);
        assert_eq!(and_popcount(&ones, &zeros), 0);
        if let Some(got) = and_popcount_simd(&ones, &ones) {
            assert_eq!(got, 130 * 64);
        }
    }

    #[test]
    fn force_controls_the_cached_arm() {
        // Serialized through one test to avoid racing the global cache
        // against other tests (they use the per-arm entry points).
        let detected = force(KernelChoice::Auto).unwrap();
        assert_eq!(detected, simd_arm().unwrap_or(KernelArm::Scalar));
        assert_eq!(force(KernelChoice::Scalar).unwrap(), KernelArm::Scalar);
        assert_eq!(arm(), KernelArm::Scalar);
        let a = words(3, 100);
        let b = words(4, 100);
        assert_eq!(and_popcount(&a, &b), and_popcount_scalar(&a, &b));
        match simd_arm() {
            Some(simd) => {
                assert_eq!(force(KernelChoice::Simd).unwrap(), simd);
                assert_eq!(arm(), simd);
                assert_eq!(and_popcount(&a, &b), and_popcount_scalar(&a, &b));
            }
            None => assert!(force(KernelChoice::Simd).is_err()),
        }
        // Leave the cache on auto for the rest of the process.
        force(KernelChoice::Auto).unwrap();
    }
}
