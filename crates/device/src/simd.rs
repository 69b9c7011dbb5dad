//! Lane-batched SplitMix64 mixing for the counter-based noise streams.
//!
//! A counter-addressed Gaussian draw's cost is dominated by the integer
//! avalanche: one 64-bit multiply to spread the counter, then the
//! three-round SplitMix64 finaliser. This module batches that mixing
//! over [`LANES`] independent counters at once.
//!
//! Three implementations produce **bit-identical** `u64` outputs — the
//! mixing is pure integer arithmetic, so there is no floating-point
//! reassociation to worry about:
//!
//! * a portable scalar loop (always compiled, the fallback),
//! * an AVX2 kernel emulating the 64×64→64 multiply with three
//!   `vpmuludq` partial products (`simd` feature, runtime-detected),
//! * an AVX-512DQ/VL kernel using the native `vpmullq` (`simd`
//!   feature, runtime-detected).
//!
//! Dispatch happens through a cached tier so the hot path pays one
//! predictable branch, not a CPUID query, per call. With the `simd`
//! feature disabled (or on non-x86_64 targets, or when the CPU lacks
//! AVX2) every call takes the scalar path; results never change, only
//! wall-clock does. The scalar implementation is re-exported for tests
//! and benchmarks that want to compare tiers explicitly.

/// Fixed number of counters mixed per batch. This is also the number of
/// accumulator lanes the optical MAC fold commits to (see
/// `oisa_optics::arm`): the value is part of the bit-level determinism
/// contract and must never silently track the host vector width.
pub const LANES: usize = 4;

/// The counter-spreading multiplier shared with
/// [`crate::noise::NoiseStream::gaussian_at`].
pub(crate) const COUNTER_MUL: u64 = 0xA24B_AED4_963E_E407;

/// SplitMix64 finaliser over one state word — scalar reference.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scalar reference for the batched mix: exactly [`LANES`] independent
/// `mix64(key ^ counter · COUNTER_MUL)` evaluations.
///
/// Public (but doc-hidden) so parity tests and microbenchmarks can pin
/// the vector kernels against it without toggling cargo features.
#[doc(hidden)]
#[inline(always)]
#[must_use]
pub fn mix64_lanes_scalar(key: u64, counters: [u64; LANES]) -> [u64; LANES] {
    counters.map(|c| mix64(key ^ c.wrapping_mul(COUNTER_MUL)))
}

/// Batched stream mix: `mix64(key ^ counter · COUNTER_MUL)` for each of
/// the [`LANES`] counters, using the fastest kernel the host supports.
#[inline(always)]
#[must_use]
pub fn mix64_lanes(key: u64, counters: [u64; LANES]) -> [u64; LANES] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match x86::tier() {
            // SAFETY: the tier is only reported after the matching
            // target features were runtime-detected on this CPU.
            Tier::Avx512 => return unsafe { x86::mix64_lanes_avx512(key, counters) },
            Tier::Avx2 => return unsafe { x86::mix64_lanes_avx2(key, counters) },
            Tier::Scalar => {}
        }
    }
    mix64_lanes_scalar(key, counters)
}

/// The runtime-selected mixing tier.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Scalar,
    Avx2,
    Avx512,
}

/// The tier every dispatched mix in this process uses (cached after
/// first detection; `OISA_SIMD_TIER` can pin it for parity runs).
#[doc(hidden)]
#[inline]
#[must_use]
pub fn tier() -> Tier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::tier()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        Tier::Scalar
    }
}

/// Human-readable name of the mixing kernel in use, for bench reports
/// and CI logs ("avx512", "avx2" or "scalar").
#[must_use]
pub fn active_tier() -> &'static str {
    match tier() {
        Tier::Avx512 => "avx512",
        Tier::Avx2 => "avx2",
        Tier::Scalar => "scalar",
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod x86 {
    use super::{Tier, COUNTER_MUL, LANES};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32, _mm256_mullo_epi64,
        _mm256_set1_epi64x, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = undetected, 1 = scalar, 2 = avx2, 3 = avx512.
    static TIER: AtomicU8 = AtomicU8::new(0);

    #[inline]
    pub(crate) fn tier() -> Tier {
        match TIER.load(Ordering::Relaxed) {
            1 => Tier::Scalar,
            2 => Tier::Avx2,
            3 => Tier::Avx512,
            _ => detect(),
        }
    }

    #[cold]
    fn detect() -> Tier {
        let avx512 = std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        // `OISA_SIMD_TIER` pins the dispatch for benchmarks and CI
        // parity runs ("scalar" | "avx2" | "avx512"). It can only
        // select a tier the CPU actually supports — anything else
        // falls through to auto-detection.
        let forced = std::env::var("OISA_SIMD_TIER").ok();
        let (code, tier) = match forced.as_deref() {
            Some("scalar") => (1, Tier::Scalar),
            Some("avx2") if avx2 => (2, Tier::Avx2),
            Some("avx512") if avx512 => (3, Tier::Avx512),
            _ => {
                if avx512 {
                    (3, Tier::Avx512)
                } else if avx2 {
                    (2, Tier::Avx2)
                } else {
                    (1, Tier::Scalar)
                }
            }
        };
        TIER.store(code, Ordering::Relaxed);
        tier
    }

    /// 64×64→64 low multiply on AVX2, where no native instruction
    /// exists: three `vpmuludq` 32×32→64 partial products.
    ///
    /// Safe `#[target_feature]` fn: register-only intrinsics are safe
    /// inside a matching target-feature context, and callers (the
    /// other kernels here) share the `avx2` feature.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mullo64_avx2(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi_b = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
        let a_b_hi = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
        let cross = _mm256_slli_epi64(_mm256_add_epi64(a_hi_b, a_b_hi), 32);
        _mm256_add_epi64(lo, cross)
    }

    /// The three-round SplitMix64 finaliser over one 256-bit register
    /// of pre-xored states.
    macro_rules! finalise_reg {
        ($mullo:ident, $state:ident) => {{
            let z = _mm256_add_epi64($state, _mm256_set1_epi64x(0x9E37_79B9_7F4A_7C15u64 as i64));
            let z = $mullo(
                _mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9u64 as i64),
            );
            let z = $mullo(
                _mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                _mm256_set1_epi64x(0x94D0_49BB_1331_11EBu64 as i64),
            );
            _mm256_xor_si256(z, _mm256_srli_epi64(z, 31))
        }};
    }

    /// Counter spread plus finaliser: the full stream mix over one
    /// register of counters under a broadcast key.
    macro_rules! mix_reg {
        ($mullo:ident, $key:ident, $c:ident) => {{
            let state = _mm256_xor_si256(
                _mm256_set1_epi64x($key as i64),
                $mullo($c, _mm256_set1_epi64x(COUNTER_MUL as i64)),
            );
            finalise_reg!($mullo, state)
        }};
    }

    macro_rules! mix_body {
        ($mullo:ident, $key:ident, $counters:ident) => {{
            // SAFETY: `$counters` is a `[u64; LANES]` (LANES = 4) —
            // exactly one unaligned 256-bit load.
            let c = unsafe { _mm256_loadu_si256($counters.as_ptr().cast::<__m256i>()) };
            let z = mix_reg!($mullo, $key, c);
            let mut out = [0u64; LANES];
            // SAFETY: one 256-bit store into the LANES-u64 `out`.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), z) };
            out
        }};
    }

    /// Safe `#[target_feature]` kernel: dispatchers that have not
    /// proven AVX2 support must still wrap the call in `unsafe`.
    #[target_feature(enable = "avx2")]
    pub(crate) fn mix64_lanes_avx2(key: u64, counters: [u64; LANES]) -> [u64; LANES] {
        mix_body!(mullo64_avx2, key, counters)
    }

    /// Safe `#[target_feature]` kernel: dispatchers that have not
    /// proven AVX-512DQ/VL support (`vpmullq` on 256-bit vectors) must
    /// still wrap the call in `unsafe`.
    #[target_feature(enable = "avx512dq,avx512vl")]
    pub(crate) fn mix64_lanes_avx512(key: u64, counters: [u64; LANES]) -> [u64; LANES] {
        mix_body!(_mm256_mullo_epi64, key, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_lanes_match_single_mix() {
        let key = 0xDEAD_BEEF_0BAD_F00Du64;
        let counters = [0u64, 1, 17, u64::MAX - 3];
        let batched = mix64_lanes_scalar(key, counters);
        for (l, &c) in counters.iter().enumerate() {
            assert_eq!(batched[l], mix64(key ^ c.wrapping_mul(COUNTER_MUL)));
        }
    }

    #[test]
    fn dispatched_lanes_match_scalar_reference() {
        // Exercises whichever vector tier the host supports against the
        // scalar reference over a spread of keys and counter patterns,
        // including wrap-around territory.
        let mut key = 0x0123_4567_89AB_CDEFu64;
        for round in 0..4096u64 {
            key = mix64(key ^ round);
            let base = key.wrapping_mul(round | 1);
            let counters = [
                base,
                base.wrapping_add(2),
                base.wrapping_add(4),
                base.wrapping_add(round),
            ];
            assert_eq!(
                mix64_lanes(key, counters),
                mix64_lanes_scalar(key, counters),
                "tier {} diverged at round {round}",
                active_tier()
            );
        }
    }

    #[test]
    fn active_tier_is_reportable() {
        let tier = active_tier();
        assert!(matches!(tier, "avx512" | "avx2" | "scalar"), "{tier}");
    }
}
