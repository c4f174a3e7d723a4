//! Runtime SIMD capability probe and the int8 building-block kernels.
//!
//! Every SIMD-dispatched kernel in the workspace (the int8 `quant` ops, the
//! f32 convolution tiles in [`crate::ops`], and the f64 GEMM tile in
//! `eyecod-optics`) routes through the single probe here: AVX2 is used iff
//! the host supports it **and** the `EYECOD_NO_SIMD=1` kill switch is not
//! set. That gives every test suite a one-variable way to run both dispatch
//! paths, and every kernel keeps its scalar implementation as the retained
//! differential baseline.
//!
//! # Exactness contract
//!
//! The int8 kernels accumulate i8×i8 products in `i32`. Integer addition is
//! exactly associative, so the vector kernels are **bit-identical** to their
//! scalar references by construction — any blocking or lane order is
//! admissible. Two hazards have to be designed out instead of tested away:
//!
//! * **i16 intermediate saturation.** The AVX2 dot kernel uses the
//!   `vpmaddubsw`-style pairwise widening (`_mm256_maddubs_epi16`), which
//!   multiplies an *unsigned* byte by a signed byte and adds adjacent
//!   products with i16 *saturation*. The sign-split trick (`|x|` as the
//!   unsigned operand, `w` carrying `x`'s sign via `_mm256_sign_epi8`) keeps
//!   every pairwise sum inside `2 · 127 · 127 = 32258 < i16::MAX`, so the
//!   saturating add can never actually saturate — **provided every operand
//!   lies in `[-127, 127]`**. All [`crate::quant::QTensor`] constructors
//!   clamp to ±127 (never −128), which is exactly this invariant; the
//!   kernels `debug_assert` it.
//! * **i32 accumulator overflow.** A reduction of depth `K` is bounded by
//!   `K · 127 · 127`, which exceeds `i32::MAX` for
//!   `K > `[`MAX_REDUCTION_DEPTH`]. The quant ops assert the bound at call
//!   time and `eyecod-models` checks it when a network is quantised.

use std::sync::OnceLock;

/// Maximum admissible reduction depth (number of i8×i8 products summed into
/// one `i32` accumulator) before the worst case `K · 127 · 127` could
/// overflow: `i32::MAX / 127² = 133152`.
///
/// Every int8 reduction in the workspace (qconv taps per output element,
/// qlinear input features, qpool plane sums) must stay at or below this
/// bound; the quant ops enforce it with a checked assert and the kernels
/// here re-check it with `debug_assert`s.
pub const MAX_REDUCTION_DEPTH: usize = (i32::MAX / (127 * 127)) as usize;

/// True when the host CPU supports AVX2, ignoring the kill switch.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the `EYECOD_NO_SIMD=1` kill switch is set (any value other
/// than `0` or empty counts), read once per process.
pub fn simd_killed() -> bool {
    static KILLED: OnceLock<bool> = OnceLock::new();
    *KILLED.get_or_init(|| std::env::var("EYECOD_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// The single capability probe every SIMD dispatch site consults: AVX2 is
/// supported *and* not disabled via `EYECOD_NO_SIMD=1`. Cached, so after the
/// first call this is one predictable load.
pub fn avx2_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| avx2_supported() && !simd_killed())
}

/// In debug builds, checks the ±127 operand invariant the `maddubs`
/// saturation analysis relies on (see the module docs). Release builds
/// compile this to nothing.
#[inline]
fn debug_check_i8_range(xs: &[i8]) {
    debug_assert!(
        xs.iter().all(|&v| v > i8::MIN),
        "int8 SIMD kernels require operands in [-127, 127] (QTensor invariant)"
    );
}

/// Scalar reference dot product `Σ x[i]·w[i]` with exact i32 accumulation —
/// the retained differential baseline for [`qdot_i8`].
pub fn qdot_i8_scalar(x: &[i8], w: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), w.len());
    x.iter().zip(w).map(|(&a, &b)| a as i32 * b as i32).sum()
}

/// Dot product `Σ x[i]·w[i]` with exact i32 accumulation, dispatched to the
/// AVX2 sign-split `maddubs` kernel when [`avx2_enabled`] and long enough to
/// pay for it. Bit-identical to [`qdot_i8_scalar`] (integer accumulation is
/// exactly associative).
///
/// # Panics
///
/// `debug_assert`s that both slices have equal length, stay within
/// [`MAX_REDUCTION_DEPTH`], and respect the ±127 invariant.
pub fn qdot_i8(x: &[i8], w: &[i8]) -> i32 {
    debug_assert!(x.len() <= MAX_REDUCTION_DEPTH);
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 32 && avx2_enabled() {
        // SAFETY: AVX2 support verified by the cached probe above.
        return unsafe { qdot_i8_avx2(x, w) };
    }
    qdot_i8_scalar(x, w)
}

/// Four dot products of one activation row against four weight rows,
/// sharing every activation load — the register tile behind `qlinear` and
/// the im2col-lowered int8 convolutions. Bit-identical to four
/// [`qdot_i8_scalar`] calls.
pub fn qdot4_i8(x: &[i8], w: [&[i8]; 4]) -> [i32; 4] {
    debug_assert!(x.len() <= MAX_REDUCTION_DEPTH);
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 32 && avx2_enabled() {
        // SAFETY: AVX2 support verified by the cached probe above.
        return unsafe { qdot4_i8_avx2(x, w) };
    }
    [
        qdot_i8_scalar(x, w[0]),
        qdot_i8_scalar(x, w[1]),
        qdot_i8_scalar(x, w[2]),
        qdot_i8_scalar(x, w[3]),
    ]
}

/// Scalar reference of the widening multiply-accumulate row update
/// `row[i] += x[i] · w` — the retained differential baseline for
/// [`qaxpy_i8`].
pub fn qaxpy_i8_scalar(row: &mut [i32], x: &[i8], w: i32) {
    debug_assert_eq!(row.len(), x.len());
    for (r, &v) in row.iter_mut().zip(x) {
        *r += v as i32 * w;
    }
}

/// Widening multiply-accumulate row update `row[i] += x[i] · w` (the
/// streaming tap kernel of the depth-wise int8 convolution), dispatched to
/// AVX2 when [`avx2_enabled`]. Bit-identical to [`qaxpy_i8_scalar`]: the
/// vector path computes each 16-bit product exactly (`|x·w| ≤ 127² <
/// i16::MAX`), widens to i32 and adds — the same per-element arithmetic in
/// a different lane order.
///
/// # Panics
///
/// `debug_assert`s equal slice lengths, `|w| ≤ 127` and the ±127 operand
/// invariant.
pub fn qaxpy_i8(row: &mut [i32], x: &[i8], w: i32) {
    debug_assert!((-127..=127).contains(&w));
    #[cfg(target_arch = "x86_64")]
    if row.len() >= 16 && avx2_enabled() {
        // SAFETY: AVX2 support verified by the cached probe above.
        unsafe { qaxpy_i8_avx2(row, x, w) };
        return;
    }
    qaxpy_i8_scalar(row, x, w);
}

/// Horizontal sum of the eight i32 lanes of a 256-bit accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn hsum_epi32(acc: std::arch::x86_64::__m256i) -> i32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// One 32-byte step of the sign-split `maddubs` dot kernel: widens 32
/// pairwise i8×i8 products into eight i32 partial sums and adds them to
/// `acc`. See the module docs for why the i16 intermediate cannot saturate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_step(
    acc: std::arch::x86_64::__m256i,
    xv: std::arch::x86_64::__m256i,
    wv: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // sign-split: x·w == |x| · sign(x)·w, with |x| ≤ 127 as the unsigned
    // maddubs operand and the sign folded into w
    let xabs = _mm256_sign_epi8(xv, xv);
    let wsgn = _mm256_sign_epi8(wv, xv);
    // 16 × i16 pairwise sums, each |·| ≤ 2·127² = 32258 (no saturation)
    let pairs = _mm256_maddubs_epi16(xabs, wsgn);
    // widen i16 pairs to 8 × i32 exactly
    _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
}

/// [`qdot_i8`]'s AVX2 body: 32 products per step via sign-split `maddubs`,
/// scalar remainder, exact i32 total.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn qdot_i8_avx2(x: &[i8], w: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), w.len());
    debug_check_i8_range(x);
    debug_check_i8_range(w);
    let n = x.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= n {
        // SAFETY: i + 32 <= n bounds both unaligned 32-byte loads.
        let xv = unsafe { _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i) };
        let wv = unsafe { _mm256_loadu_si256(w.as_ptr().add(i) as *const __m256i) };
        acc = dot_step(acc, xv, wv);
        i += 32;
    }
    hsum_epi32(acc) + qdot_i8_scalar(&x[i..], &w[i..])
}

/// [`qdot4_i8`]'s AVX2 body: a 4-row register tile (four 256-bit i32
/// accumulators) sharing each 32-byte activation load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn qdot4_i8_avx2(x: &[i8], w: [&[i8]; 4]) -> [i32; 4] {
    use std::arch::x86_64::*;
    debug_check_i8_range(x);
    let n = x.len();
    for wr in &w {
        debug_assert_eq!(wr.len(), n);
        debug_check_i8_range(wr);
    }
    let mut acc = [_mm256_setzero_si256(); 4];
    let mut i = 0;
    while i + 32 <= n {
        // SAFETY: i + 32 <= n == each row's length bounds every load.
        let xv = unsafe { _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i) };
        for (a, wr) in acc.iter_mut().zip(&w) {
            let wv = unsafe { _mm256_loadu_si256(wr.as_ptr().add(i) as *const __m256i) };
            *a = dot_step(*a, xv, wv);
        }
        i += 32;
    }
    let mut out = [0i32; 4];
    for (o, (a, wr)) in out.iter_mut().zip(acc.into_iter().zip(&w)) {
        *o = hsum_epi32(a) + qdot_i8_scalar(&x[i..], &wr[i..]);
    }
    out
}

/// [`qaxpy_i8`]'s AVX2 body: 16 outputs per step — load 16 i8, widen to
/// i16, exact `mullo` against the broadcast weight (`|x·w| ≤ 127² <
/// i16::MAX`, so the low 16 bits are the full product), widen both halves
/// to i32 and add into the accumulator row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn qaxpy_i8_avx2(row: &mut [i32], x: &[i8], w: i32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(row.len(), x.len());
    debug_check_i8_range(x);
    let n = row.len();
    let wv = _mm256_set1_epi16(w as i16);
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the 16-byte load and both 8-lane
        // accumulator loads/stores.
        unsafe {
            let xv = _mm_loadu_si128(x.as_ptr().add(i) as *const __m128i);
            let x16 = _mm256_cvtepi8_epi16(xv);
            let p16 = _mm256_mullo_epi16(x16, wv);
            let plo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p16));
            let phi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p16, 1));
            let r0 = row.as_mut_ptr().add(i) as *mut __m256i;
            let r1 = row.as_mut_ptr().add(i + 8) as *mut __m256i;
            _mm256_storeu_si256(
                r0,
                _mm256_add_epi32(_mm256_loadu_si256(r0 as *const _), plo),
            );
            _mm256_storeu_si256(
                r1,
                _mm256_add_epi32(_mm256_loadu_si256(r1 as *const _), phi),
            );
        }
        i += 16;
    }
    qaxpy_i8_scalar(&mut row[i..], &x[i..], w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: i32) -> Vec<i8> {
        (0..len)
            .map(|i| (((i as i32).wrapping_mul(31).wrapping_add(seed) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn dot_kernels_agree_across_lengths() {
        // straddles the 32-lane tile: remainders, exact multiples, short
        for len in [0, 1, 15, 31, 32, 33, 63, 64, 65, 100, 257] {
            let x = pattern(len, 3);
            let w = pattern(len, 11);
            assert_eq!(qdot_i8(&x, &w), qdot_i8_scalar(&x, &w), "len {len}");
        }
    }

    #[test]
    fn dot_kernels_agree_at_saturating_extremes() {
        // all-(±127) operands maximise every i16 pairwise sum — the exact
        // pattern that would saturate a naive maddubs without the sign split
        for len in [32, 33, 64, 127] {
            for (a, b) in [(127i8, 127i8), (-127, 127), (127, -127), (-127, -127)] {
                let x = vec![a; len];
                let w = vec![b; len];
                let want = len as i32 * a as i32 * b as i32;
                assert_eq!(qdot_i8(&x, &w), want, "len {len} a {a} b {b}");
                assert_eq!(qdot_i8_scalar(&x, &w), want);
            }
        }
    }

    #[test]
    fn dot4_matches_four_scalar_dots() {
        for len in [32, 45, 96] {
            let x = pattern(len, 5);
            let ws: Vec<Vec<i8>> = (0..4).map(|s| pattern(len, 17 + s)).collect();
            let tiled = qdot4_i8(&x, [&ws[0], &ws[1], &ws[2], &ws[3]]);
            for (t, w) in tiled.iter().zip(&ws) {
                assert_eq!(*t, qdot_i8_scalar(&x, w), "len {len}");
            }
        }
    }

    #[test]
    fn axpy_kernels_agree_across_lengths_and_weights() {
        for len in [0, 1, 15, 16, 17, 31, 32, 47, 130] {
            for w in [-127, -1, 0, 1, 77, 127] {
                let x = pattern(len, 7);
                let mut a = vec![5i32; len];
                let mut b = a.clone();
                qaxpy_i8(&mut a, &x, w);
                qaxpy_i8_scalar(&mut b, &x, w);
                assert_eq!(a, b, "len {len} w {w}");
            }
        }
    }

    #[test]
    fn probe_is_stable_and_consistent() {
        let first = avx2_enabled();
        assert_eq!(first, avx2_enabled());
        if simd_killed() || !avx2_supported() {
            assert!(!first);
        } else {
            assert!(first);
        }
    }

    #[test]
    fn reduction_depth_bound_is_the_i32_worst_case() {
        let k = MAX_REDUCTION_DEPTH as i64;
        assert!(k * 127 * 127 <= i32::MAX as i64);
        assert!((k + 1) * 127 * 127 > i32::MAX as i64);
    }
}
