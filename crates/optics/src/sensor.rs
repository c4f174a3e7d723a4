//! Image-sensor noise and quantisation model.
//!
//! FlatCam measurements are corrupted by the `e` term of the paper's Eq. 1.
//! We model the dominant contributors: photon shot noise (variance
//! proportional to signal), additive Gaussian read noise, ADC quantisation
//! and full-well saturation.

use crate::mat::Mat;
use eyecod_tensor::simd::{self, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parametric sensor model applied to noiseless measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorModel {
    /// Photon count corresponding to a measurement value of 1.0. Higher
    /// means brighter scenes / less relative shot noise. `0` disables shot
    /// noise.
    pub full_scale_electrons: f64,
    /// Standard deviation of additive read noise, in measurement units.
    pub read_noise_std: f64,
    /// ADC bit depth; `0` disables quantisation.
    pub adc_bits: u32,
    /// Saturation level in measurement units (values clip here). `inf`
    /// disables clipping.
    pub saturation: f64,
    /// Common-mode photon level for differential (complementary-capture)
    /// measurements, in measurement units. Differential values are the
    /// difference of two raw captures riding on this DC level, so shot
    /// noise scales with `|v| + dc_level` and values may be negative
    /// (clipping becomes symmetric). `0` models a single raw capture.
    pub dc_level: f64,
}

impl SensorModel {
    /// An ideal, noiseless sensor (useful for tests and upper bounds).
    pub fn noiseless() -> Self {
        SensorModel {
            full_scale_electrons: 0.0,
            read_noise_std: 0.0,
            adc_bits: 0,
            saturation: f64::INFINITY,
            dc_level: 0.0,
        }
    }

    /// A realistic low-light VR/AR eye-camera operating point: limited
    /// photon budget, moderate read noise, 10-bit ADC.
    pub fn low_light() -> Self {
        SensorModel {
            full_scale_electrons: 2_000.0,
            read_noise_std: 2e-3,
            adc_bits: 10,
            saturation: 4.0,
            dc_level: 0.5,
        }
    }

    /// The EyeCoD operating point: a near-infrared-illuminated eye camera.
    /// VR/AR eye trackers use active NIR LEDs, so the sensor is not
    /// photon-starved even though the scene is enclosed (paper §2 notes
    /// FlatCams suit this regime thanks to their ~50 % open masks).
    pub fn nir_eye_tracking() -> Self {
        SensorModel {
            full_scale_electrons: 10_000.0,
            read_noise_std: 1e-3,
            adc_bits: 10,
            saturation: 4.0,
            dc_level: 0.5,
        }
    }

    /// A bright, well-exposed operating point.
    pub fn bright() -> Self {
        SensorModel {
            full_scale_electrons: 20_000.0,
            read_noise_std: 5e-4,
            adc_bits: 12,
            saturation: 4.0,
            dc_level: 0.5,
        }
    }

    /// Returns true if this model adds no noise and no quantisation.
    pub fn is_noiseless(&self) -> bool {
        self.full_scale_electrons == 0.0 && self.read_noise_std == 0.0 && self.adc_bits == 0
    }

    /// Applies the sensor model to a noiseless measurement, seeded for
    /// reproducibility.
    pub fn apply(&self, clean: &Mat, seed: u64) -> Mat {
        let mut out = clean.clone();
        self.apply_inplace(&mut out, seed);
        out
    }

    /// [`SensorModel::apply`] operating on the measurement in place — the
    /// allocation-free variant the steady-state frame path uses.
    ///
    /// Draws the noise stream of [`SensorModel::apply_inplace_reference`]
    /// (the same `StdRng` draws in the same order: shot `u1, u2`, then read
    /// `u1, u2`, per pixel) and repeats its arithmetic operation for
    /// operation, except that the Box–Muller `ln` and `cos` are the
    /// polynomial `ln_poly` / `cos_poly` instead of libm. The uniforms
    /// of a block of pixels are staged in a stack buffer first, so the
    /// transcendental pass runs branch-free over the block; the kernel is
    /// instantiated plain, under `#[target_feature(enable = "avx2")]` and
    /// under `avx512f`, and dispatched by [`eyecod_tensor::simd::level`].
    /// Rust never contracts `a * b + c` into an FMA and every step is
    /// lane-wise, so all three produce the same bits.
    ///
    /// Both polynomials are within about 1 ulp of libm, so a noisy value
    /// can differ from the reference's by an ulp or so. With an ADC
    /// (`adc_bits > 0`) that difference changes the quantised output only
    /// if the value lies within an ulp of a rounding boundary between two
    /// ADC codes, so the measurement is bit-identical to the reference's
    /// in practice (pinned over millions of pixels by the tests); without
    /// one, the two agree to about 1e-15 relative.
    pub fn apply_inplace(&self, out: &mut Mat, seed: u64) {
        self.apply_inplace_at(out, seed, simd::level());
    }

    /// [`SensorModel::apply_inplace`] on one named SIMD tier instead of the
    /// dispatched one — how the tests and benchmarks hold every tier the
    /// host supports against the others. Every tier produces the same
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if the host does not support `level`.
    pub fn apply_inplace_at(&self, out: &mut Mat, seed: u64, level: Level) {
        level.assert_supported();
        let shot = self.full_scale_electrons > 0.0;
        let read = self.read_noise_std > 0.0;
        let mut rng = StdRng::seed_from_u64(seed);
        // shot u1, shot u2, read u1, read u2: 8 KiB, reused per block
        let mut u = [[0.0f64; NOISE_BLOCK]; 4];
        for block in out.as_mut_slice().chunks_mut(NOISE_BLOCK) {
            let [u1s, u2s, u1r, u2r] = &mut u;
            let shot_pairs = u1s.iter_mut().zip(u2s.iter_mut());
            let read_pairs = u1r.iter_mut().zip(u2r.iter_mut());
            for ((s1, s2), (r1, r2)) in shot_pairs.zip(read_pairs).take(block.len()) {
                if shot {
                    *s1 = rng.gen_range(f64::EPSILON..1.0);
                    *s2 = rng.gen_range(0.0..1.0);
                }
                if read {
                    *r1 = rng.gen_range(f64::EPSILON..1.0);
                    *r2 = rng.gen_range(0.0..1.0);
                }
            }
            match level {
                // SAFETY (both arms): `level` passed the support check above.
                #[cfg(target_arch = "x86_64")]
                Level::Avx512 => unsafe { noise_block_avx512(self, &mut u, block) },
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 => unsafe { noise_block_avx2(self, &mut u, block) },
                _ => noise_block(self, &mut u, block),
            }
        }
    }

    /// The libm noise loop [`SensorModel::apply_inplace`] is pinned
    /// against: per pixel, scalar Box–Muller draws through `f64::ln` and
    /// `f64::cos`, then the same noise, clipping and ADC arithmetic. Kept
    /// as the test and benchmark oracle only.
    pub fn apply_inplace_reference(&self, out: &mut Mat, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = out.at(r, c);
                let mut noisy = v;
                if self.full_scale_electrons > 0.0 {
                    // Gaussian approximation of Poisson shot noise:
                    // std in measurement units = sqrt(v * FS) / FS, with the
                    // common-mode level added for differential captures.
                    let electrons = (v.abs() + self.dc_level) * self.full_scale_electrons;
                    let shot_std = electrons.sqrt() / self.full_scale_electrons;
                    noisy += shot_std * gaussian(&mut rng);
                }
                if self.read_noise_std > 0.0 {
                    noisy += self.read_noise_std * gaussian(&mut rng);
                }
                if self.saturation.is_finite() {
                    let lo = if self.dc_level > 0.0 {
                        -self.saturation
                    } else {
                        0.0
                    };
                    noisy = noisy.clamp(lo, self.saturation);
                }
                if self.adc_bits > 0 {
                    let levels = ((1u64 << self.adc_bits) - 1) as f64;
                    let full = if self.saturation.is_finite() {
                        self.saturation
                    } else {
                        1.0
                    };
                    noisy = (noisy / full * levels).round() / levels * full;
                }
                *out.at_mut(r, c) = noisy;
            }
        }
    }
}

/// Pixels per block of [`SensorModel::apply_inplace`]: the block's four
/// uniform streams fill an 8 KiB stack buffer, which stays in L1.
const NOISE_BLOCK: usize = 256;

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One block of [`SensorModel::apply_inplace`]: `u` holds the block's
/// staged uniforms (shot `u1`, shot `u2`, read `u1`, read `u2`; only the
/// streams the model draws are filled) and `px` its noiseless values,
/// overwritten with the measurement. The Box–Muller pass turns each
/// `u1, u2` pair into its Gaussian in place, then the combine pass repeats
/// [`SensorModel::apply_inplace_reference`]'s per-pixel arithmetic. The
/// model's switches are loop-invariant, so both passes are branch-free
/// over the block.
#[inline(always)]
fn noise_block(s: &SensorModel, u: &mut [[f64; NOISE_BLOCK]; 4], px: &mut [f64]) {
    let n = px.len();
    let [u1s, u2s, u1r, u2r] = u;
    let shot = s.full_scale_electrons > 0.0;
    let read = s.read_noise_std > 0.0;
    if shot {
        box_muller(&mut u1s[..n], &u2s[..n]);
    }
    if read {
        box_muller(&mut u1r[..n], &u2r[..n]);
    }
    let (fs, dc, rs) = (s.full_scale_electrons, s.dc_level, s.read_noise_std);
    let clip = s.saturation.is_finite();
    let lo = if dc > 0.0 { -s.saturation } else { 0.0 };
    let adc = s.adc_bits > 0;
    let levels = ((1u64 << s.adc_bits) - 1) as f64;
    let full = if clip { s.saturation } else { 1.0 };
    for (i, p) in px.iter_mut().enumerate() {
        let v = *p;
        let mut noisy = v;
        if shot {
            let electrons = (v.abs() + dc) * fs;
            let shot_std = electrons.sqrt() / fs;
            noisy += shot_std * u1s[i];
        }
        if read {
            noisy += rs * u1r[i];
        }
        if clip {
            noisy = noisy.clamp(lo, s.saturation);
        }
        if adc {
            noisy = (noisy / full * levels).round() / levels * full;
        }
        *p = noisy;
    }
}

/// [`noise_block`] compiled for AVX2, where both passes run four pixels
/// per instruction (see [`SensorModel::apply_inplace`] for why the bits
/// equal the plain instantiation's).
///
/// # Safety
///
/// The host must support AVX2, which [`SensorModel::apply_inplace_at`]
/// checks before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn noise_block_avx2(s: &SensorModel, u: &mut [[f64; NOISE_BLOCK]; 4], px: &mut [f64]) {
    noise_block(s, u, px);
}

/// [`noise_block`] compiled for AVX-512, where both passes run eight pixels
/// per instruction; same bits as the other instantiations.
///
/// # Safety
///
/// The host must support AVX-512F, which [`SensorModel::apply_inplace_at`]
/// checks before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn noise_block_avx512(s: &SensorModel, u: &mut [[f64; NOISE_BLOCK]; 4], px: &mut [f64]) {
    noise_block(s, u, px);
}

/// Box–Muller in place: `g[i] = sqrt(-2 ln g[i]) · cos(2π u2[i])`, with
/// `g` holding the `u1` stream on entry — the expression of the
/// reference's `gaussian`, operation for operation.
#[inline(always)]
fn box_muller(g: &mut [f64], u2: &[f64]) {
    for (g, &u2) in g.iter_mut().zip(u2) {
        *g = (-2.0 * ln_poly(*g)).sqrt() * cos_poly(2.0 * std::f64::consts::PI * u2);
    }
}

/// Natural logarithm of a positive, normal, finite `x` (the Box–Muller
/// `u1 ∈ [ε, 1)`), branch-free: fdlibm's `e_log.c` (via musl) — split
/// `x = 2^k · (1 + f)` with `1 + f ∈ [√2/2, √2)`, then
/// `ln(1 + f) = f - f²/2 + s·(f²/2 + R(s²))` with `s = f / (2 + f)` and
/// the `Lg1..Lg7` minimax polynomial `R`. Error below 1 ulp. The exponent
/// is converted to `f64` with the `2^52` bias trick so the whole function
/// stays in vector registers.
#[inline(always)]
fn ln_poly(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // 2^52, whose ulp is 1: `bits(2^52) | e` is exactly `2^52 + e`
    const TWO52: f64 = 4_503_599_627_370_496.0;
    let ix = x.to_bits();
    // shift the high word so the exponent field rounds at √2/2
    let hx = (ix >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    let biased_k = hx >> 20;
    let m = (((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (ix & 0xffff_ffff);
    let f = f64::from_bits(m) - 1.0;
    let dk = f64::from_bits(TWO52.to_bits() | biased_k) - (TWO52 + 1023.0);
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// Cosine of `x ∈ [0, 2^19]` (the Box–Muller angle `2π·u2 < 2π`),
/// branch-free: a three-part Cody–Waite reduction `x = n·π/2 + (y0 + y1)`
/// (fdlibm's `__rem_pio2` medium case with its second iteration always
/// taken: `n·PIO2_1` and `n·PIO2_2` are exact, the subtraction error is
/// carried into the tail, about 118 bits of π/2 in all), then fdlibm's
/// `__cos` / `__sin` kernel polynomials on the reduced pair, selected and
/// signed by `n mod 4`. Error below 1 ulp.
#[inline(always)]
fn cos_poly(x: f64) -> f64 {
    // 1.5 · 2^52: adding it rounds to an integer held in the low bits
    const TOINT: f64 = 1.5 / f64::EPSILON;
    const INVPIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    // first 33 bits of π/2, the next 33 bits, and the rest
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_2T: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
    let nb = x * INVPIO2 + TOINT;
    let q = nb.to_bits();
    let fq = nb - TOINT;
    let t = x - fq * PIO2_1;
    let w = fq * PIO2_2;
    let r = t - w;
    let w = fq * PIO2_2T - ((t - r) - w);
    let y0 = r - w;
    let y1 = (r - y0) - w;
    let v = if q & 1 == 0 {
        kernel_cos(y0, y1)
    } else {
        kernel_sin(y0, y1)
    };
    // quadrants 1 and 2 are negative: -sin, -cos
    f64::from_bits(v.to_bits() ^ (((q + 1) & 2) << 62))
}

/// fdlibm's `__kernel_cos` on `|x + y| ≤ π/4`.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// fdlibm's `__kernel_sin` on `|x + y| ≤ π/4`, with the tail `y`.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in ulps between two finite values of equal sign.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    #[test]
    fn ln_poly_is_within_two_ulp_of_libm() {
        let mut rng = StdRng::seed_from_u64(3);
        // the Box–Muller range [ε, 1), uniformly and spread over binades,
        // plus the reduction's √2/2 boundary and the range ends
        let mut xs: Vec<f64> = (0..200_000)
            .map(|_| rng.gen_range(f64::EPSILON..1.0))
            .collect();
        xs.extend((0..200_000).map(|_| 2f64.powf(-52.0 * rng.gen_range(0.0..1.0))));
        let half_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        for x in [half_sqrt2, f64::EPSILON, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0] {
            xs.extend([
                x,
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ]);
        }
        for x in xs
            .into_iter()
            .filter(|&x| (f64::EPSILON..=1.0).contains(&x))
        {
            let (got, want) = (ln_poly(x), x.ln());
            assert!(ulps(got, want) <= 2, "ln({x:e}) = {got:e}, libm {want:e}");
        }
    }

    #[test]
    fn cos_poly_is_within_two_ulp_of_libm() {
        use std::f64::consts::PI;
        let mut rng = StdRng::seed_from_u64(5);
        // Box–Muller angles 2π·u2 for u2 ∈ [0, 1), plus the doubles nearest
        // every multiple of π/4 — where the reduction cancels hardest (the
        // zeros of cos) or switches quadrant
        let mut xs: Vec<f64> = (0..400_000)
            .map(|_| 2.0 * PI * rng.gen_range(0.0..1.0))
            .collect();
        for k in 0..=8 {
            let x = k as f64 * PI / 4.0;
            for d in -8i64..=8 {
                xs.push(f64::from_bits((x.to_bits() as i64 + d).max(0) as u64));
            }
        }
        xs.push(2.0 * PI * (1.0 - f64::EPSILON / 2.0));
        for x in xs {
            let (got, want) = (cos_poly(x), x.cos());
            assert!(ulps(got, want) <= 2, "cos({x:e}) = {got:e}, libm {want:e}");
        }
    }

    /// Every preset, on values that saturate either rail, sit on zero or
    /// go negative, in a pixel count that splits a block.
    #[test]
    fn block_kernel_matches_the_reference_bitwise_on_edge_values() {
        let edge = [
            0.0, -0.0, 1e-300, -1e-9, 0.5, -0.5, 3.999, 4.0, -4.0, 9.0, -9.0, 1e6,
        ];
        let m = Mat::from_fn(17, 23, |r, c| {
            let i = r * 23 + c;
            if i % 3 == 0 {
                edge[i / 3 % edge.len()]
            } else {
                (i as f64 * 0.37).sin() * 2.5
            }
        });
        for s in [
            SensorModel::nir_eye_tracking(),
            SensorModel::low_light(),
            SensorModel::bright(),
            SensorModel::noiseless(),
        ] {
            for seed in 0..20u64 {
                let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let mut oracle = m.clone();
                s.apply_inplace_reference(&mut oracle, seed);
                let mut fast = m.clone();
                s.apply_inplace(&mut fast, seed);
                assert_eq!(bits(&fast), bits(&oracle), "{s:?} seed {seed}");
                // every tier's instantiation, not only the dispatched one
                for level in simd::supported_levels() {
                    let mut tier = m.clone();
                    s.apply_inplace_at(&mut tier, seed, level);
                    assert_eq!(
                        bits(&tier),
                        bits(&oracle),
                        "{} {s:?} seed {seed}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn adc_less_models_agree_with_the_reference_to_1e12_relative() {
        let m = Mat::from_fn(40, 41, |r, c| {
            ((r * 41 + c) as f64 * 0.013).sin().abs() * 3.0
        });
        let shot_and_read = SensorModel {
            adc_bits: 0,
            saturation: f64::INFINITY,
            ..SensorModel::low_light()
        };
        let read_only = SensorModel {
            full_scale_electrons: 0.0,
            ..shot_and_read.clone()
        };
        let clipped = SensorModel {
            adc_bits: 0,
            ..SensorModel::nir_eye_tracking()
        };
        for s in [shot_and_read, read_only, clipped] {
            for seed in 0..10u64 {
                let (mut fast, mut oracle) = (m.clone(), m.clone());
                s.apply_inplace(&mut fast, seed);
                s.apply_inplace_reference(&mut oracle, seed);
                for (&a, &b) in fast.as_slice().iter().zip(oracle.as_slice()) {
                    assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b} ({s:?})");
                }
                // without an ADC the ulp differences show, so the tiers
                // must agree with each other bit for bit
                for level in simd::supported_levels() {
                    let mut tier = m.clone();
                    s.apply_inplace_at(&mut tier, seed, level);
                    let bits =
                        |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&tier),
                        bits(&fast),
                        "{} {s:?} seed {seed}",
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn noiseless_is_identity() {
        let m = Mat::from_fn(8, 8, |r, c| (r * c) as f64 / 64.0);
        let out = SensorModel::noiseless().apply(&m, 0);
        assert!(out.sub(&m).max_abs() < 1e-15);
        assert!(SensorModel::noiseless().is_noiseless());
    }

    #[test]
    fn noise_is_seed_reproducible() {
        let m = Mat::from_fn(8, 8, |_, _| 0.5);
        let s = SensorModel::low_light();
        assert_eq!(s.apply(&m, 7).as_slice(), s.apply(&m, 7).as_slice());
        assert!(s.apply(&m, 7).sub(&s.apply(&m, 8)).max_abs() > 0.0);
    }

    #[test]
    fn shot_noise_scales_with_signal() {
        let lo = Mat::from_fn(64, 64, |_, _| 0.01);
        let hi = Mat::from_fn(64, 64, |_, _| 1.0);
        let s = SensorModel {
            full_scale_electrons: 1_000.0,
            read_noise_std: 0.0,
            adc_bits: 0,
            saturation: f64::INFINITY,
            dc_level: 0.0,
        };
        let res_lo = s.apply(&lo, 1).sub(&lo).fro_norm();
        let res_hi = s.apply(&hi, 1).sub(&hi).fro_norm();
        // absolute shot noise grows with signal (std ~ sqrt(signal))
        assert!(res_hi > res_lo * 2.0, "lo={res_lo} hi={res_hi}");
    }

    #[test]
    fn saturation_clips() {
        let m = Mat::from_fn(4, 4, |_, _| 10.0);
        let s = SensorModel {
            full_scale_electrons: 0.0,
            read_noise_std: 0.0,
            adc_bits: 0,
            saturation: 2.0,
            dc_level: 0.0,
        };
        assert!(s.apply(&m, 0).max_abs() <= 2.0);
    }

    #[test]
    fn adc_quantizes_to_levels() {
        let m = Mat::from_fn(4, 4, |r, c| (r * 4 + c) as f64 / 16.0);
        let s = SensorModel {
            full_scale_electrons: 0.0,
            read_noise_std: 0.0,
            adc_bits: 2,
            saturation: 1.0,
            dc_level: 0.0,
        };
        let out = s.apply(&m, 0);
        for &v in out.as_slice() {
            let scaled = v * 3.0;
            assert!(
                (scaled - scaled.round()).abs() < 1e-12,
                "value {v} not on 2-bit grid"
            );
        }
    }
}
