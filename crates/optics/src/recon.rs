//! Tikhonov-regularised FlatCam image reconstruction (the paper's Eq. 2).
//!
//! The reconstruction solves
//!
//! ```text
//! argmin_X ‖Φ_L · X · Φ_Rᵀ − Y‖² + ε‖X‖²
//! ```
//!
//! in closed form using the SVDs `Φ_L = U₁ S₁ V₁ᵀ`, `Φ_R = U₂ S₂ V₂ᵀ`:
//! with `Ŷ = U₁ᵀ Y U₂`, the minimiser is `X = V₁ · Z · V₂ᵀ` where
//! `Z_ij = s₁ᵢ s₂ⱼ Ŷ_ij / (s₁ᵢ² s₂ⱼ² + ε)`.
//!
//! The SVDs depend only on the mask, so a [`TikhonovReconstructor`] is
//! precomputed once per camera and amortised over every frame — exactly how
//! the reconstruction stage of the paper's pipeline runs on the accelerator
//! (the mask SVD factors live in the weight global buffer).

use crate::mask::SeparableMask;
use crate::mat::Mat;
use crate::svd::Svd;
use eyecod_telemetry::{static_counter, static_histogram};

/// A precomputed FlatCam reconstructor for a specific mask.
#[derive(Debug, Clone)]
pub struct TikhonovReconstructor {
    svd_l: Svd,
    svd_r: Svd,
    /// `U₁ᵀ`, hoisted out of the per-frame solve (the factors are
    /// mask-constant — the software mirror of the paper keeping the SVD
    /// factors resident in the weight global buffer).
    u_l_t: Mat,
    /// `V₂ᵀ`, hoisted likewise.
    v_r_t: Mat,
    /// `U₂ᵀ`, hoisted for the sparse-column incremental update (which
    /// projects measurement-domain factors through `U₂ᵀ` directly instead
    /// of multiplying by `U₂` on the right).
    u_r_t: Mat,
    epsilon: f64,
    scene: usize,
}

/// Reusable intermediate buffers for [`TikhonovReconstructor::reconstruct_into`].
///
/// Sized lazily on first use; after that, a steady-state solve performs no
/// heap allocation.
#[derive(Debug, Clone)]
pub struct ReconWorkspace {
    t1: Mat,
    yhat: Mat,
    t2: Mat,
}

impl ReconWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        ReconWorkspace {
            t1: Mat::zeros(1, 1),
            yhat: Mat::zeros(1, 1),
            t2: Mat::zeros(1, 1),
        }
    }
}

impl Default for ReconWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable buffers for [`TikhonovReconstructor::update_columns_into`].
///
/// All buffers are sized by `reset` on each call, which reuses the
/// existing allocation whenever its capacity suffices — pre-warming the
/// workspace once at the maximum column count makes every subsequent
/// update (any `k ≤` the warmed `k`) allocation-free.
#[derive(Debug, Clone)]
pub struct DeltaReconWorkspace {
    c_hat: Mat,
    d_hat: Mat,
    g: Mat,
    t: Mat,
    x: Mat,
}

impl DeltaReconWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        DeltaReconWorkspace {
            c_hat: Mat::zeros(1, 1),
            d_hat: Mat::zeros(1, 1),
            g: Mat::zeros(1, 1),
            t: Mat::zeros(1, 1),
            x: Mat::zeros(1, 1),
        }
    }

    /// Pre-sizes every buffer for updates of up to `k` columns on an
    /// `n`-sized scene, so every subsequent
    /// [`TikhonovReconstructor::update_columns_into`] with column count
    /// `≤ k` is allocation-free.
    pub fn warm(&mut self, n: usize, k: usize) {
        self.c_hat.reset(n, k);
        self.d_hat.reset(n, k);
        self.g.reset(n, n);
        self.t.reset(n, n);
        self.x.reset(n, n);
    }
}

impl Default for DeltaReconWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl TikhonovReconstructor {
    /// Precomputes the SVD factors for `mask` with regularisation `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon < 0`.
    pub fn new(mask: &SeparableMask, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "regularisation must be non-negative");
        let svd_l = Svd::compute(mask.phi_l());
        let svd_r = Svd::compute(mask.phi_r());
        let u_l_t = svd_l.u.transpose();
        let v_r_t = svd_r.v.transpose();
        let u_r_t = svd_r.u.transpose();
        TikhonovReconstructor {
            svd_l,
            svd_r,
            u_l_t,
            v_r_t,
            u_r_t,
            epsilon,
            scene: mask.scene_size(),
        }
    }

    /// The regularisation strength.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Returns a reconstructor with the same factors and a new epsilon
    /// (cheap; reuses the SVDs — useful for the ε sweep ablation).
    pub fn with_epsilon(&self, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "regularisation must be non-negative");
        let mut r = self.clone();
        r.epsilon = epsilon;
        r
    }

    /// Reconstructs a scene from a measurement.
    ///
    /// # Panics
    ///
    /// Panics if the measurement shape does not match the mask's sensor
    /// geometry.
    pub fn reconstruct(&self, measurement: &Mat) -> Mat {
        static_counter!("optics/recon_solves").inc();
        let _solve_timer = static_histogram!("optics/recon_solve_ns").timer();
        let (mh, mw) = (self.svd_l.u.rows(), self.svd_r.u.rows());
        assert_eq!(
            (measurement.rows(), measurement.cols()),
            (mh, mw),
            "measurement must be {mh}x{mw}, got {}x{}",
            measurement.rows(),
            measurement.cols()
        );
        // Ŷ = U₁ᵀ · Y · U₂  (n × n)
        let yhat = self.u_l_t.matmul(measurement).matmul(&self.svd_r.u);
        // Z_ij = s1_i s2_j Ŷ_ij / (s1_i² s2_j² + ε)
        let n = self.scene;
        let z = Mat::from_fn(n, n, |i, j| {
            let s1 = self.svd_l.s[i];
            let s2 = self.svd_r.s[j];
            let denom = s1 * s1 * s2 * s2 + self.epsilon;
            if denom == 0.0 {
                0.0
            } else {
                s1 * s2 * yhat.at(i, j) / denom
            }
        });
        // X = V₁ · Z · V₂ᵀ
        self.svd_l.v.matmul(&z).matmul(&self.v_r_t)
    }

    /// [`TikhonovReconstructor::reconstruct`] through caller-owned buffers:
    /// all four matrix products and the spectral filter run in `ws` and
    /// `out`, so a warm workspace makes the whole solve allocation-free
    /// (the per-frame regime of the paper's accelerator, which ping-pongs
    /// activations between two global buffers instead of allocating).
    ///
    /// Numerically identical to [`TikhonovReconstructor::reconstruct`]:
    /// same kernels, same accumulation order, same spectral filter.
    ///
    /// # Panics
    ///
    /// Panics if the measurement shape does not match the mask's sensor
    /// geometry.
    pub fn reconstruct_into(&self, measurement: &Mat, ws: &mut ReconWorkspace, out: &mut Mat) {
        static_counter!("optics/recon_solves").inc();
        let _solve_timer = static_histogram!("optics/recon_solve_ns").timer();
        let (mh, mw) = (self.svd_l.u.rows(), self.svd_r.u.rows());
        assert_eq!(
            (measurement.rows(), measurement.cols()),
            (mh, mw),
            "measurement must be {mh}x{mw}, got {}x{}",
            measurement.rows(),
            measurement.cols()
        );
        // Ŷ = U₁ᵀ · Y · U₂
        self.u_l_t.matmul_into(measurement, &mut ws.t1);
        ws.t1.matmul_into(&self.svd_r.u, &mut ws.yhat);
        // the spectral filter runs in place on Ŷ (no `z` materialisation)
        let n = self.scene;
        for i in 0..n {
            let s1 = self.svd_l.s[i];
            for j in 0..n {
                let s2 = self.svd_r.s[j];
                let denom = s1 * s1 * s2 * s2 + self.epsilon;
                let v = ws.yhat.at(i, j);
                *ws.yhat.at_mut(i, j) = if denom == 0.0 {
                    0.0
                } else {
                    s1 * s2 * v / denom
                };
            }
        }
        // X = V₁ · Z · V₂ᵀ
        self.svd_l.v.matmul_into(&ws.yhat, &mut ws.t2);
        ws.t2.matmul_into(&self.v_r_t, out);
    }

    /// Rank-truncated reconstruction: only the top `rank` singular
    /// components per side contribute (see
    /// [`crate::calibrate::TruncatedReconstructor`] for the cost model).
    ///
    /// # Panics
    ///
    /// Panics on a measurement shape mismatch or `rank` outside
    /// `1..=scene`.
    pub fn reconstruct_truncated(&self, measurement: &Mat, rank: usize) -> Mat {
        static_counter!("optics/recon_solves").inc();
        let _solve_timer = static_histogram!("optics/recon_solve_ns").timer();
        let n = self.scene;
        assert!(
            rank >= 1 && rank <= n,
            "rank {rank} out of range for scene {n}"
        );
        let (mh, mw) = (self.svd_l.u.rows(), self.svd_r.u.rows());
        assert_eq!(
            (measurement.rows(), measurement.cols()),
            (mh, mw),
            "measurement must be {mh}x{mw}"
        );
        let yhat = self.u_l_t.matmul(measurement).matmul(&self.svd_r.u);
        let z = Mat::from_fn(n, n, |i, j| {
            if i >= rank || j >= rank {
                return 0.0;
            }
            let s1 = self.svd_l.s[i];
            let s2 = self.svd_r.s[j];
            let denom = s1 * s1 * s2 * s2 + self.epsilon;
            if denom == 0.0 {
                0.0
            } else {
                s1 * s2 * yhat.at(i, j) / denom
            }
        });
        self.svd_l.v.matmul(&z).matmul(&self.v_r_t)
    }

    /// [`TikhonovReconstructor::reconstruct_truncated`] through
    /// caller-owned buffers — the rank-truncated analogue of
    /// [`TikhonovReconstructor::reconstruct_into`]. Bit-identical to the
    /// allocating form (same kernels, same accumulation order); a warm
    /// workspace makes the whole truncated solve allocation-free.
    ///
    /// # Panics
    ///
    /// Panics on a measurement shape mismatch or `rank` outside
    /// `1..=scene`.
    pub fn reconstruct_truncated_into(
        &self,
        measurement: &Mat,
        rank: usize,
        ws: &mut ReconWorkspace,
        out: &mut Mat,
    ) {
        static_counter!("optics/recon_solves").inc();
        let _solve_timer = static_histogram!("optics/recon_solve_ns").timer();
        let n = self.scene;
        assert!(
            rank >= 1 && rank <= n,
            "rank {rank} out of range for scene {n}"
        );
        let (mh, mw) = (self.svd_l.u.rows(), self.svd_r.u.rows());
        assert_eq!(
            (measurement.rows(), measurement.cols()),
            (mh, mw),
            "measurement must be {mh}x{mw}"
        );
        self.u_l_t.matmul_into(measurement, &mut ws.t1);
        ws.t1.matmul_into(&self.svd_r.u, &mut ws.yhat);
        // truncated spectral filter in place on Ŷ: components beyond the
        // retained rank are zeroed instead of filtered
        for i in 0..n {
            let s1 = self.svd_l.s[i];
            for j in 0..n {
                *ws.yhat.at_mut(i, j) = if i >= rank || j >= rank {
                    0.0
                } else {
                    let s2 = self.svd_r.s[j];
                    let denom = s1 * s1 * s2 * s2 + self.epsilon;
                    if denom == 0.0 {
                        0.0
                    } else {
                        s1 * s2 * ws.yhat.at(i, j) / denom
                    }
                };
            }
        }
        self.svd_l.v.matmul_into(&ws.yhat, &mut ws.t2);
        ws.t2.matmul_into(&self.v_r_t, out);
    }

    /// Applies a sparse-column measurement update to a cached
    /// reconstruction in place: given the rank-`k` measurement delta
    /// `ΔY = A·Bᵀ` (with `A = Φ_L·ΔX[:,cols]` of shape `mh×k` and
    /// `B = Φ_R[:,cols]` of shape `mw×k`), accumulates the corresponding
    /// scene correction `ΔX̂` into `out`:
    ///
    /// ```text
    /// out += V₁ · (C ∘ (U₁ᵀA)(U₂ᵀB)ᵀ) · V₂ᵀ,   C_ij = s₁ᵢs₂ⱼ/(s₁ᵢ²s₂ⱼ²+ε)
    /// ```
    ///
    /// Because the spectral filter is elementwise-linear in `Ŷ`, this is
    /// algebraically exact: applied after a full solve of the cached
    /// measurement `Y`, the result equals a full solve of `Y + ΔY` up to
    /// floating-point reassociation. The cost is `O(n·k)`-dominated
    /// products instead of the full `O(n²·m)` solve — the temporal
    /// analogue of the paper's predict-then-focus spatial skip.
    ///
    /// # Panics
    ///
    /// Panics if the factor shapes disagree with the sensor geometry or
    /// with each other, or if `out` is not `scene × scene`.
    pub fn update_columns_into(
        &self,
        a: &Mat,
        b: &Mat,
        ws: &mut DeltaReconWorkspace,
        out: &mut Mat,
    ) {
        static_counter!("optics/recon_delta_updates").inc();
        let _timer = static_histogram!("optics/recon_delta_ns").timer();
        let (mh, mw) = (self.svd_l.u.rows(), self.svd_r.u.rows());
        let k = a.cols();
        assert_eq!(a.rows(), mh, "A must have {mh} rows, got {}", a.rows());
        assert_eq!(b.rows(), mw, "B must have {mw} rows, got {}", b.rows());
        assert_eq!(
            b.cols(),
            k,
            "A and B must share the column count: {k} vs {}",
            b.cols()
        );
        let n = self.scene;
        assert_eq!(
            (out.rows(), out.cols()),
            (n, n),
            "out must be {n}x{n}, got {}x{}",
            out.rows(),
            out.cols()
        );
        // Ĉ = U₁ᵀ·A (n×k), D̂ = U₂ᵀ·B (n×k)
        self.u_l_t.matmul_into(a, &mut ws.c_hat);
        self.u_r_t.matmul_into(b, &mut ws.d_hat);
        // G = Ĉ·D̂ᵀ (n×n) — the spectral-domain image of ΔY
        ws.c_hat.matmul_transposed_b_into(&ws.d_hat, &mut ws.g);
        // elementwise spectral filter in place on G
        for i in 0..n {
            let s1 = self.svd_l.s[i];
            for j in 0..n {
                let s2 = self.svd_r.s[j];
                let denom = s1 * s1 * s2 * s2 + self.epsilon;
                let v = ws.g.at(i, j);
                *ws.g.at_mut(i, j) = if denom == 0.0 {
                    0.0
                } else {
                    s1 * s2 * v / denom
                };
            }
        }
        // ΔX̂ = V₁ · G · V₂ᵀ, accumulated into the cached reconstruction
        self.svd_l.v.matmul_into(&ws.g, &mut ws.t);
        ws.t.matmul_into(&self.v_r_t, &mut ws.x);
        for (o, d) in out.as_mut_slice().iter_mut().zip(ws.x.as_slice()) {
            *o += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imaging::FlatCam;
    use crate::sensor::SensorModel;

    fn test_scene(n: usize) -> Mat {
        // A smooth blob plus an edge — structure similar to an eye image.
        Mat::from_fn(n, n, |r, c| {
            let dr = r as f64 - n as f64 / 2.0;
            let dc = c as f64 - n as f64 / 2.0;
            let blob = (-(dr * dr + dc * dc) / (n as f64)).exp();
            let edge = if c > n / 2 { 0.3 } else { 0.0 };
            blob + edge
        })
    }

    #[test]
    fn noiseless_reconstruction_is_near_exact() {
        let mask = SeparableMask::mls(48, 32, 11);
        let cam = FlatCam::new(mask, SensorModel::noiseless());
        let scene = test_scene(32);
        let y = cam.capture(&scene, 0);
        let recon = TikhonovReconstructor::new(cam.mask(), 1e-9);
        let xhat = recon.reconstruct(&y);
        let rel = xhat.sub(&scene).fro_norm() / scene.fro_norm();
        assert!(rel < 1e-3, "relative error {rel}");
    }

    #[test]
    fn regularisation_suppresses_noise() {
        let mask = SeparableMask::mls(48, 32, 11);
        let cam = FlatCam::new(mask.clone(), SensorModel::low_light());
        let scene = test_scene(32);
        let y = cam.capture(&scene, 42);
        let recon = TikhonovReconstructor::new(&mask, 0.0);
        let err_unreg = recon.reconstruct(&y).sub(&scene).fro_norm();
        let err_reg = recon
            .with_epsilon(1e-4)
            .reconstruct(&y)
            .sub(&scene)
            .fro_norm();
        assert!(
            err_reg < err_unreg,
            "regularised {err_reg} should beat unregularised {err_unreg}"
        );
    }

    #[test]
    fn heavy_regularisation_shrinks_towards_zero() {
        let mask = SeparableMask::mls(40, 32, 3);
        let cam = FlatCam::new(mask.clone(), SensorModel::noiseless());
        let scene = test_scene(32);
        let y = cam.capture(&scene, 0);
        let strong = TikhonovReconstructor::new(&mask, 1e6).reconstruct(&y);
        assert!(strong.fro_norm() < 0.01 * scene.fro_norm());
    }

    #[test]
    fn reconstruction_is_linear() {
        let mask = SeparableMask::mls(40, 32, 5);
        let recon = TikhonovReconstructor::new(&mask, 1e-6);
        let cam = FlatCam::new(mask, SensorModel::noiseless());
        let a = test_scene(32);
        let b = Mat::from_fn(32, 32, |r, _| r as f64 / 32.0);
        let xa = recon.reconstruct(&cam.capture(&a, 0));
        let xb = recon.reconstruct(&cam.capture(&b, 0));
        let xab = recon.reconstruct(&cam.capture(&a.add(&b), 0));
        assert!(xab.sub(&xa.add(&xb)).max_abs() < 1e-9);
    }

    #[test]
    fn reconstruct_into_matches_reconstruct_exactly() {
        let mask = SeparableMask::mls(48, 32, 11);
        let cam = FlatCam::new(mask.clone(), SensorModel::low_light());
        let recon = TikhonovReconstructor::new(&mask, 1e-4);
        let mut ws = ReconWorkspace::new();
        let mut out = Mat::zeros(1, 1);
        // two different measurements through the same workspace
        for seed in [3u64, 9] {
            let y = cam.capture(&test_scene(32), seed);
            recon.reconstruct_into(&y, &mut ws, &mut out);
            assert_eq!(
                out.as_slice(),
                recon.reconstruct(&y).as_slice(),
                "workspace solve must be bit-identical (seed {seed})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "measurement must be")]
    fn reconstruct_into_rejects_wrong_shape() {
        let mask = SeparableMask::mls(40, 32, 5);
        let recon = TikhonovReconstructor::new(&mask, 1e-6);
        recon.reconstruct_into(
            &Mat::zeros(32, 32),
            &mut ReconWorkspace::new(),
            &mut Mat::zeros(1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "measurement must be")]
    fn rejects_wrong_measurement_shape() {
        let mask = SeparableMask::mls(40, 32, 5);
        TikhonovReconstructor::new(&mask, 1e-6).reconstruct(&Mat::zeros(32, 32));
    }

    #[test]
    fn reconstruct_truncated_into_matches_allocating_form() {
        let mask = SeparableMask::mls(48, 32, 11);
        let cam = FlatCam::new(mask.clone(), SensorModel::low_light());
        let recon = TikhonovReconstructor::new(&mask, 1e-4);
        let mut ws = ReconWorkspace::new();
        let mut out = Mat::zeros(1, 1);
        for rank in [32usize, 20, 4] {
            let y = cam.capture(&test_scene(32), rank as u64);
            recon.reconstruct_truncated_into(&y, rank, &mut ws, &mut out);
            assert_eq!(
                out.as_slice(),
                recon.reconstruct_truncated(&y, rank).as_slice(),
                "truncated workspace solve must be bit-identical (rank {rank})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reconstruct_truncated_into_rejects_zero_rank() {
        let mask = SeparableMask::mls(40, 32, 5);
        TikhonovReconstructor::new(&mask, 1e-6).reconstruct_truncated_into(
            &Mat::zeros(40, 40),
            0,
            &mut ReconWorkspace::new(),
            &mut Mat::zeros(1, 1),
        );
    }

    /// Gathers `cols` of `m` into an owned `rows × cols.len()` factor.
    fn gather_cols(m: &Mat, cols: &[usize]) -> Mat {
        Mat::from_fn(m.rows(), cols.len(), |r, j| m.at(r, cols[j]))
    }

    #[test]
    fn update_columns_matches_full_solve_on_changed_columns() {
        let mask = SeparableMask::mls(48, 32, 11);
        let cam = FlatCam::new(mask.clone(), SensorModel::noiseless());
        let recon = TikhonovReconstructor::new(&mask, 1e-4);
        let x0 = test_scene(32);
        // perturb a sparse set of columns
        let cols = [3usize, 4, 17, 30];
        let mut x1 = x0.clone();
        for &c in &cols {
            for r in 0..32 {
                *x1.at_mut(r, c) += 0.1 + 0.01 * (r as f64) - 0.005 * (c as f64);
            }
        }
        let y0 = cam.capture(&x0, 0);
        let y1 = cam.capture(&x1, 0);
        // measurement-domain factors: A = Φ_L·ΔX[:,cols], B = Φ_R[:,cols]
        let dx_cols = gather_cols(&x1.sub(&x0), &cols);
        let a = mask.phi_l().matmul(&dx_cols);
        let b = gather_cols(mask.phi_r(), &cols);
        // the factors really do reproduce ΔY (noiseless capture is linear)
        let mut dy = Mat::zeros(1, 1);
        a.matmul_transposed_b_into(&b, &mut dy);
        assert!(y0.add(&dy).sub(&y1).max_abs() < 1e-12, "ΔY factorisation");
        // incremental update of the cached solve vs the fresh full solve
        let mut ws = ReconWorkspace::new();
        let mut dws = DeltaReconWorkspace::new();
        let mut cached = Mat::zeros(1, 1);
        recon.reconstruct_into(&y0, &mut ws, &mut cached);
        recon.update_columns_into(&a, &b, &mut dws, &mut cached);
        let mut full = Mat::zeros(1, 1);
        recon.reconstruct_into(&y1, &mut ws, &mut full);
        let err = cached.sub(&full).max_abs();
        assert!(
            err < 1e-9,
            "incremental column update diverged from full solve: {err:e}"
        );
    }

    #[test]
    fn update_columns_with_zero_delta_is_exactly_additive_noise_free() {
        // A zero delta must leave the cached reconstruction numerically
        // unchanged (G is exactly zero, so the accumulate adds 0.0).
        let mask = SeparableMask::mls(40, 32, 7);
        let cam = FlatCam::new(mask.clone(), SensorModel::noiseless());
        let recon = TikhonovReconstructor::new(&mask, 1e-4);
        let y = cam.capture(&test_scene(32), 0);
        let mut ws = ReconWorkspace::new();
        let mut dws = DeltaReconWorkspace::new();
        let mut cached = Mat::zeros(1, 1);
        recon.reconstruct_into(&y, &mut ws, &mut cached);
        let before = cached.clone();
        let a = Mat::zeros(40, 2);
        let b = Mat::zeros(40, 2);
        recon.update_columns_into(&a, &b, &mut dws, &mut cached);
        assert_eq!(cached.as_slice(), before.as_slice());
    }

    #[test]
    #[should_panic(expected = "A and B must share the column count")]
    fn update_columns_rejects_mismatched_factors() {
        let mask = SeparableMask::mls(40, 32, 5);
        let recon = TikhonovReconstructor::new(&mask, 1e-6);
        recon.update_columns_into(
            &Mat::zeros(40, 3),
            &Mat::zeros(40, 2),
            &mut DeltaReconWorkspace::new(),
            &mut Mat::zeros(32, 32),
        );
    }
}
