//! Image acquisition: lens camera vs lensless FlatCam.

use eyecod_faults::{FaultPlan, FaultSite};
use eyecod_optics::degrade::degrade_measurement;
use eyecod_optics::imaging::FlatCam;
use eyecod_optics::mask::SeparableMask;
use eyecod_optics::mat::Mat;
use eyecod_optics::recon::{DeltaReconWorkspace, ReconWorkspace, TikhonovReconstructor};
use eyecod_optics::sensor::SensorModel;
use eyecod_tensor::{Shape, Tensor};

/// Reusable buffers for [`Acquisition::capture_faulted_into`] and
/// [`Acquisition::recon_into`]: the scene
/// staging matrix, the FlatCam capture temporaries, and the reconstruction
/// workspace. Buffers are sized on first use and then reused verbatim, so a
/// steady-state acquisition performs zero heap allocations.
#[derive(Debug, Clone)]
pub struct AcquireScratch {
    /// Scene staged as a matrix (the faulted image itself on the lens path).
    m: Mat,
    /// FlatCam capture temporary (`Φ_L · scene`).
    tmp: Mat,
    /// FlatCam measurement, degraded in place.
    y: Mat,
    /// Reconstructed image.
    recon: Mat,
    /// Tikhonov reconstruction intermediates.
    ws: ReconWorkspace,
    /// Event-driven delta-path caches and factor buffers.
    delta: DeltaCache,
}

impl AcquireScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        AcquireScratch {
            m: Mat::zeros(1, 1),
            tmp: Mat::zeros(1, 1),
            y: Mat::zeros(1, 1),
            recon: Mat::zeros(1, 1),
            ws: ReconWorkspace::new(),
            delta: DeltaCache::new(),
        }
    }

    /// Whether the delta caches hold a valid full capture to update
    /// against (set by [`Acquisition::prime_delta`]).
    pub fn delta_primed(&self) -> bool {
        self.delta.primed
    }
}

impl Default for AcquireScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-session state of the event-driven sparse acquisition path: the last
/// fully-sensed scene (the diff base), the cached measurement and cached
/// reconstruction it produced, and the factor buffers a sparse-column
/// update runs through. All buffers are pre-warmed at the maximum column
/// count by the first [`Acquisition::prime_delta`], so steady-state delta
/// frames allocate nothing.
#[derive(Debug, Clone)]
struct DeltaCache {
    /// The caches below mirror a real full capture.
    primed: bool,
    /// Buffers already pre-sized at full width (first prime only).
    warmed: bool,
    /// The last fully-sensed scene — the base the change columns diff
    /// against.
    scene: Mat,
    /// Cached transported signal: the FlatCam measurement (with its
    /// refresh-frame sensor noise baked in), or the captured image for the
    /// lens baseline. Delta frames add the *clean* measurement delta — the
    /// event-readout semantics: events carry no fresh exposure noise.
    y: Mat,
    /// Cached reconstruction of `y`, updated incrementally.
    x: Mat,
    /// Changed-column scene deltas (`scene × k`).
    dx: Mat,
    /// Left measurement factor `A = Φ_L · ΔX[:,cols]`.
    fa: Mat,
    /// Right measurement factor `B = Φ_R[:,cols]`.
    fb: Mat,
    /// Dense measurement delta `A·Bᵀ` (accumulated into `y`).
    dy: Mat,
    /// Incremental-update intermediates.
    dws: DeltaReconWorkspace,
    /// Changed-column indices staged between change detection and the
    /// sparse update (capacity reserved at prime, so the per-frame
    /// detect → apply hand-off allocates nothing).
    cols: Vec<usize>,
}

impl DeltaCache {
    fn new() -> Self {
        DeltaCache {
            primed: false,
            warmed: false,
            scene: Mat::zeros(1, 1),
            y: Mat::zeros(1, 1),
            x: Mat::zeros(1, 1),
            dx: Mat::zeros(1, 1),
            fa: Mat::zeros(1, 1),
            fb: Mat::zeros(1, 1),
            dy: Mat::zeros(1, 1),
            dws: DeltaReconWorkspace::new(),
            cols: Vec::new(),
        }
    }
}

/// How frames are acquired before entering the processing pipeline.
///
/// The FlatCam variant is much larger than the lens variant (it owns the
/// mask SVD factors); acquisitions are constructed once per tracker, so the
/// size imbalance is irrelevant in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Acquisition {
    /// An ideal(ised) lens camera: the scene arrives focused, with only
    /// mild sensor noise. The baseline of Tables 2 and 3 ("Origin Image").
    Lens {
        /// Sensor model applied to the focused image.
        sensor: SensorModel,
    },
    /// A FlatCam: coded capture followed by Tikhonov reconstruction. The
    /// reconstruction carries the noise amplification and artefacts that
    /// make the FlatCam columns of Tables 2/3 slightly harder.
    FlatCam {
        /// The camera (mask + sensor model).
        camera: FlatCam,
        /// The matching precomputed reconstructor.
        reconstructor: TikhonovReconstructor,
    },
}

impl Acquisition {
    /// Builds a FlatCam acquisition for `scene`-sized square images with a
    /// `sensor`-sized measurement and regularisation `epsilon`.
    pub fn flatcam(scene: usize, sensor: usize, epsilon: f64, seed: u32) -> Self {
        // the differential (calibrated complementary-capture) model with an
        // NIR-illuminated sensor — the operating point of a VR/AR eye camera
        let mask = SeparableMask::mls_differential(sensor, scene, seed);
        let reconstructor = TikhonovReconstructor::new(&mask, epsilon);
        Acquisition::FlatCam {
            camera: FlatCam::new(mask, SensorModel::nir_eye_tracking()),
            reconstructor,
        }
    }

    /// Builds the lens baseline with the same NIR-illuminated sensor
    /// operating point as the FlatCam path (so the comparison isolates the
    /// optics).
    pub fn lens() -> Self {
        Acquisition::Lens {
            sensor: SensorModel::nir_eye_tracking(),
        }
    }

    /// Acquires a scene: returns the image the processing pipeline sees.
    ///
    /// `scene` is a `(1, 1, S, S)` grayscale ground-truth image; `seed`
    /// drives the per-frame sensor noise.
    ///
    /// # Panics
    ///
    /// Panics if the scene is not square or does not match the FlatCam
    /// geometry.
    pub fn acquire(&self, scene: &Tensor, seed: u64) -> Tensor {
        let s = scene.shape();
        assert_eq!(s.h, s.w, "scenes must be square, got {s}");
        match self {
            Acquisition::Lens { sensor } => {
                let m = Mat::from_tensor(scene);
                sensor.apply(&m, seed).to_tensor()
            }
            Acquisition::FlatCam {
                camera,
                reconstructor,
            } => {
                let m = Mat::from_tensor(scene);
                let y = camera.capture(&m, seed);
                reconstructor.reconstruct(&y).to_tensor()
            }
        }
    }

    /// [`Acquisition::acquire`] with the plan's sensor- and link-plane
    /// faults applied to the transported signal: pixel-mask / readout /
    /// noise degradation on the raw capture (the FlatCam measurement, or
    /// the focused image for the lens baseline), then transport-tail
    /// truncation and exponent-bit corruption on the link.
    ///
    /// `attempt` salts the link-plane draws so a re-requested transfer can
    /// arrive clean, and re-draws the sensor noise (a retry is a fresh
    /// exposure); static pixel defects and per-frame sensor events replay
    /// identically across attempts. With a no-fault plan and `attempt` 0
    /// the result is byte-identical to [`Acquisition::acquire`].
    ///
    /// Returns the acquired image and the number of injected fault events.
    pub fn acquire_faulted(
        &self,
        scene: &Tensor,
        seed: u64,
        plan: &FaultPlan,
        frame: u64,
        attempt: u64,
    ) -> (Tensor, u32) {
        let mut scratch = AcquireScratch::new();
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        let injected = self.capture_faulted_into(scene, seed, plan, frame, attempt, &mut scratch);
        self.recon_into(&mut scratch, &mut out);
        (out, injected)
    }

    /// The capture half of [`Acquisition::acquire_faulted`], through
    /// reusable scratch buffers: sensor exposure, sensor-plane degradation,
    /// and link-plane transport faults, leaving the transported signal
    /// staged inside `scratch` (the FlatCam measurement in `y`, or the
    /// focused image in `m` for the lens baseline).
    /// [`Acquisition::recon_into`] turns the staged signal into the image
    /// the pipeline sees. Every step runs the in-place twin of the
    /// allocating chain, each byte-identical to its allocating
    /// counterpart, so a steady-state capture allocates nothing and
    /// matches the allocating path bit for bit.
    ///
    /// Returns the number of injected fault events.
    pub fn capture_faulted_into(
        &self,
        scene: &Tensor,
        seed: u64,
        plan: &FaultPlan,
        frame: u64,
        attempt: u64,
        scratch: &mut AcquireScratch,
    ) -> u32 {
        let s = scene.shape();
        assert_eq!(s.h, s.w, "scenes must be square, got {s}");
        let capture_seed = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            Acquisition::Lens { sensor } => {
                scratch.m.assign_tensor(scene);
                sensor.apply_inplace(&mut scratch.m, capture_seed);
                let mut injected =
                    degrade_measurement(plan, &mut scratch.m, frame, sensor.saturation);
                injected += apply_link_faults(plan, &mut scratch.m, frame, attempt);
                injected
            }
            Acquisition::FlatCam { camera, .. } => {
                scratch.m.assign_tensor(scene);
                camera.capture_into(&scratch.m, capture_seed, &mut scratch.tmp, &mut scratch.y);
                let mut injected =
                    degrade_measurement(plan, &mut scratch.y, frame, camera.sensor().saturation);
                injected += apply_link_faults(plan, &mut scratch.y, frame, attempt);
                injected
            }
        }
    }

    /// The reconstruction half of [`Acquisition::acquire_faulted`]:
    /// reads the signal a matching [`Acquisition::capture_faulted_into`]
    /// staged in `scratch` and writes the image the processing pipeline
    /// sees into `out` (Tikhonov reconstruction for the FlatCam, a plain
    /// copy for the lens baseline). Allocation-free once buffers are sized.
    pub fn recon_into(&self, scratch: &mut AcquireScratch, out: &mut Tensor) {
        match self {
            Acquisition::Lens { .. } => scratch.m.write_tensor(out),
            Acquisition::FlatCam { reconstructor, .. } => {
                reconstructor.reconstruct_into(&scratch.y, &mut scratch.ws, &mut scratch.recon);
                scratch.recon.write_tensor(out);
            }
        }
    }

    /// The latent twin of [`Acquisition::recon_into`]: reads the signal a
    /// matching [`Acquisition::capture_faulted_into`] staged in `scratch`
    /// and writes the **raw transported signal** — the FlatCam measurement
    /// itself, or the focused image for the lens baseline — into `out`,
    /// skipping the Tikhonov solve entirely. This is what the latent gaze
    /// backend consumes on steady-state frames. Allocation-free once
    /// buffers are sized.
    pub fn sense_into(&self, scratch: &AcquireScratch, out: &mut Tensor) {
        match self {
            Acquisition::Lens { .. } => scratch.m.write_tensor(out),
            Acquisition::FlatCam { .. } => scratch.y.write_tensor(out),
        }
    }

    /// Primes the delta caches from the dense capture currently staged in
    /// `scratch`: `scene` becomes the diff base, and the staged transported
    /// signal plus its reconstruction become the caches subsequent
    /// [`Acquisition::sense_delta_into`] calls update incrementally. Must
    /// run after a successful dense [`Acquisition::capture_faulted_into`] +
    /// [`Acquisition::recon_into`] pair for this `scene`.
    ///
    /// The first prime pre-sizes every delta buffer at the maximum column
    /// count, so every later delta frame (any column count) allocates
    /// nothing.
    pub fn prime_delta(&self, scene: &Tensor, scratch: &mut AcquireScratch) {
        let s = scene.shape();
        assert_eq!(s.h, s.w, "scenes must be square, got {s}");
        let n = s.h;
        let d = &mut scratch.delta;
        d.scene.assign_tensor(scene);
        match self {
            Acquisition::Lens { .. } => {
                d.y.copy_from(&scratch.m);
                d.x.copy_from(&scratch.m);
            }
            Acquisition::FlatCam { .. } => {
                d.y.copy_from(&scratch.y);
                d.x.copy_from(&scratch.recon);
            }
        }
        if !d.warmed {
            let (mh, mw) = match self {
                Acquisition::Lens { .. } => (n, n),
                Acquisition::FlatCam { camera, .. } => {
                    (camera.mask().phi_l().rows(), camera.mask().phi_r().rows())
                }
            };
            d.dx.reset(n, n);
            d.fa.reset(mh, n);
            d.fb.reset(mw, n);
            d.dy.reset(mh, mw);
            d.dws.warm(n, n);
            d.cols.reserve(n);
            d.warmed = true;
        }
        d.primed = true;
    }

    /// Diffs `scene` against the primed diff base: columns whose largest
    /// per-pixel magnitude change exceeds `threshold` are appended to
    /// `cols` (cleared first, ascending order), and the total count of
    /// super-threshold pixels is returned. Pure — neither the caches nor
    /// the diff base move, so a motion-gated (skipped) frame keeps
    /// accumulating change against the same base until it crosses the
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or `scene` changed geometry.
    pub fn detect_changes(
        &self,
        scene: &Tensor,
        scratch: &AcquireScratch,
        threshold: f64,
        cols: &mut Vec<usize>,
    ) -> usize {
        let d = &scratch.delta;
        assert!(
            d.primed,
            "delta caches not primed — run a dense frame first"
        );
        let s = scene.shape();
        assert_eq!(
            (s.h, s.w),
            (d.scene.rows(), d.scene.cols()),
            "scene geometry changed under the delta caches"
        );
        cols.clear();
        let n = s.h;
        let mut changed_px = 0usize;
        for c in 0..n {
            let mut col_changed = false;
            for r in 0..n {
                if (scene.at(0, 0, r, c) as f64 - d.scene.at(r, c)).abs() > threshold {
                    changed_px += 1;
                    col_changed = true;
                }
            }
            if col_changed {
                cols.push(c);
            }
        }
        changed_px
    }

    /// Applies the changed columns to the caches: updates the diff base,
    /// accumulates the clean measurement delta into the cached transported
    /// signal, and (when `update_recon`) applies the matching sparse-column
    /// correction to the cached reconstruction.
    fn apply_delta(
        &self,
        scene: &Tensor,
        cols: &[usize],
        scratch: &mut AcquireScratch,
        update_recon: bool,
    ) {
        let d = &mut scratch.delta;
        assert!(
            d.primed,
            "delta caches not primed — run a dense frame first"
        );
        let s = scene.shape();
        let n = s.h;
        assert_eq!(
            (s.h, s.w),
            (d.scene.rows(), d.scene.cols()),
            "scene geometry changed under the delta caches"
        );
        let k = cols.len();
        if k == 0 {
            return;
        }
        match self {
            Acquisition::Lens { .. } => {
                // the lens "measurement" is the image itself: changed
                // columns arrive clean (event readouts carry no fresh
                // exposure noise), unchanged columns keep the primed
                // exposure
                for &c in cols {
                    for r in 0..n {
                        let v = scene.at(0, 0, r, c) as f64;
                        *d.y.at_mut(r, c) = v;
                        *d.scene.at_mut(r, c) = v;
                    }
                }
                if update_recon {
                    d.x.copy_from(&d.y);
                }
            }
            Acquisition::FlatCam {
                camera,
                reconstructor,
            } => {
                // ΔX[:,cols] against the diff base, advancing the base
                d.dx.reset(n, k);
                for (j, &c) in cols.iter().enumerate() {
                    for r in 0..n {
                        let v = scene.at(0, 0, r, c) as f64;
                        *d.dx.at_mut(r, j) = v - d.scene.at(r, c);
                        *d.scene.at_mut(r, c) = v;
                    }
                }
                // measurement-domain factors: A = Φ_L·ΔX[:,cols],
                // B = Φ_R[:,cols] — ΔY = A·Bᵀ exactly (capture is linear)
                let phi_l = camera.mask().phi_l();
                let phi_r = camera.mask().phi_r();
                phi_l.matmul_into(&d.dx, &mut d.fa);
                d.fb.reset(phi_r.rows(), k);
                for (j, &c) in cols.iter().enumerate() {
                    for r in 0..phi_r.rows() {
                        *d.fb.at_mut(r, j) = phi_r.at(r, c);
                    }
                }
                // clean measurement delta accumulated into the cache
                d.fa.matmul_transposed_b_into(&d.fb, &mut d.dy);
                for (y, dy) in d.y.as_mut_slice().iter_mut().zip(d.dy.as_slice()) {
                    *y += dy;
                }
                if update_recon {
                    reconstructor.update_columns_into(&d.fa, &d.fb, &mut d.dws, &mut d.x);
                }
            }
        }
    }

    /// The event-driven twin of [`Acquisition::capture_faulted_into`] +
    /// [`Acquisition::recon_into`]:
    /// instead of re-sensing the full scene, folds the changed columns
    /// (from [`Acquisition::detect_changes`]) into the cached measurement
    /// and applies the matching sparse-column correction to the cached
    /// reconstruction, writing the updated image into `out`. The cost is
    /// `O(k)` capture columns plus an `O(n²·k)`-light spectral update —
    /// not the full dense solve. Allocation-free once primed.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or the geometry changed.
    pub fn sense_delta_into(
        &self,
        scene: &Tensor,
        cols: &[usize],
        scratch: &mut AcquireScratch,
        out: &mut Tensor,
    ) {
        self.apply_delta(scene, cols, scratch, true);
        scratch.delta.x.write_tensor(out);
    }

    /// The measurement-domain delta twin of [`Acquisition::sense_into`]
    /// (for the recon-free latent backend): folds the changed columns into
    /// the cached transported signal only — no reconstruction update — and
    /// writes the updated raw signal into `out`. Allocation-free once
    /// primed.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or the geometry changed.
    pub fn sense_delta_meas_into(
        &self,
        scene: &Tensor,
        cols: &[usize],
        scratch: &mut AcquireScratch,
        out: &mut Tensor,
    ) {
        self.apply_delta(scene, cols, scratch, false);
        scratch.delta.y.write_tensor(out);
    }

    /// [`Acquisition::detect_changes`] staging the changed columns into the
    /// scratch-internal column buffer instead of a caller-owned one — the
    /// form a tracker frame uses so the detect → apply hand-off needs no
    /// extra per-session state. Returns the super-threshold pixel count.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or `scene` changed geometry.
    pub fn detect_changes_cached(
        &self,
        scene: &Tensor,
        scratch: &mut AcquireScratch,
        threshold: f64,
    ) -> usize {
        let mut cols = std::mem::take(&mut scratch.delta.cols);
        let changed_px = self.detect_changes(scene, scratch, threshold, &mut cols);
        scratch.delta.cols = cols;
        changed_px
    }

    /// [`Acquisition::sense_delta_into`] over the columns staged by the
    /// last [`Acquisition::detect_changes_cached`] call on this scratch.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or the geometry changed.
    pub fn sense_delta_cached_into(
        &self,
        scene: &Tensor,
        scratch: &mut AcquireScratch,
        out: &mut Tensor,
    ) {
        let cols = std::mem::take(&mut scratch.delta.cols);
        self.sense_delta_into(scene, &cols, scratch, out);
        scratch.delta.cols = cols;
    }

    /// [`Acquisition::sense_delta_meas_into`] over the columns staged by
    /// the last [`Acquisition::detect_changes_cached`] call on this
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if the caches are not primed or the geometry changed.
    pub fn sense_delta_meas_cached_into(
        &self,
        scene: &Tensor,
        scratch: &mut AcquireScratch,
        out: &mut Tensor,
    ) {
        let cols = std::mem::take(&mut scratch.delta.cols);
        self.sense_delta_meas_into(scene, &cols, scratch, out);
        scratch.delta.cols = cols;
    }

    /// Allocating convenience form of [`Acquisition::sense_delta_into`].
    pub fn sense_delta(
        &self,
        scene: &Tensor,
        cols: &[usize],
        scratch: &mut AcquireScratch,
    ) -> Tensor {
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        self.sense_delta_into(scene, cols, scratch, &mut out);
        out
    }

    /// Side length of the square raw transported signal: the measurement
    /// size for a FlatCam, the scene size for the lens baseline.
    pub fn sense_size(&self, scene: usize) -> usize {
        match self {
            Acquisition::Lens { .. } => scene,
            Acquisition::FlatCam { camera, .. } => camera.measurement_size(),
        }
    }

    /// True for the FlatCam path.
    pub fn is_flatcam(&self) -> bool {
        matches!(self, Acquisition::FlatCam { .. })
    }

    /// Bytes the camera must push to the processor per frame (the raw
    /// measurement for a FlatCam, the full image for a lens camera).
    pub fn bytes_per_frame(&self, scene: usize) -> u64 {
        match self {
            Acquisition::Lens { .. } => (scene * scene) as u64,
            Acquisition::FlatCam { camera, .. } => camera.measurement_pixels() as u64,
        }
    }
}

/// Applies the plan's link-plane transport faults to a transported buffer
/// in place: tail truncation (the remainder of an aborted transfer reads
/// as zeros) and per-value exponent-bit flips. A flipped high bit blows
/// the value up to something the pipeline can detect after reconstruction;
/// a flipped low bit shrinks it silently — both are realistic outcomes of
/// an unprotected camera link. Returns the injected event count.
fn apply_link_faults(plan: &FaultPlan, m: &mut Mat, frame: u64, salt: u64) -> u32 {
    let mut injected = 0u32;
    let n = m.rows() * m.cols();
    if plan.fires_with(FaultSite::LinkTruncate, frame, salt) {
        let lost = ((n as f64 * plan.link.truncate_fraction) as usize).min(n);
        for v in &mut m.as_mut_slice()[n - lost..] {
            *v = 0.0;
        }
        injected += 1;
    }
    if plan.fires_with(FaultSite::LinkCorrupt, frame, salt) && plan.link.corrupt_values > 0 {
        let data = m.as_mut_slice();
        for j in 0..plan.link.corrupt_values as u64 {
            let idx = plan.index(FaultSite::LinkCorrupt, frame, salt * 131 + 2 * j + 1, n);
            let bit =
                52 + plan.index(FaultSite::LinkCorrupt, frame, salt * 131 + 2 * j + 2, 11) as u32;
            data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << bit));
        }
        injected += 1;
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyecod_eyedata::render::{render_eye, EyeParams};
    use eyecod_optics::metrics::psnr;

    #[test]
    fn lens_path_is_near_identity() {
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let out = Acquisition::lens().acquire(&s.image, 1);
        let p = psnr(&Mat::from_tensor(&s.image), &Mat::from_tensor(&out));
        assert!(p > 30.0, "lens PSNR {p:.1}");
    }

    #[test]
    fn flatcam_reconstruction_resembles_the_scene() {
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let out = acq.acquire(&s.image, 1);
        let p = psnr(&Mat::from_tensor(&s.image), &Mat::from_tensor(&out));
        assert!(p > 12.0, "FlatCam reconstruction PSNR {p:.1}");
        assert!(acq.is_flatcam());
    }

    #[test]
    fn flatcam_is_noisier_than_lens() {
        // Table 3's observation: FlatCam images have lower SNR than origin
        // images, which costs segmentation accuracy.
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let lens = Acquisition::lens().acquire(&s.image, 1);
        let flat = Acquisition::flatcam(48, 64, 1e-4, 7).acquire(&s.image, 1);
        let ref_m = Mat::from_tensor(&s.image);
        assert!(psnr(&ref_m, &Mat::from_tensor(&lens)) > psnr(&ref_m, &Mat::from_tensor(&flat)));
    }

    #[test]
    fn flatcam_transmits_measurement_not_image() {
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        assert_eq!(acq.bytes_per_frame(48), 64 * 64);
        assert_eq!(Acquisition::lens().bytes_per_frame(48), 48 * 48);
    }

    #[test]
    fn no_fault_plan_matches_plain_acquire_exactly() {
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let plan = FaultPlan::none();
        for acq in [Acquisition::lens(), Acquisition::flatcam(48, 64, 1e-4, 7)] {
            let clean = acq.acquire(&s.image, 5);
            let (faulted, injected) = acq.acquire_faulted(&s.image, 5, &plan, 3, 0);
            assert_eq!(injected, 0);
            assert_eq!(
                clean.as_slice(),
                faulted.as_slice(),
                "must be byte-identical"
            );
        }
    }

    #[test]
    fn scratch_capture_and_recon_reuse_buffers_across_paths() {
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let mut plan = FaultPlan::none();
        plan.seed = 4;
        plan.link.corrupt_ppm = 1_000_000;
        plan.link.corrupt_values = 2;
        // one scratch serves lens and FlatCam geometries back to back; every
        // acquisition must be byte-identical to the allocating path
        let mut scratch = AcquireScratch::new();
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        for acq in [Acquisition::lens(), Acquisition::flatcam(48, 64, 1e-4, 7)] {
            for frame in 0..3u64 {
                let (want, want_injected) = acq.acquire_faulted(&s.image, 5, &plan, frame, 0);
                let injected = acq.capture_faulted_into(&s.image, 5, &plan, frame, 0, &mut scratch);
                acq.recon_into(&mut scratch, &mut out);
                assert_eq!(injected, want_injected);
                assert_eq!(out.shape(), want.shape());
                assert_eq!(out.as_slice(), want.as_slice(), "must be byte-identical");
            }
        }
    }

    #[test]
    fn link_truncation_zeroes_the_measurement_tail() {
        let mut plan = FaultPlan::none();
        plan.seed = 2;
        plan.link.truncate_ppm = 1_000_000;
        plan.link.truncate_fraction = 0.25;
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let (faulted, injected) = acq.acquire_faulted(&s.image, 5, &plan, 3, 0);
        assert_eq!(injected, 1);
        // the truncated transfer still reconstructs to finite values but
        // differs from the clean capture
        assert!(!faulted.has_non_finite());
        assert!(faulted.sub(&acq.acquire(&s.image, 5)).max_abs() > 0.0);
    }

    #[test]
    fn delta_update_matches_full_solve_of_the_updated_measurement() {
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let s0 = render_eye(&EyeParams::centered(48), 48, 0);
        let mut scratch = AcquireScratch::new();
        let mut img = Tensor::zeros(Shape::new(1, 1, 1, 1));
        let plan = FaultPlan::none();
        acq.capture_faulted_into(&s0.image, 5, &plan, 0, 0, &mut scratch);
        acq.recon_into(&mut scratch, &mut img);
        assert!(!scratch.delta_primed());
        acq.prime_delta(&s0.image, &mut scratch);
        assert!(scratch.delta_primed());
        // perturb three columns well above the detection threshold
        let mut s1 = s0.image.clone();
        for &c in &[5usize, 6, 20] {
            for r in 0..48 {
                s1.as_mut_slice()[r * 48 + c] += 0.3;
            }
        }
        let mut cols = Vec::new();
        let px = acq.detect_changes(&s1, &scratch, 0.05, &mut cols);
        assert_eq!(cols, vec![5, 6, 20]);
        assert_eq!(px, 3 * 48);
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        acq.sense_delta_into(&s1, &cols, &mut scratch, &mut out);
        // the incrementally updated reconstruction must match a fresh full
        // solve of the incrementally updated cached measurement
        let Acquisition::FlatCam { reconstructor, .. } = &acq else {
            unreachable!()
        };
        let mut ws = ReconWorkspace::new();
        let mut full = Mat::zeros(1, 1);
        reconstructor.reconstruct_into(&scratch.delta.y, &mut ws, &mut full);
        let err = full.sub(&scratch.delta.x).max_abs();
        assert!(err < 1e-9, "incremental recon diverged: {err:e}");
        assert_eq!(out.as_slice(), scratch.delta.x.to_tensor().as_slice());
        // the diff base advanced: re-diffing the same scene is now quiet
        assert_eq!(acq.detect_changes(&s1, &scratch, 0.05, &mut cols), 0);
        assert!(cols.is_empty());
    }

    #[test]
    fn sub_threshold_changes_accumulate_against_the_same_base() {
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let s0 = render_eye(&EyeParams::centered(48), 48, 0);
        let mut scratch = AcquireScratch::new();
        acq.capture_faulted_into(&s0.image, 5, &FaultPlan::none(), 0, 0, &mut scratch);
        let mut img = Tensor::zeros(Shape::new(1, 1, 1, 1));
        acq.recon_into(&mut scratch, &mut img);
        acq.prime_delta(&s0.image, &mut scratch);
        let mut cols = Vec::new();
        // one sub-threshold step: nothing detected, base does not move
        let mut s1 = s0.image.clone();
        s1.as_mut_slice()[3 * 48 + 7] += 0.03;
        assert_eq!(acq.detect_changes(&s1, &scratch, 0.05, &mut cols), 0);
        // a second sub-threshold step on top crosses the threshold because
        // the diff base never advanced
        s1.as_mut_slice()[3 * 48 + 7] += 0.03;
        assert_eq!(acq.detect_changes(&s1, &scratch, 0.05, &mut cols), 1);
        assert_eq!(cols, vec![7]);
    }

    #[test]
    fn lens_delta_updates_changed_columns_cleanly() {
        let acq = Acquisition::lens();
        let s0 = render_eye(&EyeParams::centered(48), 48, 0);
        let mut scratch = AcquireScratch::new();
        acq.capture_faulted_into(&s0.image, 5, &FaultPlan::none(), 0, 0, &mut scratch);
        let mut img = Tensor::zeros(Shape::new(1, 1, 1, 1));
        acq.recon_into(&mut scratch, &mut img);
        acq.prime_delta(&s0.image, &mut scratch);
        let mut s1 = s0.image.clone();
        for r in 0..48 {
            s1.as_mut_slice()[r * 48 + 9] = 0.25;
        }
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        acq.sense_delta_into(&s1, &[9], &mut scratch, &mut out);
        for r in 0..48 {
            // changed column: the clean scene value (event readout)
            assert_eq!(out.at(0, 0, r, 9), 0.25);
            // untouched column: the primed noisy exposure
            assert_eq!(out.at(0, 0, r, 3), img.at(0, 0, r, 3));
        }
    }

    #[test]
    #[should_panic(expected = "delta caches not primed")]
    fn unprimed_delta_sense_panics() {
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let mut scratch = AcquireScratch::new();
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        acq.sense_delta_into(&s.image, &[0], &mut scratch, &mut out);
    }

    #[test]
    fn link_corruption_replays_and_varies_by_attempt() {
        let mut plan = FaultPlan::none();
        plan.seed = 4;
        plan.link.corrupt_ppm = 1_000_000;
        plan.link.corrupt_values = 4;
        let acq = Acquisition::flatcam(48, 64, 1e-4, 7);
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let (a, ia) = acq.acquire_faulted(&s.image, 5, &plan, 3, 0);
        let (b, ib) = acq.acquire_faulted(&s.image, 5, &plan, 3, 0);
        assert_eq!(ia, ib);
        assert_eq!(a.as_slice(), b.as_slice(), "corruption must replay exactly");
        // a re-requested transfer draws a different corruption pattern
        let (c, _) = acq.acquire_faulted(&s.image, 5, &plan, 3, 1);
        assert_ne!(a.as_slice(), c.as_slice());
    }
}
