//! The FlatCam forward capture model.

use crate::mask::SeparableMask;
use crate::mat::Mat;
use crate::sensor::SensorModel;

/// A lensless FlatCam: a separable coded mask over a bare sensor.
///
/// Physical geometry (paper Fig. 2): the mask sits < 2 mm above the sensor,
/// versus the 10–20 mm focal stack of a lens-based module — the form-factor
/// win that lets the eye-tracking processor sit next to the camera.
#[derive(Debug, Clone)]
pub struct FlatCam {
    mask: SeparableMask,
    sensor: SensorModel,
    /// `Φ_Rᵀ`, transposed once here so every capture multiplies by it
    /// through the blocked GEMM tile (as [`crate::recon::TikhonovReconstructor`]
    /// stores its transposed factors).
    phi_r_t: Mat,
}

impl FlatCam {
    /// Assembles a camera from a mask and a sensor model.
    pub fn new(mask: SeparableMask, sensor: SensorModel) -> Self {
        let phi_r_t = mask.phi_r().transpose();
        FlatCam {
            mask,
            sensor,
            phi_r_t,
        }
    }

    /// The camera's coded mask.
    pub fn mask(&self) -> &SeparableMask {
        &self.mask
    }

    /// The camera's sensor model.
    pub fn sensor(&self) -> &SensorModel {
        &self.sensor
    }

    /// Captures a scene: `Y = Φ_L · X · Φ_Rᵀ + E`, with `E` drawn by the
    /// sensor model using `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the scene size does not match the mask geometry.
    pub fn capture(&self, scene: &Mat, seed: u64) -> Mat {
        let n = self.mask.scene_size();
        assert_eq!(
            (scene.rows(), scene.cols()),
            (n, n),
            "scene must be {n}x{n} for this mask, got {}x{}",
            scene.rows(),
            scene.cols()
        );
        let clean = self.mask.phi_l().matmul(scene).matmul(&self.phi_r_t);
        self.sensor.apply(&clean, seed)
    }

    /// [`FlatCam::capture`] through caller-owned buffers: the intermediate
    /// product lands in `tmp`, the measurement in `out` — a warm pair of
    /// buffers makes the capture allocation-free. Both products run the
    /// blocked tile of [`Mat::matmul_into`], whose ascending-`k`
    /// mul-then-add per element is the sequence of
    /// [`Mat::matmul_transposed_b_into`] against `Φ_R`, so the pre-transposed
    /// product is bit-identical to the transposed-B one. Byte-identical to
    /// [`FlatCam::capture`] for equal seeds.
    ///
    /// # Panics
    ///
    /// Panics if the scene size does not match the mask geometry.
    pub fn capture_into(&self, scene: &Mat, seed: u64, tmp: &mut Mat, out: &mut Mat) {
        let n = self.mask.scene_size();
        assert_eq!(
            (scene.rows(), scene.cols()),
            (n, n),
            "scene must be {n}x{n} for this mask, got {}x{}",
            scene.rows(),
            scene.cols()
        );
        self.mask.phi_l().matmul_into(scene, tmp);
        tmp.matmul_into(&self.phi_r_t, out);
        self.sensor.apply_inplace(out, seed);
    }

    /// The raw measurement size in pixels — what must be communicated from
    /// sensor to processor when the first layer is *not* folded into the
    /// mask.
    pub fn measurement_pixels(&self) -> usize {
        let (h, w) = self.mask.sensor_size();
        h * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::SeparableMask;

    #[test]
    fn capture_is_linear_in_the_scene() {
        let cam = FlatCam::new(SeparableMask::mls(40, 32, 3), SensorModel::noiseless());
        let a = Mat::from_fn(32, 32, |r, c| (r + c) as f64 / 64.0);
        let b = Mat::from_fn(32, 32, |r, c| (r as f64 - c as f64) / 32.0);
        let ya = cam.capture(&a, 0);
        let yb = cam.capture(&b, 0);
        let yab = cam.capture(&a.add(&b), 0);
        assert!(yab.sub(&ya.add(&yb)).max_abs() < 1e-12);
    }

    #[test]
    fn measurement_is_scrambled_not_a_copy() {
        let cam = FlatCam::new(SeparableMask::mls(32, 32, 3), SensorModel::noiseless());
        // an impulse scene spreads over the whole measurement (visual privacy)
        let mut scene = Mat::zeros(32, 32);
        *scene.at_mut(16, 16) = 1.0;
        let y = cam.capture(&scene, 0);
        let nonzero = y.as_slice().iter().filter(|&&v| v.abs() > 1e-12).count();
        assert!(
            nonzero > 200,
            "impulse should spread over many sensor pixels, got {nonzero}"
        );
    }

    #[test]
    fn capture_into_is_byte_identical_to_capture() {
        let cam = FlatCam::new(
            SeparableMask::mls(40, 32, 3),
            crate::sensor::SensorModel::low_light(),
        );
        let scene = Mat::from_fn(32, 32, |r, c| (r + c) as f64 / 64.0);
        let (mut tmp, mut out) = (Mat::zeros(1, 1), Mat::zeros(1, 1));
        for seed in [0u64, 7] {
            cam.capture_into(&scene, seed, &mut tmp, &mut out);
            assert_eq!(out.as_slice(), cam.capture(&scene, seed).as_slice());
        }
    }

    #[test]
    fn pretransposed_capture_product_equals_the_transposed_b_product_bitwise() {
        // a noiseless camera returns the clean product `Φ_L · X · Φ_Rᵀ`
        // itself, at the working size, a ragged size and paper scale
        for (sensor, scene, seed) in [(64usize, 48usize, 7u32), (40, 29, 3), (320, 256, 1)] {
            let mask = SeparableMask::mls_differential(sensor, scene, seed);
            let x = Mat::from_fn(scene, scene, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0);
            let (mut tmp, mut want) = (Mat::zeros(1, 1), Mat::zeros(1, 1));
            mask.phi_l().matmul_into(&x, &mut tmp);
            tmp.matmul_transposed_b_into(mask.phi_r(), &mut want);
            let cam = FlatCam::new(mask, SensorModel::noiseless());
            let mut got = Mat::zeros(1, 1);
            cam.capture_into(&x, 0, &mut tmp, &mut got);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "capture_into at {sensor}/{scene}");
            assert_eq!(
                bits(&cam.capture(&x, 0)),
                bits(&want),
                "capture at {sensor}/{scene}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scene must be")]
    fn rejects_mismatched_scene() {
        let cam = FlatCam::new(SeparableMask::mls(40, 32, 3), SensorModel::noiseless());
        cam.capture(&Mat::zeros(16, 16), 0);
    }

    #[test]
    fn measurement_pixels_reflect_sensor() {
        let cam = FlatCam::new(SeparableMask::mls(48, 32, 1), SensorModel::noiseless());
        assert_eq!(cam.measurement_pixels(), 48 * 48);
    }
}
