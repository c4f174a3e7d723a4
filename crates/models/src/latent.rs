//! Recon-free latent gaze regression.
//!
//! FlatTrack (arXiv 2501.15450) and "Low Latency Gaze Tracking via Latent
//! Optical Sensing" (arXiv 2605.17990) show gaze can be regressed directly
//! from lensless measurements — the Tikhonov solve that dominates the
//! per-frame cost exists only to make the scene *human*-interpretable, and
//! a regressor can learn the mask's scrambling instead. [`LatentGazeNet`]
//! is that regressor: a [`ProxyGazeNet`] fed a **separably down-projected
//! raw FlatCam measurement** rather than the reconstructed ROI crop.
//!
//! The projection is a bilinear resize of the measurement down to the same
//! spatial extent as the recon path's gaze input, followed by an affine
//! normalisation `(v - shift) * scale` whose constants are fitted on the
//! training corpus (measurements ride on the sensor's DC level, so without
//! the shift the net would spend capacity modelling an offset). Bilinear
//! interpolation is separable, so the projection is the cheap stand-in for
//! the learned separable down-projection of the latent-sensing papers —
//! and because the projected input has exactly the recon path's gaze-input
//! geometry, the latent net slots into the existing workspace forwards
//! with no new shapes.

use crate::infer::GazeInferWorkspace;
use crate::proxy::{train_gaze, GazeFamily, ProxyGazeNet, TrainConfig};
use eyecod_tensor::{ops, Layer, Tensor};
use rand::rngs::StdRng;

/// A gaze regressor over down-projected raw FlatCam measurements.
#[derive(Clone)]
pub struct LatentGazeNet {
    net: ProxyGazeNet,
    in_h: usize,
    in_w: usize,
    shift: f32,
    scale: f32,
}

impl LatentGazeNet {
    /// Builds an untrained latent regressor of the given family whose
    /// projected input is `(in_h, in_w)` — pass the tracker's gaze-input
    /// extent so the latent and recon paths share arena geometry.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(family: GazeFamily, in_h: usize, in_w: usize, rng: &mut StdRng) -> Self {
        assert!(in_h > 0 && in_w > 0, "latent input extent must be non-zero");
        LatentGazeNet {
            net: ProxyGazeNet::new(family, rng),
            in_h,
            in_w,
            shift: 0.0,
            scale: 1.0,
        }
    }

    /// The architecture family of the inner regressor.
    pub fn family(&self) -> GazeFamily {
        self.net.family()
    }

    /// The projected input extent `(h, w)`.
    pub fn input_extent(&self) -> (usize, usize) {
        (self.in_h, self.in_w)
    }

    /// The fitted normalisation constants `(shift, scale)`.
    pub fn normalization(&self) -> (f32, f32) {
        (self.shift, self.scale)
    }

    /// Sets the input normalisation applied after projection.
    pub fn set_normalization(&mut self, shift: f32, scale: f32) {
        self.shift = shift;
        self.scale = scale;
    }

    /// Projects a raw measurement batch `(N, 1, S, S)` into the net's input
    /// space: bilinear down-projection to `(in_h, in_w)` then the fitted
    /// affine normalisation. Allocation-free once `out` is warm, and
    /// NaN-preserving (a corrupted measurement stays visibly corrupt for
    /// the degenerate-gaze recovery machinery downstream).
    pub fn project_into(&self, measurement: &Tensor, out: &mut Tensor) {
        ops::resize_bilinear_into(measurement, self.in_h, self.in_w, out);
        let (shift, scale) = (self.shift, self.scale);
        for v in out.as_mut_slice() {
            *v = (*v - shift) * scale;
        }
    }

    /// Inference forward over an already-projected input — the exact
    /// [`ProxyGazeNet::forward_infer`] chain, so batch == per-item and the
    /// zero-allocation property are inherited, not re-proven.
    pub fn forward_infer(&self, input: &Tensor, ws: &mut GazeInferWorkspace, out: &mut Tensor) {
        self.net.forward_infer(input, ws, out);
    }

    /// Training-path forward over an already-projected input.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.net.forward(input, train)
    }
}

/// Fits the normalisation constants on a measurement corpus and trains the
/// inner regressor on the projected inputs; returns per-epoch mean training
/// loss. `measurements` is the raw `(N, 1, S, S)` batch
/// ([`LatentGazeNet::project_into`] handles the down-projection), `gazes`
/// the matching `(N, 3, 1, 1)` targets.
///
/// # Panics
///
/// Panics if the batch sizes differ.
pub fn train_latent_gaze(
    net: &mut LatentGazeNet,
    measurements: &Tensor,
    gazes: &Tensor,
    config: &TrainConfig,
) -> Vec<f32> {
    assert_eq!(
        measurements.shape().n,
        gazes.shape().n,
        "measurements/gazes batch mismatch"
    );
    // fit shift/scale on the *projected* corpus (projection first, so the
    // constants describe what the net actually sees)
    net.set_normalization(0.0, 1.0);
    let mut projected = Tensor::zeros(eyecod_tensor::Shape::new(1, 1, 1, 1));
    net.project_into(measurements, &mut projected);
    let data = projected.as_slice();
    let mean = data.iter().sum::<f32>() / data.len() as f32;
    let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
    let std = var.sqrt().max(1e-6);
    net.set_normalization(mean, 1.0 / std);
    for v in projected.as_mut_slice() {
        *v = (*v - mean) / std;
    }
    train_gaze(&mut net.net, &projected, gazes, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyecod_tensor::Shape;
    use rand::{Rng, SeedableRng};

    /// Synthetic "lensless" corpus: the scene is a blob whose position
    /// encodes gaze, and the measurement is a fixed random linear scramble
    /// of the scene (the essential property of a FlatCam capture).
    fn toy_latent_data(n: usize, scene: usize, meas: usize) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(9);
        let mix: Vec<f32> = (0..meas * meas * scene * scene)
            .map(|_| rng.gen_range(-1.0f32..1.0f32) / scene as f32)
            .collect();
        let mut measurements = Vec::new();
        let mut gazes = Vec::new();
        for i in 0..n {
            let fy = 0.3 + 0.4 * ((i * 37 % 100) as f32 / 100.0);
            let fx = 0.3 + 0.4 * ((i * 61 % 100) as f32 / 100.0);
            let img = Tensor::from_fn(Shape::new(1, 1, scene, scene), |_, _, h, w| {
                let dy = h as f32 / scene as f32 - fy;
                let dx = w as f32 / scene as f32 - fx;
                1.0 - (-(dy * dy + dx * dx) * 40.0).exp()
            });
            let m = Tensor::from_fn(Shape::new(1, 1, meas, meas), |_, _, h, w| {
                let row = (h * meas + w) * scene * scene;
                img.as_slice()
                    .iter()
                    .zip(&mix[row..row + scene * scene])
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    + 0.5 // sensor DC level
            });
            measurements.push(m);
            let yaw = (fx - 0.5) * 1.2;
            let pitch = (fy - 0.5) * 1.2;
            let mut g = Tensor::zeros(Shape::new(1, 3, 1, 1));
            *g.at_mut(0, 0, 0, 0) = yaw.sin();
            *g.at_mut(0, 1, 0, 0) = pitch.sin();
            *g.at_mut(0, 2, 0, 0) = (1.0 - yaw.sin().powi(2) - pitch.sin().powi(2)).sqrt();
            gazes.push(g);
        }
        (Tensor::stack(&measurements), Tensor::stack(&gazes))
    }

    #[test]
    fn latent_net_learns_gaze_from_scrambled_measurements() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = LatentGazeNet::new(GazeFamily::ResNetLike, 16, 16, &mut rng);
        let (meas, gazes) = toy_latent_data(32, 12, 20);
        let cfg = TrainConfig {
            epochs: 25,
            batch: 8,
            lr: 3e-3,
            seed: 1,
        };
        let history = train_latent_gaze(&mut net, &meas, &gazes, &cfg);
        assert!(
            history.last().unwrap() < &(history.first().unwrap() * 0.6),
            "latent training should cut loss: {history:?}"
        );
        // normalisation was fitted: the corpus rides on a DC level, so the
        // shift must be materially non-zero
        let (shift, scale) = net.normalization();
        assert!(shift.abs() > 0.05, "shift {shift} missed the DC level");
        assert!(scale > 0.0);
    }

    #[test]
    fn project_into_normalises_and_is_allocation_stable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = LatentGazeNet::new(GazeFamily::MobileNetLike, 8, 8, &mut rng);
        net.set_normalization(0.5, 2.0);
        let m = Tensor::full(Shape::new(1, 1, 20, 20), 0.75);
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        net.project_into(&m, &mut out);
        assert_eq!(out.shape().dims(), (1, 1, 8, 8));
        // (0.75 - 0.5) * 2.0 — bilinear over a constant is that constant
        for v in out.as_slice() {
            assert!((v - 0.5).abs() < 1e-6, "normalised value {v}");
        }
        // a warm output buffer keeps its capacity across re-projection
        let ptr = out.as_slice().as_ptr();
        net.project_into(&m, &mut out);
        assert_eq!(ptr, out.as_slice().as_ptr());
    }

    #[test]
    fn projection_preserves_nan_for_degenerate_detection() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = LatentGazeNet::new(GazeFamily::FbnetLike, 4, 4, &mut rng);
        let mut m = Tensor::zeros(Shape::new(1, 1, 8, 8));
        m.as_mut_slice()[13] = f32::NAN;
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        net.project_into(&m, &mut out);
        assert!(out.has_non_finite(), "NaN must survive the projection");
    }

    #[test]
    fn forward_infer_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = LatentGazeNet::new(GazeFamily::ResNetLike, 12, 12, &mut rng);
        let x = Tensor::from_fn(Shape::new(2, 1, 12, 12), |_, _, h, w| {
            ((h * 13 + w * 7) % 10) as f32 * 0.1
        });
        let want = net.forward(&x, false);
        let mut ws = GazeInferWorkspace::new();
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        net.forward_infer(&x, &mut ws, &mut out);
        assert_eq!(out.shape(), want.shape());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out),
            bits(&want),
            "latent infer diverged from Layer path"
        );
    }
}
