//! The sensing–processing interface in the pipeline (paper §4.2).
//!
//! Instead of *reconstruct → segment*, the coded mask's optical response is
//! designed to be the segmentation model's first layer: the sensor emits a
//! small stack of strided edge/intensity feature maps, and a segmentation
//! network with a multi-channel input consumes them directly. Benefits, as
//! the paper argues: (1) the first layer's FLOPs — which run at the highest
//! resolution in UNet-style models — move into the optics, and (2) the
//! sensor→processor link carries the small feature stack rather than the
//! raw measurement.

use crate::training::{downsample_labels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_models::proxy::{predict_seg, train_seg, ProxySegNet, TrainConfig};
use eyecod_optics::interface::OpticalFirstLayer;
use eyecod_optics::mat::Mat;
use eyecod_optics::sensor::SensorModel;
use eyecod_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A segmentation pipeline whose first layer lives in the FlatCam mask.
pub struct InterfaceSegPipeline {
    optical: OpticalFirstLayer,
    sensor: SensorModel,
    net: ProxySegNet,
    scene: usize,
}

impl InterfaceSegPipeline {
    /// Builds the pipeline: a 4-channel optical edge bank striding
    /// `scene → out_res`, feeding a multi-channel segmentation proxy.
    ///
    /// # Panics
    ///
    /// Panics if `out_res` does not divide `scene` (see
    /// [`OpticalFirstLayer::edge_bank`]).
    pub fn new(scene: usize, out_res: usize, width: usize, rng: &mut StdRng) -> Self {
        let optical = OpticalFirstLayer::edge_bank(scene, out_res);
        let net = ProxySegNet::with_input_channels(optical.num_channels(), width, rng);
        InterfaceSegPipeline {
            optical,
            sensor: SensorModel::nir_eye_tracking(),
            net,
            scene,
        }
    }

    /// The optical front end.
    pub fn optical(&self) -> &OpticalFirstLayer {
        &self.optical
    }

    /// Applies the optical bank plus per-channel sensor noise — what the
    /// processor receives. Edge channels carry much smaller amplitudes
    /// than the intensity channel, so the readout applies fixed per-channel
    /// gains (a one-time analog calibration) to balance their dynamic
    /// range before the network sees them.
    pub fn sense(&self, scene_img: &Tensor, seed: u64) -> Tensor {
        const GAINS: [f32; 4] = [1.0, 4.0, 4.0, 8.0];
        let m = Mat::from_tensor(scene_img);
        let features = self.optical.apply(&m);
        let s = features.shape();
        let mut noisy = Tensor::zeros(s);
        for c in 0..s.c {
            let plane = Mat::from_fn(s.h, s.w, |y, x| features.at(0, c, y, x) as f64);
            let n = self.sensor.apply(&plane, seed.wrapping_add(c as u64));
            let gain = GAINS.get(c).copied().unwrap_or(1.0);
            for y in 0..s.h {
                for x in 0..s.w {
                    *noisy.at_mut(0, c, y, x) = n.at(y, x) as f32 * gain;
                }
            }
        }
        noisy
    }

    /// Segments a scene through the optical interface.
    pub fn segment(&mut self, scene_img: &Tensor, seed: u64) -> Vec<u8> {
        let features = self.sense(scene_img, seed);
        predict_seg(&self.net, &features)
    }

    /// Bytes transmitted per frame (the strided feature stack).
    pub fn bytes_per_frame(&self) -> u64 {
        (self.optical.num_channels() * self.optical.output_extent().pow(2)) as u64
    }

    /// First-layer FLOPs moved into the optics.
    pub fn flops_saved(&self) -> u64 {
        self.optical.flops_saved()
    }

    /// Trains the segmentation network on optically sensed features.
    /// Returns the per-epoch loss history.
    pub fn train(&mut self, setup: &TrainingSetup) -> Vec<f32> {
        let out = self.optical.output_extent();
        let factor = self.scene / out;
        let mut rng = StdRng::seed_from_u64(setup.seed);
        let mut features = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for i in 0..setup.n_samples {
            let p = EyeParams::random(&mut rng);
            let s = render_eye(&p, self.scene, i as u64);
            features.push(self.sense(&s.image, 300 + i as u64));
            labels.extend(
                downsample_labels(&s.labels, self.scene, factor)
                    .into_iter()
                    .map(|v| v as usize),
            );
        }
        let features = Tensor::stack(&features);
        train_seg(
            &mut self.net,
            &features,
            &labels,
            &TrainConfig {
                epochs: setup.seg_epochs * 2,
                batch: setup.batch,
                lr: setup.seg_lr,
                seed: setup.seed,
            },
        )
    }

    /// Evaluates mIOU at feature resolution on held-out samples.
    pub fn eval_miou(&mut self, n_eval: usize) -> f32 {
        let out = self.optical.output_extent();
        let factor = self.scene / out;
        let mut rng = StdRng::seed_from_u64(8888);
        let mut sum = 0.0f32;
        for i in 0..n_eval {
            let p = EyeParams::random(&mut rng);
            let s = render_eye(&p, self.scene, 40_000 + i as u64);
            let pred = self.segment(&s.image, 41_000 + i as u64);
            let truth = downsample_labels(&s.labels, self.scene, factor);
            sum += eyecod_eyedata::labels::mean_iou(&pred, &truth);
        }
        sum / n_eval as f32
    }

    /// Shape of the sensed feature stack.
    pub fn feature_shape(&self) -> Shape {
        Shape::new(
            1,
            self.optical.num_channels(),
            self.optical.output_extent(),
            self.optical.output_extent(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_pipeline_learns_to_segment() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pipe = InterfaceSegPipeline::new(48, 24, 8, &mut rng);
        let mut setup = TrainingSetup::quick();
        setup.n_samples = 24;
        setup.seg_epochs = 10;
        let history = pipe.train(&setup);
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss did not drop: {history:?}"
        );
        let miou = pipe.eval_miou(12);
        assert!(miou > 0.40, "interface segmentation mIOU {miou:.3}");
    }

    #[test]
    fn interface_shrinks_communication() {
        let mut rng = StdRng::seed_from_u64(1);
        let pipe = InterfaceSegPipeline::new(48, 12, 8, &mut rng);
        // raw measurement for a 64x64 sensor vs 4x12x12 features
        assert!(pipe.bytes_per_frame() < 64 * 64);
        assert_eq!(pipe.bytes_per_frame(), 4 * 12 * 12);
        assert!(pipe.flops_saved() > 0);
        assert_eq!(pipe.feature_shape().dims(), (1, 4, 12, 12));
    }

    #[test]
    fn sensing_is_noise_seeded() {
        let mut rng = StdRng::seed_from_u64(2);
        let pipe = InterfaceSegPipeline::new(48, 24, 8, &mut rng);
        let s = render_eye(&EyeParams::centered(48), 48, 0);
        let a = pipe.sense(&s.image, 1);
        let b = pipe.sense(&s.image, 1);
        let c = pipe.sense(&s.image, 2);
        assert_eq!(a, b);
        assert!(a.sub(&c).max_abs() > 0.0);
    }
}
