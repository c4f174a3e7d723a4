//! Training of the tracker's proxy models on the synthetic dataset.
//!
//! Training follows the paper's recipe shape: the segmentation model learns
//! on downsampled acquired images (paper: 512→128) with per-pixel
//! cross-entropy; the gaze model learns on pupil-anchored ROI crops with the
//! angular loss; both use Adam. Crucially, training images pass through the
//! *configured acquisition* (FlatCam reconstruction or lens), so FlatCam
//! artefacts are part of the training distribution exactly as in the paper.

use crate::acquisition::{AcquireScratch, Acquisition};
use crate::pool::global;
use crate::roi::predict_roi;
use crate::tracker::TrackerConfig;
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_faults::FaultPlan;
use eyecod_models::latent::{train_latent_gaze, LatentGazeNet};
use eyecod_models::proxy::{
    train_gaze, train_seg, GazeFamily, ProxyGazeNet, ProxySegNet, TrainConfig,
};
use eyecod_tensor::ops::{downsample_avg, resize_bilinear};
use eyecod_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSetup {
    /// Number of synthetic samples to render.
    pub n_samples: usize,
    /// Segmentation training epochs.
    pub seg_epochs: usize,
    /// Gaze training epochs.
    pub gaze_epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Segmentation learning rate (paper: 1e-3).
    pub seg_lr: f32,
    /// Gaze learning rate (paper: 5e-4; proxies like it a bit higher).
    pub gaze_lr: f32,
    /// Gaze architecture family.
    pub gaze_family: GazeFamily,
    /// Mirror-augment the corpus (doubles it; exact for eye images — see
    /// `eyecod_eyedata::augment`).
    pub augment_flip: bool,
    /// Master seed.
    pub seed: u64,
}

impl TrainingSetup {
    /// A seconds-scale setup for tests and the quickstart example.
    pub fn quick() -> Self {
        TrainingSetup {
            n_samples: 32,
            seg_epochs: 12,
            gaze_epochs: 40,
            batch: 6,
            seg_lr: 3e-3,
            gaze_lr: 3e-3,
            gaze_family: GazeFamily::ResNetLike,
            augment_flip: false,
            seed: 0,
        }
    }

    /// A minutes-scale setup used by the benchmark harnesses.
    pub fn standard() -> Self {
        TrainingSetup {
            n_samples: 96,
            seg_epochs: 20,
            gaze_epochs: 60,
            batch: 8,
            seg_lr: 2e-3,
            gaze_lr: 2e-3,
            gaze_family: GazeFamily::FbnetLike,
            augment_flip: true,
            seed: 0,
        }
    }

    /// Same setup with a different gaze family (Table 2 comparisons).
    pub fn with_gaze_family(mut self, family: GazeFamily) -> Self {
        self.gaze_family = family;
        self
    }
}

/// The trained models an [`crate::tracker::EyeTracker`] runs.
#[derive(Clone)]
pub struct TrackerModels {
    /// The segmentation ("predict") network.
    pub seg: ProxySegNet,
    /// The gaze ("focus") network.
    pub gaze: ProxyGazeNet,
    /// The recon-free ("reconstruct-then-skip") gaze network, regressing
    /// from down-projected raw measurements instead of ROI crops.
    pub latent: LatentGazeNet,
}

impl TrackerModels {
    /// Clones the trained models (e.g. to drive several trackers).
    pub fn clone_models(&self) -> Self {
        self.clone()
    }
}

/// Nearest-neighbour label downsampling (block centre) from `size` to
/// `size / factor`.
pub fn downsample_labels(labels: &[u8], size: usize, factor: usize) -> Vec<u8> {
    assert_eq!(labels.len(), size * size, "label map size mismatch");
    assert!(
        factor > 0 && size.is_multiple_of(factor),
        "factor must divide size"
    );
    let out_size = size / factor;
    let mut out = Vec::with_capacity(out_size * out_size);
    for y in 0..out_size {
        for x in 0..out_size {
            let sy = y * factor + factor / 2;
            let sx = x * factor + factor / 2;
            out.push(labels[sy * size + sx]);
        }
    }
    out
}

/// Renders a training corpus, passes it through the configured acquisition,
/// and trains both proxy models.
///
/// Returns the trained models; training curves are deterministic in
/// `setup.seed`.
pub fn train_tracker_models(setup: &TrainingSetup, config: &TrackerConfig) -> TrackerModels {
    config.validate();
    assert!(setup.n_samples > 0, "need training samples");
    let mut rng = StdRng::seed_from_u64(setup.seed);
    let scene = config.scene_size;
    let factor = scene / config.seg_size;

    // Render + acquire in parallel (acquisition is the expensive part).
    let params: Vec<EyeParams> = (0..setup.n_samples)
        .map(|_| EyeParams::random(&mut rng))
        .collect();
    let acquisition = if config.flatcam {
        Acquisition::flatcam(scene, config.sensor_size, config.epsilon, config.mask_seed)
    } else {
        Acquisition::lens()
    };
    let seed0 = setup.seed;
    let flip = setup.augment_flip;
    let no_faults = FaultPlan::none();
    // acquired image, segmentation labels, gaze target, raw measurement
    type TrainSample = (Tensor, Vec<u8>, Tensor, Tensor);
    // one pool item per sample: each render+acquire is heavy, and items
    // are claimed one at a time, so uneven FlatCam/lens costs balance
    let samples: Vec<Vec<TrainSample>> = global().parallel_map(&params, |p| {
        let idx = p.texture_seed ^ seed0;
        let rendered = render_eye(p, scene, idx);
        let mut variants = vec![rendered.clone()];
        if flip {
            variants.push(eyecod_eyedata::augment::flip_horizontal(&rendered));
        }
        let mut scratch = AcquireScratch::new();
        variants
            .into_iter()
            .map(|s| {
                // one exposure (the seed `acquire` would use): the raw
                // measurement and the image reconstructed from it
                let seed = idx.wrapping_add(1);
                acquisition.capture_faulted_into(&s.image, seed, &no_faults, 0, 0, &mut scratch);
                let mut measurement = Tensor::zeros(Shape::new(1, 1, 1, 1));
                acquisition.sense_into(&scratch, &mut measurement);
                let mut acquired = Tensor::zeros(Shape::new(1, 1, 1, 1));
                acquisition.recon_into(&mut scratch, &mut acquired);
                let gaze = eyecod_eyedata::GazeVector::batch_to_tensor(&[s.gaze]);
                (acquired, s.labels, gaze, measurement)
            })
            .collect()
    });
    let samples: Vec<TrainSample> = samples.into_iter().flatten().collect();

    // --- segmentation training set (downsampled) ---
    let seg_images: Vec<Tensor> = samples
        .iter()
        .map(|(img, _, _, _)| downsample_avg(img, factor))
        .collect();
    let seg_images = Tensor::stack(&seg_images);
    let seg_labels: Vec<usize> = samples
        .iter()
        .flat_map(|(_, l, _, _)| {
            downsample_labels(l, scene, factor)
                .into_iter()
                .map(|v| v as usize)
        })
        .collect();
    let mut seg = ProxySegNet::new(8, &mut rng);
    train_seg(
        &mut seg,
        &seg_images,
        &seg_labels,
        &TrainConfig {
            epochs: setup.seg_epochs,
            batch: setup.batch,
            lr: setup.seg_lr,
            seed: setup.seed ^ 0x5E6,
        },
    );

    // --- gaze training set (ground-truth-anchored ROI crops, plus a
    //     jittered copy so the model tolerates the few-pixel anchor error a
    //     predicted ROI carries at inference time) ---
    let (rh, rw) = config.roi;
    let mut crops = Vec::with_capacity(2 * samples.len());
    let mut gazes = Vec::with_capacity(2 * samples.len());
    use rand::Rng;
    for (img, labels, gaze, _) in &samples {
        let labels_seg = downsample_labels(labels, scene, factor);
        let roi_seg = predict_roi(
            &labels_seg,
            config.seg_size,
            (rh / factor).max(2),
            (rw / factor).max(2),
        );
        let mut roi = roi_seg.rescale(config.seg_size, scene);
        roi.h = rh;
        roi.w = rw;
        roi.y0 = roi.y0.min(scene - rh);
        roi.x0 = roi.x0.min(scene - rw);
        for jitter in 0..2 {
            let mut r = roi;
            if jitter == 1 {
                let dy: i64 = rng.gen_range(-2..=2);
                let dx: i64 = rng.gen_range(-2..=2);
                r.y0 = (r.y0 as i64 + dy).clamp(0, (scene - rh) as i64) as usize;
                r.x0 = (r.x0 as i64 + dx).clamp(0, (scene - rw) as i64) as usize;
            }
            let crop = r.crop(img);
            crops.push(resize_bilinear(
                &crop,
                config.gaze_input.0,
                config.gaze_input.1,
            ));
            gazes.push(gaze.clone());
        }
    }
    let crops = Tensor::stack(&crops);
    let gazes = Tensor::stack(&gazes);
    let mut gaze = ProxyGazeNet::new(setup.gaze_family, &mut rng);
    train_gaze(
        &mut gaze,
        &crops,
        &gazes,
        &TrainConfig {
            epochs: setup.gaze_epochs,
            batch: setup.batch,
            lr: setup.gaze_lr,
            seed: setup.seed ^ 0x6A2E,
        },
    );

    // --- latent gaze training set (raw transported measurements; the net
    //     projects + normalises internally). Built *after* every rng draw
    //     of the existing pipeline, so the seg/gaze weights stay
    //     bit-identical to pre-latent training runs. ---
    let measurements: Vec<Tensor> = samples.iter().map(|(_, _, _, m)| m.clone()).collect();
    let measurements = Tensor::stack(&measurements);
    let latent_gazes: Vec<Tensor> = samples.iter().map(|(_, _, g, _)| g.clone()).collect();
    let latent_gazes = Tensor::stack(&latent_gazes);
    let mut latent = LatentGazeNet::new(
        setup.gaze_family,
        config.gaze_input.0,
        config.gaze_input.1,
        &mut rng,
    );
    train_latent_gaze(
        &mut latent,
        &measurements,
        &latent_gazes,
        &TrainConfig {
            epochs: setup.gaze_epochs,
            batch: setup.batch,
            lr: setup.gaze_lr,
            seed: setup.seed ^ 0x1A7E,
        },
    );

    TrackerModels { seg, gaze, latent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyecod_models::proxy::eval_gaze;

    #[test]
    fn downsample_labels_picks_block_centres() {
        // 4x4 -> 2x2 with factor 2: centres at (1,1), (1,3), (3,1), (3,3)
        let mut labels = vec![0u8; 16];
        labels[4 + 1] = 3; // row 1, col 1
        labels[3 * 4 + 3] = 2;
        assert_eq!(downsample_labels(&labels, 4, 2), vec![3, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "factor must divide")]
    fn downsample_labels_checks_factor() {
        downsample_labels(&[0u8; 16], 4, 3);
    }

    #[test]
    fn quick_training_produces_working_models() {
        let config = TrackerConfig::small();
        let setup = TrainingSetup::quick();
        let models = train_tracker_models(&setup, &config);

        // evaluate the gaze net on a fresh ground-truth-ROI sample
        let mut rng = StdRng::seed_from_u64(99);
        let p = EyeParams::random(&mut rng);
        let s = render_eye(&p, config.scene_size, 7);
        let acq = Acquisition::flatcam(
            config.scene_size,
            config.sensor_size,
            config.epsilon,
            config.mask_seed,
        );
        let img = acq.acquire(&s.image, 8);
        let labels_seg = downsample_labels(&s.labels, config.scene_size, 2);
        let roi = predict_roi(&labels_seg, config.seg_size, 12, 16).rescale(config.seg_size, 48);
        let mut roi = roi;
        roi.h = 24;
        roi.w = 32;
        roi.y0 = roi.y0.min(48 - 24);
        roi.x0 = roi.x0.min(48 - 32);
        let crop = resize_bilinear(&roi.crop(&img), 24, 32);
        let truth = eyecod_eyedata::GazeVector::batch_to_tensor(&[s.gaze]);
        let mut gaze = models.gaze.clone();
        let err = eval_gaze(&mut gaze, &crop, &truth);
        assert!(err < 20.0, "unseen-sample gaze error {err:.1}°");
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let config = TrackerConfig::small();
        let mut setup = TrainingSetup::quick();
        setup.n_samples = 8;
        setup.seg_epochs = 2;
        setup.gaze_epochs = 2;
        let a = train_tracker_models(&setup, &config);
        let b = train_tracker_models(&setup, &config);
        let mut ga = a.gaze.clone();
        let mut gb = b.gaze.clone();
        use eyecod_tensor::Layer;
        let pa: Vec<f32> = ga
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice()[0])
            .collect();
        let pb: Vec<f32> = gb
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice()[0])
            .collect();
        assert_eq!(pa, pb);
    }
}
