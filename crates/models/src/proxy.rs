//! Trainable proxy networks.
//!
//! Full RITNet/FBNet-scale training is out of scope for this environment (no
//! OpenEDS data, no GPU), so accuracy *trends* are measured with small
//! members of the same architecture families trained from scratch on the
//! synthetic eye dataset:
//!
//! * [`ProxySegNet`] — a skip-connected encoder–decoder (UNet/RITNet
//!   family) for 4-class eye segmentation;
//! * [`ProxyGazeNet`] — gaze regressors in three capacity/structure tiers
//!   mirroring ResNet18 (plain convolutions, widest), FBNet-C100
//!   (depth-wise separable, medium) and MobileNetV2 (depth-wise separable,
//!   slimmest).
//!
//! The relative orderings these proxies produce (lens vs FlatCam input,
//! resolution sweeps, crop strategies, 8-bit quantisation) are the claims
//! the paper's algorithm tables make.

use crate::infer::SegInferWorkspace;
use eyecod_tensor::layer::{BatchNorm2d, Conv2d, LeakyRelu, MaxPool2d, Upsample};
use eyecod_tensor::layer::{GlobalAvgPool, Linear};
use eyecod_tensor::ops;
use eyecod_tensor::optim::Adam;
use eyecod_tensor::quant::fake_quantize;
use eyecod_tensor::{loss, Layer, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A small UNet-family segmentation network with one skip connection.
///
/// Input `(N, 1, S, S)` → logits `(N, 4, S, S)`.
#[derive(Clone)]
pub struct ProxySegNet {
    pub(crate) e1a: Conv2d,
    pub(crate) e1b: Conv2d,
    pub(crate) act1a: LeakyRelu,
    pub(crate) act1b: LeakyRelu,
    pub(crate) pool: MaxPool2d,
    pub(crate) e2a: Conv2d,
    pub(crate) e2b: Conv2d,
    pub(crate) act2a: LeakyRelu,
    pub(crate) act2b: LeakyRelu,
    pub(crate) up: Upsample,
    pub(crate) d1: Conv2d,
    pub(crate) actd: LeakyRelu,
    pub(crate) head: Conv2d,
    skip_cache: Option<Tensor>,
    width: usize,
}

impl ProxySegNet {
    /// Creates the network with encoder width `width` (8 is a good default)
    /// for single-channel (grayscale) input.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize, rng: &mut StdRng) -> Self {
        Self::with_input_channels(1, width, rng)
    }

    /// Creates the network for `c_in` input channels — used when the first
    /// layer lives in the FlatCam mask (the sensing–processing interface of
    /// paper §4.2) and the network consumes optical feature maps instead of
    /// a grayscale image.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `c_in == 0`.
    pub fn with_input_channels(c_in: usize, width: usize, rng: &mut StdRng) -> Self {
        assert!(width > 0, "width must be non-zero");
        assert!(c_in > 0, "input channels must be non-zero");
        let w = width;
        ProxySegNet {
            e1a: Conv2d::new(c_in, w, 3, 1, 1, 1, true, rng),
            e1b: Conv2d::new(w, w, 3, 1, 1, 1, true, rng),
            act1a: LeakyRelu::new(0.1),
            act1b: LeakyRelu::new(0.1),
            pool: MaxPool2d::new(2, 2),
            e2a: Conv2d::new(w, 2 * w, 3, 1, 1, 1, true, rng),
            e2b: Conv2d::new(2 * w, 2 * w, 3, 1, 1, 1, true, rng),
            act2a: LeakyRelu::new(0.1),
            act2b: LeakyRelu::new(0.1),
            up: Upsample::new(2),
            d1: Conv2d::new(3 * w, w, 3, 1, 1, 1, true, rng),
            actd: LeakyRelu::new(0.1),
            head: Conv2d::new(w, 4, 1, 1, 0, 1, true, rng),
            skip_cache: None,
            width,
        }
    }

    /// Encoder width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Layer for ProxySegNet {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let x = self.act1a.forward(&self.e1a.forward(input, train), train);
        let skip = self.act1b.forward(&self.e1b.forward(&x, train), train);
        if train {
            self.skip_cache = Some(skip.clone());
        }
        let x = self.pool.forward(&skip, train);
        let x = self.act2a.forward(&self.e2a.forward(&x, train), train);
        let x = self.act2b.forward(&self.e2b.forward(&x, train), train);
        let x = self.up.forward(&x, train);
        let x = ops::concat_channels(&[&x, &skip]);
        let x = self.actd.forward(&self.d1.forward(&x, train), train);
        self.head.forward(&x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let skip = self
            .skip_cache
            .take()
            .expect("ProxySegNet::backward called without a training forward pass");
        let g = self.head.backward(grad_out);
        let g = self.d1.backward(&self.actd.backward(&g));
        // split the concat gradient back into the up path and the skip path
        let parts = ops::split_channels(&g, &[2 * self.width, self.width]);
        let g_up = self.up.backward(&parts[0]);
        let g = self.e2b.backward(&self.act2b.backward(&g_up));
        let g = self.e2a.backward(&self.act2a.backward(&g));
        let g_pool = self.pool.backward(&g);
        // the skip tensor feeds both the pool path and the concat
        let g_skip = g_pool.add(&parts[1]);
        let _ = skip;
        let g = self.e1b.backward(&self.act1b.backward(&g_skip));
        self.e1a.backward(&self.act1a.backward(&g))
    }

    fn params_mut(&mut self) -> Vec<&mut eyecod_tensor::Param> {
        let mut v = Vec::new();
        v.extend(self.e1a.params_mut());
        v.extend(self.e1b.params_mut());
        v.extend(self.e2a.params_mut());
        v.extend(self.e2b.params_mut());
        v.extend(self.d1.params_mut());
        v.extend(self.head.params_mut());
        v
    }
}

/// The architecture family of a [`ProxyGazeNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GazeFamily {
    /// Plain-convolution residual family (ResNet18 stand-in) — widest.
    ResNetLike,
    /// Depth-wise-separable searched family (FBNet-C100 stand-in).
    FbnetLike,
    /// Depth-wise-separable slim family (MobileNetV2 stand-in) — slimmest.
    MobileNetLike,
}

/// One concrete layer of a [`ProxyGazeNet`] (a closed enum so the network
/// is `Clone`-able, unlike a `Sequential` of trait objects). Crate-visible
/// so the int8 backend in [`crate::quantized`] can fold and quantise it.
#[derive(Clone)]
pub(crate) enum GazeLayer {
    Conv(Conv2d),
    Bn(BatchNorm2d),
    Act(LeakyRelu),
    Gap(GlobalAvgPool),
    Fc(Linear),
}

impl GazeLayer {
    fn as_layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            GazeLayer::Conv(l) => l,
            GazeLayer::Bn(l) => l,
            GazeLayer::Act(l) => l,
            GazeLayer::Gap(l) => l,
            GazeLayer::Fc(l) => l,
        }
    }
}

/// A gaze regressor: grayscale crop in, 3-D gaze vector out.
#[derive(Clone)]
pub struct ProxyGazeNet {
    pub(crate) layers: Vec<GazeLayer>,
    family: GazeFamily,
}

impl ProxyGazeNet {
    /// Builds a proxy of the given family.
    pub fn new(family: GazeFamily, rng: &mut StdRng) -> Self {
        let mut layers = Vec::new();
        let conv_bn_relu = |layers: &mut Vec<GazeLayer>, cin, cout, stride, rng: &mut StdRng| {
            layers.push(GazeLayer::Conv(Conv2d::new(
                cin, cout, 3, stride, 1, 1, false, rng,
            )));
            layers.push(GazeLayer::Bn(BatchNorm2d::new(cout)));
            layers.push(GazeLayer::Act(LeakyRelu::relu()));
        };
        let dw_pw = |layers: &mut Vec<GazeLayer>, cin, cout, stride, rng: &mut StdRng| {
            layers.push(GazeLayer::Conv(Conv2d::new(
                cin, cin, 3, stride, 1, cin, false, rng,
            )));
            layers.push(GazeLayer::Bn(BatchNorm2d::new(cin)));
            layers.push(GazeLayer::Act(LeakyRelu::relu()));
            layers.push(GazeLayer::Conv(Conv2d::new(
                cin, cout, 1, 1, 0, 1, false, rng,
            )));
            layers.push(GazeLayer::Bn(BatchNorm2d::new(cout)));
            layers.push(GazeLayer::Act(LeakyRelu::relu()));
        };
        let final_c = match family {
            GazeFamily::ResNetLike => {
                conv_bn_relu(&mut layers, 1, 16, 2, rng);
                conv_bn_relu(&mut layers, 16, 32, 2, rng);
                conv_bn_relu(&mut layers, 32, 32, 1, rng);
                conv_bn_relu(&mut layers, 32, 64, 2, rng);
                64
            }
            GazeFamily::FbnetLike => {
                conv_bn_relu(&mut layers, 1, 12, 2, rng);
                dw_pw(&mut layers, 12, 24, 2, rng);
                dw_pw(&mut layers, 24, 48, 2, rng);
                48
            }
            GazeFamily::MobileNetLike => {
                conv_bn_relu(&mut layers, 1, 8, 2, rng);
                dw_pw(&mut layers, 8, 16, 2, rng);
                dw_pw(&mut layers, 16, 24, 2, rng);
                24
            }
        };
        layers.push(GazeLayer::Gap(GlobalAvgPool::new()));
        layers.push(GazeLayer::Fc(Linear::new(final_c, 3, rng)));
        ProxyGazeNet { layers, family }
    }

    /// The architecture family.
    pub fn family(&self) -> GazeFamily {
        self.family
    }

    /// Total trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

impl Layer for ProxyGazeNet {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.as_layer_mut().forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.as_layer_mut().backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut eyecod_tensor::Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.as_layer_mut().params_mut())
            .collect()
    }
}

/// Training hyper-parameters (the paper uses Adam for both models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch: 8,
            lr: 1e-3,
            seed: 0,
        }
    }
}

fn batches(n: usize, batch: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch).map(|c| c.to_vec()).collect()
}

fn gather_images(images: &Tensor, idx: &[usize]) -> Tensor {
    let items: Vec<Tensor> = idx.iter().map(|&i| images.batch_item(i)).collect();
    Tensor::stack(&items)
}

/// Trains a gaze regressor with the angular loss; returns per-epoch mean
/// training loss.
///
/// # Panics
///
/// Panics if image and gaze batch sizes differ.
pub fn train_gaze(
    net: &mut dyn Layer,
    images: &Tensor,
    gazes: &Tensor,
    config: &TrainConfig,
) -> Vec<f32> {
    let n = images.shape().n;
    assert_eq!(gazes.shape().n, n, "images/gazes batch mismatch");
    let mut opt = Adam::new(config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        let mut epoch_loss = 0.0;
        let mut steps = 0;
        for batch in batches(n, config.batch, &mut rng) {
            let x = gather_images(images, &batch);
            let t_items: Vec<Tensor> = batch.iter().map(|&i| gazes.batch_item(i)).collect();
            let t = Tensor::stack(&t_items);
            for p in net.params_mut() {
                p.zero_grad();
            }
            let pred = net.forward(&x, true);
            let (l, grad) = loss::angular_gaze_loss(&pred, &t);
            net.backward(&grad);
            opt.step(&mut net.params_mut());
            epoch_loss += l;
            steps += 1;
        }
        history.push(epoch_loss / steps as f32);
    }
    history
}

/// Mean angular gaze error in degrees over an evaluation set.
pub fn eval_gaze(net: &mut dyn Layer, images: &Tensor, gazes: &Tensor) -> f32 {
    let pred = net.forward(images, false);
    loss::angular_error_degrees(&pred, gazes)
}

/// Trains a segmentation network with per-pixel cross-entropy; returns
/// per-epoch mean training loss.
///
/// `labels` is a flat per-pixel class vector over the whole image tensor.
pub fn train_seg(
    net: &mut dyn Layer,
    images: &Tensor,
    labels: &[usize],
    config: &TrainConfig,
) -> Vec<f32> {
    let n = images.shape().n;
    let px = images.shape().spatial_len();
    assert_eq!(labels.len(), n * px, "labels length mismatch");
    let mut opt = Adam::new(config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        let mut epoch_loss = 0.0;
        let mut steps = 0;
        for batch in batches(n, config.batch, &mut rng) {
            let x = gather_images(images, &batch);
            let t: Vec<usize> = batch
                .iter()
                .flat_map(|&i| labels[i * px..(i + 1) * px].iter().copied())
                .collect();
            for p in net.params_mut() {
                p.zero_grad();
            }
            let logits = net.forward(&x, true);
            let (l, grad) = loss::softmax_cross_entropy(&logits, &t);
            net.backward(&grad);
            opt.step(&mut net.params_mut());
            epoch_loss += l;
            steps += 1;
        }
        history.push(epoch_loss / steps as f32);
    }
    history
}

/// Predicts per-pixel classes with a segmentation network: the labels of
/// [`ProxySegNet::forward_infer`] through a fresh workspace, in `(n, h, w)`
/// order.
pub fn predict_seg(net: &ProxySegNet, images: &Tensor) -> Vec<u8> {
    let mut labels = Vec::new();
    net.forward_infer(images, &mut SegInferWorkspace::new(), &mut labels);
    labels
}

/// Fake-quantises every parameter of a network to int8 in place — the
/// evaluation path for the paper's "(8-bit)" rows.
pub fn quantize_params_int8(net: &mut dyn Layer) {
    for p in net.params_mut() {
        p.value = fake_quantize(&p.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyecod_tensor::Shape;

    fn toy_gaze_data(n: usize, size: usize) -> (Tensor, Tensor) {
        // Synthetic task: a dark blob whose position encodes the gaze.
        let mut images = Vec::new();
        let mut gazes = Vec::new();
        for i in 0..n {
            let fy = 0.3 + 0.4 * ((i * 37 % 100) as f32 / 100.0);
            let fx = 0.3 + 0.4 * ((i * 61 % 100) as f32 / 100.0);
            let img = Tensor::from_fn(Shape::new(1, 1, size, size), |_, _, h, w| {
                let dy = h as f32 / size as f32 - fy;
                let dx = w as f32 / size as f32 - fx;
                1.0 - (-(dy * dy + dx * dx) * 40.0).exp()
            });
            images.push(img);
            let yaw = (fx - 0.5) * 1.2;
            let pitch = (fy - 0.5) * 1.2;
            let mut g = Tensor::zeros(Shape::new(1, 3, 1, 1));
            *g.at_mut(0, 0, 0, 0) = yaw.sin();
            *g.at_mut(0, 1, 0, 0) = pitch.sin();
            *g.at_mut(0, 2, 0, 0) = (1.0 - yaw.sin().powi(2) - pitch.sin().powi(2)).sqrt();
            gazes.push(g);
        }
        (Tensor::stack(&images), Tensor::stack(&gazes))
    }

    #[test]
    fn gaze_proxy_learns_blob_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = ProxyGazeNet::new(GazeFamily::ResNetLike, &mut rng);
        let (images, gazes) = toy_gaze_data(32, 16);
        let before = eval_gaze(&mut net, &images, &gazes);
        let cfg = TrainConfig {
            epochs: 20,
            batch: 8,
            lr: 3e-3,
            seed: 1,
        };
        let history = train_gaze(&mut net, &images, &gazes, &cfg);
        let after = eval_gaze(&mut net, &images, &gazes);
        assert!(
            after < before * 0.5,
            "training should cut error: before {before} after {after}"
        );
        assert!(history.last().unwrap() < history.first().unwrap());
    }

    #[test]
    fn family_capacity_ordering() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = ProxyGazeNet::new(GazeFamily::ResNetLike, &mut rng);
        let mut f = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
        let mut m = ProxyGazeNet::new(GazeFamily::MobileNetLike, &mut rng);
        assert!(r.param_count() > f.param_count());
        assert!(f.param_count() > m.param_count());
    }

    #[test]
    fn seg_proxy_learns_a_simple_mask() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = ProxySegNet::new(8, &mut rng);
        // task: dark disc = class 3, ring = class 2, elsewhere 0
        let size = 16;
        let mut images = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for i in 0..12 {
            let cy = 0.4 + 0.02 * (i % 5) as f32;
            let cx = 0.4 + 0.02 * (i % 7) as f32;
            let img = Tensor::from_fn(Shape::new(1, 1, size, size), |_, _, h, w| {
                let d = ((h as f32 / size as f32 - cy).powi(2)
                    + (w as f32 / size as f32 - cx).powi(2))
                .sqrt();
                if d < 0.15 {
                    0.1
                } else if d < 0.3 {
                    0.5
                } else {
                    0.9
                }
            });
            for h in 0..size {
                for w in 0..size {
                    let d = ((h as f32 / size as f32 - cy).powi(2)
                        + (w as f32 / size as f32 - cx).powi(2))
                    .sqrt();
                    labels.push(if d < 0.15 {
                        3
                    } else if d < 0.3 {
                        2
                    } else {
                        0
                    });
                }
            }
            images.push(img);
        }
        let images = Tensor::stack(&images);
        let cfg = TrainConfig {
            epochs: 30,
            batch: 4,
            lr: 3e-3,
            seed: 3,
        };
        let history = train_seg(&mut net, &images, &labels, &cfg);
        assert!(
            history.last().unwrap() < &0.4,
            "seg loss did not drop: {history:?}"
        );
        // prediction should beat chance by a wide margin
        let pred = predict_seg(&net, &images);
        let correct = pred
            .iter()
            .zip(&labels)
            .filter(|(&p, &t)| p as usize == t)
            .count();
        let acc = correct as f32 / labels.len() as f32;
        assert!(acc > 0.8, "pixel accuracy {acc}");
    }

    #[test]
    fn quantization_changes_but_does_not_destroy_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
        let before: Vec<f32> = net
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice()[0])
            .collect();
        quantize_params_int8(&mut net);
        let after: Vec<f32> = net
            .params_mut()
            .iter()
            .map(|p| p.value.as_slice()[0])
            .collect();
        // values move a little but stay close
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 0.1, "quantisation moved {b} to {a}");
        }
    }

    #[test]
    fn seg_backward_requires_training_pass() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = ProxySegNet::new(4, &mut rng);
        let x = Tensor::ones(Shape::new(1, 1, 8, 8));
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), (1, 4, 8, 8));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.backward(&Tensor::ones(y.shape()))
        }));
        assert!(result.is_err());
    }
}
