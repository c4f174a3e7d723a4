//! The deployed int8 inference backend for the gaze network.
//!
//! The paper runs FBNet-C100 in 8-bit on the accelerator (the "(8-bit)" rows
//! of Tables 2 and 3); its predecessor i-FlatCam leans on the same int8
//! deployment for its µJ-per-frame budget. This module turns a trained
//! [`ProxyGazeNet`] into the network the accelerator would actually execute:
//!
//! 1. **Folding** — each `Conv → BatchNorm → ReLU` triple collapses into a
//!    single convolution with per-output-channel rescaled weights and a
//!    bias, using the batch norm's *running* statistics (exactly inference
//!    mode, so folding is lossless in f32).
//! 2. **Calibration** — a representative activation batch runs through the
//!    folded f32 graph once, recording per-layer `max|x|`; each layer's
//!    output scale is `max|x| / 127`, floored at
//!    [`eyecod_tensor::quant::MIN_SCALE`] so a dead (all-zero) layer cannot
//!    produce a zero scale and poison the chain.
//! 3. **Int8 forward** — activations are quantised once at the input and
//!    stay int8 through the whole body: `qconv2d_requant` (i32 accumulation,
//!    fused ReLU, requantisation to the calibrated scale) for every fused
//!    conv, `qglobal_avg_pool` for the pooling, and a final `qlinear` that
//!    rescales to f32 only at the 3-D gaze output.
//!
//! Correctness is pinned by the differential tests in
//! `crates/models/tests/quantized.rs` (per-layer and end-to-end against the
//! f32 network) and `tests/int8_backend.rs` (whole-tracker angular error).

use crate::infer::GazeInferWorkspace;
use crate::proxy::{GazeFamily, GazeLayer, ProxyGazeNet};
use crate::spec::{ModelSpec, SpecBuilder};
use eyecod_tensor::ops;
use eyecod_tensor::quant::{
    calibration_scale, qconv2d_requant, qconv2d_requant_into, qglobal_avg_pool,
    qglobal_avg_pool_into, qlinear, qlinear_into, QTensor, MAX_REDUCTION_DEPTH,
};
use eyecod_tensor::Tensor;

/// Rejects a layer whose per-output reduction depth could overflow the
/// int8 kernels' i32 accumulators (`K · 127 · 127 > i32::MAX`), at network
/// construction time rather than deep inside a frame's forward pass. The
/// depth of a conv or FC reduction is the weight's `c · h · w`.
fn check_reduction_depth(what: &str, weight: &Tensor) {
    let ws = weight.shape();
    let depth = ws.c * ws.h * ws.w;
    assert!(
        depth <= MAX_REDUCTION_DEPTH,
        "{what} reduction depth {depth} exceeds MAX_REDUCTION_DEPTH \
         ({MAX_REDUCTION_DEPTH}): int8 inference could overflow its i32 accumulators"
    );
}

/// One layer of the batch-norm-folded f32 inference graph — the common
/// ancestor of the quantised network and its f32 reference.
enum FoldedLayer {
    /// Convolution with folded batch-norm and a fused ReLU.
    Conv {
        weight: Tensor,
        bias: Vec<f32>,
        stride: usize,
        pad: usize,
        groups: usize,
        relu: bool,
    },
    /// Global average pooling.
    Gap,
    /// The fully connected gaze head.
    Fc { weight: Tensor, bias: Vec<f32> },
}

/// Folds a [`ProxyGazeNet`] into its inference-mode layer chain.
///
/// # Panics
///
/// Panics if the layer sequence is not the `(Conv → BN → ReLU)* → GAP → FC`
/// shape every [`GazeFamily`] produces, or an activation is not a plain
/// ReLU (a leaky slope cannot be fused into the int8 requantisation).
fn fold_layers(net: &ProxyGazeNet) -> Vec<FoldedLayer> {
    let ls = &net.layers;
    let mut out = Vec::with_capacity(ls.len());
    let mut i = 0;
    while i < ls.len() {
        match &ls[i] {
            GazeLayer::Conv(conv) => {
                let bn = match ls.get(i + 1) {
                    Some(GazeLayer::Bn(bn)) => bn,
                    _ => panic!("int8 backend expects Conv → BN → ReLU triples"),
                };
                match ls.get(i + 2) {
                    Some(GazeLayer::Act(act)) => assert_eq!(
                        act.alpha(),
                        0.0,
                        "int8 backend fuses only plain ReLU activations"
                    ),
                    _ => panic!("int8 backend expects Conv → BN → ReLU triples"),
                }
                let w = conv.weight();
                let ws = w.shape();
                let (gamma, beta) = (bn.gamma(), bn.beta());
                let (mean, var) = (bn.running_mean(), bn.running_var());
                // per-output-channel BN factor: γ / sqrt(σ² + ε)
                let factor: Vec<f32> = (0..ws.n)
                    .map(|oc| gamma[oc] / (var[oc] + bn.eps()).sqrt())
                    .collect();
                let weight =
                    Tensor::from_fn(ws, |oc, ic, kh, kw| w.at(oc, ic, kh, kw) * factor[oc]);
                let bias: Vec<f32> = (0..ws.n)
                    .map(|oc| {
                        let conv_bias = conv.bias().map_or(0.0, |b| b[oc]);
                        beta[oc] + (conv_bias - mean[oc]) * factor[oc]
                    })
                    .collect();
                out.push(FoldedLayer::Conv {
                    weight,
                    bias,
                    stride: conv.stride(),
                    pad: conv.pad(),
                    groups: conv.groups(),
                    relu: true,
                });
                i += 3;
            }
            GazeLayer::Gap(_) => {
                out.push(FoldedLayer::Gap);
                i += 1;
            }
            GazeLayer::Fc(fc) => {
                assert_eq!(i, ls.len() - 1, "FC must be the final gaze layer");
                out.push(FoldedLayer::Fc {
                    weight: fc.weight().clone(),
                    bias: fc.bias().to_vec(),
                });
                i += 1;
            }
            _ => panic!("unexpected BN/activation outside a Conv triple"),
        }
    }
    out
}

/// Runs the folded f32 graph, returning the activation after every folded
/// layer — the reference trace the differential tests compare against.
fn folded_outputs(folded: &[FoldedLayer], input: &Tensor) -> Vec<Tensor> {
    let mut x = input.clone();
    let mut outputs = Vec::with_capacity(folded.len());
    for layer in folded {
        x = match layer {
            FoldedLayer::Conv {
                weight,
                bias,
                stride,
                pad,
                groups,
                relu,
            } => {
                let y = ops::conv2d(&x, weight, Some(bias), *stride, *pad, *groups);
                if *relu {
                    ops::leaky_relu(&y, 0.0)
                } else {
                    y
                }
            }
            FoldedLayer::Gap => ops::global_avg_pool(&x),
            FoldedLayer::Fc { weight, bias } => ops::linear(&x, weight, Some(bias)),
        };
        outputs.push(x.clone());
    }
    outputs
}

/// One int8 layer of the deployed chain.
enum QLayer {
    /// Fused conv/BN/ReLU: int8 in, int8 out at the calibrated scale.
    Conv {
        weight: QTensor,
        bias: Vec<f32>,
        stride: usize,
        pad: usize,
        groups: usize,
        relu: bool,
        out_scale: f32,
    },
    /// Global average pooling (scale-preserving).
    Gap,
    /// The f32-out gaze head.
    Fc { weight: QTensor, bias: Vec<f32> },
}

/// A calibrated, batch-norm-folded int8 gaze network.
///
/// Built once from a trained [`ProxyGazeNet`] plus a calibration batch; the
/// forward pass then runs entirely in int8 between the quantised input and
/// the f32 gaze head.
pub struct QuantizedGazeNet {
    input_scale: f32,
    layers: Vec<QLayer>,
    family: GazeFamily,
}

impl QuantizedGazeNet {
    /// Folds, calibrates and quantises `net` using `calib` — a batch of
    /// representative gaze-input crops `(N, 1, H, W)`.
    ///
    /// Per-layer activation scales come from the folded f32 graph's
    /// activations over the whole batch; degenerate (all-zero) layers are
    /// floored so a dead calibration set still produces a runnable network
    /// (emitting all-zero gaze vectors, which the tracker already treats as
    /// degenerate frames).
    ///
    /// # Panics
    ///
    /// Panics if the calibration batch is empty or the network shape is not
    /// the supported `(Conv → BN → ReLU)* → GAP → FC` chain.
    pub fn from_calibrated(net: &ProxyGazeNet, calib: &Tensor) -> Self {
        assert!(calib.shape().n > 0, "calibration batch must be non-empty");
        let folded = fold_layers(net);
        let input_scale = calibration_scale(calib.max_abs());
        let mut x = calib.clone();
        let mut layers = Vec::with_capacity(folded.len());
        for fl in &folded {
            match fl {
                FoldedLayer::Conv {
                    weight,
                    bias,
                    stride,
                    pad,
                    groups,
                    relu,
                } => {
                    check_reduction_depth("fused conv", weight);
                    x = ops::conv2d(&x, weight, Some(bias), *stride, *pad, *groups);
                    if *relu {
                        x = ops::leaky_relu(&x, 0.0);
                    }
                    layers.push(QLayer::Conv {
                        weight: QTensor::quantize(weight),
                        bias: bias.clone(),
                        stride: *stride,
                        pad: *pad,
                        groups: *groups,
                        relu: *relu,
                        out_scale: calibration_scale(x.max_abs()),
                    });
                }
                FoldedLayer::Gap => {
                    x = ops::global_avg_pool(&x);
                    layers.push(QLayer::Gap);
                }
                FoldedLayer::Fc { weight, bias } => {
                    check_reduction_depth("gaze head", weight);
                    x = ops::linear(&x, weight, Some(bias));
                    layers.push(QLayer::Fc {
                        weight: QTensor::quantize(weight),
                        bias: bias.clone(),
                    });
                }
            }
        }
        QuantizedGazeNet {
            input_scale,
            layers,
            family: net.family(),
        }
    }

    /// Runs the int8 chain on an f32 input, returning the f32 gaze tensor
    /// `(N, 3, 1, 1)` from the head.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut q = QTensor::quantize_with_scale(input, self.input_scale);
        for layer in &self.layers {
            match layer {
                QLayer::Conv {
                    weight,
                    bias,
                    stride,
                    pad,
                    groups,
                    relu,
                    out_scale,
                } => {
                    q = qconv2d_requant(
                        &q,
                        weight,
                        Some(bias),
                        *stride,
                        *pad,
                        *groups,
                        *relu,
                        *out_scale,
                    );
                }
                QLayer::Gap => q = qglobal_avg_pool(&q),
                QLayer::Fc { weight, bias } => return qlinear(&q, weight, Some(bias)),
            }
        }
        q.dequantize()
    }

    /// [`QuantizedGazeNet::forward`] through a [`GazeInferWorkspace`]:
    /// activations ping-pong between the workspace's two int8 arena buffers
    /// and the i32 accumulator and i8 im2col buffer are reused across
    /// layers, so a steady-state forward pass allocates nothing once the
    /// buffers are warm. Every op is the `_into` variant of the same
    /// exact-i32 kernel, so the result written to `out` is bit-identical to
    /// the allocating path.
    pub fn forward_into(&self, input: &Tensor, ws: &mut GazeInferWorkspace, out: &mut Tensor) {
        let GazeInferWorkspace {
            qping,
            qpong,
            acc,
            qpatches,
            ..
        } = ws;
        QTensor::quantize_with_scale_into(input, self.input_scale, qping);
        let (mut cur, mut next) = (qping, qpong);
        for layer in &self.layers {
            match layer {
                QLayer::Conv {
                    weight,
                    bias,
                    stride,
                    pad,
                    groups,
                    relu,
                    out_scale,
                } => {
                    qconv2d_requant_into(
                        cur,
                        weight,
                        Some(bias),
                        *stride,
                        *pad,
                        *groups,
                        *relu,
                        *out_scale,
                        acc,
                        qpatches,
                        next,
                    );
                    std::mem::swap(&mut cur, &mut next);
                }
                QLayer::Gap => {
                    qglobal_avg_pool_into(cur, next);
                    std::mem::swap(&mut cur, &mut next);
                }
                QLayer::Fc { weight, bias } => {
                    qlinear_into(cur, weight, Some(bias), out);
                    return;
                }
            }
        }
        // no FC head: dequantise the final int8 activation (same arithmetic
        // as `QTensor::dequantize`)
        out.reset(cur.shape());
        let scale = cur.scale();
        for (o, &q) in out.as_mut_slice().iter_mut().zip(cur.as_i8()) {
            *o = q as f32 * scale;
        }
    }

    /// Runs the int8 chain, returning the *dequantised* activation after
    /// every layer — pairs with [`QuantizedGazeNet::reference_layer_outputs`]
    /// for per-layer divergence checks.
    pub fn layer_outputs(&self, input: &Tensor) -> Vec<Tensor> {
        let mut q = QTensor::quantize_with_scale(input, self.input_scale);
        let mut outputs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            match layer {
                QLayer::Conv {
                    weight,
                    bias,
                    stride,
                    pad,
                    groups,
                    relu,
                    out_scale,
                } => {
                    q = qconv2d_requant(
                        &q,
                        weight,
                        Some(bias),
                        *stride,
                        *pad,
                        *groups,
                        *relu,
                        *out_scale,
                    );
                    outputs.push(q.dequantize());
                }
                QLayer::Gap => {
                    q = qglobal_avg_pool(&q);
                    outputs.push(q.dequantize());
                }
                QLayer::Fc { weight, bias } => {
                    outputs.push(qlinear(&q, weight, Some(bias)));
                }
            }
        }
        outputs
    }

    /// The f32 activations of the folded reference graph at the same layer
    /// boundaries as [`QuantizedGazeNet::layer_outputs`]. In inference mode
    /// folding is exact, so these equal the original network's outputs.
    pub fn reference_layer_outputs(net: &ProxyGazeNet, input: &Tensor) -> Vec<Tensor> {
        folded_outputs(&fold_layers(net), input)
    }

    /// The calibrated input activation scale.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// The per-layer output scales of the fused conv layers, in order.
    pub fn conv_out_scales(&self) -> Vec<f32> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                QLayer::Conv { out_scale, .. } => Some(*out_scale),
                _ => None,
            })
            .collect()
    }

    /// The architecture family this network was quantised from.
    pub fn family(&self) -> GazeFamily {
        self.family
    }

    /// Number of fused inference layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Derives the accelerator-facing [`ModelSpec`] of this network at a
    /// `1 × h × w` gaze input: the exact layer geometry the int8 chain
    /// executes, classed as generic / point-wise / depth-wise convolutions
    /// so the cycle and energy models see the deployed workload rather than
    /// the paper's full-size FBNet.
    pub fn model_spec(&self, h: usize, w: usize) -> ModelSpec {
        let c_in0 = match self.layers.first() {
            Some(QLayer::Conv { weight, groups, .. }) => weight.shape().c * groups,
            _ => 1,
        };
        let mut b = SpecBuilder::new("QuantizedProxyGaze(int8)", c_in0, h, w);
        for layer in &self.layers {
            match layer {
                QLayer::Conv {
                    weight,
                    stride,
                    groups,
                    ..
                } => {
                    let ws = weight.shape();
                    let (c_out, k) = (ws.n, ws.h);
                    let (c_in, _, _) = b.shape();
                    if *groups == c_in && c_out == c_in && *groups > 1 {
                        b.depthwise(k, *stride);
                    } else if k == 1 && *groups == 1 && *stride == 1 {
                        b.pointwise(c_out);
                    } else {
                        b.conv(c_out, k, *stride);
                    }
                }
                QLayer::Gap => {
                    b.global_pool();
                }
                QLayer::Fc { weight, .. } => {
                    b.fc(weight.shape().n);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::ProxyGazeNet;
    use crate::LayerKind;
    use eyecod_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape::new(n, 1, h, w), |_, _, _, _| rng.gen_range(0.0..1.0))
    }

    #[test]
    fn folding_is_exact_in_f32() {
        // the folded reference graph must reproduce the original network's
        // inference-mode forward bit-for-bit math (same ops, same stats)
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
        let x = random_input(2, 24, 32, 2);
        use eyecod_tensor::Layer;
        let direct = net.forward(&x, false);
        let folded = QuantizedGazeNet::reference_layer_outputs(&net, &x);
        let last = folded.last().unwrap();
        assert_eq!(direct.shape(), last.shape());
        assert!(
            direct.sub(last).max_abs() < 1e-4,
            "folded graph diverged: {}",
            direct.sub(last).max_abs()
        );
    }

    #[test]
    fn quantized_forward_stays_close_to_f32() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
        let calib = random_input(8, 24, 32, 4);
        let qnet = QuantizedGazeNet::from_calibrated(&net, &calib);
        let x = random_input(1, 24, 32, 5);
        use eyecod_tensor::Layer;
        let f32_out = net.forward(&x, false);
        let q_out = qnet.forward(&x);
        assert_eq!(q_out.shape(), f32_out.shape());
        let denom = f32_out.max_abs().max(1e-3);
        let rel = f32_out.sub(&q_out).max_abs() / denom;
        assert!(rel < 0.2, "int8 relative output error {rel}");
    }

    #[test]
    fn model_spec_classifies_layers_like_the_network() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
        let qnet = QuantizedGazeNet::from_calibrated(&net, &random_input(2, 24, 32, 7));
        let spec = qnet.model_spec(24, 32);
        let mut dw = 0;
        let mut pw = 0;
        let mut fc = 0;
        for l in &spec.layers {
            match l.kind {
                LayerKind::Depthwise { .. } => dw += 1,
                LayerKind::Pointwise { .. } => pw += 1,
                LayerKind::FullyConnected => fc += 1,
                _ => {}
            }
        }
        // FbnetLike: stem conv + 2×(dw + pw) + gap + fc
        assert_eq!(dw, 2, "depthwise layers in spec");
        assert_eq!(pw, 2, "pointwise layers in spec");
        assert_eq!(fc, 1);
        assert!(spec.macs() > 0);
    }

    #[test]
    fn zeroed_calibration_set_does_not_panic() {
        // regression: a dead calibration batch (all-zero activations at
        // every layer) used to produce scale 0 and trip the
        // `quantize_with_scale` assertion; scales are now epsilon-floored
        let mut rng = StdRng::seed_from_u64(8);
        let net = ProxyGazeNet::new(GazeFamily::MobileNetLike, &mut rng);
        let calib = Tensor::zeros(Shape::new(4, 1, 24, 32));
        let qnet = QuantizedGazeNet::from_calibrated(&net, &calib);
        assert!(qnet.input_scale() > 0.0);
        assert!(qnet.conv_out_scales().iter().all(|&s| s > 0.0));
        // and the network still runs, on both zero and non-zero inputs
        let out = qnet.forward(&Tensor::zeros(Shape::new(1, 1, 24, 32)));
        assert_eq!(out.shape().dims(), (1, 3, 1, 1));
        let out = qnet.forward(&random_input(1, 24, 32, 9));
        assert!(!out.has_non_finite());
    }
}
