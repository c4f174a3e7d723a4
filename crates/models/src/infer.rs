//! Allocation-free inference forwards for the frame path's networks.
//!
//! The EyeCoD accelerator streams every layer's activations between two
//! 512 KB ping-pong activation global buffers (paper Fig. 10): layer `i`
//! reads from one buffer and writes the other, so no per-layer storage is
//! ever (de)allocated. [`GazeInferWorkspace`] is the software mirror of
//! that arrangement — two f32 arena tensors and two int8 arena tensors the
//! forward passes alternate between, plus the convolutions' zero-padded
//! plane buffer, the i8 im2col patch buffer and the i32 MAC accumulator
//! shared by every layer — and [`SegInferWorkspace`] is its refresh-side
//! twin for the segmentation network. Its weight-buffer twin is the packed
//! weight panel each `Conv2d` memoises on first use. All buffers are sized
//! lazily at the first frame and only ever grow, so a steady-state forward
//! pass performs zero heap allocations.
//!
//! Three entry points live here:
//!
//! * [`ProxyGazeNet::forward_infer`] — the f32 gaze backend. Every
//!   convolution runs [`Conv2d::forward_into`]: the `groups == 1` layers
//!   whose output channels are a multiple of 16 on the channel tile over
//!   packed weights ([`ops::conv2d_packed_into`]), the depth-wise and
//!   narrower ones on the position tile ([`ops::conv2d_into`]). Batch norm
//!   and the activation are applied in place, and the head writes into the
//!   caller's output tensor. Both tiles keep [`ops::conv2d`]'s per-element
//!   sequence, so the output is bitwise equal to `Layer::forward(input,
//!   false)`.
//! * [`QuantizedGazeNet::forward_into`] — the int8 backend. Every op
//!   delegates to the `_into` variants of the deployed chain
//!   ([`eyecod_tensor::quant`]), whose i32 accumulation is exactly
//!   associative, so outputs are bit-identical to
//!   [`QuantizedGazeNet::forward`].
//! * [`ProxySegNet::forward_infer`] — the segmentation refresh, through the
//!   same [`Conv2d::forward_into`], so logits and labels are bit-identical
//!   to [`crate::proxy::predict_seg`]'s.
//!
//! [`Conv2d::forward_into`]: eyecod_tensor::layer::Conv2d::forward_into
//! [`QuantizedGazeNet::forward_into`]: crate::quantized::QuantizedGazeNet::forward_into
//! [`QuantizedGazeNet::forward`]: crate::quantized::QuantizedGazeNet::forward

use crate::proxy::{GazeLayer, ProxyGazeNet, ProxySegNet};
use eyecod_tensor::ops;
use eyecod_tensor::quant::QTensor;
use eyecod_tensor::{Shape, Tensor};

/// Reusable buffers for the allocation-free gaze forwards — the f32 arena
/// and the convolutions' plane buffer, the int8 arena, and the int8
/// convolutions' shared i32 accumulator and i8 im2col buffer.
///
/// One workspace serves both backends; buffers grow to the largest layer
/// seen and are then reused verbatim.
pub struct GazeInferWorkspace {
    planes: Vec<f32>,
    ping: Tensor,
    pong: Tensor,
    pub(crate) qping: QTensor,
    pub(crate) qpong: QTensor,
    pub(crate) acc: Vec<i32>,
    pub(crate) qpatches: Vec<i8>,
}

impl Default for GazeInferWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GazeInferWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        GazeInferWorkspace {
            planes: Vec::new(),
            ping: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            pong: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            qping: QTensor::scratch(),
            qpong: QTensor::scratch(),
            acc: Vec::new(),
            qpatches: Vec::new(),
        }
    }
}

impl ProxyGazeNet {
    /// Inference forward through the workspace arena: allocation-free once
    /// the workspace buffers are warm. Writes the gaze tensor `(N, 3, 1, 1)`
    /// into `out`.
    ///
    /// Bitwise equal to `Layer::forward(input, false)` (see the module
    /// docs); it never touches training state, so it takes `&self`. The
    /// first call packs the weights of each layer the channel tile runs.
    pub fn forward_infer(&self, input: &Tensor, ws: &mut GazeInferWorkspace, out: &mut Tensor) {
        let (planes, mut cur, mut next) = (&mut ws.planes, &mut ws.ping, &mut ws.pong);
        cur.copy_from(input);
        for layer in &self.layers {
            match layer {
                GazeLayer::Conv(c) => {
                    c.forward_into(cur, planes, next);
                    std::mem::swap(&mut cur, &mut next);
                }
                GazeLayer::Bn(bn) => ops::batch_norm_infer_inplace(
                    cur,
                    bn.gamma(),
                    bn.beta(),
                    bn.running_mean(),
                    bn.running_var(),
                    bn.eps(),
                ),
                GazeLayer::Act(act) => leaky_relu_inplace(cur, act.alpha()),
                GazeLayer::Gap(_) => {
                    ops::global_avg_pool_into(cur, next);
                    std::mem::swap(&mut cur, &mut next);
                }
                GazeLayer::Fc(fc) => {
                    ops::linear_into(cur, fc.weight(), Some(fc.bias()), out);
                    return;
                }
            }
        }
        out.copy_from(cur);
    }
}

/// [`ops::leaky_relu`] in place, with its exact select (NaN takes the
/// `alpha` branch), written so it vectorises.
fn leaky_relu_inplace(t: &mut Tensor, alpha: f32) {
    for v in t.as_mut_slice() {
        *v = if *v > 0.0 { *v } else { alpha * *v };
    }
}

/// Reusable buffers for the allocation-free segmentation forward
/// [`ProxySegNet::forward_infer`]: a ping-pong activation pair, the
/// encoder's skip tensor, the decoder's concat buffer (the upsample writes
/// straight into its leading channels, the skip into the rest), the
/// logits, and the convolutions' plane buffer.
///
/// Buffers grow to the largest input seen and are then reused verbatim.
pub struct SegInferWorkspace {
    planes: Vec<f32>,
    ping: Tensor,
    pong: Tensor,
    skip: Tensor,
    cat: Tensor,
    logits: Tensor,
}

impl Default for SegInferWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SegInferWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        let empty = || Tensor::zeros(Shape::new(1, 1, 1, 1));
        SegInferWorkspace {
            planes: Vec::new(),
            ping: empty(),
            pong: empty(),
            skip: empty(),
            cat: empty(),
            logits: empty(),
        }
    }

    /// The logits `(N, 4, S, S)` of the last [`ProxySegNet::forward_infer`].
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }
}

/// Nearest-neighbour upsampling of `up` by `factor` into channels
/// `0..C_up` of `cat`, followed by `skip` in the remaining channels — the
/// decoder's `concat_channels(&[upsample_nearest(up), skip])` without the
/// intermediate tensor.
fn upsample_concat_into(up: &Tensor, skip: &Tensor, factor: usize, cat: &mut Tensor) {
    let (us, ss) = (up.shape(), skip.shape());
    assert_eq!(
        (us.n, us.h * factor, us.w * factor),
        (ss.n, ss.h, ss.w),
        "upsampled {us} must match the skip {ss}"
    );
    cat.reset(Shape::new(ss.n, us.c + ss.c, ss.h, ss.w));
    let plane = ss.h * ss.w;
    let data = cat.as_mut_slice();
    for n in 0..ss.n {
        let item = &mut data[n * (us.c + ss.c) * plane..][..(us.c + ss.c) * plane];
        let (up_part, skip_part) = item.split_at_mut(us.c * plane);
        for (c, dst) in up_part.chunks_exact_mut(plane).enumerate() {
            let src = up.channel_plane(n, c);
            for (y, row) in dst.chunks_exact_mut(ss.w).enumerate() {
                let srow = &src[(y / factor) * us.w..][..us.w];
                for (block, &v) in row.chunks_exact_mut(factor).zip(srow) {
                    block.fill(v);
                }
            }
        }
        skip_part.copy_from_slice(skip.batch_item_slice(n));
    }
}

impl ProxySegNet {
    /// Inference forward through the workspace: allocation-free once the
    /// workspace buffers and `labels` are warm. Leaves the logits in
    /// [`SegInferWorkspace::logits`] and writes the per-pixel class (the
    /// first maximal logit) into `labels` in `(n, h, w)` order.
    ///
    /// Bit-identical to `Layer::forward(input, false)` and to
    /// [`crate::proxy::predict_seg`]: `Conv2d::forward_into` per layer,
    /// the activation in place, a cache-free max-pool and the upsample
    /// written straight into the concat buffer. It never touches training
    /// state, so it takes `&self`.
    ///
    /// # Panics
    ///
    /// Panics if the input channels do not match the network or the input
    /// extent is odd (the upsampled path must line up with the skip).
    pub fn forward_infer(&self, input: &Tensor, ws: &mut SegInferWorkspace, labels: &mut Vec<u8>) {
        let SegInferWorkspace {
            planes,
            ping,
            pong,
            skip,
            cat,
            logits,
        } = ws;
        self.e1a.forward_into(input, planes, ping);
        leaky_relu_inplace(ping, self.act1a.alpha());
        self.e1b.forward_into(ping, planes, skip);
        leaky_relu_inplace(skip, self.act1b.alpha());
        ops::max_pool2d_into(skip, self.pool.k(), self.pool.stride(), ping);
        self.e2a.forward_into(ping, planes, pong);
        leaky_relu_inplace(pong, self.act2a.alpha());
        self.e2b.forward_into(pong, planes, ping);
        leaky_relu_inplace(ping, self.act2b.alpha());
        upsample_concat_into(ping, skip, self.up.factor(), cat);
        self.d1.forward_into(cat, planes, pong);
        leaky_relu_inplace(pong, self.actd.alpha());
        self.head.forward_into(pong, planes, logits);

        let s = logits.shape();
        let plane = s.h * s.w;
        labels.clear();
        for n in 0..s.n {
            let item = logits.batch_item_slice(n);
            for p in 0..plane {
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for c in 0..s.c {
                    let v = item[c * plane + p];
                    if v > best_v {
                        best_v = v;
                        best = c;
                    }
                }
                labels.push(best as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::GazeFamily;
    use crate::quantized::QuantizedGazeNet;
    use eyecod_tensor::optim::Adam;
    use eyecod_tensor::{Layer, Shape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(Shape::new(n, 1, h, w), |_, _, _, _| rng.gen_range(0.0..1.0))
    }

    /// A seeded segmentation net whose biases (zero at construction) are
    /// moved off zero, so the bias-last step of every convolution runs.
    fn seg_net_with_biases(seed: u64) -> ProxySegNet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ProxySegNet::new(8, &mut rng);
        for p in net.params_mut() {
            for v in p.value.as_mut_slice() {
                if *v == 0.0 {
                    *v = rng.gen_range(-0.5..0.5);
                }
            }
        }
        net
    }

    /// The per-pixel argmax of `Layer::forward`'s logits, computed
    /// independently of the workspace path.
    fn argmax_labels(logits: &Tensor) -> Vec<u8> {
        let s = logits.shape();
        let mut out = Vec::new();
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    let mut best = 0;
                    let mut best_v = f32::NEG_INFINITY;
                    for c in 0..s.c {
                        if logits.at(n, c, h, w) > best_v {
                            best_v = logits.at(n, c, h, w);
                            best = c;
                        }
                    }
                    out.push(best as u8);
                }
            }
        }
        out
    }

    #[test]
    fn seg_workspace_forward_is_bit_identical_to_layer_forward() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = SegInferWorkspace::new();
        let mut labels = Vec::new();
        for (i, seed) in [51u64, 52].into_iter().enumerate() {
            let mut net = seg_net_with_biases(seed);
            // one workspace across batch sizes, inputs and a size change
            for (j, &(n, size)) in [(1usize, 24usize), (2, 24), (2, 16), (1, 24)]
                .iter()
                .enumerate()
            {
                let x = random_input(n, size, size, 300 + 10 * i as u64 + j as u64);
                let want = net.forward(&x, false);
                net.forward_infer(&x, &mut ws, &mut labels);
                assert_eq!(ws.logits().shape(), want.shape());
                assert_eq!(bits(ws.logits()), bits(&want), "logits n={n} size={size}");
                assert_eq!(labels, argmax_labels(&want), "labels n={n} size={size}");
                assert_eq!(labels, crate::proxy::predict_seg(&net, &x));
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    const FAMILIES: [GazeFamily; 3] = [
        GazeFamily::ResNetLike,
        GazeFamily::FbnetLike,
        GazeFamily::MobileNetLike,
    ];

    #[test]
    fn f32_workspace_forward_matches_layer_forward_across_families() {
        let mut ws = GazeInferWorkspace::new();
        let mut out = Tensor::zeros(Shape::vector(1, 1));
        for (i, family) in FAMILIES.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(21 + i as u64);
            let mut net = ProxyGazeNet::new(family, &mut rng);
            // two frames through the same workspace
            for seed in [40, 41] {
                let x = random_input(1, 24, 32, seed + i as u64);
                let want = net.forward(&x, false);
                net.forward_infer(&x, &mut ws, &mut out);
                assert_eq!(out.shape(), want.shape());
                assert_eq!(bits(&out), bits(&want), "{family:?} workspace forward");
            }
        }
    }

    /// The packed weight panels are memoised with the weights: an
    /// optimiser step through `params_mut` must drop them, so the next
    /// `forward_infer` sees the new weights, while a clone taken before the
    /// step keeps reproducing its own output.
    #[test]
    fn packed_weights_follow_an_optimiser_step() {
        let x = random_input(2, 24, 32, 90);
        for (i, family) in FAMILIES.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(91 + i as u64);
            let mut net = ProxyGazeNet::new(family, &mut rng);
            let mut ws = GazeInferWorkspace::new();
            let mut before = Tensor::zeros(Shape::vector(1, 1));
            net.forward_infer(&x, &mut ws, &mut before);
            let old = net.clone();

            let pred = net.forward(&x, true);
            net.backward(&pred);
            Adam::new(1e-2).step(&mut net.params_mut());

            let mut after = Tensor::zeros(Shape::vector(1, 1));
            net.forward_infer(&x, &mut ws, &mut after);
            assert_eq!(bits(&after), bits(&net.forward(&x, false)), "{family:?}");
            assert_ne!(
                bits(&after),
                bits(&before),
                "{family:?}: the step moved nothing"
            );
            old.forward_infer(&x, &mut ws, &mut after);
            assert_eq!(bits(&after), bits(&before), "{family:?}: the clone drifted");
        }
    }

    /// A batched forward over `k` stacked crops reproduces `k` independent
    /// N=1 forwards bit for bit, because every kernel runs batch items one
    /// at a time through the same tiles.
    #[test]
    fn batched_f32_forward_matches_per_item_forwards_for_ragged_sizes() {
        let mut ws = GazeInferWorkspace::new();
        let mut solo_ws = GazeInferWorkspace::new();
        for (f, family) in FAMILIES.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(77 + f as u64);
            let net = ProxyGazeNet::new(family, &mut rng);
            for (i, &k) in [1usize, 2, 7, 32].iter().enumerate() {
                let batch = random_input(k, 24, 32, 400 + i as u64);
                let mut batched = Tensor::zeros(Shape::vector(1, 1));
                net.forward_infer(&batch, &mut ws, &mut batched);
                assert_eq!(batched.shape(), Shape::new(k, 3, 1, 1));
                for item in 0..k {
                    let x = batch.batch_item(item);
                    let mut solo = Tensor::zeros(Shape::vector(1, 1));
                    net.forward_infer(&x, &mut solo_ws, &mut solo);
                    assert_eq!(
                        &bits(&batched)[item * 3..(item + 1) * 3],
                        &bits(&solo)[..],
                        "{family:?} batch {k} item {item}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_int8_forward_is_bit_identical_to_per_item_forwards() {
        let mut ws = GazeInferWorkspace::new();
        let mut solo_ws = GazeInferWorkspace::new();
        let mut rng = StdRng::seed_from_u64(78);
        let net = ProxyGazeNet::new(GazeFamily::MobileNetLike, &mut rng);
        let qnet = QuantizedGazeNet::from_calibrated(&net, &random_input(4, 24, 32, 500));
        for (i, &k) in [1usize, 2, 7, 32].iter().enumerate() {
            let batch = random_input(k, 24, 32, 600 + i as u64);
            let mut batched = Tensor::zeros(Shape::vector(1, 1));
            qnet.forward_into(&batch, &mut ws, &mut batched);
            assert_eq!(batched.shape(), Shape::new(k, 3, 1, 1));
            for item in 0..k {
                let x = batch.batch_item(item);
                let mut solo = Tensor::zeros(Shape::vector(1, 1));
                qnet.forward_into(&x, &mut solo_ws, &mut solo);
                assert_eq!(
                    &batched.as_slice()[item * 3..(item + 1) * 3],
                    solo.as_slice(),
                    "batch {k} item {item}: int8 must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn int8_workspace_forward_is_bit_identical_to_forward() {
        let mut ws = GazeInferWorkspace::new();
        let mut out = Tensor::zeros(Shape::vector(1, 1));
        for (i, family) in [GazeFamily::FbnetLike, GazeFamily::MobileNetLike]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(31 + i as u64);
            let net = ProxyGazeNet::new(family, &mut rng);
            let qnet = QuantizedGazeNet::from_calibrated(&net, &random_input(4, 24, 32, 50));
            for seed in [60, 61] {
                let x = random_input(1, 24, 32, seed + i as u64);
                let want = qnet.forward(&x);
                qnet.forward_into(&x, &mut ws, &mut out);
                assert_eq!(
                    out.as_slice(),
                    want.as_slice(),
                    "{family:?} int8 workspace forward must be bit-identical"
                );
            }
        }
    }
}
