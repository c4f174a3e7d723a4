//! Stateful, trainable layer objects built on the functional ops.
//!
//! Each [`Layer`] caches what its backward pass needs during `forward`, so a
//! network is trained by calling `forward(.., train = true)`, computing a loss
//! gradient, then calling `backward` in reverse order. The proxy networks in
//! `eyecod-models` are wired from these layers.

use crate::init;
use crate::ops::{self, PackedConvWeights};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;
use std::sync::OnceLock;

/// A trainable parameter: a value tensor and its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient buffer.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.shape().len()
    }

    /// Always false; parameters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A neural-network layer with explicit forward/backward passes.
///
/// Layers are used as trait objects inside [`Sequential`]; all methods are
/// object-safe.
pub trait Layer {
    /// Runs the layer. When `train` is true the layer caches whatever its
    /// backward pass will need.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates the gradient. Must be called after a `forward` with
    /// `train = true`; accumulates parameter gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Implementations panic if no training-mode forward pass preceded the
    /// call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to the layer's parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

fn take_cache(cache: &mut Option<Tensor>, layer: &str) -> Tensor {
    cache
        .take()
        .unwrap_or_else(|| panic!("{layer}::backward called without a training forward pass"))
}

/// 2-D convolution layer with optional bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    pad: usize,
    groups: usize,
    cached_input: Option<Tensor>,
    /// `weight` packed for the channel tile, built on first use by
    /// [`Conv2d::forward_into`] and dropped by `params_mut` — the only
    /// `&mut` path to the weights — so it can never go stale.
    packed: OnceLock<PackedConvWeights>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if `c_in` is not divisible by `groups`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            c_in.is_multiple_of(groups),
            "c_in {c_in} not divisible by groups {groups}"
        );
        let wshape = Shape::new(c_out, c_in / groups, k, k);
        let fan_in = (c_in / groups) * k * k;
        let weight = Param::new(init::kaiming(wshape, fan_in, rng));
        let bias = bias.then(|| Param::new(Tensor::zeros(Shape::vector(1, c_out))));
        Conv2d {
            weight,
            bias,
            stride,
            pad,
            groups,
            cached_input: None,
            packed: OnceLock::new(),
        }
    }

    /// Convenience constructor for a depth-wise convolution.
    pub fn depthwise(c: usize, k: usize, stride: usize, pad: usize, rng: &mut impl Rng) -> Self {
        Conv2d::new(c, c, k, stride, pad, c, false, rng)
    }

    /// The weight tensor (e.g. for quantised inference paths).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias values, if the layer has a bias.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_ref().map(|b| b.value.as_slice())
    }

    /// The stride of the convolution.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The zero padding of the convolution.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// The group count (`C_in` for a depth-wise convolution).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Inference forward into caller-owned buffers (`planes` is the
    /// kernels' zero-padded input copy): allocation-free once the buffers
    /// and the packed weights are warm. Bitwise equal to
    /// [`Layer::forward`], which runs [`ops::conv2d`]: a `groups == 1`
    /// layer whose output channels fill the channel tile's 16 lanes (`C_out`
    /// a multiple of 16) runs the channel tile over the memoised packed
    /// weights, every other layer the position tile. The choice depends on
    /// the shapes alone: `BENCH_kernels.json` has the channel tile ahead
    /// of, or even with, the position tile on every measured layer of
    /// 16–64 output channels, and behind on the 4- and 8-channel
    /// segmentation layers, whose 24×24 planes fill the position tile's
    /// 16-wide vectors instead.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ops::conv2d`].
    pub fn forward_into(&self, input: &Tensor, planes: &mut Vec<f32>, out: &mut Tensor) {
        let bias = self.bias();
        if self.groups == 1 && self.weight.value.shape().n.is_multiple_of(16) {
            let packed = self
                .packed
                .get_or_init(|| PackedConvWeights::pack(&self.weight.value));
            ops::conv2d_packed_into(input, packed, bias, self.stride, self.pad, planes, out);
        } else {
            let (s, p, g) = (self.stride, self.pad, self.groups);
            ops::conv2d_into(input, &self.weight.value, bias, s, p, g, planes, out);
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        ops::conv2d(
            input,
            &self.weight.value,
            self.bias.as_ref().map(|b| b.value.as_slice()),
            self.stride,
            self.pad,
            self.groups,
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = take_cache(&mut self.cached_input, "Conv2d");
        let grads = ops::conv2d_backward(
            &input,
            &self.weight.value,
            grad_out,
            self.stride,
            self.pad,
            self.groups,
        );
        self.weight.grad.axpy(1.0, &grads.weight);
        if let Some(b) = &mut self.bias {
            for (g, &d) in b.grad.as_mut_slice().iter_mut().zip(&grads.bias) {
                *g += d;
            }
        }
        grads.input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.packed.take();
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }
}

/// Fully connected layer.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialised weights and zero bias.
    pub fn new(c_in: usize, c_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(init::xavier(Shape::vector(c_out, c_in), c_in, c_out, rng)),
            bias: Param::new(Tensor::zeros(Shape::vector(1, c_out))),
            cached_input: None,
        }
    }

    /// The weight tensor `(C_out, C_in, 1, 1)` (e.g. for quantised paths).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias values.
    pub fn bias(&self) -> &[f32] {
        self.bias.value.as_slice()
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        ops::linear(input, &self.weight.value, Some(self.bias.value.as_slice()))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = take_cache(&mut self.cached_input, "Linear");
        let grads = ops::linear_backward(&input, &self.weight.value, grad_out);
        self.weight.grad.axpy(1.0, &grads.weight);
        for (g, &d) in self.bias.grad.as_mut_slice().iter_mut().zip(&grads.bias) {
            *g += d;
        }
        grads.input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Batch normalisation layer (per-channel affine, tracked running stats).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    eps: f32,
    momentum: f32,
    cache: Option<ops::BatchNormCache>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `c` channels.
    pub fn new(c: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(Shape::vector(1, c))),
            beta: Param::new(Tensor::zeros(Shape::vector(1, c))),
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Per-channel scale `γ`.
    pub fn gamma(&self) -> &[f32] {
        self.gamma.value.as_slice()
    }

    /// Per-channel shift `β`.
    pub fn beta(&self) -> &[f32] {
        self.beta.value.as_slice()
    }

    /// Tracked running means (what inference-mode normalisation uses).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Tracked running variances.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, cache) = ops::batch_norm(
            input,
            self.gamma.value.as_slice(),
            self.beta.value.as_slice(),
            &mut self.running_mean,
            &mut self.running_var,
            self.eps,
            self.momentum,
            train,
        );
        self.cache = cache;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward called without a training forward pass");
        let grads = ops::batch_norm_backward(&cache, self.gamma.value.as_slice(), grad_out);
        for (g, &d) in self.gamma.grad.as_mut_slice().iter_mut().zip(&grads.gamma) {
            *g += d;
        }
        for (g, &d) in self.beta.grad.as_mut_slice().iter_mut().zip(&grads.beta) {
            *g += d;
        }
        grads.input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Leaky ReLU activation layer (`alpha = 0` gives plain ReLU).
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    alpha: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu {
            alpha,
            cached_input: None,
        }
    }

    /// Plain ReLU.
    pub fn relu() -> Self {
        LeakyRelu::new(0.0)
    }

    /// The negative slope (0 for plain ReLU).
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(input.clone());
        }
        ops::leaky_relu(input, self.alpha)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = take_cache(&mut self.cached_input, "LeakyRelu");
        ops::leaky_relu_backward(&input, grad_out, self.alpha)
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so inference is
/// the identity. The internal RNG is seeded at construction, making
/// training runs reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: rand::rngs::StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        use rand::SeedableRng;
        Dropout {
            p,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Tensor::from_fn(input.shape(), |_, _, _, _| {
            if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            }
        });
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("Dropout::backward called without a training forward pass");
        grad_out.mul(&mask)
    }
}

/// Max-pooling layer.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    cache: Option<ops::MaxPoolCache>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `k` and stride `stride`.
    pub fn new(k: usize, stride: usize) -> Self {
        MaxPool2d {
            k,
            stride,
            cache: None,
        }
    }

    /// The pooling window.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pooling stride.
    pub fn stride(&self) -> usize {
        self.stride
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, cache) = ops::max_pool2d(input, self.k, self.stride);
        if train {
            self.cache = Some(cache);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MaxPool2d::backward called without a training forward pass");
        ops::max_pool2d_backward(&cache, grad_out)
    }
}

/// Global average pooling layer (`(N, C, H, W)` → `(N, C, 1, 1)`).
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_shape = Some(input.shape());
        }
        ops::global_avg_pool(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .take()
            .expect("GlobalAvgPool::backward called without a training forward pass");
        ops::global_avg_pool_backward(shape, grad_out)
    }
}

/// Nearest-neighbour upsampling layer.
#[derive(Debug, Clone)]
pub struct Upsample {
    factor: usize,
    input_shape: Option<Shape>,
}

impl Upsample {
    /// Creates an upsampling layer with the given integer factor.
    pub fn new(factor: usize) -> Self {
        Upsample {
            factor,
            input_shape: None,
        }
    }

    /// The integer upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for Upsample {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input_shape = Some(input.shape());
        }
        ops::upsample_nearest(input, self.factor)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .take()
            .expect("Upsample::backward called without a training forward pass");
        ops::upsample_nearest_backward(shape, grad_out, self.factor)
    }
}

/// A chain of layers executed in order.
///
/// # Example
///
/// ```
/// use eyecod_tensor::layer::{Sequential, Conv2d, LeakyRelu};
/// use eyecod_tensor::{Layer, Tensor, Shape};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Conv2d::new(1, 4, 3, 1, 1, 1, true, &mut rng));
/// net.push(LeakyRelu::relu());
/// let y = net.forward(&Tensor::ones(Shape::new(1, 1, 8, 8)), false);
/// assert_eq!(y.shape().dims(), (1, 4, 8, 8));
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer to the chain.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Zeroes the gradients of every parameter in the chain.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_layer_params_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, true, &mut rng);
        assert_eq!(conv.param_count(), 3 * 8 * 9 + 8);
        let y = conv.forward(&Tensor::ones(Shape::new(2, 3, 6, 6)), false);
        assert_eq!(y.shape().dims(), (2, 8, 6, 6));
    }

    #[test]
    fn depthwise_constructor() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dw = Conv2d::depthwise(4, 3, 1, 1, &mut rng);
        assert_eq!(dw.param_count(), 4 * 9);
        let y = dw.forward(&Tensor::ones(Shape::new(1, 4, 5, 5)), false);
        assert_eq!(y.shape().dims(), (1, 4, 5, 5));
    }

    #[test]
    #[should_panic(expected = "without a training forward pass")]
    fn backward_requires_training_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 1, false, &mut rng);
        conv.forward(&Tensor::ones(Shape::new(1, 1, 4, 4)), false);
        conv.backward(&Tensor::ones(Shape::new(1, 1, 4, 4)));
    }

    #[test]
    fn sequential_trains_toward_target() {
        // A tiny regression: learn y = 2x with a 1x1 conv.
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 1, 1, 1, 0, 1, false, &mut rng));
        let x = Tensor::from_vec(Shape::new(4, 1, 1, 1), vec![1., 2., 3., 4.]);
        let target = x.scale(2.0);
        let mut last_loss = f32::INFINITY;
        for _ in 0..200 {
            net.zero_grad();
            let y = net.forward(&x, true);
            let diff = y.sub(&target);
            let loss = diff.mul(&diff).mean();
            let grad = diff.scale(2.0 / x.shape().len() as f32);
            net.backward(&grad);
            for p in net.params_mut() {
                let g = p.grad.clone();
                p.value.axpy(-0.05, &g);
            }
            last_loss = loss;
        }
        assert!(last_loss < 1e-4, "did not converge: {last_loss}");
    }

    #[test]
    fn sequential_backward_shape_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1, true, &mut rng));
        net.push(BatchNorm2d::new(4));
        net.push(LeakyRelu::new(0.1));
        net.push(MaxPool2d::new(2, 2));
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(4, 3, &mut rng));
        let x = Tensor::ones(Shape::new(2, 2, 8, 8));
        let y = net.forward(&x, true);
        assert_eq!(y.shape().dims(), (2, 3, 1, 1));
        let gin = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(gin.shape(), x.shape());
        assert!(!gin.has_non_finite());
    }

    #[test]
    fn dropout_scales_survivors_and_masks_gradient() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones(Shape::new(1, 1, 16, 16));
        let y = d.forward(&x, true);
        // survivors are scaled by 2, dropped entries are 0
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        // expectation preserved within sampling noise
        assert!((y.mean() - 1.0).abs() < 0.25, "mean {}", y.mean());
        // gradient flows exactly through the surviving positions
        let g = d.backward(&Tensor::ones(x.shape()));
        for (gv, yv) in g.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(*gv == 0.0, *yv == 0.0);
        }
        // inference is the identity
        let y_inf = d.forward(&x, false);
        assert_eq!(y_inf, x);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn dropout_rejects_bad_probability() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn upsample_layer_round_trip() {
        let mut up = Upsample::new(2);
        let x = Tensor::ones(Shape::new(1, 1, 2, 2));
        let y = up.forward(&x, true);
        assert_eq!(y.shape().dims(), (1, 1, 4, 4));
        let gin = up.backward(&Tensor::ones(y.shape()));
        assert_eq!(gin.as_slice(), &[4., 4., 4., 4.]);
    }
}
