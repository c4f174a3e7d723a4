//! Functional neural-network operators (forward and backward).
//!
//! Every operator is a free function over [`Tensor`](crate::Tensor)s; the
//! stateful, trainable wrappers live in [`crate::layer`]. Backward functions
//! take the cached forward inputs plus the upstream gradient and return input
//! (and where applicable parameter) gradients.
//!
//! The f32 forward convolution has two register-tiled kernels with the same
//! per-element sequence, so they agree bit for bit: the position tile
//! [`conv2d`] / [`conv2d_into`] (4 output channels × 16 positions, for
//! narrow layers, depth-wise layers and training) and the channel tile
//! [`conv2d_packed_into`] (6 positions × 16 output channels over
//! [`PackedConvWeights`], for layers of 16, 32, … output channels).
//! `Conv2d::forward_into` in [`crate::layer`] picks one per layer shape;
//! [`conv2d_naive`] is the per-element oracle both are pinned to.

mod activation;
mod conv;
mod linear;
mod norm;
mod packed;
mod pool;
mod resize;
mod spatial;

pub use activation::{
    leaky_relu, leaky_relu_backward, relu, relu_backward, sigmoid, sigmoid_backward,
    softmax_channels,
};
pub(crate) use conv::{check_conv_args, tap_span};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_into, conv2d_naive, Conv2dGrads,
};
pub use linear::{linear, linear_backward, linear_into, matmul, LinearGrads};
pub use norm::{
    batch_norm, batch_norm_backward, batch_norm_infer_inplace, BatchNormCache, BatchNormGrads,
};
pub use packed::{conv2d_packed_into, PackedConvWeights};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward,
    global_avg_pool_into, max_pool2d, max_pool2d_backward, max_pool2d_into, MaxPoolCache,
};
pub use resize::{
    downsample_avg, downsample_avg_into, resize_bilinear, resize_bilinear_into, upsample_nearest,
    upsample_nearest_backward,
};
pub use spatial::{concat_channels, crop, crop_into, pad_zero, split_channels};
