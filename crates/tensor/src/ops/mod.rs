//! Functional neural-network operators (forward and backward).
//!
//! Every operator is a free function over [`Tensor`](crate::Tensor)s; the
//! stateful, trainable wrappers live in [`crate::layer`]. Backward functions
//! take the cached forward inputs plus the upstream gradient and return input
//! (and where applicable parameter) gradients.

mod activation;
mod conv;
mod fastconv;
mod linear;
mod norm;
mod pool;
mod resize;
mod spatial;

pub use activation::{
    leaky_relu, leaky_relu_backward, relu, relu_backward, sigmoid, sigmoid_backward,
    softmax_channels,
};
pub(crate) use conv::{check_conv_args, tap_span};
pub use conv::{conv2d, conv2d_backward, conv2d_backward_reference, conv2d_naive, Conv2dGrads};
pub use fastconv::{
    conv2d_gemm, conv2d_gemm_buf, conv2d_gemm_into, conv2d_gemm_reference, ConvWorkspace,
};
pub use linear::{linear, linear_backward, linear_into, matmul, LinearGrads};
pub use norm::{
    batch_norm, batch_norm_backward, batch_norm_infer_inplace, BatchNormCache, BatchNormGrads,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward,
    global_avg_pool_into, max_pool2d, max_pool2d_backward, MaxPoolCache,
};
pub use resize::{
    downsample_avg, resize_bilinear, resize_bilinear_into, upsample_nearest,
    upsample_nearest_backward,
};
pub use spatial::{concat_channels, crop, crop_into, pad_zero, split_channels};
