//! Max / average pooling.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Cache of winning positions from a [`max_pool2d`] forward pass, needed by
/// the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolCache {
    input_shape: Shape,
    /// For each output element, the flat input index that won the max.
    argmax: Vec<usize>,
}

/// 2×2-style max pooling with square window `k` and stride `stride`
/// (no padding). Returns the pooled tensor and a cache for the backward pass.
///
/// # Panics
///
/// Panics if the window does not fit the input.
pub fn max_pool2d(input: &Tensor, k: usize, stride: usize) -> (Tensor, MaxPoolCache) {
    let ishape = input.shape();
    let mut argmax = Vec::with_capacity(ishape.conv_output(ishape.c, k, 0, stride).len());
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    max_pool_scan(input, k, stride, &mut out, |idx| argmax.push(idx));
    (
        out,
        MaxPoolCache {
            input_shape: ishape,
            argmax,
        },
    )
}

/// The cache-free inference twin of [`max_pool2d`], writing into a
/// caller-owned tensor (allocation-free once the output buffer is warm).
/// Bit-identical to the pooled tensor [`max_pool2d`] returns.
///
/// # Panics
///
/// Panics if the window does not fit the input.
pub fn max_pool2d_into(input: &Tensor, k: usize, stride: usize, out: &mut Tensor) {
    max_pool_scan(input, k, stride, out, |_| {});
}

/// The window scan behind both max-pool entry points: each output is the
/// first strict maximum (`>` from −∞) over its window in `(kh, kw)` order,
/// and `winner` receives that element's flat input index, in output order.
fn max_pool_scan(
    input: &Tensor,
    k: usize,
    stride: usize,
    out: &mut Tensor,
    mut winner: impl FnMut(usize),
) {
    let ishape = input.shape();
    let oshape = ishape.conv_output(ishape.c, k, 0, stride);
    out.reset(oshape);
    let plane = ishape.h * ishape.w;
    let out_data = out.as_mut_slice();
    for (p, (src, dst)) in input
        .as_slice()
        .chunks_exact(plane)
        .zip(out_data.chunks_exact_mut(oshape.h * oshape.w))
        .enumerate()
    {
        for (oy, orow) in dst.chunks_exact_mut(oshape.w).enumerate() {
            for (ox, o) in orow.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for kh in 0..k {
                    let row = (oy * stride + kh) * ishape.w + ox * stride;
                    for (idx, &v) in src[row..row + k].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_idx = row + idx;
                        }
                    }
                }
                winner(p * plane + best_idx);
                *o = best;
            }
        }
    }
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// element that won the max.
pub fn max_pool2d_backward(cache: &MaxPoolCache, grad_out: &Tensor) -> Tensor {
    assert_eq!(
        cache.argmax.len(),
        grad_out.shape().len(),
        "cache does not match grad_out"
    );
    let mut gin = Tensor::zeros(cache.input_shape);
    let gd = gin.as_mut_slice();
    for (&idx, &g) in cache.argmax.iter().zip(grad_out.as_slice()) {
        gd[idx] += g;
    }
    gin
}

/// Average pooling with square window `k` and stride `stride` (no padding).
pub fn avg_pool2d(input: &Tensor, k: usize, stride: usize) -> Tensor {
    let ishape = input.shape();
    let oshape = ishape.conv_output(ishape.c, k, 0, stride);
    let inv = 1.0 / (k * k) as f32;
    Tensor::from_fn(oshape, |n, c, oy, ox| {
        let mut acc = 0.0;
        for kh in 0..k {
            for kw in 0..k {
                acc += input.at(n, c, oy * stride + kh, ox * stride + kw);
            }
        }
        acc * inv
    })
}

/// Backward pass of [`avg_pool2d`].
pub fn avg_pool2d_backward(
    input_shape: Shape,
    grad_out: &Tensor,
    k: usize,
    stride: usize,
) -> Tensor {
    let inv = 1.0 / (k * k) as f32;
    let mut gin = Tensor::zeros(input_shape);
    let oshape = grad_out.shape();
    for n in 0..oshape.n {
        for c in 0..oshape.c {
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let g = grad_out.at(n, c, oy, ox) * inv;
                    for kh in 0..k {
                        for kw in 0..k {
                            *gin.at_mut(n, c, oy * stride + kh, ox * stride + kw) += g;
                        }
                    }
                }
            }
        }
    }
    gin
}

/// Global average pooling: reduces each channel plane to a single value,
/// returning `(N, C, 1, 1)`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let s = input.shape();
    let inv = 1.0 / s.spatial_len() as f32;
    Tensor::from_fn(Shape::vector(s.n, s.c), |n, c, _, _| {
        input.channel_plane(n, c).iter().sum::<f32>() * inv
    })
}

/// [`global_avg_pool`] writing into a caller-owned tensor (allocation-free
/// once the output buffer is warm). Bit-identical to the allocating path.
pub fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) {
    let s = input.shape();
    let inv = 1.0 / s.spatial_len() as f32;
    out.reset(Shape::vector(s.n, s.c));
    let data = out.as_mut_slice();
    let mut idx = 0;
    for n in 0..s.n {
        for c in 0..s.c {
            data[idx] = input.channel_plane(n, c).iter().sum::<f32>() * inv;
            idx += 1;
        }
    }
}

/// Backward pass of [`global_avg_pool`].
pub fn global_avg_pool_backward(input_shape: Shape, grad_out: &Tensor) -> Tensor {
    let inv = 1.0 / input_shape.spatial_len() as f32;
    Tensor::from_fn(input_shape, |n, c, _, _| grad_out.at(n, c, 0, 0) * inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values and winners against a per-window scan written out here, on a
    /// batch of multi-channel planes with ties (the first maximum wins).
    #[test]
    fn max_pool_matches_a_per_window_scan_across_batch_and_channels() {
        let x = Tensor::from_fn(Shape::new(2, 3, 6, 4), |n, c, h, w| {
            ((n * 13 + c * 7 + h * 5 + w * 3) % 5) as f32 - 2.0
        });
        let (y, cache) = max_pool2d(&x, 2, 2);
        let mut into = Tensor::zeros(Shape::vector(1, 1));
        max_pool2d_into(&x, 2, 2, &mut into);
        assert_eq!(into, y);
        let s = x.shape();
        let mut o = 0;
        for n in 0..2 {
            for c in 0..3 {
                for oy in 0..3 {
                    for ox in 0..2 {
                        let mut best = (f32::NEG_INFINITY, 0);
                        for (kh, kw) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            let idx = s.index(n, c, 2 * oy + kh, 2 * ox + kw);
                            if x.as_slice()[idx] > best.0 {
                                best = (x.as_slice()[idx], idx);
                            }
                        }
                        assert_eq!((y.at(n, c, oy, ox), cache.argmax[o]), best);
                        o += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn global_avg_pool_into_matches_allocating_path() {
        let x = Tensor::from_fn(Shape::new(2, 3, 4, 5), |n, c, h, w| {
            (n * 7 + c * 3 + h * 5 + w) as f32 * 0.17 - 1.0
        });
        let mut out = Tensor::zeros(Shape::vector(1, 1));
        global_avg_pool_into(&x, &mut out);
        assert_eq!(out.as_slice(), global_avg_pool(&x).as_slice());
    }

    #[test]
    fn max_pool_picks_maximum() {
        let x = Tensor::from_vec(
            Shape::new(1, 1, 2, 4),
            vec![1., 5., 2., 0., 3., 4., -1., 7.],
        );
        let (y, _) = max_pool2d(&x, 2, 2);
        assert_eq!(y.as_slice(), &[5., 7.]);
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1., 5., 2., 0.]);
        let (_, cache) = max_pool2d(&x, 2, 2);
        let g = Tensor::from_vec(Shape::new(1, 1, 1, 1), vec![3.0]);
        let gin = max_pool2d_backward(&cache, &g);
        assert_eq!(gin.as_slice(), &[0., 3., 0., 0.]);
    }

    #[test]
    fn avg_pool_averages() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1., 2., 3., 6.]);
        let y = avg_pool2d(&x, 2, 2);
        assert_eq!(y.as_slice(), &[3.0]);
        let g = Tensor::from_vec(Shape::new(1, 1, 1, 1), vec![4.0]);
        let gin = avg_pool2d_backward(x.shape(), &g, 2, 2);
        assert_eq!(gin.as_slice(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn global_avg_pool_round_trip() {
        let x = Tensor::from_fn(Shape::new(2, 3, 4, 4), |n, c, _, _| (n + c) as f32);
        let y = global_avg_pool(&x);
        assert_eq!(y.shape().dims(), (2, 3, 1, 1));
        assert_eq!(y.at(1, 2, 0, 0), 3.0);
        let gin = global_avg_pool_backward(x.shape(), &Tensor::ones(y.shape()));
        assert!((gin.sum() - 6.0).abs() < 1e-5);
    }
}
