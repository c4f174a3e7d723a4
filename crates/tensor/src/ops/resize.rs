//! Spatial resizing: nearest-neighbour up/down-sampling and bilinear resize.
//!
//! The EyeCoD pipeline downsamples 512×512 captures to 128×128 for
//! segmentation and resizes reconstructions to 256×256 before ROI cropping;
//! RITNet's decoder upsamples feature maps back up. These are the reshaping
//! "downsampling"/"upsampling" operations the accelerator's activation GB
//! arrangement supports (paper Fig. 11 (d)/(e)).

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Nearest-neighbour upsampling by an integer factor.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn upsample_nearest(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be non-zero");
    let s = input.shape();
    let oshape = Shape::new(s.n, s.c, s.h * factor, s.w * factor);
    Tensor::from_fn(oshape, |n, c, h, w| input.at(n, c, h / factor, w / factor))
}

/// Backward pass of [`upsample_nearest`]: sums the gradient over each
/// replicated block.
///
/// # Panics
///
/// Panics if `factor == 0` or `grad_out` is not shaped like
/// `input_shape` upsampled by `factor` — a silent mismatch would read
/// gradients into the wrong (or out-of-range) input cells.
pub fn upsample_nearest_backward(input_shape: Shape, grad_out: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be non-zero");
    let os = grad_out.shape();
    assert_eq!(
        (os.n, os.c, os.h, os.w),
        (
            input_shape.n,
            input_shape.c,
            input_shape.h * factor,
            input_shape.w * factor
        ),
        "grad_out {os} must be input {input_shape} upsampled by {factor}"
    );
    let mut gin = Tensor::zeros(input_shape);
    for n in 0..os.n {
        for c in 0..os.c {
            for h in 0..os.h {
                for w in 0..os.w {
                    *gin.at_mut(n, c, h / factor, w / factor) += grad_out.at(n, c, h, w);
                }
            }
        }
    }
    gin
}

/// Box-filter downsampling by an integer factor (each output pixel is the
/// mean of a `factor × factor` block).
///
/// # Panics
///
/// Panics if the spatial extents are not divisible by `factor`.
pub fn downsample_avg(input: &Tensor, factor: usize) -> Tensor {
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    downsample_avg_into(input, factor, &mut out);
    out
}

/// [`downsample_avg`] writing into a caller-owned tensor (allocation-free
/// once the output buffer is warm). Bit-identical to the allocating path:
/// each block sums from zero in `(dy, dx)` order, then scales by
/// `1 / factor²`.
///
/// # Panics
///
/// Panics if the spatial extents are not divisible by `factor`.
pub fn downsample_avg_into(input: &Tensor, factor: usize, out: &mut Tensor) {
    assert!(factor > 0, "downsample factor must be non-zero");
    let s = input.shape();
    assert!(
        s.h.is_multiple_of(factor) && s.w.is_multiple_of(factor),
        "input {s} not divisible by factor {factor}"
    );
    out.reset(Shape::new(s.n, s.c, s.h / factor, s.w / factor));
    let oshape = out.shape();
    let inv = 1.0 / (factor * factor) as f32;
    let data = out.as_mut_slice();
    let mut idx = 0;
    for n in 0..oshape.n {
        for c in 0..oshape.c {
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let mut acc = 0.0;
                    for dy in 0..factor {
                        for dx in 0..factor {
                            acc += input.at(n, c, oy * factor + dy, ox * factor + dx);
                        }
                    }
                    data[idx] = acc * inv;
                    idx += 1;
                }
            }
        }
    }
}

/// Bilinear resize to an arbitrary target resolution (align-corners = false
/// convention, matching common DNN framework behaviour).
pub fn resize_bilinear(input: &Tensor, out_h: usize, out_w: usize) -> Tensor {
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    resize_bilinear_into(input, out_h, out_w, &mut out);
    out
}

/// [`resize_bilinear`] writing into a caller-owned tensor (allocation-free
/// once the output buffer is warm).
pub fn resize_bilinear_into(input: &Tensor, out_h: usize, out_w: usize, out: &mut Tensor) {
    let s = input.shape();
    assert!(out_h > 0 && out_w > 0, "target extent must be non-zero");
    let scale_y = s.h as f32 / out_h as f32;
    let scale_x = s.w as f32 / out_w as f32;
    out.reset(Shape::new(s.n, s.c, out_h, out_w));
    let oshape = out.shape();
    let data = out.as_mut_slice();
    let mut idx = 0;
    for n in 0..oshape.n {
        for c in 0..oshape.c {
            for oy in 0..out_h {
                let fy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (s.h - 1) as f32);
                let y0 = fy.floor() as usize;
                let y1 = (y0 + 1).min(s.h - 1);
                let dy = fy - y0 as f32;
                for ox in 0..out_w {
                    let fx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (s.w - 1) as f32);
                    let x0 = fx.floor() as usize;
                    let x1 = (x0 + 1).min(s.w - 1);
                    let dx = fx - x0 as f32;
                    let v00 = input.at(n, c, y0, x0);
                    let v01 = input.at(n, c, y0, x1);
                    let v10 = input.at(n, c, y1, x0);
                    let v11 = input.at(n, c, y1, x1);
                    data[idx] = v00 * (1.0 - dy) * (1.0 - dx)
                        + v01 * (1.0 - dy) * dx
                        + v10 * dy * (1.0 - dx)
                        + v11 * dy * dx;
                    idx += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_into_matches_allocating_path() {
        let x = Tensor::from_fn(Shape::new(2, 2, 5, 7), |n, c, h, w| {
            (n * 31 + c * 17 + h * 7 + w) as f32 * 0.13
        });
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        for (oh, ow) in [(9usize, 3usize), (4, 11)] {
            resize_bilinear_into(&x, oh, ow, &mut out);
            assert_eq!(out.as_slice(), resize_bilinear(&x, oh, ow).as_slice());
        }
    }

    #[test]
    fn upsample_replicates() {
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![1., 2.]);
        let y = upsample_nearest(&x, 2);
        assert_eq!(y.as_slice(), &[1., 1., 2., 2., 1., 1., 2., 2.]);
    }

    #[test]
    fn upsample_backward_sums_blocks() {
        let g = Tensor::ones(Shape::new(1, 1, 2, 4));
        let gin = upsample_nearest_backward(Shape::new(1, 1, 1, 2), &g, 2);
        assert_eq!(gin.as_slice(), &[4., 4.]);
    }

    #[test]
    fn downsample_then_upsample_constant_is_identity() {
        let x = Tensor::full(Shape::new(1, 2, 4, 4), 3.0);
        let y = upsample_nearest(&downsample_avg(&x, 2), 2);
        assert_eq!(y, x);
    }

    #[test]
    fn downsample_averages_blocks() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![0., 2., 4., 6.]);
        assert_eq!(downsample_avg(&x, 2).as_slice(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn downsample_rejects_ragged_sizes() {
        downsample_avg(&Tensor::zeros(Shape::new(1, 1, 3, 3)), 2);
    }

    #[test]
    #[should_panic(expected = "factor must be non-zero")]
    fn upsample_backward_rejects_zero_factor() {
        let g = Tensor::ones(Shape::new(1, 1, 2, 2));
        upsample_nearest_backward(Shape::new(1, 1, 2, 2), &g, 0);
    }

    #[test]
    #[should_panic(expected = "upsampled by 2")]
    fn upsample_backward_rejects_shape_mismatch() {
        // grad is 2x4 but input 1x2 upsampled by 2 would be 2x4 in w only:
        // here h is wrong (3 instead of 2)
        let g = Tensor::ones(Shape::new(1, 1, 3, 4));
        upsample_nearest_backward(Shape::new(1, 1, 1, 2), &g, 2);
    }

    #[test]
    #[should_panic(expected = "upsampled by 2")]
    fn upsample_backward_rejects_channel_mismatch() {
        let g = Tensor::ones(Shape::new(1, 2, 2, 4));
        upsample_nearest_backward(Shape::new(1, 1, 1, 2), &g, 2);
    }

    #[test]
    fn bilinear_identity_resize() {
        let x = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32);
        let y = resize_bilinear(&x, 4, 4);
        assert!(y.sub(&x).max_abs() < 1e-6);
    }

    #[test]
    fn bilinear_preserves_constant() {
        let x = Tensor::full(Shape::new(1, 1, 5, 7), 2.5);
        let y = resize_bilinear(&x, 9, 3);
        assert!(y.sub(&Tensor::full(y.shape(), 2.5)).max_abs() < 1e-6);
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![0., 1.]);
        let y = resize_bilinear(&x, 1, 4);
        // midpoints at 0.25 and 0.75 of the source line
        assert!(y.at(0, 0, 0, 1) > 0.0 && y.at(0, 0, 0, 2) < 1.0);
        assert!(y.at(0, 0, 0, 1) < y.at(0, 0, 0, 2));
    }
}
