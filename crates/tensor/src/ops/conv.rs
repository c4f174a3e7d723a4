//! 2-D convolution (generic, point-wise and depth-wise via `groups`).

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Validates convolution arguments and returns `(c_in_per_group,
/// c_out_per_group)` — the one geometry contract every convolution kernel in
/// the crate (direct, im2col GEMM, int8) enforces.
pub(crate) fn check_conv_args(
    input: Shape,
    weight: Shape,
    bias: Option<&[f32]>,
    groups: usize,
) -> (usize, usize) {
    assert!(groups > 0, "groups must be non-zero");
    assert_eq!(
        input.c % groups,
        0,
        "input channels {} not divisible by groups {groups}",
        input.c
    );
    assert_eq!(
        weight.n % groups,
        0,
        "output channels {} not divisible by groups {groups}",
        weight.n
    );
    let cin_g = input.c / groups;
    assert_eq!(
        weight.c, cin_g,
        "weight expects {} input channels per group, input provides {cin_g}",
        weight.c
    );
    assert_eq!(weight.h, weight.w, "only square kernels are supported");
    if let Some(b) = bias {
        assert_eq!(b.len(), weight.n, "bias length must equal output channels");
    }
    (cin_g, weight.n / groups)
}

/// The half-open range `lo..hi` of output indices `o` whose input index
/// `o * stride + tap - pad` lies in `[0, in_len)`, for one kernel tap along
/// one axis (a row `kh` or a column `kw`). Always `lo <= hi <= out_len`, so
/// an empty span comes back as `hi..hi`.
///
/// Resolving the padding once per tap this way is what lets the streaming
/// inner loops of every convolution kernel run branch-free over contiguous
/// rows.
#[inline]
pub(crate) fn tap_span(
    tap: usize,
    pad: usize,
    stride: usize,
    in_len: usize,
    out_len: usize,
) -> (usize, usize) {
    let hi = if in_len + pad > tap {
        ((in_len - 1 + pad - tap) / stride + 1).min(out_len)
    } else {
        0
    };
    let lo = if tap >= pad {
        0
    } else {
        (pad - tap).div_ceil(stride)
    };
    (lo.min(hi), hi)
}

/// 2-D convolution with square kernels, symmetric zero padding and groups.
///
/// * `input`: `(N, C_in, H, W)`
/// * `weight`: `(C_out, C_in / groups, K, K)`
/// * `bias`: optional, length `C_out`
/// * `groups == 1` is a generic convolution, `groups == C_in == C_out` is a
///   depth-wise convolution, and `K == 1, groups == 1` is point-wise.
///
/// Every output element accumulates from zero over its taps in ascending
/// `(c_in, kh, kw)` order (taps with a zero weight are skipped), one IEEE
/// multiply then one add per tap, and gets its bias added last — exactly
/// the sequence of the per-element oracle [`conv2d_naive`]. The loops
/// resolve the padding once per tap ([`tap_span`]), so the innermost loop
/// streams a contiguous output row; the kernel is instantiated twice, plain
/// and under `#[target_feature(enable = "avx2")]`, and dispatched by
/// [`crate::simd::avx2_enabled`]. Rust never contracts `a * b + c` into an
/// FMA, so both instantiations produce the same bits.
///
/// # Panics
///
/// Panics on inconsistent channel/group configuration or if the kernel does
/// not fit the padded input.
///
/// # Example
///
/// ```
/// use eyecod_tensor::{Tensor, Shape};
/// use eyecod_tensor::ops::conv2d;
/// let x = Tensor::ones(Shape::new(1, 2, 4, 4));
/// let w = Tensor::ones(Shape::new(2, 1, 3, 3));
/// // depth-wise: each output channel sees one input channel
/// let y = conv2d(&x, &w, None, 1, 1, 2);
/// assert_eq!(y.at(0, 0, 1, 1), 9.0);
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let wshape = weight.shape();
    check_conv_args(input.shape(), wshape, bias, groups);
    let mut out = Tensor::zeros(input.shape().conv_output(wshape.n, wshape.h, pad, stride));
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: avx2_enabled() returns true only on hosts with AVX2.
        unsafe { conv2d_avx2(input, weight, bias, stride, pad, groups, &mut out) };
        return out;
    }
    conv2d_body(input, weight, bias, stride, pad, groups, &mut out);
    out
}

/// The direct convolution loop nest shared by both instantiations; `out`
/// arrives zeroed with the output shape. See [`conv2d`] for the
/// accumulation order it keeps.
#[inline(always)]
fn conv2d_body(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    out: &mut Tensor,
) {
    let (ishape, wshape, oshape) = (input.shape(), weight.shape(), out.shape());
    let (cin_g, cout_g) = (ishape.c / groups, wshape.n / groups);
    let k = wshape.h;
    let (ih, iw) = (ishape.h, ishape.w);
    let (oh, ow) = (oshape.h, oshape.w);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let out_data = out.as_mut_slice();

    for n in 0..ishape.n {
        for g in 0..groups {
            for ocg in 0..cout_g {
                let oc = g * cout_g + ocg;
                let out_base = (n * oshape.c + oc) * oh * ow;
                let oplane = &mut out_data[out_base..out_base + oh * ow];
                for icg in 0..cin_g {
                    let ic = g * cin_g + icg;
                    let iplane = &in_data[(n * ishape.c + ic) * ih * iw..][..ih * iw];
                    let w_base = (oc * cin_g + icg) * k * k;
                    for kh in 0..k {
                        let (y0, y1) = tap_span(kh, pad, stride, ih, oh);
                        for kw in 0..k {
                            let wv = w_data[w_base + kh * k + kw];
                            let (x0, x1) = tap_span(kw, pad, stride, iw, ow);
                            if wv == 0.0 || x0 == x1 {
                                continue;
                            }
                            let ix0 = x0 * stride + kw - pad;
                            for oy in y0..y1 {
                                let irow = &iplane[(oy * stride + kh - pad) * iw..][..iw];
                                let orow = &mut oplane[oy * ow + x0..oy * ow + x1];
                                if stride == 1 {
                                    for (o, &x) in orow.iter_mut().zip(&irow[ix0..]) {
                                        *o += wv * x;
                                    }
                                } else {
                                    let taps = irow[ix0..].iter().step_by(stride);
                                    for (o, &x) in orow.iter_mut().zip(taps) {
                                        *o += wv * x;
                                    }
                                }
                            }
                        }
                    }
                }
                let b = bias.map_or(0.0, |b| b[oc]);
                if b != 0.0 {
                    for v in oplane {
                        *v += b;
                    }
                }
            }
        }
    }
}

/// AVX2 instantiation of [`conv2d_body`], where LLVM widens the unit-stride
/// row update to 8-lane vectors (see [`conv2d`] for the bit-identity
/// argument).
///
/// # Safety
///
/// The host must support AVX2, which [`conv2d`] checks via
/// [`crate::simd::avx2_enabled`] before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv2d_avx2(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    out: &mut Tensor,
) {
    conv2d_body(input, weight, bias, stride, pad, groups, out);
}

/// The per-element oracle [`conv2d`] is pinned against bit for bit: one
/// output element at a time, padding checked per tap, the same accumulation
/// sequence (zero start, ascending `(c_in, kh, kw)` taps skipping zero
/// weights, bias last). Same contract as [`conv2d`].
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let ishape = input.shape();
    let wshape = weight.shape();
    let (cin_g, cout_g) = check_conv_args(ishape, wshape, bias, groups);
    let k = wshape.h;
    let oshape = ishape.conv_output(wshape.n, k, pad, stride);
    Tensor::from_fn(oshape, |n, oc, oy, ox| {
        let g = oc / cout_g;
        let mut acc = 0.0f32;
        for icg in 0..cin_g {
            let ic = g * cin_g + icg;
            for kh in 0..k {
                for kw in 0..k {
                    let wv = weight.at(oc, icg, kh, kw);
                    let iy = (oy * stride + kh) as isize - pad as isize;
                    let ix = (ox * stride + kw) as isize - pad as isize;
                    if wv != 0.0
                        && iy >= 0
                        && ix >= 0
                        && (iy as usize) < ishape.h
                        && (ix as usize) < ishape.w
                    {
                        acc += wv * input.at(n, ic, iy as usize, ix as usize);
                    }
                }
            }
        }
        let b = bias.map_or(0.0, |b| b[oc]);
        if b != 0.0 {
            acc += b;
        }
        acc
    })
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the layer input.
    pub input: Tensor,
    /// Gradient with respect to the weights.
    pub weight: Tensor,
    /// Gradient with respect to the bias (one entry per output channel).
    pub bias: Vec<f32>,
}

/// Backward pass of [`conv2d`].
///
/// `grad_out` must have the shape the forward pass produced for the given
/// arguments.
///
/// Every gradient element sees the accumulation sequence of the
/// per-element oracle [`conv2d_backward_reference`]: a weight gradient sums
/// its tap's products from zero in ascending `(oy, ox)` order and is then
/// added to the (zeroed) gradient tensor; an input gradient accumulates its
/// products in ascending `(oc, kh, kw, oy, ox)` order; a bias gradient sums
/// its output plane in order. As in [`conv2d`], each tap's valid output
/// rows and columns are resolved once ([`tap_span`]), so at stride 1 a tap
/// row is a contiguous dot product (weight gradient) plus a contiguous
/// axpy (input gradient); the loops are instantiated plain and under
/// `#[target_feature(enable = "avx2")]`, dispatched by
/// [`crate::simd::avx2_enabled`], with the same bits.
///
/// # Panics
///
/// Panics if `grad_out`'s shape is inconsistent with the forward geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Conv2dGrads {
    let (ishape, wshape) = (input.shape(), weight.shape());
    check_conv_args(ishape, wshape, None, groups);
    let oshape = ishape.conv_output(wshape.n, wshape.h, pad, stride);
    assert_eq!(grad_out.shape(), oshape, "grad_out shape mismatch");
    let mut grads = Conv2dGrads {
        input: Tensor::zeros(ishape),
        weight: Tensor::zeros(wshape),
        bias: vec![0.0f32; wshape.n],
    };
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: avx2_enabled() returns true only on hosts with AVX2.
        unsafe { conv2d_backward_avx2(input, weight, grad_out, stride, pad, groups, &mut grads) };
        return grads;
    }
    conv2d_backward_body(input, weight, grad_out, stride, pad, groups, &mut grads);
    grads
}

/// The span-hoisted backward loop nest shared by both instantiations;
/// `grads` arrives zeroed. See [`conv2d_backward`] for the accumulation
/// order it keeps.
#[inline(always)]
fn conv2d_backward_body(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
    grads: &mut Conv2dGrads,
) {
    let (ishape, wshape, oshape) = (input.shape(), weight.shape(), grad_out.shape());
    let (cin_g, cout_g) = (ishape.c / groups, wshape.n / groups);
    let k = wshape.h;
    let (ih, iw) = (ishape.h, ishape.w);
    let (oh, ow) = (oshape.h, oshape.w);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let go_data = grad_out.as_slice();
    let gin_data = grads.input.as_mut_slice();
    let gw_data = grads.weight.as_mut_slice();

    for n in 0..ishape.n {
        for g in 0..groups {
            for ocg in 0..cout_g {
                let oc = g * cout_g + ocg;
                let oplane = &go_data[(n * oshape.c + oc) * oh * ow..][..oh * ow];
                let mut bias_acc = 0.0f32;
                for v in oplane {
                    bias_acc += v;
                }
                grads.bias[oc] += bias_acc;
                for icg in 0..cin_g {
                    let in_base = (n * ishape.c + g * cin_g + icg) * ih * iw;
                    let iplane = &in_data[in_base..][..ih * iw];
                    let giplane = &mut gin_data[in_base..][..ih * iw];
                    let w_base = (oc * cin_g + icg) * k * k;
                    for kh in 0..k {
                        let (y0, y1) = tap_span(kh, pad, stride, ih, oh);
                        for kw in 0..k {
                            let wv = w_data[w_base + kh * k + kw];
                            let (x0, x1) = tap_span(kw, pad, stride, iw, ow);
                            let span = x1 - x0;
                            // an empty column span leaves no row to visit
                            let rows = if span > 0 { y0..y1 } else { 0..0 };
                            let mut wgrad = 0.0f32;
                            for oy in rows {
                                let ix0 = x0 * stride + kw - pad;
                                let iy = oy * stride + kh - pad;
                                let orow = &oplane[oy * ow + x0..][..span];
                                let irow = &iplane[iy * iw..][..iw];
                                let girow = &mut giplane[iy * iw..][..iw];
                                if stride == 1 {
                                    let xs = &irow[ix0..][..span];
                                    for (&go, &x) in orow.iter().zip(xs) {
                                        wgrad += go * x;
                                    }
                                    let gis = &mut girow[ix0..][..span];
                                    for (gi, &go) in gis.iter_mut().zip(orow) {
                                        *gi += go * wv;
                                    }
                                } else {
                                    for (j, &go) in orow.iter().enumerate() {
                                        let ix = ix0 + j * stride;
                                        wgrad += go * irow[ix];
                                        girow[ix] += go * wv;
                                    }
                                }
                            }
                            gw_data[w_base + kh * k + kw] += wgrad;
                        }
                    }
                }
            }
        }
    }
}

/// AVX2 instantiation of [`conv2d_backward_body`], where LLVM widens the
/// unit-stride input-gradient axpy to 8-lane vectors (see
/// [`conv2d_backward`] for the bit-identity argument).
///
/// # Safety
///
/// The host must support AVX2, which [`conv2d_backward`] checks via
/// [`crate::simd::avx2_enabled`] before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv2d_backward_avx2(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
    grads: &mut Conv2dGrads,
) {
    conv2d_backward_body(input, weight, grad_out, stride, pad, groups, grads);
}

/// The per-element oracle [`conv2d_backward`] is pinned against bit for
/// bit: padding range-checked per element, weight- and input-gradient
/// updates interleaved, the accumulation sequence [`conv2d_backward`]
/// documents. Same contract as [`conv2d_backward`].
pub fn conv2d_backward_reference(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Conv2dGrads {
    let ishape = input.shape();
    let wshape = weight.shape();
    let (cin_g, cout_g) = check_conv_args(ishape, wshape, None, groups);
    let k = wshape.h;
    let oshape = ishape.conv_output(wshape.n, k, pad, stride);
    assert_eq!(grad_out.shape(), oshape, "grad_out shape mismatch");

    let mut gin = Tensor::zeros(ishape);
    let mut gw = Tensor::zeros(wshape);
    let mut gb = vec![0.0f32; wshape.n];

    let (ih, iw) = (ishape.h, ishape.w);
    let (oh, ow) = (oshape.h, oshape.w);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let go_data = grad_out.as_slice();
    let gin_data = gin.as_mut_slice();
    let gw_data = gw.as_mut_slice();

    for n in 0..ishape.n {
        for g in 0..groups {
            for ocg in 0..cout_g {
                let oc = g * cout_g + ocg;
                let out_base = (n * oshape.c + oc) * oh * ow;
                let mut bias_acc = 0.0f32;
                for v in &go_data[out_base..out_base + oh * ow] {
                    bias_acc += v;
                }
                gb[oc] += bias_acc;
                for icg in 0..cin_g {
                    let ic = g * cin_g + icg;
                    let in_base = (n * ishape.c + ic) * ih * iw;
                    let w_base = (oc * cin_g + icg) * k * k;
                    for kh in 0..k {
                        for kw in 0..k {
                            let wv = w_data[w_base + kh * k + kw];
                            let mut wgrad = 0.0f32;
                            for oy in 0..oh {
                                let iy = (oy * stride + kh) as isize - pad as isize;
                                if iy < 0 || iy >= ih as isize {
                                    continue;
                                }
                                let irow = in_base + iy as usize * iw;
                                let orow = out_base + oy * ow;
                                for ox in 0..ow {
                                    let ix = (ox * stride + kw) as isize - pad as isize;
                                    if ix < 0 || ix >= iw as isize {
                                        continue;
                                    }
                                    let go = go_data[orow + ox];
                                    wgrad += go * in_data[irow + ix as usize];
                                    gin_data[irow + ix as usize] += go * wv;
                                }
                            }
                            gw_data[w_base + kh * k + kw] += wgrad;
                        }
                    }
                }
            }
        }
    }
    Conv2dGrads {
        input: gin,
        weight: gw,
        bias: gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Shape, rng: &mut StdRng) -> Tensor {
        Tensor::from_fn(shape, |_, _, _, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let x = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32);
        let mut w = Tensor::zeros(Shape::new(1, 1, 3, 3));
        *w.at_mut(0, 0, 1, 1) = 1.0;
        let y = conv2d(&x, &w, None, 1, 1, 1);
        assert_eq!(y, x);
    }

    #[test]
    fn bias_is_added() {
        let x = Tensor::zeros(Shape::new(1, 1, 3, 3));
        let w = Tensor::zeros(Shape::new(2, 1, 1, 1));
        let y = conv2d(&x, &w, Some(&[1.5, -2.0]), 1, 0, 1);
        assert_eq!(y.at(0, 0, 2, 2), 1.5);
        assert_eq!(y.at(0, 1, 0, 0), -2.0);
    }

    #[test]
    fn matches_naive_generic() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(stride, pad, k) in &[(1usize, 1usize, 3usize), (2, 1, 3), (1, 0, 1), (2, 2, 5)] {
            let x = rand_tensor(Shape::new(2, 3, 9, 7), &mut rng);
            let w = rand_tensor(Shape::new(4, 3, k, k), &mut rng);
            let b: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fast = conv2d(&x, &w, Some(&b), stride, pad, 1);
            let slow = conv2d_naive(&x, &w, Some(&b), stride, pad, 1);
            assert!(
                fast.sub(&slow).max_abs() < 1e-4,
                "mismatch at stride={stride} pad={pad} k={k}"
            );
        }
    }

    #[test]
    fn matches_naive_depthwise_and_grouped() {
        let mut rng = StdRng::seed_from_u64(9);
        // depth-wise
        let x = rand_tensor(Shape::new(1, 6, 8, 8), &mut rng);
        let w = rand_tensor(Shape::new(6, 1, 3, 3), &mut rng);
        let fast = conv2d(&x, &w, None, 1, 1, 6);
        let slow = conv2d_naive(&x, &w, None, 1, 1, 6);
        assert!(fast.sub(&slow).max_abs() < 1e-4);
        // grouped, 2 groups
        let w2 = rand_tensor(Shape::new(4, 3, 3, 3), &mut rng);
        let fast2 = conv2d(&x, &w2, None, 2, 1, 2);
        let slow2 = conv2d_naive(&x, &w2, None, 2, 1, 2);
        assert!(fast2.sub(&slow2).max_abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_groups() {
        let x = Tensor::zeros(Shape::new(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::new(4, 1, 3, 3));
        conv2d(&x, &w, None, 1, 1, 2);
    }

    /// Finite-difference check of the backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = rand_tensor(Shape::new(1, 2, 5, 5), &mut rng);
        let w = rand_tensor(Shape::new(3, 2, 3, 3), &mut rng);
        let go = rand_tensor(Shape::new(1, 3, 3, 3), &mut rng); // stride 2, pad 1 -> 3x3
        let grads = conv2d_backward(&x, &w, &go, 2, 1, 1);

        let loss = |x: &Tensor, w: &Tensor| -> f32 { conv2d(x, w, None, 2, 1, 1).mul(&go).sum() };
        let eps = 1e-2;
        // spot-check a handful of input positions
        for &(c, h, ww) in &[(0usize, 0usize, 0usize), (1, 2, 3), (0, 4, 4)] {
            let mut xp = x.clone();
            *xp.at_mut(0, c, h, ww) += eps;
            let mut xm = x.clone();
            *xm.at_mut(0, c, h, ww) -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            let ana = grads.input.at(0, c, h, ww);
            assert!((num - ana).abs() < 1e-2, "input grad: num={num} ana={ana}");
        }
        // spot-check weight positions
        for &(oc, ic, kh, kw) in &[(0usize, 0usize, 0usize, 0usize), (2, 1, 2, 2), (1, 0, 1, 2)] {
            let mut wp = w.clone();
            *wp.at_mut(oc, ic, kh, kw) += eps;
            let mut wm = w.clone();
            *wm.at_mut(oc, ic, kh, kw) -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            let ana = grads.weight.at(oc, ic, kh, kw);
            assert!((num - ana).abs() < 1e-2, "weight grad: num={num} ana={ana}");
        }
    }

    #[test]
    fn backward_bias_sums_grad_out() {
        let x = Tensor::ones(Shape::new(2, 1, 4, 4));
        let w = Tensor::ones(Shape::new(1, 1, 3, 3));
        let go = Tensor::ones(Shape::new(2, 1, 4, 4));
        let grads = conv2d_backward(&x, &w, &go, 1, 1, 1);
        assert_eq!(grads.bias, vec![32.0]);
    }
}
