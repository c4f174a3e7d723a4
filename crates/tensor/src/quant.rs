//! Symmetric int8 quantisation, matching the 8-bit deployments of RITNet and
//! FBNet-C100 in the paper (Tables 2 and 3 report "(8-bit)" rows).
//!
//! Quantisation is *symmetric per-tensor*: `q = clamp(round(x / scale))`
//! with `scale = max|x| / 127`. Convolutions accumulate in `i32` exactly as
//! the accelerator's MAC lanes would, then rescale to `f32`.
//!
//! Two operator families live here:
//!
//! * f32-out ops ([`qconv2d`], [`qlinear`]) — integer accumulation with a
//!   single rescale back to f32, used at network *boundaries* and for
//!   fake-quantisation accuracy experiments;
//! * int8-out ops ([`qconv2d_requant`], [`qglobal_avg_pool`],
//!   [`requantize`]) — the deployed inference chain, where every layer
//!   consumes and produces int8 activations and the rescale between layers
//!   uses a *calibrated* output scale. These are what the int8
//!   `QuantizedGazeNet` backend in `eyecod-models` runs.
//!
//! The conv/linear inner loops dispatch to the AVX2 i8×i8→i32 kernels in
//! [`crate::simd`] when the host supports them (kill switch:
//! `EYECOD_NO_SIMD=1`). Integer accumulation is exactly associative, so the
//! SIMD paths are bit-identical to the scalar kernels, which stay available
//! as the retained differential baselines ([`qconv2d_reference`],
//! [`qconv2d_requant_reference`], [`qlinear_reference`]).
//!
//! Two invariants protect the integer arithmetic (see [`crate::simd`] for
//! the full analysis): every stored code lies in `[-127, 127]` (all
//! constructors clamp, −128 never occurs), and every reduction is at most
//! [`MAX_REDUCTION_DEPTH`] deep so `i32` accumulators cannot overflow.

use crate::ops::{check_conv_args, tap_span};
use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

pub use crate::simd::MAX_REDUCTION_DEPTH;

/// Smallest admissible activation scale. A dead (all-zero) calibration layer
/// would otherwise yield scale 0 and make every downstream division and
/// [`QTensor::quantize_with_scale`] assertion blow up; flooring keeps the
/// quantised value at exactly 0 for zero inputs while staying well inside
/// f32 normal range for every product of two scales.
pub const MIN_SCALE: f32 = 1e-12;

/// Converts an observed activation magnitude into a quantisation scale,
/// flooring degenerate (zero / denormal) observations at [`MIN_SCALE`].
///
/// # Panics
///
/// Panics if `max_abs` is negative or non-finite (a corrupted calibration
/// pass should fail loudly, not silently produce garbage scales).
pub fn calibration_scale(max_abs: f32) -> f32 {
    assert!(
        max_abs.is_finite() && max_abs >= 0.0,
        "calibration max|x| must be finite and non-negative, got {max_abs}"
    );
    (max_abs / 127.0).max(MIN_SCALE)
}

/// An int8-quantised tensor with its dequantisation scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    scale: f32,
    data: Vec<i8>,
}

impl QTensor {
    /// Quantises a tensor symmetrically to int8.
    ///
    /// A zero tensor gets scale 1.0 so dequantisation is well-defined.
    pub fn quantize(t: &Tensor) -> Self {
        let max = t.max_abs();
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        Self::quantize_with_scale(t, scale)
    }

    /// Quantises with an explicit scale (e.g. a calibration scale).
    /// Values outside the representable range saturate to ±127 rather than
    /// wrapping.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn quantize_with_scale(t: &Tensor, scale: f32) -> Self {
        let mut out = QTensor::scratch();
        Self::quantize_with_scale_into(t, scale, &mut out);
        out
    }

    /// Reconstructs the floating-point tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.shape,
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
    }

    /// The tensor shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The dequantisation scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw int8 values.
    pub fn as_i8(&self) -> &[i8] {
        &self.data
    }

    /// A 1-element placeholder for workspace buffers that will be
    /// overwritten by the `_into` operators ([`qconv2d_requant_into`],
    /// [`qglobal_avg_pool_into`], [`QTensor::quantize_with_scale_into`])
    /// before first use.
    pub fn scratch() -> Self {
        QTensor {
            shape: Shape::new(1, 1, 1, 1),
            scale: 1.0,
            data: vec![0],
        }
    }

    /// [`QTensor::quantize_with_scale`] writing into a caller-owned tensor:
    /// no allocation once `out`'s buffer has grown to the largest shape seen.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn quantize_with_scale_into(t: &Tensor, scale: f32, out: &mut QTensor) {
        assert!(scale > 0.0, "scale must be positive");
        assert_nonzero_extents("quantize_with_scale input", t.shape());
        out.shape = t.shape();
        out.scale = scale;
        out.data.clear();
        out.data.extend(
            t.as_slice()
                .iter()
                .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8),
        );
    }
}

/// Quantise-dequantise ("fake quantisation"): returns the f32 tensor the
/// int8 pipeline would effectively compute with. Used to evaluate 8-bit
/// accuracy in the Table 2/3 experiments without duplicating every operator.
pub fn fake_quantize(t: &Tensor) -> Tensor {
    QTensor::quantize(t).dequantize()
}

/// Rescales an int8 tensor to a new quantisation scale without a f32
/// round-trip of the whole tensor: `q' = clamp(round(q * s_old / s_new))`.
/// Needed wherever two int8 activations must share a scale (e.g. residual
/// adds, concatenation) or a layer boundary re-anchors the range.
///
/// # Panics
///
/// Panics if `out_scale <= 0`.
pub fn requantize(t: &QTensor, out_scale: f32) -> QTensor {
    assert!(out_scale > 0.0, "scale must be positive");
    let ratio = t.scale / out_scale;
    let data = t
        .data
        .iter()
        .map(|&q| (q as f32 * ratio).round().clamp(-127.0, 127.0) as i8)
        .collect();
    QTensor {
        shape: t.shape,
        scale: out_scale,
        data,
    }
}

/// Rejects degenerate shapes that bypassed [`Shape::new`]'s validation via
/// the public fields: a zero extent anywhere makes downstream arithmetic
/// divide by zero or fold `0 · inf` into NaN, so the quant ops fail loudly
/// instead.
fn assert_nonzero_extents(what: &str, s: Shape) {
    assert!(
        s.n > 0 && s.c > 0 && s.h > 0 && s.w > 0,
        "{what} must have non-zero extents, got {s}"
    );
}

/// Asserts the [`MAX_REDUCTION_DEPTH`] i32-overflow bound on a reduction of
/// `depth` i8×i8 products (see [`crate::simd`]).
fn assert_reduction_depth(what: &str, depth: usize) {
    assert!(
        depth <= MAX_REDUCTION_DEPTH,
        "{what} reduction depth {depth} exceeds MAX_REDUCTION_DEPTH \
         ({MAX_REDUCTION_DEPTH}): i32 accumulation of i8·i8 products could overflow"
    );
}

/// Integer conv accumulation shared by [`qconv2d`] and [`qconv2d_requant`]:
/// writes the raw `i32` accumulator plane into `acc` (resized to fit, no
/// allocation once warm) and returns the output shape — exactly what the
/// accelerator's MAC lanes produce (no bias, no rescale). `bias` is only
/// validated here, against the same geometry contract as
/// [`crate::ops::conv2d`].
///
/// Three loop nests, all exact (`i32` addition is associative, so none of
/// them can change an output value):
///
/// * **SIMD, generic and point-wise** (`use_simd`, not depth-wise): each
///   batch item and channel group is unrolled into an i8 im2col matrix in
///   `patches` (`positions × cols`, one output's receptive field per row,
///   in weight-row order; see [`qim2col_into`]), and every output is one
///   dot product of a patch row with a weight row, four output channels at
///   a time through the AVX2 [`simd::qdot4_i8`] tile that shares each
///   activation load.
/// * **Depth-wise** (`groups == C_in == C_out`): the single weight plane per
///   channel is sliced once and each tap streams along a contiguous input
///   row into a contiguous accumulator row, with the padding resolved once
///   per tap by [`tap_span`] — at unit stride through [`simd::qaxpy_i8`]
///   when `use_simd`. This is the §5.1 observation that depth-wise layers
///   need their own treatment, in miniature.
/// * **Scalar reference** (`!use_simd`, not depth-wise): the same tap
///   streaming as the depth-wise nest over every input channel of the
///   group, kept as the differential oracle of the im2col path.
#[allow(clippy::too_many_arguments)]
fn qconv_accumulate_into(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    acc: &mut Vec<i32>,
    patches: &mut Vec<i8>,
    use_simd: bool,
) -> Shape {
    let ishape = input.shape;
    let wshape = weight.shape;
    assert!(groups > 0, "conv groups must be non-zero");
    assert_nonzero_extents("qconv input", ishape);
    assert_nonzero_extents("qconv weight", wshape);
    let (cin_g, cout_g) = check_conv_args(ishape, wshape, bias, groups);
    let k = wshape.h;
    let oshape = ishape.conv_output(wshape.n, k, pad, stride);
    assert_reduction_depth("qconv", cin_g * k * k);
    acc.clear();
    acc.resize(oshape.len(), 0);
    let depthwise = groups == ishape.c && cin_g == 1 && cout_g == 1;
    if depthwise {
        // the tap update `row[lo..hi] += irow[lo+kw-pad..] · wv` is a
        // contiguous widening axpy only at unit stride; larger strides stay
        // scalar
        let axpy: fn(&mut [i32], &[i8], i32) = if use_simd && stride == 1 {
            simd::qaxpy_i8
        } else {
            simd::qaxpy_i8_scalar
        };
        for n in 0..oshape.n {
            for c in 0..oshape.c {
                let wplane = &weight.data[c * k * k..(c + 1) * k * k];
                for oy in 0..oshape.h {
                    let out_base = oshape.index(n, c, oy, 0);
                    let row = &mut acc[out_base..out_base + oshape.w];
                    for (kh, wrow) in wplane.chunks_exact(k).enumerate() {
                        let iy = (oy * stride + kh) as isize - pad as isize;
                        if iy < 0 || iy as usize >= ishape.h {
                            continue;
                        }
                        let in_base = ishape.index(n, c, iy as usize, 0);
                        let irow = &input.data[in_base..in_base + ishape.w];
                        for (kw, &wv) in wrow.iter().enumerate() {
                            let wv = wv as i32;
                            let (lo, hi) = tap_span(kw, pad, stride, ishape.w, oshape.w);
                            if lo >= hi {
                                continue;
                            }
                            if stride == 1 {
                                let s = lo + kw - pad;
                                axpy(&mut row[lo..hi], &irow[s..s + (hi - lo)], wv);
                            } else {
                                for ox in lo..hi {
                                    row[ox] += irow[ox * stride + kw - pad] as i32 * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    } else if use_simd {
        let positions = oshape.h * oshape.w;
        let cols = cin_g * k * k;
        for n in 0..oshape.n {
            for g in 0..groups {
                qim2col_into(input, n, g, cin_g, k, stride, pad, oshape, patches);
                let w_group = &weight.data[g * cout_g * cols..(g + 1) * cout_g * cols];
                let out_base = oshape.index(n, g * cout_g, 0, 0);
                let out_group = &mut acc[out_base..out_base + cout_g * positions];
                let tiles = w_group
                    .chunks(4 * cols)
                    .zip(out_group.chunks_mut(4 * positions));
                for (w_tile, out_tile) in tiles {
                    for (p, patch) in patches.chunks_exact(cols).enumerate() {
                        let mut rows = w_tile.chunks_exact(cols);
                        if w_tile.len() == 4 * cols {
                            let rows = std::array::from_fn(|_| rows.next().expect("4 rows"));
                            for (t, dot) in simd::qdot4_i8(patch, rows).into_iter().enumerate() {
                                out_tile[t * positions + p] = dot;
                            }
                        } else {
                            for (t, w_row) in rows.enumerate() {
                                out_tile[t * positions + p] = simd::qdot_i8(patch, w_row);
                            }
                        }
                    }
                }
            }
        }
    } else {
        for n in 0..oshape.n {
            for oc in 0..oshape.c {
                let g = oc / cout_g;
                for oy in 0..oshape.h {
                    let out_base = oshape.index(n, oc, oy, 0);
                    let row = &mut acc[out_base..out_base + oshape.w];
                    for icg in 0..cin_g {
                        let ic = g * cin_g + icg;
                        for kh in 0..k {
                            let iy = (oy * stride + kh) as isize - pad as isize;
                            if iy < 0 || iy as usize >= ishape.h {
                                continue;
                            }
                            let in_base = ishape.index(n, ic, iy as usize, 0);
                            let irow = &input.data[in_base..in_base + ishape.w];
                            let w_base = wshape.index(oc, icg, kh, 0);
                            let wrow = &weight.data[w_base..w_base + k];
                            for (kw, &wv) in wrow.iter().enumerate() {
                                let wv = wv as i32;
                                let (lo, hi) = tap_span(kw, pad, stride, ishape.w, oshape.w);
                                for ox in lo..hi {
                                    row[ox] += irow[ox * stride + kw - pad] as i32 * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    oshape
}

/// Unrolls the receptive fields of batch item `n`, channel group `g` into
/// `out` as a row-major `positions × cols` i8 matrix: row `oy · ow + ox`
/// holds the input codes under every tap `(icg, kh, kw)` of that output —
/// the order of a weight row, so each output is one contiguous dot product.
/// Padding taps stay at the zero the buffer is cleared to; the in-bounds
/// taps are filled with the padding resolved once per tap row and column
/// ([`tap_span`]).
#[allow(clippy::too_many_arguments)]
fn qim2col_into(
    input: &QTensor,
    n: usize,
    g: usize,
    cin_g: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oshape: Shape,
    out: &mut Vec<i8>,
) {
    let s = input.shape;
    let (oh, ow) = (oshape.h, oshape.w);
    let cols = cin_g * k * k;
    out.clear();
    out.resize(oh * ow * cols, 0);
    for icg in 0..cin_g {
        let base = s.index(n, g * cin_g + icg, 0, 0);
        let plane = &input.data[base..base + s.h * s.w];
        for kh in 0..k {
            let (y0, y1) = tap_span(kh, pad, stride, s.h, oh);
            for kw in 0..k {
                let (x0, x1) = tap_span(kw, pad, stride, s.w, ow);
                let c = (icg * k + kh) * k + kw;
                for oy in y0..y1 {
                    let irow = &plane[(oy * stride + kh - pad) * s.w..][..s.w];
                    for ox in x0..x1 {
                        out[(oy * ow + ox) * cols + c] = irow[ox * stride + kw - pad];
                    }
                }
            }
        }
    }
}

/// Allocating wrapper over [`qconv_accumulate_into`].
fn qconv_accumulate(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    use_simd: bool,
) -> (Shape, Vec<i32>) {
    let mut acc = Vec::new();
    let oshape = qconv_accumulate_into(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        &mut acc,
        &mut Vec::new(),
        use_simd,
    );
    (oshape, acc)
}

/// Int8 convolution with exact i32 accumulation, returning an f32 tensor
/// scaled by `input.scale * weight.scale`. Bias (f32) is added after
/// rescaling, as deployed int8 stacks do.
///
/// # Panics
///
/// Same geometry requirements as [`crate::ops::conv2d`].
pub fn qconv2d(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    qconv2d_impl(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        simd::avx2_enabled(),
    )
}

/// [`qconv2d`] forced onto the scalar inner kernels — the retained
/// differential baseline the SIMD dispatch is pinned against (bit-identical
/// by the exactness of i32 accumulation).
pub fn qconv2d_reference(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    qconv2d_impl(input, weight, bias, stride, pad, groups, false)
}

fn qconv2d_impl(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    use_simd: bool,
) -> Tensor {
    let rescale = input.scale * weight.scale;
    let (oshape, acc) = qconv_accumulate(input, weight, bias, stride, pad, groups, use_simd);
    let plane = oshape.h * oshape.w;
    let data = acc
        .chunks_exact(plane)
        .enumerate()
        .flat_map(|(i, acc_plane)| {
            let b = bias.map_or(0.0, |b| b[i % oshape.c]);
            acc_plane.iter().map(move |&a| a as f32 * rescale + b)
        })
        .collect();
    Tensor::from_vec(oshape, data)
}

/// Int8 convolution whose output *stays int8*: i32 accumulation, bias add
/// and optional fused ReLU in the accumulator domain, then requantisation to
/// the calibrated `out_scale`. This is one link of the deployed inference
/// chain — activations never widen to f32 between layers.
///
/// # Panics
///
/// Same geometry requirements as [`crate::ops::conv2d`]; panics if
/// `out_scale <= 0`.
#[allow(clippy::too_many_arguments)]
pub fn qconv2d_requant(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    relu: bool,
    out_scale: f32,
) -> QTensor {
    let mut out = QTensor::scratch();
    qconv2d_requant_into(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        relu,
        out_scale,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// [`qconv2d_requant`] writing into caller-owned buffers: `acc` holds the
/// i32 accumulator plane, `patches` the i8 im2col matrix of the SIMD path
/// and `out` the requantised activations. Once all three have grown to the
/// largest layer seen, a steady-state int8 forward pass through this op
/// allocates nothing.
///
/// # Panics
///
/// Same geometry requirements as [`crate::ops::conv2d`]; panics if
/// `out_scale <= 0`.
#[allow(clippy::too_many_arguments)]
pub fn qconv2d_requant_into(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    relu: bool,
    out_scale: f32,
    acc: &mut Vec<i32>,
    patches: &mut Vec<i8>,
    out: &mut QTensor,
) {
    qconv2d_requant_into_impl(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        relu,
        out_scale,
        acc,
        patches,
        out,
        simd::avx2_enabled(),
    );
}

/// [`qconv2d_requant`] forced onto the scalar inner kernels — the retained
/// differential baseline for the deployed int8 chain.
#[allow(clippy::too_many_arguments)]
pub fn qconv2d_requant_reference(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    relu: bool,
    out_scale: f32,
) -> QTensor {
    let mut out = QTensor::scratch();
    qconv2d_requant_into_impl(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        relu,
        out_scale,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut out,
        false,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn qconv2d_requant_into_impl(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    relu: bool,
    out_scale: f32,
    acc: &mut Vec<i32>,
    patches: &mut Vec<i8>,
    out: &mut QTensor,
    use_simd: bool,
) {
    assert!(out_scale > 0.0, "scale must be positive");
    let rescale = input.scale * weight.scale;
    let oshape = qconv_accumulate_into(
        input, weight, bias, stride, pad, groups, acc, patches, use_simd,
    );
    out.shape = oshape;
    out.scale = out_scale;
    out.data.clear();
    #[cfg(target_arch = "x86_64")]
    if use_simd && simd::avx2_enabled() {
        // SAFETY: avx2_enabled() returns true only on hosts with AVX2.
        unsafe { requant_avx2(acc, oshape, bias, rescale, relu, out_scale, &mut out.data) };
        return;
    }
    requant(acc, oshape, bias, rescale, relu, out_scale, &mut out.data);
}

/// The requantisation epilogue of [`qconv2d_requant`], appending to `out`:
/// per output, the rescaled accumulator plus the channel's bias, the fused
/// ReLU, then `(v / out_scale).round()` clamped to ±127. Outside an SSE4.1
/// target `f32::round` is a libm call per element; [`requant_avx2`] lowers
/// it inline, with the same result for every f32, exact halves (rounded
/// away from zero) included.
#[inline(always)]
fn requant(
    acc: &[i32],
    oshape: Shape,
    bias: Option<&[f32]>,
    rescale: f32,
    relu: bool,
    out_scale: f32,
    out: &mut Vec<i8>,
) {
    for (i, acc_plane) in acc.chunks_exact(oshape.h * oshape.w).enumerate() {
        let b = bias.map_or(0.0, |b| b[i % oshape.c]);
        out.extend(acc_plane.iter().map(|&a| {
            let mut v = a as f32 * rescale + b;
            if relu {
                v = v.max(0.0);
            }
            (v / out_scale).round().clamp(-127.0, 127.0) as i8
        }));
    }
}

/// AVX2 instantiation of [`requant`].
///
/// # Safety
///
/// The host must support AVX2, which [`qconv2d_requant_into`] checks via
/// [`simd::avx2_enabled`] before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_avx2(
    acc: &[i32],
    oshape: Shape,
    bias: Option<&[f32]>,
    rescale: f32,
    relu: bool,
    out_scale: f32,
    out: &mut Vec<i8>,
) {
    requant(acc, oshape, bias, rescale, relu, out_scale, out);
}

/// Int8 fully connected layer: `y = x · Wᵀ + b` with i32 accumulation and a
/// single rescale to f32 — the network-boundary op that produces the gaze
/// vector (regression heads stay f32 in deployed 8-bit stacks).
///
/// * `input`: `(N, C_in, 1, 1)` (or any shape whose item length is `C_in`)
/// * `weight`: `(C_out, C_in, 1, 1)`
///
/// # Panics
///
/// Panics if the flattened input item length does not match `C_in`, or the
/// bias length does not match `C_out`.
pub fn qlinear(input: &QTensor, weight: &QTensor, bias: Option<&[f32]>) -> Tensor {
    let mut out = Tensor::zeros(Shape::vector(1, 1));
    qlinear_into(input, weight, bias, &mut out);
    out
}

/// [`qlinear`] writing into a caller-owned tensor (allocation-free once the
/// output buffer is warm).
///
/// # Panics
///
/// Same requirements as [`qlinear`].
pub fn qlinear_into(input: &QTensor, weight: &QTensor, bias: Option<&[f32]>, out: &mut Tensor) {
    qlinear_into_impl(input, weight, bias, out, simd::avx2_enabled());
}

/// [`qlinear`] forced onto the scalar dot kernel — the retained
/// differential baseline for the gaze head.
pub fn qlinear_reference(input: &QTensor, weight: &QTensor, bias: Option<&[f32]>) -> Tensor {
    let mut out = Tensor::zeros(Shape::vector(1, 1));
    qlinear_into_impl(input, weight, bias, &mut out, false);
    out
}

/// The shared `qlinear` body. With `use_simd` the inner dot products run the
/// AVX2 sign-split `maddubs` kernel ([`simd::qdot_i8`]) over a 4-output-row
/// register tile ([`simd::qdot4_i8`]) that shares every activation load;
/// i32 accumulation keeps both paths bit-identical.
fn qlinear_into_impl(
    input: &QTensor,
    weight: &QTensor,
    bias: Option<&[f32]>,
    out: &mut Tensor,
    use_simd: bool,
) {
    assert_nonzero_extents("qlinear input", input.shape);
    assert_nonzero_extents("qlinear weight", weight.shape);
    let n = input.shape.n;
    let cin = input.shape.len() / n;
    let cout = weight.shape.n;
    assert_eq!(
        weight.shape.len() / cout,
        cin,
        "qlinear weight expects {} inputs, got {cin}",
        weight.shape.len() / cout
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), cout, "bias length must equal output features");
    }
    assert_reduction_depth("qlinear", cin);
    let rescale = input.scale * weight.scale;
    out.reset(Shape::vector(n, cout));
    let o = out.as_mut_slice();
    let wrow = |j: usize| &weight.data[j * cin..(j + 1) * cin];
    for i in 0..n {
        let xrow = &input.data[i * cin..(i + 1) * cin];
        let orow = &mut o[i * cout..(i + 1) * cout];
        let mut j = 0;
        if use_simd {
            while j + 4 <= cout {
                let dots = simd::qdot4_i8(xrow, [wrow(j), wrow(j + 1), wrow(j + 2), wrow(j + 3)]);
                for (t, &d) in dots.iter().enumerate() {
                    orow[j + t] = d as f32 * rescale + bias.map_or(0.0, |b| b[j + t]);
                }
                j += 4;
            }
        }
        let dot: fn(&[i8], &[i8]) -> i32 = if use_simd {
            simd::qdot_i8
        } else {
            simd::qdot_i8_scalar
        };
        for (jj, ov) in orow.iter_mut().enumerate().skip(j) {
            *ov = dot(xrow, wrow(jj)) as f32 * rescale + bias.map_or(0.0, |b| b[jj]);
        }
    }
}

/// Global average pooling over int8 activations: per-channel i32 sum,
/// rounded division by the plane size, output in the *same* scale as the
/// input (the mean of int8 values always fits back into int8).
pub fn qglobal_avg_pool(input: &QTensor) -> QTensor {
    let mut out = QTensor::scratch();
    qglobal_avg_pool_into(input, &mut out);
    out
}

/// [`qglobal_avg_pool`] writing into a caller-owned tensor (allocation-free
/// once the output buffer is warm).
///
/// # Panics
///
/// Panics on degenerate extents. A zero-area plane in particular used to
/// slip through silently: `sum · (1/0) = 0 · inf = NaN`, and `NaN as i8`
/// saturates to 0, so a malformed shape produced an all-zero pool instead
/// of an error. Also rejects planes deeper than the i32 sum can hold.
pub fn qglobal_avg_pool_into(input: &QTensor, out: &mut QTensor) {
    let s = input.shape;
    assert_nonzero_extents("qglobal_avg_pool input", s);
    let plane = s.h * s.w;
    assert!(
        plane as u64 * 127 <= i32::MAX as u64,
        "qglobal_avg_pool plane {plane} too large: i32 sum of i8 values could overflow"
    );
    let inv = 1.0 / plane as f32;
    out.shape = Shape::vector(s.n, s.c);
    out.scale = input.scale;
    out.data.clear();
    out.data.reserve(s.n * s.c);
    for n in 0..s.n {
        for c in 0..s.c {
            let base = s.index(n, c, 0, 0);
            let sum: i32 = input.data[base..base + plane]
                .iter()
                .map(|&q| q as i32)
                .sum();
            out.data
                .push((sum as f32 * inv).round().clamp(-127.0, 127.0) as i8);
        }
    }
}

/// Root-mean-square quantisation error of round-tripping `t` through int8.
pub fn quantization_rmse(t: &Tensor) -> f32 {
    let q = fake_quantize(t);
    let diff = t.sub(&q);
    (diff.mul(&diff).mean()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::from_fn(Shape::new(1, 4, 8, 8), |_, _, _, _| {
            rng.gen_range(-2.0..2.0)
        });
        let q = QTensor::quantize(&t);
        let err = t.sub(&q.dequantize()).max_abs();
        assert!(
            err <= q.scale() * 0.5 + 1e-6,
            "err {err} scale {}",
            q.scale()
        );
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros(Shape::vector(1, 8));
        let q = QTensor::quantize(&t);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn extremes_map_to_full_range() {
        let t = Tensor::from_vec(Shape::vector(1, 2), vec![-5.0, 5.0]);
        let q = QTensor::quantize(&t);
        assert_eq!(q.as_i8(), &[-127, 127]);
    }

    #[test]
    fn qconv_close_to_float_conv() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::from_fn(Shape::new(1, 3, 8, 8), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let w = Tensor::from_fn(Shape::new(4, 3, 3, 3), |_, _, _, _| {
            rng.gen_range(-0.5..0.5)
        });
        let b: Vec<f32> = (0..4).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let float = ops::conv2d(&x, &w, Some(&b), 1, 1, 1);
        let q = qconv2d(
            &QTensor::quantize(&x),
            &QTensor::quantize(&w),
            Some(&b),
            1,
            1,
            1,
        );
        // relative error bounded by quantisation granularity
        let err = float.sub(&q).max_abs();
        assert!(err < 0.15, "int8 conv error too large: {err}");
    }

    #[test]
    fn qconv_depthwise_matches_shape() {
        let x = QTensor::quantize(&Tensor::ones(Shape::new(1, 4, 6, 6)));
        let w = QTensor::quantize(&Tensor::ones(Shape::new(4, 1, 3, 3)));
        let y = qconv2d(&x, &w, None, 1, 1, 4);
        assert_eq!(y.shape().dims(), (1, 4, 6, 6));
        assert!((y.at(0, 0, 1, 1) - 9.0).abs() < 0.1);
    }

    #[test]
    fn depthwise_fast_path_matches_grouped_general_path() {
        // depth-wise via the fast path must equal a 2-group convolution of
        // the same geometry evaluated channel-pair-wise through the general
        // path; easiest exact check: compare against the f32 reference conv
        // on the dequantised operands (identical integer arithmetic).
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::from_fn(Shape::new(2, 6, 7, 5), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let w = Tensor::from_fn(Shape::new(6, 1, 3, 3), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let qx = QTensor::quantize(&x);
        let qw = QTensor::quantize(&w);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let fast = qconv2d(&qx, &qw, None, stride, pad, 6);
            let reference = ops::conv2d(&qx.dequantize(), &qw.dequantize(), None, stride, pad, 6);
            assert!(
                fast.sub(&reference).max_abs() < 1e-3,
                "fast path diverged at stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn requant_conv_matches_f32_out_conv_within_one_step() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::from_fn(Shape::new(1, 3, 6, 6), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let w = Tensor::from_fn(Shape::new(4, 3, 3, 3), |_, _, _, _| {
            rng.gen_range(-0.5..0.5)
        });
        let qx = QTensor::quantize(&x);
        let qw = QTensor::quantize(&w);
        let f32_out = qconv2d(&qx, &qw, None, 1, 1, 1);
        let out_scale = calibration_scale(f32_out.max_abs());
        let q_out = qconv2d_requant(&qx, &qw, None, 1, 1, 1, false, out_scale);
        assert_eq!(q_out.scale(), out_scale);
        let err = f32_out.sub(&q_out.dequantize()).max_abs();
        assert!(
            err <= out_scale * 0.5 + 1e-6,
            "requantised conv strayed more than half a step: {err}"
        );
    }

    #[test]
    fn requant_conv_fused_relu_clamps_negative_accumulations() {
        // an all-negative weight on an all-positive input accumulates
        // strictly negative values; fused ReLU must zero every output
        let x = QTensor::quantize(&Tensor::ones(Shape::new(1, 2, 4, 4)));
        let w = QTensor::quantize(&Tensor::from_fn(Shape::new(2, 2, 3, 3), |_, _, _, _| -0.5));
        let y = qconv2d_requant(&x, &w, None, 1, 1, 1, true, 0.1);
        assert!(y.as_i8().iter().all(|&q| q == 0), "ReLU must clamp to zero");
        let y_no_relu = qconv2d_requant(&x, &w, None, 1, 1, 1, false, 0.1);
        assert!(y_no_relu.as_i8().iter().any(|&q| q < 0));
    }

    #[test]
    fn qlinear_matches_float_linear() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::from_fn(Shape::vector(2, 16), |_, _, _, _| rng.gen_range(-1.0..1.0));
        let w = Tensor::from_fn(Shape::vector(3, 16), |_, _, _, _| rng.gen_range(-0.5..0.5));
        let b: Vec<f32> = (0..3).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let float = ops::linear(&x, &w, Some(&b));
        let q = qlinear(&QTensor::quantize(&x), &QTensor::quantize(&w), Some(&b));
        assert_eq!(q.shape().dims(), (2, 3, 1, 1));
        assert!(float.sub(&q).max_abs() < 0.1);
    }

    #[test]
    fn qglobal_avg_pool_matches_float_pool_within_one_step() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::from_fn(Shape::new(2, 3, 5, 5), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let qx = QTensor::quantize(&x);
        let pooled = qglobal_avg_pool(&qx);
        assert_eq!(pooled.shape().dims(), (2, 3, 1, 1));
        assert_eq!(pooled.scale(), qx.scale());
        let float = ops::global_avg_pool(&qx.dequantize());
        let err = float.sub(&pooled.dequantize()).max_abs();
        assert!(err <= qx.scale() * 0.5 + 1e-6, "pooled err {err}");
    }

    #[test]
    fn requantize_rescales_and_saturates() {
        let t = Tensor::from_vec(Shape::vector(1, 3), vec![-1.0, 0.5, 1.0]);
        let q = QTensor::quantize(&t); // scale 1/127
                                       // doubling the scale halves the codes
        let wider = requantize(&q, q.scale() * 2.0);
        assert_eq!(wider.as_i8(), &[-64, 32, 64]);
        // shrinking the scale 4x would need codes beyond ±127: saturate
        let narrower = requantize(&q, q.scale() / 4.0);
        assert_eq!(narrower.as_i8(), &[-127, 127, 127]);
    }

    #[test]
    fn calibration_scale_floors_dead_layers() {
        assert_eq!(calibration_scale(0.0), MIN_SCALE);
        assert!(calibration_scale(127.0) > 0.99);
        // the floored scale still quantises a zero tensor without panicking
        let z = Tensor::zeros(Shape::vector(1, 4));
        let q = QTensor::quantize_with_scale(&z, calibration_scale(0.0));
        assert!(q.as_i8().iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn calibration_scale_rejects_nan() {
        calibration_scale(f32::NAN);
    }

    #[test]
    fn quantization_rmse_small_for_smooth_tensors() {
        let t = Tensor::from_fn(Shape::new(1, 1, 16, 16), |_, _, h, w| {
            ((h as f32) / 16.0) - ((w as f32) / 16.0)
        });
        assert!(quantization_rmse(&t) < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn explicit_scale_must_be_positive() {
        QTensor::quantize_with_scale(&Tensor::zeros(Shape::vector(1, 1)), 0.0);
    }

    #[test]
    fn requant_into_matches_and_reuses_buffers_across_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut acc = Vec::new();
        let mut patches = Vec::new();
        let mut out = QTensor::scratch();
        // grouped, strided no-pad, and depth-wise geometries through the
        // same accumulator, patch and output buffers, twice each
        let geoms = [
            (6usize, 4usize, 9usize, 1usize, 1usize, 2usize),
            (4, 4, 6, 2, 0, 1),
            (5, 5, 7, 1, 1, 5),
        ];
        for _round in 0..2 {
            for &(ci, co, hw, stride, pad, groups) in &geoms {
                let x = Tensor::from_fn(Shape::new(2, ci, hw, hw), |_, _, _, _| {
                    rng.gen_range(-1.0..1.0)
                });
                let w = Tensor::from_fn(Shape::new(co, ci / groups, 3, 3), |_, _, _, _| {
                    rng.gen_range(-0.5..0.5)
                });
                let b: Vec<f32> = (0..co).map(|_| rng.gen_range(-0.1..0.1)).collect();
                let qx = QTensor::quantize(&x);
                let qw = QTensor::quantize(&w);
                let want = qconv2d_requant(&qx, &qw, Some(&b), stride, pad, groups, true, 0.05);
                qconv2d_requant_into(
                    &qx,
                    &qw,
                    Some(&b),
                    stride,
                    pad,
                    groups,
                    true,
                    0.05,
                    &mut acc,
                    &mut patches,
                    &mut out,
                );
                assert_eq!(
                    out, want,
                    "geometry ({ci},{co},{hw},{stride},{pad},{groups})"
                );
            }
        }
    }

    #[test]
    fn pool_linear_and_quantize_into_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(19);
        let x = Tensor::from_fn(Shape::new(2, 3, 5, 5), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let qx = QTensor::quantize(&x);
        let mut pooled = QTensor::scratch();
        qglobal_avg_pool_into(&qx, &mut pooled);
        assert_eq!(pooled, qglobal_avg_pool(&qx));

        let w = Tensor::from_fn(Shape::vector(4, 3), |_, _, _, _| rng.gen_range(-0.5..0.5));
        let qw = QTensor::quantize(&w);
        let b: Vec<f32> = (0..4).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let mut fc = Tensor::zeros(Shape::vector(1, 1));
        qlinear_into(&pooled, &qw, Some(&b), &mut fc);
        assert_eq!(fc.as_slice(), qlinear(&pooled, &qw, Some(&b)).as_slice());

        let mut q = QTensor::scratch();
        QTensor::quantize_with_scale_into(&x, 0.01, &mut q);
        assert_eq!(q, QTensor::quantize_with_scale(&x, 0.01));
    }

    /// A QTensor whose shape bypassed [`Shape::new`]'s validation through
    /// the public fields — the degenerate-shape hole the quant ops must
    /// reject loudly.
    fn degenerate_qtensor(n: usize, c: usize, h: usize, w: usize) -> QTensor {
        let shape = Shape { n, c, h, w };
        let t = Tensor::from_vec(shape, vec![0.5; n * c * h * w]);
        // bypass quantize_with_scale_into's own validation by patching the
        // shape after a legal quantisation
        let mut q = QTensor::quantize(&Tensor::from_vec(
            Shape::new(1, 1, 1, (n * c * h * w).max(1)),
            t.as_slice()
                .to_vec()
                .into_iter()
                .chain([0.0])
                .take((n * c * h * w).max(1))
                .collect(),
        ));
        q.shape = shape;
        q.data.truncate(n * c * h * w);
        q
    }

    #[test]
    #[should_panic(expected = "non-zero extents")]
    fn pool_rejects_zero_area_plane_instead_of_nan_zero() {
        // regression: h=0 made `plane == 0`, so `0 · inf = NaN`, and
        // `NaN as i8` silently became 0 — now it panics with a clear message
        let q = degenerate_qtensor(1, 3, 0, 4);
        let mut out = QTensor::scratch();
        qglobal_avg_pool_into(&q, &mut out);
    }

    #[test]
    #[should_panic(expected = "non-zero extents")]
    fn qlinear_rejects_zero_batch() {
        let q = degenerate_qtensor(0, 4, 1, 1);
        let w = QTensor::quantize(&Tensor::ones(Shape::vector(2, 4)));
        qlinear(&q, &w, None);
    }

    #[test]
    #[should_panic(expected = "non-zero extents")]
    fn qconv_rejects_zero_extent_input() {
        let q = degenerate_qtensor(1, 0, 4, 4);
        let w = QTensor::quantize(&Tensor::ones(Shape::new(2, 1, 3, 3)));
        qconv2d(&q, &w, None, 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "groups must be non-zero")]
    fn qconv_rejects_zero_groups() {
        let q = QTensor::quantize(&Tensor::ones(Shape::new(1, 2, 4, 4)));
        let w = QTensor::quantize(&Tensor::ones(Shape::new(2, 2, 3, 3)));
        qconv2d(&q, &w, None, 1, 1, 0);
    }

    /// Regression: with `C_in = 5`, `groups = 2` the old check only compared
    /// `weight.c` with `C_in / groups` (2 == 5 / 2), so the int8 ops returned
    /// a result that silently ignored channel 4.
    fn indivisible_input_channels() -> (QTensor, QTensor) {
        let x = QTensor::quantize(&Tensor::ones(Shape::new(2, 5, 4, 4)));
        let w = QTensor::quantize(&Tensor::ones(Shape::new(4, 2, 3, 3)));
        (x, w)
    }

    /// Regression: 5 output channels over 2 groups used to panic on an
    /// out-of-range index instead of naming the broken contract.
    fn indivisible_output_channels() -> (QTensor, QTensor) {
        let x = QTensor::quantize(&Tensor::ones(Shape::new(2, 4, 4, 4)));
        let w = QTensor::quantize(&Tensor::ones(Shape::new(5, 2, 3, 3)));
        (x, w)
    }

    #[test]
    #[should_panic(expected = "input channels 5 not divisible by groups 2")]
    fn qconv_rejects_input_channels_groups_do_not_divide() {
        let (x, w) = indivisible_input_channels();
        qconv2d(&x, &w, None, 1, 1, 2);
    }

    #[test]
    #[should_panic(expected = "input channels 5 not divisible by groups 2")]
    fn qconv_requant_rejects_input_channels_groups_do_not_divide() {
        let (x, w) = indivisible_input_channels();
        qconv2d_requant(&x, &w, None, 1, 1, 2, true, 0.1);
    }

    #[test]
    #[should_panic(expected = "output channels 5 not divisible by groups 2")]
    fn qconv_rejects_output_channels_groups_do_not_divide() {
        let (x, w) = indivisible_output_channels();
        qconv2d(&x, &w, None, 1, 1, 2);
    }

    #[test]
    #[should_panic(expected = "output channels 5 not divisible by groups 2")]
    fn qconv_requant_rejects_output_channels_groups_do_not_divide() {
        let (x, w) = indivisible_output_channels();
        qconv2d_requant_reference(&x, &w, None, 1, 1, 2, true, 0.1);
    }

    #[test]
    #[should_panic(expected = "bias length must equal output channels")]
    fn qconv_rejects_short_bias() {
        let x = QTensor::quantize(&Tensor::ones(Shape::new(1, 2, 4, 4)));
        let w = QTensor::quantize(&Tensor::ones(Shape::new(3, 2, 3, 3)));
        qconv2d(&x, &w, Some(&[0.5, 0.5]), 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero extents")]
    fn quantize_into_rejects_degenerate_shapes() {
        let t = Tensor::from_vec(
            Shape {
                n: 1,
                c: 2,
                h: 0,
                w: 4,
            },
            vec![],
        );
        let mut q = QTensor::scratch();
        QTensor::quantize_with_scale_into(&t, 0.1, &mut q);
    }

    #[test]
    #[should_panic(expected = "MAX_REDUCTION_DEPTH")]
    fn qlinear_rejects_overflowable_reduction_depth() {
        // K = MAX_REDUCTION_DEPTH + 1 all-(±127) products would overflow the
        // i32 accumulator; the bound must trip before any arithmetic runs
        let k = MAX_REDUCTION_DEPTH + 1;
        let x = QTensor::quantize(&Tensor::full(Shape::new(1, 1, 1, k), 1.0));
        let w = QTensor::quantize(&Tensor::full(Shape::new(1, 1, 1, k), 1.0));
        qlinear(&x, &w, None);
    }

    #[test]
    fn simd_and_reference_paths_are_bit_identical_here_too() {
        // the full proptest suite lives in tests/simd_bit_equality.rs; this
        // inline check keeps the contract visible next to the kernels
        let mut rng = StdRng::seed_from_u64(23);
        let x = Tensor::from_fn(Shape::new(1, 3, 9, 17), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let w = Tensor::from_fn(Shape::new(4, 3, 3, 3), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let (qx, qw) = (QTensor::quantize(&x), QTensor::quantize(&w));
        let a = qconv2d(&qx, &qw, None, 1, 1, 1);
        let b = qconv2d_reference(&qx, &qw, None, 1, 1, 1);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
