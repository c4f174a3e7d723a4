//! 2-D convolution (generic, point-wise and depth-wise via `groups`).

use crate::shape::Shape;
use crate::simd::{self, Level};
use crate::tensor::Tensor;

/// Validates convolution arguments and returns `(c_in_per_group,
/// c_out_per_group)` — the one geometry contract every convolution kernel in
/// the crate (position tile, channel tile, int8) enforces.
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
/// inner loops of the backward and int8 convolution kernels run
/// branch-free over contiguous rows.
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

/// Output channels per register tile of [`conv2d`]'s portable and AVX2
/// instantiations, and of every instantiation's remainder tiles.
const MR: usize = 4;
/// Output positions per register tile of [`conv2d`]'s portable and AVX2
/// instantiations — two AVX2 vectors of f32.
const NR: usize = 16;
/// Output channels per register tile of [`conv2d`]'s AVX-512
/// instantiation: with [`NR_AVX512`], 16 zmm accumulators, half the
/// register file.
const MR_AVX512: usize = 8;
/// Output positions per register tile of [`conv2d`]'s AVX-512
/// instantiation — two zmm of f32.
const NR_AVX512: usize = 32;
/// The widest position tile of any instantiation: the zero slack after
/// each phase plane that keeps the last tile's loads in bounds.
const NR_MAX: usize = if NR > NR_AVX512 { NR } else { NR_AVX512 };

/// 2-D convolution with square kernels, symmetric zero padding and groups.
///
/// * `input`: `(N, C_in, H, W)`
/// * `weight`: `(C_out, C_in / groups, K, K)`
/// * `bias`: optional, length `C_out`
/// * `groups == 1` is a generic convolution, `groups == C_in == C_out` is a
///   depth-wise convolution, and `K == 1, groups == 1` is point-wise.
///
/// Every output element accumulates from `+0.0` over **all** its `C_in/g ·
/// K²` taps in ascending `(c_in, kh, kw)` order, one IEEE multiply then one
/// add per tap (padding taps add `w · 0`), and gets its bias added last
/// when the bias is non-zero. The per-element oracle [`conv2d_naive`]
/// skips padding and zero-weight taps instead; for finite operands the two
/// agree bit for bit, because such a tap adds a signed zero, which leaves
/// any non-zero sum unchanged and leaves `+0.0` at `+0.0` — a sum that
/// starts at `+0.0` never becomes `−0.0` under round-to-nearest. (A
/// non-finite input under a zero weight would turn `0 · ∞` into NaN; the
/// frame path sanitises images before segmentation and training feeds
/// finite values.)
///
/// The kernel is a register-tiled direct convolution: each input channel of
/// a group is copied once into a zero-padded plane — split into `stride²`
/// phase planes at stride > 1 — so every tap of a tile of consecutive
/// output positions (laid out at the padded plane's width) is one
/// contiguous load at a fixed offset, and an `M × N` accumulator tile
/// stays in registers across all taps. The loops are instantiated once per
/// SIMD tier and dispatched by [`crate::simd::level`]: plain and under
/// `#[target_feature(enable = "avx2")]` the tile is `M` = 4 output
/// channels of one group by `N` = 16 positions, under `avx512f` 8 by 32;
/// the channels left over, and depth-wise layers, take tiles of 4 or
/// fewer. Rust never contracts `a * b + c` into an FMA, so every
/// instantiation produces the same bits.
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
    let mut scratch = Vec::new();
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    conv2d_into(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        &mut scratch,
        &mut out,
    );
    out
}

/// [`conv2d`] through a caller-owned phase-plane buffer and output tensor:
/// with warm buffers the convolution performs no heap allocation. Same
/// per-element sequence as [`conv2d`] — from `+0.0`, every tap in ascending
/// `(c_in, kh, kw)` order, padding included, one multiply then one add, the
/// bias added last when non-zero — so it is bitwise equal to [`conv2d`],
/// and for finite operands to [`conv2d_naive`]: the taps the oracle skips
/// add a signed zero, which a sum starting at `+0.0` absorbs.
///
/// # Panics
///
/// Panics under the same conditions as [`conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    scratch: &mut Vec<f32>,
    out: &mut Tensor,
) {
    conv2d_into_at(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        scratch,
        out,
        simd::level(),
    );
}

/// [`conv2d_into`] on one named SIMD tier instead of the dispatched one —
/// how the tests and benchmarks hold every tier the host supports against
/// the others. Every tier produces the same bits.
///
/// # Panics
///
/// Panics under the same conditions as [`conv2d`], or if the host does not
/// support `level`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into_at(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    scratch: &mut Vec<f32>,
    out: &mut Tensor,
    level: Level,
) {
    let wshape = weight.shape();
    check_conv_args(input.shape(), wshape, bias, groups);
    level.assert_supported();
    out.reset(input.shape().conv_output(wshape.n, wshape.h, pad, stride));
    match level {
        // SAFETY (both arms): `level` passed the support check above.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe {
            conv2d_avx512(input, weight, bias, stride, pad, groups, scratch, out)
        },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe {
            conv2d_avx2(input, weight, bias, stride, pad, groups, scratch, out)
        },
        _ => conv2d_body::<MR, NR>(input, weight, bias, stride, pad, groups, scratch, out),
    }
}

/// The phase-plane geometry of one convolution: the padded input `(H + 2p)
/// × (W + 2p)` split by stride `s` into `s²` planes of `ph × pw` (phase
/// `(a, b)` holds padded rows `a, a + s, …` and columns `b, b + s, …`),
/// each followed by [`NR_MAX`] zeros of slack so the last tile's loads
/// stay in bounds. Output position `(oy, ox)` lives at `q = oy · pw + ox`,
/// and tap `(kh, kw)` reads phase `(kh mod s, kw mod s)` at `q + (kh / s) ·
/// pw + kw / s`. The channel tile (`super::packed`) uses the stride-1 layout,
/// one zero-padded plane per channel, and applies the stride to its
/// position offsets instead.
#[derive(Clone, Copy)]
pub(super) struct PhaseGeom {
    stride: usize,
    pad: usize,
    pub(super) pw: usize,
    plane: usize,
}

impl PhaseGeom {
    pub(super) fn new(ishape: Shape, stride: usize, pad: usize) -> Self {
        let pw = (ishape.w + 2 * pad).div_ceil(stride);
        let ph = (ishape.h + 2 * pad).div_ceil(stride);
        PhaseGeom {
            stride,
            pad,
            pw,
            plane: ph * pw + NR_MAX,
        }
    }

    /// Floats per input channel: its `s²` phase planes.
    pub(super) fn channel_len(self) -> usize {
        self.stride * self.stride * self.plane
    }

    /// Copies input channels `c0..c0 + cin` of batch item `n` into
    /// `planes` as zero-padded phase planes, one channel after another.
    pub(super) fn fill(
        self,
        input: &Tensor,
        n: usize,
        c0: usize,
        cin: usize,
        planes: &mut Vec<f32>,
    ) {
        let (s, pad, pw) = (self.stride, self.pad, self.pw);
        let w = input.shape().w;
        planes.clear();
        planes.resize(cin * self.channel_len(), 0.0);
        for c in 0..cin {
            let src = input.channel_plane(n, c0 + c);
            let chan = &mut planes[c * self.channel_len()..][..self.channel_len()];
            for (iy, srow) in src.chunks_exact(w).enumerate() {
                let py = iy + pad;
                let row = &mut chan[(py % s) * s * self.plane + (py / s) * pw..];
                if s == 1 {
                    row[pad..pad + w].copy_from_slice(srow);
                    continue;
                }
                for b in 0..s {
                    // the first phase-`b` column `cx · s + b` past the
                    // left padding, and the input column it holds
                    let cx = if pad > b { (pad - b).div_ceil(s) } else { 0 };
                    let ix = cx * s + b - pad;
                    if ix >= w {
                        continue;
                    }
                    let dst = &mut row[b * self.plane + cx..];
                    for (d, &v) in dst.iter_mut().zip(srow[ix..].iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// The operands of one channel group's tiled convolution: its phase
/// planes, its `(c_out/g × c_in/g · k²)` weight panel and bias slice, and
/// the output geometry.
#[derive(Clone, Copy)]
struct GroupConv<'a> {
    planes: &'a [f32],
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    geom: PhaseGeom,
    cin: usize,
    k: usize,
    oh: usize,
    ow: usize,
}

impl GroupConv<'_> {
    /// Every tile of the group, position tiles outermost: one tile's taps
    /// stay in L1 while every output channel of the group consumes them.
    /// A tile is `MRT` output channels by `NRT` positions; the channels
    /// left over take tiles of [`MR`] or fewer. `S` is the stride when it
    /// is 1 or 2 — the strides the networks run, whose tap offsets then
    /// fold to shifts — and 0 otherwise.
    #[inline(always)]
    fn run<const MRT: usize, const NRT: usize, const S: usize>(self, out: &mut [f32]) {
        let cout = self.w.len() / (self.cin * self.k * self.k);
        let positions = (self.oh - 1) * self.geom.pw + self.ow;
        for q0 in (0..positions).step_by(NRT) {
            let mut oc = 0;
            while oc < cout {
                let mr = if cout - oc >= MRT {
                    MRT
                } else {
                    MR.min(cout - oc)
                };
                match (mr, self.k) {
                    (m, 3) if m == MRT => self.tile::<MRT, NRT, S, 3>(oc, q0, out),
                    (m, _) if m == MRT => self.tile::<MRT, NRT, S, 0>(oc, q0, out),
                    (4, 3) => self.tile::<4, NRT, S, 3>(oc, q0, out),
                    (3, 3) => self.tile::<3, NRT, S, 3>(oc, q0, out),
                    (2, 3) => self.tile::<2, NRT, S, 3>(oc, q0, out),
                    (_, 3) => self.tile::<1, NRT, S, 3>(oc, q0, out),
                    (4, _) => self.tile::<4, NRT, S, 0>(oc, q0, out),
                    (3, _) => self.tile::<3, NRT, S, 0>(oc, q0, out),
                    (2, _) => self.tile::<2, NRT, S, 0>(oc, q0, out),
                    _ => self.tile::<1, NRT, S, 0>(oc, q0, out),
                }
                oc += mr;
            }
        }
    }

    /// One `M × NRT` register tile: output channels `oc..oc + M` at the
    /// `NRT` phase-width positions from `q0`. Accumulators start at `+0.0`
    /// and add one `w · x` product per tap in ascending `(c, kh, kw)` order;
    /// the bias follows when non-zero. Only positions inside the output
    /// plane are stored; the others ran on padding or slack.
    // indexed fixed-trip loops are the form LLVM unrolls into the tile
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn tile<const M: usize, const NRT: usize, const S: usize, const K: usize>(
        self,
        oc: usize,
        q0: usize,
        out: &mut [f32],
    ) {
        let GroupConv {
            planes,
            geom,
            oh,
            ow,
            ..
        } = self;
        let s = if S == 0 { geom.stride } else { S };
        let k = if K == 0 { self.k } else { K };
        let (pw, plane) = (geom.pw, geom.plane);
        let taps = self.cin * k * k;
        let w: [&[f32]; M] = std::array::from_fn(|i| &self.w[(oc + i) * taps..][..taps]);
        // tap column `kw` sits in phase plane `kw mod s` at column `kw / s`
        // of its row; one row's taps span this many floats
        let col = |kw: usize| (kw % s) * plane + kw / s;
        let span = (s.min(k) - 1) * plane + (k - 1) / s + NRT;
        let mut acc = [[0.0f32; NRT]; M];
        for c in 0..self.cin {
            let chan = q0 + c * geom.channel_len();
            for kh in 0..k {
                let xs = &planes[chan + (kh % s) * s * plane + (kh / s) * pw..][..span];
                let wk: [&[f32]; M] = std::array::from_fn(|i| &w[i][(c * k + kh) * k..][..k]);
                for kw in 0..k {
                    let off = col(kw);
                    let x: [f32; NRT] = xs[off..off + NRT].try_into().expect("NRT-wide slice");
                    // fixed-trip indexed loops over the tile: one
                    // broadcast, one vector mul and one vector add per row
                    for i in 0..M {
                        let wv = wk[i][kw];
                        for j in 0..NRT {
                            acc[i][j] += wv * x[j];
                        }
                    }
                }
            }
        }
        if let Some(bias) = self.bias {
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let b = bias[oc + i];
                if b != 0.0 {
                    for v in acc_row {
                        *v += b;
                    }
                }
            }
        }
        // scatter the tile's in-plane positions, one output-row run at a
        // time (a tile spans at most a few rows)
        let end = (q0 + NRT).min((oh - 1) * pw + ow);
        let (mut q, mut oy, mut ox) = (q0, q0 / pw, q0 % pw);
        while q < end {
            let run = (pw - ox).min(end - q);
            if ox < ow {
                let len = run.min(ow - ox);
                let j = q - q0;
                for (i, acc_row) in acc.iter().enumerate() {
                    let row: [f32; NRT] = *acc_row;
                    out[(oc + i) * oh * ow + oy * ow + ox..][..len]
                        .copy_from_slice(&row[j..j + len]);
                }
            }
            q += run;
            oy += 1;
            ox = 0;
        }
    }
}

/// The tiled convolution loop nest shared by every instantiation, with
/// `MRT × NRT` register tiles; `out` arrives zeroed with the output shape.
/// See [`conv2d`] for the accumulation order it keeps.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv2d_body<const MRT: usize, const NRT: usize>(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    scratch: &mut Vec<f32>,
    out: &mut Tensor,
) {
    let (ishape, wshape, oshape) = (input.shape(), weight.shape(), out.shape());
    let (cin_g, cout_g) = (ishape.c / groups, wshape.n / groups);
    let k = wshape.h;
    let (oh, ow) = (oshape.h, oshape.w);
    let geom = PhaseGeom::new(ishape, stride, pad);
    let panel = cout_g * cin_g * k * k;
    let w_data = weight.as_slice();
    let out_data = out.as_mut_slice();

    for n in 0..ishape.n {
        for g in 0..groups {
            geom.fill(input, n, g * cin_g, cin_g, scratch);
            let conv = GroupConv {
                planes: scratch,
                w: &w_data[g * panel..][..panel],
                bias: bias.map(|b| &b[g * cout_g..][..cout_g]),
                geom,
                cin: cin_g,
                k,
                oh,
                ow,
            };
            let out_g = &mut out_data[(n * oshape.c + g * cout_g) * oh * ow..][..cout_g * oh * ow];
            match stride {
                1 => conv.run::<MRT, NRT, 1>(out_g),
                2 => conv.run::<MRT, NRT, 2>(out_g),
                _ => conv.run::<MRT, NRT, 0>(out_g),
            }
        }
    }
}

/// AVX2 instantiation of [`conv2d_body`], where each accumulator row of the
/// 4 × 16 register tile is two YMM registers (see [`conv2d`] for the
/// bit-identity argument).
///
/// # Safety
///
/// The host must support AVX2, which [`conv2d_into_at`] checks before
/// calling.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn conv2d_avx2(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    scratch: &mut Vec<f32>,
    out: &mut Tensor,
) {
    conv2d_body::<MR, NR>(input, weight, bias, stride, pad, groups, scratch, out);
}

/// AVX-512 instantiation of [`conv2d_body`], where each accumulator row of
/// the 8 × 32 register tile is two ZMM registers, so a tap is two loads,
/// eight broadcasts and 16 multiplies and adds (see [`conv2d`] for the
/// bit-identity argument).
///
/// # Safety
///
/// The host must support AVX-512F, which [`conv2d_into_at`] checks before
/// calling.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn conv2d_avx512(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    scratch: &mut Vec<f32>,
    out: &mut Tensor,
) {
    conv2d_body::<MR_AVX512, NR_AVX512>(input, weight, bias, stride, pad, groups, scratch, out);
}

/// The per-element oracle [`conv2d`] is pinned against bit for bit: one
/// output element at a time, padding checked per tap, zero start, ascending
/// `(c_in, kh, kw)` taps skipping padding and zero weights, bias last when
/// non-zero. The skipped taps are the ones [`conv2d`] adds as signed
/// zeros, so for finite operands the two agree exactly. Same contract as
/// [`conv2d`].
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
/// rows and columns are resolved once (`tap_span`), so at stride 1 a tap
/// row is a contiguous dot product (weight gradient) plus a contiguous
/// axpy (input gradient); the loops are instantiated plain and under
/// `#[target_feature(enable = "avx2")]`, the AVX2 one taken whenever
/// [`crate::simd::level`] is at least [`Level::Avx2`], with the same bits.
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
    if simd::level() >= Level::Avx2 {
        // SAFETY: the probe returns only tiers the host supports.
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
/// [`crate::simd::level`] before calling.
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
