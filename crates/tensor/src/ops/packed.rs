//! The channel-vectorised direct convolution: the f32 inference kernel of
//! every `groups == 1` layer whose `C_out` is a multiple of 16
//! (`Conv2d::forward_into`, which serves `ProxyGazeNet::forward_infer` and
//! `ProxySegNet::forward_infer` in `eyecod-models`).
//!
//! The gaze network's planes are small (12×16 down to 3×4 outputs) and its
//! layers wide (16–64 output channels in the ResNet-like net), so this
//! kernel vectorises over output channels instead of positions: the
//! weights are packed once per layer tap-major, `panel[((c · k + kh) · k +
//! kw) · C_pad + oc]` with `C_out` zero-padded to a multiple of 16
//! ([`PackedConvWeights`]), each input channel is copied once into a
//! zero-padded plane, and a `6 × 16` accumulator tile — 6 output positions
//! by 16 output channels (two 8-lane vectors) — stays in registers across
//! every tap: one 16-wide panel load, 6 broadcasts, and 12 vector
//! multiplies and as many vector adds.
//!
//! Every output keeps [`super::conv2d`]'s sequence: from `+0.0`, all taps
//! in ascending `(c, kh, kw)` order, padding included, one multiply then
//! one add (Rust never contracts them into an FMA), the bias added last
//! when non-zero. So the result is bitwise equal to [`super::conv2d`], and
//! for finite operands to [`super::conv2d_naive`]. The loops are
//! instantiated plain and under `#[target_feature(enable = "avx2")]`,
//! dispatched by [`crate::simd::avx2_enabled`], with the same bits.

use crate::shape::Shape;
use crate::tensor::Tensor;

use super::conv::{check_conv_args, PhaseGeom};

/// Output channels per register tile; the panel pads `C_out` to a multiple
/// of it.
const LANES: usize = 16;
/// Output positions per register tile: 12 (6 × 2) accumulator registers.
/// At 8 or 12 positions LLVM vectorises the tile across positions with
/// gathers instead.
const POSITIONS: usize = 6;

/// The weights of one `groups == 1` convolution packed for
/// [`conv2d_packed_into`]: tap-major, `panel[tap · C_pad + oc]` with `tap =
/// (c · k + kh) · k + kw` and `C_pad = C_out` rounded up to a multiple of
/// 16 (the padding lanes hold zeros and are never stored).
///
/// The software twin of the accelerator's weight global buffer: packed
/// once and then read by every frame. `eyecod_tensor::layer::Conv2d`
/// memoises it with the weights and drops it whenever they can change.
#[derive(Debug, Clone)]
pub struct PackedConvWeights {
    panel: Vec<f32>,
    cout: usize,
    cin: usize,
    k: usize,
}

impl PackedConvWeights {
    /// Packs a `(C_out, C_in, K, K)` weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is not square.
    pub fn pack(weight: &Tensor) -> Self {
        let s = weight.shape();
        assert_eq!(s.h, s.w, "only square kernels are supported");
        let mut packed = PackedConvWeights {
            panel: Vec::new(),
            cout: s.n,
            cin: s.c,
            k: s.h,
        };
        let (cpad, taps) = (packed.cpad(), s.c * s.h * s.w);
        packed.panel = vec![0.0f32; taps * cpad];
        for (oc, row) in weight.as_slice().chunks_exact(taps).enumerate() {
            for (tap, &v) in row.iter().enumerate() {
                packed.panel[tap * cpad + oc] = v;
            }
        }
        packed
    }

    /// The shape of the weight tensor this panel was packed from.
    fn weight_shape(&self) -> Shape {
        Shape::new(self.cout, self.cin, self.k, self.k)
    }

    /// `C_out` rounded up to a multiple of [`LANES`]: the panel's row
    /// length.
    fn cpad(&self) -> usize {
        self.cout.next_multiple_of(LANES)
    }
}

/// Convolution of `input` with packed `groups == 1` weights into a
/// caller-owned plane buffer and output tensor: with warm buffers it
/// performs no heap allocation. Bitwise equal to [`super::conv2d`] with the
/// weights the panel was packed from (see the module docs).
///
/// # Panics
///
/// Panics under the same conditions as [`super::conv2d`] with `groups = 1`.
pub fn conv2d_packed_into(
    input: &Tensor,
    packed: &PackedConvWeights,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    planes: &mut Vec<f32>,
    out: &mut Tensor,
) {
    let wshape = packed.weight_shape();
    check_conv_args(input.shape(), wshape, bias, 1);
    out.reset(input.shape().conv_output(wshape.n, wshape.h, pad, stride));
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: avx2_enabled() returns true only on hosts with AVX2.
        unsafe { packed_avx2(input, packed, bias, stride, pad, planes, out) };
        return;
    }
    packed_body(input, packed, bias, stride, pad, planes, out);
}

/// The operands of one batch item's channel-tiled convolution.
#[derive(Clone, Copy)]
struct ChannelConv<'a> {
    planes: &'a [f32],
    packed: &'a PackedConvWeights,
    bias: Option<&'a [f32]>,
    geom: PhaseGeom,
    stride: usize,
    oh: usize,
    ow: usize,
}

impl ChannelConv<'_> {
    /// Every tile of the item, channel tiles outermost: one tile's panel
    /// columns stay in L1 while every position consumes them.
    #[inline(always)]
    fn run<const K: usize>(self, out: &mut [f32]) {
        let positions = self.oh * self.ow;
        let cpad = self.packed.cpad();
        let (cin, k, pw) = (self.packed.cin, self.packed.k, self.geom.pw);
        // every read below is `planes[base(q) + c · chan + kh · pw + kw]`
        // with `base(q) = (oy · pw + ox) · stride` for a position `q <
        // positions`, largest at the last one, and `c < cin`, `kh, kw < k`;
        // and `panel[tap · cpad + oc + j]` with `tap < cin · k²`, `oc + j <
        // cpad`. Checked arithmetic: no index below can wrap either.
        let reach = || {
            let last_row = (self.oh - 1).checked_mul(pw)?;
            let last_base = last_row
                .checked_add(self.ow - 1)?
                .checked_mul(self.stride)?;
            let max_off = (cin - 1)
                .checked_mul(self.geom.channel_len())?
                .checked_add((k - 1).checked_mul(pw.checked_add(1)?)?)?;
            last_base.checked_add(max_off)
        };
        assert!(
            reach().is_some_and(|r| r < self.planes.len())
                && self.packed.panel.len() == cin * k * k * cpad,
            "channel tile operands out of bounds"
        );
        for oc in (0..cpad).step_by(LANES) {
            for q0 in (0..positions).step_by(POSITIONS) {
                self.tile::<K>(oc, q0, out);
            }
        }
    }

    /// One register tile: output channels `oc..oc + LANES` at output
    /// positions `q0..q0 + POSITIONS` (positions past the plane repeat the
    /// last one, channels past `C_out` are padding; neither is stored).
    /// Accumulators start at `+0.0` and add one `w · x` product per tap in
    /// ascending `(c, kh, kw)` order; the bias follows when non-zero.
    // indexed fixed-trip loops are the form LLVM unrolls into the tile
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn tile<const K: usize>(self, oc: usize, q0: usize, out: &mut [f32]) {
        let ChannelConv {
            planes,
            packed,
            geom,
            oh,
            ow,
            ..
        } = self;
        let k = if K == 0 { packed.k } else { K };
        let cpad = packed.cpad();
        let positions = oh * ow;
        // each position's top-left tap, stepping `(oy, ox)` instead of
        // dividing per position
        let (mut q, mut oy, mut ox) = (q0, q0 / ow, q0 % ow);
        let xs: [*const f32; POSITIONS] = std::array::from_fn(|_| {
            // SAFETY: `run` asserted that every position's base plus the
            // largest tap offset lies inside `planes`, and that every panel
            // row holds `cpad >= oc + LANES` floats.
            let x = unsafe { planes.as_ptr().add((oy * geom.pw + ox) * self.stride) };
            if q + 1 < positions {
                q += 1;
                ox += 1;
                if ox == ow {
                    (oy, ox) = (oy + 1, 0);
                }
            }
            x
        });
        let mut acc = [[0.0f32; LANES]; POSITIONS];
        let mut wrow = oc;
        for c in 0..packed.cin {
            for kh in 0..k {
                let row = c * geom.channel_len() + kh * geom.pw;
                for kw in 0..k {
                    // SAFETY: as above.
                    let w: [f32; LANES] =
                        unsafe { *packed.panel.as_ptr().add(wrow).cast::<[f32; LANES]>() };
                    for p in 0..POSITIONS {
                        // SAFETY: as above.
                        let x = unsafe { *xs[p].add(row + kw) };
                        for j in 0..LANES {
                            acc[p][j] += w[j] * x;
                        }
                    }
                    wrow += cpad;
                }
            }
        }
        // the epilogue indexes at run time, so it works on a copy of the
        // tile and leaves `acc` to live in registers
        let mut tile = acc;
        let lanes = LANES.min(packed.cout - oc);
        if let Some(bias) = self.bias {
            for (j, &b) in bias[oc..oc + lanes].iter().enumerate() {
                if b != 0.0 {
                    for acc_p in &mut tile {
                        acc_p[j] += b;
                    }
                }
            }
        }
        let np = POSITIONS.min(positions - q0);
        for j in 0..lanes {
            let dst = &mut out[(oc + j) * positions + q0..][..np];
            for (d, acc_p) in dst.iter_mut().zip(&tile) {
                *d = acc_p[j];
            }
        }
    }
}

/// The channel-tiled loop nest shared by both instantiations; `out`
/// arrives zeroed with the output shape.
#[inline(always)]
fn packed_body(
    input: &Tensor,
    packed: &PackedConvWeights,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    planes: &mut Vec<f32>,
    out: &mut Tensor,
) {
    let (ishape, oshape) = (input.shape(), out.shape());
    // one zero-padded plane per input channel: the phase-plane layout at
    // stride 1, the stride applied to the tile's position offsets instead
    let geom = PhaseGeom::new(ishape, 1, pad);
    let item = oshape.item_len();
    for (n, out_n) in out.as_mut_slice().chunks_exact_mut(item).enumerate() {
        geom.fill(input, n, 0, ishape.c, planes);
        let conv = ChannelConv {
            planes,
            packed,
            bias,
            geom,
            stride,
            oh: oshape.h,
            ow: oshape.w,
        };
        match packed.k {
            3 => conv.run::<3>(out_n),
            _ => conv.run::<0>(out_n),
        }
    }
}

/// AVX2 instantiation of [`packed_body`], where each 8-channel row of the
/// register tile is one YMM register (see the module docs for the
/// bit-identity argument).
///
/// # Safety
///
/// The host must support AVX2, which [`conv2d_packed_into`] checks via
/// [`crate::simd::avx2_enabled`] before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn packed_avx2(
    input: &Tensor,
    packed: &PackedConvWeights,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    planes: &mut Vec<f32>,
    out: &mut Tensor,
) {
    packed_body(input, packed, bias, stride, pad, planes, out);
}
