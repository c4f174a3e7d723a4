//! im2col + GEMM convolution: the f32 frame-path convolution (every layer
//! of the f32 gaze forward, `ProxyGazeNet::forward_infer` in
//! `eyecod-models`, runs through it).
//!
//! The input patches of one batch item and channel group are unrolled into
//! a `cols × positions` matrix (`cols = c_in/g · k · k`, `positions = oh ·
//! ow`): row `(c, kh, kw)` holds that tap's input value at every output
//! position, positions contiguous, each row zero-padded to a multiple of
//! [`NR`]. The convolution is then one dense product with the `(c_out/g ×
//! cols)` weight panel, computed over an `MR × NR` register tile: each
//! accumulation step broadcasts `MR` weight scalars against one contiguous
//! `NR`-wide patch row segment, i.e. one 8-lane load feeding `MR` vector
//! multiplies and `MR` vector adds (never fused). The `*_into` variants
//! reuse a [`ConvWorkspace`], so the
//! steady-state frame path performs no heap allocation.
//!
//! Results are bit-identical between the plain and AVX2 instantiations and
//! across batch sizes. Both this GEMM and the register-tiled direct
//! [`super::conv2d`] add every tap, padding included, in ascending `(c, kh,
//! kw)` order from the same start, so on bias-free layers (every gaze
//! layer) the two are bitwise equal; with a bias they differ only in where
//! it is added (the GEMM starts from it, the direct convolution adds it
//! last).

use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

use super::conv::{check_conv_args, tap_span};

/// Output channels per register tile of the GEMM microkernel.
const MR: usize = 4;
/// Output positions per register tile of the GEMM microkernel — one AVX2
/// vector of f32.
const NR: usize = 8;

/// Reusable buffers for the allocation-free convolution path: the im2col
/// patch buffer plus a two-buffer ping-pong activation arena — the software
/// mirror of the paper's dual 512 KB activation global buffers, between
/// which layer outputs alternate instead of being freshly allocated.
///
/// Buffers are sized lazily on first use and only ever grow.
#[derive(Debug, Clone)]
pub struct ConvWorkspace {
    patches: Vec<f32>,
    ping: Tensor,
    pong: Tensor,
}

impl Default for ConvWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ConvWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        ConvWorkspace {
            patches: Vec::new(),
            ping: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            pong: Tensor::zeros(Shape::new(1, 1, 1, 1)),
        }
    }

    /// Splits the workspace into disjoint borrows of the im2col buffer and
    /// the two arena buffers, so a caller can stream activations through
    /// the arena (`input` in one buffer, output in the other, swapping
    /// after each layer) while the same patch buffer serves every layer.
    pub fn split(&mut self) -> (&mut Vec<f32>, &mut Tensor, &mut Tensor) {
        (&mut self.patches, &mut self.ping, &mut self.pong)
    }
}

/// Unrolls the patches of batch item `n`, channel group `g` into `out` as a
/// row-major `cols × row_len` matrix, `row_len = (oh · ow)` rounded up to a
/// multiple of [`NR`]: row `(icg, kh, kw)` holds, at column `oy · ow + ox`,
/// the input value under that tap for output `(oy, ox)`, or an explicit
/// zero where the tap falls into the padding or past the last position.
///
/// Every cell is written exactly once, in order, with the padding resolved
/// once per tap row and column ([`tap_span`]): the in-bounds run of each
/// output row is one slice copy at unit stride.
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    input: &Tensor,
    n: usize,
    g: usize,
    cin_g: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    out: &mut Vec<f32>,
) {
    let s = input.shape();
    let row_len = (oh * ow).next_multiple_of(NR);
    out.clear();
    out.reserve(cin_g * k * k * row_len);
    for icg in 0..cin_g {
        let plane = input.channel_plane(n, g * cin_g + icg);
        for kh in 0..k {
            let (y0, y1) = tap_span(kh, pad, stride, s.h, oh);
            for kw in 0..k {
                let (x0, x1) = tap_span(kw, pad, stride, s.w, ow);
                let row_end = out.len() + row_len;
                out.resize(out.len() + y0 * ow, 0.0);
                for oy in y0..y1 {
                    out.resize(out.len() + x0, 0.0);
                    if x0 < x1 {
                        let irow = &plane[(oy * stride + kh - pad) * s.w..][..s.w];
                        let ix0 = x0 * stride + kw - pad;
                        if stride == 1 {
                            out.extend_from_slice(&irow[ix0..ix0 + (x1 - x0)]);
                        } else {
                            out.extend(irow[ix0..].iter().step_by(stride).take(x1 - x0));
                        }
                    }
                    out.resize(out.len() + ow - x1, 0.0);
                }
                out.resize(row_end, 0.0);
            }
        }
    }
}

/// The operands of one channel group's GEMM: the `(c_out/g × cols)` weight
/// panel, its bias slice, and the `cols × row_len` im2col matrix.
#[derive(Clone, Copy)]
struct GroupGemm<'a> {
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    patches: &'a [f32],
    cols: usize,
    positions: usize,
}

impl GroupGemm<'_> {
    /// One `M × NR` register tile at output channels `oc..oc + M` and
    /// positions `p..p + NR`: `acc[i][j] = bias[oc + i] + Σ_l w[oc + i, l] ·
    /// patches[l, p + j]`. Accumulators start at the bias and add one
    /// `w · x` product per `l` in ascending order — the per-element IEEE
    /// sequence of the scalar reference loop. Only the first `nr` positions
    /// are stored; the lanes past them ran on the zero padding of the patch
    /// rows.
    #[inline(always)]
    fn tile<const M: usize>(self, oc: usize, p: usize, out: &mut [f32]) {
        let cols = self.cols;
        let row_len = self.patches.len() / cols;
        let w: [&[f32]; M] = std::array::from_fn(|i| &self.w[(oc + i) * cols..][..cols]);
        let mut acc: [[f32; NR]; M] =
            std::array::from_fn(|i| [self.bias.map_or(0.0, |b| b[oc + i]); NR]);
        for (l, patch_row) in self.patches.chunks_exact(row_len).enumerate() {
            let x: [f32; NR] = patch_row[p..p + NR].try_into().expect("NR-wide slice");
            // fixed-trip indexed loops over the tile: the form LLVM turns
            // into one broadcast, one vector mul and one vector add per row
            for i in 0..M {
                let wv = w[i][l];
                for j in 0..NR {
                    acc[i][j] += wv * x[j];
                }
            }
        }
        let nr = NR.min(self.positions - p);
        for (i, acc_row) in acc.iter().enumerate() {
            out[(oc + i) * self.positions + p..][..nr].copy_from_slice(&acc_row[..nr]);
        }
    }
}

/// The GEMM of one channel group, `out[oc, p] = bias[oc] + Σ_l w[oc, l] ·
/// patches[l, p]`, tiled `MR × NR` (the last `c_out/g mod MR` channels use
/// a narrower tile of the same shape).
///
/// Monomorphised twice, like `gemm_rows_body` in `eyecod_optics::mat`: once
/// as a plain function and once under `#[target_feature(enable = "avx2")]`,
/// where LLVM keeps each accumulator row in one YMM register and turns the
/// `NR` loop into one vector multiply and one vector add. The per-element
/// operation sequence (`mul` then `add`, ascending `l`) is identical in both
/// instantiations — Rust never contracts `a * b + c` into an FMA — so the
/// AVX2 build is bit-identical to the scalar one.
#[inline(always)]
fn gemm_panel_body(gemm: GroupGemm<'_>, out: &mut [f32]) {
    let cout_g = gemm.w.len() / gemm.cols;
    // position tiles outermost: one tile's `cols × NR` patch column stays
    // in L1 while every output channel consumes it
    for p in (0..gemm.positions).step_by(NR) {
        let mut oc = 0;
        while oc < cout_g {
            let mr = MR.min(cout_g - oc);
            match mr {
                4 => gemm.tile::<4>(oc, p, out),
                3 => gemm.tile::<3>(oc, p, out),
                2 => gemm.tile::<2>(oc, p, out),
                _ => gemm.tile::<1>(oc, p, out),
            }
            oc += mr;
        }
    }
}

/// AVX2 instantiation of [`gemm_panel_body`] (see its docs for the
/// bit-identity argument).
///
/// # Safety
///
/// The host must support AVX2, which [`gemm_panel`] checks via
/// [`simd::avx2_enabled`] before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panel_avx2(gemm: GroupGemm<'_>, out: &mut [f32]) {
    gemm_panel_body(gemm, out);
}

/// Dispatches one group's GEMM to the AVX2 or scalar instantiation.
fn gemm_panel(gemm: GroupGemm<'_>, out: &mut [f32], use_simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if use_simd && simd::avx2_enabled() {
        // SAFETY: avx2_enabled() returns true only on hosts with AVX2.
        unsafe { gemm_panel_avx2(gemm, out) };
        return;
    }
    let _ = use_simd;
    gemm_panel_body(gemm, out);
}

/// Convolution via im2col + GEMM. Same contract as [`super::conv2d`]
/// (square kernels, symmetric zero padding, groups); typically faster for
/// generic and point-wise layers with several input channels.
///
/// # Panics
///
/// Panics under the same conditions as [`super::conv2d`].
pub fn conv2d_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let mut ws = ConvWorkspace::new();
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    conv2d_gemm_into(input, weight, bias, stride, pad, groups, &mut ws, &mut out);
    out
}

/// [`conv2d_gemm`] pinned to the scalar GEMM instantiation regardless of
/// host capabilities — the retained differential baseline the SIMD
/// bit-equality suites compare against.
///
/// # Panics
///
/// Panics under the same conditions as [`super::conv2d`].
pub fn conv2d_gemm_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Tensor {
    let mut patches = Vec::new();
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    conv2d_gemm_buf_impl(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        &mut patches,
        &mut out,
        false,
    );
    out
}

/// [`conv2d_gemm`] through a caller-owned workspace and output tensor:
/// with warm buffers the whole convolution performs no heap allocation.
/// Bit-identical to [`conv2d_gemm`] (same kernel, same workspace shape
/// handling).
///
/// Only the workspace's im2col buffer is used; its arena buffers are free
/// for the caller to stream activations through (`out` must not alias
/// `input`, which the borrow checker already enforces).
///
/// # Panics
///
/// Panics under the same conditions as [`super::conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_gemm_into(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    ws: &mut ConvWorkspace,
    out: &mut Tensor,
) {
    conv2d_gemm_buf(
        input,
        weight,
        bias,
        stride,
        pad,
        groups,
        &mut ws.patches,
        out,
    );
}

/// [`conv2d_gemm_into`] against a bare im2col buffer — the building block
/// the model workspaces use so the patch buffer and the activation arena
/// can be borrowed disjointly from one [`ConvWorkspace`] via
/// [`ConvWorkspace::split`].
///
/// # Panics
///
/// Panics under the same conditions as [`super::conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_gemm_buf(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    patches: &mut Vec<f32>,
    out: &mut Tensor,
) {
    conv2d_gemm_buf_impl(input, weight, bias, stride, pad, groups, patches, out, true);
}

#[allow(clippy::too_many_arguments)]
fn conv2d_gemm_buf_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    groups: usize,
    patches: &mut Vec<f32>,
    out: &mut Tensor,
    use_simd: bool,
) {
    let ishape = input.shape();
    let wshape = weight.shape();
    let (cin_g, cout_g) = check_conv_args(ishape, wshape, bias, groups);
    let k = wshape.h;
    let oshape = ishape.conv_output(wshape.n, k, pad, stride);
    let (oh, ow) = (oshape.h, oshape.w);
    let cols = cin_g * k * k;
    let positions = oh * ow;
    let w_data = weight.as_slice();

    out.reset(oshape);
    let out_data = out.as_mut_slice();
    for n in 0..ishape.n {
        for g in 0..groups {
            im2col_into(input, n, g, cin_g, k, stride, pad, oh, ow, patches);
            let out_base = (n * oshape.c + g * cout_g) * positions;
            let gemm = GroupGemm {
                w: &w_data[g * cout_g * cols..(g + 1) * cout_g * cols],
                bias: bias.map(|b| &b[g * cout_g..(g + 1) * cout_g]),
                patches,
                cols,
                positions,
            };
            gemm_panel(
                gemm,
                &mut out_data[out_base..out_base + cout_g * positions],
                use_simd,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{conv2d, conv2d_naive};
    use super::*;
    use crate::shape::Shape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(shape: Shape, rng: &mut StdRng) -> Tensor {
        Tensor::from_fn(shape, |_, _, _, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_matches_direct_conv_across_geometry() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(stride, pad, k, groups) in &[
            (1usize, 1usize, 3usize, 1usize),
            (2, 1, 3, 1),
            (1, 0, 1, 1),
            (2, 2, 5, 1),
            (1, 1, 3, 2),
            (1, 1, 3, 6), // depth-wise
        ] {
            let x = rand_tensor(Shape::new(2, 6, 9, 7), &mut rng);
            let w = rand_tensor(Shape::new(6, 6 / groups, k, k), &mut rng);
            let b: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let gemm = conv2d_gemm(&x, &w, Some(&b), stride, pad, groups);
            let direct = conv2d(&x, &w, Some(&b), stride, pad, groups);
            assert!(
                gemm.sub(&direct).max_abs() < 1e-4,
                "mismatch at stride={stride} pad={pad} k={k} groups={groups}"
            );
        }
    }

    #[test]
    fn gemm_equals_direct_conv_bitwise_without_bias() {
        let mut rng = StdRng::seed_from_u64(4);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(stride, pad, k, groups) in &[
            (1usize, 1usize, 3usize, 1usize),
            (2, 1, 3, 1),
            (1, 0, 1, 1),
            (2, 2, 5, 2),
            (2, 1, 3, 6), // depth-wise
        ] {
            let x = rand_tensor(Shape::new(2, 6, 9, 7), &mut rng);
            let w = rand_tensor(Shape::new(6, 6 / groups, k, k), &mut rng);
            assert_eq!(
                bits(&conv2d_gemm(&x, &w, None, stride, pad, groups)),
                bits(&conv2d(&x, &w, None, stride, pad, groups)),
                "stride={stride} pad={pad} k={k} groups={groups}"
            );
        }
    }

    /// The GEMM's accumulation sequence evaluated one output element at a
    /// time: the bias first, then one `w · x` product per tap in ascending
    /// `(c, kh, kw)` order, padding taps included as `w · 0`.
    fn gemm_sequence_oracle(
        x: &Tensor,
        w: &Tensor,
        bias: &[f32],
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Tensor {
        let (xs, ws) = (x.shape(), w.shape());
        let (cin_g, cout_g, k) = (ws.c, ws.n / groups, ws.h);
        Tensor::from_fn(xs.conv_output(ws.n, k, pad, stride), |n, oc, oy, ox| {
            let mut acc = bias[oc];
            for icg in 0..cin_g {
                for kh in 0..k {
                    for kw in 0..k {
                        let iy = (oy * stride + kh) as isize - pad as isize;
                        let ix = (ox * stride + kw) as isize - pad as isize;
                        let inside =
                            iy >= 0 && ix >= 0 && (iy as usize) < xs.h && (ix as usize) < xs.w;
                        let v = if inside {
                            x.at(n, (oc / cout_g) * cin_g + icg, iy as usize, ix as usize)
                        } else {
                            0.0
                        };
                        acc += w.at(oc, icg, kh, kw) * v;
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn gemm_keeps_its_per_element_sequence_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(stride, pad, k, groups, cout) in &[
            (1usize, 1usize, 3usize, 1usize, 6usize),
            (2, 1, 3, 2, 10),
            (1, 0, 1, 1, 5),
            (2, 2, 5, 1, 4),
            (1, 1, 3, 6, 6), // depth-wise
        ] {
            let x = rand_tensor(Shape::new(2, 6, 6, 11), &mut rng);
            let w = rand_tensor(Shape::new(cout, 6 / groups, k, k), &mut rng);
            let b: Vec<f32> = (0..cout).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let want = bits(&gemm_sequence_oracle(&x, &w, &b, stride, pad, groups));
            for got in [
                conv2d_gemm(&x, &w, Some(&b), stride, pad, groups),
                conv2d_gemm_reference(&x, &w, Some(&b), stride, pad, groups),
            ] {
                assert_eq!(
                    bits(&got),
                    want,
                    "stride={stride} pad={pad} k={k} groups={groups}"
                );
            }
        }
    }

    #[test]
    fn gemm_into_reuses_one_workspace_across_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ws = ConvWorkspace::new();
        let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
        // two different geometries through the same workspace, in both
        // orders — results must equal the fresh-allocation path exactly
        let x1 = rand_tensor(Shape::new(1, 4, 10, 8), &mut rng);
        let w1 = rand_tensor(Shape::new(6, 4, 3, 3), &mut rng);
        let x2 = rand_tensor(Shape::new(2, 2, 5, 5), &mut rng);
        let w2 = rand_tensor(Shape::new(4, 1, 1, 1), &mut rng);
        for _ in 0..2 {
            conv2d_gemm_into(&x1, &w1, None, 1, 1, 1, &mut ws, &mut out);
            assert_eq!(
                out.as_slice(),
                conv2d_gemm(&x1, &w1, None, 1, 1, 1).as_slice()
            );
            conv2d_gemm_into(&x2, &w2, None, 1, 0, 2, &mut ws, &mut out);
            assert_eq!(
                out.as_slice(),
                conv2d_gemm(&x2, &w2, None, 1, 0, 2).as_slice()
            );
        }
    }

    #[test]
    fn gemm_matches_reference_on_asymmetric_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_tensor(Shape::new(1, 3, 5, 11), &mut rng);
        let w = rand_tensor(Shape::new(4, 3, 3, 3), &mut rng);
        let gemm = conv2d_gemm(&x, &w, None, 1, 1, 1);
        let slow = conv2d_naive(&x, &w, None, 1, 1, 1);
        assert!(gemm.sub(&slow).max_abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn gemm_rejects_bad_groups() {
        let x = Tensor::zeros(Shape::new(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::new(4, 1, 3, 3));
        conv2d_gemm(&x, &w, None, 1, 1, 2);
    }
}
