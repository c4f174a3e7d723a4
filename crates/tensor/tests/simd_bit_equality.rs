//! SIMD-vs-scalar bit-equality properties.
//!
//! The dispatch contract of `eyecod_tensor::simd` is that the AVX2 kernels
//! are **bit-identical** to their scalar references — int8 ops because i32
//! accumulation of i8·i8 products is exact integer arithmetic (associative,
//! no rounding), the f32 convolutions because both instantiations execute
//! the same IEEE mul-then-add sequence, which the per-element oracle
//! `conv2d_naive` spells out. These properties hammer the nasty geometries
//! where a tiling bug would hide: reduction lengths that are not multiples
//! of the 32/16-lane tile widths, unaligned remainder columns, saturating
//! ±127 codes (the `maddubs` i16-overflow trap the sign-split trick must
//! defuse), and grouped/depth-wise channel wiring.
//!
//! CI runs this suite twice — with SIMD enabled and under
//! `EYECOD_NO_SIMD=1` — so both sides of every dispatch point are covered
//! even on hosts where one test process can only ever observe one probe
//! result (the probe is cached per process).

use eyecod_tensor::ops::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_naive, conv2d_packed_into,
    PackedConvWeights,
};
use eyecod_tensor::quant::{
    qconv2d, qconv2d_reference, qconv2d_requant, qconv2d_requant_reference, qlinear,
    qlinear_reference, QTensor,
};
use eyecod_tensor::{simd, Shape, Tensor};
use proptest::prelude::*;

/// A tensor whose quantised codes are exactly the sampled i8 values:
/// `quantize_with_scale` with scale 1.0 rounds `code as f32` back to `code`.
/// Sampling the full ±127 range (inclusive) keeps the saturating extremes
/// in play.
fn qtensor_strategy(shape: Shape) -> impl Strategy<Value = QTensor> {
    proptest::collection::vec(-127i32..=127, shape.len())
        .prop_map(move |v| Tensor::from_vec(shape, v.into_iter().map(|c| c as f32).collect()))
        .prop_map(|t| QTensor::quantize_with_scale(&t, 1.0))
}

/// All-extreme codes: every element is ±127, the worst case for the
/// pairwise i16 intermediate in `maddubs` (2 · 127² = 32258 < i16::MAX
/// only after the sign-split rewrite).
fn saturating_qtensor_strategy(shape: Shape) -> impl Strategy<Value = QTensor> {
    proptest::collection::vec(0u8..2, shape.len())
        .prop_map(move |signs| {
            Tensor::from_vec(
                shape,
                signs
                    .into_iter()
                    .map(|s| if s != 0 { 127.0 } else { -127.0 })
                    .collect(),
            )
        })
        .prop_map(|t| QTensor::quantize_with_scale(&t, 1.0))
}

fn i8_vec(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(-127i8..=127, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `qdot_i8` == scalar across lengths straddling the 32-lane tile
    /// (0, partial tile, exact tiles, tiles + remainder).
    #[test]
    fn qdot_matches_scalar(len in 0usize..200, x in i8_vec(200), w in i8_vec(200)) {
        prop_assert_eq!(
            simd::qdot_i8(&x[..len], &w[..len]),
            simd::qdot_i8_scalar(&x[..len], &w[..len])
        );
    }

    /// `qdot_i8` == scalar on fully saturating ±127 operands — the i16
    /// overflow trap.
    #[test]
    fn qdot_matches_scalar_at_saturation(
        len in 1usize..200,
        xsigns in proptest::collection::vec(0u8..2, 200),
        wsigns in proptest::collection::vec(0u8..2, 200),
    ) {
        let xs: Vec<i8> = xsigns[..len].iter().map(|&s| if s != 0 { 127 } else { -127 }).collect();
        let ws: Vec<i8> = wsigns[..len].iter().map(|&s| if s != 0 { 127 } else { -127 }).collect();
        prop_assert_eq!(simd::qdot_i8(&xs, &ws), simd::qdot_i8_scalar(&xs, &ws));
    }

    /// The 4-row dot tile equals four independent scalar dots.
    #[test]
    fn qdot4_matches_scalar_rows(
        len in 0usize..130,
        x in proptest::collection::vec(-127i8..=127, 130),
        w in proptest::collection::vec(-127i8..=127, 4 * 130),
    ) {
        let x = &x[..len];
        let rows = [&w[..len], &w[130..130 + len], &w[260..260 + len], &w[390..390 + len]];
        let got = simd::qdot4_i8(x, rows);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(got[i], simd::qdot_i8_scalar(x, r), "row {}", i);
        }
    }

    /// `qaxpy_i8` == scalar, including saturating weights and unaligned
    /// remainder lanes past the 16-wide tile.
    #[test]
    fn qaxpy_matches_scalar(
        len in 0usize..100,
        x in proptest::collection::vec(-127i8..=127, 100),
        acc0 in proptest::collection::vec(-100_000i32..100_000, 100),
        w in -127i32..=127,
    ) {
        let mut simd_row = acc0[..len].to_vec();
        let mut scalar_row = acc0[..len].to_vec();
        simd::qaxpy_i8(&mut simd_row, &x[..len], w);
        simd::qaxpy_i8_scalar(&mut scalar_row, &x[..len], w);
        prop_assert_eq!(simd_row, scalar_row);
    }

    /// Dispatched `qconv2d` is bit-identical to the scalar reference across
    /// random geometry: stride 1–2, pad 0–2, dense and grouped wiring, and
    /// widths chosen to leave unaligned remainder columns.
    #[test]
    fn qconv2d_dispatch_is_bit_identical(
        qx in qtensor_strategy(Shape::new(1, 4, 7, 19)),
        qw in qtensor_strategy(Shape::new(6, 2, 3, 3)),
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        let a = qconv2d(&qx, &qw, None, stride, pad, 2);
        let b = qconv2d_reference(&qx, &qw, None, stride, pad, 2);
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// Depth-wise `qconv2d` (one tap stream per channel) under both
    /// dispatch modes, on saturating ±127 codes.
    #[test]
    fn depthwise_qconv2d_is_bit_identical_at_saturation(
        qx in saturating_qtensor_strategy(Shape::new(1, 6, 9, 17)),
        qw in saturating_qtensor_strategy(Shape::new(6, 1, 3, 3)),
        stride in 1usize..3,
    ) {
        let a = qconv2d(&qx, &qw, None, stride, 1, 6);
        let b = qconv2d_reference(&qx, &qw, None, stride, 1, 6);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// The fused requantising conv keeps bit-identity through the i32 →
    /// rescale → i8 tail (same accumulators in, same f32 rescale out).
    #[test]
    fn qconv2d_requant_dispatch_is_bit_identical(
        qx in qtensor_strategy(Shape::new(1, 3, 8, 13)),
        qw in qtensor_strategy(Shape::new(4, 3, 3, 3)),
        bias in proptest::collection::vec(-1.0f32..1.0, 4),
        relu in 0u8..2,
    ) {
        let relu = relu != 0;
        let a = qconv2d_requant(&qx, &qw, Some(&bias), 1, 1, 1, relu, 0.05);
        let b = qconv2d_requant_reference(&qx, &qw, Some(&bias), 1, 1, 1, relu, 0.05);
        prop_assert_eq!(a.as_i8(), b.as_i8());
    }

    /// The requantisation epilogue rounds identically in both dispatch
    /// modes. Unit operand scales and small codes keep the accumulators
    /// integral and inside the ±127 range after division, so `out_scale`
    /// 2 and 0.5 land many outputs on exact halves (which round away from
    /// zero), 0.25 saturates them into the clamp, and 3 leaves inexact
    /// quotients.
    #[test]
    fn requant_epilogue_rounds_exact_halves_identically(
        xcodes in proptest::collection::vec(-3i32..=3, 2 * 3 * 5 * 11),
        wcodes in proptest::collection::vec(-3i32..=3, 9 * 3 * 3 * 3),
        out_scale in prop_oneof![Just(2.0f32), Just(0.5), Just(0.25), Just(3.0)],
        relu in 0u8..2,
    ) {
        let q = |shape, codes: Vec<i32>| {
            let t = Tensor::from_vec(shape, codes.into_iter().map(|c| c as f32).collect());
            QTensor::quantize_with_scale(&t, 1.0)
        };
        let qx = q(Shape::new(2, 3, 5, 11), xcodes);
        let qw = q(Shape::new(9, 3, 3, 3), wcodes);
        let a = qconv2d_requant(&qx, &qw, None, 1, 1, 1, relu != 0, out_scale);
        let b = qconv2d_requant_reference(&qx, &qw, None, 1, 1, 1, relu != 0, out_scale);
        prop_assert_eq!(a.as_i8(), b.as_i8());
    }

    /// `qlinear` bit-identity over K values that straddle the 32-lane dot
    /// tile and the 4-row output tile (out = 5 leaves a remainder row).
    #[test]
    fn qlinear_dispatch_is_bit_identical(
        k in 1usize..100,
        xcodes in proptest::collection::vec(-127i32..=127, 2 * 100),
        wcodes in proptest::collection::vec(-127i32..=127, 5 * 100),
        bias in proptest::collection::vec(-1.0f32..1.0, 5),
    ) {
        let x = Tensor::from_vec(
            Shape::new(2, 1, 1, k),
            xcodes[..2 * k].iter().map(|&c| c as f32).collect(),
        );
        let w = Tensor::from_vec(
            Shape::new(5, 1, 1, k),
            wcodes[..5 * k].iter().map(|&c| c as f32).collect(),
        );
        let qx = QTensor::quantize_with_scale(&x, 1.0);
        let qw = QTensor::quantize_with_scale(&w, 1.0);
        let a = qlinear(&qx, &qw, Some(&bias));
        let b = qlinear_reference(&qx, &qw, Some(&bias));
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}

/// The raw bit patterns of an f32 tensor: `-0.0 != 0.0` and NaN payloads
/// count, which `==` on the values would hide.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// An f32 tensor with a share of exact zeros, so the oracle's zero-weight
/// skip (which the tiled convolution does not take) and the zero-bias skip
/// are both exercised.
fn sparse_f32_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, len).prop_map(|v| {
        v.into_iter()
            .map(|x| if x.abs() < 0.2 { 0.0 } else { x })
            .collect()
    })
}

// The shapes the frame path runs: the gaze networks' int8 reduction depths
// `C_in/g · k²` of 9 (first layer), 144 and 288 (the ResNet-like body) on
// batches of more than one crop and the 3×4 output plane, and the direct
// f32 `conv2d` and its backward pass against their oracles.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// int8 `qconv2d` and `qconv2d_requant` at reduction depth 9
    /// (`C_in/g = 1`), stride 1 and 2, 6 output channels.
    #[test]
    fn qconv_depth_9_is_bit_identical(
        qx in qtensor_strategy(Shape::new(2, 1, 9, 13)),
        qw in qtensor_strategy(Shape::new(6, 1, 3, 3)),
        bias in proptest::collection::vec(-1.0f32..1.0, 6),
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        assert_qconv_bit_identical(&qx, &qw, &bias, stride, pad, 1);
    }

    /// int8 at reduction depth 144 (`C_in/g = 16`), grouped into two
    /// groups of 5 output channels each.
    #[test]
    fn qconv_depth_144_is_bit_identical(
        qx in qtensor_strategy(Shape::new(1, 32, 7, 11)),
        qw in qtensor_strategy(Shape::new(10, 16, 3, 3)),
        bias in proptest::collection::vec(-1.0f32..1.0, 10),
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        assert_qconv_bit_identical(&qx, &qw, &bias, stride, pad, 2);
    }

    /// int8 at reduction depth 288 (`C_in/g = 32`) on the 6×8 plane of the
    /// ResNet-like body, 6 output channels, saturating ±127 codes.
    #[test]
    fn qconv_depth_288_is_bit_identical_at_saturation(
        qx in saturating_qtensor_strategy(Shape::new(2, 32, 6, 8)),
        qw in saturating_qtensor_strategy(Shape::new(6, 32, 3, 3)),
        bias in proptest::collection::vec(-1.0f32..1.0, 6),
        stride in 1usize..3,
    ) {
        assert_qconv_bit_identical(&qx, &qw, &bias, stride, 1, 1);
    }

    /// The direct `conv2d` equals the per-element oracle bit for bit:
    /// stride 1–3, pad 0–2, grouped wiring, non-square input, and weights
    /// and biases with exact zeros.
    #[test]
    fn direct_conv2d_matches_per_element_oracle_bitwise(
        xv in proptest::collection::vec(-2.0f32..2.0, 2 * 4 * 7 * 10),
        wv in sparse_f32_strategy(6 * 4 * 5 * 5),
        bias in sparse_f32_strategy(6),
        stride in 1usize..4,
        pad in 0usize..3,
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        groups in prop_oneof![Just(1usize), Just(2usize)],
    ) {
        let x = Tensor::from_vec(Shape::new(2, 4, 7, 10), xv);
        let cin_g = 4 / groups;
        let w = Tensor::from_vec(Shape::new(6, cin_g, k, k), wv[..6 * cin_g * k * k].to_vec());
        let fast = conv2d(&x, &w, Some(&bias), stride, pad, groups);
        let oracle = conv2d_naive(&x, &w, Some(&bias), stride, pad, groups);
        prop_assert_eq!(fast.shape(), oracle.shape());
        prop_assert_eq!(bits(&fast), bits(&oracle));
    }

    /// `conv2d_backward` equals its per-element oracle bit for bit in all
    /// three gradients: stride 1–3, pad 0–2, k 1/3/5, generic, grouped and
    /// depth-wise wiring, a batch of two, and exact zeros in the weights
    /// and the upstream gradient.
    #[test]
    fn conv2d_backward_matches_its_oracle_bitwise(
        xv in proptest::collection::vec(-2.0f32..2.0, 2 * 4 * 7 * 10),
        wv in sparse_f32_strategy(4 * 4 * 5 * 5),
        gv in sparse_f32_strategy(2 * 4 * 11 * 14),
        stride in 1usize..4,
        pad in 0usize..3,
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        groups in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let x = Tensor::from_vec(Shape::new(2, 4, 7, 10), xv);
        let cin_g = 4 / groups;
        let w = Tensor::from_vec(Shape::new(4, cin_g, k, k), wv[..4 * cin_g * k * k].to_vec());
        let oshape = x.shape().conv_output(4, k, pad, stride);
        let go = Tensor::from_vec(oshape, gv[..oshape.len()].to_vec());
        let fast = conv2d_backward(&x, &w, &go, stride, pad, groups);
        let oracle = conv2d_backward_reference(&x, &w, &go, stride, pad, groups);
        prop_assert_eq!(bits(&fast.input), bits(&oracle.input));
        prop_assert_eq!(bits(&fast.weight), bits(&oracle.weight));
        let bias_bits = |b: &[f32]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bias_bits(&fast.bias), bias_bits(&oracle.bias));
    }
}

// The tiled direct convolution's geometry space is wide (widths ×
// strides × pads × kernels × wiring), so it gets its own, larger budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The register-tiled `conv2d` equals the per-element oracle bit for
    /// bit across output widths 1–35, which straddle the 16-position tile
    /// and (at stride > 1) the phase-plane edges: stride 1–3, pad 0–2, k
    /// 1/3/5, generic, grouped and depth-wise wiring (6 output channels
    /// leave a 2-channel remainder after the 4-channel tile, 3 per group a
    /// 3-wide tile), a batch of one or two, exact zeros in the weights, and
    /// no bias, an all-zero bias or a bias with zeros and non-zeros.
    #[test]
    fn tiled_conv2d_matches_per_element_oracle_across_widths(
        xv in proptest::collection::vec(-2.0f32..2.0, 2 * 4 * 5 * 107),
        wv in sparse_f32_strategy(6 * 4 * 5 * 5),
        bv in sparse_f32_strategy(6),
        ow in 1usize..36,
        h in 1usize..6,
        n in 1usize..3,
        stride in 1usize..4,
        pad in 0usize..3,
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        groups in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        bias_kind in 0u8..3,
    ) {
        // the input width that yields `ow` outputs (clamped to fit the
        // kernel, so the narrowest cases may land a little wider)
        let w = ((ow - 1) * stride + k).saturating_sub(2 * pad).max(1);
        let h = h.max(k.saturating_sub(2 * pad));
        let cout = if groups == 4 { 4 } else { 6 };
        let cin_g = 4 / groups;
        let x = Tensor::from_vec(Shape::new(n, 4, h, w), xv[..n * 4 * h * w].to_vec());
        let wt = Tensor::from_vec(
            Shape::new(cout, cin_g, k, k),
            wv[..cout * cin_g * k * k].to_vec(),
        );
        let zeros = vec![0.0f32; cout];
        let bias = match bias_kind {
            0 => None,
            1 => Some(&zeros[..]),
            _ => Some(&bv[..cout]),
        };
        let fast = conv2d(&x, &wt, bias, stride, pad, groups);
        let oracle = conv2d_naive(&x, &wt, bias, stride, pad, groups);
        prop_assert_eq!(fast.shape(), oracle.shape());
        prop_assert_eq!(bits(&fast), bits(&oracle));
    }
}

// The channel tile's geometry space: output-channel counts against its
// 16-lane tiles, and output planes against its position tiles.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The channel-tiled `conv2d_packed_into` equals the per-element oracle
    /// bit for bit: stride 1–3, pad 0–2, k 1/3/5, 8–80 output channels
    /// (multiples of 16 and counts whose last tile ends in zero-padded
    /// lanes), output widths 1–35 so position tiles span output
    /// rows and end part-full, a batch of 1–3, exact zeros in the weights,
    /// and no bias, an all-zero bias or a bias with zeros and non-zeros.
    #[test]
    fn channel_tile_matches_per_element_oracle(
        xv in proptest::collection::vec(-2.0f32..2.0, 3 * 3 * 5 * 107),
        wv in sparse_f32_strategy(80 * 3 * 5 * 5),
        bv in sparse_f32_strategy(80),
        cout in 8usize..81,
        cin in 1usize..4,
        ow in 1usize..36,
        h in 1usize..6,
        n in 1usize..4,
        stride in 1usize..4,
        pad in 0usize..3,
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        bias_kind in 0u8..3,
    ) {
        let w = ((ow - 1) * stride + k).saturating_sub(2 * pad).max(1);
        let h = h.max(k.saturating_sub(2 * pad));
        let x = Tensor::from_vec(Shape::new(n, cin, h, w), xv[..n * cin * h * w].to_vec());
        let wt = Tensor::from_vec(
            Shape::new(cout, cin, k, k),
            wv[..cout * cin * k * k].to_vec(),
        );
        let zeros = vec![0.0f32; cout];
        let bias = match bias_kind {
            0 => None,
            1 => Some(&zeros[..]),
            _ => Some(&bv[..cout]),
        };
        let mut planes = Vec::new();
        let mut fast = Tensor::zeros(Shape::new(1, 1, 1, 1));
        let packed = PackedConvWeights::pack(&wt);
        conv2d_packed_into(&x, &packed, bias, stride, pad, &mut planes, &mut fast);
        let oracle = conv2d_naive(&x, &wt, bias, stride, pad, 1);
        prop_assert_eq!(fast.shape(), oracle.shape());
        prop_assert_eq!(bits(&fast), bits(&oracle));
    }
}

/// Dispatched vs scalar-reference `qconv2d` and `qconv2d_requant` (fused
/// ReLU on and off) on one geometry.
fn assert_qconv_bit_identical(
    qx: &QTensor,
    qw: &QTensor,
    bias: &[f32],
    stride: usize,
    pad: usize,
    groups: usize,
) {
    let a = qconv2d(qx, qw, Some(bias), stride, pad, groups);
    let b = qconv2d_reference(qx, qw, Some(bias), stride, pad, groups);
    assert_eq!(a.shape(), b.shape());
    assert_eq!(bits(&a), bits(&b));
    for relu in [false, true] {
        let a = qconv2d_requant(qx, qw, Some(bias), stride, pad, groups, relu, 0.5);
        let b = qconv2d_requant_reference(qx, qw, Some(bias), stride, pad, groups, relu, 0.5);
        assert_eq!(a.as_i8(), b.as_i8(), "relu {relu}");
    }
}

/// Deterministic (non-proptest) record of which dispatch mode this process
/// observed — makes `cargo test` output self-describing in the CI matrix.
#[test]
fn report_dispatch_mode() {
    eprintln!(
        "simd_bit_equality: avx2_supported={} simd_enabled={}",
        simd::avx2_supported(),
        simd::avx2_enabled()
    );
}
