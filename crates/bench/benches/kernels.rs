//! GEMM / convolution kernel benchmarks: cache-blocked register-tiled
//! kernels against the naive row-major dot-product kernels they replaced,
//! at the pipeline's real shapes.
//!
//! Two outputs:
//!
//! * `kernels/*` criterion groups for interactive comparison
//!   (`cargo bench -p eyecod-bench --bench kernels`);
//! * a `BENCH_kernels.json` artifact at the repository root with the
//!   median and median absolute deviation (MAD) of 21 timed samples per
//!   side (after one warm-up call) and blocked-vs-naive speedups of the
//!   medians for the reconstruction shapes, the 96×160 gaze-layer (ROI)
//!   shape, and the convolutions the frame path actually runs: the four
//!   ResNet-like gaze convs on a 24×32 crop (the f32 position and channel
//!   tiles, int8 requant, and the direct `conv2d` training's forward runs),
//!   the other two gaze families' `groups == 1` convs, and the
//!   segmentation network's 24×24 convs through both f32 tiles and the
//!   direct `conv2d`; the whole gaze forward of each family and the whole
//!   segmentation forward; the int8 requant epilogue and warm-up
//!   calibration; the capture
//!   stage's sensor-noise kernel and `Φ_Rᵀ` product at the working and
//!   paper-scale sensors; and the training run's `conv2d_backward` at the
//!   same convolution shapes. Each row's `note` records the host facts
//!   (CPUs, SIMD dispatch) and the sample count.

use criterion::{criterion_group, Criterion};
use eyecod_models::infer::{GazeInferWorkspace, SegInferWorkspace};
use eyecod_models::proxy::{GazeFamily, ProxyGazeNet, ProxySegNet};
use eyecod_models::quantized::QuantizedGazeNet;
use eyecod_optics::mat::Mat;
use eyecod_optics::sensor::SensorModel;
use eyecod_tensor::ops::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_into, conv2d_naive,
    conv2d_packed_into, PackedConvWeights,
};
use eyecod_tensor::quant::{
    qconv2d_requant, qconv2d_requant_reference, qlinear, qlinear_reference, QTensor,
};
use eyecod_tensor::{simd, Layer, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

fn mat(rows: usize, cols: usize, seed: u64) -> Mat {
    Mat::from_fn(rows, cols, |r, c| {
        let x = (r * cols + c) as u64 ^ seed.wrapping_mul(0x9E37_79B9);
        (x % 1013) as f64 / 1013.0 - 0.5
    })
}

fn tensor(shape: Shape, seed: u64) -> Tensor {
    Tensor::from_fn(shape, |n, c, h, w| {
        let x = (((n * 31 + c) * 37 + h) * 41 + w) as u64 ^ seed;
        (x % 613) as f32 / 613.0 - 0.5
    })
}

fn bench(c: &mut Criterion) {
    // f64 GEMM, blocked vs naive, at the Tikhonov reconstruction shapes
    // (working size 48/64, paper scale 256/320) and the 96×160 gaze ROI
    for (m, k, n, tag) in [
        (48, 64, 64, "recon_48x64x64"),
        (256, 320, 320, "recon_256x320x320"),
        (96, 160, 96, "gaze_96x160x96"),
    ] {
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        c.bench_function(&format!("kernels/gemm_naive_{tag}"), |bch| {
            bch.iter(|| a.matmul_naive(&b))
        });
        c.bench_function(&format!("kernels/gemm_blocked_{tag}"), |bch| {
            bch.iter(|| a.matmul(&b))
        });
    }

    // a 3x3 layer on the 96x160 ROI: the position tile vs the channel tile
    // over packed weights, both through warm buffers
    let x = tensor(Shape::new(1, 16, 96, 160), 3);
    let w = tensor(Shape::new(16, 16, 3, 3), 4);
    let packed = PackedConvWeights::pack(&w);
    let (mut planes, mut out) = (Vec::new(), Tensor::zeros(Shape::new(1, 1, 1, 1)));
    c.bench_function("kernels/conv_position_tile_16x96x160", |bch| {
        bch.iter(|| conv2d_into(&x, &w, None, 1, 1, 1, &mut planes, &mut out))
    });
    c.bench_function("kernels/conv_channel_tile_16x96x160", |bch| {
        bch.iter(|| conv2d_packed_into(&x, &packed, None, 1, 1, &mut planes, &mut out))
    });

    // int8 kernels: runtime-dispatched (AVX2 where available) vs the
    // pinned-scalar reference, at gaze-chain geometries
    let (qx, qw, bias) = int8_conv_operands();
    c.bench_function("kernels/qconv_requant_scalar_16x48x64", |bch| {
        bch.iter(|| qconv2d_requant_reference(&qx, &qw, Some(&bias), 1, 1, 1, true, 0.05))
    });
    c.bench_function("kernels/qconv_requant_dispatch_16x48x64", |bch| {
        bch.iter(|| qconv2d_requant(&qx, &qw, Some(&bias), 1, 1, 1, true, 0.05))
    });
    let (lx, lw, lbias) = int8_linear_operands();
    c.bench_function("kernels/qlinear_scalar_64x1024", |bch| {
        bch.iter(|| qlinear_reference(&lx, &lw, Some(&lbias)))
    });
    c.bench_function("kernels/qlinear_dispatch_64x1024", |bch| {
        bch.iter(|| qlinear(&lx, &lw, Some(&lbias)))
    });
}

/// Int8 conv operands at a gaze-chain-like dense 3×3 geometry.
fn int8_conv_operands() -> (QTensor, QTensor, Vec<f32>) {
    let qx = QTensor::quantize(&tensor(Shape::new(1, 16, 48, 64), 5));
    let qw = QTensor::quantize(&tensor(Shape::new(16, 16, 3, 3), 6));
    let bias: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) / 16.0).collect();
    (qx, qw, bias)
}

/// Int8 depthwise conv operands (one tap stream per channel).
fn int8_depthwise_operands() -> (QTensor, QTensor, Vec<f32>) {
    let qx = QTensor::quantize(&tensor(Shape::new(1, 32, 48, 64), 7));
    let qw = QTensor::quantize(&tensor(Shape::new(32, 1, 3, 3), 8));
    let bias: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) / 32.0).collect();
    (qx, qw, bias)
}

/// Int8 FC operands at a gaze-head-like reduction (64 outputs over K=1024).
fn int8_linear_operands() -> (QTensor, QTensor, Vec<f32>) {
    let lx = QTensor::quantize(&tensor(Shape::new(4, 1, 1, 1024), 9));
    let lw = QTensor::quantize(&tensor(Shape::vector(64, 1024), 10));
    let lbias: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
    (lx, lw, lbias)
}

#[derive(Serialize)]
struct KernelRow {
    kernel: &'static str,
    shape: String,
    /// Median wall time of the baseline side.
    naive_ns: u64,
    /// Median absolute deviation of the baseline side's samples.
    naive_mad_ns: u64,
    /// Median wall time of the optimised side.
    blocked_ns: u64,
    /// Median absolute deviation of the optimised side's samples.
    blocked_mad_ns: u64,
    /// `naive_ns / blocked_ns`.
    speedup: f64,
    /// Logical CPUs visible to this run — kernel timings on a shared or
    /// single-core host are not comparable to a dedicated many-core box.
    host_parallelism: usize,
    /// Host facts the timing depends on: CPUs, SIMD dispatch, samples.
    note: String,
}

impl KernelRow {
    fn new(kernel: &'static str, shape: String, naive: Timing, blocked: Timing) -> Self {
        KernelRow {
            kernel,
            shape,
            naive_ns: naive.median_ns,
            naive_mad_ns: naive.mad_ns,
            blocked_ns: blocked.median_ns,
            blocked_mad_ns: blocked.mad_ns,
            speedup: naive.median_ns as f64 / blocked.median_ns as f64,
            host_parallelism: host_parallelism(),
            note: host_note(),
        }
    }
}

/// Timed samples per side of a row, after one warm-up call.
const SAMPLES: usize = 21;

/// The median and median absolute deviation of one side's samples.
#[derive(Clone, Copy)]
struct Timing {
    median_ns: u64,
    mad_ns: u64,
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Times `f` over [`SAMPLES`] calls after one warm-up call (which warms
/// caches and sizes any workspace buffers).
fn time<R>(mut f: impl FnMut() -> R) -> Timing {
    f();
    let mut ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let median_ns = median(&mut ns);
    let mut dev: Vec<u64> = ns.iter().map(|&v| v.abs_diff(median_ns)).collect();
    Timing {
        median_ns,
        mad_ns: median(&mut dev),
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The host facts recorded with every row. On a host without AVX2 (or with
/// `EYECOD_NO_SIMD` set) the dispatched kernels are the scalar ones, so a
/// speedup near 1 is the honest result there.
fn host_note() -> String {
    let dispatch = if !simd::avx2_supported() {
        "no AVX2: dispatched kernels are scalar"
    } else if !simd::avx2_enabled() {
        "AVX2 supported but EYECOD_NO_SIMD set: dispatched kernels are scalar"
    } else {
        "AVX2 dispatch"
    };
    format!(
        "{} logical CPUs, {dispatch}, {} target, median of {SAMPLES}",
        host_parallelism(),
        std::env::consts::ARCH
    )
}

/// The four convolutions of the ResNet-like gaze network on a 24×32 crop,
/// as `(C_in, C_out, input H, input W, stride)`; all 3×3, pad 1.
const GAZE_CONVS: [(usize, usize, usize, usize, usize); 4] = [
    (1, 16, 24, 32, 2),
    (16, 32, 12, 16, 2),
    (32, 32, 6, 8, 1),
    (32, 64, 6, 8, 2),
];

/// The `groups == 1` convolutions of the FBNet-like and MobileNet-like gaze
/// networks on a 24×32 crop, as `(family, [C_in, C_out, input H, input W,
/// k, stride, pad])`: the 3×3 stem and the point-wise halves of the
/// depth-wise-separable blocks.
const SEPARABLE_GAZE_CONVS: [(&str, [usize; 7]); 6] = [
    ("FBNet-like", [1, 12, 24, 32, 3, 2, 1]),
    ("FBNet-like", [12, 24, 6, 8, 1, 1, 0]),
    ("FBNet-like", [24, 48, 3, 4, 1, 1, 0]),
    ("MobileNet-like", [1, 8, 24, 32, 3, 2, 1]),
    ("MobileNet-like", [8, 16, 6, 8, 1, 1, 0]),
    ("MobileNet-like", [16, 24, 3, 4, 1, 1, 0]),
];

/// The segmentation network's convolutions at its 24×24 input, as
/// `(C_in, C_out, H, W, k, pad)`; all stride 1.
const SEG_CONVS: [(usize, usize, usize, usize, usize, usize); 6] = [
    (1, 8, 24, 24, 3, 1),
    (8, 8, 24, 24, 3, 1),
    (8, 16, 12, 12, 3, 1),
    (16, 16, 12, 12, 3, 1),
    (24, 8, 24, 24, 3, 1),
    (8, 4, 24, 24, 1, 0),
];

fn write_kernel_artifact() {
    let mut rows = Vec::new();
    for (m, k, n, tag) in [
        (48, 64, 64, "recon working size (scene 48, sensor 64)"),
        (256, 320, 320, "recon paper scale (scene 256, sensor 320)"),
        (96, 160, 96, "gaze ROI 96x160"),
    ] {
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        let naive_ns = time(|| a.matmul_naive(&b));
        let blocked_ns = time(|| a.matmul(&b));
        rows.push(KernelRow::new(
            "f64 gemm",
            format!("{m}x{k} * {k}x{n} ({tag})"),
            naive_ns,
            blocked_ns,
        ));
    }

    // the two f32 inference tiles through warm buffers: the position tile
    // (`conv2d_into`, naive_ns) vs the channel tile over packed weights
    // (blocked_ns), on the 96x160 ROI layer, the `groups == 1` gaze layers
    // of all three families and the segmentation layers —
    // `Conv2d::forward_into` picks the channel tile when `C_out` is a
    // multiple of its 16 lanes
    let mut shapes = vec![(16, 16, 96, 160, 3, 1, 1, "paper ROI".to_string())];
    for (i, &(ci, co, h, w_, stride)) in GAZE_CONVS.iter().enumerate() {
        let tag = format!("ResNet-like layer {i}");
        shapes.push((ci, co, h, w_, 3, stride, 1, tag));
    }
    for &(family, [ci, co, h, w_, k, stride, pad]) in &SEPARABLE_GAZE_CONVS {
        let tag = format!("{family} {k}x{k}");
        shapes.push((ci, co, h, w_, k, stride, pad, tag));
    }
    for (i, &(ci, co, h, w_, k, pad)) in SEG_CONVS.iter().enumerate() {
        shapes.push((ci, co, h, w_, k, 1, pad, format!("seg layer {i}")));
    }
    let (mut planes, mut out) = (Vec::new(), Tensor::zeros(Shape::new(1, 1, 1, 1)));
    for (i, (ci, co, h, w_, k, stride, pad, tag)) in shapes.into_iter().enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 20 + i as u64);
        let w = tensor(Shape::new(co, ci, k, k), 30 + i as u64);
        let packed = PackedConvWeights::pack(&w);
        let position_ns = time(|| conv2d_into(&x, &w, None, stride, pad, 1, &mut planes, &mut out));
        let channel_ns =
            time(|| conv2d_packed_into(&x, &packed, None, stride, pad, &mut planes, &mut out));
        rows.push(KernelRow::new(
            "f32 conv (position tile vs channel tile)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},{k},{k}) s{stride} p{pad} ({tag})"),
            position_ns,
            channel_ns,
        ));
    }

    // the whole f32 gaze forward: the allocating layer-by-layer
    // `Layer::forward` (naive_ns) vs the workspace `forward_infer`
    let mut rng = StdRng::seed_from_u64(163);
    let mut gaze_ws = GazeInferWorkspace::new();
    let mut pred = Tensor::zeros(Shape::new(1, 1, 1, 1));
    for (family, tag, n) in [
        (GazeFamily::ResNetLike, "ResNet-like", 1),
        (GazeFamily::ResNetLike, "ResNet-like", 3),
        (GazeFamily::FbnetLike, "FBNet-like", 1),
        (GazeFamily::MobileNetLike, "MobileNet-like", 1),
    ] {
        let mut gaze = ProxyGazeNet::new(family, &mut rng);
        let x = tensor(Shape::new(n, 1, 24, 32), 164 + n as u64);
        let layer_ns = time(|| gaze.forward(&x, false));
        let infer_ns = time(|| gaze.forward_infer(&x, &mut gaze_ws, &mut pred));
        rows.push(KernelRow::new(
            "f32 gaze forward (Layer::forward vs workspace forward_infer)",
            format!("{tag}, {n} crop(s) of 24x32"),
            layer_ns,
            infer_ns,
        ));
    }

    // the int8 requantisation epilogue, isolated on a depth-wise 1x1 layer
    // whose accumulation is one tap per output: the libm `roundf` per
    // element (naive_ns) vs the dispatched, vectorised epilogue
    let qx = QTensor::quantize(&tensor(Shape::new(1, 16, 48, 64), 165));
    let qw = QTensor::quantize(&tensor(Shape::new(16, 1, 1, 1), 166));
    let qb: Vec<f32> = (0..16).map(|c| (c as f32 - 8.0) / 16.0).collect();
    let scalar_ns = time(|| qconv2d_requant_reference(&qx, &qw, Some(&qb), 1, 0, 16, true, 0.05));
    let dispatch_ns = time(|| qconv2d_requant(&qx, &qw, Some(&qb), 1, 0, 16, true, 0.05));
    rows.push(KernelRow::new(
        "int8 requant epilogue, depth-wise 1x1 (scalar vs dispatched)",
        "(1,16,48,64) * (16,1,1,1) g=16, 49152 outputs".into(),
        scalar_ns,
        dispatch_ns,
    ));

    // the same convolutions in the deployed int8 chain: scalar tap loops
    // (naive_ns) vs the dispatched i8 im2col + 4-channel dot tile
    for (i, &(ci, co, h, w_, stride)) in GAZE_CONVS.iter().enumerate() {
        let qx = QTensor::quantize(&tensor(Shape::new(1, ci, h, w_), 40 + i as u64));
        let qw = QTensor::quantize(&tensor(Shape::new(co, ci, 3, 3), 50 + i as u64));
        let bias: Vec<f32> = (0..co).map(|c| (c as f32 - 8.0) / 16.0).collect();
        let scalar_ns =
            time(|| qconv2d_requant_reference(&qx, &qw, Some(&bias), stride, 1, 1, true, 0.05));
        let dispatch_ns = time(|| qconv2d_requant(&qx, &qw, Some(&bias), stride, 1, 1, true, 0.05));
        rows.push(KernelRow::new(
            "int8 gaze qconv_requant 3x3 (scalar vs dispatched)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},3,3) s{stride} (ResNet-like layer {i})"),
            scalar_ns,
            dispatch_ns,
        ));
    }

    // the segmentation network's convolutions through the direct conv2d:
    // per-element oracle (naive_ns) vs the register-tiled dispatched kernel
    for (i, &(ci, co, h, w_, k, pad)) in SEG_CONVS.iter().enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 60 + i as u64);
        let w = tensor(Shape::new(co, ci, k, k), 70 + i as u64);
        let b: Vec<f32> = (0..co).map(|c| (c as f32 - 4.0) / 8.0).collect();
        let naive_ns = time(|| conv2d_naive(&x, &w, Some(&b), 1, pad, 1));
        let direct_ns = time(|| conv2d(&x, &w, Some(&b), 1, pad, 1));
        rows.push(KernelRow::new(
            "f32 seg conv2d (per-element oracle vs register-tiled)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},{k},{k}) (seg layer {i})"),
            naive_ns,
            direct_ns,
        ));
    }

    // the gaze convolutions training's forward runs through conv2d (three
    // of the four at stride 2, through the phase planes)
    for (i, &(ci, co, h, w_, stride)) in GAZE_CONVS.iter().enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 140 + i as u64);
        let w = tensor(Shape::new(co, ci, 3, 3), 150 + i as u64);
        let naive_ns = time(|| conv2d_naive(&x, &w, None, stride, 1, 1));
        let direct_ns = time(|| conv2d(&x, &w, None, stride, 1, 1));
        rows.push(KernelRow::new(
            "f32 gaze conv2d, training forward (per-element oracle vs register-tiled)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},3,3) s{stride} (ResNet-like layer {i})"),
            naive_ns,
            direct_ns,
        ));
    }

    // the whole segmentation refresh forward: the allocating layer-by-layer
    // `Layer::forward` (naive_ns) vs the allocation-free workspace path
    let mut rng = StdRng::seed_from_u64(160);
    let mut seg = ProxySegNet::new(8, &mut rng);
    let x = tensor(Shape::new(1, 1, 24, 24), 161);
    let layer_ns = time(|| seg.forward(&x, false));
    let mut seg_ws = SegInferWorkspace::new();
    let mut labels = Vec::new();
    let ws_ns = time(|| seg.forward_infer(&x, &mut seg_ws, &mut labels));
    rows.push(KernelRow::new(
        "f32 segmentation forward (Layer::forward vs workspace forward_infer)",
        "(1,1,24,24) -> (1,4,24,24), width 8".into(),
        layer_ns,
        ws_ns,
    ));

    // the int8 warm-up calibration, priced against the eight single-crop
    // f32 forwards of the warm-up frames whose crops it calibrates on
    let gaze = ProxyGazeNet::new(GazeFamily::ResNetLike, &mut rng);
    let calib = tensor(Shape::new(8, 1, 24, 32), 162);
    let crops: Vec<Tensor> = (0..8).map(|i| calib.batch_item(i)).collect();
    let mut gaze_ws = GazeInferWorkspace::new();
    let mut pred = Tensor::zeros(Shape::new(1, 1, 1, 1));
    let frames_ns = time(|| {
        for crop in &crops {
            gaze.forward_infer(crop, &mut gaze_ws, &mut pred);
        }
    });
    let calib_ns = time(|| QuantizedGazeNet::from_calibrated(&gaze, &calib));
    rows.push(KernelRow::new(
        "int8 warm-up calibration (8 single-crop f32 forwards vs from_calibrated on their 8 crops)",
        "ResNet-like, 8 crops of 24x32".into(),
        frames_ns,
        calib_ns,
    ));

    // training's backward pass at the same convolution shapes: per-element
    // oracle (naive_ns) vs the span-hoisted dispatched kernel
    let backward_shapes = GAZE_CONVS
        .iter()
        .map(|&(ci, co, h, w_, stride)| (ci, co, h, w_, 3, 1, stride, "ResNet-like"))
        .chain(
            SEG_CONVS
                .iter()
                .map(|&(ci, co, h, w_, k, pad)| (ci, co, h, w_, k, pad, 1, "seg")),
        );
    for (i, (ci, co, h, w_, k, pad, stride, net)) in backward_shapes.enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 80 + i as u64);
        let w = tensor(Shape::new(co, ci, k, k), 100 + i as u64);
        let go = tensor(x.shape().conv_output(co, k, pad, stride), 120 + i as u64);
        let oracle_ns = time(|| conv2d_backward_reference(&x, &w, &go, stride, pad, 1));
        let hoisted_ns = time(|| conv2d_backward(&x, &w, &go, stride, pad, 1));
        rows.push(KernelRow::new(
            "f32 conv2d_backward (per-element oracle vs span-hoisted)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},{k},{k}) s{stride} p{pad} ({net})"),
            oracle_ns,
            hoisted_ns,
        ));
    }

    // the capture stage at the working sensor (64) and paper scale (320):
    // the libm sensor-noise loop (naive_ns) vs the dispatched polynomial
    // kernel, each on a fresh copy of one clean measurement
    for (scene, sensor) in [(48, 64), (256, 320)] {
        let model = SensorModel::nir_eye_tracking();
        let clean = mat(sensor, sensor, 11);
        let mut y = Mat::zeros(1, 1);
        let libm_ns = time(|| {
            y.copy_from(&clean);
            model.apply_inplace_reference(&mut y, 5);
        });
        let poly_ns = time(|| {
            y.copy_from(&clean);
            model.apply_inplace(&mut y, 5);
        });
        rows.push(KernelRow::new(
            "f64 sensor noise, nir_eye_tracking (libm reference vs dispatched polynomial)",
            format!("{sensor}x{sensor} measurement"),
            libm_ns,
            poly_ns,
        ));
        // `(Φ_L·X) · Φ_Rᵀ`: Φ_R read in place at stride `scene` vs the
        // stored transpose through the blocked tile
        let tmp = mat(sensor, scene, 12);
        let phi_r = mat(sensor, scene, 13);
        let phi_r_t = phi_r.transpose();
        let transposed_b_ns = time(|| tmp.matmul_transposed_b_into(&phi_r, &mut y));
        let pretransposed_ns = time(|| tmp.matmul_into(&phi_r_t, &mut y));
        rows.push(KernelRow::new(
            "f64 capture gemm (transposed-B vs pre-transposed Phi_R^T)",
            format!("{sensor}x{scene} * ({sensor}x{scene})^T (scene {scene}, sensor {sensor})"),
            transposed_b_ns,
            pretransposed_ns,
        ));
    }

    // int8 kernels at the synthetic geometries: scalar reference (naive_ns)
    // vs runtime-dispatched (blocked_ns)
    let (qx, qw, qbias) = int8_conv_operands();
    let scalar_ns = time(|| qconv2d_requant_reference(&qx, &qw, Some(&qbias), 1, 1, 1, true, 0.05));
    let dispatch_ns = time(|| qconv2d_requant(&qx, &qw, Some(&qbias), 1, 1, 1, true, 0.05));
    rows.push(KernelRow::new(
        "int8 qconv_requant 3x3 (scalar vs dispatched)",
        "(1,16,48,64) * (16,16,3,3)".into(),
        scalar_ns,
        dispatch_ns,
    ));

    let (dx, dw, dbias) = int8_depthwise_operands();
    let scalar_ns =
        time(|| qconv2d_requant_reference(&dx, &dw, Some(&dbias), 1, 1, 32, true, 0.05));
    let dispatch_ns = time(|| qconv2d_requant(&dx, &dw, Some(&dbias), 1, 1, 32, true, 0.05));
    rows.push(KernelRow::new(
        "int8 qconv_requant depthwise 3x3 (scalar vs dispatched)",
        "(1,32,48,64) * (32,1,3,3) g=32".into(),
        scalar_ns,
        dispatch_ns,
    ));

    let (lx, lw, lbias) = int8_linear_operands();
    let scalar_ns = time(|| qlinear_reference(&lx, &lw, Some(&lbias)));
    let dispatch_ns = time(|| qlinear(&lx, &lw, Some(&lbias)));
    rows.push(KernelRow::new(
        "int8 qlinear (scalar vs dispatched)",
        "(4,1024) * (64,1024)".into(),
        scalar_ns,
        dispatch_ns,
    ));

    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    eyecod_bench::reporting::write_json(root, "BENCH_kernels", &rows);
    for r in &rows {
        println!(
            "{:<60} {:>10} ±{:>8} ns -> {:>10} ±{:>8} ns   {:.2}x",
            r.shape, r.naive_ns, r.naive_mad_ns, r.blocked_ns, r.blocked_mad_ns, r.speedup
        );
    }
}

criterion_group!(benches, bench);

fn main() {
    // `--artifact-only` skips criterion (CI smoke / artifact refresh)
    if !std::env::args().any(|a| a == "--artifact-only") {
        benches();
        Criterion::default().final_summary();
    }
    write_kernel_artifact();
}
