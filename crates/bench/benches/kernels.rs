//! GEMM / convolution kernel benchmarks: cache-blocked register-tiled
//! kernels against the naive row-major dot-product kernels they replaced,
//! at the pipeline's real shapes.
//!
//! Two outputs:
//!
//! * `kernels/*` criterion groups for interactive comparison
//!   (`cargo bench -p eyecod-bench --bench kernels`);
//! * a `BENCH_kernels.json` artifact at the repository root with
//!   best-of-N wall times and blocked-vs-naive speedups for the
//!   reconstruction shapes, the 96×160 gaze-layer (ROI) shape, and the
//!   convolutions the frame path actually runs: the four ResNet-like gaze
//!   convs on a 24×32 crop (f32 GEMM and int8 requant) and the
//!   segmentation network's 24×24 convs through the direct `conv2d`. Each
//!   row's `note` records the host facts (CPUs, SIMD dispatch).

use criterion::{criterion_group, Criterion};
use eyecod_optics::mat::Mat;
use eyecod_tensor::ops::{
    conv2d, conv2d_gemm, conv2d_gemm_buf, conv2d_gemm_reference, conv2d_naive, ConvWorkspace,
};
use eyecod_tensor::quant::{
    qconv2d_requant, qconv2d_requant_reference, qlinear, qlinear_reference, QTensor,
};
use eyecod_tensor::{simd, Shape, Tensor};
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

    // conv-as-GEMM on a gaze-layer geometry: fresh buffers per call vs a
    // warm reusable workspace (the steady-state frame regime)
    let x = tensor(Shape::new(1, 16, 96, 160), 3);
    let w = tensor(Shape::new(16, 16, 3, 3), 4);
    c.bench_function("kernels/conv_gemm_alloc_16x96x160", |bch| {
        bch.iter(|| conv2d_gemm(&x, &w, None, 1, 1, 1))
    });
    let mut ws = ConvWorkspace::new();
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    c.bench_function("kernels/conv_gemm_workspace_16x96x160", |bch| {
        bch.iter(|| {
            let (patches, _, _) = ws.split();
            conv2d_gemm_buf(&x, &w, None, 1, 1, 1, patches, &mut out);
        })
    });
    // the direct (pre-GEMM) convolution as the reference point
    c.bench_function("kernels/conv_direct_16x96x160", |bch| {
        bch.iter(|| conv2d(&x, &w, None, 1, 1, 1))
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
    naive_ns: u64,
    blocked_ns: u64,
    speedup: f64,
    /// Logical CPUs visible to this run — kernel timings on a shared or
    /// single-core host are not comparable to a dedicated many-core box.
    host_parallelism: usize,
    /// Host facts the timing depends on: CPUs, SIMD dispatch, repetitions.
    note: String,
}

impl KernelRow {
    fn new(kernel: &'static str, shape: String, naive_ns: u64, blocked_ns: u64) -> Self {
        KernelRow {
            kernel,
            shape,
            naive_ns,
            blocked_ns,
            speedup: naive_ns as f64 / blocked_ns as f64,
            host_parallelism: host_parallelism(),
            note: host_note(),
        }
    }
}

/// Repetitions per timing (the minimum is reported).
const ITERS: usize = 15;

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
        "{} logical CPUs, {dispatch}, {} target, best of {ITERS}",
        host_parallelism(),
        std::env::consts::ARCH
    )
}

/// Best-of-N wall time of `f` in nanoseconds.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    f(); // warm caches and buffers
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap()
}

/// The four convolutions of the ResNet-like gaze network on a 24×32 crop,
/// as `(C_in, C_out, input H, input W, stride)`; all 3×3, pad 1.
const GAZE_CONVS: [(usize, usize, usize, usize, usize); 4] = [
    (1, 16, 24, 32, 2),
    (16, 32, 12, 16, 2),
    (32, 32, 6, 8, 1),
    (32, 64, 6, 8, 2),
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
        let naive_ns = best_of(ITERS, || a.matmul_naive(&b));
        let blocked_ns = best_of(ITERS, || a.matmul(&b));
        rows.push(KernelRow::new(
            "f64 gemm",
            format!("{m}x{k} * {k}x{n} ({tag})"),
            naive_ns,
            blocked_ns,
        ));
    }

    // conv-as-GEMM through a warm workspace vs the direct convolution at a
    // gaze-layer geometry on the 96x160 ROI
    let x = tensor(Shape::new(1, 16, 96, 160), 3);
    let w = tensor(Shape::new(16, 16, 3, 3), 4);
    let direct_ns = best_of(ITERS, || conv2d(&x, &w, None, 1, 1, 1));
    let mut ws = ConvWorkspace::new();
    let mut out = Tensor::zeros(Shape::new(1, 1, 1, 1));
    let gemm_ns = best_of(ITERS, || {
        let (patches, _, _) = ws.split();
        conv2d_gemm_buf(&x, &w, None, 1, 1, 1, patches, &mut out);
    });
    rows.push(KernelRow::new(
        "f32 conv 3x3 (direct vs blocked im2col gemm)",
        "(1,16,96,160) * (16,16,3,3)".into(),
        direct_ns,
        gemm_ns,
    ));

    // the f32 gaze forward's convolutions: pinned-scalar GEMM instantiation
    // (naive_ns) vs the dispatched one through a warm workspace
    for (i, &(ci, co, h, w_, stride)) in GAZE_CONVS.iter().enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 20 + i as u64);
        let w = tensor(Shape::new(co, ci, 3, 3), 30 + i as u64);
        let scalar_ns = best_of(ITERS, || conv2d_gemm_reference(&x, &w, None, stride, 1, 1));
        let gemm_ns = best_of(ITERS, || {
            let (patches, _, _) = ws.split();
            conv2d_gemm_buf(&x, &w, None, stride, 1, 1, patches, &mut out);
        });
        rows.push(KernelRow::new(
            "f32 gaze conv 3x3 im2col gemm (scalar vs dispatched)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},3,3) s{stride} (ResNet-like layer {i})"),
            scalar_ns,
            gemm_ns,
        ));
    }

    // the same convolutions in the deployed int8 chain: scalar tap loops
    // (naive_ns) vs the dispatched i8 im2col + 4-channel dot tile
    for (i, &(ci, co, h, w_, stride)) in GAZE_CONVS.iter().enumerate() {
        let qx = QTensor::quantize(&tensor(Shape::new(1, ci, h, w_), 40 + i as u64));
        let qw = QTensor::quantize(&tensor(Shape::new(co, ci, 3, 3), 50 + i as u64));
        let bias: Vec<f32> = (0..co).map(|c| (c as f32 - 8.0) / 16.0).collect();
        let scalar_ns = best_of(ITERS, || {
            qconv2d_requant_reference(&qx, &qw, Some(&bias), stride, 1, 1, true, 0.05)
        });
        let dispatch_ns = best_of(ITERS, || {
            qconv2d_requant(&qx, &qw, Some(&bias), stride, 1, 1, true, 0.05)
        });
        rows.push(KernelRow::new(
            "int8 gaze qconv_requant 3x3 (scalar vs dispatched)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},3,3) s{stride} (ResNet-like layer {i})"),
            scalar_ns,
            dispatch_ns,
        ));
    }

    // the segmentation network's convolutions through the direct conv2d:
    // per-element oracle (naive_ns) vs the span-hoisted dispatched kernel
    for (i, &(ci, co, h, w_, k, pad)) in SEG_CONVS.iter().enumerate() {
        let x = tensor(Shape::new(1, ci, h, w_), 60 + i as u64);
        let w = tensor(Shape::new(co, ci, k, k), 70 + i as u64);
        let b: Vec<f32> = (0..co).map(|c| (c as f32 - 4.0) / 8.0).collect();
        let naive_ns = best_of(ITERS, || conv2d_naive(&x, &w, Some(&b), 1, pad, 1));
        let direct_ns = best_of(ITERS, || conv2d(&x, &w, Some(&b), 1, pad, 1));
        rows.push(KernelRow::new(
            "f32 seg conv2d (per-element oracle vs span-hoisted)",
            format!("(1,{ci},{h},{w_}) * ({co},{ci},{k},{k}) (seg layer {i})"),
            naive_ns,
            direct_ns,
        ));
    }

    // int8 kernels at the synthetic geometries: scalar reference (naive_ns)
    // vs runtime-dispatched (blocked_ns)
    let (qx, qw, qbias) = int8_conv_operands();
    let scalar_ns = best_of(ITERS, || {
        qconv2d_requant_reference(&qx, &qw, Some(&qbias), 1, 1, 1, true, 0.05)
    });
    let dispatch_ns = best_of(ITERS, || {
        qconv2d_requant(&qx, &qw, Some(&qbias), 1, 1, 1, true, 0.05)
    });
    rows.push(KernelRow::new(
        "int8 qconv_requant 3x3 (scalar vs dispatched)",
        "(1,16,48,64) * (16,16,3,3)".into(),
        scalar_ns,
        dispatch_ns,
    ));

    let (dx, dw, dbias) = int8_depthwise_operands();
    let scalar_ns = best_of(ITERS, || {
        qconv2d_requant_reference(&dx, &dw, Some(&dbias), 1, 1, 32, true, 0.05)
    });
    let dispatch_ns = best_of(ITERS, || {
        qconv2d_requant(&dx, &dw, Some(&dbias), 1, 1, 32, true, 0.05)
    });
    rows.push(KernelRow::new(
        "int8 qconv_requant depthwise 3x3 (scalar vs dispatched)",
        "(1,32,48,64) * (32,1,3,3) g=32".into(),
        scalar_ns,
        dispatch_ns,
    ));

    let (lx, lw, lbias) = int8_linear_operands();
    let scalar_ns = best_of(ITERS, || qlinear_reference(&lx, &lw, Some(&lbias)));
    let dispatch_ns = best_of(ITERS, || qlinear(&lx, &lw, Some(&lbias)));
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
            "{:<60} {:>12} ns -> {:>12} ns   {:.2}x",
            r.shape, r.naive_ns, r.blocked_ns, r.speedup
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
