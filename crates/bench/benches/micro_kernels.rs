//! Component micro-benchmarks: the computational kernels every experiment
//! rests on (convolutions, quantised convolution, FlatCam capture and
//! reconstruction, SVD, eye rendering).

use criterion::{criterion_group, criterion_main, Criterion};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_optics::imaging::FlatCam;
use eyecod_optics::mask::SeparableMask;
use eyecod_optics::mat::Mat;
use eyecod_optics::recon::TikhonovReconstructor;
use eyecod_optics::sensor::SensorModel;
use eyecod_optics::svd::Svd;
use eyecod_tensor::ops::{conv2d, matmul};
use eyecod_tensor::quant::{qconv2d, QTensor};
use eyecod_tensor::{Shape, Tensor};

fn bench(c: &mut Criterion) {
    // convolution kernels at FBNet-like shapes
    let x = Tensor::ones(Shape::new(1, 24, 24, 40));
    let w_pw = Tensor::ones(Shape::new(144, 24, 1, 1));
    c.bench_function("kernels/pointwise_conv_24x40", |b| {
        b.iter(|| conv2d(&x, &w_pw, None, 1, 0, 1))
    });
    let w_dw = Tensor::ones(Shape::new(24, 1, 3, 3));
    c.bench_function("kernels/depthwise_conv_24x40", |b| {
        b.iter(|| conv2d(&x, &w_dw, None, 1, 1, 24))
    });
    let qx = QTensor::quantize(&x);
    let qw = QTensor::quantize(&w_dw);
    c.bench_function("kernels/depthwise_qconv_int8", |b| {
        b.iter(|| qconv2d(&qx, &qw, None, 1, 1, 24))
    });

    // matmul at reconstruction shapes
    let a = Tensor::ones(Shape::vector(64, 96));
    let bm = Tensor::ones(Shape::vector(96, 64));
    c.bench_function("kernels/matmul_64x96x64", |b| b.iter(|| matmul(&a, &bm)));

    // optics: capture + reconstruction at the pipeline's working size
    let mask = SeparableMask::mls_differential(64, 48, 7);
    let cam = FlatCam::new(mask.clone(), SensorModel::nir_eye_tracking());
    let scene = Mat::from_fn(48, 48, |r, c| ((r * c) % 13) as f64 / 13.0);
    c.bench_function("optics/flatcam_capture_48", |b| {
        b.iter(|| cam.capture(&scene, 3))
    });
    let recon = TikhonovReconstructor::new(&mask, 1e-3);
    let y = cam.capture(&scene, 3);
    c.bench_function("optics/tikhonov_reconstruct_48", |b| {
        b.iter(|| recon.reconstruct(&y))
    });
    c.bench_function("optics/jacobi_svd_64x48", |b| {
        b.iter(|| Svd::compute(mask.phi_l()))
    });

    // data: eye rendering
    c.bench_function("data/render_eye_48", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            render_eye(&EyeParams::centered(48), 48, seed)
        })
    });
}

/// The seed repo's `parallel_map`: fresh threads spawned per call, every
/// result funnelled through one shared mutex. Kept here verbatim (on std
/// scoped threads) as the baseline the persistent pool replaced. The
/// thread count is a parameter so the comparison pits equal participant
/// counts against each other regardless of the host's core count.
fn mutex_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < 4 {
        return items.iter().map(&f).collect();
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// Dataset-scale parallel execution strategies: sequential, the seed's
/// spawn-per-call/mutex-per-item map, and the reusable pool (persistent
/// workers claiming one item at a time from a shared cursor), at matched
/// participant counts (4 vs 3 workers + the caller).
///
/// Two workloads: a 64-item batch of FlatCam Tikhonov reconstructions at
/// the working scene size (the pipeline's real fan-out unit, compute
/// bound), and 4096 single reconstruction *rows* (fine grained, where
/// per-item locking and per-call spawning dominate). The pool maps the
/// rows as 32 chunks of 128, the way a fine-grained caller uses a pool
/// that claims one item at a time; the mutex baseline keeps its seed form,
/// one item per row.
fn heavy_compute(c: &mut Criterion) {
    const PARTICIPANTS: usize = 4;
    let pool = eyecod_pool::ThreadPool::with_threads(PARTICIPANTS - 1);

    let mask = SeparableMask::mls_differential(64, 48, 7);
    let cam = FlatCam::new(mask.clone(), SensorModel::nir_eye_tracking());
    let recon = TikhonovReconstructor::new(&mask, 1e-3);
    let measurements: Vec<Mat> = (0..64)
        .map(|i| {
            let scene = Mat::from_fn(48, 48, |r, c| (((r + i) * (c + 3)) % 17) as f64 / 17.0);
            cam.capture(&scene, i as u64)
        })
        .collect();

    c.bench_function("parallel/recon64_sequential", |b| {
        b.iter(|| {
            measurements
                .iter()
                .map(|m| recon.reconstruct(m))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("parallel/recon64_mutex_per_item", |b| {
        b.iter(|| mutex_parallel_map(&measurements, PARTICIPANTS, |m| recon.reconstruct(m)))
    });
    c.bench_function("parallel/recon64_pool", |b| {
        b.iter(|| pool.parallel_map(&measurements, |m| recon.reconstruct(m)))
    });

    // fine-grained: one Ŷ-row back-projection per item
    let y = &measurements[0];
    let rows: Vec<usize> = (0..4096).map(|i| i % 48).collect();
    let row_job = |&r: &usize| -> f64 {
        let mut acc = 0.0;
        for c in 0..y.cols() {
            acc += y.at(r % y.rows(), c) * (c as f64 + 1.0);
        }
        acc
    };
    c.bench_function("parallel/rows4096_sequential", |b| {
        b.iter(|| rows.iter().map(row_job).collect::<Vec<_>>())
    });
    c.bench_function("parallel/rows4096_mutex_per_item", |b| {
        b.iter(|| mutex_parallel_map(&rows, PARTICIPANTS, row_job))
    });
    c.bench_function("parallel/rows4096_pool_chunks128", |b| {
        b.iter(|| {
            let chunks: Vec<&[usize]> = rows.chunks(128).collect();
            pool.parallel_map(&chunks, |chunk| {
                chunk.iter().map(row_job).collect::<Vec<_>>()
            })
            .concat()
        })
    });
}

/// The deployed gaze backends head to head: the trained-architecture f32
/// forward vs the calibrated int8 chain on the same input, plus the one-off
/// fold-calibrate-quantise cost the tracker pays at the warm-up switchover.
fn int8_backend(c: &mut Criterion) {
    use eyecod_models::proxy::{GazeFamily, ProxyGazeNet};
    use eyecod_models::quantized::QuantizedGazeNet;
    use eyecod_tensor::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(7);
    let mut net = ProxyGazeNet::new(GazeFamily::FbnetLike, &mut rng);
    let calib = Tensor::from_fn(Shape::new(8, 1, 24, 32), |n, _, h, w| {
        ((n + h * 3 + w) % 13) as f32 / 13.0
    });
    let qnet = QuantizedGazeNet::from_calibrated(&net, &calib);
    let input = Tensor::from_fn(Shape::new(1, 1, 24, 32), |_, _, h, w| {
        ((h * 5 + w) % 11) as f32 / 11.0
    });

    c.bench_function("int8/gaze_forward_f32", |b| {
        b.iter(|| net.forward(&input, false))
    });
    c.bench_function("int8/gaze_forward_int8", |b| {
        b.iter(|| qnet.forward(&input))
    });
    c.bench_function("int8/fold_calibrate_quantize", |b| {
        b.iter(|| QuantizedGazeNet::from_calibrated(&net, &calib))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_group! {
    name = heavy;
    config = Criterion::default().sample_size(30);
    targets = heavy_compute
}
criterion_group! {
    name = int8;
    config = Criterion::default().sample_size(30);
    targets = int8_backend
}
criterion_main!(benches, heavy, int8);
