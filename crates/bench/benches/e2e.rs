//! End-to-end frames-per-second benchmark — the repo's single tracked
//! performance number on the road to i-FlatCam's 253 FPS operating point
//! (arXiv 2206.08141).
//!
//! Two outputs:
//!
//! * `e2e/*` criterion groups for interactive comparison
//!   (`cargo bench -p eyecod-bench --bench e2e`);
//! * a `BENCH_e2e.json` artifact at the repository root with, per gaze
//!   backend (f32 / int8), the steady-state single-session FPS and the
//!   p50/p99 frame latency, plus the serve-tick fleet FPS at 16 sessions —
//!   emitted every PR so the repository accumulates an FPS trajectory
//!   (see the "FPS trajectory" section of the README).
//!
//! The artifact also carries a **sparsity sweep**: for each motion mix
//! (fixation / smooth-pursuit / saccadic, the [`MotionConfig`] presets)
//! and each gaze backend, dense-mode FPS vs event-driven delta-mode FPS
//! over the same prerendered sequence, with the gated/sparse frame split
//! in the row's note. Fixation-heavy traffic is the acceptance point: the
//! motion gate must buy ≥ 2× there, while the saccade-heavy mix documents
//! the honest worst case (most frames move too many pixels to gate).
//!
//! "Steady state" means past int8 calibration and at least one ROI refresh:
//! the tracker warms up for 30 frames before any timing starts, and the
//! measured window spans several ROI refresh periods so the p99 captures
//! refresh-frame cost, not just the cheap inter-refresh frames. The host's
//! SIMD capability is recorded in the JSON (a non-AVX2 host is noted, not
//! faked).

use criterion::{criterion_group, Criterion};
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_eyedata::{EyeMotionGenerator, MotionConfig};
use eyecod_serve::{ServeConfig, ServeRegistry};
use eyecod_tensor::{simd, Tensor};
use serde::Serialize;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Frames to run before timing starts (past the 8 int8 calibration frames
/// and several ROI refreshes at `roi_period = 10`).
const WARMUP_FRAMES: u64 = 30;
/// Frames in the measured steady-state window.
const MEASURED_FRAMES: usize = 150;
/// Fleet size for the serve-tick measurement.
const FLEET: usize = 16;
/// The standing system target (i-FlatCam, arXiv 2206.08141).
const TARGET_FPS: f64 = 253.0;

fn shared() -> &'static (TrackerConfig, TrackerModels, Tensor) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Tensor)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        let scene = render_eye(&EyeParams::centered(cfg.scene_size), cfg.scene_size, 0).image;
        (cfg, models, scene)
    })
}

/// A tracker warmed past calibration and ROI refresh on `backend`.
fn warm_tracker(backend: GazeBackend) -> EyeTracker {
    let (cfg, models, scene) = shared();
    let mut cfg = cfg.clone();
    cfg.gaze_backend = backend;
    let mut tracker = EyeTracker::new(cfg, models.clone_models());
    for f in 0..WARMUP_FRAMES {
        tracker.process_frame(scene, f);
    }
    tracker
}

fn backend_name(backend: GazeBackend) -> &'static str {
    match backend {
        GazeBackend::F32 => "f32",
        GazeBackend::Int8 => "int8",
        GazeBackend::Latent => "latent",
    }
}

fn bench(c: &mut Criterion) {
    let (_, _, scene) = shared();
    for backend in GazeBackend::ALL {
        let mut tracker = warm_tracker(backend);
        let mut frame = WARMUP_FRAMES;
        c.bench_function(&format!("e2e/frame_{}", backend_name(backend)), |bch| {
            bch.iter(|| {
                frame += 1;
                tracker.process_frame(scene, frame)
            })
        });
    }
}

/// Steady-state per-backend measurements.
#[derive(Serialize)]
struct BackendRow {
    backend: &'static str,
    /// Frames in the measured window.
    frames: usize,
    /// Sustained steady-state throughput over the whole window.
    fps: f64,
    /// Median frame latency, nanoseconds.
    p50_ns: u64,
    /// 99th-percentile frame latency, nanoseconds (includes ROI-refresh
    /// frames: the window spans several refresh periods).
    p99_ns: u64,
}

/// Host capability record — so a number measured without AVX2 is labelled
/// as such instead of silently comparing unlike hosts across PRs.
#[derive(Serialize)]
struct SimdInfo {
    avx2_supported: bool,
    simd_enabled: bool,
    /// The SIMD tier the dispatched kernels ran at.
    tier: &'static str,
    /// The SIMD tiers the host supports, narrowest first.
    host_tiers: Vec<&'static str>,
    threads: usize,
    note: String,
}

/// One cell of the sparsity sweep: dense vs delta mode on one motion mix
/// under one gaze backend, over the identical prerendered sequence.
#[derive(Serialize)]
struct SparsityRow {
    /// Motion mix ("fixation" / "smooth_pursuit" / "saccadic").
    mix: &'static str,
    backend: &'static str,
    /// Frames in each measured window.
    frames: usize,
    /// Dense-mode throughput (every frame runs the full pipeline).
    dense_fps: f64,
    /// Delta-mode throughput (`TrackerConfig::delta` semantics: motion gate +
    /// sparse column updates between scheduled refreshes).
    delta_fps: f64,
    /// `delta_fps / dense_fps`.
    speedup: f64,
    /// The gated / sparse / dense frame split behind the number — never
    /// empty, so a sweep row can't silently claim a speedup without
    /// documenting the traffic that produced it.
    note: String,
}

#[derive(Serialize)]
struct E2eReport {
    /// The standing FPS target this trajectory tracks.
    target_fps: f64,
    simd: SimdInfo,
    backends: Vec<BackendRow>,
    /// Serve-tick fleet throughput: frames per second across a warm
    /// 16-session fleet (mixed f32/int8/latent backends, one
    /// `process_frame` job per session).
    fleet_sessions: usize,
    fleet_tick_ns: u64,
    fleet_fps: f64,
    /// Dense-vs-delta sweep over the motion-mix presets.
    sparsity: Vec<SparsityRow>,
}

/// Measures one backend's steady-state window.
fn measure_backend(backend: GazeBackend) -> BackendRow {
    let (_, _, scene) = shared();
    let mut tracker = warm_tracker(backend);
    let mut lat = Vec::with_capacity(MEASURED_FRAMES);
    let t0 = Instant::now();
    for i in 0..MEASURED_FRAMES {
        let f0 = Instant::now();
        std::hint::black_box(tracker.process_frame(scene, WARMUP_FRAMES + i as u64));
        lat.push(f0.elapsed().as_nanos() as u64);
    }
    let total = t0.elapsed().as_nanos() as u64;
    lat.sort_unstable();
    BackendRow {
        backend: backend_name(backend),
        frames: MEASURED_FRAMES,
        fps: MEASURED_FRAMES as f64 * 1e9 / total as f64,
        p50_ns: lat[MEASURED_FRAMES / 2],
        p99_ns: lat[(MEASURED_FRAMES * 99) / 100],
    }
}

/// Measures the steady-state serve tick over a warm mixed-backend fleet.
fn measure_fleet() -> (u64, f64) {
    let (cfg, models, scene) = shared();
    let sc = ServeConfig::new(cfg.clone());
    let mut reg = ServeRegistry::new(sc, models.clone_models());
    let ids: Vec<_> = (0..FLEET)
        .map(|s| {
            reg.create_with_backend(GazeBackend::ALL[s % GazeBackend::ALL.len()])
                .unwrap()
        })
        .collect();
    let mut round = 0u64;
    let mut tick = || {
        for id in &ids {
            reg.feed(*id, scene, round).unwrap();
        }
        round += 1;
        reg.tick()
    };
    for _ in 0..12 {
        tick(); // warm: past calibration and ROI refresh for every session
    }
    let tick_ns = (0..12)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(tick());
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap();
    (tick_ns, FLEET as f64 * 1e9 / tick_ns as f64)
}

/// One motion mix of the sparsity sweep: label plus preset constructor.
type MotionMix = (&'static str, fn() -> MotionConfig);

/// The motion mixes of the sparsity sweep, in artifact row order.
const MIXES: [MotionMix; 3] = [
    ("fixation", MotionConfig::fixation),
    ("smooth_pursuit", MotionConfig::smooth_pursuit),
    ("saccadic", MotionConfig::saccadic),
];

/// Prerenders one motion mix's sequence (rendering is excluded from every
/// timed window; both modes replay the identical frames).
fn render_mix(config: MotionConfig, seed: u64, frames: usize) -> Vec<Tensor> {
    let (cfg, _, _) = shared();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut motion = EyeMotionGenerator::new(EyeParams::random(&mut rng), config, seed);
    (0..frames)
        .map(|i| render_eye(&motion.next_frame(), cfg.scene_size, seed + i as u64).image)
        .collect()
}

/// Times one (mix, backend, mode) cell: warm past calibration and the
/// first refresh on the sequence's own frames, then measure a full window
/// cycling the same frames. Returns (fps, gated frames, sparse frames).
fn measure_sparsity_cell(
    frames: &[Tensor],
    backend: GazeBackend,
    delta: bool,
) -> (f64, usize, usize) {
    let (cfg, models, _) = shared();
    let mut cfg = cfg.clone();
    cfg.gaze_backend = backend;
    cfg.delta = delta;
    let mut tracker = EyeTracker::new(cfg, models.clone_models());
    for f in 0..WARMUP_FRAMES {
        tracker.process_frame(&frames[f as usize % frames.len()], f);
    }
    let (mut gated, mut sparse) = (0usize, 0usize);
    let t0 = Instant::now();
    for i in 0..MEASURED_FRAMES {
        let out = std::hint::black_box(tracker.process_frame(
            &frames[(WARMUP_FRAMES as usize + i) % frames.len()],
            WARMUP_FRAMES + i as u64,
        ));
        if out.gaze_skipped {
            gated += 1;
        } else if !out.roi_refreshed {
            sparse += 1;
        }
    }
    let total = t0.elapsed().as_nanos() as u64;
    (MEASURED_FRAMES as f64 * 1e9 / total as f64, gated, sparse)
}

/// The dense-vs-delta sweep across motion mixes and backends.
fn measure_sparsity() -> Vec<SparsityRow> {
    let mut rows = Vec::with_capacity(MIXES.len() * GazeBackend::ALL.len());
    for (m, (mix, preset)) in MIXES.iter().enumerate() {
        let frames = render_mix(preset(), 90 + m as u64, 60);
        for backend in GazeBackend::ALL {
            let (dense_fps, _, _) = measure_sparsity_cell(&frames, backend, false);
            let (delta_fps, gated, sparse) = measure_sparsity_cell(&frames, backend, true);
            let dense = MEASURED_FRAMES - gated - sparse;
            rows.push(SparsityRow {
                mix,
                backend: backend_name(backend),
                frames: MEASURED_FRAMES,
                dense_fps,
                delta_fps,
                speedup: delta_fps / dense_fps,
                note: format!(
                    "{gated} motion-gated + {sparse} sparse-update + {dense} dense frames \
                     of {MEASURED_FRAMES} (threshold 16 px)"
                ),
            });
        }
    }
    rows
}

fn write_e2e_artifact() {
    let note = if !simd::avx2_supported() {
        "host has no AVX2: all numbers are from the scalar kernels".to_string()
    } else if !simd::avx2_enabled() {
        "EYECOD_NO_SIMD set: all numbers are from the scalar kernels".to_string()
    } else {
        String::new()
    };
    let backends: Vec<BackendRow> = GazeBackend::ALL.into_iter().map(measure_backend).collect();
    let (fleet_tick_ns, fleet_fps) = measure_fleet();
    let sparsity = measure_sparsity();
    let report = E2eReport {
        target_fps: TARGET_FPS,
        simd: SimdInfo {
            avx2_supported: simd::avx2_supported(),
            simd_enabled: simd::avx2_enabled(),
            tier: simd::level().name(),
            host_tiers: simd::supported_levels().iter().map(|l| l.name()).collect(),
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            note,
        },
        backends,
        fleet_sessions: FLEET,
        fleet_tick_ns,
        fleet_fps,
        sparsity,
    };
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    eyecod_bench::reporting::write_json(root, "BENCH_e2e", &report);
    for b in &report.backends {
        println!(
            "e2e {:>5}: {:>8.1} fps (target {TARGET_FPS})   p50 {:>10} ns   p99 {:>10} ns",
            b.backend, b.fps, b.p50_ns, b.p99_ns
        );
    }
    println!(
        "e2e fleet: {} sessions, tick {} ns, {:.1} fps  {}",
        report.fleet_sessions, report.fleet_tick_ns, report.fleet_fps, report.simd.note
    );
    for r in &report.sparsity {
        println!(
            "e2e sparsity {:>14}/{:>6}: dense {:>8.1} fps, delta {:>8.1} fps ({:.2}x)  [{}]",
            r.mix, r.backend, r.dense_fps, r.delta_fps, r.speedup, r.note
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
    write_e2e_artifact();
}
